"""Per-layer metrics of a traced run, computed from the spans and counts the
benchmark recorded around its own calls into pbl.  The layers are pbl's
modules; a span's module is the first part of its name.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import Recorder

# metric -> (workloads, span name, tag filter, scale to the unit); the value
# is busy time per call over the traced jobs
PER_CALL = {
    "bounds.cusp_lattice_sum_ms.small_k": (("bound_pipeline",), "bounds.cusp_lattice_sum", lambda k: k <= 20, 1e3),
    "bounds.cusp_lattice_sum_ms.large_k": (("bound_pipeline",), "bounds.cusp_lattice_sum", lambda k: k >= 1000, 1e3),
    "bounds.cusp_bound_ms": (("bound_pipeline",), "bounds.cusp_bound", None, 1e3),
    "bounds.cocompact_bound_us": (("bound_pipeline",), "bounds.cocompact_bound", None, 1e6),
    "bounds.gamma_integral_chain_us": (("bound_pipeline",), "bounds.gamma_integral_chain", None, 1e6),
    "bounds.maxima_locate_ms": (("bound_pipeline",), "bounds.maxima_locate", None, 1e3),
    "bounds.scaling_fit_us": (("bound_pipeline",), "bounds.scaling_fit", None, 1e6),
    "bounds.orbit_cosh_power_sum_ms": (("orbit_geometry",), "bounds.orbit_cosh_power_sum", None, 1e3),
    "logreal.log_sum_us": (("bound_pipeline", "orbit_geometry"), "logreal.log_sum", None, 1e6),
    "hermitian.model_point_us": (("orbit_geometry",), "hermitian.ModelPoint", None, 1e6),
    "hermitian.standard_forms_us": (("orbit_geometry",), "hermitian.standard_forms", None, 1e6),
    "transforms.apply_us": (("orbit_geometry",), "transforms.apply", None, 1e6),
    "transforms.random_isometry_us": (("orbit_geometry",), "transforms.random_isometry", None, 1e6),
    "geometry.distance_us": (("orbit_geometry",), "geometry.distance", None, 1e6),
    "geometry.curvature_determinant_us": (("orbit_geometry",), "geometry.curvature_determinant", None, 1e6),
    "lattice.enumerate_indices_ms": (("orbit_geometry",), "lattice.enumerate_indices", None, 1e3),
    "lattice.stabilizer_matrix_us": (("orbit_geometry",), "lattice.stabilizer_matrix", None, 1e6),
    "counting.counting_function_ms": (("orbit_geometry",), "counting.counting_function", None, 1e3),
    "counting.min_displacement_ms": (("orbit_geometry",), "counting.min_displacement", None, 1e3),
    "counting.tail_bound_ms": (("orbit_geometry",), "counting.tail_bound", None, 1e3),
}

# metric -> (workloads, count name, reduction): "job" is the median over
# traced jobs of the per-job total, "call" the mean per recorded value,
# "median" the median of the recorded values
COUNTS = {
    "bounds.cusp_lattice_sum.terms": (("bound_pipeline",), "bounds.cusp_lattice_sum.terms", "job"),
    "bounds.cusp_lattice_sum.tail_ratio": (("bound_pipeline",), "bounds.cusp_lattice_sum.tail_ratio", "median"),
    "logreal.log_sum.items": (("bound_pipeline", "orbit_geometry"), "logreal.log_sum.items", "call"),
    "lattice.enumerate_indices.points": (("orbit_geometry",), "lattice.enumerate_indices.points", "job"),
    "counting.counted": (("orbit_geometry",), "counting.counted", "job"),
}

# modules whose spans each in-process workload records; on cli_cold a
# session is nothing but its cli spans, so the share there is always 1
SELF_FRAC = {
    "bound_pipeline": ("bounds", "lattice", "logreal"),
    "orbit_geometry": ("bounds", "counting", "geometry", "hermitian", "lattice", "logreal", "transforms"),
}


def per_call(recs: dict, workloads, name, keep, scale) -> float:
    busy, calls = 0.0, 0
    for w in workloads:
        for s in recs[w].spans:
            if s[0] == name and (keep is None or keep(s[1])):
                busy += s[3] - s[2]
                calls += 1
    return scale * busy / calls


def counts(recs: dict, workloads, name, how) -> float:
    values = [(v, job) for w in workloads for n, v, job in recs[w].counts if n == name]
    if how == "call":
        return sum(v for v, _ in values) / len(values)
    if how == "median":
        return statistics.median(v for v, _ in values)
    per_job = defaultdict(float)
    for v, job in values:
        per_job[job] += v
    return statistics.median(per_job.values())


def self_fracs(rec: Recorder, modules) -> dict:
    """Each module's share of the traced jobs' time: the sum of its spans
    over the jobs' total.  The benchmark only spans its own calls into pbl,
    so no span has a child but the job, and this stands in for self time
    until pbl records spans of its own."""
    own = defaultdict(float)
    for s in rec.spans:
        if s[0] != "job":
            own[s[0].split(".")[0]] += s[3] - s[2]
    total = sum(s[3] - s[2] for s in rec.spans if s[0] == "job")
    return {m: own[m] / total for m in modules}


def ns_per_term(rec: Recorder) -> float:
    """Median over traced jobs of lattice-sum time per summed term."""
    busy, terms = defaultdict(float), defaultdict(float)
    for s in rec.spans:
        if s[0] == "bounds.cusp_lattice_sum":
            busy[s[5]] += s[3] - s[2]
    for n, v, job in rec.counts:
        if n == "bounds.cusp_lattice_sum.terms":
            terms[job] += v
    return statistics.median(1e9 * busy[j] / terms[j] for j in busy)


def in_process_metrics(recs: dict) -> dict:
    """Every per-layer metric of the two in-process workloads."""
    out = {name: per_call(recs, *spec) for name, spec in PER_CALL.items()}
    out.update({name: counts(recs, *spec) for name, spec in COUNTS.items()})
    out["bounds.cusp_lattice_sum.ns_per_term"] = ns_per_term(recs["bound_pipeline"])
    for w in ("bound_pipeline", "orbit_geometry"):
        for m, frac in self_fracs(recs[w], SELF_FRAC[w]).items():
            out[f"{w}.{m}.self_frac"] = frac
    return out
