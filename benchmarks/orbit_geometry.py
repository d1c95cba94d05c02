"""Workload `orbit_geometry`: per-point geometry and orbit counting in one
warm process.

One job checks distance invariance on 200 seeded ball-point pairs under
seeded random isometries, round-trips 50 model-2 points through the ball
with the Cayley maps, sums the orbit series over 100 of those isometries
(by hand and with `orbit_cosh_power_sum`), counts stabilizer orbits of a
seeded model-3 point near the ridge on both lattices, applies the
stabilizer's nearest elements, evaluates one tail bound and checks the
curvature determinant at 10 seeded points.  Most of the time is per-call
Python overhead in `hermitian`, `transforms` and `geometry`, plus lattice
enumeration inside `counting`: counting walks one certified box around a
point, while `bound_pipeline` sweeps wide β windows.
"""

from __future__ import annotations

import math

import numpy as np

import lattices as L
import pbl
from bound_pipeline import eisenstein_spec
from harness import Recorder, Tally

N_PAIRS = 200
N_TRIPS = 50
N_ORBIT = 100
K_ORBIT = 20
N_CURV = 10
DELTAS = (2.0, 4.0, 6.0, 8.0)
ENUM_DELTA = 4.0
TAIL_DELTA = 3.0
TAIL_POWER = 12.0
RIDGE_K = 6
NEIGHBOURS = tuple(
    (m, n, l) for m in (-1, 0, 1) for n in (-1, 0, 1) for l in (-1, 0, 1) if (m, n, l) != (0, 0, 0)
)
# documented Cayley matrix gamma2 = gamma3 . gamma23, carrying model 2 to the ball
_GAMMA2 = np.array([[1, 1, 0], [0, 1, -1], [1, 1, -1]], dtype=complex) @ np.diag([1j, 1, 1])


def tail_f(rho: float) -> float:
    """cosh^{-12}(ρ/2): positive, decreasing, and fast enough for n = 2."""
    return math.cosh(rho / 2.0) ** -TAIL_POWER


def _ball_point(rng, lo, hi, n=2):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v * rng.uniform(lo, hi) / np.linalg.norm(v)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pairs = [
        (_ball_point(rng, 0.02, 0.8), _ball_point(rng, 0.02, 0.8), int(rng.integers(2**31)))
        for _ in range(N_PAIRS)
    ]
    trips = []
    for _ in range(N_TRIPS):
        z2 = complex(rng.normal(), rng.normal()) * 0.7
        trips.append((complex(rng.normal(), abs(z2) ** 2 / 2 + rng.uniform(0.1, 3.0)), z2))
    # near the ridge Re z1 = -k/4π, z2 = 0; the perturbation is small so that
    # the orbit counts, and so the work, barely change with the seed
    z1 = complex(-RIDGE_K / (4 * math.pi) * (1 + rng.uniform(-0.01, 0.01)), rng.uniform(-0.5, 0.5))
    z2 = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    q = -(2 * z1.real + abs(z2) ** 2)
    c = math.cosh(ENUM_DELTA / 2)
    r_alpha = math.sqrt(2 * q * (c - 1))
    return {
        "pairs": pairs,
        "trips": trips,
        "orbit_point": _ball_point(rng, 0.1, 0.5),
        "m3_point": (z1, z2),
        "enum_box": (r_alpha, q * c + 2 * r_alpha * abs(z2)),
        "curv_points": [_ball_point(rng, 0.05, 0.6) for _ in range(N_CURV)],
    }


def job(rec: Recorder, inp: dict) -> dict:
    c = rec.call
    ModelPoint = pbl.ModelPoint
    ball, _, _ = c("hermitian.standard_forms", pbl.standard_forms, 2)

    pairs = []
    for v, u, seed in inp["pairs"]:
        z = c("hermitian.ModelPoint", ModelPoint.ball, v)
        w = c("hermitian.ModelPoint", ModelPoint.ball, u)
        g = c("transforms.random_isometry", pbl.random_isometry, ball, seed)
        d0 = c("geometry.distance", pbl.distance, z, w)
        gz = c("transforms.apply", pbl.apply, g, z)
        gw = c("transforms.apply", pbl.apply, g, w)
        d1 = c("geometry.distance", pbl.distance, gz, gw)
        pairs.append((g, gz, d0, d1))

    cay = c("transforms.cayley_gamma2", pbl.cayley_gamma2)
    cay_inv = c("transforms.CayleyMap.inverse", cay.inverse)
    trips = []
    for z1, z2 in inp["trips"]:
        p = c("hermitian.ModelPoint", ModelPoint.m2, z1, z2)
        b = c("transforms.apply", pbl.apply, cay, p)
        trips.append((b, c("transforms.apply", pbl.apply, cay_inv, b)))

    z0 = c("hermitian.ModelPoint", ModelPoint.ball, inp["orbit_point"])
    isos = [g for g, *_ in pairs[:N_ORBIT]]
    terms = []
    for g in isos:
        gz = c("transforms.apply", pbl.apply, g, z0)
        c2 = c("geometry.cosh2_half_distance", pbl.cosh2_half_distance, z0, gz)
        terms.append(c("logreal.LogReal.from_log", pbl.LogReal.from_log, -(K_ORBIT / 2) * math.log(max(c2, 1.0))))
    by_hand = c("logreal.log_sum", pbl.log_sum, terms, tag=len(terms))
    rec.count("logreal.log_sum.items", len(terms))
    series = c("bounds.orbit_cosh_power_sum", pbl.orbit_cosh_power_sum, isos, z0, K_ORBIT)

    eis = c("lattice.LatticeSpec", eisenstein_spec)
    ra, rb = inp["enum_box"]
    lattices = []
    for lat, spec in ((L.GAUSSIAN, pbl.GAUSSIAN_SPEC), (L.EISENSTEIN, eis)):
        z3 = c("hermitian.ModelPoint", ModelPoint.m3, *inp["m3_point"])
        src = c("counting.OrbitSource.from_lattice", pbl.OrbitSource.from_lattice, spec)
        rx = c("counting.min_displacement", pbl.min_displacement, src, z3)
        counts = []
        for delta in DELTAS:
            n = c("counting.counting_function", pbl.counting_function, src, z3, z3, delta, tag=delta)
            rec.count("counting.counted", n)
            counts.append(n)
        idx = c("lattice.enumerate_indices", lambda: list(pbl.enumerate_indices(spec, ra, rb)))
        rec.count("lattice.enumerate_indices.points", len(idx))
        lattices.append((lat, spec, src, z3, rx, counts, idx))

    _, spec, src, z3, rx, _, _ = lattices[0]
    stab = []
    for m, n, l in NEIGHBOURS:
        p = c("lattice.LatticeSpec.param", spec.param, m, n, l)
        g = c("lattice.stabilizer_matrix", pbl.stabilizer_matrix, p, pbl.Model.M3)
        gz = c("transforms.apply", pbl.apply, g, z3)
        stab.append((p, g, c("geometry.distance", pbl.distance, z3, gz)))
    tail = c("counting.tail_bound", pbl.tail_bound, tail_f, 2, rx, TAIL_DELTA, src, z3, z3)

    curv = []
    for v in inp["curv_points"]:
        p = c("hermitian.ModelPoint", ModelPoint.ball, v)
        curv.append(c("geometry.curvature_determinant", pbl.curvature_determinant, p))

    return {
        "pairs": pairs,
        "trips": trips,
        "orbit": (isos, by_hand, series),
        "lattices": [(lat, rx, counts, idx) for lat, _, _, _, rx, counts, idx in lattices],
        "stab": stab,
        "tail": tail,
        "curv": curv,
    }


def fingerprint(out: dict) -> tuple:
    """Every number the job produced; identical inputs must reproduce it."""
    fp = [(tuple(gz.coords), d0, d1) for _, gz, d0, d1 in out["pairs"]]
    fp += [tuple(back.coords) for _, back in out["trips"]]
    fp += [out["orbit"][1].log_abs, out["orbit"][2].log_abs]
    fp += [(rx, tuple(counts), len(idx)) for _, rx, counts, idx in out["lattices"]]
    fp += [d for _, _, d in out["stab"]] + [out["tail"]] + list(out["curv"])
    return tuple(fp)


def check(out: dict, inp: dict, tally: Tally):
    """Oracle checks against values computed without pbl."""
    import oracles as O  # mpmath loads only here, after the timing

    for (v, u, _), (g, gz, d0, d1) in zip(inp["pairs"], out["pairs"]):
        ref = O.ball_distance(v, u)
        tally.check(
            abs(d0 - ref) <= 1e-12 * max(1.0, ref) and abs(d1 - ref) <= 1e-12 * max(1.0, ref),
            f"distance invariance: d={d0}, d(gz,gw)={d1}, reference {ref}",
        )
        tally.check(
            O.form_residual(g.mat, O.BALL_FORM) <= 1e-10
            and float(np.abs(gz.coords - O.act(g.mat, v)).max()) <= 1e-12,
            "random_isometry leaves SU(2,1) or apply disagrees with the matrix action",
        )

    for (z1, z2), (b, back) in zip(inp["trips"], out["trips"]):
        want = O.act(_GAMMA2, [z1, z2])
        tally.check(
            float(np.abs(b.coords - want).max()) <= 1e-12 * (1 + float(np.abs(want).max()))
            and abs(back.coords[0] - z1) + abs(back.coords[1] - z2) <= 1e-12 * (1 + abs(z1) + abs(z2)),
            f"M2 -> ball -> M2 round trip of {(z1, z2)} gave {back.coords}",
        )

    isos, by_hand, series = out["orbit"]
    ref = O.log_cosh_power_sum([g.mat for g in isos], inp["orbit_point"], K_ORBIT)
    tally.check(abs(by_hand.log_abs - ref) <= 1e-12, f"log_sum of orbit terms {by_hand.log_abs} vs {ref}")
    tally.check(abs(series.log_abs - ref) <= 1e-12, f"orbit_cosh_power_sum {series.log_abs} vs {ref}")

    z1, z2 = inp["m3_point"]
    for lat, rx, counts, idx in out["lattices"]:
        ref = O.min_displacement(lat, z1, z2)
        tally.check(O.close(rx, ref, 1e-10), f"{lat.name} min_displacement {rx} vs {ref}")
        for delta, n in zip(DELTAS, counts):
            lo, hi = O.orbit_count_range(lat, z1, z2, delta)
            tally.check(lo <= n <= hi, f"{lat.name} count at delta={delta}: {n} vs brute [{lo}, {hi}]")
        want = O.enumerate_count(lat, *inp["enum_box"])
        tally.check(
            len(idx) == want and len(set(idx)) == len(idx),
            f"{lat.name} enumerate_indices gave {len(idx)} points, box holds {want}",
        )

    q = -(2 * z1.real + abs(z2) ** 2)
    for p, g, d in out["stab"]:
        want = O.stabilizer_m3(p.alpha, p.beta)
        w1, w2 = O.act(want, [z1, z2])
        # cosh(d/2) = |<γz, z>| / q under the model-3 form; γ keeps q
        ref = 2 * math.acosh(max(abs(w1 + w2 * np.conj(z2) + np.conj(z1)) / q, 1.0))
        tally.check(
            float(np.abs(g.mat - want).max()) <= 1e-15 and O.close(d, ref, 1e-10, 1e-12),
            f"stabilizer element {p}: distance {d} vs {ref}",
        )

    cosh2, _ = O.orbit_cosh2(L.GAUSSIAN, z1, z2, 8.0)
    partial = float(np.sum(cosh2 ** (-TAIL_POWER / 2)))
    tally.check(
        math.isfinite(out["tail"]) and out["tail"] >= partial,
        f"tail_bound {out['tail']} is below the partial orbit sum {partial}",
    )

    target = (4 * math.pi) ** -2
    for det in out["curv"]:
        tally.check(abs(det - target) <= 1e-4 * target, f"curvature determinant {det} vs {target}")
