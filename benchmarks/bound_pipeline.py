"""Workload `bound_pipeline`: the paper's bound pipelines in one warm process.

One job is the acceptance-8 exponent sweep (cocompact and one-cusp bounds at
k = 50..400:25, r_x = 6, each followed by a fit), the certified cusp lattice
sum on the Gaussian lattice over small, medium and large k and on an
Eisenstein lattice with β offsets, the Gamma-integral chain, and the ridge
locator.  Nearly all the time is in `bounds`: the lattice-sum kernel and its
tail certificate, then `maxima_locate`.  The offset rule sends the
Eisenstein sums down the per-(m, n) path, so a kernel tuned only for the
zero-offset Gaussian lattice cannot hide a slowdown elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

import lattices as L
import pbl
from harness import Recorder, Tally

SWEEP = tuple(range(50, 401, 25))
R_X = 6.0
C_GAMMA, C_EXP = 1.0, 2
SUM_TOL = 1e-8
CUSP_TOL = 1e-6
GAUSS_KS = (6, 8, 12, 20, 60, 200, 1000)
EIS_KS = (6, 60, 1000)
GAMMA_KS = (6, 8, 12, 20, 60, 200)
MAXIMA_KS = (6, 20, 200)
MAXIMA_TOL = 1e-6


def eisenstein_spec() -> pbl.LatticeSpec:
    e = L.EISENSTEIN
    return pbl.LatticeSpec(complex(e.a1), complex(e.a2), e.step, e.offset)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    big = int(rng.integers(5000, 20001))
    # The large-k kernel costs O(k); pairing K with 25000 - K keeps the work
    # of a job the same for every seed, so seeds change inputs, not load.
    return {"big_ks": (big, 25000 - big)}


def job(rec: Recorder, inp: dict) -> dict:
    c = rec.call
    cm = c("bounds.ConstantModel", pbl.ConstantModel, C_GAMMA, C_EXP)
    out = {}
    for which in ("cocompact", "cusp"):
        reports, totals = {}, {}
        for k in SWEEP:
            if which == "cocompact":
                rep = c("bounds.cocompact_bound", pbl.cocompact_bound, 2, k, R_X, cm, tag=k)
            else:
                rep = c(
                    "bounds.cusp_bound", pbl.cusp_bound, k, R_X, cm, pbl.GAUSSIAN_SPEC, CUSP_TOL, tag=k
                )
            items = list(rep.terms.values())
            totals[k] = c("logreal.log_sum", pbl.log_sum, items, tag=len(items))
            rec.count("logreal.log_sum.items", len(items))
            reports[k] = rep
        fit = c("bounds.scaling_fit", pbl.scaling_fit, SWEEP, lambda k: reports[k].total)
        out[which] = (reports, totals, fit)

    eis = c("lattice.LatticeSpec", eisenstein_spec)
    sums = []
    for lat, spec, ks in (
        (L.GAUSSIAN, pbl.GAUSSIAN_SPEC, GAUSS_KS + inp["big_ks"]),
        (L.EISENSTEIN, eis, EIS_KS),
    ):
        for k in ks:
            res = c("bounds.cusp_lattice_sum", pbl.cusp_lattice_sum, k, spec, SUM_TOL, tag=k)
            rec.count("bounds.cusp_lattice_sum.terms", res.n_terms)
            rec.count(
                "bounds.cusp_lattice_sum.tail_ratio",
                res.tail_majorant / (SUM_TOL * math.exp(res.value.log_abs)),
            )
            sums.append((lat, k, res))
    out["sums"] = sums
    out["gamma"] = [c("bounds.gamma_integral_chain", pbl.gamma_integral_chain, k, tag=k) for k in GAMMA_KS]
    out["maxima"] = [
        (k, c("bounds.maxima_locate", pbl.maxima_locate, k, MAXIMA_TOL, tag=k)) for k in MAXIMA_KS
    ]
    return out


def fingerprint(out: dict) -> tuple:
    """Every number the job produced; identical inputs must reproduce it."""
    fp = []
    for which in ("cocompact", "cusp"):
        reports, totals, fit = out[which]
        for k, rep in reports.items():
            fp += [t.log_abs for t in rep.terms.values()] + [totals[k].log_abs]
        fp += [fit.slope, fit.intercept]
    fp += [(r.value.log_abs, r.n_terms, r.tail_majorant) for _, _, r in out["sums"]]
    fp += [(g.beta_quad, g.r_quad.log_abs) for g in out["gamma"]]
    fp += [tuple(p.coords) for _, p in out["maxima"]]
    return tuple(fp)


def check(out: dict, inp: dict, tally: Tally):
    """Oracle checks against values computed without pbl."""
    import oracles as O  # mpmath loads only here, after the timing

    for which in ("cocompact", "cusp"):
        reports, totals, fit = out[which]
        mp_totals = []
        for k, rep in reports.items():
            want = O.cocompact_log_terms(2, k, R_X, C_GAMMA, C_EXP)
            if which == "cusp":
                want["cusp_term"] = O.cusp_log_term(k, C_GAMMA, C_EXP, 1.0)
            got = {name: t.log_abs for name, t in rep.terms.items()}
            tally.check(
                got.keys() == want.keys()
                and all(O.close(got[n], want[n], 1e-12, 1e-12) for n in want),
                f"{which}_bound terms at k={k}: {got} vs mpmath {want}",
            )
            mp_total = O.log_sum_exp(want.values())
            mp_totals.append(mp_total)
            tally.check(
                O.close(totals[k].log_abs, mp_total, 1e-12, 1e-12)
                and O.close(rep.total.log_abs, mp_total, 1e-12, 1e-12),
                f"{which} log_sum at k={k}: {totals[k].log_abs} vs mpmath {mp_total}",
            )
            if which == "cusp":
                scaled = rep.extras["cusp_sum_scaled"].log_abs - (C_EXP * math.log(k) + math.log(C_GAMMA))
                brute = O.lattice_sum(k, L.GAUSSIAN)
                tally.check(
                    O.close(math.exp(scaled), brute, 2 * CUSP_TOL),
                    f"cusp_bound lattice sum at k={k}: {math.exp(scaled)} vs brute {brute}",
                )
        want_slope, lo, hi = (2.0, 1.98, 2.02) if which == "cocompact" else (2.5, 2.45, 2.55)
        tally.check(lo <= fit.slope <= hi, f"{which} fit slope {fit.slope} not {want_slope} ± {hi - want_slope}")
        ref = O.fit_slope(SWEEP, mp_totals)
        tally.check(O.close(fit.slope, ref, 1e-9), f"{which} fit slope {fit.slope} vs polyfit {ref}")

    for lat, k, res in out["sums"]:
        got = math.exp(res.value.log_abs)
        brute = O.lattice_sum(k, lat)
        # a partial sum never exceeds the full sum, and the certified tail
        # must cover the rest
        gap = brute - got
        tally.check(
            -1e-12 * brute <= gap <= res.tail_majorant + 1e-12 * brute
            and res.tail_majorant <= SUM_TOL * got,
            f"{lat.name} lattice sum k={k}: {got} vs brute {brute}, tail {res.tail_majorant}",
        )

    for g in out["gamma"]:
        ok = (
            abs(g.beta_ratio - 1.0) <= 1e-8
            and abs(g.r_ratio - 0.5) <= 1e-8
            and O.close(g.beta_closed, O.beta_integral(g.k), 1e-12)
            and O.close(g.r_quad.log_abs, O.log_r_integral(g.k), 1e-10, 1e-10)
        )
        tally.check(ok, f"gamma chain k={g.k}: beta_ratio {g.beta_ratio}, r_ratio {g.r_ratio}")

    for k, p in out["maxima"]:
        x_star = k / (4 * math.pi)
        z1, z2 = p.coords
        tally.check(
            abs(z1.real + x_star) <= MAXIMA_TOL * x_star and abs(z2) <= MAXIMA_TOL,
            f"maxima k={k} at {p.coords}, ridge at x1 = {-x_star}",
        )
