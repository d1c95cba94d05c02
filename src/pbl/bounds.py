"""Bound pipelines: the cusp-stabilizer lattice sum with certified
truncation, the combined one-cusp bound, the ridge locator for the cusp
objective as a model-3 point, and the truncated orbit sum.  The closed-form
pipelines (the cocompact estimate, the Gamma-function chain, the ridge in
floats, the exponent fitter) live in `pbl.closed_forms`, which needs no
numpy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .closed_forms import (
    BoundReport,
    ConstantModel,
    _beta_integral,
    _cocompact_logs,
    _cusp_term_log,
    ridge_locate,
)
from .errors import NumericalError, _check_exact_int, _check_positive, _check_rel_tol
from .geometry import _sinh2
from .hermitian import ModelPoint
from .lattice import _MAX_ENUM, LatticeSpec, _check_budget, lattice_covolume
from .logreal import LogReal, log_sum_exp
from .transforms import Isometry, _isometry_stack

__all__ = [
    "CuspSumResult", "cusp_lattice_sum", "cusp_bound", "maxima_locate", "orbit_cosh_power_sum"
]


# -- cusp lattice sum ------------------------------------------------------

# most terms one lattice sum box may evaluate (its distinct beta lines times
# their length)
_MAX_TERMS = 10 * _MAX_ENUM


def _check_terms(terms: float, what: str):
    if not terms <= _MAX_TERMS:
        raise NumericalError(f"{what} needs ~{terms:.3g} terms (> {_MAX_TERMS})")


# the distinct beta lines of an alpha disc: each line's offset and
# h = |alpha|^2/2, sorted by (offset, h), and how many columns share it
# (as floats); (start, stop, columns) of each run of equal offsets; the
# number of columns; and max |offset| (0 for no lines).  Its arrays are
# read-only: _beta_lines hands the same BetaLines to every lattice sum on
# the same disc.
BetaLines = namedtuple("BetaLines", "offset h weight classes columns off_max")


class CuspSumResult(NamedTuple):
    """Certified evaluation of the stabilizer lattice sum
    sum_L (k/2pi)^k / |k/2pi + |alpha|^2/2 + i beta|^k."""

    value: LogReal
    k: int
    r_alpha: float
    r_beta: float
    tail_majorant: float
    n_terms: int


@functools.lru_cache(maxsize=64)
def _beta_row(step: float, offset: float, r_beta: float):
    """(beta_sq, mult, points) of the betas offset + l step with |beta| <=
    r_beta: each distinct |beta| once, ascending, squared, with how many
    betas share it (as floats), and the number of betas.  A row
    depends on neither k nor the alpha disc, so every equal class of a sum,
    and every repeated sum, shares it: kept for the 64 most recently used
    (step, offset, r_beta), with read-only arrays."""
    l_max = int(math.floor((r_beta + abs(offset)) / step)) + 1
    beta = offset + np.arange(-l_max, l_max + 1) * step
    window = beta[np.abs(beta) <= r_beta]
    beta_abs, mult = np.unique(np.abs(window), return_counts=True)
    with np.errstate(over="ignore"):
        beta_sq = beta_abs * beta_abs
    mult = mult.astype(float)
    for a in (beta_sq, mult):
        a.setflags(write=False)
    return beta_sq, mult, window.size


@functools.lru_cache(maxsize=64)
def _beta_lines(spec: LatticeSpec, r_alpha: float) -> BetaLines:
    """The distinct beta lines of spec.disc(r_alpha), with disc's checks:
    disc's columns grouped by their exact (offset, h) pair, h = |alpha|^2/2,
    on which a column's beta line depends.  Kept for the 64 most recently
    used (spec, radius) pairs, by value, so equal specs share them."""
    disc = spec.disc(r_alpha)
    # re^2 + im^2 is exact on integer alphas, and inf past |alpha| ~ 1e154
    with np.errstate(over="ignore"):
        h = (disc.alpha.real**2 + disc.alpha.imag**2) / 2.0
    # each column's (offset, h) as offset + i h, which sorts by offset,
    # then h; built as a view, since 1j * inf would put a nan in it
    pair = np.column_stack((disc.offset, h)).view(complex).ravel()
    pair, weight = np.unique(pair, return_counts=True)
    offset, h = pair.real.copy(), pair.imag.copy()
    edges = np.flatnonzero(np.concatenate(([True], offset[1:] != offset[:-1], [True])))
    cols = np.concatenate(([0], np.cumsum(weight)))[edges].tolist()
    edges = edges.tolist()
    classes = [
        (lo, hi, c_hi - c_lo) for lo, hi, c_lo, c_hi in zip(edges, edges[1:], cols, cols[1:])
    ]
    weight = weight.astype(float)
    for a in (offset, h, weight):
        a.setflags(write=False)
    off_max = float(np.abs(offset).max()) if offset.size else 0.0
    return BetaLines(offset, h, weight, classes, cols[-1], off_max)


def _box_sum(spec: LatticeSpec, lines: BetaLines, k: int, r_beta: float):
    """The terms with |beta| <= r_beta on the beta lines of an alpha disc
    (`_beta_lines`), and the number of lattice points they cover.

    A term depends only on a line's h and on |beta|, so each offset class
    of lines takes its distinct |beta| <= r_beta and their counts (2 where
    beta and -beta are both on the row) from `_beta_row`, evaluates one
    block of its lines times those |beta|, and reduces the block by row
    sums weighted by the counts, then by the column weights.  A symmetric
    class (offset = -offset mod step) evaluates about half its row; an
    asymmetric one all of it.  Each term is (1 + x)^{-k/2} with
    x = (a^2 + beta^2)/a0^2 - 1 = (h (2 a0 + h) + beta^2)/a0^2, formed
    without the cancellation of k log a0 - (k/2) log(a^2 + beta^2), whose
    rounding grows like k eps; where x overflows to inf its term is exactly
    0, without a warning.  The count is each class's column weight times
    its row length.  The work budget is checked, before any row is built,
    against every line at the full unfolded row length; rows of more than
    _MAX_ENUM / 64 betas are built for this call only, so that the 64
    cached rows hold at most _MAX_ENUM values.
    """
    a0 = k / (2 * math.pi)
    offs, h, weight = lines.offset, lines.h, lines.weight
    step = spec.beta_step
    line_len = 2 * ((r_beta + lines.off_max) / step) + 3
    # the checks raise only past their budgets: format their messages there
    if not (line_len <= _MAX_ENUM and h.size * line_len <= _MAX_TERMS):
        _check_budget(line_len, f"the beta line of radius {r_beta:.3g}")
        _check_terms(h.size * line_len, f"the lattice sum box ({h.size} beta lines)")
    row = _beta_row if line_len <= _MAX_ENUM / 64 else _beta_row.__wrapped__
    total = 0.0
    count = 0
    with np.errstate(over="ignore"):
        h_part = h * (2.0 * a0 + h)
        for lo, hi, columns in lines.classes:
            beta_sq, mult, points = row(step, float(offs[lo]), r_beta)
            count += columns * points
            chunk = max(1, 2_000_000 // max(beta_sq.size, 1))
            for i in range(lo, hi, chunk):
                j = min(i + chunk, hi)
                x = h_part[i:j, None] + beta_sq
                x /= a0 * a0
                np.log1p(x, out=x)
                x *= -(k / 2.0)
                np.exp(x, out=x)
                x *= mult
                total += float(weight[i:j] @ x.sum(axis=1))
    return total, count


def _alpha_tail(spec: LatticeSpec, k: int, beta_integral: float) -> Callable[[float], float]:
    """r_alpha -> log majorant of the terms with |alpha| > r_alpha, for
    r_alpha >= 2 + diam, given beta_integral = `_beta_integral(k)`.

    It is (2 pi / area) int_{u0}^inf (a0/a)^k (2 + c a) (u + diam/2) du with
    a = a0 + u^2/2 and c = beta_integral / step.  As u >= u0 >= 2,
    u + diam/2 <= (1 + diam/(2 u0)) u, and u du = da integrates in closed form.
    """
    a0 = k / (2 * math.pi)
    diam = spec.alpha_cell_diameter
    c = beta_integral / spec.beta_step
    log_a0 = math.log(a0)
    log_density = math.log(2 * math.pi / spec.cell_area)

    def log_tail(r_alpha: float) -> float:
        u0 = r_alpha - diam
        a = a0 + u0 * u0 / 2.0
        rate = 2.0 / (k - 1) + c * a / (k - 2)
        # a * rate leaves the double range only where a passes ~1e154
        log_rate = math.log(a * rate) if a * rate < math.inf else math.log(a) + math.log(rate)
        return (
            log_density
            + math.log1p(diam / (2.0 * u0))
            + k * (log_a0 - math.log(a))
            + log_rate
        )

    return log_tail


def _beta_tail(spec: LatticeSpec, k: int, n_alpha: int) -> Callable[[float], float]:
    """r_beta -> log majorant of the terms in the n_alpha columns with
    |alpha| <= r_alpha and |beta| > r_beta, for r_beta >= 4 step.

    Every such term is at most f(beta) = (1 + beta^2/a0^2)^{-k/2}, as a >= a0,
    and f decreases in |beta|, so each side of a line sums to at most
    (1/step) int_T^inf f with T = r_beta - step.  Two bounds on that integral
    hold, and the smaller is taken: a0^k b^{-k} >= f gives a0^k T^{1-k}/(k-1),
    and b/T >= 1 gives the exact (a0^2/T) (1 + T^2/a0^2)^{1-k/2} / (k-2).
    """
    a0 = k / (2 * math.pi)
    step = spec.beta_step
    log_lines = math.log(max(n_alpha, 1) * 2.0 / step)
    log_power = k * math.log(a0) - math.log(k - 1)
    log_gauss = 2 * math.log(a0) - math.log(k - 2)

    def log_tail(r_beta: float) -> float:
        t = r_beta - step
        x = t / a0
        log_t = math.log(t)
        return log_lines + min(
            log_power + (1 - k) * log_t,
            log_gauss - log_t + (1 - k / 2.0) * math.log1p(x * x),
        )

    return log_tail


def _solve_radius(log_tail: Callable[[float], float], lo: float, target: float) -> float:
    """The smallest r >= lo, to 1e-3 relative, with log_tail(r) <= target,
    for a log_tail that decreases to -inf."""
    if log_tail(lo) <= target:
        return lo
    hi = 2.0 * lo
    while log_tail(hi) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if log_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def cusp_lattice_sum(
    k: int, spec: LatticeSpec, rel_tol: float = 1e-8
) -> CuspSumResult:
    """The lattice sum with certified relative truncation error <= rel_tol.

    Each radius is solved as the smallest whose closed-form tail majorant
    meets rel_tol * goal / 2, where goal starts at a lower estimate of the
    sum; a box that does not certify itself lowers goal to the partial sum,
    or to half of goal if that is smaller.  Radii never shrink.  Each pass
    takes the beta lines of its alpha disc from `_beta_lines`, which groups
    them from `LatticeSpec.disc` and caches them by (spec, radius) value, so
    a repeated call on one spec, or on an equal one, does not rebuild its
    discs; the weights of a sweep each solve a radius of their own, and
    share no disc.  A repeated call shares its folded beta rows too
    (`_beta_row`), which depend only on the step, an offset and r_beta.
    """
    _check_exact_int(k, "k", at_least=6)
    _check_rel_tol(rel_tol)
    a0 = k / (2 * math.pi)
    beta_integral = _beta_integral(k)
    # the alpha = 0 line alone sums to within 1 of a0 * beta integral / step
    goal = max(1.0, a0 * beta_integral / spec.beta_step - 1.0)
    alpha_tail = _alpha_tail(spec, k, beta_integral)
    # the alpha tail needs r_alpha - diam >= 2; past 2^54, 2 + diam can round
    # to diam, and then the next double up is at least 4 above diam
    diam = spec.alpha_cell_diameter
    r_alpha = max(2.0 + diam, math.nextafter(diam, math.inf))
    r_beta = 4.0 * spec.beta_step
    for _ in range(60):
        target = math.log(rel_tol * goal / 2.0)
        r_alpha = _solve_radius(alpha_tail, r_alpha, target)
        lines = _beta_lines(spec, r_alpha)
        beta_tail = _beta_tail(spec, k, lines.columns)
        r_beta = _solve_radius(beta_tail, r_beta, target)
        partial, count = _box_sum(spec, lines, k, r_beta)
        tail = math.exp(min(log_sum_exp((alpha_tail(r_alpha), beta_tail(r_beta))), 700.0))
        if tail <= rel_tol * partial:
            return CuspSumResult(
                LogReal.from_log(math.log(partial)),
                k,
                r_alpha,
                r_beta,
                tail,
                count,
            )
        goal = min(partial, goal / 2.0)
    raise NumericalError("lattice-sum truncation could not be certified")


# -- combined one-cusp bound ----------------------------------------------


def cusp_bound(
    k: int,
    r_x: float,
    cm: ConstantModel,
    spec: LatticeSpec,
    rel_tol: float = 1e-6,
) -> BoundReport:
    """One-cusp bound: the three cocompact-style terms at n = 2 plus the
    closed-form stabilizer term.  The certified lattice sum times C(k) is
    attached as the sharper computed alternative, together with a flag
    recording that the closed form dominates the sum's certified upper end,
    value + tail_majorant.

    Assembled in one pass over floats, as `cocompact_bound` is, around
    its kernel `closed_forms._cocompact_logs`: log C(k) once, one
    `log_sum_exp` over the four terms, and one LogReal per output (seven).
    """
    _check_exact_int(k, "k", at_least=6)
    _check_positive(r_x, "r_x")
    log_c = cm._log(k)
    covol = lattice_covolume(spec)
    _check_positive(covol, "covolume")
    identity, middle, ring = _cocompact_logs(2, k, r_x, log_c)
    cusp = _cusp_term_log(k, log_c, covol)
    sum_res = cusp_lattice_sum(k, spec, rel_tol)
    scaled = log_c + sum_res.value.log_abs
    tail = sum_res.tail_majorant  # 0.0 where both tails underflow
    upper = log_c + log_sum_exp((sum_res.value.log_abs, math.log(tail) if tail > 0 else -math.inf))
    total = log_sum_exp((identity, middle, ring, cusp))
    terms = {
        "identity_term": LogReal(identity),
        "middle_term": LogReal(middle),
        "ring_term": LogReal(ring),
        "cusp_term": LogReal(cusp),
    }
    extras = {
        "cusp_sum_scaled": LogReal(scaled),
        "cusp_dominates_sum": cusp >= upper,
        "covolume": covol,
        "sum_r_alpha": sum_res.r_alpha,
        "sum_r_beta": sum_res.r_beta,
    }
    return BoundReport(2, k, r_x, terms, LogReal(total), LogReal(total - log_c), extras)


# -- ridge locator ---------------------------------------------------------


def maxima_locate(k: int, tol: float = 1e-6) -> ModelPoint:
    """The maximum of (-2 x1 - x2^2 - y2^2)^k exp(4 pi x1) over model 3, on
    Re z1 = -k/(4 pi), z2 = 0, as the point (x1 + 0i, x2 + i y2).

    `closed_forms.ridge_locate` finds it by damped Newton on the log, whose
    Hessian is a diagonal plus a rank-one term, so each step is solved in
    closed form: with q = -2 x1 - x2^2 - y2^2 and u = 2 pi q / k,
    s = (u (x2^2 + y2^2) - q (1 - u) / 2, -x2 u, -y2 u).  A step is halved
    while it would leave q > 0, and the loop stops after two consecutive
    steps of at most 4 eps |v|.

    Raises if the result is not within tol (relative in x1, absolute in z2),
    or if tol is below the 1e-14 the check can resolve.
    """
    x1, x2, y2 = ridge_locate(k, tol)
    return ModelPoint.m3(complex(x1, 0.0), complex(x2, y2))


def orbit_cosh_power_sum(elements: Sequence[Isometry], z: ModelPoint, k: int) -> LogReal:
    """Truncated series sum_gamma cosh^{-k}(d(z, gamma z)/2) over an explicit
    list of group elements, in the log domain with order-independent reduction."""
    _check_exact_int(k, "k")
    logs = -(k / 2.0) * np.log1p(_sinh2(z, z, _isometry_stack(elements, z)))
    return LogReal(log_sum_exp(logs.tolist()))
