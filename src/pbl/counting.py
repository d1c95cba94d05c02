"""Orbit counting: N(z, w; delta) = #{gamma : d(z, gamma w) <= delta} for a
stabilizer-lattice orbit or an explicit list of isometries, the closed-form
volume-ratio upper bound, and the integrated tail estimate for sums of a
decreasing function over an orbit.

A lattice orbit is counted column by column: for gamma = (alpha, beta),
sinh^2(d(z, gamma w)/2) qz qw = b(alpha) + (Im A(alpha) + beta)^2, a sum of
nonnegative terms (_column_terms), so the elements within delta of each
alpha column form one beta interval, whose lattice points are counted from
their index range.  Only the points within a rounding bound of an interval
end have their distance evaluated.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .closed_forms import _gl_pair
from .errors import DomainError, NumericalError, PreconditionError, _check_exact_int, _check_positive
from .geometry import _sinh2, ball_volume_constant
from .hermitian import Model, ModelPoint, model_indicator
from .lattice import LatticeSpec, _enumerate_points
from .logreal import exp_or_raise, log_cosh, log_sinh
from .transforms import Isometry, _isometry_stack

__all__ = [
    "OrbitSource",
    "TailBoundTerms",
    "counting_function",
    "counting_upper_bound",
    "tail_bound",
    "tail_bound_terms",
    "min_displacement",
    "stabilizer_injectivity_radius",
]

@dataclass(frozen=True)
class OrbitSource:
    """Either an explicit finite set of isometries or the model-3
    cusp-stabilizer orbit of a lattice."""

    elements: Optional[tuple[Isometry, ...]] = None
    lattice: Optional[LatticeSpec] = None

    def __post_init__(self):
        if (self.elements is None) == (self.lattice is None):
            raise DomainError("provide exactly one of elements or lattice")

    @staticmethod
    def from_elements(elements: Sequence[Isometry]) -> "OrbitSource":
        return OrbitSource(elements=tuple(elements))

    @staticmethod
    def from_lattice(spec: LatticeSpec) -> "OrbitSource":
        return OrbitSource(lattice=spec)


def _m3_pair(z: ModelPoint, w: ModelPoint):
    """(w1 + conj(z1) + w2 conj(z2), z2, w2, qz qw): the constants of the
    pairing <gamma w, z> over the model-3 stabilizers gamma."""
    if z.model is not Model.M3 or w.model is not Model.M3:
        raise DomainError("lattice orbit sources act on model-3 points")
    z1, z2 = z.coords
    w1, w2 = w.coords
    qzw = model_indicator(z) * model_indicator(w)
    if not 2.0**-1022 <= qzw < math.inf:  # the distances and bounds scale by it
        raise NumericalError(f"qz qw = {qzw:.3g} is not a normal double")
    return w1 + np.conj(z1) + w2 * np.conj(z2), z2, w2, qzw


def _column_terms(alpha, z: ModelPoint, w: ModelPoint):
    """(b, Im A) per alpha, vectorized: with <gamma w, z> = A + i beta for
    gamma = (alpha, beta) and g = |alpha - (z2 - w2)|^2/2, Re A = -((qz +
    qw)/2 + g), so sinh^2(d(z, gamma w)/2) qz qw = |A + i beta|^2 - qz qw =
    b + (Im A + beta)^2 with b = ((qz - qw)/2)^2 + g (qz + qw + g), a sum of
    nonnegative terms that cancels no digits as cosh^2 - 1 would.
    Im A = Im(s0 + alpha conj(z2) - conj(alpha) w2)."""
    s0, z2, w2, _ = _m3_pair(z, w)
    qz, qw = -model_indicator(z), -model_indicator(w)
    # a |alpha|^2 past the double range is an infinite distance
    with np.errstate(over="ignore"):
        g = np.abs(alpha - (z2 - w2)) ** 2 / 2.0
        b = ((qz - qw) / 2.0) ** 2 + g * (qz + qw + g)
        return b, (s0 + alpha * np.conj(z2) - np.conj(alpha) * w2).imag


def _stabilizer_distances(alpha, beta, z: ModelPoint, w: ModelPoint):
    """Distances d(z, gamma w) = 2 asinh(sqrt(b + (Im A + beta)^2) / sqrt(qz qw))
    for the model-3 stabilizer elements with the given (alpha, beta) arrays,
    vectorized: _sinh2 in the closed form of _column_terms."""
    b, im = _column_terms(alpha, z, w)
    with np.errstate(over="ignore"):
        num = b + (im + beta) ** 2
        return 2.0 * np.arcsinh(np.sqrt(num) / math.sqrt(model_indicator(z) * model_indicator(w)))


def _near_zero(spec: LatticeSpec, alpha, offset, what: str):
    """The nontrivial (alpha, beta) of the four points of each column with
    beta nearest 0: floor(-offset / step) is within one of the last l with
    beta <= 0; l stays a float, as an int64 cast of it wraps at a huge offset."""
    step = spec.beta_step
    l_lo = np.floor(-offset / step) - 1.0
    with np.errstate(over="ignore"):  # a beta past the double range is infinitely far
        *_, alpha, beta = _enumerate_points(step, alpha, offset, l_lo, np.full_like(l_lo, 4), what)
    keep = (alpha != 0) | (beta != 0)
    return alpha[keep], beta[keep]


def _seed_box(spec: LatticeSpec):
    """The `_near_zero` points of the columns m, n in {-1, 0, 1}: search seeds."""
    m, n = np.indices((3, 3)).reshape(2, -1) - 1
    return _near_zero(spec, spec.alpha(m, n), spec._offsets(m, n), "the seed box")


# Rounding bounds of the column intervals, generous against the few units
# of eps = 2^-52 each step rounds by.  _ROUND_SINH2 (32 eps) per unit of
# 4 + delta bounds the relative error of S = qz qw sinh^2(delta/2) against
# the b + (Im A + beta)^2 at which the computed d(z, gamma w) <= delta
# flips: S's product, that sum, its root and the division by sqrt(qz qw)
# are each within a few eps, and 2 asinh moves sinh^2(delta/2) by ~2 (2 +
# delta) eps.  _ROUND_TERMS (16 eps) per unit of the terms summed bounds
# the error of the beta ends and their division by the step, and of Im A
# between two array lengths, should a SIMD lane of numpy's complex product
# round differently.  _ROUND_SUBNORMAL bounds, absolutely, what the steps
# whose results fall below the normal doubles lose: 2^-1075 each.
_ROUND_SINH2 = 2.0**-47
_ROUND_TERMS = 2.0**-48
_ROUND_SUBNORMAL = 2.0**-1000
# largest |l| a column interval may reach: l is exact in a double, and
# _MAX_ENUM columns of 2^40 points each still sum exactly in an int64
_MAX_L = 2.0**39

# the alpha disc's columns with an element within delta, in disc order:
# alpha, beta offset, the l range [out_lo, out_hi] outside which d > delta
# and [in_lo, in_hi] inside which d <= delta (in_hi = in_lo - 1 if empty)
Columns = namedtuple("Columns", "alpha offset out_lo out_hi in_lo in_hi")


def _columns(spec: LatticeSpec, z: ModelPoint, w: ModelPoint, delta: float) -> Columns:
    """The column intervals of the elements moving w within delta of z.

    With b and Im A of _column_terms and S = qz qw sinh^2(delta/2),
    d(z, gamma w) <= delta is b + (Im A + beta)^2 <= S: one beta interval
    -Im A +- sqrt(S - b) per column with b <= S.  As b >= g (c + g) with
    c = qz + qw, such a column has g <= g_max, the root of g (c + g) = S, in
    the disc |alpha| <= |z2 - w2| + sqrt(2 g_max).  Each interval is taken
    with S widened by its rounding bounds (out) and narrowed by them (in):
    the computed distances of the points between the two decide, and the
    points inside the narrow one all count.
    """
    _, z2, w2, qzw = _m3_pair(z, w)
    eta = _ROUND_SINH2 * (4.0 + delta)
    try:  # formed from its root, so that no factor of S overflows alone
        root = math.sqrt(qzw) * math.sinh(delta / 2.0)
    except OverflowError:
        root = math.inf
    s_out = root * root * (1.0 + eta) + _ROUND_SUBNORMAL
    s_in = root * root * (1.0 - eta) - _ROUND_SUBNORMAL
    if not s_out < math.inf:
        raise NumericalError(f"the orbit ball of radius {delta:.6g} overflows a double")
    # g_max = S / (c/2 + sqrt(c^2/4 + S)), by hypot, as c^2 and 4 S may
    # each overflow; 1 + 1e-12 covers the rounding of g and |z2 - w2|
    c = -model_indicator(z) - model_indicator(w)
    g_max = s_out / (c / 2.0 + math.hypot(c, 2.0 * math.sqrt(s_out)) / 2.0)
    disc = spec.disc((abs(z2 - w2) + math.sqrt(2.0 * g_max)) * (1.0 + 1e-12))
    b, im = _column_terms(disc.alpha, z, w)
    # an infinite b is dropped, as its distances are infinite; an infinite
    # or nan Im A of a kept column fails the index check
    with np.errstate(over="ignore", invalid="ignore"):
        keep = b <= s_out
        alpha, b, im, offset = disc.alpha[keep], b[keep], im[keep], disc.offset[keep]
        err = _ROUND_TERMS * np.abs(alpha) * (abs(z2) + abs(w2))
        # half-widths of the wide and the narrow interval, each padded for
        # the rounding of Im A, of its ends and of the points' beta
        hw_out = np.sqrt(s_out - b) + err
        pad = _ROUND_TERMS * (hw_out + np.abs(im) + np.abs(offset))
        half = np.stack((hw_out + pad, np.sqrt(np.maximum(s_in - b, 0.0)) - err - pad))
        centre = -im - offset
        if not (np.abs(centre) + half[0] <= _MAX_L * spec.beta_step).all():
            raise NumericalError(
                f"the orbit ball of radius {delta:.6g} reaches beta indices past 2^39"
            )
    lo = np.ceil((centre - half) / spec.beta_step)
    hi = np.floor((centre + half) / spec.beta_step)
    # an empty narrow interval, or any where b > s_in, is [in_lo, in_lo - 1]
    hi[1] = np.where(b <= s_in, np.maximum(hi[1], lo[1] - 1.0), lo[1] - 1.0)
    out_lo, in_lo = lo.astype(np.int64)
    out_hi, in_hi = hi.astype(np.int64)
    return Columns(alpha, offset, out_lo, out_hi, in_lo, in_hi)


def _orbit_distances(src: OrbitSource, z: ModelPoint, w: ModelPoint, delta: float):
    """(d(z, gamma w), gamma nontrivial) over a set of elements that holds
    every gamma within delta: all elements of a list, where gamma is trivial
    when |gamma - I|max < 1e-12, or the lattice points of the column
    intervals [out_lo, out_hi] of _columns, in (m, n, l) order."""
    if src.lattice is not None:
        spec = src.lattice
        cols = _columns(spec, z, w, delta)
        count = cols.out_hi - cols.out_lo + 1
        *_, alpha, beta = _enumerate_points(
            spec.beta_step, cols.alpha, cols.offset, cols.out_lo, count, "the orbit ball"
        )
        return _stabilizer_distances(alpha, beta, z, w), (alpha != 0) | (beta != 0)
    mats = _isometry_stack(src.elements, w)
    d = 2.0 * np.arcsinh(np.sqrt(_sinh2(z, w, mats)))
    return d, np.abs(mats - np.eye(z.n + 1)).max(axis=(1, 2)) >= 1e-12


def counting_function(
    src: OrbitSource, z: ModelPoint, w: ModelPoint, delta: float
) -> int:
    """#{gamma in the source : d(z, gamma w) <= delta}.

    For lattice sources the count runs column by column (see _columns):
    the points inside each column's narrow interval are counted by their
    index range, and only those between the narrow and the wide interval
    are evaluated, with the same distance formula and the same test
    d <= delta as every other element.  The count is exact for that test,
    ties included, and costs O(columns), not O(points).
    """
    if not delta >= 0:
        raise PreconditionError("delta must be nonnegative")
    if src.lattice is None:
        d, _ = _orbit_distances(src, z, w, delta)
        return int(np.count_nonzero(d <= delta))
    spec = src.lattice
    cols = _columns(spec, z, w, delta)
    count = int((cols.in_hi - cols.in_lo + 1).sum())
    band = np.concatenate((cols.in_lo - cols.out_lo, cols.out_hi - cols.in_hi))
    if band.any():
        alpha, offset = np.tile(cols.alpha, 2), np.tile(cols.offset, 2)
        start = np.concatenate((cols.out_lo, cols.in_hi + 1))
        *_, alpha, beta = _enumerate_points(
            spec.beta_step, alpha, offset, start, band, "the orbit band"
        )
        count += int(np.count_nonzero(_stabilizer_distances(alpha, beta, z, w) <= delta))
    return count


def counting_upper_bound(n: int, r_x: float, delta: float) -> float:
    """4 pi sinh^{2n}((2 delta + r_x)/4) / (n! sinh^{2n}(r_x/4)): the number
    of disjoint radius-r_x/2 balls fitting in a ball of radius delta + r_x/2."""
    _check_positive(r_x, "r_x")
    if not delta >= 0:
        raise PreconditionError("delta must be nonnegative")
    log_val = (
        math.log(ball_volume_constant(n))
        + 2 * n * log_sinh((2 * delta + r_x) / 4.0)
        - 2 * n * log_sinh(r_x / 4.0)
    )
    return exp_or_raise(log_val, "counting bound")


def _grid(lo: float, hi: float, num: int) -> list[float]:
    """np.linspace(lo, hi, num) bit for bit, as Python floats: a scalar f
    evaluates faster on them than on numpy scalars."""
    step = (hi - lo) / (num - 1)
    return [lo + i * step for i in range(num - 1)] + [hi]


def _check_decreasing(f: Callable[[float], float], lo: float, hi: float):
    vals = [f(x) for x in _grid(lo, hi, 64)]
    # a positive f may underflow to 0 far out, as cosh^-k(rho/2) does at
    # k = 100 past rho = 16.3; log_integrand treats that as decay
    if not (vals[0] > 0 and all(v >= 0 for v in vals)):  # NaN fails too
        raise PreconditionError("f must be positive on (0, inf)")
    if any(b > a * (1 + 1e-12) + 1e-300 for a, b in zip(vals, vals[1:])):
        raise PreconditionError("f is not monotonically decreasing on the sampled grid")


_TAIL_EPSABS = 1.49e-8
_TAIL_EPSREL = 1e-10
_TAIL_PANELS = 200


def _gl_panel(f: Callable[[float], float], lo: float, a: float, b: float):
    """(-error estimate, a, b, value) of the integral over t in [a, b] of
    f(lo + t / (1 - t)) / (1 - t)^2, the integral of f over [lo + a/(1-a),
    lo + b/(1-b)], by the Gauss-Legendre pair of pbl.closed_forms._gl_pair."""
    if a == b:  # a halving whose midpoint rounded onto an end: no width
        return 0.0, a, b, 0.0
    h = 0.5 * (b - a)
    c = 1.0 - b

    def term(x, w):
        # t = b - h (1 - x), so v = 1 / (1 - t) stays finite and positive
        # up to t = 1; rho = lo - 1 + v and drho = v^2 dt
        v = 1.0 / (c + h * (1.0 - x))
        return w * f(lo - 1.0 + v) * v * v

    fine, err = _gl_pair(term, h)
    return -err, a, b, fine


def _integrate_to_inf(f: Callable[[float], float], lo: float):
    """(int_lo^inf f, error estimate) by adaptive Gauss-Legendre quadrature
    on t in [0, 1) with rho = lo + t / (1 - t): the panel with the largest
    error estimate is halved until the estimates sum to at most
    max(_TAIL_EPSABS, _TAIL_EPSREL |value|), or _TAIL_PANELS panels are in
    use."""
    panels = [_gl_panel(f, lo, 0.0, 1.0)]
    neg_err, val = panels[0][0], panels[0][3]
    while -neg_err > max(_TAIL_EPSABS, _TAIL_EPSREL * abs(val)) and len(panels) < _TAIL_PANELS:
        worst = heapq.heappop(panels)
        mid = 0.5 * (worst[1] + worst[2])
        halves = _gl_panel(f, lo, worst[1], mid), _gl_panel(f, lo, mid, worst[2])
        for half in halves:
            heapq.heappush(panels, half)
        neg_err += halves[0][0] + halves[1][0] - worst[0]
        val += halves[0][3] + halves[1][3] - worst[3]
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


@dataclass(frozen=True)
class TailBoundTerms:
    """The three pieces of the integrated tail estimate."""

    head: float
    middle: float
    integral: float

    @property
    def total(self) -> float:
        return self.head + self.middle + self.integral


def tail_bound_terms(
    f: Callable[[float], float],
    n: int,
    r_x: float,
    delta: float,
    src: OrbitSource,
    z: ModelPoint,
    w: ModelPoint,
) -> TailBoundTerms:
    """Upper bound for sum_gamma f(d(z, gamma w)) for decreasing positive f:

        sum_{d <= delta} f(d)
        + f(delta) * counting_upper_bound(n, r_x, delta)
        + 4 pi / ((n-1)! sinh^{2n}(r_x/4))
          * int_delta^inf f(rho) sinh^{2n-1}((2 rho + r_x)/4) cosh((2 rho + r_x)/4) drho

    The first term is an exact finite sum over the orbit points within
    delta (for a lattice, the points of its column intervals).
    The integral is an estimate, not a bound: adaptive Gauss-Legendre on
    rho = delta + t/(1-t) (see _integrate_to_inf), with an error estimate
    above 1e-6 of the value raising NumericalError.  Raises too if the tail
    integrand does not decay (f slower than the sinh^{2n} growth), in which
    case the estimate does not exist.
    """
    _check_exact_int(n, "n", at_least=1)
    _check_positive(r_x, "r_x")
    if not delta > r_x / 2:
        raise PreconditionError("delta must exceed r_x / 2")
    _check_decreasing(f, min(delta, r_x) * 1e-6 + 1e-12, 2 * delta + 5.0)

    d, _ = _orbit_distances(src, z, w, delta)
    head = float(np.sum([f(x) for x in d[d <= delta].tolist()])) if d.size else 0.0

    middle = f(delta) * counting_upper_bound(n, r_x, delta)

    # 4 pi / (n-1)! = n * 4 pi / n!
    log_coeff = math.log(n * ball_volume_constant(n)) - 2 * n * log_sinh(r_x / 4.0)

    def log_integrand(rho):
        try:
            fv = f(rho)
        except OverflowError:
            # f's own intermediates overflowed far out; a decreasing f is 0 there
            return -math.inf
        if fv <= 0 or not math.isfinite(fv):
            return -math.inf
        u = (2 * rho + r_x) / 4.0
        return math.log(fv) + ((2 * n - 1) * log_sinh(u) + log_cosh(u))

    # peak-shift: factor out the integrand's scale so the quadrature sees
    # O(1) values
    log_scale = max(log_integrand(x) for x in _grid(delta, delta + 10.0, 32))
    if not math.isfinite(log_scale):
        raise NumericalError("integrand scale could not be established")

    # the estimate only holds when the tail integral exists: the integrand
    # must die off, not ride the sinh^{2n} growth (underflow to 0 is decay)
    far = [log_integrand(delta + 10.0 * 2**j) for j in range(1, 5)]
    decreasing = all(
        b < a or (a == -math.inf and b == -math.inf) for a, b in zip(far, far[1:])
    )
    if not decreasing or far[-1] >= log_scale:
        raise NumericalError(
            "tail integral does not exist: f does not decay fast enough"
        )

    def scaled(rho):
        v = log_integrand(rho) - log_scale
        if v > 700.0:
            raise NumericalError("tail integrand grows: f does not decay fast enough")
        return math.exp(v) if v > -745.0 else 0.0

    # the scaled integral is O(1), so the absolute 1.49e-8 stops refinement
    # near 1e-8 relative by the error estimate, which estimates the
    # 24-node rule's error; the 48-node values are within 1e-14 of 30-digit
    # mpmath.quad on cosh^-p(rho/2) at p = 12, delta = 3 and at p = 200,
    # delta = 0.6 (tests/test_oracles.py)
    val, err = _integrate_to_inf(scaled, delta)
    if not math.isfinite(val) or (val != 0 and err > 1e-6 * abs(val)):
        raise NumericalError(f"tail quadrature did not converge (err {err:.3g})")
    integral = math.exp(log_coeff + log_scale + math.log(max(val, 1e-300)))
    return TailBoundTerms(head, middle, integral)


def tail_bound(
    f: Callable[[float], float],
    n: int,
    r_x: float,
    delta: float,
    src: OrbitSource,
    z: ModelPoint,
    w: ModelPoint,
) -> float:
    """Total of tail_bound_terms; see there for the three pieces."""
    return tail_bound_terms(f, n, r_x, delta, src, z, w).total


def min_displacement(src: OrbitSource, z: ModelPoint) -> float:
    """Certified min over nontrivial gamma of d(z, gamma z).

    For lattice sources a seed box provides a candidate, and the column
    intervals for that candidate radius then rule out everything outside.
    """
    cand = math.inf
    if src.lattice is not None:
        cand = float(_stabilizer_distances(*_seed_box(src.lattice), z, z).min())
    d, nontrivial = _orbit_distances(src, z, z, cand)
    best = float(d[nontrivial].min(initial=cand))
    if not math.isfinite(best):
        raise DomainError("source has no nontrivial elements")
    return best


def stabilizer_injectivity_radius(
    spec: LatticeSpec, q_max: float, p_max: float = 0.0
) -> float:
    """Min over nonzero (alpha, beta) of d(z, gamma z) minimized over the
    compact model-3 slice {0 < -<z,z> <= q_max, |z2| <= p_max}.

    Per element the slice minimum has the closed form
    cosh^2(d/2) = (1 + u)^2 + v^2 with u = |alpha|^2 / (2 q_max) and
    v = max(0, |beta| - 2 |alpha| p_max) / q_max, taken as
    s = sinh(d/2) = hypot(sqrt(u) sqrt(2 + u), v) and d = 2 asinh(s), with
    sqrt(u) = |alpha| / sqrt(2 q_max), so that a small distance keeps its
    digits, a tiny |alpha| is not squared into the subnormals, and a large
    distance does not overflow where s^2 would.
    """
    if not (q_max > 0 and 0 <= p_max < math.inf):
        raise PreconditionError("need q_max > 0 and a finite p_max >= 0")

    def slice_sinh(alpha, beta):
        a, b = np.hypot(alpha.real, alpha.imag), np.abs(beta)
        with np.errstate(over="ignore"):  # past the double range is infinitely far
            root_u = a / math.sqrt(2 * q_max)
            v = np.maximum(0.0, b - 2 * a * p_max) / q_max
            return np.hypot(root_u * np.sqrt(2 + root_u * root_u), v)

    cand = float(slice_sinh(*_seed_box(spec)).min())
    # the slice sinh is at least sqrt(u (2 + u)), so only a column with
    # u < hypot(1, cand) - 1 = cand^2 / (1 + hypot(1, cand)) can go below
    # cand, that is |alpha| < sqrt(2 q_max) cand / sqrt(1 + hypot(1, cand)),
    # formed without squaring cand, which leaves the double range at both
    # ends; the factor 1 + 1e-12 covers the few roundings of both sides
    root_u_max = cand / math.sqrt(1 + math.hypot(1, cand)) if cand < math.inf else cand
    disc = spec.disc(math.sqrt(2 * q_max) * root_u_max * (1 + 1e-12))
    # per column the slice sinh grows with |beta|, so its minimum sits at
    # the lattice beta nearest 0, or the nearest nonzero one on alpha = 0
    grid = _near_zero(spec, disc.alpha, disc.offset, "the slice grid")
    best = float(slice_sinh(*grid).min(initial=cand))
    # every nontrivial element has sinh > 0; one that underflows to 0 has
    # lost its distance to the double range
    if not best > 0.0:
        raise NumericalError(f"the slice minimum sinh(d/2) underflows at q_max={q_max:.3g}")
    return 2.0 * math.asinh(best)
