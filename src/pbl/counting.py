"""Orbit counting: N(z, w; delta) = #{gamma : d(z, gamma w) <= delta} for a
stabilizer-lattice orbit or an explicit list of isometries, the closed-form
volume-ratio upper bound, and the integrated tail estimate for sums of a
decreasing function over an orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError
from .geometry import _cosh2, _distance_from_cosh2, ball_volume_constant
from .hermitian import Model, ModelPoint, model_indicator
from .lattice import LatticeSpec
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
        if self.elements is not None:
            if len({e.form.entries.tobytes() for e in self.elements}) > 1:
                raise DomainError("all elements must preserve the same form")

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
    return w1 + np.conj(z1) + w2 * np.conj(z2), z2, w2, model_indicator(z) * model_indicator(w)


def _certified_radii(z: ModelPoint, w: ModelPoint, delta: float):
    """Radii (r_alpha, r_beta) such that every stabilizer element moving w
    within distance delta of z has |alpha| <= r_alpha and |beta| <= r_beta.

    Uses |<gamma w, z>| >= sqrt(|alpha|^4/4 + beta^2) - c0 - c1 |alpha| and
    cosh(d/2) = |<gamma w, z>| / sqrt(qz qw).
    """
    s0, z2, w2, qzw = _m3_pair(z, w)
    c0 = abs(s0)
    c1 = abs(z2) + abs(w2)
    t = exp_or_raise(0.5 * math.log(qzw) + log_cosh(delta / 2.0), "the orbit radius")
    r_alpha = c1 + math.sqrt(c1 * c1 + 2.0 * (c0 + t))
    r_beta = t + c0 + c1 * r_alpha
    return r_alpha, r_beta


def _stabilizer_distances(alpha, beta, z: ModelPoint, w: ModelPoint):
    """Distances d(z, gamma w) for the model-3 stabilizer elements with the
    given (alpha, beta) arrays, vectorized."""
    s0, z2, w2, qzw = _m3_pair(z, w)
    s = s0 + alpha * np.conj(z2) - np.conj(alpha) * w2 - np.abs(alpha) ** 2 / 2.0 + 1j * beta
    with np.errstate(over="ignore"):  # a cosh^2 past the double range is an infinite distance
        return _distance_from_cosh2(np.abs(s) ** 2 / qzw)


def _seed_box(spec: LatticeSpec):
    """(alpha, beta) arrays of the nontrivial lattice points with m, n, l
    in {-1, 0, 1}, whose minima seed the certified searches."""
    seed = [spec.param(*i) for i in itertools.product((-1, 0, 1), repeat=3)]
    seed = [p for p in seed if not p.is_origin]
    return np.array([p.alpha for p in seed]), np.array([p.beta for p in seed])


def _orbit_distances(src: OrbitSource, z: ModelPoint, w: ModelPoint, delta: float):
    """(d(z, gamma w), gamma nontrivial) over the certified lattice ball that
    holds every gamma within delta, or over all elements of a list, where
    gamma is trivial when |gamma - I|max < 1e-12."""
    if src.lattice is not None:
        pts = src.lattice.points(*_certified_radii(z, w, delta))
        d = _stabilizer_distances(pts.alpha, pts.beta, z, w)
        return d, (pts.alpha != 0) | (pts.beta != 0)
    mats = _isometry_stack(src.elements, w)
    d = _distance_from_cosh2(_cosh2(z, w, mats))
    return d, np.abs(mats - np.eye(z.n + 1)).max(axis=(1, 2)) >= 1e-12


def counting_function(
    src: OrbitSource, z: ModelPoint, w: ModelPoint, delta: float
) -> int:
    """#{gamma in the source : d(z, gamma w) <= delta}.

    For lattice sources the enumeration box is certified to contain every
    contributing element, so the count is exact.
    """
    if not delta >= 0:
        raise PreconditionError("delta must be nonnegative")
    d, _ = _orbit_distances(src, z, w, delta)
    return int(np.count_nonzero(d <= delta))


def counting_upper_bound(n: int, r_x: float, delta: float) -> float:
    """4 pi sinh^{2n}((2 delta + r_x)/4) / (n! sinh^{2n}(r_x/4)): the number
    of disjoint radius-r_x/2 balls fitting in a ball of radius delta + r_x/2."""
    if not 0 < r_x < math.inf:
        raise PreconditionError("injectivity radius must be positive and finite")
    if not delta >= 0:
        raise PreconditionError("delta must be nonnegative")
    log_val = (
        math.log(ball_volume_constant(n))
        + 2 * n * log_sinh((2 * delta + r_x) / 4.0)
        - 2 * n * log_sinh(r_x / 4.0)
    )
    return exp_or_raise(log_val, "counting bound")


def _check_decreasing(f: Callable[[float], float], lo: float, hi: float):
    grid = np.linspace(lo, hi, 64)
    vals = np.array([f(x) for x in grid])
    if np.any(vals <= 0) or np.any(np.isnan(vals)):
        raise PreconditionError("f must be positive on (0, inf)")
    if np.any(vals[1:] > vals[:-1] * (1 + 1e-12) + 1e-300):
        raise PreconditionError("f is not monotonically decreasing on the sampled grid")


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

    The first term is an exact finite sum over the certified enumeration;
    the integral is evaluated adaptively to 1e-10 relative.  Raises if the
    tail integrand does not decay (f slower than the sinh^{2n} growth), in
    which case the estimate does not exist.
    """
    if n < 1 or r_x <= 0:
        raise PreconditionError("need n >= 1 and a positive injectivity radius")
    if not delta > r_x / 2:
        raise PreconditionError("delta must exceed r_x / 2")
    _check_decreasing(f, min(delta, r_x) * 1e-6 + 1e-12, 2 * delta + 5.0)

    d, _ = _orbit_distances(src, z, w, delta)
    head = float(np.sum([f(x) for x in d[d <= delta]])) if d.size else 0.0

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

    # peak-shift: factor out the integrand's scale so quad sees O(1) values
    probe = np.linspace(delta, delta + 10.0, 32)
    log_scale = max(log_integrand(x) for x in probe)
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

    from scipy.integrate import quad

    val, err = quad(scaled, delta, np.inf, epsrel=1e-10, limit=200)
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

    For lattice sources a seed box provides a candidate, and the certified
    enumeration for that candidate radius then rules out everything outside.
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
    cosh^2(d/2) = (1 + |alpha|^2 / (2 q_max))^2
                  + (max(0, |beta| - 2 |alpha| p_max) / q_max)^2.
    """
    if q_max <= 0 or p_max < 0:
        raise PreconditionError("need q_max > 0 and p_max >= 0")

    def slice_cosh2(alpha, beta):
        a, b = np.hypot(alpha.real, alpha.imag), np.abs(beta)
        return (1 + a * a / (2 * q_max)) ** 2 + (
            np.maximum(0.0, b - 2 * a * p_max) / q_max
        ) ** 2

    cand = float(slice_cosh2(*_seed_box(spec)).min())
    # enumeration radii outside which the slice minimum already exceeds cand
    r_alpha = math.sqrt(max(2 * q_max * (math.sqrt(cand) - 1), 0.0)) + spec.alpha_cell_diameter
    r_beta = q_max * math.sqrt(cand) + 2 * r_alpha * p_max + spec.beta_step
    pts = spec.points(r_alpha, r_beta)
    nontrivial = (pts.alpha != 0) | (pts.beta != 0)
    best = float(slice_cosh2(pts.alpha, pts.beta)[nontrivial].min(initial=cand))
    return float(_distance_from_cosh2(best))
