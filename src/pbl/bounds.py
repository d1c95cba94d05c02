"""Bound pipelines: the cocompact three-term estimate, the cusp-stabilizer
lattice sum with certified truncation, the Gamma-function integral chain,
the combined one-cusp bound, the ridge locator for the cusp objective, and
the log-log exponent fitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericalError, PreconditionError
from .geometry import _cosh2
from .hermitian import ModelPoint
from .lattice import LatticeSpec, _check_budget, _check_terms, lattice_covolume
from .logreal import LogReal, log_cosh, log_sinh, log_sum
from .transforms import Isometry, _isometry_stack

__all__ = [
    "ConstantModel",
    "BoundReport",
    "CuspSumResult",
    "GammaChain",
    "ScalingFit",
    "cocompact_bound",
    "cusp_lattice_sum",
    "cusp_term_log",
    "gamma_integral_chain",
    "cusp_bound",
    "maxima_locate",
    "scaling_fit",
    "orbit_cosh_power_sum",
]


@dataclass(frozen=True)
class ConstantModel:
    """C(k) = c_gamma * k^exponent, the unresolved normalizing constant of
    the kernel bound; exponent n in the cocompact case, 2 in the one-cusp
    case, 0 for a plain constant."""

    c_gamma: float = 1.0
    exponent: int = 0

    def __post_init__(self):
        if not 0 < self.c_gamma < math.inf:
            raise PreconditionError("c_gamma must be positive and finite")

    def __call__(self, k: int) -> float:
        try:
            value = self.c_gamma * float(k) ** self.exponent
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise NumericalError(f"C({k}) overflows a double; use log_value")
        return value

    def log_value(self, k: int) -> LogReal:
        return LogReal.from_log(math.log(self.c_gamma) + self.exponent * math.log(k))


@dataclass(frozen=True)
class BoundReport:
    """Per-term log-domain breakdown of a bound at given (n, k, r_x)."""

    n: int
    k: int
    r_x: float
    terms: Mapping[str, LogReal]
    total: LogReal
    normalized_total: LogReal
    extras: Mapping[str, object] = field(default_factory=dict)

    def row(self) -> dict:
        """Flat dict for machine-readable output."""
        out = {"n": self.n, "k": self.k, "r_x": self.r_x}
        for name, term in self.terms.items():
            out[f"log_{name}"] = term.log()
        out["log_total"] = self.total.log()
        out["normalized_total"] = self.normalized_total.to_float()
        return out


def cocompact_bound(n: int, k: int, r_x: float, cm: ConstantModel) -> BoundReport:
    """Three-term bound for the cocompact case:

        C(k) + C(k) cosh^{2n}(r/4) / ((k-2n-1) sinh^{2n}(r/4))
             + C(k) sinh^{2n}(5r/8) / (sinh^{2n}(r/4) cosh^k(3r/8)).

    Requires k >= 2n+2 so the middle denominator stays positive.
    """
    if n < 2:
        raise PreconditionError("n >= 2 required")
    if k < 2 * n + 2:
        raise PreconditionError(f"k must be >= 2n+2 = {2 * n + 2}, got {k}")
    if not 0 < r_x < math.inf:
        raise PreconditionError("injectivity radius must be positive and finite")
    log_c = cm.log_value(k).log()
    log_sh = log_sinh(r_x / 4.0)
    identity = LogReal.from_log(log_c)
    middle = LogReal.from_log(
        log_c
        + 2 * n * (log_cosh(r_x / 4.0) - log_sh)
        - math.log(k - 2 * n - 1)
    )
    # r_x / 8 first keeps 5 r_x / 8 finite; the two products overflow together
    # only for r_x near the double range, where k >= 2n+2 sends the term to 0
    r8 = r_x / 8.0
    log_ring = log_c + 2 * n * (log_sinh(5 * r8) - log_sh) - k * log_cosh(3 * r8)
    ring = LogReal.from_log(-math.inf if math.isnan(log_ring) else log_ring)
    terms = {"identity_term": identity, "middle_term": middle, "ring_term": ring}
    total = log_sum(terms.values())
    return BoundReport(n, k, r_x, terms, total, total / cm.log_value(k))


# -- cusp lattice sum ------------------------------------------------------


@dataclass(frozen=True)
class CuspSumResult:
    """Certified evaluation of the stabilizer lattice sum
    sum_L (k/2pi)^k / |k/2pi + |alpha|^2/2 + i beta|^k."""

    value: LogReal
    k: int
    r_alpha: float
    r_beta: float
    tail_majorant: float
    n_terms: int


_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _log_gamma_ratio(j: int) -> float:
    """log Gamma((j-1)/2) / Gamma(j/2) for an integer j >= 3: from a central
    binomial C(2m, m) / 4^m (one rounding) up to j = 1000, lgamma beyond."""
    if j > 1000:
        return math.lgamma((j - 1) / 2.0) - math.lgamma(j / 2.0)
    m = (j - 1) // 2
    if j % 2:  # Gamma(m) / Gamma(m + 1/2) = 4^m / (m C(2m, m) sqrt(pi))
        return math.log(4**m / (m * math.comb(2 * m, m))) - _HALF_LOG_PI
    # Gamma(m + 1/2) / Gamma(m + 1) = C(2m, m) sqrt(pi) / 4^m
    return math.log(math.comb(2 * m, m) / 4**m) + _HALF_LOG_PI


def _beta_integral(k: int) -> float:
    """int_R (1+t^2)^{-k/2} dt = sqrt(pi) Gamma((k-1)/2) / Gamma(k/2)."""
    return math.exp(_HALF_LOG_PI + _log_gamma_ratio(k))


def _box_sum(spec: LatticeSpec, disc, k: int, r_beta: float):
    """The terms with |beta| <= r_beta over the columns of disc, and the
    number of lattice points they cover.

    A column's beta line depends only on its exact (a, offset) pair, so each
    distinct pair is summed once and weighted by its column count.
    """
    a0 = k / (2 * math.pi)
    alpha = disc.alpha
    # a + i offset as a 1-D key; re^2 + im^2 is exact on integer alphas
    key, weight = np.unique(
        a0 + (alpha.real**2 + alpha.imag**2) / 2.0 + 1j * disc.offset, return_counts=True
    )
    a, offs = key.real, key.imag
    step = spec.beta_step
    off_max = float(np.abs(offs).max()) if offs.size else 0.0
    half_line = (r_beta + off_max) / step
    _check_budget(2 * half_line + 3, f"the beta line of radius {r_beta:.3g}")
    _check_terms(a.size * (2 * half_line + 3), f"the lattice sum box ({a.size} beta lines)")
    l_max = int(math.floor(half_line)) + 1
    l = np.arange(-l_max, l_max + 1)
    total = 0.0
    count = 0
    log_a0k = k * math.log(a0)
    chunk = max(1, int(2_000_000 / (2 * l_max + 1)))
    for i in range(0, a.size, chunk):
        beta = offs[i : i + chunk, None] + l[None, :] * step
        mask = np.abs(beta) <= r_beta
        logs = log_a0k - (k / 2.0) * np.log(a[i : i + chunk, None] ** 2 + beta**2)
        vals = np.exp(np.minimum(logs, 0.0)) * mask
        w = weight[i : i + chunk]
        total += float(w @ vals.sum(axis=1))
        count += int(w @ mask.sum(axis=1))
    return total, count


def _alpha_tail(spec: LatticeSpec, k: int) -> Callable[[float], float]:
    """r_alpha -> log majorant of the terms with |alpha| > r_alpha, for
    r_alpha >= 2 + diam.

    It is (2 pi / area) int_{u0}^inf (a0/a)^k (2 + c a) (u + diam/2) du with
    a = a0 + u^2/2 and c = beta integral / step.  As u >= u0 >= 2,
    u + diam/2 <= (1 + diam/(2 u0)) u, and u du = da integrates in closed form.
    """
    a0 = k / (2 * math.pi)
    diam = spec.alpha_cell_diameter
    c = _beta_integral(k) / spec.beta_step
    log_a0 = math.log(a0)
    log_density = math.log(2 * math.pi / spec.cell_area)

    def log_tail(r_alpha: float) -> float:
        u0 = r_alpha - diam
        a = a0 + u0 * u0 / 2.0
        return (
            log_density
            + math.log1p(diam / (2.0 * u0))
            + k * (log_a0 - math.log(a))
            + math.log(a * (2.0 / (k - 1) + c * a / (k - 2)))
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


def _tail_logs(spec: LatticeSpec, k: int, r_alpha: float, r_beta: float, n_alpha: int):
    """Log-domain majorants (alpha tail, beta tail) for the sum outside the
    (r_alpha, r_beta) box, by monotone comparison of lattice cells with
    integrals; n_alpha is the number of columns with |alpha| <= r_alpha."""
    return _alpha_tail(spec, k)(r_alpha), _beta_tail(spec, k, n_alpha)(r_beta)


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
    or to half of goal if that is smaller.  Radii never shrink, and the disc
    is rebuilt only when r_alpha grows.
    """
    if k < 6:
        raise PreconditionError("k must be >= 6 for the sum to have margin")
    # below the double epsilon the tail could not change the computed sum
    if not (np.finfo(float).eps <= rel_tol <= 1e-3):
        raise PreconditionError("rel_tol must lie in [2.2e-16, 1e-3]")
    a0 = k / (2 * math.pi)
    # the alpha = 0 line alone sums to within 1 of a0 * beta integral / step
    goal = max(1.0, a0 * _beta_integral(k) / spec.beta_step - 1.0)
    alpha_tail = _alpha_tail(spec, k)
    r_alpha = 2.0 + spec.alpha_cell_diameter
    r_beta = 4.0 * spec.beta_step
    disc_radius = None
    for _ in range(60):
        target = math.log(rel_tol * goal / 2.0)
        r_alpha = _solve_radius(alpha_tail, r_alpha, target)
        if r_alpha != disc_radius:
            disc, disc_radius = spec.disc(r_alpha), r_alpha
            beta_tail = _beta_tail(spec, k, disc.m.size)
        r_beta = _solve_radius(beta_tail, r_beta, target)
        partial, count = _box_sum(spec, disc, k, r_beta)
        tail = math.exp(min(np.logaddexp(alpha_tail(r_alpha), beta_tail(r_beta)), 700.0))
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


# -- Gamma-function integral chain ----------------------------------------


@dataclass(frozen=True)
class GammaChain:
    """Closed-form vs quadrature values of the two auxiliary integrals and
    their chained product 2 pi (k/2pi)^k * beta_integral * r_integral."""

    k: int
    beta_closed: float
    beta_quad: float
    beta_ratio: float
    r_closed: LogReal
    r_quad: LogReal
    r_ratio: float
    chained: LogReal


def gamma_integral_chain(k: int) -> GammaChain:
    """Evaluates, closed-form and by adaptive quadrature:

      beta integral: A^{k-1} int_R (A^2 + beta^2)^{-k/2} dbeta
                     = sqrt(pi) Gamma(k/2 - 1/2) / Gamma(k/2),
      r integral:    int_0^inf (k/2pi + r^2/2)^{-(k-1)} dr, whose printed
                     closed form (2pi)^{k-1} Gamma(k - 3/2) / (k^{k-3/2} Gamma(k-1))
                     exceeds the quadrature by a constant factor (the ratio
                     is returned, not hidden).
    """
    if k < 6:
        raise PreconditionError("k must be >= 6")
    from scipy.integrate import quad

    a0 = k / (2 * math.pi)

    def integral(f, lo, what):
        val, err = quad(f, lo, np.inf, epsrel=1e-13, limit=200)
        if not math.isfinite(val) or err > 1e-6 * val:
            raise NumericalError(f"{what} quadrature did not converge (err {err:.3g})")
        return val

    beta_closed = _beta_integral(k)
    val = integral(lambda b: (1.0 + (b / a0) ** 2) ** (-k / 2.0), -np.inf, "beta-integral")
    beta_quad = val / a0  # exact peak-shift by A^{k-1} A^{-k} = 1/A

    log_r_closed = (
        (k - 1) * math.log(2 * math.pi) + _log_gamma_ratio(2 * k - 2) - (k - 1.5) * math.log(k)
    )
    # exact substitution r = sqrt(2 a0) s keeps the quadrature problem
    # uniformly conditioned in k
    rv = integral(lambda s: (1.0 + s * s) ** (1.0 - k), 0, "r-integral")
    log_r_quad = 0.5 * math.log(2 * a0) + (1.0 - k) * math.log(a0) + math.log(rv)

    chained = LogReal.from_log(
        math.log(2 * math.pi) + k * math.log(a0) + math.log(beta_quad) + log_r_quad
    )
    return GammaChain(
        k=k,
        beta_closed=beta_closed,
        beta_quad=beta_quad,
        beta_ratio=beta_quad / beta_closed,
        r_closed=LogReal.from_log(log_r_closed),
        r_quad=LogReal.from_log(log_r_quad),
        r_ratio=math.exp(log_r_quad - log_r_closed),
        chained=chained,
    )


# -- combined one-cusp bound ----------------------------------------------


def cusp_term_log(k: int, cm: ConstantModel, covolume: float = 1.0) -> float:
    """log of the closed-form stabilizer term

        (sqrt(pi)/2) Gamma(k/2-1/2) Gamma(k-3/2) / (Gamma(k/2) Gamma(k-1))
        * C(k) * k^{3/2} / covolume,

    the chained integral bound for the lattice sum times C(k)."""
    return (
        cm.log_value(k).log()
        + 1.5 * math.log(k)
        + _HALF_LOG_PI
        - math.log(2.0)
        + _log_gamma_ratio(k)
        + _log_gamma_ratio(2 * k - 2)
        - math.log(covolume)
    )


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
    recording that the closed form dominates it.
    """
    if k < 6:
        raise PreconditionError("k must be >= 6")
    base = cocompact_bound(2, k, r_x, cm)
    covol = lattice_covolume(spec)
    cusp = LogReal.from_log(cusp_term_log(k, cm, covol))
    sum_res = cusp_lattice_sum(k, spec, rel_tol)
    scaled = cm.log_value(k) * sum_res.value
    terms = dict(base.terms)
    terms["cusp_term"] = cusp
    total = log_sum(terms.values())
    extras = {
        "cusp_sum_scaled": scaled,
        "cusp_dominates_sum": bool(cusp >= scaled),
        "covolume": covol,
        "sum_r_alpha": sum_res.r_alpha,
        "sum_r_beta": sum_res.r_beta,
    }
    return BoundReport(2, k, r_x, terms, total, total / cm.log_value(k), extras)


# -- ridge locator ---------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RIDGE_RESOLUTION = 1e-14


def _golden_max(fun, lo, hi, iters=60):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _newton_finish(k: int, x1: float, x2: float, y2: float):
    """Newton steps on phi = k log q + 4 pi x1, q = -2 x1 - x2^2 - y2^2, with
    its analytic gradient and Hessian, halved while they would leave q > 0.

    Golden section resolves the ridge only to about sqrt(eps) relative,
    where phi is flat to rounding; the gradient has no such floor, and the
    Hessian is negative definite wherever q > 0.
    """
    v = np.array([x1, x2, y2])
    for _ in range(8):
        q = -2.0 * v[0] - v[1] * v[1] - v[2] * v[2]
        dq = np.array([-2.0, -2.0 * v[1], -2.0 * v[2]])
        grad = k * dq / q + np.array([4 * math.pi, 0.0, 0.0])
        hess = k * (np.diag([0.0, -2.0, -2.0]) / q - np.outer(dq, dq) / (q * q))
        step = np.linalg.solve(hess, -grad)
        while -2.0 * (v[0] + step[0]) - (v[1] + step[1]) ** 2 - (v[2] + step[2]) ** 2 <= 0:
            step = step / 2.0
        v = v + step
    return tuple(float(t) for t in v)


def maxima_locate(k: int, tol: float = 1e-6) -> ModelPoint:
    """Maximizes (-2 x1 - x2^2 - y2^2)^k exp(4 pi x1) over model 3 by
    coordinate descent with golden-section line searches from five spread
    starting points, the best one finished by Newton steps; the maximum lies
    on Re z1 = -k/(4 pi), z2 = 0.

    Raises if the result is not within tol (relative in x1, absolute in z2),
    or if tol is below the 1e-14 the check can resolve.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    # the check below compares two rounded values, each a few eps from the
    # ridge, so a smaller tol would pass or fail by rounding
    if tol < _RIDGE_RESOLUTION:
        raise NumericalError(f"tol {tol:.3g} is below the ridge resolution {_RIDGE_RESOLUTION:g}")

    def phi(x1, x2, y2):
        q = -2.0 * x1 - x2 * x2 - y2 * y2
        if q <= 0.0:
            return -math.inf
        return k * math.log(q) + 4 * math.pi * x1

    x_star = k / (4 * math.pi)
    best = None
    for i, s in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
        x1 = -s * x_star
        r0 = 0.3 * math.sqrt(2.0 * s * x_star)
        theta = 2 * math.pi * i / 5.0
        x2, y2 = r0 * math.cos(theta), r0 * math.sin(theta)
        w1 = 2.0 * (x_star + 1.0)
        w2 = max(1.0, r0)
        prev = phi(x1, x2, y2)
        for _ in range(200):
            limit = -(x2 * x2 + y2 * y2) / 2.0
            hi = min(x1 + w1, limit - 1e-300 - abs(limit) * 1e-16)
            x1, _f = _golden_max(lambda t: phi(t, x2, y2), x1 - w1, hi)
            b = math.sqrt(max(-2.0 * x1 - y2 * y2, 0.0))
            x2, _f = _golden_max(
                lambda t: phi(x1, t, y2), max(x2 - w2, -b), min(x2 + w2, b)
            )
            b = math.sqrt(max(-2.0 * x1 - x2 * x2, 0.0))
            y2, cur = _golden_max(
                lambda t: phi(x1, x2, t), max(y2 - w2, -b), min(y2 + w2, b)
            )
            w1 = max(w1 * 0.5, 1e-12 * max(1.0, x_star))
            w2 = max(w2 * 0.5, 1e-12)
            if cur - prev < 1e-15 * (1.0 + abs(cur)) and w1 <= 1e-9 * max(1.0, x_star):
                break
            prev = cur
        cand = (cur, x1, x2, y2)
        if best is None or cand[0] > best[0]:
            best = cand

    _, x1, x2, y2 = best
    x1, x2, y2 = _newton_finish(k, x1, x2, y2)
    if abs(x1 + x_star) > tol * x_star or math.hypot(x2, y2) > tol:
        raise NumericalError(
            f"optimizer did not reach the ridge: x1={x1!r}, |z2|={math.hypot(x2, y2):.3g}"
        )
    return ModelPoint.m3(complex(x1, 0.0), complex(x2, y2))


# -- exponent fitting -------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log bound(k) = intercept + slope * log k."""

    slope: float
    intercept: float
    residual_rms: float


def scaling_fit(ks: Sequence[int], bound: Callable[[int], LogReal]) -> ScalingFit:
    """Fits the growth exponent of a positive bound over the given weights."""
    ks = list(ks)
    if len(set(ks)) < 5:
        raise PreconditionError("at least 5 distinct k values are required")
    if min(ks) <= 0:
        raise PreconditionError("k values must be positive")
    xs = np.log(np.array(ks, dtype=float))
    ys = []
    for k in ks:
        v = bound(k)
        ys.append(v.log() if isinstance(v, LogReal) else math.log(float(v)))
    ys = np.array(ys)
    if not np.all(np.isfinite(ys)):
        raise PreconditionError("the bound's log must be finite at every k")
    a = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ys, rcond=None)
    resid = ys - a @ np.array([slope, intercept])
    return ScalingFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def orbit_cosh_power_sum(elements: Sequence[Isometry], z: ModelPoint, k: int) -> LogReal:
    """Truncated series sum_gamma cosh^{-k}(d(z, gamma z)/2) over an explicit
    list of group elements, in the log domain with order-independent reduction."""
    c2 = _cosh2(z, z, _isometry_stack(elements, z))
    logs = -(k / 2.0) * np.log(np.maximum(c2, 1.0))
    return log_sum([LogReal.from_log(v) for v in logs])
