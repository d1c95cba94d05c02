"""Bound pipelines that need no arrays: the cocompact three-term estimate,
the Gamma-function ratios and integral chain, the closed-form cusp term, the
ridge locator for the cusp objective, and the log-log exponent fitter.

Everything here works on plain floats, so importing this module loads no
numpy.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import NumericalError, PreconditionError, _check_exact_int, _check_positive
from .logreal import LogReal, _Frozen, log_cosh, log_sinh, log_sum_exp

__all__ = [
    "ConstantModel",
    "BoundReport",
    "GammaChain",
    "ScalingFit",
    "cocompact_bound",
    "cusp_term_log",
    "gamma_integral_chain",
    "ridge_locate",
    "ridge_log_objective",
    "scaling_fit",
]


class ConstantModel(_Frozen):
    """C(k) = c_gamma * k^exponent, the unresolved normalizing constant of
    the kernel bound; exponent n in the cocompact case, 2 in the one-cusp
    case, 0 for a plain constant."""

    __slots__ = ("c_gamma", "exponent")

    def __init__(self, c_gamma: float = 1.0, exponent: int = 0):
        _check_positive(c_gamma, "c_gamma")
        _check_exact_int(exponent, "exponent")
        object.__setattr__(self, "c_gamma", c_gamma)
        object.__setattr__(self, "exponent", exponent)

    def __call__(self, k: int) -> float:
        try:
            value = float(self.c_gamma) * float(k) ** int(self.exponent)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise NumericalError(f"C({k}) overflows a double; use log_value")
        return value

    def log_value(self, k: int) -> LogReal:
        return LogReal(self._log(k))

    def _log(self, k: int) -> float:
        """log C(k) as a float, the form the bound reports assemble in."""
        return float(math.log(self.c_gamma) + self.exponent * math.log(k))


class BoundReport(NamedTuple):
    """Per-term log-domain breakdown of a bound at given (n, k, r_x)."""

    n: int
    k: int
    r_x: float
    terms: Mapping[str, LogReal]
    total: LogReal
    normalized_total: LogReal
    extras: Mapping[str, object] = types.MappingProxyType({})

    def row(self) -> dict:
        """Flat dict for machine-readable output."""
        out = {"n": self.n, "k": self.k, "r_x": self.r_x}
        for name, term in self.terms.items():
            out[f"log_{name}"] = term.log()
        out["log_total"] = self.total.log()
        out["normalized_total"] = self.normalized_total.to_float()
        return out


def _cocompact_logs(n: int, k: int, r_x: float, log_c: float):
    """The logs of the three terms of `cocompact_bound` (identity, middle,
    ring) for checked n, k, r_x and a float log_c = log C(k), as floats; a
    NaN ring log is -inf."""
    # numpy integers would make numpy floats, and numpy overflow warnings
    n, k = int(n), int(k)
    # r_x / 8 first keeps 5 r_x / 8 finite; the two products overflow together
    # only for r_x near the double range, where k >= 2n+2 sends the term to 0
    r8 = r_x / 8.0
    if r_x < 1e-8:
        # sinh(u) = u to double precision for u <= 5 r_x / 8, so
        # sinh(5 r_x/8) / sinh(r_x/4) = 5/2; log r_x - log 4 keeps a subnormal
        # r_x exact, where r_x / 4 would round or underflow to 0
        log_sh = math.log(r_x) - math.log(4.0)
        log_ratio = math.log(2.5)
    elif r_x < 4.0:
        log_sh = log_sinh(r_x / 4.0)
        # one quotient: below r_x = 4 the two logs grow like log r_x and cancel
        log_ratio = math.log(math.sinh(5 * r8) / math.sinh(2 * r8))
    else:
        log_sh = log_sinh(r_x / 4.0)
        log_ratio = log_sinh(5 * r8) - log_sh
    middle = log_c + 2 * n * (log_cosh(r_x / 4.0) - log_sh) - math.log(k - 2 * n - 1)
    ring = log_c + 2 * n * log_ratio - k * log_cosh(3 * r8)
    return log_c, middle, -math.inf if math.isnan(ring) else ring


def cocompact_bound(n: int, k: int, r_x: float, cm: ConstantModel) -> BoundReport:
    """Three-term bound for the cocompact case:

        C(k) + C(k) cosh^{2n}(r/4) / ((k-2n-1) sinh^{2n}(r/4))
             + C(k) sinh^{2n}(5r/8) / (sinh^{2n}(r/4) cosh^k(3r/8)).

    Requires k >= 2n+2 so the middle denominator stays positive.  The
    report is assembled in one pass over floats: log C(k) once, the three
    term logs from `_cocompact_logs`, one `log_sum_exp` for the total, and
    one LogReal for each of the five outputs.
    """
    _check_exact_int(n, "n", at_least=2)
    _check_exact_int(k, "k", at_least=2 * n + 2)
    _check_positive(r_x, "r_x")
    log_c = cm._log(k)
    identity, middle, ring = _cocompact_logs(n, k, r_x, log_c)
    total = log_sum_exp((identity, middle, ring))
    terms = {
        "identity_term": LogReal(identity),
        "middle_term": LogReal(middle),
        "ring_term": LogReal(ring),
    }
    return BoundReport(n, k, r_x, terms, LogReal(total), LogReal(total - log_c))


# -- Gamma-function ratios --------------------------------------------------

_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _stirling(z: float) -> float:
    """The Stirling series log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2
    to its 1/z^7 term.  What it leaves out, about 1/(1188 z^9), is 2.4e-17
    at z = 32 (against 50-digit mpmath), the smallest z it is used at, and
    below 1e-27 for z >= 500."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z


# _log_gamma_ratio takes the Stirling branch above this j; at and below it
# the exact binomial is a small integer, above it a big one that costs more
# with every j, while the series is as accurate
_STIRLING_FROM = 64


def _log_gamma_ratio(j: int) -> float:
    """log Gamma((j-1)/2) / Gamma(j/2) for an integer j >= 3: from a central
    binomial C(2m, m) / 4^m (one rounding) up to j = 64, and beyond from
    the Stirling series, with x = j/2, as

        -log(x)/2 + ((x - 1) log1p(-1/(2x)) + 1/2) + S(x - 1/2) - S(x),

    whose terms do not cancel (lgamma((j-1)/2) - lgamma(j/2) loses
    log(j) eps j / 2 to the difference)."""
    if j > _STIRLING_FROM:
        x = j / 2.0
        return (
            -0.5 * math.log(x)
            + ((x - 1.0) * math.log1p(-0.5 / x) + 0.5)
            + (_stirling(x - 0.5) - _stirling(x))
        )
    m = (j - 1) // 2
    if j % 2:  # Gamma(m) / Gamma(m + 1/2) = 4^m / (m C(2m, m) sqrt(pi))
        return math.log(4**m / (m * math.comb(2 * m, m))) - _HALF_LOG_PI
    # Gamma(m + 1/2) / Gamma(m + 1) = C(2m, m) sqrt(pi) / 4^m
    return math.log(math.comb(2 * m, m) / 4**m) + _HALF_LOG_PI


def _beta_integral(k: int) -> float:
    """int_R (1+t^2)^{-k/2} dt = sqrt(pi) Gamma((k-1)/2) / Gamma(k/2)."""
    return math.exp(_HALF_LOG_PI + _log_gamma_ratio(k))


# -- Gamma-function integral chain ----------------------------------------


class GammaChain(NamedTuple):
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


def _legendre(n: int, x: float):
    """P_n(x) and P_n'(x) for 0 <= x < 1, by the three-term recurrence
    carried in d_j = P_j - P_{j-1} and u = 1 - x,

        d_j = ((j - 1) d_{j-1} - (2j - 1) u P_{j-1}) / j,

    whose rounding does not grow near x = 1, where the plain recurrence
    loses a factor ~n^2 (Reinsch's modification)."""
    u = 1.0 - x
    p, d = x, -u
    for j in range(2, n + 1):
        d = ((j - 1) * d - (2 * j - 1) * u * p) / j
        p += d
    # x P_n - P_{n-1} = d - u P_n
    return p, n * (u * p - d) / (u * (1.0 + x))


@functools.cache
def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1].

    Each positive node is found by Newton on P_n from
    cos(pi (i - 1/4) / (n + 1/2)) (Hale & Townsend 2013) until a step is
    below 1e-10, then one more step, and weighted 2 / ((1 - x^2) P_n'(x)^2);
    the negative half is its mirror image, and odd n adds the node 0.
    """
    half = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        step = math.inf
        while abs(step) >= 1e-10:
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
        p, dp = _legendre(n, x)
        x -= p / dp
        _, dp = _legendre(n, x)
        half.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    middle = [(0.0, 2.0 / _legendre(n, 0.0)[1] ** 2)] if n % 2 else []
    rule = [(-x, w) for x, w in half] + middle + half[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


# W(m) keeps t <= c / sqrt(m): as cos t <= exp(-t^2/2) on [0, pi/2], the
# dropped part is at most exp(-c^2/2) / (c sqrt(m)), below 1e-18 of W(m)
_WALLIS_CUT = 9.0
# every quadrature in pbl (here and the orbit tail integral of
# pbl.counting) takes its value from the 2n-node Gauss-Legendre rule and
# its error estimate from the difference to the n-node rule (_gl_pair)
_GL_NODES = 24


def _gl_pair(term: Callable[[float, float], float], h: float):
    """(Q_2n, |Q_2n - Q_n|) for n = _GL_NODES, with Q_j = h fsum(term(x, w))
    over the nodes x and weights w of the j-node Gauss-Legendre rule: the
    value of a quadrature of half-width h and its error estimate."""
    fine, coarse = (
        h * math.fsum(term(x, w) for x, w in zip(*_gauss_legendre(n)))
        for n in (2 * _GL_NODES, _GL_NODES)
    )
    return fine, abs(fine - coarse)


def _wallis(ms: Sequence[float]):
    """W(m) = int_0^{pi/2} cos^m t dt for each m >= 1, and an error estimate.

    The integral runs over [0, min(pi/2, c / sqrt(m))], where cos^m t is
    exp(m log1p(-2 sin^2(t/2))), accurate at every m.  The Gauss-Legendre
    pair of _gl_pair gives the value and the error estimate.  In the scaled
    variable t sqrt(m) the integrand tends to exp(-u^2/2), so one rule fits
    every m.
    """
    vals, errs = [], []
    for m in ms:
        m = float(m)
        half = min(math.pi / 2, _WALLIS_CUT / math.sqrt(m)) / 2.0

        def term(x, w):
            s = math.sin(half * (x + 1.0) / 2.0)
            return w * math.exp(m * math.log1p(-2.0 * s * s))

        val, err = _gl_pair(term, half)
        vals.append(val)
        errs.append(err)
    return vals, errs


def gamma_integral_chain(k: int) -> GammaChain:
    """Evaluates, closed-form and by quadrature:

      beta integral: A^{k-1} int_R (A^2 + beta^2)^{-k/2} dbeta
                     = sqrt(pi) Gamma(k/2 - 1/2) / Gamma(k/2),
      r integral:    int_0^inf (k/2pi + r^2/2)^{-(k-1)} dr, whose printed
                     closed form (2pi)^{k-1} Gamma(k - 3/2) / (k^{k-3/2} Gamma(k-1))
                     exceeds the quadrature by a constant factor (the ratio
                     is returned, not hidden).

    The exact substitutions beta = A s and r = sqrt(2A) s, then s = tan t,
    turn both integrals into Wallis integrals W(m) = int_0^{pi/2} cos^m t dt:
    the beta integral is 2 W(k - 2) and the r integral's s part is W(2k - 4).
    """
    _check_exact_int(k, "k", at_least=6)
    a0 = k / (2 * math.pi)
    log_gamma_r = _log_gamma_ratio(2 * k - 2)
    vals, errs = _wallis((k - 2.0, 2.0 * k - 4.0))
    for what, val, err in zip(("beta-integral", "r-integral"), vals, errs):
        if not math.isfinite(val) or err > 1e-6 * val:
            raise NumericalError(f"{what} quadrature did not converge (err {err:.3g})")
    w_beta, w_r = vals

    beta_closed = _beta_integral(k)
    beta_quad = 2.0 * w_beta
    log_r_closed = (
        (k - 1) * math.log(2 * math.pi) + log_gamma_r - (k - 1.5) * math.log(k)
    )
    log_r_quad = 0.5 * math.log(2 * a0) + (1.0 - k) * math.log(a0) + math.log(w_r)

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
        # log_r_quad - log_r_closed with its O(k log k) terms cancelled exactly
        r_ratio=math.exp(math.log(w_r) - log_gamma_r - _HALF_LOG_PI),
        chained=chained,
    )


def cusp_term_log(k: int, cm: ConstantModel, covolume: float = 1.0) -> float:
    """log of the closed-form stabilizer term

        (sqrt(pi)/2) Gamma(k/2-1/2) Gamma(k-3/2) / (Gamma(k/2) Gamma(k-1))
        * C(k) * k^{3/2} / covolume,

    the chained integral bound for the lattice sum times C(k), for k >= 3."""
    _check_exact_int(k, "k", at_least=3)
    _check_positive(covolume, "covolume")
    return _cusp_term_log(k, cm._log(k), covolume)


def _cusp_term_log(k: int, log_c: float, covolume: float) -> float:
    """`cusp_term_log` for checked k and covolume, given a float
    log_c = log C(k), as a float."""
    k = int(k)
    return (
        log_c
        + 1.5 * math.log(k)
        + _HALF_LOG_PI
        - math.log(2.0)
        + _log_gamma_ratio(k)
        + _log_gamma_ratio(2 * k - 2)
        - math.log(covolume)
    )


# -- ridge locator -----------------------------------------------------------

_RIDGE_RESOLUTION = 1e-14
_NEWTON_CAP = 100
_EPS = sys.float_info.epsilon


def ridge_log_objective(k: int, q: float, x1: float) -> float:
    """log of the model-3 cusp objective q^k exp(4 pi x1), for
    q = -2 Re z1 - |z2|^2 > 0 and x1 = Re z1."""
    return k * math.log(q) + 4 * math.pi * x1


def _ridge_step(a0: float, x1: float, x2: float, y2: float):
    """The Newton step s with H s = -grad of k log q + 4 pi x1 at
    (x1, x2, y2), q = -2 x1 - x2^2 - y2^2 > 0, in closed form, for
    a0 = k / (2 pi), the q of the ridge.

    The Hessian is k/q diag(0, -2, -2) - (k/q^2) g g^T with g = grad q =
    (-2, -2 x2, -2 y2), a diagonal plus a rank-one term; with
    u = 2 pi q / k = q / a0 the system has the exact solution

        s = (u (x2^2 + y2^2) - q (1 - u) / 2, -x2 u, -y2 u),

    as g.s = q (1 - u) makes each row of H s equal -grad.
    """
    q = -2.0 * x1 - x2 * x2 - y2 * y2
    # q / a0, not 2 pi q / k: the located x1 is then within 0.85 ulp of the
    # ridge for k up to 3000, against 1.6 ulp
    u = q / a0
    return u * (x2 * x2 + y2 * y2) - q * (1.0 - u) / 2.0, -x2 * u, -y2 * u


def ridge_locate(k: int, tol: float = 1e-6):
    """The maximum (x1, x2, y2) of (-2 x1 - x2^2 - y2^2)^k exp(4 pi x1), the
    model-3 cusp objective at z1 = x1 + i y1 (it does not depend on y1),
    z2 = x2 + i y2; it lies on x1 = -k/(4 pi), z2 = 0.

    Its log k log q + 4 pi x1, q = -2 x1 - x2^2 - y2^2, is strictly concave
    where q > 0 (the Hessian is negative definite, as dq/dx1 = -2), so damped
    Newton reaches the one maximum from any feasible start; this one starts
    at (-k/(8 pi) - 1, 0.3, 0.2).  Each step is `_ridge_step`'s closed form
    and is halved while it would leave q > 0.  The loop stops after two
    consecutive steps of at most 4 eps |v|: one such step can still leave
    |z2| far above its final rounding level, and x1 may flip between two
    adjacent floats forever.

    Raises if the result is not within tol (relative in x1, absolute in z2),
    or if tol is below the 1e-14 the check can resolve.
    """
    _check_exact_int(k, "k", at_least=1)
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    # the check below compares two rounded values, each a few eps from the
    # ridge, so a smaller tol would pass or fail by rounding
    if tol < _RIDGE_RESOLUTION:
        raise NumericalError(f"tol {tol:.3g} is below the ridge resolution {_RIDGE_RESOLUTION:g}")

    x_star = k / (4 * math.pi)
    a0 = k / (2 * math.pi)
    x1, x2, y2 = -x_star / 2.0 - 1.0, 0.3, 0.2
    rounding_steps = 0
    for _ in range(_NEWTON_CAP):
        s1, s2, s3 = _ridge_step(a0, x1, x2, y2)
        while -2.0 * (x1 + s1) - (x2 + s2) ** 2 - (y2 + s3) ** 2 <= 0:
            s1, s2, s3 = s1 / 2.0, s2 / 2.0, s3 / 2.0
        x1, x2, y2 = x1 + s1, x2 + s2, y2 + s3
        small = math.hypot(s1, s2, s3) <= 4.0 * _EPS * math.hypot(x1, x2, y2)
        rounding_steps = rounding_steps + 1 if small else 0
        if rounding_steps == 2:
            break
    else:
        raise NumericalError(f"Newton did not converge on the ridge in {_NEWTON_CAP} steps")

    if abs(x1 + x_star) > tol * x_star or math.hypot(x2, y2) > tol:
        raise NumericalError(
            f"optimizer did not reach the ridge: x1={x1!r}, |z2|={math.hypot(x2, y2):.3g}"
        )
    return x1, x2, y2


# -- exponent fitting -------------------------------------------------------


class ScalingFit(NamedTuple):
    """Least-squares fit of log bound(k) = intercept + slope * log k."""

    slope: float
    intercept: float
    residual_rms: float


def scaling_fit(ks: Sequence[int], bound: Callable[[int], LogReal]) -> ScalingFit:
    """Fits the growth exponent of a positive bound over the given weights,
    by least squares in closed form on the centred logs."""
    ks = list(ks)
    for k in ks:
        _check_exact_int(k, "k", at_least=1)
    if len(set(ks)) < 5:
        raise PreconditionError("at least 5 distinct k values are required")
    xs = [math.log(k) for k in ks]
    ys = []
    for k in ks:
        v = bound(k)
        if isinstance(v, LogReal):
            ys.append(v.log())
        else:  # a non-positive float has no log; the check below rejects nan
            v = float(v)
            ys.append(math.log(v) if v > 0 else math.nan)
    if not all(map(math.isfinite, ys)):
        raise PreconditionError("the bound's log must be finite at every k")
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    rms = math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy)) / len(ks))
    return ScalingFit(slope, y_mean - slope * x_mean, rms)
