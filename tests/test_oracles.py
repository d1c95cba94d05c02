"""Checks against high-precision mpmath values computed without pbl's formulas."""

import cmath
import contextlib
import io
import json
import math
import random
import sys
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from pbl import (
    GAUSSIAN_SPEC,
    ConstantModel,
    LatticeSpec,
    LogReal,
    ModelPoint,
    NumericalError,
    OrbitSource,
    ball_form,
    cocompact_bound,
    counting_function,
    cusp_lattice_sum,
    cusp_term_log,
    distance,
    maxima_locate,
    min_displacement,
    model2_form,
    model3_form,
    petersson_objective,
    scaling_fit,
    stabilizer_injectivity_radius,
    tail_bound_terms,
)
from pbl import bounds
from pbl.bounds import _alpha_tail, _beta_lines, _beta_tail, _box_sum
from pbl.cli import main
from pbl.closed_forms import _beta_integral, _gauss_legendre, _log_gamma_ratio, _ridge_step, _wallis
from pbl.transforms import _expm

EISENSTEIN = LatticeSpec(
    a2=cmath.exp(1j * math.pi / 3),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
)
# offsets 0, 0.1, 0.2 by m mod 3: no beta of an offset-0.1 or 0.2 line is
# minus another beta of the same line
SKEW = LatticeSpec(beta_offset_rule=lambda m, n: 0.1 * (m % 3))


def _oracle_log_gamma_ratio(j):
    with mp.workdps(50):
        return mp.loggamma(mp.mpf(j - 1) / 2) - mp.loggamma(mp.mpf(j) / 2)


class TestLogGammaRatio:
    def test_every_j_to_1000_within_1e_15(self):
        # the binomial up to j = 64 and the Stirling series beyond
        for j in range(3, 1001):
            err = abs(mp.mpf(_log_gamma_ratio(j)) - _oracle_log_gamma_ratio(j))
            assert err <= 1e-15, (j, err)

    @pytest.mark.parametrize(
        "j",
        [1001, 1002, 4999, 20000, 49_999, 50_000, 10**6, 10**8, 2 * 10**12 - 2, 2**53],
    )
    def test_lgamma_difference_beyond_1000(self, j):
        assert abs(mp.mpf(_log_gamma_ratio(j)) - _oracle_log_gamma_ratio(j)) <= 1e-14


def _su_element(form, seed, norm):
    """A random X with X* F + F X = 0, trace 0 and Frobenius norm `norm`."""
    rng = np.random.default_rng(seed)
    d = form.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = a - np.linalg.inv(form.entries) @ a.conj().T @ form.entries
    x -= np.trace(x) / d * np.eye(d)
    return x * (norm / np.linalg.norm(x))


# the Taylor value is a few eps from exp; each of the s squarings at most
# doubles the relative error (s = 0, 0, 3, 7)
@pytest.mark.parametrize("norm, tol", [(1e-8, 1e-15), (0.5, 1e-15), (3.0, 1e-14), (50.0, 1e-13)])
def test_expm_matches_40_digit_expm(norm, tol):
    for form in (ball_form(2), model2_form(), model3_form()):
        for seed in range(5):
            x = _su_element(form, seed, norm)
            got = _expm(x, norm)
            with mp.workdps(40):
                want = mp.expm(mp.matrix(x.tolist()))
                scale = max(abs(want[i, j]) for i in range(3) for j in range(3))
                err = max(
                    abs(mp.mpc(complex(got[i, j])) - want[i, j]) for i in range(3) for j in range(3)
                )
            assert err <= tol * scale, (seed, float(err / scale))


@pytest.mark.parametrize("k", [6, 7, 20, 200, 10**4, 10**6, 10**8, 2**53])
def test_wallis_integrals_match_beta_function(k):
    """W(m) = B(1/2, (m + 1)/2) / 2 at the chain's m = k - 2 and 2k - 4, to a
    few eps, with an error estimate far below the chain's 1e-6 gate."""
    ms = [k - 2, 2 * k - 4]
    vals, errs = _wallis(np.array(ms, dtype=float))
    for m, val, err in zip(ms, vals, errs):
        with mp.workdps(40):
            want = mp.beta(mp.mpf(1) / 2, (mp.mpf(m) + 1) / 2) / 2
            assert abs(mp.mpf(val) / want - 1) <= 1e-14, m
        assert err <= 1e-13 * val


@pytest.mark.parametrize("n", [24, 48])
def test_gauss_legendre_nodes_are_legendre_roots(n):
    """n ascending nodes, each within 1e-15 of a root of mp.legendre(n, x),
    so they are all n roots of P_n."""
    nodes, _ = _gauss_legendre(n)
    assert len(nodes) == n and all(a < b for a, b in zip(nodes, nodes[1:]))
    with mp.workdps(50):
        for x in nodes:
            root = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(x), solver="newton")
            assert abs(root - x) <= 1e-15, (x, root)


@pytest.mark.parametrize("n", [24, 48])
def test_gauss_legendre_weights_at_their_nodes(n):
    """Each weight is within 8 eps of 2 / ((1 - x^2) P_n'(x)^2) at its own
    rounded node x; the plain three-term recurrence misses this by ~1e-13
    near x = +-1."""
    nodes, weights = _gauss_legendre(n)
    with mp.workdps(50):
        for x, w in zip(nodes, weights):
            x = mp.mpf(x)
            dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
            want = 2 / ((1 - x * x) * dp * dp)
            assert abs(w / want - 1) <= 8 * sys.float_info.epsilon, (x, w)


@pytest.mark.parametrize("n", [24, 48])
def test_gauss_legendre_weights_integrate_even_powers(n):
    """sum w x^{2j} = 2/(2j+1) for j < n, summed exactly: each node is
    rounded by up to half an ulp, which moves x^{2j} by up to j eps, so
    (2j + 2) eps bounds the relative error; j = 0 is the weights' sum."""
    nodes, weights = _gauss_legendre(n)
    eps = 2.0**-52
    with mp.workdps(50):
        for j in range(n):
            got = mp.fsum(mp.mpf(w) * mp.mpf(x) ** (2 * j) for x, w in zip(nodes, weights))
            assert abs(got * (2 * j + 1) / 2 - 1) <= (2 * j + 2) * eps, j


_FIT_KS = list(range(50, 401, 25))


@pytest.mark.parametrize(
    "log_bound",
    [
        lambda k: cocompact_bound(2, k, 6.0, ConstantModel(1.0, 2)).total.log(),
        lambda k: cusp_term_log(k, ConstantModel(1.0, 2)),
        lambda k: 2.5 * math.log(k) - 3.0 + 0.01 * math.sin(k),
    ],
    ids=["cocompact", "cusp-term", "wobble"],
)
def test_scaling_fit_matches_50_digit_least_squares(log_bound):
    """Slope and intercept on the 15-point sweep 50..400:25 against the
    50-digit least-squares line through (log k, y); both are coefficients
    of a log, so the error is absolute."""
    ys = [log_bound(k) for k in _FIT_KS]
    fit = scaling_fit(_FIT_KS, lambda k: LogReal.from_log(ys[_FIT_KS.index(k)]))
    with mp.workdps(50):
        xs = [mp.log(k) for k in _FIT_KS]
        x_mean, y_mean = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
        slope = mp.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / mp.fsum(
            (x - x_mean) ** 2 for x in xs
        )
        intercept = y_mean - slope * x_mean
        assert abs(fit.slope - slope) <= 1e-14
        assert abs(fit.intercept - intercept) <= 1e-14


@pytest.mark.parametrize("k", [6, 7, 10**6, 2**53])
@pytest.mark.parametrize("r_x", [5e-324, 1e-322, 1e-300, 1e-8, 6.0, 700.0, 1e300])
def test_cocompact_terms_match_50_digit_logs(r_x, k):
    """Each log term of the n = 2 bound, C(k) = k^2, against 50 digits, to
    4 eps of the sum of its summands' magnitudes (log C, 2n log coth(r/4),
    log(k - 5); 2n log(sinh(5r/8) / sinh(r/4)), k log cosh(3r/8)).  A term
    below the double range must come out as zero."""
    report = cocompact_bound(2, k, r_x, ConstantModel(1.0, 2))
    with mp.workdps(50):
        r, n = mp.mpf(r_x), 2
        log_c = 2 * mp.log(k)
        coth = 2 * n * mp.log(mp.cosh(r / 4) / mp.sinh(r / 4))
        ratio = 2 * n * mp.log(mp.sinh(5 * r / 8) / mp.sinh(r / 4))
        cosh = k * mp.log(mp.cosh(3 * r / 8))
        want = {
            "identity_term": (log_c, abs(log_c)),
            "middle_term": (log_c + coth - mp.log(k - 5), log_c + coth + mp.log(k - 5)),
            "ring_term": (log_c + ratio - cosh, log_c + ratio + cosh),
        }
        for name, (value, scale) in want.items():
            got = report.terms[name].log_abs
            if value < -sys.float_info.max:
                assert got == -math.inf, name
            else:
                assert abs(got - value) <= 4 * sys.float_info.epsilon * scale, (name, got, value)


@pytest.mark.parametrize("p, delta", [(12, 3.0), (200, 0.6)])
def test_tail_integral_matches_mpmath_quad(p, delta):
    """The tail estimate's integral term for f = cosh^-p(rho/2) against
    mpmath.quad of
    4 pi / ((n-1)! sinh^{2n}(r/4)) int_delta^inf f(rho) sinh^{2n-1} cosh((2 rho + r)/4)."""
    src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
    z = ModelPoint.m3(-1.0, 0.0)
    r_x = min_displacement(src, z)
    n = 2
    got = tail_bound_terms(lambda r: math.cosh(r / 2) ** -p, n, r_x, delta, src, z, z).integral
    with mp.workdps(30):
        r = mp.mpf(r_x)

        def integrand(rho):
            u = (2 * rho + r) / 4
            return mp.cosh(rho / 2) ** -p * mp.sinh(u) ** (2 * n - 1) * mp.cosh(u)

        coeff = 4 * mp.pi / (mp.factorial(n - 1) * mp.sinh(r / 4) ** (2 * n))
        want = coeff * mp.quad(integrand, [delta, delta + 10, delta + 40, mp.inf])
        assert abs(mp.mpf(got) / want - 1) <= 1e-12


@pytest.mark.parametrize("spec", [GAUSSIAN_SPEC, EISENSTEIN], ids=["gaussian", "eisenstein"])
@pytest.mark.parametrize("k", [6, 8, 20, 60, 200, 1000])
def test_alpha_tail_majorizes_its_integral(spec, k):
    """The closed-form alpha tail is >= (2 pi / area) int_{u0}^inf s(u) (u + diam/2) du,
    s = (a0/a)^k (2 + c a), a = a0 + u^2/2, with the integral by mpmath.quad."""
    diam = mp.mpf(spec.alpha_cell_diameter)
    with mp.workdps(30):
        a0 = mp.mpf(k) / (2 * mp.pi)
        j_beta = mp.sqrt(mp.pi) / 2 * mp.gamma(mp.mpf(k - 1) / 2) / mp.gamma(mp.mpf(k) / 2)
        c = 2 * j_beta / mp.mpf(spec.beta_step)

        def s_weighted(u):
            a = a0 + u * u / 2
            return (a0 / a) ** k * (2 + c * a) * (u + diam / 2)

        base = 2 + spec.alpha_cell_diameter
        for r_alpha in (base, 1.5 * base, 2.25 * base, 6.0, 12.0):
            u0 = mp.mpf(r_alpha) - diam
            # the integrand falls off from u0 on a scale a/(k u0); geometric
            # breakpoints resolve it for every k here to ~1e-11
            val = mp.quad(s_weighted, [u0, *(u0 + mp.mpf(2) ** i / 64 for i in range(11)), mp.inf])
            want = mp.log(2 * mp.pi / mp.mpf(spec.cell_area) * val)
            log_tail_alpha = _alpha_tail(spec, k, _beta_integral(k))(r_alpha)
            assert log_tail_alpha >= want, (r_alpha, log_tail_alpha, want)


@pytest.mark.parametrize("spec", [GAUSSIAN_SPEC, EISENSTEIN], ids=["gaussian", "eisenstein"])
@pytest.mark.parametrize("k", [6, 8, 20, 60, 200, 1000, 20000])
def test_beta_tail_majorizes_its_sum(spec, k):
    """The beta tail with one column is >= the mpmath.nsum of
    (1 + beta^2/a0^2)^{-k/2} over beta = offset + l step with |beta| >= r_beta,
    the largest a column's beta tail can be (its a is at least a0), on every
    offset line of the spec.  Euler-Maclaurin summation agrees with Levin's
    transform here to 20 digits; the default Richardson+Shanks does not at
    k = 6."""
    step = spec.beta_step
    solved = cusp_lattice_sum(k, spec, 1e-8).r_beta
    offsets = {spec.offset(m, n) for m in range(2) for n in range(2)}
    with mp.workdps(20):
        a0 = mp.mpf(k) / (2 * mp.pi)
        for r_beta in (4 * step, solved, 1.5 * solved):
            log_tail_beta = _beta_tail(spec, k, 1)(r_beta)
            for off in offsets:

                def f(l):
                    return (1 + ((off + l * mp.mpf(step)) / a0) ** 2) ** (-mp.mpf(k) / 2)

                # boundary points with |beta| = r_beta are included
                hi = math.ceil((r_beta - off) / step)
                lo = math.floor((-r_beta - off) / step)
                upper = mp.nsum(f, [hi, mp.inf], method="euler-maclaurin")
                lower = mp.nsum(f, [-mp.inf, lo], method="euler-maclaurin")
                want = mp.log(upper + lower)
                assert log_tail_beta >= want, (r_beta, off, log_tail_beta, want)


@pytest.mark.parametrize("k", [1000, 20000, 10**6])
def test_box_sum_matches_40_digit_sum(k):
    """The Gaussian box sum at rel_tol 1e-12 equals the 40-digit sum of
    (a0^2 / (a^2 + l^2))^{k/2} over the same box, a = a0 + (m^2 + n^2)/2,
    to 1e-15: its rounding does not grow with k."""
    res = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-12)
    disc = GAUSSIAN_SPEC.disc(res.r_alpha)
    got, _ = _box_sum(GAUSSIAN_SPEC, _beta_lines(GAUSSIAN_SPEC, res.r_alpha), k, res.r_beta)
    norms = Counter(int(m) ** 2 + int(n) ** 2 for m, n in zip(disc.m, disc.n))
    l_max = math.floor(res.r_beta)
    with mp.workdps(40):
        a0 = mp.mpf(k) / (2 * mp.pi)
        half_k = mp.mpf(k) / 2
        want = mp.mpf(0)
        for s, count in norms.items():
            a_sq = (a0 + mp.mpf(s) / 2) ** 2
            side = mp.fsum((a0 * a0 / (a_sq + l * l)) ** half_k for l in range(1, l_max + 1))
            want += count * (2 * side + (a0 * a0 / a_sq) ** half_k)
        assert abs(mp.mpf(got) / want - 1) <= 1e-15


# every |beta| is at least 5, far above a0 ~ 1, so the sum (1.2e-3 at k = 6)
# lies far below the starting goal of 1: the first box does not certify
# against its partial sum, and the sum takes a second pass
OFFSET_HALF_STEP = LatticeSpec(beta_step=10.0, beta_offset_rule=lambda m, n: 5.0)


def _offset_half_step_oracle(k, r=40, l_max=20):
    """The 30-digit lattice sum of (a0^2 / (a^2 + beta^2))^{k/2} on
    OFFSET_HALF_STEP, a = a0 + (m^2 + n^2)/2, beta = 5 + 10 l.  Each column
    with m^2 + n^2 <= r^2 is summed directly over |beta| < 10 l_max, plus its
    beta tail as the midpoint rule of the integral past 10 l_max (an
    incomplete Beta function) with its h^2/24 correction.  The columns past
    r add a0^k J_k a^{1-k} / 10 each (Poisson), integrated over the plane
    outside the disc of the counted columns' area.  Raising r to 90 and
    l_max to 60 moves the result by under 1e-12 of it, while a direct box
    with r = l_max = 40 alone falls short by 4.6e-9 of it at k = 6."""
    norms = Counter(
        m * m + n * n for m in range(-r, r + 1) for n in range(-r, r + 1) if m * m + n * n <= r * r
    )
    with mp.workdps(30):
        a0 = mp.mpf(k) / (2 * mp.pi)
        half_k = mp.mpf(k) / 2
        b = 10 * l_max
        total = mp.mpf(0)
        for s, count in norms.items():
            a = a0 + mp.mpf(s) / 2
            head = mp.fsum((a0 * a0 / (a * a + (5 + 10 * l) ** 2)) ** half_k for l in range(l_max))
            tail = (a0 / a) ** k * a / 20 * mp.betainc(half_k - 0.5, 0.5, 0, a * a / (a * a + b * b))
            tail -= mp.mpf(10) / 24 * k * b * a0**k * (a * a + b * b) ** (-half_k - 1)
            total += count * 2 * (head + tail)
        r_sq = sum(norms.values()) / mp.pi
        j_k = mp.beta(half_k - 0.5, 0.5)
        far = a0**k * j_k / 10 * 2 * mp.pi * (a0 + r_sq / 2) ** (2 - k) / (k - 2)
        return total + far


@pytest.mark.parametrize("k", [6, 8, 12])
def test_retry_pass_stays_within_its_certificate(monkeypatch, k):
    """The second pass of cusp_lattice_sum, which lowers its goal to the
    first pass's partial sum, certifies a sum below the 30-digit oracle by
    at most its tail majorant."""
    passes = []

    def counted_box_sum(*args):
        passes.append(args)
        return _box_sum(*args)

    monkeypatch.setattr(bounds, "_box_sum", counted_box_sum)
    res = cusp_lattice_sum(k, OFFSET_HALF_STEP, 1e-8)
    assert len(passes) == 2
    gap = _offset_half_step_oracle(k) - mp.mpf(res.value.to_float())
    assert 0 <= gap <= res.tail_majorant


@pytest.mark.parametrize("spec", [EISENSTEIN, SKEW], ids=["eisenstein", "skew"])
@pytest.mark.parametrize("k, rel_tol", [(6, 1e-3), (60, 1e-8)])
def test_grouped_box_sum_matches_40_digit_sum(spec, k, rel_tol):
    """_box_sum over a certified box equals the 40-digit sum of
    (a0^2 / ((a0 + h)^2 + beta^2))^{k/2} over the same lattice points, to
    1e-15, with h = |m a1 + n a2|^2 / 2 and beta = offset + l step taken
    exactly from the spec's doubles.  The Eisenstein offsets 0 and 1/4 are
    symmetric mod the step 1/2, so their beta rows fold; SKEW's do not
    (except offset 0).  The point count is the oracle's too."""
    res = cusp_lattice_sum(k, spec, rel_tol)
    disc = spec.disc(res.r_alpha)
    got, count = _box_sum(spec, _beta_lines(spec, res.r_alpha), k, res.r_beta)
    step = spec.beta_step
    # beta = offset + l step in doubles decides membership, as in the box
    betas = {}
    for off in set(disc.offset.tolist()):
        l_max = math.ceil((res.r_beta + abs(off)) / step) + 1
        betas[off] = [l for l in range(-l_max, l_max + 1) if abs(off + l * step) <= res.r_beta]
    with mp.workdps(40):
        a0 = mp.mpf(k) / (2 * mp.pi)
        half_k = mp.mpf(k) / 2
        a1, a2 = (mp.mpc(complex(z).real, complex(z).imag) for z in (spec.a1, spec.a2))
        lines = Counter()
        for m, n, off in zip(disc.m.tolist(), disc.n.tolist(), disc.offset.tolist()):
            lines[(abs(m * a1 + n * a2) ** 2 / 2, off)] += 1
        want = mp.mpf(0)
        for (h, off), columns in lines.items():
            a_sq = (a0 + h) ** 2
            want += columns * mp.fsum(
                (a0 * a0 / (a_sq + (mp.mpf(off) + l * mp.mpf(step)) ** 2)) ** half_k
                for l in betas[off]
            )
        assert count == sum(c * len(betas[off]) for (_, off), c in lines.items())
        assert abs(mp.mpf(got) / want - 1) <= 1e-15


def test_ridge_step_solves_the_40_digit_newton_system():
    """The closed-form ridge step equals the 40-digit solution of
    H s = -grad for k log q + 4 pi x1, q = -2 x1 - x2^2 - y2^2, with the
    gradient and Hessian written out from their definitions, to 1e-12 of
    |s| at 50 random feasible points on both sides of the ridge."""
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 200)
        x2, y2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        q_float = k / (2 * math.pi) * math.exp(rng.uniform(-2.0, 2.0))
        x1 = -(q_float + x2 * x2 + y2 * y2) / 2.0
        got = _ridge_step(k / (2 * math.pi), x1, x2, y2)
        with mp.workdps(40):
            v = [mp.mpf(x1), mp.mpf(x2), mp.mpf(y2)]
            q = -2 * v[0] - v[1] ** 2 - v[2] ** 2
            dq = [mp.mpf(-2), -2 * v[1], -2 * v[2]]
            d2q = [0, -2, -2]
            grad = mp.matrix([k * dq[i] / q + (4 * mp.pi if i == 0 else 0) for i in range(3)])
            hess = mp.matrix(3, 3)
            for i in range(3):
                for j in range(3):
                    hess[i, j] = k * ((d2q[i] if i == j else 0) / q - dq[i] * dq[j] / q**2)
            want = mp.lu_solve(hess, -grad)
            err = max(abs(mp.mpf(g) - w) for g, w in zip(got, want))
            assert err <= 1e-12 * mp.norm(want), (k, x1, x2, y2, err)


def test_ridge_within_2_ulp_of_40_digit_ridge():
    """maxima_locate lands within 2 ulp of the 40-digit -k/(4 pi), with
    |z2| <= 1e-14, for every k to 400 and at large k."""
    for k in [*range(1, 401), 527, 10**5, 10**6, 2 * 10**6, 2**52]:
        p = maxima_locate(k, 1e-14)
        x1 = p.coords[0].real
        with mp.workdps(40):
            err = abs(mp.mpf(x1) + mp.mpf(k) / (4 * mp.pi))
        assert err <= 2 * math.ulp(x1), (k, x1, err / math.ulp(x1))
        assert abs(p.coords[1]) <= 1e-14, k


def test_cli_log_objective_is_petersson_objective_bit_for_bit():
    """`pbl maxima` forms its log objective from the located floats; it is
    the library's petersson_objective at maxima_locate's point, bit for bit."""
    for k in [*range(1, 3001, 11), 10**4, 10**6, 10**8, 2**52]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["maxima", "--k", str(k)]) == 0
        row = json.loads(out.getvalue().splitlines()[1])
        want = petersson_objective(maxima_locate(k), k).log()
        assert row["log_objective"] == want, (k, row["log_objective"], want)


def _ridge_count_oracle(k, delta):
    """#{(m, n, l) : (q + (m^2 + n^2)/2)^2 + l^2 <= q^2 cosh^2(delta/2)} at
    40 digits, with q = k/(2 pi) as the ridge point's double has it: the
    Gaussian orbit count on the ridge, as sum over each distinct m^2 + n^2
    of its columns times 2 floor(sqrt(rest)) + 1.  Also returns the least
    distance, relative to q cosh(delta/2), of a boundary to a lattice point."""
    with mp.workdps(40):
        q = -2 * mp.mpf(-k / (4 * math.pi))
        t = q * mp.cosh(mp.mpf(delta) / 2)
        r = int(mp.sqrt(2 * (t - q))) + 1
        m = np.arange(-r, r + 1)
        norms, columns = np.unique((m[:, None] ** 2 + m**2).ravel(), return_counts=True)
        total, margin = 0, mp.inf
        for s, c in zip(norms.tolist(), columns.tolist()):
            rest = t * t - (q + mp.mpf(s) / 2) ** 2
            if rest < 0:  # and for every larger norm
                return total, min(margin, -rest / t**2)
            root = mp.sqrt(rest)
            l = int(mp.floor(root))
            margin = min(margin, (root - l) / t, (l + 1 - root) / t)
            total += c * (2 * l + 1)
    raise AssertionError("the norm table ends inside the orbit ball")


@pytest.mark.parametrize("spec", [GAUSSIAN_SPEC, EISENSTEIN], ids=["gaussian", "eisenstein"])
@pytest.mark.parametrize("q_max", [1e-300, 1e-160, 1e3, 1e5, 1e7, 1e20, 1e200])
def test_slice_radius_matches_40_digit_minimum(spec, q_max):
    # at p_max = 0 the slice minimum of d(z, gamma z) has cosh^2(d/2) =
    # (1 + |alpha|^2 / 2q)^2 + (beta / q)^2; its minimum over the nontrivial
    # points with m, n, l in -2..2 holds the alpha = 0 line's smallest beta
    # at large q, and the alpha = +-1 columns at tiny q, where sinh^2(d/2)
    # ~ 1/(4 q^2) leaves the double range.  At large q, cosh^2(d/2) - 1 ~
    # 1/q^2 cancels 2 log10(q) digits, so those are added to keep d to 40
    # digits
    idx = range(-2, 3)
    params = [spec.param(m, n, l) for m in idx for n in idx for l in idx]
    with mp.workdps(40 + 2 * max(0, round(math.log10(q_max)))):
        q = mp.mpf(q_max)
        cosh2 = min(
            (1 + abs(mp.mpc(p.alpha)) ** 2 / (2 * q)) ** 2 + (mp.mpf(p.beta) / q) ** 2
            for p in params
            if (p.alpha, p.beta) != (0, 0)
        )
        want = 2 * mp.acosh(mp.sqrt(cosh2))
    got = stabilizer_injectivity_radius(spec, q_max)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("scale", [1e-20, 1e-8])
def test_slice_radius_finds_the_short_column_of_a_skewed_tiny_cell(scale):
    # on a1 = scale, a2 = (5 + 0.1i) scale the shortest column a2 - 5 a1 =
    # 0.1i scale lies outside the 3x3 seed box, whose best column a1 is 10
    # times longer.  At q_max = 1e300 the seed box gives sinh(d/2) ~ 1e-170
    # and 1e-158, whose squares are 0 and subnormal, so the alpha disc must
    # be sized without squaring it.  The oracle takes sinh^2(d/2) = u (2 + u)
    # + v^2 at 40 digits over m, n in -8..8, l in -2..2
    spec = LatticeSpec(a1=scale, a2=(5 + 0.1j) * scale, beta_step=1e200)
    q_max = 1e300
    idx = range(-8, 9)
    params = [spec.param(m, n, l) for m in idx for n in idx for l in range(-2, 3)]
    with mp.workdps(40):
        q = mp.mpf(q_max)
        sinh2 = min(
            (abs(mp.mpc(p.alpha)) ** 2 / (2 * q)) * (2 + abs(mp.mpc(p.alpha)) ** 2 / (2 * q))
            + (mp.mpf(p.beta) / q) ** 2
            for p in params
            if (p.alpha, p.beta) != (0, 0)
        )
        want = 2 * mp.asinh(mp.sqrt(sinh2))
    got = stabilizer_injectivity_radius(spec, q_max)
    assert abs(got - want) <= 1e-15 * want
    # a cell 100 times flatter needs a disc of 2e7 points: it raises rather
    # than answer from the seed box
    flat = LatticeSpec(a1=scale, a2=(5 + 1e-3j) * scale, beta_step=1e200)
    with pytest.raises(NumericalError, match="alpha disc"):
        stabilizer_injectivity_radius(flat, q_max)


@pytest.mark.parametrize("k", [6, 10**4, 10**6, 10**9])
def test_ridge_min_displacement_matches_40_digit_minimum(k):
    # on the Gaussian ridge q = k / (2 pi) and z2 = 0, so gamma = (alpha, l)
    # moves z by cosh^2(d/2) = ((q + |alpha|^2/2)^2 + l^2) / q^2, which the
    # oracle minimizes at 40 digits over m, n, l in -2..2; in doubles
    # cosh^2 - 1 keeps only eps q^2 of 1/q^2, and at k = 1e9 none of it
    z = ModelPoint.m3(complex(-k / (4 * math.pi), 0.0), 0.0)
    got = min_displacement(OrbitSource.from_lattice(GAUSSIAN_SPEC), z)
    with mp.workdps(40):
        q = -2 * mp.mpf(z.coords[0].real)
        want = min(
            2 * mp.acosh(mp.sqrt(((q + mp.mpf(m * m + n * n) / 2) ** 2 + l * l) / q**2))
            for m in range(-2, 3)
            for n in range(-2, 3)
            for l in range(-2, 3)
            if (m, n, l) != (0, 0, 0)
        )
    assert abs(got - want) <= 1e-15 * want
    if k == 6:
        assert got == 1.8287133107857718  # the bits of the cosh^2 form


@pytest.mark.parametrize("delta", [14.0, 20.0])
def test_ridge_count_matches_40_digit_column_count(delta):
    """The lattice count on the k = 6 ridge, where a box scan needs 7.2e6
    and 1.4e9 points, against the 40-digit column count; no lattice point
    lies within 1e-12 of the boundary, so the doubles must agree exactly.
    `pbl count --delta 20` prints the same count."""
    want, margin = _ridge_count_oracle(6, delta)
    assert margin > 1e-12
    z = ModelPoint.m3(complex(-6 / (4 * math.pi), 0.0), 0.0)
    assert counting_function(OrbitSource.from_lattice(GAUSSIAN_SPEC), z, z, delta) == want
    if delta == 20.0:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["count", "--delta", "20"]) == 0
        row = json.loads(out.getvalue().splitlines()[1])
        assert row["delta"] == 20.0 and row["counted"] == want


_EPS = sys.float_info.epsilon


def _oracle_distance(z, w):
    """2 arccosh(sqrt(|<w,z>|^2 / (<z,z><w,w>))) on the stored coordinates
    at 80 digits: cosh^2(d/2) - 1 cancels at most ~32 of them here."""
    with mp.workdps(80):
        h = mp.matrix(z.form().entries.tolist())
        zt, wt = ([mp.mpc(c) for c in p.coords.tolist()] + [mp.mpf(1)] for p in (z, w))

        def pair(x, y):
            return mp.fsum(mp.conj(y[i]) * h[i, j] * x[j] for i in range(3) for j in range(3))

        cosh2 = abs(pair(wt, zt)) ** 2 / (pair(zt, zt).real * pair(wt, wt).real)
        return 2 * mp.acosh(mp.sqrt(cosh2))


def _ridge_pair(k):
    # the Gaussian ridge point at weight k, and the same point with Im z1
    # moved by 0.5: the pair is d ~ 2 pi / k apart
    x1 = -k / (4 * math.pi)
    return ModelPoint.m3(complex(x1, 0.0), 0.0), ModelPoint.m3(complex(x1, 0.5), 0.0)


@pytest.mark.parametrize("sep", [1e-3, 1e-6, 1e-9])
def test_ball_distance_of_close_points_within_8_eps(sep):
    # cosh^2(d/2) - 1 ~ sep^2 keeps only eps / sep^2 of its digits in doubles
    z = ModelPoint.ball([0.3 + 0.1j, -0.2j])
    w = ModelPoint.ball([0.3 + 0.1j + sep * (0.6 - 0.8j), -0.2j + sep * 0.5])
    want = _oracle_distance(z, w)
    assert abs(distance(z, w) - want) <= 8 * _EPS * want


@pytest.mark.parametrize("k", [6, 10**4, 10**6, 10**8])
def test_ridge_pair_distance_within_8_eps(k):
    # at q = k / (2 pi), cosh^2(d/2) - 1 ~ 1/(4 q^2) keeps eps q^2 of it
    z, w = _ridge_pair(k)
    want = _oracle_distance(z, w)
    assert abs(distance(z, w) - want) <= 8 * _EPS * want


def test_count_just_below_a_ridge_pair_distance_is_zero():
    # no stabilizer element moves w within 0.9999 d(z, w) of z at k = 1e8;
    # the cosh^2 - 1 form of the distance made two of them do so
    z, w = _ridge_pair(10**8)
    delta = 0.9999 * float(_oracle_distance(z, w))
    assert counting_function(OrbitSource.from_lattice(GAUSSIAN_SPEC), z, w, delta) == 0


_EISENSTEIN_CELL = LatticeSpec(1.0, cmath.exp(1j * math.pi / 3))


@pytest.mark.parametrize(
    "spec, theta",
    [
        # theta_3(e^-pi)^2 = sqrt(pi) / Gamma(3/4)^2
        (GAUSSIAN_SPEC, math.sqrt(math.pi) / math.gamma(0.75) ** 2),
        (
            _EISENSTEIN_CELL,
            math.fsum(
                math.exp(-math.pi * abs(_EISENSTEIN_CELL.alpha(m, n)) ** 2)
                for m in range(-12, 13)
                for n in range(-12, 13)
            ),
        ),
    ],
    ids=["gaussian", "eisenstein"],
)
def test_lattice_sum_tends_to_the_theta_series(spec, theta):
    # Poisson summation of each beta line gives a^(1-k) J_k / step with
    # J_k = sqrt(pi) Gamma((k-1)/2) / Gamma(k/2), and (a0/a)^(k-1) tends to
    # exp(-pi |alpha|^2), so R(k) = S(k) step / (a0 J_k) = theta + c/k +
    # O(k^-2).  J_k comes from mpmath: the difference of two lgamma loses
    # ~1e-7 of it at k = 1e8.  The only oracle that reaches k = 1e8.
    scaled = []
    for k in (10**6, 10**8):
        with mp.workdps(30):
            j_k = mp.sqrt(mp.pi) * mp.gammaprod([mp.mpf(k - 1) / 2], [mp.mpf(k) / 2])
            a0 = mp.mpf(k) / (2 * mp.pi)
            s = mp.mpf(cusp_lattice_sum(k, spec, 1e-12).value.to_float())
            r = float(s * spec.beta_step / (a0 * j_k))
        assert abs(r - theta) <= 3.0 / k
        scaled.append(k * (r - theta))
    # c = 1.59188 (Gaussian), 2.12206 (Eisenstein)
    assert scaled[0] == pytest.approx(scaled[1], rel=1e-3)
