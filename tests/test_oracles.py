"""Checks against high-precision mpmath values computed without pbl's formulas."""

import cmath
import math

import mpmath as mp
import pytest

from pbl import GAUSSIAN_SPEC, LatticeSpec, cusp_lattice_sum
from pbl.bounds import _log_gamma_ratio, _tail_logs

EISENSTEIN = LatticeSpec(
    a2=cmath.exp(1j * math.pi / 3),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
)


def _oracle_log_gamma_ratio(j):
    with mp.workdps(50):
        return mp.loggamma(mp.mpf(j - 1) / 2) - mp.loggamma(mp.mpf(j) / 2)


class TestLogGammaRatio:
    def test_exact_binomials_to_1e_15(self):
        for j in (*range(3, 1001, 11), 999, 1000):
            err = abs(mp.mpf(_log_gamma_ratio(j)) - _oracle_log_gamma_ratio(j))
            assert err <= 1e-15, (j, err)

    @pytest.mark.parametrize("j", [1001, 1002, 4999, 20000, 49_999, 50_000])
    def test_lgamma_difference_beyond_1000(self, j):
        assert abs(mp.mpf(_log_gamma_ratio(j)) - _oracle_log_gamma_ratio(j)) <= 1e-10


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
            log_tail_alpha, _ = _tail_logs(spec, k, r_alpha, 10.0, 1)
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
            _, log_tail_beta = _tail_logs(spec, k, 2 + spec.alpha_cell_diameter, r_beta, 1)
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
