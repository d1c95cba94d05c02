import math
import time

import numpy as np
import pytest

from pbl import (
    ConstantModel,
    GAUSSIAN_SPEC,
    LatticeSpec,
    LogReal,
    Model,
    ModelPoint,
    NumericalError,
    PreconditionError,
    cocompact_bound,
    cusp_bound,
    cusp_lattice_sum,
    cusp_term_log,
    gamma_integral_chain,
    maxima_locate,
    orbit_cosh_power_sum,
    petersson_objective,
    scaling_fit,
    stabilizer_matrix,
)
from pbl.bounds import _box_sum
from pbl.counting import tail_bound_terms, OrbitSource

EISENSTEIN_OFFSET = LatticeSpec(
    a2=complex(0.5, math.sqrt(3) / 2),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
)
# offsets 0, 0.1, 0.2 by m mod 3: the columns (m, n) and (-m, -n) carry
# different offsets, and 2 * 0.1 is not a multiple of the step
SKEW_SPEC = LatticeSpec(beta_offset_rule=lambda m, n: 0.1 * (m % 3))


def brute_lattice_sum(k, m_box, l_box):
    a0 = k / (2 * math.pi)
    m = np.arange(-m_box, m_box + 1)
    s2 = (m[:, None] ** 2 + m[None, :] ** 2).ravel()
    counts = np.bincount(s2)
    svals = np.nonzero(counts)[0]
    w = counts[svals]
    a = a0 + svals / 2.0
    l = np.arange(-l_box, l_box + 1)
    total = 0.0
    for i in range(0, a.size, 1024):
        ai = a[i : i + 1024][:, None]
        wi = w[i : i + 1024][:, None]
        total += float((wi * np.exp(k * math.log(a0) - (k / 2.0) * np.log(ai**2 + l[None, :] ** 2))).sum())
    return total


def direct_box_sum(spec, k, r_alpha, r_beta):
    """The box sum term by term, one beta line per column, and its count."""
    a0 = k / (2 * math.pi)
    disc = spec.disc(r_alpha)
    a = a0 + np.abs(disc.alpha) ** 2 / 2.0
    l_max = int((r_beta + np.abs(disc.offset).max()) / spec.beta_step) + 1
    beta = disc.offset[:, None] + np.arange(-l_max, l_max + 1) * spec.beta_step
    mask = np.abs(beta) <= r_beta
    terms = np.exp(k * math.log(a0) - (k / 2.0) * np.log(a[:, None] ** 2 + beta**2))
    return float((terms * mask).sum()), int(mask.sum())


def bincount_lattice_sum(k, quad, step, odd_offset, m_box, l_box):
    """Brute-force sum over |m|, |n| <= m_box, |l| <= l_box of a lattice with
    |alpha|^2 = qa m^2 + qb m n + qc n^2 and beta = l step, plus odd_offset
    where m n is odd, grouped by (norm, parity) with bincount."""
    a0 = k / (2 * math.pi)
    i = np.arange(-m_box, m_box + 1)
    m, n = i[:, None], i[None, :]
    norm = (quad[0] * m * m + quad[1] * m * n + quad[2] * n * n).ravel()
    odd = ((m * n) % 2).ravel()
    counts = np.bincount(2 * norm + odd)
    keys = np.nonzero(counts)[0]
    a = a0 + (keys // 2) / 2.0
    off = odd_offset * (keys % 2)
    beta = off[:, None] + np.arange(-l_box, l_box + 1)[None, :] * step
    terms = np.exp(k * math.log(a0) - (k / 2.0) * np.log(a[:, None] ** 2 + beta**2))
    return float(counts[keys] @ terms.sum(axis=1))


class TestCocompactBound:
    def test_identity_term_is_constant(self):
        rep = cocompact_bound(2, 6, 1.0, ConstantModel(1.0, 0))
        assert rep.terms["identity_term"].to_float() == pytest.approx(1.0, abs=1e-15)

    def test_term_formulas(self):
        n, k, rx, c = 2, 8, 1.3, 2.5
        rep = cocompact_bound(n, k, rx, ConstantModel(c, 0))
        mid = c * math.cosh(rx / 4) ** 4 / ((k - 5) * math.sinh(rx / 4) ** 4)
        ring = c * math.sinh(5 * rx / 8) ** 4 / (
            math.sinh(rx / 4) ** 4 * math.cosh(3 * rx / 8) ** k
        )
        assert rep.terms["middle_term"].to_float() == pytest.approx(mid, rel=1e-12)
        assert rep.terms["ring_term"].to_float() == pytest.approx(ring, rel=1e-12)
        assert rep.total.to_float() == pytest.approx(c + mid + ring, rel=1e-12)

    def test_middle_term_scales_inverse_k(self):
        cm = ConstantModel(1.0, 0)
        m6 = cocompact_bound(2, 6, 1.0, cm).terms["middle_term"]
        m12 = cocompact_bound(2, 12, 1.0, cm).terms["middle_term"]
        assert (m12 / m6).to_float() == pytest.approx((6 - 5) / (12 - 5), rel=1e-12)

    def test_normalized_total_tends_to_one(self):
        cm = ConstantModel(1.0, 2)
        vals = [
            cocompact_bound(2, k, 1.0, cm).normalized_total.to_float()
            for k in (100, 1000, 10000, 100000)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, rel=1e-2)

    def test_huge_weight_no_overflow(self):
        rep = cocompact_bound(2, 5000, 8.0, ConstantModel(1.0, 2))
        assert math.isfinite(rep.total.log())

    def test_precondition_k(self):
        with pytest.raises(PreconditionError):
            cocompact_bound(2, 5, 1.0, ConstantModel())
        with pytest.raises(PreconditionError):
            cocompact_bound(3, 7, 1.0, ConstantModel())

    def test_precondition_rx(self):
        with pytest.raises(PreconditionError):
            cocompact_bound(2, 6, 0.0, ConstantModel())
        for r_x in (math.inf, math.nan):
            with pytest.raises(PreconditionError):
                cocompact_bound(2, 6, r_x, ConstantModel())
        for c_gamma in (0.0, math.inf, math.nan):
            with pytest.raises(PreconditionError):
                ConstantModel(c_gamma)

    def test_constant_model_overflow(self):
        assert ConstantModel(1.5, 2)(6) == 1.5 * 6.0**2
        with pytest.raises(NumericalError):
            ConstantModel(1.0, 3000)(6)
        with pytest.raises(NumericalError):
            ConstantModel(1e300, 100)(6)
        assert ConstantModel(1.0, 3000).log_value(6).log() == pytest.approx(3000 * math.log(6))


class TestCuspLatticeSum:
    def test_origin_term_is_one(self):
        a0 = 24 / (2 * math.pi)
        origin = math.exp(24 * math.log(a0) - 12 * math.log(a0**2 + 0.0))
        assert origin == pytest.approx(1.0, abs=1e-12)
        assert cusp_lattice_sum(24, GAUSSIAN_SPEC, 1e-6).value.to_float() > 1.0

    def test_sqrt_k_growth(self):
        # alpha terms tend to exp(-pi |alpha|^2) but the beta direction
        # contributes ~ sqrt(k/2pi) lattice points per alpha, so the sum
        # grows like sqrt(k) -- the same scaling the integral majorant has
        s1 = cusp_lattice_sum(2000, GAUSSIAN_SPEC, 1e-6).value.to_float()
        s2 = cusp_lattice_sum(8000, GAUSSIAN_SPEC, 1e-6).value.to_float()
        assert s2 / s1 == pytest.approx(2.0, rel=0.1)

    def test_matches_brute_force(self):
        res = cusp_lattice_sum(6, GAUSSIAN_SPEC, 1e-6)
        brute = brute_lattice_sum(6, 60, 800)
        assert res.value.to_float() == pytest.approx(brute, rel=2e-6)

    def test_certificate_fields(self):
        res = cusp_lattice_sum(8, GAUSSIAN_SPEC, 1e-8)
        assert res.tail_majorant <= 1e-8 * res.value.to_float()
        assert res.r_alpha > 0 and res.r_beta > 0 and res.n_terms > 0

    def test_termwise_monotonicity_beta_zero(self):
        # for beta = 0 and alpha != 0 the term (1 + pi|alpha|^2/k)^{-k}
        # decreases in k; a beta != 0 term increases, so only the termwise
        # beta = 0 claim survives
        def term(k, s2, l):
            a0 = k / (2 * math.pi)
            return math.exp(
                k * math.log(a0) - (k / 2.0) * math.log((a0 + s2 / 2.0) ** 2 + l * l)
            )

        for s2 in (1, 2, 4, 5):
            vals = [term(k, s2, 0) for k in (6, 8, 12, 24, 48)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        rising = [term(k, 0, 1) for k in (6, 12, 24, 48)]
        assert all(b > a for a, b in zip(rising, rising[1:]))

    def test_dominated_by_integral_majorant(self):
        for k in (6, 8, 12):
            res = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-8)
            majorant = math.exp(cusp_term_log(k, ConstantModel(1.0, 0), 1.0))
            assert res.value.to_float() <= majorant

    def test_eisenstein_spec(self):
        spec = LatticeSpec(a1=1.0, a2=complex(0.5, math.sqrt(3) / 2))
        res = cusp_lattice_sum(8, spec, 1e-6)
        assert res.value.to_float() > 1.0

    def test_enumeration_budget(self):
        t0 = time.perf_counter()
        with pytest.raises(NumericalError):
            cusp_lattice_sum(6, LatticeSpec(a2=1e-6j))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "spec", [GAUSSIAN_SPEC, EISENSTEIN_OFFSET, SKEW_SPEC], ids=["gaussian", "eisenstein", "skew"]
    )
    @pytest.mark.parametrize("k", [6, 60, 1000])
    def test_grouped_box_equals_direct_sum(self, spec, k):
        res = cusp_lattice_sum(k, spec, 1e-8)
        got, count = _box_sum(spec, spec.disc(res.r_alpha), k, res.r_beta)
        want, want_count = direct_box_sum(spec, k, res.r_alpha, res.r_beta)
        assert got == pytest.approx(want, rel=1e-13)
        assert count == want_count == res.n_terms
        assert res.value.to_float() == pytest.approx(got, rel=1e-15)

    @pytest.mark.parametrize(
        "k, tol, lattice",
        [
            *((k, 1e-8, "gaussian") for k in (8, 20, 200, 5000, 20000)),
            *((k, 1e-6, "gaussian") for k in (50, 225, 400)),
            *((k, 1e-8, "eisenstein") for k in (60, 1000)),
        ],
    )
    def test_certified_against_bincount_oracle(self, k, tol, lattice):
        spec, quad, odd_offset = {
            "gaussian": (GAUSSIAN_SPEC, (1, 0, 1), 0.0),
            "eisenstein": (EISENSTEIN_OFFSET, (1, 1, 1), 0.25),
        }[lattice]
        res = cusp_lattice_sum(k, spec, tol)
        got = res.value.to_float()
        # boxes far past the certified radii: the oracle's own truncation
        # is below 1e-15 relative at these k
        l_box = int(1000 / spec.beta_step)
        brute = bincount_lattice_sum(k, quad, spec.beta_step, odd_offset, 30 if k <= 20 else 10, l_box)
        assert res.tail_majorant <= tol * got
        assert -1e-13 * brute <= brute - got <= res.tail_majorant + 1e-13 * brute

    def test_large_k_sums_o_sqrt_k_terms(self):
        # the beta window is ~sqrt(k) wide, not ~k/pi
        res = cusp_lattice_sum(20000, GAUSSIAN_SPEC, 1e-8)
        assert res.n_terms < 50_000

    def test_work_budget(self):
        t0 = time.perf_counter()
        for spec in (GAUSSIAN_SPEC, EISENSTEIN_OFFSET):
            with pytest.raises(NumericalError, match="terms"):
                cusp_lattice_sum(6, spec, float(np.finfo(float).eps))
        assert time.perf_counter() - t0 < 1.0
        for spec in (GAUSSIAN_SPEC, EISENSTEIN_OFFSET):
            res = cusp_lattice_sum(6, spec, 1e-12)
            assert res.tail_majorant <= 1e-12 * res.value.to_float()

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            cusp_lattice_sum(5, GAUSSIAN_SPEC)
        with pytest.raises(PreconditionError):
            cusp_lattice_sum(6, GAUSSIAN_SPEC, rel_tol=0.5)


class TestGammaChain:
    def test_beta_closed_k6(self):
        gc = gamma_integral_chain(6)
        # sqrt(pi) Gamma(5/2) / Gamma(3) = 3 pi / 8 by half-integer values
        assert gc.beta_closed == pytest.approx(3 * math.pi / 8, rel=1e-14)

    @pytest.mark.parametrize("k", [6, 8, 12, 20])
    def test_beta_quadrature_matches(self, k):
        gc = gamma_integral_chain(k)
        assert gc.beta_ratio == pytest.approx(1.0, abs=1e-8)

    def test_r_ratio_constant_half(self):
        ratios = [gamma_integral_chain(k).r_ratio for k in (6, 8, 12, 20)]
        for r in ratios:
            assert r == pytest.approx(0.5, abs=1e-10)
        assert max(ratios) - min(ratios) < 1e-6

    def test_chained_value_k6(self):
        # chain oracle from exact Gamma values
        want = (
            math.sqrt(math.pi)
            / 2
            * math.gamma(2.5)
            * math.gamma(4.5)
            / (math.gamma(3) * math.gamma(5))
            * 6**1.5
        )
        gc = gamma_integral_chain(6)
        assert gc.chained.to_float() == pytest.approx(want, rel=1e-9)


class TestCuspBound:
    def test_cusp_term_closed_form(self):
        rep = cusp_bound(6, 1.0, ConstantModel(1.0, 0), GAUSSIAN_SPEC)
        want = (
            math.sqrt(math.pi)
            / 2
            * math.gamma(2.5)
            * math.gamma(4.5)
            / (math.gamma(3) * math.gamma(5))
            * 6**1.5
        )
        assert rep.terms["cusp_term"].to_float() == pytest.approx(want, rel=1e-12)

    def test_cusp_term_matches_chain(self):
        for k in (6, 10, 16):
            rep = cusp_bound(k, 1.0, ConstantModel(1.0, 0), GAUSSIAN_SPEC)
            gc = gamma_integral_chain(k)
            assert rep.terms["cusp_term"].log() == pytest.approx(gc.chained.log(), rel=1e-9)

    def test_covolume_normalization(self):
        spec = LatticeSpec(a1=2.0, a2=2j, beta_step=1.0)  # covolume 4
        a = cusp_bound(6, 1.0, ConstantModel(1.0, 0), GAUSSIAN_SPEC)
        b = cusp_bound(6, 1.0, ConstantModel(1.0, 0), spec)
        ratio = (a.terms["cusp_term"] / b.terms["cusp_term"]).to_float()
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_gamma_ratio_halving(self):
        cm = ConstantModel(1.0, 2)
        def iso_ratio(k):
            rep = cusp_bound(k, 6.0, cm, GAUSSIAN_SPEC)
            return rep.terms["cusp_term"].log() - math.log(cm(k)) - 1.5 * math.log(k)
        halving = math.exp(iso_ratio(100) - iso_ratio(50))
        assert abs(halving - 0.5) < 0.05

    def test_sum_domination_flag(self):
        for k in (6, 8, 12):
            rep = cusp_bound(k, 1.0, ConstantModel(1.0, 2), GAUSSIAN_SPEC)
            assert rep.extras["cusp_dominates_sum"] is True
            assert rep.terms["cusp_term"] >= rep.extras["cusp_sum_scaled"]

    def test_bounded_normalized_by_k52(self):
        cm = ConstantModel(1.0, 2)
        vals = [
            cusp_bound(k, 6.0, cm, GAUSSIAN_SPEC).total.log() - 2.5 * math.log(k)
            for k in range(50, 401, 50)
        ]
        assert all(math.log(0.5) < v < math.log(5.0) for v in vals)

    def test_monotone_in_rx(self):
        cm = ConstantModel(1.0, 2)
        for k in (6, 20):
            totals = [
                cusp_bound(k, rx, cm, GAUSSIAN_SPEC).total.log()
                for rx in (0.5, 1.0, 2.0, 4.0, 8.0)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            cusp_bound(5, 1.0, ConstantModel(), GAUSSIAN_SPEC)


class TestUniversalConstantRecorded:
    def test_quadrature_ratio_recorded_and_dominates(self):
        # ratio of the quadrature tail term to the closed-form shape
        # cosh^{2n}(r/4) / ((k-2n-1) sinh^{2n}(r/4)); the max over the grid
        # instantiates the constant, which then dominates everywhere
        z = ModelPoint.m3(complex(-6 / (4 * math.pi), 0.0), 0.0)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        n = 2
        ratios = {}
        for k in (8, 12, 20):
            f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
            for rx in (1.0, 1.5):
                t = tail_bound_terms(f, n, rx, 3 * rx / 4, src, z, z)
                shape = math.cosh(rx / 4) ** (2 * n) / (
                    (k - 2 * n - 1) * math.sinh(rx / 4) ** (2 * n)
                )
                ratios[(k, rx)] = t.integral / shape
        c_emp = max(ratios.values())
        assert math.isfinite(c_emp) and c_emp > 0
        for (k, rx), r in ratios.items():
            shape = math.cosh(rx / 4) ** (2 * n) / (
                (k - 2 * n - 1) * math.sinh(rx / 4) ** (2 * n)
            )
            f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
            t = tail_bound_terms(f, n, rx, 3 * rx / 4, src, z, z)
            assert c_emp * shape >= t.integral * (1 - 1e-12)


class TestMaximaLocate:
    @pytest.mark.parametrize("k", [6, 20])
    def test_ridge_location(self, k):
        p = maxima_locate(k, 1e-6)
        assert p.coords[0].real == pytest.approx(-k / (4 * math.pi), rel=1e-6)
        assert abs(p.coords[1]) <= 1e-6

    def test_objective_value_identity(self):
        # log P* = k log(k/2pi) - k on the ridge
        for k in (6, 20, 50):
            p = maxima_locate(k, 1e-6)
            got = petersson_objective(p, k).log()
            want = k * math.log(k / (2 * math.pi)) - k
            assert got == pytest.approx(want, rel=1e-10)

    def test_hessian_negative_semidefinite(self):
        k = 6
        p = maxima_locate(k, 1e-6)
        x1, x2, y2 = p.coords[0].real, p.coords[1].real, p.coords[1].imag

        def phi(v):
            q = -2 * v[0] - v[1] ** 2 - v[2] ** 2
            return k * math.log(q) + 4 * math.pi * v[0]

        h = 1e-5
        x0 = np.array([x1, x2, y2])
        hess = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                e_i, e_j = np.eye(3)[i] * h, np.eye(3)[j] * h
                hess[i, j] = (
                    phi(x0 + e_i + e_j) - phi(x0 + e_i - e_j)
                    - phi(x0 - e_i + e_j) + phi(x0 - e_i - e_j)
                ) / (4 * h * h)
        eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        assert np.all(eigs <= 1e-6)

    @pytest.mark.parametrize("k", [5000, 10_000])
    def test_ridge_location_large_k(self, k):
        # golden section alone stops at |z2| ~ 1e-6 here; Newton steps finish it
        p = maxima_locate(k, 1e-6)
        assert p.coords[0].real == pytest.approx(-k / (4 * math.pi), rel=1e-6)
        assert abs(p.coords[1]) <= 1e-6

    def test_tolerance_below_resolution(self):
        with pytest.raises(NumericalError, match="resolution"):
            maxima_locate(6, 1e-15)
        assert maxima_locate(6, 1e-14).coords[0].real == pytest.approx(-6 / (4 * math.pi), rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            maxima_locate(0)
        with pytest.raises(PreconditionError):
            maxima_locate(6, tol=0.0)


class TestScalingFit:
    def test_exact_power_law(self):
        fit = scaling_fit(
            list(range(10, 100, 10)), lambda k: LogReal.from_log(3.0 * math.log(k))
        )
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.residual_rms < 1e-12

    def test_cocompact_sweep_slope(self):
        cm = ConstantModel(1.0, 2)
        fit = scaling_fit(
            list(range(50, 401, 25)),
            lambda k: cocompact_bound(2, k, 6.0, cm).total,
        )
        assert abs(fit.slope - 2.0) <= 0.02

    def test_requires_five_points(self):
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40], lambda k: LogReal.one())
        with pytest.raises(PreconditionError):
            scaling_fit([10, 10, 10, 10, 10], lambda k: LogReal.one())

    def test_rejects_nonpositive_k(self):
        with pytest.raises(PreconditionError):
            scaling_fit([0, 10, 20, 30, 40], lambda k: LogReal.one())

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_log(self, bad):
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40, 50], lambda k: bad if k == 30 else float(k))
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40, 50], lambda k: LogReal(1, math.inf))


class TestCoversStability:
    def test_termwise_domination(self):
        k = 8
        z = ModelPoint.m3(complex(-k / (4 * math.pi), 0.0), 0.0)
        box = [
            (m, n, l)
            for m in range(-2, 3)
            for n in range(-2, 3)
            for l in range(-2, 3)
        ]
        full = [
            stabilizer_matrix(GAUSSIAN_SPEC.param(m, n, l), Model.M3)
            for (m, n, l) in box
        ]
        sub = [
            stabilizer_matrix(GAUSSIAN_SPEC.param(m, n, l), Model.M3)
            for (m, n, l) in box
            if m % 2 == 0 and n % 2 == 0 and l % 2 == 0
        ]
        s_full = orbit_cosh_power_sum(full, z, k)
        s_sub = orbit_cosh_power_sum(sub, z, k)
        assert s_sub <= s_full
        assert len(sub) < len(full)
