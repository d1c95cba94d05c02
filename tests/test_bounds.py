import cmath
import copy
import dataclasses
import math
import pickle
import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import pbl.bounds
from pbl import (
    ConstantModel,
    DomainError,
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
    lattice_covolume,
    log_sum,
    maxima_locate,
    orbit_cosh_power_sum,
    petersson_objective,
    scaling_fit,
    stabilizer_matrix,
)
from pbl.bounds import _MAX_TERMS, CuspSumResult, _beta_lines, _beta_row, _box_sum
from pbl.closed_forms import _log_gamma_ratio
from pbl.logreal import log_cosh, log_sinh
from pbl.counting import tail_bound_terms, OrbitSource, min_displacement

EISENSTEIN_OFFSET = LatticeSpec(
    a2=complex(0.5, math.sqrt(3) / 2),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
)
# offsets 0, 0.1, 0.2 by m mod 3: the columns (m, n) and (-m, -n) carry
# different offsets, and 2 * 0.1 is not a multiple of the step
SKEW_SPEC = LatticeSpec(beta_offset_rule=lambda m, n: 0.1 * (m % 3))
OBLIQUE_SPEC = LatticeSpec(a1=1.0, a2=complex(0.5, math.sqrt(3) / 2), beta_step=0.5)
# a rule on scalars only: the spec calls it once per column
PER_COLUMN_SPEC = LatticeSpec(
    a2=cmath.exp(1j * math.pi / 3),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.5 if m * n % 2 else 0.0,
)


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
    h = (disc.alpha.real**2 + disc.alpha.imag**2)[:, None] / 2.0
    l_max = int((r_beta + np.abs(disc.offset).max()) / spec.beta_step) + 1
    beta = disc.offset[:, None] + np.arange(-l_max, l_max + 1) * spec.beta_step
    mask = np.abs(beta) <= r_beta
    # (a0^2 / (a^2 + beta^2))^{k/2} with a = a0 + h, as (1 + x)^{-k/2}
    terms = np.exp(-(k / 2.0) * np.log1p((h * (2 * a0 + h) + beta**2) / a0**2))
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

    def test_vanishing_ring_term_row(self):
        # k log cosh(3 r_x / 8) overflows, so the ring term is exactly 0
        row = cocompact_bound(2, 6, 1e308, ConstantModel(1.0, 0)).row()
        assert row["log_ring_term"] == -math.inf

    def test_precondition_k(self):
        with pytest.raises(PreconditionError):
            cocompact_bound(2, 5, 1.0, ConstantModel())
        with pytest.raises(PreconditionError):
            cocompact_bound(3, 7, 1.0, ConstantModel())
        with pytest.raises(PreconditionError, match="^n: need n >= 2, got 1$"):
            cocompact_bound(1, 6, 1.0, ConstantModel())
        # n is an integer, as k is: a float one is rejected
        with pytest.raises(PreconditionError, match="^n: must be an integer, not float$"):
            cocompact_bound(2.0, 6, 1.0, ConstantModel())

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

    def test_constant_model_numpy_fields_compute_in_floats(self):
        # numpy fields must not take the power into numpy, whose overflow is
        # a RuntimeWarning (an error under this suite's filter), not an inf
        big = np.float64(1e300)
        for cm in (ConstantModel(1.0, np.int64(3000)), ConstantModel(big, np.int64(100))):
            with pytest.raises(NumericalError, match="overflows"):
                cm(6)
        value = ConstantModel(np.float64(1.5), np.int64(2))(np.int64(6))
        assert type(value) is float and value == 1.5 * 6.0**2


class TestConstantModelValue:
    """What a frozen value gives: validation, immutability, equality and
    hashing by field, and its repr."""

    def test_fields_and_defaults(self):
        cm = ConstantModel(c_gamma=2.5, exponent=3)
        assert (cm.c_gamma, cm.exponent) == (2.5, 3)
        assert (ConstantModel().c_gamma, ConstantModel().exponent) == (1.0, 0)
        assert ConstantModel(2.5) == ConstantModel(2.5, 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 0), "^c_gamma: need 0 < c_gamma < inf, got 0.0$"),
            ((math.nan, 1.5), "^c_gamma: need 0 < c_gamma < inf, got nan$"),
            ((1.0, 1.5), "^exponent: must be an integer, not float$"),
            ((1.0, True), "^exponent: must be an integer, not bool$"),
            ((1.0, "2"), "^exponent: must be an integer, not str$"),
            ((1.0, 2**60), "^exponent: must be at most 2\\^53 in magnitude$"),
        ],
    )
    def test_rejections(self, args, message):
        with pytest.raises(PreconditionError, match=message):
            ConstantModel(*args)

    def test_immutable(self):
        cm = ConstantModel(1.5, 2)
        for name in ("c_gamma", "exponent", "other"):
            with pytest.raises(AttributeError):
                setattr(cm, name, 3)
        with pytest.raises(AttributeError):
            del cm.c_gamma
        assert (cm.c_gamma, cm.exponent) == (1.5, 2)

    def test_equality_and_hash_by_field(self):
        assert ConstantModel(1.5, 2) == ConstantModel(1.5, 2)
        assert hash(ConstantModel(1.5, 2)) == hash(ConstantModel(1.5, 2))
        assert ConstantModel(0.5, 2) != ConstantModel(1.5, 2) != ConstantModel(1.5, 3)
        assert len({ConstantModel(), ConstantModel(1.0, 0), ConstantModel(1.0, 2)}) == 2
        cm = ConstantModel()
        assert (cm == (1.0, 0)) is False and cm.__eq__((1.0, 0)) is NotImplemented
        with pytest.raises(TypeError):
            cm < ConstantModel(2.0)

    def test_pickle_and_copy(self):
        cm = ConstantModel(2.5, 3)
        for twin in (pickle.loads(pickle.dumps(cm)), copy.copy(cm), copy.deepcopy(cm)):
            assert type(twin) is ConstantModel and twin == cm

    def test_repr(self):
        assert repr(ConstantModel()) == "ConstantModel(c_gamma=1.0, exponent=0)"
        assert repr(ConstantModel(2.5, 3)) == "ConstantModel(c_gamma=2.5, exponent=3)"


class TestResultRecords:
    def test_bound_report_fields_and_row(self):
        rep = cocompact_bound(2, 6, 1.0, ConstantModel(1.0, 2))
        assert (rep.n, rep.k, rep.r_x) == (2, 6, 1.0)
        assert list(rep.terms) == ["identity_term", "middle_term", "ring_term"]
        assert rep.total == log_sum(rep.terms.values())
        assert rep.normalized_total == rep.total / LogReal.from_log(2 * math.log(6))
        assert dict(rep.extras) == {}
        assert rep.row() == {
            "n": 2,
            "k": 6,
            "r_x": 1.0,
            "log_identity_term": 3.58351893845611,
            "log_middle_term": 9.21083539344529,
            "log_ring_term": 7.051866243045492,
            "log_total": 9.323308608971745,
            "normalized_total": 310.99899184425476,
        }

    def test_bound_report_extras(self):
        rep = cusp_bound(6, 1.0, ConstantModel(1.0, 0), GAUSSIAN_SPEC)
        assert set(rep.extras) >= {"cusp_sum_scaled", "cusp_dominates_sum"}
        assert list(rep.row()) == [
            "n", "k", "r_x", *(f"log_{name}" for name in rep.terms), "log_total", "normalized_total",
        ]

    def test_gamma_chain_fields(self):
        gc = gamma_integral_chain(6)
        assert gc.k == 6
        assert (gc.beta_closed, gc.beta_quad, gc.beta_ratio) == (
            1.1780972450961724, 1.1780972450961729, 1.0000000000000004,
        )
        assert (gc.r_closed, gc.r_quad, gc.chained) == (
            LogReal(0.4021504610149762), LogReal(-0.29099671954496853), LogReal(1.4340753966143083),
        )
        assert gc.r_ratio == 0.5000000000000001

    def test_scaling_fit_fields(self):
        fit = scaling_fit(range(6, 11), lambda k: LogReal.from_log(2 * math.log(k) + 1))
        assert (fit.slope, fit.intercept, fit.residual_rms) == (2.0, 1.0, 1.9860273225978183e-16)

    def test_cusp_sum_result_fields(self):
        res = cusp_lattice_sum(8, GAUSSIAN_SPEC, 1e-8)
        fields = ("value", "k", "r_alpha", "r_beta", "tail_majorant", "n_terms")
        assert CuspSumResult._fields == fields
        assert res._asdict() == {name: getattr(res, name) for name in fields}
        assert isinstance(res.value, LogReal) and res.k == 8 and isinstance(res.n_terms, int)
        # a named tuple: iterable, and equal to the plain tuple of its fields
        assert tuple(res) == res == tuple(getattr(res, name) for name in fields)
        with pytest.raises(AttributeError):
            res.k = 9
        assert not hasattr(res, "__dict__")


@pytest.mark.parametrize(
    "call",
    [
        lambda k: cocompact_bound(2, k, 1.0, ConstantModel()),
        lambda k: cusp_bound(k, 1.0, ConstantModel(), GAUSSIAN_SPEC),
        lambda k: cusp_lattice_sum(k, GAUSSIAN_SPEC),
        gamma_integral_chain,
        maxima_locate,
        lambda k: ConstantModel(1.0, k),
        lambda k: cusp_term_log(k, ConstantModel()),
        lambda k: scaling_fit(range(k, k + 5), lambda _: LogReal(0.0)),
        lambda k: orbit_cosh_power_sum([], ModelPoint.m3(-1.0, 0.0), k),
    ],
    ids=[
        "cocompact", "cusp", "lattice_sum", "gamma_chain", "maxima", "exponent",
        "cusp_term", "scaling_fit", "orbit_sum",
    ],
)
@pytest.mark.parametrize("k", [2**53 + 1, int("9" * 400)], ids=["2^53+1", "400_digits"])
def test_ints_beyond_2_53_rejected(call, k):
    with pytest.raises(PreconditionError, match=r"2\^53"):
        call(k)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: cusp_lattice_sum(k, GAUSSIAN_SPEC),
        lambda k: cusp_bound(k, 1.0, ConstantModel(), GAUSSIAN_SPEC),
        gamma_integral_chain,
        lambda k: cusp_term_log(k, ConstantModel()),
    ],
    ids=["lattice_sum", "cusp", "gamma_chain", "cusp_term"],
)
@pytest.mark.parametrize("k", [6.0, 100.0, 100.5, "6", None, True], ids=repr)
def test_weights_that_are_not_integers_rejected(call, k):
    # checked before k is compared with anything, so a str or None cannot
    # raise TypeError, and 100.0 does not pass where 6.0 fails
    with pytest.raises(PreconditionError, match="must be an integer"):
        call(k)


@pytest.mark.parametrize("k", [-1, 0, 1, 2, np.int64(2)], ids=repr)
def test_cusp_term_below_3_rejected(k):
    with pytest.raises(PreconditionError, match=">= 3"):
        cusp_term_log(k, ConstantModel())


def test_cusp_term_takes_numpy_integers():
    assert cusp_term_log(np.int64(3), ConstantModel()) == cusp_term_log(3, ConstantModel())


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
        got, count = _box_sum(spec, _beta_lines(spec, res.r_alpha), k, res.r_beta)
        want, want_count = direct_box_sum(spec, k, res.r_alpha, res.r_beta)
        assert got == pytest.approx(want, rel=1e-13)
        assert count == want_count == res.n_terms
        assert res.value.to_float() == pytest.approx(got, rel=1e-15)

    @pytest.mark.parametrize(
        "spec", [GAUSSIAN_SPEC, EISENSTEIN_OFFSET, SKEW_SPEC], ids=["gaussian", "eisenstein", "skew"]
    )
    @pytest.mark.parametrize("r_beta", [2.0, 2.1, 2.25])
    def test_box_includes_the_betas_on_its_radius(self, spec, r_beta):
        # each radius is some line's |beta| at the top of its window
        got, count = _box_sum(spec, _beta_lines(spec, 3.0), 6, r_beta)
        want, want_count = direct_box_sum(spec, 6, 3.0, r_beta)
        assert count == want_count
        assert got == pytest.approx(want, rel=1e-15)

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

    def test_overflowing_beta_squares_are_zero_terms(self):
        # with step 1e300 every beta but 0 squares to inf, a term of exactly
        # 0, so the box sums the beta = 0 terms alone, without a warning
        # (RuntimeWarnings are errors in this suite)
        spec = LatticeSpec(beta_step=1e300)
        res = cusp_lattice_sum(6, spec, 1e-8)
        got, _ = _box_sum(spec, _beta_lines(spec, res.r_alpha), 6, res.r_beta)
        a0 = 6 / (2 * math.pi)
        disc = spec.disc(res.r_alpha)
        h = (disc.m**2 + disc.n**2) / 2.0
        want = math.fsum(np.exp(-3.0 * np.log1p(h * (2 * a0 + h) / a0**2)).tolist())
        assert got == pytest.approx(want, rel=1e-15)
        assert res.value.to_float() == pytest.approx(want, rel=1e-15)


def _result_fields(res):
    """Every field of a CuspSumResult, the value as its log's exact float."""
    return (res.value.log_abs, res.k, res.r_alpha, res.r_beta, res.tail_majorant, res.n_terms)


_TABLE_RUNS = [(k, tol) for k in (6, 8, 20, 60, 1000, 5000) for tol in (1e-4, 1e-8, 1e-12)]
_SHUFFLED_RUNS = random.Random(0).sample(_TABLE_RUNS, len(_TABLE_RUNS))
_TABLE_SPECS = [GAUSSIAN_SPEC, EISENSTEIN_OFFSET, SKEW_SPEC, OBLIQUE_SPEC, PER_COLUMN_SPEC]
_TABLE_IDS = ["gaussian", "eisenstein", "skew", "oblique", "per_column"]


@dataclasses.dataclass(frozen=True)
class _ShiftRule:
    """A beta offset rule with a parameter; frozen, so hashable by value."""

    shift: float

    def __call__(self, m, n):
        return self.shift * ((m + n) % 2)


# the same rule as a mutable dataclass, which is unhashable
_MutableShiftRule = dataclasses.make_dataclass(
    "_MutableShiftRule", ["shift"], namespace={"__call__": _ShiftRule.__call__}
)


class TestLineTable:
    """`bounds._beta_lines` groups the beta lines of a disc from
    `LatticeSpec.disc` and caches them by (spec, radius) value."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        # a table built from a patched disc must not outlive its test
        _beta_lines.cache_clear()
        yield
        _beta_lines.cache_clear()

    @pytest.mark.parametrize("spec", _TABLE_SPECS, ids=_TABLE_IDS)
    def test_reused_spec_equals_fresh_specs(self, spec):
        # a fresh run starts from an empty cache
        fresh = {}
        for k, tol in _TABLE_RUNS:
            _beta_lines.cache_clear()
            _beta_row.cache_clear()
            fresh[k, tol] = _result_fields(cusp_lattice_sum(k, spec, tol))
        for runs in (_TABLE_RUNS, _TABLE_RUNS[::-1], _SHUFFLED_RUNS):
            _beta_lines.cache_clear()
            _beta_row.cache_clear()
            # an equal spec, which shares the cached lines
            reused = dataclasses.replace(spec)
            for k, tol in runs:
                assert _result_fields(cusp_lattice_sum(k, reused, tol)) == fresh[k, tol], (k, tol)

    @staticmethod
    def assert_lines_group_the_disc(spec, radii):
        """The cached lines at each radius against the disc's columns
        grouped by (offset, h)."""
        for r in radii:
            got = _beta_lines(spec, r)
            disc = spec.disc(r)
            h = (disc.alpha.real**2 + disc.alpha.imag**2) / 2.0
            key, weight = np.unique(disc.offset + 1j * h, return_counts=True)
            assert got.offset.tolist() == key.real.tolist()
            assert got.h.tolist() == key.imag.tolist()
            assert got.weight.tolist() == weight.tolist()
            # the runs of equal offsets and their column counts
            offsets, edges = key.real, [0]
            for lo, hi, columns in got.classes:
                assert (lo, columns) == (edges[-1], weight[lo:hi].sum())
                assert (offsets[lo:hi] == offsets[lo]).all()
                assert (offsets[hi : hi + 1] != offsets[lo]).all()
                edges.append(hi)
            assert (edges[-1], got.columns) == (key.size, disc.m.size)

    @pytest.mark.parametrize("spec", _TABLE_SPECS, ids=_TABLE_IDS)
    def test_lines_group_the_disc_at_every_radius(self, spec):
        # more distinct discs than the cache holds, each asked for twice in
        # a row: the second request is a hit
        self.assert_lines_group_the_disc(spec, np.repeat(np.linspace(0.0, 16.0, 401), 2).tolist())
        assert _beta_lines.cache_info() == (401, 401, 64, 64)

    @pytest.mark.parametrize("spec", [GAUSSIAN_SPEC, OBLIQUE_SPEC], ids=["gaussian", "oblique"])
    def test_lines_keep_to_the_index_box(self, spec, monkeypatch):
        # a box too small for its disc, so that it cuts columns that pass
        # hypot(alpha) <= r_alpha, as disc does
        monkeypatch.setattr(LatticeSpec, "_dual_norms", property(lambda self: (0.5, 0.7)))
        self.assert_lines_group_the_disc(spec, np.linspace(0.0, 12.0, 97).tolist())

    def test_budget_message_and_radius_unchanged(self, monkeypatch):
        built = []
        disc = LatticeSpec.disc
        monkeypatch.setattr(LatticeSpec, "disc", lambda self, r: built.append(r) or disc(self, r))
        thin = LatticeSpec(a2=1e-3j)
        for r in (0.5, 1.0, 0.75, 1.0, 0.5):
            _beta_lines(thin, r)
        # the index box of radius 40 has 81 x 80001 cells, over the 5e6 budget
        with pytest.raises(NumericalError) as want:
            disc(LatticeSpec(a2=1e-3j), 40.0)
        with pytest.raises(NumericalError) as got:
            _beta_lines(thin, 40.0)
        assert str(got.value) == str(want.value)
        _beta_lines(LatticeSpec(a2=1e-3j), 0.75)
        # one disc per new radius, none for a cached one, and none cached
        # for a radius that failed
        assert built == [0.5, 1.0, 0.75, 40.0]
        assert _beta_lines.cache_info().currsize == 3
        with pytest.raises(PreconditionError):
            _beta_lines(thin, -1.0)

    @pytest.mark.parametrize("spec", _TABLE_SPECS, ids=_TABLE_IDS)
    def test_identity_ignores_the_memo(self, spec):
        # a spec is a plain frozen value, whatever the cache holds for it
        before = (dataclasses.replace(spec), hash(spec), repr(spec))
        for r in (0.0, 2.5, 7.0):
            _beta_lines(spec, r)
        assert _beta_lines.cache_info().currsize == 3
        assert (spec, hash(spec), repr(spec)) == before
        assert [f.name for f in dataclasses.fields(spec)] == [
            "a1", "a2", "beta_step", "beta_offset_rule"
        ]

    def test_equal_specs_share_lines(self):
        lines = _beta_lines(LatticeSpec(), 5.0)
        assert _beta_lines(LatticeSpec(), 5.0) is lines
        assert _beta_lines(GAUSSIAN_SPEC, 5.0) is lines
        # the same offsets from another rule object: another table
        zero = _beta_lines(LatticeSpec(beta_offset_rule=lambda m, n: 0.0 * m), 5.0)
        assert zero is not lines and zero.h.tolist() == lines.h.tolist()
        # rules that compare equal share theirs
        shifted = _beta_lines(LatticeSpec(beta_offset_rule=_ShiftRule(0.25)), 5.0)
        assert _beta_lines(LatticeSpec(beta_offset_rule=_ShiftRule(0.25)), 5.0) is shifted
        assert _beta_lines.cache_info()[:2] == (3, 3)
        # shared tables are read-only
        for a in (lines.offset, lines.h, lines.weight):
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"beta_offset_rule": _MutableShiftRule(0.25)}, "^beta_offset_rule must be hashable$"),
            ({"a1": np.array(1.0 + 0.0j)}, "^a1 must be hashable$"),
        ],
    )
    def test_unhashable_fields_are_rejected(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            LatticeSpec(**kwargs)

    def test_lattice_sum_budget_message_unchanged(self):
        with pytest.raises(NumericalError) as want:
            cusp_lattice_sum(6, LatticeSpec(a2=1e-6j))
        thin = LatticeSpec(a2=1e-6j)
        _beta_lines(thin, 0.01)
        with pytest.raises(NumericalError) as got:
            cusp_lattice_sum(6, thin)
        assert str(got.value) == str(want.value)


# (spec, k, rel_tol, value log, tail_majorant, r_alpha, r_beta as float.hex,
# n_terms) of cusp_lattice_sum, recorded while each call still built and
# folded its own beta rows: every sum on these symmetric classes must keep
# these bits
_PINNED_SUMS = [
    ("gaussian", 6, 1e-06, "0x1.5436abd485e8fp-1", "0x1.0b9593aa6d322p-20", "0x1.4f724cad654b3p+3", "0x1.7a40000000000p+5", 33155),
    ("gaussian", 6, 1e-08, "0x1.5436b23c14b76p-1", "0x1.55c6e1dd15b02p-27", "0x1.19084ee54c8eap+4", "0x1.1f80000000000p+7", 279251),
    ("gaussian", 6, 1e-12, "0x1.5436b253351a1p-1", "0x1.18a78013781e1p-40", "0x1.a3183f3a581edp+5", "0x1.5c80000000000p+10", 24043969),
    ("gaussian", 8, 1e-06, "0x1.48d3115d74423p-1", "0x1.0aecffc2d528ep-20", "0x1.b801bbdd94d3ap+2", "0x1.2d40000000000p+4", 5365),
    ("gaussian", 8, 1e-08, "0x1.48d3148f36c29p-1", "0x1.5694e769a3ae7p-27", "0x1.315bd56ef1374p+3", "0x1.3880000000000p+5", 23147),
    ("gaussian", 8, 1e-12, "0x1.48d31499762efp-1", "0x1.191c84f637cb7p-40", "0x1.30ee94322438cp+4", "0x1.5a80000000000p+7", 394539),
    ("gaussian", 60, 1e-06, "0x1.547d95fa683bcp+0", "0x1.19e88fef02603p-19", "0x1.eba5919a791a3p+1", "0x1.2c80000000000p+3", 855),
    ("gaussian", 60, 1e-08, "0x1.547d95fb7d5b0p+0", "0x1.67c431734ca81p-26", "0x1.0eca313214b36p+2", "0x1.5dc0000000000p+3", 1197),
    ("gaussian", 60, 1e-12, "0x1.547d95fb8b79bp+0", "0x1.257b8b25fb79bp-39", "0x1.3d185776f68d0p+2", "0x1.c000000000000p+3", 2001),
    ("gaussian", 1000, 1e-06, "0x1.59f6ced0a896bp+1", "0x1.7d4dce94a59ecp-17", "0x1.cea03d7405826p+1", "0x1.e1c0000000000p+4", 2745),
    ("gaussian", 1000, 1e-08, "0x1.59f6ced49d83ap+1", "0x1.e7041214c8db3p-24", "0x1.f6be31c74af25p+1", "0x1.0f80000000000p+5", 3015),
    ("gaussian", 1000, 1e-12, "0x1.59f6ced4b6623p+1", "0x1.8afea309a2551p-37", "0x1.1df0bd2081fd0p+2", "0x1.4640000000000p+5", 4941),
    ("gaussian", 20000, 1e-06, "0x1.0cb7b7a368227p+2", "0x1.c57532db5f73ep-15", "0x1.cba374ca6a8d2p+1", "0x1.0240000000000p+7", 9583),
    ("gaussian", 20000, 1e-08, "0x1.0cb7b7acd5a4bp+2", "0x1.1e7398f5d4bdcp-21", "0x1.f3c1691daffd0p+1", "0x1.2500000000000p+7", 13185),
    ("gaussian", 20000, 1e-12, "0x1.0cb7b7aceaed2p+2", "0x1.dc2146de1d204p-35", "0x1.1bce76f08104cp+2", "0x1.6000000000000p+7", 21533),
    ("eisenstein", 6, 1e-06, "0x1.67fc8bd52987dp+0", "0x1.4e6a5ef7f5945p-20", "0x1.7101ab87d1a9cp+3", "0x1.b480000000000p+5", 103907),
    ("eisenstein", 6, 1e-08, "0x1.67fc8dccd2b9fp+0", "0x1.ac6d37cae2ba8p-27", "0x1.32ba59577d91cp+4", "0x1.4f80000000000p+7", 902831),
    ("eisenstein", 6, 1e-12, "0x1.67fc8dd3661b3p+0", "0x1.5f43b4187c7fcp-40", "0x1.c624d8c5178f1p+5", "0x1.96c0000000000p+10", 76158881),
    ("eisenstein", 8, 1e-06, "0x1.66fb154c91202p+0", "0x1.90f51bd85d5a3p-20", "0x1.d90995a89b7f5p+2", "0x1.3f00000000000p+4", 15769),
    ("eisenstein", 8, 1e-08, "0x1.66fb16600136ep+0", "0x1.00973dfe5fa1fp-26", "0x1.4527a94530d18p+3", "0x1.4d40000000000p+5", 63197),
    ("eisenstein", 8, 1e-12, "0x1.66fb1663c35afp+0", "0x1.a550aa61142d1p-40", "0x1.407d67ab09eb8p+4", "0x1.7500000000000p+7", 1089509),
    ("eisenstein", 60, 1e-06, "0x1.0c00c9c41b4e5p+1", "0x1.571e8d5d90114p-18", "0x1.093577e1f02c8p+2", "0x1.1d80000000000p+3", 2149),
    ("eisenstein", 60, 1e-08, "0x1.0c00c9cb0d641p+1", "0x1.b81fb8fd1a3cbp-25", "0x1.222abd410d149p+2", "0x1.4e40000000000p+3", 3011),
    ("eisenstein", 60, 1e-12, "0x1.0c00c9cb201bdp+1", "0x1.6c191ddf0bdf7p-38", "0x1.509596cba9b82p+2", "0x1.b140000000000p+3", 5309),
    ("eisenstein", 1000, 1e-06, "0x1.bb1160c9b9796p+1", "0x1.9301aa1c56b0ap-16", "0x1.f7d3ad086906ep+1", "0x1.dc00000000000p+4", 6559),
    ("eisenstein", 1000, 1e-08, "0x1.bb1160d3bc41ep+1", "0x1.030e4329d6c7cp-22", "0x1.0ff923ce422d2p+2", "0x1.0d00000000000p+5", 8221),
    ("eisenstein", 1000, 1e-12, "0x1.bb1160d3cfdc0p+1", "0x1.a0137fd25298cp-36", "0x1.327ea2dc95398p+2", "0x1.43c0000000000p+5", 13707),
    ("eisenstein", 20000, 1e-06, "0x1.3d3fc8dbbe975p+2", "0x1.c7077b60be8e0p-14", "0x1.f5f5f93126448p+1", "0x1.0440000000000p+7", 28641),
    ("eisenstein", 20000, 1e-08, "0x1.3d3fc8e38a26fp+2", "0x1.243d868b5985ep-20", "0x1.0ece9367b873bp+2", "0x1.2600000000000p+7", 35915),
    ("eisenstein", 20000, 1e-12, "0x1.3d3fc8e39b57ap+2", "0x1.dd7476dda33cap-34", "0x1.30a0ef0552772p+2", "0x1.6100000000000p+7", 60073),
]
_PINNED_SPECS = {"gaussian": GAUSSIAN_SPEC, "eisenstein": EISENSTEIN_OFFSET}


def _hex_fields(res):
    return (
        res.value.log_abs.hex(), res.tail_majorant.hex(), res.r_alpha.hex(), res.r_beta.hex(),
        res.n_terms,
    )


class TestBetaRows:
    """`bounds._beta_row` keeps the folded beta row of each (beta_step,
    class offset, r_beta) in an lru_cache, from which every lattice sum
    reads, but for rows too long to keep."""

    @pytest.fixture(autouse=True)
    def empty_tables(self):
        _beta_lines.cache_clear()
        _beta_row.cache_clear()
        yield
        _beta_row.cache_clear()

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_sweeps_keep_the_pinned_bits(self, order):
        runs = sorted(_PINNED_SUMS, key=lambda run: (run[1], run[0], run[2]))
        if order == "descending":
            runs = runs[::-1]
        elif order == "shuffled":
            runs = random.Random(1).sample(runs, len(runs))
        for name, k, tol, *want in runs:
            got = _hex_fields(cusp_lattice_sum(k, _PINNED_SPECS[name], tol))
            assert got == tuple(want), (name, k, tol)

    @pytest.mark.parametrize(
        "spec", [GAUSSIAN_SPEC, EISENSTEIN_OFFSET, SKEW_SPEC], ids=["gaussian", "eisenstein", "skew"]
    )
    @pytest.mark.parametrize("r_beta", [4.0, 9.75, 37.5, 300.0])
    def test_rows_count_the_window(self, spec, r_beta):
        # each class's row against a count of the |offset + l step| <= r_beta
        # in Python floats; the skew classes 0.1 and 0.2 are asymmetric, so
        # none of their betas pair up
        step = spec.beta_step
        for offset in sorted(set(_beta_lines(spec, 3.0).offset.tolist())):
            beta_sq, mult, points = _beta_row(step, offset, r_beta)
            betas = (abs(offset + l * step) for l in range(-1000, 1001))
            want = Counter(b for b in betas if b <= r_beta)
            assert beta_sq.tolist() == [b * b for b in sorted(want)]
            assert mult.tolist() == [want[b] for b in sorted(want)]
            assert points == sum(want.values())
            with pytest.raises(ValueError):
                beta_sq[0] = 1.0

    def test_budgets_raise_before_the_table_grows(self):
        lines = _beta_lines(GAUSSIAN_SPEC, 5.0)
        _box_sum(GAUSSIAN_SPEC, lines, 6, 50.0)
        before = _beta_row.cache_info()
        # one beta line past _MAX_ENUM, and a box past _MAX_TERMS
        long_line = (pbl.bounds._MAX_ENUM - 1) / 2.0
        with pytest.raises(NumericalError, match=r"^the beta line of radius 2\.5e\+06 needs"):
            _box_sum(GAUSSIAN_SPEC, lines, 6, long_line)
        wide = _MAX_TERMS / (2.0 * lines.h.size)
        with pytest.raises(NumericalError, match=rf"^the lattice sum box \({lines.h.size} beta lines\) needs"):
            _box_sum(GAUSSIAN_SPEC, lines, 6, wide)
        for spec in (GAUSSIAN_SPEC, EISENSTEIN_OFFSET):
            with pytest.raises(NumericalError, match="terms"):
                cusp_lattice_sum(6, spec, float(np.finfo(float).eps))
        assert _beta_row.cache_info() == before

    def test_table_keeps_to_its_budget(self, monkeypatch):
        lines = _beta_lines(GAUSSIAN_SPEC, 5.0)
        want = [_box_sum(GAUSSIAN_SPEC, lines, 6, r_beta) for r_beta in (50.0, 600.0)]
        # rows of up to 1000 betas are kept, and the 1203 of the line of
        # radius 600 is built for its call only
        monkeypatch.setattr(pbl.bounds, "_MAX_ENUM", 64_000)
        _beta_row.cache_clear()
        assert _box_sum(GAUSSIAN_SPEC, lines, 6, 50.0) == want[0]
        kept = _beta_row.cache_info()
        assert kept.currsize == 1
        assert _box_sum(GAUSSIAN_SPEC, lines, 6, 600.0) == want[1]
        assert _beta_row.cache_info() == kept
        # the pinned sums, some of whose rows are kept and some not
        for name, k, tol, *pinned in _PINNED_SUMS:
            got = _hex_fields(cusp_lattice_sum(k, _PINNED_SPECS[name], tol))
            assert got == tuple(pinned), (name, k, tol)

    def test_threads_share_the_table(self, monkeypatch):
        # more threads than cores, switching often, on a budget that keeps
        # only rows of up to 400 betas, so that the threads both fill the
        # cache and build rows of their own: every thread gets the pinned bits
        monkeypatch.setattr(pbl.bounds, "_MAX_ENUM", 64 * 400)
        wrong = []

        def work(seed):
            runs = random.Random(seed).sample(_PINNED_SUMS, len(_PINNED_SUMS))
            for name, k, tol, *pinned in runs:
                got = _hex_fields(cusp_lattice_sum(k, _PINNED_SPECS[name], tol))
                if got != tuple(pinned):
                    wrong.append((name, k, tol))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize(
        "spec", [GAUSSIAN_SPEC, EISENSTEIN_OFFSET, SKEW_SPEC], ids=["gaussian", "eisenstein", "skew"]
    )
    def test_grown_rows_keep_the_direct_sum(self, spec):
        # a cache warmed by a 1e-12 sum first, then read by the 1e-8 boxes
        # of test_grouped_box_equals_direct_sum, to its tolerances
        cusp_lattice_sum(6, spec, 1e-12)
        for k in (6, 60, 1000):
            res = cusp_lattice_sum(k, spec, 1e-8)
            got, count = _box_sum(spec, _beta_lines(spec, res.r_alpha), k, res.r_beta)
            want, want_count = direct_box_sum(spec, k, res.r_alpha, res.r_beta)
            assert got == pytest.approx(want, rel=1e-13)
            assert count == want_count == res.n_terms


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

    @pytest.mark.parametrize("tail_share, dominates", [(0.5, False), (0.01, True)])
    def test_domination_flag_reads_the_certified_upper_end(self, monkeypatch, tail_share, dominates):
        # a lattice sum whose value lies a factor e^-0.1 below the cusp
        # term: the closed form dominates the value, and it dominates
        # value + tail only when the tail is at most (e^0.1 - 1) value
        k, cm = 12, ConstantModel(1.0, 0)
        cusp = cusp_bound(k, 1.0, cm, GAUSSIAN_SPEC).terms["cusp_term"].log()
        real = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-6)
        value = LogReal(cusp - 0.1)
        fake = real._replace(value=value, tail_majorant=tail_share * value.to_float())
        monkeypatch.setattr(pbl.bounds, "cusp_lattice_sum", lambda *args: fake)
        rep = cusp_bound(k, 1.0, cm, GAUSSIAN_SPEC)
        assert rep.extras["cusp_sum_scaled"] == value
        assert rep.extras["cusp_dominates_sum"] is dominates

    @pytest.mark.parametrize("k", [6, 12, 60])
    def test_lattice_sum_and_orbit_sum_agree_on_the_ridge(self, k):
        # on the ridge point z_k the stabilizer lattice sum is the orbit sum
        # of cosh^-k(d(z, gamma z)/2); the exact orbit head within delta
        # bounds it from below, tail_bound from above
        z = ModelPoint.m3(complex(-k / (4 * math.pi), 0.0), 0.0)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
        terms = tail_bound_terms(f, 2, min_displacement(src, z), 6.0, src, z, z)
        res = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-10)
        value = res.value.to_float()
        assert terms.head <= value + res.tail_majorant
        assert value <= terms.total

    @pytest.mark.parametrize("k, delta", [(12, 9.0), (60, 3.0)])
    def test_orbit_head_is_the_whole_lattice_sum_on_the_ridge(self, k, delta):
        # at these delta the exact orbit head misses less of the sum than the
        # lattice sum's certificate allows (4.6e-12 and 3.5e-14 relative),
        # so the head lies between the value, a partial sum of the same
        # terms, and the value plus its certified tail; a head or a sum
        # without the identity term falls outside
        z = ModelPoint.m3(complex(-k / (4 * math.pi), 0.0), 0.0)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
        head = tail_bound_terms(f, 2, min_displacement(src, z), delta, src, z, z).head
        res = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-8)
        value = res.value.to_float()
        assert value <= head <= value + res.tail_majorant

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


def _reference_cocompact_bound(n, k, r_x, cm):
    """`cocompact_bound`'s terms, total and normalized total, assembled one
    LogReal per step as before the reports shared a float kernel: log C(k)
    from `log_value` twice, the sum by `log_sum` and the normalization by
    LogReal division."""
    log_c = cm.log_value(k).log()
    r8 = r_x / 8.0
    if r_x < 1e-8:
        log_sh = math.log(r_x) - math.log(4.0)
        log_ratio = math.log(2.5)
    elif r_x < 4.0:
        log_sh = log_sinh(r_x / 4.0)
        log_ratio = math.log(math.sinh(5 * r8) / math.sinh(2 * r8))
    else:
        log_sh = log_sinh(r_x / 4.0)
        log_ratio = log_sinh(5 * r8) - log_sh
    identity = LogReal.from_log(log_c)
    middle = LogReal.from_log(
        log_c + 2 * n * (log_cosh(r_x / 4.0) - log_sh) - math.log(k - 2 * n - 1)
    )
    log_ring = log_c + 2 * n * log_ratio - k * log_cosh(3 * r8)
    ring = LogReal.from_log(-math.inf if math.isnan(log_ring) else log_ring)
    terms = {"identity_term": identity, "middle_term": middle, "ring_term": ring}
    total = log_sum(terms.values())
    return terms, total, total / cm.log_value(k)


def _reference_cusp_bound(k, r_x, cm, spec, sum_res):
    """`cusp_bound`'s terms, total, normalized total and extras, assembled
    in the same way around the cocompact reference, for the lattice sum
    sum_res that `cusp_bound` computes."""
    base_terms, _, _ = _reference_cocompact_bound(2, k, r_x, cm)
    covol = lattice_covolume(spec)
    cusp = LogReal.from_log(
        cm.log_value(k).log()
        + 1.5 * math.log(k)
        + 0.5 * math.log(math.pi)
        - math.log(2.0)
        + _log_gamma_ratio(k)
        + _log_gamma_ratio(2 * k - 2)
        - math.log(covol)
    )
    scaled = cm.log_value(k) * sum_res.value
    upper = cm.log_value(k) * LogReal.from_log(math.log(sum_res.value.to_float() + sum_res.tail_majorant))
    terms = dict(base_terms)
    terms["cusp_term"] = cusp
    total = log_sum(terms.values())
    extras = {
        "cusp_sum_scaled": scaled,
        "cusp_dominates_sum": bool(cusp >= upper),
        "covolume": covol,
        "sum_r_alpha": sum_res.r_alpha,
        "sum_r_beta": sum_res.r_beta,
    }
    return terms, total, total / cm.log_value(k), extras


def _bits(x):
    """A report value as exact bits: a LogReal or float as the hex of its
    float, anything else as is."""
    if isinstance(x, LogReal):
        x = x.log_abs
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def _report_bits(terms, total, normalized, extras=None):
    return (
        [(name, _bits(t)) for name, t in terms.items()],
        _bits(total),
        _bits(normalized),
        [(name, _bits(v)) for name, v in (extras or {}).items()],
    )


# every branch of the three-term estimate: below 1e-8, below 4 and beyond
# (the sinh quotient gives way to its log form at 4), with 1e308, where both
# k-th power parts of the ring log overflow for n >= 3 (inf - inf, a NaN read
# as a 0 term)
_ASSEMBLY_RX = (1e-300, 1e-9, 0.3, 3.99, 4.0, 6.0, 50.0, 1e300, 1e308)
_ASSEMBLY_CMS = (ConstantModel(), ConstantModel(1.0, 2), ConstantModel(0.37, 5))


class TestReportAssembly:
    """The float assembly of the two bound reports gives, bit for bit, the
    report of the LogReal-by-LogReal assembly it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_cocompact_bound_matches_the_reference(self, n):
        for k in range(2 * n + 2, 401):
            for r_x in _ASSEMBLY_RX:
                for cm in _ASSEMBLY_CMS:
                    rep = cocompact_bound(n, k, r_x, cm)
                    want = _report_bits(*_reference_cocompact_bound(n, k, r_x, cm))
                    got = _report_bits(rep.terms, rep.total, rep.normalized_total, rep.extras)
                    assert got == want, (n, k, r_x, cm)

    @pytest.mark.parametrize("spec", [GAUSSIAN_SPEC, EISENSTEIN_OFFSET], ids=["gaussian", "eisenstein"])
    def test_cusp_bound_matches_the_reference(self, spec):
        for k in (*range(6, 40), *range(40, 401, 20)):
            sum_res = cusp_lattice_sum(k, spec, 1e-6)
            for r_x in _ASSEMBLY_RX:
                for cm in _ASSEMBLY_CMS:
                    rep = cusp_bound(k, r_x, cm, spec)
                    want = _report_bits(*_reference_cusp_bound(k, r_x, cm, spec, sum_res))
                    got = _report_bits(rep.terms, rep.total, rep.normalized_total, rep.extras)
                    assert got == want, (k, r_x, cm)


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
        # a start far from the ridge at large k: damped steps must still reach it
        p = maxima_locate(k, 1e-6)
        assert p.coords[0].real == pytest.approx(-k / (4 * math.pi), rel=1e-6)
        assert abs(p.coords[1]) <= 1e-6

    # the k where weaker stop rules fail (x1 flips between two floats at 7, 13
    # and 14; steps are still damped at 2, 3 and 9), and large k
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 9, 13, 14, 527, 10**5, 10**6, 2 * 10**6])
    def test_newton_reaches_the_resolution(self, k):
        maxima_locate(k, 1e-14)

    def test_tolerance_below_resolution(self):
        with pytest.raises(NumericalError, match="resolution"):
            maxima_locate(6, 1e-15)
        assert maxima_locate(6, 1e-14).coords[0].real == pytest.approx(-6 / (4 * math.pi), rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            maxima_locate(0)
        with pytest.raises(PreconditionError):
            maxima_locate(6, tol=0.0)

    def test_nan_tolerance_rejected(self):
        # every comparison with nan is False, so "tol <= 0" let it through
        with pytest.raises(PreconditionError):
            maxima_locate(6, float("nan"))


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
            scaling_fit([10, 20, 30, 40], lambda k: LogReal(0.0))
        with pytest.raises(PreconditionError):
            scaling_fit([10, 10, 10, 10, 10], lambda k: LogReal(0.0))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(PreconditionError):
            scaling_fit([0, 10, 20, 30, 40], lambda k: LogReal(0.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_log(self, bad):
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40, 50], lambda k: bad if k == 30 else float(k))
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40, 50], lambda k: LogReal(math.inf))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_float(self, bad):
        with pytest.raises(PreconditionError):
            scaling_fit([10, 20, 30, 40, 50], lambda k: bad if k == 30 else float(k))


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


@pytest.mark.parametrize("covolume", [0.0, -1.0, math.inf, math.nan])
def test_cusp_term_log_rejects_bad_covolume(covolume):
    with pytest.raises(PreconditionError, match="covolume"):
        cusp_term_log(6, ConstantModel(), covolume)
