import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from pbl import DomainError, LogReal, NumericalError, log_sum

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-8
)


def sum_error_bound(x, y):
    """What a log-domain sum or difference of x and y can meet: each stored
    log carries up to half an ulp of |log |x||, which cancellation turns into
    about eps |log |x|| (|x| + |y|) absolute, however small |x - y| is."""
    logs = [abs(math.log(abs(t))) for t in (x, y) if t]
    return 2 * sys.float_info.epsilon * max([1.0, *logs]) * (abs(x) + abs(y)) + 1e-290


class TestRoundTrip:
    @given(finite)
    def test_from_to_float(self, x):
        assert LogReal.from_float(x).to_float() == pytest.approx(x, rel=1e-14)

    def test_zero_is_canonical(self):
        z = LogReal.from_float(0.0)
        assert z.sign == 0 and z.log_abs == -math.inf and z.is_zero

    def test_overflow_to_inf(self):
        big = LogReal.from_log(1e4)
        assert big.to_float() == math.inf
        assert (-big).to_float() == -math.inf


class TestArithmetic:
    @given(finite, finite)
    def test_mul_matches_floats(self, x, y):
        got = (LogReal.from_float(x) * LogReal.from_float(y)).to_float()
        assert got == pytest.approx(x * y, rel=1e-12, abs=1e-300)

    @given(finite, finite)
    def test_add_matches_floats(self, x, y):
        got = (LogReal.from_float(x) + LogReal.from_float(y)).to_float()
        assert abs(got - (x + y)) <= sum_error_bound(x, y)

    @given(finite, finite)
    @example(-99998335.0, -99999999.0)  # 1.1e-10 relative under cancellation
    def test_sub_matches_floats(self, x, y):
        got = (LogReal.from_float(x) - LogReal.from_float(y)).to_float()
        assert abs(got - (x - y)) <= sum_error_bound(x, y)

    def test_div(self):
        a = LogReal.from_float(6.0) / LogReal.from_float(-2.0)
        assert a.to_float() == pytest.approx(-3.0)
        with pytest.raises(ZeroDivisionError):
            LogReal.one() / LogReal.zero()

    def test_pow_beyond_double_range(self):
        # (e^500)^2 = e^1000 stays representable in the log domain
        v = LogReal.from_log(500.0) ** 2
        assert v.log_abs == pytest.approx(1000.0)
        assert v.to_float() == math.inf

    def test_pow_sign_rules(self):
        m = LogReal.from_float(-2.0)
        assert (m**3).to_float() == pytest.approx(-8.0)
        assert (m**2).to_float() == pytest.approx(4.0)
        with pytest.raises(DomainError):
            m**0.5

    def test_exact_cancellation(self):
        a = LogReal.from_float(3.5)
        assert (a - a).is_zero

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainError):
            LogReal.from_float(-1.0).log()
        with pytest.raises(DomainError):
            LogReal.zero().log()

    def test_infinite_magnitudes(self):
        inf, one = LogReal(1, math.inf), LogReal.one()
        assert inf + inf == inf and (-inf) + (-inf) == -inf
        assert inf + one == inf and one - inf == -inf
        with pytest.raises(NumericalError):
            inf - inf
        with pytest.raises(NumericalError):
            (-inf) + inf


class TestOrdering:
    @given(finite, finite)
    def test_matches_float_order(self, x, y):
        a, b = LogReal.from_float(x), LogReal.from_float(y)
        if x < y:
            assert a < b
        if x > y:
            assert a > b


class TestLogSum:
    def test_order_independence_exact(self):
        rng = random.Random(7)
        vals = [LogReal.from_log(rng.uniform(-600, 600)) for _ in range(200)]
        vals += [-v for v in vals[:50]]
        ref = log_sum(vals)
        for _ in range(5):
            rng.shuffle(vals)
            got = log_sum(vals)
            assert got.sign == ref.sign
            assert got.log_abs == pytest.approx(ref.log_abs, abs=1e-12)

    def test_against_fsum(self):
        rng = random.Random(3)
        xs = [rng.uniform(-5, 5) for _ in range(100)]
        got = log_sum([LogReal.from_float(x) for x in xs]).to_float()
        assert got == pytest.approx(math.fsum(xs), rel=1e-10, abs=1e-12)

    def test_empty(self):
        assert log_sum([]).is_zero

    def test_infinite_magnitudes(self):
        inf = LogReal(1, math.inf)
        assert log_sum([inf, inf, LogReal.one()]) == inf
        with pytest.raises(NumericalError):
            log_sum([inf, -inf])
