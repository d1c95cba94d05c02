import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pbl import (
    GAUSSIAN_SPEC,
    LogReal,
    Model,
    ModelPoint,
    NumericalError,
    log_sum,
    orbit_cosh_power_sum,
    stabilizer_matrix,
)
from pbl.geometry import _sinh2
from pbl.transforms import _isometry_stack

positive = st.floats(min_value=1e-8, max_value=1e8)


def lr(x):
    return LogReal.from_log(math.log(x))


def sum_error_bound(x, y):
    """What a log-domain sum of positive x and y can meet: each stored log
    carries up to half an ulp of |log x|, about eps |log x| relative in x."""
    return 2 * sys.float_info.epsilon * max(1.0, abs(math.log(x)), abs(math.log(y))) * (x + y)


class TestRoundTrip:
    @given(positive)
    def test_from_to_float(self, x):
        assert lr(x).to_float() == pytest.approx(x, rel=1e-14)

    def test_zero_is_canonical(self):
        z = LogReal.from_log(-math.inf)
        assert z == LogReal(-math.inf) and z.to_float() == 0.0 and z.log() == -math.inf

    def test_overflow_to_inf(self):
        assert LogReal.from_log(1e4).to_float() == math.inf
        assert LogReal(math.inf).to_float() == math.inf

    def test_nan_rejected(self):
        with pytest.raises(NumericalError):
            LogReal.from_log(math.nan)


class TestArithmetic:
    @given(positive, positive)
    def test_mul_matches_floats(self, x, y):
        assert (lr(x) * lr(y)).to_float() == pytest.approx(x * y, rel=1e-12)

    @given(positive, positive)
    def test_add_matches_floats(self, x, y):
        got = log_sum([lr(x), lr(y)]).to_float()
        assert abs(got - (x + y)) <= sum_error_bound(x, y)

    def test_div(self):
        assert (lr(6.0) / lr(2.0)).to_float() == pytest.approx(3.0)
        zero = LogReal(-math.inf)
        assert zero / lr(2.0) == zero
        with pytest.raises(ZeroDivisionError):
            LogReal(0.0) / zero

    def test_exact_cancellation(self):
        a = lr(3.5)
        assert a / a == LogReal(0.0)

    def test_log_of_nonpositive(self):
        # no value is negative; 0 has log -inf
        assert LogReal.from_log(-math.inf).log() == -math.inf
        assert (LogReal(-math.inf) * lr(2.0)).log() == -math.inf

    def test_infinite_magnitudes(self):
        inf, one, zero = LogReal(math.inf), LogReal(0.0), LogReal(-math.inf)
        assert inf * one == inf and inf * inf == inf and one / inf == zero
        for undefined in (lambda: inf * zero, lambda: inf / inf):
            with pytest.raises(NumericalError):
                undefined()


class TestOrdering:
    @given(positive, positive)
    def test_matches_float_order(self, x, y):
        a, b = lr(x), lr(y)
        assert (a < b) == (x < y) and (a > b) == (x > y)
        assert LogReal(-math.inf) < a < LogReal(math.inf)

    def test_infinities_order_every_way(self):
        zero, one, big, inf = (LogReal(x) for x in (-math.inf, 0.0, 1e300, math.inf))
        assert sorted([inf, one, zero, big]) == [zero, one, big, inf]
        assert zero < one <= one < inf and inf > big >= big > zero
        assert not zero < zero and zero <= zero and inf >= inf and not inf > inf


class TestValueType:
    """What a frozen value gives: validation, immutability, equality and
    hashing by value, and its repr."""

    def test_nan_rejected_by_the_constructor(self):
        with pytest.raises(NumericalError, match="^log_abs must not be NaN$"):
            LogReal(math.nan)
        with pytest.raises(NumericalError):
            LogReal(log_abs=math.nan)

    def test_immutable(self):
        x = LogReal(1.5)
        with pytest.raises(AttributeError):
            x.log_abs = 2.0
        with pytest.raises(AttributeError):
            x.other = 2.0
        with pytest.raises(AttributeError):
            del x.log_abs
        assert x.log_abs == 1.5

    def test_equal_values_hash_alike(self):
        assert LogReal(0.0) == LogReal(-0.0) and hash(LogReal(0.0)) == hash(LogReal(-0.0))
        assert LogReal(log_abs=2.5) == LogReal(2.5) and hash(LogReal(2.5)) == hash(LogReal(2.5))
        assert LogReal(2.5) != LogReal(2.0)
        values = {LogReal(1.0), LogReal(1.0), LogReal(-math.inf), LogReal(-math.inf), LogReal(math.inf)}
        assert len(values) == 3

    def test_other_types_are_not_comparable(self):
        x = LogReal(0.0)
        assert (x == 1.0) is False and (x != 1.0) is True and (x == (0.0,)) is False
        assert x.__eq__(0.0) is NotImplemented and x.__lt__(0.0) is NotImplemented
        for compare in (lambda: x < 1.0, lambda: x <= 1.0, lambda: x > 1.0, lambda: x >= 1.0):
            with pytest.raises(TypeError):
                compare()

    def test_pickle_and_copy(self):
        for x in (LogReal(1.5), LogReal(-math.inf)):
            for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert type(twin) is LogReal and twin == x

    def test_repr(self):
        assert repr(LogReal(1.5)) == "LogReal(log_abs=1.5)"
        assert repr(LogReal(-math.inf)) == "LogReal(log_abs=-inf)"
        assert repr(LogReal(-0.0)) == "LogReal(log_abs=-0.0)"


class TestLogSum:
    def test_order_independence_exact(self):
        rng = random.Random(7)
        vals = [LogReal.from_log(rng.uniform(-600, 600)) for _ in range(200)]
        ref = log_sum(vals)
        for _ in range(5):
            rng.shuffle(vals)
            assert log_sum(vals) == ref

    def test_against_fsum(self):
        rng = random.Random(3)
        xs = [rng.uniform(0.0, 5.0) for _ in range(100)] + [0.0]
        got = log_sum([LogReal.from_log(math.log(x) if x else -math.inf) for x in xs]).to_float()
        assert got == pytest.approx(math.fsum(xs), rel=1e-13)

    def test_empty(self):
        assert log_sum([]) == LogReal(-math.inf)
        assert log_sum([LogReal(-math.inf)] * 3) == LogReal(-math.inf)

    def test_infinite_magnitudes(self):
        inf = LogReal(math.inf)
        assert log_sum([inf, inf, LogReal(0.0)]) == inf
        assert log_sum([LogReal(-math.inf), inf]) == inf

    @pytest.mark.parametrize("k", [6, 50, 400])
    def test_orbit_sum_is_log_sum_of_its_terms(self, k):
        # the orbit series reduces its logs with log_sum's pass, bit for bit
        z = ModelPoint.m3(complex(-k / (4 * math.pi), 0.3), 0.2 - 0.1j)
        box = range(-2, 3)
        gs = [
            stabilizer_matrix(GAUSSIAN_SPEC.param(m, n, l), Model.M3)
            for m in box
            for n in box
            for l in box
        ]
        logs = -(k / 2.0) * np.log1p(_sinh2(z, z, _isometry_stack(gs, z)))
        terms = [LogReal.from_log(v) for v in logs]
        assert orbit_cosh_power_sum(gs, z, k) == log_sum(terms)
