"""Signed log-domain scalars.

Quantities like cosh^k(d/2) or (k/2pi)^k overflow doubles long before the
weights of interest (k of a few hundred), so everything raised to a k-th
power lives here as a sign plus the natural log of the magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import DomainError, NumericalError

__all__ = ["LogReal", "log_sum", "log_sinh", "log_cosh", "exp_or_raise"]


@dataclass(frozen=True)
class LogReal:
    """A real number stored as (sign, log|value|).

    sign is -1, 0 or +1; log_abs is -inf exactly when sign is 0, so zero
    has a single representation.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign == 0 and self.log_abs != -math.inf:
            raise ValueError("zero must carry log_abs = -inf")
        if self.sign != 0 and math.isnan(self.log_abs):
            raise ValueError("log_abs must not be NaN")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogReal":
        return LogReal(0, -math.inf)

    @staticmethod
    def one() -> "LogReal":
        return LogReal(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogReal":
        if x == 0.0:
            return LogReal.zero()
        return LogReal(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "LogReal":
        if sign == 0 or log_abs == -math.inf:
            return LogReal.zero()
        return LogReal(sign, float(log_abs))

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Round-trip to a double; overflows to +-inf, underflows to 0."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_abs)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def log(self) -> float:
        """Natural log of a positive value."""
        if self.sign <= 0:
            raise DomainError("log of a non-positive LogReal")
        return self.log_abs

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LogReal":
        return LogReal(-self.sign, self.log_abs)

    def __abs__(self) -> "LogReal":
        return LogReal(abs(self.sign), self.log_abs)

    def __mul__(self, other) -> "LogReal":
        other = _coerce(other)
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_abs + other.log_abs)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogReal":
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        if self.sign == 0:
            return LogReal.zero()
        return LogReal(self.sign * other.sign, self.log_abs - other.log_abs)

    def __pow__(self, p) -> "LogReal":
        if self.sign == 0:
            if p == 0:
                return LogReal.one()
            if p < 0:
                raise ZeroDivisionError("0 to a negative power")
            return LogReal.zero()
        if self.sign < 0:
            if not float(p).is_integer():
                raise DomainError("fractional power of a negative LogReal")
            s = -1 if int(p) % 2 else 1
            return LogReal(s, self.log_abs * p)
        return LogReal(1, self.log_abs * p)

    def __add__(self, other) -> "LogReal":
        other = _coerce(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self, other
        if a.log_abs == b.log_abs == math.inf:
            if a.sign != b.sign:
                raise NumericalError("inf - inf in the log domain")
            return a
        if a.sign == b.sign:
            hi, lo = (a, b) if a.log_abs >= b.log_abs else (b, a)
            return LogReal(a.sign, hi.log_abs + math.log1p(math.exp(lo.log_abs - hi.log_abs)))
        # opposite signs: subtract magnitudes
        if a.log_abs == b.log_abs:
            return LogReal.zero()
        hi, lo = (a, b) if a.log_abs > b.log_abs else (b, a)
        diff = hi.log_abs + math.log1p(-math.exp(lo.log_abs - hi.log_abs))
        return LogReal(hi.sign, diff)

    __radd__ = __add__

    def __sub__(self, other) -> "LogReal":
        return self + (-_coerce(other))

    # -- comparisons -------------------------------------------------------

    def _key(self):
        # orders by actual value: sign first, then signed magnitude
        return (self.sign, self.sign * self.log_abs if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < _coerce(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce(other)._key()

    def __repr__(self):
        if self.sign == 0:
            return "LogReal(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogReal({s}exp({self.log_abs:.6g}))"


def _coerce(x) -> LogReal:
    if isinstance(x, LogReal):
        return x
    return LogReal.from_float(float(x))


def log_sum(items) -> LogReal:
    """Order-independent sum of LogReal values.

    Positive and negative parts are each reduced with a log-sum-exp pass
    over magnitudes sorted ascending, so shuffling the input cannot change
    the result.
    """
    pos = sorted(x.log_abs for x in items if x.sign > 0)
    neg = sorted(x.log_abs for x in items if x.sign < 0)

    def lse(sorted_logs):
        if not sorted_logs:
            return None
        if sorted_logs[-1] == math.inf:
            return math.inf
        return reduce(
            lambda acc, l: max(acc, l) + math.log1p(math.exp(min(acc, l) - max(acc, l))),
            sorted_logs,
        )

    p, n = lse(pos), lse(neg)
    if p is None and n is None:
        return LogReal.zero()
    if n is None:
        return LogReal(1, p)
    if p is None:
        return LogReal(-1, n)
    return LogReal(1, p) + LogReal(-1, n)


def log_sinh(u: float) -> float:
    """log sinh(u) for u > 0, without overflow up to u = 1e300."""
    if u > 20.0:
        return u - math.log(2.0) + math.log1p(-math.exp(-2.0 * u))
    return math.log(math.sinh(u))


def log_cosh(u: float) -> float:
    """log cosh(u) for u >= 0, without overflow up to u = 1e300, and to a
    few eps relative for small u, where cosh(u) rounds to 1 + O(eps) and
    log(cosh(u)) keeps only about eps/u^2 of its value (all of it below
    u = 1e-8)."""
    if u > 20.0:
        return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))
    if u < 1.0:
        return math.log1p(2.0 * math.sinh(u / 2.0) ** 2)
    return math.log(math.cosh(u))


def exp_or_raise(log_value: float, what: str) -> float:
    """exp(log_value) as a double; NumericalError where it would overflow."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(f"{what} overflows a double (log {log_value:.6g})") from None
