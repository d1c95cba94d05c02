"""Positive log-domain values.

Quantities like cosh^k(d/2) or (k/2pi)^k overflow doubles long before the
weights of interest (k of a few hundred), so everything raised to a k-th
power lives here as the natural log of a nonnegative value, with log -inf
standing for 0.
"""

from __future__ import annotations

import functools
import math

from .errors import NumericalError

__all__ = ["LogReal", "log_sum", "log_sum_exp", "log_sinh", "log_cosh", "exp_or_raise"]


class _Frozen:
    """Base of the immutable value types of the numpy-free modules (LogReal,
    closed_forms.ConstantModel).  A subclass names its fields in __slots__,
    in the order of its __init__ parameters, and sets each once there with
    object.__setattr__; this base makes them read-only and gives equality
    (to the same class only), hashing, repr, pickling and copying by them.
    They are not dataclasses because importing `dataclasses` costs a
    closed-form CLI call about a fifth of its start-up."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__: restoring the slots would go through __setattr__
        return self.__class__, self._fields()


@functools.total_ordering
class LogReal(_Frozen):
    """A nonnegative real number stored as its natural log; 0 is log_abs
    = -inf, and values order and compare as their logs do."""

    __slots__ = ("log_abs",)

    def __init__(self, log_abs: float):
        if math.isnan(log_abs):
            raise NumericalError("log_abs must not be NaN")
        object.__setattr__(self, "log_abs", log_abs)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.log_abs < other.log_abs

    @staticmethod
    def from_log(log_abs: float) -> "LogReal":
        return LogReal(float(log_abs))

    def to_float(self) -> float:
        """Round-trip to a double; overflows to inf, underflows to 0."""
        try:
            return math.exp(self.log_abs)
        except OverflowError:
            return math.inf

    def log(self) -> float:
        """Natural log of the value, -inf for 0."""
        return self.log_abs

    def __mul__(self, other: "LogReal") -> "LogReal":
        return LogReal(self.log_abs + other.log_abs)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.log_abs == -math.inf:
            raise ZeroDivisionError("LogReal division by zero")
        return LogReal(self.log_abs - other.log_abs)


def log_sum_exp(logs) -> float:
    """log sum exp(l) over an iterable of logs, -inf for an empty sum.

    One log-sum-exp pass over the finite logs sorted ascending, so shuffling
    the input cannot change the result.
    """
    logs = sorted(l for l in logs if l != -math.inf)
    if not logs:
        return -math.inf
    if logs[-1] == math.inf:
        return math.inf
    acc = logs[0]
    for l in logs[1:]:
        if acc < l:
            acc, l = l, acc
        acc += math.log1p(math.exp(l - acc))
    return acc


def log_sum(items) -> LogReal:
    """Order-independent sum of LogReal values."""
    return LogReal(log_sum_exp([x.log_abs for x in items]))


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
