"""Exception hierarchy shared across the package, and the precondition
checks the library and the CLI share: `_check_exact_int` for integers such
as weights, `_check_positive` for positive finite parameters and
`_check_rel_tol` for the certified tolerance of the cusp lattice sum."""

import math

__all__ = ["DimensionError", "DomainError", "NumericalError", "PblError", "PreconditionError"]


class PblError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PblError):
    """Shapes or dimensions of the operands do not match."""


class DomainError(PblError):
    """A point lies outside the domain an operation is defined on
    (boundary/exterior points, zero fractional-linear denominators,
    degenerate lattice bases)."""


class PreconditionError(PblError):
    """A numeric parameter violates an operation's stated precondition."""


class NumericalError(PblError):
    """An internal numerical procedure failed to converge or could not
    certify its result (quadrature, optimizer, enumeration radius)."""


# ints up to 2^53 in magnitude convert to a float exactly; beyond that
# k / 2 pi and k log(...) round, and past the double range they overflow
_MAX_EXACT_INT = 2**53


def _check_exact_int(n: int, name: str, at_least=None) -> None:
    """PreconditionError unless n is an integer (a bool, float, str or None
    is not) of at most 2^53 in magnitude and, when at_least is given, at
    least at_least; the type is checked before n is compared with anything."""
    # numpy integers have __index__; floats, str, None and numpy bools do not
    if type(n) is not int and (isinstance(n, bool) or not hasattr(type(n), "__index__")):
        raise PreconditionError(f"{name}: must be an integer, not {type(n).__name__}")
    if abs(n) > _MAX_EXACT_INT:
        raise PreconditionError(f"{name}: must be at most 2^53 in magnitude")
    if at_least is not None and n < at_least:
        raise PreconditionError(f"{name}: need {name.lstrip('-')} >= {at_least}, got {n}")


def _check_positive(x: float, name: str) -> None:
    """PreconditionError unless 0 < x < inf (NaN fails too)."""
    if not 0 < x < math.inf:
        raise PreconditionError(f"{name}: need 0 < {name.lstrip('-')} < inf, got {x}")


def _check_rel_tol(rel_tol: float, name: str = "rel_tol") -> None:
    """PreconditionError unless eps <= rel_tol <= 1e-3: below the double
    epsilon a tail could not change the computed sum."""
    if not math.ulp(1.0) <= rel_tol <= 1e-3:
        raise PreconditionError(
            f"{name}: need 2.2e-16 <= {name.lstrip('-')} <= 1e-3, got {rel_tol}"
        )
