"""Exception hierarchy shared across the package."""


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


def _check_exact_int(n: int, name: str) -> None:
    """PreconditionError unless n is an integer (a bool, float, str or None
    is not) of at most 2^53 in magnitude; callers check it before comparing
    n with anything."""
    # numpy integers have __index__; floats, str, None and numpy bools do not
    if type(n) is not int and (isinstance(n, bool) or not hasattr(type(n), "__index__")):
        raise PreconditionError(f"{name}: must be an integer, not {type(n).__name__}")
    if abs(n) > _MAX_EXACT_INT:
        raise PreconditionError(f"{name}: must be at most 2^53 in magnitude")
