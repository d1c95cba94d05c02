"""The cusp-stabilizer Heisenberg group: parameters (alpha, beta), the
upper-triangular stabilizer matrices they define in models 2 and 3, and
enumeration of the discrete lattice L in C x R that indexes them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError
from .hermitian import Model, model2_form, model3_form
from .transforms import Isometry

__all__ = [
    "HeisenbergParam",
    "LatticeSpec",
    "GAUSSIAN_SPEC",
    "stabilizer_matrix",
    "enumerate_indices",
    "lattice_covolume",
]


# largest alpha index box, or point set of _enumerate_points, one call may allocate
_MAX_ENUM = 5_000_000


def _check_budget(cells: float, what: str):
    if not cells <= _MAX_ENUM:
        raise NumericalError(f"{what} needs ~{cells:.3g} points (> {_MAX_ENUM})")


def _enumerate_points(step: float, alpha, offset, start, count, what: str):
    """(col, l, alpha, beta) for l = start[i] .. start[i] + count[i] - 1 in each
    column i, ordered by i, then l, with beta = offset + l step and l of
    start's dtype: every (alpha, beta) point set is built here.  NumericalError
    naming `what` past _MAX_ENUM points, checked before a float count is cast."""
    _check_budget(count.sum(), what)
    count = count.astype(np.int64, copy=False)
    col = np.repeat(np.arange(count.size), count)
    l = start[col] + (np.arange(col.size) - (np.cumsum(count) - count)[col])
    return col, l, alpha[col], offset[col] + l * step


# columns (m, n) of an alpha disc with alpha = m a1 + n a2 and their beta
# offsets, and lattice points (m, n, l) with their (alpha, beta); both
# lexicographic in the indices
AlphaDisc = namedtuple("AlphaDisc", "m n alpha offset")
LatticePoints = namedtuple("LatticePoints", "m n l alpha beta")


@dataclass(frozen=True)
class HeisenbergParam:
    """Cusp-stabilizer coordinates alpha in C, beta in R."""

    alpha: complex
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("parameters must be finite")


def stabilizer_matrix(p: HeisenbergParam, model: Model) -> Isometry:
    """The upper-triangular stabilizer element for (alpha, beta).

    Model 3: [[1, -conj(a), -|a|^2/2 + i b], [0, 1, a], [0, 0, 1]].
    Model 2: [[1, i conj(a), i |a|^2/2 + b], [0, 1, a], [0, 0, 1]].
    Both fix the point at infinity and preserve their model's form exactly.
    """
    a, b = complex(p.alpha), float(p.beta)
    if model is Model.M3:
        top, form = (-a.conjugate(), -abs(a) ** 2 / 2 + 1j * b), model3_form()
    elif model is Model.M2:
        top, form = (1j * a.conjugate(), 1j * abs(a) ** 2 / 2 + b), model2_form()
    else:
        raise DomainError("stabilizer matrices exist in models 2 and 3 only")
    mat = np.array([1, *top, 0, 1, a, 0, 0, 1], dtype=complex).reshape(3, 3)
    return Isometry._of(mat, form)


def _cross(u: complex, v: complex) -> float:
    """|Im(conj(u) v)|, the area of the parallelogram on u and v, in Python
    floats (an overflow gives inf, not a numpy warning)."""
    u, v = complex(u), complex(v)
    return abs(u.real * v.imag - u.imag * v.real)


def _default_offset(m: int, n: int) -> float:
    return 0.0


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice L = {(m a1 + n a2, offset(m,n) + l step)} in C x R.

    Defaults to the Gaussian model a1=1, a2=i, step 1, zero offsets; other
    imaginary-quadratic shapes (e.g. Eisenstein a2 = exp(i pi/3)) are one
    argument away.  A disc calls beta_offset_rule once on its index arrays
    where the rule accepts arrays, and once per column otherwise.  The rule
    must be a pure function of (m, n), and hashable, with equal rules giving
    equal offsets: `pbl.bounds` caches the beta lines of a disc by spec
    value, so equal specs share them.
    """

    a1: complex = 1.0 + 0.0j
    a2: complex = 0.0 + 1.0j
    beta_step: float = 1.0
    beta_offset_rule: Optional[Callable[[int, int], float]] = None

    def __post_init__(self):
        if not (np.isfinite(self.a1) and np.isfinite(self.a2) and 0 < self.beta_step < math.inf):
            raise DomainError("lattice parameters must be finite, with beta_step > 0")
        a1, a2 = complex(self.a1), complex(self.a2)
        # numpy's complex product overflows once |Re| + |Im| does, so that
        # sum bounds each vector; as it is at least |a|, |a1| and |a2| are finite
        if not all(abs(a.real) + abs(a.imag) < math.inf for a in (a1, a2)):
            raise DomainError("a1 and a2 must have |Re| + |Im| in the double range")
        # the sine of the angle between a1 and a2, from the unit vectors so
        # that no product overflows
        len1, len2 = abs(a1), abs(a2)
        if not (len1 > 0 and len2 > 0 and _cross(a1 / len1, a2 / len2) > 1e-14):
            raise DomainError("alpha basis is degenerate over R")
        if not 0 < self.cell_area < math.inf:
            raise DomainError("the alpha cell area leaves the double range")
        for name in ("a1", "a2", "beta_step", "beta_offset_rule"):
            try:
                hash(getattr(self, name))
            except TypeError:
                raise DomainError(f"{name} must be hashable") from None

    @property
    def cell_area(self) -> float:
        return _cross(self.a1, self.a2)

    @property
    def alpha_cell_diameter(self) -> float:
        return max(abs(self.a1 + self.a2), abs(self.a1 - self.a2))

    def offset(self, m: int, n: int) -> float:
        rule = self.beta_offset_rule or _default_offset
        return float(rule(m, n))

    def alpha(self, m: int, n: int) -> complex:
        return m * self.a1 + n * self.a2

    def param(self, m: int, n: int, l: int) -> HeisenbergParam:
        return HeisenbergParam(self.alpha(m, n), self.offset(m, n) + l * self.beta_step)

    @property
    def _dual_norms(self) -> tuple[float, float]:
        """|a2|/area and |a1|/area, the row norms of the inverse of the basis
        [[a1, a2]], so that |m| <= |alpha| |a2|/area, |n| <= |alpha| |a1|/area."""
        area = self.cell_area
        return abs(self.a2) / area, abs(self.a1) / area

    def disc(self, r_alpha: float) -> AlphaDisc:
        """Every column (m, n) with |alpha| <= r_alpha, lexicographic.

        The index box |m| <= m_max, |n| <= n_max around the disc comes from
        `_dual_norms`; NumericalError if it exceeds the budget.
        """
        if not r_alpha >= 0:
            raise PreconditionError("radii must be nonnegative")
        # Python floats: a box past the double range is inf, not a warning
        m_max, n_max = np.floor([r_alpha * d + 1e-9 for d in self._dual_norms]).tolist()
        _check_budget(
            (2 * m_max + 1) * (2 * n_max + 1), f"the alpha disc of radius {r_alpha:.3g}"
        )
        m_max, n_max = int(m_max), int(n_max)
        m = np.arange(-m_max, m_max + 1)
        n = np.arange(-n_max, n_max + 1)
        alpha = (m * self.a1)[:, None] + n * self.a2
        # hypot, not np.abs: it rounds like Python's abs(complex)
        keep = np.hypot(alpha.real, alpha.imag) <= r_alpha
        i, j = np.nonzero(keep)
        m, n = m[i], n[j]
        return AlphaDisc(m, n, alpha[keep], self._offsets(m, n))

    def _offsets(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The beta offsets of the columns (m, n): one call of the rule on the
        index arrays, or one call per column where the rule fails on arrays
        (raises TypeError or ValueError, or returns no (m.size,) result).
        DomainError if an offset is not finite."""
        rule = self.beta_offset_rule
        if rule is None:
            return np.zeros(m.size)
        try:
            offsets = np.broadcast_to(np.asarray(rule(m, n), dtype=float), (m.size,)).copy()
        except (TypeError, ValueError):
            offsets = np.array([self.offset(int(i), int(j)) for i, j in zip(m, n)], dtype=float)
        if not np.isfinite(offsets).all():
            raise DomainError("beta offsets must be finite")
        return offsets

    def points(self, r_alpha: float, r_beta: float) -> LatticePoints:
        """Every lattice point with |alpha| <= r_alpha and |beta| <= r_beta,
        lexicographic in (m, n, l), each exactly once; NumericalError past
        _MAX_ENUM points (see `_enumerate_points`) or an l past int64."""
        if not r_beta >= 0:
            raise PreconditionError("radii must be nonnegative")
        disc = self.disc(r_alpha)
        step = self.beta_step
        l_lo = np.ceil((-r_beta - disc.offset) / step - 1e-12)
        l_hi = np.floor((r_beta - disc.offset) / step + 1e-12)
        counts = np.maximum(l_hi - l_lo + 1, 0)
        what = f"the lattice ball r_alpha={r_alpha:.3g}, r_beta={r_beta:.3g}"
        col, l, alpha, beta = _enumerate_points(step, disc.alpha, disc.offset, l_lo, counts, what)
        if np.any((counts > 0) & ((l_lo < -(2.0**63)) | (l_hi >= 2.0**63))):  # int64 would wrap
            raise NumericalError(f"{what} has an l index past the int64 range")
        return LatticePoints(disc.m[col], disc.n[col], l.astype(np.int64), alpha, beta)


GAUSSIAN_SPEC = LatticeSpec()


def enumerate_indices(
    spec: LatticeSpec, r_alpha: float, r_beta: float
) -> Iterator[tuple[int, int, int]]:
    """Indices (m, n, l) of all lattice points with |alpha| <= r_alpha and
    |beta| <= r_beta, in lexicographic order, each exactly once."""
    pts = spec.points(r_alpha, r_beta)
    return zip(pts.m.tolist(), pts.n.tolist(), pts.l.tolist())


def lattice_covolume(spec: LatticeSpec) -> float:
    """Volume |Im(conj(a1) a2)| * beta_step of a fundamental cell in C x R."""
    return spec.cell_area * spec.beta_step
