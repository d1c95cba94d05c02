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
    "enumerate_ball",
    "lattice_covolume",
]


# largest index box or point set one enumeration may allocate
_MAX_ENUM = 5_000_000


def _check_budget(cells: float, what: str):
    if not cells <= _MAX_ENUM:
        raise NumericalError(f"{what} needs ~{cells:.3g} points (> {_MAX_ENUM})")


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

    @property
    def is_origin(self) -> bool:
        return self.alpha == 0 and self.beta == 0


def stabilizer_matrix(p: HeisenbergParam, model: Model) -> Isometry:
    """The upper-triangular stabilizer element for (alpha, beta).

    Model 3: [[1, -conj(a), -|a|^2/2 + i b], [0, 1, a], [0, 0, 1]].
    Model 2: [[1, i conj(a), i |a|^2/2 + b], [0, 1, a], [0, 0, 1]].
    Both fix the point at infinity and preserve their model's form exactly.
    """
    a, b = complex(p.alpha), float(p.beta)
    if model is Model.M3:
        mat = np.array(
            [[1, -np.conj(a), -abs(a) ** 2 / 2 + 1j * b], [0, 1, a], [0, 0, 1]],
            dtype=complex,
        )
        return Isometry(mat, model3_form())
    if model is Model.M2:
        mat = np.array(
            [[1, 1j * np.conj(a), 1j * abs(a) ** 2 / 2 + b], [0, 1, a], [0, 0, 1]],
            dtype=complex,
        )
        return Isometry(mat, model2_form())
    raise DomainError("stabilizer matrices exist in models 2 and 3 only")


def _default_offset(m: int, n: int) -> float:
    return 0.0


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice L = {(m a1 + n a2, offset(m,n) + l step)} in C x R.

    Defaults to the Gaussian model a1=1, a2=i, step 1, zero offsets; other
    imaginary-quadratic shapes (e.g. Eisenstein a2 = exp(i pi/3)) are one
    field away.
    """

    a1: complex = 1.0 + 0.0j
    a2: complex = 0.0 + 1.0j
    beta_step: float = 1.0
    beta_offset_rule: Optional[Callable[[int, int], float]] = None

    def __post_init__(self):
        if not (np.isfinite(self.a1) and np.isfinite(self.a2) and 0 < self.beta_step < math.inf):
            raise DomainError("lattice parameters must be finite, with beta_step > 0")
        scale = max(abs(self.a1), abs(self.a2))
        if not self.cell_area > 1e-14 * scale * scale:
            raise DomainError("alpha basis is degenerate over R")

    @property
    def cell_area(self) -> float:
        return abs((np.conj(self.a1) * self.a2).imag)

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

    def disc(self, r_alpha: float) -> AlphaDisc:
        """Every column (m, n) with |alpha| <= r_alpha, lexicographic.

        The index box |m| <= m_max, |n| <= n_max around the disc comes from
        the dual basis row norms; NumericalError if it exceeds the budget.
        """
        if not r_alpha >= 0:
            raise PreconditionError("radii must be nonnegative")
        basis = np.array(
            [[self.a1.real, self.a2.real], [self.a1.imag, self.a2.imag]], dtype=float
        )
        dual = np.linalg.inv(basis)
        m_max = np.floor(r_alpha * np.linalg.norm(dual[0]) + 1e-9)
        n_max = np.floor(r_alpha * np.linalg.norm(dual[1]) + 1e-9)
        _check_budget(
            (2 * m_max + 1) * (2 * n_max + 1), f"the alpha disc of radius {r_alpha:.3g}"
        )
        m_max, n_max = int(m_max), int(n_max)
        m = np.repeat(np.arange(-m_max, m_max + 1), 2 * n_max + 1)
        n = np.tile(np.arange(-n_max, n_max + 1), 2 * m_max + 1)
        alpha = m * self.a1 + n * self.a2
        # hypot, not np.abs: it rounds like Python's abs(complex)
        keep = np.hypot(alpha.real, alpha.imag) <= r_alpha
        m, n, alpha = m[keep], n[keep], alpha[keep]
        offset = np.array([self.offset(int(i), int(j)) for i, j in zip(m, n)], dtype=float)
        return AlphaDisc(m, n, alpha, offset)

    def points(self, r_alpha: float, r_beta: float) -> LatticePoints:
        """Every lattice point with |alpha| <= r_alpha and |beta| <= r_beta,
        lexicographic in (m, n, l), each exactly once."""
        if not r_beta >= 0:
            raise PreconditionError("radii must be nonnegative")
        disc = self.disc(r_alpha)
        step = self.beta_step
        l_lo = np.ceil((-r_beta - disc.offset) / step - 1e-12)
        l_hi = np.floor((r_beta - disc.offset) / step + 1e-12)
        counts = np.maximum(l_hi - l_lo + 1, 0)
        _check_budget(
            counts.sum(), f"the lattice ball r_alpha={r_alpha:.3g}, r_beta={r_beta:.3g}"
        )
        counts = counts.astype(np.int64)
        col = np.repeat(np.arange(disc.m.size), counts)
        first = np.cumsum(counts) - counts
        l = np.arange(col.size) + (l_lo.astype(np.int64) - first)[col]
        beta = disc.offset[col] + l * step
        return LatticePoints(disc.m[col], disc.n[col], l, disc.alpha[col], beta)


GAUSSIAN_SPEC = LatticeSpec()


def enumerate_indices(
    spec: LatticeSpec, r_alpha: float, r_beta: float, exclude_origin: bool = False
) -> Iterator[tuple[int, int, int]]:
    """Indices (m, n, l) of all lattice points with |alpha| <= r_alpha and
    |beta| <= r_beta, in lexicographic order, each exactly once."""
    pts = spec.points(r_alpha, r_beta)
    keep = (pts.alpha != 0) | (pts.beta != 0) if exclude_origin else slice(None)
    return zip(pts.m[keep].tolist(), pts.n[keep].tolist(), pts.l[keep].tolist())


def enumerate_ball(
    spec: LatticeSpec, r_alpha: float, r_beta: float, exclude_origin: bool = False
) -> Iterator[HeisenbergParam]:
    """Lattice points as HeisenbergParam values, lexicographic in (m, n, l)."""
    for m, n, l in enumerate_indices(spec, r_alpha, r_beta, exclude_origin):
        yield spec.param(m, n, l)


def lattice_covolume(spec: LatticeSpec) -> float:
    """Volume |Im(conj(a1) a2)| * beta_step of a fundamental cell in C x R."""
    area = spec.cell_area
    if area <= 0:
        raise DomainError("degenerate alpha basis")
    return area * spec.beta_step
