"""The two Heisenberg lattices of the workloads, described without pbl.

Kept apart from `oracles` so that a workload can name its lattices without
loading mpmath, which pbl never imports: set-up time and peak memory are
measured before the oracle checks run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Lattice:
    """A Heisenberg lattice described without pbl: |m a1 + n a2|² is the
    integer quadratic form qa m² + qb m n + qc n², the α cell has the given
    area and diameter, and β runs over offset(m, n) + l step."""

    name: str
    a1: complex
    a2: complex
    step: float
    quad: tuple[int, int, int]
    area: float
    diam: float
    offset: Optional[Callable] = None

    def norms(self, m, n):
        qa, qb, qc = self.quad
        return qa * m * m + qb * m * n + qc * n * n

    def offsets(self, m, n):
        if self.offset is None:
            return np.zeros(np.broadcast(m, n).shape)
        return np.asarray(self.offset(m, n), dtype=float) * np.ones(np.broadcast(m, n).shape)

    def index_radius(self, r: float) -> int:
        """|m|, |n| bound covering |α| <= r, from the form's least eigenvalue."""
        qa, qb, qc = self.quad
        lam = (qa + qc) / 2 - math.hypot((qa - qc) / 2, qb / 2)
        return int(math.ceil(r / math.sqrt(lam))) + 1


def eisenstein_offset(m, n):
    """β offset of the Eisenstein lattice: half a step when m n is odd.
    Works on integers and on integer arrays alike."""
    return 0.25 * ((m * n) % 2)


# The two lattices of the workloads.  The Eisenstein one has a nonzero
# offset rule, which sends pbl down its per-(m, n) code path.
GAUSSIAN = Lattice("gaussian", 1.0, 1j, 1.0, (1, 0, 1), 1.0, math.sqrt(2.0))
EISENSTEIN = Lattice(
    "eisenstein",
    1.0,
    cmath.exp(1j * math.pi / 3),
    0.5,
    (1, 1, 1),
    math.sqrt(3.0) / 2,
    math.sqrt(3.0),
    eisenstein_offset,
)
