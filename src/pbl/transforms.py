"""Form-preserving matrices, Cayley maps between the models, and their
fractional-linear action on points.

Direction convention: a Cayley matrix M with M* F_src M = F_dst pairs as
<Mz, Mw>_{F_src} = <z, w>_{F_dst}, so under the fractional-linear action it
transports points of the F_dst-model into the F_src-model. The attached
point_domain/point_codomain properties spell that out.

Products of single matrices and vectors use ndarray.dot rather than @: it
calls the same BLAS routine, so the results agree bit for bit, at about
half the per-call cost on 3 x 3 operands.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, PreconditionError
from .hermitian import (
    HermitianForm,
    Model,
    ModelPoint,
    _complex_array,
    ball_form,
    model2_form,
    model3_form,
    standard_form_for,
)

__all__ = [
    "ISOMETRY_TOL",
    "CAYLEY_TOL",
    "Isometry",
    "CayleyMap",
    "apply",
    "cayley_gamma3",
    "cayley_gamma23",
    "cayley_gamma2",
    "verify_isometry",
    "random_isometry",
]

ISOMETRY_TOL = 1e-10
CAYLEY_TOL = 1e-12
_DENOM_TINY = 1e-14
# the largest Frobenius norm _expm exponentiates without squaring
_TAYLOR_NORM = 0.5


def _check_shape(mat: np.ndarray, src: HermitianForm, dst: HermitianForm):
    if mat.shape != (src.dim, src.dim) or src.dim != dst.dim:
        raise DimensionError(
            f"matrix {mat.shape} incompatible with forms of size {src.dim}, {dst.dim}"
        )


def _residual(mat: np.ndarray, src: HermitianForm, dst: HermitianForm) -> float:
    return float(np.abs(mat.conj().T.dot(src.entries).dot(mat) - dst.entries).max())


def verify_isometry(mat, src: HermitianForm, dst: HermitianForm) -> float:
    """Max-norm residual of mat* . src . mat - dst; zero for a valid map."""
    mat = _complex_array(mat, "matrix")
    _check_shape(mat, src, dst)
    return _residual(mat, src, dst)


def _check_isometry(m: np.ndarray, form: HermitianForm) -> np.ndarray:
    """m made read-only, once it preserves form to ISOMETRY_TOL and has
    |det| within ISOMETRY_TOL of 1; DomainError otherwise.  m is a complex
    (dim, dim) buffer that no caller holds."""
    r = _residual(m, form, form)
    # written as "not <=" so that a NaN residual or determinant fails
    if not r <= ISOMETRY_TOL:
        raise DomainError(f"matrix does not preserve the form (residual {r:.3g})")
    d = abs(np.linalg.det(m))
    if not abs(d - 1.0) <= ISOMETRY_TOL:
        raise DomainError(f"|det| = {d:.12g} != 1")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Isometry:
    """A matrix preserving a fixed Hermitian form (g* F g = F, |det g| = 1).

    The constructor copies the caller's matrix; the library's own builders
    (random_isometry, compose, inverse, lattice.stabilizer_matrix) hand a
    fresh matrix to _of, which skips only that copy.  Both run the one
    check of _check_isometry.  Isometries compare by identity; copies and
    pickles are rebuilt through the constructor.
    """

    mat: np.ndarray
    form: HermitianForm

    def __post_init__(self):
        m = _complex_array(self.mat, "matrix").copy()  # the caller keeps theirs
        _check_shape(m, self.form, self.form)
        object.__setattr__(self, "mat", _check_isometry(m, self.form))

    @classmethod
    def _of(cls, m: np.ndarray, form: HermitianForm) -> "Isometry":
        """The isometry of m, a complex (dim, dim) matrix the library just
        computed and no caller holds, checked but not copied."""
        g = object.__new__(cls)
        object.__setattr__(g, "mat", _check_isometry(m, form))
        object.__setattr__(g, "form", form)
        return g

    def __reduce__(self):
        return Isometry, (self.mat, self.form)

    @property
    def blocks(self):
        """(A, B, C, D) partition used by the fractional-linear action."""
        n = self.form.n
        m = self.mat
        return m[:n, :n], m[:n, n], m[n, :n], m[n, n]

    def compose(self, other: "Isometry") -> "Isometry":
        if self.form != other.form:
            raise DimensionError("cannot compose isometries of different forms")
        return Isometry._of(self.mat.dot(other.mat), self.form)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Isometry":
        return Isometry._of(np.linalg.inv(self.mat), self.form)


@dataclass(frozen=True, eq=False)
class CayleyMap:
    """A change-of-model matrix with mat* . source_form . mat = target_form.

    Points flow the other way round: apply() takes points of the
    target_form model to the source_form model.  Maps compare by identity;
    copies and pickles are rebuilt through the constructor.
    """

    mat: np.ndarray
    source_form: HermitianForm
    target_form: HermitianForm
    point_domain: Model
    point_codomain: Model

    def __post_init__(self):
        m = _complex_array(self.mat, "matrix")
        r = verify_isometry(m, self.source_form, self.target_form)
        if not r <= CAYLEY_TOL:
            raise DomainError(f"matrix does not intertwine the forms (residual {r:.3g})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __reduce__(self):
        return CayleyMap, (
            self.mat,
            self.source_form,
            self.target_form,
            self.point_domain,
            self.point_codomain,
        )

    def inverse(self) -> "CayleyMap":
        return CayleyMap(
            np.linalg.inv(self.mat),
            self.target_form,
            self.source_form,
            self.point_codomain,
            self.point_domain,
        )


_GAMMA3 = np.array([[1, 1, 0], [0, 1, -1], [1, 1, -1]], dtype=complex)
_GAMMA23 = np.diag([1j, 1, 1]).astype(complex)


def cayley_gamma3() -> CayleyMap:
    """The map with gamma3* H gamma3 = H3; transports M3 points to the ball."""
    return CayleyMap(_GAMMA3, ball_form(2), model3_form(), Model.M3, Model.BALL)


def cayley_gamma23() -> CayleyMap:
    """diag(i,1,1) with gamma23* H3 gamma23 = H2; transports M2 points to M3."""
    return CayleyMap(_GAMMA23, model3_form(), model2_form(), Model.M2, Model.M3)


def cayley_gamma2() -> CayleyMap:
    """The composite gamma3 . gamma23 with gamma2* H gamma2 = H2; M2 to ball."""
    return CayleyMap(_GAMMA3 @ _GAMMA23, ball_form(2), model2_form(), Model.M2, Model.BALL)


def _check_preserves(form: HermitianForm, p: ModelPoint):
    # callers test `form is p._form` first; an equal but distinct form passes here
    if form != p._form:
        raise DomainError(f"isometry preserves a different form than the {p.model.value} model's")


def _isometry_stack(elements, p: ModelPoint) -> np.ndarray:
    """The matrices of the isometries as one (N, n+1, n+1) array; DomainError
    unless each preserves the form of p's model, as apply requires."""
    for form in {id(g.form): g.form for g in elements}.values():
        if form is not p._form:
            _check_preserves(form, p)
    return np.array([g.mat for g in elements], dtype=complex).reshape(-1, p.n + 1, p.n + 1)


def apply(g, p: ModelPoint) -> ModelPoint:
    """Fractional-linear action (A z + B) / (C z + D) on a model point."""
    if isinstance(g, Isometry):
        if g.form is not p._form:
            _check_preserves(g.form, p)
        out_model, out_form = p.model, p._form
    elif isinstance(g, CayleyMap):
        if p.model is not g.point_domain:
            raise DomainError(
                f"map acts on {g.point_domain.value} points, got {p.model.value}"
            )
        out_model = g.point_codomain
        out_form = standard_form_for(out_model, p.n)
    else:
        raise TypeError(f"cannot apply object of type {type(g).__name__}")

    zt = g.mat.dot(p._lift)
    denom = zt[-1]
    if abs(denom) < _DENOM_TINY:
        raise DomainError("zero denominator: point outside the map's domain")
    zt /= denom
    zt[-1] = 1.0
    return ModelPoint._from_lift(out_model, zt, out_form)


# Taylor coefficients of exp to degree 16 as a 4 x 5 matrix: row j holds
# 1/(4j + i)! against x^i for i < 4, and row 3 also 1/16! against x^4
_EXP_COEF = np.array(
    [[1.0 / math.factorial(4 * j + i) for i in range(4)] + [0.0] for j in range(4)], dtype=complex
)
_EXP_COEF[3, 4] = 1.0 / math.factorial(16)


@functools.cache
def _powers_buffer(d: int) -> np.ndarray:
    """A read-only (5, d, d) stack holding the identity and four zero
    matrices, built once per d; _expm copies it to hold (I, x, ..., x^4)."""
    p = np.zeros((5, d, d), dtype=complex)
    p[0] = np.eye(d)
    p.setflags(write=False)
    return p


def _expm(x: np.ndarray, norm: float) -> np.ndarray:
    """exp(x) for a square matrix x with Frobenius norm `norm`, by scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

    x is scaled by 2^-s so that its norm is at most _TAYLOR_NORM = 1/2,
    where the degree-16 Taylor polynomial truncates below 1e-19 relative.
    The polynomial is evaluated Paterson-Stockmeyer style as
    sum_j (x^4)^j B_j: the blocks B_j come from one product of _EXP_COEF
    with (I, x, x^2, x^3, x^4), and three Horner steps in x^4 finish it.
    s squarings undo the scaling.  Only they can overflow, so only for
    norm > _TAYLOR_NORM; an overflow is left as inf or nan, and the caller
    decides about floating-point warnings.
    """
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > _TAYLOR_NORM else 0
    d = x.shape[0]
    powers = _powers_buffer(d).copy()
    x1, x2, x3, x4 = powers[1], powers[2], powers[3], powers[4]
    np.multiply(x, 2.0**-s, out=x1)
    x1.dot(x1, out=x2)
    x2.dot(x1, out=x3)
    x2.dot(x2, out=x4)
    b = _EXP_COEF.dot(powers.reshape(5, d * d)).reshape(4, d, d)
    r = b[3]
    for j in (2, 1, 0):
        r = x4.dot(r)
        r += b[j]
    for _ in range(s):
        r = r.dot(r)
    return r


def random_isometry(form: HermitianForm, seed: int, scale: float = 0.5) -> Isometry:
    """A deterministic pseudo-random element of SU(form).

    seed is a non-negative integer; the same seed and scale give the same
    matrix.  Draws a matrix, projects it onto the Lie algebra (X* F + F X = 0,
    trace removed), rescales to Frobenius norm |scale|, and exponentiates.
    The isometry check then runs on the exponential, so its accuracy is
    verified rather than assumed.  scale = 0 gives the identity.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")
    if not math.isfinite(scale):
        raise PreconditionError("scale must be finite")
    rng = np.random.default_rng(seed)
    d = form.dim
    # one draw of 2 d^2 normals is the stream of two d x d draws; setting
    # the parts gives z[0] + 1j z[1] without its complex arithmetic, which
    # could differ only in the sign of a part drawn as exactly 0
    z = rng.normal(size=(2, d, d))
    a = np.empty((d, d), dtype=complex)
    a.real = z[0]
    a.imag = z[1]
    x = a - form.inverse.dot(a.conj().T).dot(form.entries)
    v = x.reshape(-1)
    diag = v[:: d + 1]
    diag -= diag.sum() / d
    # the Frobenius norm, summed as numpy.linalg.norm sums it
    norm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    if norm > 0 and scale != 0:
        x *= scale / norm
    else:
        x = np.zeros_like(x)
    # past _TAYLOR_NORM the exponential is squared, and the squares or their
    # form residual can overflow to inf or nan, which the residual check
    # rejects; below it every value stays far inside the double range
    if abs(scale) > _TAYLOR_NORM:
        quiet = np.errstate(over="ignore", invalid="ignore")
    else:
        quiet = contextlib.nullcontext()
    try:
        with quiet:
            return Isometry._of(_expm(x, abs(scale)), form)
    except DomainError as exc:
        raise NumericalError(f"exponential left the group: {exc}") from None
