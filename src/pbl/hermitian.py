"""Hermitian forms of signature (n,1) and the three models of complex
hyperbolic space they cut out.

A point z in C^n lies in a model exactly when its lift (z, 1) is negative
for the model's form: |z|^2 < 1 on the ball, 2 Im(z1) > |z2|^2 in model 2,
2 Re(z1) + |z2|^2 < 0 in model 3.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, _check_exact_int

__all__ = [
    "HERMITIAN_TOL",
    "Model",
    "HermitianForm",
    "ModelPoint",
    "ball_form",
    "model2_form",
    "model3_form",
    "standard_forms",
    "standard_form_for",
    "inner_product",
    "lift",
    "model_indicator",
]

# inputs are small exact integers and i, so this slack is generous
HERMITIAN_TOL = 1e-12
# the last entry of every lift, as the bytes of a complex double
_ONE = np.ones(1, dtype=complex).tobytes()


def _complex_array(x, what: str) -> np.ndarray:
    """np.asarray(x, dtype=complex), with DomainError in place of numpy's
    bare ValueError for text that is not a number."""
    try:
        return np.asarray(x, dtype=complex)
    except ValueError as exc:
        raise DomainError(f"{what} must be complex numbers ({exc})") from None


class Model(enum.Enum):
    """The three coordinate models: unit ball B^n, and the two Siegel-type
    domains of the n=2 space."""

    BALL = "ball"
    M2 = "m2"
    M3 = "m3"


@dataclass(frozen=True)
class HermitianForm:
    """An (n+1)x(n+1) Hermitian matrix of signature (n,1)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _complex_array(self.entries, "form entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError(f"form must be square of size >= 2, got {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise DomainError("matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if not (np.sum(eigs > 0) == m.shape[0] - 1 and np.sum(eigs < 0) == 1):
            raise DomainError(f"signature is not (n,1); eigenvalues {eigs}")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        """Matrix size n+1."""
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.dim - 1

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """The inverse matrix F^{-1}, computed once per form (read-only)."""
        inv = np.linalg.inv(self.entries)
        inv.setflags(write=False)
        return inv

    def __eq__(self, other):
        # the standard forms are singletons, so identity settles most calls
        return self is other or (
            isinstance(other, HermitianForm)
            and self.dim == other.dim
            and bool(np.abs(self.entries - other.entries).max() <= HERMITIAN_TOL)
        )

    def __hash__(self):
        # forms within HERMITIAN_TOL are equal, so only the size is hashed
        return hash(self.dim)

    def __reduce__(self):
        # rebuild through the checks, which make the entries read-only again
        return HermitianForm, (self.entries,)


# the ball forms built so far, keyed by the exact int n
_BALL_FORMS: dict[int, HermitianForm] = {}


def ball_form(n: int) -> HermitianForm:
    """diag(Id_n, -1), the form of the unit ball model of B^n; built once per n.

    Cached by the exact int, so a numpy integer gets the form of the equal
    int (`functools.cache` keys the two apart, and would then hand a float
    equal to a cached numpy integer its form unchecked)."""
    form = _BALL_FORMS.get(n) if type(n) is int else None
    if form is None:
        _check_exact_int(n, "n")
        if n < 2:
            raise DimensionError("ball model needs n >= 2")
        n = int(n)
        form = _BALL_FORMS.get(n)
        if form is None:
            form = _BALL_FORMS.setdefault(
                n, HermitianForm(np.diag([1.0] * n + [-1.0]).astype(complex))
            )
    return form


@functools.cache
def model2_form() -> HermitianForm:
    """The 3x3 form [[0,0,-i],[0,1,0],[i,0,0]] of model 2; built once."""
    return HermitianForm(np.array([[0, 0, -1j], [0, 1, 0], [1j, 0, 0]], dtype=complex))


@functools.cache
def model3_form() -> HermitianForm:
    """The 3x3 form [[0,0,1],[0,1,0],[1,0,0]] of model 3; built once."""
    return HermitianForm(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex))


def standard_forms(n: int):
    """The triple (ball form, model-2 form, model-3 form).

    The Siegel-type forms exist only for n = 2; for other n use ball_form.
    """
    if n != 2:
        raise DimensionError("model-2/model-3 forms are only defined for n = 2")
    return ball_form(2), model2_form(), model3_form()


def standard_form_for(model: Model, n: int = 2) -> HermitianForm:
    """The standard form whose negative cone defines the given model."""
    if model is Model.BALL:
        return ball_form(n)
    if model is Model.M2:
        return model2_form()
    return model3_form()


@dataclass(frozen=True, eq=False, init=False, slots=True)
class ModelPoint:
    """An interior point of one of the models, stored in affine coordinates.

    Constructors reject boundary and exterior points (indicator >= 0), so
    every ModelPoint in circulation is strictly interior.  The model's
    standard form, the lift (z_1, ..., z_n, 1) and its indicator are found
    once, at construction; `coords` and `lift(p)` are read-only views of one
    private buffer.  Two points are equal when they have the same model and
    exactly equal coordinates, and equal points hash alike.  Copies and
    pickles are rebuilt through the constructor.
    """

    model: Model
    coords: np.ndarray
    _lift: np.ndarray = field(init=False, repr=False, compare=False)
    _indicator: float = field(init=False, repr=False, compare=False)
    _form: HermitianForm = field(init=False, repr=False, compare=False)

    def __init__(self, model: Model, coords):
        c = _complex_array(coords, "coords")
        if c.ndim == 0:
            c = c.reshape(1)
        if c.ndim != 1:
            raise DimensionError("coords must be a vector")
        n = c.shape[0]
        if model is Model.BALL:
            if n < 2:
                raise DimensionError("ball points need n >= 2 coordinates")
            form = ball_form(n)
        elif n != 2:
            raise DimensionError(f"{model.value} points live in C^2")
        else:
            form = standard_form_for(model)
        # a copy over bytes, which no array can make writable again; the
        # caller's array stays the caller's
        _store_lift(self, model, np.frombuffer(c.tobytes() + _ONE, dtype=complex), form)

    @classmethod
    def _from_lift(cls, model: Model, zt: np.ndarray, form: HermitianForm) -> "ModelPoint":
        """The point of `model`, whose standard form is `form`, with lift zt:
        a complex buffer of length n+1 with last entry 1 that the library
        just computed and no caller holds.  It is made read-only and becomes
        the point's buffer without a copy, checked as the constructor checks."""
        zt.setflags(write=False)
        # a view, whose write flag cannot be set again as zt's could
        return _store_lift(object.__new__(cls), model, zt.view(), form)

    def __eq__(self, other):
        if not isinstance(other, ModelPoint):
            return NotImplemented
        return self.model is other.model and self.coords.tolist() == other.coords.tolist()

    def __hash__(self):
        # Python complex numbers: 0.0 and -0.0 compare and hash alike
        return hash((self.model, tuple(self.coords.tolist())))

    def __reduce__(self):
        # rebuild through the constructor, which makes a fresh read-only buffer
        return ModelPoint, (self.model, self.coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @staticmethod
    def ball(coords) -> "ModelPoint":
        return ModelPoint(Model.BALL, coords)

    @staticmethod
    def m2(z1, z2) -> "ModelPoint":
        return ModelPoint(Model.M2, (z1, z2))

    @staticmethod
    def m3(z1, z2) -> "ModelPoint":
        return ModelPoint(Model.M3, (z1, z2))

    def form(self) -> HermitianForm:
        """The standard form of the point's model, stored at construction."""
        return self._form


def _store_lift(p: ModelPoint, model: Model, zt: np.ndarray, form: HermitianForm) -> ModelPoint:
    """Stores zt, a complex array of length n+1 with last entry 1 that cannot
    be made writable, in p as the lift of a `model` point, with its
    indicator under `form`; DomainError unless the indicator is negative."""
    n = zt.shape[0] - 1
    # .dot is @ bit for bit (the same BLAS call) with less overhead
    ind = float(zt.conj().dot(form.entries).dot(zt).real)
    if not ind < 0:
        raise DomainError(f"not an interior {model.value} point (indicator {ind:.3g} >= 0)")
    _set_model(p, model)
    _set_coords(p, zt[:n])
    _set_lift(p, zt)
    _set_indicator(p, ind)
    _set_form(p, form)
    return p


# the slots' own setters, which the frozen class's __setattr__ would refuse:
# a call to one costs about half an object.__setattr__
_set_model, _set_coords, _set_lift, _set_indicator, _set_form = (
    ModelPoint.__dict__[name].__set__
    for name in ("model", "coords", "_lift", "_indicator", "_form")
)


def inner_product(form: HermitianForm, zt, wt) -> complex:
    """The pairing w* H z of two lifted vectors.

    Conjugate-symmetric: inner_product(H, z, w) == conj(inner_product(H, w, z)).
    """
    zt = np.asarray(zt, dtype=complex)
    wt = np.asarray(wt, dtype=complex)
    if zt.shape != (form.dim,) or wt.shape != (form.dim,):
        raise DimensionError(
            f"vectors must have length {form.dim}, got {zt.shape} and {wt.shape}"
        )
    return complex(wt.conj() @ form.entries @ zt)


def lift(p: ModelPoint) -> np.ndarray:
    """The canonical lift (z_1, ..., z_n, 1): the point's stored read-only
    vector, a view that shares memory with p.coords."""
    return p._lift


def model_indicator(p: ModelPoint) -> float:
    """<lift(p), lift(p)> under the model's standard form, stored at
    construction as lift.conj() @ F @ lift.

    Real by Hermitian symmetry and negative exactly on interior points.
    """
    return p._indicator
