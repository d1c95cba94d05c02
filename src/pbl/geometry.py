"""Hyperbolic distance in the models, geodesic-ball volume, Petersson
weight factors, the cusp-neighbourhood objective, and a finite-difference
check of the curvature-form determinant.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import ridge_log_objective
from .errors import DomainError, PreconditionError, _check_exact_int
from .hermitian import Model, ModelPoint, model_indicator
from .logreal import LogReal, exp_or_raise, log_sinh

__all__ = [
    "cosh2_half_distance",
    "distance",
    "ball_volume",
    "ball_volume_constant",
    "petersson_norm_factor",
    "petersson_objective",
    "curvature_determinant",
]


def _check_same_model(z: ModelPoint, w: ModelPoint):
    if z.model is not w.model or z.n != w.n:
        raise DomainError("points must lie in the same model")


def _sinh2(z: ModelPoint, w: ModelPoint, mats=None):
    """sinh^2(d(z, g w)/2) for g = I, or over a stack of form-preserving
    matrices g (..., n+1, n+1).

    With Z = lift(z), W the lift of g w scaled to last coordinate 1 and
    U = W - Z, |<W,Z>|^2 - <Z,Z><W,W> = |<U,Z>|^2 - <Z,Z><U,U> exactly.  U
    has last coordinate 0, where each model's form is positive
    semidefinite, so sinh^2 = (|<U,Z>|^2 + qz <U,U>) / (qz qw), with
    q = -<.,.>, sums nonnegative terms and cancels no digits.
    """
    _check_same_model(z, w)
    form = z._form.entries
    zt = z._lift
    qz = -z._indicator
    if mats is None:
        wt, qw = w._lift, -w._indicator
    else:
        wt = mats @ w._lift
        wt /= wt[..., -1:]
        wt[..., -1] = 1.0
        # qw is summed from each image, not taken as -<w,w>, which would
        # assume that g preserves the form exactly
        qw = -(wt.conj() @ form * wt).sum(axis=-1).real
    u = wt - zt
    # .dot is @ bit for bit (the same BLAS call) with less overhead
    uh = u.conj().dot(form)
    uu = uh.dot(u) if mats is None else (uh * u).sum(axis=-1)
    return (np.abs(uh.dot(zt)) ** 2 + qz * uu.real) / (qz * qw)


def cosh2_half_distance(z: ModelPoint, w: ModelPoint) -> float:
    """cosh^2(d(z,w)/2) = <z,w><w,z> / (<z,z><w,w>) on lifted vectors,
    taken as 1 + _sinh2: at least 1, and exactly 1 on the diagonal."""
    return 1.0 + float(_sinh2(z, w))


def distance(z: ModelPoint, w: ModelPoint) -> float:
    """Hyperbolic distance 2 asinh(sqrt(sinh^2(d/2))), from _sinh2."""
    return 2.0 * math.asinh(math.sqrt(_sinh2(z, w)))


def ball_volume_constant(n: int) -> float:
    """The constant 4 pi / n! of the ball volume, for 0 <= n <= 170."""
    _check_exact_int(n, "n")
    if not 0 <= n <= 170:
        raise PreconditionError("4 pi / n! needs 0 <= n <= 170")
    return 4 * math.pi / math.factorial(n)


def ball_volume(n: int, r: float) -> float:
    """Volume 4 pi sinh^{2n}(r/2) / n! of a geodesic ball of radius r."""
    _check_exact_int(n, "n", at_least=2)
    if not r >= 0:
        raise PreconditionError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    return ball_volume_constant(n) * exp_or_raise(2 * n * log_sinh(r / 2.0), "ball volume")


def petersson_norm_factor(p: ModelPoint, k: int) -> LogReal:
    """(-<lift p, lift p>)^k: (1-|z|^2)^k on the ball, (-2 Re z1 - |z2|^2)^k
    in model 3, (2 Im z1 - |z2|^2)^k in model 2."""
    _check_exact_int(k, "k", at_least=1)
    # q > 0: every ModelPoint is interior
    return LogReal.from_log(k * math.log(-model_indicator(p)))


def petersson_objective(p: ModelPoint, k: int) -> LogReal:
    """The model-3 ridge objective (-2 Re z1 - |z2|^2)^k exp(4 pi Re z1).

    Independent of Im z1; maximized on Re z1 = -k/(4 pi), z2 = 0.
    """
    if p.model is not Model.M3:
        raise DomainError("objective is defined on model-3 points")
    _check_exact_int(k, "k", at_least=1)
    return LogReal.from_log(ridge_log_objective(k, -model_indicator(p), p.coords[0].real))


def _one_minus_sq(zs) -> float:
    return 1.0 - sum(w.real * w.real + w.imag * w.imag for w in zs)


def _dolbeault_hessian(zs: list, h: float) -> np.ndarray:
    """Matrix of second Wirtinger derivatives d^2/dz_j dzbar_k of
    log(1-|z|^2) at the point with Python complex coordinates zs, by
    central differences with step h."""
    n = len(zs)
    g = np.zeros((n, n), dtype=complex)

    def f(*shifts):
        # log(1-|z|^2) at zs moved by the given (index, offset) pairs
        w = list(zs)
        for j, s in shifts:
            w[j] += s
        q = _one_minus_sq(w)
        if q <= 0.0:
            raise DomainError("stencil point left the ball")
        return math.log(q)

    f0 = f()
    for j in range(n):
        dxx = (f((j, h)) - 2 * f0 + f((j, -h))) / h**2
        dyy = (f((j, 1j * h)) - 2 * f0 + f((j, -1j * h))) / h**2
        g[j, j] = 0.25 * (dxx + dyy)

    def cross(j, a, k, b):
        # 4-point stencil for the mixed second derivative along a e_j, b e_k
        u, v = h * a, h * b
        return (
            f((j, u), (k, v)) - f((j, u), (k, -v)) - f((j, -u), (k, v)) + f((j, -u), (k, -v))
        ) / (4 * h**2)

    for j in range(n):
        for k in range(j + 1, n):
            dxjxk = cross(j, 1, k, 1)
            dyjyk = cross(j, 1j, k, 1j)
            dxjyk = cross(j, 1, k, 1j)
            dyjxk = cross(j, 1j, k, 1)
            g[j, k] = 0.25 * ((dxjxk + dyjyk) + 1j * (dxjyk - dyjxk))
            g[k, j] = np.conj(g[j, k])
    return g


def _curvature_det_once(zs: list, n: int, h: float) -> float:
    ghat = -_dolbeault_hessian(zs, h)  # of -log(1-|z|^2), positive definite
    c1 = ghat / (2 * math.pi)
    q = _one_minus_sq(zs)
    # metric matrix of the hyperbolic Kaehler form is 2G with
    # det G = (1-|z|^2)^-(n+1) in closed form
    log_den = n * math.log(2.0) - (n + 1) * math.log(q)
    det = np.linalg.det(c1).real
    return det / math.exp(log_den)


def curvature_determinant(z: ModelPoint, h: float = 1e-4) -> float:
    """Determinant of the curvature matrix -(1/2 pi) ddbar log(1-|z|^2),
    relative to the hyperbolic volume form; equals (4 pi)^-n at every
    interior point.

    Uses central differences with step h and a Richardson fallback when the
    full-step and half-step estimates disagree by more than 1e-5 relative.
    """
    if z.model is not Model.BALL:
        raise DomainError("curvature check runs in the ball model")
    coords = z.coords
    n = coords.shape[0]
    if not (h > 0 and h * h > 0):
        raise PreconditionError("stencil step h must be positive, with h^2 > 0")
    radius = float(np.linalg.norm(coords))
    if radius + 2 * h >= 1.0:
        raise DomainError("point too close to the boundary for the stencil")
    zs = coords.tolist()
    full = _curvature_det_once(zs, n, h)
    half = _curvature_det_once(zs, n, h / 2)
    if abs(full - half) > 1e-5 * abs(half):
        return (4.0 * half - full) / 3.0
    return half
