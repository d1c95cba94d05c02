"""Independent reference values for the benchmark's correctness checks.

Nothing here calls pbl: lattice sums are brute-forced with α grouped by
norm (`bincount`), orbit counts come from a brute-force index box with the
model-3 pairing written out from the matrices, bound terms are evaluated in
mpmath at 50 digits, and ball distances use the closed form
cosh²(d/2) = |1 - <z,w>|² / ((1-|z|²)(1-|w|²)).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from lattices import Lattice

mp.mp.dps = 50

# sup over k >= 6 of ∫_0^∞ (1+t²)^{-k/2} dt, attained at k = 6
_J6 = 3 * math.pi / 16


# -- cusp lattice sum ---------------------------------------------------------


def lattice_sum(k: int, lat: Lattice, trunc: float = 1e-13) -> float:
    """Σ (a0²/(a²+β²))^{k/2}, a = a0 + |α|²/2, a0 = k/2π, over a box whose
    truncation error is below `trunc` (the sum itself is at least 1)."""
    a0 = k / (2 * math.pi)
    s = lat.step
    # α tail: Σ_{|α|>R} (a0/a)^k (1 + 2aJ/s) <= (4π/area) ∫_{a*}^∞ (...) da
    # once R >= sqrt(2(a* - a0)) + 2 diam
    def log_alpha_tail(a):
        return math.log(4 * math.pi / lat.area) + k * math.log(a0) + float(
            np.logaddexp(
                (1 - k) * math.log(a) - math.log(k - 1),
                math.log(2 * _J6 / s) + (2 - k) * math.log(a) - math.log(k - 2),
            )
        )

    a_star = a0 * 1.01
    while log_alpha_tail(a_star) > math.log(trunc / 2):
        a_star *= 1.05
    r = math.sqrt(2 * (a_star - a0)) + 2 * lat.diam
    nb = lat.index_radius(r)
    m, n = np.meshgrid(np.arange(-nb, nb + 1), np.arange(-nb, nb + 1), indexing="ij")
    q = lat.norms(m, n)
    keep = q <= r * r
    m, n, q = m[keep], n[keep], q[keep]
    offs = lat.offsets(m, n)
    uniq, inv = np.unique(offs, return_inverse=True)
    counts = np.bincount(q * len(uniq) + inv)
    keys = np.nonzero(counts)[0]
    w = counts[keys].astype(float)
    a = a0 + (keys // len(uniq)) / 2.0
    o = uniq[keys % len(uniq)]
    # β tail per α: (2/s) a0^k (B-s)^{1-k} / (k-1), times the number of α
    log_b = (
        math.log(2 * m.size / (s * (k - 1))) + k * math.log(a0) - math.log(trunc / 2)
    ) / (k - 1)
    b = math.exp(log_b) + s
    lmax = int(math.ceil((b + np.abs(o).max()) / s)) + 1
    l = np.arange(-lmax, lmax + 1) * s
    total = 0.0
    chunk = max(1, 2_000_000 // l.size)
    log_a0k = k * math.log(a0)
    for i in range(0, a.size, chunk):
        beta = o[i : i + chunk, None] + l[None, :]
        terms = np.exp(log_a0k - (k / 2) * np.log(a[i : i + chunk, None] ** 2 + beta**2))
        total += float((w[i : i + chunk, None] * terms).sum())
    return total


# -- orbit geometry in model 3 --------------------------------------------------


def _m3_pairing(lat: Lattice, z1: complex, z2: complex, m, n, l):
    """<γ z, z> for γ = [[1, -conj(α), -|α|²/2 + iβ], [0, 1, α], [0, 0, 1]]
    under the model-3 form [[0,0,1],[0,1,0],[1,0,0]], on lifts (z1, z2, 1)."""
    alpha = m * lat.a1 + n * lat.a2
    beta = lat.offsets(m, n) + l * lat.step
    u1 = z1 - np.conj(alpha) * z2 - np.abs(alpha) ** 2 / 2 + 1j * beta
    u2 = z2 + alpha
    return u1 + u2 * np.conj(z2) + np.conj(z1)


def orbit_cosh2(lat: Lattice, z1: complex, z2: complex, delta: float):
    """cosh²(d(z, γz)/2) for every γ that can lie within delta of z, and a
    mask of the identity.  Re<γz,z> = -(q + |α|²/2) bounds |α|, and
    |Im<γz,z>| <= q cosh(δ/2) bounds β."""
    q = -(2 * z1.real + abs(z2) ** 2)
    c = math.cosh(delta / 2)
    r = math.sqrt(2 * q * (c - 1)) * (1 + 1e-9) + 1e-9
    nb = lat.index_radius(r)
    mm, nn = np.meshgrid(np.arange(-nb, nb + 1), np.arange(-nb, nb + 1), indexing="ij")
    keep = np.abs(mm * lat.a1 + nn * lat.a2) <= r
    mm, nn = mm[keep], nn[keep]
    reach = q * c + 2 * r * abs(z2) + 2 * lat.step
    offs = lat.offsets(mm, nn)
    lmax = int(math.ceil((reach + np.abs(offs).max()) / lat.step))
    ll = np.arange(-lmax, lmax + 1)
    m3 = np.repeat(mm, ll.size)
    n3 = np.repeat(nn, ll.size)
    l3 = np.tile(ll, mm.size)
    pair = _m3_pairing(lat, z1, z2, m3, n3, l3)
    cosh2 = np.abs(pair) ** 2 / (q * q)
    origin = (m3 == 0) & (n3 == 0) & (lat.offsets(m3, n3) + l3 * lat.step == 0)
    return cosh2, origin


def orbit_count_range(lat: Lattice, z1: complex, z2: complex, delta: float):
    """(lo, hi): the number of γ with d(z, γz) <= delta, counted with the
    threshold moved down and up by 1e-12 relative, so that a correct count
    lies in [lo, hi] whatever the rounding at the boundary."""
    cosh2, _ = orbit_cosh2(lat, z1, z2, delta)
    c2 = math.cosh(delta / 2) ** 2
    return int(np.count_nonzero(cosh2 <= c2 * (1 - 1e-12))), int(
        np.count_nonzero(cosh2 <= c2 * (1 + 1e-12))
    )


def min_displacement(lat: Lattice, z1: complex, z2: complex) -> float:
    """min over γ != 1 of d(z, γz): the nearest neighbours in α and β give a
    candidate, and the box for that candidate radius contains the minimum."""
    cand = []
    for m, n in ((1, 0), (0, 1), (1, 1), (1, -1), (0, 0)):
        for l in (-1, 1) if (m, n) == (0, 0) else (-1, 0, 1):
            p = _m3_pairing(lat, z1, z2, np.array(m), np.array(n), np.array(l))
            q = -(2 * z1.real + abs(z2) ** 2)
            cand.append(float(abs(p) ** 2 / (q * q)))
    d_cand = 2 * math.acosh(math.sqrt(min(cand)))
    cosh2, origin = orbit_cosh2(lat, z1, z2, d_cand)
    best = float(cosh2[~origin].min())
    return 2 * math.acosh(math.sqrt(max(best, 1.0)))


def enumerate_count(lat: Lattice, r_alpha: float, r_beta: float) -> int:
    """#{(m, n, l) : |α| <= r_alpha, |offset + l step| <= r_beta}."""
    nb = lat.index_radius(r_alpha)
    mm, nn = np.meshgrid(np.arange(-nb, nb + 1), np.arange(-nb, nb + 1), indexing="ij")
    keep = np.abs(mm * lat.a1 + nn * lat.a2) <= r_alpha
    offs = lat.offsets(mm[keep], nn[keep])
    lo = np.ceil((-r_beta - offs) / lat.step)
    hi = np.floor((r_beta - offs) / lat.step)
    return int(np.maximum(hi - lo + 1, 0).sum())


def stabilizer_m3(alpha: complex, beta: float) -> np.ndarray:
    return np.array(
        [[1, -np.conj(alpha), -abs(alpha) ** 2 / 2 + 1j * beta], [0, 1, alpha], [0, 0, 1]],
        dtype=complex,
    )


# -- ball model -------------------------------------------------------------------


def ball_distance(z, w) -> float:
    """Hyperbolic distance between two unit-ball points, at 50 digits."""
    z = [mp.mpc(complex(x)) for x in z]
    w = [mp.mpc(complex(x)) for x in w]
    zw = mp.fsum(a * mp.conj(b) for a, b in zip(z, w))
    qz = 1 - mp.fsum(abs(a) ** 2 for a in z)
    qw = 1 - mp.fsum(abs(b) ** 2 for b in w)
    c2 = abs(1 - zw) ** 2 / (qz * qw)
    return float(2 * mp.acosh(mp.sqrt(c2)))


def act(mat, coords) -> np.ndarray:
    """Fractional-linear action of a 3x3 matrix on affine coordinates."""
    v = np.asarray(mat) @ np.append(np.asarray(coords, dtype=complex), 1.0)
    return v[:-1] / v[-1]


def form_residual(mat, form) -> float:
    """max |g* F g - F| and | |det g| - 1 | of a claimed isometry."""
    g = np.asarray(mat)
    return max(
        float(np.abs(g.conj().T @ form @ g - form).max()),
        abs(abs(np.linalg.det(g)) - 1.0),
    )


BALL_FORM = np.diag([1.0, 1.0, -1.0]).astype(complex)


def log_cosh_power_sum(mats, coords, k: int) -> float:
    """log Σ_g cosh^{-k}(d(z, g z)/2) on the ball, at 50 digits."""
    z = [mp.mpc(complex(x)) for x in coords]
    qz = 1 - mp.fsum(abs(a) ** 2 for a in z)
    terms = []
    for g in mats:
        w = [mp.mpc(complex(x)) for x in act(g, coords)]
        zw = mp.fsum(a * mp.conj(b) for a, b in zip(z, w))
        c2 = abs(1 - zw) ** 2 / (qz * (1 - mp.fsum(abs(b) ** 2 for b in w)))
        terms.append(c2 ** (-mp.mpf(k) / 2))
    return float(mp.log(mp.fsum(terms)))


def log_sum_exp(logs) -> float:
    return float(mp.log(mp.fsum(mp.exp(mp.mpf(x)) for x in logs)))


# -- bounds -------------------------------------------------------------------


def cocompact_log_terms(n: int, k: int, r_x: float, c_gamma: float, c_exp: int):
    """The three logged terms of the cocompact bound, at 50 digits."""
    r = mp.mpf(r_x)
    log_c = mp.log(c_gamma) + c_exp * mp.log(k)
    log_sh = mp.log(mp.sinh(r / 4))
    return {
        "identity_term": float(log_c),
        "middle_term": float(
            log_c + 2 * n * (mp.log(mp.cosh(r / 4)) - log_sh) - mp.log(k - 2 * n - 1)
        ),
        "ring_term": float(
            log_c + 2 * n * (mp.log(mp.sinh(5 * r / 8)) - log_sh) - k * mp.log(mp.cosh(3 * r / 8))
        ),
    }


def cusp_log_term(k: int, c_gamma: float, c_exp: int, covolume: float) -> float:
    """log of (√π/2) Γ(k/2-1/2) Γ(k-3/2) / (Γ(k/2) Γ(k-1)) C(k) k^{3/2} / covolume."""
    lg = mp.loggamma
    return float(
        mp.log(c_gamma) + c_exp * mp.log(k) + mp.mpf(3) / 2 * mp.log(k)
        + mp.log(mp.sqrt(mp.pi) / 2)
        + lg(mp.mpf(k) / 2 - mp.mpf(1) / 2) + lg(k - mp.mpf(3) / 2)
        - lg(mp.mpf(k) / 2) - lg(k - 1)
        - mp.log(covolume)
    )


def beta_integral(k: int) -> float:
    """√π Γ(k/2 - 1/2) / Γ(k/2)."""
    return float(mp.sqrt(mp.pi) * mp.gamma(mp.mpf(k) / 2 - mp.mpf(1) / 2) / mp.gamma(mp.mpf(k) / 2))


def log_r_integral(k: int) -> float:
    """log ∫_0^∞ (k/2π + r²/2)^{-(k-1)} dr, which r = sqrt(2 a0) s turns into
    sqrt(2 a0) a0^{1-k} B(1/2, k - 3/2) / 2, at 50 digits."""
    a0 = mp.mpf(k) / (2 * mp.pi)
    half = mp.mpf(1) / 2
    return float(mp.log(mp.sqrt(2 * a0)) + (1 - k) * mp.log(a0) + mp.log(mp.beta(half, k - 3 * half) / 2))


def fit_slope(ks, logs) -> float:
    """Least-squares slope of logs against log k."""
    return float(np.polyfit(np.log(np.asarray(ks, dtype=float)), np.asarray(logs), 1)[0])


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)
