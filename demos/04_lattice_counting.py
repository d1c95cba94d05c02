"""The cusp-stabilizer lattice: enumeration, orbit counts, and the
volume-ratio upper bound for the counting function.
"""

import math

import numpy as np

from pbl import (
    GAUSSIAN_SPEC,
    ModelPoint,
    OrbitSource,
    counting_function,
    counting_upper_bound,
    min_displacement,
    tail_bound_terms,
)

print("Gaussian lattice points with |alpha| <= 2, |beta| <= 1:")
pts = GAUSSIAN_SPEC.points(2.0, 1.0)
print(f"  {pts.m.size} points; first few:", list(zip(pts.alpha[:5].tolist(), pts.beta[:5].tolist())))

count_317 = GAUSSIAN_SPEC.points(10.0, 0.0).m.size
print(f"  circle count |alpha| <= 10: {count_317} (the Gauss circle number)")

k = 6
z = ModelPoint.m3(-k / (4 * math.pi), 0.0)
src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
rx = min_displacement(src, z)
print(f"\nOn the ridge point for weight {k}: smallest nontrivial displacement {rx:.4f}")

print("\n  delta   N(z,z;delta)   volume-ratio bound")
for delta in np.linspace(0.0, 4.0, 9):
    n_enum = counting_function(src, z, z, float(delta))
    bound = counting_upper_bound(2, rx, float(delta))
    print(f"  {delta:5.2f}   {n_enum:12d}   {bound:18.1f}")

print("\nIntegrated tail estimate for f(rho) = cosh^{-6}(rho/2):")
f = lambda rho: math.cosh(rho / 2.0) ** -6.0
t = tail_bound_terms(f, 2, rx, 1.5, src, z, z)
print(f"  head (exact finite sum)  {t.head:.6f}")
print(f"  f(delta) * count bound   {t.middle:.6f}")
print(f"  integral remainder       {t.integral:.6f}")
print(f"  total                    {t.total:.6f}")
