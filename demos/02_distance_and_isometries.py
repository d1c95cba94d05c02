"""Hyperbolic distance, its invariance under the unitary group, and the
Poincare-disk slice cross-check.
"""

import math

import numpy as np

from pbl import ModelPoint, apply, ball_form, distance, random_isometry

print("On the z2 = 0 slice the ball metric restricts to the Poincare disk:")
for x in (0.1, 0.5, 0.9):
    d = distance(ModelPoint.ball([0, 0]), ModelPoint.ball([x, 0]))
    print(f"  d(0, {x:.1f}) = {d:.10f}   vs 2 artanh = {2 * math.atanh(x):.10f}")

print("\nDistance is preserved by random elements of SU(form):")
rng = np.random.default_rng(0)
form = ball_form(2)
worst = 0.0
for seed in range(300):
    g = random_isometry(form, seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    v *= rng.uniform(0.05, 0.8) / np.linalg.norm(v)
    w *= rng.uniform(0.05, 0.8) / np.linalg.norm(w)
    z1, z2 = ModelPoint.ball(v), ModelPoint.ball(w)
    err = abs(distance(apply(g, z1), apply(g, z2)) - distance(z1, z2))
    worst = max(worst, err)
print(f"  worst deviation over 300 trials: {worst:.2e}")

print("\nNearly coincident points keep their digits, since sinh^2(d/2) is summed without cancellation:")
z = ModelPoint.ball([0.3, 0.4j])
for eps in (1e-4, 1e-6, 1e-8):
    w = ModelPoint.ball([0.3 + eps, 0.4j])
    print(f"  separation {eps:.0e}: d = {distance(z, w):.6e}")
