import math

import numpy as np
import pytest

from pbl import (
    DomainError,
    HeisenbergParam,
    Model,
    ModelPoint,
    NumericalError,
    PreconditionError,
    apply,
    ball_form,
    ball_volume,
    ball_volume_constant,
    cayley_gamma23,
    cosh2_half_distance,
    curvature_determinant,
    distance,
    petersson_norm_factor,
    petersson_objective,
    random_isometry,
    stabilizer_matrix,
)


def random_ball_point(rng, n=2, rmax=0.8):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v *= rng.uniform(0.02, rmax) / np.linalg.norm(v)
    return ModelPoint.ball(v)


def random_m2_point(rng):
    z2 = complex(rng.normal(), rng.normal()) * 0.7
    y1 = abs(z2) ** 2 / 2 + rng.uniform(0.1, 3.0)
    return ModelPoint.m2(complex(rng.normal(), y1), z2)


class TestDistance:
    def test_coincident(self):
        z = ModelPoint.ball([0.1, 0.2j])
        assert cosh2_half_distance(z, z) == 1.0
        assert distance(z, z) == 0.0

    def test_poincare_slice(self):
        # Poincare-disk oracle on the z2=0 slice: d = 2 artanh(0.5) = ln 3
        z = ModelPoint.ball([0.0, 0.0])
        w = ModelPoint.ball([0.5, 0.0])
        assert cosh2_half_distance(z, w) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert distance(z, w) == pytest.approx(2 * math.atanh(0.5), rel=1e-12)
        assert distance(z, w) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_ridge_displacement_closed_form(self):
        # on Re z1 = -k/(4pi), z2 = 0 the stabilizer displacement is
        # |k/2pi + |a|^2/2 + i b|^2 / (k/2pi)^2, any Im z1
        k = 6
        a0 = k / (2 * math.pi)
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = HeisenbergParam(complex(rng.normal(), rng.normal()), float(rng.normal()))
            z = ModelPoint.m3(complex(-k / (4 * math.pi), rng.normal()), 0.0)
            got = cosh2_half_distance(z, apply(stabilizer_matrix(p, Model.M3), z))
            want = abs(a0 + abs(p.alpha) ** 2 / 2 + 1j * p.beta) ** 2 / a0**2
            assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        # the kernel takes U = W - Z against Z, so swapping the points
        # changes only its rounding
        rng = np.random.default_rng(5)
        for i in range(2000):
            draw = random_ball_point if i % 2 else random_m2_point
            z, w = draw(rng), draw(rng)
            d = distance(z, w)
            assert abs(distance(w, z) - d) <= 8 * np.finfo(float).eps * d

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a, b, c = (random_ball_point(rng) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-10

    def test_isometry_invariance(self):
        rng = np.random.default_rng(8)
        form = ball_form(2)
        for s in range(50):
            g = random_isometry(form, s)
            z, w = random_ball_point(rng), random_ball_point(rng)
            assert abs(distance(apply(g, z), apply(g, w)) - distance(z, w)) < 1e-9

    def test_mixed_models_rejected(self):
        with pytest.raises(DomainError):
            distance(ModelPoint.ball([0, 0]), ModelPoint.m3(-1, 0))

    def test_model_transport_consistency(self):
        rng = np.random.default_rng(23)
        cay = cayley_gamma23()
        for _ in range(50):
            z, w = random_m2_point(rng), random_m2_point(rng)
            d2 = distance(z, w)
            d3 = distance(apply(cay, z), apply(cay, w))
            assert abs(d2 - d3) < 1e-9

    def test_cosh2_at_least_one(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            z, w = random_ball_point(rng, rmax=0.95), random_ball_point(rng, rmax=0.95)
            assert cosh2_half_distance(z, w) >= 1.0 - 1e-12


class TestBallVolume:
    def test_zero_radius(self):
        assert ball_volume(2, 0.0) == 0.0

    def test_direct_evaluation(self):
        want = 4 * math.pi * math.sinh(1.0) ** 4 / math.factorial(2)
        assert ball_volume(2, 2.0) == pytest.approx(want, rel=1e-13)
        assert ball_volume(2, 2.0) == pytest.approx(11.9843, rel=1e-4)

    def test_monotone_in_radius(self):
        rs = np.linspace(0.1, 6.0, 40)
        vols = [ball_volume(3, r) for r in rs]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_overflow_raises(self):
        # the volume leaves double range near r = 355, sinh itself near r = 1420
        for r in (400.0, 3000.0):
            with pytest.raises(NumericalError):
                ball_volume(2, r)

    def test_nan_radius_rejected(self):
        # every comparison with nan is False, so "r < 0" let it through
        with pytest.raises(PreconditionError):
            ball_volume(2, float("nan"))

    def test_constant_swap(self):
        assert ball_volume(2, 1.0) / ball_volume_constant(2) == pytest.approx(math.sinh(0.5) ** 4)
        assert ball_volume_constant(2) == pytest.approx(2 * math.pi)


class TestPeterssonFactor:
    def test_ball_origin(self):
        v = petersson_norm_factor(ModelPoint.ball([0, 0]), 17)
        assert v.log() == pytest.approx(0.0, abs=1e-15)

    def test_m3_example(self):
        # (-2*(-1) - 0)^2 = 4
        v = petersson_norm_factor(ModelPoint.m3(-1, 0), 2)
        assert v.to_float() == pytest.approx(4.0, rel=1e-13)

    def test_on_ridge(self):
        k = 12
        z = ModelPoint.m3(-k / (4 * math.pi), 0.0)
        v = petersson_norm_factor(z, k)
        assert v.log() == pytest.approx(k * math.log(k / (2 * math.pi)), rel=1e-13)

    def test_large_weight_stays_finite(self):
        z = ModelPoint.ball([0.9, 0.4j * 0.1])
        v = petersson_norm_factor(z, 4000)
        assert math.isfinite(v.log_abs)

    def test_automorphy_transport(self):
        # (1 - |gz|^2) = (1 - |z|^2) / |Cz + D|^2 for group elements
        rng = np.random.default_rng(6)
        form = ball_form(2)
        for s in range(40):
            g = random_isometry(form, s)
            z = random_ball_point(rng)
            _, _, c, d = g.blocks
            denom = abs(c @ z.coords + d) ** 2
            lhs = 1 - np.sum(np.abs(apply(g, z).coords) ** 2)
            rhs = (1 - np.sum(np.abs(z.coords) ** 2)) / denom
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_cayley_transport_weightless(self):
        # gamma23 has C = 0, D = 1, so the factors agree exactly across models
        rng = np.random.default_rng(16)
        for _ in range(20):
            z = random_m2_point(rng)
            a = petersson_norm_factor(z, 9)
            b = petersson_norm_factor(apply(cayley_gamma23(), z), 9)
            assert a.log() == pytest.approx(b.log(), abs=1e-10)


class TestPeterssonObjective:
    def test_critical_value(self):
        k = 6
        z = ModelPoint.m3(-k / (4 * math.pi), 0.0)
        want = 6 * math.log(3 / math.pi) - 6
        assert petersson_objective(z, k).log() == pytest.approx(want, rel=1e-13)

    def test_independent_of_im_z1(self):
        k = 7
        a = petersson_objective(ModelPoint.m3(complex(-1.0, 0.0), 0.2), k)
        b = petersson_objective(ModelPoint.m3(complex(-1.0, 5.0), 0.2), k)
        assert a.log() == b.log()

    def test_decreasing_in_z2(self):
        k = 5
        vals = [
            petersson_objective(ModelPoint.m3(-2.0, t), k).log()
            for t in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_other_models(self):
        with pytest.raises(DomainError):
            petersson_objective(ModelPoint.ball([0, 0]), 3)

    def test_weight_beyond_2_53_rejected(self):
        # k log q would overflow the int-to-float conversion
        z = ModelPoint.m3(-1.0, 0.0)
        with pytest.raises(PreconditionError, match="2\\^53"):
            petersson_objective(z, int("9" * 400))
        with pytest.raises(PreconditionError, match="2\\^53"):
            petersson_norm_factor(z, int("9" * 400))
        assert petersson_objective(z, 2**53).log() == pytest.approx(2**53 * math.log(2.0) - 4 * math.pi)


class TestCurvatureDeterminant:
    def test_at_origin_n2(self):
        got = curvature_determinant(ModelPoint.ball([0.0, 0.0]))
        assert got == pytest.approx((4 * math.pi) ** -2, rel=1e-6)

    def test_off_origin_n2(self):
        got = curvature_determinant(ModelPoint.ball([0.3, 0.1 + 0.2j]))
        assert got == pytest.approx((4 * math.pi) ** -2, rel=1e-4)

    def test_origin_n3(self):
        got = curvature_determinant(ModelPoint.ball([0.0, 0.0, 0.0]))
        assert got == pytest.approx((4 * math.pi) ** -3, rel=1e-6)

    def test_constant_across_points(self):
        rng = np.random.default_rng(19)
        vals = [
            curvature_determinant(random_ball_point(rng, rmax=0.7)) for _ in range(20)
        ]
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 1e-3

    def test_boundary_stencil_rejected(self):
        p = ModelPoint.ball([0.99999, 0.004])
        with pytest.raises(DomainError):
            curvature_determinant(p, h=1e-2)

    def test_model3_point_rejected(self):
        with pytest.raises(DomainError, match="ball model"):
            curvature_determinant(ModelPoint.m3(-1.0, 0.0))


def test_distance_bit_identical_to_the_lift_formulas():
    """cosh2_half_distance and distance on 200 seeded ball pairs equal,
    bit for bit, the formulas written out on freshly built lifts Z and W:
    with U = W - Z, q = -<.,.> and s2 = (|U* H Z|^2 + q_z (U* H) U) /
    (q_z q_w), cosh^2(d/2) = 1 + s2 and d = 2 asinh(sqrt(s2))."""
    h = ball_form(2).entries
    rng = np.random.default_rng(2024)
    for _ in range(200):
        v, u = (random_ball_point(rng).coords.copy() for _ in range(2))
        zt, wt = np.append(v, 1.0 + 0.0j), np.append(u, 1.0 + 0.0j)
        qz, qw = (-float((x.conj() @ h @ x).real) for x in (zt, wt))
        uh = (wt - zt).conj() @ h
        s2 = float((np.abs(uh @ zt) ** 2 + qz * (uh @ (wt - zt)).real) / (qz * qw))
        z, w = ModelPoint.ball(v), ModelPoint.ball(u)
        assert cosh2_half_distance(z, w) == 1.0 + s2
        assert distance(z, w) == 2.0 * math.asinh(math.sqrt(s2))
