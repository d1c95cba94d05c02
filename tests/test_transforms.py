import numpy as np
import pytest

from pbl import (
    CayleyMap,
    DimensionError,
    DomainError,
    HeisenbergParam,
    HermitianForm,
    Isometry,
    Model,
    ModelPoint,
    NumericalError,
    PreconditionError,
    apply,
    ball_form,
    cayley_gamma2,
    cayley_gamma23,
    cayley_gamma3,
    model2_form,
    model3_form,
    model_indicator,
    random_isometry,
    stabilizer_matrix,
    verify_isometry,
)


class TestCayleyIdentities:
    def test_gamma3(self):
        # 3x3 matrix multiplication oracle
        g3 = cayley_gamma3().mat
        lhs = g3.conj().T @ ball_form(2).entries @ g3
        assert np.abs(lhs - model3_form().entries).max() == 0.0
        assert verify_isometry(g3, ball_form(2), model3_form()) <= 1e-12

    def test_gamma23(self):
        g23 = cayley_gamma23().mat
        lhs = g23.conj().T @ model3_form().entries @ g23
        assert np.abs(lhs - model2_form().entries).max() == 0.0

    def test_gamma2_composition(self):
        # composition of the two identities above forces gamma2 = gamma3 . gamma23
        g2 = cayley_gamma2().mat
        assert np.array_equal(g2, cayley_gamma3().mat @ cayley_gamma23().mat)
        assert verify_isometry(g2, ball_form(2), model2_form()) <= 1e-12

    def test_direction_matters(self):
        g3 = cayley_gamma3().mat
        assert verify_isometry(g3, model3_form(), ball_form(2)) > 1.0

    def test_verify_identity_matrix(self):
        assert verify_isometry(np.eye(3), ball_form(2), ball_form(2)) == 0.0

    def test_verify_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            verify_isometry(np.eye(3), ball_form(3), ball_form(3))


class TestApply:
    def test_identity(self):
        p = ModelPoint.ball([0.3, 0.1 + 0.2j])
        g = Isometry(np.eye(3), ball_form(2))
        out = apply(g, p)
        assert np.allclose(out.coords, p.coords)

    def test_gamma23_moves_m2_to_m3(self):
        p = ModelPoint.m2(1j, 0)
        q = apply(cayley_gamma23(), p)
        assert q.model is Model.M3
        assert np.allclose(q.coords, [-1, 0])
        assert model_indicator(q) == pytest.approx(-2.0)

    def test_heisenberg_translation(self):
        g = stabilizer_matrix(HeisenbergParam(0.0, 1.0), Model.M3)
        q = apply(g, ModelPoint.m3(-1, 0))
        assert np.allclose(q.coords, [-1 + 1j, 0])

    def test_wrong_model_rejected(self):
        with pytest.raises(DomainError):
            apply(cayley_gamma23(), ModelPoint.m3(-1, 0))
        with pytest.raises(DomainError):
            apply(Isometry(np.eye(3), ball_form(2)), ModelPoint.m3(-1, 0))

    def test_group_action_composition(self):
        rng_seeds = range(40, 50)
        p = ModelPoint.ball([0.25, -0.1 + 0.3j])
        form = ball_form(2)
        for s in rng_seeds:
            g = random_isometry(form, s)
            h = random_isometry(form, s + 1000)
            lhs = apply(g.compose(h), p)
            rhs = apply(g, apply(h, p))
            assert np.abs(lhs.coords - rhs.coords).max() < 1e-10

    def test_interior_preserved(self):
        rng = np.random.default_rng(2)
        form = ball_form(2)
        for s in range(30):
            g = random_isometry(form, s)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v *= rng.uniform(0.05, 0.85) / np.linalg.norm(v)
            q = apply(g, ModelPoint.ball(v))
            assert model_indicator(q) < 0


class TestRandomIsometry:
    def test_residual_and_det(self):
        form = ball_form(2)
        for s in range(25):
            g = random_isometry(form, s)
            assert verify_isometry(g.mat, form, form) < 1e-10
            assert abs(abs(np.linalg.det(g.mat)) - 1) < 1e-10

    def test_deterministic_per_seed(self):
        a = random_isometry(ball_form(2), 123)
        b = random_isometry(ball_form(2), 123)
        assert np.array_equal(a.mat, b.mat)

    def test_zero_scale_is_identity(self):
        g = random_isometry(ball_form(2), 5, scale=0.0)
        assert np.allclose(g.mat, np.eye(3))

    def test_other_forms(self):
        for form in (model2_form(), model3_form(), ball_form(3)):
            g = random_isometry(form, 77)
            assert verify_isometry(g.mat, form, form) < 1e-10

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(PreconditionError, match="scale"):
            random_isometry(ball_form(2), 1, scale=scale)

    @pytest.mark.parametrize("scale", [1e3, 1e300])
    def test_overflowing_exponential_raises(self, scale):
        # the exponential or its form residual leaves the double range; this
        # raises, and without a RuntimeWarning (an error under pytest)
        with pytest.raises(NumericalError, match="left the group"):
            random_isometry(model3_form(), 2, scale=scale)

    @pytest.mark.parametrize("scale", [3.0, 10.0])
    def test_squaring_path_stays_in_group(self, scale):
        # |X|_F = 3 and 10 take three and five squarings of the Taylor value
        for form in (ball_form(2), model2_form(), model3_form()):
            for s in range(4):
                g = random_isometry(form, s, scale=scale)
                assert verify_isometry(g.mat, form, form) < 1e-10


class TestStabilizerConjugation:
    def test_hundred_random_parameters(self):
        rng = np.random.default_rng(9)
        g23 = cayley_gamma23().mat
        g23_inv = np.linalg.inv(g23)
        worst = 0.0
        for _ in range(100):
            p = HeisenbergParam(complex(rng.normal(), rng.normal()), float(rng.normal()))
            m2 = stabilizer_matrix(p, Model.M2).mat
            m3 = stabilizer_matrix(p, Model.M3).mat
            worst = max(worst, np.abs(g23 @ m2 @ g23_inv - m3).max())
        assert worst <= 1e-12


class TestIsometryValidation:
    def test_rejects_non_preserving(self):
        with pytest.raises(DomainError):
            Isometry(np.diag([2.0, 1.0, 1.0]).astype(complex), ball_form(2))

    def test_rejects_nan(self):
        # a NaN residual compares False against the tolerance either way round
        with pytest.raises(DomainError, match="residual nan"):
            Isometry(np.full((3, 3), np.nan), ball_form(2))
        with pytest.raises(DomainError, match="residual nan"):
            CayleyMap(np.full((3, 3), np.nan), ball_form(2), model3_form(), Model.M3, Model.BALL)

    def test_blocks_shapes(self):
        g = random_isometry(ball_form(2), 8)
        a, b, c, d = g.blocks
        assert a.shape == (2, 2) and b.shape == (2,) and c.shape == (2,)
        assert np.isscalar(d) or d.shape == ()

    def test_blocks_reassemble(self):
        g = random_isometry(ball_form(2), 21)
        a, b, c, d = g.blocks
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = a
        m[:2, 2] = b
        m[2, :2] = c
        m[2, 2] = d
        assert np.array_equal(m, g.mat)


class TestFormIdentity:
    def test_apply_accepts_an_equal_but_distinct_form(self):
        copy = HermitianForm(ball_form(2).entries.copy())
        assert copy is not ball_form(2) and copy == ball_form(2)
        p = ModelPoint.ball([0.3 - 0.1j, 0.2j])
        got = apply(random_isometry(copy, 3), p)
        want = apply(random_isometry(ball_form(2), 3), p)
        assert np.array_equal(got.coords, want.coords)

    @pytest.mark.parametrize("form", [model3_form(), HermitianForm(model3_form().entries.copy())])
    def test_apply_rejects_another_models_form(self, form):
        g = random_isometry(form, 3)
        with pytest.raises(DomainError, match="isometry preserves a different form than the ball model's"):
            apply(g, ModelPoint.ball([0.3, 0.1]))
