import math
from types import SimpleNamespace

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
    OrbitSource,
    PreconditionError,
    apply,
    ball_form,
    cayley_gamma2,
    cayley_gamma23,
    cayley_gamma3,
    lift,
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

    def test_compose_across_dimensions_rejected(self):
        g, h = random_isometry(ball_form(2), 1), random_isometry(ball_form(3), 1)
        with pytest.raises(DimensionError, match="different forms"):
            g.compose(h)

    def test_interior_preserved(self):
        rng = np.random.default_rng(2)
        form = ball_form(2)
        for s in range(30):
            g = random_isometry(form, s)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v *= rng.uniform(0.05, 0.85) / np.linalg.norm(v)
            q = apply(g, ModelPoint.ball(v))
            assert model_indicator(q) < 0

    def test_image_is_the_matrix_action_bit_for_bit(self):
        # apply keeps the lift it computes: (M w)[:-1] / (M w)[-1], then 1,
        # with the indicator paired from it, and nothing of it writable
        rng = np.random.default_rng(11)
        cay = cayley_gamma2()
        for s in range(50):
            g = random_isometry(ball_form(2), s)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            p = ModelPoint.ball(v * (rng.uniform(0.05, 0.9) / np.linalg.norm(v)))
            back = apply(cay.inverse(), p)
            for m, q, r in ((g.mat, apply(g, p), p), (cay.mat, apply(cay, back), back)):
                w = m @ lift(r)
                assert q.coords.tobytes() == (w[:-1] / w[-1]).tobytes()
                zt = lift(q)
                assert zt[-1] == 1.0
                assert model_indicator(q) == float((zt.conj() @ q.form().entries @ zt).real)
                for arr in (q.coords, zt):
                    with pytest.raises(ValueError):
                        arr.setflags(write=True)


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

    def test_numpy_int_ball_form_is_the_int_form(self):
        # so apply's form check takes the identity shortcut
        g = random_isometry(ball_form(np.int64(2)), 3)
        assert g.form is ball_form(2) is random_isometry(ball_form(2), 3).form

    @pytest.mark.parametrize("form", [model3_form(), HermitianForm(model3_form().entries.copy())])
    def test_apply_rejects_another_models_form(self, form):
        g = random_isometry(form, 3)
        with pytest.raises(DomainError, match="isometry preserves a different form than the ball model's"):
            apply(g, ModelPoint.ball([0.3, 0.1]))

    @pytest.mark.parametrize(
        "make, equal",
        [
            (lambda: (random_isometry(ball_form(2), 1), random_isometry(ball_form(2), 1)), False),
            (lambda: (cayley_gamma2(), cayley_gamma2()), False),
            (
                lambda: tuple(
                    OrbitSource.from_elements([random_isometry(ball_form(2), 1)]) for _ in "ab"
                ),
                False,
            ),
            (lambda: (ball_form(2), HermitianForm(np.diag([1.0, 1.0, -1.0]))), True),
            (lambda: (model2_form(), model3_form()), False),
        ],
        ids=["isometry", "cayley_map", "orbit_source", "equal_forms", "other_forms"],
    )
    def test_equality_and_hash_hold_arrays(self, make, equal):
        # maps, and sources of them, compare by identity; forms by value
        a, b = make()
        assert (a == a, a == b, a != b) == (True, equal, not equal)
        assert len({a, a, b}) == (1 if equal else 2)


class TestRandomIsometrySeed:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, np.int64(-2)])
    def test_rejects_anything_but_a_non_negative_integer(self, seed):
        with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
            random_isometry(ball_form(2), seed)

    def test_numpy_and_big_integers_are_seeds(self):
        assert np.array_equal(random_isometry(ball_form(2), np.uint32(7)).mat,
                              random_isometry(ball_form(2), 7).mat)
        random_isometry(ball_form(2), 2**70)


# a reference random_isometry written out in full with @ products: two
# d x d draws, the Taylor exponential with its powers and Horner steps, and
# the public Isometry constructor, which copies and checks with
# np.linalg.det; random_isometry must reproduce it bit for bit
_REF_COEF = np.array(
    [[1.0 / math.factorial(4 * j + i) for i in range(4)] + [0.0] for j in range(4)], dtype=complex
)
_REF_COEF[3, 4] = 1.0 / math.factorial(16)


def _reference_expm(x, norm):
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.5 else 0
    if s:
        x = x * 2.0**-s
    d = x.shape[0]
    powers = np.empty((5, d, d), dtype=complex)
    powers[0] = np.eye(d)
    powers[1] = x
    x2, x3, x4 = powers[2:]
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x2, x2, out=x4)
    b = (_REF_COEF @ powers.reshape(5, d * d)).reshape(4, d, d)
    r = b[3]
    for j in (2, 1, 0):
        r = b[j] + x4 @ r
    for _ in range(s):
        r = r @ r
    return r


def _reference_random_isometry(form, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    d = form.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = a - form.inverse @ a.conj().T @ form.entries
    diag = x.reshape(-1)[:: d + 1]
    diag -= diag.sum() / d
    v = x.reshape(-1)
    norm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    if norm > 0 and scale != 0:
        x *= scale / norm
    else:
        x = np.zeros_like(x)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return Isometry(_reference_expm(x, abs(scale)), form)
    except DomainError:
        return None


class TestRandomIsometryStream:
    @pytest.mark.parametrize("form", [ball_form(2), model2_form(), model3_form(), ball_form(3)])
    def test_bit_identical_to_the_reference(self, form):
        for s in range(20):
            assert random_isometry(form, s).mat.tobytes() == (
                _reference_random_isometry(form, s).mat.tobytes()
            ), s

    def test_accepts_every_matrix_the_reference_accepts(self):
        # successes of seeds 0..19 on the model-3 form at the reference: a
        # check that rejected more of these large-entry matrices would fail
        reference_successes = {10.0: 20, 15.0: 16, 20.0: 9, 30.0: 4, 50.0: 4}
        for scale, floor in reference_successes.items():
            successes = 0
            for s in range(20):
                want = _reference_random_isometry(model3_form(), s, scale)
                try:
                    got = random_isometry(model3_form(), s, scale)
                except NumericalError:
                    assert want is None, (scale, s)
                    continue
                successes += 1
                assert want is not None and got.mat.tobytes() == want.mat.tobytes(), (scale, s)
            assert successes >= floor, scale


def _unchecked(mat, form):
    """An Isometry whose matrix never passed the check.  It stands in for an
    operand corrupted after construction, so that only the check of the
    builder under test can catch the defect."""
    g = object.__new__(Isometry)
    object.__setattr__(g, "mat", np.array(mat, dtype=complex))
    object.__setattr__(g, "form", form)
    return g


# c I preserves the form to (c^2 - 1) = 0.9e-10, inside ISOMETRY_TOL, while
# |det| = c^3 is 1.35e-10 away from 1, outside it; so is c^-1 I
_C = math.sqrt(1 + 0.9e-10)
DEFECTS = {
    "nan": (np.full((3, 3), np.nan), "residual nan"),
    "off_form": (np.eye(3) + 1e-6 * np.eye(3, k=1), "does not preserve the form"),
    "det": (_C * np.eye(3), r"\|det\| = "),
}


class TestBuildersCheck:
    """Each library builder skips the constructor's copy but not its check."""

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_compose(self, defect):
        mat, msg = DEFECTS[defect]
        bad, one = _unchecked(mat, ball_form(2)), Isometry(np.eye(3), ball_form(2))
        with pytest.raises(DomainError, match=msg):
            bad.compose(one)
        with pytest.raises(DomainError, match=msg):
            one @ bad

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_inverse(self, defect):
        mat, msg = DEFECTS[defect]
        with pytest.raises(DomainError, match=msg):
            _unchecked(mat, ball_form(2)).inverse()

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_random_isometry(self, defect, monkeypatch):
        mat, msg = DEFECTS[defect]
        monkeypatch.setattr("pbl.transforms._expm", lambda x, norm: mat.astype(complex))
        with pytest.raises(NumericalError, match="exponential left the group: .*" + msg):
            random_isometry(ball_form(2), 1)

    @pytest.mark.parametrize("model", [Model.M2, Model.M3])
    def test_stabilizer_matrix(self, model):
        # its matrices are unitriangular, so |det| = 1 exactly and only the
        # residual can fail: on a NaN parameter (which HeisenbergParam itself
        # rejects) and where |alpha|^2 / 2 rounds past the tolerance
        with pytest.raises(DomainError, match="residual nan"):
            stabilizer_matrix(SimpleNamespace(alpha=complex("nan"), beta=0.0), model)
        with pytest.raises(DomainError, match="does not preserve the form"):
            stabilizer_matrix(HeisenbergParam(3000 + 1000j, 0.5), model)
