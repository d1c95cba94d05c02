import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbl import (
    DimensionError,
    DomainError,
    HermitianForm,
    Model,
    ModelPoint,
    PreconditionError,
    ball_form,
    inner_product,
    lift,
    model2_form,
    model3_form,
    model_indicator,
    standard_form_for,
    standard_forms,
)


class TestStandardForms:
    def test_ball_form_entries(self):
        h = ball_form(2)
        assert np.array_equal(h.entries, np.diag([1, 1, -1]).astype(complex))

    def test_ball_form_n4(self):
        h = ball_form(4)
        assert np.array_equal(h.entries, np.diag([1, 1, 1, 1, -1]).astype(complex))

    def test_ball_form_is_cached_by_the_exact_int(self):
        # a numpy integer gets the form of the equal int, through
        # standard_form_for too, and a float is still rejected after it
        assert ball_form(np.int64(2)) is ball_form(2)
        assert ball_form(np.int32(3)) is ball_form(3)
        assert standard_form_for(Model.BALL, np.int64(2)) is ball_form(2)
        with pytest.raises(PreconditionError, match="must be an integer, not float"):
            ball_form(2.0)

    def test_model_forms_literal(self):
        assert np.array_equal(
            model2_form().entries, np.array([[0, 0, -1j], [0, 1, 0], [1j, 0, 0]])
        )
        assert np.array_equal(
            model3_form().entries, np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        )

    def test_triple(self):
        h, h2, h3 = standard_forms(2)
        assert h.dim == h2.dim == h3.dim == 3

    def test_triple_rejects_other_n(self):
        with pytest.raises(DimensionError):
            standard_forms(3)

    @pytest.mark.parametrize("form", [ball_form(2), ball_form(5), model2_form(), model3_form()])
    def test_signature(self, form):
        eigs = np.linalg.eigvalsh(form.entries)
        assert np.sum(eigs > 0) == form.n and np.sum(eigs < 0) == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            HermitianForm(np.array([[1, 1], [0, -1]], dtype=complex))

    def test_rejects_wrong_signature(self):
        with pytest.raises(DomainError):
            HermitianForm(np.eye(3, dtype=complex))


class TestInnerProduct:
    def test_origin_lift(self):
        h = ball_form(2)
        v = np.array([0, 0, 1], dtype=complex)
        assert inner_product(h, v, v) == pytest.approx(-1.0)

    def test_model3_example(self):
        # <z,z>_3 expanded by hand: z1 w3bar + z2 w2bar + z3 w1bar at z=(-1,0,1)
        v = np.array([-1, 0, 1], dtype=complex)
        assert inner_product(model3_form(), v, v) == pytest.approx(-2.0)

    def test_model2_example(self):
        # i z1 w3bar + z2 w2bar - i z3 w1bar at z=(i,0,1) gives -2
        v = np.array([1j, 0, 1], dtype=complex)
        assert inner_product(model2_form(), v, v) == pytest.approx(-2.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        for form in (ball_form(3), model2_form(), model3_form()):
            for _ in range(20):
                z = rng.normal(size=form.dim) + 1j * rng.normal(size=form.dim)
                w = rng.normal(size=form.dim) + 1j * rng.normal(size=form.dim)
                assert inner_product(form, z, w) == pytest.approx(
                    np.conj(inner_product(form, w, z)), abs=1e-12
                )

    def test_self_product_real(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert abs(inner_product(model2_form(), z, z).imag) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(ball_form(2), np.zeros(4), np.zeros(4))


class TestLiftAndIndicator:
    def test_lift_examples(self):
        assert np.array_equal(lift(ModelPoint.ball([0, 0])), [0, 0, 1])
        assert np.array_equal(lift(ModelPoint.m3(-1, 0.5)), [-1, 0.5, 1])
        p = ModelPoint.ball([0.1, 0.2, 0.3])
        assert np.array_equal(lift(p), [0.1, 0.2, 0.3, 1])

    def test_indicator_examples(self):
        assert model_indicator(ModelPoint.ball([0, 0])) == pytest.approx(-1.0)
        assert model_indicator(ModelPoint.m3(-1, 0)) == pytest.approx(-2.0)
        # -2 Im(z1) + |z2|^2 = -4 + 1
        assert model_indicator(ModelPoint.m2(2j, 1)) == pytest.approx(-3.0)

    def test_membership_equivalence_10k(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(10_000):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            zt = np.append(z, 1.0)
            ball_in = abs(z[0]) ** 2 + abs(z[1]) ** 2 < 1
            m2_in = 2 * z[0].imag - abs(z[1]) ** 2 > 0
            m3_in = 2 * z[0].real + abs(z[1]) ** 2 < 0
            for form, closed in (
                (ball_form(2), ball_in),
                (model2_form(), m2_in),
                (model3_form(), m3_in),
            ):
                ind = (zt.conj() @ form.entries @ zt).real
                assert (ind < 0) == closed
                checked += 1
        assert checked == 30_000


class TestPointConstruction:
    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            ModelPoint.ball([1.0, 0.0])
        with pytest.raises(DomainError):
            ModelPoint.m3(0.0, 0.0)

    def test_exterior_rejected(self):
        with pytest.raises(DomainError):
            ModelPoint.ball([0.9, 0.9])
        with pytest.raises(DomainError):
            ModelPoint.m2(-1j, 0)

    def test_models_enforce_dim(self):
        with pytest.raises(DimensionError):
            ModelPoint(Model.M3, np.array([-1.0, 0.0, 0.0]))

    def test_coords_immutable(self):
        p = ModelPoint.ball([0.1, 0.2])
        with pytest.raises(ValueError):
            p.coords[0] = 0.5


class TestPointEquality:
    def test_equal_coordinates_are_equal_points(self):
        p, q = ModelPoint.ball([0.1, 0.2]), ModelPoint.ball(np.array([0.1, 0.2]))
        assert p == q and not p != q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_signed_zero_is_one_coordinate(self):
        p, q = ModelPoint.ball([0.0, 0.2]), ModelPoint.ball([-0.0, complex(0.2, -0.0)])
        assert p == q and hash(p) == hash(q)

    def test_unequal_points(self):
        p = ModelPoint.ball([0.1, 0.2])
        assert p != ModelPoint.ball([0.1, np.nextafter(0.2, 1.0)])
        assert p != ModelPoint.ball([0.1, 0.2, 0.0])
        assert p != (0.1, 0.2) and p != "p"

    def test_same_coordinates_other_model(self):
        z1, z2 = complex(-1.0, 1.0), 0.1
        p, q = ModelPoint.m3(z1, z2), ModelPoint.m2(z1, z2)
        assert p.coords.tolist() == q.coords.tolist()
        assert p != q


_unit = st.floats(-1.0, 1.0)


@st.composite
def model_points(draw):
    """Interior points of all three models; ball points in n = 2..4."""
    model = draw(st.sampled_from(list(Model)))
    if model is Model.BALL:
        n = draw(st.integers(2, 4))
        v = np.array([complex(draw(_unit), draw(_unit)) for _ in range(n)])
        norm = float(np.linalg.norm(v))
        radius = draw(st.floats(0.0, 0.999))
        # a tiny v is kept as it is: radius / norm could overflow
        return ModelPoint.ball(v * (radius / norm) if norm > 1e-100 else v)
    z2 = 3 * complex(draw(_unit), draw(_unit))
    t = draw(st.floats(1e-3, 1e3))
    other = draw(st.floats(-1e3, 1e3))
    if model is Model.M2:  # 2 Im z1 > |z2|^2
        return ModelPoint.m2(complex(other, abs(z2) ** 2 / 2 + t), z2)
    return ModelPoint.m3(complex(-(abs(z2) ** 2 / 2 + t), other), z2)  # 2 Re z1 < -|z2|^2


class TestStoredLift:
    @settings(max_examples=300, deadline=None)
    @given(p=model_points())
    def test_indicator_is_the_lift_pairing_bit_for_bit(self, p):
        zt = lift(p)
        form = standard_form_for(p.model, p.n)
        assert model_indicator(p) == float((zt.conj() @ form.entries @ zt).real)
        assert model_indicator(p) < 0

    def test_lift_is_the_stored_coords_and_one(self):
        p = ModelPoint.ball([0.1, 0.2j, -0.3])
        assert lift(p) is lift(p)
        assert np.shares_memory(lift(p), p.coords)
        assert np.array_equal(lift(p), [0.1, 0.2j, -0.3, 1])

    def test_coords_and_lift_cannot_be_written(self):
        p = ModelPoint.m3(-1.0 + 0.5j, 0.25)
        before = lift(p).copy()
        for arr in (p.coords, lift(p)):
            with pytest.raises(ValueError):
                arr[0] = 9.0
            with pytest.raises(ValueError):
                arr.setflags(write=True)
        assert np.array_equal(lift(p), before)
        assert model_indicator(p) == float((before.conj() @ model3_form().entries @ before).real)

    def test_callers_array_stays_theirs(self):
        v = np.array([0.1 + 0.1j, 0.2])
        p = ModelPoint.ball(v)
        v[0] = 0.9  # the caller's array stays writable, and p keeps its copy
        assert p.coords[0] == 0.1 + 0.1j
        assert lift(p)[0] == 0.1 + 0.1j


def _twins(x):
    return pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)


class TestCopies:
    """Pickles and copies are rebuilt through the constructors, so they keep
    every invariant of the original."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ModelPoint.ball([0.1, 0.2j]),
            lambda: ModelPoint.ball([0.1, -0.2j, 0.3]),
            lambda: ModelPoint.m2(1 + 2j, 0.5),
            lambda: ModelPoint.m3(-1.0 + 0.5j, 0.25),
        ],
    )
    def test_point_twins_are_read_only_and_equal(self, make):
        p = make()
        for q in _twins(p):
            assert q == p and hash(q) == hash(p)
            assert model_indicator(q) == model_indicator(p)
            assert q.form() is p.form()
            assert np.shares_memory(lift(q), q.coords)
            assert lift(q).tobytes() == lift(p).tobytes()
            for arr in (q.coords, lift(q)):
                with pytest.raises(ValueError):
                    arr[0] = 0.99
                with pytest.raises(ValueError):
                    arr.setflags(write=True)

    @pytest.mark.parametrize("form", [ball_form(2), ball_form(3), model2_form(), model3_form()])
    def test_form_twins_are_read_only_and_equal(self, form):
        for twin in _twins(form):
            assert twin == form and hash(twin) == hash(form)
            assert np.array_equal(twin.entries, form.entries)
            with pytest.raises(ValueError):
                twin.entries[0, 0] = 5.0


class TestStoredForm:
    @pytest.mark.parametrize(
        "p",
        [
            ModelPoint.ball([0.1, 0.2j]),
            ModelPoint.ball([0.1, 0.2j, -0.3, 0.0]),
            ModelPoint.ball(np.full(3, 0.4)),
            ModelPoint.m2(1 + 2j, 0.5),
            ModelPoint.m3(-1.0 + 0.5j, 0.25),
            ModelPoint(Model.BALL, (0.1, 0.2)),
            ModelPoint(Model.M2, np.array([2j, 1.0])),
            ModelPoint(Model.M3, [-1.0, 0.0]),
        ],
        ids=lambda p: f"{p.model.value}-{p.n}",
    )
    def test_form_is_the_models_standard_form(self, p):
        for q in (p, *_twins(p)):
            assert q.form() is standard_form_for(q.model, q.n)

