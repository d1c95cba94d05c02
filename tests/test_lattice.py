import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbl import (
    DomainError,
    GAUSSIAN_SPEC,
    HeisenbergParam,
    LatticeSpec,
    Model,
    NumericalError,
    cayley_gamma23,
    enumerate_indices,
    lattice_covolume,
    stabilizer_matrix,
    verify_isometry,
)


class TestStabilizerMatrix:
    def test_identity_at_origin(self):
        g = stabilizer_matrix(HeisenbergParam(0.0, 0.0), Model.M3)
        assert np.array_equal(g.mat, np.eye(3))

    def test_m3_literal(self):
        g = stabilizer_matrix(HeisenbergParam(1.0, 0.0), Model.M3)
        want = np.array([[1, -1, -0.5], [0, 1, 1], [0, 0, 1]], dtype=complex)
        assert np.array_equal(g.mat, want)

    def test_m2_literal(self):
        # i conj(i) = 1 and i|a|^2/2 + b = i/2 + 1
        g = stabilizer_matrix(HeisenbergParam(1j, 1.0), Model.M2)
        want = np.array([[1, 1, 1 + 0.5j], [0, 1, 1j], [0, 0, 1]], dtype=complex)
        assert np.array_equal(g.mat, want)
        assert verify_isometry(g.mat, g.form, g.form) < 1e-12

    def test_form_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = HeisenbergParam(complex(rng.normal(), rng.normal()), float(rng.normal()))
            for model in (Model.M2, Model.M3):
                g = stabilizer_matrix(p, model)
                assert verify_isometry(g.mat, g.form, g.form) < 1e-12

    def test_vertical_homomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            b1, b2 = rng.normal(), rng.normal()
            for model in (Model.M2, Model.M3):
                lhs = stabilizer_matrix(HeisenbergParam(0, b1), model).mat @ (
                    stabilizer_matrix(HeisenbergParam(0, b2), model).mat
                )
                rhs = stabilizer_matrix(HeisenbergParam(0, b1 + b2), model).mat
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_group_law_with_twist(self):
        # m(a1,b1) m(a2,b2) = m(a1+a2, b1+b2 - Im(conj(a1) a2))
        rng = np.random.default_rng(17)
        for _ in range(20):
            a1 = complex(rng.normal(), rng.normal())
            a2 = complex(rng.normal(), rng.normal())
            b1, b2 = rng.normal(), rng.normal()
            lhs = stabilizer_matrix(HeisenbergParam(a1, b1), Model.M3).mat @ (
                stabilizer_matrix(HeisenbergParam(a2, b2), Model.M3).mat
            )
            twist = b1 + b2 - (np.conj(a1) * a2).imag
            rhs = stabilizer_matrix(HeisenbergParam(a1 + a2, twist), Model.M3).mat
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_conjugation_matches_transforms(self):
        g23 = cayley_gamma23().mat
        p = HeisenbergParam(0.3 - 0.7j, 1.2)
        m2 = stabilizer_matrix(p, Model.M2).mat
        m3 = stabilizer_matrix(p, Model.M3).mat
        assert np.abs(g23 @ m2 @ np.linalg.inv(g23) - m3).max() < 1e-12

    def test_rejects_ball_model(self):
        with pytest.raises(DomainError):
            stabilizer_matrix(HeisenbergParam(1.0, 0.0), Model.BALL)


# Eisenstein alpha lattice with a half-step beta offset where m n is odd
EISENSTEIN_OFFSET_SPEC = LatticeSpec(
    a1=1.0,
    a2=cmath.exp(1j * math.pi / 3),
    beta_step=0.5,
    beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
)


def brute_indices(spec, r_alpha, r_beta, box=25):
    out = set()
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            if abs(spec.alpha(m, n)) > r_alpha:
                continue
            for l in range(-box, box + 1):
                beta = spec.offset(m, n) + l * spec.beta_step
                if abs(beta) <= r_beta:
                    out.add((m, n, l))
    return out


class TestEnumeration:
    def test_origin_only(self):
        pts = GAUSSIAN_SPEC.points(0.0, 0.0)
        assert pts.m.size == 1 and pts.alpha[0] == 0 and pts.beta[0] == 0

    def test_five_points(self):
        pts = GAUSSIAN_SPEC.points(1.0, 0.0)
        alphas = sorted((a.real, a.imag) for a in pts.alpha.tolist())
        assert alphas == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_gauss_circle_317(self):
        idx = list(enumerate_indices(GAUSSIAN_SPEC, 10.0, 0.0))
        assert len(idx) == 317
        assert set(idx) == brute_indices(GAUSSIAN_SPEC, 10.0, 0.0, box=12)

    def test_matches_brute_force_oblique(self):
        oblique = LatticeSpec(a1=1.0, a2=complex(0.5, math.sqrt(3) / 2), beta_step=0.5)
        for spec in (oblique, EISENSTEIN_OFFSET_SPEC):
            got = set(enumerate_indices(spec, 4.0, 2.0))
            assert got == brute_indices(spec, 4.0, 2.0, box=12)

    def test_lexicographic_order(self):
        for spec in (GAUSSIAN_SPEC, EISENSTEIN_OFFSET_SPEC):
            idx = list(enumerate_indices(spec, 3.0, 2.0))
            assert idx == sorted(idx)

    def test_each_once(self):
        idx = list(enumerate_indices(GAUSSIAN_SPEC, 6.0, 3.0))
        assert len(idx) == len(set(idx))

    def test_exclude_origin(self):
        # the counting kernels' nontrivial mask drops this one point alone
        pts = GAUSSIAN_SPEC.points(2.0, 2.0)
        origin = (pts.alpha == 0) & (pts.beta == 0)
        assert list(zip(pts.m[origin], pts.n[origin], pts.l[origin])) == [(0, 0, 0)]

    def test_offset_rule(self):
        spec = LatticeSpec(beta_offset_rule=lambda m, n: 0.5 * ((m + n) % 2))
        pts = spec.points(1.0, 1.0)
        odd = np.abs(pts.alpha) == 1.0
        assert odd.any() and set(pts.beta[odd].tolist()) <= {-0.5, 0.5}

    @pytest.mark.parametrize(
        "rule",
        [
            lambda m, n: 0.25 * ((m * n) % 2),
            lambda m, n: 0.1 * (m % 3),
            lambda m, n: 0.5 * ((m + n) % 2),
            lambda m, n: 0.5 if m * n % 2 else 0.0,  # scalars only: falls back per column
            lambda m, n: 0.125,  # broadcasts from one value
        ],
    )
    def test_array_offsets_match_per_column_calls(self, rule):
        spec = LatticeSpec(a2=cmath.exp(1j * math.pi / 3), beta_step=0.5, beta_offset_rule=rule)
        disc = spec.disc(12.0)
        loop = [float(rule(m, n)) for m, n in zip(disc.m.tolist(), disc.n.tolist())]
        assert disc.offset.shape == (disc.m.size,)
        assert disc.offset.tolist() == loop

    def test_offset_rule_of_wrong_shape_falls_back(self):
        # an array result that does not broadcast to one offset per column
        spec = LatticeSpec(beta_offset_rule=lambda m, n: np.full(2, 0.5) if np.ndim(m) else 0.5)
        disc = spec.disc(3.0)
        assert disc.offset.tolist() == [0.5] * disc.m.size

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_offsets_rejected(self, bad):
        for rule in (lambda m, n: np.where(m % 2, bad, 0.0), lambda m, n: bad if m % 2 else 0.0):
            spec = LatticeSpec(beta_offset_rule=rule)
            with pytest.raises(DomainError, match="offsets"):
                spec.disc(3.0)
            with pytest.raises(DomainError, match="offsets"):
                spec.points(3.0, 1.0)

    @pytest.mark.parametrize("offset", [1e300, -1e300, -(2.0**63)])
    def test_l_past_int64_raises_instead_of_wrapping(self, offset):
        # the one column's l is about -offset; under the suite's
        # error::RuntimeWarning filter an int64 cast of it would raise too
        spec = LatticeSpec(beta_offset_rule=lambda m, n: offset)
        with pytest.raises(NumericalError, match="int64"):
            spec.points(0.0, 1.0)

    @pytest.mark.parametrize("offset", [1e17, 2.0**63])
    def test_large_offset_inside_int64_keeps_its_exact_l(self, offset):
        pts = LatticeSpec(beta_offset_rule=lambda m, n: offset).points(0.0, 1.0)
        assert pts.l.tolist() == [-int(offset)] and pts.beta.tolist() == [0.0]

    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_radii_filter_property(self, ra, rb):
        pts = GAUSSIAN_SPEC.points(ra, rb)
        assert (np.abs(pts.alpha) <= ra + 1e-9).all()
        assert (np.abs(pts.beta) <= rb + 1e-9).all()


class TestCovolume:
    def test_gaussian(self):
        assert lattice_covolume(GAUSSIAN_SPEC) == pytest.approx(1.0)

    def test_scaled(self):
        assert lattice_covolume(LatticeSpec(a1=2.0, a2=2j, beta_step=1.0)) == pytest.approx(4.0)

    def test_oblique(self):
        spec = LatticeSpec(a1=1.0, a2=1.0 + 1.0j, beta_step=0.5)
        assert lattice_covolume(spec) == pytest.approx(0.5)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DomainError):
            LatticeSpec(a1=1.0, a2=2.0)

    def test_area_outside_double_range_rejected(self):
        # the basis is square, but its area overflows or underflows a double
        for scale in (1e200, 1e-200):
            with pytest.raises(DomainError, match="area"):
                LatticeSpec(a1=scale, a2=scale * 1j)
        assert LatticeSpec(a1=1e150, a2=1e150j).cell_area == pytest.approx(1e300)
        assert LatticeSpec(a1=1e-150, a2=1e-150j).cell_area == pytest.approx(1e-300)
        with pytest.raises(DomainError, match="degenerate"):
            LatticeSpec(a1=1e200, a2=2e200)

    def test_elongated_rectangle_is_not_degenerate(self):
        # degeneracy is the angle between a1 and a2, not the aspect ratio
        assert LatticeSpec(a1=1e20, a2=1j).cell_area == 1e20
        assert LatticeSpec(a1=1e-20, a2=1e20j).cell_area == 1.0

    @pytest.mark.parametrize("a1, a2", [(1.0, 1 + 1e-15j), (1.0, 1e20 + 1j), (1e20, 1e20 + 1j)])
    def test_near_parallel_basis_is_degenerate(self, a1, a2):
        with pytest.raises(DomainError, match="degenerate"):
            LatticeSpec(a1=a1, a2=a2)

    @pytest.mark.parametrize(
        "a1, a2", [(1e308 + 1e308j, 1j), (1.5e308 + 1.5e308j, 1j), (1.0, -1e308 + 1e308j)]
    )
    def test_basis_outside_double_range_has_its_own_message(self, a1, a2):
        # |Re| + |Im| overflows, where numpy's complex products do; |1e308 (1 + i)|
        # itself is 1.41e308, and abs() of 1.5e308 (1 + i) raises OverflowError
        with pytest.raises(DomainError, match=r"must have \|Re\| \+ \|Im\| in the double range"):
            LatticeSpec(a1=a1, a2=a2)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            LatticeSpec(beta_step=0.0)
