import cmath
import math
import warnings

import numpy as np
import pytest

import pbl.lattice
from pbl import (
    GAUSSIAN_SPEC,
    ConstantModel,
    DimensionError,
    DomainError,
    LatticeSpec,
    Model,
    ModelPoint,
    NumericalError,
    OrbitSource,
    PreconditionError,
    ball_form,
    ball_volume,
    ball_volume_constant,
    cocompact_bound,
    counting_function,
    counting_upper_bound,
    cusp_lattice_sum,
    distance,
    min_displacement,
    orbit_cosh_power_sum,
    random_isometry,
    stabilizer_injectivity_radius,
    stabilizer_matrix,
    tail_bound,
    tail_bound_terms,
)
from pbl.closed_forms import _GL_NODES
from pbl.counting import (
    _TAIL_EPSABS,
    _TAIL_EPSREL,
    _TAIL_PANELS,
    _integrate_to_inf,
    _m3_pair,
    _seed_box,
    _stabilizer_distances,
)
from pbl.hermitian import HermitianForm
from pbl.transforms import Isometry, apply


def ridge_point(k, y1=0.0):
    return ModelPoint.m3(complex(-k / (4 * math.pi), y1), 0.0)


def brute_count_on_ridge(k, delta, box=50):
    """Independent oracle: closed-form displacement on the ridge, scanned
    over the full (m, n, l) box in cosh^2 domain (no arccosh round trip)."""
    a0 = k / (2 * math.pi)
    m = np.arange(-box, box + 1)
    s2 = m[:, None] ** 2 + m[None, :] ** 2
    a = a0 + s2.ravel() / 2.0
    l = np.arange(-box, box + 1)
    cosh2 = (a[:, None] ** 2 + l[None, :] ** 2) / a0**2
    return int(np.count_nonzero(cosh2 <= math.cosh(delta / 2.0) ** 2))


class TestCountingFunction:
    def test_explicit_identity_source(self):
        z = ModelPoint.ball([0.2, 0.1])
        src = OrbitSource.from_elements([Isometry(np.eye(3), ball_form(2))])
        for delta in (0.0, 0.5, 3.0):
            assert counting_function(src, z, z, delta) == 1

    def test_lattice_delta_zero(self):
        z = ridge_point(6)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        assert counting_function(src, z, z, 0.0) == 1

    def test_matches_brute_force(self):
        z = ridge_point(6)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        for delta in (2.0, 3.0, 4.0):
            assert counting_function(src, z, z, delta) == brute_count_on_ridge(6, delta)

    def test_monotone_in_delta(self):
        z = ridge_point(6)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        counts = [counting_function(src, z, z, d) for d in np.linspace(0, 4, 9)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_off_ridge_brute_force(self):
        # generic z != w checked against per-element application
        z = ModelPoint.m3(complex(-1.1, 0.4), 0.3 + 0.1j)
        w = ModelPoint.m3(complex(-0.9, -0.2), -0.2j)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        from pbl import apply, distance

        delta = 3.0
        brute = 0
        for m in range(-8, 9):
            for n in range(-8, 9):
                for l in range(-12, 13):
                    g = stabilizer_matrix(GAUSSIAN_SPEC.param(m, n, l), Model.M3)
                    if distance(z, apply(g, w)) <= delta:
                        brute += 1
        assert counting_function(src, z, w, delta) == brute

    def test_negative_delta_rejected(self):
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        with pytest.raises(PreconditionError):
            counting_function(src, ridge_point(6), ridge_point(6), -1.0)

    def test_enum_cap_carries_message(self):
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        with pytest.raises(NumericalError):
            counting_function(src, ridge_point(6), ridge_point(6), 60.0)
        # cosh(delta / 2) itself leaves double range here
        with pytest.raises(NumericalError):
            counting_function(src, ridge_point(6), ridge_point(6), 1500.0)


SPECS = {
    "gaussian": GAUSSIAN_SPEC,
    "eisenstein": LatticeSpec(
        a2=cmath.exp(1j * math.pi / 3),
        beta_step=0.5,
        beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
    ),
    "skew": LatticeSpec(
        a1=1.3 + 0.2j, a2=0.4 + 0.9j, beta_step=0.7, beta_offset_rule=lambda m, n: 0.1 * (m % 3)
    ),
}


class TestColumnCount:
    """The column count against an independent scan of a box that holds the
    whole orbit ball, with the predicate of record d(z, gamma w) <= delta."""

    # q_z q_w ~ 0.08 keeps the delta = 12 box near 10^5 points
    Z = ModelPoint.m3(complex(-0.2, 0.3), 0.2 + 0.1j)
    W = ModelPoint.m3(complex(-0.12, -0.4), -0.1j)
    DELTA_MAX = 12.0

    @staticmethod
    def box_distances(spec, z, w, delta):
        """d(z, gamma w) over the box |alpha| <= r_alpha + 1, |beta| <=
        r_beta + 1 in (m, n, l) order, where |<gamma w, z>| >= |alpha|^2/2 -
        c0 - c1 |alpha| and >= |beta| - c0 - c1 |alpha| bound the orbit ball."""
        s0, z2, w2, qzw = _m3_pair(z, w)
        c0, c1 = abs(s0), abs(z2) + abs(w2)
        t = math.sqrt(qzw) * math.cosh(delta / 2)
        r_alpha = c1 + math.sqrt(c1 * c1 + 2 * (c0 + t))
        pts = spec.points(r_alpha + 1, t + c0 + c1 * r_alpha + 1)
        d = _stabilizer_distances(pts.alpha, pts.beta, z, w)
        return d, (pts.alpha != 0) | (pts.beta != 0)

    @pytest.mark.parametrize("name", SPECS)
    def test_counts_match_the_box_scan(self, name):
        spec, z, w = SPECS[name], self.Z, self.W
        src = OrbitSource.from_lattice(spec)
        d, _ = self.box_distances(spec, z, w, self.DELTA_MAX)
        for delta in np.arange(0.0, self.DELTA_MAX + 0.125, 0.25).tolist():
            assert counting_function(src, z, w, delta) == np.count_nonzero(d <= delta), delta
        # ties built on purpose: delta a realised distance, and the doubles
        # on either side of it
        realised = np.unique(d[d <= self.DELTA_MAX])
        for x in realised[:: max(realised.size // 40, 1)].tolist():
            for delta in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                assert counting_function(src, z, w, delta) == np.count_nonzero(d <= delta)

    @pytest.mark.parametrize("name", SPECS)
    def test_displacement_and_head_match_the_box_scan(self, name):
        spec, z, w = SPECS[name], self.Z, self.W
        src = OrbitSource.from_lattice(spec)
        d, nontrivial = self.box_distances(spec, z, z, self.DELTA_MAX)
        assert min_displacement(src, z) == d[nontrivial].min()
        f = lambda r: math.cosh(r / 2) ** -12.0
        d, _ = self.box_distances(spec, z, w, 9.0)
        for delta in (3.0, 6.0, 9.0):
            want = float(np.sum([f(x) for x in d[d <= delta].tolist()]))
            assert tail_bound_terms(f, 2, 0.5, delta, src, z, w).head == want

    @pytest.mark.parametrize("name", SPECS)
    def test_ties_far_out_in_beta_match_the_box_scan(self, name):
        # Im w1 - Im z1 = 1e6 and z2 = w2 = 0 put every column's interval
        # near beta = -1e6, where its ends and the points' beta round by
        # ~1e-10, far more than S's own margin widens them; the betas within
        # T of -1e6 - offset hold every element within delta
        spec = SPECS[name]
        z, w = ModelPoint.m3(complex(-0.6, 0.1), 0.0), ModelPoint.m3(complex(-0.4, 0.1 + 1e6), 0.0)
        src = OrbitSource.from_lattice(spec)
        t = math.sqrt(1.2 * 0.8) * math.cosh(1.5)
        disc = spec.disc(math.sqrt(2 * t) + 1)
        width = int(2 * t / spec.beta_step) + 6
        l = np.floor((-1e6 - disc.offset - t) / spec.beta_step)[:, None] - 2 + np.arange(width)
        beta = (disc.offset[:, None] + l * spec.beta_step).ravel()
        d = _stabilizer_distances(np.repeat(disc.alpha, width), beta, z, w)
        for x in np.unique(d[d <= 3.0]).tolist():
            for delta in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                assert counting_function(src, z, w, delta) == np.count_nonzero(d <= delta)

    def test_counts_far_from_the_axis_match_the_box_scan(self):
        # s0 = w1 + conj(z1) + w2 conj(z2) cancels down to about -q at
        # z = w, so far from the axis its rounding is bounded by its terms,
        # not by |s0|: at |z2|^2 / q ~ 2e3 a bound by |s0| dropped the
        # alpha = 0 column, and the identity with it
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        z = ModelPoint.m3(-1.1705, 1.5 + 0.3j)
        assert counting_function(src, z, z, 0.0) == 1
        rng = np.random.default_rng(11)

        def draw():
            z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 3.5
            q = 10 ** rng.uniform(-3, 0)
            return ModelPoint.m3(complex(-(q + abs(z2) ** 2) / 2, rng.normal()), z2)

        for _ in range(60):
            z = draw()
            w = z if rng.uniform() < 0.5 else draw()
            d, _ = self.box_distances(GAUSSIAN_SPEC, z, w, 3.0)
            for delta in (0.0, 1.0, 2.0, 3.0):
                assert counting_function(src, z, w, delta) == np.count_nonzero(d <= delta)

    @pytest.mark.parametrize("k, delta_max", [(60, 1.5), (200, 1.0)])
    def test_skewed_basis_on_the_ridge_matches_the_box_scan(self, k, delta_max):
        # a2 = 0.999 + 0.01i puts ~100 columns in each unit of alpha area.
        # On the ridge <gamma z, z> = -(q + |alpha|^2/2) + i beta, so the
        # ball within delta lies in |alpha|^2 <= 2 (T - q), |beta| <= T
        spec, z = LatticeSpec(a2=0.999 + 0.01j), ridge_point(k)
        src = OrbitSource.from_lattice(spec)
        q = k / (2 * math.pi)
        t = q * math.cosh(delta_max / 2)
        pts = spec.points(math.sqrt(2 * (t - q)) + 1, t + 1)
        d = _stabilizer_distances(pts.alpha, pts.beta, z, z)
        for delta in np.arange(0.0, delta_max + 0.125, 0.25).tolist():
            assert counting_function(src, z, z, delta) == np.count_nonzero(d <= delta), delta
        assert min_displacement(src, z) == d[(pts.alpha != 0) | (pts.beta != 0)].min()


def _dyadic(x, bits):
    return round(x * 2.0**bits) / 2.0**bits


def _raw_pairing_draw(rng):
    """A lattice and two model-3 points on dyadic grids (a2 on 2^-8, step
    and offsets on 2^-3, z2 on 2^-10, q on 2^-21), so that every term of
    the raw pairing is exact in a 64-bit long double mantissa."""
    angle, ratio = rng.uniform(0.1, math.pi / 2), 10 ** rng.uniform(-0.3, 0.3)
    step = float(rng.choice([0.25, 0.5, 0.75, 1.0, 1.5, 2.5]))
    a, c = (_dyadic(x, 3) for x in rng.uniform(0, 2, 2))
    spec = LatticeSpec(
        a2=complex(_dyadic(ratio * math.cos(angle), 8), _dyadic(ratio * math.sin(angle), 8)),
        beta_step=step,
        beta_offset_rule=lambda m, n, a=a, c=c, s=step: (a * m + c * n) % s,
    )

    def point(q, z2, im):
        q = max(_dyadic(q, 21), 2.0**-20)
        return ModelPoint.m3(complex(-(q + z2.real**2 + z2.imag**2) / 2, _dyadic(im, 20)), z2)

    def grid(x):
        return complex(_dyadic(x.real, 10), _dyadic(x.imag, 10))

    qz = 10 ** rng.uniform(-6, 1)
    z2 = grid(10 ** rng.uniform(-2, 4) * cmath.exp(2j * math.pi * rng.uniform()))
    z = point(qz, z2, rng.normal())
    # w near z on the scale of sqrt(q), with Im w1 chosen to keep Im A(0)
    # near 0, or on the scale of the cell, so that counts are not all 0
    near = rng.uniform() < 0.7
    scale = math.sqrt(qz) * 10 ** rng.uniform(-1, 0.3) if near else 1.0
    shift = grid(complex(*rng.normal(size=2)) * scale)
    im = z.coords[0].imag - (shift * z2.conjugate()).imag + near * qz * rng.normal()
    w = point(qz * 10 ** rng.uniform(-0.3, 0.3), z2 + shift, im)
    return spec, z, w, float(rng.uniform(0, 4))


def _raw_pairing_count(spec, z, w, delta):
    """#{gamma : |<gamma w, z>|^2 <= qz qw cosh^2(delta/2)} over a box of
    columns centred at z2 - w2, with <gamma w, z> written out from the
    matrices in long double (exact on _raw_pairing_draw's grids), and the
    largest relative gap between a brute value and the threshold.  The box
    is sized by |<gamma w, z>| >= |Re| = (qz + qw + |alpha - (z2 - w2)|^2)/2
    and widened by half, and its outer ring must hold no counted point."""
    ld = np.longdouble
    (z1, z2), (w1, w2) = z.coords, w.coords
    qz, qw = (-(2 * ld(p1.real) + ld(p2.real) ** 2 + ld(p2.imag) ** 2) for p1, p2 in ((z1, z2), (w1, w2)))
    t = math.sqrt(float(qz * qw)) * math.cosh(delta / 2)
    radius = math.sqrt(2 * max(t - float(qz + qw) / 2, 0.0))
    centre = z2 - w2
    # the box of (m, n) around centre = x a1 + y a2 that holds the disc
    # |alpha - centre| <= 1.5 radius + 1
    a1, a2 = complex(spec.a1), complex(spec.a2)
    area = spec.cell_area
    x = (centre.real * a2.imag - centre.imag * a2.real) / area
    y = (a1.real * centre.imag - a1.imag * centre.real) / area
    reach = 1.5 * radius + 1
    m = np.arange(math.floor(x - reach * abs(a2) / area) - 1, math.ceil(x + reach * abs(a2) / area) + 2)
    n = np.arange(math.floor(y - reach * abs(a1) / area) - 1, math.ceil(y + reach * abs(a1) / area) + 2)
    m, n = (v.ravel() for v in np.meshgrid(m, n, indexing="ij"))
    alpha = (m * a1 + n * a2).astype(np.clongdouble)
    offset = np.asarray(spec.beta_offset_rule(m, n), dtype=float)

    def pairing(alpha, beta):
        u1 = w1 - np.conj(alpha) * w2 - (alpha.real**2 + alpha.imag**2) / 2 + 1j * beta
        return u1 + (w2 + alpha) * np.conj(z2) + np.conj(z1)

    # per column, the betas within t + 2 steps of -Im <gamma w, z> at beta = 0
    mid = -pairing(alpha, np.zeros(alpha.size, ld)).imag.astype(float) - offset
    lo = np.floor((mid - t) / spec.beta_step) - 2
    width = int(math.ceil(2 * t / spec.beta_step)) + 5
    col = np.repeat(np.arange(alpha.size), width)
    l = lo[col] + np.tile(np.arange(width), alpha.size)
    p = pairing(alpha[col], ld(offset[col]) + ld(l) * ld(spec.beta_step))
    ratio = (p.real**2 + p.imag**2) / (qz * qw) / ld(math.cosh(delta / 2)) ** 2
    inside = ratio <= 1
    ring = np.abs(alpha[col] - centre) > 1.01 * radius + 1e-9
    assert not (inside & ring).any()
    return int(np.count_nonzero(inside)), float(np.abs(ratio - 1).min())


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
def test_off_diagonal_counts_match_a_raw_pairing_brute_force():
    # z != w on skewed bases with dyadic offset rules, q from 1e-6 to 10
    # and |z2| up to 1e4, where s0 cancels ~1e14-fold; draws with a brute
    # value within 1e-12 relative of the threshold are skipped as ties
    rng = np.random.default_rng(2031)
    checked = positive = 0
    for _ in range(150):
        spec, z, w, delta = _raw_pairing_draw(rng)
        want, gap = _raw_pairing_count(spec, z, w, delta)
        if gap <= 1e-12:
            continue
        assert counting_function(OrbitSource.from_lattice(spec), z, w, delta) == want
        checked += 1
        positive += want > 0
    assert checked >= 140 and positive >= 60


def test_far_pair_counts_in_a_disc_about_z2_minus_w2():
    # w is 800 from z in z2, so the columns within delta sit near
    # alpha = -800; a disc sized by |z2 - w2| + sqrt(2 g_max) holds them in
    # ~2.1e6 cells, where one sized by a quadratic in |alpha| asked for 1e7
    z = ModelPoint.m3(-0.5, 0.0)
    w = ModelPoint.m3(-(1 + 800**2) / 2, 800.0)
    src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
    assert [counting_function(src, z, w, d) for d in (1.0, 2.0, 4.0)] == [1, 7, 107]


@pytest.mark.parametrize("q", [1e-200, 1e-155, 1e160])
def test_q_products_off_the_normal_doubles_raise(q):
    # qz qw = 0 at q = 1e-200, though beta = +-1 lie 2 asinh(1e200) ~ 922
    # from z, within delta = 1000; a subnormal or infinite qz qw loses the
    # relative accuracy every interval bound rests on
    src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
    z = ModelPoint.m3(-q / 2, 0.0)
    with pytest.raises(NumericalError, match="not a normal double"):
        counting_function(src, z, z, 1000.0)
    with pytest.raises(NumericalError, match="not a normal double"):
        min_displacement(src, z)


@pytest.mark.parametrize("eps", [3e-162, 2e-161, 1e-160, 1e-157])
def test_subnormal_sums_count_by_the_distance_test(eps):
    # d(z, w) = 2 eps puts S and the identity's b + (Im A + beta)^2 in the
    # subnormals, where each step rounds by up to 2^-1075, not relatively;
    # the identity counts exactly when its computed distance is within delta
    z = ModelPoint.m3(-0.5, 0.0)
    w = ModelPoint.m3(complex(-0.5, eps), 0.0)
    src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
    d = float(_stabilizer_distances(np.array([0j]), np.array([0.0]), z, w)[0])
    for delta in d * (1.0 + np.linspace(-1e-3, 1e-3, 41)):
        assert counting_function(src, z, w, float(delta)) == int(d <= delta)


def test_a_column_at_the_wide_bound_is_evaluated():
    # at this delta, qz qw sinh^2(delta/2) widened by its rounding bound is
    # b = 2.25 of the identity exactly, so the identity's column has an empty
    # wide half-width and no pad; delta is below d(z, w) = log 4, and only
    # evaluating the identity finds that it is out
    z, w = ModelPoint.m3(-0.5, 0.0), ModelPoint.m3(-2.0, 0.0)
    delta = float.fromhex("0x1.62e42fefa3988p+0")
    d = float(_stabilizer_distances(np.array([0j]), np.array([0.0]), z, w)[0])
    assert delta < d
    assert counting_function(OrbitSource.from_lattice(GAUSSIAN_SPEC), z, w, delta) == 0


class TestElementSources:
    """Element-list orbits keep the checks apply and cosh2_half_distance make."""

    def test_isometry_of_another_form_rejected(self):
        g = stabilizer_matrix(GAUSSIAN_SPEC.param(1, 0, 0), Model.M3)
        z = ModelPoint.ball([0.1, 0.2])
        src = OrbitSource.from_elements([g])
        with pytest.raises(DomainError):
            counting_function(src, z, z, 1.0)
        with pytest.raises(DomainError):
            min_displacement(src, z)
        with pytest.raises(DomainError):
            orbit_cosh_power_sum([g], z, 6)

    def test_forms_equal_within_tolerance_share_an_orbit(self):
        # apply accepts an isometry of a form within HERMITIAN_TOL of the ball
        # form's, so one list may hold it next to an isometry of ball_form(2)
        near = HermitianForm(np.diag([1.0, 1.0 + 1e-13, -1.0]).astype(complex))
        assert near == ball_form(2) and near.entries.tobytes() != ball_form(2).entries.tobytes()
        z = ModelPoint.ball([0.1, 0.2])
        g = Isometry(np.diag([-1.0, 1.0, 1.0]), ball_form(2))
        h = Isometry(np.diag([1j, -1.0, 1.0]), near)
        d = sorted(min_displacement(OrbitSource.from_elements([e]), z) for e in (g, h))
        assert d == pytest.approx(sorted(distance(z, apply(e, z)) for e in (g, h)), rel=1e-12)
        src = OrbitSource.from_elements([g, h])
        assert min_displacement(src, z) == d[0]
        assert [counting_function(src, z, z, delta) for delta in d] == [1, 2]
        assert orbit_cosh_power_sum([g, h], z, 6).log() == pytest.approx(
            math.log(sum(math.cosh(x / 2) ** -6 for x in d))
        )

    def test_points_of_different_models_rejected(self):
        g = stabilizer_matrix(GAUSSIAN_SPEC.param(1, 0, 0), Model.M3)
        z = ModelPoint.m2(2j, 0.0)
        w = ModelPoint.m3(-1.0, 0.0)
        with pytest.raises(DomainError):
            counting_function(OrbitSource.from_elements([g]), z, w, 1.0)

    def test_no_nontrivial_element(self):
        z = ModelPoint.ball([0.1, 0.2])
        for elements in ([], [Isometry(np.eye(3), ball_form(2))]):
            with pytest.raises(DomainError):
                min_displacement(OrbitSource.from_elements(elements), z)

    def test_source_needs_exactly_one_of_elements_or_lattice(self):
        for kwargs in ({}, {"elements": (), "lattice": GAUSSIAN_SPEC}):
            with pytest.raises(DomainError, match="exactly one"):
                OrbitSource(**kwargs)

    def test_lattice_source_rejects_ball_points(self):
        z = ModelPoint.ball([0.1, 0.2])
        with pytest.raises(DomainError, match="act on model-3 points"):
            counting_function(OrbitSource.from_lattice(GAUSSIAN_SPEC), z, z, 1.0)


class TestCountingUpperBound:
    def test_delta_zero_collapse(self):
        for n in (2, 3, 4):
            want = 4 * math.pi / math.factorial(n)
            assert counting_upper_bound(n, 1.3, 0.0) == pytest.approx(want, rel=1e-12)

    def test_direct_evaluation(self):
        want = 2 * math.pi * math.sinh(0.75) ** 4 / math.sinh(0.25) ** 4
        got = counting_upper_bound(2, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.053e2, rel=1e-3)

    def test_monotonicity(self):
        assert counting_upper_bound(2, 1.0, 2.0) > counting_upper_bound(2, 1.0, 1.0)
        assert counting_upper_bound(2, 2.0, 1.0) < counting_upper_bound(2, 1.0, 1.0)

    def test_large_arguments(self):
        assert counting_upper_bound(2, 3000.0, 0.0) == pytest.approx(2 * math.pi, rel=1e-12)
        with pytest.raises(NumericalError):
            counting_upper_bound(2, 1.0, 3000.0)

    def test_rejects_bad_radius(self):
        for r_x in (0.0, math.inf, math.nan):
            with pytest.raises(PreconditionError):
                counting_upper_bound(2, r_x, 1.0)
        with pytest.raises(PreconditionError, match="delta"):
            counting_upper_bound(2, 1.0, -0.5)

    def test_dominates_lattice_counts(self):
        z = ridge_point(6)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        rx = min_displacement(src, z)
        for delta in np.linspace(0, 4, 9):
            assert counting_upper_bound(2, rx, delta) >= counting_function(src, z, z, delta)


# the lattices of the counting argument: Gaussian, Eisenstein with offset
# 1/4 on its odd columns, and offsets 0.1 (m mod 3) that are not symmetric
_ARGUMENT_SPECS = {
    "gaussian": GAUSSIAN_SPEC,
    "eisenstein": LatticeSpec(
        a2=complex(0.5, math.sqrt(3) / 2),
        beta_step=0.5,
        beta_offset_rule=lambda m, n: 0.25 * ((m * n) % 2),
    ),
    "skew": LatticeSpec(beta_offset_rule=lambda m, n: 0.1 * (m % 3)),
}


def random_m3_points(seed, count):
    """Model-3 points (z1, z2) with height q = -2 Re z1 - |z2|^2 log-uniform
    in [10^-1.5, 10^0.5], so that min_displacement runs from ~0.5 to ~7."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        q = 10.0 ** rng.uniform(-1.5, 0.5)
        z2 = complex(*rng.normal(size=2))
        points.append(ModelPoint.m3(complex(-(q + abs(z2) ** 2) / 2, rng.normal()), z2))
    return points


@pytest.mark.parametrize("name", sorted(_ARGUMENT_SPECS))
def test_paper_counting_argument_on_random_orbits(name):
    """The paper's counting argument on concrete orbits.  With r_x the
    orbit's minimal displacement, the radius-r_x/2 balls around the orbit
    points are disjoint, so counting_upper_bound bounds the count within
    any delta, and the cocompact closed form with C(k) = 1 bounds the whole
    orbit sum of cosh^-k(d/2), so also its exact head within delta = 6."""
    spec = _ARGUMENT_SPECS[name]
    src = OrbitSource.from_lattice(spec)
    for z in random_m3_points(7, 8):
        rx = min_displacement(src, z)
        for k in (6, 8, 20):
            f = lambda rho, k=k: math.cosh(rho / 2.0) ** -float(k)
            head = tail_bound_terms(f, 2, rx, 6.0, src, z, z).head
            closed = cocompact_bound(2, k, rx, ConstantModel(1.0, 0)).total.to_float()
            assert 1.0 - 1e-9 <= head <= closed, (k, rx, head, closed)
        for delta in np.linspace(0.0, 6.0, 13).tolist():
            assert counting_function(src, z, z, delta) <= counting_upper_bound(2, rx, delta)


class TestTailBound:
    def setup_method(self):
        self.z = ridge_point(6)
        self.src = OrbitSource.from_lattice(GAUSSIAN_SPEC)

    def test_middle_term_value(self):
        # f = exp(-rho) at delta = 3 rx/4 with rx = 1
        f = lambda rho: math.exp(-rho)
        want = math.exp(-0.75) * 2 * math.pi * math.sinh(0.625) ** 4 / math.sinh(0.25) ** 4
        got = f(0.75) * counting_upper_bound(2, 1.0, 0.75)
        assert got == pytest.approx(want, rel=1e-12)

    def test_exponential_tail_integral_does_not_exist(self):
        # exp(-rho) decays slower than the sinh^4 growth at n = 2
        with pytest.raises(NumericalError):
            tail_bound(lambda r: math.exp(-r), 2, 1.0, 0.75, self.src, self.z, self.z)

    def test_cosh_power_dominates_direct_sum(self):
        k = 6
        f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
        total = tail_bound(f, 2, 1.0, 0.75, self.src, self.z, self.z)
        assert math.isfinite(total)
        # direct truncated series over a large box
        a0 = k / (2 * math.pi)
        m = np.arange(-30, 31)
        s2 = (m[:, None] ** 2 + m[None, :] ** 2).ravel()
        a = a0 + s2 / 2.0
        l = np.arange(-200, 201)
        cosh2 = (a[:, None] ** 2 + l[None, :] ** 2) / a0**2
        series = float((cosh2 ** (-k / 2.0)).sum())
        assert total >= series

    def test_dominates_tail_restricted_series(self):
        k, delta = 6, 2.0
        f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
        terms = tail_bound_terms(f, 2, 1.5, delta, self.src, self.z, self.z)
        a0 = k / (2 * math.pi)
        m = np.arange(-30, 31)
        s2 = (m[:, None] ** 2 + m[None, :] ** 2).ravel()
        a = a0 + s2 / 2.0
        l = np.arange(-200, 201)
        cosh2 = ((a[:, None] ** 2 + l[None, :] ** 2) / a0**2).ravel()
        thresh = math.cosh(delta / 2.0) ** 2
        tail_series = float((cosh2[cosh2 > thresh] ** (-k / 2.0)).sum())
        assert terms.middle + terms.integral >= tail_series

    def test_terms_vanish_as_delta_grows(self):
        f = lambda rho: math.cosh(rho / 2.0) ** -8.0
        deltas = (1.0, 2.0, 3.0, 4.0, 5.0)
        mids, tails = [], []
        for d in deltas:
            t = tail_bound_terms(f, 2, 1.5, d, self.src, self.z, self.z)
            mids.append(t.middle)
            tails.append(t.integral)
        assert all(b < a for a, b in zip(mids, mids[1:]))
        assert all(b < a for a, b in zip(tails, tails[1:]))

    def test_delta_precondition(self):
        f = lambda rho: math.cosh(rho / 2.0) ** -8.0
        with pytest.raises(PreconditionError):
            tail_bound(f, 2, 2.0, 0.9, self.src, self.z, self.z)

    def test_nonmonotone_f_rejected(self):
        with pytest.raises(PreconditionError):
            tail_bound(lambda r: 1 + math.sin(3 * r) ** 2, 2, 1.0, 0.75, self.src, self.z, self.z)

    @pytest.mark.parametrize(
        "f",
        [lambda r: 0.0, lambda r: math.exp(-r * r) if r < 4 else math.nan],
        ids=["zero", "nan-far-out"],
    )
    def test_f_zero_at_the_start_or_nan_rejected(self, f):
        with pytest.raises(PreconditionError, match="f must be positive"):
            tail_bound(f, 2, 1.0, 0.75, self.src, self.z, self.z)

    @pytest.mark.parametrize("k", [100, 200])
    def test_paper_weight_underflowing_on_the_sampled_grid(self, k):
        # cosh^-k(rho/2) is 0.0 in doubles past rho = 16.3 at k = 100 and
        # past 8.9 at k = 200, inside the monotonicity grid up to 2 delta + 5
        z = ridge_point(k)
        f = lambda rho: math.cosh(rho / 2.0) ** -float(k)
        assert f(2 * 6.0 + 5.0) == 0.0
        terms = tail_bound_terms(f, 2, 0.5, 6.0, self.src, z, z)
        # on the ridge the orbit sum is the stabilizer lattice sum
        res = cusp_lattice_sum(k, GAUSSIAN_SPEC, 1e-12)
        assert terms.head == pytest.approx(res.value.to_float(), rel=1e-12)
        assert 0 < terms.middle + terms.integral < 1e-80


_RIDGE_6 = ridge_point(6)
_N_CALLS = {
    "cocompact_bound": lambda n: cocompact_bound(n, 8, 1.0, ConstantModel()),
    "ball_volume": lambda n: ball_volume(n, 1.0),
    "ball_volume_constant": ball_volume_constant,
    "counting_upper_bound": lambda n: counting_upper_bound(n, 1.0, 3.0),
    "tail_bound": lambda n: tail_bound(
        lambda r: math.cosh(r / 2.0) ** -8.0,
        n,
        1.0,
        0.75,
        OrbitSource.from_lattice(GAUSSIAN_SPEC),
        _RIDGE_6,
        _RIDGE_6,
    ),
    "ball_form": ball_form,
}


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None], ids=repr)
@pytest.mark.parametrize("call", _N_CALLS.values(), ids=_N_CALLS.keys())
def test_dimension_must_be_an_integer(call, n):
    # checked before any other use of n; with the form of n = 2 cached, a
    # float 2.0 must not find it
    ball_form(2)
    with pytest.raises(PreconditionError, match=f"^n: must be an integer, not {type(n).__name__}$"):
        call(n)


@pytest.mark.parametrize(
    "call, n, error, match",
    [
        (_N_CALLS["cocompact_bound"], 1, PreconditionError, "^n: need n >= 2, got 1$"),
        (_N_CALLS["ball_volume"], 1, PreconditionError, "^n: need n >= 2, got 1$"),
        (ball_volume_constant, -1, PreconditionError, "needs 0 <= n <= 170"),
        (_N_CALLS["counting_upper_bound"], 171, PreconditionError, "needs 0 <= n <= 170"),
        (_N_CALLS["tail_bound"], 0, PreconditionError, "^n: need n >= 1, got 0$"),
        (ball_form, 1, DimensionError, "ball model needs n >= 2"),
    ],
    ids=_N_CALLS.keys(),
)
def test_dimension_lower_bounds(call, n, error, match):
    with pytest.raises(error, match=match):
        call(n)


class TestGaussKronrod:
    @pytest.mark.parametrize(
        "f, lo, want",
        [
            (lambda r: math.exp(-r), 0.0, 1.0),
            (lambda r: r**-3, 1.0, 0.5),
            (lambda r: 1.0 / (1.0 + r * r), 0.0, math.pi / 2),
            (lambda r: math.exp(-r * r), 2.0, math.sqrt(math.pi) / 2 * math.erfc(2.0)),
        ],
    )
    def test_known_integrals(self, f, lo, want):
        val, err = _integrate_to_inf(f, lo)
        assert err <= max(_TAIL_EPSABS, _TAIL_EPSREL * val)
        assert val == pytest.approx(want, rel=1e-13)

    def test_panel_limit_stops_refinement(self):
        # r^-1.01 has a heavy tail, a singularity at t = 1 that halving
        # cannot resolve: the panel cap stops refinement short of the target
        calls = []

        def f(r):
            calls.append(r)
            return r**-1.01

        val, err = _integrate_to_inf(f, 1.0)
        assert math.isfinite(val) and err > max(_TAIL_EPSABS, _TAIL_EPSREL * val)
        # each panel takes 2n + n nodes, and each halving adds two panels
        assert len(calls) <= 3 * _GL_NODES * (2 * _TAIL_PANELS - 1)


class TestDisplacement:
    def test_min_displacement_on_ridge(self):
        # the closest stabilizer translate on the ridge comes from (0, +-1):
        # cosh^2(d/2) = (a0^2 + 1)/a0^2
        k = 6
        a0 = k / (2 * math.pi)
        want = 2 * math.acosh(math.sqrt((a0**2 + 1) / a0**2))
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        got = min_displacement(src, ridge_point(6))
        assert got == pytest.approx(want, rel=1e-12)

    def test_min_displacement_explicit(self):
        form = ball_form(2)
        z = ModelPoint.ball([0.1, 0.2])
        gs = [random_isometry(form, s) for s in (1, 2, 3)]
        src = OrbitSource.from_elements(gs + [Isometry(np.eye(3), form)])
        from pbl import apply, distance

        want = min(distance(z, apply(g, z)) for g in gs)
        assert min_displacement(src, z) == pytest.approx(want, rel=1e-12)

    def test_slice_injectivity_radius(self):
        # on the slice q <= a0, p = 0 the per-element closed form reduces to
        # the ridge displacement, so the minimum matches min_displacement
        k = 6
        a0 = k / (2 * math.pi)
        src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
        got = stabilizer_injectivity_radius(GAUSSIAN_SPEC, q_max=a0, p_max=0.0)
        assert got == pytest.approx(min_displacement(src, ridge_point(k)), rel=1e-9)

    def test_non_finite_offsets_rejected(self):
        spec = LatticeSpec(beta_offset_rule=lambda m, n: math.nan)
        with pytest.raises(DomainError, match="offsets"):
            min_displacement(OrbitSource.from_lattice(spec), ridge_point(6))
        with pytest.raises(DomainError, match="offsets"):
            stabilizer_injectivity_radius(spec, q_max=1.0)

    def test_slice_radius_shrinks_with_larger_slice(self):
        r1 = stabilizer_injectivity_radius(GAUSSIAN_SPEC, q_max=1.0)
        r2 = stabilizer_injectivity_radius(GAUSSIAN_SPEC, q_max=4.0)
        assert r2 < r1

    @pytest.mark.parametrize(
        "rule",
        [None, lambda m, n: 0.25 * ((m * n) % 2), lambda m, n: 0.1 * (m % 3)],
        ids=["gaussian", "eisenstein", "skew"],
    )
    def test_seed_box_is_the_nontrivial_unit_box(self, rule):
        # the 35 nontrivial points with m, n in {-1, 0, 1} and, per column,
        # the two l whose beta is <= 0 nearest it and the two with beta > 0
        # nearest it, in the order and with the values spec.param gives them
        # one at a time
        spec = LatticeSpec(a2=cmath.exp(1j * math.pi / 3), beta_step=0.5, beta_offset_rule=rule)
        params = []
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                column = [spec.param(m, n, l) for l in range(-6, 7)]
                below = [p for p in column if p.beta <= 0][-2:]
                params += below + [p for p in column if p.beta > 0][:2]
        params = [p for p in params if (p.alpha, p.beta) != (0, 0)]
        alpha, beta = _seed_box(spec)
        assert len(params) == 35
        assert alpha.tolist() == [p.alpha for p in params]
        assert beta.tolist() == [p.beta for p in params]

    def test_offsets_shifted_by_whole_steps_keep_their_minima(self):
        # 1e6 + 0.3 m is the lattice of 0.3 m, up to the rounding of the
        # shift: a seed taken at l in {-1, 0, 1} sat near |beta| = 1e6, and
        # its candidate radius asked for an alpha disc of ~8e6 points
        shifted = LatticeSpec(beta_offset_rule=lambda m, n: 1e6 + 0.3 * m)
        plain = LatticeSpec(beta_offset_rule=lambda m, n: 0.3 * m)
        z = ridge_point(6)
        assert min_displacement(OrbitSource.from_lattice(shifted), z) == pytest.approx(
            min_displacement(OrbitSource.from_lattice(plain), z), rel=1e-9
        )
        assert stabilizer_injectivity_radius(shifted, 1.0) == pytest.approx(
            stabilizer_injectivity_radius(plain, 1.0), rel=1e-9
        )

    def test_slice_radius_takes_a_step_near_the_double_range(self):
        # l = 2 puts beta past 1.8e308, infinitely far, without an overflow
        # warning; the minimum is alpha = 1, beta = 0: u = 1/2, so
        # sinh(d/2) = sqrt(u (2 + u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stabilizer_injectivity_radius(LatticeSpec(beta_step=1e308), 1.0)
        assert got == pytest.approx(2 * math.asinh(math.sqrt(1.25)), rel=1e-15)

    @pytest.mark.parametrize("height", [1e5, 1e6])
    def test_elongated_cell_keeps_its_gaussian_minimum(self, height):
        # the minimum on the ridge comes from alpha = 0, beta = +-1, which
        # every a2 keeps; a seed whose size grows with the cell diameter
        # would instead enumerate ~6 height points and exceed the budget
        spec = LatticeSpec(a2=complex(0, height))
        got = min_displacement(OrbitSource.from_lattice(spec), ridge_point(6))
        assert got == min_displacement(OrbitSource.from_lattice(GAUSSIAN_SPEC), ridge_point(6))

    @pytest.mark.parametrize(
        "spec, p_max",
        [(LatticeSpec(a1=1e17, a2=1e17j), 0.3), (LatticeSpec(a2=1e6j), 0.0)],
        ids=["huge-cell", "elongated-cell"],
    )
    def test_slice_radius_takes_each_column_in_closed_form(self, spec, p_max):
        # alpha = 0, beta = +-1 gives the minimum cosh^2(d/2) = 1 + 1/q^2; a
        # box around the candidate held ~1.5e18 and ~6e6 points here
        got = stabilizer_injectivity_radius(spec, q_max=1.0, p_max=p_max)
        assert got == pytest.approx(2 * math.acosh(math.sqrt(2.0)), rel=1e-15)

    @pytest.mark.parametrize(
        "q_max, p_max, error",
        [
            (0.0, 0.0, PreconditionError),
            (1.0, math.inf, PreconditionError),
            (1.0, math.nan, PreconditionError),
        ],
    )
    def test_slice_radius_rejects_what_it_cannot_resolve(self, q_max, p_max, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                stabilizer_injectivity_radius(GAUSSIAN_SPEC, q_max, p_max)

    def test_slice_radius_keeps_the_digits_of_a_tiny_cell(self):
        # |alpha|^2 = 1.5e-320 is subnormal, with about 4 digits, so
        # sqrt(u) is |alpha| / sqrt(2 q_max); with u = 7.6e-21 the distance
        # 2 asinh(sqrt(u (2 + u))) is 2 |alpha| / sqrt(q_max) to 1e-20
        a, q_max = 1.2345e-160, 1e-300
        spec = LatticeSpec(a1=a, a2=a * 1j, beta_step=1e10)
        got = stabilizer_injectivity_radius(spec, q_max)
        assert got == pytest.approx(2 * a / math.sqrt(q_max), rel=1e-15)

    def test_slice_radius_rejects_an_underflowing_sinh(self):
        # on the alpha = 0 line beta = +-1e-300 at q_max = 1e30 gives
        # sinh(d/2) = v = 1e-330, which underflows to 0, a distance of 0 (on
        # the Gaussian lattice q_max = 1e200 still resolves: sinh(d/2) =
        # 1e-100, where sinh^2(d/2) was 1e-200 and 1e-400)
        spec = LatticeSpec(a1=1e-160, a2=1e-160j, beta_step=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="underflows"):
                stabilizer_injectivity_radius(spec, 1e30)

    def test_huge_alpha_cell_minimum_on_its_zero_line(self):
        # |alpha|^2 overflows for every nonzero alpha, so the minimum comes
        # from alpha = 0, beta = +-1, as on the Gaussian ridge
        spec = LatticeSpec(a1=1e154, a2=1e154j)
        got = min_displacement(OrbitSource.from_lattice(spec), ridge_point(6))
        assert got == min_displacement(OrbitSource.from_lattice(GAUSSIAN_SPEC), ridge_point(6))
        # the slice q <= 1, p = 0: cosh^2(d/2) = 1 + 1/q^2
        got = stabilizer_injectivity_radius(spec, q_max=1.0)
        assert got == pytest.approx(2 * math.acosh(math.sqrt(2.0)), rel=1e-15)


def _band_of_two():
    # delta = d(z, gamma z) for gamma = (0, 1) puts both ends of the alpha = 0
    # column's interval on a lattice point, so the band holds l = -1 and 1;
    # the disc of that radius is the alpha = 0 column alone (an index box of 1)
    z = ridge_point(6)
    delta = float(_stabilizer_distances(np.array([0j]), np.array([1.0]), z, z)[0])
    return counting_function(OrbitSource.from_lattice(GAUSSIAN_SPEC), z, z, delta)


# the hexagonal lattice with beta offsets 0, 10, 20 of step 30 on the three
# cosets of m - n mod 3: every nonzero alpha of the seed box off the coset
# of 0 has |beta| >= 10, so the slice minimum comes from |alpha| = sqrt(3)
_THIRDS = LatticeSpec(
    a2=cmath.exp(1j * math.pi / 3), beta_step=30.0, beta_offset_rule=lambda m, n: 10.0 * ((m - n) % 3)
)


def _head_of_787():
    # 787 points in 57 columns, whose index box is 81
    f = lambda r: math.cosh(r / 2) ** -12.0
    z, src = ridge_point(6), OrbitSource.from_lattice(GAUSSIAN_SPEC)
    return tail_bound_terms(f, 2, 0.5, 6.0, src, z, z)


class TestEnumerationBudget:
    """Every (alpha, beta) point set is checked against pbl.lattice._MAX_ENUM
    before it is built, and its NumericalError names the set."""

    @pytest.mark.parametrize(
        "budget, what, call",
        [
            (30, "the lattice ball", lambda: GAUSSIAN_SPEC.points(2.0, 10.0)),
            (
                35,
                "the seed box",
                lambda: min_displacement(OrbitSource.from_lattice(GAUSSIAN_SPEC), ridge_point(6)),
            ),
            (1, "the orbit band", _band_of_two),
            (100, "the orbit ball", _head_of_787),
            # the seed box (36 points) and the index box of the 13-column
            # disc (25) fit, its 4 l per column do not
            (36, "the slice grid", lambda: stabilizer_injectivity_radius(_THIRDS, 1.0)),
        ],
        ids=["points", "min_displacement", "counting_function", "tail_bound_terms", "slice"],
    )
    def test_each_point_set_names_itself_past_the_budget(self, monkeypatch, budget, what, call):
        call()
        monkeypatch.setattr(pbl.lattice, "_MAX_ENUM", budget)
        with pytest.raises(NumericalError, match=f"^{what}.* needs ~.* points \\(> {budget}\\)$"):
            call()
