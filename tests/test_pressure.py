import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import pressure as pr
from pedflow.errors import CongestionOverflowError, DomainError


def make_params(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0):
    return pr.PressureParams(M=M, m=m, eps=eps, gamma=gamma, rho_star=rho_star)


ALL_WEIGHTS = [
    pr.CrowdingWeight(kind="constant"),
    pr.CrowdingWeight(kind="affine", beta=1.0),
    pr.CrowdingWeight(kind="power", beta=1.5),
]


def background(params, rho):
    return pr.one_way_offsets(params, rho)[0]


def singular(params, rho):
    return pr.one_way_offsets(params, rho)[1]


class TestBackground:
    def test_zero_density(self):
        assert background(make_params(M=1, m=2), 0.0) == 0.0

    def test_power_evaluation(self):
        assert background(make_params(M=1, m=2), 0.5) == 0.25

    def test_zero_amplitude(self):
        assert background(make_params(M=0, m=2), 0.9) == 0.0

    def test_negative_density_raises(self):
        with pytest.raises(DomainError):
            pr.one_way_offsets(make_params(), -0.1)

    def test_monotone(self):
        params = make_params(M=2.0, m=1.5)
        rho = np.linspace(0, 0.99, 100)
        p = background(params, rho)
        assert np.all(np.diff(p) >= 0)

    def test_derivative_matches_fd(self):
        params = make_params(M=2.0, m=2.5, eps=0.0)
        for rho in (0.1, 0.4, 0.8):
            h = 1e-6
            fd = (background(params, rho + h) - background(params, rho - h)) / (2 * h)
            dP = pr.one_way_offsets(params, rho, partials=True)[2]
            assert dP == pytest.approx(fd, rel=1e-8)


class TestSingularCorrection:
    def test_unit_denominator(self):
        # (1/0.5 - 1)^2 = 1, so the correction equals eps
        params = make_params(eps=1e-3, gamma=2.0)
        assert singular(params, 0.5) == pytest.approx(1e-3)

    def test_vacuum_continuity(self):
        assert singular(make_params(eps=0.7), 0.0) == 0.0

    def test_near_jam_value(self):
        # eps/(1/0.99 - 1)^2 = eps * 0.99^2 / 0.01^2 = 9.801 exactly
        params = make_params(eps=1e-3, gamma=2.0)
        assert singular(params, 0.99) == pytest.approx(9.801, rel=1e-10)

    def test_jam_density_raises(self):
        params = make_params()
        with pytest.raises(CongestionOverflowError):
            pr.one_way_offsets(params, 1.0)
        with pytest.raises(CongestionOverflowError):
            pr.one_way_offsets(params, 1.0 - 1e-14, partials=True)

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            pr.one_way_offsets(make_params(), -0.5, partials=True)

    def test_strictly_increasing(self):
        params = make_params(eps=1e-2, gamma=3.0)
        rho = np.linspace(1e-3, 0.999, 200)
        q = singular(params, rho)
        assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_order_eps_away_from_jam(self, eps, gamma):
        # At fixed distance from the jam density the correction is O(eps):
        # on rho <= 0.9 the bound eps * 9**gamma is attained at 0.9.
        params = make_params(eps=eps, gamma=gamma)
        rho = np.linspace(0.0, 0.9, 400)
        q = singular(params, rho)
        assert np.all(q <= eps * 9.0**gamma * (1 + 1e-12))

    def test_derivative_matches_fd(self):
        params = make_params(eps=1e-2, gamma=2.5)
        for rho in (0.2, 0.5, 0.8):
            h = 1e-7
            fd = (singular(params, rho + h) - singular(params, rho - h)) / (2 * h)
            dS = pr.one_way_offsets(params, rho, partials=True)[3]
            assert dS == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("rho", [1e-200, 5e-324, np.array([0.0, 1e-300, 0.5])])
    def test_finite_below_the_vacuum_floor(self, rho):
        # 1/rho overflows or z**(gamma + 1) * rho**2 is inf * 0 there; the
        # correction and its partial are 0 below the floor instead
        parts = pr.one_way_offsets(make_params(eps=1e-3, gamma=2.0), rho, partials=True)
        assert all(np.all(np.isfinite(part)) for part in parts)
        tiny = np.asarray(rho) < pr.VACUUM_FLOOR
        assert np.all(np.asarray(parts[1])[tiny] == 0.0)
        assert np.all(np.asarray(parts[3])[tiny] == 0.0)


class TestCrossoverWidth:
    def test_at_jam(self):
        params = make_params(eps=1e-4, gamma=2.0)
        assert pr.crossover_width(params, 1.0) == pytest.approx(0.01)

    def test_zero_eps(self):
        assert pr.crossover_width(make_params(eps=0.0), 0.5) == 0.0

    def test_half_density(self):
        params = make_params(eps=1e-2, gamma=2.0)
        assert pr.crossover_width(params, 0.5) == pytest.approx(0.05)


class TestTwoWayPressure:
    def test_symmetric_arguments(self):
        # the mirrored direction: one weight at equal densities gives equal
        # offsets, and swapping densities and weights swaps the offsets
        params = make_params()
        for q in ALL_WEIGHTS:
            p_plus, p_minus = pr.two_way_offsets(params, q, q, 0.3, 0.3)
            assert p_plus == p_minus
            for q_other in ALL_WEIGHTS:
                a_plus, a_minus = pr.two_way_offsets(params, q, q_other, 0.4, 0.2)
                b_plus, b_minus = pr.two_way_offsets(params, q_other, q, 0.2, 0.4)
                assert (b_plus, b_minus) == (a_minus, a_plus)

    @pytest.mark.parametrize("q", ALL_WEIGHTS)
    def test_reciprocity_identity(self, q):
        # q(r+) * Q(r+, r-) == q(r-) * Q(r-, r+) at every admissible pair
        params = make_params(eps=1e-3, gamma=2.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            r_plus = rng.uniform(0.01, 0.7)
            r_minus = rng.uniform(0.01, 0.95 - r_plus)
            total = r_plus + r_minus
            bg = background(params, total)
            q_plus = pr.two_way_pressure(params, q, r_plus, r_minus) - bg
            q_minus = pr.two_way_pressure(params, q, r_minus, r_plus) - bg
            lhs = q.value(r_plus, params.rho_star) * q_plus
            rhs = q.value(r_minus, params.rho_star) * q_minus
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_eps_reduces_to_background(self):
        params = make_params(eps=0.0)
        q = pr.CrowdingWeight()
        assert pr.two_way_pressure(params, q, 0.3, 0.4) == pytest.approx(
            background(params, 0.7)
        )

    def test_overflow(self):
        params = make_params()
        with pytest.raises(CongestionOverflowError):
            pr.two_way_pressure(params, pr.CrowdingWeight(), 0.6, 0.4)

    def test_monotone_in_own_density(self):
        params = make_params(eps=1e-3)
        q = pr.CrowdingWeight()
        rho_own = np.linspace(1e-3, 0.6, 100)
        p = pr.two_way_pressure(params, q, rho_own, 0.3)
        assert np.all(np.diff(p) > 0)


class TestPressurePartials:
    def test_linear_background(self):
        params = make_params(M=1.0, m=1.0, eps=0.0)
        d1, d2 = pr.pressure_partials(params, pr.CrowdingWeight(), 0.3, 0.2)
        assert d1 == pytest.approx(1.0)
        assert d2 == pytest.approx(1.0)

    @pytest.mark.parametrize("q", ALL_WEIGHTS)
    def test_matches_finite_differences(self, q):
        params = make_params(eps=1e-3, gamma=2.0)
        h = 1e-6 * params.rho_star
        rng = np.random.default_rng(3)
        for _ in range(50):
            r_plus = rng.uniform(0.05, 0.5)
            r_minus = rng.uniform(0.05, 0.75 - r_plus)  # away from the jam band
            d1, d2 = pr.pressure_partials(params, q, r_plus, r_minus)
            fd1 = (
                pr.two_way_pressure(params, q, r_plus + h, r_minus)
                - pr.two_way_pressure(params, q, r_plus - h, r_minus)
            ) / (2 * h)
            fd2 = (
                pr.two_way_pressure(params, q, r_plus, r_minus + h)
                - pr.two_way_pressure(params, q, r_plus, r_minus - h)
            ) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-5)
            assert d2 == pytest.approx(fd2, rel=1e-5)

    def test_nonnegative(self):
        params = make_params(eps=1e-3)
        for q in ALL_WEIGHTS:
            rng = np.random.default_rng(11)
            for _ in range(100):
                r_plus = rng.uniform(0.0, 0.6)
                r_minus = rng.uniform(0.0, 0.9 - r_plus)
                d1, d2 = pr.pressure_partials(params, q, r_plus, r_minus)
                assert d1 >= 0.0
                assert d2 >= 0.0

    def test_blows_up_near_jam(self):
        params = make_params(eps=1e-3)
        q = pr.CrowdingWeight()
        d1_far, _ = pr.pressure_partials(params, q, 0.3, 0.3)
        d1_near, _ = pr.pressure_partials(params, q, 0.5, 0.499999)
        assert d1_near > 1e3 * d1_far


class TestCrowdingWeight:
    def test_kinds_positive_increasing_bounded(self):
        rho = np.linspace(0.0, 1.0, 50)
        for q in ALL_WEIGHTS:
            v = q.value(rho, 1.0)
            assert np.all(v > 0)
            assert np.all(np.diff(v) >= 0)
            assert np.all(v <= 4.0)  # O(1) on [0, rho_star]

    def test_derivative_matches_fd(self):
        for q in ALL_WEIGHTS:
            for rho in (0.1, 0.5, 0.9):
                h = 1e-7
                fd = (q.value(rho + h, 1.0) - q.value(rho - h, 1.0)) / (2 * h)
                assert q.derivative(rho, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            pr.CrowdingWeight(kind="affine", beta=-0.5)


class TestParamsValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            make_params(M=-1.0)
        with pytest.raises(DomainError):
            make_params(m=0.5)
        with pytest.raises(DomainError):
            make_params(eps=-1e-3)
        with pytest.raises(DomainError):
            make_params(gamma=1.0)
        with pytest.raises(DomainError):
            make_params(rho_star=0.0)


# The per-direction two_way_pressure and pressure_partials that
# two_way_offsets replaced, kept as the reference.  Their correction and
# partials start at the vacuum floor of two_way_offsets (they started at
# total > 0, where a subnormal total overflowed z**gamma).


def reference_two_way_pressure(params, q, rho_own, rho_other):
    own = np.asarray(rho_own, dtype=float)
    oth = np.asarray(rho_other, dtype=float)
    pr._check_nonnegative(own, "rho_own")
    pr._check_nonnegative(oth, "rho_other")
    total = own + oth
    pr._check_admissible(total, params.rho_star)
    r = np.asarray(total, dtype=float)
    out = np.asarray(params.M * r**params.m, dtype=float).copy()
    if params.eps > 0:
        pos = total >= pr.VACUUM_FLOOR
        qv = np.asarray(q.value(own, params.rho_star))
        z = np.where(pos, 1.0 / np.where(pos, total, 1.0) - 1.0 / params.rho_star, 1.0)
        corr = np.where(pos, params.eps / (qv * z**params.gamma), 0.0)
        out = out + corr
    return float(out) if own.ndim == oth.ndim == 0 else out


def reference_pressure_partials(params, q, rho_own, rho_other):
    own = np.asarray(rho_own, dtype=float)
    oth = np.asarray(rho_other, dtype=float)
    pr._check_nonnegative(own, "rho_own")
    pr._check_nonnegative(oth, "rho_other")
    total = own + oth
    pr._check_admissible(total, params.rho_star)
    r = np.asarray(total, dtype=float)
    dP = np.asarray(params.M * params.m * r ** (params.m - 1.0), dtype=float)
    d1 = dP.copy()
    d2 = dP.copy()
    if params.eps > 0:
        pos = total >= pr.VACUUM_FLOOR
        tot = np.where(pos, total, 0.5 * params.rho_star)
        z = 1.0 / tot - 1.0 / params.rho_star
        qv = np.asarray(q.value(own, params.rho_star))
        dq = np.asarray(q.derivative(own, params.rho_star))
        corr = np.where(pos, params.eps / (qv * z**params.gamma), 0.0)
        dtotal = np.where(pos, corr * params.gamma / (z * tot**2), 0.0)
        d1 = d1 + dtotal - np.where(pos, corr * dq / qv, 0.0)
        d2 = d2 + dtotal
    if own.ndim == oth.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def assert_bitwise_equal(got, want):
    # a scalar input gives a float from the reference and a 0-d result
    # from the kernel
    assert np.shape(got) == np.shape(want)
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


crowding_weights = st.builds(
    pr.CrowdingWeight,
    kind=st.sampled_from(list(pr.CrowdingKind)),
    beta=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0),
)

pressure_params = st.builds(
    pr.PressureParams,
    M=st.floats(0.0, 2.0),
    # special exponents take NumPy fast paths (square, sqrt) that round
    # differently from pow, so they are drawn explicitly
    m=st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 4.0),
    eps=st.just(0.0) | st.floats(1e-4, 0.5),
    gamma=st.sampled_from([2.0, 3.0]) | st.floats(1.01, 4.0),
    rho_star=st.sampled_from([1.0]) | st.floats(0.5, 2.0),
)


@st.composite
def density_pairs(draw, rho_star):
    """(rho_plus, rho_minus) as floats or arrays, with total below rho_star."""
    fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    loads = st.sampled_from([0.0]) | st.floats(0.0, 0.999)
    if draw(st.booleans()):
        load, frac = draw(loads), draw(fractions)
    else:
        shape = draw(st.sampled_from([(1,), (7,), (2, 9)]))
        load = draw(hnp.arrays(np.float64, shape, elements=loads))
        frac = draw(hnp.arrays(np.float64, shape, elements=fractions))
    total = rho_star * np.asarray(load)
    rho_plus = total * np.asarray(frac)
    rho_minus = total - rho_plus
    if np.ndim(total) == 0:
        return float(rho_plus), float(rho_minus)
    return rho_plus, rho_minus


@settings(max_examples=300, deadline=None)
@given(
    params=pressure_params,
    q_plus=crowding_weights,
    q_minus=crowding_weights,
    data=st.data(),
)
def test_two_way_offsets_match_per_direction_reference(params, q_plus, q_minus, data):
    rho_plus, rho_minus = data.draw(density_pairs(params.rho_star))
    want = (
        reference_two_way_pressure(params, q_plus, rho_plus, rho_minus),
        reference_two_way_pressure(params, q_minus, rho_minus, rho_plus),
        reference_pressure_partials(params, q_plus, rho_plus, rho_minus),
        reference_pressure_partials(params, q_minus, rho_minus, rho_plus),
    )
    p_plus, p_minus = pr.two_way_offsets(params, q_plus, q_minus, rho_plus, rho_minus)
    got = pr.two_way_offsets(params, q_plus, q_minus, rho_plus, rho_minus, partials=True)
    wrapped = (
        pr.two_way_pressure(params, q_plus, rho_plus, rho_minus),
        pr.pressure_partials(params, q_minus, rho_minus, rho_plus),
    )
    for offsets in ((p_plus, p_minus), got[:2]):
        assert_bitwise_equal(offsets[0], want[0])
        assert_bitwise_equal(offsets[1], want[1])
    for pair, want_pair in zip(got[2:], want[2:]):
        assert_bitwise_equal(pair[0], want_pair[0])
        assert_bitwise_equal(pair[1], want_pair[1])
    # the one-direction wrappers evaluate the same formulas
    assert_bitwise_equal(wrapped[0], want[0])
    assert_bitwise_equal(wrapped[1][0], want[3][0])
    assert_bitwise_equal(wrapped[1][1], want[3][1])


# The six one-way functions that one_way_offsets replaced, kept as the
# reference with their input conversion inlined.


def _reference_input(rho):
    r = np.asarray(rho, dtype=float)
    return r, r.ndim == 0


def _reference_output(a, scalar):
    return float(a) if scalar else a


def reference_background_pressure(params, rho):
    r, scalar = _reference_input(rho)
    pr._check_nonnegative(r)
    return _reference_output(params.M * r**params.m, scalar)


def reference_background_pressure_derivative(params, rho):
    r, scalar = _reference_input(rho)
    pr._check_nonnegative(r)
    return _reference_output(params.M * params.m * r ** (params.m - 1.0), scalar)


def reference_singular_correction_1w(params, rho):
    r, scalar = _reference_input(rho)
    pr._check_nonnegative(r)
    pr._check_admissible(r, params.rho_star)
    out = np.zeros_like(r)
    pos = r > 0
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        out[pos] = params.eps / z**params.gamma
    return _reference_output(out, scalar)


def reference_singular_correction_derivative_1w(params, rho):
    r, scalar = _reference_input(rho)
    pr._check_nonnegative(r)
    pr._check_admissible(r, params.rho_star)
    out = np.zeros_like(r)
    pos = r > 0
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        out[pos] = params.eps * params.gamma / (z ** (params.gamma + 1.0) * r[pos] ** 2)
    return _reference_output(out, scalar)


def reference_pressure_1w(params, rho):
    r, scalar = _reference_input(rho)
    out = np.asarray(
        reference_background_pressure(params, r)
    ) + reference_singular_correction_1w(params, r)
    return _reference_output(out, scalar)


def reference_pressure_1w_derivative(params, rho):
    r, scalar = _reference_input(rho)
    out = np.asarray(
        reference_background_pressure_derivative(params, r)
    ) + reference_singular_correction_derivative_1w(params, r)
    return _reference_output(out, scalar)


@st.composite
def one_way_densities(draw, rho_star):
    """A float or an array of densities in {0} and [VACUUM_FLOOR, rho_star);
    below the floor one_way_offsets sets the correction to 0 on purpose."""
    densities = st.sampled_from([0.0]) | st.floats(pr.VACUUM_FLOOR, rho_star * 0.999)
    if draw(st.booleans()):
        return draw(densities)
    shape = draw(st.sampled_from([(1,), (7,), (2, 9)]))
    return draw(hnp.arrays(np.float64, shape, elements=densities))


@settings(max_examples=300, deadline=None)
@given(params=pressure_params, data=st.data())
def test_one_way_offsets_match_the_six_function_reference(params, data):
    rho = data.draw(one_way_densities(params.rho_star))
    P, S = pr.one_way_offsets(params, rho)
    got = pr.one_way_offsets(params, rho, partials=True)
    assert_bitwise_equal(P, reference_background_pressure(params, rho))
    assert_bitwise_equal(S, reference_singular_correction_1w(params, rho))
    assert_bitwise_equal(P + S, reference_pressure_1w(params, rho))
    for a, b in zip(got[:2], (P, S)):
        assert_bitwise_equal(a, b)
    dP, dS = got[2:]
    assert_bitwise_equal(dP, reference_background_pressure_derivative(params, rho))
    assert_bitwise_equal(dS, reference_singular_correction_derivative_1w(params, rho))
    assert_bitwise_equal(dP + dS, reference_pressure_1w_derivative(params, rho))


class TestTwoWayOffsetsValidation:
    @pytest.mark.parametrize("partials", [False, True])
    @pytest.mark.parametrize(
        "rho_plus,rho_minus",
        [(-0.1, 0.2), (0.2, -1e-300), (np.array([0.1, -0.2]), np.array([0.1, 0.1]))],
    )
    def test_negative_density_raises(self, rho_plus, rho_minus, partials):
        with pytest.raises(DomainError, match="must be >= 0"):
            pr.two_way_offsets(
                make_params(), pr.CrowdingWeight(), pr.CrowdingWeight(),
                rho_plus, rho_minus, partials=partials,
            )

    @pytest.mark.parametrize("partials", [False, True])
    @pytest.mark.parametrize(
        "rho_plus,rho_minus", [(0.6, 0.4), (1.0, 0.0), (np.array([0.1, 0.7]), 0.3)]
    )
    def test_jam_density_raises(self, rho_plus, rho_minus, partials):
        with pytest.raises(CongestionOverflowError, match="reached the jam density"):
            pr.two_way_offsets(
                make_params(), pr.CrowdingWeight(), pr.CrowdingWeight(),
                rho_plus, rho_minus, partials=partials,
            )

    @pytest.mark.parametrize("rho", [1e-200, 5e-324, np.array([0.0, 1e-300, 0.2])])
    def test_finite_below_the_vacuum_floor(self, rho):
        # z * total**2 underflows to 0 there; the correction and its
        # partials are 0 below the floor instead
        params = make_params(eps=1e-3, gamma=2.0)
        q = pr.CrowdingWeight()
        p_plus, p_minus, (d_pp, d_pm), (d_mm, d_mp) = pr.two_way_offsets(
            params, q, q, rho, rho, partials=True
        )
        for part in (p_plus, p_minus, d_pp, d_pm, d_mm, d_mp):
            assert np.all(np.isfinite(part))
        tiny = 2 * np.asarray(rho) < pr.VACUUM_FLOOR
        background = params.M * (2 * np.asarray(rho)) ** params.m
        assert np.all(np.asarray(p_plus)[tiny] == background[tiny])
