from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import models as md
from pedflow import pressure as pr
from pedflow import solver as sv
from pedflow.errors import CongestionOverflowError, DomainError


def make_params(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0):
    return pr.PressureParams(M=M, m=m, eps=eps, gamma=gamma, rho_star=rho_star)


# The laws take admissible densities; solver.check_admissible, which the
# time stepping applies to every state it makes, rejects the others.  These
# helpers put densities into the states of the one- and two-way models,
# with constant (car) or dynamic (AR, momentum rows rho * 1.2) desired
# speed.


def one_way_state(rho, dynamic):
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    model = (md.ModelSpec.one_way_ar(make_params()) if dynamic
             else md.ModelSpec.one_way_car(V=1.0, pressure=make_params()))
    return model, np.stack([rho, 1.2 * rho] if dynamic else [rho])


def two_way_state(rho_plus, rho_minus, dynamic):
    plus, minus = np.broadcast_arrays(np.atleast_1d(rho_plus).astype(float),
                                      np.atleast_1d(rho_minus).astype(float))
    if dynamic:
        return (md.ModelSpec.two_way_ar(make_params()),
                np.stack([plus, 1.2 * plus, minus, 1.2 * minus]))
    return (md.ModelSpec.two_way_car(V=1.0, pressure=make_params()),
            np.stack([plus, minus]))


ALL_WEIGHTS = [
    pr.CrowdingWeight(kind="constant"),
    pr.CrowdingWeight(kind="affine", beta=1.0),
    pr.CrowdingWeight(kind="power", beta=1.5),
]


def lone_stream(params, rho, partials=False):
    """The one-way law: the two-way offsets of a lone plus stream, whose
    plus offset comes first and, with partials=True, plus pair third."""
    return pr.two_way_offsets(params, pr.LONE_STREAM, pr.LONE_STREAM, rho, 0.0,
                              partials)


def background(params, rho):
    return lone_stream(replace(params, eps=0.0), rho)[0]


def singular(params, rho):
    return lone_stream(replace(params, M=0.0), rho)[0]


class TestBackground:
    def test_zero_density(self):
        assert background(make_params(M=1, m=2), 0.0) == 0.0

    def test_power_evaluation(self):
        assert background(make_params(M=1, m=2), 0.5) == 0.25

    def test_zero_amplitude(self):
        assert background(make_params(M=0, m=2), 0.9) == 0.0

    def test_negative_density_raises(self):
        with pytest.raises(DomainError):
            sv.check_admissible(*one_way_state(-0.1, dynamic=False))

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
            dP = lone_stream(params, rho, partials=True)[2][0]
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
        with pytest.raises(CongestionOverflowError):
            sv.check_admissible(*one_way_state(1.0, dynamic=False))
        # within CONGESTION_REL_TOL of rho_star counts as the jam density
        with pytest.raises(CongestionOverflowError):
            sv.check_admissible(*one_way_state(1.0 - 1e-14, dynamic=True))
        sv.check_admissible(*one_way_state(1.0 - 1e-11, dynamic=True))

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            sv.check_admissible(*one_way_state(-0.5, dynamic=True))

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
            dS = lone_stream(replace(params, M=0.0), rho, partials=True)[2][0]
            assert dS == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("rho", [1e-200, 5e-324, np.array([0.0, 1e-300, 0.5])])
    def test_finite_below_the_vacuum_floor(self, rho):
        # 1/rho overflows or z * rho**2 underflows there; the correction
        # and its partial are 0 below the floor instead
        params = make_params(eps=1e-3, gamma=2.0)
        p_plus, p_minus, d_plus, d_minus = lone_stream(params, rho, partials=True)
        for part in (p_plus, p_minus, *d_plus, *d_minus):
            assert np.all(np.isfinite(part))
        S, _, (dS, _), _ = lone_stream(replace(params, M=0.0), rho, partials=True)
        tiny = np.asarray(rho) < pr.VACUUM_FLOOR
        assert np.all(np.asarray(S)[tiny] == 0.0)
        assert np.all(np.asarray(dS)[tiny] == 0.0)


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
        with pytest.raises(CongestionOverflowError):
            sv.check_admissible(*two_way_state(0.6, 0.4, dynamic=False))

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
            # the constant weight is the float 1.0, whatever the shape of rho
            v = np.broadcast_to(q.value(rho, 1.0), rho.shape)
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
    total = own + oth
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
    total = own + oth
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
    # a scalar input gives a float from the reference and a NumPy scalar
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
    """(rho_plus, rho_minus) as floats, NumPy scalars, 0-d arrays or arrays,
    an admissible state: both >= 0, with a total below rho_star.  Half of
    the draws have no total below VACUUM_FLOOR; the other half draw totals
    of 0 and below the floor among live ones, so both branches of the
    vacuum mask are taken."""
    fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    loads = st.floats(2 * pr.VACUUM_FLOOR, 0.999)
    if draw(st.booleans()):
        loads = (st.sampled_from([0.0]) | st.floats(0.0, 0.999)
                 | st.floats(0.0, 0.5 * pr.VACUUM_FLOOR, exclude_min=True))
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
        form = draw(st.sampled_from([float, np.float64, np.asarray]))
        return form(rho_plus), form(rho_minus)
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


def assert_scalar_offsets_match_the_0d_reference(params, q_plus, q_minus, states, form):
    """The offsets and partials of each (rho_plus, rho_minus) of states,
    passed through form, are NumPy scalars with the bits of the 0-d array
    references."""
    for rho_plus, rho_minus in states:
        got = pr.two_way_offsets(params, q_plus, q_minus, form(rho_plus), form(rho_minus),
                                 partials=True)
        values = [*got[:2], *(v for pair in got[2:] for v in pair)]
        assert [type(v) for v in values] == [np.float64] * 6
        want = [reference_two_way_pressure(params, q_plus, rho_plus, rho_minus),
                reference_two_way_pressure(params, q_minus, rho_minus, rho_plus),
                *reference_pressure_partials(params, q_plus, rho_plus, rho_minus),
                *reference_pressure_partials(params, q_minus, rho_minus, rho_plus)]
        for value, reference in zip(values, want):
            assert_bitwise_equal(value, reference)


@pytest.mark.parametrize("form", [float, np.float64, np.asarray],
                         ids=["float", "numpy_scalar", "0-d"])
def test_scalar_powers_keep_their_operand_types(form):
    # at exponents without a NumPy fast path about 1 in 20 NumPy-scalar
    # powers rounds unlike the 0-d array power, so 300 states catch a power
    # whose operand type changed, which the drawn examples may miss
    params = make_params(m=2.3, eps=1e-3, gamma=2.7)
    q_plus, q_minus = pr.CrowdingWeight("power", 1.3), pr.CrowdingWeight("affine", 0.7)
    states = np.random.default_rng(11).uniform(0.0, 0.49, (300, 2))
    assert_scalar_offsets_match_the_0d_reference(params, q_plus, q_minus, states, form)
    for rho_plus, rho_minus in states:
        for q, own in ((q_plus, rho_plus), (q_minus, rho_minus)):
            want = reference_array_crowding(q, own, params.rho_star)
            assert_bitwise_equal(q.value(form(own), params.rho_star), want[0])
            assert_bitwise_equal(q.derivative(form(own), params.rho_star), want[1])


# States whose z = 1/total - 1 squares unlike libm's pow(z, 2), as about 1
# in 1,000 do.  With M = 0 the offsets and partials are the singular
# terms alone, whose bits show either power of z taken in place of the other.
POW_SQUARE_STATES = [(0.056, 0.0691), (0.1035, 0.1923), (0.2452, 0.0459), (0.1641, 0.1317)]


@pytest.mark.parametrize("form", [float, np.float64, np.asarray],
                         ids=["float", "numpy_scalar", "0-d"])
@pytest.mark.parametrize("m", [1.0, 2.0])
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_scalar_exponents_2_and_1_keep_the_bits_of_0d_powers(M, m, form):
    # gamma = 2 and m = 2 or 1: the scalar kernel squares and passes
    # through where the 0-d array powers took NumPy's square and positive;
    # m - 1 = 0 keeps a 0-d array power
    params = make_params(M=M, m=m, eps=1e-3, gamma=2.0)
    q_plus, q_minus = pr.CrowdingWeight("power", 1.3), pr.CrowdingWeight("affine", 0.7)
    for rho_plus, rho_minus in POW_SQUARE_STATES:
        z = 1.0 / (np.float64(rho_plus) + np.float64(rho_minus)) - 1.0
        assert z**2.0 != z * z
    states = [*POW_SQUARE_STATES, (0.0, 0.0), (0.0, 0.25 * pr.VACUUM_FLOOR),
              *np.random.default_rng(12).uniform(0.0, 0.49, (300, 2))]
    assert_scalar_offsets_match_the_0d_reference(params, q_plus, q_minus, states, form)


@pytest.mark.parametrize("form", [float, np.float64, np.asarray],
                         ids=["float", "numpy_scalar", "0-d"])
@pytest.mark.parametrize("state", [(0.3, 0.2), (0.0, 0.25 * pr.VACUUM_FLOOR)],
                         ids=["live", "vacuum"])
@pytest.mark.parametrize("m", [1.0, 2.5])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("kind", list(pr.CrowdingKind))
def test_scalar_densities_give_numpy_scalars(kind, eps, m, state, form):
    params = make_params(m=m, eps=eps, gamma=2.5)
    q = pr.CrowdingWeight(kind)
    for partials in (False, True):
        got = pr.two_way_offsets(params, q, q, *map(form, state), partials)
        values = [*got[:2], *(v for pair in got[2:] for v in pair)]
        assert [type(v) for v in values] == [np.float64] * len(values)


# two_way_offsets when the crowding weight and its slope were arrays of the
# density's shape for every kind (np.ones_like, np.zeros_like, np.full_like),
# kept as the reference for the float constants that replaced them.


def reference_array_crowding(q, rho, rho_star):
    """(q(rho), q'(rho)) as arrays of rho's shape, 0-d for a scalar rho."""
    r = np.asarray(rho, dtype=float)
    if q.kind is pr.CrowdingKind.CONSTANT:
        return np.ones_like(r), np.zeros_like(r)
    if q.kind is pr.CrowdingKind.AFFINE:
        return 1.0 + q.beta * r / rho_star, np.full_like(r, q.beta / rho_star)
    return ((1.0 + r / rho_star) ** q.beta,
            q.beta * (1.0 + r / rho_star) ** (q.beta - 1.0) / rho_star)


def reference_array_crowding_offsets(params, q_plus, q_minus, rho_plus, rho_minus,
                                     partials=False):
    plus = np.asarray(rho_plus, dtype=float)
    minus = np.asarray(rho_minus, dtype=float)
    total = plus + minus
    r = np.asarray(total)
    P = params.M * r**params.m
    dP = params.M * params.m * r ** (params.m - 1.0) if partials else None
    if params.eps > 0:
        vac = pr.vacuum_mask(total)
        tot = r if vac is None else np.where(vac, 0.5 * params.rho_star, total)
        z = 1.0 / tot - 1.0 / params.rho_star
        zg = np.asarray(z) ** params.gamma
        if partials:
            zg_partials = zg if isinstance(z, np.ndarray) else z**params.gamma
            z_tot2 = z * tot**2
    offsets, pairs = [], []
    for q, own in ((q_plus, plus), (q_minus, minus)):
        if params.eps == 0:
            offsets.append(P)
            pairs.append((dP, dP))
            continue
        qv, dq = (np.asarray(a) for a in reference_array_crowding(q, own, params.rho_star))
        corr = pr.zero_at(vac, params.eps / (qv * zg))
        offsets.append(P + corr)
        if partials:
            if zg_partials is not zg:
                corr = pr.zero_at(vac, params.eps / (qv * zg_partials))
            dtotal = pr.zero_at(vac, corr * params.gamma / z_tot2)
            d_other = dP + dtotal
            pairs.append((d_other - pr.zero_at(vac, corr * dq / qv), d_other))
    if not partials:
        return tuple(offsets)
    return tuple(offsets) + tuple(pairs)


# +-0.0, the smallest subnormal, a subnormal, a total below VACUUM_FLOOR
EDGE_DENSITIES = [0.0, -0.0, 5e-324, 1e-310, 0.25 * pr.VACUUM_FLOOR]


@st.composite
def edge_density_pairs(draw, rho_star):
    """(rho_plus, rho_minus) as floats, 0-d arrays, (7,) or (2, 9) arrays:
    each species below rho_star / 2, so an admissible state.  With vacuum,
    the first entry of both species is drawn from EDGE_DENSITIES, so the
    first total is below VACUUM_FLOOR; without, no total is."""
    vacuum = draw(st.booleans())
    live = st.floats(2 * pr.VACUUM_FLOOR, 0.49 * rho_star)
    elements = st.sampled_from(EDGE_DENSITIES) | live if vacuum else live
    form = draw(st.sampled_from(["float", "0-d", (7,), (2, 9)]))
    pair = []
    for _ in range(2):
        if form in ("float", "0-d"):
            rho = draw(st.sampled_from(EDGE_DENSITIES) if vacuum else live)
            pair.append(rho if form == "float" else np.asarray(rho))
            continue
        rho = draw(hnp.arrays(np.float64, form, elements=elements))
        if vacuum:
            rho.flat[0] = draw(st.sampled_from(EDGE_DENSITIES))
        pair.append(rho)
    return tuple(pair)


@settings(max_examples=300, deadline=None)
@given(
    # rho_star = 1e300 puts totals up to about 1e300 into the laws
    params=st.builds(pr.PressureParams, M=st.floats(0.0, 2.0),
                     m=st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 4.0),
                     eps=st.just(0.0) | st.floats(1e-4, 0.5),
                     gamma=st.sampled_from([2.0, 3.0]) | st.floats(1.01, 4.0),
                     rho_star=st.sampled_from([1.0, 1e300]) | st.floats(0.5, 2.0)),
    q_plus=crowding_weights,
    q_minus=crowding_weights,
    data=st.data(),
)
def test_two_way_offsets_match_the_array_crowding_reference(params, q_plus, q_minus, data):
    rho_plus, rho_minus = data.draw(edge_density_pairs(params.rho_star))
    # near rho_star = 1e300 the laws overflow to inf in both versions alike
    with np.errstate(all="ignore"):
        for partials in (False, True):
            got = pr.two_way_offsets(params, q_plus, q_minus, rho_plus, rho_minus, partials)
            want = reference_array_crowding_offsets(params, q_plus, q_minus,
                                                    rho_plus, rho_minus, partials)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                for g_part, w_part in (zip(g, w) if isinstance(w, tuple) else [(g, w)]):
                    assert_bitwise_equal(g_part, w_part)
        for q, own in ((q_plus, rho_plus), (q_minus, rho_minus)):
            want = reference_array_crowding(q, own, params.rho_star)
            got = (q.value(own, params.rho_star), q.derivative(own, params.rho_star))
            for g, w in zip(got, want):
                assert_bitwise_equal(np.broadcast_to(g, np.shape(own)), w)


# The six one-way functions that the lone-stream evaluation of
# two_way_offsets replaced, kept as the reference with their input
# conversion inlined.


def _reference_input(rho):
    r = np.asarray(rho, dtype=float)
    return r, r.ndim == 0


def _reference_output(a, scalar):
    return float(a) if scalar else a


def reference_background_pressure(params, rho):
    r, scalar = _reference_input(rho)
    return _reference_output(params.M * r**params.m, scalar)


def reference_background_pressure_derivative(params, rho):
    r, scalar = _reference_input(rho)
    return _reference_output(params.M * params.m * r ** (params.m - 1.0), scalar)


def reference_singular_correction_1w(params, rho):
    r, scalar = _reference_input(rho)
    out = np.zeros_like(r)
    pos = r > 0
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        out[pos] = params.eps / z**params.gamma
    return _reference_output(out, scalar)


def reference_singular_correction_derivative_1w(params, rho):
    r, scalar = _reference_input(rho)
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
    """A float or an array of admissible densities in {0} and
    [VACUUM_FLOOR, 0.999 rho_star]; below the floor two_way_offsets sets
    the correction to 0 on purpose."""
    densities = st.sampled_from([0.0]) | st.floats(pr.VACUUM_FLOOR, rho_star * 0.999)
    if draw(st.booleans()):
        return draw(densities)
    shape = draw(st.sampled_from([(1,), (7,), (2, 9)]))
    return draw(hnp.arrays(np.float64, shape, elements=densities))


@settings(max_examples=300, deadline=None)
@given(params=pressure_params, data=st.data())
def test_lone_stream_offsets_match_the_six_function_reference(params, data):
    # the offset and its parts (eps = 0 leaves P, M = 0 leaves S) keep the
    # bits of the reference; the singular partial does not, see below
    rho = data.draw(one_way_densities(params.rho_star))
    got = lone_stream(params, rho, partials=True)
    assert_bitwise_equal(lone_stream(params, rho)[0], got[0])
    assert_bitwise_equal(got[0], reference_pressure_1w(params, rho))
    assert_bitwise_equal(background(params, rho), reference_background_pressure(params, rho))
    assert_bitwise_equal(singular(params, rho), reference_singular_correction_1w(params, rho))
    dP = lone_stream(replace(params, eps=0.0), rho, partials=True)[2][0]
    assert_bitwise_equal(dP, reference_background_pressure_derivative(params, rho))
    dS = lone_stream(replace(params, M=0.0), rho, partials=True)[2][0]
    assert_partial_close(dS, reference_singular_correction_derivative_1w(params, rho),
                         params, rho)
    assert_partial_close(got[2][0], reference_pressure_1w_derivative(params, rho),
                         params, rho)


def assert_partial_close(got, want, params, rho):
    """got within 4 (1 + |ln z|) units of 2**-52, relative to want, with
    z = 1/rho - 1/rho_star.  The kernel's singular partial is
    (eps / z**gamma) * gamma / (z * rho**2), the reference's
    eps * gamma / (z**(gamma + 1) * rho**2): each rounds a few times, and
    the reference's power takes the rounded exponent gamma + 1, an error
    that the power scales by |ln z| (up to ln 1e12, about 28, at the vacuum
    floor).  Measured on 3,000 random laws from the ranges of
    pressure_params, 400 densities each: at most 2.9 units for gamma = 2
    and 3, where gamma + 1 is exact, and 2.7 (1 + |ln z|) units otherwise."""
    r = np.maximum(np.asarray(rho, dtype=float), pr.VACUUM_FLOOR)
    bound = 4 * 2.0**-52 * (1.0 + np.abs(np.log(1.0 / r - 1.0 / params.rho_star)))
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(np.subtract(got, want)) <= bound * np.abs(want))


class TestTwoWayOffsetsValidation:
    # dynamic picks the two_way_ar state layout, whose densities are rows
    # 0 and 2, over the two_way_car one (rows 0 and 1)
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize(
        "rho_plus,rho_minus",
        [(-0.1, 0.2), (0.2, -1e-300), (np.array([0.1, -0.2]), np.array([0.1, 0.1]))],
    )
    def test_negative_density_raises(self, rho_plus, rho_minus, dynamic):
        with pytest.raises(DomainError, match="must be >= 0"):
            sv.check_admissible(*two_way_state(rho_plus, rho_minus, dynamic))

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize(
        "rho_plus,rho_minus", [(0.6, 0.4), (1.0, 0.0), (np.array([0.1, 0.7]), 0.3)]
    )
    def test_jam_density_raises(self, rho_plus, rho_minus, dynamic):
        with pytest.raises(CongestionOverflowError, match="reached the jam density"):
            sv.check_admissible(*two_way_state(rho_plus, rho_minus, dynamic))

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


# The admissibility check makes NaN-ignoring reductions: a bad entry beside
# a NaN still raises.  The vacuum mask of the laws also skips a NaN.


class TestGuardsBesideNan:
    def test_negative_density(self):
        with pytest.raises(DomainError, match="densities must be >= 0"):
            sv.check_admissible(*one_way_state([np.nan, -0.1, 0.2], dynamic=False))
        with pytest.raises(DomainError, match="densities must be >= 0"):
            sv.check_admissible(*two_way_state([0.1, 0.1], [-0.1, np.nan], dynamic=True))

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_jam_density(self, dynamic):
        with pytest.raises(CongestionOverflowError, match="reached the jam density"):
            sv.check_admissible(*two_way_state([np.nan, 0.6], [0.1, 0.4], dynamic))
        with pytest.raises(CongestionOverflowError, match="reached the jam density"):
            sv.check_admissible(*one_way_state([1.0, np.nan], dynamic))

    def test_vacuum_cell_is_masked(self):
        params = make_params(eps=1e-3, gamma=2.0)
        q = pr.CrowdingWeight()
        rho = np.array([0.0, np.nan, 1e-300, 0.2])
        assert pr.vacuum_mask(rho).tolist() == [True, False, True, False]
        p_plus, p_minus, (d_pp, d_pm), (d_mm, d_mp) = pr.two_way_offsets(
            params, q, q, rho, rho, partials=True
        )
        for part in (p_plus, p_minus, d_pp, d_pm, d_mm, d_mp):
            assert np.isnan(part[1])
            assert np.all(np.isfinite(part[[0, 2, 3]]))
        assert p_plus[0] == 0.0 and p_plus[2] == params.M * (2e-300) ** params.m
        assert p_plus[3] > params.M * 0.4 ** params.m
