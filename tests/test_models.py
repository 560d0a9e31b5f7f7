import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import analysis as an
from pedflow import models as md
from pedflow import multilane as ml
from pedflow import pressure as pr
from pedflow import solver as sv
from pedflow.errors import DomainError, VacuumError


def pressure_params(**kw):
    base = dict(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
    base.update(kw)
    return pr.PressureParams(**base)


SIM = md.ModelSpec.sim_flux(0.7)


def sim_plus_flux(rho_plus, rho_minus):
    """Plus-species flux rho+ g(rho)/rho of SIM, through ModelSpec.flux."""
    return SIM.flux(np.stack(np.broadcast_arrays(rho_plus, rho_minus)))[0]


def g(x):
    """The profile g(rho) = rho h(rho): the flux of a lone plus species."""
    return sim_plus_flux(x, 0.0)


def g_slope(x):
    """g'(rho): the own-density flux partial of a lone plus species."""
    return an.diffusive_speeds(SIM, x, 0.0).c_pp


def cell_flux(model, *state):
    """ModelSpec.flux of one cell with the given conserved components."""
    return model.flux(np.array(state, dtype=float)[:, None])[:, 0]


def cell_speed(model, *state):
    """ModelSpec.max_abs_speed of one cell."""
    return model.max_abs_speed(np.array(state, dtype=float)[:, None])[0]


class TestGProfile:
    def test_branch_junction(self):
        assert g(0.7) == pytest.approx(0.35)

    def test_vanishes_at_one(self):
        assert g(1.0) == pytest.approx(0.0)

    def test_rising_branch(self):
        # 0.35 - 0.1225/1.4 = 0.2625
        assert g(0.35) == pytest.approx(0.2625)

    def test_zero_outside_unit_interval(self):
        assert g(1.3) == 0.0
        # a negative density has no profile value: the admissibility check
        # rejects it before the profile is evaluated
        with pytest.raises(DomainError):
            sv.check_admissible(SIM, np.array([[-0.2], [0.0]]))

    def test_continuity_at_kinks(self):
        gap = 1e-9
        assert abs(g(gap) - g(0.0)) < 1e-8
        for x0 in (0.7, 1.0):
            left = g(x0 - gap)
            right = g(x0 + gap)
            assert abs(left - right) < 1e-8

    def test_monotone_shape(self):
        x = np.linspace(0, 0.7, 100)
        assert np.all(np.diff(g(x)) > 0)
        x = np.linspace(0.7, 1.0, 100)
        assert np.all(np.diff(g(x)) < 0)

    def test_slope_matches_fd(self):
        for x in (0.2, 0.5, 0.8, 0.95):
            h = 1e-7
            fd = (g(x + h) - g(x - h)) / (2 * h)
            assert g_slope(x) == pytest.approx(fd, abs=1e-6)

    def test_slope_one_sided_at_one(self):
        # inside branch -a/(1-a) is the larger-magnitude one-sided value
        assert g_slope(1.0) == pytest.approx(-0.7 / 0.3)


class TestSimFlux:
    def test_hand_evaluation(self):
        # g(0.65) = 0.348214..., f = 0.35 * g(0.65)/0.65 = 0.1875
        assert sim_plus_flux(0.35, 0.3) == pytest.approx(0.1875)

    def test_zero_beyond_unit_mass(self):
        assert sim_plus_flux(0.6, 0.4) == 0.0
        assert sim_plus_flux(0.9, 0.4) == 0.0

    def test_vacuum(self):
        assert sim_plus_flux(0.0, 0.3) == 0.0
        assert sim_plus_flux(0.0, 0.0) == 0.0

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            sv.check_admissible(SIM, np.array([[-0.4], [0.3]]))

    def test_negative_species_raises(self):
        # rejected even where the total density is positive, and in a cell
        # beside a NaN, which .min() would return
        for U in ([[-0.1], [0.3]], [[0.3], [-0.1]], [[np.nan, -0.1], [0.3, 0.3]]):
            with pytest.raises(DomainError, match="densities must be >= 0"):
                sv.check_admissible(SIM, np.array(U))

    def test_continuity_straddle(self):
        gap = 1e-9
        for total in (0.7, 1.0):
            lo = sim_plus_flux(total - gap - 0.3, 0.3)
            hi = sim_plus_flux(total + gap - 0.3, 0.3)
            assert abs(lo - hi) < 1e-8
        # vacuum limit: f ~ rho_plus as rho -> 0
        assert sim_plus_flux(1e-9, 0.0) == pytest.approx(1e-9, rel=1e-6)

    def test_decreasing_in_opposite_density(self):
        rho_plus = 0.3
        rho_minus = np.linspace(0.0, 0.7, 200)
        f = sim_plus_flux(rho_plus, rho_minus)
        assert np.all(np.diff(f) <= 1e-14)

    def test_bell_shaped_in_own_density(self):
        rho_minus = 0.2
        rho_plus = np.linspace(1e-4, 0.8 - 1e-4, 400)
        f = sim_plus_flux(rho_plus, rho_minus)
        d = np.diff(f)
        sign_changes = np.sum(np.diff(np.sign(d[np.abs(d) > 1e-14])) != 0)
        assert sign_changes == 1
        k = np.argmax(f)
        assert 0 < k < len(f) - 1


class TestCarFlux:
    def test_vacuum(self):
        model = md.ModelSpec.one_way_car(V=1.0, pressure=pressure_params(eps=0.0))
        assert cell_flux(model, 0.0)[0] == 0.0

    def test_hand_evaluation(self):
        model = md.ModelSpec.one_way_car(V=1.0, pressure=pressure_params(eps=0.0))
        assert cell_flux(model, 0.5)[0] == pytest.approx(0.375)

    def test_stagnation_root(self):
        # with V = p(rho) the flux vanishes: V = 0.25 = P(0.5) for M=1, m=2
        model = md.ModelSpec.one_way_car(V=0.25, pressure=pressure_params(eps=0.0))
        assert cell_flux(model, 0.5)[0] == pytest.approx(0.0, abs=1e-15)


class TestTwoWayCarFlux:
    def test_antisymmetric_at_equal_densities(self):
        model = md.ModelSpec.two_way_car(V=1.0, pressure=pressure_params())
        f_p, f_m = cell_flux(model, 0.3, 0.3)
        assert f_p == pytest.approx(-f_m)

    def test_decouples_without_opposite_stream(self):
        params = pressure_params(eps=0.0)
        two = md.ModelSpec.two_way_car(V=1.0, pressure=params)
        one = md.ModelSpec.one_way_car(V=1.0, pressure=params)
        f_p, f_m = cell_flux(two, 0.4, 0.0)
        assert f_p == pytest.approx(cell_flux(one, 0.4)[0])
        assert f_m == 0.0

    def test_signs_when_offset_below_desired_speed(self):
        model = md.ModelSpec.two_way_car(V=1.0, pressure=pressure_params())
        rng = np.random.default_rng(2)
        for _ in range(100):
            rp = rng.uniform(0.0, 0.5)
            rm = rng.uniform(0.0, 0.9 - rp)
            p_plus, p_minus = md.two_way_pressures(model, rp, rm)
            f_p, f_m = cell_flux(model, rp, rm)
            if p_plus <= model.V and p_minus <= model.V:
                assert f_p >= 0.0
                assert f_m <= 0.0

    def test_mirrored_arguments(self):
        model = md.ModelSpec.two_way_car(V=1.0, pressure=pressure_params())
        f_p, f_m = cell_flux(model, 0.4, 0.2)
        g_p, g_m = cell_flux(model, 0.2, 0.4)
        assert f_p == pytest.approx(-g_m)
        assert f_m == pytest.approx(-g_p)


class TestArConservedFlux:
    def test_constant_w_reduces_to_car(self):
        params = pressure_params(eps=0.0)
        ar = md.ModelSpec.one_way_ar(params)
        car = md.ModelSpec.one_way_car(V=1.0, pressure=params)
        rho = np.array([0.2, 0.5, 0.8])
        U = np.stack([rho, rho * 1.0])
        flux = ar.flux(U)
        np.testing.assert_allclose(flux[0], car.flux(rho[None])[0], rtol=1e-14)
        np.testing.assert_allclose(flux[1], flux[0] * 1.0, rtol=1e-14)

    def test_two_way_mirror_symmetry(self):
        model = md.ModelSpec.two_way_ar(pressure_params())
        U = np.array([[0.3], [0.36], [0.2], [0.26]])
        mirrored = np.array([[0.2], [0.26], [0.3], [0.36]])
        f = model.flux(U)
        g = model.flux(mirrored)
        np.testing.assert_allclose(f[0], -g[2], rtol=1e-14)
        np.testing.assert_allclose(f[1], -g[3], rtol=1e-14)

    def test_vacuum_with_momentum_raises(self):
        model = md.ModelSpec.one_way_ar(pressure_params())
        U = np.array([[0.0], [0.5]])
        with pytest.raises(VacuumError):
            model.flux(U)

    def test_vacuum_cell_gives_zero_flux(self):
        model = md.ModelSpec.one_way_ar(pressure_params())
        U = np.array([[0.0, 0.5], [0.0, 0.55]])
        flux = model.flux(U)
        assert flux[0, 0] == 0.0
        assert flux[1, 0] == 0.0

    @pytest.mark.parametrize("kind", ["one_way_ar", "two_way_ar"])
    def test_vacuum_cell_beside_a_nan_is_masked(self, kind):
        model = getattr(md.ModelSpec, kind)(pressure_params())
        rows = [[0.0, np.nan, 0.3], [0.0, np.nan, 0.33]]
        U = np.array(rows * (model.n_conserved // 2))
        flux = model.flux(U)
        assert np.all(flux[:, 0] == 0.0)
        assert np.all(np.isnan(flux[:, 1]))
        assert np.all(np.isfinite(flux[:, 2]))


class TestCharacteristicSpeed:
    """The one-way speed bound |u - rho p'(rho)|, u = V - p(rho)."""

    def test_vacuum(self):
        model = md.ModelSpec.one_way_car(V=0.7, pressure=pressure_params(eps=0.0))
        assert cell_speed(model, 0.0) == pytest.approx(0.7)

    def test_linear_law(self):
        # with no opposite stream the two-way bound includes the plus
        # species' |u+ - rho+ p'| = |(0.5 - 0.6) - 0.3 * 2| = 0.7, which
        # exceeds the minus species' |-V + p| = 0.1
        params = pressure_params(M=2.0, m=1.0, eps=0.0)
        model = md.ModelSpec.two_way_car(V=0.5, pressure=params)
        assert cell_speed(model, 0.3, 0.0) == pytest.approx(0.7)

    def test_hand_evaluation(self):
        # u = 1 - 0.25, p'(0.5) = 1
        model = md.ModelSpec.one_way_car(V=1.0, pressure=pressure_params(eps=0.0))
        assert cell_speed(model, 0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", ["one_way_car", "one_way_ar", "two_way_car",
                                      "two_way_ar"])
    def test_finite_at_a_density_of_1e_200(self, kind):
        # below the vacuum floor the singular partials are 0, not inf * 0
        params = pressure_params(eps=1e-3)
        if kind in ("one_way_car", "two_way_car"):
            model = getattr(md.ModelSpec, kind)(V=1.0, pressure=params)
        else:
            model = getattr(md.ModelSpec, kind)(params)
        speed = cell_speed(model, *[1e-200] * model.n_conserved)
        assert np.isfinite(speed)


class TestModelSpec:
    def test_conserved_counts(self):
        params = pressure_params()
        assert md.ModelSpec.one_way_car(V=1, pressure=params).n_conserved == 1
        assert md.ModelSpec.one_way_ar(params).n_conserved == 2
        assert md.ModelSpec.two_way_car(V=1, pressure=params).n_conserved == 2
        assert md.ModelSpec.two_way_ar(params).n_conserved == 4
        assert md.ModelSpec.sim_flux().n_conserved == 2

    def test_one_way_requires_strict_exponent(self):
        flat = pressure_params(m=1.0)
        with pytest.raises(DomainError):
            md.ModelSpec.one_way_car(V=1.0, pressure=flat)
        with pytest.raises(DomainError):
            md.ModelSpec.one_way_ar(flat)
        # two-way accepts m = 1
        md.ModelSpec.two_way_car(V=1.0, pressure=flat)

    def test_car_requires_positive_speed(self):
        with pytest.raises(DomainError):
            md.ModelSpec.one_way_car(V=0.0, pressure=pressure_params())

    def test_sim_flux_shape_bounds(self):
        with pytest.raises(DomainError):
            md.ModelSpec.sim_flux(a=1.0)

    def test_vacuum_speed_limit(self):
        model = md.ModelSpec.sim_flux(0.7)
        speed = model.max_abs_speed(np.array([[0.0], [0.0]]))
        assert speed[0] == pytest.approx(1.0)

    def test_speed_finite_in_non_hyperbolic_region(self):
        model = md.ModelSpec.sim_flux(0.7)
        speed = model.max_abs_speed(np.array([[0.5, 0.45], [0.3, 0.45]]))
        assert np.all(np.isfinite(speed))
        assert np.all(speed > 0)

    def test_flux_shape_validation(self):
        # solver.run checks the shape of the initial state once; the flux
        # then only sees states of that shape
        model = md.ModelSpec.sim_flux(0.7)
        grid = sv.Grid1D(n_cells=4, dx=1.0)
        for shape in [(3, 4), (2, 5), (1, 2), (2, 1, 1, 4)]:
            with pytest.raises(DomainError, match="state must be"):
                sv.run(model, np.zeros(shape), grid,
                       sv.SchemeParams(dt=0.1), t_end=0.1)


# Each float parameter that a constructor checks with < or <=, which NaN and
# inf pass, as a call that is valid at the value 2.5.
FLOAT_PARAMETERS = {
    **{f"PressureParams.{key}": (lambda key: lambda x: pressure_params(**{key: x}))(key)
       for key in ("M", "m", "eps", "gamma", "rho_star")},
    "CrowdingWeight.beta": lambda x: pr.CrowdingWeight("affine", x),
    "Grid1D.dx": lambda x: sv.Grid1D(16, x),
    "SchemeParams.dt": lambda x: sv.SchemeParams(dt=x),
    "SchemeParams.delta_diff": lambda x: sv.SchemeParams(dt=0.5, delta_diff=x),
    "SchemeParams.cfl_guard": lambda x: sv.SchemeParams(dt=0.5, cfl_guard=x),
    "LaneChangeRates.lambda0": lambda x: ml.LaneChangeRates(lambda0=x),
    "one_way_car.V": lambda x: md.ModelSpec.one_way_car(V=x, pressure=pressure_params()),
    "two_way_car.V": lambda x: md.ModelSpec.two_way_car(V=x, pressure=pressure_params()),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", FLOAT_PARAMETERS.values(), ids=FLOAT_PARAMETERS.keys())
def test_constructors_reject_non_finite_parameters(build, value):
    build(2.5)
    with pytest.raises(DomainError, match="must be finite"):
        build(value)


# The module-level fluxes that ModelSpec.flux absorbed, kept as the
# reference for its folded kind branches.


def reference_car_flux_1w(model, rho):
    """Flux rho * (V - p(rho)) of the one-way constant-desired-speed model."""
    if model.kind is not md.ModelKind.ONE_WAY_CAR:
        raise DomainError("car_flux_1w requires a one_way_car model")
    r = np.asarray(rho, dtype=float)
    scalar = r.ndim == 0
    params = model.pressure
    # pressure_1w: background plus the singular correction, which starts
    # at the vacuum floor of pr.two_way_offsets (it started at rho > 0)
    singular = np.zeros_like(r)
    pos = r >= pr.VACUUM_FLOOR
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        singular[pos] = params.eps / z**params.gamma
    p = np.asarray(params.M * r**params.m) + singular
    out = r * (model.V - p)
    return float(out) if scalar else out


def reference_two_way_car_flux(model, rho_plus, rho_minus):
    """(rho+ (V - p(rho+,rho-)), -rho- (V - p(rho-,rho+)))."""
    if model.kind is not md.ModelKind.TWO_WAY_CAR:
        raise DomainError("two_way_car_flux requires a two_way_car model")
    p_plus, p_minus = md.two_way_pressures(model, rho_plus, rho_minus)
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    scalar = rp.ndim == 0 and rm.ndim == 0
    f_p = rp * (model.V - p_plus)
    f_m = -rm * (model.V - p_minus)
    return (float(f_p), float(f_m)) if scalar else (f_p, f_m)


def reference_species_primitives(rho, y):
    """(rho, w, vacuum mask) with the mask built on every call; a vacuum
    cell may carry momentum up to VACUUM_MAX_W * VACUUM_FLOOR."""
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    vac = rho < pr.VACUUM_FLOOR
    if (vac & (np.abs(y) > md.VACUUM_MAX_W * pr.VACUUM_FLOOR)).any():
        raise VacuumError("zero density with non-zero momentum")
    w = np.where(vac, 0.0, y / np.where(vac, 1.0, rho))
    return rho, w, vac


def reference_ar_conserved_flux(model, U):
    """(rho u, rho w u) per species of the dynamic desired-speed models."""
    U = np.asarray(U, dtype=float)
    if model.kind is md.ModelKind.ONE_WAY_AR:
        rho, w, vac = reference_species_primitives(U[0], U[1])
        p = pr.two_way_offsets(model.pressure, pr.LONE_STREAM, pr.LONE_STREAM, rho,
                               0.0)[0]
        u = np.where(vac, 0.0, w - p)
        return np.stack([rho * u, U[1] * u])
    if model.kind is not md.ModelKind.TWO_WAY_AR:
        raise DomainError("ar_conserved_flux requires a dynamic desired-speed model")
    rho_p, w_p, vac_p = reference_species_primitives(U[0], U[1])
    rho_m, w_m, vac_m = reference_species_primitives(U[2], U[3])
    p_plus, p_minus = md.two_way_pressures(model, rho_p, rho_m)
    u_p = np.where(vac_p, 0.0, w_p - np.asarray(p_plus))
    u_m = np.where(vac_m, 0.0, -w_m + np.asarray(p_minus))
    return np.stack([rho_p * u_p, U[1] * u_p, rho_m * u_m, U[3] * u_m])


def reference_flux(model, U):
    """The dispatch of ModelSpec.flux before the fold."""
    if model.kind is md.ModelKind.ONE_WAY_CAR:
        return np.stack([reference_car_flux_1w(model, U[0])])
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        f_p, f_m = reference_two_way_car_flux(model, U[0], U[1])
        return np.stack([f_p, f_m])
    return reference_ar_conserved_flux(model, U)


crowding_weights = st.builds(
    pr.CrowdingWeight,
    kind=st.sampled_from(list(pr.CrowdingKind)),
    beta=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0),
)


@st.composite
def pressure_laws(draw, one_way):
    # special exponents take NumPy fast paths (square, sqrt) that round
    # differently from pow, so they are drawn explicitly
    exponents = [1.5, 2.0, 3.0] if one_way else [1.0, 1.5, 2.0, 3.0]
    return pr.PressureParams(
        M=draw(st.floats(0.0, 2.0)),
        m=draw(st.sampled_from(exponents) | st.floats(1.01 if one_way else 1.0, 4.0)),
        eps=draw(st.just(0.0) | st.floats(1e-4, 0.5)),
        gamma=draw(st.sampled_from([2.0, 3.0]) | st.floats(1.01, 4.0)),
        rho_star=draw(st.sampled_from([1.0]) | st.floats(0.5, 2.0)),
    )


@st.composite
def flux_models(draw):
    kind = draw(st.sampled_from([
        md.ModelKind.ONE_WAY_CAR, md.ModelKind.TWO_WAY_CAR,
        md.ModelKind.ONE_WAY_AR, md.ModelKind.TWO_WAY_AR,
    ]))
    one_way = kind in (md.ModelKind.ONE_WAY_CAR, md.ModelKind.ONE_WAY_AR)
    pressure = draw(pressure_laws(one_way))
    V = draw(st.sampled_from([1.0]) | st.floats(0.1, 2.0))
    if kind is md.ModelKind.ONE_WAY_CAR:
        return md.ModelSpec.one_way_car(V=V, pressure=pressure)
    if kind is md.ModelKind.ONE_WAY_AR:
        return md.ModelSpec.one_way_ar(pressure)
    crowding = draw(crowding_weights)
    crowding_minus = draw(crowding_weights)
    if kind is md.ModelKind.TWO_WAY_CAR:
        return md.ModelSpec.two_way_car(V, pressure, crowding, crowding_minus)
    return md.ModelSpec.two_way_ar(pressure, crowding, crowding_minus)


@st.composite
def admissible_states(draw, model):
    """A (C,), (C, N) or (C, K, N) state: densities >= 0 with a total below
    rho_star, and momenta rho * w with w in [0, 2].  Half of the draws have
    no total below VACUUM_FLOOR; the other half draw totals of 0 and below
    the floor among live cells, so both branches of the vacuum mask are
    taken."""
    cells = draw(st.sampled_from([(), (1,), (7,), (2, 9), (3, 5)]))
    loads = st.floats(2 * pr.VACUUM_FLOOR, 0.999)
    if draw(st.booleans()):
        loads = (st.sampled_from([0.0]) | st.floats(0.0, 0.999)
                 | st.floats(0.0, 0.5 * pr.VACUUM_FLOOR, exclude_min=True))
    fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    speeds = st.sampled_from([1.0]) | st.floats(0.0, 2.0)
    load = draw(hnp.arrays(np.float64, cells, elements=loads))
    total = model.pressure.rho_star * load
    if len(model.density_rows) == 1:
        densities = [total]
    else:
        rho_plus = total * draw(hnp.arrays(np.float64, cells, elements=fractions))
        densities = [rho_plus, total - rho_plus]
    rows = []
    for rho in densities:
        rows.append(rho)
        if model.n_conserved == 2 * len(densities):
            rows.append(rho * draw(hnp.arrays(np.float64, cells, elements=speeds)))
    return np.stack(rows)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64),
        np.ascontiguousarray(want).view(np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(model=flux_models(), data=st.data())
def test_flux_matches_the_module_level_reference(model, data):
    U = data.draw(admissible_states(model))
    # w <= 2 <= VACUUM_MAX_W, so no admissible state is a VacuumError, also
    # below the vacuum floor
    assert_bitwise_equal(model.flux(U), reference_flux(model, U))


@pytest.mark.parametrize("kind", ["one_way_ar", "two_way_ar"])
@pytest.mark.parametrize("rho, y, raises", [
    (7.5e-13, 1.5e-12, False),  # w = 2 below the floor
    (0.0, 1e-17, False),  # round-off momentum at vacuum
    (5e-13, 0.99 * md.VACUUM_MAX_W * pr.VACUUM_FLOOR, False),
    (5e-13, 1.01 * md.VACUUM_MAX_W * pr.VACUUM_FLOOR, True),
    (0.0, 0.5, True),
])
def test_vacuum_error_follows_the_momentum_bound(kind, rho, y, raises):
    # the first cell of the plus species is the one below the floor
    model = getattr(md.ModelSpec, kind)(pressure_params())
    rows = [[rho, 0.3], [y, 0.3]]
    U = np.array(rows + [[0.2, 0.2], [0.2, 0.2]] if kind == "two_way_ar" else rows)
    if raises:
        for call in (model.flux, model.max_abs_speed, lambda U: reference_flux(model, U)):
            with pytest.raises(VacuumError, match="zero density with non-zero momentum"):
                call(U)
    else:
        assert_bitwise_equal(model.flux(U), reference_flux(model, U))
        assert np.all(np.isfinite(model.max_abs_speed(U)))


# The sim_flux flux as two stacked rows, and the real case of the root-pair
# modulus as the larger of two absolute values: bitwise references for the
# shorter forms of the kernels.


def reference_sim_flux(model, U):
    """(rho+ h, -rho- h), stacked from two rows."""
    rho_p, rho_m = U[0], U[1]
    _, h, _ = md._sim_h(model.flux_shape, rho_p, rho_m)
    return np.stack([rho_p * h, -rho_m * h])


def reference_pair_max_modulus(trace, disc):
    sq = np.sqrt(np.abs(disc))
    real_case = 0.5 * np.maximum(np.abs(trace + sq), np.abs(trace - sq))
    complex_case = 0.5 * np.sqrt(trace * trace + np.abs(disc))
    return np.where(disc >= 0.0, real_case, complex_case)


# Signed zeros, the smallest subnormal and the smallest normal, and
# magnitudes from the subnormal range up to 1e300.
EDGE_MAGNITUDES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300]


def edge_floats(nonnegative=False):
    """Those values and their negatives, or only -0.0 below zero if
    nonnegative, plus any value of the same range and values of order 1."""
    values = EDGE_MAGNITUDES + [-0.0]
    if not nonnegative:
        values += [-x for x in EDGE_MAGNITUDES]
    low = 0.0 if nonnegative else -1e300
    return (st.sampled_from(values) | st.floats(low, 1e300)
            | st.floats(max(low, -1e-300), 1e-300) | st.floats(max(low, -2.0), 2.0))


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(2,), (2, 7), (2, 3, 5)]), data=st.data())
def test_sim_flux_matches_the_stacked_reference(shape, data):
    # (C,), (C, N) and (C, K, N) states: in the first the minus row is a
    # scalar, which np.negative(F[1], out=F[1]) cannot write to.
    densities = edge_floats(nonnegative=True) | st.sampled_from([0.35, 0.5, 0.7])
    U = data.draw(hnp.arrays(np.float64, shape, elements=densities))
    assert_bitwise_equal(SIM.flux(U), reference_sim_flux(SIM, U))


@settings(max_examples=500, deadline=None)
@given(shape=st.sampled_from([(), (1,), (6,), (2, 5)]), data=st.data())
def test_pair_max_modulus_matches_the_two_abs_reference(shape, data):
    trace = data.draw(hnp.arrays(np.float64, shape, elements=edge_floats()))
    disc = data.draw(hnp.arrays(np.float64, shape, elements=edge_floats()))
    # trace**2 of the unused complex case overflows for |trace| > 1e154
    with np.errstate(over="ignore"):
        got = md._pair_max_modulus(trace, disc)
        want = reference_pair_max_modulus(trace, disc)
    assert_bitwise_equal(np.asarray(got), np.asarray(want))


# _pair_max_modulus skips the complex-root case when no disc is negative;
# reference_pair_max_modulus, which selects between both cases everywhere,
# stays its bitwise reference in bits, shape and dtype on either path.


def assert_same_result(trace, disc):
    trace, disc = np.asarray(trace, dtype=float), np.asarray(disc, dtype=float)
    # trace**2 of the complex case overflows for |trace| > 1e154
    with np.errstate(over="ignore"):
        got = md._pair_max_modulus(trace, disc)
        want = reference_pair_max_modulus(trace, disc)
    assert np.shape(got) == want.shape and np.result_type(got) == want.dtype
    assert_bitwise_equal(np.asarray(got), want)


@pytest.mark.parametrize("trace, disc", [
    ([0.5, -0.0, 2.0, 1e300], [0.0, -0.0, 5e-324, 4.0]),  # every disc >= 0
    ([1.0, 1.0, -3.0, 0.0], [1.0, -1.0, -0.0, -5e-324]),  # mixed signs
    ([1.0, -2.0, 0.0], [-1.0, -5e-324, -1e300]),  # every disc < 0
    ([1.0, 1.0], [np.nan, 1.0]),  # NaN takes the select
    (1.5, 2.0), (1.5, -2.0), (-0.0, -0.0),  # 0-d
    ([], []),
])
def test_the_real_root_shortcut_keeps_the_bits_of_both_cases(trace, disc):
    assert_same_result(trace, disc)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(), (1,), (6,), (2, 5)]),
       signs=st.sampled_from(["nonnegative", "mixed", "negative"]), data=st.data())
def test_the_real_root_shortcut_matches_both_cases_for_any_signs(shape, signs, data):
    trace = data.draw(hnp.arrays(np.float64, shape, elements=edge_floats()))
    disc = data.draw(hnp.arrays(np.float64, shape,
                                elements=edge_floats(nonnegative=True)))
    if signs != "nonnegative":
        # -0.0 is no negative disc: make the negated entries below zero
        flip = np.ones(shape, dtype=bool) if signs == "negative" else data.draw(
            hnp.arrays(np.bool_, shape))
        disc = np.where(flip, -np.maximum(disc, 5e-324), disc)
    assert_same_result(trace, disc)
