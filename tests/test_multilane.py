import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import models as md
from pedflow import multilane as ml
from pedflow import pressure as pr
from pedflow import solver as sv
from pedflow.errors import BlowUpError, DomainError, SourceStiffnessError


def car_model(V=1.0, eps=1e-3):
    params = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=2.0, rho_star=1.0)
    return md.ModelSpec.two_way_car(V=V, pressure=params)


def ar_model(eps=1e-3):
    params = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=2.0, rho_star=1.0)
    return md.ModelSpec.two_way_ar(params)


def random_rates(rng, K, shape=()):
    return rng.uniform(0, 1, (K, 2) + shape)


class TestLaneChangeRate:
    def test_no_incentive_no_move(self):
        rates = ml.LaneChangeRates(lambda0=1.0)
        assert ml.lane_change_rate(rates, -0.5, 0.2, 1.0) == 0.0
        assert ml.lane_change_rate(rates, 0.0, 0.2, 1.0) == 0.0

    def test_congested_target_attracts_nobody(self):
        rates = ml.LaneChangeRates(lambda0=1.0)
        assert ml.lane_change_rate(rates, 5.0, 1.0, 1.0) == 0.0

    def test_direct_evaluation(self):
        rates = ml.LaneChangeRates(lambda0=1.0)
        assert ml.lane_change_rate(rates, 2.0, 0.5, 1.0) == pytest.approx(1.0)

    def test_monotone_in_pressure_derivative(self):
        for ramp in ("positive_part", "sigmoid"):
            rates = ml.LaneChangeRates(lambda0=0.7, ramp=ramp)
            dpdt = np.linspace(-2, 2, 41)
            vals = ml.lane_change_rate(rates, dpdt, 0.3, 1.0)
            assert np.all(np.diff(vals) >= 0)
            assert np.all(vals >= 0)

    def test_antimonotone_in_target_density(self):
        for cutoff in ("linear", "quadratic"):
            rates = ml.LaneChangeRates(lambda0=0.7, cutoff=cutoff)
            rho_t = np.linspace(0, 1.0, 41)
            vals = ml.lane_change_rate(rates, 1.0, rho_t, 1.0)
            assert np.all(np.diff(vals) <= 0)
            assert vals[-1] == 0.0

    def test_target_beyond_jam_rejected(self):
        rates = ml.LaneChangeRates(lambda0=1.0)
        with pytest.raises(DomainError):
            ml.lane_change_rate(rates, 1.0, 1.5, 1.0)


class TestSources:
    def test_identical_lanes_cancel(self):
        rng = np.random.default_rng(0)
        K = 4
        rho = np.tile(rng.uniform(0.1, 0.4, (1, 2, 8)), (K, 1, 1))
        lam = np.full((K, 2, 8), 0.3)
        S = ml.density_sources(rho, lam.copy(), lam.copy())
        # interior lanes see equal in/out; boundaries only clamp outward
        assert np.allclose(S[1:-1], 0.0, atol=1e-15)

    def test_single_lane_has_no_sources(self):
        rho = np.random.default_rng(1).uniform(0.1, 0.4, (1, 2, 8))
        lam = np.ones((1, 2, 8))
        S = ml.density_sources(rho, lam.copy(), lam.copy())
        np.testing.assert_array_equal(S, 0.0)

    def test_two_lane_single_rate_hand_case(self):
        # only lane 0 -> lane 1 for the plus direction, rate 1, rho = 0.3
        rho = np.zeros((2, 2, 1))
        rho[0, 0, 0] = 0.3
        rates_up = np.zeros((2, 2, 1))
        rates_up[0, 0, 0] = 1.0
        rates_down = np.zeros((2, 2, 1))
        S = ml.density_sources(rho, rates_up, rates_down)
        assert S[0, 0, 0] == pytest.approx(-0.3)
        assert S[1, 0, 0] == pytest.approx(0.3)
        assert S[:, 1, :].sum() == 0.0

    def test_momentum_hand_case(self):
        rho = np.zeros((2, 2, 1))
        rho[0, 0, 0] = 0.3
        w = np.full((2, 2, 1), 1.2)
        rates_up = np.zeros((2, 2, 1))
        rates_up[0, 0, 0] = 1.0
        rates_down = np.zeros((2, 2, 1))
        R = ml.momentum_sources(rho, w, rates_up, rates_down)
        assert R[0, 0, 0] == pytest.approx(-0.36)
        assert R[1, 0, 0] == pytest.approx(0.36)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_lane_sum_cancels(self, K):
        rng = np.random.default_rng(K)
        rho = rng.uniform(0.0, 0.5, (K, 2, 16))
        up = random_rates(rng, K, (16,))
        down = random_rates(rng, K, (16,))
        S = ml.density_sources(rho, up, down)
        scale = max((np.abs(up * rho)).max(), (np.abs(down * rho)).max(), 1e-30)
        assert np.abs(S.sum(axis=0)).max() <= 1e-13 * scale * K
        w = rng.uniform(0.5, 1.5, (K, 2, 16))
        R = ml.momentum_sources(rho, w, up, down)
        assert np.abs(R.sum(axis=0)).max() <= 1e-13 * scale * K * w.max()

    def test_uniform_w_factors_out(self):
        rng = np.random.default_rng(9)
        K = 5
        rho = rng.uniform(0.0, 0.5, (K, 2, 8))
        up = random_rates(rng, K, (8,))
        down = random_rates(rng, K, (8,))
        V = 1.3
        S = ml.density_sources(rho, up, down)
        R = ml.momentum_sources(rho, np.full_like(rho, V), up, down)
        np.testing.assert_allclose(R, V * S, rtol=1e-13, atol=1e-16)

    def test_w_transport_consistency(self):
        # (R - w S)/rho matches the relative-inflow form of the w equation
        rng = np.random.default_rng(12)
        K = 4
        rho = rng.uniform(0.1, 0.5, (K, 2, 8))
        w = rng.uniform(0.8, 1.4, (K, 2, 8))
        up = random_rates(rng, K, (8,))
        down = random_rates(rng, K, (8,))
        up[K - 1] = 0.0
        down[0] = 0.0
        S = ml.density_sources(rho, up, down)
        R = ml.momentum_sources(rho, w, up, down)
        for k in range(K):
            expected = np.zeros_like(w[k])
            if k + 1 < K:
                expected += down[k + 1] * rho[k + 1] / rho[k] * (w[k + 1] - w[k])
            if k - 1 >= 0:
                expected += up[k - 1] * rho[k - 1] / rho[k] * (w[k - 1] - w[k])
            got = (R[k] - w[k] * S[k]) / rho[k]
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-13)


def make_stack(K, rng, n=16):
    lanes = []
    for _ in range(K):
        rho_p = rng.uniform(0.1, 0.3, n)
        rho_m = rng.uniform(0.1, 0.3, n)
        lanes.append(np.stack([rho_p, rho_m]))
    return ml.LaneStack(
        model=car_model(),
        values=np.stack(lanes, axis=1),
        rates=ml.LaneChangeRates(lambda0=0.5),
    )


class TestCoupledStep:
    def test_zero_rates_match_independent_steps(self):
        rng = np.random.default_rng(2)
        stack = make_stack(3, rng)
        stack.rates = ml.LaneChangeRates(lambda0=0.0)
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        independent = [
            sv._advance(stack.model, stack.values[:, k], grid, params)[0]
            for k in range(stack.n_lanes)
        ]
        coupled = ml.coupled_step(stack, grid, params)
        for k, want in enumerate(independent):
            np.testing.assert_array_equal(coupled.values[:, k], want)

    def test_per_direction_mass_conserved(self):
        rng = np.random.default_rng(3)
        stack = make_stack(4, rng)
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        before = stack.direction_mass(grid)
        for _ in range(40):
            stack = ml.coupled_step(stack, grid, params)
        after = stack.direction_mass(grid)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_symmetric_lanes_stay_identical(self):
        rng = np.random.default_rng(4)
        n = 16
        rho_p = rng.uniform(0.1, 0.3, n)
        rho_m = rng.uniform(0.1, 0.3, n)
        lane = np.stack([rho_p, rho_m])
        stack = ml.LaneStack(
            model=car_model(),
            values=np.stack([lane, lane], axis=1),
            rates=ml.LaneChangeRates(lambda0=0.5),
        )
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        for _ in range(20):
            stack = ml.coupled_step(stack, grid, params)
        np.testing.assert_array_equal(stack.values[:, 0], stack.values[:, 1])

    def test_ar_lanes_conserve_momentum_totals(self):
        rng = np.random.default_rng(5)
        model = ar_model()
        n = 16
        lanes = []
        for _ in range(3):
            rho_p = rng.uniform(0.1, 0.3, n)
            rho_m = rng.uniform(0.1, 0.3, n)
            w_p = rng.uniform(1.0, 1.2, n)
            w_m = rng.uniform(1.0, 1.2, n)
            lanes.append(np.stack([rho_p, rho_p * w_p, rho_m, rho_m * w_m]))
        stack = ml.LaneStack(
            model=model,
            values=np.stack(lanes, axis=1),
            rates=ml.LaneChangeRates(lambda0=0.4),
        )
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        y_before = stack.values[[1, 3]].sum()
        mass_before = stack.direction_mass(grid)
        for _ in range(20):
            stack = ml.coupled_step(stack, grid, params)
        mass_after = stack.direction_mass(grid)
        y_after = stack.values[[1, 3]].sum()
        np.testing.assert_allclose(mass_after, mass_before, rtol=1e-12)
        assert y_after == pytest.approx(y_before, rel=1e-12)

    def test_source_stiffness_guard(self):
        rng = np.random.default_rng(6)
        stack = make_stack(2, rng)
        stack.rates = ml.LaneChangeRates(lambda0=30.0)
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        with pytest.raises(SourceStiffnessError):
            ml.coupled_step(stack, grid, params)

    def test_stack_validation(self):
        with pytest.raises(DomainError, match="two-way"):
            ml.LaneStack(
                model=md.ModelSpec.sim_flux(),
                values=np.zeros((2, 1, 8)),
                rates=ml.LaneChangeRates(),
            )
        # no lanes; a single lane without a lane axis; too many components
        for shape in [(2, 0, 8), (2, 8), (4, 2, 8)]:
            with pytest.raises(DomainError, match="lane state must be"):
                ml.LaneStack(
                    model=car_model(),
                    values=np.zeros(shape),
                    rates=ml.LaneChangeRates(),
                )

    def test_outflow_bound(self):
        # A dense bump in lane 0 drives rates whose combined outflow
        # dt*(rate_up + rate_down) exceeds 1 although lambda0*dt = 0.5;
        # applied, the exchange would make densities negative.
        n = 64
        lane0 = np.stack([np.full(n, 0.1), np.full(n, 0.05)])
        lane0[0, 28:36] = 0.75
        lane1 = np.stack([np.full(n, 0.1), np.full(n, 0.05)])
        stack = ml.LaneStack(
            model=car_model(),
            values=np.stack([lane0, lane1], axis=1),
            rates=ml.LaneChangeRates(lambda0=10.0),
        )
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        with pytest.raises(SourceStiffnessError, match="lane 0, direction plus, cell"):
            for _ in range(8):
                stack = ml.coupled_step(stack, grid, params)
                assert stack.densities().min() >= 0.0

    def test_blow_up_names_the_lane(self):
        stack = make_stack(2, np.random.default_rng(9))
        stack.values[0, 1, 5] = np.nan
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        with pytest.raises(BlowUpError, match="of lane 1 at cell"):
            ml.coupled_step(stack, grid, sv.SchemeParams(dt=0.05))

    def test_clipped_mass_accumulates_on_the_stack(self, monkeypatch):
        advance = sv._advance

        def clipping_advance(model, U, grid, params):
            U_new, cfl, clipped = advance(model, U, grid, params)
            return U_new, cfl, clipped + 0.25

        monkeypatch.setattr(sv, "_advance", clipping_advance)
        stack = make_stack(2, np.random.default_rng(8))
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        for _ in range(3):
            stack = ml.coupled_step(stack, grid, params)
        assert stack.clipped_mass == 0.75


# The per-lane coupled step that the batched one replaced, kept as the
# reference: one solver step per lane, then rates filled lane by lane.


def reference_desired_speeds(stack):
    model = stack.model
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        n = stack.values.shape[-1]
        return np.stack([np.full((2, n), model.V, dtype=float)
                         for _ in range(stack.n_lanes)])
    out = []
    for k in range(stack.n_lanes):
        v = stack.values[:, k]
        _, w_p, _ = md._species_primitives(v[0], v[1])
        _, w_m, _ = md._species_primitives(v[2], v[3])
        out.append(np.stack([w_p, w_m]))
    return np.stack(out)


def reference_offsets_and_speeds(stack):
    model = stack.model
    rows = list(model.density_rows)
    rho = np.stack([stack.values[rows, k] for k in range(stack.n_lanes)])
    p = np.empty_like(rho)
    u = np.empty_like(rho)
    for k in range(stack.n_lanes):
        p_plus, p_minus = md.two_way_pressures(model, rho[k, 0], rho[k, 1])
        p[k, 0], p[k, 1] = p_plus, p_minus
        if model.kind is md.ModelKind.TWO_WAY_CAR:
            u[k, 0] = model.V - p_plus
            u[k, 1] = -model.V + p_minus
        else:
            v = stack.values[:, k]
            _, w_p, _ = md._species_primitives(v[0], v[1])
            _, w_m, _ = md._species_primitives(v[2], v[3])
            u[k, 0] = w_p - p_plus
            u[k, 1] = -w_m + p_minus
    return rho, p, u


def reference_coupled_step(stack, grid, params):
    model = stack.model
    new_lanes = [
        sv._advance(model, stack.values[:, k], grid, params)[0]
        for k in range(stack.n_lanes)
    ]
    new_stack = ml.LaneStack(
        model=model,
        values=np.stack(new_lanes, axis=1),
        rates=stack.rates,
        time=stack.time + params.dt,
        prev_offsets=stack.prev_offsets,
    )
    rho, p, u = reference_offsets_and_speeds(new_stack)
    dpdt = u * ml._upwind_gradient(p, u, grid.dx)
    if stack.prev_offsets is not None:
        dpdt = dpdt + (p - stack.prev_offsets) / params.dt

    K = new_stack.n_lanes
    rho_star = model.pressure.rho_star
    total = rho.sum(axis=1)
    rates_up = np.zeros_like(rho)
    rates_down = np.zeros_like(rho)
    for k in range(K):
        for alpha in range(2):
            if k + 1 < K:
                rates_up[k, alpha] = ml.lane_change_rate(
                    stack.rates, dpdt[k, alpha], total[k + 1], rho_star
                )
            if k - 1 >= 0:
                rates_down[k, alpha] = ml.lane_change_rate(
                    stack.rates, dpdt[k, alpha], total[k - 1], rho_star
                )

    S = ml.density_sources(rho, rates_up, rates_down)
    if model.kind is md.ModelKind.TWO_WAY_AR:
        R = ml.momentum_sources(rho, reference_desired_speeds(new_stack),
                                rates_up, rates_down)
    dens_rows = list(model.density_rows)
    for k in range(K):
        new_stack.values[dens_rows, k] += params.dt * S[k]
        if model.kind is md.ModelKind.TWO_WAY_AR:
            new_stack.values[1, k] += params.dt * R[k, 0]
            new_stack.values[3, k] += params.dt * R[k, 1]
    new_stack.prev_offsets = p
    return new_stack


def assert_bitwise_equal(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def lane_stacks(draw, kind, K, n=12):
    rho = draw(hnp.arrays(np.float64, (K, 2, n), elements=st.floats(0.02, 0.35)))
    if kind == "two_way_car":
        model = car_model()
        values = rho
    else:
        model = ar_model()
        w = draw(hnp.arrays(np.float64, (K, 2, n), elements=st.floats(0.8, 1.3)))
        values = np.stack(
            [rho[:, 0], rho[:, 0] * w[:, 0], rho[:, 1], rho[:, 1] * w[:, 1]], axis=1
        )
    rates = ml.LaneChangeRates(
        lambda0=draw(st.floats(0.1, 2.0)),
        ramp=draw(st.sampled_from(["positive_part", "sigmoid"])),
        cutoff=draw(st.sampled_from(["linear", "quadratic"])),
    )
    return ml.LaneStack(
        model=model,
        values=np.ascontiguousarray(values.swapaxes(0, 1)),
        rates=rates,
    )


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("kind", ["two_way_car", "two_way_ar"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_step_matches_per_lane_reference(kind, K, data):
    stack = data.draw(lane_stacks(kind, K))
    delta = data.draw(st.sampled_from([0.0, 0.1]))
    grid = sv.Grid1D(n_cells=stack.values.shape[-1], dx=1.0)
    params = sv.SchemeParams(dt=0.05, delta_diff=delta)
    batched = reference = stack
    for _ in range(20):
        batched = ml.coupled_step(batched, grid, params)
        reference = reference_coupled_step(reference, grid, params)
        assert batched.time == reference.time
        assert_bitwise_equal(batched.values, reference.values)
        assert_bitwise_equal(batched.prev_offsets, reference.prev_offsets)
