from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import cli
from pedflow import models as md
from pedflow import multilane as ml
from pedflow import pressure as pr
from pedflow import solver as sv
from pedflow.errors import (
    BlowUpError,
    CongestionOverflowError,
    PedflowError,
    SourceStiffnessError,
)


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

    def test_target_beyond_jam_rejected(self, monkeypatch):
        # The rates only see admissible target lanes: coupled_step checks
        # the state after the exchange, so rates that would fill lane 1
        # beyond the jam density stop the step.  The stand-in rates move
        # 90% of lane 0 up (first call) and nothing down.
        calls = []

        def rates(_rates, dpdt, rho_target, rho_star):
            calls.append(rho_target)
            return np.full(dpdt.shape, 18.0 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(ml, "lane_change_rate", rates)
        lanes = [np.full((2, 8), 0.4), np.full((2, 8), 0.45)]
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        with pytest.raises(CongestionOverflowError, match="reached the jam density"):
            ml.coupled_step(car_model(), ml.LaneChangeRates(lambda0=1.0),
                            np.stack(lanes, axis=1), None, grid,
                            sv.SchemeParams(dt=0.05), 0.0)
        assert max(float(np.max(t)) for t in calls) < 1.0


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
        R = ml.density_sources(rho * w, rates_up, rates_down)
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
        R = ml.density_sources(rho * w, up, down)
        assert np.abs(R.sum(axis=0)).max() <= 1e-13 * scale * K * w.max()

    def test_uniform_w_factors_out(self):
        rng = np.random.default_rng(9)
        K = 5
        rho = rng.uniform(0.0, 0.5, (K, 2, 8))
        up = random_rates(rng, K, (8,))
        down = random_rates(rng, K, (8,))
        V = 1.3
        S = ml.density_sources(rho, up, down)
        R = ml.density_sources(rho * np.full_like(rho, V), up, down)
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
        R = ml.density_sources(rho * w, up, down)
        for k in range(K):
            expected = np.zeros_like(w[k])
            if k + 1 < K:
                expected += down[k + 1] * rho[k + 1] / rho[k] * (w[k + 1] - w[k])
            if k - 1 >= 0:
                expected += up[k - 1] * rho[k - 1] / rho[k] * (w[k - 1] - w[k])
            got = (R[k] - w[k] * S[k]) / rho[k]
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-13)


def make_lanes(K, rng, n=16):
    """The (2, K, n) state of K two_way_car lanes with drawn densities."""
    lanes = []
    for _ in range(K):
        rho_p = rng.uniform(0.1, 0.3, n)
        rho_m = rng.uniform(0.1, 0.3, n)
        lanes.append(np.stack([rho_p, rho_m]))
    return np.stack(lanes, axis=1)


def direction_mass(model, U, grid):
    """Total mass per walking direction, summed over lanes."""
    return ml.lane_densities(model, U).sum(axis=(0, 2)) * grid.dx


def run_steps(model, rates, U, grid, params, n_steps):
    """The state n_steps coupled steps make from U."""
    offsets = None
    for k in range(n_steps):
        U, offsets, _ = ml.coupled_step(model, rates, U, offsets, grid, params,
                                        k * params.dt)
    return U


class TestCoupledStep:
    def test_zero_rates_match_independent_steps(self):
        rng = np.random.default_rng(2)
        model, U = car_model(), make_lanes(3, rng)
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        independent = [
            sv._advance(model, U[:, k], grid, params)[0]
            for k in range(U.shape[1])
        ]
        coupled, _, _ = ml.coupled_step(model, ml.LaneChangeRates(lambda0=0.0), U,
                                        None, grid, params, 0.0)
        for k, want in enumerate(independent):
            np.testing.assert_array_equal(coupled[:, k], want)

    def test_per_direction_mass_conserved(self):
        rng = np.random.default_rng(3)
        model, U = car_model(), make_lanes(4, rng)
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        before = direction_mass(model, U, grid)
        U = run_steps(model, ml.LaneChangeRates(lambda0=0.5), U, grid, params, 40)
        after = direction_mass(model, U, grid)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_symmetric_lanes_stay_identical(self):
        rng = np.random.default_rng(4)
        n = 16
        rho_p = rng.uniform(0.1, 0.3, n)
        rho_m = rng.uniform(0.1, 0.3, n)
        lane = np.stack([rho_p, rho_m])
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
        U = run_steps(car_model(), ml.LaneChangeRates(lambda0=0.5),
                      np.stack([lane, lane], axis=1), grid, params, 20)
        np.testing.assert_array_equal(U[:, 0], U[:, 1])

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
        U = np.stack(lanes, axis=1)
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        y_before = U[[1, 3]].sum()
        mass_before = direction_mass(model, U, grid)
        U = run_steps(model, ml.LaneChangeRates(lambda0=0.4), U, grid, params, 20)
        mass_after = direction_mass(model, U, grid)
        y_after = U[[1, 3]].sum()
        np.testing.assert_allclose(mass_after, mass_before, rtol=1e-12)
        assert y_after == pytest.approx(y_before, rel=1e-12)

    def test_outflow_bound(self):
        # A dense bump in lane 0 drives rates whose combined outflow
        # dt*(rate_up + rate_down) exceeds 1 although lambda0*dt = 0.5;
        # applied, the exchange would make densities negative.
        n = 64
        lane0 = np.stack([np.full(n, 0.1), np.full(n, 0.05)])
        lane0[0, 28:36] = 0.75
        lane1 = np.stack([np.full(n, 0.1), np.full(n, 0.05)])
        model, rates = car_model(), ml.LaneChangeRates(lambda0=10.0)
        U, offsets = np.stack([lane0, lane1], axis=1), None
        grid = sv.Grid1D(n_cells=n, dx=1.0)
        params = sv.SchemeParams(dt=0.05)
        with pytest.raises(SourceStiffnessError, match="lane 0, direction plus, cell"):
            for k in range(8):
                U, offsets, _ = ml.coupled_step(model, rates, U, offsets, grid,
                                                params, k * params.dt)
                assert ml.lane_densities(model, U).min() >= 0.0

    def test_blow_up_names_the_lane(self):
        U = make_lanes(2, np.random.default_rng(9))
        U[0, 1, 5] = np.nan
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        with pytest.raises(BlowUpError, match="of lane 1 at cell"):
            ml.coupled_step(car_model(), ml.LaneChangeRates(lambda0=0.5), U, None,
                            grid, sv.SchemeParams(dt=0.05), 0.0)


def test_a_multilane_step_keeps_its_call_structure(monkeypatch, tmp_path):
    # The calls of one step of a multi-lane run of two_lane.cfg: the
    # stepper's stability number, then the coupled step, whose
    # transport makes one speed bound and two flux calls and whose
    # exchange two rate and one source call.  One speed bound per step
    # (ROADMAP item 2) changes this pin on purpose.
    per_step = {(sv, "measured_cfl"): 1, (sv, "_advance"): 1,
                (md.ModelSpec, "max_abs_speed"): 2, (md.ModelSpec, "flux"): 2,
                (ml, "coupled_step"): 1, (ml, "lane_change_rate"): 2,
                (ml, "density_sources"): 1}
    calls = dict.fromkeys(per_step, 0)
    for key in per_step:
        def counted(*args, _key=key, _original=getattr(*key)):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(*key, counted)
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "scenarios"
                          / "two_lane.cfg")
    cfg.t_end = 3 * cfg.scheme.dt
    result = cli.run_scenario(cfg, tmp_path)
    assert len(result.run.audit.step) == 3
    assert calls == {key: 3 * n for key, n in per_step.items()}


# The per-lane coupled step that the batched one replaced, kept as the
# reference: one solver step per lane, then rates filled lane by lane.


def reference_desired_speeds(model, U):
    K = U.shape[1]
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        n = U.shape[-1]
        return np.stack([np.full((2, n), model.V, dtype=float) for _ in range(K)])
    out = []
    for k in range(K):
        v = U[:, k]
        _, w_p, _ = md._species_primitives(v[0], v[1])
        _, w_m, _ = md._species_primitives(v[2], v[3])
        out.append(np.stack([w_p, w_m]))
    return np.stack(out)


def reference_offsets_and_speeds(model, U):
    K = U.shape[1]
    rows = list(model.density_rows)
    rho = np.stack([U[rows, k] for k in range(K)])
    p = np.empty_like(rho)
    u = np.empty_like(rho)
    for k in range(K):
        p_plus, p_minus = md.two_way_pressures(model, rho[k, 0], rho[k, 1])
        p[k, 0], p[k, 1] = p_plus, p_minus
        if model.kind is md.ModelKind.TWO_WAY_CAR:
            u[k, 0] = model.V - p_plus
            u[k, 1] = -model.V + p_minus
        else:
            v = U[:, k]
            _, w_p, _ = md._species_primitives(v[0], v[1])
            _, w_m, _ = md._species_primitives(v[2], v[3])
            u[k, 0] = w_p - p_plus
            u[k, 1] = -w_m + p_minus
    return rho, p, u


def reference_coupled_step(model, rates, U, prev_offsets, grid, params, t):
    """The state, offsets and time one step makes from U at time t."""
    K = U.shape[1]
    new = np.stack([sv._advance(model, U[:, k], grid, params)[0] for k in range(K)],
                   axis=1)
    rho, p, u = reference_offsets_and_speeds(model, new)
    dpdt = u * ml._upwind_gradient(p, u, grid.dx)
    if prev_offsets is not None:
        dpdt = dpdt + (p - prev_offsets) / params.dt

    rho_star = model.pressure.rho_star
    total = rho.sum(axis=1)
    rates_up = np.zeros_like(rho)
    rates_down = np.zeros_like(rho)
    for k in range(K):
        for alpha in range(2):
            if k + 1 < K:
                rates_up[k, alpha] = ml.lane_change_rate(
                    rates, dpdt[k, alpha], total[k + 1], rho_star
                )
            if k - 1 >= 0:
                rates_down[k, alpha] = ml.lane_change_rate(
                    rates, dpdt[k, alpha], total[k - 1], rho_star
                )

    S = ml.density_sources(rho, rates_up, rates_down)
    if model.kind is md.ModelKind.TWO_WAY_AR:
        R = ml.density_sources(rho * reference_desired_speeds(model, new),
                               rates_up, rates_down)
    dens_rows = list(model.density_rows)
    for k in range(K):
        new[dens_rows, k] += params.dt * S[k]
        if model.kind is md.ModelKind.TWO_WAY_AR:
            new[1, k] += params.dt * R[k, 0]
            new[3, k] += params.dt * R[k, 1]
    return new, p, t + params.dt


def assert_bitwise_equal(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def lane_states(draw, kind, K, n=12):
    """The model, (C, K, n) state and rates of K drawn lanes."""
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
    return model, np.ascontiguousarray(values.swapaxes(0, 1)), rates


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("kind", ["two_way_car", "two_way_ar"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_step_matches_per_lane_reference(kind, K, data):
    model, U, rates = data.draw(lane_states(kind, K))
    delta = data.draw(st.sampled_from([0.0, 0.1]))
    grid = sv.Grid1D(n_cells=U.shape[-1], dx=1.0)
    params = sv.SchemeParams(dt=0.05, delta_diff=delta)
    batched = reference = U
    offsets = ref_offsets = None
    t = ref_t = 0.0
    for _ in range(20):
        # the running time of multilane.coupled_stepper
        batched, offsets, _ = ml.coupled_step(model, rates, batched, offsets, grid,
                                              params, t)
        t += params.dt
        reference, ref_offsets, ref_t = reference_coupled_step(
            model, rates, reference, ref_offsets, grid, params, ref_t
        )
        assert t == ref_t
        assert_bitwise_equal(batched, reference)
        assert_bitwise_equal(offsets, ref_offsets)


def _largest_interface_totals(rho):
    """Per lane, the largest total density of the minmod interface states
    of the (2, K, n) densities."""
    fwd = np.roll(rho, -1, axis=-1) - rho
    half = 0.5 * sv._minmod(np.roll(fwd, 1, axis=-1), fwd)
    return np.maximum((rho + half).sum(axis=0), (rho - half).sum(axis=0)).max(axis=-1)


@st.composite
def near_jam_states(draw, kind, K, n=8):
    """The model, (C, K, n) state and rates of K admissible lanes with
    loads up to 0.95 rho_star and species shares drawn per cell.  Half of
    the draws scale each lane so that its largest interface total lies
    within 0.3% below the jam density: componentwise minmod makes
    interface totals above both neighbouring cells' (ROADMAP item 4,
    defect C), and the huge flux there takes over a quarter of such
    one-lane steps to new cell averages past the jam density.  The cell
    values come from a drawn numpy seed."""
    eps = draw(st.sampled_from([1e-4, 1e-3]))
    model = car_model(eps=eps) if kind == "two_way_car" else ar_model(eps=eps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    load = rng.uniform(0.0, 0.95, (K, n))
    rho_p = load * rng.uniform(0.0, 1.0, (K, n))
    rho = np.stack([rho_p, load - rho_p])
    if draw(st.booleans()):
        target = rng.uniform(0.997, 0.99999, K) * model.pressure.rho_star
        rho *= (target / _largest_interface_totals(rho))[:, None]
    if kind == "two_way_car":
        values = rho
    else:
        w = rng.uniform(0.8, 1.3, (2, K, n))
        values = np.stack([rho[0], rho[0] * w[0], rho[1], rho[1] * w[1]])
    rates = ml.LaneChangeRates(lambda0=draw(st.sampled_from([0.0, 0.5, 2.0])))
    return model, values, rates


def _steps(model, rates, U, grid, params, n_steps):
    """The states n_steps steps make from U, each with the mass clipped
    so far, and the class of the package error that stopped them (None if
    none did).  One lane steps as single-lane runs do (sv._advance), more
    lanes as multi-lane runs do (ml.coupled_step)."""
    states = []
    clipped = 0.0
    try:
        if U.shape[1] == 1:
            U = U[:, 0]
            for _ in range(n_steps):
                U, _, clip = sv._advance(model, U, grid, params)
                clipped += clip
                states.append((U[:, None], clipped))
        else:
            offsets = None
            for k in range(n_steps):
                U, offsets, clip = ml.coupled_step(model, rates, U, offsets, grid,
                                                   params, k * params.dt)
                clipped += clip
                states.append((U, clipped))
    except PedflowError as err:
        return states, type(err)
    return states, None


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("kind", ["two_way_car", "two_way_ar"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_step_is_admissible_conserving_and_repeatable_or_stops(kind, K, data):
    # Each step either raises a package error or returns a state whose
    # densities are >= 0 with every total below the jam density, whose
    # mass per walking direction is conserved up to round-off and the
    # clipped mass, and which a rerun reproduces bit for bit.
    model, U, rates = data.draw(near_jam_states(kind, K))
    grid = sv.Grid1D(n_cells=U.shape[-1], dx=1.0)
    params = sv.SchemeParams(dt=data.draw(st.sampled_from([0.02, 0.05])),
                             delta_diff=data.draw(st.sampled_from([0.0, 0.1])))
    states, error = _steps(model, rates, U, grid, params, 4)
    again, error_again = _steps(model, rates, U, grid, params, 4)
    assert error_again is error
    assert len(again) == len(states)
    rows = list(model.density_rows)
    jam = model.pressure.rho_star * (1.0 - pr.CONGESTION_REL_TOL)
    mass0 = direction_mass(model, U, grid)
    for (values, clipped), (rerun, _) in zip(states, again):
        dens = values[rows]
        assert dens.min() >= 0.0
        assert dens.sum(axis=0).max() < jam
        mass = dens.sum(axis=(1, 2)) * grid.dx
        assert np.all(np.abs(mass - mass0) <= 1e-13 * mass0.sum() + clipped)
        assert_bitwise_equal(values, rerun)
