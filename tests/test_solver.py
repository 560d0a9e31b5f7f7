import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import models as md
from pedflow import pressure as pr
from pedflow import solver as sv
from pedflow.errors import (
    BlowUpError,
    ClipBudgetError,
    CongestionOverflowError,
    DomainError,
    PedflowError,
    StabilityError,
    VacuumError,
)

SIM = md.ModelSpec.sim_flux(0.7)


class LinearAdvection:
    """Stub model with flux c*U, for exact translation references."""

    pressure = None  # no jam density: only non-negativity is checked

    def __init__(self, c, n_components=1):
        self.c = c
        self.n_conserved = n_components
        self.density_rows = tuple(range(n_components))

    def flux(self, U):
        return self.c * np.asarray(U, dtype=float)

    def max_abs_speed(self, U):
        return np.full(np.asarray(U).shape[1], abs(self.c))


class ZeroFlux:
    """Stub model that never moves anything."""

    n_conserved = 1
    density_rows = (0,)
    pressure = None

    def flux(self, U):
        return np.zeros_like(np.asarray(U, dtype=float))

    def max_abs_speed(self, U):
        return np.zeros(np.asarray(U).shape[1])


class Outflow(ZeroFlux):
    """Stub model whose flux carries rate out of cell 2 into cell 3,
    whatever the state, so that a step can drain cell 2 below zero."""

    def __init__(self, rate):
        self.rate = rate

    def flux(self, U):
        F = np.zeros_like(np.asarray(U, dtype=float))
        F[..., 2] = self.rate
        return F


def noisy_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [0.4 + 0.05 * rng.standard_normal(n), 0.3 + 0.05 * rng.standard_normal(n)]
    )


class TestGridAndParams:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sv.Grid1D(n_cells=3, dx=1.0)
        with pytest.raises(DomainError):
            sv.Grid1D(n_cells=8, dx=0.0)

    def test_grid_geometry(self):
        grid = sv.Grid1D(n_cells=8, dx=0.5)
        assert grid.length == pytest.approx(4.0)
        assert grid.x[0] == pytest.approx(0.25)
        assert grid.x[-1] == pytest.approx(3.75)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            sv.SchemeParams(dt=0.0)
        with pytest.raises(DomainError):
            sv.SchemeParams(dt=0.1, delta_diff=-1.0)
        with pytest.raises(DomainError):
            sv.SchemeParams(dt=0.1, limiter="superbee")


class TestReconstruction:
    def test_constant_field(self):
        U_L, U_R = sv.muscl_reconstruct(np.full((2, 6), 0.7), "minmod")
        np.testing.assert_array_equal(U_L, 0.7)
        np.testing.assert_array_equal(U_R, 0.7)

    def test_linear_field_interior_exact(self):
        vals = np.arange(8.0)[None, :]
        U_L, U_R = sv.muscl_reconstruct(vals, "minmod")
        # interior interfaces j = 1..5 between unlimited cells
        for j in range(1, 6):
            assert U_L[0, j] == pytest.approx(j + 0.5)
            assert U_R[0, j] == pytest.approx(j + 0.5)

    def test_spike_is_limited(self):
        # hand computation on 5 cells: all slopes near the spike vanish
        vals = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        U_L, U_R = sv.muscl_reconstruct(vals, "minmod")
        np.testing.assert_array_equal(U_L, vals)
        np.testing.assert_array_equal(U_R, np.roll(vals, -1, axis=1))

    def test_no_new_extrema(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, (2, 32))
        U_L, U_R = sv.muscl_reconstruct(vals, "minmod")
        lo = np.minimum(vals, np.roll(vals, -1, axis=1))
        hi = np.maximum(vals, np.roll(vals, -1, axis=1))
        assert np.all(U_L >= np.minimum(lo, np.roll(lo, 1, axis=1)) - 1e-14)
        assert np.all(U_L <= np.maximum(hi, np.roll(hi, 1, axis=1)) + 1e-14)

    def test_limiter_none_gives_cell_averages(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, (1, 6))
        U_L, U_R = sv.muscl_reconstruct(vals, "none")
        np.testing.assert_array_equal(U_L, vals)
        np.testing.assert_array_equal(U_R, np.roll(vals, -1, axis=1))

    @pytest.mark.xfail(
        raises=CongestionOverflowError,
        strict=True,
        reason="ROADMAP item 4, defect C: componentwise minmod bounds each "
        "species but not their total, so an interface state can pass rho_star",
    )
    def test_admissible_cells_keep_interface_states_below_jam_density(self):
        # Every cell total is <= 0.95 < rho_star = 1, but the plus slope
        # (0.2) and the minus slope (-0.01) at cell 1 give U_L a total of
        # 0.55 + 0.495 = 1.045 there.
        model = md.ModelSpec.two_way_car(
            V=1.0,
            pressure=pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0),
        )
        grid = sv.Grid1D(n_cells=4, dx=1.0)
        U = np.array([[0.25, 0.45, 0.95, 0.95], [0.51, 0.50, 0.0, 0.0]])
        sv._advance(model, U, grid, sv.SchemeParams(dt=0.01))
        U_L, U_R = sv.muscl_reconstruct(U, "minmod")
        assert np.all(U_L.sum(axis=0) < 1.0)
        assert np.all(U_R.sum(axis=0) < 1.0)


class TestCentralFlux:
    def test_consistency(self):
        U = noisy_state(16)
        F = sv.central_flux(SIM, U, U, np.full(16, 0.8))
        np.testing.assert_allclose(F, SIM.flux(U), atol=1e-15)

    def test_zero_speed_is_average(self):
        U_L = noisy_state(16, seed=1)
        U_R = noisy_state(16, seed=2)
        F = sv.central_flux(SIM, U_L, U_R, 0.0)
        np.testing.assert_allclose(
            F, 0.5 * (SIM.flux(U_L) + SIM.flux(U_R)), atol=1e-15
        )

    def test_reduces_to_upwind_for_linear_flux(self):
        rng = np.random.default_rng(5)
        model = LinearAdvection(c=0.7)
        U_L = rng.uniform(0, 1, (1, 10))
        U_R = rng.uniform(0, 1, (1, 10))
        F = sv.central_flux(model, U_L, U_R, abs(model.c))
        np.testing.assert_allclose(F, model.c * U_L, atol=1e-15)
        model = LinearAdvection(c=-0.7)
        F = sv.central_flux(model, U_L, U_R, abs(model.c))
        np.testing.assert_allclose(F, model.c * U_R, atol=1e-15)


class TestStep:
    def test_uniform_state_is_fixed_point(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.1, delta_diff=0.4)
        U = np.tile([[0.3], [0.2]], (1, 16))
        out = sv._advance(SIM, U, grid, params)[0]
        np.testing.assert_array_equal(out, U)

    def test_mass_conservation_single_step(self):
        grid = sv.Grid1D(n_cells=64, dx=0.5)
        params = sv.SchemeParams(dt=0.05, delta_diff=0.4)
        U = noisy_state(64)
        out = sv._advance(SIM, U, grid, params)[0]
        before = U.sum(axis=1)
        after = out.sum(axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-13)

    def test_mass_conservation_long_run(self):
        grid = sv.Grid1D(n_cells=64, dx=1.0)
        params = sv.SchemeParams(dt=0.2, delta_diff=0.4, cfl_guard=0.95)
        res = sv.run(SIM, noisy_state(64), grid, params, t_end=200.0)
        drift = np.abs(res.audit.mass[-1] - res.audit.mass[0])
        assert np.all(drift <= 1e-12 * np.abs(res.audit.mass[0]))

    def test_cfl_violation_raises_with_measured_number(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=5.0, delta_diff=0.4)
        with pytest.raises(StabilityError) as err:
            sv._advance(SIM, noisy_state(16), grid, params)
        assert err.value.measured > params.cfl_guard

    def test_blow_up_names_offending_cell(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        vals = np.full((1, 8), 0.5)
        vals[0, 3] = np.nan
        with pytest.raises(BlowUpError, match="cell"):
            sv._advance(ZeroFlux(), vals, grid, params)

    def test_reference_configuration_stability_number(self):
        # dx=1, dt=0.2, delta=0.4 at the uniform (0.5, 0.3) state:
        # advective 0.55*0.2 = 0.110, diffusive 2*0.4*0.2 = 0.16
        grid = sv.Grid1D(n_cells=32, dx=1.0)
        params = sv.SchemeParams(dt=0.2, delta_diff=0.4)
        cfl = sv.measured_cfl(SIM, np.tile([[0.5], [0.3]], (1, 32)), grid, params)
        assert cfl == pytest.approx(0.16 + 0.2 * 0.5499719, abs=1e-4)


class TestClipping:
    # The initial state must be admissible, so the negativity is made by
    # the step: cell 2 starts empty and the flux drains dt * rate from it.

    def test_round_off_clip_is_logged(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        vals = np.full((1, 8), 0.5)
        vals[0, 2] = 0.0
        # round-off level negativity: 0 - 0.1 * 1e-14 = -1e-15
        res = sv.run(Outflow(1e-14), vals, grid, params, t_end=0.1)
        assert res.audit.clipped_mass[-1] == pytest.approx(1e-15)
        assert np.all(res.snapshots[-1][1] >= 0.0)

    def test_clip_budget_exceeded(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        vals = np.full((1, 8), 0.5)
        vals[0, 2] = 0.0
        with pytest.raises(ClipBudgetError):
            sv.run(Outflow(1.0), vals, grid, params, t_end=0.1)


class TestAccuracy:
    @staticmethod
    def advection_error(n, limiter):
        # one full period of linear advection on the unit circle
        c = 0.8
        model = LinearAdvection(c)
        grid = sv.Grid1D(n_cells=n, dx=1.0 / n)
        x = grid.x
        u0 = 0.5 + 0.2 * np.sin(2 * np.pi * x)
        dt = 0.3 * grid.dx / c
        n_steps = int(round(1.0 / (c * dt)))
        dt = 1.0 / (c * n_steps)
        params = sv.SchemeParams(dt=dt, limiter=limiter)
        U = u0[None, :]
        for _ in range(n_steps):
            U = sv._advance(model, U, grid, params)[0]
        return np.abs(U[0] - u0).mean()

    def test_muscl_converges_faster_than_first_order(self):
        e_coarse = self.advection_error(64, "minmod")
        e_fine = self.advection_error(128, "minmod")
        assert e_coarse / e_fine >= 1.5
        # and the limited scheme beats the piecewise-constant one
        assert e_coarse < self.advection_error(64, "none")


class TestRun:
    def test_zero_duration_returns_initial_only(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        U0 = noisy_state(8)
        res = sv.run(SIM, U0, grid, params, t_end=0.0)
        assert len(res.snapshots) == 1
        t, U = res.snapshots[0]
        assert t == 0.0
        np.testing.assert_array_equal(U, U0)

    def test_snapshot_cadence(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.1, delta_diff=0.1)
        res = sv.run(
            SIM, noisy_state(16), grid, params, t_end=1.0, snapshot_every=0.5,
        )
        times = [t for t, _ in res.snapshots]
        assert times == pytest.approx([0.0, 0.5, 1.0])

    def test_audit_is_per_step(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.1, delta_diff=0.1)
        res = sv.run(SIM, noisy_state(16), grid, params, t_end=1.0)
        audit = res.audit
        assert len(audit.step) == 10
        assert audit.mass.shape == (10, 2)
        assert np.all(audit.cfl > 0)
        assert np.all(audit.min_rho >= 0)

    def test_invariant_region_one_way_ar(self):
        # bounded w and u data keep the density below the jam density
        params_p = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
        model = md.ModelSpec.one_way_ar(params_p)
        grid = sv.Grid1D(n_cells=128, dx=1.0)
        x = grid.x
        rho0 = 0.5 + 0.3 * np.sin(2 * np.pi * x / grid.length)
        w0 = 1.1 + 0.1 * np.cos(2 * np.pi * x / grid.length)
        params = sv.SchemeParams(dt=0.02, delta_diff=0.0)
        res = sv.run(model, np.stack([rho0, rho0 * w0]), grid, params, t_end=20.0)
        assert res.audit.max_rho.max() < params_p.rho_star
        rho_f, w_f, u_f = md.ar_primitives(model, res.snapshots[-1][1])
        assert w_f.max() <= w0.max() * 1.01
        assert w_f.min() >= w0.min() * 0.99


_LAW = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
ALL_KINDS = {
    md.ModelKind.SIM_FLUX: SIM,
    md.ModelKind.ONE_WAY_CAR: md.ModelSpec.one_way_car(V=1.0, pressure=_LAW),
    md.ModelKind.ONE_WAY_AR: md.ModelSpec.one_way_ar(_LAW),
    md.ModelKind.TWO_WAY_CAR: md.ModelSpec.two_way_car(V=1.0, pressure=_LAW),
    md.ModelKind.TWO_WAY_AR: md.ModelSpec.two_way_ar(_LAW),
}


@st.composite
def noisy_admissible_states(draw, model, n=16):
    """Species densities load * share * (1 + amp * noise) on n cells, with
    a total below 0.95 rho_star, and momenta rho * w with w in [0.5, 1.5]."""
    amp = draw(st.floats(0.0, 1.0))
    load = draw(st.floats(0.0, 0.95 / (1.0 + amp)))
    noise = st.floats(-1.0, 1.0)
    if len(model.density_rows) == 1:
        shares = [1.0]
    else:
        share = draw(st.floats(0.0, 1.0))
        shares = [share, 1.0 - share]
    rows = []
    for share in shares:
        wiggle = draw(hnp.arrays(np.float64, n, elements=noise))
        rho = load * share * (1.0 + amp * wiggle)
        rows.append(rho)
        if model.n_conserved == 2 * len(shares):
            w = draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 1.5)))
            rows.append(rho * w)
    return np.stack(rows)


def _run_or_error(model, U0, grid, params):
    try:
        return sv.run(model, U0, grid, params, t_end=5 * params.dt)
    except PedflowError as err:
        return type(err)


@pytest.mark.parametrize("kind", list(ALL_KINDS), ids=lambda kind: kind.value)
@settings(max_examples=30, deadline=None)
@given(delta_diff=st.sampled_from([0.0, 0.1]), data=st.data())
def test_every_kind_conserves_mass_and_keeps_densities_nonnegative(
    kind, delta_diff, data
):
    # A few steps from a noisy admissible state either stop with a classified
    # error or conserve every component up to round-off and the audited
    # clipped mass, keep every density >= 0, and rerun bit for bit.
    model = ALL_KINDS[kind]
    U0 = data.draw(noisy_admissible_states(model))
    grid = sv.Grid1D(n_cells=16, dx=1.0)
    params = sv.SchemeParams(dt=0.02, delta_diff=delta_diff)
    first = _run_or_error(model, U0, grid, params)
    second = _run_or_error(model, U0, grid, params)
    if isinstance(first, type):
        assert second is first
        return
    rows = list(model.density_rows)
    for _, U in first.snapshots:
        assert np.all(U[rows] >= 0.0)
    clipped = first.audit.clipped_mass[-1]
    mass0 = U0.sum(axis=1) * grid.dx
    mass = first.snapshots[-1][1].sum(axis=1) * grid.dx
    tol = 1e-13 * (1.0 + np.abs(U0).sum() * grid.dx) + clipped
    assert np.all(np.abs(mass - mass0) <= tol)
    np.testing.assert_array_equal(
        first.snapshots[-1][1].view(np.int64), second.snapshots[-1][1].view(np.int64)
    )
    for name in ("cfl", "mass", "min_rho", "max_rho", "clipped_mass"):
        np.testing.assert_array_equal(
            getattr(first.audit, name), getattr(second.audit, name)
        )


@pytest.mark.parametrize("kind", [kind for kind in ALL_KINDS
                                  if kind is not md.ModelKind.SIM_FLUX],
                         ids=lambda kind: kind.value)
def test_a_cell_at_density_1e_200_steps_as_vacuum(kind):
    # The singular partials were inf * 0 = nan at such a density, so the
    # run stopped with a BlowUpError; below the vacuum floor they are 0.
    model = ALL_KINDS[kind]
    U0 = np.full((model.n_conserved, 16), 0.3)
    U0[:, 5] = 1e-200
    grid = sv.Grid1D(n_cells=16, dx=1.0)
    params = sv.SchemeParams(dt=0.05, delta_diff=0.1)
    res = sv.run(model, U0, grid, params, t_end=1.0)
    assert len(res.audit.step) == 20
    assert np.all(np.isfinite(res.snapshots[-1][1]))
    assert np.all(np.isfinite(res.audit.cfl))


def test_a_two_way_ar_cell_below_the_floor_with_w_2_is_admissible():
    # rho+ = 7.5e-13 with rho+ w+ = 1.5e-12 is a vacuum cell at w = 2; its
    # momentum exceeded VACUUM_FLOOR, which made flux, speed and run stop
    # with a VacuumError
    model = ALL_KINDS[md.ModelKind.TWO_WAY_AR]
    U0 = np.tile(np.array([[0.3], [0.3], [0.2], [0.2]]), 8)
    U0[:2, 3:5] = [[7.5e-13], [1.5e-12]]
    flux = model.flux(U0[:, 3:4])
    np.testing.assert_array_equal(flux[:2], 0.0)
    assert np.all(np.isfinite(flux))
    assert np.isfinite(model.max_abs_speed(U0[:, 3:4])[0])
    grid = sv.Grid1D(n_cells=8, dx=1.0)
    res = sv.run(model, U0, grid, sv.SchemeParams(dt=0.05), t_end=0.2)
    assert len(res.audit.step) == 4
    assert np.all(np.isfinite(res.snapshots[-1][1]))
    np.testing.assert_allclose(res.audit.mass[-1], U0.sum(axis=1), rtol=1e-12)


def test_a_step_that_ends_above_the_jam_density_is_stopped():
    # Every cell total is below rho_star = 1, yet the step makes a total of
    # 1.000112 in cell 1: the minmod interface state at interface 0 has a
    # total of 0.9985 (above its cells' 0.926 and 0.839) and a speed of
    # about 14,000 against 1.4 at the cell averages.  The run returned that
    # state without an error; the state the step makes is checked now.
    model = md.ModelSpec.two_way_car(
        V=1.0, pressure=pr.PressureParams(M=1.0, m=2.0, eps=1e-4, gamma=2.0,
                                          rho_star=1.0))
    U0 = np.array([[0.167, 0.439, 0.414, 0.075, 0.821, 0.442, 0.315, 0.022],
                   [0.759, 0.4, 0.506, 0.848, 0.097, 0.424, 0.372, 0.648]])
    grid = sv.Grid1D(8, 1.0)
    params = sv.SchemeParams(dt=0.03)
    with pytest.raises(CongestionOverflowError, match="reached the jam density"):
        sv.run(model, U0, grid, params, t_end=0.03)
    # the same step without slopes stays admissible
    first_order = sv.SchemeParams(dt=0.03, limiter="none")
    res = sv.run(model, U0, grid, first_order, t_end=0.03)
    assert res.snapshots[-1][1].sum(axis=0).max() < 0.93


def test_an_inadmissible_initial_state_is_rejected_before_stepping(monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(sv, "_advance", no_step)
    model = ALL_KINDS[md.ModelKind.TWO_WAY_CAR]
    grid = sv.Grid1D(4, 1.0)
    for U0, error in (([[0.5] * 4, [0.5] * 4], CongestionOverflowError),
                      ([[0.5, -1e-300, 0.5, 0.5], [0.1] * 4], DomainError)):
        with pytest.raises(error):
            sv.run(model, np.array(U0), grid, sv.SchemeParams(dt=0.1), t_end=0.0)


def test_a_run_of_stacked_lanes_audits_the_mass_of_each_component():
    # (C, K, N) states step lane by lane; the audit sums lanes and cells
    model = ALL_KINDS[md.ModelKind.TWO_WAY_CAR]
    U0 = np.full((2, 3, 8), 0.2)
    U0[0, 1] = 0.3
    res = sv.run(model, U0, sv.Grid1D(8, 1.0), sv.SchemeParams(dt=0.05), t_end=0.1)
    assert res.audit.mass.shape == (2, 2)
    np.testing.assert_allclose(res.audit.mass, [[5.6, 4.8]] * 2, rtol=1e-14)


def test_step_count():
    assert sv.step_count(0.0, 0.1) == 0
    assert sv.step_count(1.0, 0.1) == 10  # 1.0 / 0.1 rounds above 10
    assert sv.step_count(1.05, 0.1) == 11
    assert sv.step_count(100.0, 0.02) == 5000


# Reference step with np.roll shifts and an np.where sim_flux profile.  The
# kernel's slice shifts and masked assignments do the same float operations,
# so it must match these bit for bit.


def reference_muscl_reconstruct(U, limiter):
    if limiter == "minmod":
        fwd = np.roll(U, -1, axis=-1) - U
        bwd = U - np.roll(U, 1, axis=-1)
        slope = sv._minmod(bwd, fwd)
    else:
        slope = np.zeros_like(U)
    U_L = U + 0.5 * slope
    U_R = np.roll(U - 0.5 * slope, -1, axis=-1)
    return U_L, U_R


def reference_advance(model, U, grid, params):
    """The step with np.roll shifts, checking the same states as _advance."""
    dx, dt = grid.dx, params.dt
    spd = model.max_abs_speed(U)
    a_iface = np.maximum(spd, np.roll(spd, -1, axis=-1))
    cfl = float(np.max(a_iface) * dt / dx + 2.0 * params.delta_diff * dt / dx**2)
    if cfl > params.cfl_guard:
        raise StabilityError(cfl, params.cfl_guard)
    U_L, U_R = reference_muscl_reconstruct(U, params.limiter)
    sv.check_admissible(model, U_L)
    sv.check_admissible(model, U_R)
    F = 0.5 * (model.flux(U_L) + model.flux(U_R)) - 0.5 * a_iface * (U_R - U_L)
    div = (F - np.roll(F, 1, axis=-1)) / dx
    U_new = U - dt * div
    if params.delta_diff > 0.0:
        lap = (np.roll(U, 1, axis=-1) - 2.0 * U + np.roll(U, -1, axis=-1)) / dx**2
        U_new += params.delta_diff * dt * lap
    if not np.all(np.isfinite(U_new)):
        raise BlowUpError("non-finite value")
    clipped = 0.0
    rows = list(model.density_rows)
    dens = U_new[rows]
    neg = dens < 0.0
    if np.any(neg):
        clipped = float(-np.sum(dens[neg]) * dx)
        dens[neg] = 0.0
        U_new[rows] = dens
    sv.check_admissible(model, U_new)
    return U_new, cfl, clipped


def reference_sim_h(a, rho_plus, rho_minus, derivative=True):
    """h and h' by np.where; the h-only request still computes both."""
    r = np.asarray(rho_plus + rho_minus, dtype=float)
    h = 1.0 - r / (2.0 * a)
    hp = np.full_like(r, -1.0 / (2.0 * a))
    mid = (r > a) & (r <= 1.0)
    if np.any(mid):
        rs = np.where(mid, r, 1.0)
        g = a / 2.0 - a * (a - rs) ** 2 / (2.0 * (1.0 - a) ** 2)
        gp = a * (a - rs) / (1.0 - a) ** 2
        h = np.where(mid, g / rs, h)
        hp = np.where(mid, (gp * rs - g) / rs**2, hp)
    high = r > 1.0
    h = np.where(high, 0.0, h)
    hp = np.where(high, 0.0, hp)
    return r, h, hp if derivative else None


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(
        np.array(got, dtype=float).view(np.int64),
        np.array(want, dtype=float).view(np.int64),
    )


def _outcome(step, *args):
    """step(*args), or the class of the package error it raised."""
    try:
        return step(*args)
    except PedflowError as err:
        return type(err)


@st.composite
def step_states(draw, model, n=16):
    """An admissible (C, N) state or (C, 2, N) stack of two lanes.
    sim_flux lanes take species densities in [0, 0.7], often 0.35 or 0.5,
    so that totals fall on both kinks of the profile (a = 0.7 and 1) and
    beyond 1."""
    def lane():
        if model.kind is not md.ModelKind.SIM_FLUX:
            return draw(noisy_admissible_states(model, n))
        rho = st.sampled_from([0.0, 0.35, 0.5]) | st.floats(0.0, 0.7)
        return draw(hnp.arrays(np.float64, (2, n), elements=rho))

    if draw(st.booleans()):
        return lane()
    return np.stack([lane(), lane()], axis=1)


@pytest.mark.parametrize("kind", list(ALL_KINDS), ids=lambda kind: kind.value)
@settings(max_examples=40, deadline=None)
@given(limiter=st.sampled_from(["minmod", "none"]),
       delta_diff=st.sampled_from([0.0, 0.1, 5.0]), data=st.data())
def test_advance_matches_the_roll_and_where_reference(kind, limiter, delta_diff, data):
    # delta_diff = 5 makes the diffusion number 0.1, so that a change in
    # the last bit of the Laplacian often shows in the new state.
    model = ALL_KINDS[kind]
    U = data.draw(step_states(model))
    grid = sv.Grid1D(n_cells=16, dx=1.0)
    params = sv.SchemeParams(dt=0.02, delta_diff=delta_diff, limiter=limiter)
    got = _outcome(sv._advance, model, U, grid, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "_sim_h", reference_sim_h)
        want = _outcome(reference_advance, model, U, grid, params)
    if isinstance(want, type):
        assert got is want
        return
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    assert_same_bits(got[2], want[2])


@pytest.mark.parametrize("rho_plus, rho_minus", [
    (0.2, 0.3),    # r < a
    (0.35, 0.35),  # r = a
    (0.45, 0.4),   # a < r < 1
    (0.5, 0.5),    # r = 1
    (0.7, 0.6),    # r > 1
    ([0.2, 0.35, 0.45, 0.5, 0.7], [0.3, 0.35, 0.4, 0.5, 0.6]),
    (np.linspace(0.0, 0.7, 281), np.linspace(0.0, 0.6, 281)),
], ids=["below_a", "at_a", "between", "at_1", "above_1", "every_branch", "sweep"])
def test_sim_h_matches_the_where_reference(rho_plus, rho_minus):
    a = SIM.a
    cases = [(np.asarray(rho_plus), np.asarray(rho_minus))]
    if np.ndim(rho_plus) == 0:  # also a float, and a 0-d array from analysis
        cases += [(rho_plus, rho_minus), (np.full(3, rho_plus), np.full(3, rho_minus))]
    for rp, rm in cases:
        for got, want in zip(md._sim_h(a, rp, rm), reference_sim_h(a, rp, rm)):
            assert_same_bits(got, want)


# +-0.0, the smallest subnormal, a subnormal, and the kinks a and 1
SIM_H_EDGES = [0.0, -0.0, 5e-324, 1e-310, 0.35, 0.5]


@settings(max_examples=300, deadline=None)
@given(a=st.just(0.7) | st.floats(0.05, 0.95), data=st.data())
def test_sim_h_without_the_derivative_gives_the_same_h(a, data):
    # species densities up to 1e300 each; the flux asks for h only
    elements = st.sampled_from(SIM_H_EDGES) | st.floats(0.0, 1e300) | st.floats(0.0, 1.0)
    form = data.draw(st.sampled_from(["float", "0-d", (7,), (2, 9)]))
    pair = []
    for _ in range(2):
        if form in ("float", "0-d"):
            rho = data.draw(elements)
            pair.append(rho if form == "float" else np.asarray(rho))
        else:
            pair.append(data.draw(hnp.arrays(np.float64, form, elements=elements)))
    r, h, hp = md._sim_h(a, *pair, derivative=False)
    assert hp is None
    for got, want in zip((r, h), md._sim_h(a, *pair)):
        assert_same_bits(got, want)
    for got, want in zip(md._sim_h(a, *pair), reference_sim_h(a, *pair)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("kind", list(ALL_KINDS), ids=lambda kind: kind.value)
def test_a_step_makes_one_speed_bound_and_two_flux_calls(kind, monkeypatch):
    # One speed bound serves the interface speeds and the stability number.
    # The flux stays two calls, one per side: a single call on the side
    # states concatenated along the cells raised the peak allocation of a
    # 16,384-cell two_way_ar step from 4.26 MB to 6.32 MB.
    calls = {"flux": 0, "max_abs_speed": 0}
    for name in calls:
        def counted(self, U, _name=name, _method=getattr(md.ModelSpec, name)):
            calls[_name] += 1
            return _method(self, U)

        monkeypatch.setattr(md.ModelSpec, name, counted)
    model = ALL_KINDS[kind]
    U = np.full((model.n_conserved, 16), 0.3)
    sv._advance(model, U, sv.Grid1D(n_cells=16, dx=1.0),
                sv.SchemeParams(dt=0.02, delta_diff=0.1))
    assert calls == {"flux": 2, "max_abs_speed": 1}


# The minmod limiter as sign times minimum, the reconstruction with the
# slope halved on each side, and the audit of solver.run recorded into
# lists: bitwise references for the shorter forms of the kernels.


def reference_minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def reference_half_slope_reconstruct(U, limiter):
    """U_L and U_R with the limited slope halved on each side."""
    if limiter == "minmod":
        fwd = np.roll(U, -1, axis=-1) - U
        slope = reference_minmod(U - np.roll(U, 1, axis=-1), fwd)
    else:
        slope = np.zeros_like(U)
    return U + 0.5 * slope, np.roll(U - 0.5 * slope, -1, axis=-1)


# Signed zeros, the smallest subnormal and normal, magnitudes up to 1e300,
# values of order 1, and pairs whose product underflows to zero.
EDGE_MAGNITUDES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e300]
edge_floats = (st.sampled_from(EDGE_MAGNITUDES + [-x for x in EDGE_MAGNITUDES])
               | st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)
               | st.floats(-2.0, 2.0))


@settings(max_examples=500, deadline=None)
@given(shape=st.sampled_from([(), (5,), (2, 7)]), data=st.data())
def test_minmod_matches_the_sign_and_minimum_reference(shape, data):
    # nan and +-inf too: the minmod of a pair with a nan, or of inf and 0,
    # is +0.0, as with the np.where form (a float multiply by a 0/1 mask
    # gives nan there)
    elements = edge_floats | st.sampled_from([np.nan, np.inf, -np.inf])
    a = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    # b is often a itself, -a or a scaled copy, so |a| = |b| ties occur
    b = data.draw(hnp.arrays(np.float64, shape, elements=elements)
                  | st.sampled_from([1.0, -1.0, 0.5, 3.0]).map(lambda s: s * a))
    # a * b of two magnitudes near 1e300; inf * 0 in the reference
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bits(sv._minmod(a, b), reference_minmod(a, b))


def _state_of(model, n=16, seed=0):
    """An admissible (C, n) state: densities in [0.06, 0.21], so every
    total is below 0.5, and momenta with w = 1.5."""
    base = np.random.default_rng(seed).uniform(0.1, 0.35, n)
    return np.stack([(0.6 if row in model.density_rows else 0.9) * base
                     for row in range(model.n_conserved)])


# The outcome of one _advance call on _state_of(model, 8) with nan, inf or
# -inf in cell 3 of one row: the error class and message, per kind and row,
# recorded from the np.where minmod.  A minmod that clears its sign changes
# with a float multiply instead of an integer AND moves the reported cell of
# a nan, or turns the class into BlowUpError, in 16 of these 33 cases.
_BLOW = (BlowUpError, "non-finite value in component 0 at cell 2")
_STAB = (StabilityError, "stability number inf exceeds guard 0.45")
_JAM = (CongestionOverflowError, "density reached the jam density 1.0")
_NEG = (DomainError, "densities must be >= 0")
_VAC = (VacuumError, "zero density with non-zero momentum")
NON_FINITE_OUTCOMES = {  # kind -> per row, the outcomes of (nan, inf, -inf)
    md.ModelKind.SIM_FLUX: [(_BLOW, _BLOW, _STAB)] * 2,
    md.ModelKind.ONE_WAY_CAR: [(_BLOW, _STAB, _STAB)],
    md.ModelKind.ONE_WAY_AR: [(_BLOW, _STAB, _VAC), (_BLOW, _STAB, _STAB)],
    md.ModelKind.TWO_WAY_CAR: [(_BLOW, _JAM, _NEG)] * 2,
    md.ModelKind.TWO_WAY_AR: [(_BLOW, _JAM, _VAC), (_BLOW, _STAB, _STAB)] * 2,
}


@pytest.mark.parametrize("kind, row, which", [
    (kind, row, which) for kind, rows in NON_FINITE_OUTCOMES.items()
    for row in range(len(rows)) for which in range(3)
], ids=lambda v: v.value if isinstance(v, md.ModelKind) else str(v))
def test_a_non_finite_entry_stops_a_step_with_the_recorded_error(kind, row, which):
    model = ALL_KINDS[kind]
    U = _state_of(model, 8)
    U[row, 3] = (np.nan, np.inf, -np.inf)[which]
    error, message = NON_FINITE_OUTCOMES[kind][row][which]
    params = sv.SchemeParams(dt=0.02, delta_diff=0.1)
    with np.errstate(all="ignore"), pytest.raises(PedflowError) as info:
        sv._advance(model, U, sv.Grid1D(8, 1.0), params)
    assert (type(info.value), str(info.value)) == (error, message)


def _read_only(A):
    A = np.array(A, dtype=float)
    A.flags.writeable = False
    return A


@pytest.mark.parametrize("kind", list(ALL_KINDS), ids=lambda kind: kind.value)
@pytest.mark.parametrize("form", ["point", "lane", "two_lanes"])
def test_no_kernel_writes_into_its_inputs(kind, form):
    # central_flux and _advance work in place on the arrays they make or
    # get from model.flux, never on their arguments: each write into a
    # read-only argument raises.  A (C,) point state has no stencil to step.
    model = ALL_KINDS[kind]
    lane = _state_of(model)
    U = _read_only({"point": lane[:, 3], "lane": lane,
                    "two_lanes": np.stack([lane, lane[:, ::-1]], axis=1)}[form])
    F = model.flux(U)
    assert not np.shares_memory(F, U)
    spd = _read_only(model.max_abs_speed(U))
    sv._minmod(_read_only(U - 0.2), U)
    U_L, U_R = map(_read_only, sv.muscl_reconstruct(U))
    assert not np.shares_memory(sv.central_flux(model, U_L, U_R, spd), U_L)
    if form != "point":
        params = sv.SchemeParams(dt=0.02, delta_diff=0.1)
        sv._advance(model, U, sv.Grid1D(16, 1.0), params)


def test_a_wide_two_way_ar_step_allocates_no_more_than_before():
    # ROADMAP item 6: the tracemalloc peak of one (4, 16384) step may not
    # grow past 3,933,536 B (7.50 states of 524,288 B), its peak before the
    # step worked in place; in place it is 6.50 states (numpy 2.4)
    model = ALL_KINDS[md.ModelKind.TWO_WAY_AR]
    n = 16384
    noise = np.random.default_rng(0).standard_normal((2, n))
    rho_p, rho_m = 0.3 * (1.0 + 1e-3 * noise[0]), 0.15 * (1.0 + 1e-3 * noise[1])
    U = np.stack([rho_p, rho_p, rho_m, rho_m])  # w = 1
    grid, params = sv.Grid1D(n, 1.0), sv.SchemeParams(dt=0.05, delta_diff=0.1)
    sv._advance(model, U, grid, params)
    tracemalloc.start()
    try:
        sv._advance(model, U, grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_933_536


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(1, 2), (2, 6), (4, 3, 5)]),
       limiter=st.sampled_from(["minmod", "none"]), data=st.data())
def test_reconstruction_matches_the_half_slope_reference(shape, limiter, data):
    U = data.draw(hnp.arrays(np.float64, shape, elements=edge_floats))
    with np.errstate(over="ignore"):
        got = sv.muscl_reconstruct(U, limiter)
        want = reference_half_slope_reconstruct(U, limiter)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


def reference_audit(model, U, grid, params, n_steps):
    """The AuditTrail of solver.run, recorded step by step into lists, with
    its clip budget: ClipBudgetError once the clipped mass passes
    CLIP_BUDGET_REL of the initial density mass."""
    rows = list(model.density_rows)
    rec = {name: [] for name in ("step", "t", "cfl", "mass", "min_rho", "max_rho",
                                 "clipped_mass")}
    budget = sv.CLIP_BUDGET_REL * float(np.sum(U[rows].sum(axis=1) * grid.dx))
    clipped_total = 0.0
    for k in range(1, n_steps + 1):
        U, cfl, clipped = sv._advance(model, U, grid, params)
        clipped_total += clipped
        if clipped_total > budget:
            raise ClipBudgetError("clipped mass exceeds the budget")
        rec["step"].append(k)
        rec["t"].append(k * params.dt)
        rec["cfl"].append(cfl)
        rec["mass"].append(U.reshape(len(U), -1).sum(axis=1) * grid.dx)
        rec["min_rho"].append(float(U[rows].min()))
        rec["max_rho"].append(float(U[rows].max()))
        rec["clipped_mass"].append(clipped_total)
    fields = {name: np.asarray(values, dtype=int if name == "step" else float)
              for name, values in rec.items()}
    fields["mass"] = fields["mass"].reshape(-1, len(U))
    return sv.AuditTrail(**fields)


def clip_budget_state():
    """A two_way_ar draw whose first step clips more than the budget: an
    empty first lane, and a second lane with no plus density and two vacuum
    cells in its minus density."""
    rho = np.array([0.4, 0.7, 0.1, 0.4, 0.4, 0.6, 0.6, 0.4,
                    0.2, 0.0, 0.0, 0.1, 0.5, 0.2, 0.7, 0.6])
    w = np.array([0.9, 1.1, 1.3, 0.8, 1.4, 0.9, 0.6, 0.9,
                  1.3, 0.7, 0.8, 1.5, 0.6, 0.8, 0.9, 1.0])
    U = np.zeros((4, 2, 16))
    U[2, 1], U[3, 1] = rho, rho * w
    return U


@pytest.mark.parametrize("kind", list(ALL_KINDS), ids=lambda kind: kind.value)
@settings(max_examples=25, deadline=None)
@given(dx=st.sampled_from([1.0, 0.3, 1.7]), n_steps=st.integers(0, 6), data=st.data())
# data=None stands for clip_budget_state(), a two_way_ar state
@example(dx=1.0, n_steps=1, data=None)
def test_run_audit_matches_the_per_step_reference(kind, dx, n_steps, data):
    # dx != 1 makes the factor dx of the mass and of the dt in t = k dt
    # show in the bits
    model = ALL_KINDS[kind]
    if data is None:
        if kind is not md.ModelKind.TWO_WAY_AR:
            return
        U = clip_budget_state()
    else:
        U = data.draw(step_states(model))
    grid = sv.Grid1D(n_cells=16, dx=dx)
    params = sv.SchemeParams(dt=0.01 * dx, delta_diff=0.1)
    got = _outcome(sv.run, model, U, grid, params, n_steps * params.dt)
    want = _outcome(reference_audit, model, U, grid, params, n_steps)
    if isinstance(want, type):
        assert got is want
        return
    for name, value in vars(want).items():
        assert getattr(got.audit, name).dtype == value.dtype
        assert_same_bits(getattr(got.audit, name), value)


# The singular limit.  A slow block (rho 0.5, w 1.05) walks ahead of fast
# walkers (rho 0.5, w 1.8) on one_way_ar's law with M = 1, m = 2, gamma = 2
# and rho_star = 1.  The Aw-Rascle Riemann solution at the block's rear
# compresses the fast walkers into a contact state of w = 1.8 that moves at
# the block's speed u_front = 1.05 - p(0.5): p(rho_mid) = 1.8 - u_front.
# There p(rho_mid) = 1 + eps = M rho_star**m + eps, so near the jam density
# eps / gap**gamma ~ 2 gap and the gap rho_star - rho_mid shrinks like
# eps**(1 / (gamma + 1)) as eps -> 0: the congested block tends to the jam
# density with an abrupt transition.


def _lone_stream_offset(law, rho):
    return float(pr.two_way_offsets(law, pr.LONE_STREAM, pr.LONE_STREAM, rho, 0.0)[0])


def _contact_density(law, target):
    """rho_mid with p(rho_mid) = target, by bisection on the lone-stream law."""
    lo, hi = 0.0, law.rho_star * (1.0 - pr.CONGESTION_REL_TOL)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _lone_stream_offset(law, mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def test_a_congested_block_tends_to_the_jam_density_as_eps_falls():
    grid = sv.Grid1D(n_cells=256, dx=1.0)
    block = (grid.x >= 128.0) & (grid.x < 192.0)
    w0 = np.where(block, 1.05, 1.8)
    U0 = np.stack([np.full(256, 0.5), 0.5 * w0])
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        law = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=2.0, rho_star=1.0)
        model = md.ModelSpec.one_way_ar(law)
        u_front = 1.05 - _lone_stream_offset(law, 0.5)
        rho_mid = _contact_density(law, 1.8 - u_front)
        res = sv.run(model, U0, grid, sv.SchemeParams(dt=0.05), t_end=60.0)
        peak = res.audit.max_rho.max()
        # within 10% of the gap: 0.96%, 2.3% and 4.7% were measured; the
        # error about doubles per decade of eps, since the shock and the
        # contact keep their width in cells while the gap shrinks
        assert abs(peak - rho_mid) <= 0.1 * (law.rho_star - rho_mid), eps
        gaps.append(law.rho_star - peak)
        # the invariant region: 0 <= rho < rho_star at every step, and w in
        # its initial range [1.05, 1.8] within 5%.  Componentwise minmod on
        # (rho, rho w) takes w 3.9% below 1.05 at the block's front, where
        # the slow walkers thin out (ROADMAP item 12); that 5% is no
        # round-off bound.
        assert res.audit.min_rho.min() >= 0.0
        assert res.audit.max_rho.max() < law.rho_star
        _, w, _ = md.ar_primitives(model, res.snapshots[-1][1])
        assert 1.05 * 0.95 <= w.min() and w.max() <= 1.8 * 1.05, eps
    # the gap shrinks, two decades of eps at the rate 1/(gamma + 1) = 1/3
    # within 0.05: 0.308 was measured (the closed-form rho_mid gives 0.316 at
    # these eps); a singular exponent of gamma + 1 or gamma - 1 in the law
    # gives 0.222 or 0.431
    assert gaps[0] > gaps[1] > gaps[2]
    slope = np.log10(gaps[0] / gaps[2]) / 2.0
    assert abs(slope - 1.0 / 3.0) <= 0.05, slope


# The two-way singular limit.  On two_way_car with constant crowding, V = 1
# and the law of the test above, plus walkers (rho 0.4) and minus walkers
# (rho 0.4) walk into each other on a periodic line.  Where they block each
# other both speeds vanish: V = p(rho_jam) with the total rho_jam, the
# contact density of target V, and the gap rho_star - rho_jam shrinks like
# eps**(1 / (gamma + 1)).  The closed form uses the solver's pressure kernel,
# so only the slope sees an error in the law's exponent.


def test_a_head_on_jam_tends_to_the_jam_density_as_eps_falls():
    grid = sv.Grid1D(n_cells=256, dx=1.0)
    params = sv.SchemeParams(dt=0.02, delta_diff=0.1)
    U0 = np.zeros((2, 256))
    U0[0, 32:96] = 0.4
    U0[1, 160:224] = 0.4
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        law = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=2.0, rho_star=1.0)
        model = md.ModelSpec.two_way_car(
            V=1.0, pressure=law, crowding=pr.CrowdingWeight(pr.CrowdingKind.CONSTANT))
        rho_jam = _contact_density(law, 1.0)
        # the driver's step, with the smallest density and the largest total
        # of every step; a negative density would be clipped, so none may be
        U, lowest, highest, clipped = U0, np.inf, 0.0, 0.0
        for _ in range(sv.step_count(100.0, params.dt)):
            U, _, c = sv._advance(model, U, grid, params)
            total = U[0] + U[1]
            lowest, highest = min(lowest, U.min()), max(highest, total.max())
            clipped += c
        assert clipped == 0.0 and lowest >= 0.0 and highest < law.rho_star, eps
        # the jam forms by t = 80 and then holds its peak.  Within 5% of the
        # gap: 0.76%, 1.05% and 2.1% were measured.  The totals of the run
        # overshoot further while the jam forms, by up to 22% of the gap.
        peak = total.max()
        assert abs(peak - rho_jam) <= 0.05 * (law.rho_star - rho_jam), eps
        gaps.append(law.rho_star - peak)
    # the slope over two decades of eps: 0.322 was measured, and the
    # closed-form gaps give 0.318
    assert gaps[0] > gaps[1] > gaps[2]
    slope = np.log10(gaps[0] / gaps[2]) / 2.0
    assert abs(slope - 1.0 / 3.0) <= 0.05, slope


def test_a_failed_run_says_at_which_step_and_time():
    # The head-on jam on 64 cells with dt = 0.2: its speeds grow while the
    # jam forms, until the stability guard stops a step (79; found here by
    # stepping _advance by hand).  solver.run names that step and the time
    # it was to reach.
    law = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
    model = md.ModelSpec.two_way_car(
        V=1.0, pressure=law, crowding=pr.CrowdingWeight(pr.CrowdingKind.CONSTANT))
    grid, params = sv.Grid1D(64, 1.0), sv.SchemeParams(dt=0.2)
    U0 = np.zeros((2, 64))
    U0[0, 8:24] = 0.4
    U0[1, 40:56] = 0.4
    U = U0
    with pytest.raises(StabilityError):
        for k in range(1, 1000):
            U = sv._advance(model, U, grid, params)[0]
    with pytest.raises(StabilityError) as info:
        sv.run(model, U0, grid, params, t_end=1000 * params.dt)
    assert k > 1 and (info.value.step, info.value.t) == (k, k * params.dt)
    # the check of the initial state is step 0, at time 0
    with pytest.raises(CongestionOverflowError) as info:
        sv.run(model, np.full((2, 64), 0.5), grid, params, t_end=1.0)
    assert (info.value.step, info.value.t) == (0, 0.0)
