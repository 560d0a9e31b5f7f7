import numpy as np
import pytest
from hypothesis import given, settings
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
)

SIM = md.ModelSpec.sim_flux(0.7)


class LinearAdvection:
    """Stub model with flux c*U, for exact translation references."""

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

    def flux(self, U):
        return np.zeros_like(np.asarray(U, dtype=float))

    def max_abs_speed(self, U):
        return np.zeros(np.asarray(U).shape[1])


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
        grid = sv.Grid1D(n_cells=6, dx=1.0)
        U_L, U_R = sv.muscl_reconstruct(np.full((2, 6), 0.7), grid, "minmod")
        np.testing.assert_array_equal(U_L, 0.7)
        np.testing.assert_array_equal(U_R, 0.7)

    def test_linear_field_interior_exact(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        vals = np.arange(8.0)[None, :]
        U_L, U_R = sv.muscl_reconstruct(vals, grid, "minmod")
        # interior interfaces j = 1..5 between unlimited cells
        for j in range(1, 6):
            assert U_L[0, j] == pytest.approx(j + 0.5)
            assert U_R[0, j] == pytest.approx(j + 0.5)

    def test_spike_is_limited(self):
        # hand computation on 5 cells: all slopes near the spike vanish
        grid = sv.Grid1D(n_cells=5, dx=1.0)
        vals = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        U_L, U_R = sv.muscl_reconstruct(vals, grid, "minmod")
        np.testing.assert_array_equal(U_L, vals)
        np.testing.assert_array_equal(U_R, np.roll(vals, -1, axis=1))

    def test_no_new_extrema(self):
        grid = sv.Grid1D(n_cells=32, dx=1.0)
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, (2, 32))
        U_L, U_R = sv.muscl_reconstruct(vals, grid, "minmod")
        lo = np.minimum(vals, np.roll(vals, -1, axis=1))
        hi = np.maximum(vals, np.roll(vals, -1, axis=1))
        assert np.all(U_L >= np.minimum(lo, np.roll(lo, 1, axis=1)) - 1e-14)
        assert np.all(U_L <= np.maximum(hi, np.roll(hi, 1, axis=1)) + 1e-14)

    def test_limiter_none_gives_cell_averages(self):
        grid = sv.Grid1D(n_cells=6, dx=1.0)
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, (1, 6))
        U_L, U_R = sv.muscl_reconstruct(vals, grid, "none")
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
        U_L, U_R = sv.muscl_reconstruct(U, grid, "minmod")
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

    def test_negative_speed_rejected(self):
        with pytest.raises(DomainError):
            sv.central_flux(SIM, noisy_state(4), noisy_state(4), -1.0)


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
        res = sv.run(SIM, sv.StateField(noisy_state(64)), grid, params, t_end=200.0)
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
    def test_round_off_clip_is_logged(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        vals = np.full((1, 8), 0.5)
        vals[0, 2] = -1e-15  # round-off level negativity
        res = sv.run(ZeroFlux(), sv.StateField(vals), grid, params, t_end=0.1)
        assert res.audit.clipped_mass[-1] == pytest.approx(1e-15)
        assert np.all(res.final.values >= 0.0)

    def test_clip_budget_exceeded(self):
        grid = sv.Grid1D(n_cells=8, dx=1.0)
        params = sv.SchemeParams(dt=0.1)
        vals = np.full((1, 8), 0.5)
        vals[0, 2] = -0.1
        with pytest.raises(ClipBudgetError):
            sv.run(ZeroFlux(), sv.StateField(vals), grid, params, t_end=0.1)


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
        field = sv.StateField(noisy_state(8), time=2.0)
        res = sv.run(SIM, field, grid, params, t_end=0.0)
        assert len(res.snapshots) == 1
        assert res.snapshots[0].time == 2.0
        np.testing.assert_array_equal(res.final.values, field.values)

    def test_snapshot_cadence(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.1, delta_diff=0.1)
        res = sv.run(
            SIM, sv.StateField(noisy_state(16)), grid, params,
            t_end=1.0, snapshot_every=0.5,
        )
        times = [snap.time for snap in res.snapshots]
        assert times == pytest.approx([0.0, 0.5, 1.0])

    def test_audit_is_per_step(self):
        grid = sv.Grid1D(n_cells=16, dx=1.0)
        params = sv.SchemeParams(dt=0.1, delta_diff=0.1)
        res = sv.run(SIM, sv.StateField(noisy_state(16)), grid, params, t_end=1.0)
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
        field = sv.StateField(np.stack([rho0, rho0 * w0]))
        params = sv.SchemeParams(dt=0.02, delta_diff=0.0)
        res = sv.run(model, field, grid, params, t_end=20.0)
        assert res.audit.max_rho.max() < params_p.rho_star
        rho_f, w_f, u_f = md.ar_primitives(model, res.final.values)
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
        return sv.run(model, sv.StateField(U0), grid, params, t_end=5 * params.dt)
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
    for snap in first.snapshots:
        assert np.all(snap.values[rows] >= 0.0)
    clipped = first.audit.clipped_mass[-1]
    mass0 = U0.sum(axis=1) * grid.dx
    mass = first.final.values.sum(axis=1) * grid.dx
    tol = 1e-13 * (1.0 + np.abs(U0).sum() * grid.dx) + clipped
    assert np.all(np.abs(mass - mass0) <= tol)
    np.testing.assert_array_equal(
        first.final.values.view(np.int64), second.final.values.view(np.int64)
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
    res = sv.run(model, sv.StateField(U0), grid, params, t_end=1.0)
    assert len(res.audit.step) == 20
    assert np.all(np.isfinite(res.final.values))
    assert np.all(np.isfinite(res.audit.cfl))
