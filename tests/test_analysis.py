import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pedflow import analysis as an
from pedflow import models as md
from pedflow import pressure as pr
from pedflow.errors import DomainError

SIM = md.ModelSpec.sim_flux(0.7)


def car_model(eps=1e-3, m=2.0):
    params = pr.PressureParams(M=1.0, m=m, eps=eps, gamma=2.0, rho_star=1.0)
    return md.ModelSpec.two_way_car(V=1.0, pressure=params)


def sim_plus_flux(rp, rm):
    """Plus-species flux of SIM at one state, through ModelSpec.flux."""
    return SIM.flux(np.array([rp, rm]))[0]


def fd_flux_jacobian(flux_fn, rp, rm, h=1e-7):
    """Test-local finite-difference partials, independent of the package's
    analytic path (and of diffusive_speeds_fd)."""
    return (
        (flux_fn(rp + h, rm) - flux_fn(rp - h, rm)) / (2 * h),
        (flux_fn(rp, rm + h) - flux_fn(rp, rm - h)) / (2 * h),
        (flux_fn(rm, rp + h) - flux_fn(rm, rp - h)) / (2 * h),
        (flux_fn(rm + h, rp) - flux_fn(rm - h, rp)) / (2 * h),
    )


def diffusive_speeds_fd(flux_fn, rho_plus, rho_minus, step=1e-7):
    """Centered finite-difference partials of a flux f(rho_plus, rho_minus)
    of the plus species: the reference the analytic partials are checked
    against."""

    def d(fn, x, y, which):
        if which == 0:
            return (fn(x + step, y) - fn(x - step, y)) / (2.0 * step)
        return (fn(x, y + step) - fn(x, y - step)) / (2.0 * step)

    return an.DiffusiveSpeeds(
        c_pp=d(flux_fn, rho_plus, rho_minus, 0),
        c_pm=d(flux_fn, rho_plus, rho_minus, 1),
        c_mp=d(flux_fn, rho_minus, rho_plus, 1),
        c_mm=d(flux_fn, rho_minus, rho_plus, 0),
    )


def mapped_speeds(c_u_plus, c_u_minus, c_pm, c_mp, rho_plus, rho_minus):
    """DiffusiveSpeeds of the decoupled speeds c_u+- and the pressure
    partials c+- = c_pm, c-+ = c_mp through the documented sign mapping."""
    return an.DiffusiveSpeeds(
        c_pp=c_u_plus,
        c_pm=-rho_plus * c_pm,
        c_mp=-rho_minus * c_mp,
        c_mm=-c_u_minus,
    )


def characteristic_speeds(speeds):
    return an.instability_summary(speeds, 0.0).eigenvalues


class TestDiscriminant:
    def test_decoupled_pressures_always_hyperbolic(self):
        speeds = mapped_speeds(0.5, -0.5, 0.0, 0.0, 0.4, 0.4)
        assert an.diffusive_discriminant(speeds) == pytest.approx(1.0)

    def test_single_species_always_hyperbolic(self):
        rho = np.linspace(0.0, 0.99, 34)
        for model in (SIM, car_model()):
            assert np.all(an.delta_field(model, rho, np.zeros_like(rho)) >= 0.0)
            assert np.all(an.delta_field(model, np.zeros_like(rho), rho) >= 0.0)

    def test_sim_flux_reference_state_not_hyperbolic(self):
        # independent route: finite differences of the flux itself
        c_pp, c_pm, c_mp, c_mm = fd_flux_jacobian(sim_plus_flux, 0.5, 0.3)
        delta_fd = (c_pp + c_mm) ** 2 - 4.0 * c_pm * c_mp
        assert delta_fd < 0
        assert an.delta_field(SIM, 0.5, 0.3) == pytest.approx(delta_fd, rel=1e-5)
        assert an.delta_field(SIM, 0.5, 0.3) < 0

    def test_delta_field_matches_the_pointwise_record(self):
        rng = np.random.default_rng(3)
        for model in (SIM, car_model()):
            rp = rng.uniform(0.0, 0.45, 50)
            rm = rng.uniform(0.0, 0.45, 50)
            field = an.delta_field(model, rp, rm)
            for k in range(50):
                speeds = an.diffusive_speeds(model, rp[k], rm[k])
                want = an.diffusive_discriminant(speeds)
                assert field[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestArEigenvalues:
    """Characteristic speeds of a hyperbolic two-way state, read from
    instability_summary at zero diffusivity."""

    def test_degenerate_root(self):
        speeds = mapped_speeds(0.7, 0.7, 0.0, 0.0, 0.3, 0.3)
        lam_minus, lam_plus = characteristic_speeds(speeds)
        assert lam_minus == pytest.approx(0.7)
        assert lam_plus == pytest.approx(0.7)

    def test_decoupled_case_returns_uncoupled_speeds(self):
        speeds = mapped_speeds(0.9, -0.4, 1.0, 1.0, 0.0, 0.0)
        lam_minus, lam_plus = characteristic_speeds(speeds)
        assert lam_minus == pytest.approx(-0.4)
        assert lam_plus == pytest.approx(0.9)

    def test_negative_discriminant_rejected(self):
        speeds = mapped_speeds(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert an.diffusive_discriminant(speeds) == pytest.approx(-4.0)
        with pytest.raises(DomainError):
            an.instability_summary(speeds, 0.0)

    def test_matches_matrix_eigensolve(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 200:
            c_u_plus, c_u_minus = rng.uniform(-2, 2, 2)
            c_pm, c_mp = rng.uniform(0, 2, 2)
            rp, rm = rng.uniform(0, 1, 2)
            speeds = mapped_speeds(c_u_plus, c_u_minus, c_pm, c_mp, rp, rm)
            if an.diffusive_discriminant(speeds) < 0:
                continue
            matrix = np.array([[c_u_plus, -rp * c_pm], [rm * c_mp, c_u_minus]])
            expected = np.sort(np.linalg.eigvals(matrix).real)
            got = characteristic_speeds(speeds)
            assert abs(got[0] - expected[0]) < 1e-10
            assert abs(got[1] - expected[1]) < 1e-10
            checked += 1


class TestDiffusiveSpeeds:
    def test_sim_flux_matches_fd(self):
        for rp, rm in [(0.35, 0.3), (0.5, 0.3), (0.1, 0.05), (0.45, 0.45)]:
            speeds = an.diffusive_speeds(SIM, rp, rm)
            c_pp, c_pm, c_mp, c_mm = fd_flux_jacobian(sim_plus_flux, rp, rm)
            assert speeds.c_pp == pytest.approx(c_pp, abs=1e-6)
            assert speeds.c_pm == pytest.approx(c_pm, abs=1e-6)
            assert speeds.c_mp == pytest.approx(c_mp, abs=1e-6)
            assert speeds.c_mm == pytest.approx(c_mm, abs=1e-6)

    def test_vacuum_limit(self):
        speeds = an.diffusive_speeds(SIM, 0.0, 0.0)
        assert speeds.c_pp == pytest.approx(1.0)

    def test_coupling_signs(self):
        speeds = an.diffusive_speeds(SIM, 0.35, 0.3)
        assert speeds.c_pm < 0
        assert speeds.c_mp < 0

    def test_two_way_car_identification(self):
        # the flux partials are the decoupled speeds and pressure partials
        # of the module docstring's sign mapping
        model = car_model()
        for rp, rm in [(0.2, 0.1), (0.4, 0.3), (0.1, 0.6)]:
            p_plus, p_minus, (d1_p, d2_p), (d1_m, d2_m) = pr.two_way_offsets(
                model.pressure, model.crowding, model.crowding_minus, rp, rm,
                partials=True,
            )
            c_u_plus = (model.V - p_plus) - rp * d1_p
            c_u_minus = (-model.V + p_minus) + rm * d1_m
            speeds = an.diffusive_speeds(model, rp, rm)
            want = mapped_speeds(c_u_plus, c_u_minus, d2_p, d2_m, rp, rm)
            assert speeds.c_pp == pytest.approx(want.c_pp, abs=1e-10)
            assert speeds.c_mm == pytest.approx(want.c_mm, abs=1e-10)
            assert speeds.c_pm == pytest.approx(want.c_pm, abs=1e-10)
            assert speeds.c_mp == pytest.approx(want.c_mp, abs=1e-10)

    def test_two_way_car_matches_fd(self):
        model = car_model()

        def f(rp, rm):
            return rp * (
                model.V
                - pr.two_way_pressure(model.pressure, model.crowding, rp, rm)
            )

        speeds = an.diffusive_speeds(model, 0.3, 0.25)
        c_pp, c_pm, c_mp, c_mm = fd_flux_jacobian(f, 0.3, 0.25)
        assert speeds.c_pp == pytest.approx(c_pp, rel=1e-5)
        assert speeds.c_pm == pytest.approx(c_pm, rel=1e-5)
        assert speeds.c_mp == pytest.approx(c_mp, rel=1e-5)
        assert speeds.c_mm == pytest.approx(c_mm, rel=1e-5)

    def test_partials_at_the_kinks(self):
        # total density a = 0.7: the rising branch, h = 1/2, h' = -1/(2a)
        a = 0.7
        speeds = an.diffusive_speeds(SIM, 0.35, 0.35)
        assert speeds.c_pp == pytest.approx(0.5 - 0.35 / (2 * a))
        assert speeds.c_pm == pytest.approx(-0.35 / (2 * a))
        # total density 1: the falling branch, h = 0, h' = -a/(1-a)
        speeds = an.diffusive_speeds(SIM, 0.5, 0.5)
        assert speeds.c_pp == pytest.approx(-0.5 * a / (1 - a))
        assert speeds.c_mp == pytest.approx(-0.5 * a / (1 - a))

    def test_fd_fallback_matches_analytic(self):
        got = diffusive_speeds_fd(sim_plus_flux, 0.35, 0.3)
        want = an.diffusive_speeds(SIM, 0.35, 0.3)
        assert got.c_pp == pytest.approx(want.c_pp, abs=1e-6)
        assert got.c_mm == pytest.approx(want.c_mm, abs=1e-6)

    def test_requires_two_species_model(self):
        params = pr.PressureParams(M=1, m=2, eps=0, gamma=2, rho_star=1)
        with pytest.raises(DomainError):
            an.diffusive_speeds(md.ModelSpec.one_way_ar(params), 0.3, 0.2)


class TestDispersion:
    def test_zero_diffusivity_recovers_characteristics(self):
        speeds = an.diffusive_speeds(SIM, 0.35, 0.3)
        report = an.instability_summary(speeds, 0.0)
        assert report.hyperbolic
        lam_plus, lam_minus = an.dispersion(speeds, 0.0, 1.3)
        assert lam_plus.imag == pytest.approx(0.0, abs=1e-15)
        assert lam_minus.imag == pytest.approx(0.0, abs=1e-15)
        assert sorted([lam_minus.real, lam_plus.real]) == pytest.approx(
            sorted(report.eigenvalues)
        )

    def test_zero_wavenumber_neutral(self):
        speeds = an.diffusive_speeds(SIM, 0.5, 0.3)
        lam_plus, lam_minus = an.dispersion(speeds, 0.4, 0.0)
        assert (0.0 * lam_plus).imag == 0.0
        assert an.growth_rate(speeds, 0.4, 0.0) == 0.0

    def test_growth_rate_formula_in_unstable_region(self):
        speeds = an.diffusive_speeds(SIM, 0.5, 0.3)
        delta = an.diffusive_discriminant(speeds)
        assert delta < 0
        diffusivity = 0.4
        for xi in (0.1, 0.5, 1.0, 2.0):
            expected = np.sqrt(-delta) / 2.0 * abs(xi) - diffusivity * xi**2
            assert an.growth_rate(speeds, diffusivity, xi) == pytest.approx(expected)

    def test_matches_fourier_symbol_eigensolve(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            speeds = an.DiffusiveSpeeds(
                c_pp=rng.uniform(-2, 2),
                c_pm=rng.uniform(-2, 0),
                c_mp=rng.uniform(-2, 0),
                c_mm=rng.uniform(-2, 2),
            )
            xi = rng.uniform(-3, 3)
            diffusivity = rng.uniform(0, 1)
            symbol = xi * speeds.jacobian - 1j * diffusivity * xi**2 * np.eye(2)
            got = [xi * lam for lam in an.dispersion(speeds, diffusivity, xi)]
            want = list(np.linalg.eigvals(symbol))
            straight = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
            crossed = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
            assert min(straight, crossed) < 1e-10

    def test_negative_diffusivity_rejected(self):
        speeds = an.diffusive_speeds(SIM, 0.35, 0.3)
        with pytest.raises(DomainError):
            an.dispersion(speeds, -0.1, 1.0)


class TestInstabilitySummary:
    def test_closed_forms(self):
        # |Delta| = 1, delta = 0.25 -> band edge 2, dominant 1, rate 0.25
        speeds = an.DiffusiveSpeeds(c_pp=0.0, c_pm=-0.5, c_mp=-0.5, c_mm=0.0)
        assert an.diffusive_discriminant(speeds) == pytest.approx(-1.0)
        report = an.instability_summary(speeds, 0.25)
        assert not report.hyperbolic
        assert report.unstable_xi_max == pytest.approx(2.0)
        assert report.dominant_xi == pytest.approx(1.0)
        assert report.max_growth_rate == pytest.approx(0.25)
        assert report.dominant_length == pytest.approx(1.0)

    def test_hyperbolic_state_has_no_unstable_fields(self):
        speeds = an.diffusive_speeds(SIM, 0.35, 0.3)
        report = an.instability_summary(speeds, 0.4)
        assert report.hyperbolic
        assert report.unstable_xi_max is None
        assert report.dominant_xi is None
        assert report.eigenvalues is not None

    def test_unstable_band_nonempty_at_reference_state(self):
        speeds = an.diffusive_speeds(SIM, 0.5, 0.3)
        report = an.instability_summary(speeds, 0.4)
        assert not report.hyperbolic
        assert report.unstable_xi_max > 0
        # dominant length is the inverse of the dominant wave number
        assert report.dominant_length == pytest.approx(1.0 / report.dominant_xi)

    def test_growth_curve_shape(self):
        speeds = an.diffusive_speeds(SIM, 0.5, 0.3)
        report = an.instability_summary(speeds, 0.4)
        xi = np.linspace(0, report.unstable_xi_max, 101)
        nu = np.array([an.growth_rate(speeds, 0.4, x) for x in xi])
        assert nu[0] == pytest.approx(0.0, abs=1e-14)
        assert nu[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(nu, 2) < 1e-10)  # concave
        k = np.argmax(nu)
        assert xi[k] == pytest.approx(report.dominant_xi, abs=xi[1] - xi[0])

    def test_zero_diffusivity_unstable_rejected(self):
        speeds = an.diffusive_speeds(SIM, 0.5, 0.3)
        with pytest.raises(DomainError):
            an.instability_summary(speeds, 0.0)


@pytest.fixture(scope="module")
def sim_map():
    return an.hyperbolicity_map(SIM, 120)


class TestHyperbolicityMap:

    def test_reference_classifications(self, sim_map):
        def classify(rp, rm):
            i = int(np.argmin(np.abs(sim_map.rho_plus - rp)))
            j = int(np.argmin(np.abs(sim_map.rho_minus - rm)))
            return bool(sim_map.hyperbolic[i, j])

        assert classify(0.35, 0.3)
        assert not classify(0.5, 0.3)

    def test_symmetric_under_species_swap(self, sim_map):
        assert np.array_equal(sim_map.hyperbolic, sim_map.hyperbolic.T)

    def test_boundary_points_on_zero_level_set(self, sim_map):
        b = sim_map.boundary_points
        assert len(b) > 0
        deltas = np.abs(an.delta_field(SIM, b[:, 0], b[:, 1]))
        assert deltas.max() < 1e-4

    def test_near_boundary_state(self, sim_map):
        b = sim_map.boundary_points
        dist = np.sqrt((b[:, 0] - 0.4) ** 2 + (b[:, 1] - 0.3) ** 2).min()
        assert dist < 0.05

    def test_resolution_bound(self):
        with pytest.raises(DomainError):
            an.hyperbolicity_map(SIM, 1)

    def test_table_text_shape(self, sim_map):
        text = sim_map.to_table_text()
        lines = text.strip().split("\n")
        assert len(lines) == 120
        assert set(lines[0].split(" ")) <= {"0", "1"}

    def test_car_map_runs(self):
        hmap = an.hyperbolicity_map(car_model(eps=1e-3), 40)
        assert hmap.hyperbolic.shape == (40, 40)


# The bisection on 2-element arrays that the float bisection replaced, kept
# as the reference: the same delta_field calls in the same order, and the
# same boundary points bit for bit.


def reference_bisect_boundary(point_delta, p0, p1, hyperbolic0):
    a, b = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    while np.max(np.abs(b - a)) > an.BOUNDARY_TOL:
        mid = 0.5 * (a + b)
        fm = point_delta(*mid)
        if (fm >= 0) == hyperbolic0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def asymmetric_car_model():
    """The two_lane.cfg law with a minus crowding weight of its own, so
    Delta(a, b) and Delta(b, a) differ and the map bisects both axes."""
    return md.ModelSpec.two_way_car(
        V=1.0, pressure=car_model().pressure,
        crowding_minus=pr.CrowdingWeight(pr.CrowdingKind.POWER, 2.0))


@pytest.mark.parametrize("model", [car_model(eps=1e-3), asymmetric_car_model(), SIM],
                         ids=["two_way_car", "two_way_car_asymmetric", "sim_flux"])
def test_map_bisection_matches_the_array_reference(model, monkeypatch):
    # one process, so that every call is recorded here
    monkeypatch.delattr(os, "fork")
    calls = []
    delta_field = an.delta_field

    def recorded(model, rho_plus, rho_minus):
        calls.append((float(rho_plus), float(rho_minus)) if np.ndim(rho_plus) == 0
                     else np.shape(rho_plus))
        return delta_field(model, rho_plus, rho_minus)

    monkeypatch.setattr(an, "delta_field", recorded)
    got = an.hyperbolicity_map(model, 40)
    got_calls, calls[:] = calls[:], []
    monkeypatch.setattr(an, "_bisect_boundary", reference_bisect_boundary)
    want = an.hyperbolicity_map(model, 40)
    assert len(got.boundary_points) > 0
    assert got_calls == calls
    np.testing.assert_array_equal(
        got.boundary_points.view(np.int64), want.boundary_points.view(np.int64)
    )
    np.testing.assert_array_equal(got.hyperbolic, want.hyperbolic)


def two_axis_boundary(model, hmap):
    """The boundary points of hmap bisected along both axes, one
    an._bisect_boundary call per flipped edge between evaluated nodes, in
    the map's row order."""
    axis = hmap.rho_plus

    def point_delta(rp, rm):
        return float(an.delta_field(model, rp, rm))

    points = []
    for di, dj in ((1, 0), (0, 1)):
        for i, j in zip(*np.nonzero(np.diff(hmap.hyperbolic, axis=dj))):
            if model.pressure is not None and i + di + j + dj >= len(axis) - 1:
                continue  # an edge to a node on the diagonal, not evaluated
            # the raster's class of the first node is the scalar Delta's
            assert hmap.hyperbolic[i, j] == (point_delta(axis[i], axis[j]) >= 0)
            points.append(an._bisect_boundary(point_delta, (axis[i], axis[j]),
                                              (axis[i + di], axis[j + dj]),
                                              bool(hmap.hyperbolic[i, j])))
    return np.array(points)


@pytest.mark.parametrize("model,resolution", [
    (SIM, 40),
    *[(md.ModelSpec.two_way_car(V=1.0, pressure=car_model().pressure,
                                crowding=pr.CrowdingWeight(kind)), 40)
      for kind in pr.CrowdingKind],
    (car_model(eps=1e-3), 160),
    (asymmetric_car_model(), 40),
], ids=["sim_flux", *(f"two_way_car_{k.value}" for k in pr.CrowdingKind),
        "two_lane_law_160", "two_way_car_asymmetric"])
def test_map_matches_the_two_axis_bisection(model, resolution):
    """Mirrored where crowding == crowding_minus, bisected along both axes
    otherwise: the same boundary points either way."""
    hmap = an.hyperbolicity_map(model, resolution)
    want = two_axis_boundary(model, hmap)
    assert len(want) > 0
    symmetric = np.array_equal(hmap.hyperbolic, hmap.hyperbolic.T)
    assert symmetric == (model.crowding == model.crowding_minus)
    assert hmap.boundary_points.shape == want.shape
    np.testing.assert_array_equal(hmap.boundary_points.view(np.int64), want.view(np.int64))


def reference_square_delta(model, resolution):
    """The map's axis, its evaluated nodes and Delta over the whole square,
    as the map's raster took it before it gathered the triangle: zeros in
    place of the nodes on and past the diagonal of a pressure model."""
    rho_max = 1.0 if model.pressure is None else model.pressure.rho_star * (1.0 - 1e-9)
    axis = np.linspace(0.0, rho_max, resolution)
    index = np.arange(resolution)
    inside = (index[:, None] + index < resolution - 1) | (model.pressure is None)
    square = an.delta_field(model, np.where(inside, axis[:, None], 0.0),
                            np.where(inside, axis, 0.0))
    return axis, inside, square


@pytest.mark.parametrize("resolution", [10, 50, 160])
@pytest.mark.parametrize("model", [
    *[md.ModelSpec.two_way_car(V=1.0, pressure=car_model().pressure,
                               crowding=pr.CrowdingWeight(kind))
      for kind in pr.CrowdingKind],
    asymmetric_car_model(), SIM,
], ids=[*(f"two_way_car_{k.value}" for k in pr.CrowdingKind),
        "two_way_car_asymmetric", "sim_flux"])
def test_the_triangle_raster_matches_the_masked_square(model, resolution):
    # at resolutions 10 and 50 some diagonal totals round below
    # rho_star (1 - 1e-9); the triangle is taken by index all the same
    axis, inside, square = reference_square_delta(model, resolution)
    hmap = an.hyperbolicity_map(model, resolution)
    np.testing.assert_array_equal(hmap.hyperbolic, np.where(inside, square, 1.0) >= 0.0)
    i, j = np.nonzero(inside)
    np.testing.assert_array_equal(an.delta_field(model, axis[i], axis[j]).view(np.int64),
                                  square[inside].view(np.int64))


def fd_eigen_discriminant(model, rho_plus, rho_minus, h=1e-7):
    """(a - d)^2 + 4 b c of the central-difference Jacobian [[a, b], [c, d]]
    of model.flux at arrays of states: its eigenvalues are real where this
    is >= 0.  Independent of the analytic partials of analysis."""
    U = np.stack([rho_plus, rho_minus])
    columns = []
    for k in range(2):
        e = np.zeros((2, 1))
        e[k] = h
        columns.append((model.flux(U + e) - model.flux(U - e)) / (2.0 * h))
    (a, c), (b, d) = columns
    return (a - d) ** 2 + 4.0 * b * c


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("kind", list(pr.CrowdingKind))
def test_map_boundary_points_separate_real_from_complex_flux_eigenvalues(kind, eps):
    params = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=2.0, rho_star=1.0)
    model = md.ModelSpec.two_way_car(V=1.0, pressure=params,
                                     crowding=pr.CrowdingWeight(kind))
    hmap = an.hyperbolicity_map(model, 40)
    points = hmap.boundary_points
    assert len(points) > 0
    # the points of edges along rho_plus come first, then those along rho_minus
    n_plus = np.count_nonzero(np.diff(hmap.hyperbolic, axis=0))
    step = np.zeros_like(points)
    step[:n_plus, 0] = step[n_plus:, 1] = 2.0 * an.BOUNDARY_TOL
    real_below = fd_eigen_discriminant(model, *(points - step).T) >= 0.0
    real_above = fd_eigen_discriminant(model, *(points + step).T) >= 0.0
    assert np.all(real_below != real_above)


# delta_field when it built a frozen DiffusiveSpeeds record per call from
# the partials of a dict of characteristic speeds, kept as the reference for
# the plain tuple it passes to diffusive_discriminant now.


@dataclass(frozen=True)
class ReferenceSpeeds:
    c_pp: float
    c_pm: float
    c_mp: float
    c_mm: float


def reference_delta_field(model, rho_plus, rho_minus):
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    if model.kind is md.ModelKind.SIM_FLUX:
        _, h, hp = md._sim_h(model.a, rp, rm)
        speeds = ReferenceSpeeds(h + rp * hp, rp * hp, rm * hp, h + rm * hp)
    else:
        p_plus, p_minus, (c_pp, c_pm), (c_mm, c_mp) = pr.two_way_offsets(
            model.pressure, model.crowding, model.crowding_minus, rp, rm,
            partials=True)
        u_plus, u_minus = model.V - p_plus, -model.V + p_minus
        spd = {"c_pm": c_pm, "c_mp": c_mp, "c_u_plus": u_plus - rp * c_pp,
               "c_u_minus": u_minus + rm * c_mm}
        speeds = ReferenceSpeeds(spd["c_u_plus"], -rp * spd["c_pm"],
                                 -rm * spd["c_mp"], -spd["c_u_minus"])
    s = speeds.c_pp + speeds.c_mm
    return s * s - 4.0 * speeds.c_pm * speeds.c_mp


# +-0.0, the smallest subnormal, a subnormal, a total below VACUUM_FLOOR,
# and the kinks a = 0.7 and 1 of the default sim_flux profile
EDGE_DENSITIES = [0.0, -0.0, 5e-324, 1e-310, 0.25 * pr.VACUUM_FLOOR, 0.35, 0.5]

crowding_weights = st.builds(pr.CrowdingWeight, kind=st.sampled_from(list(pr.CrowdingKind)),
                             beta=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0))


@st.composite
def delta_models(draw, symmetric=False):
    """A sim_flux model and the largest species density it is drawn at
    (1e300), or a two_way_car model and rho_star / 2 (an admissible state);
    rho_star = 1e300 puts totals up to about 1e300 into the pressure law.
    A symmetric two_way_car model has no crowding weight of its own for
    the minus direction, as a config without a crowding_minus section."""
    if draw(st.booleans()):
        return md.ModelSpec.sim_flux(draw(st.just(0.7) | st.floats(0.05, 0.95))), 1e300
    params = pr.PressureParams(
        M=draw(st.floats(0.0, 2.0)), m=draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 4.0)),
        eps=draw(st.just(0.0) | st.floats(1e-4, 0.5)),
        gamma=draw(st.sampled_from([2.0, 3.0]) | st.floats(1.01, 4.0)),
        rho_star=draw(st.sampled_from([1.0, 1e300]) | st.floats(0.5, 2.0)))
    model = md.ModelSpec.two_way_car(
        V=draw(st.floats(0.1, 2.0)), pressure=params, crowding=draw(crowding_weights),
        crowding_minus=None if symmetric else draw(crowding_weights))
    return model, 0.49 * params.rho_star


def draw_state_pair(data, top):
    """Two densities of one form (float, NumPy scalar, 0-d or array), edge
    densities and vacuum totals included."""
    elements = st.sampled_from(EDGE_DENSITIES) | st.floats(0.0, top)
    form = data.draw(st.sampled_from(["float", "numpy scalar", "0-d", (7,), (2, 9)]))
    pair = []
    for _ in range(2):
        if isinstance(form, str):
            rho = data.draw(elements)
            pair.append({"float": float, "numpy scalar": np.float64,
                         "0-d": np.asarray}[form](rho))
        else:
            pair.append(data.draw(hnp.arrays(np.float64, form, elements=elements)))
    return pair


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_delta_field_matches_the_record_reference(data):
    model, top = data.draw(delta_models())
    pair = draw_state_pair(data, top)
    # the pressure law overflows to inf near rho_star = 1e300, in both alike;
    # sim_flux must not warn at any total
    with np.errstate(all="ignore" if model.pressure is not None else None):
        got = an.delta_field(model, *pair)
        want = reference_delta_field(model, *pair)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                  np.asarray(want, dtype=float).view(np.int64))


# hyperbolicity_map mirrors the boundary points along rho_plus onto the
# rho_minus axis when crowding == crowding_minus; that rests on this
# symmetry, bit for bit.


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_delta_field_is_symmetric_when_both_directions_share_a_crowding_weight(data):
    model, top = data.draw(delta_models(symmetric=True))
    assert model.crowding == model.crowding_minus
    rho_plus, rho_minus = draw_state_pair(data, top)
    # 4 c_pm c_mp may overflow in one order only (inf * 0 against a finite
    # product); such states warn, an error under pytest, and are left out
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = an.delta_field(model, rho_plus, rho_minus)
            swapped = an.delta_field(model, rho_minus, rho_plus)
    except FloatingPointError:
        if model.pressure is None:  # sim_flux must not warn at any total
            raise
        assume(False)
    assert type(got) is type(swapped)
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                  np.asarray(swapped, dtype=float).view(np.int64))


def test_swapping_the_directions_changes_delta_of_an_asymmetric_model():
    model = asymmetric_car_model()
    assert model.crowding != model.crowding_minus
    assert an.delta_field(model, 0.3, 0.2) != an.delta_field(model, 0.2, 0.3)


@pytest.mark.parametrize("form", [float, np.float64, np.asarray],
                         ids=["float", "numpy_scalar", "0-d"])
@pytest.mark.parametrize("state", [(0.3, 0.2), (0.0, 0.0), (0.5, 0.4)])
@pytest.mark.parametrize("model", [car_model(eps=1e-3), car_model(eps=0.0), SIM],
                         ids=["two_way_car", "two_way_car_eps_0", "sim_flux"])
def test_scalar_states_give_numpy_scalars(model, state, form):
    rho_plus, rho_minus = map(form, state)
    assert type(an.delta_field(model, rho_plus, rho_minus)) is np.float64
    partials = an._flux_partials(model, rho_plus, rho_minus)
    assert [type(c) for c in partials] == [np.float64] * 4


@pytest.mark.parametrize("form", [float, np.float64, np.asarray],
                         ids=["float", "numpy_scalar", "0-d"])
def test_a_scalar_delta_that_overflows_raises_under_errstate(form):
    # eps / (q z**gamma) overflows near the jam density; on NumPy scalars
    # that raises under np.errstate, as the map needs for its exit 3, where
    # Python floats would go on to inf or nan (eps / (q * inf) is 0)
    model = car_model(eps=1e300)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        an.delta_field(model, form(0.6), form(0.399))


def reference_table_text(hyperbolic):
    """HyperbolicityMap.to_table_text when it formatted one cell at a time."""
    lines = []
    for row in hyperbolic.astype(int):
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("raster", [
    np.array([[True, False], [False, True]]),
    np.ones((5, 5), dtype=bool),
    np.zeros((3, 3), dtype=bool),
    np.random.default_rng(3).random((160, 160)) < 0.5,
], ids=["2x2", "all_true", "all_false", "random_160"])
def test_table_text_matches_the_per_cell_reference(raster):
    axis = np.linspace(0.0, 1.0, raster.shape[0])
    hmap = an.HyperbolicityMap(rho_plus=axis, rho_minus=axis.copy(), hyperbolic=raster,
                               boundary_points=np.empty((0, 2)))
    assert hmap.to_table_text() == reference_table_text(raster)


def one_process_map(model, resolution):
    """The map of model built without os.fork, so by one process."""
    with pytest.MonkeyPatch.context() as m:
        m.delattr(os, "fork")
        return an.hyperbolicity_map(model, resolution)


def assert_same_map(got, want):
    np.testing.assert_array_equal(got.hyperbolic, want.hyperbolic)
    np.testing.assert_array_equal(got.boundary_points.view(np.int64),
                                  want.boundary_points.view(np.int64))


class TestTwoProcessMap:
    """Maps with at least an._FORK_MIN_EDGES flipped raster edges are
    bisected by two processes; the map is the same, bit for bit, as when
    one process bisects them."""

    @pytest.mark.parametrize("model", [car_model(eps=1e-3), asymmetric_car_model(), SIM],
                             ids=["two_lane_law", "two_way_car_asymmetric", "sim_flux"])
    def test_two_processes_bisect_the_points_of_one(self, model, forks):
        want = one_process_map(model, 160)
        assert_same_map(an.hyperbolicity_map(model, 160), want)
        assert len(forks) == 1  # the edges of both axes, where both are bisected

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(crowding=crowding_weights, crowding_minus=st.none() | crowding_weights,
           eps=st.floats(1e-4, 0.5), gamma=st.floats(1.01, 4.0),
           resolution=st.integers(20, 80))
    def test_drawn_maps(self, monkeypatch, forks, crowding, crowding_minus, eps, gamma,
                        resolution):
        monkeypatch.setattr(an, "_FORK_MIN_EDGES", 1)
        params = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=gamma, rho_star=1.0)
        model = md.ModelSpec.two_way_car(V=1.0, pressure=params, crowding=crowding,
                                         crowding_minus=crowding_minus)
        want = one_process_map(model, resolution)
        n_forks = len(forks)
        assert_same_map(an.hyperbolicity_map(model, resolution), want)
        assert len(forks) - n_forks == (len(want.boundary_points) > 0)

    def test_a_failed_child_leaves_its_edges_to_the_parent(self, monkeypatch, forks):
        model = car_model(eps=1e-3)
        want = one_process_map(model, 160)
        parent, delta_field = os.getpid(), an.delta_field

        def fails_in_the_child(model, rho_plus, rho_minus):
            if os.getpid() != parent:
                raise FloatingPointError("overflow encountered in scalar multiply")
            return delta_field(model, rho_plus, rho_minus)

        monkeypatch.setattr(an, "delta_field", fails_in_the_child)
        assert_same_map(an.hyperbolicity_map(model, 160), want)
        assert len(forks) == 1

    @pytest.mark.parametrize("failing", [(1,), (2,), (1, 2), (2, 3)])
    def test_the_first_failed_edge_raises_as_in_one_process(self, monkeypatch, forks,
                                                            failing):
        """Edges 0, 2, ... are this process's share and 1, 3, ... the
        child's; the error raised is that of the first failing edge."""
        monkeypatch.setattr(an, "_FORK_MIN_EDGES", 1)  # resolution 40 has only 58 edges
        model = car_model(eps=1e-3)
        hmap = one_process_map(model, 40)
        axis = hmap.rho_plus
        flips = list(zip(*np.nonzero(np.diff(hmap.hyperbolic, axis=0))))
        delta_field = an.delta_field

        def fails_on_an_edge(model, rho_plus, rho_minus):
            # the bisection of the flip (i, j) evaluates rho_minus = axis[j]
            # and rho_plus strictly between axis[i] and axis[i + 1]
            for k in failing:
                i, j = flips[k]
                if (np.ndim(rho_plus) == 0 and rho_minus == axis[j]
                        and axis[i] < rho_plus < axis[i + 1]):
                    raise FloatingPointError(f"edge {k}")
            return delta_field(model, rho_plus, rho_minus)

        monkeypatch.setattr(an, "delta_field", fails_on_an_edge)
        for build in (one_process_map, an.hyperbolicity_map):
            with pytest.raises(FloatingPointError, match=f"^edge {failing[0]}$"):
                build(model, 40)
        assert len(forks) == 1
