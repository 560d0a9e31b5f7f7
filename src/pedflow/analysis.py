"""Hyperbolicity and linear-stability toolkit for the two-way models.

The two-way systems lose hyperbolicity where the discriminant

    Delta = (c_u+ - c_u-)^2 - 4 rho+ rho- c+- c-+

turns negative; there the linearized dynamics grows counter-flow
perturbations.  With a diffusivity delta added, only wave numbers below
sqrt(|Delta|)/(2 delta) grow; the fastest-growing one is
sqrt(|Delta|)/(4 delta) with rate |Delta|/(16 delta), which sets the
emergent cluster scale.

The linearization of a uniform state is held in one record,
DiffusiveSpeeds: the partials c_pp, c_pm, c_mp, c_mm of the system flux
(f(rho+, rho-), -f(rho-, rho+)).  They map onto the decoupled speeds
c_u+- and the pressure partials c+- = d p(rho+, rho-)/d rho- and
c-+ = d p(rho-, rho+)/d rho+ of the formula above as

    c_pp = c_u+,   c_pm = -rho+ c+-,   c_mm = -c_u-,   c_mp = -rho- c-+,

so that Delta = (c_pp + c_mm)^2 - 4 c_pm c_mp, and the characteristic
speeds of a hyperbolic state are ((c_pp - c_mm) -+ sqrt(Delta)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as md
from .errors import DomainError

#: Density tolerance used to locate the Delta = 0 level set.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class DiffusiveSpeeds:
    """Partial derivatives of the two-species flux pair.

    c_pp = d1 f(rho+,rho-), c_pm = d2 f(rho+,rho-), and the mirrored
    c_mm = d1 f(rho-,rho+), c_mp = d2 f(rho-,rho+) for the flux f of the
    plus species; the system flux is (f(rho+,rho-), -f(rho-,rho+)).
    """

    c_pp: float
    c_pm: float
    c_mp: float
    c_mm: float

    @property
    def jacobian(self) -> np.ndarray:
        """Convection matrix of the system flux (f, -f mirrored)."""
        return np.array(
            [[self.c_pp, self.c_pm], [-self.c_mp, -self.c_mm]], dtype=float
        )


def _flux_partials(model, rho_plus, rho_minus):
    """(c_pp, c_pm, c_mp, c_mm) of a two-species first-order model,
    elementwise over arrays of uniform states.

    Supported kinds: sim_flux (piecewise-quadratic profile) and
    two_way_car (assembled from the pressure partials through the sign
    mapping of the module docstring).
    """
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    if model.kind is md.ModelKind.SIM_FLUX:
        _, h, hp = md._sim_h(model.flux_shape, rp, rm)
        return h + rp * hp, rp * hp, rm * hp, h + rm * hp
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        spd = md._two_way_char_speeds(model, rp, rm)
        c_u_plus, c_u_minus = spd["c_u_plus"], spd["c_u_minus"]
        return c_u_plus, -rp * spd["c_pm"], -rm * spd["c_mp"], -c_u_minus
    raise DomainError("the flux partials require a two-species first-order model")


def diffusive_speeds(model, rho_plus, rho_minus) -> DiffusiveSpeeds:
    """Analytic flux partials of a sim_flux or two_way_car model at one state."""
    partials = _flux_partials(model, rho_plus, rho_minus)
    return DiffusiveSpeeds(*(float(c) for c in partials))


def diffusive_discriminant(speeds: DiffusiveSpeeds):
    """Discriminant Delta = (c_pp + c_mm)^2 - 4 c_pm c_mp; hyperbolic where
    Delta >= 0.  Elementwise when the fields are arrays."""
    s = speeds.c_pp + speeds.c_mm
    return s * s - 4.0 * speeds.c_pm * speeds.c_mp


def dispersion(speeds: DiffusiveSpeeds, delta_diff, xi):
    """Phase velocities of Fourier modes of the linearized diffusive system.

    For a mode exp(i(xi x - s t)) the two phase velocities are

        lam_+-(xi) = ((c_pp - c_mm) - 2 i delta xi +- sqrt(Delta)) / 2

    with the principal complex square root (so sqrt(Delta) = i sqrt(|Delta|)
    when Delta < 0).  The mode frequency is s = xi * lam(xi) and the mode
    grows exactly when Im s > 0.  Arrays over xi are returned, 0-d for
    a scalar xi.
    """
    if delta_diff < 0:
        raise DomainError("diffusivity must be >= 0")
    xi = np.asarray(xi, dtype=float)
    sq = np.sqrt(complex(diffusive_discriminant(speeds)))
    base = (speeds.c_pp - speeds.c_mm) - 2.0j * delta_diff * xi
    return 0.5 * (base + sq), 0.5 * (base - sq)


def growth_rate(speeds: DiffusiveSpeeds, delta_diff, xi):
    """Largest Im(xi * lam(xi)) over the two modes."""
    lam_plus, lam_minus = dispersion(speeds, delta_diff, xi)
    xi = np.asarray(xi, dtype=float)
    return np.maximum(np.imag(xi * lam_plus), np.imag(xi * lam_minus))


@dataclass(frozen=True)
class StabilityReport:
    """Linear-stability summary of one uniform two-species state.

    When hyperbolic (delta >= 0) the diffusion-free characteristic
    speeds are reported; otherwise the unstable band |xi| <
    unstable_xi_max, its fastest-growing wave number, the corresponding
    growth rate and the dominant length 1/dominant_xi.
    """

    delta: float
    hyperbolic: bool
    eigenvalues: tuple[float, float] | None = None
    unstable_xi_max: float | None = None
    dominant_xi: float | None = None
    max_growth_rate: float | None = None
    dominant_length: float | None = None


def instability_summary(speeds: DiffusiveSpeeds, delta_diff) -> StabilityReport:
    """Closed-form stability summary from the flux partials.

    Unstable band bound sqrt(|Delta|)/(2 delta), fastest-growing wave
    number sqrt(|Delta|)/(4 delta), maximal growth rate |Delta|/(16 delta).
    """
    delta = diffusive_discriminant(speeds)
    if delta >= 0:
        sq = np.sqrt(delta)
        tr = speeds.c_pp - speeds.c_mm
        return StabilityReport(
            delta=float(delta),
            hyperbolic=True,
            eigenvalues=(0.5 * (tr - sq), 0.5 * (tr + sq)),
        )
    if delta_diff <= 0:
        raise DomainError("unstable summary requires a positive diffusivity")
    root = np.sqrt(-delta)
    return StabilityReport(
        delta=float(delta),
        hyperbolic=False,
        unstable_xi_max=float(root / (2.0 * delta_diff)),
        dominant_xi=float(root / (4.0 * delta_diff)),
        max_growth_rate=float(-delta / (16.0 * delta_diff)),
        dominant_length=float(4.0 * delta_diff / root),
    )


def delta_field(model, rho_plus, rho_minus):
    """Vectorized discriminant over arrays of uniform states."""
    return diffusive_discriminant(
        DiffusiveSpeeds(*_flux_partials(model, rho_plus, rho_minus))
    )


@dataclass(frozen=True)
class HyperbolicityMap:
    """Raster classification of the admissible density square.

    hyperbolic[i, j] is the sign of Delta at (rho_plus[i], rho_minus[j]);
    boundary_points are Delta = 0 locations found by bisection along
    grid edges separating differently classified nodes.
    """

    rho_plus: np.ndarray
    rho_minus: np.ndarray
    hyperbolic: np.ndarray
    boundary_points: np.ndarray

    def to_table_text(self) -> str:
        """Plain-text raster: one row per rho_plus, entries 1/0."""
        lines = []
        for row in self.hyperbolic.astype(int):
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def hyperbolicity_map(model, grid_resolution: int) -> HyperbolicityMap:
    """Classify hyperbolicity on a uniform grid of the density square.

    For the sim_flux model the square is [0, 1]^2 (the flux vanishes
    beyond total density 1, where the system is degenerate hyperbolic);
    for pressure-coupled models the grid stays strictly inside the
    admissible triangle and the outside is reported as hyperbolic.
    """
    if grid_resolution < 2:
        raise DomainError("grid_resolution must be >= 2")
    if model.kind is md.ModelKind.SIM_FLUX:
        rho_max, admissible = 1.0, np.inf
    else:
        rho_max = admissible = model.pressure.rho_star * (1.0 - 1e-9)
    axis = np.linspace(0.0, rho_max, grid_resolution)
    RP, RM = np.meshgrid(axis, axis, indexing="ij")
    inside = RP + RM < admissible
    rp_in = np.where(inside, RP, 0.0)
    rm_in = np.where(inside, RM, 0.0)
    hyp = np.where(inside, delta_field(model, rp_in, rm_in), 1.0) >= 0.0

    def point_delta(rp, rm):
        if rp + rm >= admissible:
            return 1.0
        return float(delta_field(model, rp, rm))

    points = []
    for axis_dir in (0, 1):
        flips = np.nonzero(np.diff(hyp, axis=axis_dir))
        for i, j in zip(*flips):
            p1 = (axis[i + 1], axis[j]) if axis_dir == 0 else (axis[i], axis[j + 1])
            points.append(_bisect_boundary(point_delta, (axis[i], axis[j]), p1))
    boundary = np.array(points) if points else np.empty((0, 2))
    return HyperbolicityMap(
        rho_plus=axis, rho_minus=axis.copy(), hyperbolic=hyp, boundary_points=boundary
    )


def _bisect_boundary(point_delta, p0, p1, tol=BOUNDARY_TOL):
    """Locate the Delta = 0 crossing on the segment p0 -> p1."""
    f0 = point_delta(*p0)
    a, b = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    while np.max(np.abs(b - a)) > tol:
        mid = 0.5 * (a + b)
        fm = point_delta(*mid)
        if (fm >= 0) == (f0 >= 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
