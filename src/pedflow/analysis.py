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
from typing import NamedTuple

import numpy as np

from . import models as md
from ._fork import two_process_map
from .errors import DomainError

#: Density tolerance used to locate the Delta = 0 level set.
BOUNDARY_TOL = 1e-6

# Maps with at least this many flipped raster edges bisect them in two
# processes (see hyperbolicity_map).  Two processes took 2.3 to 4.1 ms
# longer than one (the fork, pipe and wait, and copy-on-write faults) and
# saved 0.020 to 0.037 ms per edge, so they broke even at 108 to 118 edges:
# line fits over the medians of the paired differences of 121 alternating
# in-process builds, one process against two, of the two_lane.cfg model's
# map at 11 resolutions (42 to 208 edges), in three runs on a shared 2-core
# x86-64 machine, at about 4.2 us a scalar Delta call.  The break-even
# rises as that call gets cheaper: at 6.4 us it was 50 to 54 edges.  At the
# default map.resolution of 200 a map has about 300 such edges.
_FORK_MIN_EDGES = 110

# The kinds _flux_partials dispatches on, as module constants: an Enum
# member read through its class costs about 0.1 us, per scalar Delta call.
_SIM_FLUX, _TWO_WAY_CAR = md.ModelKind.SIM_FLUX, md.ModelKind.TWO_WAY_CAR


class DiffusiveSpeeds(NamedTuple):
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
    elementwise over arrays of uniform states; NumPy scalars for a scalar
    state, which keep the bits of the 0-d arrays they replace (see
    pressure.two_way_offsets).  The densities (floats, NumPy scalars or
    arrays, not lists) are converted once, by models._sim_h or
    pressure.two_way_offsets.

    Supported kinds: sim_flux (piecewise-quadratic profile) and
    two_way_car (assembled from the pressure partials through the sign
    mapping of the module docstring).
    """
    if model.kind is _SIM_FLUX:
        _, h, hp = md._sim_h(model.a, rho_plus, rho_minus)
        return h + rho_plus * hp, rho_plus * hp, rho_minus * hp, h + rho_minus * hp
    if model.kind is _TWO_WAY_CAR:
        _, _, c_pm, c_mp, c_u_plus, c_u_minus = md._two_way_char_speeds(
            model, rho_plus, rho_minus, model.V, model.V)
        return c_u_plus, -rho_plus * c_pm, -rho_minus * c_mp, -c_u_minus
    raise DomainError("the flux partials require a two-species first-order model")


def diffusive_speeds(model, rho_plus, rho_minus) -> DiffusiveSpeeds:
    """Analytic flux partials of a sim_flux or two_way_car model at one
    admissible state (densities >= 0, a two_way_car total below rho_star)."""
    partials = _flux_partials(model, rho_plus, rho_minus)
    return DiffusiveSpeeds(*(float(c) for c in partials))


def diffusive_discriminant(speeds: DiffusiveSpeeds):
    """Discriminant Delta = (c_pp + c_mm)^2 - 4 c_pm c_mp of a DiffusiveSpeeds
    or of its four fields as a plain tuple; hyperbolic where Delta >= 0.
    Elementwise when the fields are arrays."""
    c_pp, c_pm, c_mp, c_mm = speeds
    s = c_pp + c_mm
    return s * s - 4.0 * c_pm * c_mp


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
    """Vectorized discriminant over arrays of uniform states; a NumPy
    scalar for a scalar state."""
    return diffusive_discriminant(_flux_partials(model, rho_plus, rho_minus))


@dataclass(frozen=True)
class HyperbolicityMap:
    """Raster classification of the admissible density square.

    hyperbolic[i, j] is the sign of Delta at (rho_plus[i], rho_minus[j]);
    boundary_points are Delta = 0 locations found by bisection along
    grid edges separating differently classified nodes that were both
    evaluated (see hyperbolicity_map): those of the edges along rho_plus
    first, then those along rho_minus, each in np.nonzero order.  When
    both directions share one crowding weight (crowding == crowding_minus,
    as for sim_flux and every config without a crowding_minus section),
    Delta(a, b) has the bits of Delta(b, a) absent overflow, so the raster
    is symmetric and the points along rho_minus are those along rho_plus
    with the coordinates swapped: only one axis is bisected.
    """

    rho_plus: np.ndarray
    rho_minus: np.ndarray
    hyperbolic: np.ndarray
    boundary_points: np.ndarray

    def to_table_text(self) -> str:
        """Plain-text raster: one row per rho_plus, entries 1/0."""
        rows = np.where(self.hyperbolic, "1", "0").tolist()
        return "\n".join(map(" ".join, rows)) + "\n"


def hyperbolicity_map(model, grid_resolution: int) -> HyperbolicityMap:
    """Classify hyperbolicity on a uniform grid of the density square.

    For the sim_flux model the square is [0, 1]^2 (the flux vanishes
    beyond total density 1, where the system is degenerate hyperbolic);
    for pressure-coupled models it is [0, rho_max]^2 with
    rho_max = rho_star * (1 - 1e-9), only the nodes (i, j) strictly below
    its diagonal i + j = grid_resolution - 1 (by index: some diagonal
    totals round below rho_max) are evaluated, and the others are reported
    as hyperbolic.  Only the edges between two evaluated nodes are
    bisected: an unevaluated node is hyperbolic by definition, and an edge
    to it would be bisected toward the jam density.

    A map with at least _FORK_MIN_EDGES flipped raster edges bisects them
    in this process and a forked child (_fork.two_process_map); the points
    are the same bits either way.
    """
    if grid_resolution < 2:
        raise DomainError("grid_resolution must be >= 2")
    sim = model.kind is md.ModelKind.SIM_FLUX
    rho_max = 1.0 if sim else model.pressure.rho_star * (1.0 - 1e-9)
    axis = np.linspace(0.0, rho_max, grid_resolution)
    # rho_plus down the rows and rho_minus along them; one delta_field call
    # on the gathered nodes that are evaluated
    index = np.arange(grid_resolution)
    inside = (index[:, None] + index < grid_resolution - 1) | sim
    i, j = np.nonzero(inside)
    hyp = ~inside
    hyp[inside] = delta_field(model, axis[i], axis[j]) >= 0.0

    def point_delta(rp, rm):
        return float(delta_field(model, rp, rm))

    def flipped_edges(axis_dir):
        """The flips of hyp along one axis between two evaluated nodes, in
        np.nonzero order, and the (first node, second node, class of the
        first node) of each."""
        di, dj = (1, 0) if axis_dir == 0 else (0, 1)
        # the second node of an edge is evaluated only where the first is
        second = inside[1:] if axis_dir == 0 else inside[:, 1:]
        flips = np.nonzero(np.diff(hyp, axis=axis_dir) & second)
        return flips, [((axis[i], axis[j]), (axis[i + di], axis[j + dj]), bool(hyp[i, j]))
                       for i, j in zip(*flips)]

    flips, edges = flipped_edges(0)
    # the flip (i, j) along rho_minus is the flip (j, i) along rho_plus
    # mirrored (see HyperbolicityMap) where crowding == crowding_minus
    mirrored = model.crowding == model.crowding_minus
    if not mirrored:
        edges += flipped_edges(1)[1]
    points = np.array(two_process_map(
        lambda edge: _bisect_boundary(point_delta, *edge), edges,
        len(edges) >= _FORK_MIN_EDGES)).reshape(-1, 2)
    if mirrored:
        # np.lexsort ranks the rho_plus flips by (j, i), the np.nonzero
        # order of the rho_minus ones
        points = np.concatenate([points, points[np.lexsort(flips), ::-1]])
    return HyperbolicityMap(
        rho_plus=axis, rho_minus=axis.copy(), hyperbolic=hyp, boundary_points=points
    )


def _bisect_boundary(point_delta, p0, p1, hyperbolic0):
    """Locate the Delta = 0 crossing on the segment p0 -> p1, where p0 is
    hyperbolic (Delta >= 0) exactly when hyperbolic0 is true and p1 is of
    the other class; one Python float per coordinate (the float operations
    of an array bisection)."""
    (ax, ay), (bx, by) = map(float, p0), map(float, p1)
    while max(abs(bx - ax), abs(by - ay)) > BOUNDARY_TOL:
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        if (point_delta(mx, my) >= 0) == hyperbolic0:
            ax, ay = mx, my
        else:
            bx, by = mx, my
    return 0.5 * (ax + bx), 0.5 * (ay + by)
