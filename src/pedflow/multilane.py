"""Lane-coupled two-way traffic with congestion-aware lane changing.

K parallel two-way lanes advance independently by the transport-
diffusion scheme and then exchange walkers through explicit source
terms.  The transition rate out of a lane grows with the material
derivative of that lane's offset (walkers leave when their lane is
getting worse) and dies linearly as the target lane fills, reaching
exactly zero at the jam density, so congested lanes attract nobody.

Rates toward non-existent lanes (below lane 0, above lane K-1) are
zero, which closes the K lanes conservatively: summed over lanes, the
sources cancel and each walking direction conserves its total mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as md
from . import solver as sv
from .errors import DomainError, SourceStiffnessError, require_finite


@dataclass(frozen=True)
class LaneChangeRates:
    """Base rate and the two swappable shape functions.

    ramp maps the offset material derivative to a non-negative,
    non-decreasing multiplier ('positive_part' or 'sigmoid'); cutoff
    shapes the vanishing toward a congested target lane ('linear' or
    'quadratic' power of (1 - rho_target/rho_star)+).

    The functional forms are modeling defaults, not measured quantities.
    """

    lambda0: float = 0.0
    ramp: str = "positive_part"
    cutoff: str = "linear"

    def __post_init__(self):
        require_finite(lambda0=self.lambda0)
        if self.lambda0 < 0:
            raise DomainError("lambda0 must be >= 0")
        if self.ramp not in ("positive_part", "sigmoid"):
            raise DomainError("ramp must be 'positive_part' or 'sigmoid'")
        if self.cutoff not in ("linear", "quadratic"):
            raise DomainError("cutoff must be 'linear' or 'quadratic'")


def lane_change_rate(rates: LaneChangeRates, dpdt, rho_target, rho_star):
    """Transition rate lambda0 * ramp(dpdt) * cutoff(rho_target).

    Zero whenever the offset is not increasing along the walker's path
    (positive-part ramp) and exactly zero at the admissible bound rho_star.
    """
    if rates.ramp == "positive_part":
        ramp = np.maximum(dpdt, 0.0)
    else:
        # exp(-dpdt) overflows for dpdt below about -709, as near the jam
        # density: 1/(1 + inf) = 0 is the ramp's limit there, no error
        with np.errstate(over="ignore"):
            ramp = 1.0 / (1.0 + np.exp(-dpdt))
    cut = np.maximum(1.0 - rho_target / rho_star, 0.0)
    if rates.cutoff == "quadratic":
        cut = cut * cut
    return rates.lambda0 * ramp * cut


def density_sources(rho: np.ndarray, rates_up: np.ndarray, rates_down: np.ndarray):
    """Net lane-change gain of each lane and direction.

    rho, rates_up, rates_down share the shape (K, 2, ...): lane, then
    walking direction.  rates_up[k] moves walkers k -> k+1, rates_down[k]
    moves k -> k-1; the outward rates of the boundary lanes are forced
    to zero.  Summed over lanes the result cancels term by term.
    """
    rho = np.asarray(rho, dtype=float)
    K = rho.shape[0]
    up_flow = rates_up * rho
    down_flow = rates_down * rho
    if K > 0:
        up_flow[K - 1] = 0.0
        down_flow[0] = 0.0
    S = -up_flow - down_flow
    S[1:] += up_flow[:-1]
    S[:-1] += down_flow[1:]
    return S


def _offsets_and_speeds(model: md.ModelSpec, U: np.ndarray):
    """Densities, offsets, actual and desired speeds of K lanes.

    U is the (C, K, n) state; every result is (K, 2, n), rho a view of
    U, except the desired speed w: the float V for constant-desired-speed
    lanes.
    """
    rho = sv.density_view(model, U).swapaxes(0, 1)
    p_plus, p_minus = md.two_way_pressures(model, rho[:, 0], rho[:, 1])
    p = np.empty(rho.shape)
    p[:, 0], p[:, 1] = p_plus, p_minus
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        w = w_p = w_m = model.V
    else:
        _, w_p, _ = md._species_primitives(U[0], U[1])
        _, w_m, _ = md._species_primitives(U[2], U[3])
        w = np.empty(rho.shape)
        w[:, 0], w[:, 1] = w_p, w_m
    u = np.empty(rho.shape)
    np.subtract(w_p, p_plus, out=u[:, 0])
    np.add(-w_m, p_minus, out=u[:, 1])
    return rho, p, u, w


def _upwind_gradient(p: np.ndarray, u: np.ndarray, dx: float) -> np.ndarray:
    """Periodic one-sided gradient taken against the local flow direction."""
    backward = (p - sv._shift(p, 1)) / dx
    forward = (sv._shift(p, -1) - p) / dx
    return np.where(u >= 0.0, backward, forward)


def coupled_step(model: md.ModelSpec, rates: LaneChangeRates, U: np.ndarray,
                 prev_offsets: np.ndarray | None, grid: sv.Grid1D,
                 params: sv.SchemeParams):
    """Advance K lanes one step: transport, then lane exchange.

    U is the admissible (C, K, n) state of K lanes of one two-way model:
    components, then lanes, then cells.  All lanes are advanced together
    by the conservative transport-diffusion step; the lane-change sources
    are then evaluated on the transported states (one common time level)
    and applied as explicit increments dt*S to the densities and dt*R to
    the desired-speed momenta of dynamic lanes.  The offset material
    derivative uses prev_offsets, the (K, 2, n) offsets the previous step
    returned; the first step passes None and uses the spatial term only.

    Returns the new state, its offsets and the density mass the transport
    step clipped to zero, summed over lanes.  Raises SourceStiffnessError
    when the fraction dt*(rate_up + rate_down) of a cell's walkers that
    would leave it exceeds 1, which would make its density negative; the
    caller keeps lambda0*dt <= 1, and solver.run stamps the error with its
    step and time.  Checks the state after the exchange.
    """
    dt = params.dt
    rho_star = model.pressure.rho_star
    U, _, clipped = sv._advance(model, U, grid, params)
    rho, p, u, w = _offsets_and_speeds(model, U)
    dpdt = u * _upwind_gradient(p, u, grid.dx)
    if prev_offsets is not None:
        dpdt = dpdt + (p - prev_offsets) / dt

    # Lane k moves walkers up toward lane k+1 and down toward lane k-1,
    # each rate cut off by the total density of the target lane; the
    # boundary lanes' outward rates stay zero.
    total = np.add.reduce(rho, axis=1, keepdims=True)
    rates_up = np.zeros(rho.shape)
    rates_down = np.zeros(rho.shape)
    rates_up[:-1] = lane_change_rate(rates, dpdt[:-1], total[1:], rho_star)
    rates_down[1:] = lane_change_rate(rates, dpdt[1:], total[:-1], rho_star)

    outflow = dt * (rates_up + rates_down)
    if np.maximum.reduce(outflow, axis=None) > 1.0:
        worst = np.unravel_index(np.argmax(outflow), outflow.shape)
        lane, direction, cell = worst
        raise SourceStiffnessError(
            f"lane-change outflow dt*(rate_up + rate_down) = {outflow[worst]:.3g} "
            f"exceeds 1 in lane {lane}, direction {('plus', 'minus')[direction]}, "
            f"cell {cell}"
        )

    # rho is a view of U: take both sources before either update.  The
    # desired-speed momentum rho*w moves with the walkers carrying it.
    S = density_sources(rho, rates_up, rates_down)
    if model.kind is md.ModelKind.TWO_WAY_AR:
        U[1::2] += dt * density_sources(rho * w, rates_up, rates_down).swapaxes(0, 1)
    sv.density_view(model, U)[...] += dt * S.swapaxes(0, 1)
    sv.check_admissible(model, U)
    return U, p, clipped


def coupled_stepper(model: md.ModelSpec, rates: LaneChangeRates, grid: sv.Grid1D,
                    params: sv.SchemeParams):
    """The step of solver.run for K coupled lanes.

    Each call makes one coupled_step, with the offsets of the call before,
    and returns its time as a running sum of dt from 0; solver.run's audit
    and error stamp read k * dt instead.
    """
    offsets, time = None, 0.0

    def step(U, k):
        nonlocal offsets, time
        # kept while perfbench pins two_lane_car's speed_bound_useful_ratio at 0.5
        cfl = sv.measured_cfl(model, U, grid, params)
        U, offsets, clipped = coupled_step(model, rates, U, offsets, grid, params)
        time += params.dt
        return U, cfl, clipped, time

    return step
