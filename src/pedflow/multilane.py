"""Lane-coupled two-way traffic with congestion-aware lane changing.

K parallel two-way lanes advance independently by the transport-
diffusion scheme and then exchange walkers through explicit source
terms.  The transition rate out of a lane grows with the material
derivative of that lane's offset (walkers leave when their lane is
getting worse) and dies linearly as the target lane fills, reaching
exactly zero at the jam density, so congested lanes attract nobody.

Rates toward non-existent lanes (below lane 0, above lane K-1) are
zero, which closes the finite stack conservatively: summed over lanes,
the sources cancel and each walking direction conserves its total mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as md
from . import solver as sv
from .errors import DomainError, SourceStiffnessError


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


def momentum_sources(
    rho: np.ndarray, w: np.ndarray, rates_up: np.ndarray, rates_down: np.ndarray
):
    """Lane-change gain of the desired-speed momentum rho*w.

    The momentum moves with the same rates as the walkers carrying it,
    so with a uniform w the result reduces to w times density_sources.
    """
    return density_sources(np.asarray(rho, dtype=float) * np.asarray(w, dtype=float),
                           rates_up, rates_down)


@dataclass
class LaneStack:
    """K two-way lanes sharing one model, a grid and a jam density.

    values is the (C, K, n) conserved state: components, then lanes, then
    cells; every lane runs the same two-way model (constant or dynamic
    desired speed).  prev_offsets holds the (K, 2, n) per-lane,
    per-direction offset fields of the previous step, used for the
    discrete material derivative that drives the rates.  clipped_mass is
    the negative density mass the transport steps have clipped to zero
    so far, summed over lanes.
    """

    model: md.ModelSpec
    values: np.ndarray
    rates: LaneChangeRates
    time: float = 0.0
    prev_offsets: np.ndarray | None = None
    clipped_mass: float = 0.0

    def __post_init__(self):
        if self.model.kind not in (md.ModelKind.TWO_WAY_CAR, md.ModelKind.TWO_WAY_AR):
            raise DomainError("lanes must be two-way pressure-coupled models")
        self.values = np.asarray(self.values, dtype=float)
        shape = self.values.shape
        if len(shape) != 3 or shape[0] != self.model.n_conserved or shape[1] < 1:
            raise DomainError(f"lane state must be ({self.model.n_conserved} "
                              f"components, >= 1 lanes, cells), got {shape}")

    @property
    def n_lanes(self) -> int:
        return self.values.shape[1]

    def densities(self) -> np.ndarray:
        """(K, 2, n) array of per-lane, per-direction densities.

        C-contiguous, so that sums over it round in the same order for
        every stack layout.
        """
        dens = sv.density_view(self.model, self.values)
        return np.ascontiguousarray(dens.swapaxes(0, 1))

    def direction_mass(self, grid: sv.Grid1D) -> np.ndarray:
        """Total mass per walking direction, summed over lanes."""
        return self.densities().sum(axis=(0, 2)) * grid.dx


def _offsets_and_speeds(model: md.ModelSpec, U: np.ndarray):
    """Densities, offsets, actual and desired speeds of stacked lanes.

    U is the (C, K, n) state; every result is (K, 2, n), rho a view of
    U, except the desired speed w: the float V for constant-desired-speed
    lanes.
    """
    rho = sv.density_view(model, U).swapaxes(0, 1)
    p_plus, p_minus = md.two_way_pressures(model, rho[:, 0], rho[:, 1])
    p = np.stack([p_plus, p_minus], axis=1)
    if model.kind is md.ModelKind.TWO_WAY_CAR:
        w = w_p = w_m = model.V
    else:
        _, w_p, _ = md._species_primitives(U[0], U[1])
        _, w_m, _ = md._species_primitives(U[2], U[3])
        w = np.stack([w_p, w_m], axis=1)
    u = np.stack([w_p - p_plus, -w_m + p_minus], axis=1)
    return rho, p, u, w


def _upwind_gradient(p: np.ndarray, u: np.ndarray, dx: float) -> np.ndarray:
    """Periodic one-sided gradient taken against the local flow direction."""
    backward = (p - sv._shift(p, 1)) / dx
    forward = (sv._shift(p, -1) - p) / dx
    return np.where(u >= 0.0, backward, forward)


def coupled_step(stack: LaneStack, grid: sv.Grid1D, params: sv.SchemeParams) -> LaneStack:
    """Advance the whole stack one step: transport, then lane exchange.

    All lanes are advanced together, as one (C, K, n) array, by the
    conservative transport-diffusion step; the lane-change sources are
    then evaluated on the transported states (one common time level) and
    applied as explicit increments dt*S to the densities and dt*R to the
    desired-speed momenta of dynamic lanes.  The offset material
    derivative uses the offsets stored by the previous call; the first
    call uses the spatial term only.

    Raises SourceStiffnessError when lambda0*dt exceeds 1, or when the
    fraction dt*(rate_up + rate_down) of a cell's walkers that would leave
    it exceeds 1, which would make its density negative.  Takes an
    admissible stack and checks the state after the exchange.
    """
    dt = params.dt
    if dt * stack.rates.lambda0 > 1.0 + 1e-12:
        raise SourceStiffnessError(
            f"lambda0 * dt = {dt * stack.rates.lambda0:.3g} exceeds 1"
        )
    model = stack.model
    rho_star = model.pressure.rho_star
    U, _, clipped = sv._advance(model, stack.values, grid, params)
    rho, p, u, w = _offsets_and_speeds(model, U)
    dpdt = u * _upwind_gradient(p, u, grid.dx)
    if stack.prev_offsets is not None:
        dpdt = dpdt + (p - stack.prev_offsets) / dt

    # Lane k moves walkers up toward lane k+1 and down toward lane k-1,
    # each rate cut off by the total density of the target lane; the
    # boundary lanes' outward rates stay zero.
    total = rho.sum(axis=1, keepdims=True)
    rates_up = np.zeros(rho.shape)
    rates_down = np.zeros(rho.shape)
    rates_up[:-1] = lane_change_rate(stack.rates, dpdt[:-1], total[1:], rho_star)
    rates_down[1:] = lane_change_rate(stack.rates, dpdt[1:], total[:-1], rho_star)

    t = stack.time + dt
    outflow = dt * (rates_up + rates_down)
    worst = np.unravel_index(np.argmax(outflow), outflow.shape)
    if outflow[worst] > 1.0:
        lane, direction, cell = worst
        raise SourceStiffnessError(
            f"lane-change outflow dt*(rate_up + rate_down) = {outflow[worst]:.3g} "
            f"exceeds 1 in lane {lane}, direction {('plus', 'minus')[direction]}, "
            f"cell {cell} at t = {t:.6g}"
        )

    # rho is a view of U: take both sources before either update
    S = density_sources(rho, rates_up, rates_down)
    if model.kind is md.ModelKind.TWO_WAY_AR:
        U[1::2] += dt * momentum_sources(rho, w, rates_up, rates_down).swapaxes(0, 1)
    sv.density_view(model, U)[...] += dt * S.swapaxes(0, 1)
    sv.check_admissible(model, U)
    return LaneStack(
        model=model,
        values=U,
        rates=stack.rates,
        time=t,
        prev_offsets=p,
        clipped_mass=stack.clipped_mass + clipped,
    )
