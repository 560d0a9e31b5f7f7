"""Conservative central-scheme finite-volume integrator.

Forward-Euler update on a uniform periodic grid:

    (U_i^{n+1} - U_i^n)/dt + (F_{i+1/2} - F_{i-1/2})/dx
        = delta * (U_{i-1}^n - 2 U_i^n + U_{i+1}^n) / dx^2

with the central (local Lax-Friedrichs) interface flux

    F_{i+1/2} = (F(U^L) + F(U^R))/2 - a_{i+1/2} (U^R - U^L)/2,

U^L/U^R from MUSCL reconstruction with a minmod limiter, and a_{i+1/2}
the largest absolute characteristic speed of the two adjacent cells.
Both flux and diffusion stencils telescope over the periodic wrap, so
each conserved component is preserved to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowUpError,
    ClipBudgetError,
    DomainError,
    StabilityError,
)

#: Fraction of the initial mass that negative-density clipping may
#: consume over a whole run before the run is declared invalid.
CLIP_BUDGET_REL = 1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1D grid of n_cells cells of width dx."""

    n_cells: int
    dx: float

    def __post_init__(self):
        if self.n_cells < 4:
            raise DomainError("n_cells must be >= 4 (reconstruction stencil)")
        if self.dx <= 0:
            raise DomainError("dx must be > 0")

    @property
    def length(self) -> float:
        return self.n_cells * self.dx

    @property
    def x(self) -> np.ndarray:
        """Cell-center coordinates."""
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class StateField:
    """Cell-averaged conserved state, one row per component."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[-1]

    def copy(self) -> "StateField":
        return StateField(self.values.copy(), self.time)


@dataclass(frozen=True)
class SchemeParams:
    """Time step, diffusivity and scheme switches.

    cfl_guard bounds the combined stability number
    max|a| * dt/dx + 2 * delta * dt/dx^2; exceeding it is a hard error.
    """

    dt: float
    delta_diff: float = 0.0
    limiter: str = "minmod"
    cfl_guard: float = 0.45

    def __post_init__(self):
        if self.dt <= 0:
            raise DomainError("dt must be > 0")
        if self.delta_diff < 0:
            raise DomainError("delta_diff must be >= 0")
        if self.limiter not in ("minmod", "none"):
            raise DomainError("limiter must be 'minmod' or 'none'")
        if self.cfl_guard <= 0:
            raise DomainError("cfl_guard must be > 0")


def _minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def muscl_reconstruct(U: np.ndarray, grid: Grid1D, limiter: str = "minmod"):
    """Left/right interface states of the state array U from limited
    linear slopes.

    Interface j sits between cells j and j+1 (periodic wrap at the
    end): U_L[..., j] comes from cell j, U_R[..., j] from cell j+1.  Cells
    are the last axis, so a lane axis between components and cells is
    carried along.  With limiter='none' the slopes are zero and the scheme
    is first order.
    """
    if U.shape[-1] < 4:
        raise DomainError("reconstruction needs at least 4 cells")
    if limiter == "minmod":
        fwd = np.roll(U, -1, axis=-1) - U
        bwd = U - np.roll(U, 1, axis=-1)
        slope = _minmod(bwd, fwd)
    elif limiter == "none":
        slope = np.zeros_like(U)
    else:
        raise DomainError("limiter must be 'minmod' or 'none'")
    U_L = U + 0.5 * slope
    U_R = np.roll(U - 0.5 * slope, -1, axis=-1)
    return U_L, U_R


def central_flux(model, U_L, U_R, a_local):
    """Average-minus-dissipation interface flux.

    (F(U_L) + F(U_R))/2 - a_local (U_R - U_L)/2; consistent
    (central_flux(U, U, a) = F(U)) and upwind for a linear scalar flux
    with a_local = |c|.
    """
    if np.any(np.asarray(a_local) < 0):
        raise DomainError("local speed must be >= 0")
    return 0.5 * (model.flux(U_L) + model.flux(U_R)) - 0.5 * a_local * (U_R - U_L)


def measured_cfl(model, U: np.ndarray, grid: Grid1D, params: SchemeParams) -> float:
    """Combined advective + diffusive stability number of one step of U."""
    spd = model.max_abs_speed(U)
    return float(
        np.max(spd) * params.dt / grid.dx
        + 2.0 * params.delta_diff * params.dt / grid.dx**2
    )


def _advance(model, U, grid: Grid1D, params: SchemeParams):
    """One forward-Euler update.  Returns (U_new, cfl, clipped_mass).

    U is (C, N) for one lane or (C, K, N) for K lanes advanced together;
    cfl is the largest stability number and clipped_mass the total over
    all lanes.
    """
    dx, dt = grid.dx, params.dt
    spd = model.max_abs_speed(U)
    a_iface = np.maximum(spd, np.roll(spd, -1, axis=-1))
    cfl = float(np.max(a_iface) * dt / dx + 2.0 * params.delta_diff * dt / dx**2)
    if cfl > params.cfl_guard:
        raise StabilityError(cfl, params.cfl_guard)

    U_L, U_R = muscl_reconstruct(U, grid, params.limiter)
    F = central_flux(model, U_L, U_R, a_iface)
    div = (F - np.roll(F, 1, axis=-1)) / dx
    U_new = U - dt * div
    if params.delta_diff > 0.0:
        lap = (np.roll(U, 1, axis=-1) - 2.0 * U + np.roll(U, -1, axis=-1)) / dx**2
        U_new += params.delta_diff * dt * lap

    if not np.all(np.isfinite(U_new)):
        bad = np.argwhere(~np.isfinite(U_new))[0]
        lane = f" of lane {bad[1]}" if U_new.ndim == 3 else ""
        raise BlowUpError(
            f"non-finite value in component {bad[0]}{lane} at cell {bad[-1]}"
        )

    clipped = 0.0
    rows = list(model.density_rows)
    dens = U_new[rows]
    neg = dens < 0.0
    if np.any(neg):
        clipped = float(-np.sum(dens[neg]) * dx)
        dens[neg] = 0.0
        U_new[rows] = dens
    return U_new, cfl, clipped


@dataclass
class AuditTrail:
    """Per-step record of stability and conservation quantities."""

    step: np.ndarray
    t: np.ndarray
    cfl: np.ndarray
    mass: np.ndarray  # (n_steps, n_components)
    min_rho: np.ndarray
    max_rho: np.ndarray
    clipped_mass: np.ndarray  # cumulative


@dataclass
class RunResult:
    """Output of a run: snapshots, audit trail and the final state."""

    snapshots: list = field(default_factory=list)
    audit: AuditTrail | None = None
    final: StateField | None = None


def run(
    model,
    initial: StateField,
    grid: Grid1D,
    params: SchemeParams,
    t_end: float,
    snapshot_every: float | None = None,
) -> RunResult:
    """Iterate the scheme to t_end, recording snapshots and an audit.

    Snapshots are taken at the initial time, every snapshot_every time
    units, and at the final time.  The audit records, per step, the
    measured stability number, the mass of every conserved component,
    density extrema and the cumulative mass removed by negative-density
    clipping (capped at a small fraction of the initial mass).
    """
    if t_end < 0:
        raise DomainError("t_end must be >= 0")
    U = initial.values.copy()
    t0 = initial.time
    dx = grid.dx
    rows = list(model.density_rows)

    result = RunResult()
    initial_mass = U.sum(axis=1) * dx
    result.snapshots.append(StateField(U.copy(), t0))
    mass_budget = CLIP_BUDGET_REL * float(np.sum(initial_mass[rows]))

    n_steps = int(np.ceil(t_end / params.dt - 1e-9)) if t_end > 0 else 0
    rec_step, rec_t, rec_cfl = [], [], []
    rec_mass, rec_min, rec_max, rec_clip = [], [], [], []
    clipped_total = 0.0
    next_snap = snapshot_every if snapshot_every else None

    for k in range(1, n_steps + 1):
        U, cfl, clipped = _advance(model, U, grid, params)
        t = t0 + k * params.dt
        clipped_total += clipped
        if clipped_total > mass_budget:
            raise ClipBudgetError(
                f"clipped mass {clipped_total:.3e} exceeds budget {mass_budget:.3e}"
            )
        rec_step.append(k)
        rec_t.append(t)
        rec_cfl.append(cfl)
        rec_mass.append(U.sum(axis=1) * dx)
        dens = U[rows]
        rec_min.append(float(dens.min()))
        rec_max.append(float(dens.max()))
        rec_clip.append(clipped_total)
        if next_snap is not None and t >= t0 + next_snap - 1e-9 * params.dt:
            result.snapshots.append(StateField(U.copy(), t))
            next_snap += snapshot_every

    final = StateField(U.copy(), t0 + n_steps * params.dt)
    if not result.snapshots or result.snapshots[-1].time < final.time - 1e-9 * params.dt:
        result.snapshots.append(final.copy())
    result.final = final
    mass_arr = (
        np.asarray(rec_mass, dtype=float)
        if rec_mass
        else np.zeros((0, U.shape[0]))
    )
    result.audit = AuditTrail(
        step=np.asarray(rec_step, dtype=int),
        t=np.asarray(rec_t, dtype=float),
        cfl=np.asarray(rec_cfl, dtype=float),
        mass=mass_arr,
        min_rho=np.asarray(rec_min, dtype=float),
        max_rho=np.asarray(rec_max, dtype=float),
        clipped_mass=np.asarray(rec_clip, dtype=float),
    )
    return result
