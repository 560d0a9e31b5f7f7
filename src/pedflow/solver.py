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

A state is a plain float array, one row per conserved component: (C, N)
for one lane, or (C, K, N) for K lanes stepped together.  `run` takes
one and returns its (t, U) snapshots and a per-step audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BlowUpError, ClipBudgetError, CongestionOverflowError,
                     DomainError, PedflowError, StabilityError, require_finite)
from .pressure import CONGESTION_REL_TOL

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
        require_finite(dx=self.dx)
        if self.dx <= 0:
            raise DomainError("dx must be > 0")

    @property
    def length(self) -> float:
        return self.n_cells * self.dx

    @property
    def x(self) -> np.ndarray:
        """Cell-center coordinates."""
        return (np.arange(self.n_cells) + 0.5) * self.dx


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
        require_finite(dt=self.dt, delta_diff=self.delta_diff, cfl_guard=self.cfl_guard)
        if self.dt <= 0:
            raise DomainError("dt must be > 0")
        if self.delta_diff < 0:
            raise DomainError("delta_diff must be >= 0")
        if self.limiter not in ("minmod", "none"):
            raise DomainError("limiter must be 'minmod' or 'none'")
        if self.cfl_guard <= 0:
            raise DomainError("cfl_guard must be > 0")


def density_view(model, U):
    """U's density rows (evenly spaced) as one strided view; writes reach U."""
    rows = model.density_rows
    return U[rows[0]:rows[-1] + 1:rows[-1] - rows[0] or 1]


def check_admissible(model, U):
    """Raise DomainError on a negative density in U or, for the pressure
    kinds, CongestionOverflowError on a total at the jam density (within
    CONGESTION_REL_TOL of rho_star).  The reductions skip NaN, so a bad
    entry beside a NaN still raises.  Kernels only see states checked here."""
    dens = density_view(model, U)
    if np.fmin.reduce(dens, axis=None, initial=np.inf) < 0:
        raise DomainError("densities must be >= 0")
    if model.pressure is not None:
        rho_star = model.pressure.rho_star
        if np.fmax.reduce(np.add.reduce(dens, axis=0), axis=None, initial=-np.inf) >= (
                rho_star * (1.0 - CONGESTION_REL_TOL)):
            raise CongestionOverflowError(f"density reached the jam density {rho_star}")


def step_count(t_end: float, dt: float) -> int:
    """Steps of size dt to t_end >= 0 (none for an overshoot below 1e-9 dt)."""
    return int(np.ceil(t_end / dt - 1e-9)) if t_end > 0 else 0


def _shift(A, k, out=None):
    """A rolled periodically by k = 1 or -1 cells along the last axis,
    built from two slices: _shift(A, 1)[..., j] = A[..., j - 1]."""
    return np.concatenate((A[..., -k:], A[..., :-k]), axis=-1, out=out)


def _minmod(a, b):
    """a or b, whichever is smaller in magnitude, where a * b > 0; else +0.0.

    No np.where: the slopes of a noisy state change sign at random, and a
    select on a random mask cost more than all the other arithmetic of a
    wide step.  Where a * b > 0 both have one sign, so copysign(min(|a|,
    |b|), a) is a or b; the other entries are cleared by an integer AND of
    their bits with the mask, which gives +0.0 from any value: multiplying
    by a 0/1 mask would turn nan and inf into nan.
    """
    tmp = np.multiply(a, b, out=np.empty_like(a))  # an array also for 0-d a
    keep = -(tmp > 0.0).view(np.int8)  # -1 (every bit set) or 0
    out = np.abs(a, out=np.empty_like(a))
    np.minimum(out, np.abs(b, out=tmp), out=out)
    np.copysign(out, a, out=out)
    bits = out.view(np.int64)
    bits &= keep
    return out


def muscl_reconstruct(U: np.ndarray, limiter: str = "minmod"):
    """Left/right interface states of the state array U from limited
    linear slopes.

    Interface j sits between cells j and j+1 (periodic wrap at the
    end): U_L[..., j] comes from cell j, U_R[..., j] from cell j+1.  Cells
    are the last axis, so a lane axis between components and cells is
    carried along.  With limiter='none' the slopes are zero and the scheme
    is first order.
    """
    if limiter != "minmod":
        half = np.zeros_like(U)
        return U + half, _shift(U - half, -1)
    fwd = _shift(U, -1)
    fwd -= U
    bwd = _shift(fwd, 1)
    half = _minmod(bwd, fwd)
    half *= 0.5
    # U_L = U + half and U_R = _shift(U - half, -1) go into bwd and fwd
    np.add(U, half, out=bwd)
    return bwd, _shift(np.subtract(U, half, out=half), -1, out=fwd)


def central_flux(model, U_L, U_R, a_local):
    """Average-minus-dissipation interface flux.

    (F(U_L) + F(U_R))/2 - a_local (U_R - U_L)/2; consistent
    (central_flux(U, U, a) = F(U)) and upwind for a linear scalar flux
    with a_local = |c|.  U_L and U_R are admissible states and a_local >= 0.
    Works in place on the new arrays model.flux returns.
    """
    F = model.flux(U_L)
    F += model.flux(U_R)
    F *= 0.5
    jump = U_R - U_L
    jump *= 0.5 * a_local
    F -= jump
    return F


def measured_cfl(model, U: np.ndarray, grid: Grid1D, params: SchemeParams) -> float:
    """Combined advective + diffusive stability number of one step of U."""
    spd = model.max_abs_speed(U)
    return float(
        np.maximum.reduce(spd, axis=None) * params.dt / grid.dx
        + 2.0 * params.delta_diff * params.dt / grid.dx**2
    )


def _advance(model, U, grid: Grid1D, params: SchemeParams):
    """One forward-Euler update.  Returns (U_new, cfl, clipped_mass).

    U is an admissible (C, N) state of one lane or (C, K, N) of K lanes
    advanced together; cfl is the largest stability number and
    clipped_mass the total over all lanes.  Checks U_L, U_R and U_new.
    """
    dx, dt = grid.dx, params.dt
    spd = model.max_abs_speed(U)
    a_iface = np.maximum(spd, _shift(spd, -1))
    cfl = float(np.maximum.reduce(a_iface, axis=None) * dt / dx
                + 2.0 * params.delta_diff * dt / dx**2)
    if cfl > params.cfl_guard:
        raise StabilityError(cfl, params.cfl_guard)

    U_L, U_R = muscl_reconstruct(U, params.limiter)
    check_admissible(model, U_L)
    check_admissible(model, U_R)
    F = central_flux(model, U_L, U_R, a_iface)
    # In place, in the float order of U - dt * ((F - F_shifted) / dx) and
    # (delta * dt) * (((U_- - 2 U) + U_+) / dx**2); U_R and F are spent, and
    # the new state is the step's last large allocation.
    div = _shift(F, 1)
    np.subtract(F, div, out=div)
    div /= dx
    div *= dt
    U_new = np.subtract(U, div, out=div)
    if params.delta_diff > 0.0:
        lap = _shift(U, 1, out=U_R)
        lap -= np.multiply(2.0, U, out=F)
        lap += _shift(U, -1, out=F)
        lap /= dx**2
        lap *= params.delta_diff * dt
        U_new += lap

    if not np.logical_and.reduce(np.isfinite(U_new), axis=None):
        bad = np.argwhere(~np.isfinite(U_new))[0]
        lane = f" of lane {bad[1]}" if U_new.ndim == 3 else ""
        raise BlowUpError(
            f"non-finite value in component {bad[0]}{lane} at cell {bad[-1]}"
        )

    clipped = 0.0
    dens = density_view(model, U_new)
    if np.fmin.reduce(dens, axis=None) < 0.0:  # U_new is finite
        neg = dens < 0.0
        clipped = float(-np.sum(dens[neg]) * dx)
        dens[neg] = 0.0
    check_admissible(model, U_new)
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
    """Output of a run: (t, U) snapshots, the last one the final state,
    and the audit trail."""

    snapshots: list
    audit: AuditTrail


def run(
    model,
    U: np.ndarray,
    grid: Grid1D,
    params: SchemeParams,
    t_end: float,
    snapshot_every: float | None = None,
    t0: float = 0.0,
) -> RunResult:
    """Iterate the scheme from time t0 to t0 + t_end, recording snapshots
    and an audit.

    U is the (C, N) state of one lane or the (C, K, N) state of K lanes
    (a 1-D state is one component); it is copied, not modified.
    Snapshots are (t, U) pairs taken at t0, every snapshot_every time
    units, and at the final time, so the last one is the final state.
    The audit records, per step, the measured stability number, the mass
    of every conserved component, density extrema and the cumulative mass
    removed by negative-density clipping (capped at a small fraction of
    the initial mass).  A PedflowError raised from the check of U onward
    carries the step and time at which it was raised (see PedflowError).
    """
    if t_end < 0:
        raise DomainError("t_end must be >= 0")
    U = np.atleast_2d(np.array(U, dtype=float))
    if U.ndim > 3 or (U.shape[0], U.shape[-1]) != (model.n_conserved, grid.n_cells):
        raise DomainError(f"state must be ({model.n_conserved}, [lanes,] "
                          f"{grid.n_cells}), got {U.shape}")
    dx = grid.dx

    snapshots = [(t0, U.copy())]
    dens = density_view(model, U)
    mass_budget = CLIP_BUDGET_REL * float(np.sum(dens.sum(axis=1) * dx))

    n_steps = step_count(t_end, params.dt)
    # row k - 1 holds step k, its mass summed over lanes and cells; step, t
    # and the factor dx of the mass come at the end
    rec_cfl, rec_min, rec_max, rec_clip = np.empty((4, n_steps))
    rec_mass = np.empty((n_steps, len(U)))
    clipped_total = 0.0
    next_snap = snapshot_every if snapshot_every else None

    k = 0
    try:
        check_admissible(model, U)
        for k in range(1, n_steps + 1):
            U, cfl, clipped = _advance(model, U, grid, params)
            t = t0 + k * params.dt
            clipped_total += clipped
            if clipped_total > mass_budget:
                raise ClipBudgetError(
                    f"clipped mass {clipped_total:.3e} exceeds budget {mass_budget:.3e}"
                )
            rec_cfl[k - 1] = cfl
            rec_mass[k - 1] = np.add.reduce(U.reshape(len(U), -1), axis=1)
            dens = density_view(model, U)
            rec_min[k - 1] = np.minimum.reduce(dens, axis=None)
            rec_max[k - 1] = np.maximum.reduce(dens, axis=None)
            rec_clip[k - 1] = clipped_total
            if next_snap is not None and t >= t0 + next_snap - 1e-9 * params.dt:
                snapshots.append((t, U.copy()))
                next_snap += snapshot_every
    except PedflowError as exc:
        exc.step, exc.t = k, t0 + k * params.dt
        raise

    t_final = t0 + n_steps * params.dt
    if snapshots[-1][0] < t_final - 1e-9 * params.dt:
        snapshots.append((t_final, U.copy()))
    steps = np.arange(1, n_steps + 1)
    return RunResult(snapshots, AuditTrail(
        step=steps, t=t0 + steps * params.dt, cfl=rec_cfl, mass=rec_mass * dx,
        min_rho=rec_min, max_rho=rec_max, clipped_mass=rec_clip,
    ))
