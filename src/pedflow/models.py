"""Model family for one- and two-way corridor traffic.

Five members, all written in conserved variables on a 1D line:

* one_way_ar   -- density + desired-speed momentum (rho, rho*w); the
                  actual speed is u = w - p(rho).
* one_way_car  -- the constant-desired-speed reduction: a single scalar
                  conservation law with flux rho * (V - p(rho)).
* two_way_ar   -- two counter-walking species, four conserved variables
                  (rho+, rho+*w+, rho-, rho-*w-); the minus species
                  closes with u- = -w- + p(rho-, rho+).
* two_way_car  -- two coupled scalar laws with fluxes
                  (+rho+ (V - p(rho+,rho-)), -rho- (V - p(rho-,rho+))).
* sim_flux     -- a smooth two-species flux rho+ * g(rho)/rho built from
                  a piecewise-quadratic profile g, used for cluster
                  experiments (no singular pressure, so the total
                  density may exceed 1 there).

Every member exposes flux(U) and max_abs_speed(U) vectorized over the
cell axis, which is all the finite-volume solver needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import pressure as pr
from .errors import DomainError, VacuumError, require_finite

# Largest |w| of a cell below pr.VACUUM_FLOOR: a larger momentum there
# than VACUUM_MAX_W * pr.VACUUM_FLOOR is a VacuumError.
VACUUM_MAX_W = 1e3


class ModelKind(str, Enum):
    ONE_WAY_AR = "one_way_ar"
    ONE_WAY_CAR = "one_way_car"
    TWO_WAY_AR = "two_way_ar"
    TWO_WAY_CAR = "two_way_car"
    SIM_FLUX = "sim_flux"


_N_CONSERVED = {
    ModelKind.ONE_WAY_AR: 2,
    ModelKind.ONE_WAY_CAR: 1,
    ModelKind.TWO_WAY_AR: 4,
    ModelKind.TWO_WAY_CAR: 2,
    ModelKind.SIM_FLUX: 2,
}

_DENSITY_ROWS = {
    ModelKind.ONE_WAY_AR: (0,),
    ModelKind.ONE_WAY_CAR: (0,),
    ModelKind.TWO_WAY_AR: (0, 2),
    ModelKind.TWO_WAY_CAR: (0, 1),
    ModelKind.SIM_FLUX: (0, 1),
}


@dataclass(frozen=True)
class ModelSpec:
    """One member of the model family plus its parameters.

    Use the classmethod constructors; they validate the per-kind
    parameter requirements (e.g. m > 1 for the one-way pressure law,
    m >= 1 for the two-way one).
    """

    kind: ModelKind
    pressure: pr.PressureParams | None = None
    crowding: pr.CrowdingWeight | None = None
    crowding_minus: pr.CrowdingWeight | None = None
    V: float | None = None
    # sim_flux's profile g increases on [0, a], decreases on [a, 1] and
    # vanishes outside [0, 1]; it is continuous at a and 1
    a: float | None = None

    @classmethod
    def one_way_ar(cls, pressure: pr.PressureParams) -> "ModelSpec":
        if pressure.m <= 1:
            raise DomainError("one-way pressure law requires m > 1")
        return cls(kind=ModelKind.ONE_WAY_AR, pressure=pressure)

    @classmethod
    def one_way_car(cls, V: float, pressure: pr.PressureParams) -> "ModelSpec":
        _require_speed(V)
        return replace(cls.one_way_ar(pressure), kind=ModelKind.ONE_WAY_CAR, V=V)

    @classmethod
    def two_way_ar(
        cls,
        pressure: pr.PressureParams,
        crowding: pr.CrowdingWeight | None = None,
        crowding_minus: pr.CrowdingWeight | None = None,
    ) -> "ModelSpec":
        q = crowding if crowding is not None else pr.CrowdingWeight()
        return cls(
            kind=ModelKind.TWO_WAY_AR,
            pressure=pressure,
            crowding=q,
            crowding_minus=crowding_minus if crowding_minus is not None else q,
        )

    @classmethod
    def two_way_car(
        cls,
        V: float,
        pressure: pr.PressureParams,
        crowding: pr.CrowdingWeight | None = None,
        crowding_minus: pr.CrowdingWeight | None = None,
    ) -> "ModelSpec":
        _require_speed(V)
        return replace(cls.two_way_ar(pressure, crowding, crowding_minus),
                       kind=ModelKind.TWO_WAY_CAR, V=V)

    @classmethod
    def sim_flux(cls, a: float = 0.7) -> "ModelSpec":
        if not 0.0 < a < 1.0:
            raise DomainError(f"a must lie in (0, 1), got {a}")
        return cls(kind=ModelKind.SIM_FLUX, a=a)

    @property
    def n_conserved(self) -> int:
        return _N_CONSERVED[self.kind]

    @property
    def density_rows(self) -> tuple[int, ...]:
        return _DENSITY_ROWS[self.kind]

    def flux(self, U: np.ndarray) -> np.ndarray:
        """Physical flux of an admissible conserved state, row for row, as a
        new array that shares no memory with U: solver.central_flux works
        in place on it."""
        U = np.asarray(U, dtype=float)
        if self.kind is ModelKind.SIM_FLUX:
            F = U * _sim_h(self.a, U[0], U[1], derivative=False)[1]
            F[1] *= -1.0  # (rho+ h, -rho- h): (-a) * b == -(a * b) exactly
            return F
        if self.kind is ModelKind.ONE_WAY_CAR:
            rho = U[0]
            p = _lone_stream_offsets(self, rho)[0]
            return np.stack([rho * (self.V - p)])
        if self.kind is ModelKind.TWO_WAY_CAR:
            p_plus, p_minus = two_way_pressures(self, U[0], U[1])
            F = np.empty(U.shape)  # F[i, ...] is a view also of a (C,) state
            np.subtract(self.V, p_plus, out=F[0, ...])
            np.subtract(self.V, p_minus, out=F[1, ...])
            F *= U
            F[1] *= -1.0  # (rho+ (V - p+), -rho- (V - p-))
            return F
        # Dynamic desired speed: (rho u, rho w u) per species, with
        # u = w - p(rho) one-way, u+ = w+ - p(rho+,rho-) and
        # u- = -w- + p(rho-,rho+) two-way.
        if self.kind is ModelKind.ONE_WAY_AR:
            rho, _, u = ar_primitives(self, U)
            return np.stack([rho * u, U[1] * u])
        rho_p, w_p, vac_p = _species_primitives(U[0], U[1])
        rho_m, w_m, vac_m = _species_primitives(U[2], U[3])
        p_plus, p_minus = two_way_pressures(self, rho_p, rho_m)
        F = np.empty(U.shape)
        F[:2] = pr.zero_at(vac_p, w_p - p_plus)
        F[2:] = pr.zero_at(vac_m, -w_m + p_minus)
        F *= U  # (rho+ u+, rho+ w+ u+, rho- u-, rho- w- u-)
        return F

    def max_abs_speed(self, U: np.ndarray) -> np.ndarray:
        """Largest absolute characteristic speed per cell of an admissible U.

        Where the two-way discriminant is negative the eigenvalues are a
        complex pair; the modulus is used, which keeps the value finite
        and an upper bound on the signal speed.
        """
        U = np.asarray(U, dtype=float)
        if self.kind is ModelKind.SIM_FLUX:
            rho_p, rho_m = U[0], U[1]
            rho, h, hp = _sim_h(self.a, rho_p, rho_m)
            tr = (rho_p - rho_m) * hp
            det = -h * h - h * hp * rho
            return _pair_max_modulus(tr, tr * tr - 4.0 * det)
        if self.kind is ModelKind.ONE_WAY_CAR:
            rho = U[0]
            p, _, (dp, _), _ = _lone_stream_offsets(self, rho, partials=True)
            return np.abs(self.V - p - rho * dp)
        if self.kind is ModelKind.ONE_WAY_AR:
            rho, w, u, dp = ar_primitives(self, U, partials=True)
            return np.maximum(np.abs(u), np.abs(u - rho * dp))
        if self.kind is ModelKind.TWO_WAY_AR:
            rho_p, w_p, _ = _species_primitives(U[0], U[1])
            rho_m, w_m, _ = _species_primitives(U[2], U[3])
            return _two_way_max_abs_speed(self, rho_p, rho_m, w_p, w_m)
        return _two_way_max_abs_speed(self, U[0], U[1], self.V, self.V)


def _require_speed(V):
    """The desired-speed rule of the car constructors."""
    require_finite(V=V)
    if V <= 0:
        raise DomainError("V must be > 0")


def _two_way_max_abs_speed(model, rho_plus, rho_minus, w_plus, w_minus):
    """ModelSpec.max_abs_speed of a two-way pressure-coupled model from the
    densities and desired speeds (w = V for two_way_car)."""
    u_plus, u_minus, c_pm, c_mp, c_u_plus, c_u_minus = _two_way_char_speeds(
        model, rho_plus, rho_minus, w_plus, w_minus)
    # Delta in the order of the decoupled speeds, not in the flux-partial
    # order of analysis.diffusive_discriminant: the two round differently,
    # and the latter changes the two_lane.cfg audit.csv.
    diff = c_u_plus - c_u_minus
    delta = diff * diff - 4.0 * rho_plus * rho_minus * c_pm * c_mp
    out = _pair_max_modulus(c_u_plus + c_u_minus, delta)
    if model.kind is ModelKind.TWO_WAY_AR:
        out = np.maximum(out, np.maximum(np.abs(u_plus), np.abs(u_minus)))
    return out


def _pair_max_modulus(trace, disc):
    """max |lambda| for the root pair (trace +- sqrt(disc)) / 2.

    The complex-root case is computed only when some disc < 0; the
    reduction that looks for one propagates NaN, so a NaN disc also takes
    the select.
    """
    abs_disc = np.abs(disc)
    sq = np.sqrt(abs_disc)
    # sq >= 0, so fl(|trace| + sq) = max(|fl(trace + sq)|, |fl(trace - sq)|)
    real_case = 0.5 * (np.abs(trace) + sq)
    if np.minimum.reduce(disc, axis=None, initial=np.inf) >= 0.0:
        return real_case
    complex_case = 0.5 * np.sqrt(trace * trace + abs_disc)
    return np.where(disc >= 0.0, real_case, complex_case)


def _sim_h(a: float, rho_plus, rho_minus, derivative=True):
    """Total density rho of two non-negative species, h = g(rho)/rho and
    h' for the profile g of ModelSpec.a, or None in place of h' with
    derivative=False (the flux reads h only).

    The 0/0 at vacuum is removed: on [0, a] the ratio is exactly the
    polynomial 1 - rho/(2a), so the vacuum limit h(0) = 1 needs no special
    casing.  At rho = 1 the inside one-sided branch is used (larger magnitude).
    """
    r = np.asarray(rho_plus + rho_minus, dtype=float)
    h = np.asarray(1.0 - r / (2.0 * a))  # an array also for 0-d input
    hp = np.full(r.shape, -1.0 / (2.0 * a)) if derivative else None
    mid = (r > a) & (r <= 1.0)
    if np.count_nonzero(mid):  # most states of a stable run have no cell in (a, 1]
        rs = r[mid]
        d = a - rs
        g = a / 2.0 - a * d**2 / (2.0 * (1.0 - a) ** 2)
        h[mid] = g / rs
        if derivative:
            gp = a * d / (1.0 - a) ** 2
            hp[mid] = (gp * rs - g) / rs**2
    high = r > 1.0
    h[high] = 0.0
    if derivative:
        hp[high] = 0.0
    return r, h, hp


def two_way_pressures(model: ModelSpec, rho_plus, rho_minus):
    """Offsets (p(rho+, rho-), p(rho-, rho+)) of a two-way model."""
    return pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rho_plus, rho_minus
    )


def _lone_stream_offsets(model: ModelSpec, rho, partials=False):
    """pr.two_way_offsets of a one-way model's density rho as a lone stream:
    p(rho) first and, with partials=True, (dp/drho, dp/drho-) third."""
    return pr.two_way_offsets(model.pressure, pr.LONE_STREAM, pr.LONE_STREAM,
                              rho, 0.0, partials)


def _species_primitives(rho, y):
    """Recover (rho, w, pr.vacuum_mask(rho)) for one species; vacuum cells
    get w = 0.  The caller applies the pressure closure.  A vacuum cell
    with more momentum than VACUUM_MAX_W * pr.VACUUM_FLOOR is an error.
    """
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    vac = pr.vacuum_mask(rho)
    if vac is None:
        return rho, y / rho, None
    if (vac & (np.abs(y) > VACUUM_MAX_W * pr.VACUUM_FLOOR)).any():
        raise VacuumError("zero density with non-zero momentum")
    w = np.where(vac, 0.0, y / np.where(vac, 1.0, rho))
    return rho, w, vac


def ar_primitives(model: ModelSpec, U: np.ndarray, partials=False):
    """(rho, w, u) of a one_way_ar model; with partials=True also the
    offset derivative dp/drho."""
    rho, w, vac = _species_primitives(U[0], U[1])
    offsets = _lone_stream_offsets(model, rho, partials)
    u = pr.zero_at(vac, w - offsets[0])
    if not partials:
        return rho, w, u
    return rho, w, u, offsets[2][0]


def _two_way_char_speeds(model, rho_plus, rho_minus, w_plus, w_minus):
    """Characteristic ingredients of a two-way pressure-coupled model, with
    w = V for the constant-desired-speed models.

    Returns the actual speeds u+-, the cross pressure partials
    c_pm = d p(rho+,rho-)/d rho- and c_mp = d p(rho-,rho+)/d rho+, and the
    decoupled speeds c_u+ = u+ - rho+ d1p(rho+,rho-) and
    c_u- = u- + rho- d1p(rho-,rho+), as (u+, u-, c_pm, c_mp, c_u+, c_u-).
    """
    p_plus, p_minus, (c_pp, c_pm), (c_mm, c_mp) = pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rho_plus, rho_minus,
        partials=True,
    )
    u_plus = w_plus - p_plus
    u_minus = -w_minus + p_minus
    return (u_plus, u_minus, c_pm, c_mp,
            u_plus - rho_plus * c_pp, u_minus + rho_minus * c_mm)
