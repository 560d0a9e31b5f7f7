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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import pressure as pr
from .errors import DomainError, VacuumError


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
class SimFluxParams:
    """Shape of the total-density flux profile g.

    g increases on [0, a], decreases on [a, 1] and vanishes outside
    [0, 1]; it is continuous at a and 1.
    """

    a: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise DomainError(f"a must lie in (0, 1), got {self.a}")


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
    flux_shape: SimFluxParams | None = None

    @classmethod
    def one_way_ar(cls, pressure: pr.PressureParams) -> "ModelSpec":
        if pressure.m <= 1:
            raise DomainError("one-way pressure law requires m > 1")
        return cls(kind=ModelKind.ONE_WAY_AR, pressure=pressure)

    @classmethod
    def one_way_car(cls, V: float, pressure: pr.PressureParams) -> "ModelSpec":
        if V <= 0:
            raise DomainError("V must be > 0")
        if pressure.m <= 1:
            raise DomainError("one-way pressure law requires m > 1")
        return cls(kind=ModelKind.ONE_WAY_CAR, pressure=pressure, V=V)

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
        if V <= 0:
            raise DomainError("V must be > 0")
        q = crowding if crowding is not None else pr.CrowdingWeight()
        return cls(
            kind=ModelKind.TWO_WAY_CAR,
            pressure=pressure,
            V=V,
            crowding=q,
            crowding_minus=crowding_minus if crowding_minus is not None else q,
        )

    @classmethod
    def sim_flux(cls, a: float = 0.7) -> "ModelSpec":
        return cls(kind=ModelKind.SIM_FLUX, flux_shape=SimFluxParams(a=a))

    @property
    def n_conserved(self) -> int:
        return _N_CONSERVED[self.kind]

    @property
    def density_rows(self) -> tuple[int, ...]:
        return _DENSITY_ROWS[self.kind]

    def flux(self, U: np.ndarray) -> np.ndarray:
        """Physical flux of the conserved state, row for row."""
        U = np.asarray(U, dtype=float)
        if U.shape[0] != self.n_conserved:
            raise DomainError(
                f"state has {U.shape[0]} rows, expected {self.n_conserved}"
            )
        if self.kind is ModelKind.SIM_FLUX:
            rho_p, rho_m = U[0], U[1]
            _, h, _ = _sim_h(self.flux_shape, rho_p, rho_m)
            return np.stack([rho_p * h, -rho_m * h])
        if self.kind is ModelKind.ONE_WAY_CAR:
            rho = U[0]
            P, S = pr.one_way_offsets(self.pressure, rho)
            return np.stack([rho * (self.V - (P + S))])
        if self.kind is ModelKind.TWO_WAY_CAR:
            rho_p, rho_m = U[0], U[1]
            p_plus, p_minus = two_way_pressures(self, rho_p, rho_m)
            return np.stack([rho_p * (self.V - p_plus), -rho_m * (self.V - p_minus)])
        # Dynamic desired speed: (rho u, rho w u) per species, with
        # u = w - p(rho) one-way, u+ = w+ - p(rho+,rho-) and
        # u- = -w- + p(rho-,rho+) two-way.
        if self.kind is ModelKind.ONE_WAY_AR:
            rho, _, u = ar_primitives(self, U)
            return np.stack([rho * u, U[1] * u])
        rho_p, w_p, vac_p = _species_primitives(U[0], U[1])
        rho_m, w_m, vac_m = _species_primitives(U[2], U[3])
        p_plus, p_minus = two_way_pressures(self, rho_p, rho_m)
        u_p = np.where(vac_p, 0.0, w_p - p_plus)
        u_m = np.where(vac_m, 0.0, -w_m + p_minus)
        return np.stack([rho_p * u_p, U[1] * u_p, rho_m * u_m, U[3] * u_m])

    def max_abs_speed(self, U: np.ndarray) -> np.ndarray:
        """Largest absolute characteristic speed per cell.

        Where the two-way discriminant is negative the eigenvalues are a
        complex pair; the modulus is used, which keeps the value finite
        and an upper bound on the signal speed.
        """
        U = np.asarray(U, dtype=float)
        if self.kind is ModelKind.SIM_FLUX:
            rho_p, rho_m = U[0], U[1]
            rho, h, hp = _sim_h(self.flux_shape, rho_p, rho_m)
            tr = (rho_p - rho_m) * hp
            det = -h * h - h * hp * rho
            return _pair_max_modulus(tr, tr * tr - 4.0 * det)
        if self.kind is ModelKind.ONE_WAY_CAR:
            rho = U[0]
            P, S, dP, dS = pr.one_way_offsets(self.pressure, rho, partials=True)
            return np.abs(self.V - (P + S) - rho * (dP + dS))
        if self.kind is ModelKind.ONE_WAY_AR:
            rho, w, u, dp = ar_primitives(self, U, partials=True)
            return np.maximum(np.abs(u), np.abs(u - rho * dp))
        # two-way CAR / AR
        if self.kind is ModelKind.TWO_WAY_AR:
            rho_p, w_p, u_p = _species_primitives(U[0], U[1])
            rho_m, w_m, u_m = _species_primitives(U[2], U[3])
            spd = _two_way_char_speeds(self, rho_p, rho_m, w_p, w_m)
        else:
            rho_p, rho_m = U[0], U[1]
            spd = _two_way_char_speeds(self, rho_p, rho_m)
        c_u_plus, c_u_minus = spd["c_u_plus"], spd["c_u_minus"]
        # Delta in the order of the decoupled speeds, not in the flux-partial
        # order of analysis.diffusive_discriminant: the two round differently,
        # and the latter changes the two_lane.cfg audit.csv.
        diff = c_u_plus - c_u_minus
        delta = diff * diff - 4.0 * rho_p * rho_m * spd["c_pm"] * spd["c_mp"]
        out = _pair_max_modulus(c_u_plus + c_u_minus, delta)
        if self.kind is ModelKind.TWO_WAY_AR:
            out = np.maximum(out, np.maximum(np.abs(spd["u_plus"]), np.abs(spd["u_minus"])))
        return out


def _pair_max_modulus(trace, disc):
    """max |lambda| for the root pair (trace +- sqrt(disc)) / 2."""
    trace = np.asarray(trace, dtype=float)
    disc = np.asarray(disc, dtype=float)
    sq = np.sqrt(np.abs(disc))
    real_case = 0.5 * np.maximum(np.abs(trace + sq), np.abs(trace - sq))
    complex_case = 0.5 * np.sqrt(trace * trace + np.abs(disc))
    return np.where(disc >= 0.0, real_case, complex_case)


def _sim_h(params: SimFluxParams, rho_plus, rho_minus):
    """Total density rho of the two species, h = g(rho)/rho and h'.

    A negative species density raises DomainError.  The 0/0 at vacuum is
    removed: on [0, a] the ratio is exactly the polynomial 1 - rho/(2a),
    so the vacuum limit h(0) = 1 needs no special casing.  At rho = 1 the
    inside one-sided branch is used (larger magnitude).
    """
    a = params.a
    if np.any(np.minimum(rho_plus, rho_minus) < 0):
        raise DomainError("densities must be >= 0")
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
    return r, h, hp


def two_way_pressures(model: ModelSpec, rho_plus, rho_minus):
    """Offsets (p(rho+, rho-), p(rho-, rho+)) of a two-way model."""
    return pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rho_plus, rho_minus
    )


def _species_primitives(rho, y):
    """Recover (rho, w, vacuum mask) for one species; vacuum cells get w = 0.

    The caller applies the pressure closure.  Vacuum cells with leftover
    momentum are an error.
    """
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    vac = rho < pr.VACUUM_FLOOR
    if np.any(vac & (np.abs(y) > pr.VACUUM_FLOOR)):
        raise VacuumError("zero density with non-zero momentum")
    w = np.where(vac, 0.0, y / np.where(vac, 1.0, rho))
    return rho, w, vac


def ar_primitives(model: ModelSpec, U: np.ndarray, partials=False):
    """(rho, w, u) of the one-way dynamic-desired-speed model; with
    partials=True also the offset derivative dp/drho."""
    if model.kind is not ModelKind.ONE_WAY_AR:
        raise DomainError("ar_primitives requires a one_way_ar model")
    rho, w, vac = _species_primitives(U[0], U[1])
    parts = pr.one_way_offsets(model.pressure, rho, partials)
    u = np.where(vac, 0.0, w - (parts[0] + parts[1]))
    if not partials:
        return rho, w, u
    return rho, w, u, parts[2] + parts[3]


def _two_way_char_speeds(model, rho_plus, rho_minus, w_plus=None, w_minus=None):
    """Characteristic ingredients of a two-way pressure-coupled model.

    For constant-desired-speed models w defaults to V.  Returns actual
    speeds u+-, the cross pressure partials c_pm = d p(rho+,rho-)/d rho-
    and c_mp = d p(rho-,rho+)/d rho+, and the decoupled speeds
    c_u+ = u+ - rho+ d1p(rho+,rho-), c_u- = u- + rho- d1p(rho-,rho+).
    """
    if w_plus is None:
        w_plus = model.V
    if w_minus is None:
        w_minus = model.V
    p_plus, p_minus, (c_pp, c_pm), (c_mm, c_mp) = pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rho_plus, rho_minus,
        partials=True,
    )
    u_plus = w_plus - p_plus
    u_minus = -w_minus + p_minus
    return {
        "u_plus": u_plus,
        "u_minus": u_minus,
        "c_pm": c_pm,
        "c_mp": c_mp,
        "c_u_plus": u_plus - rho_plus * c_pp,
        "c_u_minus": u_minus + rho_minus * c_mm,
    }
