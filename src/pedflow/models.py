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

# Below this density a cell is treated as vacuum: u = w = 0.
VACUUM_FLOOR = 1e-12


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
class MovingSteady:
    """Split of a species density into moving and standing walkers."""

    g_density: float
    s_density: float


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
            h, _ = _sim_h(self.flux_shape, rho_p + rho_m)
            return np.stack([rho_p * h, -rho_m * h])
        if self.kind is ModelKind.ONE_WAY_CAR:
            return np.stack([car_flux_1w(self, U[0])])
        if self.kind is ModelKind.TWO_WAY_CAR:
            f_p, f_m = two_way_car_flux(self, U[0], U[1])
            return np.stack([f_p, f_m])
        return ar_conserved_flux(self, U)

    def max_abs_speed(self, U: np.ndarray) -> np.ndarray:
        """Largest absolute characteristic speed per cell.

        Where the two-way discriminant is negative the eigenvalues are a
        complex pair; the modulus is used, which keeps the value finite
        and an upper bound on the signal speed.
        """
        U = np.asarray(U, dtype=float)
        if self.kind is ModelKind.SIM_FLUX:
            rho_p, rho_m = U[0], U[1]
            rho = rho_p + rho_m
            h, hp = _sim_h(self.flux_shape, rho)
            tr = (rho_p - rho_m) * hp
            det = -h * h - h * hp * rho
            return _pair_max_modulus(tr, tr * tr - 4.0 * det)
        if self.kind is ModelKind.ONE_WAY_CAR:
            rho = U[0]
            p = pr.pressure_1w(self.pressure, rho)
            dp = pr.pressure_1w_derivative(self.pressure, rho)
            return np.abs(self.V - p - rho * dp)
        if self.kind is ModelKind.ONE_WAY_AR:
            rho, w, u = ar_primitives(self, U)
            dp = pr.pressure_1w_derivative(self.pressure, rho)
            return np.maximum(np.abs(u), np.abs(u - rho * dp))
        # two-way CAR / AR
        if self.kind is ModelKind.TWO_WAY_AR:
            rho_p, w_p, u_p = _species_primitives(U[0], U[1])
            rho_m, w_m, u_m = _species_primitives(U[2], U[3])
            spd = _two_way_char_speeds(self, rho_p, rho_m, w_p, w_m)
        else:
            rho_p, rho_m = U[0], U[1]
            spd = _two_way_char_speeds(self, rho_p, rho_m)
        csum = spd["c_u_plus"] + spd["c_u_minus"]
        delta = _discriminant(
            spd["c_u_plus"], spd["c_u_minus"], rho_p, rho_m, spd["c_pm"], spd["c_mp"]
        )
        out = _pair_max_modulus(csum, delta)
        if self.kind is ModelKind.TWO_WAY_AR:
            out = np.maximum(out, np.maximum(np.abs(spd["u_plus"]), np.abs(spd["u_minus"])))
        return out


def _discriminant(c_u_plus, c_u_minus, rho_plus, rho_minus, c_pm, c_mp):
    """Delta = (c_u+ - c_u-)^2 - 4 rho+ rho- c+- c-+ of a two-way
    pressure-coupled state; hyperbolic where Delta >= 0."""
    diff = c_u_plus - c_u_minus
    return diff * diff - 4.0 * rho_plus * rho_minus * c_pm * c_mp


def _pair_max_modulus(trace, disc):
    """max |lambda| for the root pair (trace +- sqrt(disc)) / 2."""
    trace = np.asarray(trace, dtype=float)
    disc = np.asarray(disc, dtype=float)
    sq = np.sqrt(np.abs(disc))
    real_case = 0.5 * np.maximum(np.abs(trace + sq), np.abs(trace - sq))
    complex_case = 0.5 * np.sqrt(trace * trace + np.abs(disc))
    return np.where(disc >= 0.0, real_case, complex_case)


def g_profile(params: SimFluxParams, x):
    """Piecewise-quadratic total-density flux profile.

    x - x^2/(2a) on [0, a], then a/2 - a(a-x)^2 / (2(1-a)^2) on [a, 1],
    zero outside [0, 1]; continuous at a and 1.
    """
    a = params.a
    xx = np.asarray(x, dtype=float)
    scalar = xx.ndim == 0
    low = xx - xx**2 / (2.0 * a)
    mid = a / 2.0 - a * (a - xx) ** 2 / (2.0 * (1.0 - a) ** 2)
    out = np.where(
        (xx >= 0.0) & (xx <= a), low, np.where((xx > a) & (xx <= 1.0), mid, 0.0)
    )
    return float(out) if scalar else out


def g_slope(params: SimFluxParams, x):
    """One-sided derivative of g_profile.

    g' jumps at x = 1 (and the curvature jumps at x = a); at those
    points the one-sided value of larger magnitude is returned, which is
    the conservative choice for wave-speed estimates.
    """
    a = params.a
    xx = np.asarray(x, dtype=float)
    scalar = xx.ndim == 0
    low = 1.0 - xx / a
    mid = a * (a - xx) / (1.0 - a) ** 2
    out = np.where(
        (xx >= 0.0) & (xx <= a), low, np.where((xx > a) & (xx <= 1.0), mid, 0.0)
    )
    return float(out) if scalar else out


def _sim_h(params: SimFluxParams, rho):
    """g(rho)/rho and its derivative, with the 0/0 at vacuum removed.

    On [0, a] the ratio is exactly the polynomial 1 - rho/(2a), so the
    vacuum limit h(0) = 1 needs no special casing.  At rho = 1 the
    inside one-sided branch is used (larger magnitude).
    """
    a = params.a
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise DomainError("densities must be >= 0")
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
    return h, hp


def sim_flux(params: SimFluxParams, rho_plus, rho_minus):
    """Flux rho_plus * g(rho)/rho of the plus species, rho = rho+ + rho-.

    Continuous at vacuum (g(rho)/rho -> 1) and zero whenever the total
    density reaches 1.
    """
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    scalar = rp.ndim == 0 and rm.ndim == 0
    if np.any(rp < 0) or np.any(rm < 0):
        raise DomainError("densities must be >= 0")
    h, _ = _sim_h(params, rp + rm)
    out = rp * h
    return float(out) if scalar else out


def car_flux_1w(model: ModelSpec, rho):
    """Flux rho * (V - p(rho)) of the one-way constant-desired-speed model."""
    if model.kind is not ModelKind.ONE_WAY_CAR:
        raise DomainError("car_flux_1w requires a one_way_car model")
    r = np.asarray(rho, dtype=float)
    scalar = r.ndim == 0
    out = r * (model.V - np.asarray(pr.pressure_1w(model.pressure, r)))
    return float(out) if scalar else out


def two_way_pressures(model: ModelSpec, rho_plus, rho_minus):
    """Offsets (p(rho+, rho-), p(rho-, rho+)) of a two-way model."""
    return pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rho_plus, rho_minus
    )


def two_way_car_flux(model: ModelSpec, rho_plus, rho_minus):
    """Fluxes of the two-way constant-desired-speed model.

    Returns (rho+ (V - p(rho+,rho-)), -rho- (V - p(rho-,rho+))); the
    minus species flux carries the leading minus sign.
    """
    if model.kind is not ModelKind.TWO_WAY_CAR:
        raise DomainError("two_way_car_flux requires a two_way_car model")
    p_plus, p_minus = two_way_pressures(model, rho_plus, rho_minus)
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    scalar = rp.ndim == 0 and rm.ndim == 0
    f_p = rp * (model.V - p_plus)
    f_m = -rm * (model.V - p_minus)
    return (float(f_p), float(f_m)) if scalar else (f_p, f_m)


def _species_primitives(rho, y):
    """Recover (rho, w, u-part) for one species; vacuum cells get w = 0.

    The returned third entry is w only; the caller applies the pressure
    closure.  Vacuum cells with leftover momentum are an error.
    """
    rho = np.asarray(rho, dtype=float)
    y = np.asarray(y, dtype=float)
    vac = rho < VACUUM_FLOOR
    if np.any(vac & (np.abs(y) > VACUUM_FLOOR)):
        raise VacuumError("zero density with non-zero momentum")
    w = np.where(vac, 0.0, y / np.where(vac, 1.0, rho))
    return rho, w, vac


def ar_primitives(model: ModelSpec, U: np.ndarray):
    """(rho, w, u) of the one-way dynamic-desired-speed model."""
    if model.kind is not ModelKind.ONE_WAY_AR:
        raise DomainError("ar_primitives requires a one_way_ar model")
    rho, w, vac = _species_primitives(U[0], U[1])
    p = np.asarray(pr.pressure_1w(model.pressure, rho))
    u = np.where(vac, 0.0, w - p)
    return rho, w, u


def ar_conserved_flux(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Flux of the dynamic-desired-speed models in conserved variables.

    One-way: (rho u, rho w u) with u = w - p(rho).  Two-way: the same
    per species with u+ = w+ - p(rho+,rho-) and u- = -w- + p(rho-,rho+).
    """
    U = np.asarray(U, dtype=float)
    if model.kind is ModelKind.ONE_WAY_AR:
        rho, w, u = ar_primitives(model, U)
        return np.stack([rho * u, U[1] * u])
    if model.kind is not ModelKind.TWO_WAY_AR:
        raise DomainError("ar_conserved_flux requires a dynamic desired-speed model")
    rho_p, w_p, vac_p = _species_primitives(U[0], U[1])
    rho_m, w_m, vac_m = _species_primitives(U[2], U[3])
    p_plus, p_minus = two_way_pressures(model, rho_p, rho_m)
    u_p = np.where(vac_p, 0.0, w_p - np.asarray(p_plus))
    u_m = np.where(vac_m, 0.0, -w_m + np.asarray(p_minus))
    return np.stack([rho_p * u_p, U[1] * u_p, rho_m * u_m, U[3] * u_m])


def _two_way_char_speeds(model, rho_plus, rho_minus, w_plus=None, w_minus=None):
    """Characteristic ingredients of a two-way pressure-coupled model.

    For constant-desired-speed models w defaults to V.  Returns actual
    speeds u+-, the four pressure partials and the decoupled speeds
    c_u+ = u+ - rho+ d1p(rho+,rho-), c_u- = u- + rho- d1p(rho-,rho+).
    """
    rp = np.asarray(rho_plus, dtype=float)
    rm = np.asarray(rho_minus, dtype=float)
    if w_plus is None:
        w_plus = model.V
    if w_minus is None:
        w_minus = model.V
    p_plus, p_minus, (c_pp, c_pm), (c_mm, c_mp) = pr.two_way_offsets(
        model.pressure, model.crowding, model.crowding_minus, rp, rm, partials=True
    )
    u_plus = np.asarray(w_plus) - np.asarray(p_plus)
    u_minus = -np.asarray(w_minus) + np.asarray(p_minus)
    return {
        "u_plus": u_plus,
        "u_minus": u_minus,
        "c_pp": np.asarray(c_pp),
        "c_pm": np.asarray(c_pm),
        "c_mp": np.asarray(c_mp),
        "c_mm": np.asarray(c_mm),
        "c_u_plus": u_plus - rp * np.asarray(c_pp),
        "c_u_minus": u_minus + rm * np.asarray(c_mm),
    }


def characteristic_speed_1w(model: ModelSpec, rho, u):
    """Speed u - rho * p'(rho) at which speed information travels in the
    one-way models (upstream relative to the walkers)."""
    r = np.asarray(rho, dtype=float)
    scalar = r.ndim == 0
    dp = np.asarray(pr.pressure_1w_derivative(model.pressure, r))
    out = np.asarray(u, dtype=float) - r * dp
    return float(out) if scalar else out


def moving_steady_split(model: ModelSpec, rho, p_value) -> MovingSteady:
    """Split a species density into moving and standing walkers.

    The offset scaled by the desired speed is the standing fraction:
    s = rho * p / V and g = rho - s, so g + s = rho exactly.
    """
    if model.V is None:
        raise DomainError("moving_steady_split requires a constant-desired-speed model")
    if np.any(np.asarray(p_value) < 0) or np.any(np.asarray(p_value) > model.V):
        raise DomainError("offset must lie in [0, V]")
    r = np.asarray(rho, dtype=float)
    scalar = r.ndim == 0
    s = r * np.asarray(p_value, dtype=float) / model.V
    g = r - s
    if scalar:
        return MovingSteady(float(g), float(s))
    return MovingSteady(g, s)
