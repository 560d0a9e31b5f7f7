"""Velocity-offset ("pressure") laws for corridor crowd models.

The offset p is the gap between a walker's desired speed and the actual
speed, so it carries velocity units.  It is built from two pieces:

* a smooth background law P(rho) = M * rho**m, active at all densities;
* a singular correction that diverges as the density approaches the jam
  density rho_star and is negligible elsewhere.  The correction switches
  on inside a band below rho_star whose width scales like eps**(1/gamma).

The two-way variant evaluates the background on the total density of
both walking directions and divides the singular correction by a
crowding weight q of the walker's own density, so the majority stream is
slowed less than the minority one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CongestionOverflowError, DomainError

# Densities within this relative distance of rho_star are treated as
# having left the admissible region (model breakdown, not stiffness).
CONGESTION_REL_TOL = 1e-12


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _ret(a, scalar):
    return float(a) if scalar else a


@dataclass(frozen=True)
class PressureParams:
    """Parameters of the background + singular pressure law.

    M: background amplitude (velocity units), m: background exponent,
    eps: scale of the singular correction, gamma: singularity exponent,
    rho_star: jam density at which the correction diverges.

    m >= 1 is enforced here; the one-way model constructors additionally
    require m > 1.
    """

    M: float
    m: float
    eps: float
    gamma: float
    rho_star: float

    def __post_init__(self):
        if self.M < 0:
            raise DomainError(f"M must be >= 0, got {self.M}")
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if self.eps < 0:
            raise DomainError(f"eps must be >= 0, got {self.eps}")
        if self.gamma <= 1:
            raise DomainError(f"gamma must be > 1, got {self.gamma}")
        if self.rho_star <= 0:
            raise DomainError(f"rho_star must be > 0, got {self.rho_star}")


class CrowdingKind(str, Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    POWER = "power"


@dataclass(frozen=True)
class CrowdingWeight:
    """Crowding weight q(rho) dividing the two-way singular correction.

    All kinds are positive, non-decreasing and O(1) on [0, rho_star]:

    * constant: q = 1 (beta ignored)
    * affine:   q = 1 + beta * rho / rho_star
    * power:    q = (1 + rho / rho_star) ** beta
    """

    kind: CrowdingKind = CrowdingKind.AFFINE
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", CrowdingKind(self.kind))
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")

    def value(self, rho, rho_star):
        r, scalar = _as_array(rho)
        if self.kind is CrowdingKind.CONSTANT:
            out = np.ones_like(r)
        elif self.kind is CrowdingKind.AFFINE:
            out = 1.0 + self.beta * r / rho_star
        else:
            out = (1.0 + r / rho_star) ** self.beta
        return _ret(out, scalar)

    def derivative(self, rho, rho_star):
        r, scalar = _as_array(rho)
        if self.kind is CrowdingKind.CONSTANT:
            out = np.zeros_like(r)
        elif self.kind is CrowdingKind.AFFINE:
            out = np.full_like(r, self.beta / rho_star)
        else:
            out = self.beta * (1.0 + r / rho_star) ** (self.beta - 1.0) / rho_star
        return _ret(out, scalar)


def _check_nonnegative(r, name="rho"):
    if (r < 0).any():
        raise DomainError(f"{name} must be >= 0")


def _check_admissible(total, rho_star):
    if (total >= rho_star * (1.0 - CONGESTION_REL_TOL)).any():
        raise CongestionOverflowError(
            f"density reached the jam density {rho_star}"
        )


def background_pressure(params: PressureParams, rho):
    """Background offset P(rho) = M * rho**m."""
    r, scalar = _as_array(rho)
    _check_nonnegative(r)
    return _ret(params.M * r**params.m, scalar)


def background_pressure_derivative(params: PressureParams, rho):
    """dP/drho = M * m * rho**(m-1)."""
    r, scalar = _as_array(rho)
    _check_nonnegative(r)
    return _ret(params.M * params.m * r ** (params.m - 1.0), scalar)


def singular_correction_1w(params: PressureParams, rho):
    """One-way singular correction eps / (1/rho - 1/rho_star)**gamma.

    Strictly increasing, divergent at rho_star, extended by continuity
    to 0 at rho = 0.  Densities at or beyond rho_star raise
    CongestionOverflowError.
    """
    r, scalar = _as_array(rho)
    _check_nonnegative(r)
    _check_admissible(r, params.rho_star)
    out = np.zeros_like(r)
    pos = r > 0
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        out[pos] = params.eps / z**params.gamma
    return _ret(out, scalar)


def singular_correction_derivative_1w(params: PressureParams, rho):
    """d/drho of the one-way singular correction.

    Equals eps * gamma / ((1/rho - 1/rho_star)**(gamma+1) * rho**2);
    tends to 0 as rho -> 0 because gamma > 1.
    """
    r, scalar = _as_array(rho)
    _check_nonnegative(r)
    _check_admissible(r, params.rho_star)
    out = np.zeros_like(r)
    pos = r > 0
    if params.eps > 0 and np.any(pos):
        z = 1.0 / r[pos] - 1.0 / params.rho_star
        out[pos] = params.eps * params.gamma / (z ** (params.gamma + 1.0) * r[pos] ** 2)
    return _ret(out, scalar)


def pressure_1w(params: PressureParams, rho):
    """Total one-way offset: background plus singular correction."""
    r, scalar = _as_array(rho)
    out = np.asarray(background_pressure(params, r)) + singular_correction_1w(params, r)
    return _ret(out, scalar)


def pressure_1w_derivative(params: PressureParams, rho):
    """Derivative of the total one-way offset."""
    r, scalar = _as_array(rho)
    out = np.asarray(
        background_pressure_derivative(params, r)
    ) + singular_correction_derivative_1w(params, r)
    return _ret(out, scalar)


def crossover_width(params: PressureParams, rho):
    """Width rho * rho_star * eps**(1/gamma) of the band below rho_star
    where the singular correction becomes order one."""
    r, scalar = _as_array(rho)
    if np.any(r <= 0) or np.any(r > params.rho_star):
        raise DomainError("crossover_width requires 0 < rho <= rho_star")
    if params.eps == 0:
        return _ret(np.zeros_like(r), scalar)
    return _ret(r * params.rho_star * params.eps ** (1.0 / params.gamma), scalar)


def two_way_offsets(params: PressureParams, q_plus: CrowdingWeight,
                    q_minus: CrowdingWeight, rho_plus, rho_minus, partials=False):
    """Offsets of both walking directions in counter-flow, from one evaluation.

    p(rho_own, rho_other) = P(rho) + eps / (q(rho_own) * z**gamma) with the
    total density rho and z = 1/rho - 1/rho_star; q is q_plus for the plus
    direction and q_minus for the minus one.  Returns (p(rho+, rho-),
    p(rho-, rho+)) and, with partials=True, also the pair (d/d rho_own,
    d/d rho_other) of each; with eps = 0 these may share one array.
    Raises DomainError on a negative density and CongestionOverflowError
    when the total density reaches rho_star.
    """
    plus, s1 = _as_array(rho_plus)
    minus, s2 = _as_array(rho_minus)
    _check_nonnegative(plus, "rho_plus")
    _check_nonnegative(minus, "rho_minus")
    total = plus + minus
    _check_admissible(total, params.rho_star)
    r = np.asarray(total)
    P = params.M * r**params.m
    dP = params.M * params.m * r ** (params.m - 1.0) if partials else None
    if params.eps > 0:
        pos = total > 0
        # fill masked entries with a safely interior density
        tot = np.where(pos, total, 0.5 * params.rho_star)
        z = 1.0 / tot - 1.0 / params.rho_star
        zg = np.asarray(z) ** params.gamma
        if partials:
            # 0-d partials take the NumPy-scalar power of z, which can round
            # unlike the 0-d array power of the offsets; both are kept so
            # that scalar evaluations (the map bisection) keep their bits.
            zg_partials = zg if isinstance(z, np.ndarray) else z**params.gamma
            z_tot2 = z * tot**2
        del tot, z
    # One direction at a time; the dels free each direction's temporaries
    # before the next, which keeps the peak memory of array calls down.
    offsets, pairs = [], []
    for q, own in ((q_plus, plus), (q_minus, minus)):
        if params.eps == 0:
            offsets.append(P)
            pairs.append((dP, dP))
            continue
        qv = np.asarray(q.value(own, params.rho_star))
        corr = np.where(pos, params.eps / (qv * zg), 0.0)
        offsets.append(P + corr)
        if partials:
            if zg_partials is not zg:
                corr = np.where(pos, params.eps / (qv * zg_partials), 0.0)
            dq = np.asarray(q.derivative(own, params.rho_star))
            # d/d(total) of eps/(q z^gamma) at fixed q, plus the q(rho_own) term
            dtotal = np.where(pos, corr * params.gamma / z_tot2, 0.0)
            d_other = dP + dtotal
            pairs.append((d_other - np.where(pos, corr * dq / qv, 0.0), d_other))
            del dq, dtotal, d_other
        del qv, corr
    scalar = s1 and s2
    offsets = tuple(_ret(p, scalar) for p in offsets)
    if not partials:
        return offsets
    return offsets + tuple((_ret(a, scalar), _ret(b, scalar)) for a, b in pairs)


def two_way_pressure(params: PressureParams, q: CrowdingWeight, rho_own, rho_other):
    """Offset seen by one direction in counter-flow: the plus offset of
    two_way_offsets with rho_own as the plus density.  Raises
    CongestionOverflowError when the total density reaches rho_star."""
    return two_way_offsets(params, q, q, rho_own, rho_other)[0]


def pressure_partials(params: PressureParams, q: CrowdingWeight, rho_own, rho_other):
    """Analytic partial derivatives of two_way_pressure.

    Returns (d/d rho_own, d/d rho_other).  Both are non-negative for the
    shipped crowding weights with moderate beta (the offset increases
    when either density increases).
    """
    return two_way_offsets(params, q, q, rho_own, rho_other, partials=True)[2]

