"""Velocity-offset ("pressure") laws for corridor crowd models.

The offset p is the gap between a walker's desired speed and the actual
speed, so it carries velocity units.  It is built from two pieces:

* a smooth background law P(rho) = M * rho**m, active at all densities;
* a singular correction that diverges as the density approaches the jam
  density rho_star and is negligible elsewhere.  The correction switches
  on inside a band below rho_star whose width scales like eps**(1/gamma).

The law is evaluated for two walking directions: the background on the
total density of both, and the singular correction divided by a crowding
weight q of the walker's own density, so the majority stream is slowed
less than the minority one.  The one-way law is that of a lone stream:
the plus direction with no counter-flow (rho- = 0) and the constant
weight q = 1, LONE_STREAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# Densities within this relative distance of rho_star are treated as
# having left the admissible region (model breakdown, not stiffness).
CONGESTION_REL_TOL = 1e-12

# Below this density a cell is treated as vacuum: the singular correction
# and its partials are 0 there, and the dynamic models set u = w = 0.
VACUUM_FLOOR = 1e-12


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

    A value or derivative that does not vary with rho is a float, whose
    product with an array has the bits of the product with an array of it.
    """

    kind: CrowdingKind = CrowdingKind.AFFINE
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", CrowdingKind(self.kind))
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")

    def value(self, rho, rho_star):
        if self.kind is CrowdingKind.CONSTANT:
            return 1.0
        if self.kind is CrowdingKind.AFFINE:
            return 1.0 + self.beta * rho / rho_star
        return (1.0 + np.asarray(rho, dtype=float) / rho_star) ** self.beta

    def derivative(self, rho, rho_star):
        if self.kind is CrowdingKind.CONSTANT:
            return 0.0
        if self.kind is CrowdingKind.AFFINE:
            return self.beta / rho_star
        r = np.asarray(rho, dtype=float)
        return self.beta * (1.0 + r / rho_star) ** (self.beta - 1.0) / rho_star


#: The crowding weight of a lone stream (see the module docstring).
LONE_STREAM = CrowdingWeight(CrowdingKind.CONSTANT)


def vacuum_mask(rho):
    """Mask of the entries below VACUUM_FLOOR, or None when there is none.

    For an array the mask is only built when one NaN-ignoring reduction
    finds a vacuum entry; a NumPy scalar is compared directly (NaN is no
    vacuum either way) and gives np.True_ or None.
    """
    if not isinstance(rho, np.ndarray):
        return (rho < VACUUM_FLOOR) or None
    if np.fmin.reduce(rho, axis=None, initial=np.inf) < VACUUM_FLOOR:
        return rho < VACUUM_FLOOR
    return None


def zero_at(mask, x):
    """x with the entries under mask set to 0; x itself when mask is None."""
    return x if mask is None else np.where(mask, 0.0, x)


def _power(x, exponent):
    """x**exponent; for a NumPy scalar x, the bits of the 0-d array power,
    whose fast paths at the exponents 2 and 1 are x * x and x itself."""
    if isinstance(x, np.ndarray):
        return x**exponent
    if exponent == 2.0:
        return x * x
    return x if exponent == 1.0 else np.asarray(x) ** exponent


def crossover_width(params: PressureParams, rho):
    """Width rho * rho_star * eps**(1/gamma), for 0 <= rho <= rho_star, of
    the band below rho_star where the singular correction becomes order one."""
    r = np.asarray(rho, dtype=float)
    return r * params.rho_star * params.eps ** (1.0 / params.gamma)


def two_way_offsets(params: PressureParams, q_plus: CrowdingWeight,
                    q_minus: CrowdingWeight, rho_plus, rho_minus, partials=False):
    """Offsets of both walking directions in counter-flow, from one evaluation.

    p(rho_own, rho_other) = P(rho) + eps / (q(rho_own) * z**gamma) with the
    total density rho and z = 1/rho - 1/rho_star; q is q_plus for the plus
    direction and q_minus for the minus one.  Returns (p(rho+, rho-),
    p(rho-, rho+)) and, with partials=True, also the pair (d/d rho_own,
    d/d rho_other) of each; with eps = 0 these may share one array.
    The correction and its partials are 0 where the total density is
    below VACUUM_FLOOR (masked only if such a total exists).  The
    densities must be admissible: >= 0, with a total below rho_star.

    Scalar densities (floats, NumPy scalars or 0-d arrays) give NumPy
    scalars: the densities and the arithmetic on them stay NumPy scalars,
    which cost far less per operation than 0-d arrays and, unlike floats,
    obey np.errstate.  +, -, * and / round alike on both, a power need
    not, so each power keeps the bits it had when every scalar was a 0-d
    array: the powers of the total and of z have the bits of 0-d array
    powers (x * x and x at the exponents 2 and 1, a 0-d array power at
    others), and the scalar partials' power of z is a NumPy-scalar one,
    which can round unlike z * z (the map bisection keeps its bits).
    """
    plus = np.asarray(rho_plus, dtype=float)[()]
    minus = np.asarray(rho_minus, dtype=float)[()]
    total = plus + minus
    P = params.M * _power(total, params.m)
    dP = params.M * params.m * _power(total, params.m - 1.0) if partials else None
    if params.eps > 0:
        vac = vacuum_mask(total)
        # fill vacuum entries with a safely interior density
        tot = total if vac is None else np.where(vac, 0.5 * params.rho_star, total)[()]
        z = 1.0 / tot - 1.0 / params.rho_star
        zg = _power(z, params.gamma)
        if partials:
            # scalar partials take the NumPy-scalar power of z, which can
            # round unlike the 0-d array power of the offsets
            zg_partials = zg if isinstance(z, np.ndarray) else z**params.gamma
            z_tot2 = z * _power(tot, 2.0)
        del tot, z
    # One direction at a time; the dels free each direction's temporaries
    # before the next, which keeps the peak memory of array calls down.
    offsets, pairs = [], []
    for q, own in ((q_plus, plus), (q_minus, minus)):
        if params.eps == 0:
            offsets.append(P)
            pairs.append((dP, dP))
            continue
        qv = q.value(own, params.rho_star)
        corr = zero_at(vac, params.eps / (qv * zg))
        offsets.append(P + corr)
        if partials:
            if zg_partials is not zg:
                corr = zero_at(vac, params.eps / (qv * zg_partials))
            dq = q.derivative(own, params.rho_star)
            # d/d(total) of eps/(q z^gamma) at fixed q, plus the q(rho_own) term
            dtotal = zero_at(vac, corr * params.gamma / z_tot2)
            d_other = dP + dtotal
            pairs.append((d_other - zero_at(vac, corr * dq / qv), d_other))
            del dq, dtotal, d_other
        del qv, corr
    if not partials:
        return tuple(offsets)
    return tuple(offsets) + tuple(pairs)


def two_way_pressure(params: PressureParams, q: CrowdingWeight, rho_own, rho_other):
    """Offset seen by one direction in counter-flow: the plus offset of
    two_way_offsets with rho_own as the plus density."""
    return two_way_offsets(params, q, q, rho_own, rho_other)[0]


def pressure_partials(params: PressureParams, q: CrowdingWeight, rho_own, rho_other):
    """Analytic partial derivatives of two_way_pressure.

    Returns (d/d rho_own, d/d rho_other).  Both are non-negative for the
    shipped crowding weights with moderate beta (the offset increases
    when either density increases).
    """
    return two_way_offsets(params, q, q, rho_own, rho_other, partials=True)[2]

