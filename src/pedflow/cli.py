"""Batch front end: scenario configs, seeded noise, artifact emission.

A scenario is described by a flat key = value text file (dotted key
namespaces, '#' comments); CONFIG_KEYS declares every key, and the
README's config table lists them.  The `simulate` subcommand runs it and
writes per-snapshot CSV files, a per-step audit CSV, a linear-stability
summary of the initial uniform state and per-snapshot cluster metrics.
`hyperbolicity-map`, `dispersion` and `pressure-table` emit the
corresponding analysis tables without time stepping.

Noise is reproducible by construction: every species/lane pair draws
from its own numpy PCG64 generator seeded with master_seed + 2*lane +
species, so identical configs produce identical artifact bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Set
from dataclasses import dataclass, field as dc_field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analysis as an
from . import models as md
from . import multilane as ml
from . import pressure as pr
from . import solver as sv
from ._fork import two_process_map
from .errors import ClipBudgetError, ConfigError, DomainError, PedflowError

# Model kinds, grouped by what their configs read.
_ALL = frozenset(md.ModelKind)
_PRESSURE = _ALL - {md.ModelKind.SIM_FLUX}
_ONE_WAY = frozenset({md.ModelKind.ONE_WAY_CAR, md.ModelKind.ONE_WAY_AR})
_CAR = frozenset({md.ModelKind.ONE_WAY_CAR, md.ModelKind.TWO_WAY_CAR})
# Kinds with two density species, rho_plus and rho_minus: the only kinds
# whose runs write cluster metrics.
_TWO_SPECIES = _ALL - _ONE_WAY
# Two-way pressure kinds: crowding weights and several lanes.
_TWO_WAY = _TWO_SPECIES & _PRESSURE
# Kinds whose linearisation analysis.diffusive_speeds evaluates.
_ANALYSED = frozenset({md.ModelKind.SIM_FLUX, md.ModelKind.TWO_WAY_CAR})

REQUIRED = object()  # default of a key that must be given
MAX_STEPS = 10**7  # run.t_end / scheme.dt; the bundled runs take <= 50,000
# cells (grid.n_cells * lanes.count), map nodes (map.resolution**2) and rows
# (dispersion.n_points, table.n_points): one float array of 10**6 entries is
# 8 MB, and a step or a map holds a few dozen; the bundled configs ask <= 40,000
MAX_POINTS = 10**6
# state values in all snapshots of a run, counted as (2 + run.t_end /
# run.snapshot_every) * components * lanes * cells: a run holds them until it
# writes them, 8 bytes each, and writes about 20 bytes of CSV per value, so
# 10**7 is 80 MB held and 200 MB written; the bundled configs and workloads
# count <= 196,608 (ar_wide_n16384: 2 snapshots of 4 x 16,384, counted as 3)
MAX_SNAPSHOT_VALUES = 10**7


def _float(text: str) -> float:
    """float() that also rejects nan and inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _float_list(text: str) -> list:
    return [_float(part) for part in text.split(",")]


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(text)
    return value in ("1", "true", "yes", "on")


def _one_of(*choices):
    def cast(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text
    return cast


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its cast, its default, the model kinds that read it
    and an optional lower bound, (">", value) or (">=", value).

    A callable default is evaluated on the values read before this key.
    arg is the constructor argument or ScenarioConfig field the value
    fills; it defaults to the last part of the key.
    """

    key: str
    cast: Callable[[str], object]
    default: object
    kinds: Set[md.ModelKind]
    bound: tuple | None = None
    arg: str = ""

    def __post_init__(self):
        if not self.arg:
            object.__setattr__(self, "arg", self.key.split(".", 1)[1])

    def read(self, raw: dict, values: dict):
        """This key's value in raw, cast and bound-checked, or its default."""
        if self.key not in raw:
            if self.default is REQUIRED:
                raise ConfigError(f"missing required key '{self.key}'")
            return self.default(values) if callable(self.default) else self.default
        try:
            value = self.cast(raw[self.key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for '{self.key}': {raw[self.key]!r}") from exc
        if self.bound is not None:
            op, low = self.bound
            if not (value > low if op == ">" else value >= low):
                raise ConfigError(f"{self.key} must be {op} {low}")
        return value


# Every accepted key; the README's config table lists the same rows.
# check.* keys hold --check expectations; all but final_supnorm_lt read
# the cluster metrics.
CONFIG_KEYS = (
    ConfigKey("model.kind", md.ModelKind, REQUIRED, _ALL),
    ConfigKey("model.a", _float, 0.7, {md.ModelKind.SIM_FLUX}),
    ConfigKey("model.V", _float, REQUIRED, _CAR),
    ConfigKey("pressure.M", _float, REQUIRED, _PRESSURE),
    ConfigKey("pressure.m", _float, REQUIRED, _PRESSURE),
    ConfigKey("pressure.eps", _float, 0.0, _PRESSURE),
    ConfigKey("pressure.gamma", _float, 2.0, _PRESSURE),
    ConfigKey("pressure.rho_star", _float, 1.0, _PRESSURE),
    ConfigKey("crowding.kind", pr.CrowdingKind, "affine", _TWO_WAY),
    ConfigKey("crowding.beta", _float, 1.0, _TWO_WAY),
    # an absent crowding_minus section means: the same weight as crowding
    ConfigKey("crowding_minus.kind", pr.CrowdingKind, None, _TWO_WAY),
    ConfigKey("crowding_minus.beta", _float, None, _TWO_WAY),
    ConfigKey("grid.n_cells", int, REQUIRED, _ALL),
    ConfigKey("grid.dx", _float, REQUIRED, _ALL),
    ConfigKey("scheme.dt", _float, REQUIRED, _ALL),
    ConfigKey("scheme.delta", _float, 0.0, _ALL, arg="delta_diff"),
    ConfigKey("scheme.limiter", str, "minmod", _ALL),
    ConfigKey("scheme.cfl_guard", _float, 0.45, _ALL),
    ConfigKey("initial.rho_plus", _float_list, REQUIRED, _TWO_SPECIES),
    ConfigKey("initial.rho_minus", _float_list, REQUIRED, _TWO_SPECIES),
    ConfigKey("initial.w_plus", _float_list, REQUIRED, {md.ModelKind.TWO_WAY_AR}),
    ConfigKey("initial.w_minus", _float_list, REQUIRED, {md.ModelKind.TWO_WAY_AR}),
    ConfigKey("initial.rho", _float, REQUIRED, _ONE_WAY),
    ConfigKey("initial.w", _float, REQUIRED, {md.ModelKind.ONE_WAY_AR}),
    ConfigKey("noise.sigma", _float, 0.0, _ALL, (">=", 0)),
    ConfigKey("noise.seed", int, REQUIRED, _ALL, (">=", 0)),
    ConfigKey("noise.kind", _one_of("gaussian", "uniform"), "gaussian", _ALL,
              arg="noise_kind"),
    ConfigKey("run.t_end", _float, 0.0, _ALL, (">=", 0)),
    ConfigKey("run.snapshot_every", _float, None, _ALL, (">", 0)),
    ConfigKey("cluster.threshold", _float,
              lambda values: 0.9 * values.get("pressure.rho_star", 1.0),
              _TWO_SPECIES, arg="cluster_threshold"),
    ConfigKey("lanes.count", int, 1, _TWO_WAY, (">=", 1), arg="n_lanes"),
    ConfigKey("rates.lambda0", _float, 0.0, _TWO_WAY),
    ConfigKey("rates.ramp", str, "positive_part", _TWO_WAY),
    ConfigKey("rates.cutoff", str, "linear", _TWO_WAY),
    ConfigKey("map.resolution", int, 200, _ANALYSED, (">=", 2), arg="map_resolution"),
    ConfigKey("dispersion.xi_max", _float, None, _ANALYSED, (">", 0),
              arg="dispersion_xi_max"),
    ConfigKey("dispersion.n_points", int, 501, _ANALYSED, (">", 0),
              arg="dispersion_n_points"),
    ConfigKey("table.n_points", int, 200, _PRESSURE, (">", 0), arg="table_n_points"),
    ConfigKey("table.rho_max", _float, None, _PRESSURE, (">", 0), arg="table_rho_max"),
    ConfigKey("check.final_supnorm_lt", _float, None, _ALL),
    ConfigKey("check.cluster_count_min", int, None, _TWO_SPECIES),
    ConfigKey("check.cluster_count_max", int, None, _TWO_SPECIES),
    ConfigKey("check.peak_total_ge", _float, None, _TWO_SPECIES),
    ConfigKey("check.drift_negative", _bool, None, _TWO_SPECIES),
)
_KEY_INDEX = {row.key: row for row in CONFIG_KEYS}

# Key sections that hold the arguments of one constructor; the first
# three are parts of the model.
_SECTIONS = {"pressure": pr.PressureParams, "crowding": pr.CrowdingWeight,
             "crowding_minus": pr.CrowdingWeight, "grid": sv.Grid1D,
             "scheme": sv.SchemeParams, "rates": ml.LaneChangeRates}
_MODEL_PARTS = ("pressure", "crowding", "crowding_minus")


def parse_config(path) -> dict:
    """Read a flat key = value file into a string dict."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_INDEX:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def _per_lane(key: str, values: list, n_lanes: int) -> list:
    """One value per lane from a list; a single value serves every lane."""
    if len(values) == 1:
        return values * n_lanes
    if len(values) != n_lanes:
        raise ConfigError(
            f"{key} lists {len(values)} values for {n_lanes} lane(s); "
            "give one value per lane or one for all"
        )
    return values


@dataclass
class ScenarioConfig:
    """Typed scenario description assembled from a raw key dict.

    The field of a key that the model kind does not read is None.
    """

    model: md.ModelSpec
    grid: sv.Grid1D
    scheme: sv.SchemeParams
    seed: int
    sigma: float
    noise_kind: str
    t_end: float
    snapshot_every: float | None = None
    n_lanes: int = 1
    rates: ml.LaneChangeRates | None = None
    rho_plus: list | None = None
    rho_minus: list | None = None
    w_plus: list | None = None
    w_minus: list | None = None
    rho: float | None = None
    w: float | None = None
    cluster_threshold: float | None = None
    checks: dict = dc_field(default_factory=dict)
    map_resolution: int | None = None
    dispersion_xi_max: float | None = None
    dispersion_n_points: int | None = None
    table_n_points: int | None = None
    table_rho_max: float | None = None


def build_config(raw: dict) -> ScenarioConfig:
    """Validate a raw key dict into a ScenarioConfig.

    One pass over CONFIG_KEYS casts, bounds and kind-checks every key: a
    key that the model kind does not read is an error.  The values then
    fill the constructors of their sections and the config fields.
    """
    kind = _KEY_INDEX["model.kind"].read(raw, {})
    values = {}
    for row in CONFIG_KEYS:
        if kind in row.kinds:
            values[row.key] = row.read(raw, values)
        elif row.key in raw:
            raise ConfigError(f"{row.key} is not read by model.kind {kind.value}")

    n_lanes = values.get("lanes.count", 1)
    # Keys that one run mode reads: single-lane runs write the cluster
    # metrics and check expectations, multi-lane runs exchange walkers.
    for prefix, multi in (("check.", False), ("cluster.", False), ("rates.", True)):
        if (n_lanes > 1) != multi and any(key.startswith(prefix) for key in raw):
            mode = "multi-lane" if multi else "single-lane"
            raise ConfigError(f"{prefix}* keys apply to {mode} runs only")
    sizes = {"grid.n_cells * lanes.count": values["grid.n_cells"] * n_lanes,
             "map.resolution**2": values.get("map.resolution", 0) ** 2,
             "dispersion.n_points": values.get("dispersion.n_points", 0),
             "table.n_points": values.get("table.n_points", 0)}
    for name, size in sizes.items():
        if size > MAX_POINTS:
            raise ConfigError(f"{name} must be <= {MAX_POINTS:.0e}")
    stiffness = values.get("rates.lambda0", 0.0) * values["scheme.dt"]
    if stiffness > 1.0 + 1e-12:
        raise ConfigError(f"rates.lambda0 * scheme.dt = {stiffness:.3g} exceeds 1")
    # the scheme divides by dx**2, a normal positive float, and needs a
    # finite diffusion number 2 delta dt / dx**2 (dx <= 0 is left to Grid1D)
    dx2 = values["grid.dx"] * values["grid.dx"]
    if values["grid.dx"] > 0 and not (
            sys.float_info.min <= dx2 <= sys.float_info.max
            and np.isfinite(2.0 * values["scheme.delta"] * values["scheme.dt"] / dx2)):
        raise ConfigError("grid.dx**2 must be a normal float and "
                          "2 * scheme.delta * scheme.dt / grid.dx**2 finite")
    parts = {name: {} for name in ("model", "check", "fields", *_SECTIONS)}
    for row in CONFIG_KEYS:
        value = values.get(row.key)
        if isinstance(value, list):
            value = _per_lane(row.key, value, n_lanes)
        section = row.key.split(".", 1)[0]
        if value is not None:
            parts.get(section, parts["fields"])[
                row.key if section == "check" else row.arg] = value
    model_args = parts["model"]
    del model_args["kind"]
    try:
        built = {name: cls(**parts[name]) for name, cls in _SECTIONS.items()
                 if parts[name]}
        model_args.update({name: built.pop(name) for name in _MODEL_PARTS
                           if name in built})
        model = getattr(md.ModelSpec, kind.value)(**model_args)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # noise past the density scale (rho_star, or 1 where the sim_flux profile
    # ends) leaves nothing of the base state; sigma = 1e200 overflowed
    scale = model.pressure.rho_star if kind in _PRESSURE else 1.0
    if values["noise.sigma"] > scale:
        raise ConfigError(f"noise.sigma must be <= {scale:g}, the density scale")
    if values["run.t_end"] / values["scheme.dt"] > MAX_STEPS:
        raise ConfigError(f"run.t_end / scheme.dt must be <= {MAX_STEPS:.0e}")
    # the initial and final snapshots, and at most one per step or interval
    every = values["run.snapshot_every"]
    n_snapshots = 2 + min(sv.step_count(values["run.t_end"], values["scheme.dt"]),
                          values["run.t_end"] / every if every else 0)
    if n_snapshots * model.n_conserved * n_lanes * values["grid.n_cells"] > (
            MAX_SNAPSHOT_VALUES):
        raise ConfigError("(2 + run.t_end / run.snapshot_every) * components * lanes."
                          f"count * grid.n_cells must be <= {MAX_SNAPSHOT_VALUES:.0e}")
    cfg = ScenarioConfig(model=model, checks=parts["check"], **built, **parts["fields"])
    # each lane's initial base must be an admissible state, and the pressure
    # table must end below the jam density
    bases = [cfg.rho_plus, cfg.rho_minus] if kind in _TWO_SPECIES else [[cfg.rho]]
    if min(map(min, bases)) < 0:
        raise ConfigError("initial densities must be >= 0")
    peaks = {"initial total density of each lane": max(map(sum, zip(*bases))),
             "table.rho_max": cfg.table_rho_max or 0.0}
    for name, peak in peaks.items():
        if kind in _PRESSURE and peak >= model.pressure.rho_star * (
                1.0 - pr.CONGESTION_REL_TOL):
            raise ConfigError(f"{name} must be < pressure.rho_star * "
                              f"(1 - {pr.CONGESTION_REL_TOL:g})")
    if kind in _PRESSURE and not _law_is_finite(model):
        raise ConfigError(
            "the pressure law overflows: offsets, partials and crossover width "
            f"must be finite at the total densities {pr.VACUUM_FLOOR:g}, pressure."
            f"rho_star / 2 and pressure.rho_star * (1 - {pr.CONGESTION_REL_TOL:g}), "
            "and a two-way model's speed bound and Delta at pressure.rho_star / 2 "
            f"and pressure.rho_star * (1 - {_SQUARES_REL_GAP:g})")
    return cfg


# The speed bound and Delta square the pressure partials, so they are probed
# short of the jam bound.  At rho_star * (1 - 1e-6) the probe keeps the gamma
# range of the offsets (about 24.5 with eps = 1e-3, rho_star = 1; at the jam
# bound it would end at 12) and rejects two_lane.cfg's law from eps = 1e136,
# where runs overflowed from about 1e153 and maps of resolution 20 to 1000
# from 1e146 to 1e151.  A map evaluates no node of its diagonal, at
# rho_star * (1 - 1e-9), and bisects no edge that ends there.
_SQUARES_REL_GAP = 1e-6


def _law_is_finite(model: md.ModelSpec) -> bool:
    """Whether the offsets of both directions, with the whole total on
    either side, all their partials and the crossover width are finite,
    with no overflow, at the smallest total the law sees (VACUUM_FLOOR), at
    rho_star / 2 and at the jam bound: the powers of rho and of
    1/rho - 1/rho_star peak at the ends.  The offsets are probed with the
    lone stream's weights (the law of the one-way kinds and of the pressure
    table) and, for a two-way model, with its own.  For a two-way model the
    speed bound (with w = 0 for two_way_ar) and, for two_way_car, Delta
    must be finite too, at the totals rho_star / 2 and
    rho_star * (1 - _SQUARES_REL_GAP), each all plus, split evenly or all
    minus."""
    law = model.pressure
    totals = np.array([pr.VACUUM_FLOOR, 0.5 * law.rho_star,
                       law.rho_star * (1.0 - pr.CONGESTION_REL_TOL)])
    zero = np.zeros_like(totals)
    weights = [(pr.LONE_STREAM, pr.LONE_STREAM)]
    if model.crowding is not None:
        weights.append((model.crowding, model.crowding_minus))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = [pr.crossover_width(law, totals)]
            for q_plus, q_minus in weights:
                p_plus, p_minus, d_plus, d_minus = pr.two_way_offsets(
                    law, q_plus, q_minus, np.concatenate([totals, zero]),
                    np.concatenate([zero, totals]), partials=True)
                values += [p_plus, p_minus, *d_plus, *d_minus]
            if model.crowding is not None:
                # through the kernels behind ModelSpec.max_abs_speed and
                # analysis.delta_field, whose calls perfbench counts per run
                probes = law.rho_star * np.array([0.5, 1.0 - _SQUARES_REL_GAP])
                share = np.array([0.0, 0.5, 1.0])
                plus = np.outer(probes, share).ravel()
                minus = np.outer(probes, 1.0 - share).ravel()
                w = 0.0 if model.V is None else model.V
                values.append(md._two_way_max_abs_speed(model, plus, minus, w, w))
                if model.kind in _ANALYSED:
                    values.append(an.diffusive_discriminant(
                        an._flux_partials(model, plus, minus)))
    except FloatingPointError:
        return False
    return all(np.isfinite(v).all() for v in values)


def load_config(path) -> ScenarioConfig:
    return build_config(parse_config(path))


# --------------------------------------------------------------------------
# noise and initial states


def _substream(seed: int, lane: int, species: int) -> np.random.Generator:
    """Independent generator for one species of one lane: PCG64 seeded
    with master_seed + 2*lane + species."""
    return np.random.Generator(np.random.PCG64(seed + 2 * lane + species))


def _noise(cfg: ScenarioConfig, lane: int, species: int) -> np.ndarray:
    if cfg.sigma == 0.0:
        return np.zeros(cfg.grid.n_cells)
    rng = _substream(cfg.seed, lane, species)
    if cfg.noise_kind == "gaussian":
        return cfg.sigma * rng.standard_normal(cfg.grid.n_cells)
    half = cfg.sigma * np.sqrt(3.0)
    return rng.uniform(-half, half, cfg.grid.n_cells)


def build_initial(cfg: ScenarioConfig) -> np.ndarray:
    """Perturbed uniform state: (C, N) for one lane, (C, K, N) for K lanes.

    Per-cell independent noise of standard deviation sigma, one
    substream per species and lane, fully determined by the seed;
    densities are clipped at zero.  Configs that give a desired speed w
    follow each density row with the momentum row rho * w.
    """
    lanes = []
    for lane in range(cfg.n_lanes):
        if cfg.model.kind in _TWO_SPECIES:
            bases = (cfg.rho_plus[lane], cfg.rho_minus[lane])
            speeds = ((cfg.w_plus[lane], cfg.w_minus[lane]) if cfg.w_plus
                      else (None, None))
        else:
            bases, speeds = (cfg.rho,), (cfg.w,)
        rows = []
        for species, base in enumerate(bases):
            rows.append(np.maximum(base + _noise(cfg, lane, species), 0.0))
            if speeds[species] is not None:
                rows.append(rows[-1] * speeds[species])
        lanes.append(np.stack(rows))
    return lanes[0] if cfg.n_lanes == 1 else np.stack(lanes, axis=1)


# --------------------------------------------------------------------------
# cluster metrics


@dataclass(frozen=True)
class ClusterMetrics:
    """Connected high-density regions of one snapshot."""

    count: int
    centroids: np.ndarray
    peak_total: float
    main_centroid: float | None = None


def cluster_metrics(model, U: np.ndarray, grid: sv.Grid1D,
                    threshold: float) -> ClusterMetrics:
    """Maximal periodic runs of cells of the state U with total density >= threshold.

    Centroids are density-weighted circular means of the cell centers in
    each run; main_centroid belongs to the most massive cluster.
    """
    total = sv.density_view(model, U).sum(axis=0)
    mask = total >= threshold
    if not mask.any():
        return ClusterMetrics(0, np.empty(0), 0.0)
    if mask.all():
        cent = _circular_centroid(grid, total, np.arange(grid.n_cells))
        return ClusterMetrics(1, np.array([cent]), float(total.max()), cent)
    starts = np.nonzero(mask & ~np.roll(mask, 1))[0]
    centroids, masses = [], []
    for start in starts:
        idx = [start]
        j = (start + 1) % grid.n_cells
        while mask[j]:
            idx.append(j)
            j = (j + 1) % grid.n_cells
        idx = np.asarray(idx)
        centroids.append(_circular_centroid(grid, total, idx))
        masses.append(float(total[idx].sum()))
    centroids = np.asarray(centroids)
    main = centroids[int(np.argmax(masses))]
    return ClusterMetrics(len(starts), centroids, float(total.max()), main)


def _circular_centroid(grid: sv.Grid1D, weights: np.ndarray, idx: np.ndarray) -> float:
    theta = 2.0 * np.pi * grid.x[idx] / grid.length
    w = weights[idx]
    angle = np.arctan2(np.sum(w * np.sin(theta)), np.sum(w * np.cos(theta)))
    return float((angle / (2.0 * np.pi) * grid.length) % grid.length)


def cluster_drift(prev_centroid: float, centroid: float, length: float,
                  dt: float) -> float:
    """Signed centroid displacement per time, wrapped to [-L/2, L/2)."""
    disp = (centroid - prev_centroid + 0.5 * length) % length - 0.5 * length
    return disp / dt


# --------------------------------------------------------------------------
# analysis tables


def _stability_summary(speeds: an.DiffusiveSpeeds, delta_diff):
    """The stability summary of a state, or None: a state that is not
    hyperbolic has one only with a positive diffusivity."""
    if delta_diff > 0 or an.diffusive_discriminant(speeds) >= 0:
        return an.instability_summary(speeds, delta_diff)
    return None


def emit_dispersion_table(speeds: an.DiffusiveSpeeds, delta_diff, xi_grid):
    """Mode frequencies s = xi * lam(xi) over a wave-number grid, for the
    linearisation speeds of one state.

    Returns (meta, columns): meta carries the stability summary of the
    state (empty without one), columns are the float arrays xi, Re s+,
    Im s+, Re s- and Im s-.
    """
    report = _stability_summary(speeds, delta_diff)
    meta = dict(_summary_rows(report)) if report is not None else {}
    xi = np.asarray(xi_grid, dtype=float)
    s_plus, s_minus = (xi * lam for lam in an.dispersion(speeds, delta_diff, xi))
    return meta, (xi, s_plus.real, s_plus.imag, s_minus.real, s_minus.imag)


# --------------------------------------------------------------------------
# scenario runner


@dataclass
class ScenarioResult:
    """In-memory view of one scenario's artifacts."""

    config: ScenarioConfig
    run: sv.RunResult | None = None
    stability: an.StabilityReport | None = None
    clusters: list = dc_field(default_factory=list)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header, columns, comments=()):
    """Write the CSV of columns under header, after a `# key=value` line per
    (key, value) pair of comments: the one place where values become CSV text.

    A scalar column (a str, or a number, as a snapshot's t) is one field,
    formatted once and repeated on every row; a float array is written by
    repr and an int array in decimal; any other sequence value by value
    (_fmt: None is an empty field).  Rows are formatted while written.
    """
    fields = []
    for c in columns:
        if np.isscalar(c):
            fields.append(repeat(_fmt(c)))
        elif isinstance(c, np.ndarray):
            fields.append(map(repr if c.dtype.kind == "f" else str, c.tolist()))
        else:
            fields.append(map(_fmt, c))
    with open(path, "w", newline="\n") as f:
        f.writelines(f"# {key}={_fmt(value)}\n" for key, value in comments)
        f.write(",".join(header) + "\n")
        for row in zip(*fields):
            f.write(",".join(row) + "\n")


def _write_snapshot(path: Path, t: float, U: np.ndarray, grid: sv.Grid1D):
    """The CSV of the state U at time t: a (C, N) lane or a (C, K, N) stack.

    A stack gets a lane column, and its rows run lane by lane.
    """
    several = U.ndim == 3
    n_comp, n_lanes = len(U), U.shape[1] if several else 1
    lead = [t, np.repeat(np.arange(n_lanes), grid.n_cells)] if several else [t]
    header = ["t", "lane", "x"] if several else ["t", "x"]
    _write_csv(path, header + [f"component_{c}" for c in range(n_comp)],
               [*lead, np.tile(grid.x, n_lanes), *U.reshape(n_comp, -1)])


# Snapshot sets whose odd-indexed snapshots hold at least this many state
# values are written by two processes.  A fork, pipe and wait cost 2.2-4.5
# ms (quartiles of 61 calls, in processes of 33 MB and 131 MB) and
# formatting one value about 1.5 us, so two processes broke even at 2**12
# to 2**14 values (two snapshots of 4 components, medians of 21
# alternating runs on a shared 2-core x86-64 machine).  The bound stays
# above that noise: every bundled scenario (at most 5,120 values in its
# odd-indexed snapshots) is written by one process.
_FORK_MIN_VALUES = 2**15


def _write_snapshots(snapdir: Path, snapshots, grid: sv.Grid1D):
    """Write the (t, U) snapshot k to snapdir / snap_{k:06d}.csv.

    Where the odd-indexed snapshots hold at least _FORK_MIN_VALUES values,
    a forked child writes those while this process writes the even-indexed
    ones (see _fork.two_process_map, which also says how errors surface).
    """
    def write(idx):
        _write_snapshot(snapdir / f"snap_{idx:06d}.csv", *snapshots[idx], grid)

    odd_values = sum(U.size for _, U in snapshots[1::2])
    two_process_map(write, range(len(snapshots)), odd_values >= _FORK_MIN_VALUES)


def _summary_rows(report: an.StabilityReport):
    return [
        ("delta", report.delta),
        ("hyperbolic", int(report.hyperbolic)),
        ("unstable_xi_max", report.unstable_xi_max),
        ("dominant_xi", report.dominant_xi),
        ("max_growth_rate", report.max_growth_rate),
        ("dominant_length", report.dominant_length),
    ]


def _stability_rows(report: an.StabilityReport):
    rows = _summary_rows(report)
    if report.eigenvalues is not None:
        rows += zip(("eigenvalue_minus", "eigenvalue_plus"), report.eigenvalues)
    return rows


def run_scenario(cfg: ScenarioConfig, outdir) -> ScenarioResult:
    """Run one scenario and write its artifact set under outdir; both run
    modes hand their snapshots and audit columns to one writer."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    result = ScenarioResult(config=cfg)

    if cfg.model.kind in _ANALYSED:
        speeds = an.diffusive_speeds(cfg.model, cfg.rho_plus[0], cfg.rho_minus[0])
        result.stability = _stability_summary(speeds, cfg.scheme.delta_diff)

    U = build_initial(cfg)
    if cfg.n_lanes == 1:
        result.run = sv.run(cfg.model, U, cfg.grid, cfg.scheme, cfg.t_end,
                            cfg.snapshot_every)
        snapshots, audit = result.run.snapshots, result.run.audit
        header = (["step", "t", "cfl"] + [f"mass_{c}" for c in range(len(U))]
                  + ["min_rho", "max_rho", "clipped_mass"])
        columns = (audit.step, audit.t, audit.cfl, *audit.mass.T,
                   audit.min_rho, audit.max_rho, audit.clipped_mass)
    else:
        snapshots, columns = _run_multilane(cfg, U)
        header = ["step", "t", "cfl", "mass_plus_total", "mass_minus_total",
                  "min_rho", "max_rho"]
    _write_snapshots(snapdir, snapshots, cfg.grid)
    _write_csv(outdir / "audit.csv", header, columns)

    if cfg.n_lanes == 1 and cfg.model.kind in _TWO_SPECIES:
        prev_t = prev_centroid = None
        for t, U in snapshots:
            metrics = cluster_metrics(cfg.model, U, cfg.grid, cfg.cluster_threshold)
            drift = None
            if prev_centroid is not None and metrics.main_centroid is not None:
                drift = cluster_drift(prev_centroid, metrics.main_centroid,
                                      cfg.grid.length, t - prev_t)
            result.clusters.append((t, metrics, drift))
            prev_t, prev_centroid = t, metrics.main_centroid
        times, metrics, drifts = zip(*result.clusters)
        _write_csv(outdir / "clusters.csv",
                   ["t", "count", "peak_total", "main_centroid", "drift_velocity"],
                   [times, [m.count for m in metrics], [m.peak_total for m in metrics],
                    [m.main_centroid for m in metrics], drifts])
    if result.stability is not None:
        _write_csv(outdir / "stability.csv", ["key", "value"],
                   zip(*_stability_rows(result.stability)))
    return result


def _run_multilane(cfg, U):
    """Step the (C, K, N) state U of a multi-lane run to cfg.t_end; returns
    its (t, U) snapshots and its audit columns (see run_scenario's header).
    Sets step and t on a PedflowError, as solver.run does."""
    mass_dir = ml.lane_densities(cfg.model, U).sum(axis=(0, 2)) * cfg.grid.dx
    mass_budget = sv.CLIP_BUDGET_REL * float(np.sum(mass_dir))
    n_steps = sv.step_count(cfg.t_end, cfg.scheme.dt)
    time, offsets, clipped_total = 0.0, None, 0.0
    snapshots = [(time, U.copy())]
    audit_rows = []
    next_snap = cfg.snapshot_every
    k = 0
    try:
        sv.check_admissible(cfg.model, U)
        for k in range(1, n_steps + 1):
            # kept while perfbench pins two_lane_car's speed_bound_useful_ratio at 0.5
            cfl = sv.measured_cfl(cfg.model, U, cfg.grid, cfg.scheme)
            U, offsets, clipped = ml.coupled_step(cfg.model, cfg.rates, U, offsets,
                                                  cfg.grid, cfg.scheme, time)
            time += cfg.scheme.dt
            clipped_total += clipped
            if clipped_total > mass_budget:
                raise ClipBudgetError(
                    f"clipped mass {clipped_total:.3e} exceeds budget "
                    f"{mass_budget:.3e}"
                )
            t = k * cfg.scheme.dt
            dens = ml.lane_densities(cfg.model, U)
            mass_dir = np.add.reduce(dens, axis=(0, 2)) * cfg.grid.dx
            audit_rows.append((t, cfl, mass_dir[0], mass_dir[1],
                               float(np.minimum.reduce(dens, axis=None)),
                               float(np.maximum.reduce(dens, axis=None))))
            if next_snap is not None and t >= next_snap - 1e-9 * cfg.scheme.dt:
                snapshots.append((time, U.copy()))
                next_snap += cfg.snapshot_every
    except PedflowError as exc:
        exc.step, exc.t = k, k * cfg.scheme.dt
        raise
    if n_steps > 0 and snapshots[-1][0] < time - 1e-9 * cfg.scheme.dt:
        snapshots.append((time, U.copy()))
    # one column per audit field, also for a run of no step
    columns = np.array(audit_rows, dtype=float).reshape(-1, 6).T
    return snapshots, (np.arange(1, len(audit_rows) + 1), *columns)


# --------------------------------------------------------------------------
# --check assertions


def evaluate_checks(result: ScenarioResult) -> list:
    """Evaluate the check.* expectations of a single-lane run.

    Returns failure messages.  The config has been validated, so cluster
    checks only come with runs that have cluster metrics.
    """
    cfg = result.config
    failures = []
    final = result.clusters[-1][1] if result.clusters else None
    for key, value in cfg.checks.items():
        name = key[len("check."):]
        if name == "final_supnorm_lt":
            dens = sv.density_view(cfg.model, result.run.snapshots[-1][1])
            uniform = [cfg.rho_plus[0], cfg.rho_minus[0]] if len(dens) == 2 else [cfg.rho]
            dev = max(float(np.max(np.abs(d - u))) for d, u in zip(dens, uniform))
            if not dev < value:
                failures.append(f"{key}: deviation {dev:.3e} not < {value:.3e}")
        elif name == "cluster_count_min" and final.count < value:
            failures.append(f"{key}: final count {final.count} < {value}")
        elif name == "cluster_count_max" and final.count > value:
            failures.append(f"{key}: final count {final.count} > {value}")
        elif name == "peak_total_ge" and final.peak_total < value:
            failures.append(f"{key}: peak {final.peak_total} < {value}")
        elif name == "drift_negative" and value:
            drifts = [d for (_, _, d) in result.clusters if d is not None]
            if not drifts or not np.mean(drifts[-3:]) < 0:
                failures.append(f"{key}: drift not negative")
    return failures


# --------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: ScenarioConfig, outdir: Path, args) -> int:
    result = run_scenario(cfg, outdir)
    if args.check:
        failures = evaluate_checks(result)
        if failures:
            for msg in failures:
                print(f"check failed: {msg}", file=sys.stderr)
            return 4
    return 0


def _cmd_hyperbolicity_map(cfg: ScenarioConfig, outdir: Path, args) -> int:
    # a node whose Delta overflows would be classified by a NaN
    try:
        with np.errstate(over="raise", invalid="raise"):
            hmap = an.hyperbolicity_map(cfg.model, cfg.map_resolution)
    except FloatingPointError as exc:
        print(f"numerical failure: Delta is not finite on the map ({exc})",
              file=sys.stderr)
        return 3
    (outdir / "map.txt").write_text(hmap.to_table_text())
    _write_csv(outdir / "boundary.csv", ["rho_plus", "rho_minus"],
               hmap.boundary_points.T)
    return 0


def _cmd_dispersion(cfg: ScenarioConfig, outdir: Path, args) -> int:
    speeds = an.diffusive_speeds(cfg.model, cfg.rho_plus[0], cfg.rho_minus[0])
    delta = an.diffusive_discriminant(speeds)
    xi_max = cfg.dispersion_xi_max
    if xi_max is None:
        if delta < 0 and cfg.scheme.delta_diff > 0:
            xi_max = 1.5 * np.sqrt(-delta) / (2.0 * cfg.scheme.delta_diff)
        else:
            xi_max = 2.0
    xi_grid = np.linspace(0.0, xi_max, cfg.dispersion_n_points)
    meta, columns = emit_dispersion_table(speeds, cfg.scheme.delta_diff, xi_grid)
    _write_csv(outdir / "dispersion.csv",
               ["xi", "re_s_plus", "im_s_plus", "re_s_minus", "im_s_minus"], columns,
               meta.items())
    return 0


def _cmd_pressure_table(cfg: ScenarioConfig, outdir: Path, args) -> int:
    params = cfg.model.pressure
    rho_max = cfg.table_rho_max
    if rho_max is None:  # the band edge, which is <= 0 from eps = 1 on
        edge = 1.0 - params.eps ** (1.0 / params.gamma)
        rho_max = params.rho_star * (edge if 0.0 < edge < 0.999 else 0.999)
    rho = np.linspace(0.0, rho_max, cfg.table_n_points)
    lone = (pr.LONE_STREAM, pr.LONE_STREAM)
    p, _, (dp, _), _ = pr.two_way_offsets(params, *lone, rho, 0.0, partials=True)
    # the background and singular parts: the law with eps, then M, set to 0
    P, S = (pr.two_way_offsets(replace(params, **{key: 0.0}), *lone, rho, 0.0)[0]
            for key in ("eps", "M"))
    _write_csv(outdir / "pressure_table.csv",
               ["rho", "background", "singular", "total", "total_derivative",
                "crossover_width"],
               (rho, P, S, p, dp, pr.crossover_width(params, rho)))
    return 0


# Subcommand -> (handler(cfg, outdir, args), the model kinds it supports).
SUBCOMMANDS = {
    "simulate": (_cmd_simulate, _ALL),
    "hyperbolicity-map": (_cmd_hyperbolicity_map, _ANALYSED),
    "dispersion": (_cmd_dispersion, _ANALYSED),
    "pressure-table": (_cmd_pressure_table, _PRESSURE),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pedflow",
        description="Two-way corridor crowd models: simulate and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "simulate":
            p.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    handler, kinds = SUBCOMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if cfg.model.kind not in kinds:
            raise ConfigError(
                f"{args.command} does not support model.kind {cfg.model.kind.value}"
            )
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return handler(cfg, outdir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PedflowError as exc:
        # Once stepping has started the config has been accepted, so an
        # error there, even a domain error such as reaching the jam density,
        # means the run failed numerically, not that its config is wrong.
        if exc.step is not None:
            print(f"numerical failure: {exc} (step {exc.step}, t = {exc.t:.6g})",
                  file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
