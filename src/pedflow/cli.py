"""Batch front end: scenario configs, seeded noise, artifact emission.

A scenario is described by a flat key = value text file (dotted key
namespaces, '#' comments); see the README for the full key schema.  The
`simulate` subcommand runs it and writes per-snapshot CSV files, a
per-step audit CSV, a linear-stability summary of the initial uniform
state and per-snapshot cluster metrics.  `hyperbolicity-map`,
`dispersion` and `pressure-table` emit the corresponding analysis
tables without time stepping.

Noise is reproducible by construction: every species/lane pair draws
from its own numpy PCG64 generator seeded with master_seed + 2*lane +
species, so identical configs produce identical artifact bytes.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import analysis as an
from . import models as md
from . import multilane as ml
from . import pressure as pr
from . import solver as sv
from .errors import ClipBudgetError, ConfigError, DomainError, PedflowError

# Kinds with two density species, rho_plus and rho_minus: the only kinds
# that run several lanes and whose runs write cluster metrics.
_TWO_SPECIES = (md.ModelKind.SIM_FLUX, md.ModelKind.TWO_WAY_CAR, md.ModelKind.TWO_WAY_AR)

_KNOWN_KEYS = {
    "model.kind", "model.a", "model.V",
    "pressure.M", "pressure.m", "pressure.eps", "pressure.gamma",
    "pressure.rho_star",
    "crowding.kind", "crowding.beta",
    "crowding_minus.kind", "crowding_minus.beta",
    "grid.n_cells", "grid.dx",
    "scheme.dt", "scheme.delta", "scheme.limiter", "scheme.cfl_guard",
    "initial.rho_plus", "initial.rho_minus", "initial.w_plus",
    "initial.w_minus", "initial.rho", "initial.w",
    "noise.sigma", "noise.seed", "noise.kind",
    "run.t_end", "run.snapshot_every",
    "cluster.threshold",
    "lanes.count",
    "rates.lambda0", "rates.ramp", "rates.cutoff",
    "map.resolution",
    "dispersion.xi_max", "dispersion.n_points",
    "table.n_points", "table.rho_max",
}


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
        if key not in _KNOWN_KEYS and not key.startswith("check."):
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def _get(raw, key, cast, default=None, required=False, positive=False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        value = cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}': {raw[key]!r}") from exc
    if positive and not value > 0:
        raise ConfigError(f"{key} must be > 0")
    return value


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


def _per_lane(raw, key, n_lanes: int) -> list:
    """One value per lane from a comma list; a single value serves every lane."""
    values = _get(raw, key, _float_list, required=True)
    if len(values) == 1:
        return values * n_lanes
    if len(values) != n_lanes:
        raise ConfigError(
            f"{key} lists {len(values)} values for {n_lanes} lane(s); "
            "give one value per lane or one for all"
        )
    return values


# check.* expectations and the type of their values.  All but
# final_supnorm_lt read the cluster metrics of single-lane runs.
_CHECKS = {
    "final_supnorm_lt": _float,
    "cluster_count_min": int,
    "cluster_count_max": int,
    "peak_total_ge": _float,
    "drift_negative": _bool,
}


@dataclass
class ScenarioConfig:
    """Typed scenario description assembled from a raw key dict."""

    model: md.ModelSpec
    grid: sv.Grid1D
    scheme: sv.SchemeParams
    rho_plus: list = dc_field(default_factory=list)
    rho_minus: list = dc_field(default_factory=list)
    w_plus: list = dc_field(default_factory=list)
    w_minus: list = dc_field(default_factory=list)
    rho: float | None = None
    w: float | None = None
    sigma: float = 0.0
    seed: int = 0
    noise_kind: str = "gaussian"
    t_end: float = 0.0
    snapshot_every: float | None = None
    cluster_threshold: float | None = None
    n_lanes: int = 1
    rates: ml.LaneChangeRates = dc_field(default_factory=ml.LaneChangeRates)
    checks: dict = dc_field(default_factory=dict)
    map_resolution: int = 200
    dispersion_xi_max: float | None = None
    dispersion_n_points: int = 501
    table_n_points: int = 200
    table_rho_max: float | None = None


def _build_pressure(raw) -> pr.PressureParams | None:
    if "pressure.M" not in raw:
        return None
    return pr.PressureParams(
        M=_get(raw, "pressure.M", _float, required=True),
        m=_get(raw, "pressure.m", _float, required=True),
        eps=_get(raw, "pressure.eps", _float, 0.0),
        gamma=_get(raw, "pressure.gamma", _float, 2.0),
        rho_star=_get(raw, "pressure.rho_star", _float, 1.0),
    )


def _build_crowding(raw, prefix="crowding") -> pr.CrowdingWeight | None:
    if f"{prefix}.kind" not in raw and f"{prefix}.beta" not in raw:
        return None
    return pr.CrowdingWeight(
        kind=_get(raw, f"{prefix}.kind", str, "affine"),
        beta=_get(raw, f"{prefix}.beta", _float, 1.0),
    )


def build_model(raw) -> md.ModelSpec:
    kind = _get(raw, "model.kind", str, required=True)
    try:
        kind = md.ModelKind(kind)
    except ValueError as exc:
        raise ConfigError(f"unknown model.kind '{kind}'") from exc
    try:
        if kind is md.ModelKind.SIM_FLUX:
            return md.ModelSpec.sim_flux(a=_get(raw, "model.a", _float, 0.7))
        pressure = _build_pressure(raw)
        if pressure is None:
            raise ConfigError(f"model.kind {kind.value} requires pressure.* keys")
        if kind is md.ModelKind.ONE_WAY_CAR:
            return md.ModelSpec.one_way_car(
                V=_get(raw, "model.V", _float, required=True), pressure=pressure
            )
        if kind is md.ModelKind.ONE_WAY_AR:
            return md.ModelSpec.one_way_ar(pressure)
        crowding = _build_crowding(raw) or pr.CrowdingWeight()
        crowding_minus = _build_crowding(raw, "crowding_minus")
        if kind is md.ModelKind.TWO_WAY_CAR:
            return md.ModelSpec.two_way_car(
                V=_get(raw, "model.V", _float, required=True),
                pressure=pressure,
                crowding=crowding,
                crowding_minus=crowding_minus,
            )
        return md.ModelSpec.two_way_ar(
            pressure, crowding=crowding, crowding_minus=crowding_minus
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def build_config(raw: dict) -> ScenarioConfig:
    """Validate a raw key dict into a ScenarioConfig."""
    model = build_model(raw)
    try:
        grid = sv.Grid1D(
            n_cells=_get(raw, "grid.n_cells", int, required=True),
            dx=_get(raw, "grid.dx", _float, required=True),
        )
        scheme = sv.SchemeParams(
            dt=_get(raw, "scheme.dt", _float, required=True),
            delta_diff=_get(raw, "scheme.delta", _float, 0.0),
            limiter=_get(raw, "scheme.limiter", str, "minmod"),
            cfl_guard=_get(raw, "scheme.cfl_guard", _float, 0.45),
        )
        rates = ml.LaneChangeRates(
            lambda0=_get(raw, "rates.lambda0", _float, 0.0),
            ramp=_get(raw, "rates.ramp", str, "positive_part"),
            cutoff=_get(raw, "rates.cutoff", str, "linear"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = ScenarioConfig(model=model, grid=grid, scheme=scheme, rates=rates)
    cfg.n_lanes = _get(raw, "lanes.count", int, 1)
    if cfg.n_lanes < 1:
        raise ConfigError("lanes.count must be >= 1")
    if cfg.n_lanes > 1 and rates.lambda0 * scheme.dt > 1.0 + 1e-12:
        raise ConfigError(
            f"rates.lambda0 * scheme.dt = {rates.lambda0 * scheme.dt:.3g} exceeds 1"
        )

    if model.kind in _TWO_SPECIES:
        cfg.rho_plus = _per_lane(raw, "initial.rho_plus", cfg.n_lanes)
        cfg.rho_minus = _per_lane(raw, "initial.rho_minus", cfg.n_lanes)
        if model.kind is md.ModelKind.TWO_WAY_AR:
            cfg.w_plus = _per_lane(raw, "initial.w_plus", cfg.n_lanes)
            cfg.w_minus = _per_lane(raw, "initial.w_minus", cfg.n_lanes)
    else:
        if cfg.n_lanes != 1:
            raise ConfigError("multi-lane runs require a two-way model")
        cfg.rho = _get(raw, "initial.rho", _float, required=True)
        if model.kind is md.ModelKind.ONE_WAY_AR:
            cfg.w = _get(raw, "initial.w", _float, required=True)

    if "noise.seed" not in raw:
        raise ConfigError("noise.seed is mandatory (no wall-clock seeding)")
    cfg.seed = _get(raw, "noise.seed", int, required=True)
    if cfg.seed < 0:
        raise ConfigError("noise.seed must be >= 0")
    cfg.sigma = _get(raw, "noise.sigma", _float, 0.0)
    cfg.noise_kind = _get(raw, "noise.kind", str, "gaussian")
    if cfg.noise_kind not in ("gaussian", "uniform"):
        raise ConfigError("noise.kind must be 'gaussian' or 'uniform'")
    if cfg.sigma < 0:
        raise ConfigError("noise.sigma must be >= 0")

    cfg.t_end = _get(raw, "run.t_end", _float, 0.0)
    if cfg.t_end < 0:
        raise ConfigError("run.t_end must be >= 0")
    cfg.snapshot_every = _get(raw, "run.snapshot_every", _float, positive=True)
    rho_star = model.pressure.rho_star if model.pressure is not None else 1.0
    cfg.cluster_threshold = _get(raw, "cluster.threshold", _float, 0.9 * rho_star)
    cfg.map_resolution = _get(raw, "map.resolution", int, 200)
    cfg.dispersion_xi_max = _get(raw, "dispersion.xi_max", _float, None)
    cfg.dispersion_n_points = _get(raw, "dispersion.n_points", int, 501, positive=True)
    cfg.table_n_points = _get(raw, "table.n_points", int, 200, positive=True)
    cfg.table_rho_max = _get(raw, "table.rho_max", _float, None)
    cfg.checks = _build_checks(raw, cfg)
    return cfg


def _build_checks(raw, cfg: ScenarioConfig) -> dict:
    """Parsed check.* expectations, keyed by their config key."""
    keys = [key for key in raw if key.startswith("check.")]
    if keys and cfg.n_lanes > 1:
        raise ConfigError("check.* keys apply to single-lane runs only")
    checks = {}
    for key in keys:
        name = key[len("check."):]
        if name not in _CHECKS:
            raise ConfigError(f"unknown check '{key}'")
        if name != "final_supnorm_lt" and cfg.model.kind not in _TWO_SPECIES:
            raise ConfigError(f"{key} needs cluster metrics, which "
                              f"{cfg.model.kind.value} runs do not write")
        checks[key] = _get(raw, key, _CHECKS[name])
    return checks


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


def build_initial(cfg: ScenarioConfig) -> sv.StateField:
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
    return sv.StateField(lanes[0] if cfg.n_lanes == 1 else np.stack(lanes, axis=1))


# --------------------------------------------------------------------------
# cluster metrics


@dataclass(frozen=True)
class ClusterMetrics:
    """Connected high-density regions of one snapshot."""

    count: int
    centroids: np.ndarray
    peak_total: float
    main_centroid: float | None = None


def _total_density(model: md.ModelSpec, values: np.ndarray) -> np.ndarray:
    return values[list(model.density_rows)].sum(axis=0)


def cluster_metrics(model, field: sv.StateField, grid: sv.Grid1D,
                    threshold: float) -> ClusterMetrics:
    """Maximal periodic runs of cells with total density >= threshold.

    Centroids are density-weighted circular means of the cell centers in
    each run; main_centroid belongs to the most massive cluster.
    """
    total = _total_density(model, field.values)
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


def emit_dispersion_table(model, rho_plus, rho_minus, delta_diff, xi_grid):
    """Mode frequencies s = xi * lam(xi) over a wave-number grid.

    Returns (meta, rows): meta carries the stability summary of the
    state, rows are (xi, Re s+, Im s+, Re s-, Im s-).
    """
    speeds = an.diffusive_speeds(model, rho_plus, rho_minus)
    meta = dict(_summary_rows(an.instability_summary(speeds, delta_diff)))
    rows = []
    for xi in np.asarray(xi_grid, dtype=float):
        lam_plus, lam_minus = an.dispersion(speeds, delta_diff, float(xi))
        s_plus = xi * lam_plus
        s_minus = xi * lam_minus
        rows.append((float(xi), s_plus.real, s_plus.imag, s_minus.real, s_minus.imag))
    return meta, rows


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


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_snapshot(path: Path, snap: sv.StateField, grid: sv.Grid1D):
    """One snapshot CSV of a (C, N) lane or a (C, K, N) stack of lanes.

    A stack gets a lane column, and its rows run lane by lane.
    """
    several = snap.values.ndim == 3
    lanes = snap.values if several else snap.values[:, None]
    n_comp = snap.n_components
    header = ["t", "lane", "x"] if several else ["t", "x"]
    rows = []
    x = grid.x
    for lane in range(lanes.shape[1]):
        for i in range(grid.n_cells):
            row = [snap.time, lane, x[i]] if several else [snap.time, x[i]]
            rows.append(row + [lanes[c, lane, i] for c in range(n_comp)])
    _write_csv(path, header + [f"component_{c}" for c in range(n_comp)], rows)


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
        rows += [
            ("eigenvalue_minus", report.eigenvalues[0]),
            ("eigenvalue_plus", report.eigenvalues[1]),
        ]
    return rows


@contextmanager
def _stepping():
    """Mark every package error raised inside as raised while stepping.

    Once stepping has started the config has been accepted, so an error
    there, even a domain error such as reaching the jam density, means
    the run failed numerically (exit code 3), not that its config is
    wrong (exit code 2).
    """
    try:
        yield
    except PedflowError as exc:
        exc.while_stepping = True
        raise


def run_scenario(cfg: ScenarioConfig, outdir) -> ScenarioResult:
    """Run one scenario and write its artifact set under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    result = ScenarioResult(config=cfg)

    if cfg.model.kind in (md.ModelKind.SIM_FLUX, md.ModelKind.TWO_WAY_CAR):
        speeds = an.diffusive_speeds(cfg.model, cfg.rho_plus[0], cfg.rho_minus[0])
        if cfg.scheme.delta_diff > 0 or an.diffusive_discriminant(speeds) >= 0:
            result.stability = an.instability_summary(speeds, cfg.scheme.delta_diff)

    field = build_initial(cfg)
    if cfg.n_lanes == 1:
        with _stepping():
            run_result = sv.run(
                cfg.model, field, cfg.grid, cfg.scheme, cfg.t_end, cfg.snapshot_every
            )
        result.run = run_result
        _write_single_lane_artifacts(cfg, result, run_result, outdir, snapdir)
    else:
        _run_multilane(cfg, field.values, outdir, snapdir)

    if result.stability is not None:
        _write_csv(outdir / "stability.csv", ["key", "value"],
                   _stability_rows(result.stability))
    return result


def _write_single_lane_artifacts(cfg, result, run_result, outdir, snapdir):
    for idx, snap in enumerate(run_result.snapshots):
        _write_snapshot(snapdir / f"snap_{idx:06d}.csv", snap, cfg.grid)

    audit = run_result.audit
    n_comp = run_result.snapshots[0].n_components
    header = (
        ["step", "t", "cfl"]
        + [f"mass_{c}" for c in range(n_comp)]
        + ["min_rho", "max_rho", "clipped_mass"]
    )
    rows = [
        [audit.step[i], audit.t[i], audit.cfl[i]]
        + list(audit.mass[i])
        + [audit.min_rho[i], audit.max_rho[i], audit.clipped_mass[i]]
        for i in range(len(audit.step))
    ]
    _write_csv(outdir / "audit.csv", header, rows)

    if cfg.model.kind in _TWO_SPECIES:
        prev = None
        cluster_rows = []
        for snap in run_result.snapshots:
            metrics = cluster_metrics(cfg.model, snap, cfg.grid, cfg.cluster_threshold)
            drift = None
            if (
                prev is not None
                and metrics.main_centroid is not None
                and prev[1] is not None
            ):
                drift = cluster_drift(
                    prev[1], metrics.main_centroid, cfg.grid.length,
                    snap.time - prev[0],
                )
            result.clusters.append((snap.time, metrics, drift))
            cluster_rows.append(
                (snap.time, metrics.count, metrics.peak_total,
                 metrics.main_centroid, drift)
            )
            prev = (snap.time, metrics.main_centroid)
        _write_csv(
            outdir / "clusters.csv",
            ["t", "count", "peak_total", "main_centroid", "drift_velocity"],
            cluster_rows,
        )


def _run_multilane(cfg, initial, outdir, snapdir):
    stack = ml.LaneStack(model=cfg.model, values=initial, rates=cfg.rates)
    mass_budget = sv.CLIP_BUDGET_REL * float(np.sum(stack.direction_mass(cfg.grid)))
    n_steps = int(np.ceil(cfg.t_end / cfg.scheme.dt - 1e-9)) if cfg.t_end > 0 else 0
    snapshots = [sv.StateField(stack.values.copy(), stack.time)]
    audit_rows = []
    next_snap = cfg.snapshot_every
    with _stepping():
        for k in range(1, n_steps + 1):
            cfl = sv.measured_cfl(
                cfg.model, sv.StateField(stack.values), cfg.grid, cfg.scheme
            )
            stack = ml.coupled_step(stack, cfg.grid, cfg.scheme)
            if stack.clipped_mass > mass_budget:
                raise ClipBudgetError(
                    f"clipped mass {stack.clipped_mass:.3e} exceeds budget "
                    f"{mass_budget:.3e}"
                )
            t = k * cfg.scheme.dt
            dens = stack.densities()
            mass_dir = dens.sum(axis=(0, 2)) * cfg.grid.dx
            audit_rows.append(
                (k, t, cfl, mass_dir[0], mass_dir[1], float(dens.min()),
                 float(dens.max()))
            )
            if next_snap is not None and t >= next_snap - 1e-9 * cfg.scheme.dt:
                snapshots.append(sv.StateField(stack.values.copy(), stack.time))
                next_snap += cfg.snapshot_every
    if n_steps > 0 and snapshots[-1].time < stack.time - 1e-9:
        snapshots.append(sv.StateField(stack.values.copy(), stack.time))

    for idx, snap in enumerate(snapshots):
        _write_snapshot(snapdir / f"snap_{idx:06d}.csv", snap, cfg.grid)
    _write_csv(
        outdir / "audit.csv",
        ["step", "t", "cfl", "mass_plus_total", "mass_minus_total",
         "min_rho", "max_rho"],
        audit_rows,
    )


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
            values = result.run.final.values
            rows = list(cfg.model.density_rows)
            uniform = [cfg.rho_plus[0], cfg.rho_minus[0]] if len(rows) == 2 else [cfg.rho]
            dev = max(
                float(np.max(np.abs(values[r] - uniform[j])))
                for j, r in enumerate(rows)
            )
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


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_scenario(cfg, args.out)
    if args.check:
        failures = evaluate_checks(result)
        if failures:
            for msg in failures:
                print(f"check failed: {msg}", file=sys.stderr)
            return 4
    return 0


def _cmd_hyperbolicity_map(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    hmap = an.hyperbolicity_map(cfg.model, cfg.map_resolution)
    (outdir / "map.txt").write_text(hmap.to_table_text())
    _write_csv(
        outdir / "boundary.csv",
        ["rho_plus", "rho_minus"],
        [tuple(point) for point in hmap.boundary_points],
    )
    return 0


def _cmd_dispersion(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    speeds = an.diffusive_speeds(cfg.model, cfg.rho_plus[0], cfg.rho_minus[0])
    delta = an.diffusive_discriminant(speeds)
    xi_max = cfg.dispersion_xi_max
    if xi_max is None:
        if delta < 0 and cfg.scheme.delta_diff > 0:
            xi_max = 1.5 * np.sqrt(-delta) / (2.0 * cfg.scheme.delta_diff)
        else:
            xi_max = 2.0
    xi_grid = np.linspace(0.0, xi_max, cfg.dispersion_n_points)
    meta, rows = emit_dispersion_table(
        cfg.model, cfg.rho_plus[0], cfg.rho_minus[0], cfg.scheme.delta_diff, xi_grid
    )
    with open(outdir / "dispersion.csv", "w", newline="\n") as f:
        for key, value in meta.items():
            f.write(f"# {key}={_fmt(value)}\n")
        f.write("xi,re_s_plus,im_s_plus,re_s_minus,im_s_minus\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def _cmd_pressure_table(args) -> int:
    cfg = load_config(args.config)
    if cfg.model.pressure is None:
        raise ConfigError("pressure-table requires a pressure-based model")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    params = cfg.model.pressure
    rho_max = cfg.table_rho_max
    if rho_max is None:
        rho_max = min(params.rho_star * (1.0 - params.eps ** (1.0 / params.gamma)),
                      params.rho_star * 0.999)
    rows = [
        (
            r,
            pr.background_pressure(params, r),
            pr.singular_correction_1w(params, r),
            pr.pressure_1w(params, r),
            pr.pressure_1w_derivative(params, r),
            pr.crossover_width(params, r) if r > 0 else 0.0,
        )
        for r in np.linspace(0.0, rho_max, cfg.table_n_points)
    ]
    _write_csv(
        outdir / "pressure_table.csv",
        ["rho", "background", "singular", "total", "total_derivative",
         "crossover_width"],
        rows,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pedflow",
        description="Two-way corridor crowd models: simulate and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", _cmd_simulate),
        ("hyperbolicity-map", _cmd_hyperbolicity_map),
        ("dispersion", _cmd_dispersion),
        ("pressure-table", _cmd_pressure_table),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "simulate":
            p.add_argument("--check", action="store_true")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PedflowError as exc:
        if getattr(exc, "while_stepping", False):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
