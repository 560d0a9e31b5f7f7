"""Correctness checks on the artifacts of one pedflow run.

Each check returns a list of failure messages; an empty list is a pass.
They read the CSVs pedflow wrote, so they test what a user receives.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Relative drift of a conserved total that still counts as round-off.
# Measured drift is about 4e-16 over 2,000 steps; a leak of 1e-9 of the
# mass per step exceeds this within a dozen steps.
CONSERVATION_RTOL = 1e-11


def artifact_digest(outdir: Path) -> str:
    """sha256 over every artifact: sorted relative paths and their bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(outdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _density_rows(kind):
    return (0, 2) if kind == "two_way_ar" else (0, 1)


def _density_columns(header, kind):
    return [header.index(f"component_{r}") for r in _density_rows(kind)]


def check_simulation(outdir: Path, shape: dict, kind: str) -> list:
    """Conservation, positivity, jam density and run length of a simulation.

    Single lane: every component's mass stays at its initial value, up to
    round-off plus the clipped mass the audit reports.  Several lanes: the
    total of each walking direction over all lanes stays constant.
    """
    failures = []
    snaps = sorted((outdir / "snapshots").glob("snap_*.csv"))
    if not snaps:
        return ["no snapshots written"]
    header, audit = _read_csv(outdir / "audit.csv")
    if audit.shape[0] != shape["steps"]:
        failures.append(f"audit has {audit.shape[0]} rows, expected {shape['steps']}")
    dx = shape["dx"]

    snap_header, snap0 = _read_csv(snaps[0])
    if shape["lanes"] == 1:
        comps = range(shape["components"])
        m0 = [math.fsum(snap0[:, snap_header.index(f"component_{c}")]) * dx
              for c in comps]
        masses = [audit[:, header.index(f"mass_{c}")] for c in comps]
        clipped = audit[:, header.index("clipped_mass")]
        allowed = [clipped if c in _density_rows(kind) else 0.0 for c in comps]
        labels = [f"mass_{c}" for c in comps]
    else:
        dcols = _density_columns(snap_header, kind)
        m0 = [math.fsum(snap0[:, col]) * dx for col in dcols]
        masses = [audit[:, header.index("mass_plus_total")],
                  audit[:, header.index("mass_minus_total")]]
        allowed = [0.0, 0.0]
        labels = ["mass_plus_total", "mass_minus_total"]
    for label, mass0, mass, extra in zip(labels, m0, masses, allowed):
        drift = np.abs(mass - mass0) - extra
        tol = CONSERVATION_RTOL * max(abs(mass0), 1.0)
        if np.any(drift > tol):
            k = int(np.argmax(drift))
            failures.append(
                f"{label} drifts by {drift[k]:.3e} (> {tol:.1e}) at step {k + 1}"
            )

    if np.any(audit[:, header.index("min_rho")] < 0.0):
        failures.append("audit reports a negative density")
    for snap in snaps:
        snap_header, values = _read_csv(snap)
        dens = values[:, _density_columns(snap_header, kind)]
        if np.any(dens < 0.0):
            failures.append(f"{snap.name}: negative density")
        if shape["rho_star"] is not None and np.any(dens.sum(axis=1) >= shape["rho_star"]):
            failures.append(f"{snap.name}: total density reaches rho_star")
    return failures


def check_map(outdir: Path, model, resolution: int) -> list:
    """The raster's size, one boundary point per flipped raster edge, and
    a sign change of Delta across every boundary point.

    The bracket is +-BOUNDARY_TOL along the edge: bisection stops once the
    interval is that narrow and returns its midpoint.
    """
    from pedflow import analysis

    failures = []
    rows = (outdir / "map.txt").read_text().splitlines()
    hyp = np.array([[int(v) for v in row.split()] for row in rows], dtype=bool)
    if hyp.shape != (resolution, resolution):
        return [f"map.txt is {hyp.shape}, expected {resolution}x{resolution}"]
    flips = int(np.diff(hyp, axis=0).sum() + np.diff(hyp, axis=1).sum())
    _, points = _read_csv(outdir / "boundary.csv")
    if points.shape[0] != flips:
        failures.append(f"{points.shape[0]} boundary points for {flips} flipped edges")
    if points.shape[0] == 0:
        return failures

    admissible = model.pressure.rho_star * (1.0 - 1e-9)
    axis = np.linspace(0.0, admissible, resolution)
    on_axis = np.isin(points, axis)  # the coordinate held fixed on its edge
    if not np.all(on_axis.any(axis=1)):
        failures.append("a boundary point lies on no raster edge")
        return failures
    step = np.where(on_axis[:, [1, 0]] & ~on_axis, analysis.BOUNDARY_TOL, 0.0)
    step[on_axis.all(axis=1)] = (analysis.BOUNDARY_TOL, 0.0)

    def delta(p):
        inside = p.sum(axis=1) < admissible
        safe = np.where(inside[:, None], np.maximum(p, 0.0), 0.0)
        return np.where(inside, analysis.delta_field(model, safe[:, 0], safe[:, 1]), 1.0)

    lo, hi = delta(points - step) >= 0.0, delta(points + step) >= 0.0
    bad = np.nonzero(lo == hi)[0]
    if bad.size:
        failures.append(
            f"{bad.size} boundary points do not bracket a sign change of Delta, "
            f"first at {tuple(points[bad[0]])}"
        )
    return failures
