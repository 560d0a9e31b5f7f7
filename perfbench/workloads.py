"""The benchmark's workloads: pedflow configs generated from a seed.

Each workload is one `pedflow simulate` or `pedflow hyperbolicity-map`
run.  The benchmark writes the config itself and hands pedflow only that
file, so the seed is the only input that varies between runs.  `smoke`
shrinks every run so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Pressure law and crowding weight of scenarios/two_lane.cfg.
_TWO_LANE_PRESSURE = {
    "pressure.M": 1.0,
    "pressure.m": 2.0,
    "pressure.eps": 1e-3,
    "pressure.gamma": 2.0,
    "pressure.rho_star": 1.0,
    "crowding.kind": "affine",
    "crowding.beta": 1.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "hyperbolicity-map"
    keys: dict  # config keys without noise.seed
    smoke_keys: dict  # overrides for smoke-sized runs

    def config(self, seed: int, smoke: bool = False) -> dict:
        keys = dict(self.keys)
        if smoke:
            keys.update(self.smoke_keys)
        keys["noise.seed"] = seed
        return keys

    def shape(self, seed: int, smoke: bool = False) -> dict:
        """Work done by one run: steps, cells, lanes, components, nodes."""
        cfg = self.config(seed, smoke)
        if self.command == "hyperbolicity-map":
            res = int(cfg["map.resolution"])
            return {"steps": 0, "cells": 0, "lanes": 0, "components": 0,
                    "resolution": res, "map_nodes": res * res, "dx": 0.0,
                    "rho_star": float(cfg["pressure.rho_star"])}
        lanes = int(cfg.get("lanes.count", 1))
        components = 4 if cfg["model.kind"] == "two_way_ar" else 2
        steps = math.ceil(float(cfg["run.t_end"]) / float(cfg["scheme.dt"]) - 1e-9)
        rho_star = cfg.get("pressure.rho_star")
        return {"steps": steps, "cells": int(cfg["grid.n_cells"]), "lanes": lanes,
                "components": components, "map_nodes": 0,
                "dx": float(cfg["grid.dx"]),
                "rho_star": None if rho_star is None else float(rho_star)}


def config_text(keys: dict) -> str:
    """Render a key dict in pedflow's `key = value` config format."""
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clusters_n256",
            command="simulate",
            # clusters.cfg shape: 256 cells, so per-call numpy overhead in
            # solver and models dominates; pressure and multilane do no work
            keys={
                "model.kind": "sim_flux",
                "model.a": 0.7,
                "grid.n_cells": 256,
                "grid.dx": 1.0,
                "scheme.dt": 0.2,
                "scheme.delta": 0.4,
                "scheme.cfl_guard": 0.95,
                "initial.rho_plus": 0.5,
                "initial.rho_minus": 0.3,
                "noise.sigma": 1e-2,
                "run.t_end": 400,
                "run.snapshot_every": 100,
                # Clusters form by t = 60 for every seed tried; coarsening
                # to at most two drifting clusters (check.cluster_count_max,
                # check.drift_negative) needs t = 10000, far longer than a run.
                "check.cluster_count_min": 1,
                "check.peak_total_ge": 1.0,
            },
            smoke_keys={"run.t_end": 60, "run.snapshot_every": 30},
        ),
        Workload(
            name="ar_wide_n16384",
            command="simulate",
            # 16384-cell two_way_ar lane: 4-component array arithmetic in
            # models, pressure and solver dominates; large snapshot I/O
            keys={
                "model.kind": "two_way_ar",
                **_TWO_LANE_PRESSURE,
                "grid.n_cells": 16384,
                "grid.dx": 1.0,
                "scheme.dt": 0.05,
                "scheme.delta": 0.1,
                "initial.rho_plus": 0.3,
                "initial.rho_minus": 0.15,
                "initial.w_plus": 1.0,
                "initial.w_minus": 1.0,
                "noise.sigma": 1e-3,
                "run.t_end": 3,
                "run.snapshot_every": 3,
            },
            smoke_keys={"grid.n_cells": 1024, "run.t_end": 0.5,
                        "run.snapshot_every": 0.25},
        ),
        Workload(
            name="two_lane_car",
            command="simulate",
            # two_lane.cfg shape: the only run of multilane and of the CLI's
            # multi-lane time loop; Python-level per-lane work
            keys={
                "model.kind": "two_way_car",
                "model.V": 1.0,
                **_TWO_LANE_PRESSURE,
                "grid.n_cells": 128,
                "grid.dx": 1.0,
                "scheme.dt": 0.05,
                "scheme.delta": 0.1,
                "initial.rho_plus": "0.3, 0.15",
                "initial.rho_minus": "0.1, 0.25",
                "noise.sigma": 1e-3,
                "run.t_end": 20,
                "run.snapshot_every": 5,
                "lanes.count": 2,
                "rates.lambda0": 0.5,
                "rates.ramp": "positive_part",
                "rates.cutoff": "linear",
            },
            smoke_keys={"run.t_end": 2, "run.snapshot_every": 1},
        ),
        Workload(
            name="hypmap_car",
            command="hyperbolicity-map",
            # hyperbolicity map of the two_lane.cfg model: no time stepping,
            # scalar bisection calls; the only run of analysis
            keys={
                "model.kind": "two_way_car",
                "model.V": 1.0,
                **_TWO_LANE_PRESSURE,
                "grid.n_cells": 128,
                "grid.dx": 1.0,
                "scheme.dt": 0.05,
                "initial.rho_plus": 0.3,
                "initial.rho_minus": 0.1,
                "map.resolution": 160,
            },
            smoke_keys={"map.resolution": 40},
        ),
    )
}
