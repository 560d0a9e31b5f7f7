"""Spans recorded around pedflow's module-level functions.

The benchmark wraps the functions named in TRACED from its own files, so
pedflow's source stays untouched.  Wrappers replace module attributes, and
pedflow calls these functions through module attributes (`sv.run`,
`pr.two_way_pressure`, module globals such as `_advance`), so every call
is seen.  Spans live in lists until the run ends; `summarize` derives each
span's self time as its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

# (module of pedflow, attribute, span name).  A dotted attribute names a
# method on a class of that module.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cluster_metrics", "cli.cluster_metrics"),
    ("cli", "_write_csv", "cli.write"),
    ("solver", "run", "solver.run"),
    ("solver", "_advance", "solver._advance"),
    ("solver", "muscl_reconstruct", "solver.muscl_reconstruct"),
    ("solver", "central_flux", "solver.central_flux"),
    ("solver", "measured_cfl", "solver.measured_cfl"),
    ("models", "ModelSpec.flux", "models.flux"),
    ("models", "ModelSpec.max_abs_speed", "models.max_abs_speed"),
    ("pressure", "two_way_pressure", "pressure.two_way_pressure"),
    ("pressure", "pressure_partials", "pressure.pressure_partials"),
    ("multilane", "coupled_step", "multilane.coupled_step"),
    ("multilane", "lane_change_rate", "multilane.lane_change_rate"),
    ("multilane", "density_sources", "multilane.density_sources"),
    ("analysis", "hyperbolicity_map", "analysis.hyperbolicity_map"),
    ("analysis", "delta_field", "analysis.delta_field"),
)

# Spans that open the timed work: the first time step of a simulation
# (`measured_cfl` comes first in the multi-lane loop) or the map raster.
FIRST_WORK = ("solver._advance", "solver.measured_cfl", "analysis.hyperbolicity_map")


def _owner(module, attr):
    """(object holding the attribute, attribute name) for a TRACED entry."""
    *path, name = attr.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _patch(span_name_filter, make_wrapper):
    """Replace every TRACED function whose span name passes the filter.

    Returns a function that restores the originals.
    """
    saved = []
    for mod_name, attr, span in TRACED:
        if not span_name_filter(span):
            continue
        module = importlib.import_module(f"pedflow.{mod_name}")
        owner, name = _owner(module, attr)
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(span, original))

    def restore():
        for owner, name, original in saved:
            setattr(owner, name, original)

    return restore


def mark_first_work(box: dict) -> None:
    """Untraced runs: store the clock at the first FIRST_WORK call in
    box["first_work"], then put the original functions back."""
    restore = None

    def make(span, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            if "first_work" not in box:
                box["first_work"] = time.perf_counter()
                restore()
            return fn(*args, **kwargs)
        return hook

    restore = _patch(lambda span: span in FIRST_WORK, make)


class Tracer:
    """Records one span per call of every TRACED function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.write_bytes = 0
        self._stack = [-1]
        self._restore = None

    def install(self) -> None:
        self._restore = _patch(lambda span: True, self._wrap)

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def _wrap(self, span, fn):
        nid = len(self.names)
        self.names.append(span)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter
        counts_bytes = span == "cli.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if counts_bytes:
                    # _write_csv(path, header, rows): count what reached disk.
                    self.write_bytes += os.path.getsize(args[0])
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({
                "names": self.names,
                "name_id": self.name_id,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "write_bytes": self.write_bytes,
            }, f)


def summarize(spans: dict) -> dict:
    """Per span name: calls, total and self seconds, per-call durations.

    Self time is a span's duration minus the summed durations of the spans
    it directly caused.
    """
    start = np.asarray(spans["start"], dtype=float)
    dur = np.asarray(spans["end"], dtype=float) - start
    parent = np.asarray(spans["parent"], dtype=int)
    name_id = np.asarray(spans["name_id"], dtype=int)
    children = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], dur[has_parent])
    self_s = dur - children
    out = {}
    for nid, name in enumerate(spans["names"]):
        sel = name_id == nid
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
            "durations": dur[sel],
        }
    return out
