"""Tests of the benchmark itself: the output schema on smoke-sized runs of
every workload, fault injection, and the helpers the runner relies on.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import compare  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """Final JSON lines of smoke runs of every workload, untraced and traced."""
    return {
        trace: _last_json(_bench("--workload", "all", "--smoke", "--seconds", "0",
                                 "--trace", str(trace)))
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_output_schema(smoke, trace):
    section = "end_to_end" if trace == 0 else "per_layer"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert list(smoke[trace]) == [w["name"] for w in BENCHMARK["workloads"]]
    for name in WORKLOADS:
        result = smoke[trace][name]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= runner.MIN_RUNS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_layers_match_the_workloads(smoke):
    m = {name: {k: v["value"] for k, v in r["metrics"].items()}
         for name, r in smoke[1].items()}
    steps = WORKLOADS["clusters_n256"].shape(1, smoke=True)["steps"]
    assert m["clusters_n256"]["solver._advance.calls"] == steps
    assert m["clusters_n256"]["pressure.two_way_pressure.calls"] == 0
    assert m["clusters_n256"]["pressure.pressure_partials.calls"] == 0
    for name in WORKLOADS:
        has_lanes = m[name]["multilane.coupled_step.calls"] > 0
        assert has_lanes == (name == "two_lane_car")
        assert (m[name]["analysis.delta_field.calls"] > 0) == (name == "hypmap_car")
    assert m["two_lane_car"]["models.speed_bound_useful_ratio"] == 0.5
    assert m["clusters_n256"]["models.speed_bound_useful_ratio"] == 1.0
    assert m["ar_wide_n16384"]["models.speed_bound_useful_ratio"] == 1.0
    assert 0 < m["hypmap_car"]["analysis.boundary_points_per_delta_call"] < 1


@pytest.mark.parametrize("workload", ["clusters_n256", "two_lane_car"])
def test_leaking_step_counts_as_failed(workload):
    result = _last_json(_bench("--workload", workload, "--smoke", "--seconds", "0",
                               "--trace", "0", "--inject", "leak"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= runner.MIN_RUNS
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed1-trace0-smoke-leak.json")
        .read_text())
    assert any("drifts" in f for f in record["failures"])


def test_fails_without_pedflow_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "clusters_n256", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_map_check_rejects_a_moved_boundary_point(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from pedflow import cli

    cfg = tmp_path / "map.cfg"
    cfg.write_text(config_text(WORKLOADS["hypmap_car"].config(1, smoke=True)))
    out = tmp_path / "out"
    assert cli.main(["hyperbolicity-map", "--config", str(cfg), "--out", str(out)]) == 0
    model = cli.load_config(cfg).model
    resolution = WORKLOADS["hypmap_car"].smoke_keys["map.resolution"]
    assert checks.check_map(out, model, resolution) == []

    boundary = out / "boundary.csv"
    header, *rows = boundary.read_text().splitlines()
    rp, rm = (float(v) for v in rows[0].split(","))
    rows[0] = f"{rp!r},{rm + 1e-3!r}" if rp in np.linspace(
        0.0, model.pressure.rho_star * (1 - 1e-9), resolution) else f"{rp + 1e-3!r},{rm!r}"
    boundary.write_text("\n".join([header, *rows]) + "\n")
    assert any("bracket" in f for f in checks.check_map(out, model, resolution))


def test_self_time_subtracts_children():
    recorded = {
        "names": ["outer", "inner"],
        "name_id": [0, 1, 1],
        "start": [0.0, 1.0, 4.0],
        "end": [10.0, 3.0, 5.0],
        "parent": [-1, 0, 0],
    }
    summary = spans.summarize(recorded)
    assert summary["outer"]["self_s"] == pytest.approx(7.0)
    assert summary["inner"]["self_s"] == pytest.approx(3.0)
    assert summary["inner"]["calls"] == 2


def _pairs(values):
    return dict(enumerate(values))


def test_compare_verdicts():
    parent = _pairs([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00])
    faster = _pairs([v * 0.8 for v in parent.values()])
    slower = _pairs([v * 1.2 for v in parent.values()])
    assert compare.verdict(parent, faster, "lower", 0.1)["label"] == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1)["label"] == "REGRESSION"
    assert compare.verdict(parent, parent, "lower", 0.1)["label"] == "within bound"
    noisy = _pairs([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0])
    assert compare.verdict(noisy, noisy, "lower", 0.1)["label"] == "unresolved"
    # a noisy parent does not hide a change whose every run is worse
    much_slower = _pairs([v + 1.5 for v in noisy.values()])
    assert compare.verdict(noisy, much_slower, "lower", 0.1)["label"] == "REGRESSION"
    # fewer than ten pairs never make a gain
    few = {i: v for i, v in parent.items() if i < 5}
    assert compare.verdict(few, {i: faster[i] for i in few}, "lower", 0.1)["label"] \
        == "within bound"


def _write_side(side_dir, values):
    side_dir.mkdir(parents=True)
    for pair, v in enumerate(values):
        metrics = {m["name"]: {"value": v, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        record = {"workload": "clusters_n256", "pair": pair, "seed": 101 + pair,
                  "result": {"correct": True, "attempted": 2, "failed": 0,
                             "metrics": metrics}}
        (side_dir / f"clusters_n256-pair{pair:02d}.json").write_text(json.dumps(record))


@pytest.mark.parametrize("parent,change,status", [
    ([1.0] * 10, [1.0] * 10, 0),
    ([1.0] * 10, [1.5] * 10, 1),
    ([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0],
     [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0], 2),
])
def test_compare_exit_code(tmp_path, parent, change, status):
    _write_side(tmp_path / "parent", parent)
    _write_side(tmp_path / "change", change)
    assert compare.main(["report", str(tmp_path)]) == status
