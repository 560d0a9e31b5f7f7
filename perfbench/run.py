"""pedflow's benchmark runner.

Usage, from the root of a pedflow checkout:

    python3 perfbench/run.py --workload clusters_n256 --seed 1 --seconds 25 --trace 0

Each run of a workload is a fresh `python3 perfbench/child.py` process
that runs pedflow's CLI on a config generated from the seed: one client,
closed loop, one run at a time, repeated until --seconds have passed.
With --trace 0 the runner reports end-to-end metrics; with --trace 1 it
alternates untraced and traced runs and reports per-layer metrics from
the spans of the traced ones.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record, with the machine, every sample and the failures, goes to
.perfbench/results/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

DEFAULT_SEED = 1
# Every mode runs at least this many times, so repeats can be compared.
MIN_RUNS = 2
# A run taking longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 120.0
# No run starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 120.0
# Thread pools of BLAS and OpenMP are pinned to one thread in the child.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The machine's speed drifts by up to 2x over tens of seconds (a shared
# host).  So every pedflow run is bracketed by reference runs
# (reference.py: fixed work that does not use pedflow, started and timed
# the same way), and each time the benchmark reports is scaled by
# REFERENCE_S / (mean wall time of the two references around the run):
# it reads as on this machine when the reference takes REFERENCE_S.
# Raw times stay in the record.
REFERENCE_S = 0.30

# Metric names, units and the run length come from BENCHMARK.json.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", in file order."""
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def machine_record() -> dict:
    """What the numbers were measured on.  Reads, never changes, settings."""
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "pinned_threads": {name: "1" for name in PINNED_THREADS},
    }


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def reference_once(root: Path) -> float:
    """Wall time of one reference run, measured like a pedflow run."""
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          env=_child_env(root), cwd=root, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return float(proc.stdout) - t_spawn


def run_once(root: Path, workload, config: Path, shape: dict, outdir: Path,
             traced: bool, inject: str | None) -> dict:
    """One pedflow run in a child process; returns its timings and checks."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = outdir.with_suffix(".result.json")
    spans_path = outdir.with_suffix(".spans.json")
    job = {
        "command": workload.command,
        "config": str(config),
        "out": str(outdir / "artifacts"),
        "trace": traced,
        "inject": inject,
        "spans": str(spans_path),
        "result": str(result_path),
        "shape": shape,
        "kind": workload.keys["model.kind"],
    }
    job_path = outdir.with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)

    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            env=_child_env(root), cwd=root, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not result_path.exists():
        return {"traced": traced, "failures": [
            f"child exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    res = json.loads(result_path.read_text())
    run = {"traced": traced, "failures": res["failures"], "digest": res.get("digest"),
           "versions": {"pedflow": res["pedflow_version"], "numpy": res["numpy_version"]},
           "peak_rss_mb": res["peak_rss_mb"]}
    if not Path(res["pedflow_file"]).resolve().is_relative_to((root / "src").resolve()):
        run["failures"].append(f"imported pedflow from {res['pedflow_file']}")
    run["wall_s"] = res["t_done"] - t_spawn
    if res["t_first_work"] is not None:
        run["setup_s"] = res["t_first_work"] - t_spawn
        run["work_s"] = res["t_done"] - res["t_first_work"]
    if traced and spans_path.exists():
        recorded = json.loads(spans_path.read_text())
        run["summary"] = spans.summarize(recorded)
        run["write_bytes"] = recorded["write_bytes"]
    run["boundary_points"] = res.get("boundary_points", 0)
    shutil.rmtree(outdir, ignore_errors=True)
    return run


def _recorded_digest(workload: str, seed: int, smoke: bool) -> str | None:
    """The artifact digest recorded for this workload at the default seed,
    if it was recorded on this kind of platform."""
    record = json.loads((HERE / "digests.json").read_text())
    if smoke or seed != record["seed"] or record["platform"] != platform_fingerprint():
        return None
    return record["sha256"].get(workload)


def platform_fingerprint() -> dict:
    """What float results can depend on: CPU architecture, numpy's SIMD
    targets and the numpy version."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"machine": platform.machine(), "numpy": np.__version__,
            "simd": sorted(k for k, on in __cpu_features__.items()
                           if on and k in ("AVX512F", "AVX2", "FMA3"))}


def cross_run_checks(runs: list, recorded: str | None) -> None:
    """Artifacts and call counts must repeat exactly between runs of one
    seed; at the default seed the artifacts must match the recorded digest."""
    digests = [r["digest"] for r in runs if r.get("digest")]
    if digests:
        ref = digests[0]
        for r in runs:
            if r.get("digest") and r["digest"] != ref:
                r["failures"].append("artifacts differ between repeats of one seed")
            if recorded is not None and r.get("digest") and r["digest"] != recorded:
                r["failures"].append("artifacts differ from the digest recorded "
                                     "in perfbench/digests.json")
    traced = [r for r in runs if "summary" in r]
    if traced:
        ref_calls = {k: v["calls"] for k, v in traced[0]["summary"].items()}
        for r in traced[1:]:
            calls = {k: v["calls"] for k, v in r["summary"].items()}
            if calls != ref_calls:
                r["failures"].append("call counts differ between traced repeats")


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, shape: dict, runs: list) -> dict:
    timed = [r for r in runs if "work_s" in r]
    if workload.command == "simulate":
        work = shape["steps"] * shape["cells"] * shape["lanes"]
    else:
        work = shape["map_nodes"]
    return {
        "wall_s": [r["wall_s"] * r["scale"] for r in timed],
        "setup_s": [r["setup_s"] * r["scale"] for r in timed],
        "throughput_per_s": [work / (r["work_s"] * r["scale"]) for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }


def per_layer(workload, shape: dict, runs: list) -> dict:
    traced = [r for r in runs if "summary" in r]
    plain = [r["wall_s"] * r["scale"] for r in runs if not r["traced"] and "wall_s" in r]
    names = units("per_layer")
    samples: dict = {name: [] for name in names}
    step_durations, coupled_durations = [], []
    for r in traced:
        s = r["summary"]

        def calls(name):
            return s[name]["calls"]

        def self_s(name):
            return s[name]["self_s"] * r["scale"]

        def us_per_call(name):
            return 1e6 * self_s(name) / calls(name) if calls(name) else 0.0

        for name in names:
            layer, _, kind = name.rpartition(".")
            if layer in s and kind == "calls":
                samples[name].append(calls(layer))
            elif layer in s and kind == "self_s":
                samples[name].append(self_s(layer))
            elif layer in s and kind == "self_us_per_call":
                samples[name].append(us_per_call(layer))
        step_durations.append(s["solver._advance"]["durations"] * r["scale"])
        coupled_durations.append(s["multilane.coupled_step"]["durations"] * r["scale"])
        n_speed = calls("models.max_abs_speed")
        samples["models.speed_bound_useful_ratio"].append(
            calls("solver._advance") / n_speed if n_speed else 0.0)
        n_delta = calls("analysis.delta_field")
        samples["analysis.boundary_points_per_delta_call"].append(
            r["boundary_points"] / n_delta if n_delta else 0.0)
        samples["cli.write.bytes"].append(r["write_bytes"])
        samples["cli.write.files"].append(calls("cli.write"))
        samples["cli.write_share"].append(s["cli.write"]["total_s"] / r["wall_s"])

    def pct(chunks, q):
        pooled = np.concatenate(chunks) if chunks else np.empty(0)
        return [1e6 * float(np.percentile(pooled, q))] if pooled.size else [0.0]

    samples["solver.step_us_p50"] = pct(step_durations, 50)
    samples["solver.step_us_p99"] = pct(step_durations, 99)
    samples["multilane.coupled_step.us_p50"] = pct(coupled_durations, 50)
    samples["multilane.coupled_step.us_p99"] = pct(coupled_durations, 99)
    if workload.command == "simulate":
        state = shape["components"] * shape["cells"] * shape["lanes"] * 8
    else:
        state = shape["map_nodes"] * 8  # the float64 raster of Delta
    samples["state_bytes"] = [state]
    traced_wall = [r["wall_s"] * r["scale"] for r in traced]
    samples["trace_overhead_frac"] = (
        [_median(traced_wall) / _median(plain) - 1.0] if traced_wall and plain else [0.0])
    return samples


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, inject: str | None = None) -> dict:
    workload = WORKLOADS[name]
    shape = workload.shape(seed, smoke)
    work = root / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "scenario.cfg"
    config.write_text(config_text(workload.config(seed, smoke)))

    # Warm-up, not recorded: compiles pedflow's bytecode and loads numpy's
    # libraries into the page cache, which users do not pay on every run.
    warm = work / "warmup.cfg"
    warm.write_text(config_text(workload.config(seed, smoke=True)))
    run_once(root, workload, warm, workload.shape(seed, True), work / "warmup",
             False, None)

    runs = []
    begin = time.perf_counter()
    ref_before = reference_once(root)
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - begin < min(seconds, HARD_STOP_S)
    ):
        traced = trace and len(runs) % 2 == 1
        run = run_once(root, workload, config, shape, work / f"run{len(runs)}",
                       traced, inject)
        ref_after = reference_once(root)
        run["reference_s"] = 0.5 * (ref_before + ref_after)
        run["scale"] = REFERENCE_S / run["reference_s"]
        runs.append(run)
        ref_before = ref_after
    cross_run_checks(runs, _recorded_digest(name, seed, smoke))

    samples = (per_layer if trace else end_to_end)(workload, shape, runs)
    unit = units("per_layer" if trace else "end_to_end")
    failed = sum(1 for r in runs if r["failures"])
    metrics = {}
    for k, v in samples.items():
        value = _median(v)
        if unit[k] in ("count", "B"):  # exact counts: identical in every run
            value = int(value)
        metrics[k] = {"value": value, "unit": unit[k]}
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "inject": inject, "shape": shape,
        "machine": {**machine_record(), "pedflow": versions.get("pedflow")},
        "digest": next((r["digest"] for r in runs if r.get("digest")), None),
        "samples": samples,
        "runs": [{k: r[k] for k in ("traced", "wall_s", "setup_s", "work_s",
                                    "reference_s", "peak_rss_mb") if k in r}
                 for r in runs],
        "failures": [f for r in runs for f in r["failures"]],
        "result": {"correct": failed == 0, "attempted": len(runs), "failed": failed,
                   "metrics": metrics},
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "") + (
        f"-{inject}" if inject else "")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    last_traced = next((r for r in reversed(runs) if r["traced"]), None)
    if last_traced is not None:
        spans_file = work / f"run{runs.index(last_traced)}.spans.json"
        if spans_file.exists():
            shutil.copy(spans_file, results / f"{stem}-spans.json")
    shutil.rmtree(work, ignore_errors=True)
    return record


def _label(name: str, workload) -> str:
    if name == "throughput_per_s":
        return ("cell_updates_per_s" if workload.command == "simulate"
                else "map_nodes_per_s")
    return name


def report(record: dict) -> None:
    """Human-readable lines: each metric with its unit and sample count."""
    workload = WORKLOADS[record["workload"]]
    res = record["result"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"runs={res['attempted']}  failed={res['failed']}  "
          f"ops_failed_frac={res['failed'] / res['attempted']:.4g}")
    for name, metric in res["metrics"].items():
        values = record["samples"][name]
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  q1={q1:.6g} q3={q3:.6g}"
        print(f"   {_label(name, workload):<44} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} n={len(values)}{spread}")
    raw = {k: [r[k] for r in record["runs"] if k in r]
           for k in ("wall_s", "setup_s", "reference_s")}
    print("   unscaled medians: " + "  ".join(
        f"{k}={_median(v):.6g} s" for k, v in raw.items()))
    for failure in dict.fromkeys(record["failures"]):
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every run (the benchmark's own tests)")
    parser.add_argument("--inject", choices=("leak",),
                        help="fault injected into pedflow's step (tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pedflow" / "__init__.py").is_file():
        print("perfbench: run from the root of a pedflow checkout "
              "(src/pedflow not found)", file=sys.stderr)
        return 2
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        print("perfbench: perf_counter is not CLOCK_MONOTONIC; timestamps "
              "cannot be compared across processes", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                              args.smoke, args.inject)
        records.append(record)
        report(record)
    print("machine: " + json.dumps(records[0]["machine"]))
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
