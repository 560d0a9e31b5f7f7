"""One pedflow run, in its own process, as the benchmark's runner asks.

Usage: python3 perfbench/child.py JOB.json

The job names a generated config, an output directory and a command of
the pedflow CLI.  The child imports pedflow, calls `pedflow.cli.main`
with that command, notes the clock at the first time step (or the start
of the map raster) and when the last artifact is written, and then
checks the artifacts.  Timestamps come from time.perf_counter, which is
CLOCK_MONOTONIC on Linux and so comparable with the runner's clock.
With "trace" set, every function in spans.TRACED records spans, which
are written out after the run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402

# Relative mass removed from every density per step by the "leak" fault.
LEAK = 1e-6


def _inject_leak(solver) -> None:
    """Fault for the benchmark's tests: each step loses density mass."""
    advance = solver._advance

    def leaky(model, U, grid, params):
        U_new, cfl, clipped = advance(model, U, grid, params)
        U_new[list(model.density_rows)] *= 1.0 - LEAK
        return U_new, cfl, clipped

    solver._advance = leaky


def _run_cli(cli, argv) -> tuple[int, str]:
    try:
        return cli.main(argv), ""
    except SystemExit as exc:  # argparse rejects the arguments
        return (exc.code if isinstance(exc.code, int) else 1), "argument error"
    except Exception:  # the run is a failure to report, not a runner crash
        return 1, traceback.format_exc()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import numpy
    import pedflow
    from pedflow import cli, solver

    if job["inject"] == "leak":
        _inject_leak(solver)
    marks: dict = {}
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    else:
        spans.mark_first_work(marks)

    out = Path(job["out"])
    argv = [job["command"], "--config", job["config"], "--out", str(out)]
    if job["command"] == "simulate":
        argv.append("--check")
    code, error = _run_cli(cli, argv)
    t_done = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "t_done": t_done,
        "peak_rss_mb": rss_kb / 1024.0,
        "pedflow_version": pedflow.__version__,
        "pedflow_file": pedflow.__file__,
        "numpy_version": numpy.__version__,
        "failures": [],
    }
    if tracer is not None:
        tracer.uninstall()
        first = [t for t, n in zip(tracer.start, tracer.name_id)
                 if tracer.names[n] in spans.FIRST_WORK]
        if first:
            marks["first_work"] = min(first)
        tracer.dump(job["spans"])
    result["t_first_work"] = marks.get("first_work")

    if code != 0:
        result["failures"].append(f"pedflow exited with code {code}: {error}".strip())
    else:
        try:
            if job["command"] == "simulate":
                result["failures"] += checks.check_simulation(
                    out, job["shape"], job["kind"])
            else:
                model = cli.load_config(job["config"]).model
                result["failures"] += checks.check_map(
                    out, model, job["shape"]["resolution"])
                result["boundary_points"] = len(
                    (out / "boundary.csv").read_text().splitlines()) - 1
        except Exception:  # unreadable or malformed artifacts
            result["failures"].append("checking artifacts raised:\n"
                                      + traceback.format_exc())
        result["digest"] = checks.artifact_digest(out)
    if result["t_first_work"] is None and not result["failures"]:
        result["failures"].append("the run never reached its first time step")
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
