"""Compare two result sets of the benchmark: a parent commit and a change.

    # alternate runs of both checkouts, same benchmark code and settings
    python3 perfbench/compare.py run --parent CHECKOUT_A --change CHECKOUT_B --out DIR
    # one row per workload, one verdict per end-to-end metric
    python3 perfbench/compare.py report DIR

`run` runs this file's run.py in each checkout for MIN_PAIRS pairs, one
seed per pair (FIRST_SEED, FIRST_SEED + 1, ...), every workload of
BENCHMARK.json for its run_seconds, the side that goes first alternating,
and stores each run's final JSON line under DIR/parent and DIR/change.
`report` applies the rules below to every end-to-end metric of
BENCHMARK.json:

* gain: at least MIN_PAIRS pairs, the change wins at least WIN_SHARE of
  them (ties count for neither side), and the medians differ by more than
  the parent's interquartile range;
* regression: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median), and either
  the parent's spread is within the bound or every change run is worse
  than every parent run;
* unresolved: the parent's own interquartile range, as a share of its
  median, is wider than the bound, and neither every change run beats
  every parent run nor every change run is worse than every parent run;
  such a metric is not reported as unchanged;
* failed: some run of the change was not correct or had failed ops.

Exit code 1 when any metric regresses or a change run failed, else 2 when
any metric is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
FIRST_SEED = 101
WIN_SHARE = 0.9


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Judge one metric.  parent and change map pair index -> value."""
    pv, cv = list(parent.values()), list(change.values())
    sign = 1.0 if better == "higher" else -1.0  # sign * (c - p) > 0: change better
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for i in pairs if sign * (change[i] - parent[i]) > 0)
    med_p, med_c = statistics.median(pv), statistics.median(cv)
    q1_p, q3_p = _quartiles(pv)
    worse = -sign * (med_c - med_p) / abs(med_p)  # > 0: change worse
    spread = (q3_p - q1_p) / abs(med_p)
    every_run_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    every_run_worse = all(sign * (c - p) < 0 for c in cv for p in pv)
    if worse > bound and (spread <= bound or every_run_worse):
        label = "REGRESSION"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and sign * (med_c - med_p) > q3_p - q1_p):
        label = "gain"
    else:
        label = "within bound"
    return {"label": label, "pairs": len(pairs), "wins": wins,
            "change_worse_frac": worse, "parent_spread": spread,
            "parent": (med_p, q1_p, q3_p), "change": (med_c, *_quartiles(cv))}


def load(side_dir: Path) -> dict:
    """workload -> list of {"pair", "seed", "result"} records."""
    out: dict = {}
    for path in sorted(side_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], []).append(rec)
    return out


def report(results: Path, bench: dict) -> int:
    parent, change = load(results / "parent"), load(results / "change")
    regressed = unresolved = False
    details = []
    print(f"{'workload':<16} verdicts (change vs parent median; pairs won)")
    for workload in sorted(set(parent) & set(change)):
        cells = []
        bad = [r for r in change[workload]
               if not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            regressed = True
            cells.append(f"FAILED in {len(bad)} change runs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = {r["pair"]: r["result"]["metrics"][name]["value"] for r in parent[workload]}
            c = {r["pair"]: r["result"]["metrics"][name]["value"] for r in change[workload]}
            v = verdict(p, c, metric["better"], metric["bound"])
            regressed |= v["label"] == "REGRESSION"
            unresolved |= v["label"] == "unresolved"
            cells.append(f"{name}={v['label']}({v['change_worse_frac']:+.1%} worse; "
                         f"{v['wins']}/{v['pairs']})")
            details.append(
                f"  {workload:<16} {name:<18} parent {v['parent'][0]:.6g} "
                f"[{v['parent'][1]:.6g}, {v['parent'][2]:.6g}]  change {v['change'][0]:.6g} "
                f"[{v['change'][1]:.6g}, {v['change'][2]:.6g}]  "
                f"parent IQR {v['parent_spread']:.1%} of median, bound {metric['bound']:.0%}")
        print(f"{workload:<16} " + "  ".join(cells))
    print("medians [q1, q3]:")
    print("\n".join(details))
    return 1 if regressed else 2 if unresolved else 0


def run_pairs(args, bench: dict) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = Path(args.out)
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for pair in range(MIN_PAIRS):
        seed = FIRST_SEED + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in bench["workloads"]):
            for side in order:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", "0"],
                    cwd=sides[side], capture_output=True, text=True, check=True,
                )
                record = {"workload": workload, "pair": pair, "seed": seed,
                          "first": side == order[0],
                          "result": json.loads(proc.stdout.strip().splitlines()[-1])}
                (out / side / f"{workload}-pair{pair:02d}.json").write_text(
                    json.dumps(record))
                print(f"pair {pair} {workload} {side} done", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="alternate runs of two checkouts")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="judge a result set")
    rep.add_argument("results")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.mode == "run":
        run_pairs(args, bench)
        return report(Path(args.out), bench)
    return report(Path(args.results), bench)


if __name__ == "__main__":
    sys.exit(main())
