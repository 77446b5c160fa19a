"""Steadiness report: run each workload on many seeds and show the spread.

    python3 perfbench/steadiness.py                      # 10 seeds, every workload
    python3 perfbench/steadiness.py --workloads deep-pairs --seeds 5
    python3 perfbench/steadiness.py --sets 2 --json summary.json

Each run is a fresh ``run.py`` process with ``--trace 0`` and the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric the report
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and (q3 - q1)/median, and flags a spread wider than the metric's bound
("WIDE") or wider than a third of it ("loose").  With ``--sets 2`` the
seeds run twice and the report also shows how far the second set's
median moved in the worse direction, against the same bound.  setup_s is
listed but not flagged for spread; only its drift counts.  failed_frac,
which is not a result-line metric, comes from each run's failed and
attempted counts.  Exits 1 when anything is flagged or failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
RUN_TIMEOUT_S = 200


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def drift(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="how many seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", help="write the medians and quartiles here")
    args = parser.parse_args(argv)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    summary, status = {}, 0
    for workload in args.workloads.split(","):
        sets = []
        for index in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            values["failed_frac"] = []
            for seed in seeds:
                result = run_once(workload, seed, seconds)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                values["failed_frac"].append(result["failed"] / result["attempted"])
                print(f"  {workload} set {index + 1} seed {seed}: " + ", ".join(
                    f"{name}={v[-1]:.6g}" for name, v in values.items()), flush=True)
            sets.append(values)
        print(f"\n{workload}: seeds {seeds.start}..{seeds.stop - 1} x {args.sets} set(s), "
              f"run_seconds {seconds}")
        print(f"  {'metric':<14}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'drift':>8}")
        summary[workload] = {}
        for m in metrics + [{"name": "failed_frac", "unit": "ratio", "better": "lower",
                             "bound": 0.0}]:
            first = None
            for index, values in enumerate(sets):
                stats = spread(values[m["name"]])
                flag = moved = ""
                if m["name"] == "failed_frac":
                    flag = "FAILED" if stats["median"] or max(values["failed_frac"]) else ""
                elif m["name"] != "setup_s":
                    flag = ("WIDE" if stats["spread"] > m["bound"]
                            else "loose" if stats["spread"] > m["bound"] / 3 else "")
                if index == 0:
                    first = stats["median"]
                elif m["name"] != "failed_frac":
                    d = drift(first, stats["median"], m["better"])
                    moved = f"{d:+.3f}"
                    if d > m["bound"]:
                        flag += " DRIFT"
                status = max(status, 1 if flag.strip() and flag != "loose" else 0)
                print(f"  {m['name']:<14}{m['unit']:<10}{stats['median']:>12.6g}"
                      f"{stats['q1']:>12.6g}{stats['q3']:>12.6g}{stats['spread']:>9.4f}"
                      f"{m['bound']:>7}{moved:>8} {flag}")
                summary[workload].setdefault(m["name"], []).append(stats)
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seeds": [seeds.start, seeds.stop - 1], "run_seconds": seconds,
             "workloads": summary}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
