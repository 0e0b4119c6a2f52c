#!/usr/bin/env python3
"""Runs each workload several times with different seeds and reports how
steady every metric is against its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads whatif_bulk,sweep_topk] [--trace 0]
        [--save runs.json] [--against runs.json]

For each (workload, metric) it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median. A metric is flagged FAIL when its spread exceeds its
bound (setup_s excepted, whose spread is only reported) and WARN when it
exceeds a third of the bound. With --against, a metric is also flagged FAIL
when its median is worse than the saved median by more than the bound.
--save writes every run's values so a later invocation can compare against
them. Exits 1 if any run fails or any metric is flagged FAIL.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(spec, workload, seed, trace):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None, wall
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        return None, wall
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    previous = json.loads(Path(args.against).read_text()) if args.against else {}

    saved = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(spec, workload, seed, args.trace)
            walls.append(wall)
            if result is None:
                print(f"{workload} seed {seed}: run FAILED")
                ok = False
                continue
            for name in values:
                values[name].append(result[name])
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in metrics:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok"
                if spread > bound / 3:
                    verdict = "WARN"
                if spread > bound:
                    verdict = "FAIL" if metric["name"] != "setup_s" else "WARN"
                old = previous.get(workload, {}).get(metric["name"])
                if old:
                    shift = worse_by(metric, median, statistics.median(old))
                    verdict += f" shift {shift:+.3f}"
                    if shift > bound:
                        verdict += " FAIL"
                ok = ok and "FAIL" not in verdict
            print(f"  {metric['name']:36} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
