"""Run workloads several times and print how steady each metric is.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Each run uses another seed.  Per end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread —
(Q3 − Q1) / median — against the metric's bound in ``BENCHMARK.json``
and a third of it, plus each run's wall time and failed share.  Exits
non-zero when a run fails, a check fails, the failed share differs
between runs, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="append every run's result line to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        results = []
        for index in range(args.runs):
            seed = args.first_seed + index
            result = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            if args.save:
                with open(args.save, "a") as handle:
                    handle.write(json.dumps(dict(result, workload=workload, seed=seed)) + "\n")
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
            ok &= result["correct"]
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) > 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            ok = False
        if len(results) < 2:
            for name in bounds:
                print(f"{workload}: {name:24} {results[0]['metrics'][name]['value']:12.5g}")
            continue
        print(f"{workload}: {'metric':24} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bound / 3:
                flag = "  > bound/3"
            if spread > bound:
                flag = "  > BOUND"
                ok = False
            print(f"{workload}: {name:24} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.3f} {bound / 3:8.3f}{flag}")
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: wall per run {min(walls):.1f}-{max(walls):.1f} s",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
