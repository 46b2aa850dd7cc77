"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload learn-narrow --seeds 1-10

Each run is untraced and measures for BENCHMARK.json's `run_seconds`. For
every workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. Runs are sequential, one process each. Raw results go to
perfbench/.out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["fingerprint"] = next(line.split()[1] for line in lines
                                 if line.startswith("fingerprint "))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    status = 0
    for workload in args.workload:
        results = {}
        for seed in parse_seeds(args.seeds):
            results[seed] = run(workload, seed, spec["run_seconds"])
            r = results[seed]
            print("%s seed %d correct=%s failed=%d/%d %s" % (
                workload, seed, r["correct"], r["failed"], r["attempted"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)
            status |= not r["correct"]
        with open(os.path.join(HERE, ".out", "spread-%s.json" % workload), "w") as fh:
            json.dump(results, fh, indent=1)
        if len(results) < 2:
            continue
        for name in next(iter(results.values()))["metrics"]:
            values = [r["metrics"][name]["value"] for r in results.values()]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            print("  %-30s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.4f"
                  "  bound %.2f (third %.4f)" % (name, median, q1, q3, spread,
                                                 bound, bound / 3))
    return status


if __name__ == "__main__":
    sys.exit(main())
