"""Self-test of the benchmark at tiny sizes; run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced on tiny inputs
and checks that the result line has exactly its four keys, that every
metric BENCHMARK.json names is printed with its unit, that no operation
failed, and that both runs give the same outcome fingerprint. It also checks
that layer_map.json covers every per-layer metric, and that the benchmark
fails, without a result line, in a directory that has no library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if set(layer_map) != set(expected[1]):
        problems.append("layer_map.json and BENCHMARK.json per_layer differ: %s"
                        % sorted(set(layer_map) ^ set(expected[1])))

    for w in spec["workloads"]:
        fingerprints = {}
        for trace in (0, 1):
            proc = bench(ROOT, w["name"], trace)
            where = "%s trace %d" % (w["name"], trace)
            if proc.returncode != 0:
                problems.append("%s exited %d: %s" % (where, proc.returncode,
                                                      proc.stderr[-2000:]))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s: correct=%s failed=%d attempted=%d" % (
                    where, result["correct"], result["failed"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got.items())
                                                 ^ set(expected[trace].items()))))
            for name, unit in expected[trace].items():
                if not any(line.startswith("%s = " % name) and line.endswith(" " + unit)
                           for line in lines):
                    problems.append("%s: %s not printed with its unit" % (where, name))
            fingerprints[trace] = [line for line in lines
                                   if line.startswith("fingerprint ")]
        if len(fingerprints) == 2 and (fingerprints[0] != fingerprints[1]
                                       or not fingerprints[0]):
            problems.append("%s: traced and untraced fingerprints differ: %s"
                            % (w["name"], fingerprints))
        print("checked %s" % w["name"], flush=True)

    # a directory holding only BENCHMARK.json and the benchmark's own files
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".work", ".out",
                                                          "__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark succeeded without library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
