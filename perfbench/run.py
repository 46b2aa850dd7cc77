"""Seeded learn/evaluate benchmark of bgplearn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn-wide --seed 7 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and the tracing overhead) and writes every span to perfbench/.out/.
`--workload all` runs each workload in its own process, one after another.
The last line of a single-workload run is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("learn-wide", "learn-narrow", "evaluate-large")


def _import_library():
    """Put the checkout's own sources first; fail if they are not there."""
    if not os.path.isfile(os.path.join(SRC, "bgplearn", "__init__.py")):
        sys.exit("perfbench: no bgplearn sources under %s" % SRC)
    sys.path[:0] = [SRC, HERE]
    import bgplearn
    if not os.path.abspath(bgplearn.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported bgplearn from %s, not from this checkout"
                 % bgplearn.__file__)


def _with_units(values: dict, specs: list) -> dict:
    """Attach BENCHMARK.json's units; the metric names must match it exactly."""
    units = {m["name"]: m["unit"] for m in specs}
    if set(values) != set(units):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(values) ^ set(units)))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_one(args) -> int:
    _import_library()
    import workloads
    from tracer import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    w = workloads.WORKLOADS[args.workload]
    if args.size == "tiny":
        w = workloads.tiny(w)
    tracer = Tracer() if args.trace else None
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (w.name, args.seed),
                               dir=os.path.join(HERE, ".work"))
    try:
        result = workloads.run(w, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        out = os.path.join(HERE, ".out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "spans-%s-seed%d.jsonl" % (w.name, args.seed))
        tracer.write(path)
        print("spans written to %s" % os.path.relpath(path, ROOT))

    metrics = _with_units(result.metrics,
                          spec["per_layer" if args.trace else "end_to_end"])
    print("workload %s seed %d size %s trace %d" % (w.name, args.seed, args.size,
                                                    args.trace))
    print("fingerprint %s" % result.fingerprint)
    for key, value in sorted(result.info.items()):
        print("info %s = %s" % (key, _format(value)))
    for name, m in metrics.items():
        print("%s = %s %s" % (name, _format(m["value"]), m["unit"]))
    print("ops_failed = %s ratio (%d of %d)" % (
        _format(result.failed / result.attempted), result.failed, result.attempted))
    sys.stdout.flush()
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print("== %s" % name, flush=True)
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; sets the number of timed units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
