"""SLUGGER end-to-end benchmark: one workload, one run, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload summarize-web-w2 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with tracing on and prints every
per-layer metric instead (a layer the workload never calls reads 0).
Every time and rate is reported at the nominal host's speed: the run
times fixed reference work between its operations and divides the
host's slowdown out (``harness.HostSpeed``; ``--trace 1`` reports the
factor as ``host.slowdown``).
The last line of standard output is the result object; progress and
failure notes go to standard error.  See ``perfbench/README.md`` for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Units of the metrics scaled by the run's host slowdown: times are
#: divided by it, rates multiplied.
TIME_UNITS = {"s", "ms", "ms/op"}
RATE_UNITS = {"1/s"}


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    declared = _declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    # Everything the run writes stays inside the checkout.
    os.environ["TMPDIR"] = str(ROOT / ".bench_tmp")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import run_serve, run_summarize

    runner = run_serve if args.workload == "serve-mixed" else run_summarize
    values, tally, speed = runner(args.workload, args.seed, args.seconds, bool(args.trace))
    # Worker pools are closed by the program; reap any straggler anyway.
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()

    specs = declared["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in specs}
    if not args.trace:
        values["success_rate"] = 1.0 - tally.failed / max(1, tally.attempted)
    # Times and rates are reported at the nominal host's speed.
    slowdown = speed.slowdown()
    print(f"host slowdown {slowdown:.4f} over {len(speed.seconds)} reference samples",
          file=sys.stderr)
    for name, unit in units.items():
        if name in values and unit in TIME_UNITS:
            values[name] /= slowdown
        elif name in values and unit in RATE_UNITS:
            values[name] *= slowdown
    if args.trace:
        values["host.slowdown"] = slowdown
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not args.trace):
        print(f"metric set mismatch: unknown={unknown} missing={missing}", file=sys.stderr)
        return 3
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
