"""Repeat workloads over several seeds and record how steady each metric is.

Run from the root of a checkout, with nothing else loading the machine::

    python3 perfbench/steadiness.py --workloads serve-mixed --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  A spread above a third of the bound is marked.
``--trace`` does the same for the per-layer metrics, which have no bound.
``--repeat N`` runs every seed N times and checks that the metrics which
must repeat exactly for a fixed seed (counts, ratios of counts,
``relative_size``) do.  Runs are sequential: the workloads use both CPUs
of a small box.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that are exact for a fixed seed: counts and ratios of counts.
EXACT_UNITS = {"count", "count/job", "B/edge"}
EXACT_NAMES = {"relative_size", "success_rate", "storage.summary_cache_hit_ratio",
               "core.prune.yield", "engine.replay_yield"}


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    spread = (q3 - q1) / middle if middle else 0.0
    return {"median": middle, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--out", help="merge the record into this JSON file")
    parser.add_argument("--section", help="record key in --out (default: derived "
                                          "from --trace and --repeat)")
    args = parser.parse_args(argv)

    specs = declared["per_layer" if args.trace else "end_to_end"]
    exact = {m["name"] for m in specs
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES}
    section = "per_layer" if args.trace else "end_to_end"
    if args.repeat > 1:
        section += f"_repeat{args.repeat}"
    section = args.section or section
    bounds = {m["name"]: m.get("bound") for m in specs}
    record = {}
    for workload in args.workloads.split(","):
        runs, mismatches = [], []
        for seed in _seeds(args.seeds):
            first = None
            for _ in range(args.repeat):
                result = run_once(workload, seed, args.seconds, int(args.trace))
                print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, "
                      f"correct={result['correct']}", file=sys.stderr, flush=True)
                runs.append(result)
                first = first or result
                mismatches += [
                    f"seed {seed}: {name}" for name in sorted(exact)
                    if result["metrics"][name]["value"] != first["metrics"][name]["value"]
                ]
        metrics = {
            m["name"]: summarize([run["metrics"][m["name"]]["value"] for run in runs])
            for m in specs
        }
        record[workload] = {
            "seeds": _seeds(args.seeds),
            "repeat": args.repeat,
            "all_correct": all(run["correct"] for run in runs),
            "run_elapsed_s": [round(run["elapsed_s"], 2) for run in runs],
            "metrics": metrics,
        }
        if args.repeat > 1:
            record[workload]["exact_metrics_repeat"] = not mismatches
        print(f"{workload} ({section}, {len(runs)} runs, all correct: "
              f"{record[workload]['all_correct']})")
        for name, stats in metrics.items():
            bound = bounds[name]
            note = "" if bound is None else f"(bound {bound})"
            if bound is not None and stats["spread"] > bound / 3:
                note += "   <-- above bound/3"
            print(f"  {name:36s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
                  f"q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f} {note}")
        for mismatch in mismatches:
            print(f"  NOT EXACT: {mismatch}")
    if args.out:
        path = Path(args.out)
        existing = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        existing.setdefault("machine", f"{platform.machine()}, {platform.python_version()}, "
                                       f"{os.cpu_count()} CPUs")
        existing.setdefault(section, {}).update(record)
        path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
