#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the result in one file.

    python3 perfbench/collect.py --label seed

For each workload it makes ``RUNS`` untraced runs, seeds 1..RUNS, with the
``run_seconds`` of BENCHMARK.json, then one traced run. It writes
``perfbench/BENCH_<label>.json``: the environment, every end-to-end value
with its median, quartiles and spread (the distance between the quartiles
as a share of the median), the tail percentile of wall_ref over every
repetition of the runs, the same summary of the wall time in seconds (for
information: it has no bound), and the per-layer metrics of the traced run.
It prints each spread beside a third of the metric's bound, the steadiness this
benchmark aims for.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed check(s)\n{proc.stdout}")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "env": record["env"],
        "wall_refs": record.get("samples", {}).get("wall_ref", []),
        "wall_s": record["metrics"].get("wall_s"),
    }


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        end_to_end = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
        wall_refs = [w for r in runs for w in r["wall_refs"]]
        end_to_end["wall_ref"]["repetitions"] = len(wall_refs)
        end_to_end["wall_ref"]["tail"] = tail_percentile(wall_refs)
        traced = run_once(workload, 0, spec["run_seconds"], 1)
        report["env"] = traced["env"]
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "wall_s": summary([r["wall_s"] for r in runs]),
            "per_layer": traced["metrics"],
        }
        for name, s in end_to_end.items():
            print(f"{workload:8s} {name:12s} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  (bound/3 {bounds[name] / 3:.4f})")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
