#!/usr/bin/env python3
"""Benchmark of orthoposet: exhaustive workloads, end to end and per layer.

Run from the root of a source checkout; orthoposet is imported from ``src/``:

    python3 perfbench/run.py --workload sweep6 --seed 0 --seconds 30 --trace 0

Workloads (``workloads.py`` has the details and the expected outputs):

* ``sweep6``: every complementation map on every bounded poset on 6
  elements, through enumerate_posets, complement_candidates, pack_poset and
  instance_flags. Mostly full-depth flag evaluation.
* ``search6``: one fixed search goal at max_n=6 scanned in full, every hit
  replayed and serialised as ``orthoposet search`` does. Mostly poset-level
  deciders and slow-path replay.
* ``verify``: ``orthoposet verify-paper``, all twelve criteria. About half
  of it is the flag kernel at full depth on 9,802 maps over carriers of at
  most 5 elements, all of them total (every bounded poset that small is a
  lattice); the rest is mostly projection-law replay and the naive oracle.
* ``enum7``: counts every labeled poset on 6 elements and every labeled
  bounded poset on 7. Relation enumeration and Poset construction.

Every repetition starts cold in a fresh interpreter, as a CLI user does, and
checks its outputs. With ``--trace 0`` the run first starts a few processes
that only set up, then repeats the workload while at least half of the next
repetition fits in ``--seconds`` (at least once). It prints the end-to-end
metrics:

* ``wall_ref``: median time from the end of set-up to the end of the
  workload, in refs. A ref is the mean duration of the reference computation
  that interrupts the workload every 0.1 s in the same process
  (``workloads.Reference``), so a repetition's figure is its wall time, less
  the reference computations, over that mean. The host's speed changes by up
  to half within seconds and cancels out of this ratio; the same time in
  seconds, ``wall_s``, does not settle, and is printed for information;
* ``setup_s``: median time from starting the interpreter until orthoposet is
  imported and the inputs are built, over every process the run started;
* ``items_per_kref``: work items (``workloads.ITEMS``) per thousand refs of
  ``wall_ref``;
* ``peak_rss_mb``: median peak resident set of the workload processes;

and ``ops_failed``, the share of output checks that failed, which is also the
``failed``/``attempted`` pair of the result line. With ``--trace 1`` it first
measures the workload untraced, as ``--trace 0`` does, then runs it once with
the layer wrappers of ``tracing.py``, and prints the per-layer metrics;
``untraced.wall_s`` is the median wall time in seconds of the untraced
repetitions, and ``trace.overhead_s`` the traced wall time minus it. It rests
on a single traced repetition, so where tracing costs little it is within
machine noise and can be negative: it is for information only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run,
with the environment and every sample, is written to ``perfbench/out/``.
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

import tracing
from workloads import ITEMS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only processes per run, besides the repetitions
TIME_LIMIT_S = 170.0  # the whole run, processes included, ends before this

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("items_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
)


class ChildError(RuntimeError):
    pass


class Runner:
    """Starts one workload process at a time and keeps the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.env = env

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict:
        remaining = TIME_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise ChildError("time limit reached")
        cmd = [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.seed), mode]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"{self.workload} {mode} exceeded the time limit") from None
        t1 = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(
                f"{self.workload} {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - t0
        record["cost_s"] = t1 - t0
        if "end" in record:
            # The workload's own time: the reference computations are taken out.
            record["wall_s"] = record["end"] - record["ready"] - sum(record["ref_s"])
            if record["ref_s"]:
                record["wall_ref"] = record["wall_s"] / statistics.mean(record["ref_s"])
        return record


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.spawn("setup")  # fills the bytecode caches, as an installed package has them
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(runner.spawn("run"))
        # Start another repetition if at least half of it fits in the run.
        cost = statistics.median(r["cost_s"] for r in reps)
        if runner.elapsed() + cost / 2 > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    walls = [r["wall_s"] for r in reps]
    wall_refs = [r["wall_ref"] for r in reps]
    wall_ref = statistics.median(wall_refs)
    metrics = {
        "wall_ref": wall_ref,
        "setup_s": statistics.median(setups),
        "items_per_kref": ITEMS[runner.workload] / wall_ref * 1000,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) * 1024 / 1e6,
        "wall_s": statistics.median(walls),
        "ref_us": statistics.median(statistics.mean(r["ref_s"]) for r in reps) * 1e6,
    }
    samples = {"wall_ref": wall_refs, "wall_s": walls, "setup_s": setups,
               "rss_kb": [r["rss_kb"] for r in reps]}
    return metrics, {"reps": reps, "samples": samples}


def trace(runner: Runner, seconds: float) -> tuple[dict, dict]:
    untraced, detail = measure(runner, seconds)
    traced = runner.spawn("trace")
    metrics = dict(traced["layers"])
    metrics["untraced.wall_s"] = untraced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, {"reps": detail["reps"] + [traced], "samples": detail["samples"]}


def git_revision():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(child_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        **child_env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orthoposet" / "__init__.py").is_file():
        print(f"perfbench: no orthoposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        metrics, detail = (trace if args.trace else measure)(runner, args.seconds)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = detail["reps"]
    checks = [c for r in reps for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    env = environment(reps[0]["env"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  time {runner.elapsed():.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.METRICS}
        for name, _, _ in tracing.METRICS:
            print(f"  {name:34s} {metrics[name]:>14.6g} {units[name]}")
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"  layer self times + other.self_s = {self_sum + metrics['other.self_s']:.6f} s; "
              f"trace.wall_s = {metrics['trace.wall_s']:.6f} s")
    else:
        units = dict(END_TO_END)
        n = len(detail["samples"]["wall_ref"])
        print(f"  wall_ref        {metrics['wall_ref']:.1f} ref     median of {n}; "
              f"1 ref = {metrics['ref_us']:.1f} us, median of the repetitions' means")
        tail = tail_percentile(detail["samples"]["wall_ref"])
        if tail is None:
            print(f"  wall_ref tail   n/a          {n} samples; a tail percentile needs at least 11")
        else:
            print(f"  wall_ref p{tail[0]:.0f}   {tail[1]:.1f} ref     of {n}")
        print(f"  wall_s          {metrics['wall_s']:.4f} s     median of {n}, for information")
        print(f"  setup_s         {metrics['setup_s']:.4f} s     median of {len(detail['samples']['setup_s'])}")
        print(f"  items_per_kref  {metrics['items_per_kref']:.1f} 1/kref   {ITEMS[args.workload]} items")
        print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.2f} MB")
    print(f"  ops_failed      {len(failed) / len(checks):.4f} share {len(failed)} of {len(checks)} checks")
    for name, _, info in failed:
        print(f"  FAILED {name}: {info}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "metrics": metrics, "checks": checks, **detail}
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
