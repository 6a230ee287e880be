#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names the workloads and metrics that run.py
and tracing.py report; runs a reduced smoke pass (the sweep at n=5 gives 380
bounded posets, 140 complemented and 400 maps), untraced and traced, and
checks the traced counts and that the layer self times plus other.self_s add
up to the traced wall time; checks that search6 gives the same hit digest
under two seeds; and checks that the reference computation ticks while
started and not after it is stopped. Exits 0 when every check passes, 1
otherwise.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(name: str, ok: bool, info: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {info}" if info and not ok else ""))
    if not ok:
        failures.append(name)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    expect(
        "BENCHMARK.json end_to_end",
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
    )
    expect(
        "BENCHMARK.json per_layer",
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS),
    )


def check_smoke() -> None:
    for name, ok, info in workloads.sweep_checks(5, workloads.sweep(5)):
        expect(f"untraced {name}", ok, info)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    start = time.perf_counter()
    result = workloads.sweep(5)
    wall = time.perf_counter() - start
    for name, ok, info in workloads.sweep_checks(5, result):
        expect(f"traced {name}", ok, info)
    expect("traced spans all closed", not tracer.stack)
    m = tracer.metrics(wall, hits=0)
    for name, want in (
        ("enumeration.posets_enumerated", 380),
        ("enumeration.posets_rejected", 240),
        ("kernels.pack.calls", 140),
        ("kernels.maps_tried", 400),
        ("kernels.flags.calls", 400),
        ("kernels.maps_orthogonal", 400),
    ):
        expect(f"traced {name} = {want}", m[name] == want, f"got {m[name]}")
    self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["other.self_s"]
    expect("self times add up to the wall time", math.isclose(self_sum, wall, rel_tol=1e-9),
           f"{self_sum} vs {wall}")
    missing = {name for name, _, _ in tracing.METRICS} - set(m) - {"untraced.wall_s", "trace.overhead_s"}
    expect("traced run reports every per-layer metric", not missing, str(sorted(missing)))


def check_search_seeds() -> None:
    digests = []
    for seed in (0, 7):
        result = workloads.search(workloads.search_goal(seed))
        for name, ok, info in workloads.search_checks(result):
            expect(f"seed {seed} {name}", ok, info)
        digests.append(workloads.digest(result["hits"]))
    expect("search6 digest identical under two seeds", digests[0] == digests[1])


def busy(seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def check_reference() -> None:
    ref = workloads.Reference()
    ref.start()
    busy(5 * workloads.REF_INTERVAL_S)
    ref.stop()
    ticks = len(ref.times)
    expect("reference ticks while started", ticks >= 3, f"{ticks} ticks")
    busy(3 * workloads.REF_INTERVAL_S)
    expect("reference stops ticking", len(ref.times) == ticks, f"{len(ref.times)} vs {ticks}")


def main() -> int:
    check_spec()
    check_reference()
    check_search_seeds()
    check_smoke()  # last: it leaves the tracer installed
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
