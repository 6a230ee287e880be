"""Workloads of the orthoposet benchmark, one repetition per process.

    python3 perfbench/workloads.py WORKLOAD SEED MODE

MODE is ``setup`` (import orthoposet and build the inputs, then stop),
``run`` (set up, then run the workload untraced) or ``trace`` (the same with
the layer wrappers of ``tracing.py`` installed). The process prints one JSON
object: the monotonic clock when set-up ended and when the workload ended,
the durations of the reference computations (below), its peak RSS, the
workload's output checks and, when traced, the per-layer figures.
``run.py`` starts this file in a fresh interpreter for every repetition, so
no repetition sees a memo (such as ``verify._caches``) left by an earlier
one; import and input construction fall in set-up, not in the timed
workload.

The speed of the shared host this benchmark runs on changes within seconds,
by up to half, and alike for all the work of a process. So in ``run`` mode a
SIGALRM handler interrupts the workload every ``REF_INTERVAL_S`` seconds and
times ``reference()``, a fixed computation of the same kinds of work as the
workloads (Python integers, tuples and dicts, small numpy arrays). Its mean
duration measures the host's speed over the repetition, and ``run.py``
reports the workload's time in units of it. The handler's time is taken out
of the workload's.

Every workload is exhaustive and deterministic. ``search6`` passes the seed
to ``SearchGoal.seed``; because the goal requires ``complemented``, map
generation is exhaustive and its hit set does not depend on the seed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import resource
import signal
import sys
import time

# Expected outputs of the exhaustive complemented sweep at carrier size n:
# bounded posets, posets with a complement for every element, complementation
# maps, orthogonal maps, and the digest over the sorted (up rows, prime, flag
# bits) tuples. The n=6 digest pins the flag bits bit-for-bit.
SWEEP_EXPECTED = {
    5: (380, 140, 400, 400, None),
    6: (6570, 2190, 25470, 25470, "38b41d9e291364d0bde052e9a0f070d3fa5cb2037d518f43774b92011fd03d26"),
}
SEARCH6_HITS = 2500
SEARCH6_DIGEST = "c4704b1ae0e3d3f8f9d6c1cb262b0017cedbb910c65f11a26dac136b122360b6"
ENUM7_RELATIONS = 130023  # labeled posets on 6 elements, OEIS A001035
ENUM7_POSETS = 177702  # labeled bounded posets on 7 elements, 7 * 6 * 4231

# Work items per repetition, for items_per_s: instances passed to
# instance_flags by the seed code (sweep6, search6, verify), and posets
# produced (enum7). The counts are properties of the workload's input, so a
# later change that prunes work shows as a higher throughput.
ITEMS = {"sweep6": 25470, "search6": 2605, "verify": 9802, "enum7": ENUM7_RELATIONS + ENUM7_POSETS}


REF_INTERVAL_S = 0.1  # time between two reference computations
_REF_ARRAYS = []


def reference() -> None:
    """The reference computation, a few milliseconds of fixed work in four
    parts, one for each kind of work the workloads do: Python integer
    arithmetic, Python tuples, dicts and sorting, numpy operations on 8x8
    matrices, and numpy einsum and casts on 6x6x6 boolean arrays."""
    import numpy as np

    if not _REF_ARRAYS:
        _REF_ARRAYS.extend([np.arange(64, dtype=np.uint8).reshape(8, 8), np.ones((6, 6, 6), dtype=bool)])
    m, b = _REF_ARRAYS
    s = 0
    for i in range(8000):
        s += i * i % 7
    for _ in range(40):
        d = {(i, i & 7): [i, i + 1] for i in range(60)}
        sorted(d.items(), key=lambda kv: kv[0][1])
        frozenset(k for k in d if k[1] > 3)
    for _ in range(120):
        (np.matmul(m, m) > 0).any()
    for _ in range(40):
        u = b.astype(np.uint8)
        np.einsum("xym,myt->xyt", u, u) > 0
        (u & ~b).any()


class Reference:
    """Times ``reference()`` every REF_INTERVAL_S seconds while started."""

    def __init__(self):
        self.times = []
        self.running = False

    def _tick(self, signum, frame) -> None:
        if not self.running:  # stopped, or a tick that arrived during one
            return
        self.running = False
        start = time.monotonic()
        reference()
        self.times.append(time.monotonic() - start)
        self.running = True

    def start(self) -> None:
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def digest(rows) -> str:
    """Order-independent digest of an iterable of tuples of ints."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()


def check(name: str, got, want) -> list:
    return [name, got == want, f"got {got}, want {want}"]


def sweep(n: int) -> dict:
    """Every complementation map on every bounded poset on n elements."""
    from orthoposet import enumeration, kernels

    posets = complemented = 0
    out = []
    for p in enumeration.enumerate_posets(n):
        posets += 1
        cands = enumeration.complement_candidates(p)
        if any(not c for c in cands):
            continue
        complemented += 1
        packed = kernels.pack_poset(p)
        for prime in itertools.product(*cands):
            out.append((p.up, prime, kernels.instance_flags(packed, prime)))
    orthogonal = sum(1 for _, _, bits in out if bits & kernels.FLAG_ORTHOGONAL)
    return {"posets": posets, "complemented": complemented, "out": out, "orthogonal": orthogonal}


def sweep_checks(n: int, result: dict) -> list:
    posets, complemented, maps, orthogonal, want_digest = SWEEP_EXPECTED[n]
    checks = [
        check(f"sweep{n}.posets", result["posets"], posets),
        check(f"sweep{n}.complemented", result["complemented"], complemented),
        check(f"sweep{n}.maps", len(result["out"]), maps),
        check(f"sweep{n}.orthogonal", result["orthogonal"], orthogonal),
    ]
    if want_digest is not None:
        checks.append(check(f"sweep{n}.digest", digest(result["out"]), want_digest))
    return checks


def search_goal(seed: int):
    from orthoposet import SearchGoal

    return SearchGoal(
        require=frozenset({"modular", "complemented"}),
        forbid=frozenset({"orthomodular"}),
        max_n=6,
        seed=seed,
    )


def search(goal) -> dict:
    """Scan the goal in full; replay and serialise every hit as the CLI does."""
    from orthoposet import enumeration, io_cli

    hits = []
    replay_mismatches = 0
    chars = 0
    for count, op in enumerate(enumeration.search(goal), 1):
        flags = enumeration.instance_flag_map(op)
        doc = io_cli.poset_to_document(op.poset, f"hit{count}", op.prime)
        text = io_cli.serialize_document(doc)
        text += "# flags: " + " ".join(f"{k}={str(v).lower()}" for k, v in sorted(flags.items()))
        chars += len(text)
        hits.append((op.poset.up, op.prime))
        if not all(flags[f] for f in goal.require) or any(flags[f] for f in goal.forbid):
            replay_mismatches += 1
    return {"hits": hits, "replay_mismatches": replay_mismatches, "chars": chars}


def search_checks(result: dict) -> list:
    return [
        check("search6.hits", len(result["hits"]), SEARCH6_HITS),
        check("search6.digest", digest(result["hits"]), SEARCH6_DIGEST),
        check("search6.replay_mismatches", result["replay_mismatches"], 0),
    ]


def verify_all() -> dict:
    from orthoposet import verify

    return {"results": verify.run_all()}


def verify_checks(result: dict) -> list:
    got = {r.number: r for r in result["results"]}
    checks = [check("verify.criteria", sorted(got), list(range(1, 13)))]
    for number in range(1, 13):
        r = got.get(number)
        checks.append([f"verify.c{number:02d}", r is not None and r.passed, r.detail if r else "missing"])
    return checks


def enum7() -> dict:
    from orthoposet import enumeration

    relations = sum(1 for _ in enumeration.enumerate_relations(6))
    posets = sum(1 for _ in enumeration.enumerate_posets(7))
    return {"relations": relations, "posets": posets}


def enum7_checks(result: dict) -> list:
    return [
        check("enum7.relations", result["relations"], ENUM7_RELATIONS),
        check("enum7.posets", result["posets"], ENUM7_POSETS),
    ]


def build(workload: str, seed: int):
    """Inputs of one repetition, as (run, checks): both take no set-up work."""
    if workload == "sweep6":
        return (lambda: sweep(6)), (lambda r: sweep_checks(6, r))
    if workload == "search6":
        goal = search_goal(seed)
        return (lambda: search(goal)), search_checks
    if workload == "verify":
        return verify_all, verify_checks
    if workload == "enum7":
        return enum7, enum7_checks
    raise SystemExit(f"unknown workload {workload!r}")


WORKLOADS = ("sweep6", "search6", "verify", "enum7")


def environment() -> dict:
    import numpy

    from orthoposet import kernels

    return {
        "numpy": numpy.__version__,
        "backend": kernels.active_backend(),
        "numba_imports": kernels.HAVE_NUMBA,
    }


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import orthoposet  # noqa: F401  - the import is part of set-up

    run, checks = build(workload, seed)
    ref = Reference()
    reference()  # warm-up: the first call sets up numpy's matmul
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    if mode == "run":
        ref.start()
    result = run()
    ref.stop()  # before the clock is read: every timed tick falls before end
    end = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "ready": ready,
        "end": end,
        "ref_s": ref.times,
        "rss_kb": rss_kb,
        "checks": checks(result),
        "hits": len(result.get("hits", ())),
        "env": environment(),
    }
    if tracer is not None:
        record["checks"].append(check("trace.open_spans", len(tracer.stack), 0))
        record["layers"] = tracer.metrics(end - ready, hits=record["hits"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
