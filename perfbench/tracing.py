"""Per-layer spans and counts for the traced benchmark run.

Nothing under ``src/`` is instrumented. ``install`` rebinds the public
functions at each layer boundary, at the name the caller looks up: ``verify``
imports ``enumerate_posets`` by name, while ``enumeration`` calls
``kernels.relation_codes`` as a module attribute, so each wrapper is bound
wherever a caller resolves it.

A layer's self time is its spans' durations minus the time covered by the
spans nested in them. A call into a layer from inside the same layer opens
no new span, so recursion and a layer's internal calls count once. Spans are
aggregated in memory and reported when the workload ends.
"""
from __future__ import annotations

import math
import statistics
from collections import Counter
from time import perf_counter

LAYERS = (
    "kernels.relations",
    "enumeration.posets",
    "enumeration.candidates",
    "kernels.pack",
    "kernels.flags",
    "properties.poset_flags",
    "adjoint.replay",
    "sasaki.replay",
    "naive.oracle",
    "io_cli.render",
    "verify.criteria",
)
REPLAY_LAYERS = ("adjoint.replay", "sasaki.replay")
CRITERIA = tuple(range(1, 13))
COUNTS = (
    "enumeration.posets_enumerated",
    "enumeration.posets_rejected",
    "kernels.maps_tried",
    "kernels.maps_orthogonal",
    "adjoint.instances_replayed",
    "search.hits",
)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("kernels.flags.call_p50_us", "us", "lower"),
        ("kernels.flags.call_p99_us", "us", "lower"),
    ]
    + [(f"verify.c{n:02d}_s", "s", "lower") for n in CRITERIA]
    + [(name, "count", "higher" if name == "search.hits" else "lower") for name in COUNTS]
    + [
        ("kernels.orthogonal_ratio", "ratio", "higher"),
        ("other.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("untraced.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Open spans on a stack; per-layer calls and self time; counters."""

    def __init__(self):
        self.stack = []  # [layer, start, time covered by child spans]
        self.calls = Counter()
        self.self_s = Counter()
        self.top_level_s = 0.0
        self.counts = Counter()
        self.flag_call_s = []
        self.criterion_s = Counter()
        self.poset = None  # [examined, flagged] for the last poset enumerated

    def current(self):
        return self.stack[-1][0] if self.stack else None

    def open(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def close(self) -> float:
        end = perf_counter()
        layer, start, covered = self.stack.pop()
        span = end - start
        self.calls[layer] += 1
        self.self_s[layer] += span - covered
        if self.stack:
            self.stack[-1][2] += span
        else:
            self.top_level_s += span
        return span

    def wrap(self, layer, fn, observe=None, skip_inside=()):
        """``fn`` inside a span of ``layer``; ``observe(args, result, span)``
        runs after the span closes."""

        def traced(*args, **kwargs):
            top = self.current()
            if top == layer or top in skip_inside:
                return fn(*args, **kwargs)
            self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close()
            if observe is not None:
                observe(args, result, span)
            return result

        return traced

    def wrap_iter(self, layer, fn, on_item):
        """A generator function whose every step runs inside a span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close()
                on_item(item)
                yield item

        return traced

    # -- counters kept at the layer boundaries ------------------------------

    def _end_poset(self) -> None:
        if self.poset is not None and self.poset[0] and not self.poset[1]:
            self.counts["enumeration.posets_rejected"] += 1
        self.poset = None

    def on_poset(self, _poset) -> None:
        self._end_poset()
        self.counts["enumeration.posets_enumerated"] += 1
        self.poset = [False, False]

    def on_examined(self, *_):
        if self.poset is not None:
            self.poset[0] = True

    def on_flags(self, _args, bits, span):
        from orthoposet import kernels

        self.counts["kernels.maps_tried"] += 1
        if bits & kernels.FLAG_ORTHOGONAL:
            self.counts["kernels.maps_orthogonal"] += 1
        self.flag_call_s.append(span)
        if self.poset is not None:
            self.poset[1] = True

    def on_replay(self, *_):
        if not any(entry[0] in REPLAY_LAYERS for entry in self.stack):
            self.counts["adjoint.instances_replayed"] += 1

    def on_criterion(self, args, _result, span):
        self.criterion_s[args[0]] += span

    # -- report -------------------------------------------------------------

    def metrics(self, wall_s: float, hits: int) -> dict:
        """Every per-layer metric of ``METRICS`` except ``untraced.wall_s``
        and ``trace.overhead_s``, which need an untraced run."""
        self._end_poset()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        calls_us = [s * 1e6 for s in self.flag_call_s]
        out["kernels.flags.call_p50_us"] = statistics.median(calls_us) if calls_us else 0.0
        out["kernels.flags.call_p99_us"] = percentile(calls_us, 0.99) if calls_us else 0.0
        for n in CRITERIA:
            out[f"verify.c{n:02d}_s"] = self.criterion_s[n]
        self.counts["search.hits"] = hits
        for name in COUNTS:
            out[name] = self.counts[name]
        tried = self.counts["kernels.maps_tried"]
        out["kernels.orthogonal_ratio"] = self.counts["kernels.maps_orthogonal"] / tried if tried else 0.0
        out["other.self_s"] = wall_s - self.top_level_s
        out["trace.wall_s"] = wall_s
        return out


def percentile(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def install(tracer: Tracer) -> None:
    """Rebind every layer boundary of orthoposet to a traced wrapper."""
    import inspect

    from orthoposet import adjoint, enumeration, io_cli, kernels, naive, sasaki, verify

    posets = tracer.wrap_iter("enumeration.posets", enumeration.enumerate_posets, tracer.on_poset)
    candidates = tracer.wrap("enumeration.candidates", enumeration.complement_candidates, tracer.on_examined)
    bindings = [
        ((kernels,), "relation_codes", tracer.wrap("kernels.relations", kernels.relation_codes)),
        ((kernels,), "decode_relation", tracer.wrap("kernels.relations", kernels.decode_relation)),
        ((enumeration, verify), "enumerate_posets", posets),
        ((enumeration, verify), "complement_candidates", candidates),
        ((kernels,), "pack_poset", tracer.wrap("kernels.pack", kernels.pack_poset)),
        ((kernels,), "instance_flags", tracer.wrap("kernels.flags", kernels.instance_flags, tracer.on_flags)),
        ((enumeration,), "instance_flag_map",
         tracer.wrap("adjoint.replay", enumeration.instance_flag_map, tracer.on_replay)),
        ((io_cli,), "poset_to_document", tracer.wrap("io_cli.render", io_cli.poset_to_document)),
        ((io_cli,), "serialize_document", tracer.wrap("io_cli.render", io_cli.serialize_document)),
        ((verify,), "run_criterion",
         tracer.wrap("verify.criteria", verify.run_criterion, tracer.on_criterion)),
    ]
    # Poset-level deciders as search calls them; instance_flag_map calls the
    # same names while replaying a hit, and that time stays with the replay.
    for name in ("is_saturated", "is_modular", "is_lattice"):
        fn = tracer.wrap("properties.poset_flags", getattr(enumeration, name), tracer.on_examined,
                         skip_inside=("adjoint.replay",))
        bindings.append(((enumeration,), name, fn))
    for name in ("is_adjoint_pair", "check_adjointness_consequences"):
        bindings.append(((verify,), name, tracer.wrap("adjoint.replay", getattr(adjoint, name), tracer.on_replay)))
    # instance_flag_map imports is_sasaki_total from sasaki when it runs.
    for modules, name, observe in (
        ((verify, sasaki), "is_sasaki_total", tracer.on_replay),
        ((verify,), "check_projection_laws", tracer.on_replay),
        ((verify,), "odot", None),
        ((verify,), "arrow", None),
    ):
        bindings.append((modules, name, tracer.wrap("sasaki.replay", getattr(sasaki, name), observe)))
    for name, fn in inspect.getmembers(naive, inspect.isfunction):
        if fn.__module__ == naive.__name__ and not name.startswith("_"):
            bindings.append(((naive,), name, tracer.wrap("naive.oracle", fn)))
    for modules, name, fn in bindings:
        for module in modules:
            setattr(module, name, fn)
