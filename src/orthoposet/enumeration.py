"""Exhaustive generation of small posets and unary operations.

Bounded posets are generated directly as bottom x top x (arbitrary poset on
the remaining elements), which is exactly the labeled bounded posets; the
unrestricted stream comes from the relation kernels. Both are deterministic,
duplicate-free and cross-checked against the naive filters in tests.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import kernels
from .adjoint import check_directions
from .poset_core import OpPoset, Poset, PosetError, UndefinedOperationError
from .properties import PROPERTY_NAMES, is_lattice, is_modular, is_saturated, op_reports

MAX_BOUNDED_N = 8  # every row mask must fit one byte of enumerate_posets' row buffers

# Maps drawn per poset with n >= 5 when the goal leaves "complemented" out.
MAP_SAMPLES = 512

SEARCH_FLAGS = PROPERTY_NAMES + ("total", "a1", "a2", "adjoint")


def enumerate_relations(n: int) -> Iterator[tuple[int, ...]]:
    """Up-row tuples of every labeled poset on n elements, once each, by orientation code."""
    yield from kernels.relation_rows(n)


def enumerate_posets(n: int) -> Iterator[Poset]:
    """Every labeled *bounded* poset on n elements, as Poset values.

    The order is bottom x top x ``relation_rows(n - 2)`` on the elements in
    between. Each middle relation is validated once, by the ``Poset``
    constructor on a frame: the relation on elements 0..n-3, with n-2 below
    and n-1 above them. Every poset yielded is a frame relabeled so that n-2
    and n-1 land on the chosen bottom and top, and a relabeled valid order is
    valid, so it is built by ``Poset._trusted`` without a second check. The
    up rows of all frames are one ``bytes`` buffer, n bytes per frame, and
    the down rows a second; each (bottom, top) pair translates both once
    through its 256-byte table, and a copy's row i is column ``to_frame[i]``.
    """
    if not (1 <= n <= MAX_BOUNDED_N):
        raise PosetError(f"bounded enumeration supports 1 <= n <= {MAX_BOUNDED_N}")
    names = tuple(f"p{i}" for i in range(n))
    if n == 1:
        yield Poset(names, (1,))
        return
    m = n - 2
    full = (1 << n) - 1
    frames = [Poset(names, [row | 1 << (m + 1) for row in middle] + [full, 1 << (m + 1)])
              for middle in (kernels.relation_rows(m) if m else [()])]
    ups = bytes(itertools.chain.from_iterable(frame.up for frame in frames))
    downs = bytes(itertools.chain.from_iterable(frame.down for frame in frames))
    trusted = Poset._trusted
    for bottom in range(n):
        for top in range(n):
            if top == bottom:
                continue
            # frame element k goes to target[k]; spread[S] is the frame subset S moved
            target = [i for i in range(n) if i not in (bottom, top)] + [bottom, top]
            spread = bytearray(256)
            for s in range(1, full + 1):
                j = (s & -s).bit_length() - 1
                spread[s] = spread[s & (s - 1)] | 1 << target[j]
            to_frame = tuple(sorted(range(n), key=target.__getitem__))
            up, down = ups.translate(spread), downs.translate(spread)
            copy_ups = zip(*[up[k::n] for k in to_frame])
            copy_downs = zip(*[down[k::n] for k in to_frame])
            for frame, copy_up, copy_down in zip(frames, copy_ups, copy_downs):
                yield trusted(names, copy_up, copy_down, bottom, top, frame, to_frame)


def complement_candidates(p: Poset) -> list[list[int]]:
    """Per element, the ascending list of its complements, from the order masks."""
    top, bottom = 1 << p.top, 1 << p.bottom
    rng = range(p.n)
    return [
        [y for y in rng if up & p.up[y] == top and down & p.down[y] == bottom]
        for up, down in zip(p.up, p.down)
    ]


@dataclass(frozen=True)
class SearchGoal:
    """What to hunt for: required flags, forbidden flags, carrier bound."""

    require: frozenset = field(default_factory=frozenset)
    forbid: frozenset = field(default_factory=frozenset)
    max_n: int = 5
    limit: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        req = frozenset(self.require)
        forb = frozenset(self.forbid)
        object.__setattr__(self, "require", req)
        object.__setattr__(self, "forbid", forb)
        unknown = (req | forb) - set(SEARCH_FLAGS)
        if unknown:
            raise PosetError(f"unknown search flags: {', '.join(map(repr, sorted(unknown)))}")
        if req & forb:
            raise PosetError("require and forbid overlap")
        if not (1 <= self.max_n <= MAX_BOUNDED_N):
            raise PosetError(f"max_n must be between 1 and {MAX_BOUNDED_N}")
        if self.limit is not None and self.limit < 1:
            raise PosetError(f"limit must be at least 1, got {self.limit}")


def instance_flag_map(op: OpPoset) -> dict[str, bool]:
    """Flag values for one instance, from the core deciders (the slow,
    witness-producing route). Used to replay search hits.

    The property flags are ``op_reports``; total/a1/a2/adjoint come from one
    ``check_directions`` pass. Both read ``properties.poset_memo``, so the
    hits on one poset, which arrive in a row, decide its poset-level reports
    once and each of its (element, image) lines once.
    """
    flags = {name: r.holds for name, r in op_reports(op).items()}
    try:
        (a1, _), (a2, _) = check_directions(op)
    except UndefinedOperationError:
        a1 = a2 = total = False
    else:
        total = True
    flags["total"] = total
    flags["a1"] = a1
    flags["a2"] = a2
    flags["adjoint"] = a1 and a2
    return flags


def complementations(index: int, p: Poset) -> Iterator[tuple[int, ...]]:
    """Map source for ``sweep``: every complementation of p, each element
    sent to one of its complements."""
    return itertools.product(*complement_candidates(p))


def all_maps(index: int, p: Poset) -> Iterator[tuple[int, ...]]:
    """Map source for ``sweep``: every unary map on p."""
    return itertools.product(range(p.n), repeat=p.n)


def sweep(posets, maps) -> Iterator[tuple[int, Poset, tuple[int, ...], int]]:
    """``(index, poset, prime, flag bits)`` for every ``prime`` in
    ``maps(index, poset)`` over ``enumerate(posets)``, for any iterable of
    bounded posets.

    ``kernels.instance_flags`` packs a poset's frame on its first map, so a
    source that yields nothing for a poset costs no join/meet tables.
    """
    for index, p in enumerate(posets):
        for prime in maps(index, p):
            yield index, p, prime, kernels.instance_flags(p, prime)


def _sampled_maps(goal: SearchGoal, index: int, p: Poset) -> Iterator[tuple[int, ...]]:
    """All maps for n <= 4, else a sample seeded by the goal, n and index."""
    if p.n <= 4:
        yield from all_maps(index, p)
        return
    rng = random.Random(f"{goal.seed}:{p.n}:{index}")
    seen = set()
    budget = min(p.n ** p.n, MAP_SAMPLES)
    while len(seen) < budget:
        prime = tuple(rng.randrange(p.n) for _ in range(p.n))
        if prime not in seen:
            seen.add(prime)
            yield prime


def _goal_maps(goal: SearchGoal):
    """The map source of ``search``, built once per carrier size so that each
    size's verdicts are freed with it.

    A poset passes when the deciders of the goal's poset-level flags
    (saturated, modular, lattice) give the values the goal asks for and, if
    the goal requires "complemented", every element has a complement; it then
    gets its complementations, or else ``_sampled_maps``. The verdict is an
    isomorphism invariant, decided on the first copy of each frame that
    ``enumerate_posets`` yields and kept under the frame the copy records
    (the one poset at n = 1 has no frame and is its own key).
    """
    # looked up when the source is built, so a rebound module-global decider is the one run
    deciders = {"saturated": is_saturated, "modular": is_modular, "lattice": is_lattice}
    wanted = {f: f in goal.require for f in deciders if f in goal.require | goal.forbid}
    complemented = "complemented" in goal.require
    verdicts = {}

    def maps(index: int, p: Poset):
        frame = p.frame or p
        verdict = verdicts.get(frame)
        if verdict is None:
            verdict = all(deciders[f](p).holds == want for f, want in wanted.items())
            verdicts[frame] = verdict
        if not verdict:
            return ()
        if not complemented:
            return _sampled_maps(goal, index, p)
        candidates = complement_candidates(p)
        if not all(candidates):
            verdicts[frame] = False
            return ()
        return itertools.product(*candidates)

    return maps


def search(goal: SearchGoal) -> Iterator[OpPoset]:
    """Stream instances matching the goal, smallest carriers first.

    Flags a1/a2/adjoint are False wherever the operations are not total
    (nothing to be adjoint about). The maps are ``_goal_maps``: every
    complementation when the goal requires "complemented", otherwise all maps
    for n <= 4 and ``MAP_SAMPLES`` seeded ones per poset above that.

    ``_goal_maps`` settles the poset-level flags. The kernel flags become bit
    masks once: ``need`` for the required ones ("adjoint" is a1|a2) and one
    per forbidden one; a map matches when its bits hold ``need`` and no
    forbidden mask in full.
    """
    masks = {**kernels.FLAGS, "adjoint": kernels.FLAGS["a1"] | kernels.FLAGS["a2"]}
    need = 0
    for f in goal.require & masks.keys():
        need |= masks[f]
    forbidden = [masks[f] for f in goal.forbid & masks.keys()]
    found = 0
    for n in range(1, goal.max_n + 1):
        for _, p, prime, bits in sweep(enumerate_posets(n), _goal_maps(goal)):
            if bits & need == need and all(bits & mask != mask for mask in forbidden):
                yield OpPoset(p, prime)
                found += 1
                if goal.limit is not None and found >= goal.limit:
                    return
