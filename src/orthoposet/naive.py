"""From-scratch reference implementations used to cross-check the fast paths.

Everything here works on a relation given as a plain set of (i, j) pairs
("i <= j") and represents subsets as sorted tuples — no bitmasks, no
precomputed rows, no import from the package. Literal, not fast: these are
the oracle side of the dual-route checks, so they must not share machinery
with the optimized implementations.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional


def relation_pairs(up_rows: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Convert up-row masks to an explicit pair set (boundary helper only)."""
    pairs = set()
    for i, row in enumerate(up_rows):
        j = 0
        r = row
        while r:
            if r & 1:
                pairs.add((i, j))
            r >>= 1
            j += 1
    return frozenset(pairs)


def lower(rel, n: int, subset) -> tuple[int, ...]:
    return tuple(
        x for x in range(n) if all((x, b) in rel for b in subset)
    )


def upper(rel, n: int, subset) -> tuple[int, ...]:
    return tuple(
        x for x in range(n) if all((b, x) in rel for b in subset)
    )


def maximal(rel, subset) -> tuple[int, ...]:
    return tuple(
        x
        for x in subset
        if not any(y != x and (x, y) in rel for y in subset)
    )


def minimal(rel, subset) -> tuple[int, ...]:
    return tuple(
        x
        for x in subset
        if not any(y != x and (y, x) in rel for y in subset)
    )


def join(rel, n: int, x: int, y: int) -> Optional[int]:
    mins = minimal(rel, upper(rel, n, (x, y)))
    return mins[0] if len(mins) == 1 else None


def meet(rel, n: int, x: int, y: int) -> Optional[int]:
    maxs = maximal(rel, lower(rel, n, (x, y)))
    return maxs[0] if len(maxs) == 1 else None


def odot(rel, n: int, prime, x: int, y: int):
    """('set', elements) or ('undefined', m, y) when a meet is missing."""
    out = set()
    for m in minimal(rel, upper(rel, n, (x, prime[y]))):
        w = meet(rel, n, m, y)
        if w is None:
            return ("undefined", m, y)
        out.add(w)
    return ("set", tuple(sorted(out)))


def arrow(rel, n: int, prime, x: int, y: int):
    out = set()
    for m in maximal(rel, lower(rel, n, (x, y))):
        w = join(rel, n, prime[x], m)
        if w is None:
            return ("undefined", prime[x], m)
        out.add(w)
    return ("set", tuple(sorted(out)))


def covers(rel, n: int) -> set[tuple[int, int]]:
    """Transitive reduction straight from the definition."""
    out = set()
    for x in range(n):
        for y in range(n):
            if x != y and (x, y) in rel:
                if not any(
                    z not in (x, y) and (x, z) in rel and (z, y) in rel
                    for z in range(n)
                ):
                    out.add((x, y))
    return out


def _is_transitive(rel, n: int) -> bool:
    for x in range(n):
        for y in range(n):
            if (x, y) in rel:
                for z in range(n):
                    if (y, z) in rel and (x, z) not in rel:
                        return False
    return True


def _triples_due(n: int):
    """The pairs of ``combinations(range(n), 2)``, and per pair the ordered
    triples of distinct elements whose latest pair it is."""
    pairs = list(itertools.combinations(range(n), 2))
    due = [[] for _ in pairs]
    for t in itertools.permutations(range(n), 3):
        due[max(pairs.index(tuple(sorted(p))) for p in itertools.combinations(t, 2))].append(t)
    return pairs, due


def count_posets_orientations(n: int) -> int:
    """Count labeled posets: decide the pairs in order, one of three states
    each, and test each triple (x, y), (y, z) => (x, z) of distinct elements
    once, when its latest pair is decided. It reads only its own three pairs,
    so a partial relation failing it has no transitive completion; triples with
    a repeated element hold by reflexivity and antisymmetry. So the leaves
    reached are exactly the relations the full filter keeps."""
    pairs, due = _triples_due(n)

    def extend(k: int, rel: set) -> int:
        if k == len(pairs):
            return 1
        i, j = pairs[k]
        return sum(
            extend(k + 1, grown)
            for grown in (rel, rel | {(i, j)}, rel | {(j, i)})
            if all((x, z) in grown for x, y, z in due[k] if (x, y) in grown and (y, z) in grown)
        )

    return extend(0, {(i, i) for i in range(n)})


def count_posets_subsets(n: int) -> int:
    """Count labeled posets by filtering all subsets of off-diagonal pairs
    for antisymmetry and transitivity. Exponential in n^2; n <= 4 only."""
    if n > 4:
        raise ValueError("subset filter oracle limited to n <= 4")
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    diag = [(i, i) for i in range(n)]
    count = 0
    for bits in range(1 << len(offdiag)):
        rel = set(diag)
        anti = True
        for k, pair in enumerate(offdiag):
            if (bits >> k) & 1:
                rel.add(pair)
        for i, j in offdiag:
            if (i, j) in rel and (j, i) in rel:
                anti = False
                break
        if anti and _is_transitive(rel, n):
            count += 1
    return count
