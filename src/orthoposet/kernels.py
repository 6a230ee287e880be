"""Hot kernels behind the enumeration sweeps and the model search.

Two jobs dominate runtime: enumerating every labeled order relation on a
small carrier, and evaluating the full flag vector (orthogonality,
complementation, adjointness directions, the six conditions, ...) for one
(poset, unary map) instance. Both work on plain ints used as bitmasks, over
per-poset tables that ``pack_poset`` builds once and every map on the poset
shares. The pure-Python core modules never depend on this file, so every
kernel result can be replayed against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .poset_core import Poset, PosetError, indices_of

FLAG_ORTHOGONAL = 1 << 0
FLAG_TOTAL = 1 << 1
FLAG_COMPLEMENTED = 1 << 2
FLAG_ANTITONE = 1 << 3
FLAG_INVOLUTION = 1 << 4
FLAG_ORTHOMODULAR = 1 << 5
FLAG_A1 = 1 << 6
FLAG_A2 = 1 << 7
FLAG_COND_I = 1 << 8
FLAG_COND_II = 1 << 9
FLAG_COND_III = 1 << 10
FLAG_COND_IV = 1 << 11
FLAG_COND_V = 1 << 12
FLAG_COND_VI = 1 << 13

# Search-flag name of each instance flag bit.
FLAG_NAMES = (
    ("orthogonal", FLAG_ORTHOGONAL),
    ("total", FLAG_TOTAL),
    ("complemented", FLAG_COMPLEMENTED),
    ("antitone", FLAG_ANTITONE),
    ("involution", FLAG_INVOLUTION),
    ("orthomodular", FLAG_ORTHOMODULAR),
    ("a1", FLAG_A1),
    ("a2", FLAG_A2),
)

CONDITION_FLAGS = (
    ("i", FLAG_COND_I),
    ("ii", FLAG_COND_II),
    ("iii", FLAG_COND_III),
    ("iv", FLAG_COND_IV),
    ("v", FLAG_COND_V),
    ("vi", FLAG_COND_VI),
)

MAX_RELATION_N = 6

# One evaluator, in plain Python; environment reports read these two names.
HAVE_NUMBA = False


def active_backend() -> str:
    return "python"


@dataclass(frozen=True)
class PackedPoset:
    """Per-poset structure tables shared by every unary map on it.

    ``join``/``meet`` hold element indices, None where undefined.
    ``min_upper[x][y]`` is the mask of Min U(x, y) and ``min_upper_idx[x][y]``
    its ascending indices; ``max_lower``/``max_lower_idx`` hold Max L(x, y).
    ``above[x]`` lists the indices of every y with x <= y.
    """

    n: int
    up: tuple[int, ...]
    down: tuple[int, ...]
    above: tuple[tuple[int, ...], ...]
    join: tuple[tuple[Optional[int], ...], ...]
    meet: tuple[tuple[Optional[int], ...], ...]
    min_upper: tuple[tuple[int, ...], ...]
    min_upper_idx: tuple[tuple[tuple[int, ...], ...], ...]
    max_lower: tuple[tuple[int, ...], ...]
    max_lower_idx: tuple[tuple[tuple[int, ...], ...], ...]
    bottom: int
    top: int


def _extremal_tables(rows, extremal):
    """Masks and indices of extremal(rows[x] & rows[y]) for every pair."""
    found = {c: extremal(c) for c in {a & b for a in rows for b in rows}}
    masks = tuple(tuple(found[a & b] for b in rows) for a in rows)
    idx = {m: indices_of(m) for m in found.values()}
    return masks, tuple(tuple(idx[m] for m in row) for row in masks)


def pack_poset(p: Poset) -> PackedPoset:
    min_upper, min_upper_idx = _extremal_tables(p.up, p.minimal)
    max_lower, max_lower_idx = _extremal_tables(p.down, p.maximal)
    return PackedPoset(
        p.n, p.up, p.down, tuple(indices_of(row) for row in p.up),
        p.join_table, p.meet_table,
        min_upper, min_upper_idx, max_lower, max_lower_idx,
        p.bottom, p.top,
    )


def instance_flags(packed: PackedPoset, prime) -> int:
    """Flag bitfield for one (poset, unary map) instance.

    a1/a2/condition bits are only populated when FLAG_TOTAL is set; callers
    gate on FLAG_ORTHOGONAL (equivalent by the totality proposition) before
    reading them.
    """
    n = packed.n
    if len(prime) != n:
        raise PosetError("prime map length does not match the carrier")
    up, down, above = packed.up, packed.down, packed.above
    join, meet = packed.join, packed.meet
    rng = range(n)
    flags = 0

    # a <= b needs a v b' and a' <= b needs a ^ b
    if all(join[a][prime[b]] is not None for a in rng for b in above[a]) and all(
        meet[a][b] is not None for a in rng for b in above[prime[a]]
    ):
        flags |= FLAG_ORTHOGONAL
    comp = all(join[x][prime[x]] == packed.top and meet[x][prime[x]] == packed.bottom for x in rng)
    if comp:
        flags |= FLAG_COMPLEMENTED
    anti = all((up[prime[y]] >> prime[x]) & 1 for x in rng for y in above[x])
    if anti:
        flags |= FLAG_ANTITONE
    inv = all(prime[prime[x]] == x for x in rng)
    if inv:
        flags |= FLAG_INVOLUTION
    if comp and anti and inv and _orthomodular(packed, prime):
        flags |= FLAG_ORTHOMODULAR

    # odot[x][y] lists z ^ y over z in Min U(x, y'), arrow[x][y] lists
    # z v x' over z in Max L(x, y); repeats are harmless below
    odot, arrow = [], []
    for x in rng:
        mins_x = packed.min_upper_idx[x]
        maxs_x = packed.max_lower_idx[x]
        join_px = join[prime[x]]
        orow = [[meet[y][z] for z in mins_x[prime[y]]] for y in rng]
        arow = [[join_px[z] for z in maxs_x[y]] for y in rng]
        if any(None in cell for cell in orow) or any(None in cell for cell in arow):
            return flags
        odot.append(orow)
        arrow.append(arow)
    flags |= FLAG_TOTAL

    # a1: z above a member of x (.) y implies x below a member of y (->) z;
    # a2 the converse. Per (x, y), compare the two sets of such z.
    a1 = a2 = True
    for y in rng:
        hit = [0] * n  # hit[t]: the z with t in y (->) z
        for z in rng:
            for t in arrow[y][z]:
                hit[t] |= 1 << z
        for x in rng:
            z_odot = 0
            for t in odot[x][y]:
                z_odot |= up[t]
            z_arrow = 0
            for t in above[x]:
                z_arrow |= hit[t]
            if z_odot & ~z_arrow:
                a1 = False
            if z_arrow & ~z_odot:
                a2 = False
    if a1:
        flags |= FLAG_A1
    if a2:
        flags |= FLAG_A2

    # The up-closure of Min U(x, y') is U(x, y') and the down-closure of
    # Max L(x, y) is L(x, y), so "every r has some s below (above) it in the
    # extremal set" in conditions ii and v is containment in U or L.
    c1 = c2 = c3 = c4 = c5 = c6 = True
    for x in rng:
        px = prime[x]
        for y in rng:
            py = prime[y]
            join_py = join[py]
            r1 = [join_py[t] for t in odot[x][y]]
            if None in r1:
                c1 = c2 = False
            else:
                r1 = _mask(r1)
                if r1 != packed.min_upper[x][py]:
                    c1 = False
                if r1 & ~(up[x] & up[py]):
                    c2 = False
            if (up[px] >> y) & 1:
                m = meet[y][x]
                if m is None or join[px][m] != y:
                    c3 = False
            meet_x = meet[x]
            r2 = [meet_x[t] for t in arrow[x][y]]
            if None in r2:
                c4 = c5 = False
            else:
                r2 = _mask(r2)
                if r2 != packed.max_lower[x][y]:
                    c4 = False
                if r2 & ~(down[x] & down[y]):
                    c5 = False
            if (up[x] >> y) & 1:
                j = join_py[x]
                if j is None or meet[j][y] != x:
                    c6 = False
    for holds, (_, flag) in zip((c1, c2, c3, c4, c5, c6), CONDITION_FLAGS):
        if holds:
            flags |= flag
    return flags


def _mask(members) -> int:
    out = 0
    for t in members:
        out |= 1 << t
    return out


def _orthomodular(packed: PackedPoset, prime) -> bool:
    """x <= y implies y = x v (y' v x)', every join defined."""
    join = packed.join
    for x in range(packed.n):
        for y in packed.above[x]:
            j1 = join[prime[y]][x]
            if j1 is None or join[x][prime[j1]] != y:
                return False
    return True


def relation_codes(n: int) -> list[int]:
    """Packed relation codes (bit i*n+j set iff i <= j) of every labeled
    poset on n elements, in orientation-code order.

    The orientation code of a relation has one base-3 digit per pair i < j,
    the pairs taken lexicographically from the least significant digit:
    0 when i and j are incomparable, 1 when i < j, 2 when j < i.
    """
    if not (1 <= n <= MAX_RELATION_N):
        raise PosetError(f"relation enumeration supports 1 <= n <= {MAX_RELATION_N}")
    return _relation_codes(n)


def _relation_codes(n: int) -> list[int]:
    """Element 0 added to every poset on 1..n-1 (in that poset's order).

    The new element goes above a down-set D and below an up-set U, with D
    entirely below U. The digits of the pairs (0, j) are the low digits of
    the orientation code, so the extensions of one poset are sorted by
    sum(3^j for j in U) + sum(2 * 3^j for j in D), j in base numbering.
    """
    if n == 1:
        return [1]
    m = n - 1
    full = (1 << m) - 1
    pow3 = [0] * (1 << m)  # pow3[S] = sum(3^j for j in S)
    column = [0] * (1 << m)  # column[S]: bit 0 of the row of each j + 1 in S
    for s in range(1, 1 << m):
        j = (s & -s).bit_length() - 1
        pow3[s] = pow3[s & (s - 1)] + 3 ** j
        column[s] = column[s & (s - 1)] | 1 << ((j + 1) * n)
    out = []
    for base in _relation_codes(m):
        rows = decode_relation(base, m)
        shifted = 0
        for k, row in enumerate(rows):
            shifted |= row << ((k + 1) * n + 1)
        # down-sets: no element outside lies below an element inside
        downsets = [
            s for s in range(1 << m)
            if not any(row & s and not (s >> k) & 1 for k, row in enumerate(rows))
        ]
        extensions = []
        for d in downsets:
            allowed = full & ~d
            for k in range(m):
                if (d >> k) & 1:
                    allowed &= rows[k]
            for complement in downsets:
                u = full ^ complement
                if not u & ~allowed:
                    extensions.append((pow3[u] + 2 * pow3[d], d, u))
        extensions.sort()
        for _, d, u in extensions:
            out.append(shifted | column[d] | 1 | u << 1)
    return out


def decode_relation(code: int, n: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((code >> (i * n)) & mask for i in range(n))
