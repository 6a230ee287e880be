"""Hot kernels behind the enumeration sweeps and the model search.

Two jobs dominate runtime, both on plain ints used as bitmasks. One is
streaming every labeled order relation on a small carrier: ``relation_rows``
yields each as up-row tuples, made in one extension step from a relation on
one element fewer, and holds no list of them. The other is evaluating the
full flag vector (orthogonality, complementation, adjointness directions,
the six conditions, ...) for one (poset, unary map) instance, over per-poset
state that ``pack_poset`` builds once and every map on the poset shares; the
flags are isomorphism invariants, so the copies of one frame from
``enumerate_posets`` are evaluated on the frame, through
``Poset.frame_instance``. The core modules never depend on this file, so
every kernel result can be replayed on them.

The cell x (.) y reads no image but that of y, and x (->) y none but that
of x, so most flags are an AND, over the elements, of predicates on one
(element, image) pair, memoized on the frame (see ``instance_flags``).
The whole flag bitfield of a map is memoized too, per frame instance (the
map moved onto the frame), so the copies of a frame evaluate each of its
instances once. Only complemented instances are stored: they are the ones
the copies repeat, and they bound the memo by the frame's complementations,
however many other maps a search or an all-map sweep tries.
"""
from __future__ import annotations

from operator import or_

from .adjoint import CONDITION_KEYS, EQUIVALENCE_GROUPS
from .poset_core import Poset, PosetError, indices_of, iter_mask

# The one name <-> bit table of the instance flags: bit i is the i-th name.
# The sweep digests pin these bits, so the order never changes.
FLAGS = {
    name: 1 << bit
    for bit, name in enumerate(
        ("orthogonal", "total", "complemented", "antitone", "involution", "orthomodular")
        + ("a1", "a2") + CONDITION_KEYS
    )
}
# Read only by perfbench/, until its revision (ROADMAP item 5) reads FLAGS.
FLAG_ORTHOGONAL = FLAGS["orthogonal"]

# Bits that hold only when the instance's operations are total.
_GATED_FLAGS = sum(FLAGS[name] for group in EQUIVALENCE_GROUPS for name in group)

MAX_RELATION_N = 6

# One evaluator, in plain Python; environment reports read these two names.
HAVE_NUMBA = False


def active_backend() -> str:
    return "python"


def pack_poset(p: Poset) -> Poset:
    """Build the kernel state of p, on its frame for a copy, and return p.

    The state ``(above, entries, memo)`` lives in the ``_packed`` slot of a
    poset without a frame or of a frame, and a copy builds none of its own.
    ``above[x]`` lists the indices of every y with x <= y. ``entries[e][v]``
    memoizes the per-element flag bits of element e with image v (see
    ``instance_flags``); each slot stays None until first use. ``memo`` maps
    each complemented frame instance evaluated so far to its flag bits.
    """
    f = p.frame or p
    if f._packed is None:
        f._packed = (tuple(map(indices_of, f.up)), [[None] * f.n for _ in range(f.n)], {})
    return p


def instance_flags(p: Poset, prime) -> int:
    """Flag bitfield for one (poset, unary map) instance.

    Every flag but antitone, involution and orthomodular says "P(e, e') for
    every e" for a predicate P that reads no image but that of e, so it is
    exactly the AND of ``entries[e][prime[e]]`` over the elements:

    - orthogonal: a <= e needs a v e', and e' <= b needs e ^ b;
    - complemented: e v e' is the top and e ^ e' the bottom;
    - total: every x (.) e = {m ^ e : m in Min U(x, e')} and every
      e (->) y = {e' v m : m in Max L(e, y)} is defined;
    - conditions i, ii and vi read the cells x (.) e, conditions iii, iv
      and v the cells e (->) y, and a1 and a2 both.

    The other three bits relate several images and are computed per map;
    antitone is checked on the covers, which imply every comparable pair by
    transitivity. The a1/a2/condition bits are only set with the total bit;
    callers gate on the orthogonal bit (equivalent by the totality
    proposition) before reading them.

    Every bit is an isomorphism invariant, so a copy is evaluated on its
    frame under the moved map (``Poset.frame_instance``), and the result of
    a complemented instance is kept in the frame's ``memo`` for its other
    copies. The map is validated before the lookup, on every call.
    """
    n = p.n
    if len(prime) != n:
        raise PosetError("prime map length does not match the carrier")
    if min(prime) < 0 or max(prime) >= n:
        raise PosetError("prime map sends an element outside the carrier")
    f, prime = p.frame_instance(prime)
    if f._packed is None:
        pack_poset(f)
    above, entries, memo = f._packed
    flags = memo.get(prime)
    if flags is not None:
        return flags
    flags = -1  # a poset has an element, so the AND keeps only entry bits
    for e, (row, v) in enumerate(zip(entries, prime)):
        if row[v] is None:
            row[v] = _entry(f, above, e, v)
        flags &= row[v]
    up = f.up
    anti = all((up[prime[y]] >> prime[x]) & 1 for x, y in f.covers())
    inv = all(prime[v] == x for x, v in enumerate(prime))
    if anti:
        flags |= FLAGS["antitone"]
    if inv:
        flags |= FLAGS["involution"]
    if flags & FLAGS["complemented"]:
        if anti and inv and _orthomodular(f, above, prime):
            flags |= FLAGS["orthomodular"]
        memo[prime] = flags
    return flags


def _entry(p: Poset, above, e: int, v: int) -> int:
    """Bits of the per-element predicates of element e with image v.

    An entry whose own cells are partial holds no a1/a2/condition bit, so
    the AND in ``instance_flags`` clears them on every partial instance.
    An entry whose cells are all defined is orthogonal: for a <= e the cell
    e (->) a is {e' v a}, and for e' <= b the cell b (.) e is {b ^ e}. So
    past the totality gate every e' v t with t <= e and every e ^ t with
    e' <= t exists, and these are the only joins and meets read there.
    """
    n = p.n
    rng = range(n)
    up, down = p.up, p.down
    join_v, meet_e = p.join_table[v], p.meet_table[e]
    min_upper, max_lower_e = p.min_upper, p.max_lower[e]
    bits = 0
    if None not in [join_v[a] for a in iter_mask(down[e])] + [meet_e[b] for b in above[v]]:
        bits |= FLAGS["orthogonal"]
    if join_v[e] == p.top and meet_e[v] == p.bottom:
        bits |= FLAGS["complemented"]

    # odot[x] lists m ^ e over m in Min U(x, e'), arrow[y] lists e' v m over
    # m in Max L(e, y); repeats are harmless below
    odot = [[meet_e[m] for m in iter_mask(min_upper[x][v])] for x in rng]
    arrow = [[join_v[m] for m in iter_mask(max_lower_e[y])] for y in rng]
    if any(None in cell for cell in odot) or any(None in cell for cell in arrow):
        return bits
    bits |= FLAGS["total"] | _GATED_FLAGS

    # a1: z above a member of x (.) e implies x below a member of e (->) z;
    # a2 the converse. Per x, compare the two sets of such z.
    hit = [0] * n  # hit[t]: the z with t in e (->) z
    for z in rng:
        for t in arrow[z]:
            hit[t] |= 1 << z
    # The up-closure of Min U(x, e') is U(x, e') and the down-closure of
    # Max L(e, y) is L(e, y), so "every r has some s below (above) it in the
    # extremal set" in conditions ii and v is containment in U or L.
    for x in rng:
        z_odot = z_arrow = r1 = 0
        for t in odot[x]:
            z_odot |= up[t]
            r1 |= 1 << join_v[t]
        for t in above[x]:
            z_arrow |= hit[t]
        if z_odot & ~z_arrow:
            bits &= ~FLAGS["a1"]
        if z_arrow & ~z_odot:
            bits &= ~FLAGS["a2"]
        if r1 != min_upper[x][v]:
            bits &= ~FLAGS["i"]
        if r1 & ~(up[x] & up[v]):
            bits &= ~FLAGS["ii"]
    for y in rng:
        r2 = 0
        for t in arrow[y]:
            r2 |= 1 << meet_e[t]
        if r2 != max_lower_e[y]:
            bits &= ~FLAGS["iv"]
        if r2 & ~(down[e] & down[y]):
            bits &= ~FLAGS["v"]
    if any(join_v[meet_e[y]] != y for y in above[v]):
        bits &= ~FLAGS["iii"]
    if any(meet_e[join_v[x]] != x for x in iter_mask(down[e])):
        bits &= ~FLAGS["vi"]
    return bits


def _orthomodular(p: Poset, above, prime) -> bool:
    """x <= y implies y = x v (y' v x)', every join defined."""
    join = p.join_table
    for x in range(p.n):
        for y in above[x]:
            j1 = join[prime[y]][x]
            if j1 is None or join[x][prime[j1]] != y:
                return False
    return True


def relation_rows(n: int):
    """Up-row tuples (bit j of row i set iff i <= j) of every labeled poset
    on n elements, in orientation-code order.

    The orientation code of a relation has one base-3 digit per pair i < j,
    the pairs taken lexicographically from the least significant digit:
    0 when i and j are incomparable, 1 when i < j, 2 when j < i.

    Element 0 goes into every poset on 1..n-1 (in that poset's order) above
    a down-set D and below an up-set U, with D entirely below U. The pairs
    (0, j) give the low digits, so the extensions of one poset are sorted by
    sum(3^j for j in U) + sum(2 * 3^j for j in D), j in base numbering, and
    yielded before the next poset is read.
    """
    if not (1 <= n <= MAX_RELATION_N):
        raise PosetError(f"relation enumeration supports 1 <= n <= {MAX_RELATION_N}")
    m = n - 1
    size = 1 << m
    full = size - 1
    pow3 = [sum(3 ** j for j in range(m) if s >> j & 1) for s in range(size)]
    bits = [tuple(d >> k & 1 for k in range(m)) for d in range(size)]  # bit k of d at place k
    for rows in relation_rows(m) if m else [()]:
        shifted = [row << 1 for row in rows]  # the base rows, shifted past element 0
        # per subset S, from S less its lowest bit: its up-closure and the elements above all of S
        closure, common = [0] * size, [full] * size
        for s in range(1, size):
            row = rows[(s & -s).bit_length() - 1]
            closure[s] = closure[s & (s - 1)] | row
            common[s] = common[s & (s - 1)] & row
        extensions = []
        for c in [s for s in range(size) if closure[s] == s]:  # the up-sets
            d = full ^ c  # a down-set
            # element 0 is above d; not tuple(map(...)), which shrinks a 10-slot tuple and costs peak RSS
            tail = (*map(or_, shifted, bits[d]),)
            key = 2 * pow3[d]
            # U ranges over the up-sets among the subsets of c above all of d
            allowed = u = common[d] & c
            while True:
                if closure[u] == u:
                    extensions.append((pow3[u] + key, (1 | u << 1,) + tail))
                if not u:
                    break
                u = (u - 1) & allowed
        extensions.sort()
        for _, relation in extensions:
            yield relation


def relation_codes(n: int) -> list[int]:
    """``relation_rows(n)`` packed into ints, bit i*n+j set iff i <= j."""
    return [sum(row << (i * n) for i, row in enumerate(rows)) for rows in relation_rows(n)]


def decode_relation(code: int, n: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((code >> (i * n)) & mask for i in range(n))
