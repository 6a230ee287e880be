"""Adjointness of the two set-valued operations and its characterizations.

The pair is adjoint when both directions hold for all x, y, z:

    (a1)  x (.) y lower-covers {z}   implies  {x} upper-covered by y (->) z
    (a2)  the converse implication

Six two-variable conditions are each equivalent to one direction, in the
two groups of ``EQUIVALENCE_GROUPS``; their keys i..vi follow the report
schema. All witnesses are lexicographically first and replayable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .poset_core import OpPoset, PosetError, iter_mask
from .properties import (
    PropertyReport,
    fail,
    is_complementation,
    is_lattice,
    is_modular,
    is_orthogonal,
)
from .sasaki import arrow, lines, odot, op_tables

# The paper's two groups of equivalent statements: each direction and the
# three conditions that characterize it.
EQUIVALENCE_GROUPS = (("a1", "i", "ii", "iii"), ("a2", "iv", "v", "vi"))
CONDITION_KEYS = tuple(key for group in EQUIVALENCE_GROUPS for key in group[1:])


@dataclass(frozen=True)
class AdjointReport:
    a1: bool
    a2: bool
    a1_witness: Optional[tuple[int, int, int]]
    a2_witness: Optional[tuple[int, int, int]]
    conditions: dict[str, bool]
    condition_witnesses: dict[str, Optional[tuple[int, ...]]]

    @property
    def adjoint(self) -> bool:
        return self.a1 and self.a2

    @property
    def flags(self) -> dict[str, bool]:
        """Every statement of ``EQUIVALENCE_GROUPS`` by name: a1, a2, i..vi."""
        return {"a1": self.a1, "a2": self.a2, **self.conditions}


def check_directions(op: OpPoset):
    """Both directions, one y-slice at a time; raises UndefinedOperationError
    as ``sasaki.lines`` does.

    Slice y reads only odot column y and arrow row y, which read no image
    but y', so ``sasaki.lines`` decides it with line y, once per (y, y') of
    the poset. Returns ((a1 holds, first a1 violation), (a2 holds, first a2
    violation)), the first being the least (x, y, z) over the slices.
    """
    w1 = w2 = None
    for y, (_, _, s1, s2) in enumerate(lines(op)):
        # y ascends, so a tie in x keeps the earlier slice
        if s1 and (w1 is None or s1[0] < w1[0]):
            w1 = (s1[0], y, s1[1])
        if s2 and (w2 is None or s2[0] < w2[0]):
            w2 = (s2[0], y, s2[1])
    return (w1 is None, w1), (w2 is None, w2)


def direction_sides(op: OpPoset, triple: tuple[int, int, int]) -> tuple[bool, bool]:
    """Both sides of the adjunction at (x, y, z), recomputed from odot/arrow.

    Returns (x (.) y lower-covers {z}, {x} upper-covered by y (->) z): an a1
    violation reads (True, False), an a2 violation (False, True).
    """
    x, y, z = triple
    p = op.poset
    return bool(odot(op, x, y) & p.down[z]), bool(arrow(op, y, z) & p.up[x])


def _image(row, mask: int) -> int:
    """Mask of ``row[t]`` over the members t of mask."""
    out = 0
    for t in iter_mask(mask):
        out |= 1 << row[t]
    return out


def check_conditions(op: OpPoset) -> dict[str, tuple[bool, Optional[tuple[int, int]]]]:
    """The six two-variable conditions in one x-major walk over the pairs (x, y).

    Returns ``{key: (holds, first violating (x, y) or None)}`` in
    ``CONDITION_KEYS`` order; the walk stops once every condition has a
    witness. Set-valued sides use the same semantics as the operations
    themselves (y' v S means the set of joins of y' with members of S).
    Min U(x, y') and Max L(x, y) come from ``Poset.min_upper``/``max_lower``.

    Every join and meet read here exists. The cells come from ``op_tables``,
    which exist only on total instances, and a total instance is orthogonal:
    for a <= e the cell e (->) a is {e' v a}, and for e' <= b the cell
    b (.) e is {b ^ e}. Members of x (.) y lie below y and members of
    x (->) y above x'; condition iii reads x ^ y <= x only when x' <= y,
    and condition vi reads y' v x >= y' only when x <= y.
    """
    p = op.poset
    prime = op.prime
    join, meet = p.join_table, p.meet_table
    ocells, acells = (table.cells for table in op_tables(op))
    found: dict[str, tuple[int, int]] = {}
    for x, y in itertools.product(range(p.n), repeat=2):
        px, py = prime[x], prime[y]
        mins, maxs = p.min_upper[x][py], p.max_lower[x][y]
        rhs1 = _image(join[py], ocells[x][y])  # y' v (x (.) y)
        rhs2 = _image(meet[x], acells[x][y])  # x ^ (x (->) y)
        failed = (
            rhs1 != mins,
            not p.leq2(mins, rhs1),
            p.le(px, y) and join[px][meet[y][x]] != y,
            rhs2 != maxs,
            not p.leq1(rhs2, maxs),
            p.le(x, y) and meet[join[py][x]][y] != x,
        )
        for key, bad in zip(CONDITION_KEYS, failed):
            if bad:
                found.setdefault(key, (x, y))
        if len(found) == len(CONDITION_KEYS):
            break
    return {key: (key not in found, found.get(key)) for key in CONDITION_KEYS}


def is_adjoint_pair(op: OpPoset) -> AdjointReport:
    (a1, w1), (a2, w2) = check_directions(op)
    conds = check_conditions(op)
    return AdjointReport(
        a1, a2, w1, w2,
        {key: holds for key, (holds, _) in conds.items()},
        {key: wit for key, (_, wit) in conds.items()},
    )


def check_adjointness_consequences(op: OpPoset) -> PropertyReport:
    """What each adjunction direction forces on the unary operation.

    If a1 holds, every x v x' is the top (else ``a1_join_not_top``); if a2
    holds, every x ^ x' is the bottom (else ``a2_meet_not_bottom``) and
    x (->) y = {top} only when x <= y (else ``a2_arrow_top_not_le``). Both
    identities are read from the order masks (see ``poset_core``), and
    together they are the paper's "adjoint only if ' is a complementation".
    The converse "x <= y gives x (->) y = {top}" is a1's join identity again,
    as x (->) y = {x' v x} for x <= y, and a2 alone does not force it: the
    constant-bottom map on the 2-chain satisfies a2 yet has 0 (->) 0 = {0}.
    """
    p = op.poset
    (a1, _), (a2, _) = check_directions(op)
    top_mask, bottom_mask = 1 << p.top, 1 << p.bottom
    if a1:
        for x in range(p.n):
            if p.up[x] & p.up[op.prime[x]] != top_mask:
                return fail("adjointness_consequences", (x,), "a1_join_not_top")
    if a2:
        for x in range(p.n):
            if p.down[x] & p.down[op.prime[x]] != bottom_mask:
                return fail("adjointness_consequences", (x,), "a2_meet_not_bottom")
        arrow_cells = op_tables(op)[1].cells
        for x in range(p.n):
            for y in range(p.n):
                if arrow_cells[x][y] == top_mask and not p.le(x, y):
                    return fail("adjointness_consequences", (x, y), "a2_arrow_top_not_le")
    return PropertyReport("adjointness_consequences", True)


def check_modular_corollary(op: OpPoset) -> PropertyReport:
    """Complemented + orthogonal + modular must grant conditions iii and vi;
    a failure names the first violating (x, y) as ``condition_iii_fails`` or
    ``condition_vi_fails``."""
    premise = (
        is_complementation(op).holds
        and is_orthogonal(op).holds
        and is_modular(op.poset).holds
    )
    if not premise:
        return PropertyReport("modular_corollary", True)
    conds = check_conditions(op)
    for key in ("iii", "vi"):
        holds, wit = conds[key]
        if not holds:
            return fail("modular_corollary", wit, f"condition_{key}_fails")
    return PropertyReport("modular_corollary", True)


def _chain_split(p, quad):
    """Ways to split four elements into two 2-chains (x<z, y<u)."""
    a = quad[0]
    for partner in quad[1:]:
        rest = [e for e in quad if e not in (a, partner)]
        left = (a, partner) if p.lt(a, partner) else (partner, a) if p.lt(partner, a) else None
        r0, r1 = rest
        right = (r0, r1) if p.lt(r0, r1) else (r1, r0) if p.lt(r1, r0) else None
        if left and right:
            yield left, right


def find_o6_subalgebra(op: OpPoset) -> Optional[tuple[int, int, int, int, int, int]]:
    """First six-element benzene-ordered subset closed under join, meet and '.

    Requires a complemented lattice; returns (bottom, x, y, z, u, top) with
    x < z and y < u the two incomparable chains, or None.
    """
    p = op.poset
    lat = is_lattice(p)
    if not lat.holds:
        raise PosetError("O6 search requires a lattice: " + lat.describe(p))
    comp = is_complementation(op)
    if not comp.holds:
        raise PosetError("O6 search requires a complementation: " + comp.describe(p))
    mids = [i for i in range(p.n) if i not in (p.bottom, p.top)]
    for quad in itertools.combinations(mids, 4):
        for (x, z), (y, u) in _chain_split(p, quad):
            if any(
                p.le(s, t) or p.le(t, s)
                for s in (x, z)
                for t in (y, u)
            ):
                continue
            six = {p.bottom, p.top, x, y, z, u}
            if any(op.prime[s] not in six for s in six):
                continue
            closed = True
            for s, t in itertools.combinations(six, 2):
                if p.join(s, t) not in six or p.meet(s, t) not in six:
                    closed = False
                    break
            if closed:
                return (p.bottom, x, y, z, u, p.top)
    return None
