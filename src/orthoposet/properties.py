"""Decision procedures for the structural properties a carrier may enjoy.

Every decider returns a PropertyReport; a failed check always carries a
replayable witness (the lexicographically first violating tuple), built by
``fail``, which the checkers in ``sasaki`` and ``adjoint`` use as well.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .poset_core import OpPoset, Poset, iter_mask, pair_table

PROPERTY_NAMES = (
    "saturated",
    "orthogonal",
    "complemented",
    "antitone",
    "involution",
    "orthomodular",
    "modular",
    "lattice",
)


@dataclass(frozen=True)
class Witness:
    """Element tuple falsifying a named clause of a property."""

    elements: tuple[int, ...]
    condition: str
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    property: str
    holds: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.holds

    def describe(self, poset: Poset) -> str:
        if self.holds:
            return f"{self.property}: true"
        w = self.witness
        names = ", ".join(poset.names[i] for i in w.elements)
        extra = f" {w.detail}" if w.detail else ""
        return f"{self.property}: false  [witness ({names}): {w.condition}{extra}]"


def fail(prop: str, elements: tuple[int, ...], condition: str, detail: str = "") -> PropertyReport:
    """The one constructor of a failed report: every checker's witness comes through here."""
    return PropertyReport(prop, False, Witness(elements, condition, detail))


def is_saturated(p: Poset) -> PropertyReport:
    """Every lower bound of a pair sits below a maximal lower bound; dually.

    Reads ``Poset.max_lower``/``min_upper``: the witness z is the least
    member of L(x, y) below no member of Max L(x, y), dually for U. Holds
    for every finite poset, so this doubles as a self-test of those tables.
    """
    sides = (
        (p.down, p.max_lower, "lower_bound_above_no_maximal"),
        (p.up, p.min_upper, "upper_bound_below_no_minimal"),
    )
    for x in range(p.n):
        for y in range(p.n):
            for rows, extremal, condition in sides:
                covered = 0
                for m in iter_mask(extremal[x][y]):
                    covered |= rows[m]
                missed = rows[x] & rows[y] & ~covered
                if missed:
                    return fail("saturated", (x, y, next(iter_mask(missed))), condition)
    return PropertyReport("saturated", True)


def is_orthogonal(op: OpPoset) -> PropertyReport:
    """a <= b forces the join a v b' to exist; a' <= b forces the meet a ^ b.

    Reads row a of ``join_table`` and ``meet_table``: a row pair with no
    missing entry is passed over, else its members b of ``up[a] | up[a']``
    are tried in ascending order.
    """
    p = op.poset
    prime = op.prime
    for a, pa in enumerate(prime):
        up_a, up_pa = p.up[a], p.up[pa]
        join_a, meet_a = p.join_table[a], p.meet_table[a]
        if None not in join_a and None not in meet_a:
            continue
        for b in iter_mask(up_a | up_pa):
            if up_a >> b & 1 and join_a[prime[b]] is None:
                return fail("orthogonal", (a, b), "join_with_complement_undefined")
            if up_pa >> b & 1 and meet_a[b] is None:
                return fail("orthogonal", (a, b), "meet_undefined")
    return PropertyReport("orthogonal", True)


def is_complementation(op: OpPoset) -> PropertyReport:
    """x v x' is the top and x ^ x' the bottom, both defined, for every x;
    decided from the order masks."""
    p = op.poset
    for x in range(p.n):
        px = op.prime[x]
        if p.up[x] & p.up[px] != 1 << p.top:
            return fail("complemented", (x,), "join_with_image_not_top")
        if p.down[x] & p.down[px] != 1 << p.bottom:
            return fail("complemented", (x,), "meet_with_image_not_bottom")
    return PropertyReport("complemented", True)


def is_antitone(op: OpPoset) -> PropertyReport:
    """x <= y forces y' <= x', read from the mask ``down[x']``."""
    p = op.poset
    prime = op.prime
    for x, px in enumerate(prime):
        below_px = p.down[px]
        for y in iter_mask(p.up[x]):
            if not below_px >> prime[y] & 1:
                return fail("antitone", (x, y), "order_not_reversed")
    return PropertyReport("antitone", True)


def is_involution(op: OpPoset) -> PropertyReport:
    for x in range(op.poset.n):
        if op.prime[op.prime[x]] != x:
            return fail("involution", (x,), "double_image_differs")
    return PropertyReport("involution", True)


def is_orthomodular(op: OpPoset) -> PropertyReport:
    """Antitone involutive complementation plus x <= y => y = x v (y' v x)'."""
    return _orthomodular(op, (is_involution(op), is_antitone(op), is_complementation(op)))


def _orthomodular(op: OpPoset, subs) -> PropertyReport:
    """The first failed of the involution, antitone and complemented
    reports ``subs`` under the orthomodular name, else the law itself."""
    for sub in subs:
        if not sub.holds:
            return PropertyReport("orthomodular", False, sub.witness)
    p = op.poset
    for x in range(p.n):
        for y in iter_mask(p.up[x]):
            j1 = p.join(op.prime[y], x)
            if j1 is None:
                return fail("orthomodular", (x, y), "complement_join_undefined")
            j2 = p.join(x, op.prime[j1])
            if j2 is None:
                return fail("orthomodular", (x, y), "law_join_undefined")
            if j2 != y:
                return fail("orthomodular", (x, y), "orthomodular_law_fails")
    return PropertyReport("orthomodular", True)


def is_modular(p: Poset) -> PropertyReport:
    """For x <= z: common lower bounds of U(x,y) and z match those of U(x, L(y,z)).

    The sides are ``lu[x][y] & down[z]`` and L(up[x] & ``ul[y][z]``) over
    pair tables of L(U(x, y)) and U(L(y, z)), with L memoized per mask.
    """
    lu = pair_table(p.up, p.lower_bounds)
    ul = pair_table(p.down, p.upper_bounds)
    lower = {}
    for x, up_x in enumerate(p.up):
        for y, ul_y in enumerate(ul):
            for z in iter_mask(up_x):
                s = up_x & ul_y[z]
                if s not in lower:
                    lower[s] = p.lower_bounds(s)
                if lu[x][y] & p.down[z] != lower[s]:
                    return fail("modular", (x, y, z), "modular_law_fails")
    return PropertyReport("modular", True)


def is_lattice(p: Poset) -> PropertyReport:
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if p.join(x, y) is None:
                return fail("lattice", (x, y), "join_undefined")
            if p.meet(x, y) is None:
                return fail("lattice", (x, y), "meet_undefined")
    return PropertyReport("lattice", True)


@functools.lru_cache(maxsize=1)
def poset_memo(p: Poset) -> dict:
    """The slow path's one memo, for the last poset it saw: a search streams
    every hit on one poset in a row. ``"reports"`` holds ``poset_reports(p)``
    and (i, i') the Sasaki line of element i with image i' (``sasaki.lines``).
    Its values are shared, so callers only read them."""
    return {}


def poset_reports(p: Poset) -> dict[str, PropertyReport]:
    """The property profile that needs no unary operation, kept in ``poset_memo``."""
    memo = poset_memo(p)
    if "reports" not in memo:
        memo["reports"] = {"saturated": is_saturated(p), "modular": is_modular(p),
                           "lattice": is_lattice(p)}
    return memo["reports"]


def op_reports(op: OpPoset) -> dict[str, PropertyReport]:
    """Full property profile in ``PROPERTY_NAMES`` order, the poset-level
    part from ``poset_reports``; orthomodular reuses the involution,
    antitone and complemented reports."""
    reports = {
        **poset_reports(op.poset),
        "orthogonal": is_orthogonal(op),
        "complemented": is_complementation(op),
        "antitone": is_antitone(op),
        "involution": is_involution(op),
    }
    subs = (reports["involution"], reports["antitone"], reports["complemented"])
    reports["orthomodular"] = _orthomodular(op, subs)
    return {name: reports[name] for name in PROPERTY_NAMES}
