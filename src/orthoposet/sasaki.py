"""Set-valued projection operators and the operations they induce.

For a parameter a, the projection of x is the set of meets m ^ a over the
minimal upper bounds m of {x, a'}; its dual joins a' onto the maximal lower
bounds of {a, x}. The induced binary operations are

    x (.) y  =  {m ^ y  : m minimal in U(x, y')}
    x (->) y =  {x' v m : m maximal in L(x, y)}

Results are raw deduplicated subsets (never re-reduced to antichains): the
comparison machinery downstream quantifies over their members directly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .poset_core import OpPoset, Poset, PosetError, UndefinedOperationError, iter_mask
from .properties import PropertyReport, fail, is_orthomodular, poset_memo


@dataclass(frozen=True)
class OpTable:
    """Full n x n table of one set-valued operation; cells are subset masks."""

    kind: str  # "odot" or "arrow"
    poset: Poset
    cells: tuple[tuple[int, ...], ...]


def odot(op: OpPoset, x: int, y: int) -> int:
    """x (.) y as a mask: row y of ``meet_table`` over Min U(x, y'); raises on a missing meet."""
    p = op.poset
    meet_y = p.meet_table[y]
    out = 0
    for m in iter_mask(p.min_upper[x][op.prime[y]]):
        w = meet_y[m]
        if w is None:
            raise UndefinedOperationError("meet", m, y, p)
        out |= 1 << w
    return out


def arrow(op: OpPoset, x: int, y: int) -> int:
    """x (->) y as a mask: row x' of ``join_table`` over Max L(x, y); raises on a missing join."""
    p = op.poset
    px = op.prime[x]
    join_px = p.join_table[px]
    out = 0
    for m in iter_mask(p.max_lower[x][y]):
        w = join_px[m]
        if w is None:
            raise UndefinedOperationError("join", px, m, p)
        out |= 1 << w
    return out


def sasaki_proj(op: OpPoset, a: int, x: int) -> int:
    """Projection of x into the segment below a; equals x (.) a."""
    return odot(op, x, a)


def sasaki_proj_dual(op: OpPoset, a: int, x: int) -> int:
    """Dual projection of x above a'; equals a (->) x."""
    return arrow(op, a, x)


def sasaki_proj_set(op: OpPoset, a: int, subset: int) -> int:
    """Union of the projections of the subset's members; empty on empty."""
    out = 0
    for x in iter_mask(subset):
        out |= sasaki_proj(op, a, x)
    return out


def _slice(p: Poset, column, row):
    """First a1 and first a2 violation (x, z), x-major, of one y-slice:
    ``column`` is odot column y and ``row`` is arrow row y."""
    w1 = w2 = None
    for x, odot_xy in enumerate(column):
        up_x = p.up[x]
        for z, arrow_yz in enumerate(row):
            below = bool(odot_xy & p.down[z])
            if below == bool(arrow_yz & up_x):
                continue
            if below:
                w1 = w1 or (x, z)
            else:
                w2 = w2 or (x, z)
            if w1 and w2:
                return w1, w2
    return w1, w2


def _line(op: OpPoset, i: int):
    """``((odot column i, arrow row i, *_slice of both), None)``, which read
    no image but i's, or ``(None, fault)`` at the first undefined cell (x, y)
    of the column, else of the row: ``fault = (table, (x, y), kind, left,
    right)`` with table 0 for odot and 1 for arrow, so ``min`` ranks every
    odot fault first and the row of a faulty column is never needed."""
    rng = range(op.poset.n)
    halves = []
    for table, (cell, pairs) in enumerate(((odot, [(j, i) for j in rng]), (arrow, [(i, j) for j in rng]))):
        cells = []
        for x, y in pairs:
            try:
                cells.append(cell(op, x, y))
            except UndefinedOperationError as exc:
                return None, (table, (x, y), exc.kind, exc.left, exc.right)
        halves.append(tuple(cells))
    return (*halves, *_slice(op.poset, *halves)), None


def lines(op: OpPoset) -> list[tuple]:
    """Per element i, ``(odot column i, arrow row i, w1, w2)``: w1 and w2
    are the first a1 and the first a2 violation (x, z) of y-slice i, x-major,
    or None. Raises UndefinedOperationError on the first cell that needs a
    missing meet or join, x-major over odot and then over arrow.

    Column i of odot and row i of arrow read no image but i', and so does
    slice i, so ``properties.poset_memo`` holds each line once per (element,
    image) of the poset.
    """
    p = op.poset
    memo = poset_memo(p)
    found = []
    for key in enumerate(op.prime):
        line = memo.get(key)
        if line is None:
            line = memo[key] = _line(op, key[0])
        found.append(line)
    faults = [fault for _, fault in found if fault]
    if faults:
        _, _, missing, left, right = min(faults)
        raise UndefinedOperationError(missing, left, right, p)
    return [line for line, _ in found]


def op_tables(op: OpPoset) -> tuple[OpTable, OpTable]:
    """Both operation tables, transposed from ``lines``; raises as it does."""
    columns, rows, _, _ = zip(*lines(op))
    return OpTable("odot", op.poset, tuple(zip(*columns))), OpTable("arrow", op.poset, rows)


def is_sasaki_total(op: OpPoset) -> bool:
    """True when every cell of both operation tables is defined."""
    try:
        lines(op)
    except UndefinedOperationError:
        return False
    return True


def _sample_subsets(p: Poset, exhaustive: bool) -> list[int]:
    if exhaustive:
        if p.n > 10:
            raise PosetError(f"exhaustive subset sweep limited to 10 elements, got {p.n}")
        return list(range(p.full + 1))
    subsets = [0]
    subsets += [1 << i for i in range(p.n)]
    subsets += [
        (1 << i) | (1 << j) for i in range(p.n) for j in range(i + 1, p.n)
    ]
    if p.full not in subsets:
        subsets.append(p.full)
    return subsets


def check_projection_laws(op: OpPoset, exhaustive: bool = False) -> PropertyReport:
    """Projection behaviour over a deterministic subset sample.

    For every parameter a and sampled subsets: the top projects to {a}
    (``top_not_sent_to_parameter``); the projection lands in the segment
    [bottom, a] (``image_escapes_segment``); projecting preserves the
    lower-cover comparison (``leq2_not_preserved``). On orthomodular carriers
    additionally: a' projects to {bottom} (``complement_not_annihilated``),
    the segment is fixed pointwise (``segment_not_fixed``), and projecting is
    idempotent (``not_idempotent``). The sample is all subsets of size <= 2
    plus the full carrier (all 2^n subsets with exhaustive=True, n <= 10).
    """
    p = op.poset
    subsets = _sample_subsets(p, exhaustive)
    # leq2(s, t) holds iff t lies inside the up-closure of s
    closures = [p.up_closure(s) for s in subsets]
    omod = is_orthomodular(op).holds
    for a in range(p.n):
        seg = p.down[a]
        if sasaki_proj(op, a, p.top) != 1 << a:
            return fail("projection_laws", (a,), "top_not_sent_to_parameter")
        images = [sasaki_proj_set(op, a, s) for s in subsets]
        for s, img in zip(subsets, images):
            if img & ~seg:
                return fail("projection_laws", (a,), "image_escapes_segment", f"subset {p.names_of(s)}")
        for sa, up_sa, img_a in zip(subsets, closures, images):
            up_img_a = p.up_closure(img_a)
            for sb, img_b in zip(subsets, images):
                if not sb & ~up_sa and img_b & ~up_img_a:
                    detail = f"subsets {p.names_of(sa)} vs {p.names_of(sb)}"
                    return fail("projection_laws", (a,), "leq2_not_preserved", detail)
        if omod:
            if sasaki_proj(op, a, op.prime[a]) != 1 << p.bottom:
                return fail("projection_laws", (a,), "complement_not_annihilated")
            for x in iter_mask(seg):
                if sasaki_proj(op, a, x) != 1 << x:
                    return fail("projection_laws", (a, x), "segment_not_fixed")
            for s, img in zip(subsets, images):
                if sasaki_proj_set(op, a, img) != img:
                    return fail("projection_laws", (a,), "not_idempotent", f"subset {p.names_of(s)}")
    return PropertyReport("projection_laws", True)
