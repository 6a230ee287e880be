import itertools
import random

import pytest

from orthoposet import naive, sasaki
from orthoposet.poset_core import (
    OpPoset,
    UndefinedOperationError,
    indices_of,
    iter_mask,
)
from orthoposet.properties import is_orthogonal, is_orthomodular
from orthoposet.sasaki import (
    arrow,
    check_projection_laws,
    is_sasaki_total,
    odot,
    op_tables,
    sasaki_proj,
    sasaki_proj_dual,
    sasaki_proj_set,
)

from conftest import non_lattice_maps


def names(op, mask):
    return op.poset.names_of(mask)


# -- projection values on the fixtures ---------------------------------------


def test_projection_examples(ex1):
    p = ex1.poset
    for a in range(p.n):
        assert sasaki_proj(ex1, a, p.top) == 1 << a
    assert names(ex1, sasaki_proj(ex1, p.index("c"), p.index("a"))) == ("c",)
    assert names(ex1, sasaki_proj_dual(ex1, p.index("c"), p.index("a"))) == ("1",)
    for a in range(p.n):
        assert sasaki_proj_dual(ex1, a, p.bottom) == 1 << ex1.prime[a]
        assert sasaki_proj_dual(ex1, a, p.top) == 1 << p.top


def test_projection_set_examples(ex1):
    p = ex1.poset
    assert sasaki_proj_set(ex1, p.index("a"), 0) == 0
    assert sasaki_proj_set(ex1, p.index("a"), 1 << p.top) == 1 << p.index("a")
    assert names(ex1, sasaki_proj_set(ex1, p.index("c"), p.mask(["a", "b"]))) == ("c",)


def test_orthomodular_projection_annihilates_complement(fig3, cube8):
    for op in (fig3, cube8):
        p = op.poset
        for a in range(p.n):
            assert sasaki_proj(op, a, op.prime[a]) == 1 << p.bottom


# -- the two operations ------------------------------------------------------


def test_odot_examples(ex1):
    p = ex1.poset
    assert names(ex1, odot(ex1, p.index("a"), p.index("b"))) == ("b",)
    assert names(ex1, odot(ex1, p.index("e"), p.index("a"))) == ("0",)
    for op in (ex1,):
        for x in range(p.n):
            assert odot(op, p.top, x) == 1 << x


def test_arrow_examples(ex1):
    p = ex1.poset
    assert names(ex1, arrow(ex1, p.index("e"), p.index("a"))) == ("c",)
    for x in range(p.n):
        assert arrow(ex1, x, p.bottom) == 1 << ex1.prime[x]
        assert arrow(ex1, p.bottom, x) == 1 << ex1.prime[p.bottom]


def test_operations_unfold_to_projections(ex1, m3, benzene):
    for op in (ex1, m3, benzene):
        p = op.poset
        for x in range(p.n):
            for y in range(p.n):
                assert odot(op, x, y) == sasaki_proj(op, y, x)
                assert arrow(op, x, y) == sasaki_proj_dual(op, x, y)


def test_m3_arrow_spot_value(m3):
    p = m3.poset
    assert names(m3, arrow(m3, p.index("c"), p.index("a"))) == ("a",)


def test_tables_shape_and_bounds(ex1, m3):
    for op in (ex1, m3):
        p = op.poset
        ot, at = op_tables(op)
        assert ot.kind == "odot" and at.kind == "arrow"
        for x in range(p.n):
            for y in range(p.n):
                cell = ot.cells[x][y]
                assert cell, "cells are nonempty on orthogonal carriers"
                assert cell & ~p.down[y] == 0
                acell = at.cells[x][y]
                assert acell
                assert acell & ~p.up[op.prime[x]] == 0


def test_one_element_tables():
    from orthoposet.poset_core import Poset

    op = OpPoset(Poset(("0",), (1,)), (0,))
    ot, at = op_tables(op)
    assert ot.cells == ((1,),) and at.cells == ((1,),)


# -- definedness -------------------------------------------------------------


def test_undefined_meet_reports_offender(butterfly):
    p = butterfly.poset
    with pytest.raises(UndefinedOperationError) as exc:
        # c (.) a = Min U(c, a') ^ a with a'=a: Min U(c, a) = {c}; c ^ a = a
        # is fine, so pick the pair whose meet genuinely fails:
        for x in range(p.n):
            for y in range(p.n):
                odot(butterfly, x, y)
    assert exc.value.kind in ("meet", "join")
    assert not is_sasaki_total(butterfly)
    assert not is_orthogonal(butterfly).holds


def _first_undefined_cell(op):
    """(kind, left, right) of the first cell that raises, x-major over
    odot and then over arrow, or None."""
    n = op.poset.n
    for cell in (odot, arrow):
        for x, y in itertools.product(range(n), repeat=2):
            try:
                cell(op, x, y)
            except UndefinedOperationError as exc:
                return exc.kind, exc.left, exc.right
    return None


def test_op_tables_raise_on_the_first_undefined_cell():
    # the maps of each poset come in a row, so later ones read memoized lines
    partial = 0
    for op in non_lattice_maps():
        want = _first_undefined_cell(op)
        try:
            op_tables(op)
        except UndefinedOperationError as exc:
            got = exc.kind, exc.left, exc.right
            partial += 1
        else:
            got = None
        assert got == want, op
    assert partial == 679


def test_totality_matches_orthogonality_on_instances(butterfly, ex1, pentagon):
    for op in (butterfly, ex1, pentagon):
        assert is_sasaki_total(op) == is_orthogonal(op).holds


# -- law checkers ------------------------------------------------------------


def test_unit_identities_on_fixtures(fixture_ops, butterfly):
    # top (.) x = {x}; bottom (->) x = {bottom'}; x (->) bottom = {x'};
    # x (.) bottom = {bottom}. The boundary identities are total even on
    # non-orthogonal carriers such as the butterfly.
    for op in (*fixture_ops.values(), butterfly):
        p = op.poset
        for x in range(p.n):
            assert odot(op, p.top, x) == 1 << x
            assert arrow(op, p.bottom, x) == 1 << op.prime[p.bottom]
            assert arrow(op, x, p.bottom) == 1 << op.prime[x]
            assert odot(op, x, p.bottom) == 1 << p.bottom


def test_projection_laws_on_fixtures(fixture_ops):
    for name, op in fixture_ops.items():
        rep = check_projection_laws(op)
        assert rep.holds, (name, rep.witness)


def test_projection_laws_exhaustive_small(m3, benzene):
    assert check_projection_laws(m3, exhaustive=True).holds
    assert check_projection_laws(benzene, exhaustive=True).holds


def test_projection_laws_exhaustive_cap(fig3):
    with pytest.raises(Exception, match="10"):
        check_projection_laws(fig3, exhaustive=True)


# The projection laws are theorems on every orthogonal instance, so the
# branches that report one broken are reached by substituting what the checker
# reads: the projection (sasaki_proj) or its union over a subset
# (sasaki_proj_set). The unsubstituted side is computed from odot directly.


def _proj(op, a, x):
    return odot(op, x, a)


def _union(op, a, subset):
    out = 0
    for x in iter_mask(subset):
        out |= odot(op, x, a)
    return out


def _bottom_then_a(op, a, subset):
    # {bottom}, plus a when the subset holds the bottom: inside [bottom, a]
    # and leq2-preserving (every image holds the bottom), but not idempotent
    p = op.poset
    return 1 << p.bottom | (1 << a if subset >> p.bottom & 1 else 0)


LAW_FAULTS = {
    "top_not_sent_to_parameter": (lambda op, a, x: 0, _union),
    "image_escapes_segment": (_proj, lambda op, a, s: op.poset.full),
    "leq2_not_preserved": (_proj, lambda op, a, s: 0 if s >> op.poset.bottom & 1 else _union(op, a, s)),
    "complement_not_annihilated": (
        lambda op, a, x: 1 << op.poset.top if x == op.prime[a] != op.poset.top else _proj(op, a, x),
        _union,
    ),
    "segment_not_fixed": (lambda op, a, x: 0 if x == a != op.poset.top else _proj(op, a, x), _union),
    "not_idempotent": (_proj, _bottom_then_a),
}


@pytest.mark.parametrize("condition", sorted(LAW_FAULTS))
def test_projection_law_failures_name_their_condition(fig3, condition, monkeypatch):
    assert is_orthomodular(fig3).holds  # so the last three laws are checked
    assert check_projection_laws(fig3).holds
    proj, proj_set = LAW_FAULTS[condition]
    monkeypatch.setattr(sasaki, "sasaki_proj", proj)
    monkeypatch.setattr(sasaki, "sasaki_proj_set", proj_set)
    rep = check_projection_laws(fig3)
    assert not rep.holds and rep.property == "projection_laws"
    assert rep.witness.condition == condition
    assert rep.witness.elements and set(rep.witness.elements) <= set(range(fig3.poset.n))


# -- oracle cross-checks ------------------------------------------------------


def test_operations_match_naive_oracle(fixture_ops, butterfly, pentagon):
    rng = random.Random(5)
    ops = list(fixture_ops.values()) + [butterfly, pentagon]
    for op in ops:
        p = op.poset
        rel = naive.relation_pairs(p.up)
        for _ in range(60):
            x = rng.randrange(p.n)
            y = rng.randrange(p.n)
            try:
                got = ("set", indices_of(odot(op, x, y)))
            except UndefinedOperationError:
                got = "undefined"
            want = naive.odot(rel, p.n, op.prime, x, y)
            assert got == (want if want[0] == "set" else "undefined")
            try:
                got = ("set", indices_of(arrow(op, x, y)))
            except UndefinedOperationError:
                got = "undefined"
            want = naive.arrow(rel, p.n, op.prime, x, y)
            assert got == (want if want[0] == "set" else "undefined")
