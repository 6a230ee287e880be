import hashlib
import itertools
import random

import pytest

from orthoposet.adjoint import (
    CONDITION_KEYS,
    check_adjointness_consequences,
    check_conditions,
    check_directions,
    check_modular_corollary,
    direction_sides,
    find_o6_subalgebra,
    is_adjoint_pair,
)
from orthoposet import adjoint, kernels, verify
from orthoposet.enumeration import enumerate_posets
from orthoposet.poset_core import OpPoset, PosetError
from orthoposet.properties import is_lattice, is_orthogonal
from orthoposet.sasaki import OpTable, arrow, is_sasaki_total, odot, op_tables

from conftest import non_lattice_maps, two_chain

A1_VIOLATION = (True, False)
A2_VIOLATION = (False, True)

# Taken while conditions i..vi were still decided in one walk each: the
# sorted reprs of (up rows, prime, a1, a2, a1 witness, a2 witness,
# conditions, condition witnesses, modular corollary holds) of
# is_adjoint_pair over the corpus of test_adjoint_reports_pinned.
REPORT_ROWS = 10006
REPORT_SHA256 = "46e269b46ffc7613ab5656aa33b961b5770d044bfa98268bb2cbb66ff074b551"


def test_ex1_splits_the_two_directions(ex1):
    rep = is_adjoint_pair(ex1)
    assert rep.a1 and not rep.a2
    assert not rep.adjoint
    assert rep.a1_witness is None
    assert rep.a2_witness is not None
    assert direction_sides(ex1, rep.a2_witness) == A2_VIOLATION
    # the named triple is a valid violation even if not the first one found
    p = ex1.poset
    assert direction_sides(ex1, (p.index("1"), p.index("c"), p.index("a"))) == A2_VIOLATION
    assert rep.conditions == dict(i=True, ii=True, iii=True, iv=False, v=False, vi=False)
    assert rep.flags == {"a1": True, "a2": False, **rep.conditions}
    conds = check_conditions(ex1)
    for key in ("iv", "v", "vi"):
        wit = rep.condition_witnesses[key]
        assert wit is not None
        assert conds[key] == (False, wit)


def test_adjoint_fixtures(m3, fig3, cube8):
    for op in (m3, fig3, cube8):
        rep = is_adjoint_pair(op)
        assert rep.adjoint
        assert all(rep.conditions[k] for k in CONDITION_KEYS)


def test_benzene_fails_both_directions(benzene):
    rep = is_adjoint_pair(benzene)
    assert not rep.a1 and not rep.a2
    assert direction_sides(benzene, rep.a1_witness) == A1_VIOLATION
    assert direction_sides(benzene, rep.a2_witness) == A2_VIOLATION
    assert not any(rep.conditions.values())


def test_one_element_is_adjoint():
    from orthoposet.poset_core import Poset

    op = OpPoset(Poset(("0",), (1,)), (0,))
    assert check_directions(op) == ((True, None), (True, None))


def _first_violations(p, ocells, acells):
    """((a1 holds, first violation), (a2 holds, first violation)) of the
    given cells, by a plain x-major walk over every (x, y, z)."""
    first = {}
    for x, y, z in itertools.product(range(p.n), repeat=3):
        sides = bool(ocells[x][y] & p.down[z]), bool(acells[y][z] & p.up[x])
        first.setdefault(sides, (x, y, z))
    w1, w2 = first.get(A1_VIOLATION), first.get(A2_VIOLATION)
    return (w1 is None, w1), (w2 is None, w2)


def test_direction_witnesses_replay_and_are_first():
    # every map with n = 3 or 4 and the 41 total maps of the n = 6
    # non-lattice corpus: the witnesses are the first violations and replay
    # against odot/arrow. The maps of each poset come in a row, so most
    # slices are read from the memo.
    ops = [
        OpPoset(p, prime)
        for n in (3, 4)
        for p in enumerate_posets(n)
        for prime in itertools.product(range(n), repeat=n)
    ]
    ops += [op for op in non_lattice_maps() if is_sasaki_total(op)]
    assert len(ops) == 6 * 27 + 36 * 256 + 41
    for op in ops:
        cells = range(op.poset.n)
        ocells = [[odot(op, x, y) for y in cells] for x in cells]
        acells = [[arrow(op, x, y) for y in cells] for x in cells]
        want = _first_violations(op.poset, ocells, acells)
        assert check_directions(op) == want, op
        for (_, wit), violation in zip(want, (A1_VIOLATION, A2_VIOLATION)):
            if wit is not None:
                assert direction_sides(op, wit) == violation


def test_adjoint_reports_pinned(fixture_ops):
    # Every orthogonal complementation with n <= 5, every unary map with
    # n <= 4, the fixtures, and the orthogonal maps among 20 seeded random
    # maps on each non-lattice bounded poset with n = 6. Every bounded poset
    # with n <= 5 is a lattice, so ex1 and the n = 6 maps are the ones on
    # non-lattices (where the conditions never meet an undefined bound
    # either, as the maps are orthogonal).
    ops = [OpPoset(p, prime) for p, prime, _ in verify.sweep_instances() + verify.all_map_instances()]
    ops += fixture_ops.values()
    rng = random.Random(6)
    for p in enumerate_posets(6):
        if is_lattice(p).holds:
            continue
        for _ in range(20):
            op = OpPoset(p, tuple(rng.randrange(6) for _ in range(6)))
            if is_orthogonal(op).holds:
                ops.append(op)
    rows = []
    for op in ops:
        rep = is_adjoint_pair(op)
        rows.append(repr((
            op.poset.up, op.prime, rep.a1, rep.a2, rep.a1_witness, rep.a2_witness,
            rep.conditions, rep.condition_witnesses, check_modular_corollary(op).holds,
        )))
    assert len(rows) == REPORT_ROWS
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(row.encode())
    assert h.hexdigest() == REPORT_SHA256


def test_consequences_on_fixtures(fixture_ops):
    for name, op in fixture_ops.items():
        assert check_adjointness_consequences(op).holds, name


def test_second_direction_alone_does_not_force_arrow_top():
    # constant-bottom map on the 2-chain: the backward implication holds,
    # the forward fails, and 0 -> 0 = {0} even though 0 <= 0. Only the
    # forward direction's join identity gives "x <= y implies arrow = {top}",
    # so the consequences of a2 alone hold here.
    op = two_chain(prime=(0, 0))
    (a1, w1), (a2, w2) = check_directions(op)
    assert not a1 and direction_sides(op, w1) == A1_VIOLATION
    assert a2 and w2 is None
    p = op.poset
    assert arrow(op, 0, 0) == 1 << 0
    assert p.le(0, 0)
    rep = check_adjointness_consequences(op)
    assert rep.holds and rep.witness is None
    # the forward half survives: arrow hitting {top} implies comparability
    for x in range(2):
        for y in range(2):
            if arrow(op, x, y) == 1 << p.top:
                assert p.le(x, y)


def test_consequences_of_one_direction_hold_on_every_small_map():
    # every unary map with n <= 4 that satisfies exactly one direction; on
    # the a2-only ones the converse "x <= y gives arrow = {top}" can fail,
    # and it is no consequence of a2. The checker has no separate "a1 and
    # a2 give a complementation" branch: a complementation is exactly "every
    # x v x' is the top" (a1's check) and "every x ^ x' is the bottom" (a2's
    # check), so once both of those pass such a branch could never fail.
    one_way = [
        OpPoset(p, prime)
        for p, prime, bits in verify.all_map_instances()
        if bool(bits & kernels.FLAGS["a1"]) != bool(bits & kernels.FLAGS["a2"])
    ]
    assert len(one_way) == 592
    for op in one_way:
        rep = check_adjointness_consequences(op)
        assert rep.holds, (op.poset.up, op.prime, rep.witness)


def test_modular_corollary(m3, cube8, ex1, pentagon):
    assert check_modular_corollary(m3).holds
    assert check_modular_corollary(cube8).holds
    # premise fails (not modular): implication is vacuously true
    assert check_modular_corollary(ex1).holds
    assert check_modular_corollary(pentagon).holds


# "Adjoint only if ' is a complementation" and the modular corollary are
# theorems, so no instance reaches the branches that report them broken: each
# test substitutes the direction verdicts, the arrow table or the conditions
# that the checker reads.


@pytest.mark.parametrize("condition, prime, a1, a2, witness", [
    # the identity on the 2-chain: 0 v 0' is not the top, 1 ^ 1' not the bottom
    ("a1_join_not_top", (0, 1), True, False, (0,)),
    ("a2_meet_not_bottom", (0, 1), False, True, (1,)),
    # the swap is a complementation; the substituted arrow table has 1 (->) 0 = {1}
    ("a2_arrow_top_not_le", (1, 0), False, True, (1, 0)),
])
def test_consequence_failures_name_their_condition(condition, prime, a1, a2, witness, monkeypatch):
    op = two_chain(prime)
    odot_table, _ = op_tables(op)
    top_everywhere = OpTable("arrow", op.poset, ((1 << op.poset.top,) * 2,) * 2)
    monkeypatch.setattr(adjoint, "op_tables", lambda op: (odot_table, top_everywhere))
    monkeypatch.setattr(adjoint, "check_directions", lambda op: ((a1, None), (a2, None)))
    rep = check_adjointness_consequences(op)
    assert not rep.holds and rep.property == "adjointness_consequences"
    assert rep.witness.condition == condition
    assert rep.witness.elements == witness
    assert set(rep.witness.elements) <= set(range(op.poset.n))


@pytest.mark.parametrize("key", ["iii", "vi"])
def test_modular_corollary_failure_names_the_condition(m3, key, monkeypatch):
    real = adjoint.check_conditions
    p = m3.poset
    witness = (p.index("a"), p.index("b"))
    monkeypatch.setattr(adjoint, "check_conditions", lambda op: {**real(op), key: (False, witness)})
    rep = check_modular_corollary(m3)
    assert not rep.holds and rep.property == "modular_corollary"
    assert rep.witness.condition == f"condition_{key}_fails"
    assert rep.witness.elements == witness
    assert set(rep.witness.elements) <= set(range(p.n))


def test_pentagon_is_complemented_orthogonal_but_not_adjoint(pentagon):
    from orthoposet.properties import is_complementation, is_modular, is_orthogonal

    assert is_complementation(pentagon).holds
    assert is_orthogonal(pentagon).holds
    assert not is_modular(pentagon.poset).holds
    rep = is_adjoint_pair(pentagon)
    assert not rep.adjoint
    assert not rep.conditions["vi"]


# -- O6 search ----------------------------------------------------------------


def test_o6_on_benzene_is_whole_carrier(benzene):
    found = find_o6_subalgebra(benzene)
    assert found is not None
    assert set(found) == set(range(6))
    b, x, y, z, u, t = found
    p = benzene.poset
    assert p.lt(x, z) and p.lt(y, u)
    assert b == p.bottom and t == p.top


def test_o6_absent_on_fig3_and_cube8(fig3, cube8):
    assert find_o6_subalgebra(fig3) is None
    assert find_o6_subalgebra(cube8) is None


def test_o6_rejects_non_lattice(ex1):
    with pytest.raises(PosetError, match="lattice"):
        find_o6_subalgebra(ex1)


def test_o6_rejects_non_complementation(fig3):
    identity = OpPoset(fig3.poset, tuple(range(fig3.poset.n)))
    with pytest.raises(PosetError, match="complementation"):
        find_o6_subalgebra(identity)


def test_fig3_benzene_sublattice_found_when_prime_allows(fig3):
    # relabel the complementation so the named benzene six-set becomes
    # '-closed: swapping images inside {c', f'} onto {a', d'} would break
    # involution, so instead check the obstruction machinery on benzene
    # directly embedded: fig3 has the sublattice but no subalgebra.
    p = fig3.poset
    six = [p.index(s) for s in ("0", "c", "d", "a'", "f'", "1")]
    import itertools

    sset = set(six)
    for s, t in itertools.combinations(six, 2):
        assert p.join(s, t) in sset
        assert p.meet(s, t) in sset
    assert any(fig3.prime[s] not in sset for s in six)
