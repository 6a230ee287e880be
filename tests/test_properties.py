import hashlib
import itertools

import pytest

from orthoposet import kernels, verify
from orthoposet.enumeration import enumerate_posets
from orthoposet.poset_core import OpPoset, Poset
from orthoposet.properties import (
    Witness,
    is_antitone,
    is_complementation,
    is_involution,
    is_lattice,
    is_modular,
    is_orthogonal,
    is_orthomodular,
    is_saturated,
    op_reports,
)
from orthoposet.sasaki import is_sasaki_total

from conftest import non_lattice_maps, two_chain

EXPECTED_PROFILES = {
    "ex1": dict(
        saturated=True, orthogonal=True, complemented=True, antitone=True,
        involution=False, orthomodular=False, modular=False, lattice=False,
    ),
    "m3": dict(
        saturated=True, orthogonal=True, complemented=True, antitone=True,
        involution=False, orthomodular=False, modular=True, lattice=True,
    ),
    "fig3": dict(
        saturated=True, orthogonal=True, complemented=True, antitone=True,
        involution=True, orthomodular=True, modular=False, lattice=True,
    ),
    "benzene": dict(
        saturated=True, orthogonal=True, complemented=True, antitone=True,
        involution=True, orthomodular=False, modular=False, lattice=True,
    ),
    "cube8": dict(
        saturated=True, orthogonal=True, complemented=True, antitone=True,
        involution=True, orthomodular=True, modular=True, lattice=True,
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_PROFILES))
def test_fixture_profiles(fixture_ops, name):
    got = {k: r.holds for k, r in op_reports(fixture_ops[name]).items()}
    assert got == EXPECTED_PROFILES[name]


def test_failed_reports_carry_replayable_witnesses(fixture_ops):
    for op in fixture_ops.values():
        for rep in op_reports(op).values():
            if not rep.holds:
                assert rep.witness is not None
                assert all(0 <= i < op.poset.n for i in rep.witness.elements)


# -- saturation --------------------------------------------------------------


def test_saturated_is_a_tautology_on_finite_posets():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            assert is_saturated(p).holds


# -- orthogonality -----------------------------------------------------------


def test_orthogonal_accepts_any_map_on_a_lattice(m3):
    # the printed diamond table, bounds mapped to themselves, is still
    # orthogonal: every join and meet exists in a lattice
    p = m3.poset
    printed = [p.index(s) for s in ("0", "b", "c", "a", "1")]
    assert is_orthogonal(OpPoset(p, printed)).holds


def test_orthogonal_witness_on_butterfly(butterfly):
    rep = is_orthogonal(butterfly)
    p = butterfly.poset
    assert not rep.holds
    assert rep.witness.elements == (p.index("a"), p.index("c"))
    assert rep.witness.condition == "join_with_complement_undefined"
    # replay: a <= c yet a v c' = a v b has two minimal upper bounds
    a, c = rep.witness.elements
    assert p.le(a, c)
    assert p.join(a, butterfly.prime[c]) is None


# -- complementation ---------------------------------------------------------


def test_complementation_cases(ex1):
    assert is_complementation(ex1).holds
    assert is_complementation(two_chain()).holds
    identity = OpPoset(two_chain().poset, (0, 1))
    rep = is_complementation(identity)
    assert not rep.holds
    assert rep.witness.elements == (0,)


def _complementation_from_tables(op):
    """The reference: holds and witness read from the join and meet tables."""
    p = op.poset
    for x in range(p.n):
        if p.join(x, op.prime[x]) != p.top:
            return False, Witness((x,), "join_with_image_not_top")
        if p.meet(x, op.prime[x]) != p.bottom:
            return False, Witness((x,), "meet_with_image_not_bottom")
    return True, None


def test_complementation_matches_the_table_reference(fixture_ops):
    ops = [OpPoset(p, prime) for p, prime, _ in verify.all_map_instances()]
    ops += fixture_ops.values()
    seen = set()
    for op in ops:
        rep = is_complementation(op)
        assert (rep.holds, rep.witness) == _complementation_from_tables(op), (op.poset.up, op.prime)
        seen.add(rep.witness.condition if rep.witness else None)
    assert seen == {None, "join_with_image_not_top", "meet_with_image_not_bottom"}


# -- antitone / involution ---------------------------------------------------


def test_antitone_cases(ex1, fig3):
    assert is_antitone(fig3).holds
    # decided by exhaustive check over all 49 pairs: the ex1 table reverses
    # order even though it is not an involution
    assert is_antitone(ex1).holds
    const_top = OpPoset(ex1.poset, (ex1.poset.top,) * 7)
    assert is_antitone(const_top).holds
    assert not is_involution(const_top).holds


def test_involution_witnesses(ex1, m3):
    rep = is_involution(ex1)
    assert not rep.holds
    assert rep.witness.elements == (ex1.poset.index("a"),)
    a = ex1.poset.index("a")
    assert ex1.prime[ex1.prime[a]] == ex1.poset.index("c")
    rep = is_involution(m3)
    assert not rep.holds
    assert rep.witness.elements == (m3.poset.index("a"),)
    assert is_involution(OpPoset(ex1.poset, tuple(range(7)))).holds


# -- orthomodularity ---------------------------------------------------------


def test_orthomodular_cases(fig3, ex1, benzene):
    assert is_orthomodular(fig3).holds
    rep = is_orthomodular(ex1)
    assert not rep.holds
    assert rep.witness.condition == "double_image_differs"
    rep = is_orthomodular(benzene)
    assert not rep.holds
    p = benzene.poset
    assert rep.witness.elements == (p.index("x"), p.index("z"))
    assert rep.witness.condition == "orthomodular_law_fails"
    # replay: x v (z' v x)' = x v (y v x)' = x v 0 = x != z
    x, z = rep.witness.elements
    j1 = p.join(benzene.prime[z], x)
    assert p.join(x, benzene.prime[j1]) == x != z


def _wright_triangle(coatoms: str) -> OpPoset:
    """The 14-element pasting of the Boolean blocks {a,b,c}, {c,d,e} and
    {e,f,a}, with ' swapping each atom and its coatom, and 0 and 1. The
    coatoms are listed in the given order; y' is above x when x != y share a block."""
    names = ("0", *"abcdef", *(c + "'" for c in coatoms), "1")
    index = {name: i for i, name in enumerate(names)}
    blocks = ("abc", "cde", "efa")
    covers = [(0, index[x]) for x in "abcdef"] + [(index[y + "'"], 13) for y in "abcdef"]
    covers += {
        (index[x], index[y + "'"]) for block in blocks for x in block for y in block if x != y
    }
    prime = {"0": "1", "1": "0", **{x: x + "'" for x in "abcdef"}, **{x + "'": x for x in "abcdef"}}
    return OpPoset(Poset.from_covers(names, covers), [index[prime[name]] for name in names])


@pytest.mark.parametrize(
    "coatoms, witness, condition",
    [
        ("abcdef", ("a", "b'"), "law_join_undefined"),
        ("cabdef", ("a", "c'"), "complement_join_undefined"),
    ],
)
def test_orthomodular_undefined_joins_on_the_wright_triangle(coatoms, witness, condition):
    # an antitone involutive complementation on a non-lattice: b v a = c' but
    # a v c has the two minimal upper bounds b' and e', as does c v a
    op = _wright_triangle(coatoms)
    p = op.poset
    rep = is_orthomodular(op)
    assert not rep.holds
    assert rep.witness.elements == tuple(map(p.index, witness))
    assert rep.witness.condition == condition
    bits = kernels.instance_flags(kernels.pack_poset(p), op.prime)
    core = {
        "orthogonal": is_orthogonal(op).holds,
        "total": is_sasaki_total(op),
        "complemented": is_complementation(op).holds,
        "antitone": is_antitone(op).holds,
        "involution": is_involution(op).holds,
        "orthomodular": rep.holds,
    }
    assert {name: bool(bits & kernels.FLAGS[name]) for name in core} == core
    assert core == dict(
        orthogonal=False, total=False, complemented=True,
        antitone=True, involution=True, orthomodular=False,
    )


def test_orthomodular_implies_orthogonal_on_small_carriers():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for prime in itertools.product(range(n), repeat=n):
                op = OpPoset(p, prime)
                if is_orthomodular(op).holds:
                    assert is_orthogonal(op).holds
                    assert is_complementation(op).holds
                    assert is_antitone(op).holds
                    assert is_involution(op).holds


# -- modularity and lattice---------------------------------------------------


def test_modular_cases(m3, benzene):
    assert is_modular(m3.poset).holds
    assert not is_modular(benzene.poset).holds
    assert is_modular(two_chain().poset).holds


def test_modular_matches_classical_law_on_lattices(fig3, cube8, pentagon):
    # x <= z implies x v (y ^ z) = (x v y) ^ z, read off the join and meet
    # tables: shares nothing with is_modular's bound-set tables
    lattices = [p for n in range(1, 7) for p in enumerate_posets(n) if is_lattice(p).holds]
    assert len(lattices) == 6815
    modular = 0
    for p in lattices + [fig3.poset, cube8.poset, pentagon.poset]:
        join, meet = p.join_table, p.meet_table
        classical = all(
            join[x][meet[y][z]] == meet[join[x][y]][z]
            for x in range(p.n)
            for z in range(p.n)
            if p.le(x, z)
            for y in range(p.n)
        )
        assert is_modular(p).holds == classical
        modular += classical
    assert modular == 3095 + 1  # cube8 is modular, fig3 and the pentagon are not


MODULAR_SATURATED_ROWS = 15881
MODULAR_SATURATED_SHA256 = "77bccef41267301d852c2752a23ad839cdb15d812989d23ae12618e8453e0ff3"


def test_modular_and_saturated_reports_pinned():
    # sha256 over the sorted (up rows, modular holds, witness, saturated
    # holds, witness) rows of every bounded poset with n <= 6 and every 20th
    # at n = 7, taken with the literal bound-set deciders
    posets = itertools.chain(
        (p for n in range(1, 7) for p in enumerate_posets(n)),
        itertools.islice(enumerate_posets(7), 0, None, 20),
    )
    rows = []
    for p in posets:
        row = [p.up]
        for rep in (is_modular(p), is_saturated(p)):
            row += [rep.holds, rep.witness and (rep.witness.elements, rep.witness.condition)]
        rows.append(tuple(row))
    assert len(rows) == MODULAR_SATURATED_ROWS
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    assert h.hexdigest() == MODULAR_SATURATED_SHA256


def test_lattice_cases(ex1, fig3):
    rep = is_lattice(ex1.poset)
    assert not rep.holds
    assert rep.witness.elements == (ex1.poset.index("a"), ex1.poset.index("b"))
    assert is_lattice(fig3.poset).holds
    chain = Poset.from_covers(("0", "m", "1"), [(0, 1), (1, 2)])
    assert is_lattice(chain).holds


# Taken while op_reports still decided orthomodular through is_orthomodular
# and the orthogonal and antitone deciders still read ``Poset.le``/``join``
# per pair: the sorted reprs of (up rows, prime, then (property, holds,
# witness) in report order) over every unary map with n <= 4 and the seeded
# n = 6 non-lattice corpus.
OP_REPORT_ROWS = 10107
OP_REPORT_SHA256 = "3c1d9c6fb940171108c09466f0fe456057425d75180226ab4a802823db9945d9"


def test_op_reports_pinned():
    ops = [OpPoset(p, prime) for p, prime, _ in verify.all_map_instances()]
    ops += non_lattice_maps()
    rows = []
    for op in ops:
        reports = op_reports(op).items()
        rows.append(repr((op.poset.up, op.prime, [(name, r.holds, r.witness) for name, r in reports])))
    assert len(rows) == OP_REPORT_ROWS
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(row.encode())
    assert h.hexdigest() == OP_REPORT_SHA256
