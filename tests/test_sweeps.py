"""Six-element sweeps: the exhaustive n<=5 ground is covered by the
acceptance suite; these check the same invariants one size up."""
import hashlib

import pytest

from orthoposet import kernels
from orthoposet.adjoint import EQUIVALENCE_GROUPS, check_directions, find_o6_subalgebra, is_adjoint_pair
from orthoposet.enumeration import SearchGoal, complementations, enumerate_posets, search, sweep
from orthoposet.poset_core import OpPoset, Poset
from orthoposet.properties import is_lattice, is_orthogonal, is_orthomodular
from orthoposet.sasaki import is_sasaki_total

from conftest import non_lattice_maps

# Every complementation map on every bounded poset with n = 6: the count and
# the digest over the sorted (up rows, prime, flag bits) rows, the same pin
# the sweep6 benchmark workload checks.
SWEEP6_MAPS = 25470
SWEEP6_SHA256 = "38b41d9e291364d0bde052e9a0f070d3fa5cb2037d518f43774b92011fd03d26"
# The sorted (up rows, prime, flag bits) rows of the seeded maps on the
# non-lattices at n = 6, taken from the evaluator that built both operation
# tables per map; it pins the cleared a1/a2/condition bits of the partial
# instances.
NON_LATTICE_MAPS_SHA256 = "e80fe64322c78534e7f7a833f26fc724a17c576285bbd48666c8631d2f1dc9ce"


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sweep6():
    """(poset index, poset, prime, flag bits) of every complementation map
    on every bounded poset with n = 6."""
    return list(sweep(enumerate_posets(6), complementations))


def test_sweep6_pinned(sweep6):
    assert len(sweep6) == SWEEP6_MAPS
    assert _digest((p.up, prime, bits) for _, p, prime, bits in sweep6) == SWEEP6_SHA256


def test_direction_condition_equivalences_at_n6(sweep6):
    count = 0
    for _, p, prime, bits in sweep6:
        if not bits & kernels.FLAGS["orthogonal"]:
            continue
        for group in EQUIVALENCE_GROUPS:
            assert len({bool(bits & kernels.FLAGS[name]) for name in group}) == 1, (p, prime, group)
        count += 1
    assert count == SWEEP6_MAPS


def test_orthomodular_implies_adjoint_at_n6(sweep6):
    seen = 0
    for _, p, prime, bits in sweep6:
        if bits & kernels.FLAGS["orthomodular"]:
            assert bits & kernels.FLAGS["a1"] and bits & kernels.FLAGS["a2"], (p, prime)
            seen += 1
    assert seen > 0


def test_orthocomplementations_are_adjoint_exactly_when_orthomodular(sweep6):
    """Findings over every complementation of every bounded poset with
    n <= 6, not theorems of the paper: on an orthocomplementation (an
    antitone involutive complementation) a1, a2 and orthomodularity hold
    together or not at all, and no complementation satisfies a2 without a1.
    The slow path agrees on every orthocomplementation."""
    flag = kernels.FLAGS
    rows = [row for n in range(1, 6) for row in sweep(enumerate_posets(n), complementations)] + sweep6
    ortho = {}
    a2_alone = 0
    for _, p, prime, bits in rows:
        a2_alone += bool(bits & flag["a2"]) and not bits & flag["a1"]
        if bits & flag["antitone"] and bits & flag["involution"]:
            ortho.setdefault(p.n, []).append((OpPoset(p, prime), bits))
    assert (len(rows), a2_alone) == (25885, 0)
    assert {n: len(ops) for n, ops in ortho.items()} == {1: 1, 2: 2, 4: 12, 6: 450}
    for op, bits in (pair for ops in ortho.values() for pair in ops):
        a1, a2, omod = (bool(bits & flag[name]) for name in ("a1", "a2", "orthomodular"))
        assert a1 == a2 == omod, op
        report = is_adjoint_pair(op)
        assert (report.a1, report.a2, is_orthomodular(op).holds) == (a1, a2, omod), op


def test_totality_and_directions_on_every_non_lattice_at_n6():
    # Every bounded poset with n <= 5 is a lattice, where every map is total;
    # the 180 non-lattices at n = 6 are the first carriers with partial
    # operations. Four seeded maps each, two of them swapping the bounds.
    total = partial = 0
    rows = []
    packed = {}
    for op in non_lattice_maps():
        p, prime = op.poset, op.prime
        if p not in packed:
            packed[p] = kernels.pack_poset(p)
        bits = kernels.instance_flags(packed[p], prime)
        rows.append((p.up, prime, bits))
        is_total = bool(bits & kernels.FLAGS["total"])
        assert is_total == is_sasaki_total(op) == is_orthogonal(op).holds, (p, prime)
        if not is_total:
            partial += 1
            continue
        total += 1
        (a1, _), (a2, _) = check_directions(op)
        assert bool(bits & kernels.FLAGS["a1"]) == a1, (p, prime)
        assert bool(bits & kernels.FLAGS["a2"]) == a2, (p, prime)
    assert len(packed) == 180
    assert (total, partial) == (41, 679)
    assert _digest(rows) == NON_LATTICE_MAPS_SHA256


def test_o6_subalgebra_obstructs_adjointness(sweep6):
    # complemented lattices on every third poset: a closed O6 always kills
    # adjointness
    seen_o6 = 0
    for idx, p, prime, bits in sweep6:
        if idx % 3 or not is_lattice(p).holds or not bits & kernels.FLAGS["complemented"]:
            continue
        op = OpPoset(p, prime)
        if find_o6_subalgebra(op) is not None:
            seen_o6 += 1
            assert not is_adjoint_pair(op).adjoint
    assert seen_o6 > 0


def test_o6_obstruction_inside_larger_carrier():
    # benzene plus one extra incomparable middle (complemented via a chain
    # element): the embedded six-set is still a subalgebra, so no adjoint pair
    p = Poset.from_covers(
        ("0", "x", "y", "z", "u", "w", "1"),
        [(0, 1), (1, 3), (3, 6), (0, 2), (2, 4), (4, 6), (0, 5), (5, 6)],
    )
    prime = [p.index(s) for s in ("1", "u", "z", "y", "x", "x", "0")]
    op = OpPoset(p, prime)
    found = find_o6_subalgebra(op)
    assert found is not None
    assert p.index("w") not in found
    assert not is_adjoint_pair(op).adjoint


def test_first_orthocomplemented_non_adjoint_instance_is_a_benzene():
    goal = SearchGoal(
        require=frozenset({"complemented", "orthogonal", "involution", "antitone"}),
        forbid=frozenset({"adjoint"}),
        max_n=6,
        limit=1,
    )
    hits = list(search(goal))
    assert len(hits) == 1
    op = hits[0]
    assert op.poset.n == 6
    assert find_o6_subalgebra(op) is not None
