import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orthoposet import kernels, verify
from orthoposet.adjoint import EQUIVALENCE_GROUPS, is_adjoint_pair
from orthoposet.enumeration import (
    all_maps,
    complement_candidates,
    complementations,
    enumerate_posets,
    instance_flag_map,
    sweep,
)
from orthoposet.poset_core import CARRIER_CAP, OpPoset, Poset, PosetError, indices_of
from orthoposet.properties import is_lattice

# Digests taken from the numpy evaluator this module replaced: the relation
# codes of every labeled poset on n elements, in order ...
RELATION_CODE_SHA256 = {
    5: "0fb73ff904fe0948ff7239a2c6bb841a03118db0e4af064abdd732ed49d025e8",
    6: "692d3a8ba65469f2e675a4c094d99d7a1785d12bbc5ada27903e86ce58cf8bce",
}
# ... and the sorted (up rows, prime, flag bits) rows of every unary map on
# every bounded poset with n <= 4.
ALL_MAPS_N4_ROWS = 9387
ALL_MAPS_N4_SHA256 = "9273196da721f5ec763bc3c8a2b9577b9a09d91f417e912d8052a42e0e18c938"


def _core_bits(op: OpPoset) -> dict[str, bool]:
    """Every flag bit's value, from the core deciders."""
    want = dict(instance_flag_map(op))
    if want["orthogonal"]:
        want.update(is_adjoint_pair(op).conditions)
    return want


def test_active_backend_is_valid():
    assert kernels.active_backend() == "python"
    assert kernels.HAVE_NUMBA is False


def test_pack_poset_tables(ex1):
    p = ex1.poset
    assert kernels.pack_poset(p) is p
    above, _, _ = p._packed
    assert above == tuple(indices_of(row) for row in p.up)
    # one state per poset without a frame, and one per frame for all its copies
    q = Poset(p.names, p.up)
    kernels.pack_poset(q)
    state = q._packed
    assert kernels.pack_poset(q) is q and q._packed is state
    posets = list(enumerate_posets(4))
    copy = posets[7]
    assert kernels.pack_poset(copy) is copy
    state = copy.frame._packed
    assert copy._packed is None and state is not None
    other = next(c for c in posets if c.frame is copy.frame and c is not copy)
    kernels.pack_poset(other)
    assert other._packed is None and copy.frame._packed is state
    # a copy that was never packed: instance_flags builds its frame's state
    fresh = next(c for c in enumerate_posets(4) if c.frame is not None and all(complement_candidates(c)))
    assert fresh.frame._packed is None
    prime = next(complementations(0, fresh))
    bits = kernels.instance_flags(fresh, prime)
    assert fresh._packed is None
    assert fresh.frame._packed[2] == {fresh.frame_instance(prime)[1]: bits}


def test_flags_match_core_deciders():
    rng = random.Random(3)
    for n in range(1, 5):
        for p in enumerate_posets(n):
            packed = kernels.pack_poset(p)
            if n <= 3:
                maps = list(itertools.product(range(n), repeat=n))
            else:
                maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(12)]
            for prime in maps:
                bits = kernels.instance_flags(packed, prime)
                want = _core_bits(OpPoset(p, prime))
                for name, flag in kernels.FLAGS.items():
                    assert bool(bits & flag) == want.get(name, False), (n, prime, name)


def test_flags_on_fixtures_match_core(fixture_ops, butterfly):
    for name, op in {**fixture_ops, "butterfly": butterfly}.items():
        bits = kernels.instance_flags(kernels.pack_poset(op.poset), op.prime)
        want = _core_bits(op)
        for key, flag in kernels.FLAGS.items():
            assert bool(bits & flag) == want.get(key, False), (name, key)


def test_flags_pinned_on_every_map_up_to_n4():
    rows = [
        (p.up, prime, bits) for n in range(1, 5) for _, p, prime, bits in sweep(enumerate_posets(n), all_maps)
    ]
    assert len(rows) == ALL_MAPS_N4_ROWS
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    assert h.hexdigest() == ALL_MAPS_N4_SHA256


def test_frame_instance_moves_every_map_up_to_n4_onto_its_frame():
    # the one relabeling path: the moved map on the frame keeps the copy's
    # flag bits, and to_frame is an order isomorphism from the copy onto it
    instances = verify.all_map_instances()
    assert len(instances) == ALL_MAPS_N4_ROWS
    checked = set()
    for p, prime, bits in instances:
        frame, moved = p.frame_instance(prime)
        if p.n == 1:
            assert frame is p and moved == prime
            continue
        s = p.to_frame
        assert frame is p.frame and frame.frame is None
        assert kernels.instance_flags(kernels.pack_poset(frame), moved) == bits, (p.up, prime)
        # moved = s . prime . s^-1, spelled through the inverse of s
        inverse = sorted(range(p.n), key=s.__getitem__)
        assert moved == tuple(s[prime[inverse[k]]] for k in range(p.n))
        if p not in checked:
            checked.add(p)
            assert sorted(s) == list(range(p.n))
            assert all(p.le(i, j) == frame.le(s[i], s[j]) for i in range(p.n) for j in range(p.n))
    assert len(checked) == 2 + 6 + 36


@pytest.mark.parametrize("n", sorted(RELATION_CODE_SHA256))
def test_relation_codes_pinned(n):
    codes = kernels.relation_codes(n)
    assert type(codes) is list
    digest = hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()
    assert digest == RELATION_CODE_SHA256[n]


def test_relation_codes_counts_and_caps():
    assert len(kernels.relation_codes(4)) == 219
    with pytest.raises(PosetError, match="enumeration"):
        kernels.relation_codes(7)
    with pytest.raises(PosetError, match="enumeration"):
        kernels.relation_codes(0)


def test_decode_relation_roundtrip():
    for n in range(1, 5):
        for code in kernels.relation_codes(n):
            rows = kernels.decode_relation(code, n)
            packed = 0
            for i, row in enumerate(rows):
                packed |= row << (i * n)
            assert packed == code


def test_prime_shape_validation(ex1):
    packed = kernels.pack_poset(ex1.poset)
    with pytest.raises(PosetError, match="carrier"):
        kernels.instance_flags(packed, (0, 1))


def test_prime_images_outside_the_carrier_rejected():
    chain = Poset.from_covers(("0", "1"), [(0, 1)])
    packed = kernels.pack_poset(chain)
    for prime in ((-1, 0), (2, 0)):
        with pytest.raises(PosetError, match="outside the carrier"):
            kernels.instance_flags(packed, prime)
    fresh = kernels.instance_flags(kernels.pack_poset(Poset(chain.names, chain.up)), (1, 0))
    assert kernels.instance_flags(packed, (1, 0)) == fresh


def test_entries_filled_lazily_and_in_any_order(ex1):
    # a poset of its own: ex1's state keeps the entries other tests fill
    packed = kernels.pack_poset(Poset(ex1.poset.names, ex1.poset.up))
    kernels.instance_flags(packed, ex1.prime)
    _, entries, _ = packed._packed
    filled = [(e, v) for e, row in enumerate(entries) for v, bits in enumerate(row) if bits is not None]
    assert filled == list(enumerate(ex1.prime))
    for n in (3, 4):
        for p in enumerate_posets(n):
            maps = list(itertools.product(range(n), repeat=n))
            # the copy reads its frame's entries; the frameless poset's own
            # start empty and are filled in reverse map order
            forward, backward = kernels.pack_poset(p), kernels.pack_poset(Poset(p.names, p.up))
            want = [kernels.instance_flags(forward, prime) for prime in maps]
            got = [kernels.instance_flags(backward, prime) for prime in reversed(maps)]
            assert got[::-1] == want, p.up


def test_entry_total_iff_orthogonal():
    # "well-defined iff orthogonal", one (element, image) entry at a time:
    # which is why _entry reads no undefined bound past its totality gate.
    # The frames the copies record, one per middle relation, cover every
    # bounded poset up to isomorphism.
    entries = split = 0
    for n in range(1, 7):
        for p in dict.fromkeys(q.frame or q for q in enumerate_posets(n)):
            above, _, _ = kernels.pack_poset(p)._packed
            for e, v in itertools.product(range(n), repeat=2):
                bits = kernels._entry(p, above, e, v)
                entries += 1
                split += bool(bits & kernels.FLAGS["total"]) != bool(bits & kernels.FLAGS["orthogonal"])
    assert entries == 8421
    assert split == 0


def test_frame_sharing_changes_no_bit():
    # A copy from enumerate_posets is evaluated on its frame's tables and
    # memo; the same order through the validating constructor has no frame,
    # and each of its maps is evaluated once, so none is served from a memo.
    # Every map for n <= 4, every complementation for n = 5, then seeded maps
    # on the 180 non-lattices at n = 6, the first posets with partial instances.
    rng = random.Random(15)
    instances = partial = complemented = 0
    frames = set()
    for n in range(1, 7):
        for p in enumerate_posets(n):
            if n <= 4:
                maps = list(all_maps(0, p))
            elif n == 5:
                maps = list(complementations(0, p))
            elif is_lattice(p).holds:
                continue
            else:
                maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(6)]
            alone = Poset(p.names, p.up)
            assert alone.frame is None and (p.frame is None) == (n == 1)
            shared, fresh = kernels.pack_poset(p), kernels.pack_poset(alone)
            assert fresh is alone and alone._packed is not None
            for prime in maps:
                bits = kernels.instance_flags(shared, prime)
                assert bits == kernels.instance_flags(fresh, prime), (p.up, prime)
                instances += 1
                partial += not bits & kernels.FLAGS["total"]
                if n <= 5:
                    frames.add(p.frame or p)
                    complemented += bool(bits & kernels.FLAGS["complemented"])
    assert instances == ALL_MAPS_N4_ROWS + 400 + 180 * 6
    assert partial > 0
    # the copies repeat frame instances: 415 complemented ones are 23 on frames
    memoized = sum(len(frame._packed[2]) for frame in frames)
    assert (memoized, complemented) == (23, 415)


def test_sweep_fills_each_frame_entry_once(monkeypatch):
    # the copies of a frame share its entries and its memo: 2,190
    # complemented posets at n = 6 are copies of 73 frames, with 662 (frame,
    # element, image) entries, and their 25,470 maps are 849 frame instances
    calls = []
    entry = kernels._entry

    def counting_entry(p, above, e, v):
        calls.append((p, e, v))
        return entry(p, above, e, v)

    monkeypatch.setattr(kernels, "_entry", counting_entry)
    frames = [p.frame for _, p, _, _ in sweep(enumerate_posets(6), complementations)]
    assert len(frames) == 25470
    assert len(calls) == len(set(calls)) == 662
    assert {frame for frame, _, _ in calls} == set(frames)
    assert len(set(frames)) == 73
    assert sum(len(frame._packed[2]) for frame in set(frames)) == 849


def test_memo_holds_only_complementations():
    # an all-map sweep stores each complementation of a frame and nothing
    # else, so the memo stays what the complemented sweep fills
    frames = {p.frame or p for _, p, _, _ in sweep(enumerate_posets(4), all_maps)}
    assert len(frames) == 3
    for frame in frames:
        assert set(frame._packed[2]) == set(complementations(0, frame)), frame.up
    assert sum(len(frame._packed[2]) for frame in frames) > 0


def test_bad_prime_on_a_copy_rejected_after_its_instance_is_memoized():
    copy = next(p for p in enumerate_posets(4) if p.frame is not None and p.to_frame != tuple(range(4)))
    packed = kernels.pack_poset(copy)
    prime = next(complementations(0, copy))
    bits = kernels.instance_flags(packed, prime)
    assert copy.frame._packed[2][copy.frame_instance(prime)[1]] == bits
    # -n + v indexes the move like v, so only the validation can refuse it
    wrapped = (prime[0] - 4,) + prime[1:]
    for bad in (wrapped, prime[:3], prime + (0,)):
        with pytest.raises(PosetError, match="carrier"):
            kernels.instance_flags(packed, bad)
    assert kernels.instance_flags(packed, prime) == bits


def test_pack_poset_at_the_carrier_cap():
    names = tuple(f"e{i}" for i in range(CARRIER_CAP))
    chain = Poset.from_covers(names, [(i, i + 1) for i in range(CARRIER_CAP - 1)])
    packed = kernels.pack_poset(chain)
    assert chain.join(3, 60) == 60 and chain.meet(3, 60) == 3
    prime = tuple(reversed(range(CARRIER_CAP)))
    bits = kernels.instance_flags(packed, prime)
    want = {"orthogonal", "total", "antitone", "involution"}
    for name, flag in kernels.FLAGS.items():
        assert bool(bits & flag) == (name in want), name


def test_flags_gate_on_totality(butterfly):
    packed = kernels.pack_poset(butterfly.poset)
    bits = kernels.instance_flags(packed, butterfly.prime)
    assert not bits & kernels.FLAGS["orthogonal"]
    assert not bits & kernels.FLAGS["total"]
    # direction and condition bits stay unset when the operations are partial
    for group in EQUIVALENCE_GROUPS:
        for name in group:
            assert not bits & kernels.FLAGS[name], name


def test_import_loads_neither_numpy_nor_numba():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import orthoposet, sys; assert not {'numpy','numba'} & set(sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
