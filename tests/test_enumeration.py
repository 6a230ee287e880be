import hashlib
import itertools
import random
import tracemalloc

import pytest

from orthoposet import enumeration, kernels, naive, properties, sasaki
from orthoposet.enumeration import (
    SEARCH_FLAGS,
    SearchGoal,
    complement_candidates,
    enumerate_posets,
    enumerate_relations,
    instance_flag_map,
    search,
)
from orthoposet.adjoint import CONDITION_KEYS, EQUIVALENCE_GROUPS, is_adjoint_pair
from orthoposet.poset_core import OpPoset, Poset, PosetError, UndefinedOperationError
from orthoposet.properties import (
    PROPERTY_NAMES,
    is_lattice,
    is_modular,
    is_orthogonal,
    is_saturated,
    op_reports,
    poset_reports,
)


POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219}


def test_relation_counts_match_both_oracles():
    for n, expected in POSET_COUNTS.items():
        rows = list(enumerate_relations(n))
        assert len(rows) == expected
        assert len(set(rows)) == expected, "duplicate relations"
        assert naive.count_posets_orientations(n) == expected
        assert naive.count_posets_subsets(n) == expected


def test_orientation_oracle_counts_every_relation_code():
    for n in range(1, 6):
        assert naive.count_posets_orientations(n) == len(kernels.relation_codes(n))


@pytest.mark.parametrize("n", range(7))
def test_orientation_oracle_tests_each_triple_once_at_its_latest_pair(n):
    # pruning counts exactly the transitive relations only if every triple of
    # distinct elements is tested once, as soon as all three of its pairs are set
    pairs, due = naive._triples_due(n)
    assert pairs == list(itertools.combinations(range(n), 2))
    scheduled = [t for step in due for t in step]
    assert sorted(scheduled) == sorted(itertools.permutations(range(n), 3))
    for k, step in enumerate(due):
        for x, y, z in step:
            latest = max(pairs.index((min(a, b), max(a, b))) for a, b in ((x, y), (y, z), (x, z)))
            assert latest == k


def _orientation_code(rows) -> int:
    """One base-3 digit per pair i < j, lexicographic from the least
    significant: 0 incomparable, 1 for i < j, 2 for j < i."""
    code = 0
    for place, (i, j) in enumerate(itertools.combinations(range(len(rows)), 2)):
        if (rows[i] >> j) & 1:
            code += 3 ** place
        elif (rows[j] >> i) & 1:
            code += 2 * 3 ** place
    return code


def test_relations_are_valid_partial_orders():
    for n in range(1, 6):
        last = -1
        for rows in enumerate_relations(n):
            rel = naive.relation_pairs(rows)
            for i in range(n):
                assert (i, i) in rel
            for i, j in rel:
                assert (j, i) not in rel or i == j
            assert naive._is_transitive(rel, n)
            code = _orientation_code(rows)
            assert code > last, "orientation codes must strictly increase"
            last = code


def test_relation_stream_holds_no_list():
    # the 130,023 relations on six elements come one at a time from the
    # extension step; a list of them would take several megabytes
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_relations(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 130023
    assert peak < 1 << 20


def test_bounded_enumeration_matches_filter():
    for n in range(1, 5):
        built = {p.up for p in enumerate_posets(n)}
        full = (1 << n) - 1
        filtered = set()
        for rows in enumerate_relations(n):
            downs = [0] * n
            for i, r in enumerate(rows):
                for j in range(n):
                    if (r >> j) & 1:
                        downs[j] |= 1 << i
            if any(r == full for r in rows) and any(d == full for d in downs):
                filtered.add(rows)
        assert built == filtered


def test_bounded_counts():
    assert sum(1 for _ in enumerate_posets(5)) == 380
    assert sum(1 for _ in enumerate_posets(6)) == 30 * 219


# sha256 over the in-order repr((up, down, bottom, top)) of every bounded
# poset with n <= 7, taken with the generator that validated every poset
BOUNDED_ORDER_SHA256 = "4463ab8094047081438a3ea030b993cab2faf72871422c7145433c27049c444b"


def test_bounded_enumeration_order_pinned():
    h = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for p in enumerate_posets(n):
            h.update(repr((p.up, p.down, p.bottom, p.top)).encode())
            count += 1
    assert count == 1 + 2 + 6 + 36 + 380 + 6570 + 177702
    assert h.hexdigest() == BOUNDED_ORDER_SHA256


def _maps_onto_frame(p) -> bool:
    """Whether to_frame is an order isomorphism from p onto p.frame: a
    permutation with i <= j in p exactly when to_frame[i] <= to_frame[j]."""
    s = p.to_frame
    return sorted(s) == list(range(p.n)) and all(
        sum(1 << s[j] for j in range(p.n) if row >> j & 1) == p.frame.up[s[i]]
        for i, row in enumerate(p.up)
    )


def test_enumerated_posets_pass_the_validating_constructor():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            q = Poset(p.names, p.up)
            assert p == q
            assert (p.n, p.full, p.down, p.bottom, p.top) == (q.n, q.full, q.down, q.bottom, q.top)
            assert n == 1 or _maps_onto_frame(p), (p.up, p.to_frame)


def test_copy_rows_are_int_tuples_with_the_constructors_repr():
    # the sweep digests hash repr(p.up): a copy's rows must be tuples of int,
    # as the validating constructor's are, not bytes read from a row buffer
    for n in range(1, 7):
        for p in enumerate_posets(n):
            rows = (p.up, p.down)
            assert all(type(r) is tuple and all(type(v) is int for v in r) for r in rows), rows
            q = Poset(p.names, p.up)
            assert repr(rows) == repr((q.up, q.down))


def test_copies_at_n8_fill_the_translate_table(monkeypatch):
    # n = 8 is the largest carrier, where rows reach 255, the last value a
    # one-byte translate table holds; no full n = 8 stream runs in tier-1,
    # so three middle relations on 6 elements go through all 56 pairs
    chain = tuple(0b111111 & ~((1 << i) - 1) for i in range(6))
    antichain = tuple(1 << i for i in range(6))
    mixed = (0b010011, 0b000010, 0b011100, 0b011000, 0b010000, 0b100000)  # 0<1, 0<4, 2<3<4
    monkeypatch.setattr(kernels, "relation_rows", lambda m: iter([antichain, chain, mixed]))
    copies = list(enumerate_posets(8))
    assert len(copies) == 56 * 3
    assert len({(p.bottom, p.top) for p in copies}) == 56
    assert max(max(p.up + p.down) for p in copies) == 255
    for p in copies:
        q = Poset(p.names, p.up)
        assert (p.up, p.down, p.bottom, p.top) == (q.up, q.down, q.bottom, q.top)
        assert _maps_onto_frame(p), (p.up, p.to_frame)


def test_middle_relation_is_validated(monkeypatch):
    # 0 < 1 < 2 without 0 < 2: rows {0, 1}, {1, 2}, {2}
    monkeypatch.setattr(kernels, "relation_rows", lambda m: [(0b011, 0b110, 0b100)])
    with pytest.raises(PosetError, match="transitive"):
        next(enumerate_posets(5))


def test_enumeration_caps():
    with pytest.raises(PosetError):
        list(enumerate_relations(7))
    with pytest.raises(PosetError):
        list(enumerate_posets(9))
    with pytest.raises(PosetError):
        list(enumerate_posets(0))


# -- unary maps ---------------------------------------------------------------


def _complementations(p):
    return set(itertools.product(*complement_candidates(p)))


def test_two_chain_complementation_is_forced():
    chain = Poset.from_covers(("0", "1"), [(0, 1)])
    assert _complementations(chain) == {(1, 0)}


def test_m3_complementations_include_the_cycle(m3):
    p = m3.poset
    primes = _complementations(p)
    assert len(primes) == 8
    assert m3.prime in primes
    assert all(is_orthogonal(OpPoset(p, prime)).holds for prime in primes)


def test_ex1_complementations_include_the_fixture_table(ex1):
    assert ex1.prime in _complementations(ex1.poset)


def test_all_maps_count():
    # a goal without flags streams every unary map on every bounded poset;
    # every bounded poset on three elements is the chain, with 27 maps
    hits = list(search(SearchGoal(max_n=3)))
    assert len(hits) == 1 + 2 * 2**2 + 6 * 3**3
    assert len(set(hits)) == len(hits)


def test_middle_chain_has_no_complement():
    chain = Poset.from_covers(("0", "m", "1"), [(0, 1), (1, 2)])
    assert complement_candidates(chain)[1] == []
    assert _complementations(chain) == set()
    goal = SearchGoal(require=frozenset({"complemented"}), max_n=3)
    assert [op.poset.n for op in search(goal)] == [1, 2, 2]


def _complements_from_tables(p):
    """The reference: y is a complement of x when the join table gives the
    top and the meet table the bottom."""
    join, meet = p.join_table, p.meet_table
    return [
        [y for y in range(p.n) if join[x][y] == p.top and meet[x][y] == p.bottom]
        for x in range(p.n)
    ]


def test_complement_candidates_build_no_join_or_meet_table(ex1):
    p = ex1.poset
    fresh = Poset(p.names, p.up)
    assert complement_candidates(fresh) == _complements_from_tables(p)
    assert fresh._joins is None and fresh._meets is None


def test_complement_candidates_match_the_table_reference():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert complement_candidates(p) == _complements_from_tables(p), (p.up,)


# -- search -------------------------------------------------------------------


def test_goal_validation():
    with pytest.raises(PosetError, match="unknown"):
        SearchGoal(require=frozenset({"shiny"}))
    with pytest.raises(PosetError, match="overlap"):
        SearchGoal(require=frozenset({"modular"}), forbid=frozenset({"modular"}))
    with pytest.raises(PosetError, match="max_n"):
        SearchGoal(max_n=0)
    for limit in (0, -1):  # used to yield one hit before the limit was checked
        with pytest.raises(PosetError, match="limit"):
            SearchGoal(limit=limit)


def test_search_finds_non_involutive_adjoint_instances():
    goal = SearchGoal(
        require=frozenset({"orthogonal", "complemented", "adjoint"}),
        forbid=frozenset({"involution"}),
        max_n=5,
        limit=3,
    )
    hits = list(search(goal))
    assert hits
    for op in hits:
        flags = instance_flag_map(op)
        assert flags["adjoint"] and flags["complemented"] and flags["orthogonal"]
        assert not flags["involution"]


@pytest.mark.parametrize(
    "require, forbid, max_n",
    [({"involution"}, {"adjoint"}, 3), ({"modular", "complemented"}, {"orthomodular"}, 5)],
)
def test_search_skips_poset_deciders_the_goal_does_not_name(monkeypatch, require, forbid, max_n):
    goal = SearchGoal(require=frozenset(require), forbid=frozenset(forbid), max_n=max_n)
    want = [(op.poset.up, op.prime) for op in search(goal)]
    assert want

    def refuse(p):
        raise AssertionError("is_saturated ran for a goal that does not name it")

    monkeypatch.setattr(enumeration, "is_saturated", refuse)
    assert [(op.poset.up, op.prime) for op in search(goal)] == want


def _complemented_frames(n):
    """The frames of the posets on n elements that have a complementation,
    in first-seen order; a poset without a frame is its own."""
    return list(dict.fromkeys(p.frame or p for p in enumerate_posets(n) if all(complement_candidates(p))))


def test_complemented_search_packs_only_complemented_posets(monkeypatch):
    packed = []

    def counting_pack(p):
        packed.append(p)
        return pack_poset(p)

    pack_poset = kernels.pack_poset
    monkeypatch.setattr(kernels, "pack_poset", counting_pack)
    goal = SearchGoal(require=frozenset({"complemented"}), max_n=5)
    assert list(search(goal))
    assert packed == [f for n in range(1, 6) for f in _complemented_frames(n)]


def test_sweep_packs_a_poset_only_when_its_first_map_arrives(monkeypatch):
    packed = []

    def counting_pack(p):
        packed.append(p)
        return pack_poset(p)

    pack_poset = kernels.pack_poset
    monkeypatch.setattr(kernels, "pack_poset", counting_pack)
    rows = list(enumeration.sweep(enumerate_posets(5), enumeration.complementations))
    # the 140 posets with a complementation are copies of 7 frames
    assert packed == _complemented_frames(5)
    assert len(packed) == 7 and len(rows) == 400
    packed.clear()
    assert sum(1 for _ in enumeration.sweep(enumerate_posets(4), enumeration.all_maps)) == 36 * 4**4
    assert packed == list(dict.fromkeys(p.frame for p in enumerate_posets(4)))
    assert len(packed) == 3


def test_search_orthomodular_always_adjoint_small():
    goal = SearchGoal(
        require=frozenset({"orthomodular"}), forbid=frozenset({"adjoint"}), max_n=4
    )
    assert list(search(goal)) == []


def test_search_finds_complemented_orthogonal_non_adjoint():
    goal = SearchGoal(
        require=frozenset({"complemented", "orthogonal"}),
        forbid=frozenset({"adjoint"}),
        max_n=7,
        limit=1,
    )
    hits = list(search(goal))
    assert len(hits) == 1
    flags = instance_flag_map(hits[0])
    assert flags["complemented"] and flags["orthogonal"] and not flags["adjoint"]


def test_search_is_deterministic():
    goal = SearchGoal(require=frozenset({"complemented"}), max_n=4, limit=5)
    first = [(op.poset.up, op.prime) for op in search(goal)]
    second = [(op.poset.up, op.prime) for op in search(goal)]
    assert first == second


def test_search_sampling_path_is_seeded(monkeypatch):
    monkeypatch.setattr(enumeration, "MAP_SAMPLES", 64)
    goal = SearchGoal(require=frozenset({"involution"}), max_n=5, limit=4, seed=9)
    first = [(op.poset.up, op.prime) for op in search(goal)]
    second = [(op.poset.up, op.prime) for op in search(goal)]
    assert first == second and len(first) == 4


# -- per-frame verdicts and the replay cache ----------------------------------

POSET_DECIDERS = {"saturated": is_saturated, "modular": is_modular, "lattice": is_lattice}


def _frame_copies(n):
    """(poset, first copy of its frame) over enumerate_posets(n)."""
    first = {}
    return [(p, first.setdefault(p.frame or p, p)) for p in enumerate_posets(n)]


def test_poset_verdicts_agree_across_copies_of_a_frame():
    for n in range(1, 6):
        for p, first in _frame_copies(n):
            for name, decider in POSET_DECIDERS.items():
                assert decider(p).holds == decider(first).holds, (name, p.up)
            assert all(complement_candidates(p)) == all(complement_candidates(first))


def _brute_force_hits(goal):
    """Every decider on every poset; maps from the same source as search."""
    hits = []
    for n in range(1, goal.max_n + 1):
        for idx, p in enumerate(enumerate_posets(n)):
            poset_flags = {name: decider(p).holds for name, decider in POSET_DECIDERS.items()}
            if not all(poset_flags[f] for f in goal.require & poset_flags.keys()) or any(
                poset_flags[f] for f in goal.forbid & poset_flags.keys()
            ):
                continue
            if "complemented" in goal.require:
                maps = itertools.product(*complement_candidates(p))
            else:
                maps = enumeration._sampled_maps(goal, idx, p)
            packed = kernels.pack_poset(p)
            for prime in maps:
                bits = kernels.instance_flags(packed, prime)
                flags = {**poset_flags, **{name: bool(bits & flag) for name, flag in kernels.FLAGS.items()}}
                flags["adjoint"] = flags["a1"] and flags["a2"]
                if all(flags[f] for f in goal.require) and not any(flags[f] for f in goal.forbid):
                    hits.append((p.up, prime))
    return hits


# every bounded poset on five or fewer elements is a lattice and every map on
# one is total, so forbidding lattice or total needs n = 6 to find anything
@pytest.mark.parametrize(
    "require, forbid, max_n",
    [
        ({"saturated"}, set(), 5),
        (set(), {"saturated"}, 5),
        ({"modular"}, set(), 5),
        (set(), {"modular"}, 5),
        ({"lattice"}, set(), 5),
        (set(), {"lattice"}, 6),
        ({"complemented"}, set(), 5),
        ({"modular", "complemented"}, {"orthomodular"}, 5),
        ({"adjoint"}, set(), 5),
        ({"total"}, {"adjoint"}, 5),
        ({"a2"}, {"a1"}, 5),
        (set(), {"total"}, 6),
    ],
)
def test_search_matches_brute_force_filter(require, forbid, max_n, monkeypatch):
    monkeypatch.setattr(enumeration, "MAP_SAMPLES", 2)
    goal = SearchGoal(require=frozenset(require), forbid=frozenset(forbid), max_n=max_n)
    got = [(op.poset.up, op.prime) for op in search(goal)]
    assert got == _brute_force_hits(goal)
    # saturated holds on every finite poset, so only forbidding it finds nothing
    assert bool(got) != (forbid == {"saturated"})


def test_search_decides_once_per_frame(monkeypatch):
    modular_calls = []
    candidate_calls = []

    def counting_modular(p):
        modular_calls.append(p)
        return is_modular(p)

    def recording_candidates(p):
        candidate_calls.append(p)
        return complement_candidates(p)

    monkeypatch.setattr(enumeration, "is_modular", counting_modular)
    monkeypatch.setattr(enumeration, "complement_candidates", recording_candidates)
    goal = SearchGoal(require=frozenset({"modular", "complemented"}), forbid=frozenset({"orthomodular"}), max_n=5)
    assert list(search(goal))
    assert len(modular_calls) == 1 + 1 + 1 + 3 + 19  # frames per n, once each
    want = [
        p
        for n in range(1, 6)
        for p, first in _frame_copies(n)
        if is_modular(first).holds and (p is first or all(complement_candidates(first)))
    ]
    assert [p.up for p in candidate_calls] == [p.up for p in want]


def _fresh_flags(op):
    # the poset-level flags from the deciders imported above, past the cache
    p = op.poset
    flags = {name: r.holds for name, r in op_reports(op).items()}
    flags.update(saturated=is_saturated(p).holds, modular=is_modular(p).holds, lattice=is_lattice(p).holds)
    try:
        report = is_adjoint_pair(op)
    except UndefinedOperationError:
        flags.update(total=False, a1=False, a2=False, adjoint=False)
    else:
        flags.update(total=True, a1=report.a1, a2=report.a2, adjoint=report.adjoint)
    return flags


def test_replay_decides_poset_flags_once_per_run_of_hits(monkeypatch):
    by_poset = {}
    for op in search(SearchGoal(require=frozenset({"complemented"}), max_n=5)):
        by_poset.setdefault(op.poset, []).append(op)
    # A modular and B not (M3 and N5 both have several complementations), so
    # a flag map left over from the other poset shows
    a = next(ops for p, ops in by_poset.items() if len(ops) > 1 and is_modular(p).holds)
    b = next(ops for p, ops in by_poset.items() if len(ops) > 1 and not is_modular(p).holds)
    hits = a + b + a
    # the reference reads no memoized line or slice of an earlier hit
    want = []
    for op in hits:
        properties.poset_memo.cache_clear()
        want.append((_fresh_flags(op), is_adjoint_pair(op)))
    calls = []

    def counting_modular(p):
        calls.append(p)
        return is_modular(p)

    monkeypatch.setattr(properties, "is_modular", counting_modular)
    properties.poset_memo.cache_clear()
    # witnesses included, as is_adjoint_pair reports them
    assert [(instance_flag_map(op), is_adjoint_pair(op)) for op in hits] == want
    # one run of consecutive hits per poset: A, then B, then A again
    assert [p.up for p in calls] == [a[0].poset.up, b[0].poset.up, a[0].poset.up]
    assert len(hits) > len(calls)


def test_replay_builds_each_line_once_per_poset_element_and_image(monkeypatch):
    # the search6 goal of the benchmark: 2,500 hits on 50 posets, every one total
    goal = SearchGoal(require=frozenset({"modular", "complemented"}), forbid=frozenset({"orthomodular"}), max_n=6)
    hits = list(search(goal))
    built = []
    line = sasaki._line

    def counting_line(op, i):
        built.append((op.poset, i, op.prime[i]))
        return line(op, i)

    monkeypatch.setattr(sasaki, "_line", counting_line)
    flags = [instance_flag_map(op) for op in hits]
    distinct = {(op.poset, i, v) for op in hits for i, v in enumerate(op.prime)}
    assert len(built) == len(set(built)) == len(distinct) == 580
    assert (len(hits), len({op.poset for op in hits})) == (2500, 50)
    monkeypatch.undo()
    reports = [is_adjoint_pair(op) for op in hits]
    fresh = []
    for op in hits:
        properties.poset_memo.cache_clear()
        fresh.append((instance_flag_map(op), is_adjoint_pair(op)))
    # witnesses included, as is_adjoint_pair reports them
    assert fresh == list(zip(flags, reports))


def test_flag_vocabulary_agrees_across_layers(ex1):
    assert list(op_reports(ex1)) == list(PROPERTY_NAMES)
    assert set(instance_flag_map(ex1)) == set(SEARCH_FLAGS)
    kernel_names = set(kernels.FLAGS) - set(CONDITION_KEYS)
    assert kernel_names | set(poset_reports(ex1.poset)) | {"adjoint"} == set(SEARCH_FLAGS)
    # every statement of the two equivalence groups is a report flag
    grouped = [name for group in EQUIVALENCE_GROUPS for name in group]
    assert sorted(grouped) == sorted(is_adjoint_pair(ex1).flags)
