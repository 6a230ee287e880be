import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoposet import naive
from orthoposet.poset_core import (
    CARRIER_CAP,
    OpPoset,
    Poset,
    PosetError,
    indices_of,
    iter_mask,
    mask_of,
)

from conftest import bounded_posets, relabeled, two_chain


# -- construction and validation -------------------------------------------


def test_from_covers_builds_closure(ex1):
    p = ex1.poset
    assert p.le(p.index("0"), p.index("1"))
    assert p.le(p.index("a"), p.index("1"))
    assert not p.le(p.index("c"), p.index("a"))
    assert p.bottom == p.index("0") and p.top == p.index("1")


def test_single_element():
    p = Poset(("z",), (1,))
    assert p.bottom == p.top == 0
    assert p.full == 1


@pytest.mark.parametrize(
    "names,rows,message",
    [
        (("a", "a"), (0b11, 0b10), "unique"),
        (("a", ""), (0b11, 0b10), "nonempty"),
        (("a", "b"), (0b10, 0b10), "reflexive"),
        (("a", "b"), (0b11, 0b11), "antisymmetric"),
        (("a", "b", "c"), (0b011, 0b110, 0b100), "transitive"),
        (("a", "b"), (0b01, 0b10), "least"),
        (("a", "b", "c"), (0b101, 0b110, 0b100), "least"),
        ((), (), "at least one element"),
        (("a", "b"), (0b11,), "does not match"),
        (("a", "b"), (0b111, 0b10), "outside the carrier"),
    ],
)
def test_rejects_invalid_structures(names, rows, message):
    with pytest.raises(PosetError, match=message):
        Poset(names, rows)


def test_rejects_missing_greatest():
    # one bottom, two maximal elements
    with pytest.raises(PosetError, match="greatest"):
        Poset(("0", "a", "b"), (0b111, 0b010, 0b100))


def test_rejects_cycle_in_covers():
    with pytest.raises(PosetError, match="antisymmetric"):
        Poset.from_covers(("a", "b"), [(0, 1), (1, 0)])


def test_rejects_cover_outside_the_carrier():
    with pytest.raises(PosetError, match=r"cover \(0, 2\) outside the carrier"):
        Poset.from_covers(("a", "b"), [(0, 1), (0, 2)])


def test_carrier_cap():
    n = CARRIER_CAP + 1
    names = tuple(f"e{i}" for i in range(n))
    with pytest.raises(PosetError, match="cap"):
        Poset(names, tuple((1 << n) - 1 for _ in range(n)))


def test_core_ops_at_the_cap():
    n = CARRIER_CAP
    names = tuple(f"e{i}" for i in range(n))
    chain = Poset.from_covers(names, [(i, i + 1) for i in range(n - 1)])
    assert chain.bottom == 0 and chain.top == n - 1
    assert chain.join(3, 60) == 60
    assert chain.meet(3, 60) == 3
    assert chain.lower_bounds(chain.mask([names[-1]])) == chain.full
    assert indices_of(chain.maximal(chain.full)) == (n - 1,)


def test_op_poset_validation(ex1):
    with pytest.raises(PosetError, match="total"):
        OpPoset(ex1.poset, (0, 1))
    with pytest.raises(PosetError, match="carrier"):
        OpPoset(ex1.poset, (0, 1, 2, 3, 4, 5, 9))
    with pytest.raises(PosetError, match="partial"):
        OpPoset.from_named_map(ex1.poset, {"0": "1"})


# -- bound operators on the seven-element fixture ---------------------------
# expected subsets computed by brute force over the fixture's order relation


def test_lower_upper_bounds(ex1):
    p = ex1.poset
    assert p.names_of(p.lower_bounds(p.mask(["c", "d"]))) == ("0", "a", "b")
    assert p.lower_bounds(p.mask(["1"])) == p.full
    assert p.names_of(p.lower_bounds(p.mask(["a", "e"]))) == ("0",)
    assert p.names_of(p.upper_bounds(p.mask(["a", "e"]))) == ("1",)
    assert p.upper_bounds(p.mask(["0"])) == p.full
    assert p.names_of(p.upper_bounds(p.mask(["a", "b"]))) == ("c", "d", "1")


def test_empty_set_conventions(ex1):
    p = ex1.poset
    assert p.lower_bounds(0) == p.full
    assert p.upper_bounds(0) == p.full
    assert p.maximal(0) == 0
    assert p.minimal(0) == 0
    assert p.leq1(0, 0) and p.leq1(0, p.full)
    assert p.leq2(p.full, 0) and p.leq2(0, 0)
    assert not p.leq1(p.full, 0)
    assert not p.leq2(0, p.full)


def test_maximal_minimal(ex1):
    p = ex1.poset
    assert p.names_of(p.maximal(p.mask(["0", "a", "b"]))) == ("a", "b")
    assert p.names_of(p.minimal(p.mask(["c", "d", "1"]))) == ("c", "d")
    assert p.maximal(p.full) == 1 << p.top
    assert p.minimal(p.full) == 1 << p.bottom
    x = p.index("d")
    assert p.maximal(1 << x) == 1 << x
    assert p.minimal(1 << x) == 1 << x


def test_set_comparisons(ex1):
    p = ex1.poset
    assert p.leq1(p.mask(["1"]), p.mask(["1"]))
    assert not p.leq1(p.mask(["a", "e"]), p.mask(["c"]))
    assert not p.leq2(p.mask(["c"]), p.mask(["a"]))
    assert p.leq2(p.mask(["0", "a"]), p.mask(["c", "d"]))


def test_join_meet(ex1):
    p = ex1.poset
    assert p.join(p.index("a"), p.index("b")) is None
    assert p.join(p.index("a"), p.index("e")) == p.index("1")
    assert p.meet(p.index("c"), p.index("d")) is None
    assert p.meet(p.index("c"), p.index("e")) == p.index("0")
    for x in range(p.n):
        assert p.join(x, p.top) == p.top
        assert p.meet(x, p.bottom) == p.bottom


def test_join_meet_tables_built_on_first_use(ex1):
    p = Poset(ex1.poset.names, ex1.poset.up)
    assert p._joins is None and p._meets is None
    assert p.join(p.index("a"), p.index("e")) == p.index("1")
    assert p._joins is p.join_table and p._meets is None
    assert p.meet(p.index("c"), p.index("e")) == p.index("0")
    assert p._meets is p.meet_table


def test_min_upper_max_lower_built_on_first_use(ex1):
    p = Poset(ex1.poset.names, ex1.poset.up)
    assert p._min_upper is None and p._max_lower is None
    assert p.names_of(p.min_upper[p.index("a")][p.index("b")]) == ("c", "d")
    assert p._min_upper is p.min_upper and p._max_lower is None
    assert p.names_of(p.max_lower[p.index("c")][p.index("d")]) == ("a", "b")
    assert p._max_lower is p.max_lower
    assert p._joins is None and p._meets is None


def test_min_upper_max_lower_match_minimal_maximal(fixture_ops, butterfly, pentagon):
    for op in [*fixture_ops.values(), butterfly, pentagon]:
        p = op.poset
        for x in range(p.n):
            for y in range(p.n):
                mins = p.minimal(p.up[x] & p.up[y])
                maxs = p.maximal(p.down[x] & p.down[y])
                assert p.min_upper[x][y] == mins
                assert p.max_lower[x][y] == maxs
                # the join (meet) is the one minimal upper (maximal lower) bound
                assert p.join(x, y) == (mins.bit_length() - 1 if mins & (mins - 1) == 0 else None)
                assert p.meet(x, y) == (maxs.bit_length() - 1 if maxs & (maxs - 1) == 0 else None)


def test_covers_built_once_and_match_naive_reduction(fixture_ops, butterfly, pentagon):
    for op in [*fixture_ops.values(), butterfly, pentagon]:
        p = Poset(op.poset.names, op.poset.up)
        assert p._covers is None
        covers = p.covers()
        assert type(covers) is tuple and p.covers() is covers
        assert set(covers) == naive.covers(naive.relation_pairs(p.up), p.n)
        assert len(covers) == len(set(covers))


def test_interval(ex1):
    # the interval [a, b] is the mask up[a] & down[b]
    p = ex1.poset
    zero, c = p.index("0"), p.index("c")
    assert p.names_of(p.up[zero] & p.down[c]) == ("0", "a", "b", "c")
    x = p.index("d")
    assert p.up[x] & p.down[x] == 1 << x
    assert p.up[p.bottom] & p.down[p.top] == p.full
    assert p.up[c] & p.down[p.index("a")] == 0


def test_covers_and_relabel(ex1):
    p = ex1.poset
    assert len(p.covers()) == 10
    q = relabeled(p, tuple(reversed(range(p.n))))
    assert q.names[0] == p.names[-1]
    assert len(q.covers()) == 10
    assert q.le(q.index("a"), q.index("c"))


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert indices_of(0b1010) == (1, 3)
    assert list(iter_mask(0)) == []


# -- law checks on random bounded posets ------------------------------------


@given(bounded_posets(), st.data())
@settings(max_examples=120, deadline=None)
def test_bound_operator_laws(p, data):
    a = data.draw(st.integers(min_value=0, max_value=p.full), label="a")
    b = data.draw(st.integers(min_value=0, max_value=p.full), label="b")
    # pointwise intersection law
    lower = p.full
    upper = p.full
    for i in iter_mask(a):
        lower &= p.lower_bounds(1 << i)
        upper &= p.upper_bounds(1 << i)
    assert p.lower_bounds(a) == lower
    assert p.upper_bounds(a) == upper
    # galois: L U L = L, dually
    la = p.lower_bounds(a)
    assert p.lower_bounds(p.upper_bounds(la)) == la
    ua = p.upper_bounds(a)
    assert p.upper_bounds(p.lower_bounds(ua)) == ua
    # maximal/minimal are antichains inside the subset
    for pick in (p.maximal(a), p.minimal(a)):
        assert pick & ~a == 0
        for i in iter_mask(pick):
            assert not (p.up[i] & pick & ~(1 << i))
            assert not (p.down[i] & pick & ~(1 << i))
    # set comparison implications: all of a below all of b
    if a and b and all(b & ~p.up[i] == 0 for i in iter_mask(a)):
        assert p.leq1(a, b) and p.leq2(a, b)
    # singleton comparisons coincide with the order
    for x in iter_mask(a):
        for y in iter_mask(b):
            assert p.leq1(1 << x, 1 << y) == p.le(x, y)
            assert p.leq2(1 << x, 1 << y) == p.le(x, y)


@given(bounded_posets(), st.data())
@settings(max_examples=120, deadline=None)
def test_up_closure_comparison_is_leq2(p, data):
    a = data.draw(st.integers(min_value=0, max_value=p.full), label="a")
    b = data.draw(st.integers(min_value=0, max_value=p.full), label="b")
    closure = p.up_closure(a)
    assert (not b & ~closure) == p.leq2(a, b)
    # the closure is exactly the elements with a lower bound in a
    assert p.leq2(a, closure)
    for x in range(p.n):
        assert bool((closure >> x) & 1) == p.leq2(a, 1 << x)


@given(bounded_posets())
@settings(max_examples=120, deadline=None)
def test_join_meet_against_bounds(p):
    for x in range(p.n):
        for y in range(p.n):
            j = p.join(x, y)
            ub = p.upper_bounds((1 << x) | (1 << y))
            if j is not None:
                assert (ub >> j) & 1
                assert all(p.le(j, z) for z in iter_mask(ub))
            else:
                mins = p.minimal(ub)
                assert bin(mins).count("1") != 1
            mt = p.meet(x, y)
            lb = p.lower_bounds((1 << x) | (1 << y))
            if mt is not None:
                assert all(p.le(z, mt) for z in iter_mask(lb))


@given(bounded_posets())
@settings(max_examples=80, deadline=None)
def test_covers_match_naive_reduction(p):
    rel = naive.relation_pairs(p.up)
    assert set(p.covers()) == naive.covers(rel, p.n)


def test_two_chain_helper():
    op = two_chain()
    assert op.poset.le(0, 1)
    assert op.prime == (1, 0)
