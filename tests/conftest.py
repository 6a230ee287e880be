import functools
import random

import pytest
from hypothesis import strategies as st

from orthoposet import properties
from orthoposet.enumeration import enumerate_posets
from orthoposet.io_cli import document_to_op, load_fixture
from orthoposet.poset_core import OpPoset, Poset
from orthoposet.properties import is_lattice

FIXTURE_NAMES = ("ex1", "m3", "fig3", "benzene", "cube8")


@pytest.fixture(autouse=True)
def _fresh_poset_memo():
    """Empty the slow path's one-entry per-poset memo before each test. Its
    lines and reports are keyed by the poset and (element, image), not by
    the deciders that built them, so what a test builds through a
    substituted decider must not reach the next test on an equal poset."""
    properties.poset_memo.cache_clear()


@pytest.fixture(scope="session")
def fixture_ops():
    return {
        name: document_to_op(load_fixture(name + ".poset")) for name in FIXTURE_NAMES
    }


@pytest.fixture(scope="session")
def ex1(fixture_ops):
    return fixture_ops["ex1"]


@pytest.fixture(scope="session")
def m3(fixture_ops):
    return fixture_ops["m3"]


@pytest.fixture(scope="session")
def fig3(fixture_ops):
    return fixture_ops["fig3"]


@pytest.fixture(scope="session")
def benzene(fixture_ops):
    return fixture_ops["benzene"]


@pytest.fixture(scope="session")
def cube8(fixture_ops):
    return fixture_ops["cube8"]


@st.composite
def bounded_posets(draw):
    m = draw(st.integers(min_value=0, max_value=4))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    bottom, top = m, m + 1
    covers = [(bottom, i) for i in range(m)] + [(i, top) for i in range(m)]
    covers += list(chosen)
    if m == 0:
        covers.append((bottom, top))
    names = tuple(f"e{i}" for i in range(m + 2))
    return Poset.from_covers(names, covers)


def relabeled(p: Poset, perm) -> Poset:
    """Copy of p with element i renamed to position perm[i], built from its covers."""
    names = [""] * p.n
    for i, k in enumerate(perm):
        names[k] = p.names[i]
    return Poset.from_covers(names, [(perm[i], perm[j]) for i, j in p.covers()])


@functools.cache
def non_lattice_maps() -> tuple[OpPoset, ...]:
    """Four seeded maps on each of the 180 non-lattice bounded posets with
    n = 6, the second and fourth swapping the bounds: 41 of the 720 are
    total and 679 partial. Every bounded poset with n <= 5 is a lattice, so
    these are the first carriers with partial operations."""
    rng = random.Random(6)
    ops = []
    for p in enumerate_posets(6):
        if is_lattice(p).holds:
            continue
        for k in range(4):
            prime = [rng.randrange(6) for _ in range(6)]
            if k % 2:
                prime[p.bottom], prime[p.top] = p.top, p.bottom
            ops.append(OpPoset(p, prime))
    return tuple(ops)


def two_chain(prime=(1, 0)) -> OpPoset:
    return OpPoset(Poset(("0", "1"), (0b11, 0b10)), prime)


@pytest.fixture(scope="session")
def butterfly():
    """Six elements 0 < a,b < c,d < 1 with c' = b: not orthogonal."""
    p = Poset.from_covers(
        ("0", "a", "b", "c", "d", "1"),
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
    )
    prime = list(range(6))
    prime[p.index("c")] = p.index("b")
    return OpPoset(p, prime)


@pytest.fixture(scope="session")
def pentagon():
    """0 < a < b < 1 and 0 < c < 1 with a'=c, b'=c, c'=a: complemented
    orthogonal lattice that is not modular and not an adjoint pair."""
    p = Poset.from_covers(
        ("0", "a", "b", "c", "1"), [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    )
    prime = [p.index(s) for s in ("1", "c", "c", "a", "0")]
    return OpPoset(p, prime)
