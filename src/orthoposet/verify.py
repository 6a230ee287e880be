"""Bundled verification suite.

Twelve checks: the golden operation tables and property profiles of the
bundled fixtures, then exhaustive sweeps over every small bounded carrier
cross-checking the adjointness characterizations, the derived consequences,
the projection laws, the totality criterion, the naive oracles and the
enumeration counts. Exposed through the `verify-paper` CLI subcommand and
mirrored one-to-one by tests/test_acceptance.py.

Criteria 6-10 read ``(poset, prime, flag bits)`` tuples from two memoized
runs of ``enumeration.sweep`` over ``_bounded_pool``, which enumerates each
n <= 5 once per process: the orthogonal complementations on n <= 5
(``sweep_instances``) and every unary map on n <= 4 (``all_map_instances``).
Criteria 8 and 9 run their core checker once per distinct frame instance
(``Poset.frame_instance``, the kernel's relabeling), as both verdicts are
isomorphism invariants; a failure is rerun on the first labeled copy that
reached it, so its detail names that copy. Criteria 6 and 10 replay labeled
copies, which cross-checks the kernel's relabeling against the core.
"""
from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import kernels, naive
from .adjoint import (
    EQUIVALENCE_GROUPS,
    check_adjointness_consequences,
    check_modular_corollary,
    direction_sides,
    find_o6_subalgebra,
    is_adjoint_pair,
)
from .enumeration import all_maps, complementations, enumerate_posets, enumerate_relations, sweep
from .poset_core import OpPoset, Poset, UndefinedOperationError, indices_of
from .properties import is_orthogonal, is_orthomodular, op_reports
from .sasaki import arrow, check_projection_laws, is_sasaki_total, odot, op_tables

POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}

Progress = Optional[Callable[[str], None]]
Instance = tuple[Poset, tuple[int, ...], int]  # (poset, prime, flag bits)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _fixture_op(name: str) -> OpPoset:
    from .io_cli import document_to_op, load_fixture

    return document_to_op(load_fixture(name))


@functools.cache
def _bounded_pool() -> dict[int, list[Poset]]:
    return {n: list(enumerate_posets(n)) for n in range(1, 6)}


_SWEEP: list[Instance] = []  # sweep_instances fills it once per process


def sweep_instances(progress: Progress = None) -> list[Instance]:
    """Every bounded poset on <= 5 elements crossed with every
    complementation that makes it orthogonal, with kernel flag bits. Built
    once per process, whatever the argument; ``progress`` hears one line per
    n on that build only."""
    if _SWEEP:
        return _SWEEP
    pool = _bounded_pool()
    out = []
    for n in range(1, 6):
        kept = 0
        for _, p, prime, bits in sweep(pool[n], complementations):
            if bits & kernels.FLAGS["orthogonal"]:
                out.append((p, prime, bits))
                kept += 1
        if progress:
            progress(f"n={n}: {len(pool[n])} bounded posets, {kept} orthogonal complemented instances")
    _SWEEP.extend(out)
    return _SWEEP


@functools.cache
def all_map_instances() -> list[Instance]:
    """Every bounded poset on <= 4 elements crossed with every unary map."""
    pool = _bounded_pool()
    return [(p, prime, bits) for n in range(1, 5) for _, p, prime, bits in sweep(pool[n], all_maps)]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _criterion_1(progress: Progress) -> tuple[bool, str]:
    from .io_cli import fixture_text, render_table

    checked = 0
    for table in op_tables(_fixture_op("ex1.poset")):
        golden_name = f"ex1_{table.kind}.golden"
        got = render_table(table, "text").splitlines()
        want = fixture_text(golden_name).splitlines()
        if got != want:
            k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
            return False, f"{golden_name}: rendered table differs at line {k + 1}"
        cells = [mask for row in table.cells for mask in row]
        if any(bin(mask).count("1") != 1 for mask in cells):
            return False, f"non-singleton cell in {table.kind}"
        checked += len(cells)
    return checked == 98, f"{checked} cells match, all singletons"


def _criterion_2(progress: Progress) -> tuple[bool, str]:
    op = _fixture_op("ex1.poset")
    p = op.poset
    reports = op_reports(op)
    checks = [
        ("saturated", reports["saturated"].holds, True),
        ("orthogonal", reports["orthogonal"].holds, True),
        ("complemented", reports["complemented"].holds, True),
        ("involution", reports["involution"].holds, False),
        ("lattice", reports["lattice"].holds, False),
    ]
    for name, got, want in checks:
        if got != want:
            return False, f"{name}: expected {want}, got {got}"
    inv = reports["involution"]
    a = p.index("a")
    if inv.witness.elements != (a,) or op.prime[op.prime[a]] != p.index("c"):
        return False, "involution witness is not a'' = c"
    rep = is_adjoint_pair(op)
    if rep.adjoint:
        return False, "expected no adjoint pair"
    triple = (p.index("1"), p.index("c"), p.index("a"))
    if direction_sides(op, triple) != (False, True):
        return False, "(1, c, a) does not replay as an a2 violation"
    return True, "profile and (1, c, a) witness confirmed"


def _criterion_3(progress: Progress) -> tuple[bool, str]:
    op = _fixture_op("m3.poset")
    rep = is_adjoint_pair(op)
    reports = op_reports(op)
    checks = [
        ("orthogonal", reports["orthogonal"].holds, True),
        ("saturated", reports["saturated"].holds, True),
        ("complemented", reports["complemented"].holds, True),
        ("involution", reports["involution"].holds, False),
        ("condition iii", rep.conditions["iii"], True),
        ("condition vi", rep.conditions["vi"], True),
        ("adjoint", rep.adjoint, True),
        ("modular", reports["modular"].holds, True),
        ("modular corollary", check_modular_corollary(op).holds, True),
    ]
    for name, got, want in checks:
        if got != want:
            return False, f"{name}: expected {want}, got {got}"
    return True, "profile confirmed"


def _criterion_4(progress: Progress) -> tuple[bool, str]:
    op = _fixture_op("fig3.poset")
    p = op.poset
    if not is_orthomodular(op).holds:
        return False, "expected an orthomodular carrier"
    if not is_adjoint_pair(op).adjoint:
        return False, "expected an adjoint pair"
    six = [p.index(s) for s in ("0", "c", "d", "a'", "f'", "1")]
    zero, c, d, ap, fp, one = six
    if not (p.lt(c, ap) and p.lt(d, fp)):
        return False, "six-set chains are not c < a', d < f'"
    for s, t in ((c, d), (c, fp), (d, ap), (ap, fp)):
        if p.le(s, t) or p.le(t, s):
            return False, "six-set cross pairs are not incomparable"
    sset = set(six)
    for s, t in itertools.combinations(six, 2):
        if p.join(s, t) not in sset or p.meet(s, t) not in sset:
            return False, "six-set is not closed under join/meet"
    if all(op.prime[s] in sset for s in six):
        return False, "six-set unexpectedly closed under '"
    if find_o6_subalgebra(op) is not None:
        return False, "unexpected O6 subalgebra"
    return True, "benzene sublattice not '-closed; no O6 subalgebra"


def _criterion_5(progress: Progress) -> tuple[bool, str]:
    op = _fixture_op("benzene.poset")
    p = op.poset
    found = find_o6_subalgebra(op)
    if found is None or set(found) != set(range(p.n)):
        return False, f"expected the whole carrier as O6, got {found}"
    rep = is_adjoint_pair(op)
    if rep.adjoint:
        return False, "expected no adjoint pair"
    if rep.a1_witness is not None and direction_sides(op, rep.a1_witness) != (True, False):
        return False, "a1 witness does not replay"
    if rep.a2_witness is not None and direction_sides(op, rep.a2_witness) != (False, True):
        return False, "a2 witness does not replay"
    if rep.a1_witness is None and rep.a2_witness is None:
        return False, "no witness returned"
    if is_orthomodular(op).holds:
        return False, "expected orthomodularity to fail"
    wit = rep.a2_witness or rep.a1_witness
    names = ", ".join(p.names[i] for i in wit)
    return True, f"O6 found; adjointness fails with witness ({names}); not orthomodular"


def _criterion_6(progress: Progress) -> tuple[bool, str]:
    instances = sweep_instances(progress)
    flag = kernels.FLAGS
    for p, prime, bits in instances:
        if any(len({bool(bits & flag[name]) for name in group}) != 1 for group in EQUIVALENCE_GROUPS):
            return False, f"equivalence broken on n={p.n} prime={prime}"
    # replay a deterministic subsample against the slow, witness-producing path
    replayed = 0
    for p, prime, bits in instances[::53]:
        rep = is_adjoint_pair(OpPoset(p, prime))
        if any(bool(bits & flag[name]) != holds for name, holds in rep.flags.items()):
            return False, f"kernel/core disagreement on n={p.n} prime={prime}"
        replayed += 1
    return True, f"{len(instances)} instances, equivalences hold; {replayed} replayed on the slow path"


def _criterion_7(progress: Progress) -> tuple[bool, str]:
    instances = sweep_instances(progress)
    omod = 0
    for p, prime, bits in instances:
        if bits & kernels.FLAGS["orthomodular"]:
            omod += 1
            if not (bits & kernels.FLAGS["a1"] and bits & kernels.FLAGS["a2"]):
                return False, f"orthomodular but not adjoint: n={p.n} prime={prime}"
    for name in ("fig3.poset", "cube8.poset"):
        op = _fixture_op(name)
        if not is_orthomodular(op).holds:
            return False, f"{name}: expected orthomodular"
        if not is_adjoint_pair(op).adjoint:
            return False, f"{name}: orthomodular but not adjoint"
    return True, f"{omod} orthomodular sweep instances plus fixtures, all adjoint"


def _once_per_frame_instance(instances, checker, what: str, passed: str) -> tuple[bool, str]:
    """Run ``checker`` once per distinct frame instance of the labeled
    ``(poset, prime, bits)`` instances. A failure is rerun on the first
    labeled copy that reached it, so the detail names that copy's witness."""
    seen = set()
    for p, prime, _ in instances:
        if (key := p.frame_instance(prime)) not in seen:
            seen.add(key)
            if not checker(OpPoset(*key)).holds:
                rep = checker(OpPoset(p, prime))
                return False, f"{what} fails on n={p.n} prime={prime}: {rep.describe(p)}"
    return True, passed


def _criterion_8(progress: Progress) -> tuple[bool, str]:
    complemented = sweep_instances(progress)
    arbitrary = [inst for inst in all_map_instances() if inst[2] & kernels.FLAGS["orthogonal"]]
    directions = kernels.FLAGS["a1"] | kernels.FLAGS["a2"]
    # a map with neither direction has no consequence to check
    checked = [inst for inst in complemented + arbitrary if inst[2] & directions]
    passed = f"{len(complemented)} complemented + {len(arbitrary)} arbitrary-map orthogonal instances"
    return _once_per_frame_instance(checked, check_adjointness_consequences, "consequence", passed)


def _criterion_9(progress: Progress) -> tuple[bool, str]:
    instances = sweep_instances(progress)
    omod = sum(1 for _, _, bits in instances if bits & kernels.FLAGS["orthomodular"])
    passed = f"{len(instances)} orthogonal instances ({omod} orthomodular) pass"
    return _once_per_frame_instance(instances, check_projection_laws, "projection law", passed)


def _criterion_10(progress: Progress) -> tuple[bool, str]:
    instances = all_map_instances()
    for p, prime, bits in instances:
        if bool(bits & kernels.FLAGS["total"]) != bool(bits & kernels.FLAGS["orthogonal"]):
            return False, f"totality/orthogonality split on n={p.n} prime={prime}"
    replayed = 0
    for p, prime, _ in instances[::97]:
        op = OpPoset(p, prime)
        if is_sasaki_total(op) != is_orthogonal(op).holds:
            return False, f"slow-path split on n={p.n} prime={prime}"
        replayed += 1
    return True, f"{len(instances)} instances agree; {replayed} replayed on the slow path"


_PROBE_OPS = ("lower", "upper", "maximal", "minimal", "odot", "arrow")


def _criterion_11(progress: Progress) -> tuple[bool, str]:
    rng = random.Random(1729)
    pool = _bounded_pool()
    relation_pairs = functools.cache(naive.relation_pairs)  # one conversion per pool poset
    mismatches = 0
    for probe in range(10_000):
        n = rng.randint(1, 5)
        p = rng.choice(pool[n])
        rel = relation_pairs(p.up)
        kind = _PROBE_OPS[probe % len(_PROBE_OPS)]
        if kind in ("lower", "upper", "maximal", "minimal"):
            mask = rng.randrange(p.full + 1)
            subset = indices_of(mask)
            if kind == "lower":
                got = indices_of(p.lower_bounds(mask))
                want = naive.lower(rel, n, subset)
            elif kind == "upper":
                got = indices_of(p.upper_bounds(mask))
                want = naive.upper(rel, n, subset)
            elif kind == "maximal":
                got = indices_of(p.maximal(mask))
                want = tuple(sorted(naive.maximal(rel, subset)))
            else:
                got = indices_of(p.minimal(mask))
                want = tuple(sorted(naive.minimal(rel, subset)))
        else:
            prime = tuple(rng.randrange(n) for _ in range(n))
            op = OpPoset(p, prime)
            x = rng.randrange(n)
            y = rng.randrange(n)
            fast = odot if kind == "odot" else arrow
            slow = naive.odot if kind == "odot" else naive.arrow
            try:
                got = ("set", indices_of(fast(op, x, y)))
            except UndefinedOperationError:
                got = "undefined"
            want = slow(rel, n, prime, x, y)
            want = want if want[0] == "set" else "undefined"
        if got != want:
            mismatches += 1
            if progress:
                progress(f"probe {probe} ({kind}) mismatch: {got} vs {want}")
    return mismatches == 0, f"10000 probes, {mismatches} mismatches"


def _criterion_12(progress: Progress) -> tuple[bool, str]:
    got = []
    for n in range(1, 6):
        produced = sum(1 for _ in enumerate_relations(n))
        oracle = naive.count_posets_orientations(n)
        if n <= 4 and naive.count_posets_subsets(n) != oracle:
            return False, f"n={n}: subset-filter oracle disagrees"
        if produced != oracle or produced != POSET_COUNTS[n]:
            return False, f"n={n}: produced {produced}, oracle {oracle}, expected {POSET_COUNTS[n]}"
        got.append(produced)
        if progress:
            progress(f"n={n}: {produced} labeled posets")
    return True, "counts " + ", ".join(str(c) for c in got)


CRITERIA = (
    (1, "golden operation tables", 1.0, _criterion_1),
    (2, "seven-element fixture profile", 1.0, _criterion_2),
    (3, "diamond fixture profile", 1.0, _criterion_3),
    (4, "orthomodular lattice fixture and its benzene sublattice", 5.0, _criterion_4),
    (5, "benzene fixture O6 and adjointness failure", 1.0, _criterion_5),
    (6, "adjunction condition equivalences over the n<=5 sweep", None, _criterion_6),
    (7, "orthomodular implies adjoint over the sweep", None, _criterion_7),
    (8, "adjointness consequences over the sweep", None, _criterion_8),
    (9, "projection laws over the sweep", None, _criterion_9),
    (10, "totality equals orthogonality for arbitrary maps", None, _criterion_10),
    (11, "naive oracle equivalence probes", None, _criterion_11),
    (12, "labeled poset counts", None, _criterion_12),
)


def run_criterion(number: int, progress: Progress = None) -> CriterionResult:
    for num, name, limit, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, detail = fn(progress)
            except Exception as exc:  # surfaced as a failed criterion, not a crash
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if passed and limit is not None and elapsed > limit:
                passed = False
                detail += f"; runtime {elapsed:.2f}s exceeds {limit:.0f}s"
            return CriterionResult(num, name, passed, detail, elapsed)
    raise ValueError(f"no criterion {number}")


def run_all(numbers=None, progress: Progress = None) -> list[CriterionResult]:
    wanted = numbers or [num for num, _, _, _ in CRITERIA]
    return [run_criterion(num, progress) for num in wanted]
