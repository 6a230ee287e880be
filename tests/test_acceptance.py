"""Acceptance gate: runs each verification criterion at its stated
tolerance (exact comparisons throughout; the fixture criteria also carry
wall-clock limits) and prints one pass/fail line per criterion. Also checks
that a failing checker's witness reaches its criterion's detail, and that one
process builds the n <= 5 sweep once and enumerates each carrier once.
Criteria 8 and 9 check each frame instance once: the checkers must agree on
a copy and its frame instance, and a failure must name the first labeled
copy that reaches the failing frame instance."""
import subprocess
import sys

import pytest

from orthoposet import kernels, naive, verify
from orthoposet.adjoint import check_adjointness_consequences
from orthoposet.poset_core import OpPoset
from orthoposet.properties import PropertyReport, fail
from orthoposet.sasaki import check_projection_laws


@pytest.mark.parametrize("number,name", [(num, name) for num, name, _, _ in verify.CRITERIA])
def test_criterion(number, name, capsys):
    result = verify.run_criterion(number)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {number:2d} [{status}] {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"


@pytest.mark.parametrize("number, checker, prop, condition, detail", [
    (8, "check_adjointness_consequences", "adjointness_consequences", "a1_join_not_top", ""),
    (9, "check_projection_laws", "projection_laws", "image_escapes_segment", "subset ('p0',)"),
])
def test_failed_checker_witness_in_criterion_detail(number, checker, prop, condition, detail, monkeypatch):
    returned = []

    def broken(op, *args):
        returned.append((op, fail(prop, (op.poset.top,), condition, detail)))
        return returned[-1][1]

    monkeypatch.setattr(verify, checker, broken)
    result = verify.run_criterion(number)
    assert not result.passed
    op, rep = returned[-1]
    p = op.poset
    assert result.detail.endswith(f"fails on n={p.n} prime={op.prime}: {rep.describe(p)}")
    assert f"[witness ({p.names[p.top]}): {condition}" in result.detail


BUILDS = """
from orthoposet import verify

builds = []
real = verify.sweep
verify.sweep = lambda posets, maps: builds.append(len(posets)) or real(posets, maps)
lines = []
verify.sweep_instances(lines.append)
verify.sweep_instances()
verify.sweep_instances(None)
verify.sweep_instances(lines.append)
assert verify.run_criterion(6).passed
print(builds, len(lines))
"""


def test_sweep_instances_built_once_per_process():
    # a fresh interpreter, so no earlier test has built the sweep
    out = subprocess.run([sys.executable, "-c", BUILDS], capture_output=True, text=True, check=True).stdout
    assert out == "[1, 2, 6, 36, 380] 5\n"


ENUMERATIONS = """
from orthoposet import enumeration, verify

calls = []
real = enumeration.enumerate_posets
enumeration.enumerate_posets = verify.enumerate_posets = lambda n: calls.append(n) or real(n)
assert all(r.passed for r in verify.run_all())
print(calls)
"""


def test_verify_enumerates_each_carrier_once_per_process():
    # the sweeps and criterion 11 all read the one pool of bounded posets;
    # both modules' names are counted, so no sweep enumerates on its own
    out = subprocess.run([sys.executable, "-c", ENUMERATIONS], capture_output=True, text=True, check=True).stdout
    assert out == "[1, 2, 3, 4, 5]\n"


def test_criterion_11_converts_each_pool_poset_once(monkeypatch):
    # 10,000 probes draw from the pool's bounded posets with n <= 5; each
    # drawn poset's up rows go to the naive oracle's pair set once per run
    converted = []
    real = naive.relation_pairs
    monkeypatch.setattr(naive, "relation_pairs", lambda up: converted.append(up) or real(up))
    result = verify.run_criterion(11)
    assert (result.passed, result.detail) == (True, "10000 probes, 0 mismatches")
    assert len(converted) == len(set(converted))
    assert len(converted) <= sum(len(posets) for posets in verify._bounded_pool().values())


def _criterion_corpus(number):
    """The labeled (poset, prime) instances criterion 8 or 9 checks, in sweep order."""
    if number == 9:
        return [(p, prime) for p, prime, _ in verify.sweep_instances()]
    arbitrary = [inst for inst in verify.all_map_instances() if inst[2] & kernels.FLAGS["orthogonal"]]
    directions = kernels.FLAGS["a1"] | kernels.FLAGS["a2"]
    return [(p, prime) for p, prime, bits in verify.sweep_instances() + arbitrary if bits & directions]


def _on_frame(p, prime):
    """(frame, conjugated map), spelled apart from Poset.frame_instance."""
    if p.frame is None:
        return p, tuple(prime)
    inverse = sorted(range(p.n), key=p.to_frame.__getitem__)
    return p.frame, tuple(p.to_frame[prime[inverse[k]]] for k in range(p.n))


@pytest.mark.parametrize("checker, number, size", [
    (check_projection_laws, 9, 415),
    (check_adjointness_consequences, 8, 902),
])
def test_checkers_agree_on_each_copy_and_its_frame_instance(checker, number, size):
    # the invariance criteria 8 and 9 rely on when they check each frame
    # instance once for every labeled copy that reaches it
    corpus = _criterion_corpus(number)
    assert len(corpus) == size
    for p, prime in corpus:
        key = p.frame_instance(prime)
        assert key == _on_frame(p, prime)
        assert checker(OpPoset(p, prime)).holds == checker(OpPoset(*key)).holds, (p.up, prime)


CHECKER_CALLS = """
from collections import Counter
from orthoposet import verify

calls = Counter()
def counted(name):
    real = getattr(verify, name)
    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper
for name in ("check_adjointness_consequences", "check_projection_laws"):
    setattr(verify, name, counted(name))
for number in (8, 9):
    assert verify.run_criterion(number).passed
    print(calls["check_adjointness_consequences"], calls["check_projection_laws"])
"""


def test_criteria_8_and_9_check_each_frame_instance_once():
    # 902 and 415 labeled instances reach 71 and 23 distinct frame instances
    out = subprocess.run([sys.executable, "-c", CHECKER_CALLS], capture_output=True, text=True, check=True).stdout
    assert out == "71 0\n71 23\n"


@pytest.mark.parametrize("number, checker, prop", [
    (8, "check_adjointness_consequences", "adjointness_consequences"),
    (9, "check_projection_laws", "projection_laws"),
])
def test_failed_frame_instance_named_by_its_first_labeled_copy(number, checker, prop, monkeypatch):
    # the first labeled copy, in sweep order, of each frame instance; pick one
    # at n = 5 that differs from its frame instance in the map and the top's name
    first = {}
    for p, prime in _criterion_corpus(number):
        first.setdefault(_on_frame(p, prime), (p, prime))
    target, (p, prime) = next(
        ((frame, moved), (p, prime)) for (frame, moved), (p, prime) in first.items()
        if p.n == 5 and moved != prime and p.names[p.top] != frame.names[frame.top]
    )

    def broken(op, *args):
        if _on_frame(op.poset, op.prime) == target:
            return fail(prop, (op.poset.top,), "frame_instance_fails")
        return PropertyReport(prop, True)

    monkeypatch.setattr(verify, checker, broken)
    result = verify.run_criterion(number)
    assert not result.passed
    want = fail(prop, (p.top,), "frame_instance_fails").describe(p)
    assert result.detail.endswith(f"fails on n=5 prime={prime}: {want}")
    assert f"[witness ({p.names[p.top]}): frame_instance_fails]" in result.detail
