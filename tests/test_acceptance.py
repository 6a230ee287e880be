"""Acceptance gate: runs each verification criterion at its stated
tolerance (exact comparisons throughout; the fixture criteria also carry
wall-clock limits) and prints one pass/fail line per criterion. Also checks
that a failing checker's witness reaches its criterion's detail, and that one
process builds the n <= 5 sweep once and enumerates each carrier once."""
import subprocess
import sys

import pytest

from orthoposet import verify
from orthoposet.properties import fail


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
