"""The traced benchmark binds names of the library at its layer boundaries
(``perfbench/tracing.py``). A refactor that moves or renames one of them
breaks the traced runs, so this runs the tracer on small versions of two
workloads. Both files import numpy only inside ``workloads.reference()``
and ``workloads.environment()``, neither of which runs here."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import dataclasses
import json
import tracing
import workloads

tracer = tracing.Tracer()
tracing.install(tracer)
checks = workloads.sweep_checks(5, workloads.sweep(5))
result = workloads.search(dataclasses.replace(workloads.search_goal(0), max_n=5))
checks += [
    workloads.check("search5.hits", len(result["hits"]), 160),
    workloads.check("search5.replay_mismatches", result["replay_mismatches"], 0),
    workloads.check("trace.replays", tracer.calls["adjoint.replay"], 160),
    workloads.check("trace.open_spans", len(tracer.stack), 0),
]
print(json.dumps(checks))
"""


def test_tracer_binds_every_layer_of_the_library():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n{TRACED_RUN}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    checks = json.loads(out.stdout)
    assert len(checks) == 8
    assert [check for check in checks if not check[1]] == []
