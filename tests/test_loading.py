"""What a CLI job loads.  The package imports none of its modules, and each
command imports only the engine modules it runs, so a ``homology`` job does
not pay for ``circle``, ``flavors`` or ``connsum``.  No job loads
``dataclasses`` or the source-introspection modules it pulls in: the
records are NamedTuples and slotted classes.  Each check runs in a fresh
interpreter, where ``sys.modules`` shows exactly what was loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "corpus/v1"

BASE = {"artifact", "artifact.cli", "artifact.chain", "artifact.exactlin"}
CIRCLE = BASE | {"artifact.circle"}
FLAVORS = CIRCLE | {"artifact.flavors"}
CONNSUM = CIRCLE | {"artifact.connsum"}

JOBS = [
    (["verify", f"{CORPUS}/point.txt"], BASE),
    (["homology", f"{CORPUS}/twotorsion.txt"], BASE),
    (["homology", f"{CORPUS}/point.txt", "--window", "0..1"], BASE),
    (["su", f"{CORPUS}/utower.txt"], CIRCLE),
    (["ey", f"{CORPUS}/point.txt", "--flavor", "inf"], CIRCLE),
    (["koszul", "--direction", "a", "--flavor", "minus", "--seed", "7"],
     CIRCLE),
    (["koszul", "--direction", "b", "--seed", "3"], CIRCLE),
    (["flavors", f"{CORPUS}/utower.txt"], FLAVORS),
    (["ladder", f"{CORPUS}/golden_one.txt"], FLAVORS),
    (["tower", "--n", "2"], FLAVORS),
    (["verify", f"{CORPUS}/golden_one.txt"], FLAVORS),       # components
    (["verify", f"{CORPUS}/filtered_knot.txt"], CONNSUM),    # filtered
    (["cmflavors", f"{CORPUS}/filtered_knot.txt"], CONNSUM),
    (["consum-case1", f"{CORPUS}/point.txt", "--n", "4"], CONNSUM),
    (["consum-case2", f"{CORPUS}/point.txt", "--flavor", "hat"], CONNSUM),
    (["consum-verify", f"{CORPUS}/summaps_acyclic.txt"], CONNSUM),
]

# modules no job should load; dataclasses imports the other four
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# runs one CLI job, then prints the loaded artifact modules and the loaded
# unwanted ones as the last two lines of stderr
RUN_JOB = f"""
import sys
from artifact.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "artifact"),
      file=sys.stderr)
print(*[m for m in {UNWANTED!r} if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""

PACKAGE = """
import sys
import artifact
assert [m for m in sys.modules if m.startswith("artifact.")] == []
names = artifact.__all__
assert len(names) == len(set(names))
assert set(names) <= set(dir(artifact))
star = {}
exec("from artifact import *", star)
assert all(star[n] is getattr(artifact, n) for n in names)
from artifact import Window, circle
assert Window is circle.Window
assert artifact.flavors.assemble is artifact.assemble
assert not hasattr(artifact, "no_such_name")
"""


def child(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv,expected", JOBS,
                         ids=[" ".join(argv) for argv, _ in JOBS])
def test_a_job_loads_only_its_modules(argv, expected):
    proc = child(RUN_JOB, *argv, "--format", "machine")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, loaded, unwanted = proc.stderr.splitlines()
    assert set(loaded.split()) == expected
    assert unwanted == ""


def test_public_names_resolve_in_a_fresh_interpreter():
    proc = child(PACKAGE)
    assert proc.returncode == 0, proc.stderr
