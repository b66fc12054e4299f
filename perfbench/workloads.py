"""The benchmark's three workloads: their case lists, how one case runs, and
the oracle that decides whether its answer is right.

A case returns a list of problems; an empty list is a correct verdict.
Cases call the program through module attributes (``chain.homology``) so
that the tracer's patches are seen.

Why these three:

* ``corpus_cli`` is what a user of the tool does: one fresh
  ``python -m artifact.cli`` process per job.  Fixed costs (interpreter
  start-up, import, parse, render) dominate, so work on large matrices
  should leave it flat, and no cache survives from one job to the next.
* ``flavors_z`` is the scale family over Z where the slow paths live:
  expanded flavor slices of hundreds of generators and large integer SNFs.
  Both flavor-expansion engines (``four_flavors`` and ``cm_flavors``) run
  on the same object.
* ``ladder_fp`` uses the same linear-algebra layer differently: tens of
  thousands of small matrices over F_2 and F_3 through the field path, and
  no large Z SNFs.  A gain on Z or on the flavors path that costs the field
  path or the ladder shows up here.
"""

import json
import os
import random
import subprocess
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = "corpus/v1"
REFERENCE = os.path.join(HERE, "corpus_reference.json")
RECORD_KINDS = ("homology", "check", "result", "pair")

# flavors_z: generator counts rise evenly from 6 to 16 over the case list,
# so case costs have no gaps and the p50 and tail ranks fall on no cliff.
# Many small cases rather than a few large ones: the median and the tail
# are order statistics, and the seed moves them less when there are more.
FLAVORS_Z_SIZES = (6, 16)
FLAVORS_Z_CASES = 70
# ladder_fp: (base generators, tower depth n, cases), cheapest first; the
# prime alternates 2, 3 within each shape.  The counts put the median and
# the tail rank (the 26th of 36) inside a shape, not between two.
LADDER_FP_SHAPES = ((1, 3, 8), (1, 4, 6), (1, 5, 8), (2, 3, 8), (2, 4, 6))


class Workload(NamedTuple):
    build: Callable[[int, bool], list]   # (seed, corrupt) -> cases
    run: Callable[[object], List[str]]   # case -> problems
    warm_up: Callable[[], None]
    in_process: bool                     # False: cases run in child processes
    probe: calibrate.Probe               # machine-speed probe for its cases


# ---------------------------------------------------------------------------
# corpus_cli
# ---------------------------------------------------------------------------

def corpus_jobs() -> List[List[str]]:
    """The 39 jobs of the determinism test (``TestDeterminism`` in
    tests/test_acceptance.py), as CLI arguments, in its order."""
    jobs: List[List[str]] = []
    for name in ("point.txt", "twotorsion.txt", "utower.txt"):
        jobs += [[cmd, f"{CORPUS}/{name}"]
                 for cmd in ("verify", "homology", "flavors", "su")]
    jobs += [[cmd, f"{CORPUS}/f2periodic.txt"] for cmd in ("verify", "homology")]
    for name in ("filtered_knot.txt", "filtered_diamond.txt"):
        jobs += [[cmd, f"{CORPUS}/{name}"] for cmd in ("verify", "cmflavors")]
    for name in ("tower_n3.txt", "golden_one.txt", "golden_two.txt",
                 "golden_three.txt", "coupled_acyclic.txt", "f2pair.txt",
                 "perturbed_bundle.txt"):
        jobs += [[cmd, f"{CORPUS}/{name}"] for cmd in ("verify", "ladder")]
    jobs += [
        ["consum-verify", f"{CORPUS}/summaps_acyclic.txt"],
        ["koszul", "--direction", "a", "--flavor", "minus", "--seed", "7"],
        ["koszul", "--direction", "b", "--seed", "3"],
        ["tower", "--n", "2"],
        ["tower", "--n", "5"],
        ["consum-case1", f"{CORPUS}/point.txt", "--n", "4"],
        ["consum-case2", f"{CORPUS}/point.txt", "--flavor", "hat"],
    ]
    return [job + ["--format", "machine"] for job in jobs]


def parse_records(text: str) -> List[Dict[str, str]]:
    """The ``kind=homology|check|result|pair`` records of a machine report."""
    out = []
    for line in text.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        if fields.get("kind") in RECORD_KINDS:
            out.append(fields)
    return out


def compare_job(ref: dict, code: int, records: List[Dict[str, str]]) -> List[str]:
    """Differences from the reference.  Only the fields the reference has are
    compared, so a report that gains fields still matches."""
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit {code} != {ref['exit']}")
    if len(records) != len(ref["records"]):
        problems.append(f"{len(records)} records != {len(ref['records'])}")
    for i, (want, got) in enumerate(zip(ref["records"], records)):
        diff = sorted(k for k, v in want.items() if got.get(k) != v)
        if diff:
            problems.append(f"record {i} differs in {','.join(diff)}")
    return problems


class CliJob(NamedTuple):
    argv: List[str]
    ref: dict


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: List[str], traced_to: Optional[str] = None
            ) -> subprocess.CompletedProcess:
    """One fresh CLI process, or the tracing shim around the same entry."""
    if traced_to is None:
        cmd = [sys.executable, "-m", "artifact.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), traced_to,
               *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=cli_env(),
                          timeout=120)


def build_corpus_cli(seed: int, corrupt: bool) -> List[CliJob]:
    with open(REFERENCE, encoding="utf-8") as fh:
        refs = json.load(fh)
    jobs = [CliJob(argv, refs[" ".join(argv)]) for argv in corpus_jobs()]
    random.Random(seed).shuffle(jobs)
    if corrupt:
        ref = dict(jobs[0].ref, exit=jobs[0].ref["exit"] + 1)
        jobs[0] = CliJob(jobs[0].argv, ref)
    return jobs


def run_corpus_cli(job: CliJob, traced_to: Optional[str] = None) -> List[str]:
    proc = run_cli(job.argv, traced_to)
    return compare_job(job.ref, proc.returncode, parse_records(proc.stdout))


def warm_up_corpus_cli() -> None:
    run_cli(["tower", "--n", "2", "--format", "machine"])


# ---------------------------------------------------------------------------
# flavors_z and ladder_fp
# ---------------------------------------------------------------------------

class ComplexCase(NamedTuple):
    complex: object          # artifact.chain.ChainComplex
    expected: Dict[int, object]
    n: int = 0               # tower depth (ladder_fp only)


def _case_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _corrupted(case: ComplexCase) -> ComplexCase:
    from artifact.exactlin import AbelianGroup
    expected = dict(case.expected)
    deg = min(expected) if expected else 0
    old = expected.get(deg, AbelianGroup(0))
    expected[deg] = AbelianGroup(old.free_rank + 1, old.torsion)
    return case._replace(expected=expected)


def _homology_problems(C, expected) -> List[str]:
    from artifact import chain
    from artifact.exactlin import TRIVIAL_GROUP
    H = chain.homology(C)
    bad = sorted(j for j in set(H.degrees()) | set(expected)
                 if H[j] != expected.get(j, TRIVIAL_GROUP))
    return [f"homology differs at degrees {bad}"] if bad else []


def build_flavors_z(seed: int, corrupt: bool) -> List[ComplexCase]:
    from gen import random_complex
    cases = []
    lo, hi = FLAVORS_Z_SIZES
    for i in range(FLAVORS_Z_CASES):
        size = lo + i * (hi - lo + 1) // FLAVORS_Z_CASES
        C, expected = random_complex(_case_rng(seed, i), size, with_u=True)
        cases.append(ComplexCase(C, expected))
    random.Random(seed).shuffle(cases)
    if corrupt:
        cases[0] = _corrupted(cases[0])
    return cases


def filtered_form(S):
    """s_u(C) as a filtered complex: d at exponent 0 and Y at exponent 1."""
    from artifact.connsum import FilteredComplex
    entries: Dict[tuple, list] = {k: [(0, v)] for k, v in S.d.entries.items()}
    for k, v in S.y_action.entries.items():
        entries.setdefault(k, []).append((1, v))
    return FilteredComplex(S.module.generators, entries, p=S.p)


def run_flavors_z(case: ComplexCase) -> List[str]:
    from artifact import chain, circle, connsum, flavors
    C = case.complex
    problems = _homology_problems(C, case.expected)
    ff = flavors.four_flavors(C)
    if not ff.ok:
        problems.append("four_flavors certificate failed")
    S = circle.s_u(C)
    kb = circle.koszul_b(S)
    if not (kb.matched and kb.witness_ok):
        problems.append("koszul_b did not match")
    cm = connsum.cm_flavors(filtered_form(S), ff.window)
    if not cm.ok:
        problems.append("cm_flavors certificate failed")
    hat = chain.homology(cm.complexes["hat"])
    win = ff.window
    bad = [j for j in range(win.lo + 1, win.hi) if ff.hat_table[j] != hat[j]]
    if bad:
        problems.append(f"hat tables of the two engines differ at {bad}")
    return problems


def warm_up_flavors_z() -> None:
    from gen import random_complex
    C, expected = random_complex(random.Random(0), 4, with_u=True)
    run_flavors_z(ComplexCase(C, expected))


def build_ladder_fp(seed: int, corrupt: bool) -> List[ComplexCase]:
    from gen import random_complex
    cases = []
    shapes = [(size, n, (2, 3)[j % 2])
              for size, n, count in LADDER_FP_SHAPES for j in range(count)]
    for i, (size, n, p) in enumerate(shapes):
        C, expected = random_complex(_case_rng(seed, i), size, p=p)
        cases.append(ComplexCase(C, expected, n))
    random.Random(seed).shuffle(cases)
    if corrupt:
        cases[0] = _corrupted(cases[0])
    return cases


def run_ladder_fp(case: ComplexCase) -> List[str]:
    from artifact import flavors
    problems = _homology_problems(case.complex, case.expected)
    bundle = flavors.assemble(flavors.tower_model(
        flavors.TowerParams(base=case.complex, n=case.n)))
    cones = flavors.cone_identities(bundle)
    if not cones.ok:
        problems.append(f"cone identities failed: {cones.failures()}")
    if not flavors.ladder_check(bundle).ok:
        problems.append("ladder check failed")
    return problems


def warm_up_ladder_fp() -> None:
    from gen import random_complex
    C, expected = random_complex(random.Random(0), 1, p=2)
    run_ladder_fp(ComplexCase(C, expected, 2))


WORKLOADS: Dict[str, Workload] = {
    "corpus_cli": Workload(build_corpus_cli, run_corpus_cli,
                           warm_up_corpus_cli, False, calibrate.SPAWN),
    "flavors_z": Workload(build_flavors_z, run_flavors_z, warm_up_flavors_z,
                          True, calibrate.LOOP),
    "ladder_fp": Workload(build_ladder_fp, run_ladder_fp, warm_up_ladder_fp,
                          True, calibrate.LOOP),
}
