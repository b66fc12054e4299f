"""In-process A/B timing of two checkouts on one measured family, beside
an A/A timing of the first against a second copy of itself.

Usage, from the root of the repository:

    python3 tools/ab_inprocess.py A_DIR B_DIR [--workload ladder_fp]
        [--seed 1] [--rounds 10] [--sizes FAMILY=N,N]

The families are those of ``bench_counts.py`` that it times (``TIMED``):
perfbench's in-process workloads ``flavors_z`` and ``ladder_fp``, and the
scale families ``scale_z`` and ``scale_ladder``; its ``corpus_cli`` jobs
are counted only.  ``--sizes`` is read as there (for
example ``--sizes scale_ladder=24,48``), for the ``--workload`` family
only; the cases of all its sizes make one round.

Three sides are loaded next to each other in this interpreter: A's
``src/artifact`` twice, under the package names ``_ab_a`` and ``_ab_a2``,
and B's under ``_ab_b``, with bytecode writing off, so no ``__pycache__``
is left in either checkout.  A2 is a placebo B: it runs A's code on cases
of its own, so the A/A ratio a_s / a2_s shows how far the A/B ratio
a_s / b_s moves in the same run with nothing changed.  Each side
builds the family's cases from this checkout's ``perfbench/workloads.py``,
with its own copy of ``perfbench/gen.py``, so its inputs are objects of its
own package.  A case runs through the family's own ``run`` function with
the name ``artifact`` (and ``gen``) bound to that side's modules.

After the family's warm-up case, each side runs one full round untimed:
with only one case of warm-up the first timed rounds still drift (pass
times falling by nearly half over a 12-round A/A run) and widen the
spread.  Each timed round then runs every case on all three sides, in
the next of the six orders of the sides from case to case and from round
to round, so that each side runs first, and right after each other side,
equally often (with one order turning, A would run right after B in two
cases of three), and a drift in machine speed falls on every side alike.
Separate benchmark processes run one after the other do not share it,
and A/A batches run apart from the A/B one moved their quartiles by more
than their width.

Every round reruns the same case objects, built once per side, so the
memos the engine keeps on a case's input complexes (the reduction with
its presentations, validation) are filled by the untimed round and stay
warm: a timed round times only the work on the complexes the case builds.  On
``flavors_z`` at seed 1, a pass over the warm cases reduces 700 complexes
where a cold pass reduces 770; while presentations still factored, such
a pass made 10,056 Smith forms where a cold pass made 10,652.  A
timed ratio speaks for warm cases only.

One line per round, with the pass time of each side (the sum of its case
times), ratio = a_s / b_s (above 1: B is faster) and aa_ratio =
a_s / a2_s:

    round=1 a_s=0.9512 a2_s=0.9488 b_s=0.8123 ratio=1.171 aa_ratio=1.003

a line with the medians over the rounds:

    median a_s=0.9500 a2_s=0.9490 b_s=0.8100 ratio=1.173 aa_ratio=1.001 rounds=10

and a last line with the quartiles of the per-round A/B and A/A ratios
(as ``statistics.quantiles``, the way ``perfbench/trajectory.py`` reads
spread), so the A/B median can be set against the A/A spread of the same
run:

    spread q1=1.160 q3=1.181 aa_q1=0.992 aa_q3=1.010

The exit code is 1 if a case of any side fails its verdict; the first
problem goes to stderr.
"""

import argparse
import contextlib
import importlib
import importlib.util
import itertools
import os
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PREFIX = "_ab_"


class WrongAnswer(Exception):
    pass


def _load(name: str, path: str, package_dir: Optional[str] = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=(
            None if package_dir is None else [package_dir]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# the table of families and the --sizes option, as bench_counts.py has them
bench_counts = _load("bench_counts",
                     os.path.join(ROOT, "tools", "bench_counts.py"))


class Side:
    """One checkout's engine under a private package name, with the
    ``sys.modules`` entries that make ``artifact`` and ``gen`` mean it."""

    def __init__(self, name: str, root: str):
        src = os.path.join(os.path.abspath(root), "src", "artifact")
        self.name = name
        package = _load(name, os.path.join(src, "__init__.py"), src)
        self.modules: Dict[str, object] = {"artifact": package}
        for file in sorted(os.listdir(src)):
            stem, ext = os.path.splitext(file)
            if ext == ".py" and stem not in ("__init__", "__main__", "cli"):
                self.modules[f"artifact.{stem}"] = importlib.import_module(
                    f"{name}.{stem}")
        with self.bound():
            self.modules["gen"] = _load(f"{name}_gen",
                                        os.path.join(PERFBENCH, "gen.py"))

    @contextlib.contextmanager
    def bound(self) -> Iterator[None]:
        saved = {key: sys.modules.get(key) for key in self.modules}
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            for key, module in saved.items():
                if module is None:
                    sys.modules.pop(key, None)
                else:
                    sys.modules[key] = module


def compare(root_a: str, root_b: str, workload: str, seed: int,
            rounds: int, sizes: Sequence[int] = ()) -> Iterator[str]:
    """The output lines, one round at a time, over the family's cases at
    ``sizes`` (default: its own).  A case that fails its verdict raises
    WrongAnswer after its round's line.  The modules loaded here are
    unloaded, and bytecode writing is restored, when the lines end."""
    sys.path.insert(0, PERFBENCH)   # workloads.py imports calibrate
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        workloads = _load(PREFIX + "workloads",
                          os.path.join(PERFBENCH, "workloads.py"))
        family = bench_counts.families(workloads)[workload]
        sides = [Side(PREFIX + "a", root_a), Side(PREFIX + "a2", root_a),
                 Side(PREFIX + "b", root_b)]
        lists = []
        for side in sides:
            with side.bound():
                lists.append([case for size in sizes or family.sizes
                              for case in family.build(seed, size)])
                family.warm_up()
        yield from _rounds(family.run, sides, lists, rounds)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)
        for key in [k for k in sys.modules if k.startswith(PREFIX)]:
            del sys.modules[key]


def _pass(run, sides: List[Side], lists: List[list], r: int):
    """One round: every case on every side, in the order of the sides
    that the case and r pick from all of them.  (seconds per side,
    problems found)."""
    orders = list(itertools.permutations(range(len(sides))))
    spent = [0.0] * len(sides)
    problems: List[str] = []
    for i in range(len(lists[0])):
        for k in orders[(i + r) % len(orders)]:
            with sides[k].bound():
                start = time.perf_counter()
                found = run(lists[k][i])
                spent[k] += time.perf_counter() - start
            problems += [f"{sides[k].name} case {i}: {p}" for p in found]
    return spent, problems


def _rounds(run, sides: List[Side], lists: List[list],
            rounds: int) -> Iterator[str]:
    # the warm-up round: checked, not timed
    _, problems = _pass(run, sides, lists, -1)
    if problems:
        raise WrongAnswer(problems[0])
    totals: List[List[float]] = [[] for _ in sides]
    for r in range(rounds):
        spent, problems = _pass(run, sides, lists, r)
        for k, t in enumerate(spent):
            totals[k].append(t)
        a, a2, b = spent
        yield (f"round={r + 1} a_s={a:.4f} a2_s={a2:.4f} b_s={b:.4f} "
               f"ratio={a / b:.3f} aa_ratio={a / a2:.3f}")
        if problems:
            raise WrongAnswer(problems[0])
    a, a2, b = totals
    ratios = [x / y for x, y in zip(a, b)]
    placebo = [x / y for x, y in zip(a, a2)]
    med = statistics.median
    yield (f"median a_s={med(a):.4f} a2_s={med(a2):.4f} b_s={med(b):.4f} "
           f"ratio={med(ratios):.3f} aa_ratio={med(placebo):.3f} "
           f"rounds={rounds}")
    q1, q3, aa_q1, aa_q3 = _quartiles(ratios) + _quartiles(placebo)
    yield (f"spread q1={q1:.3f} q3={q3:.3f} "
           f"aa_q1={aa_q1:.3f} aa_q3={aa_q3:.3f}")


def _quartiles(ratios: List[float]) -> tuple:
    """(q1, q3) of the ratios; one round has no spread, so both are its
    ratio."""
    if len(ratios) < 2:
        return ratios[0], ratios[0]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return q1, q3


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_dir")
    ap.add_argument("b_dir")
    ap.add_argument("--workload", default="ladder_fp",
                    choices=bench_counts.TIMED)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--sizes", action="append",
                    type=bench_counts.size_option, default=[],
                    metavar="FAMILY=N,N")
    args = ap.parse_args(argv)
    sizes = dict(args.sizes)
    if set(sizes) - {args.workload}:
        ap.error("--sizes may name only the --workload family")
    try:
        for line in compare(args.a_dir, args.b_dir, args.workload,
                            args.seed, args.rounds,
                            sizes.get(args.workload, ())):
            print(line, flush=True)
    except WrongAnswer as exc:
        print(f"ab_inprocess: wrong answer: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
