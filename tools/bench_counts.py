"""Exact operation counts of the engine on its measured families, for one or
more checkouts, in one JSON file; and the table of those families, which
``ab_inprocess.py`` times.

Usage, from the root of the repository:

    python3 tools/bench_counts.py OUT.json LABEL=DIR [LABEL=DIR ...]
        [--seed 1] [--sizes FAMILY=N,N ...]

For example, a parent checkout against this one:

    python3 tools/bench_counts.py BENCH_30.json parent=../parent change=.

The families, each run at each of its sizes:

    flavors_z     perfbench's seeded case lists (``--seed``); a size is the
    ladder_fp     number of cases kept, from the first (default: all); a
    corpus_cli    ``corpus_cli`` case is one CLI job
    scale_z       ``four_flavors`` of ``random_complex(Random(n), n,
                  (-3, 3), with_u=True)`` (n = 100, 200, 400)
    scale_ladder  ``ladder_check`` of ``assemble`` of the tower of depth
                  n over ``random_complex(Random(0), 2, p=2)`` (n = 3, 6,
                  12, 24, 48); a case is the tower's ``TowerParams``, so
                  the tower model and its assembly are counted and timed

with ``random_complex`` from ``perfbench/gen.py``.  The 39 ``corpus_cli``
jobs run in this interpreter, through ``cli.main`` with its output
captured, not in a fresh process each as the benchmark runs them: their
wall time is start-up, so they are counted only (``ab_inprocess.py`` times
the other four, ``TIMED``).  ``--sizes scale_z=800,1200`` replaces a
family's sizes; give it once per family.  Cases are built from this
checkout's ``perfbench``, and each is stopped by its own verdict: the
workload's oracle (for a CLI job, its reference records and exit code), or
the certificate's ``.ok``.  A case that fails stops the script with exit
1, the problem on stderr.

Each checkout runs in a fresh interpreter, with its own ``src`` first on
``sys.path``.  Counting wrappers are bound, for the duration of one size's
cases, in every ``artifact`` module that holds the counted function, or on
the class of a counted method, so no counter lives in the program; a name
the checkout lacks counts 0:

    exactlin.snf                   every Smith form (one per arrow and
                                   source degree over Z, of [class matrix |
                                   target torsion], and one per kernel or
                                   solve)
    exactlin.snf.max_bits          the largest entry bit length over every
                                   Smith form's input and both transforms
    exactlin.IntMatrix.__matmul__  every matrix product formed (a product
                                   with an identity forms none)
    exactlin.PresentedGroup.from_pieces
                                   every homology presentation built (the
                                   program makes them all in the pass that
                                   ends a reduction: one per degree where
                                   C' is not empty, and one trivial group)
    chain.GradedMap.__matmul__     every product of graded maps
    chain._defect                  every defect f.a - (-1)^{|f||a|} b.f
                                   formed in one pass (chain-map laws,
                                   U-witnesses, graded commutators)
    chain._HomologyArrow._push     every class matrix pushed through a
                                   reduction
    chain._isolate.heap_pops       every record ``_isolate`` pops off its
                                   heap (``chain.heappop``)
    chain.validate                 every validation of a complex's laws
    chain._reduce                  every reduction, and the generators of
    chain._reduce.gens_in          the complexes it reduces and of the
    chain._reduce.gens_out         complexes C' it leaves
    chain._reduce.map_bits         the largest entry bit length over every
                                   reduction's iota columns and pi rows
    chain._lattice_exactness       every Z long exact sequence node with a
                                   nonzero middle group that G.F = 0 lets
                                   through to the kernel test
    circle.s_u                     every doubling

Every engine module is imported before the wrappers are bound, so a module
loaded on first use cannot keep a wrapper after.  Counts are exact, and two
runs of the same checkouts write the same file.  Beside them stands a
SHA-256 of the checkout's ``src/artifact/*.py``, naming the code counted.

The file, with counts per family and size:

    {"schema": 6, "seed": 1, "counted": [...],
     "checkouts": {LABEL: {"src_sha256": "...",
                           "families": {"scale_z": {"100": {"cases": 1,
                                                            "exactlin.snf": ...,
                                                            ...}, ...}, ...}}}}
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from typing import Callable, Dict, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
ENGINE = ("exactlin", "chain", "circle", "flavors", "connsum")
NAMES = ("flavors_z", "ladder_fp", "corpus_cli", "scale_z", "scale_ladder")
TIMED = tuple(name for name in NAMES if name != "corpus_cli")


class Family(NamedTuple):
    build: Callable[[int, int], list]    # (seed, size) -> cases
    run: Callable[[object], List[str]]   # case -> problems
    warm_up: Callable[[], None]
    sizes: Tuple[int, ...]               # the default sizes


def _scale_z(seed: int, n: int) -> list:
    from gen import random_complex
    return [random_complex(random.Random(n), n, (-3, 3), with_u=True)[0]]


def _run_scale_z(C) -> List[str]:
    from artifact import flavors
    return [] if flavors.four_flavors(C).ok else ["four_flavors failed"]


def _scale_ladder(seed: int, n: int) -> list:
    from artifact import flavors
    from gen import random_complex
    base, _ = random_complex(random.Random(0), 2, p=2)
    return [flavors.TowerParams(base=base, n=n)]


def _run_scale_ladder(params) -> List[str]:
    from artifact import flavors
    bundle = flavors.assemble(flavors.tower_model(params))
    return [] if flavors.ladder_check(bundle).ok else ["ladder check failed"]


def families(workloads) -> Dict[str, Family]:
    """The families by name, in the order of ``NAMES``, given perfbench's
    ``workloads`` module.  Cases build and run through the modules named
    ``artifact`` and ``gen`` at call time."""
    def leading(spec, cases: int, run=None) -> Family:
        return Family(lambda seed, n: spec.build(seed, False)[:n],
                      run or spec.run, spec.warm_up, (cases,))

    def run_job(job) -> List[str]:
        from artifact import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv)
        return workloads.compare_job(job.ref, code,
                                     workloads.parse_records(out.getvalue()))

    flavors_z, ladder_fp, corpus_cli = (workloads.WORKLOADS[name]
                                        for name in NAMES[:3])
    return dict(zip(NAMES, (
        leading(flavors_z, workloads.FLAVORS_Z_CASES),
        leading(ladder_fp, sum(n for *_, n in workloads.LADDER_FP_SHAPES)),
        leading(corpus_cli, len(workloads.corpus_jobs()), run_job),
        Family(_scale_z, _run_scale_z, flavors_z.warm_up, (100, 200, 400)),
        Family(_scale_ladder, _run_scale_ladder, ladder_fp.warm_up,
               (3, 6, 12, 24, 48)))))


def size_option(text: str) -> Tuple[str, Tuple[int, ...]]:
    """One ``--sizes`` value, ``FAMILY=N,N``, as (family, sizes); the
    option both this script and ``ab_inprocess.py`` read."""
    name, _, listed = text.partition("=")
    try:
        sizes = tuple(int(n) for n in listed.split(","))
    except ValueError:
        sizes = ()
    if name not in NAMES or not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r}: want FAMILY=N,N with FAMILY one of {', '.join(NAMES)}"
            " and every N positive")
    return name, sizes


def _calls(key: str):
    def observe(counts, args, result):
        counts[key] += 1
    return observe


def _max_bits(before: int, vectors) -> int:
    """The largest of ``before`` and the bit lengths of the values of the
    dicts ``vectors``."""
    return max([before] + [abs(v).bit_length() for vec in vectors
                           for v in vec.values()])


def _snf_counts(counts, args, result):
    counts["exactlin.snf"] += 1
    counts["exactlin.snf.max_bits"] = _max_bits(
        counts["exactlin.snf.max_bits"],
        [m.entries for m in (args[0], result.left, result.right)])


def _reduce_counts(counts, args, result):
    counts["chain._reduce"] += 1
    counts["chain._reduce.gens_in"] += len(args[0].module)
    counts["chain._reduce.gens_out"] += len(result.complex.module)
    counts["chain._reduce.map_bits"] = _max_bits(
        counts["chain._reduce.map_bits"],
        [*result.iota_cols.values(), *result.pi_rows.values()])


# (module, attribute or Class.method, what one call adds to the counts)
COUNTED = (("artifact.exactlin", "snf", _snf_counts),
           ("artifact.exactlin", "IntMatrix.__matmul__",
            _calls("exactlin.IntMatrix.__matmul__")),
           ("artifact.exactlin", "PresentedGroup.from_pieces",
            _calls("exactlin.PresentedGroup.from_pieces")),
           ("artifact.chain", "GradedMap.__matmul__",
            _calls("chain.GradedMap.__matmul__")),
           ("artifact.chain", "_defect", _calls("chain._defect")),
           ("artifact.chain", "_HomologyArrow._push",
            _calls("chain._HomologyArrow._push")),
           ("artifact.chain", "heappop", _calls("chain._isolate.heap_pops")),
           ("artifact.chain", "validate", _calls("chain.validate")),
           ("artifact.chain", "_reduce", _reduce_counts),
           ("artifact.chain", "_lattice_exactness",
            _calls("chain._lattice_exactness")),
           ("artifact.circle", "s_u", _calls("circle.s_u")))
KEYS = ("exactlin.snf", "exactlin.snf.max_bits",
        "exactlin.IntMatrix.__matmul__",
        "exactlin.PresentedGroup.from_pieces", "chain.GradedMap.__matmul__",
        "chain._defect", "chain._HomologyArrow._push", "chain._isolate.heap_pops",
        "chain.validate", "chain._reduce", "chain._reduce.gens_in",
        "chain._reduce.gens_out", "chain._reduce.map_bits",
        "chain._lattice_exactness", "circle.s_u")


@contextlib.contextmanager
def wrapped(owner, name: str, wrap: Callable):
    """``owner.name`` replaced by ``wrap(original)`` for the duration of
    the block: on ``owner`` when it is a class, else in every ``artifact``
    module that binds the original.  A class gets back the attribute it
    defines, so a classmethod is restored as one."""
    original = getattr(owner, name)
    defined = vars(owner)[name] if isinstance(owner, type) else original
    holders = [owner] if isinstance(owner, type) else [
        m for key, m in sys.modules.items()
        if (key == "artifact" or key.startswith("artifact."))
        and getattr(m, name, None) is original]
    new = wrap(original)
    for m in holders:
        setattr(m, name, new)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, name, defined)


def counts_of(run: Callable[[], None]) -> Dict[str, int]:
    """The counts of one call of ``run``, with the wrappers of ``COUNTED``
    bound for its duration.  A wrapper passes its arguments through as
    given.  The engine is imported first, so no module loaded within
    ``run`` binds a wrapper and keeps it after."""
    for stem in ENGINE:
        importlib.import_module(f"artifact.{stem}")
    counts = dict.fromkeys(KEYS, 0)

    def observing(observe):
        def wrap(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(counts, args, result)
                return result
            return counted
        return wrap

    with contextlib.ExitStack() as stack:
        for module, attr, observe in COUNTED:
            owner = importlib.import_module(module)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if hasattr(owner, attr):
                stack.enter_context(wrapped(owner, attr, observing(observe)))
        run()
    return counts


def src_digest(checkout: str) -> str:
    """SHA-256 over the names and bytes of ``src/artifact/*.py``."""
    src = os.path.join(checkout, "src", "artifact")
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _count_here(seed: int, sizes: Dict[str, Tuple[int, ...]]) -> dict:
    """The counts of this interpreter's ``artifact`` per family and size;
    runs in the child, with the checkout's ``src`` and perfbench on the
    path."""
    import workloads

    def run_all(name: str, size: int, family: Family, cases: list) -> None:
        for i, case in enumerate(cases):
            problems = family.run(case)
            if problems:
                raise SystemExit(f"{name} size {size} case {i}: "
                                 f"{problems[0]}")

    out: dict = {}
    for name, family in families(workloads).items():
        out[name] = {}
        for size in sizes.get(name, family.sizes):
            cases = family.build(seed, size)
            out[name][str(size)] = {"cases": len(cases), **counts_of(
                lambda: run_all(name, size, family, cases))}
    return out


def count(checkout: str, seed: int, sizes: Dict[str, Tuple[int, ...]]
          ) -> dict:
    """The counts of one checkout, from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.abspath(checkout), "src"), PERFBENCH]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--seed", str(seed)]
        + [f"--sizes={name}={','.join(map(str, ns))}"
           for name, ns in sizes.items()],
        capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def report(checkouts: Dict[str, str], seed: int,
           sizes: Dict[str, Tuple[int, ...]]) -> dict:
    return {"schema": 6, "seed": seed, "counted": list(KEYS),
            "checkouts": {label: {"src_sha256": src_digest(path),
                                  "families": count(path, seed, sizes)}
                          for label, path in checkouts.items()}}


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?")
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=DIR")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", action="append", type=size_option,
                    default=[], metavar="FAMILY=N,N")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = dict(args.sizes)
    if args.child:
        print(json.dumps(_count_here(args.seed, sizes)))
        return 0
    if not args.out or not args.checkouts:
        ap.error("need OUT and at least one LABEL=DIR")
    pairs = [c.partition("=") for c in args.checkouts]
    if any(not label or not sep or not path for label, sep, path in pairs):
        ap.error("checkouts are given as LABEL=DIR")
    try:
        data = report({label: path for label, _, path in pairs},
                      args.seed, sizes)
    except RuntimeError as exc:
        print(f"bench_counts: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
