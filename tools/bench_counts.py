"""Exact call counts of the engine on perfbench's in-process workloads, for
one or more checkouts, in one JSON file.

Usage, from the root of the repository:

    python3 tools/bench_counts.py OUT.json LABEL=DIR [LABEL=DIR ...]
        [--seed 1] [--cases N]

For example, a parent checkout against this one:

    python3 tools/bench_counts.py BENCH_21.json parent=../parent change=.

Each checkout runs in a fresh interpreter, with its own ``src`` first on
``sys.path``.  It builds the seeded case lists of ``flavors_z`` and
``ladder_fp`` from this checkout's ``perfbench/workloads.py`` (``--cases N``
keeps the first N of each) and runs every case once through the workload's
own ``run``.  Counting wrappers are bound, for the duration of the cases,
in every ``artifact`` module that holds the counted function (``wrapped``,
which ``scale_z.py`` and ``scale_ladder.py`` use too), so no counter lives
in the program:

    exactlin._factor   every Smith form, and each presentation's relations
    chain.validate     every validation of a complex's laws
    circle.s_u         every doubling

Every engine module is imported before the wrappers are bound, so a module
loaded on first use cannot keep a wrapper after.  Counts are exact, and two
runs of the same checkouts write the same file.  Beside them stands a
SHA-256 of the checkout's ``src/artifact/*.py``, naming the code counted.
A case that fails its oracle stops the script with exit 1, the problem on
stderr.

The file:

    {"schema": 1, "seed": 1, "cases": 0, "counted": [...],
     "checkouts": {LABEL: {"src_sha256": "...",
                           "workloads": {"flavors_z": {"cases": 70,
                                                       "exactlin._factor": ...,
                                                       ...}, ...}}}}

``"cases": 0`` means every case of each list.
"""

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("flavors_z", "ladder_fp")
# (count name, module, attribute)
COUNTED = (("exactlin._factor", "artifact.exactlin", "_factor"),
           ("chain.validate", "artifact.chain", "validate"),
           ("circle.s_u", "artifact.circle", "s_u"))
ENGINE = ("exactlin", "chain", "circle", "flavors", "connsum")


@contextlib.contextmanager
def wrapped(owner, name: str, wrap: Callable):
    """``owner.name`` replaced by ``wrap(original)`` in every ``artifact``
    module that binds the original, for the duration of the block."""
    original = getattr(owner, name)
    holders = [m for key, m in sys.modules.items()
               if (key == "artifact" or key.startswith("artifact."))
               and getattr(m, name, None) is original]
    new = wrap(original)
    for m in holders:
        setattr(m, name, new)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, name, original)


def src_digest(checkout: str) -> str:
    """SHA-256 over the names and bytes of ``src/artifact/*.py``."""
    src = os.path.join(checkout, "src", "artifact")
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _count_here(seed: int, cases: int) -> Dict[str, Dict[str, int]]:
    """The counts of this interpreter's ``artifact`` on each workload; runs
    in the child, with the checkout's ``src`` and perfbench on the path."""
    import importlib
    import workloads
    for stem in ENGINE:
        importlib.import_module(f"artifact.{stem}")
    out = {}
    for name in WORKLOADS:
        spec = workloads.WORKLOADS[name]
        built = spec.build(seed, False)
        built = built[:cases] if cases else built
        counts = dict.fromkeys((key for key, _, _ in COUNTED), 0)

        def counting(key):
            def wrap(original):
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return original(*args, **kwargs)
                return counted
            return wrap

        with contextlib.ExitStack() as stack:
            for key, module, attr in COUNTED:
                stack.enter_context(wrapped(sys.modules[module], attr,
                                            counting(key)))
            for i, case in enumerate(built):
                problems = spec.run(case)
                if problems:
                    raise SystemExit(f"{name} case {i}: {problems[0]}")
        out[name] = {"cases": len(built), **counts}
    return out


def count(checkout: str, seed: int, cases: int) -> Dict[str, Dict[str, int]]:
    """The counts of one checkout, from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.abspath(checkout), "src"), PERFBENCH]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--seed", str(seed), "--cases", str(cases)],
        capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def report(checkouts: Dict[str, str], seed: int, cases: int) -> dict:
    return {"schema": 1, "seed": seed, "cases": cases,
            "counted": [key for key, _, _ in COUNTED],
            "checkouts": {label: {"src_sha256": src_digest(path),
                                  "workloads": count(path, seed, cases)}
                          for label, path in checkouts.items()}}


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?")
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=DIR")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cases", type=int, default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_count_here(args.seed, args.cases)))
        return 0
    if not args.out or not args.checkouts:
        ap.error("need OUT and at least one LABEL=DIR")
    pairs = [c.partition("=") for c in args.checkouts]
    if any(not label or not sep or not path for label, sep, path in pairs):
        ap.error("checkouts are given as LABEL=DIR")
    try:
        data = report({label: path for label, _, path in pairs},
                      args.seed, args.cases)
    except RuntimeError as exc:
        print(f"bench_counts: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
