"""CLI sweep: exit code and a hash of stdout for every command on every
corpus file, so two checkouts can be compared run for run.

Usage, from the root of the repository:

    python3 tools/cli_sweep.py [--root DIR] [--against FILE] > capture.txt

It runs every command of ``python -m artifact.cli`` on every file of
``corpus/v1`` (``ey`` and ``consum-case2`` once per flavor flag), plus
``koszul --direction a|b`` and ``tower --n 3|5`` without a file.  Each of
these runs in text and machine format, at the default window and at
``--window -3..3`` and ``--window 0..1``.  Every run is a fresh process
with ``DIR/src`` on ``PYTHONPATH``, ``DIR`` as working directory (so file
arguments read ``corpus/v1/...`` in every checkout) and bytecode writing
off, so no ``__pycache__`` is left in ``DIR``.  ``DIR`` defaults to
the checkout holding this script; pointing it at another checkout (say a
parent commit, which may not have this script) captures that one.

One line per run: ``<exit code> <sha256 of stdout> <argv>``.  With
``--against FILE`` the fresh capture is also compared with an earlier one;
every run whose line differs, or that only one capture has, goes to stderr,
and the exit code is 1 if there is any.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence

HERE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAVOR_FLAGS = ("minus", "inf", "plus", "hat")
FILE_COMMANDS = (
    [["verify"], ["homology"], ["su"]]
    + [["ey", "--flavor", f] for f in FLAVOR_FLAGS]
    + [["flavors"], ["ladder"], ["cmflavors"], ["consum-case1"]]
    + [["consum-case2", "--flavor", f] for f in FLAVOR_FLAGS]
    + [["consum-verify"]])
NO_FILE_COMMANDS = (["koszul", "--direction", "a"],
                    ["koszul", "--direction", "b"],
                    ["tower", "--n", "3"], ["tower", "--n", "5"])
WINDOWS = ([], ["--window", "-3..3"], ["--window", "0..1"])
FORMATS = ("text", "machine")


def runs(root: str) -> List[List[str]]:
    """Every argv of the sweep, in a fixed order."""
    corpus = sorted(os.listdir(os.path.join(root, "corpus", "v1")))
    commands = [cmd + [f"corpus/v1/{name}"]
                for cmd in FILE_COMMANDS for name in corpus]
    commands += [list(cmd) for cmd in NO_FILE_COMMANDS]
    return [cmd + ["--format", fmt] + win
            for cmd in commands for fmt in FORMATS for win in WINDOWS]


def capture(root: str, argv: Sequence[str]) -> str:
    """One fresh CLI process on ``root``'s sources: its capture line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-m", "artifact.cli", *argv],
                          cwd=root, env=env, capture_output=True,
                          timeout=600)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    return f"{proc.returncode} {digest} {' '.join(argv)}"


def differences(old: Iterable[str], new: Iterable[str]) -> List[str]:
    """The runs whose capture lines differ, keyed by argv, in the order of
    ``new`` and then of runs only ``old`` has."""
    def by_argv(lines: Iterable[str]) -> Dict[str, str]:
        return {line.split(" ", 2)[2]: line for line in lines if line}

    a, b = by_argv(old), by_argv(new)
    out = [f"- {a.get(k, '(missing)')}\n+ {line}"
           for k, line in b.items() if a.get(k) != line]
    out += [f"- {line}\n+ (missing)" for k, line in a.items() if k not in b]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=HERE_ROOT,
                        help="checkout to run (default: this one)")
    parser.add_argument("--against", metavar="FILE",
                        help="earlier capture to compare with")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    lines = []
    for run in runs(root):
        lines.append(capture(root, run))
        print(lines[-1], flush=True)
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        diff = differences(fh.read().splitlines(), lines)
    for entry in diff:
        print(entry, file=sys.stderr)
    print(f"{len(diff)} of {len(lines)} runs differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
