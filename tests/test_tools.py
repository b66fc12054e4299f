"""Smoke tests of the scripts in ``tools/``.  Nothing else runs them.
``bench_counts.py`` reaches into the program: it wraps
``exactlin._factor``, ``IntMatrix.__matmul__``, ``chain.validate``,
``chain._reduce``, ``chain._lattice_exactness`` and ``circle.s_u`` by name
and reads ``Reduction.complex``, so a change to those names fails here.
Its test counts every family at a small size, twice, and a stub
factorization checks the bits it reads.  ``cli_sweep.py`` runs the CLI in
fresh processes on a few of its runs, and ``ab_inprocess.py`` runs two
cases of ``ladder_fp`` on this checkout against itself, after a full
untimed round, and ``scale_ladder`` at depth 3.  Both of these run on a
copy of ``src`` with bytecode writing on in the test, and must leave no
``__pycache__`` in it."""

import importlib.util
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI_SWEEP = ROOT / "tools" / "cli_sweep.py"


def _copy(tmp_path: Path, *parts: str) -> Path:
    """A copy of the named parts of this checkout, without bytecode."""
    for part in parts:
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_cli_sweep_lines_and_differences(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_sweep", CLI_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    runs = sweep.runs(sweep.HERE_ROOT)
    assert len({tuple(r) for r in runs}) == len(runs)
    picked = [["tower", "--n", "3", "--format", "machine"],
              ["verify", "corpus/v1/point.txt", "--format", "text",
               "--window", "0..1"]]
    assert all(argv in runs for argv in picked)
    copy = _copy(tmp_path, "src", "corpus")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    lines = [sweep.capture(str(copy), argv) for argv in picked]
    assert not list(copy.rglob("__pycache__"))
    for line, argv in zip(lines, picked):
        assert re.fullmatch(r"0 [0-9a-f]{64} " + re.escape(" ".join(argv)),
                            line), line
    assert sweep.differences(lines, lines) == []
    changed = ["1" + lines[0][1:], lines[1]]
    assert sweep.differences(lines, changed) == [
        f"- {lines[0]}\n+ {changed[0]}"]
    assert sweep.differences(lines, lines[:1]) == [
        f"- {lines[1]}\n+ (missing)"]


AB_INPROCESS = (Path(__file__).resolve().parent.parent / "tools"
                / "ab_inprocess.py")


def test_ab_inprocess_lines_on_this_checkout_twice(tmp_path):
    spec = importlib.util.spec_from_file_location("ab_inprocess",
                                                  AB_INPROCESS)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    before, path = set(sys.modules), list(sys.path)
    artifact = sys.modules.get("artifact")
    root = str(AB_INPROCESS.parent.parent)
    # count the case runs, and how many come before the first round's line
    runs, rounds = [], ab._rounds

    def counting(run, sides, lists, n):
        def counted(case):
            runs.append(case)
            return run(case)
        return rounds(counted, sides, lists, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ab, "_rounds", counting)
        produced = ab.compare(root, root, "ladder_fp", 1, rounds=2,
                              sizes=(2,))
        lines = [next(produced)]
        # the untimed warm-up round and the first timed round, each of the
        # two cases on both sides
        assert len(runs) == 8
        lines += list(produced)
    assert len(runs) == 12
    number = r"\d+\.\d{4}"
    assert len(lines) == 4
    for r, line in enumerate(lines[:2], 1):
        assert re.fullmatch(rf"round={r} a_s={number} b_s={number} "
                            r"ratio=\d+\.\d{3}", line), line
    assert re.fullmatch(rf"median a_s={number} b_s={number} "
                        r"ratio=\d+\.\d{3} rounds=2", lines[2]), lines[2]
    m = re.fullmatch(r"spread q1=(\d+\.\d{3}) q3=(\d+\.\d{3})", lines[3])
    assert m, lines[3]
    assert float(m.group(1)) <= float(m.group(2))
    # a scale family A/A at its smallest size, on a copy that bytecode
    # writing would fill
    copy = str(_copy(tmp_path, "src"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", False)
        lines = list(ab.compare(copy, copy, "scale_ladder", 1, rounds=1,
                                sizes=(3,)))
        assert sys.dont_write_bytecode is False
    assert not list(tmp_path.rglob("__pycache__"))
    assert [line.split()[0] for line in lines] == ["round=1", "median",
                                                   "spread"]
    # both sides are unloaded, and the package under test is untouched
    assert not any(k.startswith(ab.PREFIX) for k in sys.modules)
    assert sys.modules.get("artifact") is artifact
    assert sys.path == path
    assert set(sys.modules) - before <= {"calibrate"}


BENCH_COUNTS = AB_INPROCESS.parent / "bench_counts.py"


def _bench_counts():
    spec = importlib.util.spec_from_file_location("bench_counts",
                                                  BENCH_COUNTS)
    bc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bc)
    return bc


def test_bench_counts_schema_and_repeat(tmp_path):
    bc = _bench_counts()
    root = str(BENCH_COUNTS.parent.parent)
    sizes = {"flavors_z": 2, "ladder_fp": 2, "scale_z": 100,
             "scale_ladder": 3}
    outs = [tmp_path / f"run{k}.json" for k in (1, 2)]
    for out in outs:
        assert bc.main([str(out), f"here={root}"]
                       + [f"--sizes={k}={n}" for k, n in sizes.items()]) == 0
    first, second = (json.loads(out.read_text()) for out in outs)
    assert first == second
    assert set(first) == {"schema", "seed", "counted", "checkouts"}
    assert (first["schema"], first["seed"]) == (2, 1)
    counted = ["exactlin._factor", "exactlin._factor.max_bits",
               "exactlin.IntMatrix.__matmul__", "chain.validate",
               "chain._reduce", "chain._reduce.gens_in",
               "chain._reduce.gens_out", "chain._lattice_exactness",
               "circle.s_u"]
    assert first["counted"] == counted
    (label, here), = first["checkouts"].items()
    assert label == "here" and re.fullmatch(r"[0-9a-f]{64}",
                                            here["src_sha256"])
    families = here["families"]
    assert list(families) == list(bc.NAMES)
    counts = {}
    for name, by_size in families.items():
        (size, counts[name]), = by_size.items()
        assert size == str(sizes[name])
        assert list(counts[name]) == ["cases"] + counted
        assert counts[name]["cases"] == (2 if name in ("flavors_z",
                                                       "ladder_fp") else 1)
        assert all(isinstance(v, int) and v >= 0
                   for v in counts[name].values())
        assert counts[name]["chain.validate"] > 0
        assert counts[name]["circle.s_u"] > 0
        assert counts[name]["exactlin.IntMatrix.__matmul__"] > 0
        assert counts[name]["chain._reduce"] > 0
        assert 0 < counts[name]["chain._reduce.gens_out"] <= \
            counts[name]["chain._reduce.gens_in"]
    # Z factors and reads its long exact sequences on lattices, the field
    # path does neither
    for name in ("flavors_z", "scale_z"):
        assert counts[name]["exactlin._factor"] > 0
        assert counts[name]["exactlin._factor.max_bits"] >= 2
        assert counts[name]["chain._lattice_exactness"] > 0
    for name in ("ladder_fp", "scale_ladder"):
        assert counts[name]["exactlin._factor"] == 0
        assert counts[name]["chain._lattice_exactness"] == 0


def test_bench_counts_counts_the_kept_inverse():
    # a stub factorization of [[3]] whose kept inverse holds 2**70, the
    # largest entry of the three matrices and the inverse
    from artifact import exactlin as el
    bc = _bench_counts()
    M, one = el.IntMatrix(1, 1, {(0, 0): 3}), el.IntMatrix.identity(1)

    def stub(M, inverse=None):
        return (el.SNFResult((3,), one, one),
                one.scale(2 ** 70) if inverse else None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(el, "_factor", stub)
        plain = bc.counts_of(lambda: el._factor(M))
        kept = bc.counts_of(lambda: el._factor(M, "left"))
        # the counting wrapper is gone once the counts are made
        assert el._factor is stub
    assert (plain["exactlin._factor"], plain["exactlin._factor.max_bits"]) \
        == (1, 2)
    assert (kept["exactlin._factor"], kept["exactlin._factor.max_bits"]) \
        == (1, 71)
