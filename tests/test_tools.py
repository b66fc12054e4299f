"""Smoke tests of the scripts in ``tools/``.  Nothing else runs them:
``scale_z.py`` reaches into the program (``chain.reduction``, the flavor
slices of ``four_flavors``, and the ``chain._lattice_exactness`` and
``exactlin._factor`` it wraps), and so does ``scale_ladder.py`` (the
``flavors._fundamental`` it wraps), so a change to those names fails here;
``cli_sweep.py`` runs the CLI in fresh processes on a few of its runs;
``ab_inprocess.py`` runs two cases of ``ladder_fp`` on this checkout
against itself, after a full untimed round; and ``bench_counts.py`` counts
two cases of each in-process workload, twice."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

SCALE_Z = Path(__file__).resolve().parent.parent / "tools" / "scale_z.py"


def test_scale_z_line_format():
    with pytest.MonkeyPatch.context() as mp:
        # the script puts src/ and perfbench/ in front of sys.path
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("scale_z", SCALE_Z)
        scale_z = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale_z)
        line = scale_z.measure(30)
        # the counting wrappers are gone once the line is made
        assert scale_z.exactlin._factor.__name__ == "_factor"
        assert scale_z.chain._lattice_exactness.__name__ == \
            "_lattice_exactness"
    m = re.fullmatch(r"n=30 four_flavors_s=\d+\.\d\d "
                     r"presented_gens=(\d+)->(\d+) \((.*)\) "
                     r"z_les_nodes=(\d+) snf_max_bits=(\d+)", line)
    assert m, line
    assert int(m.group(4)) > 0 and int(m.group(5)) >= 2
    slices = [re.fullmatch(r"(\w+) (\d+)->(\d+)", part).groups()
              for part in m.group(3).split(", ")]
    assert [tag for tag, _, _ in slices] == ["minus", "infinity", "plus",
                                            "hat"]
    before = sum(int(b) for _, b, _ in slices)
    after = sum(int(a) for _, _, a in slices)
    assert (before, after) == (int(m.group(1)), int(m.group(2)))
    assert all(int(a) <= int(b) for _, b, a in slices)


def test_scale_z_counts_the_kept_inverse():
    # a stub factorization of [[3]] whose kept inverse holds 2**70, the
    # largest entry of the three matrices and the inverse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("scale_z", SCALE_Z)
        scale_z = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale_z)
        el = scale_z.exactlin
        M, one = el.IntMatrix(1, 1, {(0, 0): 3}), el.IntMatrix.identity(1)

        def stub(M, inverse=False):
            return (el.SNFResult((3,), one, one),
                    one.scale(2 ** 70) if inverse else None)

        mp.setattr(el, "_factor", stub)
        assert scale_z._counts(lambda: el._factor(M)) == (0, 2)
        assert scale_z._counts(lambda: el._factor(M, True)) == (0, 71)


SCALE_LADDER = SCALE_Z.parent / "scale_ladder.py"


def test_scale_ladder_line_format():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("scale_ladder",
                                                      SCALE_LADDER)
        scale_ladder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale_ladder)
        line = scale_ladder.measure(3)
        # the catching wrapper is gone once the line is made
        assert scale_ladder.flavors._fundamental.__name__ == "_fundamental"
    m = re.fullmatch(r"n=3 ladder_s=\d+\.\d\d ok=True "
                     r"slice_gens=(\d+)->(\d+) \((.*)\)", line)
    assert m, line
    slices = [re.fullmatch(r"(\w+) (\w+) (\d+)->(\d+)", part).groups()
              for part in m.group(3).split(", ")]
    assert [(key, tag) for key, tag, _, _ in slices] == [
        (key, tag) for key in ("hat", "bar", "check")
        for tag in ("minus", "infinity", "plus")]
    assert sum(int(b) for _, _, b, _ in slices) == int(m.group(1))
    assert sum(int(a) for _, _, _, a in slices) == int(m.group(2))
    assert all(0 < int(a) < int(b) for _, _, b, a in slices)


CLI_SWEEP = Path(__file__).resolve().parent.parent / "tools" / "cli_sweep.py"


def test_cli_sweep_lines_and_differences():
    spec = importlib.util.spec_from_file_location("cli_sweep", CLI_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    root = sweep.HERE_ROOT
    runs = sweep.runs(root)
    assert len({tuple(r) for r in runs}) == len(runs)
    picked = [["tower", "--n", "3", "--format", "machine"],
              ["verify", "corpus/v1/point.txt", "--format", "text",
               "--window", "0..1"]]
    assert all(argv in runs for argv in picked)
    lines = [sweep.capture(root, argv) for argv in picked]
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


def test_ab_inprocess_lines_on_this_checkout_twice():
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
        produced = ab.compare(root, root, "ladder_fp", 1, rounds=2, cases=2)
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
    # both sides are unloaded, and the package under test is untouched
    assert not any(k.startswith(ab.PREFIX) for k in sys.modules)
    assert sys.modules.get("artifact") is artifact
    assert sys.path == path
    assert set(sys.modules) - before <= {"calibrate"}


BENCH_COUNTS = AB_INPROCESS.parent / "bench_counts.py"


def test_bench_counts_schema_and_repeat(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_counts",
                                                  BENCH_COUNTS)
    bc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bc)
    root = str(BENCH_COUNTS.parent.parent)
    outs = [tmp_path / f"run{k}.json" for k in (1, 2)]
    for out in outs:
        assert bc.main([str(out), f"here={root}", "--cases", "2"]) == 0
    first, second = (json.loads(out.read_text()) for out in outs)
    assert first == second
    assert set(first) == {"schema", "seed", "cases", "counted", "checkouts"}
    assert (first["schema"], first["seed"], first["cases"]) == (1, 1, 2)
    counted = ["exactlin._factor", "exactlin.IntMatrix.__matmul__",
               "chain.validate", "circle.s_u"]
    assert first["counted"] == counted
    (label, here), = first["checkouts"].items()
    assert label == "here" and re.fullmatch(r"[0-9a-f]{64}",
                                            here["src_sha256"])
    assert set(here["workloads"]) == {"flavors_z", "ladder_fp"}
    for name, counts in here["workloads"].items():
        assert list(counts) == ["cases"] + counted
        assert counts["cases"] == 2
        assert all(isinstance(v, int) and v >= 0 for v in counts.values())
        assert counts["chain.validate"] > 0 and counts["circle.s_u"] > 0
        assert counts["exactlin.IntMatrix.__matmul__"] > 0
    # Z factors, the field path does not
    assert here["workloads"]["flavors_z"]["exactlin._factor"] > 0
    assert here["workloads"]["ladder_fp"]["exactlin._factor"] == 0
