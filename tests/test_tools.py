"""Smoke tests of the scripts in ``tools/``.  Nothing else runs them.
``bench_counts.py`` reaches into the program: it wraps
``exactlin.snf``, ``IntMatrix.__matmul__``, ``chain.validate``,
``chain._reduce``, ``chain._lattice_exactness`` and ``circle.s_u`` by name
and reads ``Reduction.complex``, ``iota_cols`` and ``pi_rows``, so a
change to those names fails here.  Its test counts every family at a small
size, twice, a stub factorization and a stub reduction check the bits it
reads, and a ``scale_ladder`` case is counted with its assembly.
``cli_sweep.py`` runs the CLI in fresh processes on a few of its runs,
and ``ab_inprocess.py`` runs two cases of ``ladder_fp`` on this checkout
against itself, after a full untimed round, and ``scale_ladder`` at depth
3, each with the A/A side that the script loads beside them.  Both of
these run on a copy of ``src`` with bytecode writing on in the test, and
must leave no ``__pycache__`` in it."""

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
        # two cases on all three sides: A, its A/A copy and B
        assert len(runs) == 12
        lines += list(produced)
    assert len(runs) == 18
    number, ratio = r"\d+\.\d{4}", r"(\d+\.\d{3})"
    times = rf"a_s={number} a2_s={number} b_s={number}"
    assert len(lines) == 4
    for r, line in enumerate(lines[:2], 1):
        assert re.fullmatch(rf"round={r} {times} ratio={ratio} "
                            rf"aa_ratio={ratio}", line), line
    assert re.fullmatch(rf"median {times} ratio={ratio} aa_ratio={ratio} "
                        r"rounds=2", lines[2]), lines[2]
    m = re.fullmatch(rf"spread q1={ratio} q3={ratio} aa_q1={ratio} "
                     rf"aa_q3={ratio}", lines[3])
    assert m, lines[3]
    q1, q3, aa_q1, aa_q3 = map(float, m.groups())
    assert q1 <= q3 and aa_q1 <= aa_q3
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
    sizes = {"flavors_z": 2, "ladder_fp": 2, "corpus_cli": 3, "scale_z": 100,
             "scale_ladder": 3}
    outs = [tmp_path / f"run{k}.json" for k in (1, 2)]
    for out in outs:
        assert bc.main([str(out), f"here={root}"]
                       + [f"--sizes={k}={n}" for k, n in sizes.items()]) == 0
    first, second = (json.loads(out.read_text()) for out in outs)
    assert first == second
    assert set(first) == {"schema", "seed", "counted", "checkouts"}
    assert (first["schema"], first["seed"]) == (6, 1)
    counted = ["exactlin.snf", "exactlin.snf.max_bits",
               "exactlin.IntMatrix.__matmul__",
               "exactlin.PresentedGroup.from_pieces",
               "chain.GradedMap.__matmul__", "chain._defect",
               "chain._HomologyArrow._push", "chain._isolate.heap_pops",
               "chain.validate", "chain._reduce", "chain._reduce.gens_in",
               "chain._reduce.gens_out", "chain._reduce.map_bits",
               "chain._lattice_exactness", "circle.s_u"]
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
        assert counts[name]["cases"] == min(sizes[name], 2 if name in (
            "flavors_z", "ladder_fp") else 3 if name == "corpus_cli" else 1)
        assert all(isinstance(v, int) and v >= 0
                   for v in counts[name].values())
        # every presentation from pieces, in the reductions: at least the
        # trivial group of each
        assert counts[name]["exactlin.PresentedGroup.from_pieces"] > \
            counts[name]["chain._reduce"]
        assert counts[name]["chain._HomologyArrow._push"] > 0
        assert counts[name]["chain.GradedMap.__matmul__"] > 0
        assert counts[name]["chain._defect"] > 0
        assert counts[name]["chain.validate"] > 0
        assert counts[name]["circle.s_u"] > 0
        assert counts[name]["exactlin.IntMatrix.__matmul__"] > 0
        assert counts[name]["chain._reduce"] > 0
        assert 0 < counts[name]["chain._reduce.gens_out"] <= \
            counts[name]["chain._reduce.gens_in"]
    # Z factors and reads its long exact sequences on lattices, the field
    # path does neither
    for name in ("flavors_z", "corpus_cli", "scale_z"):
        assert counts[name]["exactlin.snf"] > 0
        assert counts[name]["exactlin.snf.max_bits"] >= (
            name != "corpus_cli") + 1
        assert counts[name]["chain._lattice_exactness"] > 0
    # only a Z reduction isolates its pieces, and scale_z's has non-units
    assert counts["scale_z"]["chain._isolate.heap_pops"] > 0
    for name in ("ladder_fp", "scale_ladder"):
        assert counts[name]["exactlin.snf"] == 0
        assert counts[name]["chain._lattice_exactness"] == 0
        assert counts[name]["chain._isolate.heap_pops"] == 0


def test_bench_counts_counts_map_bits():
    # a stub reduction whose pi row holds -2**70 and whose iota column
    # holds 5: the largest entry of either map, over every reduction
    from artifact import chain
    bc = _bench_counts()
    m = chain.GradedModule([("a", 0), ("b", 1)])
    C = chain.ChainComplex(m, chain.GradedMap(m, m, -1))

    def stub(C, pi_entry):
        return chain.Reduction(C, {0: {0: 1, 1: 5}}, {1: {0: pi_entry}}, {},
                               None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_reduce", stub)
        counts = bc.counts_of(lambda: [chain._reduce(C, e)
                                       for e in (3, -2 ** 70, 1)])
        # the counting wrappers are gone once the counts are made, and a
        # counted classmethod is a classmethod again
        assert chain._reduce is stub
        assert isinstance(vars(chain.PresentedGroup)["from_pieces"],
                          classmethod)
    assert (counts["chain._reduce"], counts["chain._reduce.gens_in"],
            counts["chain._reduce.map_bits"]) == (3, 6, 71)


def test_bench_counts_reads_snf_bits():
    # stub Smith forms whose input, left or right transform holds the
    # largest entry: 3, then 2**70 in the right transform
    from artifact import exactlin as el
    bc = _bench_counts()
    M, one = el.IntMatrix(1, 1, {(0, 0): 3}), el.IntMatrix.identity(1)
    for right, bits in ((one, 2), (one.scale(2 ** 70), 71)):
        result = el.SNFResult((3,), one, right)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(el, "snf", lambda M, result=result: result)
            counts = bc.counts_of(lambda: el.snf(M))
        assert (counts["exactlin.snf"],
                counts["exactlin.snf.max_bits"]) == (1, bits)


def test_bench_counts_scale_ladder_counts_its_assembly(monkeypatch):
    # a scale_ladder case is the tower's parameters, so the counted run
    # assembles the bundle: beyond the ladder check of a bundle assembled
    # outside the count, it forms the 9 defects of a passing assemble
    # (3 chain maps, 3 U-witnesses, 3 commutators)
    from artifact import flavors
    bc = _bench_counts()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    params, = bc._scale_ladder(1, 3)
    assert isinstance(params, flavors.TowerParams) and params.n == 3
    bundle = flavors.assemble(flavors.tower_model(params))
    ladder = bc.counts_of(lambda: flavors.ladder_check(bundle))
    whole = bc.counts_of(lambda: bc._run_scale_ladder(params))
    assert whole["chain._defect"] - ladder["chain._defect"] == 9
    assert whole["chain.GradedMap.__matmul__"] > \
        ladder["chain.GradedMap.__matmul__"]
