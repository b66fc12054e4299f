"""Record behaviour.  Value records are NamedTuples: read-only, equal and
hashed by their fields, with the dataclass-style repr.  Records that
validate their values refuse a bad value however they are built, copies
included.  Values with memos or private state are slotted ``_Sealed``
classes: every one refuses assignment, new attributes and deletion, only
``_Sealed`` says so, and each memo fills once.  A flavor bundle built again
from its fields rebuilds its p-morphisms.

Three ``ast`` guards keep the package's shape: only ``_Sealed`` refuses
assignment, the CLI builds no Check, and every function, method and class
of the package is run by a program path, exported or traced by perfbench."""

import ast
import importlib.util
import typing
from pathlib import Path
from typing import Dict, List

import pytest

from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, HomologyTable, InducedMap,
                            PMorphism, homology, present_homology, reduction)
from artifact.circle import (MINUS, Flavor, MissingUAction, ShiftReport,
                             Window, fundamental_sequences, s_u)
from artifact.cli import Manifest, _Report
from artifact.connsum import FilteredComplex, SumInput
from artifact.exactlin import (AbelianGroup, IntMatrix, PresentedGroup,
                               _Sealed)
from artifact.flavors import (BalancedComponents, FlavorBundle, TowerParams,
                              _doubled_pieces, assemble, tower_model)

import artifact
from helpers import identity_pmorphism, parse, replace_bundle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "v1"


def u_point(p=0):
    """One generator in degree 0, zero d and zero U."""
    m = GradedModule((("a", 0),))
    return ChainComplex(m, GradedMap.zero(m, m, -1),
                        u_action=GradedMap.zero(m, m, -2), p=p)


def point_without_u():
    m = GradedModule((("a", 0),))
    return ChainComplex(m, GradedMap.zero(m, m, -1))


def golden_one() -> BalancedComponents:
    return parse(str(CORPUS / "golden_one.txt"))


class TestValueRecords:
    def test_assignment_is_refused(self):
        # value and validating records alike; sealed values below
        fs = fundamental_sequences(s_u(u_point()))
        for record, field in ((Check("d.d=0", True), "ok"),
                              (Check("eq:E-sq1", False), "witness"),
                              (MINUS, "tag"), (Manifest("verify"), "fmt"),
                              (golden_one(), "p"),
                              (SumInput(u_point(), u_point()), "C1"),
                              (fs, "seq1"), (fs, "seq2")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.no_such_field = None

    def test_equality_and_hash_follow_the_fields(self):
        pairs = ((Check("eq:KM:p:splice", True),
                  Check("eq:KM:p:splice", False)),
                 (Check("d.d=0", False, ("b", "a")),
                  Check("d.d=0", False, ("b", "c"))),
                 # a sequence with no node checked, and one that failed
                 (Check("eq:E-sq2", False),
                  Check("eq:E-sq2", False, ("minus@u-image", 0))),
                 (Flavor("minus"), Flavor("plus")),
                 (Manifest("ladder", ("x.txt",)),
                  Manifest("ladder", ("y.txt",))))
        for record, other in pairs:
            twin = type(record)(*record)
            assert twin is not record
            assert twin == record and hash(twin) == hash(record)
            assert other != record
        assert Flavor("minus") is not MINUS and Flavor("minus") == MINUS
        assert len({Flavor("hat"), Flavor("hat"), MINUS}) == 2

    def test_repr_is_unchanged(self):
        assert repr(Check("eq:E-sq2", False, ("hat", -1))) == (
            "Check(tag='eq:E-sq2', ok=False, witness=('hat', -1))")
        assert repr(Check("eq:KM:j:connecting", True)) == (
            "Check(tag='eq:KM:j:connecting', ok=True, witness=None)")
        assert repr(MINUS) == "Flavor(tag='minus')" and str(MINUS) == "minus"

    def test_dict_fields_are_required(self):
        with pytest.raises(TypeError):
            InducedMap(0)
        with pytest.raises(TypeError):
            ShiftReport(None, {})
        # ok: the certificate's Check holds; matched: a degree was compared
        passed, failed = Check("t", True), Check("t", False, 0)
        assert ShiftReport(0, {}, passed).ok and ShiftReport(1, {}, passed).ok
        assert ShiftReport(1, {}, passed).witness_ok
        assert not ShiftReport(None, {}, Check("t", False)).matched
        assert ShiftReport(0, {}, failed).matched
        assert not ShiftReport(0, {}, failed).ok


class TestValidatingRecords:
    """Every way of building a validating record runs its check: the
    constructor, ``_make`` and ``_replace``."""

    def test_flavor(self):
        with pytest.raises(ChainError, match="unknown flavor 'bogus'"):
            Flavor("bogus")
        with pytest.raises(ChainError, match="unknown flavor"):
            Flavor._make(["bogus"])
        with pytest.raises(ChainError, match="unknown flavor"):
            MINUS._replace(tag="bogus")
        assert MINUS._replace(tag="hat") == Flavor("hat")

    def test_sum_input_factor_without_u(self):
        good = SumInput(u_point(), u_point())
        for build in (lambda: SumInput(u_point(), point_without_u()),
                      lambda: SumInput._make([point_without_u(), u_point()]),
                      lambda: good._replace(C2hat=point_without_u())):
            with pytest.raises(MissingUAction, match="needs a U-action"):
                build()
        with pytest.raises(ChainError, match="ring mismatch"):
            good._replace(C1=u_point(p=2))

    def test_window(self):
        with pytest.raises(ChainError, match="window 2..1 is empty"):
            Window(2, 1)
        with pytest.raises(ChainError, match="window 2..1 is empty"):
            Window._make([2, 1])
        with pytest.raises(ChainError, match="window 3..1 is empty"):
            Window(0, 1)._replace(lo=3)
        w = Window(0, 1)._replace(hi=4)
        assert w == Window(0, 4) == (0, 4) and (w.lo, w.hi) == (0, 4)

    def test_misshaped_components(self):
        bc = golden_one()
        wrong_target = GradedMap.zero(bc.c_o, bc.c_s, -1)
        wrong_degree = GradedMap.zero(bc.c_o, bc.c_o, -2)
        with pytest.raises(ChainError, match="d_oo must map c_o -> c_o"):
            BalancedComponents.zeros(bc.c_o, bc.c_s, bc.c_u,
                                     d_oo=wrong_target)
        with pytest.raises(ChainError, match="d_oo must map c_o -> c_o"):
            bc._replace(d_oo=wrong_target)
        with pytest.raises(ChainError, match="raw degree -1"):
            BalancedComponents._make(
                [wrong_degree if name == "d_oo" else value
                 for name, value in zip(bc._fields, bc)])
        assert bc._replace(p=2).p == 2


class TestSlottedRecords:
    def test_bundle_copy_rebuilds_its_pmorphisms(self):
        b = assemble(golden_one())
        bump = GradedMap(b.hat.module, b.bar.module, -2,
                         {("u.u1", "s.s0"): 1})
        b2 = replace_bundle(b, k_p=b.k_p + bump)
        assert type(b2) is FlavorBundle
        assert b2.hat is b.hat and b2.components is b.components
        assert b2.pm_p() is not b.pm_p()
        assert not b2.pm_p().verify() and b.pm_p().verify()
        # untouched maps still give p-morphisms of their own that verify
        assert b2.pm_i() is not b.pm_i() and b2.pm_i().verify()

    def test_equality_is_identity(self):
        b = assemble(tower_model(TowerParams(base=u_point(), n=2)))
        assert b == b and b != replace_bundle(b)
        # a NamedTuple of sequences compares its complexes by identity
        C = s_u(u_point())
        fs = fundamental_sequences(C)
        assert fs == fs and fs != fundamental_sequences(C)


def sealed_values():
    """(value, one of its fields) for every sealed type, the identity
    matrix and a presentation from ``present_homology`` among them."""
    bundle = assemble(golden_one())
    C = bundle.hat
    pg = next(iter(present_homology(C).values()))
    return [(C.module, "generators"), (C.d, "entries"), (C, "d"),
            (homology(C), "table"), (bundle.pm_p(), "phi"),
            (IntMatrix(2, 3), "entries"), (IntMatrix.identity(3), "rows"),
            (AbelianGroup(1, (2,)), "torsion"),
            (FilteredComplex([("e", 0)], {}), "d_entries"),
            (bundle, "k_p"), (pg, "group")]


class TestSealedValues:
    def test_every_sealed_type_is_covered(self):
        types = {type(value) for value, _ in sealed_values()}
        assert types >= {GradedModule, GradedMap, ChainComplex, HomologyTable,
                         PMorphism, IntMatrix, type(IntMatrix.identity(1)),
                         AbelianGroup, FilteredComplex, FlavorBundle,
                         PresentedGroup}
        assert all(issubclass(t, _Sealed) for t in types)

    def test_assignment_new_attributes_and_deletion_are_refused(self):
        for value, field in sealed_values():
            before = getattr(value, field)
            with pytest.raises(AttributeError, match="is read-only"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match="is read-only"):
                value.no_such_field = None
            with pytest.raises(AttributeError, match="is read-only"):
                delattr(value, field)
            assert getattr(value, field) is before, type(value)

    def test_memos_fill_once(self):
        bundle = assemble(golden_one())
        C = bundle.hat
        assert C._reduced is None and not C._valid
        assert reduction(C) is reduction(C) is C._reduced
        homology(C)
        assert C._valid
        assert C.d._rows() is C.d._rows()
        good, bad = identity_pmorphism(C), replace_bundle(bundle, 
            k_p=bundle.k_p + bundle.k_p).pm_p()
        for pm, verdict in ((good, True), (bad, False)):
            assert pm._verdict is None
            assert pm.verify() is verdict and pm._verdict is verdict
            assert pm.verify() is verdict
        assert _doubled_pieces(bundle) is _doubled_pieces(bundle)


def test_only_sealed_refuses_assignment():
    """No class of the package but ``_Sealed`` defines ``__setattr__`` or
    ``__delattr__``: read-only values inherit the one refusal."""
    hooks = {"__setattr__", "__delattr__"}
    found = []
    for path in sorted((ROOT / "src" / "artifact").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {item.name}
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = (item.targets if isinstance(item, ast.Assign)
                               else [item.target])
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                else:
                    continue
                found += [(path.name, node.name, n) for n in names & hooks]
    assert sorted(found) == [("exactlin.py", "_Sealed", "__delattr__"),
                             ("exactlin.py", "_Sealed", "__setattr__")]


def test_the_cli_builds_no_check():
    """The front end renders the engine's Checks and constructs none: no
    call in ``cli.py`` names ``Check``."""
    path = ROOT / "src" / "artifact" / "cli.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "Check"
                  or getattr(node.func, "attr", None) == "Check")]
    assert calls == []
    # the Checks it renders are still named by their type
    assert typing.get_type_hints(_Report.check)["checks"] is Check


# Names that perfbench/tracing.py wraps by attribute and that no program
# path reaches: they stay in the package while the benchmark traces them.
TRACED = frozenset({"from_pair", "lattices_equal", "subgroups_equal"})


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node


def _references(tree: ast.AST):
    """(name, line) of every ``ast.Name`` and ``ast.Attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced(sources: Dict[str, str], readers: Dict[str, str],
                 allowed=TRACED) -> List[str]:
    """``module:name`` of each non-dunder function, method and class
    defined in ``sources`` (module -> text) that is not named outside its
    own body in ``sources`` or ``readers``, not a public name of
    ``artifact._EXPORTS`` and not in ``allowed``.  Names are matched, not
    bindings: any attribute or name spelled alike counts as a use."""
    trees = {m: ast.parse(text, m) for m, text in sources.items()}
    uses: Dict[str, List[tuple]] = {}
    for m, tree in list(trees.items()) + [
            (m, ast.parse(text, m)) for m, text in readers.items()]:
        for name, line in _references(tree):
            uses.setdefault(name, []).append((m, line))
    exported = {n for names in artifact._EXPORTS.values() for n in names}
    found = []
    for m, tree in trees.items():
        for node in _definitions(tree):
            if node.name in exported or node.name in allowed:
                continue
            if not any(um != m or not node.lineno <= line <= node.end_lineno
                       for um, line in uses.get(node.name, ())):
                found.append(f"{m}:{node.name}")
    return found


def _package_sources():
    package = ROOT / "src" / "artifact"
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    # the benchmark's cases and oracles read some results by attribute
    readers = {f"perfbench/{p.name}": p.read_text()
               for p in sorted((ROOT / "perfbench").glob("*.py"))}
    return sources, readers


def test_every_member_is_run_exported_or_traced():
    """No member of the package that only tests reach: move it to
    ``tests/helpers.py`` or delete it."""
    assert unreferenced(*_package_sources()) == []


def test_the_member_guard_names_a_planted_function():
    sources, readers = _package_sources()
    planted = dict(sources)
    planted["chain.py"] += (
        "\n\ndef _planted(x):\n    return _planted(x - 1) if x else 0\n")
    assert unreferenced(planted, readers) == ["chain.py:_planted"]
    # a traced name passes only by the allowlist
    assert sorted(unreferenced(sources, readers, allowed=frozenset())) == [
        "exactlin.py:from_pair", "exactlin.py:lattices_equal",
        "exactlin.py:subgroups_equal"]


def test_the_traced_allowlist_is_wrapped_by_perfbench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {attr.split(".")[-1] for _, _, attr, _ in tracing.TARGETS}
    assert TRACED <= wrapped
