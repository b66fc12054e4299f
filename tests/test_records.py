"""Record behaviour.  Value records are NamedTuples: read-only, equal and
hashed by their fields, with the dataclass-style repr.  Records that
validate their values refuse a bad value however they are built, copies
included.  The one record with private state, the flavor bundle, is a
slotted class that refuses assignment, and its copy rebuilds its
p-morphisms."""

from pathlib import Path

import pytest

from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, InducedMap)
from artifact.circle import (MINUS, Flavor, MissingUAction, ShiftReport,
                             fundamental_sequences, s_u)
from artifact.cli import Manifest, parse
from artifact.connsum import SumInput
from artifact.flavors import (BalancedComponents, FlavorBundle, TowerParams,
                              assemble, tower_model)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"


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
        # value, validating and slotted records alike
        bundle = assemble(golden_one())
        fs = fundamental_sequences(s_u(u_point()))
        for record, field in ((Check("d.d=0", True), "ok"),
                              (Check("eq:E-sq1", False), "witness"),
                              (MINUS, "tag"), (Manifest("verify"), "fmt"),
                              (golden_one(), "p"),
                              (SumInput(u_point(), u_point()), "C1"),
                              (bundle, "k_p"), (bundle, "_pms"),
                              (fs, "seq1"), (fs, "seq2")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.no_such_field = None
        with pytest.raises(AttributeError):
            del bundle.k_p

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
            ShiftReport(None)
        assert ShiftReport(0, {}).witness_ok is None
        # ok: matched, with no refuted cycle-level witness
        assert ShiftReport(0, {}).ok and ShiftReport(1, {}, True).ok
        assert not ShiftReport(None, {}).ok
        assert not ShiftReport(0, {}, witness_ok=False).ok


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
        b2 = b._replace(k_p=b.k_p + bump)
        assert type(b2) is FlavorBundle
        assert b2.hat is b.hat and b2.components is b.components
        assert b2.pm_p() is not b.pm_p()
        assert not b2.pm_p().verify() and b.pm_p().verify()
        # untouched maps still give p-morphisms of their own that verify
        assert b2.pm_i() is not b.pm_i() and b2.pm_i().verify()

    def test_equality_is_identity(self):
        b = assemble(tower_model(TowerParams(base=u_point(), n=2)))
        assert b == b and b != b._replace()
        # a NamedTuple of sequences compares its complexes by identity
        C = s_u(u_point())
        fs = fundamental_sequences(C)
        assert fs == fs and fs != fundamental_sequences(C)
