"""Tests for the balanced flavor assembly: the blockwise hat/bar/check
complexes, the i/j/p morphisms with homotopy witnesses, the mapping-cone
identity pack, the reducible tower model, the four-flavor wrapper, and the
comparison ladder."""

import random
import sys
from pathlib import Path

import pytest

from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, PMorphism, commutator, homology,
                            induced_on_homology, validate)
from artifact import circle, exactlin, flavors
from artifact.circle import (ALL_FLAVORS, MINUS, PLUS, INFINITY,
                             NotAPMorphism, Window, _su_map,
                             fundamental_sequences, koszul_b, s_u, s_u_map,
                             safe_degrees)
from artifact.cli import parse
from artifact.connsum import FilteredComplex, case1_check, cm_flavors
from artifact.exactlin import AbelianGroup
from artifact.flavors import (AssemblyInconsistent, BalancedComponents,
                              FlavorBundle, TowerParams, assemble,
                              cone_identities, cone_total, four_flavors,
                              ladder_check, tower_model)

from helpers import (count_les_tags, laurent_form, random_complex,
                     random_pmorphism)

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def point_base(p=0):
    m = GradedModule((("a", 0),))
    return ChainComplex(m, GradedMap.zero(m, m, -1), p=p)


def mod2_base(p=0):
    """b(1) -> a(0) with coefficient 2."""
    m = GradedModule((("a", 0), ("b", 1)))
    return ChainComplex(m, GradedMap(m, m, -1, {("b", "a"): 2}), p=p)


def acyclic_base(p=0):
    """c(1) -> d(0) with coefficient 1."""
    m = GradedModule((("c", 1), ("d", 0)))
    return ChainComplex(m, GradedMap(m, m, -1, {("c", "d"): 1}), p=p)


def decoupled_components(rng, p=0):
    """Independent random U-complexes on the three pieces, no cross blocks."""
    pieces = [random_complex(rng, max_pieces=2, degree_span=(-2, 3), p=p,
                             with_u=True).complex for _ in range(3)]
    co, cs, cu = pieces
    return BalancedComponents.zeros(
        co.module, cs.module, cu.module, p=p,
        d_oo=co.d, u_oo=co.u_action,
        dbar_ss=cs.d, ubar_ss=cs.u_action,
        dbar_uu=cu.d, ubar_uu=cu.u_action)


def golden_one():
    """o(1); s0(0); u0(0), u1(2); d(o)=s0 into s, s0 -> u0 reducibly,
    U(u1)=s0 across u -> s."""
    c_o = GradedModule((("o", 1),))
    c_s = GradedModule((("s0", 0),))
    c_u = GradedModule((("u0", 0), ("u1", 2)))
    return BalancedComponents.zeros(
        c_o, c_s, c_u,
        d_os=GradedMap(c_o, c_s, -1, {("o", "s0"): 1}),
        dbar_su=GradedMap(c_s, c_u, 0, {("s0", "u0"): 1}),
        u_us=GradedMap(c_u, c_s, -2, {("u1", "s0"): 1}))


def golden_two():
    """Nonzero K_i: u-generators hitting both o and s pieces."""
    c_o = GradedModule((("o0", 0),))
    c_s = GradedModule((("s_a", 0),))
    c_u = GradedModule((("u_1", 1), ("u_b", 1), ("u_c", 2)))
    return BalancedComponents.zeros(
        c_o, c_s, c_u,
        d_uo=GradedMap(c_u, c_o, -1, {("u_1", "o0"): 1}),
        d_us=GradedMap(c_u, c_s, -1, {("u_b", "s_a"): 1}),
        u_uo=GradedMap(c_u, c_o, -2, {("u_c", "o0"): 1}))


def golden_three():
    """Coupled tower: mod-2 base, N=2, one irreducible generator feeding the
    tower through both d and U (the U block balances the commutator)."""
    tw = tower_model(TowerParams(base=mod2_base(), n=2))
    c_o = GradedModule((("o", 3),))
    return BalancedComponents.zeros(
        c_o, tw.c_s, tw.c_u,
        dbar_ss=tw.dbar_ss, dbar_uu=tw.dbar_uu,
        ubar_ss=tw.ubar_ss, ubar_su=tw.ubar_su, ubar_uu=tw.ubar_uu,
        d_os=GradedMap(c_o, tw.c_s, -1, {("o", "a.x-1"): 2}),
        u_os=GradedMap(c_o, tw.c_s, -2, {("o", "b.x0"): 1}))


def coupled_acyclic():
    """Acyclic base tower with an irreducible generator attached; the bar
    homology vanishes identically."""
    tw = tower_model(TowerParams(base=acyclic_base(), n=2))
    c_o = GradedModule((("o", 3),))
    return BalancedComponents.zeros(
        c_o, tw.c_s, tw.c_u,
        dbar_ss=tw.dbar_ss, dbar_uu=tw.dbar_uu,
        ubar_ss=tw.ubar_ss, ubar_su=tw.ubar_su, ubar_uu=tw.ubar_uu,
        d_os=GradedMap(c_o, tw.c_s, -1, {("o", "d.x-1"): 1}),
        u_os=GradedMap(c_o, tw.c_s, -2, {("o", "c.x0"): 1}))


class TestAssemble:
    def test_decoupled_random(self):
        rng = random.Random(71)
        for k in range(12):
            p = 2 if k % 3 == 2 else 0
            bundle = assemble(decoupled_components(rng, p))
            for cx in (bundle.hat, bundle.bar, bundle.check):
                assert validate(cx).ok
            assert bundle.pm_i().verify()
            assert bundle.pm_j().verify()
            assert bundle.pm_p().verify()

    def test_decoupled_hat_is_diagonal(self):
        rng = random.Random(5)
        comps = decoupled_components(rng)
        bundle = assemble(comps)
        for s, t in bundle.hat.d.entries:
            assert s.split(".", 1)[0] == t.split(".", 1)[0]
        # the u-side of the hat differential carries the assembly sign
        for (s, t), v in comps.dbar_uu.entries.items():
            assert bundle.hat.d.entries[(f"u.{s}", f"u.{t}")] == -v

    def test_golden_one_entries(self):
        b = assemble(golden_one())
        assert b.hat.d.image_of("o.o") == {"u.u0": -1}
        assert b.hat.u_action.image_of("u.u1") == {"u.u0": -1}
        assert b.p.image_of("o.o") == {"s.s0": 1}
        assert b.p.image_of("u.u1") == {"u.u1": 1}
        assert b.j.image_of("o.o") == {"o.o": 1}
        assert b.j.image_of("s.s0") == {"u.u0": -1}
        assert b.i.image_of("s.s0") == {"s.s0": 1}
        assert b.i.image_of("u.u1") == {}
        assert b.k_p.image_of("u.u1") == {"s.s0": 1}
        assert b.k_i.image_of("u.u1") == {"s.s0": -1}
        assert b.k_j.entries == {}
        # grading rule: the bar complex shifts the u piece down by one
        assert b.bar.module.degree_of("u.u1") == 1
        assert b.bar.module.degree_of("u.u0") == -1
        assert b.hat.module.degree_of("u.u1") == 2

    def test_golden_two_entries(self):
        b = assemble(golden_two())
        assert b.hat.d.image_of("u.u_1") == {"o.o0": 1}
        assert b.i.image_of("u.u_1") == {"o.o0": -1}
        assert b.i.image_of("u.u_b") == {"s.s_a": -1}
        assert b.k_i.image_of("u.u_c") == {"o.o0": -1}
        assert b.k_p.entries == {}

    def test_golden_three_assembles(self):
        b = assemble(golden_three())
        # RU3 balance: the two o -> s U-contributions cancel, so the check
        # complex still commutes with its U
        assert b.check.u_action.image_of("o.o") == {"s.b.x0": 1}
        assert validate(b.check).ok

    def test_perturbed_reducible_cross_block_cites_U_i(self):
        m = GradedModule((("a", 0), ("b", 1)))
        base = ChainComplex(m, GradedMap.zero(m, m, -1))
        tw = tower_model(TowerParams(base=base, n=2))
        bad = GradedMap(tw.c_s, tw.c_u, 0, {("a.x0", "b.x1"): 1})
        comps = BalancedComponents.zeros(
            tw.c_o, tw.c_s, tw.c_u,
            dbar_ss=tw.dbar_ss, dbar_uu=tw.dbar_uu,
            ubar_ss=tw.ubar_ss, ubar_su=tw.ubar_su, ubar_uu=tw.ubar_uu,
            dbar_su=bad)
        with pytest.raises(AssemblyInconsistent) as ei:
            assemble(comps)
        assert "eq:U-i" in str(ei.value)
        assert ei.value.tag.startswith("eq:U-i")

    def test_mod_grading_rejected(self):
        with pytest.raises(ChainError):
            BalancedComponents.zeros(
                GradedModule((("x", 0),), modulus=2),
                GradedModule(()), GradedModule(()))


class TestConeIdentities:
    def test_decoupled_random(self):
        rng = random.Random(23)
        for _ in range(8):
            rep = cone_identities(assemble(decoupled_components(rng)))
            assert rep.ok, rep.failures()

    def test_goldens(self):
        for comps in (golden_one(), golden_two(), golden_three()):
            rep = cone_identities(assemble(comps))
            assert rep.ok, rep.failures()

    def test_cone_total_validates(self):
        b = assemble(golden_three())
        EC = cone_total(b)
        assert validate(EC).ok

    def test_perturbed_k_p_fails_reduced_identity(self):
        b = assemble(golden_one())
        bump = GradedMap(b.hat.module, b.bar.module, -2, {("u.u1", "s.s0"): 1})
        rep = cone_identities(b._replace(k_p=b.k_p + bump))
        assert not rep.ok
        assert "eq:S2:rho2" in {c.tag for c in rep.failures()}


class TestFieldPathFactorsNothing:
    """Over F_p the certificates need no solve and no factorization: LES
    nodes and induced-map flags are decided by ranks; a change that puts
    one back on this path fails here."""

    def test_cone_identities_and_ladder_on_f2(self, monkeypatch):
        import artifact
        callers = {"snf": [], "solve": []}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("artifact.")]
        for name in callers:
            original = getattr(artifact.exactlin, name)

            def wrapped(*args, _name=name, _original=original, **kwargs):
                callers[_name].append(sys._getframe(1).f_code.co_name)
                return _original(*args, **kwargs)

            for m in modules:
                if getattr(m, name, None) is original:
                    monkeypatch.setattr(m, name, wrapped)
        b = assemble(tower_model(TowerParams(base=mod2_base(p=2), n=3)))
        assert cone_identities(b).ok
        assert ladder_check(b).ok
        assert callers["solve"] == []
        assert callers["snf"] == []

    def test_no_certificate_reaches_the_factorization(self, monkeypatch):
        # ``exactlin._factor`` is the one Smith form, over Z only: every
        # F_p homology table and certificate runs with it raising
        def refuse(*args, **kwargs):
            raise AssertionError("an F_p path factored")

        monkeypatch.setattr(exactlin, "_factor", refuse)
        corpus = Path(__file__).resolve().parent.parent / "corpus" / "v1"
        periodic = parse(str(corpus / "f2periodic.txt"))
        assert periodic.p == 2 and homology(periodic).is_trivial()
        bundles = [assemble(parse(str(corpus / "f2pair.txt"))),
                   assemble(tower_model(TowerParams(base=mod2_base(p=3),
                                                    n=3)))]
        for b in bundles:
            assert b.hat.p in (2, 3)
            assert cone_identities(b).ok and ladder_check(b).ok
        rng = random.Random(19)
        for _ in range(6):
            C = random_complex(rng, max_pieces=4, p=3, with_u=True).complex
            S = s_u(C)
            assert four_flavors(C).ok
            assert koszul_b(S).ok
            assert cm_flavors(laurent_form(S)).ok
            assert case1_check(C, 4).ok
        # the same patch stops a Z complex with torsion
        with pytest.raises(AssertionError, match="factored"):
            homology(mod2_base())


class TestOneDoublingPerCertificate:
    """``cone_identities`` and ``ladder_check`` double each complex of a
    bundle once between them, keep the doubles in the bundle, and hand them
    to ``circle._su_map``; every p-morphism is still verified before it is
    doubled, and a refusal keeps nothing."""

    def test_su_map_of_given_doubles_is_s_u_map(self):
        rng = random.Random(71)
        for i in range(12):
            p = (0, 2, 3)[i % 3]
            C1, C2 = (random_complex(rng, max_pieces=3, degree_span=(-2, 3),
                                     p=p, with_u=True).complex
                      for _ in range(2))
            P = random_pmorphism(rng, C1, C2)
            assert P.verify()
            assert _su_map(P, s_u(P.source), s_u(P.target)) == s_u_map(P)

    def test_perturbed_k_p_refused_by_ladder(self):
        b = assemble(golden_one())
        bump = GradedMap(b.hat.module, b.bar.module, -2, {("u.u1", "s.s0"): 1})
        with pytest.raises(NotAPMorphism):
            ladder_check(b._replace(k_p=b.k_p + bump))

    def test_unverified_i_leaves_the_doubled_identities_unchecked(
            self, monkeypatch):
        # i's witness broken only where cone_identities doubles i, so k and
        # l still verify and only _su_map can refuse it
        b = assemble(golden_three())
        bump = GradedMap(b.bar.module, b.check.module, -1,
                         {("s.a.x-1", "s.b.x0"): 1})
        monkeypatch.setattr(FlavorBundle, "pm_i", lambda self: PMorphism(
            self.bar, self.check, self.i, self.k_i + bump))
        assert not b.pm_i().verify()
        assert cone_identities(b).failures() == [
            Check(tag, False) for tag in ("eq:S1", "eq:1:SU", "eq:S2",
                                          "eq:S2:line2")]

    def test_four_doublings_for_four_complexes(self, monkeypatch):
        doubled = []
        original = circle.s_u

        def counting(C):
            doubled.append(C)
            return original(C)

        for module in (circle, flavors):
            monkeypatch.setattr(module, "s_u", counting)
        b = assemble(tower_model(TowerParams(base=mod2_base(p=2), n=3)))
        assert cone_identities(b).ok
        assert ladder_check(b).ok
        # hat, bar, check and the cone, once per bundle: the ladder reads
        # what the cone identities doubled
        assert len(doubled) == 4
        for C in (b.hat, b.bar, b.check):
            assert sum(D is C for D in doubled) == 1
        # a copy doubles its own pieces, once, whichever certificate asks
        # first
        c = b._replace(k_p=b.k_p)
        assert ladder_check(c).ok and cone_identities(c).ok
        assert len(doubled) == 8
        assert all(sum(D is C for D in doubled[4:]) == 1
                   for C in (c.hat, c.bar, c.check))
        assert (flavors._doubled_pieces(c) is flavors._doubled_pieces(c)
                is not flavors._doubled_pieces(b))

    def test_a_refused_doubling_is_not_kept(self):
        b = assemble(golden_one())
        bump = GradedMap(b.hat.module, b.bar.module, -2,
                         {("u.u1", "s.s0"): 1})
        c = b._replace(k_p=b.k_p + bump)
        for _ in range(2):
            with pytest.raises(NotAPMorphism):
                ladder_check(c)
        assert c._doubled is None


class TestOneVerificationPerPMorphism:
    """Each bundle hands out one p-morphism per comparison map, and a
    p-morphism keeps its verdict: a tower case verifies i, j and p in
    ``assemble`` and k and l in ``cone_identities``, and nothing again."""

    def test_five_verifications_per_case(self, monkeypatch):
        verified = []
        original = PMorphism.u_defect

        def counting(self):
            verified.append(self)
            return original(self)

        monkeypatch.setattr(PMorphism, "u_defect", counting)
        b = assemble(tower_model(TowerParams(base=mod2_base(p=2), n=3)))
        assert verified == [b.pm_i(), b.pm_j(), b.pm_p()]
        assert b.pm_i() is b.pm_i() and b.pm_p() is b.pm_p()
        assert cone_identities(b).ok
        assert ladder_check(b).ok
        assert len(verified) == 5 and len(set(map(id, verified))) == 5

    def test_replaced_bundle_gets_fresh_pmorphisms(self):
        b = assemble(golden_one())
        assert b.pm_p().verify()
        bump = GradedMap(b.hat.module, b.bar.module, -2, {("u.u1", "s.s0"): 1})
        b2 = b._replace(k_p=b.k_p + bump)
        assert b2.pm_p() is not b.pm_p()
        assert not b2.pm_p().verify() and b.pm_p().verify()


class TestConeLawWitnesses:
    """A failing law of ``cone_identities`` carries the first nonzero entry
    of its defect, as every law of ``validate`` does."""

    def test_failing_law_carries_its_defect_witness(self):
        b = assemble(golden_one())
        bump = GradedMap(b.hat.module, b.bar.module, -2, {("u.u1", "s.s0"): 1})
        b2 = b._replace(k_p=b.k_p + bump)
        checks = {c.tag: c for c in cone_identities(b2).checks}
        EC = cone_total(b2)
        defect = commutator(EC.d, EC.u_action)
        assert checks["eq:U-cone"] == Check(
            "eq:U-cone", False, defect.nonzero_witness(b2.hat.p))
        assert checks["eq:U-cone"].witness is not None
        laws = ("eq:1", "eq:2", "eq:3", "eq:4", "eq:S2:rho1", "eq:S2:rho2",
                "eq:S2:rho3", "eq:U-cone")
        assert not checks["eq:S2:rho2"].ok
        for tag in laws:
            assert (checks[tag].witness is None) == checks[tag].ok
        # the unperturbed bundle passes every law with no witness
        assert all(c.witness is None for c in cone_identities(b).checks)


def _tower_bundles():
    for p in (2, 3):
        for n in (3, 4, 5):
            yield assemble(tower_model(TowerParams(base=mod2_base(p=p),
                                                   n=n)))


class TestSecondSequenceWhereReported:
    """``ladder_check`` reports only the first fundamental sequence of each
    doubled complex and builds neither the second nor a hat slice;
    ``four_flavors`` and ``cm_flavors`` report both and build both before
    they return."""

    def test_ladder_builds_no_second_sequence(self, monkeypatch):
        tags = count_les_tags(monkeypatch, circle, flavors)
        sliced = []
        original = circle._expand

        def recording(generators, terms, layout, flavor_tags, win, p):
            sliced.extend(flavor_tags)
            return original(generators, terms, layout, flavor_tags, win, p)

        monkeypatch.setattr(circle, "_expand", recording)
        for b in _tower_bundles():
            tags.clear()
            sliced.clear()
            assert ladder_check(b).ok
            assert tags == {"eq:E-sq1": 3, "eq:induced-KM1": 1,
                            "eq:KM-bottom": 1}
            assert sliced and "hat" not in sliced

    def test_reporters_return_with_both_sequences_built(self, monkeypatch):
        tags = count_les_tags(monkeypatch, circle, flavors)
        C = random_complex(random.Random(73), max_pieces=3,
                           degree_span=(-2, 3), with_u=True).complex
        F = FilteredComplex([("a", 0), ("b", 1)], {("a", "b"): [(1, 1)]})
        for build, second in (
                (lambda: four_flavors(C).sequences, "eq:E-sq2"),
                (lambda: cm_flavors(F, Window(-5, 5)), "eq:fund-short:2")):
            tags.clear()
            fs = build()
            assert tags[second] == 1
            assert fs.seq2 is fs.seq2 and fs.les2 is fs.les2
            assert fs.delta2 is fs.delta2 and fs.ok
            assert tags[second] == 1

    def test_window_safe_sets_match_safe_degrees(self):
        for b in _tower_bundles():
            for cx in (b.hat, b.bar, b.check):
                S = s_u(cx)
                for win in (circle._resolve_window(S.module.degrees(), None),
                            Window(-3, 3), Window(0, 1)):
                    assert fundamental_sequences(S, win).safe == {
                        fl.tag: set(safe_degrees(S, fl, win))
                        for fl in ALL_FLAVORS}


def _slice_flavor(cx):
    """The flavor of an e_y slice, read off its generators' exponents."""
    ns = {int(n.rsplit(".u", 1)[1]) for n in cx.module.names()}
    return ("minus" if min(ns) >= 1 else "plus" if max(ns) <= 0
            else "infinity")


def _mutating(slotwise, flavor, how):
    """``_slotwise`` with the first entry of every leg out of a ``flavor``
    slice dropped (``how`` "lose") or raised by one ("change")."""
    def mutated(f, source, target):
        g = slotwise(f, source, target)
        if g.entries and _slice_flavor(source) == flavor:
            ent = dict(g.entries)
            k = next(iter(ent))
            if how == "lose":
                del ent[k]
            else:
                ent[k] += 1
            g = GradedMap(g.source, g.target, g.degree, ent)
        return g
    return mutated


def _squares_by_products(bundle, win, slotwise):
    """The chain-level squares of ``ladder_check`` by graded products with
    the inclusions and projections, on legs made by ``slotwise``: the
    oracle for the squares read by name."""
    (su_hat, su_bar, su_check, su_i, su_j, su_p, *_) = \
        flavors._doubled_pieces(bundle)
    slices = {key: {fl.tag: circle.e_y(S, fl, win)
                    for fl in (MINUS, INFINITY, PLUS)}
              for key, S in (("hat", su_hat), ("bar", su_bar),
                             ("check", su_check))}

    def name_map(a, b):
        return GradedMap(a.module, b.module, 0,
                         {(n, n): 1 for n in a.module.names()})

    out = {}
    for tag, f, a, b in (("p", su_p, "hat", "bar"), ("i", su_i, "bar", "check"),
                         ("j", su_j, "check", "hat")):
        leg = {fl: slotwise(f, slices[a][fl], slices[b][fl])
               for fl in ("minus", "infinity", "plus")}
        inc_a, inc_b = (name_map(slices[k]["minus"], slices[k]["infinity"])
                        for k in (a, b))
        prj_a, prj_b = (name_map(slices[k]["plus"], slices[k]["infinity"])
                        for k in (a, b))
        prj_a, prj_b = (circle._transpose(m) for m in (prj_a, prj_b))
        out[f"eq:KM:{tag}:splice"] = ((inc_b @ leg["minus"])
                                      - (leg["infinity"] @ inc_a)
                                      ).is_zero_mod(bundle.hat.p)
        out[f"eq:KM:{tag}:slice"] = ((prj_b @ leg["infinity"])
                                     - (leg["plus"] @ prj_a)
                                     ).is_zero_mod(bundle.hat.p)
    return out


class TestLadderSquaresByName:
    """The ladder's splice and slice squares read the infinity leg between
    slices by name.  Each verdict equals its graded-product form over Z,
    F_2 and F_3, and a leg whose minus (plus) slice loses or changes an
    entry fails its splice (slice) square."""

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_equal_to_products_and_caught_on_mutated_legs(self, monkeypatch,
                                                          p):
        b = assemble(tower_model(TowerParams(base=mod2_base(p=p), n=3)))
        win = circle._resolve_window(
            s_u(cone_total(b)).module.degrees(), None)
        original = flavors._slotwise
        for flavor, how in ((None, None), ("minus", "lose"),
                            ("minus", "change"), ("plus", "lose"),
                            ("plus", "change")):
            slotwise = (original if flavor is None
                        else _mutating(original, flavor, how))
            monkeypatch.setattr(flavors, "_slotwise", slotwise)
            got = {c.tag: c.ok for c in ladder_check(b).checks
                   if c.tag.endswith(("splice", "slice"))}
            assert got == _squares_by_products(b, win, slotwise)
            kind = {"minus": "splice", "plus": "slice"}.get(flavor)
            assert {tag for tag, ok in got.items() if not ok} == (
                {f"eq:KM:{leg}:{kind}" for leg in "pij"} if kind else set())


class TestTowerModel:
    def test_point_shape(self):
        tw = tower_model(TowerParams(base=point_base(), n=3))
        b = assemble(tw)
        degs = sorted(b.bar.module.degree_of(n) for n in b.bar.module.names())
        assert degs == [-6, -4, -2, 0, 2, 4, 6]
        assert len(b.hat.module.names()) == 3
        assert sorted(b.hat.module.degree_of(n)
                      for n in b.hat.module.names()) == [-5, -3, -1]

    def test_point_su_edge_classes(self):
        for n in (2, 3, 4):
            b = assemble(tower_model(TowerParams(base=point_base(), n=n)))
            H = homology(s_u(b.bar))
            assert H.degrees() == [-2 * n, 2 * n + 1]
            assert H[-2 * n] == Z and H[2 * n + 1] == Z

    def test_point_su_edge_classes_mod2(self):
        b = assemble(tower_model(TowerParams(base=point_base(p=2), n=3)))
        H = homology(s_u(b.bar))
        assert H.degrees() == [-6, 7]

    def test_u_invertible_inside_window(self):
        b = assemble(tower_model(TowerParams(base=point_base(), n=3)))
        ind = induced_on_homology(b.bar.u_action, b.bar, b.bar, (-4, 6))
        assert ind.iso_on((-4, 6))

    def test_truncation_at_top(self):
        tw = tower_model(TowerParams(base=point_base(), n=3))
        assert tw.ubar_uu.image_of("a.x3") == {}
        assert tw.ubar_uu.image_of("a.x2") == {"a.x3": 1}
        assert tw.ubar_su.image_of("a.x0") == {"a.x1": 1}

    def test_mod2_base_bar_homology(self):
        b = assemble(tower_model(TowerParams(base=mod2_base(), n=2)))
        H = homology(b.bar)
        assert H.degrees() == [-4, -2, 0, 2, 4]
        for j in H.degrees():
            assert H[j] == Z2

    def test_acyclic_base_bar_vanishes(self):
        b = assemble(tower_model(TowerParams(base=acyclic_base(), n=2)))
        assert homology(b.bar).is_trivial()
        assert homology(s_u(b.bar)).is_trivial()

    def test_hat_differential_sign(self):
        b = assemble(tower_model(TowerParams(base=mod2_base(), n=2)))
        assert b.hat.d.image_of("u.b.x1") == {"u.a.x1": -2}

    def test_higher_terms(self):
        m = GradedModule((("e", 2), ("f", 0)))
        base = ChainComplex(m, GradedMap.zero(m, m, -1))
        phi = GradedMap(m, m, 2, {("f", "e"): 1})
        tw = tower_model(TowerParams(base=base, n=3, higher_terms=((2, phi),)))
        assert tw.ubar_su.image_of("f.x0") == {"f.x1": 1, "e.x2": 1}
        assert tw.ubar_ss.image_of("f.x-2") == {"f.x-1": 1, "e.x0": 1}
        # jump entries that overshoot the truncation are dropped too
        assert tw.ubar_uu.image_of("f.x2") == {"f.x3": 1}
        rep = cone_identities(assemble(tw))
        assert rep.ok, rep.failures()

    def test_depth_must_be_at_least_two(self):
        with pytest.raises(ChainError):
            tower_model(TowerParams(base=point_base(), n=1))

    def test_higher_term_degree_checked(self):
        m = GradedModule((("e", 2), ("f", 0)))
        base = ChainComplex(m, GradedMap.zero(m, m, -1))
        phi = GradedMap(m, m, -2, {("e", "f"): 1})
        with pytest.raises(ChainError):
            tower_model(TowerParams(base=base, n=2, higher_terms=((2, phi),)))


class TestFourFlavors:
    def su_point(self, p=0):
        m = GradedModule((("e", 0),))
        return ChainComplex(m, GradedMap.zero(m, m, -1),
                            u_action=GradedMap.zero(m, m, -2), p=p)

    def test_point_tables(self):
        C = self.su_point()
        ff = four_flavors(C)
        S = s_u(C)
        assert ff.ok
        assert ff.hat_table == homology(S)
        assert ff.hat_table.degrees() == [0, 1]
        win = ff.window
        for j in safe_degrees(S, MINUS, win):
            assert ff.tables["minus"][j] == (Z if j == -1
                                             else AbelianGroup(0))
        for j in safe_degrees(S, INFINITY, win):
            assert ff.tables["infinity"][j].is_trivial()
        for j in safe_degrees(S, PLUS, win):
            assert ff.tables["plus"][j] == (Z if j == 0 else AbelianGroup(0))

    def test_acyclic_all_trivial(self):
        m = GradedModule((("c", 1), ("d", 0)))
        C = ChainComplex(m, GradedMap(m, m, -1, {("c", "d"): 1}),
                         u_action=GradedMap.zero(m, m, -2))
        ff = four_flavors(C)
        S = s_u(C)
        assert ff.ok
        assert ff.hat_table.is_trivial()
        for flavor in (MINUS, INFINITY, PLUS):
            for j in safe_degrees(S, flavor, ff.window):
                assert ff.tables[flavor.tag][j].is_trivial()

    def test_hat_table_matches_su_random(self):
        rng = random.Random(301)
        for k in range(10):
            p = 2 if k % 4 == 3 else 0
            C = random_complex(rng, max_pieces=3, degree_span=(-2, 3), p=p,
                               with_u=True).complex
            ff = four_flavors(C)
            assert ff.hat_table == homology(s_u(C))
            assert ff.ok


class TestLadder:
    def test_point_tower(self):
        b = assemble(tower_model(TowerParams(base=point_base(), n=3)))
        rep = ladder_check(b, Window(-5, 6))
        assert rep.ok
        assert rep.bar_vanishing
        assert rep.bar_u_iso is True
        assert [c.tag for c in rep.checks[:8]] == [
            "eq:induced-KM1", "eq:induced-KM1:delta", "eq:KM:j-iso",
            "eq:E-sq1:hat", "eq:E-sq1:bar", "eq:E-sq1:check",
            "eq:KM-bottom", "eq:KM:p:splice"]

    def test_coupled_golden(self):
        b = assemble(golden_three())
        rep = ladder_check(b, Window(-4, 5))
        assert rep.ok
        # the bar homology carries torsion inside this window, so the j
        # isomorphism clause does not apply
        assert not rep.bar_vanishing
        assert "eq:KM:j-iso" not in {c.tag for c in rep.checks}

    def test_coupled_acyclic_j_iso(self):
        b = assemble(coupled_acyclic())
        rep = ladder_check(b, Window(-3, 4))
        assert rep.ok
        assert rep.bar_vanishing
        assert Check("eq:KM:j-iso", True) in rep.checks

    def test_connecting_squares_are_checked(self):
        b = assemble(tower_model(TowerParams(base=point_base(), n=3)))
        rep = ladder_check(b, Window(-5, 6))
        # one check per square name, in order of first appearance
        legs = ("p", "i", "j")
        assert [c.tag for c in rep.checks[7:]] == (
            [f"eq:KM:{leg}:{kind}" for leg in legs
             for kind in ("splice", "slice")]
            + [f"eq:KM:{leg}:connecting" for leg in legs])
