"""Tests for the Laurent-coefficient side: filtered complexes and their
four flavor expansions with both fundamental sequences, the connected-sum
product complex, the two worked one-factor cases, and the candidate
gluing-map verifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import circle
from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, _HomologyArrow, exactness_pair,
                            homology, is_chain_map, validate)
from artifact.circle import (_LAURENT_LAYOUT, ALL_FLAVORS, HAT, MINUS,
                             ShiftReport, Window, _window_safe, e_y,
                             fundamental_sequences, s_u, safe_degrees)
from artifact.connsum import (ConnSumMaps, FilteredComplex,
                              PositivityViolated, SumInput,
                              case1_check, case2_check, check_positivity,
                              cm_flavors, product_complex, verify_sum_maps)
from artifact.exactlin import AbelianGroup, IntMatrix, snf
from artifact.chain import _presentation
from artifact.flavors import _chase, _square_commutes, four_flavors

from helpers import (case2_input, diagonal, fixed_node, group_sum,
                     laurent_form, lattice_exactness_oracle,
                     perturb_right_side, random_complex, ses_verdicts)

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def laurent_safe(F, tag, win):
    return _window_safe([d for _, d in F.generators],
                        _LAURENT_LAYOUT.ranges[tag], win)


def ucomplex(gens, d=None, u=None, p=0):
    m = GradedModule(gens)
    return ChainComplex(m, GradedMap(m, m, -1, d or {}),
                        u_action=GradedMap(m, m, -2, u or {}), p=p)


def random_filtered(rng, p=0, pieces=4):
    """Singles, exponent-shifted arrows, and cancelling diamonds with
    nonnegative exponents, degrees scattered over a small band."""
    gens = []
    entries = {}
    idx = 0
    for _ in range(rng.randint(1, pieces)):
        kind = rng.choice(("single", "arrow", "arrow", "diamond"))
        base = rng.randint(-3, 4)
        if kind == "single":
            gens.append((f"g{idx}", base))
            idx += 1
        elif kind == "arrow":
            n = rng.randint(0, 2)
            a, b = f"g{idx}", f"g{idx + 1}"
            idx += 2
            gens += [(a, base), (b, base - 1 + 2 * n)]
            entries[(a, b)] = [(n, rng.choice((1, -1, 2, 3)))]
        else:
            m1, n1 = rng.randint(0, 2), rng.randint(0, 2)
            m2 = rng.randint(0, m1 + n1)
            n2 = m1 + n1 - m2
            a, b1, b2, c = (f"g{idx}", f"g{idx + 1}", f"g{idx + 2}",
                            f"g{idx + 3}")
            idx += 4
            gens += [(a, base), (b1, base - 1 + 2 * m1),
                     (b2, base - 1 + 2 * m2), (c, base - 2 + 2 * (m1 + n1))]
            a1, b1c = rng.choice((1, -1, 2)), rng.choice((1, -1, 2))
            entries[(a, b1)] = [(m1, a1)]
            entries[(a, b2)] = [(m2, 1)]
            entries[(b1, c)] = [(n1, b1c)]
            entries[(b2, c)] = [(n2, -a1 * b1c)]
    return FilteredComplex(gens, entries, p=p)


class TestFilteredComplex:
    def test_ring_must_be_z_or_a_prime_field(self):
        gens, d = [("a", 1), ("b", 0)], {("a", "b"): [(0, 2)]}
        for p in (1, 4, 9, -3):
            with pytest.raises(ChainError):
                FilteredComplex(gens, d, p=p)
        for p in (0, 2, 3, 5):
            assert FilteredComplex(gens, d, p=p).p == p

    def test_homogeneity_enforced(self):
        with pytest.raises(ChainError, match="homogeneity"):
            FilteredComplex([("a", 0), ("b", 0)], {("a", "b"): [(0, 1)]})

    def test_square_zero_enforced(self):
        with pytest.raises(ChainError, match="d.d"):
            FilteredComplex([("a", 2), ("b", 1), ("c", 0)],
                            {("a", "b"): [(0, 1)], ("b", "c"): [(0, 1)]})

    def test_diamond_cancels(self):
        F = FilteredComplex(
            [("a", 2), ("b1", 1), ("b2", 3), ("c", 2)],
            {("a", "b1"): [(0, 1)], ("a", "b2"): [(1, 1)],
             ("b1", "c"): [(1, 2)], ("b2", "c"): [(0, -2)]})
        assert check_positivity(F).ok

    def test_entries_normalize(self):
        F = FilteredComplex([("a", 1), ("b", 0)],
                            {("a", "b"): [(0, 1), (0, -1)]})
        assert F.d_entries == {}
        F2 = FilteredComplex([("a", 1), ("b", 0)],
                             {("a", "b"): [(0, 1), (0, 2)]})
        assert F2.d_entries == {("a", "b"): ((0, 3),)}

    def test_duplicate_and_unknown_names(self):
        with pytest.raises(ChainError, match="duplicate"):
            FilteredComplex([("a", 0), ("a", 1)], {})
        with pytest.raises(ChainError, match="unknown"):
            FilteredComplex([("a", 0)], {("a", "zz"): [(0, 1)]})

    def test_positivity_trivial_cases(self):
        allzero = FilteredComplex([("a", 1), ("b", 0)],
                                  {("a", "b"): [(0, 1)]})
        assert check_positivity(allzero) == Check("positivity", True)
        neg = FilteredComplex([("b", 0), ("a", -3)],
                              {("b", "a"): [(-1, 1)]})
        assert check_positivity(neg) == Check(
            "positivity", False, "negative differential exponent at "
            "('b', 'a')")
        mixed = FilteredComplex([("c", 0), ("a", 0), ("b", 1)],
                                {("a", "b"): [(1, 1)]})
        assert check_positivity(mixed).ok

    def test_field_coefficients_reduce(self):
        F = FilteredComplex([("a", 1), ("b", 0)], {("a", "b"): [(0, 2)]},
                            p=2)
        assert F.d_entries == {}


class TestCMFlavors:
    def test_free_one_generator(self):
        F = FilteredComplex([("e", 0)], {})
        fl = cm_flavors(F, Window(-6, 4))
        assert fl.ok
        hm = homology(fl.complexes["minus"])
        assert hm.degrees() == [-6, -4, -2, 0]
        assert all(hm[d] == Z for d in (-6, -4, -2, 0))
        assert homology(fl.complexes["hat"]).degrees() == [0]
        assert homology(fl.complexes["hat"])[0] == Z
        assert sorted(fl.complexes["plus"].module.degrees()) == [2, 4]

    def test_u_multiple_dies_in_hat(self):
        F = FilteredComplex([("a", 0), ("b", 1)], {("a", "b"): [(1, 1)]})
        fl = cm_flavors(F, Window(-5, 5))
        assert fl.complexes["hat"].d.is_zero_mod(0)
        assert fl.ok
        assert homology(fl.complexes["minus"]).degrees() == [1]
        assert homology(fl.complexes["hat"])[1] == Z

    def test_positivity_is_a_precondition(self):
        neg = FilteredComplex([("b", 0), ("a", -3)],
                              {("b", "a"): [(-1, 1)]})
        with pytest.raises(PositivityViolated) as exc:
            cm_flavors(neg)
        assert str(exc.value) == check_positivity(neg).witness

    def test_random_sequences_certify(self):
        rng = random.Random(71)
        for trial in range(12):
            F = random_filtered(rng, p=2 if trial % 3 == 2 else 0)
            fl = cm_flavors(F)
            assert fl.seq1.exact and fl.seq2.exact, f"trial {trial}"
            assert fl.ok, (trial, fl.checks)
            minus, inf = fl.complexes["minus"], fl.complexes["infinity"]
            assert is_chain_map(fl.seq1.inject, minus, inf)
            for cx in fl.complexes.values():
                assert validate(cx).ok

    def test_u_action_commutes_with_les_maps(self):
        rng = random.Random(5)
        for trial in range(4):
            F = random_filtered(rng, pieces=3)
            fl = cm_flavors(F)
            minus, inf, plus, hat = (fl.complexes[t] for t in
                                     ("minus", "infinity", "plus", "hat"))
            # chain level: the u-shift is literally the same map on both
            # sides of the splice and the slice
            lhs = inf.u_action @ fl.seq1.inject
            rhs = fl.seq1.inject @ minus.u_action
            assert (lhs - rhs).is_zero_mod(F.p)
            lhs = plus.u_action @ fl.seq1.project
            rhs = fl.seq1.project @ inf.u_action
            assert (lhs - rhs).is_zero_mod(F.p)
            # homology level: u commutes with the first connecting map and
            # kills the image of the second
            um = _HomologyArrow(minus.u_action, minus, minus)
            up = _HomologyArrow(plus.u_action, plus, plus)
            win = fl.window
            sm = set(laurent_safe(F, "minus", win))
            sp = set(laurent_safe(F, "plus", win))
            sh = set(laurent_safe(F, "hat", win))
            for j in range(win.lo, win.hi + 1):
                if (j in sp and (j - 2) in sp and (j - 1) in sm
                        and (j - 3) in sm):
                    assert _square_commutes(
                        plus, j, [fl.delta1, um],
                        [up, fl.delta1], minus, j - 3)
                if j in sh and (j + 1) in sm and (j - 1) in sm:
                    spg = _presentation(hat, j)
                    tpg = _presentation(minus, j - 1)
                    for k in range(spg.rank_coords()):
                        e = IntMatrix(spg.rank_coords(), 1, {(k, 0): 1})
                        assert tpg.columns_are_zero(
                            _chase(e, j, [fl.delta2, um]))

    def test_infinity_u_is_degreewise_bijection_inside(self):
        F = FilteredComplex([("e", 0)], {})
        fl = cm_flavors(F, Window(-4, 4))
        inf = fl.complexes["infinity"]
        names = set(inf.module.names())
        for name in names:
            img = inf.u_action.image_of(name)
            if inf.module.degree_of(name) - 2 >= -4:
                assert list(img.values()) == [1]


class TestEnginesAgree:
    def test_cm_flavors_match_fundamental_sequences(self):
        """The Laurent expansion of s_u(C) is the u-range expansion with
        exponents lowered by one, so minus, infinity and plus agree after a
        shift of two degrees and hat agrees on the nose."""
        rng = random.Random(97)
        compared = 0
        for trial in range(30):
            p = (0, 2, 3)[trial % 3]
            S = s_u(random_complex(rng, max_pieces=3, p=p,
                                   with_u=True).complex)
            F = laurent_form(S)
            fs = fundamental_sequences(S)
            win = fs.window
            cm = cm_flavors(F, win)
            for flavor in ALL_FLAVORS:
                shift = 0 if flavor is HAT else 2
                h_ey = homology(fs.complexes[flavor.tag])
                h_cm = homology(cm.complexes[flavor.tag])
                ey_safe = set(safe_degrees(S, flavor, win))
                for j in laurent_safe(F, flavor.tag, win):
                    if j - shift in ey_safe:
                        assert h_cm[j] == h_ey[j - shift], (
                            f"trial {trial} {flavor} degree {j}")
                        compared += 1
        assert compared > 500


    def test_sequences_by_names_agree_with_lattices(self):
        # the Laurent engine's short exact sequences, on random filtered
        # complexes and on Laurent forms of Y-complexes
        rng = random.Random(98)
        verdicts = []
        for trial in range(12):
            p = (0, 2, 3)[trial % 3]
            S = s_u(random_complex(rng, max_pieces=3, p=p,
                                   with_u=True).complex)
            for F in (random_filtered(rng, p=p), laurent_form(S)):
                for win in (None, Window(-3, 3)):
                    verdicts += ses_verdicts(cm_flavors(F, win))
        assert len(verdicts) > 300
        assert all(n == lat for n, lat in verdicts)


class TestLatticeVerdict:
    """Over Z an LES node reads ``contained`` off G.F and then the two
    arrows' kept factorizations; the four-factorization oracle gives the
    same verdict at every node of both flavor engines, and at each node
    with F replaced by 0, by the identity of the middle group and by 2F
    (on arrows of their own, so nothing kept is reused)."""

    def test_z_nodes_agree_with_four_factorizations(self, monkeypatch):
        nodes, torsion, broken = [], 0, set()
        original = circle.exactness_pair

        def both(incoming, outgoing, j):
            nonlocal torsion
            verdict = original(incoming, outgoing, j)
            mid = _presentation(incoming.target, j)
            n = mid.rank_coords()
            if n:
                assert incoming.target.p == 0
                tgt = _presentation(outgoing.target, j + outgoing.degree)
                F = incoming.matrix(j - incoming.degree)
                G = outgoing.matrix(j)
                assert verdict == lattice_exactness_oracle(F, G, mid, tgt, 0)
                for bad in (IntMatrix(n, F.cols), IntMatrix.identity(n),
                            F.scale(2)):
                    got = exactness_pair(
                        *fixed_node(bad, G, mid, tgt), 0)
                    assert got == lattice_exactness_oracle(bad, G, mid, tgt,
                                                           0)
                    broken.add(got)
                nodes.append(verdict)
                torsion += bool(mid.torsion_moduli)
            return verdict

        monkeypatch.setattr(circle, "exactness_pair", both)
        rng = random.Random(1204)
        for _ in range(6):
            C = random_complex(rng, max_pieces=4, with_u=True).complex
            assert four_flavors(C).sequences.ok
            cm_flavors(laurent_form(s_u(C)))
            cm_flavors(random_filtered(rng))
        assert len(nodes) > 250 and torsion > 100
        assert {(True, False), (False, False)} <= broken


class TestProduct:
    def test_point_second_factor(self):
        C1 = ucomplex([("a", 0), ("b", 1)], d={("b", "a"): 2})
        P = product_complex(SumInput(C1, ucomplex([("e", 0)])))
        assert homology(P) == homology(C1)
        assert P.u_action.is_zero_mod(0)

    def test_u_cup_difference_form(self):
        C1 = ucomplex([("e", 0)])
        model = ucomplex([("x0", 0), ("x1", -2)], u={("x0", "x1"): 1})
        P = product_complex(SumInput(C1, model))
        assert P.u_action.image_of("e|x0") == {"e|x1": -1}
        assert P.u_action.image_of("e|x1") == {}

    def test_random_products_validate(self):
        rng = random.Random(23)
        for trial in range(6):
            p = 2 if trial % 3 == 2 else 0
            C1 = random_complex(rng, max_pieces=3, degree_span=(-2, 3),
                                p=p, with_u=True).complex
            C2 = random_complex(rng, max_pieces=2, degree_span=(-1, 2),
                                p=p, with_u=True).complex
            P = product_complex(SumInput(C1, C2))
            assert validate(P).ok

    def test_missing_u_rejected(self):
        m = GradedModule((("a", 0),))
        bare = ChainComplex(m, GradedMap.zero(m, m, -1))
        with pytest.raises(ChainError):
            SumInput(bare, ucomplex([("e", 0)]))

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ChainError, match="ring"):
            SumInput(ucomplex([("a", 0)], p=0), ucomplex([("e", 0)], p=2))


class TestSuSum:
    def test_block_form(self):
        C1 = ucomplex([("a", 0), ("b", 1)], d={("b", "a"): 1})
        model = ucomplex([("x0", 0), ("x1", -2)], u={("x0", "x1"): 1})
        P = product_complex(SumInput(C1, model))
        S = s_u(P)
        for g in P.module.names():
            img = S.d.image_of(g)
            plain = {t: v for t, v in img.items() if not t.endswith(".y")}
            wrapped = {t[:-2]: v for t, v in img.items() if t.endswith(".y")}
            assert plain == P.d.image_of(g)
            assert wrapped == P.u_action.image_of(g)
            assert S.d.image_of(f"{g}.y") == \
                {f"{t}.y": -v for t, v in P.d.image_of(g).items()}


class TestCase1:
    def test_point_oracle(self):
        r = case1_check(ucomplex([("e", 0)]), 4)
        assert r.shift == 1
        assert set(r.per_degree) == {0, 1}
        assert r.per_degree[0] == (Z, Z) and r.per_degree[1] == (Z, Z)

    def test_acyclic(self):
        C = ucomplex([("c", 1), ("d", 0)], d={("c", "d"): 1})
        r = case1_check(C, 4)
        assert r.shift is not None and r.per_degree == {}

    def test_mod_two(self):
        C = ucomplex([("a", 0), ("b", 1)], d={("b", "a"): 2})
        r = case1_check(C, 4)
        assert r.shift == 1
        assert r.per_degree[0] == (Z2, Z2) and r.per_degree[1] == (Z2, Z2)

    def test_random_inputs_share_the_shift(self):
        rng = random.Random(17)
        found = 0
        for trial in range(4):
            p = 2 if trial == 3 else 0
            C1 = random_complex(rng, max_pieces=3, degree_span=(-2, 3),
                                p=p, with_u=True).complex
            r = case1_check(C1, 6)
            assert r.shift is not None
            if r.per_degree:
                assert r.shift == 1
                found += 1
        assert found >= 2

    def test_the_model_side_is_h_c1_plus_its_shift(self):
        # the evaluation map's target C1 + C1[1] has H_k = H_k(C1) +
        # H_{k-1}(C1), computed here without it
        rng = random.Random(23)
        for trial in range(6):
            p = (0, 2, 3)[trial % 3]
            C1 = random_complex(rng, max_pieces=3, p=p, with_u=True).complex
            H1 = homology(C1)
            r = case1_check(C1, 4)
            assert r.ok and r.shift == 1, trial
            for k, (model, computed) in r.per_degree.items():
                assert model == group_sum(H1[k], H1[k - 1], p) == computed

    def test_the_law_is_judged_above_the_truncation(self):
        # U^2 g0 = g2 in utower, so at N = 1 the evaluation map misses
        # U1^2 g0 at (g0|x1); that generator lies below the trusted range
        C = ucomplex([("g0", 0), ("g1", -2), ("g2", -4), ("h0", 0),
                      ("h1", 1)], d={("h1", "h0"): 3},
                     u={("g0", "g1"): 1, ("g1", "g2"): 1})
        Z3 = AbelianGroup(1, (3,))
        assert case1_check(C, 1) == ShiftReport(
            1, {0: (Z3, Z3), 1: (Z3, Z3)}, Check("case1", True))

    def test_untrusted_partners_are_left_out(self):
        # complexes 3 and 4 have a model class in degree -2 whose partner
        # at N = 3 lies below the trusted range; it is left out, not a miss
        rng = random.Random(19)
        cases = [random_complex(rng, max_pieces=4, p=3, with_u=True).complex
                 for _ in range(6)]
        for i in (3, 4):
            r = case1_check(cases[i], 3)
            assert r.ok and r.shift == 1, i
            # N = 4 trusts that partner too, and adds exactly its comparison
            wider = case1_check(cases[i], 4).per_degree
            assert min(r.per_degree) == -1 and -2 in wider, i
            assert r.per_degree == {k: v for k, v in wider.items()
                                    if k != -2}, i


class TestComparedDegrees:
    """``_certified`` compares, at the map's degree s, every degree k
    trusted on the model side with k + s trusted on the computed side; here
    the computed side is trusted from 0 and the model side everywhere, as
    in case 1, and the map a degree +1 renaming of generators."""

    TRUSTED = (range(-3, 4), range(0, 4))   # model, computed
    COMPUTED = {-1: ["Z"], 1: ["Z"], 2: ["Z2"]}
    MODEL = {-2: ["Z"], 0: ["Z"], 1: ["Z2"]}

    @staticmethod
    def complex_of(table):
        """A generator z<j>_<i> per Z at degree j, and s<j>_<i> -> 2 t<j>_<i>
        per Z/2."""
        gens, d = [], {}
        for j, groups in table.items():
            for i, g in enumerate(groups):
                if g == "Z":
                    gens.append((f"z{j}_{i}", j))
                else:
                    gens += [(f"t{j}_{i}", j), (f"s{j}_{i}", j + 1)]
                    d[(f"s{j}_{i}", f"t{j}_{i}")] = 2
        m = GradedModule(gens)
        return ChainComplex(m, GradedMap(m, m, -1, d))

    def certify(self, model, computed):
        M, K = self.complex_of(model), self.complex_of(computed)
        # x<k>_<i> -> x<k+1>_<i> for the class at k (s sits one above its
        # t), s negated, since f.d + d.f = 0 for a map of odd degree
        up = {}
        for name, deg in M.module.generators:
            k = deg - 1 if name[0] == "s" else deg
            head, i = name[0], name.split("_")[1]
            other = f"{head}{k + 1}_{i}"
            if other in K.module:
                up[(name, other)] = -1 if head == "s" else 1
        return circle._certified("t", 1, up, M, K, self.TRUSTED)

    def test_the_untrusted_classes_are_neither_compared_nor_listed(self):
        # the computed class at -1 is untrusted, and the model class at -2
        # has its partner there
        expected = ShiftReport(1, {0: (Z, Z), 1: (Z2, Z2)}, Check("t", True))
        assert self.certify(self.MODEL, self.COMPUTED) == expected
        # moving a class into an untrusted degree changes nothing
        assert self.certify(self.MODEL,
                            {**self.COMPUTED, -3: ["Z2"]}) == expected
        assert self.certify({**self.MODEL, -3: ["Z"]},
                            self.COMPUTED) == expected

    @pytest.mark.parametrize("side,degree", [
        ("left", 1), ("left", 2), ("right", 0), ("right", 1)])
    def test_a_compared_group_plus_z_fails(self, side, degree):
        # left is the computed side, right the model side; the added Z is
        # a class the map misses, so the first degree it is compared at
        # is the witness
        computed, model = dict(self.COMPUTED), dict(self.MODEL)
        table = computed if side == "left" else model
        table[degree] = table[degree] + ["Z"]
        r = self.certify(model, computed)
        assert r.shift == 1 and not r.ok
        assert r.check.witness == (degree - 1 if side == "left" else degree)


def smith_torsion(moduli):
    """The invariant factors >= 2 of the sum of Z/m, from the Smith form of
    the diagonal matrix of the moduli."""
    return [f for f in snf(diagonal(list(moduli))).factors if f > 1]


class TestGroupSum:
    @given(st.lists(st.integers(1, 60), max_size=5),
           st.lists(st.integers(1, 60), max_size=5),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_smith_form_of_the_diagonal(self, ma, mb, ra, rb):
        a = AbelianGroup(ra, smith_torsion(ma))
        b = AbelianGroup(rb, smith_torsion(mb))
        assert group_sum(a, b, 0) == AbelianGroup(
            ra + rb, smith_torsion(a.torsion + b.torsion))
        # over F_p only the dimensions add
        for p in (2, 3):
            assert group_sum(AbelianGroup(ra), AbelianGroup(rb), p) == (
                AbelianGroup(ra + rb))


class TestCase2:
    def test_hat_is_the_identity_identification(self):
        C = case2_input()
        assert case2_check(C, HAT) == Check("eq:S=eq:E", True)
        SUn = s_u(C.with_actions(u_action=C.u_action.scale(-1)))
        win = circle._resolve_window(SUn.module.degrees(), None)
        right = e_y(SUn, HAT, win)
        assert right.d.entries == {
            (f"{s}.u0", f"{t}.u0"): v for (s, t), v in SUn.d.entries.items()}

    def test_single_generator_minus_block(self):
        C = ucomplex([("e", 0)])
        assert case2_check(C, MINUS, (-4, -1)).ok
        SUn = s_u(C)
        right = e_y(SUn, MINUS, Window(-4, -1))
        assert sorted(right.module.generators) == [
            ("e.u1", -2), ("e.u2", -4), ("e.y.u1", -1), ("e.y.u2", -3)]
        assert right.d.entries == {("e.u1", "e.y.u2"): 1}

    def test_all_flavors_on_randoms(self):
        rng = random.Random(41)
        for trial in range(6):
            p = 2 if trial % 3 == 2 else 0
            C = random_complex(rng, max_pieces=3, degree_span=(-2, 3),
                               p=p, with_u=True).complex
            for flavor in ALL_FLAVORS:
                assert case2_check(C, flavor).ok, f"trial {trial} {flavor}"

    def test_an_empty_window_compares_nothing_and_fails(self):
        for flavor in (MINUS, HAT):
            assert case2_check(ucomplex([("e", 0)]), flavor, (20, 21)) == \
                Check("eq:S=eq:E", False,
                      "nothing to compare in the window 20..21")

    @pytest.mark.parametrize("change,witness", [
        ("count", "generator counts differ: 6 vs 7"),
        ("partner", "no partner for 'u.u0|a' (expected 'a.u0')"),
        ("degree", "degree mismatch at 'u.u0|a' -> 'a.u0'"),
        ("entry", "differential entry mismatch at ('c.u0' -> 'a.y.u0'): "
                  "-1 vs -3"),
    ])
    def test_a_perturbed_right_side_fails_with_its_mismatch(
            self, monkeypatch, change, witness):
        perturb_right_side(monkeypatch, change)
        assert case2_check(case2_input(), HAT) == \
            Check("eq:S=eq:E", False, witness)


class TestSumMaps:
    def _acyclic_setup(self):
        C1 = ucomplex([("c", 1), ("d", 0)], d={("c", "d"): 1})
        S = SumInput(C1, ucomplex([("e", 0)]))
        P = product_complex(S)
        sharp = ucomplex([("s1", 1), ("s0", 0)], d={("s1", "s0"): 1})
        return S, P, sharp

    def test_zero_maps_with_contractions(self):
        S, P, sharp = self._acyclic_setup()
        sm, pm = sharp.module, P.module
        z = GradedMap.zero
        a = GradedMap(pm, pm, 1, {("d|e", "c|e"): -1})
        M = ConnSumMaps(sharp,
                        V0=z(sm, pm, -1), V1=z(sm, pm, -2),
                        V0d=z(pm, sm, 2), V1d=z(pm, sm, 1),
                        H_sharp=GradedMap(sm, sm, 1, {("s0", "s1"): -1}),
                        A=a, B=z(pm, pm, 2), Cc=z(pm, pm, 0),
                        D=a.scale(-1))
        rep = verify_sum_maps(S, M)
        assert rep.ok, rep.failures()

    def test_degenerate_identity_style(self):
        empty = ucomplex([])
        S = SumInput(empty, ucomplex([("e", 0)]))
        P = product_complex(S)
        em, pm = empty.module, P.module
        M = ConnSumMaps(empty,
                        V0=GradedMap(em, pm, 1, {}),
                        V1=GradedMap(em, pm, 0, {}),
                        V0d=GradedMap(pm, em, 0, {}),
                        V1d=GradedMap(pm, em, -1, {}),
                        H_sharp=GradedMap(em, em, 1, {}),
                        A=GradedMap(pm, pm, 1, {}),
                        B=GradedMap(pm, pm, 2, {}),
                        Cc=GradedMap(pm, pm, 0, {}),
                        D=GradedMap(pm, pm, 1, {}))
        assert P.u_action.is_zero_mod(0)
        assert verify_sum_maps(S, M).ok

    def test_perturbed_v1_fails_its_identity(self):
        S, P, sharp = self._acyclic_setup()
        sm, pm = sharp.module, P.module
        z = GradedMap.zero
        M = ConnSumMaps(sharp,
                        V0=z(sm, pm, 1),
                        V1=GradedMap(sm, pm, 0, {("s0", "d|e"): 1}),
                        V0d=z(pm, sm, 0), V1d=z(pm, sm, -1),
                        H_sharp=z(sm, sm, 1), A=z(pm, pm, 1),
                        B=z(pm, pm, 2), Cc=z(pm, pm, 0), D=z(pm, pm, 1))
        rep = verify_sum_maps(S, M)
        failed = [c.tag for c in rep.failures()]
        assert "eq:chain-maps:V1" in failed

    def test_maps_that_do_not_compose_fail_with_the_error_text(self):
        # V1 one degree too high: the identities through it cannot be
        # formed, and each fails with the ChainError's text as witness
        S, P, sharp = self._acyclic_setup()
        sm, pm = sharp.module, P.module
        z = GradedMap.zero
        a = GradedMap(pm, pm, 1, {("d|e", "c|e"): -1})
        M = ConnSumMaps(sharp,
                        V0=z(sm, pm, -1), V1=z(sm, pm, -1),
                        V0d=z(pm, sm, 2), V1d=z(pm, sm, 1),
                        H_sharp=GradedMap(sm, sm, 1, {("s0", "s1"): -1}),
                        A=a, B=z(pm, pm, 2), Cc=z(pm, pm, 0),
                        D=a.scale(-1))
        checks = {c.tag: c for c in verify_sum_maps(S, M).checks}
        with pytest.raises(ChainError) as ei:
            P.d @ M.V1 - M.V1 @ sharp.d - P.u_action @ M.V0
        for tag in ("eq:chain-maps:V1", "eq:cob-comp:sharp"):
            assert checks[tag] == Check(tag, False, str(ei.value))
        assert not checks["eq:V-m:parity"].ok
        assert all(c.ok for tag, c in checks.items() if tag not in (
            "eq:V-m:parity", "eq:chain-maps:V1", "eq:cob-comp:sharp"))

    def test_parity_requires_coherent_degrees(self):
        S, P, sharp = self._acyclic_setup()
        sm, pm = sharp.module, P.module
        z = GradedMap.zero
        M = ConnSumMaps(sharp,
                        V0=z(sm, pm, 0), V1=z(sm, pm, -1),
                        V0d=z(pm, sm, 1), V1d=z(pm, sm, 0),
                        H_sharp=z(sm, sm, 1), A=z(pm, pm, 1),
                        B=z(pm, pm, 2), Cc=z(pm, pm, 0), D=z(pm, pm, 1))
        rep = verify_sum_maps(S, M)
        parity = [c for c in rep.checks if c.tag == "eq:V-m:parity"]
        assert parity and not parity[0].ok

    @pytest.mark.parametrize("degrees, witness", [
        # V1 of degree -1 beside V0 of degree -1
        ((-1, -1, 1, 2), "V1 degree -1 is not V0 - 1 = -2"),
        ((0, -1, 0, 1), "V0 degree 0 is not odd"),
        ((1, 0, 0, 1), "V1d degree 0 is not -V0 = -1"),
        ((1, 0, -1, 1), "V0d degree 1 is not V1d + 1 = 0"),
        ((-1, -2, 1, 2), None)])
    def test_parity_witness_names_the_first_broken_rule(self, degrees,
                                                        witness):
        S, P, sharp = self._acyclic_setup()
        sm, pm = sharp.module, P.module
        z = GradedMap.zero
        d0, d1, d1d, d0d = degrees
        M = ConnSumMaps(sharp,
                        V0=z(sm, pm, d0), V1=z(sm, pm, d1),
                        V0d=z(pm, sm, d0d), V1d=z(pm, sm, d1d),
                        H_sharp=z(sm, sm, 1), A=z(pm, pm, 1),
                        B=z(pm, pm, 2), Cc=z(pm, pm, 0), D=z(pm, pm, 1))
        parity = verify_sum_maps(S, M).checks[0]
        assert parity == Check("eq:V-m:parity", witness is None, witness)

    def test_shape_mismatch_raises(self):
        S, P, sharp = self._acyclic_setup()
        sm = sharp.module
        z = GradedMap.zero
        with pytest.raises(ChainError, match="block"):
            verify_sum_maps(S, ConnSumMaps(
                sharp,
                V0=z(sm, sm, -1), V1=z(sm, sm, -2),
                V0d=z(sm, sm, 2), V1d=z(sm, sm, 1),
                H_sharp=z(sm, sm, 1), A=z(sm, sm, 1),
                B=z(sm, sm, 2), Cc=z(sm, sm, 0), D=z(sm, sm, 1)))
