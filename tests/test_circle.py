"""Tests for the circle-action functors: doubling, flavor complexes,
fundamental sequences, first-page models, and both duality comparisons."""

import itertools
import random

import pytest

from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, HomologyTable, ModulusUnsupported,
                            PMorphism, homology, is_chain_map, validate)
from artifact import circle
from artifact.circle import (ALL_FLAVORS, HAT, INFINITY, MINUS, PLUS, Window,
                             MissingUAction, MissingYAction, NotAPMorphism,
                             ShiftReport, _name_map, _ses_exact_at, e1_page,
                             e_y, e_y_map, fundamental_sequences, koszul_a,
                             koszul_b, s_u, s_u_map, safe_degrees)
from artifact.connsum import cm_flavors
from artifact.exactlin import AbelianGroup

from helpers import (compose, count_les_tags, lattice_ses_exact_at,
                     laurent_form, random_complex, random_pmorphism,
                     ses_verdicts)

Z = AbelianGroup(1)


def point(p=0):
    m = GradedModule([("e", 0)])
    zero1 = GradedMap.zero(m, m, -1)
    zero2 = GradedMap.zero(m, m, -2)
    return ChainComplex(m, zero1, u_action=zero2, p=p)


def u_pair(p=0):
    """a(0), b(2), zero differential, U(b) = a."""
    m = GradedModule([("a", 0), ("b", 2)])
    d = GradedMap.zero(m, m, -1)
    u = GradedMap(m, m, -2, {("b", "a"): 1})
    return ChainComplex(m, d, u_action=u, p=p)


def flat_y_complex():
    """Zero differential, zero Y: one even and one odd generator."""
    m = GradedModule([("p0", 0), ("p1", 3)])
    return ChainComplex(m, GradedMap.zero(m, m, -1),
                        y_action=GradedMap.zero(m, m, 1))


def mini_tower(n_max=2):
    """Translation-style ladder t{n} in degree -2n with U the shift that
    dies at the top exponent."""
    gens = [(f"t{n}", -2 * n) for n in range(-n_max, n_max + 1)]
    m = GradedModule(gens)
    u = GradedMap(m, m, -2, {(f"t{n}", f"t{n + 1}"): 1
                             for n in range(-n_max, n_max)})
    return ChainComplex(m, GradedMap.zero(m, m, -1), u_action=u)


def random_u_complex(rng, p=0):
    return random_complex(rng, max_pieces=3, degree_span=(-2, 3), p=p,
                          with_u=True).complex


class TestSU:
    def test_single_generator(self):
        H = homology(s_u(point()))
        assert H[0] == Z and H[1] == Z
        assert H.degrees() == [0, 1]

    def test_u_pair(self):
        H = homology(s_u(u_pair()))
        assert H[0] == Z and H[3] == Z
        assert H.degrees() == [0, 3]

    def test_rank_doubles_and_validates(self):
        rng = random.Random(11)
        for _ in range(10):
            C = random_u_complex(rng)
            S = s_u(C)
            assert len(S.module.generators) == 2 * len(C.module.generators)
            assert S.y_action is not None
            assert validate(S).ok

    def test_missing_u(self):
        m = GradedModule([("e", 0)])
        C = ChainComplex(m, GradedMap.zero(m, m, -1))
        with pytest.raises(MissingUAction):
            s_u(C)

    def test_modulus_unsupported(self):
        m = GradedModule([("e", 0)], modulus=4)
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         u_action=GradedMap.zero(m, m, -2))
        with pytest.raises(ModulusUnsupported):
            s_u(C)

    def test_map_identity(self):
        C = u_pair()
        F = s_u_map(PMorphism.identity(C))
        assert F == GradedMap.identity(s_u(C).module)

    def test_map_is_chain_and_y_equivariant(self):
        rng = random.Random(12)
        for _ in range(10):
            C1 = random_u_complex(rng)
            C2 = random_u_complex(rng)
            P = random_pmorphism(rng, C1, C2)
            F = s_u_map(P)
            S1, S2 = s_u(C1), s_u(C2)
            assert is_chain_map(F, S1, S2)
            sign = -1 if F.degree % 2 else 1
            ynat = (F @ S1.y_action) - (S2.y_action @ F).scale(sign)
            assert ynat.is_zero_mod(C1.p)

    def test_map_functorial(self):
        rng = random.Random(13)
        for _ in range(10):
            C1 = random_u_complex(rng)
            C2 = random_u_complex(rng)
            C3 = random_u_complex(rng)
            P = random_pmorphism(rng, C1, C2)
            Q = random_pmorphism(rng, C2, C3)
            lhs = s_u_map(compose(Q, P))
            rhs = s_u_map(Q) @ s_u_map(P)
            assert (lhs - rhs).is_zero_mod(C1.p)

    def test_map_rejects_broken_witness(self):
        m = GradedModule([("c", 2), ("b", 1), ("a", 0)])
        d = GradedMap(m, m, -1, {("c", "b"): 1})
        C = ChainComplex(m, d, u_action=GradedMap.zero(m, m, -2))
        phi = GradedMap.identity(m)
        bad_k = GradedMap(m, m, -1, {("c", "b"): 1, ("b", "a"): 1})
        P = PMorphism(C, C, phi, bad_k)
        assert not P.verify()
        with pytest.raises(NotAPMorphism):
            s_u_map(P)


class TestEY:
    def test_hat_is_the_input(self):
        S = s_u(u_pair())
        E = e_y(S, HAT)
        assert len(E.module.generators) == len(S.module.generators)
        assert homology(E) == homology(S)

    def test_minus_on_doubled_point(self):
        S = s_u(point())
        win = Window(-6, 3)
        E = e_y(S, MINUS, win)
        assert validate(E).ok
        H = homology(E)
        for j in safe_degrees(S, MINUS, win):
            if j == -1:
                assert H[j] == Z
            else:
                assert H[j].is_trivial()

    def test_infinity_parity_count(self):
        C = flat_y_complex()
        win = Window(-2, 5)
        H = homology(e_y(C, INFINITY, win))
        for j in safe_degrees(C, INFINITY, win):
            assert H[j] == Z, f"degree {j}"

    def test_exponent_signs_in_names(self):
        C = flat_y_complex()
        E = e_y(C, INFINITY, Window(-1, 4))
        assert "p0.u-2" in E.module
        assert E.module.degree_of("p0.u-2") == 4

    def test_missing_y(self):
        with pytest.raises(MissingYAction):
            e_y(point(), MINUS)

    def test_slices_validate_all_flavors(self):
        rng = random.Random(21)
        for _ in range(5):
            S = s_u(random_u_complex(rng))
            for flavor in ALL_FLAVORS:
                E = e_y(S, flavor)
                assert validate(E).ok

    def test_window_stability(self):
        rng = random.Random(22)
        for _ in range(5):
            S = s_u(random_u_complex(rng))
            win = circle._resolve_window(S.module.degrees(), None)
            big = Window(win.lo - 3, win.hi + 3)
            for flavor in ALL_FLAVORS:
                small_h = homology(e_y(S, flavor, win))
                big_h = homology(e_y(S, flavor, big))
                for j in safe_degrees(S, flavor, win):
                    assert small_h[j] == big_h[j]

    def test_map_functorial(self):
        rng = random.Random(23)
        done = 0
        while done < 5:
            C1 = random_u_complex(rng)
            C2 = random_u_complex(rng)
            C3 = random_u_complex(rng)
            P = random_pmorphism(rng, C1, C2, degree=0)
            Q = random_pmorphism(rng, C2, C3, degree=0)
            S1, S2, S3 = s_u(C1), s_u(C2), s_u(C3)
            win = Window(-8, 8)
            for flavor in ALL_FLAVORS:
                f = s_u_map(P)
                g = s_u_map(Q)
                lhs = e_y_map(g @ f, S1, S3, flavor, win)
                rhs = (e_y_map(g, S2, S3, flavor, win)
                       @ e_y_map(f, S1, S2, flavor, win))
                assert (lhs - rhs).is_zero_mod(C1.p)
            done += 1


class TestFundamentalSequences:
    def test_point_certificates(self):
        fs = fundamental_sequences(s_u(point()), Window(-8, 8))
        assert fs.seq1.exact and fs.seq2.exact
        assert fs.les1.ok, fs.les1
        assert fs.les2.ok, fs.les2

    def test_random_certificates(self):
        rng = random.Random(31)
        for _ in range(6):
            S = s_u(random_u_complex(rng))
            fs = fundamental_sequences(S)
            assert fs.ok, fs.checks

    def test_mod_p_certificates(self):
        rng = random.Random(32)
        for _ in range(3):
            S = s_u(random_u_complex(rng, p=2))
            fs = fundamental_sequences(S)
            assert fs.ok

    def test_narrow_window_sequences_stay_exact(self):
        # the projection of minus onto hat raises degree by two and leaves
        # the window at its top edge; that edge is truncation, not a defect
        rng = random.Random(34)
        for _ in range(10):
            S = s_u(random_u_complex(rng))
            fs = fundamental_sequences(S, Window(-3, 3))
            assert fs.seq1.exact and fs.seq2.exact

    def test_infinity_flavor_vanishes(self):
        rng = random.Random(33)
        for _ in range(5):
            S = s_u(random_u_complex(rng))
            win = circle._resolve_window(S.module.degrees(), None)
            H = homology(e_y(S, INFINITY, win))
            for j in safe_degrees(S, INFINITY, win):
                assert H[j].is_trivial()


class TestSecondSequenceOnDemand:
    """``fundamental_sequences`` builds both sequences before it returns,
    the second (minus into minus by u onto hat) once per call; reading it
    or ``ok`` builds nothing more."""

    def test_built_once_on_first_access(self, monkeypatch):
        tags = count_les_tags(monkeypatch, circle)
        rng = random.Random(35)
        for p in (0, 2, 3):
            S = s_u(random_u_complex(rng, p=p))
            tags.clear()
            fs = fundamental_sequences(S)
            assert tags == {"eq:E-sq1": 1, "eq:E-sq2": 1}
            assert fs.les2 is fs.les2
            assert fs.seq2 is fs.seq2 and fs.delta2 is fs.delta2
            assert fs.ok
            assert tags == {"eq:E-sq1": 1, "eq:E-sq2": 1}
            assert fundamental_sequences(S).ok
            assert tags == {"eq:E-sq1": 2, "eq:E-sq2": 2}

    def test_a_failing_les2_node_alone_fails_ok(self, monkeypatch):
        original = circle.exactness_pair

        def failing_at_u_image(incoming, outgoing, j):
            contained, equal = original(incoming, outgoing, j)
            # u-multiplication is the only arrow from a slice to itself, and
            # the node it leads into is minus@u-image
            if incoming.source is incoming.target:
                return contained, False
            return contained, equal

        monkeypatch.setattr(circle, "exactness_pair", failing_at_u_image)
        fs = fundamental_sequences(s_u(point()), Window(-8, 8))
        assert fs.seq1.exact and fs.les1.ok and fs.seq2.exact
        # the witness is the first u-image node checked: minus safe at j
        # and j + 2, hat safe at j + 2
        first = min(j for j in fs.safe["minus"]
                    if {j + 2} <= fs.safe["minus"] & fs.safe["hat"])
        assert fs.les2 == Check("eq:E-sq2", False, ("minus@u-image", first))
        assert fs.checks[1] == fs.les2
        assert not fs.ok


class TestTrustedDerivedMaps:
    """The flavor engine builds its derived maps unchecked: the expanded d
    and u, the slotwise maps, the transposes, and the maps of both
    fundamental sequences, over both layouts.  Each is the map the checked
    constructor makes of its entries, with no zero stored."""

    def test_each_matches_checked_construction(self):
        rng = random.Random(36)
        for p in (0, 2, 3):
            for _ in range(4):
                C1 = random_u_complex(rng, p=p)
                C2 = random_u_complex(rng, p=p)
                f = s_u_map(random_pmorphism(rng, C1, C2, degree=0))
                S1, S2 = s_u(C1), s_u(C2)
                win = Window(-6, 6)
                maps = []
                for flavor in ALL_FLAVORS:
                    E = e_y(S1, flavor, win)
                    maps += [E.d, E.u_action,
                             e_y_map(f, S1, S2, flavor, win)]
                for fs in (fundamental_sequences(S1, win),
                           cm_flavors(laurent_form(S1), win)):
                    maps += [c.d for c in fs.complexes.values()]
                    maps += [c.u_action for c in fs.complexes.values()]
                    seqs = [fs.seq1.inject, fs.seq1.project, fs.seq2.project]
                    maps += seqs + [circle._transpose(g) for g in seqs]
                    maps += [fs.delta1.f, fs.delta2.f]
                for g in maps:
                    assert g == GradedMap(g.source, g.target, g.degree,
                                          g.entries)
                    assert all(g.entries.values())


def _expand_by_probing(generators, terms, layout, tag, win):
    """``_expand``'s module and entries by formatting every target name and
    probing the module for it: the reference for its name table."""
    out = {}
    for src, dst, n, c in terms:
        out.setdefault(src, []).append((dst, n, c))
    lines = [(g, dg, circle._exponents(dg, layout.ranges[tag], win))
             for g, dg in generators]
    module = GradedModule([(f"{g}{layout.suffix}{n}", dg - 2 * n)
                           for g, dg, ns in lines for n in ns])
    ent, uent = {}, {}
    for g, _dg, ns in lines:
        for n in ns:
            sname = f"{g}{layout.suffix}{n}"
            for dst, k, c in out.get(g, ()):
                tname = f"{dst}{layout.suffix}{n + k}"
                if tname in module:
                    ent[(sname, tname)] = ent.get((sname, tname), 0) + c
            up = f"{g}{layout.suffix}{n + 1}"
            if up in module:
                uent[(sname, up)] = 1
    return module, {k: v for k, v in ent.items() if v}, uent


def _slotwise_by_probing(f, source, target):
    """``_slotwise``'s entries by copying each image and probing a set of
    the target's names."""
    tnames = set(target.module.names())
    ent = {}
    for sname, _ in source.module.generators:
        g, n = sname.rsplit(".u", 1)
        for t, v in f.image_of(g).items():
            tname = f"{t}.u{n}"
            if tname in tnames:
                ent[(sname, tname)] = v
    return ent


def _renamed(C, names):
    """C with each generator g renamed to names[g]."""
    module = GradedModule([(names[g], dg) for g, dg in C.module.generators])

    def move(f):
        return GradedMap(module, module, f.degree, {
            (names[s], names[t]): v for (s, t), v in f.entries.items()})

    return ChainComplex(module, move(C.d), u_action=move(C.u_action), p=C.p)


# every flavor set the engine expands at once: all four (the fundamental
# sequences of both layouts), the three of the ladder, and one at a time
FLAVOR_SETS = ((circle.FLAVOR_TAGS, circle.FLAVOR_TAGS[:3])
               + tuple((tag,) for tag in circle.FLAVOR_TAGS))


class TestExpansionByNameTable:
    """``_expand`` reads target names from a (generator, exponent) table and
    ``_slotwise`` from the target's index; both equal the loops that format
    and probe each name, generator for generator and entry for entry, on
    both layouts, with base generators named like expanded ones.  Each
    slice of one expansion of several flavors equals the reference built
    for its flavor alone."""

    def test_equal_to_probing_loops(self):
        rng = random.Random(2718)
        win = Window(-6, 6)
        compared = 0
        for p in (0, 2, 3):
            for i in range(4):
                C1 = random_u_complex(rng, p=p)
                C2 = random_u_complex(rng, p=p)
                while i == 0 and len(C1.module) < 2:
                    C1 = random_u_complex(rng, p=p)
                if i == 0:
                    # "a" and "a.u1" side by side, and "a.u1" expanded
                    names = dict(zip(C1.module.names(), ("a", "a.u1")))
                    C1 = _renamed(C1, {g: names.get(g, f"{g}.u1")
                                       for g in C1.module.names()})
                f = s_u_map(random_pmorphism(rng, C1, C2, degree=0))
                S1, S2 = s_u(C1), s_u(C2)
                terms = [(s, t, 0, v) for (s, t), v in S1.d.entries.items()]
                terms += [(s, t, 1, v)
                          for (s, t), v in S1.y_action.entries.items()]
                for layout, tags in itertools.product(
                        (circle._U_LAYOUT, circle._LAURENT_LAYOUT),
                        FLAVOR_SETS):
                    slices = circle._expand(S1.module.generators, terms,
                                            layout, tags, win, p)
                    assert tuple(slices) == tags
                    for tag, E in slices.items():
                        module, ent, uent = _expand_by_probing(
                            S1.module.generators, terms, layout, tag, win)
                        assert E.p == p
                        assert E.module.generators == module.generators
                        assert list(E.d.entries.items()) == list(ent.items())
                        assert list(E.u_action.entries.items()) == \
                            list(uent.items())
                        compared += 1
                for flavor in ALL_FLAVORS:
                    E1, E2 = e_y(S1, flavor, win), e_y(S2, flavor, win)
                    for g, src, tgt in ((f, E1, E2),
                                        (GradedMap.identity(S1.module),
                                         E1, E1)):
                        got = circle._slotwise(g, src, tgt)
                        assert list(got.entries.items()) == list(
                            _slotwise_by_probing(g, src, tgt).items())
        assert compared == 3 * 4 * 2 * (4 + 3 + 4)


def _by_products(complexes, win):
    """seq1's exactness and delta1 by graded products: ``is_chain_map`` of
    the inclusion and projection, and retraction . d . section.  The
    oracle for the forms read by name."""
    minus, inf, plus = (complexes[t] for t in circle.FLAVOR_TAGS[:3])
    inc, proj = (GradedMap(a.module, b.module, 0,
                           {(n, n): 1 for n in a.module.names()
                            if n in b.module})
                 for a, b in ((minus, inf), (inf, plus)))
    names = (_name_map(inc), _name_map(proj))
    exact = (is_chain_map(inc, minus, inf) and is_chain_map(proj, inf, plus)
             and all(_ses_exact_at(inc, proj, j, names)
                     for j in range(win.lo, win.hi + 1)))
    return exact, circle._transpose(inc) @ inf.d @ circle._transpose(proj)


def _with_d(C, entries):
    """C with its differential replaced by one with the given entries."""
    return ChainComplex(C.module, GradedMap(C.module, C.module, -1, entries),
                        u_action=C.u_action, p=C.p)


class TestFirstSequenceByName:
    """The first sequence's chain-map tests and delta1 read d of infinity
    between slices by name.  Each verdict and delta1 equal their
    graded-product form, on seeded slices of both layouts and on mutants
    that break them."""

    def test_equal_to_products_on_both_layouts(self):
        rng = random.Random(4242)
        for p in (0, 2, 3):
            for i in range(5):
                S = s_u(random_u_complex(rng, p=p))
                win = (None, Window(-3, 3), Window(0, 1))[i % 3]
                for fs in (fundamental_sequences(S, win),
                           cm_flavors(laurent_form(S), win)):
                    exact, delta = _by_products(fs.complexes, fs.window)
                    assert fs.seq1.exact is exact is True
                    assert fs.delta1.f == delta

    def test_infinity_entry_from_minus_into_plus(self, monkeypatch):
        # a map that is no chain map induces nothing on homology, so the
        # long exact sequence is left out here
        monkeypatch.setattr(circle, "_les_check",
                            lambda tag, *args: Check(tag, True))
        rng = random.Random(4243)
        broken = 0
        for p in (0, 2, 3):
            S = s_u(random_u_complex(rng, p=p))
            win = circle._resolve_window(S.module.degrees(), None)
            cx = circle._e_y_slices(S, circle.FLAVOR_TAGS, win)
            minus, inf, plus = (cx[t] for t in circle.FLAVOR_TAGS[:3])
            pairs = [(s, t) for s, ds in minus.module.generators
                     for t, dt in plus.module.generators if dt == ds - 1]
            assert pairs
            for s, t in pairs[:3]:
                mutant = {**cx, "infinity": _with_d(
                    inf, {**inf.d.entries, (s, t): 1})}
                fs = circle._fundamental(
                    mutant, circle._U_LAYOUT,
                    [d for _, d in S.module.generators], win)
                exact, delta = _by_products(mutant, win)
                assert fs.seq1.exact is exact is False
                assert fs.delta1.f == delta
                broken += 1
            # a plus differential that loses an entry breaks the projection
            k = next(iter(plus.d.entries))
            mutant = {**cx, "plus": _with_d(
                plus, {e: v for e, v in plus.d.entries.items() if e != k})}
            fs = circle._fundamental(mutant, circle._U_LAYOUT,
                                     [d for _, d in S.module.generators], win)
            assert fs.seq1.exact is _by_products(mutant, win)[0] is False
        assert broken >= 6

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_wrong_delta1_entry_fails_the_les(self, monkeypatch, p):
        S = s_u(point(p))
        win = circle._resolve_window(S.module.degrees(), None)
        cx = circle._e_y_slices(S, circle.FLAVOR_TAGS, win)
        gen_degrees = [d for _, d in S.module.generators]
        fs = circle._fundamental(cx, circle._U_LAYOUT, gen_degrees, win)
        assert fs.les1.ok and fs.delta1.f == _by_products(cx, win)[1]
        original = circle._restricted

        def dropping(f, source, target):
            g = original(f, source, target)
            if source is cx["plus"].module and target is cx["minus"].module:
                first = next(iter(g.entries))
                g = GradedMap(source, target, g.degree, {
                    k: v for k, v in g.entries.items() if k != first})
            return g

        monkeypatch.setattr(circle, "_restricted", dropping)
        fs = circle._fundamental(cx, circle._U_LAYOUT, gen_degrees, win)
        assert fs.seq1.exact and not fs.les1.ok
        assert fs.les1.witness is not None


def _split(a_gens, b_gens, c_gens, inj, proj):
    """Maps A -> B -> C on degree-0 generators from name pairs (or full
    entry dicts)."""
    A, B, C = (GradedModule([(n, 0) for n in gens])
               for gens in (a_gens, b_gens, c_gens))
    inj, proj = (m if isinstance(m, dict) else dict.fromkeys(m, 1)
                 for m in (inj, proj))
    return GradedMap(A, B, 0, inj), GradedMap(B, C, 0, proj)


class TestSESByNames:
    """Exactness of 0/1 generator splits from names agrees with the lattice
    computation it replaced."""

    def test_fundamental_sequences_agree_with_lattices(self):
        rng = random.Random(61)
        verdicts = []
        for trial in range(12):
            p = (0, 2, 3)[trial % 3]
            S = s_u(random_complex(rng, max_pieces=3, p=p,
                                   with_u=True).complex)
            for win in (None, Window(-3, 3), Window(0, 1)):
                fs = fundamental_sequences(S, win)
                verdicts += ses_verdicts(fs)
        assert len(verdicts) > 300
        assert all(n == lat for n, lat in verdicts)

    def test_constructed_splits(self):
        cases = [
            # exact: a0 -> b0, b1 -> c0
            ((["a0"], ["b0", "b1"], ["c0"], [("a0", "b0")],
              [("b1", "c0")]), True),
            # inject misses a generator
            ((["a0", "a1"], ["b0", "b1"], ["c0"], [("a0", "b0")],
              [("b1", "c0")]), False),
            # project misses a target
            ((["a0"], ["b0", "b1"], ["c0", "c1"], [("a0", "b0")],
              [("b1", "c0")]), False),
            # image is smaller than the kernel: b2 is killed, not hit
            ((["a0"], ["b0", "b1", "b2"], ["c0"], [("a0", "b0")],
              [("b1", "c0")]), False),
            # image outside the kernel: the composite is nonzero
            ((["a0"], ["b0", "b1"], ["c0"], [("a0", "b1")],
              [("b1", "c0")]), False),
        ]
        for p in (0, 2, 3):
            for spec, want in cases:
                inj, proj = _split(*spec)
                names = (_name_map(inj), _name_map(proj))
                assert _ses_exact_at(inj, proj, 0, names) is want
                assert lattice_ses_exact_at(inj, proj, 0, p) is want

    def test_maps_that_are_not_generator_splits_are_refused(self):
        for inj in ({("a0", "b0"): 2},                       # coefficient 2
                    {("a0", "b0"): -1},
                    {("a0", "b0"): 1, ("a0", "b1"): 1},      # two images
                    {("a0", "b0"): 1, ("a1", "b0"): 1}):     # shared image
            f, _ = _split(["a0", "a1"], ["b0", "b1"], ["c0"], inj, {})
            with pytest.raises(ChainError):
                _name_map(f)


class TestE1Page:
    def test_minus_is_shifted_copy(self):
        rng = random.Random(41)
        for _ in range(5):
            C = random_u_complex(rng)
            model = e1_page(C, MINUS, Window(-12, 12))
            assert homology(model) == homology(C).shifted(-2)

    def test_hat_and_plus_carry_the_homology(self):
        rng = random.Random(42)
        for _ in range(5):
            C = random_u_complex(rng)
            win = Window(-12, 12)
            assert homology(e1_page(C, HAT, win)) == homology(C)
            assert homology(e1_page(C, PLUS, win)) == homology(C)

    def test_infinity_is_zero(self):
        model = e1_page(u_pair(), INFINITY)
        assert not model.module.generators

    def test_plus_orbit_filter_on_tower(self):
        T = mini_tower(2)
        narrow = e1_page(T, PLUS, Window(-2, 2))
        assert not narrow.module.generators
        wide = e1_page(T, PLUS, Window(-10, 10))
        assert len(wide.module.generators) == 5


class TestKoszulA:
    def test_point_all_flavors(self):
        C = point()
        assert koszul_a(C, MINUS).shift == 1
        assert koszul_a(C, INFINITY).shift == 0
        assert koszul_a(C, PLUS).shift == 0
        assert koszul_a(C, HAT).shift == 0

    def test_point_minus_table(self):
        rep = koszul_a(point(), MINUS)
        assert rep.per_degree == {-2: (Z, Z)}

    def test_u_pair_minus(self):
        rep = koszul_a(u_pair(), MINUS)
        assert rep.shift == 1
        assert rep.per_degree == {-2: (Z, Z), 0: (Z, Z)}

    def test_hat_exact_match(self):
        rng = random.Random(51)
        for _ in range(5):
            C = random_u_complex(rng)
            rep = koszul_a(C, HAT)
            assert rep.shift == 0
            S = s_u(C)
            assert homology(e_y(S, HAT)) == homology(S)

    def test_random_pinned_shifts(self):
        rng = random.Random(52)
        expected = {"minus": 1, "infinity": 0, "plus": 0, "hat": 0}
        for _ in range(6):
            C = random_u_complex(rng)
            for flavor in ALL_FLAVORS:
                rep = koszul_a(C, flavor)
                assert rep.shift == expected[flavor.tag], flavor.tag

    def test_trivial_sides_match_only_on_a_common_safe_degree(self):
        trivial = HomologyTable({})
        assert circle._match_shift(trivial, trivial, [0, 1], [1, 2]) == \
            ShiftReport(0, {})
        for left, right in (([0], [1]), ([], [0]), ([], [])):
            assert not circle._match_shift(trivial, trivial, left,
                                           right).matched

    def test_mod_p_shifts(self):
        rng = random.Random(53)
        for _ in range(3):
            C = random_u_complex(rng, p=3)
            assert koszul_a(C, MINUS).shift == 1
            assert koszul_a(C, PLUS).shift == 0


class TestKoszulB:
    def test_point_with_zero_y(self):
        m = GradedModule([("e", 0)])
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         y_action=GradedMap.zero(m, m, 1))
        rep = koszul_b(C)
        assert rep.shift == -1
        assert rep.witness_ok

    def test_acyclic_zero_convention(self):
        m = GradedModule([("b", 1), ("a", 0)])
        d = GradedMap(m, m, -1, {("b", "a"): 1})
        C = ChainComplex(m, d, y_action=GradedMap.zero(m, m, 1))
        rep = koszul_b(C)
        assert rep.shift == 0
        assert rep.per_degree == {}

    def test_doubled_complexes(self):
        rng = random.Random(61)
        for _ in range(6):
            S = s_u(random_u_complex(rng))
            rep = koszul_b(S)
            assert rep.shift == -1
            assert rep.witness_ok

    def test_mod_p(self):
        rng = random.Random(62)
        for _ in range(3):
            S = s_u(random_u_complex(rng, p=2))
            rep = koszul_b(S)
            assert rep.shift == -1
            assert rep.witness_ok

    def test_missing_y(self):
        with pytest.raises(MissingYAction):
            koszul_b(point())


class TestWindow:
    def test_empty_window_rejected(self):
        with pytest.raises(ChainError):
            Window(3, 1)

    def test_safe_degrees_exclude_slice_edges(self):
        S = s_u(point())
        win = Window(-6, 3)
        safe = safe_degrees(S, MINUS, win)
        assert -6 not in safe
        assert -5 in safe and -1 in safe
