"""Graded complexes: laws, homology, cones, tensors, induced maps, exactness."""

import gc
import inspect
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.chain import (
    ChainComplex,
    ChainError,
    Check,
    GradedMap,
    GradedModule,
    ModulusUnsupported,
    NotAChainMap,
    PMorphism,
    _HomologyArrow,
    _block_map,
    _defect,
    _flags,
    _presentation,
    _renamed_module,
    cone,
    cone_inclusion,
    cone_projection,
    exactness_pair,
    homology,
    induced_on_homology,
    is_chain_map,
    reduction,
    tensor,
    validate,
    verify_exact_at,
)
from artifact.exactlin import (AbelianGroup, CompositionNonzero,
                               DimensionMismatch, IntMatrix, PresentedGroup)
from artifact import chain, circle
from artifact.circle import _doubled, s_u, s_u_map
from artifact.flavors import (TowerParams, assemble, four_flavors,
                              ladder_check, tower_model)

from helpers import (
    FactoredPresentation,
    ambient_coords,
    ambient_representatives,
    anticommuting_y,
    block,
    commuting_u,
    compose,
    coord_matrix,
    defect_by_products,
    diagonal,
    direct_sum,
    equal_on,
    fixed_arrow,
    fixed_node,
    from_rows,
    identity_pmorphism,
    is_plain,
    isolate_pushing_every_write,
    lattice_exactness_oracle,
    mod_p,
    pair_presentation,
    presented_at,
    pushed_by_coords,
    random_basis_change,
    random_complex,
    random_matrix,
    random_pmorphism,
    reduction_defects,
    reduction_maps,
    representatives,
    shifted,
    strict_pmorphism,
    to_dense,
    unreduced_presentation,
    verify_homotopy,
)


def complex_from(gens, diff, p=0, modulus=0):
    module = GradedModule(gens, modulus)
    return ChainComplex(module, GradedMap(module, module, -1, diff), p=p)


def two_sphere_like():
    # e2 --2--> e1 --0--> e0: H_0 = Z, H_1 = Z/2
    return complex_from([("e2", 2), ("e1", 1), ("e0", 0)], {("e2", "e1"): 2})


class TestGradedStructures:
    def test_degree_homogeneity_enforced(self):
        m = GradedModule([("a", 0), ("b", 1)])
        with pytest.raises(ChainError):
            GradedMap(m, m, -1, {("a", "b"): 1})

    def test_ring_must_be_z_or_a_prime_field(self):
        # field arithmetic needs p prime: with p = 4, d(a) = 2b would
        # present no homology, where Z/4 coefficients give Z/2 in degrees
        # 0 and 1
        for p in (1, 4, 9, -3):
            with pytest.raises(ChainError):
                complex_from([("b", 0), ("a", 1)], {("a", "b"): 2}, p=p)
        for p in (0, 2, 3, 5):
            C = complex_from([("b", 0), ("a", 1)], {("a", "b"): 2}, p=p)
            assert C.p == p

    def test_duplicate_names_rejected(self):
        with pytest.raises(ChainError):
            GradedModule([("a", 0), ("a", 1)])

    def test_odd_modulus_rejected(self):
        with pytest.raises(ChainError):
            GradedModule([("a", 0)], modulus=3)

    def test_modulus_reduces_degrees(self):
        m = GradedModule([("a", 5), ("b", -1)], modulus=4)
        assert m.degree_of("a") == 1
        assert m.degree_of("b") == 3
        assert m.gens_in_degree(9) == ["a"]

    def test_modular_map_wraps(self):
        m = GradedModule([("a", 0), ("b", 1)], modulus=2)
        d = GradedMap(m, m, -1, {("a", "b"): 1, ("b", "a"): 1})
        assert to_dense(block(d, 0)) == [[1]]

    def test_block_order(self):
        m = GradedModule([("x", 1), ("y", 0), ("z", 1)])
        f = GradedMap(m, m, -1, {("x", "y"): 3, ("z", "y"): 5})
        assert to_dense(block(f, 1)) == [[3, 5]]

    def test_composition_and_arithmetic(self):
        m = GradedModule([("a", 2), ("b", 1), ("c", 0)])
        f = GradedMap(m, m, -1, {("a", "b"): 2, ("b", "c"): 3})
        assert (f @ f).entries == {("a", "c"): 6}
        assert (f - f).is_zero_mod(0)
        assert f.scale(0).is_zero_mod(0)


def _random_map(rng, source, target, degree):
    """Random homogeneous entries of the given degree."""
    ent = {}
    for s, ds in source.generators:
        for t in target.gens_in_degree(ds + degree):
            if rng.random() < 0.5:
                ent[(s, t)] = rng.choice((1, -1, 2, 3))
    return GradedMap(source, target, degree, ent)


def _assert_same_map(f, g):
    assert f == g
    for name in f.source.names():
        assert f.image_of(name) == g.image_of(name)


class TestTrustedMaps:
    """The closed operations build their results without per-entry checks;
    each must equal the checked map built from independently computed
    entries."""

    def _modules(self, rng):
        for modulus in (0, 0, 4):
            yield [GradedModule([(f"{tag}{i}", rng.randint(-2, 3))
                                 for i in range(rng.randint(1, 5))], modulus)
                   for tag in "abc"]

    def test_closed_operations_equal_checked_builds(self):
        rng = random.Random(88)
        done = 0
        for _ in range(15):
            for A, B, C in self._modules(rng):
                f, g = (_random_map(rng, A, B, 1) for _ in range(2))
                h = _random_map(rng, B, C, -2)
                keys = set(f.entries) | set(g.entries)
                for got, fn in ((f + g, lambda k: f.entries.get(k, 0)
                                 + g.entries.get(k, 0)),
                                (f - g, lambda k: f.entries.get(k, 0)
                                 - g.entries.get(k, 0)),
                                (-f, lambda k: -f.entries.get(k, 0)),
                                (f.scale(3), lambda k: 3 * f.entries.get(k, 0)),
                                (f.scale(0), lambda k: 0),
                                (f - f, lambda k: 0)):
                    want = {k: fn(k) for k in keys}
                    _assert_same_map(got, GradedMap(A, B, 1, want))
                prod = {}
                for (s, m), v in f.entries.items():
                    for (m2, t), w in h.entries.items():
                        if m == m2:
                            prod[(s, t)] = prod.get((s, t), 0) + v * w
                _assert_same_map(h @ f, GradedMap(A, C, -1, prod))
                done += 1
        assert done == 45

    def test_composite_across_gradings_is_still_checked(self):
        # a(3) -> b(1 mod 2) -> c(2): each map is homogeneous, the
        # composite of degree 1 is not (3 + 1 != 2)
        A = GradedModule([("a", 3)])
        B = GradedModule([("b", 1)], modulus=2)
        C = GradedModule([("c", 2)])
        g = GradedMap(A, B, 0, {("a", "b"): 1})
        f = GradedMap(B, C, 1, {("b", "c"): 1})
        with pytest.raises(ChainError):
            f @ g

    def test_constructor_still_checks(self):
        m = GradedModule([("a", 0), ("b", 1)])
        for ent in ({("x", "a"): 1}, {("b", "x"): 1}, {("a", "a"): 1}):
            with pytest.raises(ChainError):
                GradedMap(m, m, -1, ent)

    def test_blocks_match_a_checked_copy(self):
        # the degree blocks of the tests' reference readings: a map built
        # unchecked has the blocks of its checked copy, and a periodic map
        # has one block per reduced degree
        rng = random.Random(89)
        inputs = [random_complex(rng, max_pieces=4, with_u=True).complex
                  for _ in range(5)]
        inputs.append(complex_from(
            [("a", 0), ("b", 1), ("c", 2), ("e", 3), ("f", 0)],
            {("b", "a"): 1, ("e", "c"): 2, ("b", "f"): 3}, modulus=4))
        for C in inputs:
            lo, hi = C.module.support_window()
            for f in filter(None, (C.d, C.u_action)):
                for j in range(lo - 6, hi + 7):
                    fresh = GradedMap(f.source, f.target, f.degree, f.entries)
                    assert block(f, j) == block(fresh, j)
        periodic = inputs[-1].d
        assert block(periodic, 1) == block(periodic, 5) == \
            block(periodic, -3) == from_rows([[1], [3]])
        assert not hasattr(GradedMap, "block")


class TestValidate:
    def test_good_complex(self):
        rep = validate(two_sphere_like())
        assert rep.ok
        assert [c.tag for c in rep.checks] == ["degree-homogeneity", "d.d=0"]

    def test_broken_square(self):
        C = complex_from([("c", 2), ("b", 1), ("a", 0)],
                         {("c", "b"): 1, ("b", "a"): 1})
        rep = validate(C)
        assert not rep.ok
        bad = rep.failures()[0]
        assert bad.tag == "d.d=0"
        assert bad.witness == ("c", "a")
        with pytest.raises(ChainError):
            homology(C)

    def test_broken_u(self):
        C = complex_from([("c1", 1), ("c0", 0), ("cm2", -2)], {("c1", "c0"): 1})
        u = GradedMap(C.module, C.module, -2, {("c0", "cm2"): 1})
        rep = validate(C.with_actions(u_action=u))
        check = [c for c in rep.checks if c.tag == "[d,U]=0"][0]
        assert check.ok is False
        assert check.witness == ("c1", "cm2")

    def test_y_laws(self):
        m = GradedModule([("a", 0), ("b", 1)])
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         y_action=GradedMap(m, m, 1, {("a", "b"): 1}))
        rep = validate(C)
        assert rep.ok  # Y^2 lands in degree 2 where nothing lives
        m2 = GradedModule([("a", 0), ("b", 1), ("c", 2)])
        y2 = GradedMap(m2, m2, 1, {("a", "b"): 1, ("b", "c"): 1})
        C2 = ChainComplex(m2, GradedMap.zero(m2, m2, -1), y_action=y2)
        rep2 = validate(C2)
        assert [c for c in rep2.checks if c.tag == "Y.Y=0"][0].ok is False

    def test_mod_p_laws(self):
        # d^2 = 4 is zero over F_2 but not over Z
        C = complex_from([("c", 2), ("b", 1), ("a", 0)],
                         {("c", "b"): 2, ("b", "a"): 2})
        assert not validate(C).ok
        C2 = complex_from([("c", 2), ("b", 1), ("a", 0)],
                          {("c", "b"): 2, ("b", "a"): 2}, p=2)
        assert validate(C2).ok

    def test_a_passing_law_seeks_no_witness(self, monkeypatch):
        def refused(self, p=0):
            raise AssertionError("a witness sought for a passing law")

        monkeypatch.setattr(GradedMap, "nonzero_witness", refused)
        C = complex_from([("c", 2), ("b", 1), ("a", 0)],
                         {("c", "b"): 2, ("b", "a"): 2}, p=2)
        u = GradedMap(C.module, C.module, -2, {("c", "a"): 1})
        assert validate(C.with_actions(u_action=u)).ok


class TestOneValidationPerComplex:
    """``_require_valid`` keeps a pass in the complex, so however many
    callers ask, a valid complex is validated once; a failure is kept
    nowhere and raises, with each caller's prefix, on every call; the
    public ``validate`` still checks every time."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        original = chain.validate

        def recording(C):
            calls.append(C)
            return original(C)

        monkeypatch.setattr(chain, "validate", recording)
        return calls

    def test_valid_complex_validated_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        C = random_complex(random.Random(21), max_pieces=4,
                           with_u=True).complex
        for _ in range(3):
            homology(C)
        assert calls == [C]
        S = s_u(C)
        homology(S)
        four_flavors(C)
        assert sum(D is S for D in calls) == 1
        # every complex validated, each once
        assert len(set(map(id, calls))) == len(calls) > 2
        # the public check is not kept: it reports every law again
        assert [c.tag for c in validate(C).checks] == [
            "degree-homogeneity", "d.d=0", "[d,U]=0"]

    def test_invalid_complex_raises_every_time(self, monkeypatch):
        calls = self.counting(monkeypatch)
        m = GradedModule([("c", 2), ("b", 1), ("a", 0)])
        C = ChainComplex(m, GradedMap(m, m, -1, {("c", "b"): 1,
                                                 ("b", "a"): 1}),
                         u_action=GradedMap.zero(m, m, -2))
        for _ in range(2):
            with pytest.raises(ChainError,
                               match=r"^complex fails law d\.d=0 at"):
                homology(C)
        with pytest.raises(ChainError,
                           match=r"^tower base fails law d\.d=0 at"):
            tower_model(TowerParams(base=C, n=2))
        assert calls == [C, C, C]
        assert not C._valid


class TestIntertwiningDefect:
    """``_defect(f, a, b)`` is f.a - (-1)^{|f||a|} b.f, the defect behind
    the graded commutator, ``is_chain_map``, the U-law of a p-morphism and
    the Y-law of ``e_y_map``: its sign flips only when both are odd."""

    def test_four_parity_pairs(self):
        rng = random.Random(1204)
        M = GradedModule([(f"m{i}.{k}", k) for k in range(-6, 7)
                          for i in range(2)])

        def random_map(degree):
            return GradedMap(M, M, degree, {
                (s, t): rng.randint(-3, 3) for s, ds in M.generators
                for t, dt in M.generators if dt == ds + degree})

        for f_deg, a_deg in ((0, -2), (2, 1), (-1, -2), (1, -1)):
            f, a, b = (random_map(d) for d in (f_deg, a_deg, a_deg))
            assert not (b @ f).is_zero_mod(0)
            if f_deg % 2 and a_deg % 2:
                old = (f @ a) + (b @ f)
            else:
                old = (f @ a) - (b @ f)
            assert _defect(f, a, b) == old


class TestHomology:
    def test_sphere_like(self):
        h = homology(two_sphere_like())
        assert h[0] == AbelianGroup(1, ())
        assert h[1] == AbelianGroup(0, (2,))
        assert h[2] == AbelianGroup(0, ())
        assert h.degrees() == [0, 1]

    def test_mod_two(self):
        C = complex_from([("e2", 2), ("e1", 1), ("e0", 0)],
                         {("e2", "e1"): 2}, p=2)
        h = homology(C)
        for j in (0, 1, 2):
            assert h[j] == AbelianGroup(1, ())

    def test_empty_complex(self):
        m = GradedModule([])
        C = ChainComplex(m, GradedMap.zero(m, m, -1))
        assert homology(C).degrees() == []

    def test_window(self):
        C = two_sphere_like()
        h = homology(C, window=(1, 1))
        assert h.degrees() == [1]

    def test_random_oracle_integers(self):
        rng = random.Random(23)
        for _ in range(30):
            spec = random_complex(rng)
            h = homology(spec.complex)
            for j in set(h.degrees()) | set(spec.expected):
                assert h[j] == spec.expected.get(j, AbelianGroup(0, ())), (
                    f"degree {j} of {spec.complex}")

    def test_random_oracle_mod_p(self):
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(15):
                spec = random_complex(rng, p=p)
                h = homology(spec.complex)
                for j in set(h.degrees()) | set(spec.expected):
                    assert h[j] == spec.expected.get(j, AbelianGroup(0, ()))

    def test_renaming_invariance(self):
        rng = random.Random(31)
        spec = random_complex(rng)
        C = spec.complex
        gens = [("q_" + n, d) for n, d in C.module.generators]
        module = GradedModule(gens)
        d = GradedMap(module, module, -1,
                      {("q_" + s, "q_" + t): v for (s, t), v in C.d.entries.items()})
        h = homology(ChainComplex(module, d, p=C.p))
        assert h == homology(C)

    def test_table_shift(self):
        h = homology(two_sphere_like())
        s = shifted(h, 3)
        assert s[3] == h[0]
        assert s[4] == h[1]
        assert equal_on(h, shifted(s, -3), (-1, 3))


class TestCone:
    def test_direct_sum(self):
        A = two_sphere_like()
        B = complex_from([("f1", 1), ("f0", 0)], {("f1", "f0"): 3})
        S = direct_sum(A, B)
        h = homology(S)
        assert h[0] == AbelianGroup(1, (3,))
        assert h[1] == AbelianGroup(0, (2,))

    def test_identity_pairing_acyclic(self):
        A = complex_from([("a", 1)], {})
        B = complex_from([("b", 0)], {})
        f = GradedMap(A.module, B.module, -1, {("a", "b"): 1})
        E = cone(f, A, B)
        assert homology(E).degrees() == []
        assert E.module.names() == ("A.a", "B.b")

    def test_rejects_non_anticommuting(self):
        A = complex_from([("a", 2)], {})
        B = complex_from([("b1", 1), ("b0", 0)], {("b1", "b0"): 1})
        f = GradedMap(A.module, B.module, -1, {("a", "b1"): 1})
        with pytest.raises(NotAChainMap):
            cone(f, A, B)

    def test_rejects_a_commuting_map(self):
        # f.d = d.f != 0, so f.d + d.f is twice an entry over Z
        gens_a, gens_b = [("a1", 1), ("a0", 0)], [("b0", 0), ("bm1", -1)]
        entries = {("a1", "b0"): 1, ("a0", "bm1"): 1}
        for p in (0, 3):
            A = complex_from(gens_a, {("a1", "a0"): 1}, p=p)
            B = complex_from(gens_b, {("b0", "bm1"): 1}, p=p)
            f = GradedMap(A.module, B.module, -1, entries)
            assert f @ A.d == B.d @ f and not (f @ A.d).is_zero_mod(0)
            with pytest.raises(NotAChainMap):
                cone(f, A, B)
            g = GradedMap(A.module, B.module, -1,
                          {**entries, ("a0", "bm1"): -1})
            assert validate(cone(g, A, B)).ok

    def test_inclusion_projection_chain_maps(self):
        rng = random.Random(37)
        A = random_complex(rng).complex
        B = random_complex(rng).complex
        f = GradedMap.zero(A.module, B.module, -1)
        E = cone(f, A, B)
        assert is_chain_map(cone_inclusion(E, B), B, E)
        assert is_chain_map(cone_projection(E, A), E, A)


class TestBlockBuilder:
    """_renamed_module and _block_map: blocks over renamed generators."""

    def pieces(self):
        A = GradedModule([("a", 1), ("b", 0)])
        B = GradedModule([("c", 0)])
        return A, B, _renamed_module([(A, "x.{}", 0), (B, "{}.y", 1),
                                      (A, "z.{}", -2)])

    def test_renamed_module_lists_pieces_in_order(self):
        _A, _B, M = self.pieces()
        assert M.generators == (("x.a", 1), ("x.b", 0), ("c.y", 1),
                                ("z.a", -1), ("z.b", -2))
        P = _renamed_module([(GradedModule([("a", 3)], 4), "{}", 1)], 4)
        assert P.modulus == 4 and P.generators == (("a", 0),)

    def test_collisions_sum_and_cancel_signs_apply_none_skipped(self):
        A, _B, M = self.pieces()
        f = GradedMap(A, A, -1, {("a", "b"): 2})
        g = GradedMap(A, A, -1, {("a", "b"): 3})
        out = _block_map(M, M, -1, [
            (f, "x.{}", "x.{}", 1), (g, "x.{}", "x.{}", -1), (None, "", "", 1),
            (f, "x.{}", "x.{}", -1), (g, "z.{}", "z.{}", -1)])
        # 2 - 3 - 2 on x.a -> x.b; -3 on z.a -> z.b
        assert out.entries == {("x.a", "x.b"): -3, ("z.a", "z.b"): -3}
        gone = _block_map(M, M, -1, [(f, "x.{}", "x.{}", 1),
                                     (f, "x.{}", "x.{}", -1)])
        assert gone.is_zero_mod(0)

    def test_name_outside_target_raises(self):
        A, _B, M = self.pieces()
        f = GradedMap(A, A, -1, {("a", "b"): 1})
        with pytest.raises(ChainError):
            _block_map(M, M, -1, [(f, "x.{}", "w.{}", 1)])
        with pytest.raises(ChainError):  # degree homogeneity still checked
            _block_map(M, M, -1, [(f, "x.{}", "z.{}", 1)])

    def test_doubled_strict_map_is_s_u_map(self):
        rng = random.Random(53)
        for _ in range(30):
            C1 = random_complex(rng, with_u=True).complex
            C2 = random_complex(rng, with_u=True).complex
            P = random_pmorphism(rng, C1, C2)
            S1, S2 = s_u(C1).module, s_u(C2).module
            assert _doubled(P.phi, P.k_phi, S1, S2) == s_u_map(P)
            strict = strict_pmorphism(C1, C2, P.phi)
            if strict.verify():
                assert _doubled(P.phi, None, S1, S2) == s_u_map(strict)


class TestTensor:
    def mul_complex(self, n, shift=0):
        return complex_from([("b", 1 + shift), ("a", 0 + shift)],
                            {("b", "a"): n})

    def test_square_zero(self):
        rng = random.Random(41)
        for _ in range(10):
            A = random_complex(rng).complex
            B = random_complex(rng).complex
            T = tensor(A, B).complex
            assert validate(T).ok

    def test_tor_term(self):
        T = tensor(self.mul_complex(2), self.mul_complex(2)).complex
        h = homology(T)
        assert h[0] == AbelianGroup(0, (2,))
        assert h[1] == AbelianGroup(0, (2,))  # the Tor(Z/2, Z/2) shift
        assert h[2] == AbelianGroup(0, ())

    def test_coprime_acyclic(self):
        T = tensor(self.mul_complex(2), self.mul_complex(3)).complex
        assert homology(T).degrees() == []

    def test_kunneth_dimensions_mod_p(self):
        rng = random.Random(43)
        for _ in range(10):
            A = random_complex(rng, p=2)
            B = random_complex(rng, p=2)
            T = tensor(A.complex, B.complex).complex
            h = homology(T)
            lo = min(list(A.expected) + list(B.expected) + [0])
            hi = max(list(A.expected) + list(B.expected) + [0])
            for n in range(2 * lo - 1, 2 * hi + 2):
                want = 0
                for i, ga in A.expected.items():
                    gb = B.expected.get(n - i)
                    if gb is not None:
                        want += ga.free_rank * gb.free_rank
                assert h[n].free_rank == want and h[n].torsion == ()

    def test_factor_actions_satisfy_laws(self):
        rng = random.Random(47)
        found = attempts = 0
        while found < 5 and attempts < 100:
            attempts += 1
            A = random_complex(rng, with_u=True).complex
            B = random_complex(rng, with_u=True).complex
            y = anticommuting_y(rng, A)
            if y is None:
                continue
            A = A.with_actions(y_action=y)
            found += 1
            res = tensor(A, B)
            T = res.complex
            for umap in (res.u1, res.u2):
                D = T.with_actions(u_action=umap)
                assert validate(D).ok
            Dy = T.with_actions(y_action=res.y1)
            assert validate(Dy).ok
        assert found == 5

    def test_modulus_unsupported(self):
        m = GradedModule([("a", 0)], modulus=2)
        C = ChainComplex(m, GradedMap.zero(m, m, -1))
        with pytest.raises(ModulusUnsupported):
            tensor(C, C)


class TestHomotopyAndPMorphisms:
    def test_homotopic_maps(self):
        rng = random.Random(53)
        for _ in range(10):
            C = random_complex(rng).complex
            gens = C.module.generators
            ent = {}
            for a, da in gens:
                for b, db in gens:
                    if db == da + 1 and rng.random() < 0.5:
                        ent[(a, b)] = rng.randint(-2, 2)
            K = GradedMap(C.module, C.module, 1, ent)
            g = GradedMap.identity(C.module)
            f = g + (C.d @ K) + (K @ C.d)
            assert verify_homotopy(f, g, K, C, C)
            if C.module.generators:
                assert not verify_homotopy(f + g, g, K, C, C)

    def test_degree_checks(self):
        C = two_sphere_like()
        idm = GradedMap.identity(C.module)
        with pytest.raises(ChainError):
            verify_homotopy(idm, idm, GradedMap.zero(C.module, C.module, 0), C, C)

    def test_random_pmorphisms_verify(self):
        rng = random.Random(59)
        for _ in range(20):
            C1 = random_complex(rng, with_u=True).complex
            C2 = random_complex(rng, with_u=True).complex
            pm = random_pmorphism(rng, C1, C2)
            assert pm.verify()

    def test_composition_verifies(self):
        rng = random.Random(61)
        for _ in range(10):
            C1 = random_complex(rng, with_u=True).complex
            C2 = random_complex(rng, with_u=True).complex
            C3 = random_complex(rng, with_u=True).complex
            f = random_pmorphism(rng, C1, C2)
            g = random_pmorphism(rng, C2, C3)
            assert compose(g, f).verify()

    def test_identity_pmorphism(self):
        rng = random.Random(67)
        C = random_complex(rng, with_u=True).complex
        assert identity_pmorphism(C).verify()

    def test_witness_degree_checked(self):
        C = two_sphere_like()
        phi = GradedMap.identity(C.module)
        with pytest.raises(ChainError):
            PMorphism(C, C, phi, GradedMap.zero(C.module, C.module, 0))

    def test_verdict_computed_once(self, monkeypatch):
        # a(0) -> b(-2) under U, d = 0: the identity is a p-morphism, the
        # projection onto a is a chain map that does not commute with U
        m = GradedModule([("a", 0), ("b", -2)])
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         u_action=GradedMap(m, m, -2, {("a", "b"): 1}))
        checked = []
        original = PMorphism.u_defect

        def counting(self):
            checked.append(self)
            return original(self)

        monkeypatch.setattr(PMorphism, "u_defect", counting)
        good = identity_pmorphism(C)
        bad = strict_pmorphism(C, C, GradedMap(m, m, 0, {("a", "a"): 1}))
        for _ in range(3):
            assert good.verify() and not bad.verify()
        assert checked == [good, bad]

    def test_law_witnesses_the_first_failing_invariant(self, monkeypatch):
        # on C the projection onto a is a chain map that does not commute
        # with U; on D it is not a chain map, so its U law is never judged
        m = GradedModule([("a", 0), ("b", -2)])
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         u_action=GradedMap(m, m, -2, {("a", "b"): 1}))
        bad_u = strict_pmorphism(C, C, GradedMap(m, m, 0, {("a", "a"): 1}))
        assert list(bad_u.laws("c", "u")) == [
            Check("c", True), Check("u", False, ("a", "b"))]
        assert bad_u._verdict is False
        good = identity_pmorphism(C)
        assert list(good.laws("c", "u")) == [Check("c", True),
                                             Check("u", True)]
        assert good._verdict is True and good.law("t") == Check("t", True)
        n = GradedModule([("a", 1), ("b", 0)])
        D = ChainComplex(n, GradedMap(n, n, -1, {("a", "b"): 1}),
                         u_action=GradedMap.zero(n, n, -2))
        bad_d = strict_pmorphism(D, D, GradedMap(n, n, 0, {("a", "a"): 1}))
        monkeypatch.setattr(PMorphism, "u_defect", None)
        assert bad_d.law("t") == Check("t", False, ("a", "b"))
        assert bad_d._verdict is False and not bad_d.verify()


class TestInducedMaps:
    def test_doubling_flags(self):
        C = complex_from([("x", 0), ("b", 1), ("a", 0)], {("b", "a"): 3})
        f = GradedMap.identity(C.module).scale(2)
        ind = induced_on_homology(f, C, C)
        info = ind.by_degree.get(0)
        assert info.source_group == AbelianGroup(1, (3,))
        assert info.injective and not info.surjective
        assert not info.isomorphism

    def test_identity_iso(self):
        rng = random.Random(71)
        for _ in range(10):
            C = random_complex(rng).complex
            ind = induced_on_homology(GradedMap.identity(C.module), C, C)
            sw = C.module.support_window()
            if sw:
                assert ind.iso_on(sw)

    def test_zero_map_flags(self):
        C = complex_from([("x", 0), ("b", 1), ("a", 0)], {("b", "a"): 3})
        z = GradedMap.zero(C.module, C.module, 0)
        info = induced_on_homology(z, C, C).by_degree.get(0)
        assert not info.injective and not info.surjective

    @staticmethod
    def matrices_agree(composed, direct, target_group):
        """Canonical torsion coordinates are only defined modulo the moduli."""
        assert composed.rows == direct.rows and composed.cols == direct.cols
        tors = target_group.torsion
        for i in range(composed.rows):
            for j in range(composed.cols):
                a, b = composed[(i, j)], direct[(i, j)]
                if i < len(tors):
                    assert (a - b) % tors[i] == 0
                else:
                    assert a == b

    def test_composition_of_matrices(self):
        C = complex_from([("x", 0), ("b", 1), ("a", 0)], {("b", "a"): 4})
        f2 = GradedMap.identity(C.module).scale(2)
        f3 = GradedMap.identity(C.module).scale(3)
        ind2 = induced_on_homology(f2, C, C)
        ind3 = induced_on_homology(f3, C, C)
        ind6 = induced_on_homology(f3 @ f2, C, C)
        for j, info in ind6.by_degree.items():
            m2, m3 = ind2.by_degree.get(j), ind3.by_degree.get(j)
            self.matrices_agree(m3.matrix @ m2.matrix, info.matrix,
                                info.target_group)

    def test_composition_through_sum(self):
        rng = random.Random(73)
        A = random_complex(rng).complex
        B = random_complex(rng).complex
        S = direct_sum(A, B)
        i = cone_inclusion(S, B)
        q = cone_projection(S, A)
        ind_i = induced_on_homology(i, B, S)
        ind_q = induced_on_homology(q, S, A)
        comp = induced_on_homology(q @ i, B, A)
        for j, info in comp.by_degree.items():
            mi = ind_i.by_degree.get(j)
            mq = ind_q.by_degree.get(j)
            if mi is None or mq is None:
                continue
            self.matrices_agree(mq.matrix @ mi.matrix, info.matrix,
                                info.target_group)

    def test_inclusion_injective_projection_surjective(self):
        A = two_sphere_like()
        B = complex_from([("f1", 1), ("f0", 0)], {("f1", "f0"): 3})
        S = direct_sum(A, B, tags=("L", "R"))
        i = cone_inclusion(S, B, tag="R")
        q = cone_projection(S, A, tag="L")
        ind_i = induced_on_homology(i, B, S)
        for info in ind_i.by_degree.values():
            assert info.injective
        ind_q = induced_on_homology(q, S, A)
        for info in ind_q.by_degree.values():
            assert info.surjective

    def test_requires_chain_map(self):
        C = two_sphere_like()
        f = GradedMap(C.module, C.module, -1, {("e1", "e0"): 1})
        with pytest.raises(NotAChainMap):
            induced_on_homology(f, C, C)


class TestExactness:
    def test_split_exact(self):
        A = two_sphere_like()
        B = complex_from([("f1", 1), ("f0", 0)], {("f1", "f0"): 3})
        S = direct_sum(A, B, tags=("L", "R"))
        i = cone_inclusion(S, A, tag="L")
        q = cone_projection(S, B, tag="R")
        assert verify_exact_at([A, S, B], [i, q], 1, (-1, 3)) is True

    def test_composition_nonzero_raises(self):
        C = two_sphere_like()
        idm = GradedMap.identity(C.module)
        with pytest.raises(CompositionNonzero):
            verify_exact_at([C, C, C], [idm, idm], 1, (0, 0))

    def test_contained_but_not_equal(self):
        A = two_sphere_like()
        B = complex_from([("f0", 0)], {})
        S = direct_sum(A, B, tags=("L", "R"))
        i = cone_inclusion(S, A, tag="L")
        zero_mod = GradedModule([])
        Z = ChainComplex(zero_mod, GradedMap.zero(zero_mod, zero_mod, -1))
        z = GradedMap.zero(S.module, zero_mod, 0)
        assert verify_exact_at([A, S, Z], [i, z], 1, (0, 1)) is False

    def test_position_interior(self):
        C = two_sphere_like()
        idm = GradedMap.identity(C.module)
        with pytest.raises(ChainError):
            verify_exact_at([C, C], [idm], 0, (0, 0))


@pytest.fixture
def built(monkeypatch):
    """Every presentation built, as (dim, d_in, d_out, p, presentation) of
    its ``PresentedGroup.from_pieces`` call; ``from_pair`` is not
    called."""
    calls = []
    original = PresentedGroup.from_pieces.__func__

    def counting(cls, dim, d_in, d_out, p=0):
        calls.append((dim, d_in, d_out, p, original(cls, dim, d_in, d_out, p)))
        return calls[-1][-1]

    monkeypatch.setattr(PresentedGroup, "from_pieces", classmethod(counting))
    monkeypatch.setattr(PresentedGroup, "from_pair", classmethod(
        lambda *a: pytest.fail("a presentation built from blocks")))
    return calls


def _reduced_pieces(C, j):
    """The pieces of C's reduced d' out of (reduced) degree j, as
    {(row in C'_{j-1}, column in C'_j): v}, from d' itself."""
    module = reduction(C).complex.module
    j = module.reduce_degree(j)
    at = {nm: i for names in module._by_degree.values()
          for i, nm in enumerate(names)}
    return {(at[t], at[s]): v
            for (s, t), v in reduction(C).complex.d.entries.items()
            if module.degree_of(s) == j}


def _kept_by(C, call):
    """True iff a ``from_pieces`` call made a presentation that C's
    reduction keeps: its trivial one, or the one of a degree j of C' read
    off the pieces of d' into and out of C'_j."""
    red, pg = reduction(C), call[4]
    if pg is red.trivial:
        return call[:4] == (0, {}, {}, C.p)
    return any(pg is got and call[:4] == (
        len(red.complex.module.gens_in_degree(j)),
        _reduced_pieces(C, j + 1), _reduced_pieces(C, j), C.p)
        for j, got in red.presented.items())


class TestPresentationMemo:
    """A complex's reduction presents every degree where C' is not empty,
    by one ``from_pieces`` call on the pieces of d' into and out of it,
    and one trivial group beside them; nothing is presented again, the
    record belongs to one complex object, and no block is built."""

    def test_second_homology_builds_nothing(self, built):
        C = two_sphere_like()
        first = homology(C)
        n = len(built)
        red = reduction(C)
        assert n == len(red.presented) + 1 > 1
        assert all(_kept_by(C, call) for call in built)
        assert any(call[1] or call[2] for call in built)
        assert homology(C) == first
        assert homology(C, window=(0, 1)) == homology(C, window=(0, 1))
        assert homology(C, window=(-5, 9)) == first
        assert len(built) == n and reduction(C) is red

    def test_four_flavors_presents_each_slice_degree_once(self, built):
        rng = random.Random(43)
        for _ in range(3):
            C = random_complex(rng, max_pieces=3, with_u=True).complex
            del built[:]
            ff = four_flavors(C)
            slices = ff.sequences.complexes.values()
            # every build landed in one slice's reduction, one per degree
            assert len(built) == sum(len(reduction(cx).presented) + 1
                                     for cx in slices)
            assert all(any(_kept_by(cx, call) for cx in slices)
                       for call in built)
            n = len(built)
            for cx in slices:
                homology(cx)
                induced_on_homology(GradedMap.identity(cx.module), cx, cx)
            assert len(built) == n

    def test_distinct_complexes_never_share(self, built):
        C = two_sphere_like()
        twin = ChainComplex(C.module, C.d, p=C.p)
        homology(C)
        n = len(built)
        assert homology(twin) == homology(C)
        assert len(built) == 2 * n
        red, twin_red = reduction(C), reduction(twin)
        assert twin_red is not red
        assert twin_red.presented is not red.presented
        assert sorted(twin_red.presented) == sorted(red.presented)
        for j, pg in red.presented.items():
            assert twin_red.presented[j] is not pg
        assert twin_red.trivial is not red.trivial
        u = GradedMap.zero(C.module, C.module, -2)
        assert C.with_actions(u_action=u)._reduced is None

    def test_periodic_memo_keyed_by_reduced_degree(self, built):
        C = complex_from([("a", 0), ("b", 1)], {("b", "a"): 2}, modulus=2)
        h = homology(C, window=(-6, 6))
        assert h[0] == AbelianGroup(0, (2,))
        assert sorted(reduction(C).presented) == [0, 1]
        # H_0 = Z/2 reads the piece b -> 2a into degree 0, H_1 = 0 the
        # same piece out of degree 1; then the trivial group
        assert [call[:3] for call in built] == [
            (1, {(0, 0): 2}, {}), (1, {}, {(0, 0): 2}), (0, {}, {})]
        assert all(_kept_by(C, call) for call in built)


def _oracle(C, j):
    """The unreduced presentation of C at degree j (over F_p the
    reference one)."""
    return unreduced_presentation(block(C.d, j + 1), block(C.d, j), C.p)


def _reduction_inputs():
    """Seeded complexes over Z, F2, F3, F5, with and without U, and one
    periodic complex."""
    rng = random.Random(2024)
    out = []
    for p in (0, 2, 3, 5):
        for with_u in (False, True):
            for _ in range(4):
                out.append(random_complex(rng, max_pieces=6, p=p,
                                          with_u=with_u).complex)
    periodic = complex_from(
        [("a", 0), ("b", 1), ("c", 2), ("e", 3), ("f", 0), ("g", 1)],
        {("b", "a"): 1, ("e", "c"): -1, ("g", "f"): 2}, modulus=4)
    out.append(random_basis_change(rng, periodic))
    return out


def _homotopic_to_identity(rng, C):
    """1 + dN + Nd for a random degree +1 map N: a chain map that moves
    cycles at chain level but is the identity on homology."""
    names = C.module.names()
    deg = C.module.degree_of
    ent = {(a, b): rng.choice([-1, 1, 2]) for a in names for b in names
           if C.module.reduce_degree(deg(a) + 1) == deg(b)
           and rng.random() < 0.3}
    N = GradedMap(C.module, C.module, 1, ent)
    return GradedMap.identity(C.module) + (C.d @ N) + (N @ C.d)


def _degrees(C):
    lo, hi = C.module.support_window()
    return range(lo - 1, hi + 2)


class TestReduction:
    """The reduction C' of a complex, with iota: C' -> C and pi: C -> C',
    against the unreduced presentation as the oracle; classes are read in
    C by the reference reading of ``helpers``."""

    def test_iota_pi_are_chain_maps_with_pi_iota_one(self):
        rng = random.Random(5)
        # flavor slices cancel generators that other columns of d reach, so
        # iota and pi differ from the identity off their kept generators
        slices = [cx for p in (0, 2, 3, 0, 2, 3) for cx in circle._e_y_slices(
            s_u(random_complex(rng, max_pieces=5, p=p, with_u=True).complex),
            circle.FLAVOR_TAGS, None).values()]
        moved = 0
        for C in _reduction_inputs() + slices:
            red = reduction(C)
            Cr = red.complex
            iota, pi = reduction_maps(C)
            # entries besides the one of each kept generator
            moved += len(iota.entries) + len(pi.entries) - 2 * len(Cr.module)
            assert is_chain_map(iota, Cr, C)
            assert is_chain_map(pi, C, Cr)
            pi_iota = pi @ iota
            ident = GradedMap.identity(Cr.module)
            if C.p:
                assert (pi_iota - ident).is_zero_mod(C.p)
            else:
                assert pi_iota == ident
            assert set(Cr.module.names()) <= set(C.module.names())
            assert reduction(C) is red
        assert moved > 0

    def test_differential_vanishes_over_fields(self):
        cancelled = 0
        for C in _reduction_inputs():
            Cr = reduction(C).complex
            if C.p:
                assert Cr.d.is_zero_mod(0)
            else:
                # over Z no +-1 entry is left
                assert all(abs(v) != 1 for v in Cr.d.entries.values())
            cancelled += len(C.module) - len(Cr.module)
        assert cancelled > 0

    def test_groups_match_unreduced_oracle(self):
        for C in _reduction_inputs():
            for j in _degrees(C):
                assert _presentation(C, j).group == _oracle(C, j).group

    def test_representatives_and_coordinates(self):
        for C in _reduction_inputs():
            for j in _degrees(C):
                pg = _presentation(C, j)
                reps = ambient_representatives(C, j)
                assert mod_p(block(C.d, j) @ reps, C.p).is_zero()
                back = ambient_coords(C, j, reps)
                assert pg.columns_are_zero(
                    back + IntMatrix.identity(pg.rank_coords()).scale(-1))
                # a vector d does not kill is no cycle
                for c in range(block(C.d, j).cols):
                    col = IntMatrix(block(C.d, j).cols, 1, {(c, 0): 1})
                    if not mod_p(block(C.d, j) @ col, C.p).is_zero():
                        assert ambient_coords(C, j, col) is None

    def test_induced_maps_agree_after_change_of_basis(self):
        rng = random.Random(77)
        checked = 0
        for C in _reduction_inputs():
            maps = [(_homotopic_to_identity(rng, C), C, C)]
            D = random_complex(rng, max_pieces=3, p=C.p).complex
            if not C.module.modulus:
                S = direct_sum(C, D, tags=("L", "R"))
                maps += [(cone_inclusion(S, D, tag="R"), D, S),
                         (cone_projection(S, C, tag="L"), S, C)]
            for f, src, tgt in maps:
                induced = induced_on_homology(f, src, tgt)
                for j, info in induced.by_degree.items():
                    o_src = _oracle(src, j)
                    o_tgt = _oracle(tgt, j + f.degree)
                    F_old = o_tgt.coord_matrix(
                        block(f, j) @ o_src.representatives())
                    jt = j + f.degree
                    assert (info.injective, info.surjective) == _flags(
                        fixed_arrow(F_old, presented_at(o_src, j, C.p),
                                    presented_at(o_tgt, jt, C.p),
                                    j, f.degree), j)
                    # the new generators in oracle coordinates
                    b_src = o_src.coord_matrix(
                        ambient_representatives(src, j))
                    b_tgt = o_tgt.coord_matrix(
                        ambient_representatives(tgt, j + f.degree))
                    assert o_tgt.columns_are_zero(
                        b_tgt @ info.matrix + (F_old @ b_src).scale(-1))
                    checked += 1
        assert checked > 100

    def test_pivot_rule_smallest_coboundary_then_earliest(self):
        # Which generators C' keeps depends on the pivot, and so do the
        # coefficients the Smith form meets after it (``snf_max_bits`` of
        # tools/scale_z.py).  x has the unit targets ya (coboundary {x, z})
        # and yb (coboundary {x}): yb goes, though ya comes first.  t has
        # the tied targets w1 and w2: the earlier, w1, goes.
        C = complex_from(
            [("x", 1), ("z", 1), ("ya", 0), ("yb", 0),
             ("t", 3), ("w1", 2), ("w2", 2)],
            {("x", "ya"): 1, ("x", "yb"): -1, ("z", "ya"): 2,
             ("t", "w1"): 1, ("t", "w2"): 1})
        red = reduction(C)
        assert red.complex.module.names() == ("z", "ya", "w2")
        assert red.complex.d.entries == {("z", "ya"): 2}
        assert homology(C) == homology(red.complex)


def _flip_pi_sign_on_z(monkeypatch):
    """Patch ``chain._reduce`` into a mutant whose pi update has the wrong
    sign over Z only: pi(s) += +u^-1 r pi(y) where the reduction takes
    -u^-1 r.  pi . iota = 1 still holds, and no certificate of
    ``four_flavors`` notices on its own."""
    src = inspect.getsource(chain._reduce)
    update = "py, -uinv * r, p)"
    assert src.count(update) == 1
    ns = dict(vars(chain))
    exec(compile(src.replace(update, "py, (-uinv if p else uinv) * r, p)"),
                 chain.__file__, "exec"), ns)
    monkeypatch.setattr(chain, "_reduce", ns["_reduce"])


def _law_inputs(rng, p, count):
    """Seeded U-complexes over Z or F_p, each with the four flavor slices
    ``four_flavors`` presents."""
    out = []
    for _ in range(count):
        C = random_complex(rng, 4, p=p, with_u=True).complex
        out += [C, *four_flavors(C).sequences.complexes.values()]
    return out


class TestReductionLaws:
    """``helpers.reduction_defects``: a reduction is a pair of chain maps
    with pi . iota = 1 on every block, the guard on what every presentation
    of C' assumes; it holds of the program over Z, F2 and F3 and rejects a
    pi of the wrong sign."""

    def test_every_reduction_keeps_the_laws(self):
        rng = random.Random(1204)
        moved = 0
        for p in (0, 2, 3):
            for C in _law_inputs(rng, p, 10):
                assert reduction_defects(C) == []
                moved += bool(reduction(C).pi_rows)
        assert moved > 25

    def test_a_pi_of_the_wrong_sign_is_rejected(self, monkeypatch):
        unmutated = chain._reduce
        _flip_pi_sign_on_z(monkeypatch)
        rng = random.Random(1204)
        caught = 0
        for C in _law_inputs(rng, 0, 20):
            defects = reduction_defects(C)
            # pi . iota = 1 alone does not see it; d' . pi = pi . d does,
            # on every input where the mutant's pi differs from the
            # reduction's (the changes of basis move pi's rows too)
            assert "pi.iota=1" not in defects
            assert bool(defects) == (reduction(C).pi_rows
                                     != unmutated(C).pi_rows)
            caught += bool(defects)
        assert caught >= 30
        # over F_p the mutant is the reduction itself
        for p in (2, 3):
            for C in _law_inputs(rng, p, 3):
                assert reduction_defects(C) == []


def _folded(C, modulus):
    """C with its degrees read mod ``modulus``."""
    module = GradedModule(C.module.generators, modulus)
    return ChainComplex(module, GradedMap(module, module, -1,
                                          dict(C.d.entries)), p=C.p)


def _piece_inputs(rng):
    """Seeded Z complexes, Z- and periodically graded, and Z flavor slices
    (which the four flavors present)."""
    out = []
    for modulus in (0, 2, 4):
        for _ in range(8):
            C = random_complex(rng, max_pieces=8).complex
            out.append(random_basis_change(rng, _folded(C, modulus))
                       if modulus else C)
    for _ in range(3):
        S = s_u(random_complex(rng, max_pieces=5, with_u=True).complex)
        out += circle._e_y_slices(S, circle.FLAVOR_TAGS, None).values()
    return out


def _is_elementary(entries):
    """Every generator meets at most one of the entries {(source, target):
    v} of a differential, each of absolute value at least 2."""
    ends = [g for pair in entries for g in pair]
    return (len(ends) == len(set(ends))
            and all(abs(v) >= 2 for v in entries.values()))


class TestElementaryPieces:
    """Over Z the reduction ends in pieces v: x -> y of C': each generator
    meets at most one entry of d', and every entry has |v| >= 2; the
    changes of basis that get it there keep iota and pi chain maps with
    pi . iota = 1.  Each homology group is read off the pieces, which the
    two-factorization presentation of the same blocks confirms."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((0, 2, 4)),
           st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_pieces_property(self, seed, modulus, pieces):
        rng = random.Random(seed)
        spec = random_complex(rng, max_pieces=pieces)
        C = (random_basis_change(rng, _folded(spec.complex, modulus))
             if modulus else spec.complex)
        assert _is_elementary(reduction(C).complex.d.entries)
        assert reduction_defects(C) == []
        if not modulus:
            assert all(homology(C)[j] == g for j, g in spec.expected.items())

    def test_changes_of_basis_are_made(self, monkeypatch):
        # the seeded inputs reach the pieces through gcd steps: the d' the
        # unit pass leaves is often not elementary yet
        entering = []
        original = chain._isolate

        def recording(bd, *args):
            entering.append(not _is_elementary({
                (x, y): v for x, dx in bd.items() for y, v in dx.items()}))
            original(bd, *args)

        monkeypatch.setattr(chain, "_isolate", recording)
        for C in _piece_inputs(random.Random(808)):
            assert _is_elementary(reduction(C).complex.d.entries)
            assert reduction_defects(C) == []
        assert sum(entering) >= 10

    def test_a_differential_that_does_not_square_to_zero_is_refused(self):
        # a -2-> b -2-> c: a -> b is isolated with b's entry left behind,
        # which only d^2 = 0 rules out; such leftovers could make the
        # changes of basis cycle for ever
        C = complex_from([("a", 2), ("b", 1), ("c", 0)],
                         {("a", "b"): 2, ("b", "c"): 2})
        with pytest.raises(ChainError, match="square to zero"):
            reduction(C)

    def test_presentations_match_the_two_factorization_oracle(self):
        # each degree of C' against ``FactoredPresentation`` of the same
        # blocks: the same group, and the same verdict on which vectors are
        # cycles and which cycles are boundaries
        rng = random.Random(809)
        verdicts = {None: 0, True: 0, False: 0}
        torsion = 0
        for C in _piece_inputs(random.Random(808)):
            dr = reduction(C).complex.d
            for j in set(map(C.module.reduce_degree, _degrees(C))):
                pg = _presentation(C, j)
                want = FactoredPresentation(block(dr, j + 1), block(dr, j))
                assert pg.group == want.group
                torsion += bool(pg.group.torsion)
                d_in, n = block(dr, j + 1), pg.dim
                reps = want.representatives()
                moduli = want.torsion_moduli + [0] * len(want.free_rows)
                vectors = [want.cycles @ random_matrix(rng, want.cycles.cols,
                                                       3, lo=-9, hi=9),
                           reps @ diagonal(moduli),
                           random_matrix(rng, n, 2, lo=-3, hi=3)]
                vectors += [v + d_in @ random_matrix(rng, d_in.cols, v.cols)
                            for v in vectors]
                for M in vectors:
                    for c in range(M.cols):
                        col = IntMatrix(n, 1, {(i, 0): v for (i, k), v
                                               in M.entries.items() if k == c})
                        got, ref = coord_matrix(pg, col), want.coord_matrix(col)
                        assert (got is None) == (ref is None)
                        verdict = (None if got is None
                                   else pg.columns_are_zero(got))
                        assert verdict == (None if ref is None
                                           else want.columns_are_zero(ref))
                        verdicts[verdict] += 1
        assert torsion >= 30 and min(verdicts.values()) >= 50, verdicts


class TestHomologyAgainstSympy:
    """Z homology of seeded complexes with torsion equals what the ranks
    and the invariant factors of their differential blocks give, with the
    factors from sympy: H_j = Z^(n_j - r_j - r_(j+1)) plus Z/f for every
    invariant factor f >= 2 of d_(j+1)."""

    def test_seeded_complexes(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        def factors(M):
            if not M.entries:
                return []
            return [abs(int(f)) for f in invariant_factors(
                sympy.Matrix(to_dense(M)), domain=sympy.ZZ) if f]

        rng = random.Random(2012)
        torsion = 0
        for _ in range(60):
            C = random_complex(rng, max_pieces=9).complex
            H = homology(C)
            for j in _degrees(C):
                out, inc = factors(block(C.d, j)), factors(block(C.d, j + 1))
                n = len(C.module.gens_in_degree(j))
                want = AbelianGroup(n - len(out) - len(inc),
                                    [f for f in inc if f >= 2])
                assert H[j] == want, (j, H[j], want)
                torsion += bool(want.torsion)
        assert torsion >= 80


class TestBlocksOnDemand:
    """A degree's blocks (iota_j, pi_j) read from the sparse record, a
    column of iota and a row of pi per generator of C'_j, in any order of
    degrees: each equals the block of the assembled maps, has
    pi_j iota_j = 1, and fits C's d and d' as a chain map must."""

    def test_each_degree_equals_the_eager_build(self):
        rng = random.Random(5)
        # flavor slices cancel generators that other columns of d reach, so
        # iota and pi differ from the identity off their kept generators
        slices = [cx for p in (0, 2, 3, 0, 2, 3) for cx in circle._e_y_slices(
            s_u(random_complex(rng, max_pieces=5, p=p, with_u=True).complex),
            circle.FLAVOR_TAGS, None).values()]
        moved = 0
        for C in _reduction_inputs() + slices:
            red = reduction(C)
            Cr = red.complex.module
            iota, pi = reduction_maps(C)
            index = C.module._index

            def blocks(j):
                src = [index[nm] for nm in C.module.gens_in_degree(j)]
                row = {g: r for r, g in enumerate(src)}
                kept = [index[nm] for nm in Cr.gens_in_degree(j)]
                return (
                    IntMatrix(len(src), len(kept), {
                        (row[h], c): v for c, g in enumerate(kept)
                        for h, v in red.iota_column(g).items()}),
                    IntMatrix(len(kept), len(src), {
                        (r, row[h]): v for r, g in enumerate(kept)
                        for h, v in red.pi_row(g).items()}))

            degrees = list(C.module.degrees())
            rng.shuffle(degrees)
            for j in degrees:
                iota_j, pi_j = blocks(j)
                assert iota_j == block(iota, j) and pi_j == block(pi, j)
                # entries besides the one of each kept generator
                moved += (len(iota_j.entries) - iota_j.cols
                          + len(pi_j.entries) - pi_j.rows)
                assert mod_p(pi_j @ iota_j, C.p) == IntMatrix.identity(
                    iota_j.cols)
                # chain maps: d iota = iota d' and pi d = d' pi
                d, dr = C.d, red.complex.d
                below = blocks(C.module.reduce_degree(j - 1))
                assert (mod_p(block(d, j) @ iota_j, C.p)
                        == mod_p(below[0] @ block(dr, j), C.p))
                assert (mod_p(below[1] @ block(d, j), C.p)
                        == mod_p(block(dr, j) @ pi_j, C.p))
        assert moved > 0


def _les_inputs():
    """Twenty seeded F2/F3 inputs: a U-complex for the fundamental
    sequences and a tower bundle for the ladder."""
    rng = random.Random(505)
    for i in range(20):
        p = (2, 3)[i % 2]
        C = random_complex(rng, max_pieces=3, p=p, with_u=True).complex
        base = random_complex(rng, max_pieces=1, p=p).complex
        yield C, assemble(tower_model(TowerParams(base=base, n=2 + i % 2)))


class TestRankVerdict:
    """Over F_p an LES node is decided by ranks; the four-factorization
    lattice oracle must give the same verdict on every node."""

    def test_rank_verdict_equals_lattice_verdict(self, monkeypatch):
        seen = []
        original = circle.exactness_pair

        def both(incoming, outgoing, j):
            verdict = original(incoming, outgoing, j)
            p = incoming.target.p
            mid = _presentation(incoming.target, j)
            tgt = _presentation(outgoing.target, j + outgoing.degree)
            F = incoming.matrix(j - incoming.degree)
            G = outgoing.matrix(j)
            n = mid.rank_coords()
            assert p
            assert verdict == lattice_exactness_oracle(F, G, mid, tgt, p)
            # deliberately broken nodes: F replaced by 0, and by the
            # identity of the middle group
            for bad in (IntMatrix(n, F.cols), IntMatrix.identity(n)):
                rank = exactness_pair(*fixed_node(bad, G, mid, tgt, p), 0)
                assert rank == lattice_exactness_oracle(bad, G, mid, tgt, p)
                seen.append(("broken", rank))
            seen.append(("node", verdict))
            return verdict

        monkeypatch.setattr(circle, "exactness_pair", both)
        for C, bundle in _les_inputs():
            assert four_flavors(C).sequences.ok
            assert ladder_check(bundle).ok
        nodes = [v for kind, v in seen if kind == "node"]
        broken = [v for kind, v in seen if kind == "broken"]
        assert len(nodes) > 1000 and all(v == (True, True) for v in nodes)
        # both paths reject: an image short of the kernel, and an image
        # outside it
        assert (True, False) in broken and (False, False) in broken


class TestLatticeNodes:
    """Constructed Z nodes: the product test and two factorizations agree
    with the four-factorization oracle where the image leaves the kernel,
    where it falls short of it (F scaled by 2 at a free node, or killed by
    the middle torsion), and where F or G is empty."""

    def test_constructed_nodes(self):
        M = from_rows
        zero = PresentedGroup.from_pair(IntMatrix(0, 0), IntMatrix(0, 0))
        z = PresentedGroup.from_pair(IntMatrix(1, 0), IntMatrix(0, 1))
        z2, z4 = (PresentedGroup.from_pair(M([[m]]), IntMatrix(0, 1))
                  for m in (2, 4))
        z2_z = PresentedGroup.from_pair(M([[2], [0]]), IntMatrix(0, 2))
        assert (z2.group, z2_z.group) == (AbelianGroup(0, (2,)),
                                          AbelianGroup(1, (2,)))
        cases = [   # mid, tgt, F, G, (contained, equal)
            (z, z, M([[1]]), M([[0]]), (True, True)),
            (z, z, M([[2]]), M([[0]]), (True, False)),
            (z, z, M([[1]]), M([[1]]), (False, False)),
            (z, z, IntMatrix(1, 0), M([[3]]), (True, True)),
            (z, z, IntMatrix(1, 0), M([[0]]), (True, False)),
            (z, zero, M([[1]]), IntMatrix(0, 1), (True, True)),
            (z, zero, M([[2]]), IntMatrix(0, 1), (True, False)),
            (z, zero, IntMatrix(1, 0), IntMatrix(0, 1), (True, False)),
            (z2, z4, M([[1]]), M([[2]]), (False, False)),
            (z2, z4, M([[2]]), M([[2]]), (True, True)),
            (z2, z4, M([[1]]), M([[0]]), (True, True)),
            (z2, z4, M([[2]]), M([[0]]), (True, False)),
            (z2_z, z, M([[1], [0]]), M([[0, 1]]), (True, True)),
            (z2_z, z, M([[0], [1]]), M([[0, 1]]), (False, False)),
            (z2_z, z, M([[1], [0]]), M([[0, 0]]), (True, False)),
        ]
        for mid, tgt, F, G, want in cases:
            assert exactness_pair(*fixed_node(F, G, mid, tgt), 0) == want
            assert lattice_exactness_oracle(F, G, mid, tgt, 0) == want


class TestOneFactorizationPerArrowDegree:
    """Over Z an arrow factors [class matrix | target torsion] once per
    source degree, and the long exact sequence nodes on both sides of it
    read that one factorization: every Smith form ``chain`` takes while
    the fundamental sequences of seeded Z complexes are certified is one
    arrow's kept entry at one degree, and each node's verdict is the
    four-factorization oracle's."""

    def test_seeded_z_sequences(self, monkeypatch):
        taken, reads, nodes = [], [], []
        snf, factored = chain.snf, _HomologyArrow.factored
        monkeypatch.setattr(chain, "snf",
                            lambda M: taken.append(M) or snf(M))
        monkeypatch.setattr(_HomologyArrow, "factored", lambda a, j: (
            reads.append((a, j)) or factored(a, j)))
        original = circle.exactness_pair

        def both(incoming, outgoing, j):
            verdict = original(incoming, outgoing, j)
            mid = _presentation(incoming.target, j)
            if mid.rank_coords():
                tgt = _presentation(outgoing.target, j + outgoing.degree)
                assert verdict == lattice_exactness_oracle(
                    incoming.matrix(j - incoming.degree),
                    outgoing.matrix(j), mid, tgt, 0)
                nodes.append(verdict)
            return verdict

        monkeypatch.setattr(circle, "exactness_pair", both)
        rng = random.Random(2121)
        for _ in range(10):
            C = random_complex(rng, max_pieces=5, with_u=True).complex
            assert circle.fundamental_sequences(s_u(C)).ok
        # one Smith form per (arrow, degree) read, each the arrow's entry
        keys = {(id(a), j): (a, j) for a, j in reads}
        assert len(taken) == len(keys)

        def content(M):
            return M.rows, M.cols, frozenset(M.entries.items())

        want = [IntMatrix.hstack([a.matrix(j), _presentation(
            a.target, j + a.degree).torsion_relation_columns()])
            for a, j in keys.values()]
        assert sorted(map(content, taken), key=repr) == sorted(
            map(content, want), key=repr)
        # each read is a factorization when every node takes its own; here
        # at least a fifth of them find the arrow's entry already kept
        assert len(nodes) > 100 and len(taken) <= 0.8 * len(reads)


def _shortcut_inputs():
    """Certificates over seeded inputs: the fundamental sequences of
    doubled U-complexes over Z, F2 and F3, and the ladder of F2/F3 tower
    bundles of depth 2..5, as checks to run."""
    rng = random.Random(808)
    for i in range(16):
        p = (0, 0, 2, 3)[i % 4]
        C = random_complex(rng, max_pieces=4, p=p, with_u=True).complex
        yield lambda C=C: circle.fundamental_sequences(s_u(C)).ok
    for n in range(2, 6):
        for p in (2, 3):
            base = random_complex(rng, max_pieces=1, p=p).complex
            bundle = assemble(tower_model(TowerParams(base=base, n=n)))
            yield lambda b=bundle: ladder_check(b).ok


class TestEmptyGroupShortcuts:
    """A trivial source group gives an empty class matrix and a trivial
    middle group an exact node, with no product built; the unshortened
    formulas are the oracle at every degree and node a certificate asks:
    the reading in C for class matrices, the four-factorization oracle,
    over Z and F_p, for verdicts."""

    def test_matrices_and_verdicts_match_the_oracle(self, monkeypatch):
        asked = {}
        original_matrix = _HomologyArrow.matrix

        def recording(arrow, j):
            asked[(id(arrow), j)] = (arrow, j)
            return original_matrix(arrow, j)

        # per ring: nodes with a trivial and with a nontrivial middle group
        nodes = {p: {True: 0, False: 0} for p in (0, 2, 3)}
        original_pair = circle.exactness_pair

        def both(incoming, outgoing, j):
            verdict = original_pair(incoming, outgoing, j)
            p = incoming.target.p
            mid = _presentation(incoming.target, j)
            F = incoming.matrix(j - incoming.degree)
            G = outgoing.matrix(j)
            tgt = _presentation(outgoing.target, j + outgoing.degree)
            assert verdict == lattice_exactness_oracle(F, G, mid, tgt, p)
            nodes[p][mid.rank_coords() == 0] += 1
            return verdict

        monkeypatch.setattr(_HomologyArrow, "matrix", recording)
        monkeypatch.setattr(circle, "exactness_pair", both)
        for check in _shortcut_inputs():
            assert check()
        sources = {True: 0, False: 0}
        for arrow, j in asked.values():
            src = _presentation(arrow.source, j)
            assert arrow.matrix(j) == ambient_coords(
                arrow.target, j + arrow.degree,
                block(arrow.f, j) @ ambient_representatives(arrow.source, j))
            sources[src.rank_coords() == 0] += 1
        assert sources[True] > 100 and sources[False] > 100
        for p in nodes:
            assert nodes[p][True] > 10 and nodes[p][False] > 10, (p, nodes)

    def test_non_chain_map_into_trivial_middle_still_raises(self):
        # a(0) is a cycle; f(a) = x is not, since d(x) = w; H_0(M) = 0
        for p in (0, 2):
            A = complex_from([("a", 0)], {}, p=p)
            M = complex_from([("x", 0), ("w", -1)], {("x", "w"): 1}, p=p)
            f = GradedMap(A.module, M.module, 0, {("a", "x"): 1})
            assert not is_chain_map(f, A, M)
            incoming = _HomologyArrow(f, A, M)
            outgoing = _HomologyArrow(GradedMap.identity(M.module), M, M)
            assert _presentation(A, 0).rank_coords() == 1
            assert _presentation(M, 0).rank_coords() == 0
            with pytest.raises(ChainError, match="image of a cycle"):
                exactness_pair(incoming, outgoing, 0)

    def test_arrows_must_meet_at_one_complex(self):
        A = two_sphere_like()
        twin = ChainComplex(A.module, A.d, p=A.p)
        ident = GradedMap.identity(A.module)
        into_a = _HomologyArrow(ident, A, A)
        out_of_twin = _HomologyArrow(ident, twin, twin)
        A2 = ChainComplex(A.module, A.d, p=2)
        from_f2 = _HomologyArrow(ident, A2, A)
        into_f2 = _HomologyArrow(ident, A, A2)
        # H_0 = Z, where 1 . 1 is no zero composite; H_5 = 0
        for j, verdict in ((0, (False, False)), (5, (True, True))):
            assert exactness_pair(into_a, into_a, j) == verdict
            for incoming, outgoing in ((into_a, out_of_twin),
                                       (from_f2, into_a), (into_a, into_f2)):
                with pytest.raises(ChainError, match="one complex"):
                    exactness_pair(incoming, outgoing, j)


def _class_matrix(arrow, j):
    """The class matrix of an arrow at source degree j with the source
    always presented and read in C by the reference reading: empty on a
    trivial source group, otherwise the coordinates of the images of its
    representatives."""
    src = _presentation(arrow.source, j)
    tgt = _presentation(arrow.target, j + arrow.degree)
    if not src.rank_coords():
        return IntMatrix(tgt.rank_coords(), 0)
    F = ambient_coords(arrow.target, j + arrow.degree, block(arrow.f, j)
                       @ ambient_representatives(arrow.source, j))
    if F is None:
        raise ChainError("image of a cycle is not a cycle")
    return F


def _tower_u_complex(rng, p, modulus=0):
    """A seeded U-complex whose U is nonzero on homology: a random
    U-complex beside a tower t0 <- t1 <- t2 (d = 0, U t_i = t_{i-1}), in a
    random basis, graded mod ``modulus``."""
    C = random_complex(rng, max_pieces=4, p=p, with_u=True).complex
    module = GradedModule(C.module.generators + tuple(
        (f"t{i}", 2 * i) for i in range(3)), modulus)
    u = {**C.u_action.entries, ("t1", "t0"): 1, ("t2", "t1"): 1}
    return random_basis_change(rng, ChainComplex(
        module, GradedMap(module, module, -1, C.d.entries),
        GradedMap(module, module, -2, u), p=p))


def _push_inputs():
    """Chain maps (f, source, target) that are not slice maps: over
    periodic complexes (modulus 2 and 4, over Z and F2) a map homotopic to
    the identity and U; over Z, F2 and F3 U and the doubled map
    ``s_u_map`` of a p-morphism homotopic to the identity."""
    rng = random.Random(1616)
    for modulus in (2, 4):
        for p in (0, 2):
            for _ in range(3):
                C = _tower_u_complex(rng, p, modulus)
                yield _homotopic_to_identity(rng, C), C, C
                yield C.u_action, C, C
    for p in (0, 2, 3):
        for _ in range(3):
            C = _tower_u_complex(rng, p)
            yield C.u_action, C, C
            N = random_pmorphism(rng, C, C, degree=0)
            P = PMorphism(C, C, GradedMap.identity(C.module) + N.phi, N.k_phi)
            yield s_u_map(P), s_u(C), s_u(C)


class TestPushMatchesBlocks:
    """A class matrix pushes sparse columns through iota, f, the cycle test
    and pi; the reference reading in C, f's block times the source's
    representatives in C in the target's coordinates of C, is the oracle,
    on inputs beyond the fundamental sequences and ladders."""

    def test_class_matrices_equal_the_ambient_reading(self):
        nonzero = {}
        for f, src, tgt in _push_inputs():
            kind = (src.module.modulus, src.p, src.y_action is not None)
            arrow = _HomologyArrow(f, src, tgt)
            for j, info in induced_on_homology(f, src, tgt).by_degree.items():
                assert info.matrix == arrow.matrix(j) == _class_matrix(
                    _HomologyArrow(f, src, tgt), j)
                nonzero[kind] = nonzero.get(kind, 0) + (
                    not info.matrix.is_zero())
        kinds = ([(m, p, False) for m in (2, 4) for p in (0, 2)]
                 + [(0, p, su) for p in (0, 2, 3) for su in (False, True)])
        assert all(nonzero.get(kind, 0) >= 5 for kind in kinds), nonzero


class TestClassMatricesBuildNoBlocks:
    """Class matrices read no degree block: one ladder and one run of the
    four flavors push classes through many arrows, each push reading the
    source's and the target's presentations from the complexes' reductions
    and
    building no matrix beside the class matrix it returns; no map has a
    block to build, and the tests' block builder is not reached."""

    def test_ladder_and_four_flavors(self, monkeypatch):
        import helpers
        pushed, made = [], []
        push, trusted = _HomologyArrow._push, IntMatrix._trusted.__func__

        def pushing(arrow, j, src, tgt):
            s_red, t_red = reduction(arrow.source), reduction(arrow.target)
            assert src is s_red.presented[
                arrow.source.module.reduce_degree(j)]
            assert tgt is t_red.presented.get(arrow.target.module
                                              .reduce_degree(j + arrow.degree),
                                              t_red.trivial)
            del made[:]
            F = push(arrow, j, src, tgt)
            assert made == [F]
            pushed.append(arrow)
            return F

        def making(cls, rows, cols, entries):
            made.append(trusted(cls, rows, cols, entries))
            return made[-1]

        monkeypatch.setattr(_HomologyArrow, "_push", pushing)
        monkeypatch.setattr(IntMatrix, "_trusted", classmethod(making))
        monkeypatch.setattr(helpers, "block",
                            lambda *a: pytest.fail("a block was built"))
        rng = random.Random(1717)
        base = random_complex(rng, max_pieces=2, p=2).complex
        assert ladder_check(assemble(tower_model(TowerParams(base=base, n=4)))).ok
        C = random_complex(rng, max_pieces=5, with_u=True).complex
        assert four_flavors(C).ok
        assert len(pushed) > 100
        assert {a.target.p for a in pushed} == {0, 2}
        assert not hasattr(GradedMap, "block")


def _presented_verdict(incoming, outgoing, j):
    """An LES node decided with every group presented: the middle group,
    both class matrices, then shape, rank or lattice."""
    p = incoming.target.p
    mid = _presentation(incoming.target, j)
    F = _class_matrix(incoming, j - incoming.degree)
    G = _class_matrix(outgoing, j)
    if not mid.rank_coords():
        return True, True
    tgt = _presentation(outgoing.target, j + outgoing.degree)
    return exactness_pair(*fixed_node(F, G, mid, tgt, p), 0)


def _outcome(decide, incoming, outgoing, j):
    try:
        return decide(incoming, outgoing, j)
    except ChainError as exc:
        return str(exc)


class TestEmptyReductionNodes:
    """An LES node whose middle complex and incoming source both reduce to
    nothing at its degree is exact with no class matrix built, and the
    complex's reduction presents nothing but the trivial group; the
    meeting and ring check still comes first, and every other node is
    decided as if every group were presented."""

    @staticmethod
    def _acyclic(p):
        # x -> w cancels: C' is empty in every degree
        return complex_from([("x", 0), ("w", -1)], {("x", "w"): 1}, p=p)

    def test_misuse_still_raises_at_an_empty_node(self, built):
        for p in (0, 2):
            A = self._acyclic(p)
            twin = ChainComplex(A.module, A.d, p=p)
            other = self._acyclic(3 if p else 2)
            ident = GradedMap.identity(A.module)
            into_a = _HomologyArrow(ident, A, A)
            for incoming, outgoing in (
                    (into_a, _HomologyArrow(ident, twin, twin)),
                    (_HomologyArrow(ident, other, A), into_a),
                    (into_a, _HomologyArrow(ident, A, other))):
                for j in (-1, 0, 4):
                    with pytest.raises(ChainError, match="one complex"):
                        exactness_pair(incoming, outgoing, j)

    def test_empty_node_builds_no_presentation(self, built):
        for p in (0, 2, 3):
            A = self._acyclic(p)
            arrow = _HomologyArrow(GradedMap.identity(A.module), A, A)
            for j in (-1, 0, 4):
                assert exactness_pair(arrow, arrow, j) == (True, True)
            assert [call[:4] for call in built] == [(0, {}, {}, p)]
            assert reduction(A).presented == {}
            assert built[0][4] is reduction(A).trivial
            assert not arrow._matrices
            del built[:]

    def test_verdicts_match_fully_presented_nodes(self, monkeypatch):
        rows_seen = []
        original = circle._les_check

        def capture(tag, win, rows, safe):
            rows_seen.append((win, rows))
            return original(tag, win, rows, safe)

        monkeypatch.setattr(circle, "_les_check", capture)
        rng = random.Random(1414)
        empty = {p: [0, 0] for p in (0, 2, 3)}
        for i in range(18):
            p = (0, 2, 3)[i % 3]
            C = random_complex(rng, max_pieces=4, p=p, with_u=True).complex
            del rows_seen[:]
            assert circle.fundamental_sequences(s_u(C)).ok
            assert len(rows_seen) == 2
            for win, rows in rows_seen:
                for _loc, incoming, outgoing in rows:
                    for j in range(win.lo, win.hi + 1):
                        shortcut = not (
                            reduction(incoming.target).complex.module
                            .gens_in_degree(j)
                            or reduction(incoming.source).complex.module
                            .gens_in_degree(j - incoming.degree))
                        empty[p][shortcut] += 1
                        assert _outcome(exactness_pair, incoming, outgoing,
                                        j) == _outcome(_presented_verdict,
                                                       incoming, outgoing, j)
        for p, (full, short) in empty.items():
            assert full > 50 and short > 50, (p, empty)


class TestPlainPresentationsFromDimension:
    """Where the reduction's differential is zero (every F_p complex) it
    has no pieces, and each degree is presented from its dimension: one
    ``from_pieces`` call with no pieces per degree where C' is not empty,
    one for the trivial group, and no block of d'.  The only block built
    is C's own d_j, by the tests' reference reading in C, for its cycle
    test."""

    def test_no_block_of_a_zero_reduced_differential(self, monkeypatch,
                                                      built):
        import helpers
        blocks = []
        original_block = helpers.block

        def recording(f, j):
            blocks.append(f)
            return original_block(f, j)

        monkeypatch.setattr(helpers, "block", recording)
        rng = random.Random(919)
        for i in range(10):
            p = (2, 3)[i % 2]
            C = random_complex(rng, max_pieces=4, p=p, with_u=i > 5).complex
            del blocks[:], built[:]
            h = homology(C)
            red = reduction(C)
            d_red = red.complex.d
            assert d_red.is_zero_mod(0)
            assert not blocks
            j = max(h.degrees())
            pg = _presentation(C, j)
            assert ambient_coords(C, j, ambient_representatives(C, j)) == \
                IntMatrix.identity(pg.rank_coords())
            assert blocks and not any(f is d_red for f in blocks)
            assert len(built) == len(red.presented) + 1
            assert built[-1][4] is red.trivial
            for _n, d_in, d_out, q, made in built:
                assert (d_in, d_out, q) == ({}, {}, p) and is_plain(made)
            lo, hi = C.module.support_window()
            for j in range(lo, hi + 1):
                n = len(red.complex.module.gens_in_degree(j))
                assert _presentation(C, j).dim == n
                assert h[j] == AbelianGroup(n)


class TestOnDemandCycleBlock:
    """Neither homology nor coordinates in C' build C's block d_j; the
    reference reading in C builds it for its cycle test, once per read of a
    nonzero class."""

    def test_homology_builds_no_block_of_d(self, monkeypatch):
        import helpers
        built = []
        original_block = helpers.block

        def recording(f, j):
            built.append(f)
            return original_block(f, j)

        monkeypatch.setattr(helpers, "block", recording)
        rng = random.Random(4477)
        for i in range(12):
            p = (0, 2, 3)[i % 3]
            C = random_complex(rng, max_pieces=4, p=p, with_u=i > 5).complex
            del built[:]
            homology(C)
            assert not any(f is C.d for f in built)
            j = max(homology(C).degrees(), default=0)
            pg = _presentation(C, j)
            coord_matrix(pg, representatives(pg))
            assert not any(f is C.d for f in built)
            ambient_coords(C, j, ambient_representatives(C, j))
            assert sum(f is C.d for f in built) == (pg.rank_coords() > 0)

    def test_non_cycle_has_no_coordinates(self):
        for p in (0, 3):
            # b -> 2a, plus a cycle c beside b in degree 1
            C = complex_from([("a", 0), ("b", 1), ("c", 1)],
                             {("b", "a"): 2}, p=p)
            assert ambient_coords(C, 1, from_rows([[1], [0]])) is None
            assert ambient_coords(C, 1,
                                  from_rows([[0], [1]])) is not None
        # b -> a cancels, leaving C' = {c} with iota(c) = c and pi(a) = 0
        C = complex_from([("a", 0), ("b", 1), ("c", 0)], {("b", "a"): 1})
        assert ambient_representatives(C, 0) == from_rows([[0], [1]])
        assert ambient_coords(C, 0, from_rows([[5], [1]])) == \
            from_rows([[1]])
        # at degree 1, b is no cycle: d_1 b = a
        assert ambient_coords(C, 1, from_rows([[1]])) is None
        with pytest.raises(DimensionMismatch):
            ambient_coords(C, 0, IntMatrix(3, 1))


def _fields(pg):
    """A presentation's fields, which compare where presentations (by
    identity) do not."""
    return [getattr(pg, f) for f in PresentedGroup.__slots__]


def _record(red):
    """A reduction's record with its presentations by their fields:
    iota's columns, pi's rows, the presentations by degree and the
    trivial one."""
    return (red.iota_cols, red.pi_rows,
            {j: _fields(pg) for j, pg in red.presented.items()},
            _fields(red.trivial))


def _reaches(roots, target):
    """True iff ``target`` is reachable from ``roots`` by gc.get_referents,
    not descending into classes and modules."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


class TestNoBackReference:
    """The reduction slot, with the presentations it keeps, holds no
    reference back to its complex, so complexes die by reference counting
    and never wait for the cyclic collector."""

    def test_memo_and_reduction_do_not_reach_the_complex(self):
        for C in _reduction_inputs():
            homology(C)
            D = _homotopic_to_identity(random.Random(3), C)
            induced_on_homology(D, C, C)
            assert C._reduced is not None
            assert not _reaches([C._reduced], C)

    def test_complexes_are_freed_without_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            C = random_complex(random.Random(9), max_pieces=6,
                               with_u=True).complex
            four_flavors(C)
            del C
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIsolateKeepsOneLiveRecord:
    """``_isolate`` pushes a heap record only for a new entry or one whose
    |v| fell, and re-pushes a record that comes up below its grown entry
    with the true key: it makes the same changes of basis and
    cancellations in the same order as ``helpers.isolate_pushing_every_write``,
    which pushes a record for every entry written, and pops no more."""

    @staticmethod
    def _trace(C, isolate):
        """(steps, heap pops, reduction) of reducing C with ``isolate`` in
        place of ``chain._isolate``: every cancellation (x, y) and every
        update of a column of iota or a row of pi, in order."""
        import heapq

        import helpers
        from artifact import exactlin
        steps, pops = [], [0]

        def axpy(acc, vec, c, p):
            steps.append((c, tuple(acc.items()), tuple(vec.items())))
            exactlin._axpy(acc, vec, c, p)

        def popping(heap):
            pops[0] += 1
            assert pops[0] < 100_000, "the heap does not drain"
            return heapq.heappop(heap)

        def isolating(bd, cobd, iota, pi, cancel):
            def cancelling(x, y):
                steps.append((x, y))
                cancel(x, y)
            steps.append("isolate")
            isolate(bd, cobd, iota, pi, cancelling)

        with pytest.MonkeyPatch.context() as mp:
            for module in (chain, helpers):
                mp.setattr(module, "_axpy", axpy)
                mp.setattr(module, "heappop", popping)
            mp.setattr(chain, "_isolate", isolating)
            red = chain._reduce(C)
        return steps, pops[0], red

    def test_pivot_sequence_of_pushing_every_write(self):
        # seeded Z complexes and flavor slices, and the hat slices of
        # larger U-complexes, where most changes of basis happen
        rng = random.Random(2626)
        inputs = _piece_inputs(rng)
        for n in (24, 32, 40, 48):
            for _ in range(6):
                S = s_u(random_complex(rng, max_pieces=n,
                                       with_u=True).complex)
                inputs.append(circle._e_y_slices(
                    S, circle.FLAVOR_TAGS, None)["hat"])
        fewer = changed = 0
        pops = [0, 0]
        for C in inputs:
            new = self._trace(C, chain._isolate)
            old = self._trace(C, isolate_pushing_every_write)
            assert new[0] == old[0]
            assert new[1] <= old[1]
            pops = [pops[0] + new[1], pops[1] + old[1]]
            fewer += new[1] < old[1]
            changed += new[0][-1] != "isolate"
            (r_new, r_old) = new[2], old[2]
            assert _record(r_new) == _record(r_old)
            assert r_new.complex.d.entries == r_old.complex.d.entries
            assert r_new.complex.module == r_old.complex.module
        assert changed >= 30 and fewer >= 8, (changed, fewer)
        assert pops[0] < pops[1]

    def test_a_differential_that_does_not_square_to_zero_still_raises(self):
        # both heaps refuse the same inputs with d^2 != 0, and end on the
        # others with the same reduction
        rng = random.Random(2627)
        refused = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            gens = [(f"g{i}", rng.randint(0, 2)) for i in range(n)]
            deg = dict(gens)
            m = GradedModule(gens)
            d = GradedMap(m, m, -1, {
                (s, t): rng.choice((2, -2, 3, 4, -6))
                for s, _ in gens for t, _ in gens
                if deg[t] == deg[s] - 1 and rng.random() < 0.7})
            C = ChainComplex(m, d)
            outcomes = []
            for isolate in (chain._isolate, isolate_pushing_every_write):
                try:
                    outcomes.append(_record(self._trace(C, isolate)[2]))
                except ChainError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            refused += isinstance(outcomes[0], str)
        assert refused >= 10


def _laws_by_products(C):
    """``validate``'s checks with each commutator formed by two products,
    a scale and a difference."""
    p, laws = C.p, [("d.d=0", C.d @ C.d)]
    if C.u_action is not None:
        laws.append(("[d,U]=0", defect_by_products(C.d, C.u_action,
                                                  C.u_action)))
    if C.y_action is not None:
        laws += [("dY+Yd=0", defect_by_products(C.d, C.y_action,
                                                C.y_action)),
                 ("Y.Y=0", C.y_action @ C.y_action)]
    return [chain.Check("degree-homogeneity", True)] + [
        chain._law(tag, defect, p) for tag, defect in laws]


def _pieces_inputs_over_every_ring():
    """Seeded complexes over Z, F2 and F3, Z- and periodically graded
    (mod 2 and 4), with and without U."""
    rng = random.Random(2628)
    for p in (0, 2, 3):
        for modulus in (0, 2, 4):
            for i in range(6):
                C = random_complex(rng, max_pieces=6, p=p,
                                   with_u=i % 2 == 1).complex
                yield (random_basis_change(rng, _folded(C, modulus))
                       if modulus else C)


class TestOnePassAgainstPerDegree:
    """The one-pass paths against the per-degree paths they replaced, kept
    in ``helpers``: presentations the reduction reads off its pieces against
    ``from_pair`` on two blocks of d' (``pair_presentation``), class
    matrices pushed generator by generator against ``coord_matrix`` of the
    pushed representatives (``pushed_by_coords``), and ``_defect``'s one
    dict against two products, a scale and a difference
    (``defect_by_products``), over Z, F2, F3 and periodic gradings."""

    def test_presentations_equal_pair_presentations(self):
        seen = set()
        for C in _pieces_inputs_over_every_ring():
            lo, hi = C.module.support_window()
            for j in range(lo - 1, hi + 2):
                got, want = _presentation(C, j), pair_presentation(C, j)
                assert _fields(got) == _fields(want)
                seen.add((C.p, C.module.modulus, is_plain(got)))
        assert seen >= {(p, m, True) for p in (0, 2, 3) for m in (0, 2, 4)}
        assert seen >= {(0, m, False) for m in (0, 2, 4)}

    def test_class_matrices_equal_the_coordinates_of_the_pushed_columns(self):
        kinds = {}
        inputs = list(_push_inputs())
        rng = random.Random(2629)
        for C in _pieces_inputs_over_every_ring():
            inputs.append((_homotopic_to_identity(rng, C), C, C))
        for f, src, tgt in inputs:
            arrow = _HomologyArrow(f, src, tgt)
            lo, hi = src.module.support_window()
            for j in range(lo - 1, hi + 2):
                got = arrow.matrix(j)
                assert got == pushed_by_coords(_HomologyArrow(f, src, tgt), j)
                kind = (src.p, src.module.modulus)
                kinds[kind] = kinds.get(kind, 0) + (not got.is_zero())
        assert all(kinds.get((p, m), 0) >= 5 for p in (0, 2, 3)
                   for m in (0, 2, 4)), kinds

    def test_a_non_chain_map_raises_on_both_paths(self):
        # a(0) is a cycle; f(a) = x is not, since d(x) = w
        for p in (0, 2, 3):
            A = complex_from([("a", 0)], {}, p=p)
            M = complex_from([("x", 0), ("w", -1), ("c", 0)],
                             {("x", "w"): 2 if p != 2 else 1}, p=p)
            f = GradedMap(A.module, M.module, 0, {("a", "x"): 1, ("a", "c"): 1})
            assert not is_chain_map(f, A, M)
            for read in (lambda a: a.matrix(0), lambda a: pushed_by_coords(a, 0)):
                with pytest.raises(ChainError, match="image of a cycle"):
                    read(_HomologyArrow(f, A, M))
        # a cycle of C that a broken pi sends onto a generator of C' that
        # d' moves: x -> 2w with pi(c) = c + x; both readings refuse it
        A = complex_from([("a", 1)], {})
        M = complex_from([("x", 1), ("w", 0), ("c", 1)], {("x", "w"): 2})
        red = reduction(M)
        object.__setattr__(M, "_reduced", red._replace(pi_rows={0: {0: 1, 2: 1}}))
        f = GradedMap(A.module, M.module, 0, {("a", "c"): 1})
        assert is_chain_map(f, A, M)
        for read in (lambda a: a.matrix(1), lambda a: pushed_by_coords(a, 1)):
            with pytest.raises(ChainError, match="image of a cycle"):
                read(_HomologyArrow(f, A, M))

    def test_defects_equal_the_products(self):
        rng = random.Random(2630)
        done = 0
        for C in _pieces_inputs_over_every_ring():
            M = C.module
            for f_deg, a_deg in ((0, -1), (1, -1), (-1, -2), (2, 1), (1, 1)):
                f, a, b = (GradedMap(M, M, d, {
                    (s, t): rng.randint(-2, 2) for s, ds in M.generators
                    for t, dt in M.generators
                    if dt == M.reduce_degree(ds + d) and rng.random() < 0.5})
                    for d in (f_deg, a_deg, a_deg))
                for args in ((f, a, b), (C.d, C.d, C.d), (f, C.d, C.d)):
                    got, want = _defect(*args), defect_by_products(*args)
                    assert got == want
                    assert got.nonzero_witness(C.p) == \
                        want.nonzero_witness(C.p)
                    done += not got.is_zero_mod(0)
        assert done > 100

    def test_mismatches_raise_the_same_errors(self):
        Y = GradedModule([("y0", 0), ("y1", 1)], modulus=2)
        Z = GradedModule([("z0", 0), ("z1", 1), ("z2", 2)])
        W = GradedModule([("w", 0)])
        a = GradedMap(Y, Y, 1, {("y1", "y0"): 1, ("y0", "y1"): 1})
        f = GradedMap(Y, Z, 0, {("y0", "z0"): 1, ("y1", "z1"): 1})
        b = GradedMap(Z, Z, 1, {("z0", "z1"): 1, ("z1", "z2"): 1})
        cases = [
            (f, a, b),                          # mixed moduli: y1 -> z0
            (f, b, b),                          # b does not end where f starts
            (f, GradedMap(Y, Y, 1), a),         # a does not start where f ends
            (f, GradedMap(Y, Y, -1), b),        # the products' degrees differ
            (GradedMap(Z, W, 0), b, GradedMap(W, W, 1)),
            (f, GradedMap(Y, Y, 1), GradedMap(Z, Z, 1, {("z0", "z1"): 3})),
        ]
        messages = []
        for args in cases:
            outcomes = []
            for defect in (_defect, defect_by_products):
                try:
                    outcomes.append(defect(*args))
                except ChainError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            messages.append(outcomes[0])
        assert "violates degree 1 homogeneity" in messages[0]
        assert messages[1:3] == ["composition source/target mismatch"] * 2
        assert messages[3] == "maps are not parallel"
        assert isinstance(messages[5], GradedMap)

    def test_validate_witnesses(self):
        rng = random.Random(2631)
        failed = set()
        for C in _pieces_inputs_over_every_ring():
            M = C.module
            u = GradedMap(M, M, -2, {
                (s, t): rng.randint(-2, 2) for s, ds in M.generators
                for t, dt in M.generators
                if dt == M.reduce_degree(ds - 2) and rng.random() < 0.4})
            y = GradedMap(M, M, 1, {
                (s, t): rng.randint(-2, 2) for s, ds in M.generators
                for t, dt in M.generators
                if dt == M.reduce_degree(ds + 1) and rng.random() < 0.4})
            d = C.d + GradedMap(M, M, -1, {
                (s, t): 1 for s, ds in M.generators for t, dt in M.generators
                if dt == M.reduce_degree(ds - 1) and rng.random() < 0.1})
            for D in (ChainComplex(M, d, u, y, p=C.p),
                      ChainComplex(M, C.d, C.u_action, y, p=C.p)):
                got = list(validate(D).checks)
                assert got == _laws_by_products(D)
                failed.update(c.tag for c in got if not c.ok)
        assert failed == {"d.d=0", "[d,U]=0", "dY+Yd=0", "Y.Y=0"}
