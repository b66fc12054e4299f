"""Acceptance gate: the end-to-end guarantees the package promises, checked
with exact integer arithmetic and zero tolerance.

1. Law suite: random validated complexes (rank <= 8, degrees in [-6, 6],
   entries in [-3, 3], over Z and F_2); single-entry perturbations of d/U/Y
   are each caught by exactly the corresponding law, in under 60 s.
2. Duality shifts: doubling-then-expanding matches expansion on >= 100
   random instances per direction, with the shifts pinned on the
   single-generator oracle and exact group equality for the hat flavor.
3. Exact sequences: every certificate family is exact at all window-safe
   degrees on the random corpus and on every golden file.
4. Tower vanishing for N in {2, 3, 4, 5} with exactly two edge classes.
5. Cone identity pack on >= 50 decoupled random bundles and the coupled
   goldens, with a falsification for each identity.
6. Product Case 1: uniform shift +1 on the point, the coefficient-2 arrow,
   and random rank <= 4 complexes.
7. Product Case 2: entry-exact identification for all four flavors on
   >= 20 random inputs.
8. Functoriality: composition, addition, injectivity, and surjectivity
   preservation on >= 50 composable pairs.
9. Determinism: byte-identical machine reports on repeated runs over the
   full corpus, whose check records are the engine's Checks.
"""

import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from artifact.chain import (ChainComplex, ChainError, Check, GradedMap,
                            GradedModule, PMorphism, homology, validate)
from artifact import cli
from artifact.circle import (ALL_FLAVORS, HAT, MINUS, Window, e_y, e_y_map,
                             koszul_a, koszul_b, s_u, s_u_map)
from artifact.cli import parse_all
from artifact.connsum import (FilteredComplex, case1_check, case2_check,
                              check_positivity, cm_flavors, validate_filtered,
                              verify_sum_maps)
from artifact.exactlin import IntMatrix
from artifact.flavors import (AssemblyInconsistent,
                              BalancedComponents, TowerParams, assemble,
                              cone_identities, four_flavors, ladder_check,
                              point_tower, tower_model)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from helpers import (compose, parse, random_complex,  # noqa: E402
                     random_pmorphism, replace_bundle, strict_pmorphism)
from snf_reference import reference_kernel, reference_solve  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "v1"
GOLDEN_DRIVER = Path(__file__).resolve().parent / "golden" / "driver_machine.txt"

# f2periodic.txt is modulus-graded, so it participates in parsing, law, and
# homology checks but not in the doubling functor's flavor certificates
PLAIN_GOLDENS = ("point.txt", "twotorsion.txt", "utower.txt")
FILTERED_GOLDENS = ("filtered_knot.txt", "filtered_diamond.txt")
COMPONENT_GOLDENS = ("tower_n3.txt", "golden_one.txt", "golden_two.txt",
                     "golden_three.txt", "coupled_acyclic.txt", "f2pair.txt")


# ---------------------------------------------------------------------------
# 1. Law suite with targeted single-entry perturbations
# ---------------------------------------------------------------------------

_LAW_KINDS = ("d", "u", "y-anti", "y-square")


def _law_instance(rng, p, kind):
    """A validated complex of rank <= 8 with degrees in [-6, 6] and entries
    in [-3, 3], carrying a small chain whose single-entry perturbation
    violates exactly one structural law.  Returns (complex, perturbed,
    expected failing law)."""
    gens, dent, uent, yent = [], {}, {}, {}
    if kind == "u":
        k = rng.randint(-2, 4)
        gens += [("w2", k), ("w1", k - 1), ("w0", k - 2), ("v", k - 4)]
        dent[("w1", "w0")] = 1
    elif kind == "y-square":
        k = rng.randint(-4, 4)
        gens += [("q", k), ("qt", k + 1), ("r", k + 2)]
        yent[("q", "qt")] = 1
    else:
        k = rng.randint(-4, 4)
        gens += [("w2", k), ("w1", k - 1), ("w0", k - 2)]
        dent[("w1", "w0")] = 1
    budget = 8 - len(gens)
    idx = 0
    while budget > 0:
        piece = rng.choice(("single", "arrow", "ustep", "ypair"))
        if piece != "single" and budget < 2:
            piece = "single"
        k = rng.randint(-4, 4)
        a, b = f"f{idx}", f"f{idx + 1}"
        if piece == "single":
            gens.append((a, k))
            idx += 1
            budget -= 1
            continue
        if piece == "arrow":
            gens += [(a, k), (b, k - 1)]
            c = rng.choice((-2, -1, 1, 2, 3))
            dent[(a, b)] = c
        elif piece == "ustep":
            gens += [(a, k), (b, k - 2)]
            uent[(a, b)] = rng.choice((-1, 1, 2, 3))
        else:
            k = rng.randint(-5, 4)
            gens += [(a, k), (b, k + 1)]
            yent[(a, b)] = rng.choice((1, -1))
        idx += 2
        budget -= 2

    def build(d, u, y):
        m = GradedModule(tuple(gens))
        return ChainComplex(m, GradedMap(m, m, -1, d),
                            u_action=GradedMap(m, m, -2, u),
                            y_action=GradedMap(m, m, 1, y), p=p)

    C = build(dent, uent, yent)
    if kind == "d":
        bad = dict(dent)
        bad[("w2", "w1")] = 1
        return C, build(bad, uent, yent), "d.d=0"
    if kind == "u":
        bad = dict(uent)
        bad[("w0", "v")] = 1
        return C, build(dent, bad, yent), "[d,U]=0"
    if kind == "y-anti":
        bad = dict(yent)
        bad[("w0", "w1")] = 1
        return C, build(dent, uent, bad), "dY+Yd=0"
    bad = dict(yent)
    bad[("qt", "r")] = 1
    return C, build(dent, uent, bad), "Y.Y=0"


class TestLawSuite:
    def test_random_complexes_validate_and_perturbations_are_caught(self):
        started = time.monotonic()
        rng = random.Random(20260818)
        for i in range(200):
            p = 2 if i % 2 else 0
            kind = _LAW_KINDS[i % 4]
            C, perturbed, law = _law_instance(rng, p, kind)
            degrees = [d for _, d in C.module.generators]
            assert len(C.module.generators) <= 8
            assert all(-6 <= d <= 6 for d in degrees)
            for f in (C.d, C.u_action, C.y_action):
                assert all(-3 <= v <= 3 for v in f.entries.values())
            assert validate(C).ok
            report = validate(perturbed)
            failing = {c.tag for c in report.failures()}
            assert failing == {law}, (i, kind, failing)
        assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 2. Duality shifts
# ---------------------------------------------------------------------------

_PINNED_SHIFTS = {"minus": 1, "infinity": 0, "plus": 0, "hat": 0}


class TestDualityShifts:
    def test_single_generator_oracle_pins(self):
        m = GradedModule((("e", 0),))
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         u_action=GradedMap.zero(m, m, -2))
        for flavor in ALL_FLAVORS:
            rep = koszul_a(C, flavor)
            assert rep.ok
            assert rep.shift == _PINNED_SHIFTS[flavor.tag]
        assert koszul_b(s_u(C)).shift == -1

    def test_direction_a_on_100_random_instances(self):
        rng = random.Random(2026)
        nonempty = {fl.tag: 0 for fl in ALL_FLAVORS}
        for i in range(100):
            p = 2 if i % 3 == 2 else 0
            C = random_complex(rng, max_pieces=3, p=p, with_u=True).complex
            for flavor in ALL_FLAVORS:
                rep = koszul_a(C, flavor)
                assert rep.ok, (i, flavor.tag)
                if rep.per_degree:
                    nonempty[flavor.tag] += 1
                    assert rep.shift == _PINNED_SHIFTS[flavor.tag]
        for tag in ("minus", "plus", "hat"):
            assert nonempty[tag] >= 80
        # the infinity flavor of a doubled complex vanishes identically, so
        # its pinned shift manifests as exact mutual triviality
        assert nonempty["infinity"] == 0

    def test_direction_b_on_100_random_instances(self):
        rng = random.Random(2027)
        nonempty = 0
        for i in range(100):
            p = 2 if i % 3 == 2 else 0
            C = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            rep = koszul_b(s_u(C))
            assert rep.ok, i
            if rep.per_degree:
                nonempty += 1
                assert rep.shift == -1
        assert nonempty >= 80

    def test_hat_matches_with_exact_group_equality(self):
        rng = random.Random(2029)
        for _ in range(10):
            C = random_complex(rng, max_pieces=3, with_u=True).complex
            rep = koszul_a(C, HAT)
            assert rep.ok and rep.shift == 0
            for j, (right, left) in rep.per_degree.items():
                assert right == left, j
            S = s_u(C)
            assert homology(e_y(S, HAT)) == homology(S)


# ---------------------------------------------------------------------------
# 3. Exact sequence certificates
# ---------------------------------------------------------------------------

def _random_filtered(rng, p=0, pieces=4):
    gens, entries, idx = [], {}, 0
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


def _decoupled_components(rng, p=0):
    pieces = [random_complex(rng, max_pieces=2, degree_span=(-2, 3), p=p,
                             with_u=True).complex for _ in range(3)]
    co, cs, cu = pieces
    return BalancedComponents.zeros(
        co.module, cs.module, cu.module, p=p,
        d_oo=co.d, u_oo=co.u_action,
        dbar_ss=cs.d, ubar_ss=cs.u_action,
        dbar_uu=cu.d, ubar_uu=cu.u_action)


# the first two checks of a ladder report: the cone's long exact sequence
# and its connecting map against p
_CONE_SEQUENCE_PASSES = (Check("eq:induced-KM1", True),
                         Check("eq:induced-KM1:delta", True))


def _assert_flavor_sequences(seqs):
    assert seqs.seq1.exact and seqs.les1.ok
    assert seqs.seq2.exact and seqs.les2.ok


class TestExactSequences:
    def test_flavor_sequences_on_random_corpus(self):
        rng = random.Random(31)
        for i in range(30):
            p = 2 if i % 3 == 2 else 0
            C = random_complex(rng, max_pieces=3, p=p, with_u=True).complex
            _assert_flavor_sequences(four_flavors(C).sequences)

    def test_flavor_sequences_on_goldens(self):
        for name in PLAIN_GOLDENS:
            C = parse(str(CORPUS / name))
            _assert_flavor_sequences(four_flavors(C).sequences)

    def test_filtered_sequences_on_random_corpus(self):
        rng = random.Random(32)
        for i in range(15):
            p = 2 if i % 3 == 2 else 0
            fl = cm_flavors(_random_filtered(rng, p=p))
            _assert_flavor_sequences(fl)

    def test_filtered_sequences_on_goldens(self):
        for name in FILTERED_GOLDENS:
            _assert_flavor_sequences(cm_flavors(parse(str(CORPUS / name))))

    def test_ladder_sequence_on_random_corpus(self):
        rng = random.Random(33)
        for i in range(10):
            p = 2 if i % 3 == 2 else 0
            report = ladder_check(assemble(_decoupled_components(rng, p)))
            assert report.checks[:2] == _CONE_SEQUENCE_PASSES

    def test_ladder_sequence_on_goldens(self):
        for name in COMPONENT_GOLDENS:
            report = ladder_check(assemble(parse(str(CORPUS / name))))
            assert report.checks[:2] == _CONE_SEQUENCE_PASSES, name


# ---------------------------------------------------------------------------
# 4. Tower vanishing
# ---------------------------------------------------------------------------

class TestTowerVanishing:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_point_tower_vanishes_with_two_edge_classes(self, n):
        m = GradedModule((("a", 0),))
        point = ChainComplex(m, GradedMap.zero(m, m, -1))
        bundle = assemble(tower_model(TowerParams(base=point, n=n)))
        H = homology(s_u(bundle.bar))
        assert H.degrees() == [-2 * n, 2 * n + 1]
        assert str(H[-2 * n]) == "Z" and str(H[2 * n + 1]) == "Z"


# ---------------------------------------------------------------------------
# 5. Cone identity pack
# ---------------------------------------------------------------------------

# single-entry bumps that falsify each identity (found by exhaustive search
# over the golden bundle); the comparison map k is derived from j inside the
# checker, so the k-derivation identity is falsified at predicate level below
_CONE_FALSIFIERS = {
    "eq:1": ("i", ("s.s0", "s.s0")),
    "eq:2": ("i", ("s.s0", "s.s0")),
    "eq:4": ("i", ("s.s0", "s.s0")),
    "eq:S2:rho1": ("k_j", ("o.o", "u.u0")),
    "eq:S2:rho2": ("k_i", ("u.u1", "s.s0")),
    "eq:S2:rho3": ("j", ("s.s0", "u.u0")),
    "eq:U-cone": ("k_p", ("u.u1", "s.s0")),
    "eq:SU-k": ("j", ("o.o", "o.o")),
    "eq:SU-l": ("i", ("s.s0", "s.s0")),
    "eq:S1": ("i", ("s.s0", "s.s0")),
    "eq:1:SU": ("i", ("s.s0", "s.s0")),
    "eq:S2": ("i", ("s.s0", "s.s0")),
    "eq:S2:line2": ("i", ("s.s0", "s.s0")),
}


def _golden_bundle():
    return assemble(parse(str(CORPUS / "golden_one.txt")))


class TestConeIdentities:
    def test_decoupled_random_bundles(self):
        rng = random.Random(51)
        for i in range(50):
            p = 2 if i % 3 == 2 else 0
            rep = cone_identities(assemble(_decoupled_components(rng, p)))
            assert rep.ok, (i, rep.failures())

    def test_coupled_goldens(self):
        for name in ("golden_one.txt", "golden_two.txt", "golden_three.txt",
                     "coupled_acyclic.txt"):
            rep = cone_identities(assemble(parse(str(CORPUS / name))))
            assert rep.ok, (name, rep.failures())

    @pytest.mark.parametrize("tag", sorted(_CONE_FALSIFIERS))
    def test_each_identity_is_falsifiable(self, tag):
        bundle = _golden_bundle()
        field, key = _CONE_FALSIFIERS[tag]
        f = getattr(bundle, field)
        bump = GradedMap(f.source, f.target, f.degree, {key: 1})
        rep = cone_identities(
            replace_bundle(bundle, **{field: f + bump}))
        assert tag in {c.tag for c in rep.failures()}

    def test_k_derivation_identity_discriminates(self):
        # the checker rebuilds the comparison map from j, so this identity
        # cannot drift for well-formed bundles; the predicate itself must
        # still separate j from a comparison map built from a different j
        bundle = _golden_bundle()
        hat_mod = bundle.hat.module
        check_mod = bundle.check.module
        wrong = bundle.j + GradedMap(check_mod, hat_mod, 0,
                                     {("o.o", "o.o"): 1})
        assert not (bundle.j - wrong).is_zero_mod(bundle.hat.p)


# ---------------------------------------------------------------------------
# 6. Product Case 1
# ---------------------------------------------------------------------------

class TestProductCase1:
    def test_point(self):
        m = GradedModule((("a", 0),))
        C = ChainComplex(m, GradedMap.zero(m, m, -1),
                         u_action=GradedMap.zero(m, m, -2))
        rep = case1_check(C, 4)
        assert rep.ok and rep.shift == 1 and rep.per_degree

    def test_coefficient_two_arrow(self):
        m = GradedModule((("x", 1), ("y", 0)))
        C = ChainComplex(m, GradedMap(m, m, -1, {("x", "y"): 2}),
                         u_action=GradedMap.zero(m, m, -2))
        rep = case1_check(C, 4)
        assert rep.ok and rep.shift == 1 and rep.per_degree
        assert any(str(g) == "Z/2" for g, _ in rep.per_degree.values())

    def test_random_rank_at_most_four(self):
        rng = random.Random(2028)
        nonempty = 0
        for i in range(10):
            p = 2 if i % 3 == 2 else 0
            C = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            assert len(C.module.generators) <= 4
            rep = case1_check(C, 4)
            assert rep.ok, i
            if rep.per_degree:
                nonempty += 1
                assert rep.shift == 1
        assert nonempty >= 8


# ---------------------------------------------------------------------------
# 7. Product Case 2
# ---------------------------------------------------------------------------

class TestProductCase2:
    def test_entry_exact_identification_all_flavors(self):
        rng = random.Random(72)
        for i in range(20):
            p = 2 if i % 4 == 3 else 0
            C = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            for flavor in ALL_FLAVORS:
                assert case2_check(C, flavor, Window(-6, 4)).ok, (i, flavor)


# ---------------------------------------------------------------------------
# 8. Functoriality
# ---------------------------------------------------------------------------

def _direct_sum(C1, C2):
    gens = tuple([(f"l.{n}", d) for n, d in C1.module.generators]
                 + [(f"r.{n}", d) for n, d in C2.module.generators])
    m = GradedModule(gens)

    def both(f1, f2, degree):
        ent = {(f"l.{s}", f"l.{t}"): v for (s, t), v in f1.entries.items()}
        ent.update({(f"r.{s}", f"r.{t}"): v
                    for (s, t), v in f2.entries.items()})
        return GradedMap(m, m, degree, ent)

    return ChainComplex(m, both(C1.d, C2.d, -1),
                        u_action=both(C1.u_action, C2.u_action, -2),
                        p=C1.p)


def _degree_blocks(f):
    """The degreewise matrices of a graded map, as (source degree,
    matrix)."""
    out = []
    src_degrees = sorted({d for _, d in f.source.generators})
    for j in src_degrees:
        src = [n for n, d in f.source.generators if d == j]
        tgt = [n for n, d in f.target.generators if d == j + f.degree]
        ent = {}
        for r, tn in enumerate(tgt):
            for c, sn in enumerate(src):
                v = f.entries.get((sn, tn), 0)
                if v:
                    ent[(r, c)] = v
        out.append((j, IntMatrix(len(tgt), len(src), ent)))
    return out


def _injective(f, p):
    return all(reference_kernel(M, p)[1].cols == 0
               for _, M in _degree_blocks(f))


def _surjective(f, p):
    for jt in sorted({d for _, d in f.target.generators}):
        tgt = [n for n, d in f.target.generators if d == jt]
        src = [n for n, d in f.source.generators if d == jt - f.degree]
        ent = {}
        for r, tn in enumerate(tgt):
            for c, sn in enumerate(src):
                v = f.entries.get((sn, tn), 0)
                if v:
                    ent[(r, c)] = v
        M = IntMatrix(len(tgt), len(src), ent)
        for r in range(len(tgt)):
            e = IntMatrix(len(tgt), 1, {(r, 0): 1})
            if reference_solve(M, e, p) is None:
                return False
    return True


class TestFunctoriality:
    def test_composition_addition_injectivity_surjectivity(self):
        rng = random.Random(81)
        win = Window(-8, 8)
        for i in range(50):
            p = 2 if i % 3 == 2 else 0
            C1 = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            C2 = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            C3 = random_complex(rng, max_pieces=2, p=p, with_u=True).complex
            P = random_pmorphism(rng, C1, C2, degree=0)
            P2 = random_pmorphism(rng, C1, C2, degree=0)
            Q = random_pmorphism(rng, C2, C3, degree=0)
            S1, S2, S3 = s_u(C1), s_u(C2), s_u(C3)
            flavor = ALL_FLAVORS[i % 4]

            # composition
            lhs = s_u_map(compose(Q, P))
            rhs = s_u_map(Q) @ s_u_map(P)
            assert (lhs - rhs).is_zero_mod(p)
            el = e_y_map(lhs, S1, S3, flavor, win)
            er = (e_y_map(s_u_map(Q), S2, S3, flavor, win)
                  @ e_y_map(s_u_map(P), S1, S2, flavor, win))
            assert (el - er).is_zero_mod(p)

            # addition
            added = PMorphism(C1, C2, P.phi + P2.phi, P.k_phi + P2.k_phi)
            assert (s_u_map(added)
                    - s_u_map(P) - s_u_map(P2)).is_zero_mod(p)
            ea = e_y_map(s_u_map(added), S1, S2, flavor, win)
            assert (ea - e_y_map(s_u_map(P), S1, S2, flavor, win)
                    - e_y_map(s_u_map(P2), S1, S2, flavor, win)
                    ).is_zero_mod(p)

            # injectivity and surjectivity preservation through both functors
            C12 = _direct_sum(C1, C2)
            S12 = s_u(C12)
            incl = strict_pmorphism(C1, C12, GradedMap(
                C1.module, C12.module, 0,
                {(n, f"l.{n}"): 1 for n, _ in C1.module.generators}))
            proj = strict_pmorphism(C12, C2, GradedMap(
                C12.module, C2.module, 0,
                {(f"r.{n}", n): 1 for n, _ in C2.module.generators}))
            si, sp = s_u_map(incl), s_u_map(proj)
            assert _injective(si, p)
            assert _surjective(sp, p)
            ei = e_y_map(si, S1, S12, flavor, win)
            ep = e_y_map(sp, S12, S2, flavor, win)
            assert _injective(ei, p)
            assert _surjective(ep, p)
            assert (ep @ ei).is_zero_mod(p)


# ---------------------------------------------------------------------------
# 9. Determinism over the full corpus
# ---------------------------------------------------------------------------

# the driver's jobs, over the corpus directory ``corpus``
_DRIVER_JOBS = r"""
from artifact.cli import Manifest

jobs = []
for name in ("point.txt", "twotorsion.txt", "utower.txt"):
    path = str(corpus / name)
    jobs += [Manifest(command="verify", inputs=(path,), fmt="machine"),
             Manifest(command="homology", inputs=(path,), fmt="machine"),
             Manifest(command="flavors", inputs=(path,), fmt="machine"),
             Manifest(command="su", inputs=(path,), fmt="machine")]
jobs += [Manifest(command="verify", inputs=(str(corpus / "f2periodic.txt"),),
                  fmt="machine"),
         Manifest(command="homology",
                  inputs=(str(corpus / "f2periodic.txt"),), fmt="machine")]
for name in ("filtered_knot.txt", "filtered_diamond.txt"):
    path = str(corpus / name)
    jobs += [Manifest(command="verify", inputs=(path,), fmt="machine"),
             Manifest(command="cmflavors", inputs=(path,), fmt="machine")]
for name in ("tower_n3.txt", "golden_one.txt", "golden_two.txt",
             "golden_three.txt", "coupled_acyclic.txt", "f2pair.txt",
             "perturbed_bundle.txt"):
    path = str(corpus / name)
    jobs += [Manifest(command="verify", inputs=(path,), fmt="machine"),
             Manifest(command="ladder", inputs=(path,), fmt="machine")]
jobs += [
    Manifest(command="consum-verify",
             inputs=(str(corpus / "summaps_acyclic.txt"),), fmt="machine"),
    Manifest(command="koszul", direction="a", flavor="minus", seed=7,
             fmt="machine"),
    Manifest(command="koszul", direction="b", seed=3, fmt="machine"),
    Manifest(command="tower", n=2, fmt="machine"),
    Manifest(command="tower", n=5, fmt="machine"),
    Manifest(command="consum-case1", inputs=(str(corpus / "point.txt"),),
             n=4, fmt="machine"),
    Manifest(command="consum-case2", inputs=(str(corpus / "point.txt"),),
             flavor="hat", fmt="machine"),
]
"""

_DRIVER = r"""
import sys
from pathlib import Path
from artifact.cli import run

corpus = Path(sys.argv[1])
""" + _DRIVER_JOBS + r"""
for m in jobs:
    code, text = run(m)
    sys.stdout.write(f"## {m.command} {' '.join(m.inputs)} -> {code}\n")
    sys.stdout.write(text)
"""


class TestDeterminism:
    def test_machine_reports_byte_identical_across_runs(self):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _DRIVER, str(CORPUS)],
                capture_output=True, text=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "kind=check" in outs[0]
        assert "## verify" in outs[0]

    def test_machine_reports_match_golden(self):
        # the same jobs against a capture committed with the corpus, so
        # output that drifts between commits fails here; the corpus path is
        # written as corpus/v1 so the capture does not depend on the checkout
        out = subprocess.run(
            [sys.executable, "-c", _DRIVER, str(CORPUS)],
            capture_output=True, check=True).stdout
        out = out.replace(str(CORPUS).encode(), b"corpus/v1")
        assert out == GOLDEN_DRIVER.read_bytes()


def _engine_verdicts(m):
    """The engine's Checks for one driver job, in report order and computed
    without the CLI, and whether all of its verdicts hold, the shift report
    of a koszul or consum-case1 job included."""
    obj = parse_all(m.inputs[0])[-1][1] if m.inputs else None
    checks, shift = [], None
    if m.command == "verify" and isinstance(obj, ChainComplex):
        checks = validate(obj).checks
    elif m.command == "verify" and isinstance(obj, FilteredComplex):
        checks = validate_filtered(obj).checks
    elif m.command in ("verify", "ladder"):
        try:
            bundle = assemble(obj)
        except AssemblyInconsistent as e:
            return [e.check], False
        if m.command == "ladder":
            checks = ladder_check(bundle).checks
        else:
            checks = bundle.laws().checks + cone_identities(bundle).checks
    elif m.command == "flavors":
        checks = four_flavors(obj).sequences.checks
    elif m.command == "cmflavors":
        checks = [check_positivity(obj)]
        checks += cm_flavors(obj).checks if checks[0].ok else ()
    elif m.command == "consum-verify":
        checks = verify_sum_maps(obj.inputs, obj.maps).checks
    elif m.command == "tower":
        checks = point_tower(m.n)[1]
    elif m.command == "consum-case2":
        checks = [case2_check(obj, cli._flavor_option(m))]
    elif m.command == "koszul" and m.direction == "a":
        shift = koszul_a(cli._random_u_complex(m.seed), MINUS)
    elif m.command == "koszul":
        shift = koszul_b(s_u(cli._random_u_complex(m.seed)))
    elif m.command == "consum-case1":
        shift = case1_check(obj, m.n)
    else:
        assert m.command in ("homology", "su"), m
    holds = all(c.ok for c in checks) and (shift is None or shift.ok)
    return list(checks), holds


class TestCheckRecords:
    def test_check_records_are_the_engine_checks(self):
        # the front end renders engine Checks in order and adds none, and
        # exits 1 exactly when one of them, or a shift report, fails
        scope = {"corpus": CORPUS}
        exec(_DRIVER_JOBS, scope)
        failing_jobs = 0
        for m in scope["jobs"]:
            code, text = cli.run(m)
            records = re.findall(r"^kind=check tag=(\S+) status=(\S+)$",
                                 text, re.M)
            checks, holds = _engine_verdicts(m)
            assert records == [(c.tag, "pass" if c.ok else "fail")
                               for c in checks], m
            assert code == (0 if holds else 1), m
            failing_jobs += not holds
        # perturbed_bundle.txt fails assembly under verify and ladder
        assert failing_jobs == 2

    _KM_SQUARES = [(f"eq:KM:{leg}:{name}", "pass") for leg in "pij"
                   for name in ("splice", "slice")]
    # the check records of runs on narrow windows, where the certificates
    # check only the nodes and squares whose degrees are window-safe: no
    # connecting square has a safe degree, and on 0..1 no first sequence
    # of a doubled complex or flavor complex certifies anything
    NARROW = {
        ("ladder", "golden_one.txt", "0..1"): [
            ("eq:induced-KM1", "pass"), ("eq:induced-KM1:delta", "pass"),
            ("eq:E-sq1:hat", "fail"), ("eq:E-sq1:bar", "fail"),
            ("eq:E-sq1:check", "fail"), ("eq:KM-bottom", "pass"),
            *_KM_SQUARES],
        ("ladder", "tower_n3.txt", "-1..1"): [
            ("eq:induced-KM1", "pass"), ("eq:induced-KM1:delta", "pass"),
            ("eq:KM:j-iso", "pass"), ("eq:E-sq1:hat", "pass"),
            ("eq:E-sq1:bar", "pass"), ("eq:E-sq1:check", "pass"),
            ("eq:KM-bottom", "pass"), *_KM_SQUARES],
        ("flavors", "utower.txt", "0..1"): [
            ("eq:E-sq1", "fail"), ("eq:E-sq2", "fail")],
        ("cmflavors", "filtered_knot.txt", "0..1"): [
            ("positivity", "pass"), ("eq:fund-short:1", "fail"),
            ("eq:fund-short:2", "fail")],
    }

    @pytest.mark.parametrize("command,name,window", sorted(NARROW))
    def test_narrow_window_check_records(self, capsys, command, name,
                                         window):
        cli.main([command, str(CORPUS / name), "--format", "machine",
                  "--window", window])
        records = re.findall(r"^kind=check tag=(\S+) status=(\S+)$",
                             capsys.readouterr().out, re.M)
        assert records == self.NARROW[(command, name, window)]
