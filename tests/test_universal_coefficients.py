"""The universal-coefficient oracle: the Z and F_p engines check each other.

Over F_p a complex is cancelled down to d' = 0 and LES nodes are decided by
ranks; over Z only +-1 entries cancel, and the Smith normal form and lattice
tests do the rest.  For a free complex C the universal coefficient theorem
ties the two:

    dim H_j(C (x) F_p) = rank H_j(C) + #{torsion factors of H_j(C) divisible by p}
                         + #{torsion factors of H_{j-1}(C) divisible by p}

Every flavor slice is a free complex on the same generators whichever the
ring, so the identity holds slice by slice at every degree, window-safe or
not.  Seeded U-complexes over Z are reduced mod 2, 3 and 5 (d and U
entrywise) and compared: the base homology, the four ``four_flavors``
tables, and the four ``cm_flavors`` slices of the Laurent form of the
doubled complex.  The certificates of both engines must hold as well.

The tables come from the reduced complexes alone, so the coordinates each
engine reads classes in are checked too, by the injection
H_j(C) (x) F_p -> H_j(C (x) F_p) the identity comes from: the classes of a
Z-cycle basis of C_j span H_j(C) (x) F_p when the Z engine reads them
(coordinates mod p, torsion coordinates prime to p dropped) and its image
when the F_p engine reads them reduced, each read in C through the
reduction by the reference reading of ``helpers``; both spans have the dimension
rank H_j + #{torsion factors of H_j divisible by p}."""

import random

from artifact.chain import ChainComplex, GradedMap, _presentation, homology
from artifact.circle import s_u
from artifact.connsum import cm_flavors
from artifact.exactlin import IntMatrix, field_rank
from artifact.flavors import four_flavors

from helpers import (ambient_coords, block, laurent_form, random_complex,
                     rank_and_kernel)

PRIMES = (2, 3, 5)


def reduced(C: ChainComplex, p: int) -> ChainComplex:
    """C over F_p: d and U reduced entrywise, on the same generators."""
    def mod(f):
        return GradedMap(C.module, C.module, f.degree,
                         {k: v % p for k, v in f.entries.items() if v % p})
    return ChainComplex(C.module, mod(C.d), u_action=mod(C.u_action), p=p)


def complexes(C: ChainComplex):
    """(name, complex) of C, its four flavor slices and the four Laurent
    slices of s_u(C), on their default windows; the certificates must
    hold."""
    ff = four_flavors(C)
    cm = cm_flavors(laurent_form(s_u(C)))
    assert ff.ok and cm.ok
    yield "base", C
    for tag, cx in ff.sequences.complexes.items():
        yield f"flavor {tag}", cx
    for tag, cx in cm.complexes.items():
        yield f"laurent {tag}", cx


def uct_mismatches(HZ, Hp, p: int):
    """Degrees where the F_p table breaks the universal coefficient
    theorem against the Z table; both tables are compared over every degree
    either holds, and the one above (torsion at j - 1 shows at j)."""
    def divisible(j):
        return sum(1 for t in HZ[j].torsion if t % p == 0)

    degrees = set(HZ.degrees()) | set(Hp.degrees())
    out = []
    for j in sorted(degrees | {j + 1 for j in degrees}):
        want = HZ[j].free_rank + divisible(j) + divisible(j - 1)
        if Hp[j].torsion or Hp[j].free_rank != want:
            out.append(j)
    return out


def class_ranks(CZ: ChainComplex, Cp: ChainComplex, j: int, p: int):
    """F_p ranks of the classes of a Z-cycle basis of C_j, read by the Z
    engine (in H_j (x) F_p) and, reduced, by the F_p engine."""
    _, cycles = rank_and_kernel(block(CZ.d, j))
    if not cycles.cols:
        return 0, 0
    pz = _presentation(CZ, j)
    coords = ambient_coords(CZ, j, cycles)
    coords_p = ambient_coords(Cp, j, cycles)
    # None: a cycle of C read as no class of C'
    assert coords is not None and coords_p is not None
    moduli = pz.torsion_moduli + [0] * len(pz.free_rows)
    keep = {i: k for k, i in enumerate(i for i, m in enumerate(moduli)
                                       if m % p == 0)}
    in_tensor = IntMatrix(len(keep), coords.cols, {
        (keep[i], c): v for (i, c), v in coords.entries.items() if i in keep})
    return field_rank(in_tensor, p), field_rank(coords_p, p)


TRIALS = 40


def test_f_p_engine_agrees_with_z_engine_by_universal_coefficients():
    rng = random.Random(1204)
    compared = torsion_seen = 0
    for trial in range(TRIALS):
        C = random_complex(rng, max_pieces=3 + trial % 12,
                           with_u=True).complex
        z = dict(complexes(C))
        for p in PRIMES:
            for name, Cp in complexes(reduced(C, p)):
                CZ = z[name]
                HZ, Hp = homology(CZ), homology(Cp)
                assert uct_mismatches(HZ, Hp, p) == [], (trial, p, name)
                for j in CZ.module.degrees():
                    dim = HZ[j].free_rank + sum(1 for t in HZ[j].torsion
                                                if t % p == 0)
                    assert class_ranks(CZ, Cp, j, p) == (dim, dim), (
                        trial, p, name, j)
                compared += 1
                torsion_seen += any(t % p == 0 for j in HZ.degrees()
                                    for t in HZ[j].torsion)
    assert compared == TRIALS * len(PRIMES) * 9
    # the torsion terms of the identity are exercised, not only the ranks
    assert torsion_seen > 50
