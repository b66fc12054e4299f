"""Seeded input generators with built-in homology oracles.

A frozen copy of the known-homology construction in ``tests/helpers.py``
(``random_complex`` and the pieces it uses), kept here so that later edits
to the test helpers cannot change the benchmark's inputs.  Only the public
constructors of ``artifact.chain`` and ``artifact.exactlin`` are used.

A complex is a direct sum of elementary pieces whose homology is known
(free generators and two-step multiplication complexes), conjugated by a
random degree-preserving unimodular change of basis, so the oracle survives
exactly.  A commuting U-action comes from U = dW + Wd for a random degree -1
map W.
"""

import random
from typing import Dict, List, Tuple

from artifact.chain import ChainComplex, GradedMap, GradedModule
from artifact.exactlin import AbelianGroup


def invariant_factors(free: int, orders: List[int]) -> AbelianGroup:
    """Canonical form of Z^free + the sum of Z/n over the cyclic orders."""
    by_prime: Dict[int, List[int]] = {}
    for n in orders:
        m, f = n, 2
        while f * f <= m:
            if m % f == 0:
                q = 1
                while m % f == 0:
                    m //= f
                    q *= f
                by_prime.setdefault(f, []).append(q)
            f += 1
        if m > 1:
            by_prime.setdefault(m, []).append(m)
    lists = [sorted(v) for v in by_prime.values()]
    factors: List[int] = []
    while any(lists):
        d = 1
        for ch in lists:
            if ch:
                d *= ch.pop()
        factors.append(d)
    factors.reverse()
    return AbelianGroup(free, factors)


def random_complex(rng: random.Random, size: int,
                   degree_span: Tuple[int, int] = (-3, 3), p: int = 0,
                   with_u: bool = False
                   ) -> Tuple[ChainComplex, Dict[int, AbelianGroup]]:
    """A complex of exactly ``size`` generators and its homology.

    Pieces: a lone generator in degree k (contributes Z to H_k), or a pair
    b(k) -> a(k-1) with d(b) = n a (contributes Z/|n| to H_{k-1}; nothing
    when n is a unit; Z + Z when n = 0).  Pieces are drawn as in
    ``tests/helpers.random_complex`` until there are ``size`` generators; a
    pair that would overshoot is dropped.  The benchmark fixes the size, the
    seed only the structure: case cost depends mostly on the size.
    """
    gens: List[Tuple[str, int]] = []
    diff: Dict[Tuple[str, str], int] = {}
    free: Dict[int, int] = {}
    orders: Dict[int, List[int]] = {}

    idx = 0
    while len(gens) < size:
        idx += 1
        k = rng.randint(*degree_span)
        if rng.random() < 0.4:
            gens.append((f"g{idx}", k))
            free[k] = free.get(k, 0) + 1
            continue
        n = rng.choice([0, 1, 2, 2, 3, 4, 6, -2])
        if len(gens) + 2 > size:
            continue
        gens.append((f"b{idx}", k))
        gens.append((f"a{idx}", k - 1))
        if n:
            diff[(f"b{idx}", f"a{idx}")] = n
        if p == 0:
            if n == 0:
                free[k] = free.get(k, 0) + 1
                free[k - 1] = free.get(k - 1, 0) + 1
            elif abs(n) >= 2:
                orders.setdefault(k - 1, []).append(abs(n))
        elif n % p == 0:
            free[k] = free.get(k, 0) + 1
            free[k - 1] = free.get(k - 1, 0) + 1
    module = GradedModule(gens)
    C = ChainComplex(module, GradedMap(module, module, -1, diff), p=p)
    C = random_basis_change(rng, C)
    if with_u:
        C = C.with_actions(u_action=commuting_u(rng, C))
    expected = {deg: invariant_factors(free.get(deg, 0), orders.get(deg, []))
                for deg in set(free) | set(orders)}
    return C, expected


def random_basis_change(rng: random.Random, C: ChainComplex) -> ChainComplex:
    """Conjugate by a random degree-preserving unimodular map (shear moves)."""
    module = C.module
    names = list(module.names())
    if not names:
        return C
    g = GradedMap.identity(module)
    ginv = GradedMap.identity(module)
    for _ in range(rng.randint(0, 2 * len(names))):
        a, b = rng.choice(names), rng.choice(names)
        if a == b or module.degree_of(a) != module.degree_of(b):
            continue
        c = rng.choice([-2, -1, 1, 2])
        ident = {(n, n): 1 for n in names}
        shear = GradedMap(module, module, 0, {**ident, (a, b): c})
        unshear = GradedMap(module, module, 0, {**ident, (a, b): -c})
        g = shear @ g
        ginv = ginv @ unshear
    d = g @ C.d @ ginv
    u = g @ C.u_action @ ginv if C.u_action is not None else None
    y = g @ C.y_action @ ginv if C.y_action is not None else None
    return ChainComplex(module, d, u, y, C.p)


def commuting_u(rng: random.Random, C: ChainComplex) -> GradedMap:
    """U = dW + Wd for a random degree -1 map W always commutes with d."""
    module = C.module
    ent = {}
    for a, da in module.generators:
        for b, db in module.generators:
            if db == da - 1 and rng.random() < 0.4:
                v = rng.randint(-2, 2)
                if v:
                    ent[(a, b)] = v
    W = GradedMap(module, module, -1, ent)
    return (C.d @ W) + (W @ C.d)
