"""Shared randomized generators with built-in oracles.

Random chain complexes are assembled from elementary pieces whose homology
is known (free generators and two-step multiplication complexes), then
conjugated by a random degree-preserving unimodular change of basis, so the
homology oracle survives exactly.  Commuting U-actions come from U = dW + Wd
for a random degree -1 map W; anticommuting square-zero Y-actions from
Y = dX - Xd with rejection on Y.Y != 0.

Beside them sit the reference readings that the program no longer ships:
classes of a complex C read in C itself through the degree blocks of its
reduction's iota and pi, the oracle for the class matrices that
``chain._HomologyArrow._push`` reads in C'; and small constructions only
tests use (``direct_sum``, ``compose``, ``verify_homotopy``,
``homology_of_pair``, ``unreduced_presentation``, ``to_dense``,
``from_rows``, ``submatrix_cols``, ``equal_on``, and ``case2_input`` with
``perturb_right_side`` for the mismatches of ``case2_check``).  The
lattice oracles factor through ``snf_reference``, over Z and over F_p,
where the program only reduces and takes ranks; ``fixed_arrow`` and
``fixed_node`` hand constructed class matrices and presentations to the
program's own verdicts.
"""

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from artifact import circle
from artifact.chain import (ChainComplex, ChainError, GradedMap, GradedModule,
                            HomologyTable, PMorphism, _HomologyArrow,
                            _presentation, cone, reduction)
from artifact.circle import _name_map, _ses_exact_at
from artifact.connsum import FilteredComplex
from artifact.exactlin import (AbelianGroup, CompositionNonzero,
                               DimensionMismatch, IntMatrix, PresentedGroup)
from snf_reference import (FieldPresentation, reference_back_substitute,
                           reference_kernel, reference_lattice_contains,
                           reference_snf, reference_solve)


def from_rows(data: Sequence[Sequence[int]],
              cols: Optional[int] = None) -> IntMatrix:
    """The matrix with the given rows (``cols`` columns when there are
    none); ragged rows raise ``DimensionMismatch``."""
    rows = len(data)
    if cols is None:
        cols = len(data[0]) if rows else 0
    entries = {}
    for i, row in enumerate(data):
        if len(row) != cols:
            raise DimensionMismatch("ragged rows")
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return IntMatrix(rows, cols, entries)


def submatrix_cols(M: IntMatrix, js: Sequence[int]) -> IntMatrix:
    """The columns ``js`` of M, in that order."""
    pos = {j: a for a, j in enumerate(js)}
    return IntMatrix(M.rows, len(js), {(i, pos[j]): v for (i, j), v
                                       in M.entries.items() if j in pos})


def equal_on(a: HomologyTable, b: HomologyTable,
             window: Tuple[int, int]) -> bool:
    """The two tables agree at every degree of the window."""
    lo, hi = window
    return all(a[j] == b[j] for j in range(lo, hi + 1))


def random_matrix(rng: random.Random, rows: int, cols: int, lo=-5, hi=5,
                  density=0.6) -> IntMatrix:
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    ent[(i, j)] = v
    return IntMatrix(rows, cols, ent)


def to_dense(M: IntMatrix) -> List[List[int]]:
    out = [[0] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        out[i][j] = v
    return out


def det(M: IntMatrix) -> int:
    """Exact determinant by dynamic programming over column subsets."""
    n = M.rows
    assert n == M.cols
    if n == 0:
        return 1
    dense = to_dense(M)
    memo = {0: 1}
    for i in range(n):
        new: Dict[int, int] = {}
        for mask, val in memo.items():
            if not val:
                continue
            sign = 1
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                a = dense[i][j]
                if a:
                    nm = mask | bit
                    new[nm] = new.get(nm, 0) + sign * val * a
        memo = new
    return memo.get((1 << n) - 1, 0)


def _to_invariant_factors(free: int, orders: List[int]) -> AbelianGroup:
    """Canonical form of Z^free + sum of Z/n over the given cyclic orders."""
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


class ComplexSpec:
    """A random complex together with its known homology."""

    def __init__(self, complex: ChainComplex, expected: Dict[int, AbelianGroup]):
        self.complex = complex
        self.expected = expected


def random_complex(rng: random.Random, max_pieces: int = 4,
                   degree_span: Tuple[int, int] = (-3, 4), p: int = 0,
                   with_u: bool = False) -> ComplexSpec:
    """Direct sum of elementary pieces in a random unimodular basis.

    Pieces: a lone generator in degree k (contributes Z to H_k), or a pair
    b(k) -> a(k-1) with d(b) = n a (contributes Z/|n| to H_{k-1}; nothing
    when n is a unit; Z + Z when n = 0).
    """
    gens: List[Tuple[str, int]] = []
    diff: Dict[Tuple[str, str], int] = {}
    free: Dict[int, int] = {}
    orders: Dict[int, List[int]] = {}

    npieces = rng.randint(1, max_pieces)
    for idx in range(npieces):
        k = rng.randint(*degree_span)
        if rng.random() < 0.4:
            gens.append((f"g{idx}", k))
            free[k] = free.get(k, 0) + 1
            continue
        n = rng.choice([0, 1, 2, 2, 3, 4, 6, -2])
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
        else:
            if n % p == 0:
                free[k] = free.get(k, 0) + 1
                free[k - 1] = free.get(k - 1, 0) + 1
    module = GradedModule(gens)
    d = GradedMap(module, module, -1, diff)
    C = ChainComplex(module, d, p=p)
    C = random_basis_change(rng, C)
    if with_u:
        C = C.with_actions(u_action=commuting_u(rng, C))
    table = {}
    for deg in set(free) | set(orders):
        table[deg] = _to_invariant_factors(free.get(deg, 0), orders.get(deg, []))
    return ComplexSpec(C, table)


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
    """U = dW + Wd for random degree -1 W always commutes with d."""
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


def anticommuting_y(rng: random.Random, C: ChainComplex,
                    tries: int = 8) -> Optional[GradedMap]:
    """Y = dX - Xd for degree +2 X anticommutes with d; keep only draws
    with Y.Y = 0."""
    module = C.module
    for _ in range(tries):
        ent = {}
        for a, da in module.generators:
            for b, db in module.generators:
                if db == da + 2 and rng.random() < 0.4:
                    v = rng.randint(-2, 2)
                    if v:
                        ent[(a, b)] = v
        X = GradedMap(module, module, 2, ent)
        Y = (C.d @ X) - (X @ C.d)
        if (Y @ Y).is_zero_mod(C.p):
            return Y
    return None


def random_pmorphism(rng: random.Random, C1: ChainComplex, C2: ChainComplex,
                     degree: Optional[int] = None) -> PMorphism:
    """A p-morphism C1 -> C2 from a random map N of degree d+1:
    phi = d2.N + (-1)^d N.d1 is a chain map of degree d, and
    K = U2.N - N.U1 witnesses its U-commutation."""
    d = rng.choice([0, 0, -1, 1]) if degree is None else degree
    ent = {}
    for a, da in C1.module.generators:
        for b, db in C2.module.generators:
            if db == da + d + 1 and rng.random() < 0.5:
                v = rng.randint(-2, 2)
                if v:
                    ent[(a, b)] = v
    N = GradedMap(C1.module, C2.module, d + 1, ent)
    sign = -1 if d % 2 else 1
    phi = (C2.d @ N) + (N @ C1.d).scale(sign)
    K = (C2.u_action @ N) - (N @ C1.u_action)
    return PMorphism(C1, C2, phi, K)


def laurent_form(S: ChainComplex) -> FilteredComplex:
    """A Y-complex as a filtered complex: d at exponent 0, Y at exponent 1."""
    entries = {k: [(0, v)] for k, v in S.d.entries.items()}
    for k, v in S.y_action.entries.items():
        entries.setdefault(k, []).append((1, v))
    return FilteredComplex(S.module.generators, entries, p=S.p)


def lattice_ses_exact_at(inject: GradedMap, project: GradedMap,
                         mid_degree: int, p: int) -> bool:
    """Module-level exactness of 0 -> A -> B -> C -> 0 at the middle degree
    by lattices, for any maps: the composite vanishes, inject is injective,
    project surjective, and the image of inject equals the kernel of
    project, by the reference factorizations over Z and F_p.  The oracle
    for the name bookkeeping of ``circle._ses_exact_at``."""
    bi = inject.block(mid_degree - inject.degree)
    bp = project.block(mid_degree)
    comp = (bp @ bi).mod(p) if p else (bp @ bi)
    if not comp.is_zero():
        return False
    res_i = reference_snf(bi, p)
    if len(res_i.factors) != bi.cols:           # injective
        return False
    rp, kp = reference_kernel(bp, p)
    if rp != bp.rows:           # surjective
        return False
    # image = kernel as lattices, the image side through its one factorization
    return (reference_back_substitute(res_i, kp, p) is not None
            and reference_lattice_contains(kp, bi, p))


def lattice_exactness_oracle(F: IntMatrix, G: IntMatrix, mid: PresentedGroup,
                             tgt: PresentedGroup, p: int) -> Tuple[bool, bool]:
    """(contained, equal) of an LES node by four factorizations: the
    kernel of G from [G | target torsion], F solved in that kernel plus the
    middle torsion, and a double inclusion of subgroups modulo the middle
    torsion, by the reference factorizations over Z and F_p.  The oracle
    for ``chain._lattice_exactness``, which reads ``contained`` off G.F and
    factors twice, and for ``chain._rank_exactness``."""
    t_mid = mid.torsion_relation_columns()
    t_tgt = tgt.torsion_relation_columns()
    _, ker = reference_kernel(IntMatrix.hstack([G, t_tgt]), p)
    kernel_gens = IntMatrix.hstack([IntMatrix(G.cols, ker.cols, {
        (i, j): v for (i, j), v in ker.entries.items() if i < G.cols}), t_mid])
    contained = reference_solve(kernel_gens, F, p) is not None
    image = IntMatrix.hstack([F, t_mid])
    # the two subgroups, each with the middle torsion, contain each other
    equal = contained and all(
        reference_lattice_contains(IntMatrix.hstack([a, t_mid]), b, p)
        for a, b in ((kernel_gens, image), (image, kernel_gens)))
    return contained, equal


def presented_at(pg: Optional[PresentedGroup], j: int = 0,
                 p: int = 0) -> ChainComplex:
    """An empty complex over Z or F_p whose presentation memo holds ``pg``
    at degree j: the program reads its homology there from the memo."""
    m = GradedModule([])
    C = ChainComplex(m, GradedMap.zero(m, m, -1), p=p)
    if pg is not None:
        C._presented[j] = pg
    return C


def fixed_arrow(F: IntMatrix, source: ChainComplex, target: ChainComplex,
                j: int = 0, degree: int = 0) -> _HomologyArrow:
    """A homology arrow from source to target whose class matrix at source
    degree j is F; everything else it answers (``factored``, and so
    ``chain._flags`` and ``chain._lattice_exactness``) is the program's."""
    arrow = _HomologyArrow(GradedMap.zero(source.module, target.module,
                                          degree), source, target)
    arrow._matrices[j] = F
    return arrow


def fixed_node(F: IntMatrix, G: IntMatrix, mid: PresentedGroup,
               tgt: PresentedGroup) -> Tuple[_HomologyArrow, _HomologyArrow]:
    """(incoming, outgoing) arrows over Z meeting at degree 0 of a middle
    complex presented by ``mid``, with class matrices F into it and G out
    of it into a complex presented by ``tgt``."""
    M = presented_at(mid)
    return (fixed_arrow(F, presented_at(None), M),
            fixed_arrow(G, M, presented_at(tgt)))


def ses_verdicts(fs) -> List[Tuple[bool, bool]]:
    """(name verdict, lattice verdict) of both short exact sequences of a
    ``FundamentalSequences`` at every degree they check."""
    out = []
    for seq in (fs.seq1, fs.seq2):
        names = (_name_map(seq.inject), _name_map(seq.project))
        for j in seq.checked_degrees:
            out.append((_ses_exact_at(seq.inject, seq.project, j, names),
                        lattice_ses_exact_at(seq.inject, seq.project, j,
                                             seq.left.p)))
    return out


def count_les_tags(monkeypatch, *modules) -> Counter:
    """A Counter of ``_les_check`` calls by tag, made through the name each
    of ``modules`` binds it to."""
    tags: Counter = Counter()
    original = circle._les_check

    def counting(tag, *args):
        tags[tag] += 1
        return original(tag, *args)

    for module in modules:
        monkeypatch.setattr(module, "_les_check", counting)
    return tags


# ---------------------------------------------------------------------------
# Reference readings and constructions the program does not ship
# ---------------------------------------------------------------------------

def unreduced_presentation(d_in: IntMatrix, d_out: IntMatrix, p: int = 0):
    """ker(d_out) / im(d_in) with coordinates, where d_in maps into and
    d_out maps out of Z^n or F_p^n, with no reduction first: a
    ``PresentedGroup`` over Z, the reference ``FieldPresentation`` over
    F_p (the program presents F_p homology only once reduced)."""
    if d_out.cols != d_in.rows:
        raise DimensionMismatch(
            f"ambient mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows")
    if not (d_out @ d_in).mod(p).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    if p:
        return FieldPresentation(d_in, d_out, p)
    return PresentedGroup.from_pair(d_in, d_out)


def homology_of_pair(d_in: IntMatrix, d_out: IntMatrix,
                     p: int = 0) -> AbelianGroup:
    """ker(d_out) / im(d_in) where d_in maps into and d_out maps out of Z^n."""
    return unreduced_presentation(d_in, d_out, p).group


def direct_sum(A: ChainComplex, B: ChainComplex,
               tags: Tuple[str, str] = ("A", "B")) -> ChainComplex:
    return cone(GradedMap.zero(A.module, B.module, -1), A, B, tags)


def compose(g: PMorphism, f: PMorphism) -> PMorphism:
    """g after f, with the standard witness composition
    K = K_g . phi_f + (-1)^{deg g} phi_g . K_f."""
    sign = -1 if g.phi.degree % 2 else 1
    k = (g.k_phi @ f.phi) + (g.phi @ f.k_phi).scale(sign)
    return PMorphism(f.source, g.target, g.phi @ f.phi, k)


def verify_homotopy(f: GradedMap, g: GradedMap, K: GradedMap,
                    source: ChainComplex, target: ChainComplex) -> bool:
    """True iff f - g = d.K + (-1)^{deg f} K.d entry-exactly (mod p)."""
    if f.degree != g.degree:
        raise ChainError("f and g must have the same degree")
    if K.degree != f.degree + 1:
        raise ChainError("homotopy must have degree deg(f)+1")
    sign = -1 if f.degree % 2 else 1
    defect = (f - g) - (target.d @ K) - (K @ source.d).scale(sign)
    return defect.is_zero_mod(source.p)


def reduction_maps(C: ChainComplex) -> Tuple[GradedMap, GradedMap]:
    """iota: C' -> C and pi: C -> C' of C's reduction as graded maps."""
    red, names = reduction(C), C.module.names()
    kept = red.complex.module
    iota, pi = {}, {}
    for nm in kept.names():
        g = C.module._index[nm]
        iota.update({(nm, names[h]): v
                     for h, v in red.iota_column(g).items()})
        pi.update({(names[h], nm): v for h, v in red.pi_row(g).items()})
    return (GradedMap(kept, C.module, 0, iota),
            GradedMap(C.module, kept, 0, pi))


def ambient_representatives(C: ChainComplex, j: int) -> IntMatrix:
    """Cycles of C_j representing the canonical generators of H_j(C):
    iota_j of those of C'."""
    return reduction_maps(C)[0].block(j) @ _presentation(C, j).representatives()


def ambient_coords(C: ChainComplex, j: int,
                   vectors: IntMatrix) -> Optional[IntMatrix]:
    """Canonical coordinates in H_j(C) of the classes of the columns of
    ``vectors`` (of C_j), or None if d_j kills not all of them: those of
    pi_j of them in C'."""
    pi_j = reduction_maps(C)[1].block(j)
    pg = _presentation(C, j)
    if vectors.rows != pi_j.cols:
        raise DimensionMismatch("vectors do not fit C_j")
    if vectors.is_zero():
        return IntMatrix(pg.rank_coords(), vectors.cols)
    if not (C.d.block(j) @ vectors).mod(C.p).is_zero():
        return None
    return pg.coord_matrix(pi_j @ vectors)


def case2_input() -> ChainComplex:
    """A U-complex whose hat identification in ``connsum.case2_check``
    matches a.u0 .. c.y.u0 one to one, with d entries (c.u0 -> b.u0) 2,
    (c.u0 -> a.y.u0) -1 and (c.y.u0 -> b.y.u0) -2 on the right side."""
    m = GradedModule([("a", 0), ("b", 1), ("c", 2)])
    return ChainComplex(m, GradedMap(m, m, -1, {("c", "b"): 2}),
                        u_action=GradedMap(m, m, -2, {("c", "a"): 1}))


def perturb_right_side(monkeypatch, change: str) -> None:
    """Make ``connsum.e_y``, the right side of ``case2_check``, add a
    generator (count), rename a.u0 (partner), raise a.u0 by two degrees
    (degree), or triple every differential entry (entry)."""
    from artifact import connsum
    original = connsum.e_y

    def perturbed(*args):
        right = original(*args)
        gens = list(right.module.generators)
        entries = dict(right.d.entries)
        if change == "count":
            gens.append(("z.u0", 0))
        elif change == "partner":
            gens = [("z.u0" if n == "a.u0" else n, d) for n, d in gens]
        elif change == "degree":
            gens = [(n, d + 2 if n == "a.u0" else d) for n, d in gens]
        else:
            entries = {k: 3 * v for k, v in entries.items()}
        m = GradedModule(gens)
        return ChainComplex(m, GradedMap(m, m, -1, entries), p=right.p)

    monkeypatch.setattr(connsum, "e_y", perturbed)
