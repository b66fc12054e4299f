"""Shared randomized generators with built-in oracles.

Random chain complexes are assembled from elementary pieces whose homology
is known (free generators and two-step multiplication complexes), then
conjugated by a random degree-preserving unimodular change of basis, so the
homology oracle survives exactly.  Commuting U-actions come from U = dW + Wd
for a random degree -1 map W; anticommuting square-zero Y-actions from
Y = dX - Xd with rejection on Y.Y != 0.

Beside them sit the reference readings that the program no longer ships:
the degree blocks of a graded map (``block``), the coordinates of vectors
and the representatives of a presentation (``coord_matrix``,
``representatives``), and the per-degree paths they fed, each the oracle
of the one-pass path that replaced it:
``pair_presentation`` (``PresentedGroup.from_pair`` on two blocks of d',
against the presentations the reduction reads off its pieces of d'),
``pushed_by_coords`` (``coord_matrix`` of the source's
``representatives`` pushed as columns, against ``_HomologyArrow._push``),
``defect_by_products`` (two products, a scale and a difference, against
``chain._defect``), ``transpose`` (a 0/1 generator map read backwards,
the splittings of the product form retraction . d . section, against
``circle._snake``) and ``isolate_pushing_every_write`` (``chain._isolate``
with a heap record for every entry written); classes of a complex C read
in C itself through the degree blocks of its reduction's iota and pi, the
oracle for the class matrices that ``chain._HomologyArrow._push`` reads in
C'; ``reduction_defects``, the chain-map laws of a reduction checked on
every block; the presentation by two-factorization presentation of any pair
(``FactoredPresentation``), the oracle of ``PresentedGroup.from_pair``, and
the presentation by back-substitution through a factored cycle basis
(``CycleBasisPresentation``), the oracle of ``FactoredPresentation``; and
small constructions only
tests use (``direct_sum``, ``compose``, ``verify_homotopy``,
``homology_of_pair``, ``unreduced_presentation``, ``to_dense``,
``from_rows``, ``submatrix_cols``, ``equal_on``, and ``case2_input`` with
``perturb_right_side`` for the mismatches of ``case2_check``).  Members
the program does not run live here too: ``diagonal``, ``column``,
``rank_and_kernel``, ``shifted``, ``strict_pmorphism``,
``identity_pmorphism``, ``replace_bundle`` (a bundle built again from its
fields), and the grammar's ``parse`` (a file's primary object) with the
printers ``print_components`` and ``print_sum_file``.  The
lattice oracles factor through ``snf_reference``, over Z and over F_p,
where the program only reduces and takes ranks; ``fixed_arrow`` and
``fixed_node`` hand constructed class matrices and presentations to the
program's own verdicts.
"""

import random
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from artifact import circle
from artifact.chain import (ChainComplex, ChainError, GradedMap, GradedModule,
                            HomologyTable, PMorphism, _apply, _HomologyArrow,
                            _presentation, _reduce, cone, reduction)
from artifact.circle import _name_map, _ses_exact_at
from artifact.cli import (_SUMMAP_NAMES, SumSpec, _ring_name, parse_all,
                          print_complex)
from artifact.connsum import FilteredComplex
from artifact.exactlin import (AbelianGroup, CompositionNonzero,
                               DimensionMismatch, ExactLinError, IntMatrix,
                               PresentedGroup, _axpy, _back_substitute,
                               _kernel_head, snf)
from artifact.flavors import _SHAPES, BalancedComponents, FlavorBundle
from snf_reference import (FieldPresentation, invert_unimodular, mod_p,
                           reference_back_substitute, reference_kernel,
                           reference_lattice_contains, reference_snf,
                           reference_solve)


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


def diagonal(diag: Sequence[int], rows: Optional[int] = None,
             cols: Optional[int] = None) -> IntMatrix:
    """The rows x cols matrix (square by default) with ``diag`` on its
    leading diagonal; a shape too small for it raises
    ``DimensionMismatch``."""
    n = len(diag)
    rows = n if rows is None else rows
    cols = n if cols is None else cols
    return IntMatrix(rows, cols, {(i, i): d for i, d in enumerate(diag)
                                  if d})


def column(values: Sequence[int]) -> IntMatrix:
    """The one-column matrix of ``values``."""
    return IntMatrix(len(values), 1,
                     {(i, 0): v for i, v in enumerate(values) if v})


def rank_and_kernel(M: IntMatrix) -> Tuple[int, IntMatrix]:
    """Rank and a saturated integral kernel basis of M over Z, as columns,
    read off ``snf``."""
    res = snf(M)
    return len(res.factors), _kernel_head(res, M.cols)


def submatrix_cols(M: IntMatrix, js: Sequence[int]) -> IntMatrix:
    """The columns ``js`` of M, in that order."""
    pos = {j: a for a, j in enumerate(js)}
    return IntMatrix(M.rows, len(js), {(i, pos[j]): v for (i, j), v
                                       in M.entries.items() if j in pos})


def shifted(H: HomologyTable, s: int) -> HomologyTable:
    """Table T with T[j] = H[j - s] (content moved up by s)."""
    return HomologyTable({j + s: g for j, g in H.table.items()})


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


def to_invariant_factors(free: int, orders: List[int]) -> AbelianGroup:
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


def elementary_pair(rng: random.Random) -> Tuple[IntMatrix, IntMatrix]:
    """A random elementary pair (d_in, d_out) on Z^n, 1 <= n <= 6: each
    generator is free, hit by d_in, or moved by d_out, with a nonzero entry
    of absolute value at most 12."""
    n = rng.randint(1, 6)
    ins: Dict[Tuple[int, int], int] = {}
    outs: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        role, v = rng.randrange(3), rng.choice((-1, 1)) * rng.randint(1, 12)
        if role == 1:
            ins[(i, len(ins))] = v
        elif role == 2:
            outs[(len(outs), i)] = v
    return IntMatrix(n, len(ins), ins), IntMatrix(len(outs), n, outs)


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
        table[deg] = to_invariant_factors(free.get(deg, 0), orders.get(deg, []))
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
    bi = block(inject, mid_degree - inject.degree)
    bp = block(project, mid_degree)
    comp = mod_p(bp @ bi, p)
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
    for ``chain.exactness_pair``, which reads ``contained`` off G.F and
    then over Z factors twice (``chain._lattice_exactness``), over F_p
    takes ranks."""
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
    """An empty complex over Z or F_p whose reduction record, filled by
    ``_memo``, presents its homology by ``pg`` at degree j (trivial where
    ``pg`` is None): the program reads its homology there from the
    record."""
    m = GradedModule([])
    C = ChainComplex(m, GradedMap.zero(m, m, -1), p=p)
    C._memo("_reduced", _reduce(C)._replace(
        presented={} if pg is None else {j: pg}))
    return C


def fixed_arrow(F: IntMatrix, source: ChainComplex, target: ChainComplex,
                j: int = 0, degree: int = 0) -> _HomologyArrow:
    """A homology arrow from source to target whose class matrix at source
    degree j is F; everything else it answers (``factored``, and so
    ``chain._flags`` and ``chain.exactness_pair``) is the program's."""
    arrow = _HomologyArrow(GradedMap.zero(source.module, target.module,
                                          degree), source, target)
    arrow._matrices[j] = F
    return arrow


def fixed_node(F: IntMatrix, G: IntMatrix, mid: PresentedGroup,
               tgt: PresentedGroup, p: int = 0
               ) -> Tuple[_HomologyArrow, _HomologyArrow]:
    """(incoming, outgoing) arrows over Z or F_p meeting at degree 0 of a
    middle complex presented by ``mid``, with class matrices F into it and
    G out of it into a complex presented by ``tgt``: ``exactness_pair`` of
    them at 0 is the program's verdict on that node."""
    M = presented_at(mid, p=p)
    return (fixed_arrow(F, presented_at(None, p=p), M),
            fixed_arrow(G, M, presented_at(tgt, p=p)))


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
# Per-degree paths the program replaced, kept as oracles
# ---------------------------------------------------------------------------

def block(f: GradedMap, j: int) -> IntMatrix:
    """Matrix of f's degree-j piece: columns are source generators of
    degree j, rows are target generators of degree j + f.degree, both in
    module order."""
    src = f.source.gens_in_degree(j)
    tpos = {n: i for i, n in enumerate(
        f.target.gens_in_degree(j + f.degree))}
    rows = f._rows()
    return IntMatrix(len(tpos), len(src), {
        (tpos[t], c): v for c, s in enumerate(src)
        for t, v in rows.get(s, {}).items() if t in tpos})


def is_plain(pg: PresentedGroup) -> bool:
    """Whether pg is the plain group of two zero differentials: no torsion
    row, no generator that d_out moves, every generator free."""
    return (not pg.torsion_rows and not pg._sources
            and len(pg.free_rows) == pg.dim)


def coord_matrix(pg: PresentedGroup, vectors: IntMatrix
                 ) -> Optional[IntMatrix]:
    """Canonical coordinates of the classes of the columns of ``vectors``
    (of the presented Z^n), as columns, or None if some column is not a
    cycle, nonzero at a generator d_out moves."""
    if vectors.rows != pg.dim:
        raise DimensionMismatch("vectors do not fit the cycle lattice")
    if is_plain(pg):
        return mod_p(vectors, pg.p)
    nt, ent = len(pg.torsion_moduli), {}
    coordinate = {i: a for a, i in enumerate(pg.torsion_rows + pg.free_rows)}
    for (i, j), v in vectors.entries.items():
        if i in pg._sources:
            return None
        a = coordinate.get(i)
        if a is not None:
            if a < nt:
                v %= pg.torsion_moduli[a]
            if v:
                ent[(a, j)] = v
    return IntMatrix(pg.rank_coords(), vectors.cols, ent)


def representatives(pg: PresentedGroup) -> IntMatrix:
    """Cycles representing the canonical generators, as columns: the
    generators at the torsion and free coordinates."""
    if is_plain(pg):
        return IntMatrix.identity(pg.dim)
    return IntMatrix(pg.dim, pg.rank_coords(), {
        (i, a): 1 for a, i in enumerate(pg.torsion_rows + pg.free_rows)})


def pair_presentation(C: ChainComplex, j: int) -> PresentedGroup:
    """``PresentedGroup.from_pair`` on the blocks of C's reduced d' into
    and out of degree j (on n x 0 and 0 x n where d' = 0)."""
    d, n = reduction(C).complex.d, _presentation(C, j).dim
    if d.is_zero_mod(0):
        return PresentedGroup.from_pair(IntMatrix(n, 0), IntMatrix(0, n), C.p)
    return PresentedGroup.from_pair(block(d, j + 1), block(d, j), C.p)


def push_columns(arrow: _HomologyArrow, j: int,
                 reps: IntMatrix) -> IntMatrix:
    """pi . f . iota of the columns of ``reps`` (vectors of the source's
    C'_j) as vectors of the target's C', each pushed as a sparse vector
    through iota's columns, f's rows, the target's cycle test d = 0 (else
    ``ChainError``) and pi's rows."""
    p, S, T = arrow.target.p, arrow.source, arrow.target
    s_red, t_red = reduction(S), reduction(T)
    s_kept = [S.module._index[nm]
              for nm in s_red.complex.module.gens_in_degree(j)]
    t_kept = [T.module._index[nm] for nm in
              t_red.complex.module.gens_in_degree(j + arrow.degree)]
    names, t_index = S.module.generators, T.module._index
    f_rows, d_rows = arrow.f._rows(), T.d._rows()
    cols: Dict[int, Dict[int, int]] = {}
    for (r, c), v in reps.entries.items():
        cols.setdefault(c, {})[s_kept[r]] = v
    out = {}
    for c, col in cols.items():
        x = _apply(col, s_red.iota_column, p)
        y = _apply({names[g][0]: v for g, v in x.items()}, f_rows.get, p)
        if _apply(y, d_rows.get, p):
            raise ChainError("image of a cycle is not a cycle")
        y = {t_index[t]: v for t, v in y.items()}
        for r, s in enumerate(t_kept):
            if v := sum(w * y.get(g, 0) for g, w in t_red.pi_row(s).items()):
                out[(r, c)] = v
    return IntMatrix(len(t_kept), reps.cols, out)


def pushed_by_coords(arrow: _HomologyArrow, j: int) -> IntMatrix:
    """The class matrix of ``arrow`` at source degree j the way
    ``_HomologyArrow.matrix`` read it through matrices: the source's
    ``representatives`` pushed as columns by ``push_columns``, then
    ``coord_matrix`` in the target; empty when the source group is
    trivial.  Both presentations are ``pair_presentation``'s."""
    src = pair_presentation(arrow.source, j)
    tgt = pair_presentation(arrow.target, j + arrow.degree)
    if not src.rank_coords():
        return IntMatrix(tgt.rank_coords(), 0)
    F = coord_matrix(tgt, push_columns(arrow, j, representatives(src)))
    if F is None:
        raise ChainError("image of a cycle is not a cycle")
    return F


def defect_by_products(f: GradedMap, a: GradedMap, b: GradedMap
                       ) -> GradedMap:
    """f.a - (-1)^{|f||a|} b.f by two products, a scale and a difference."""
    sign = -1 if (f.degree % 2) and (a.degree % 2) else 1
    return (f @ a) - (b @ f).scale(sign)


def transpose(f: GradedMap) -> GradedMap:
    """A 0/1 generator map read backwards, built checked: the canonical
    degreewise section of a projection, or retraction of an injection."""
    return GradedMap(f.target, f.source, -f.degree,
                     {(t, s): v for (s, t), v in f.entries.items()})


def isolate_pushing_every_write(bd, cobd, iota, pi, cancel) -> None:
    """``chain._isolate`` with a heap record (|v|, x, y) pushed for every
    entry written, and every record whose entry has changed since skipped
    when it comes up."""
    heap = [(abs(v), x, y) for x, dx in bd.items() for y, v in dx.items()]
    heapify(heap)

    def basis_add(b: int, a: int, c: int) -> None:
        if da := bd.get(a):
            db = bd.setdefault(b, {})
            for t, v in da.items():
                if w := db.get(t, 0) + c * v:
                    db[t] = cobd[t][b] = w
                    heappush(heap, (abs(w), b, t))
                else:
                    del db[t], cobd[t][b]
        if cb := cobd.get(b):
            ca = cobd.setdefault(a, {})
            for s, v in cb.items():
                if w := ca.get(s, 0) - c * v:
                    ca[s] = bd[s][a] = w
                    heappush(heap, (abs(w), s, a))
                else:
                    del ca[s], bd[s][a]
        _axpy(iota.setdefault(b, {b: 1}), iota.get(a, {a: 1}), c, 0)
        _axpy(pi.setdefault(a, {a: 1}), pi.get(b, {b: 1}), -c, 0)

    while heap:
        pivot = heappop(heap)
        k, x, y = pivot
        v = bd.get(x, {}).get(y)
        if v is None or abs(v) != k:
            continue
        if k == 1:
            dx, rows = list(bd[x]), [a for a in cobd[y] if a != x]
            cancel(x, y)
            for a in rows:
                for t in dx:
                    if w := bd[a].get(t):
                        heappush(heap, (abs(w), a, t))
            continue
        for t, w in list(bd[x].items()):
            if t != y and (q := w // v):
                basis_add(y, t, q)
        for s, w in list(cobd[y].items()):
            if s != x and (q := w // v):
                basis_add(s, x, -q)
        if len(bd[x]) > 1 or len(cobd[y]) > 1:
            heappush(heap, pivot)
        elif cobd.get(x) or bd.get(y):
            raise ChainError("differential does not square to zero")


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
    if not mod_p(d_out @ d_in, p).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    if p:
        return FieldPresentation(d_in, d_out, p)
    return FactoredPresentation(d_in, d_out)


class FactoredPresentation(PresentedGroup):
    """ker(d_out) / im(d_in) over Z for any pair, read through two Smith
    forms, the way ``PresentedGroup.from_pair`` read every Z presentation
    before the reduction left C' in elementary pieces.  One factorization
    U d_out V = D of rank r gives the cycle basis, V's columns r.., and the
    cycle coordinates of z, rows r.. of V^-1 z, whose rows before r vanish
    exactly when d_out z = 0; a second factors the relations.  Coordinates
    read through both, and the inverses come from ``invert_unimodular``.
    The oracle of the program's reading of its pieces (the same groups,
    the same verdict on which vectors are boundaries).  Unlike the sealed
    ``PresentedGroup`` it builds itself by assignment, so it opts out of
    the refusal; ``_sources`` is empty, as its coordinates come from a
    cycle basis, not from generators that d_out moves."""

    __setattr__ = object.__setattr__

    def __init__(self, d_in: IntMatrix, d_out: IntMatrix):
        if d_in.rows != d_out.cols:
            raise DimensionMismatch("boundaries do not fit the cycle lattice")
        res = snf(d_out)
        self.dim, self.p = d_out.cols, 0
        self._sources = ()
        self._cycle_rank = len(res.factors)
        self._cycle_inverse = invert_unimodular(res.right)
        self.cycles = _kernel_head(res, self.dim)         # n x z, saturated
        self.rel = self._cycle_coords(d_in)                # z x b
        if self.rel is None:
            raise ExactLinError("boundary is not a cycle; composition nonzero?")
        res = snf(self.rel)
        self.rel_left, factors = res.left, res.factors
        self.torsion_moduli = [d for d in factors if d >= 2]
        self.torsion_rows = [i for i, d in enumerate(factors) if d >= 2]
        self.free_rows = list(range(len(factors), self.cycles.cols))
        self.group = AbelianGroup(len(self.free_rows), self.torsion_moduli)

    def _cycle_coords(self, vectors: IntMatrix) -> Optional[IntMatrix]:
        """X with cycles @ X = vectors, rows r.. of V^-1 @ vectors; None if
        some column is not a cycle, nonzero in the rows before r."""
        r, ent = self._cycle_rank, {}
        for (i, j), v in (self._cycle_inverse @ vectors).entries.items():
            if i < r:
                return None
            ent[(i - r, j)] = v
        return IntMatrix(self.cycles.cols, vectors.cols, ent)

    def coord_matrix(self, vectors: IntMatrix) -> Optional[IntMatrix]:
        if vectors.rows != self.dim:
            raise DimensionMismatch("vectors do not fit the cycle lattice")
        x = self._cycle_coords(vectors)
        if x is None:
            return None
        y, nt = self.rel_left @ x, len(self.torsion_rows)
        pos = {i: a for a, i in enumerate(self.torsion_rows + self.free_rows)}
        return IntMatrix(self.rank_coords(), vectors.cols, {
            (a, j): v % self.torsion_moduli[a] if a < nt else v
            for (i, j), v in y.entries.items()
            if (a := pos.get(i)) is not None})

    def representatives(self) -> IntMatrix:
        rows = self.torsion_rows + self.free_rows
        e = IntMatrix(self.rel_left.rows, len(rows),
                      {(r, k): 1 for k, r in enumerate(rows)})
        return self.cycles @ (invert_unimodular(self.rel_left) @ e)


class CycleBasisPresentation:
    """ker(d_out) / im(d_in) over Z read by back-substitution: a kernel
    basis from ``rank_and_kernel``, factored on its own, and the relations
    and every coordinate solved through that second factorization.  The
    oracle of the cycle basis, ``rel``, its left transform, the coordinates
    and the representatives of ``FactoredPresentation``."""

    def __init__(self, d_in: IntMatrix, d_out: IntMatrix):
        _, self.cycles = rank_and_kernel(d_out)
        self._cycles_snf = snf(self.cycles)
        self.rel = _back_substitute(self._cycles_snf, d_in)
        if self.rel is None:
            raise ExactLinError("boundary is not a cycle")
        res = snf(self.rel)
        self.rel_left = res.left
        self.torsion_moduli = [d for d in res.factors if d >= 2]
        self.rows = ([i for i, d in enumerate(res.factors) if d >= 2]
                     + list(range(len(res.factors), self.cycles.cols)))

    def coord_matrix(self, vectors: IntMatrix) -> Optional[IntMatrix]:
        x = _back_substitute(self._cycles_snf, vectors)
        if x is None:
            return None
        y, nt = self.rel_left @ x, len(self.torsion_moduli)
        return IntMatrix(len(self.rows), vectors.cols, {
            (a, j): y[(i, j)] % self.torsion_moduli[a] if a < nt
            else y[(i, j)]
            for a, i in enumerate(self.rows) for j in range(vectors.cols)})

    def representatives(self) -> IntMatrix:
        e = IntMatrix(self.rel_left.rows, len(self.rows),
                      {(r, k): 1 for k, r in enumerate(self.rows)})
        return self.cycles @ (invert_unimodular(self.rel_left) @ e)


def homology_of_pair(d_in: IntMatrix, d_out: IntMatrix,
                     p: int = 0) -> AbelianGroup:
    """ker(d_out) / im(d_in) where d_in maps into and d_out maps out of Z^n."""
    return unreduced_presentation(d_in, d_out, p).group


def direct_sum(A: ChainComplex, B: ChainComplex,
               tags: Tuple[str, str] = ("A", "B")) -> ChainComplex:
    return cone(GradedMap.zero(A.module, B.module, -1), A, B, tags)


def strict_pmorphism(source: ChainComplex, target: ChainComplex,
                     phi: GradedMap) -> PMorphism:
    """phi as a p-morphism with zero witness."""
    return PMorphism(source, target, phi,
                     GradedMap.zero(phi.source, phi.target, phi.degree - 1))


def identity_pmorphism(C: ChainComplex) -> PMorphism:
    return strict_pmorphism(C, C, GradedMap.identity(C.module))


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


def reduction_defects(C: ChainComplex) -> List[str]:
    """The laws that C's reduction breaks, on every block at once (mod p):
    pi . iota = 1, d' . pi = pi . d and d . iota = iota . d'.  Empty when
    iota and pi are chain maps with pi . iota = 1, as every presentation of
    C' assumes."""
    iota, pi = reduction_maps(C)
    d, dr = C.d, reduction(C).complex.d
    laws = {"pi.iota=1": pi @ iota - GradedMap.identity(dr.source),
            "d'.pi=pi.d": dr @ pi - pi @ d,
            "d.iota=iota.d'": d @ iota - iota @ dr}
    return [law for law, defect in laws.items()
            if not defect.is_zero_mod(C.p)]


def ambient_representatives(C: ChainComplex, j: int) -> IntMatrix:
    """Cycles of C_j representing the canonical generators of H_j(C):
    iota_j of those of C'."""
    return block(reduction_maps(C)[0], j) @ representatives(
        _presentation(C, j))


def ambient_coords(C: ChainComplex, j: int,
                   vectors: IntMatrix) -> Optional[IntMatrix]:
    """Canonical coordinates in H_j(C) of the classes of the columns of
    ``vectors`` (of C_j), or None if d_j kills not all of them: those of
    pi_j of them in C'."""
    pi_j = block(reduction_maps(C)[1], j)
    pg = _presentation(C, j)
    if vectors.rows != pi_j.cols:
        raise DimensionMismatch("vectors do not fit C_j")
    if vectors.is_zero():
        return IntMatrix(pg.rank_coords(), vectors.cols)
    if not mod_p(block(C.d, j) @ vectors, C.p).is_zero():
        return None
    return coord_matrix(pg, pi_j @ vectors)


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


def replace_bundle(b: FlavorBundle, **changes) -> FlavorBundle:
    """The bundle built again from b's fields with ``changes`` applied; it
    builds its own p-morphisms, doubles and laws."""
    fields = {n: getattr(b, n) for n in b.__slots__ if not n.startswith("_")}
    return FlavorBundle(**{**fields, **changes})


# ---------------------------------------------------------------------------
# The grammar's readers and printers that only tests use: the primary object
# of a file, and canonical components and summaps files (parse . print is the
# identity on files these wrote)
# ---------------------------------------------------------------------------

def parse(path: str):
    """The file's primary object: its last block (gluing maps as the raw
    map data when the file ends in a summaps block)."""
    obj = parse_all(path)[-1][1]
    return obj.maps if isinstance(obj, SumSpec) else obj


def _entry_lines(f: GradedMap) -> List[str]:
    return [f"  entry {s} {t} {f.entries[(s, t)]}"
            for s, t in sorted(f.entries)]


def print_components(bc: BalancedComponents, name: str) -> str:
    lines = [f"components {name}", f"  ring {_ring_name(bc.p)}"]
    for letter, module in (("o", bc.c_o), ("s", bc.c_s), ("u", bc.c_u)):
        lines.append(f"  part {letter}")
        for n, d in module.generators:
            lines.append(f"  gen {n} {d}")
    for field in sorted(_SHAPES):
        f: GradedMap = getattr(bc, field)
        if f.is_zero_mod(0):
            continue
        kind, st = field.rsplit("_", 1)
        lines.append(f"  map {kind}:{st[0]}->{st[1]}")
        lines += _entry_lines(f)
    lines.append("end")
    return "\n".join(lines) + "\n"


def print_sum_file(spec: SumSpec, c1_name: str = "c1", c2_name: str = "c2",
                   sharp_name: str = "sharp") -> str:
    parts = [print_complex(spec.inputs.C1, c1_name),
             print_complex(spec.inputs.C2hat, c2_name),
             print_complex(spec.maps.sharp, sharp_name)]
    lines = [f"summaps {spec.name}", f"  of {c1_name} {c2_name}",
             f"  sharp {sharp_name}"]
    for name, f in zip(_SUMMAP_NAMES, spec.maps[1:], strict=True):
        lines.append(f"  map {name} {f.degree}")
        lines += _entry_lines(f)
    lines.append("end")
    parts.append("\n".join(lines) + "\n")
    return "".join(parts)
