"""Exact linear algebra over Z, with ranks over prime fields.

Everything here is exact: arbitrary-precision integers.  Matrices are
stored sparsely as ``(row, col) -> nonzero value``.

The workhorse is Smith normal form over Z with unimodular transforms, from
which saturated kernels, exact linear solves, and finitely generated
abelian-group quotients all follow.  Its pivot rule fixes the transforms:
the entry of least absolute value, first in row-major order.  The
reduction keeps the right transform by columns, so each row or column
operation costs only the entries it changes.  A matrix already in the
form the reduction would leave untouched (only leading diagonal entries,
forming a positive divisibility chain; empty and zero matrices among them)
is returned with identity transforms without a workspace.

Over F_p (``p`` prime) nothing is factored: ``chain`` reduces an F_p
complex until its differential vanishes, so every F_p homology group is a
plain ``PresentedGroup`` (``from_pair`` with ``p``), and every F_p verdict
is a rank, from ``field_rank``.  Only Z torsion needs the Smith form.

Factor once, solve many: a matrix is factored once per use and every
right-hand side is back-substituted through that one factorization.
``solve`` takes a whole block of right-hand-side columns, the lattice
helpers make one ``solve`` call per inclusion, and a ``PresentedGroup``
factors its cycle basis once, the first time coordinates are asked of it
(a plain one, with zero differentials, factors nothing).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class ExactLinError(Exception):
    pass


class DimensionMismatch(ExactLinError):
    pass


class CompositionNonzero(ExactLinError):
    pass


class IntMatrix:
    """Immutable sparse integer matrix.  Constructors fed from outside check
    every entry against the shape; closed operations, the SNF transforms and
    kernels build their nonzero in-range results unchecked, by ``_trusted``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Optional[Dict[Tuple[int, int], int]] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        clean: Dict[Tuple[int, int], int] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(
                        f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "IntMatrix":
        """A matrix owning ``entries``, already nonzero and in range."""
        m = cls.__new__(cls)
        _set_rows(m, rows), _set_cols(m, cols), _set_entries(m, entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: Optional[int] = None,
                 cols: Optional[int] = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return cls(rows, cols, {(i, i): d for i, d in enumerate(diag) if d})

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        return cls(len(values), 1, {(i, 0): v for i, v in enumerate(values) if v})

    # -- basic accessors ---------------------------------------------------

    def __getitem__(self, key: Tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix sum shape mismatch")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            w = entries.get(k, 0) + v
            if w:
                entries[k] = w
            else:
                entries.pop(k, None)
        return IntMatrix._trusted(self.rows, self.cols, entries)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols, {
            k: c * v for k, v in self.entries.items() if c})

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        by_row: Dict[int, Dict[int, int]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        by_k: Dict[int, Dict[int, int]] = {}
        for (k, j), v in other.entries.items():
            by_k.setdefault(k, {})[j] = v
        entries: Dict[Tuple[int, int], int] = {}
        for i, row in by_row.items():
            acc: Dict[int, int] = {}
            for k, v in row.items():
                rk = by_k.get(k)
                if not rk:
                    continue
                for j, w in rk.items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    entries[(i, j)] = s
        return IntMatrix._trusted(self.rows, other.cols, entries)

    def mod(self, p: int) -> "IntMatrix":
        if p <= 0:
            return self
        return IntMatrix._trusted(self.rows, self.cols, {
            k: v % p for k, v in self.entries.items() if v % p})

    @classmethod
    def hstack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            return cls(0, 0)
        rows = blocks[0].rows
        entries = {}
        off = 0
        for b in blocks:
            if b.rows != rows:
                raise DimensionMismatch("hstack row mismatch")
            for (i, j), v in b.entries.items():
                entries[(i, j + off)] = v
            off += b.cols
        return cls._trusted(rows, off, entries)


_set_rows, _set_cols, _set_entries = (
    IntMatrix.rows.__set__, IntMatrix.cols.__set__, IntMatrix.entries.__set__)


class AbelianGroup:
    """Finitely generated abelian group in canonical invariant-factor form.

    ``torsion`` is the chain d_1 | d_2 | ... with each d_i >= 2.  Over a
    prime field the same type is reused with ``free_rank`` holding the
    dimension and empty torsion.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[int] = ()):
        tor = tuple(torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"torsion {tor} is not a divisibility chain")
        if any(d < 2 for d in tor):
            raise ValueError("torsion factors must be >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroup is immutable")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        return f"AbelianGroup({self.free_rank}, {self.torsion})"

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroup(0)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _axpy(acc: Dict[int, int], vec: Dict[int, int], c: int, p: int) -> None:
    """acc += c * vec on sparse dicts, mod p when p is prime."""
    for j, v in vec.items():
        w = acc.get(j, 0) + c * v
        if p:
            w %= p
        if w:
            acc[j] = w
        else:
            acc.pop(j, None)


class _Worker:
    """Workspace of one Smith reduction over Z, tracking left/right
    transforms.

    The matrix ``a`` and the left transform are lists of row dicts; the
    right transform is a list of column dicts, so every row and column
    operation touches only the entries it changes.  The reduction clears one
    row and column per step, so during step ``t`` the rows and columns
    before t hold only their diagonal entry, and column operations on ``a``
    visit rows t and up only.  With ``inverse`` it keeps the inverse of
    the left transform too, transposed, undoing each row operation there.
    """

    def __init__(self, M: IntMatrix, inverse: bool = False):
        self.n, self.m = M.rows, M.cols
        self.a: List[Dict[int, int]] = [dict() for _ in range(self.n)]
        for (i, j), v in M.entries.items():
            self.a[i][j] = v
        self.left: List[Dict[int, int]] = [{i: 1} for i in range(self.n)]
        self.right: List[Dict[int, int]] = [{j: 1} for j in range(self.m)]
        self.inv = [{i: 1} for i in range(self.n)] if inverse else None

    # row operations act on (a, left, inv); column operations on (a, right).

    def row_swap(self, i1, i2):
        for mat in (self.a, self.left) + ((self.inv,) if self.inv else ()):
            mat[i1], mat[i2] = mat[i2], mat[i1]

    def row_addmul(self, dst, src, c):
        _axpy(self.a[dst], self.a[src], c, 0)
        _axpy(self.left[dst], self.left[src], c, 0)
        if self.inv:
            _axpy(self.inv[src], self.inv[dst], -c, 0)

    def row_negate(self, i):
        # -1 is its own inverse, so the kept inverse's row is negated too
        for mat in (self.a, self.left) + ((self.inv,) if self.inv else ()):
            mat[i] = {j: -v for j, v in mat[i].items()}

    def col_swap(self, t, j):
        """Swap columns t and j >= t during step t."""
        if j == t:
            return
        a = self.a
        for i in range(t, self.n):
            row = a[i]
            v1, v2 = row.pop(t, None), row.pop(j, None)
            if v2 is not None:
                row[t] = v2
            if v1 is not None:
                row[j] = v1
        self.right[t], self.right[j] = self.right[j], self.right[t]

    def col_addmul(self, dst, t, c):
        # col_dst += c * col_t during step t, once column t of ``a`` holds
        # only its pivot: of ``a`` only row t changes, and the same
        # elementary matrix multiplies the accumulated right transform.
        _axpy(self.a[t], {dst: self.a[t][t]}, c, 0)
        _axpy(self.right[dst], self.right[t], c, 0)

    def matrices(self) -> Tuple[IntMatrix, IntMatrix]:
        lent = {(i, j): v for i, row in enumerate(self.left) for j, v in row.items()}
        rent = {(i, j): v for j, col in enumerate(self.right) for i, v in col.items()}
        return (IntMatrix._trusted(self.n, self.n, lent),
                IntMatrix._trusted(self.m, self.m, rent))


class SNFResult(Tuple[Tuple[int, ...], IntMatrix, IntMatrix]):
    """(invariant factors, left transform, right transform), with
    left @ M @ right = diag(factors)."""

    __slots__ = ()

    def __new__(cls, factors, left, right):
        return tuple.__new__(cls, (tuple(factors), left, right))

    factors = property(lambda self: self[0])
    left = property(lambda self: self[1])
    right = property(lambda self: self[2])


def _pick_pivot(w: _Worker, t: int) -> Optional[Tuple[int, int]]:
    """The entry of least absolute value, first in row-major order.  Rows t
    and up hold no entry left of column t, and no entry beats a unit."""
    best = None
    for i in range(t, w.n):
        row = w.a[i]
        if row:
            a = min(map(abs, row.values()))
            if best is None or a < best[0]:
                best = (a, i, min(j for j, v in row.items() if abs(v) == a))
                if a == 1:
                    break
    return None if best is None else best[1:]


def _snf_int(w: _Worker) -> SNFResult:
    a = w.a
    t = 0
    limit = min(w.n, w.m)
    while t < limit:
        pos = _pick_pivot(w, t)
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        while True:
            if a[t][t] < 0:
                w.row_negate(t)
            piv = a[t][t]
            # knock the rest of column t down by floor division
            col_left = None
            for i in range(t + 1, w.n):
                v = a[i].get(t)
                if v:
                    c = v // piv
                    if c:
                        w.row_addmul(i, t, -c)
                    if col_left is None and t in a[i]:
                        col_left = i
            if col_left is not None:
                # a nonzero remainder < pivot exists; make it the new pivot
                w.row_swap(t, col_left)
                continue
            row_left = False
            for j in [j for j in a[t] if j != t]:
                c = a[t][j] // piv
                if c:
                    w.col_addmul(j, t, -c)
                if j in a[t]:
                    row_left = True
            if row_left:
                w.col_swap(t, min(j for j in a[t] if j != t))
                continue
            # row and column are clear; enforce divisibility of the rest
            if piv == 1:
                break
            bad = next((i for i in range(t + 1, w.n)
                        if any(v % piv for v in a[i].values())), None)
            if bad is None:
                break
            w.row_addmul(t, bad, 1)
        t += 1
    left, right = w.matrices()
    return SNFResult([a[i][i] for i in range(t)], left, right)


def _inv_mod(v: int, p: int) -> int:
    v %= p
    if not v:
        raise ExactLinError(f"0 has no inverse mod {p}")
    return pow(v, p - 2, p)


def _already_reduced(M: IntMatrix) -> Optional[List[int]]:
    """The factors of M if the reduction would leave M untouched, else None.

    That is when M's entries are exactly (0,0) ... (r-1,r-1) and form a
    positive divisibility chain; empty and zero matrices included."""
    ent = M.entries
    factors = []
    prev = 1
    for k in range(len(ent)):
        v = ent.get((k, k))
        if v is None or v < 0 or v % prev:
            return None
        factors.append(v)
        prev = v
    return factors


def snf(M: IntMatrix) -> SNFResult:
    """Smith normal form over Z with transforms: left @ M @ right =
    diag(factors), the factors a positive divisibility chain and the
    transforms unimodular.

    Pivoting picks the entry of minimal absolute value, first in row-major
    order, for determinism.  A matrix that is already in that form, with
    only the leading diagonal entries set, is returned with identity
    transforms without running the reduction; that is the answer the
    reduction itself gives.  Over F_p nothing calls for a factorization:
    ranks come from ``field_rank``.
    """
    return _factor(M)[0]


def _factor(M: IntMatrix, inverse: bool = False
            ) -> Tuple[SNFResult, Optional[IntMatrix]]:
    """``snf(M)``, and with ``inverse`` the inverse of its left
    transform, which the reduction keeps beside it (else None)."""
    factors = _already_reduced(M)
    if factors is not None:
        one = IntMatrix.identity(M.rows)
        return (SNFResult(factors, one, IntMatrix.identity(M.cols)),
                one if inverse else None)
    w = _Worker(M, inverse)
    res = _snf_int(w)
    return res, None if w.inv is None else IntMatrix._trusted(
        M.rows, M.rows, {(i, j): v for j, row in enumerate(w.inv)
                         for i, v in row.items()})


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, which decides every
    n below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_rank(M: IntMatrix, p: int) -> int:
    """Rank of M over F_p (``p`` prime) by Gaussian elimination over row
    dicts, with no transforms: each row is reduced at its least column by
    the pivot row found there, until it is zero or starts a new pivot."""
    rows: Dict[int, Dict[int, int]] = {}
    for (i, j), v in M.entries.items():
        if v % p:
            rows.setdefault(i, {})[j] = v % p
    pivots: Dict[int, Dict[int, int]] = {}    # least column -> its row
    for row in rows.values():
        while row and (c := min(row)) in pivots:
            f = row[c] * _inv_mod(pivots[c][c], p)
            for j, v in pivots[c].items():
                row[j] = (row.get(j, 0) - f * v) % p
            row = {j: v for j, v in row.items() if v}
        if row:
            pivots[min(row)] = row
    return len(pivots)


def _kernel_head(res: SNFResult, head: int) -> IntMatrix:
    """The kernel basis of a factored matrix, each column cut to its first
    ``head`` coordinates."""
    rank = len(res.factors)
    ent = {(i, j - rank): v for (i, j), v in res.right.entries.items()
           if j >= rank and i < head}
    return IntMatrix._trusted(head, res.right.cols - rank, ent)


def rank_and_kernel(M: IntMatrix) -> Tuple[int, IntMatrix]:
    """Rank and a saturated integral kernel basis, as columns (over F_p
    the rank alone is ``field_rank``'s)."""
    res = snf(M)
    return len(res.factors), _kernel_head(res, M.cols)


def _back_substitute(res: SNFResult, B: IntMatrix) -> Optional[IntMatrix]:
    """Solve M @ X = B over Z through a factorization ``res`` of M: one
    product with each transform for all columns of B; None if some column
    has no solution."""
    rank = len(res.factors)
    y = {}
    for (i, j), v in (res.left @ B).entries.items():
        if i >= rank:
            return None
        d = res.factors[i]
        if v % d:
            return None
        y[(i, j)] = v // d
    return res.right @ IntMatrix(res.right.rows, B.cols, y)


def solve(M: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """One exact solution X of M @ X = B over Z, or None when some column
    of B has no solution.

    B may have any number of columns: M is factored once and every column
    is back-substituted through that factorization, so the result equals
    the columnwise solutions side by side.  A zero B needs no
    factorization; its solution is zero."""
    if B.rows != M.rows:
        raise DimensionMismatch("solve expects right-hand sides of matching height")
    if B.is_zero():
        return IntMatrix(M.cols, B.cols)
    return _back_substitute(snf(M), B)


def lattice_contains(basis: IntMatrix, vectors: IntMatrix) -> bool:
    """True iff every column of ``vectors`` lies in the Z-span of ``basis``."""
    return solve(basis, vectors) is not None


def lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return lattice_contains(a, b) and lattice_contains(b, a)


class PresentedGroup:
    """A subquotient (lattice of cycles)/(lattice of boundaries) of Z^n.

    Carries canonical coordinates: first the torsion coordinates (moduli
    d_i >= 2 in chain order), then the free coordinates.  Used to present
    homology groups, express classes, and push classes through maps.  The
    cycle basis is factored once, by ``from_pair`` when it has boundaries to
    express in it and otherwise the first time coordinates are asked of it,
    and every coordinate request back-substitutes through it.  When both
    differentials are zero ``from_pair`` builds a plain group and factors
    nothing: every vector is a cycle and its own coordinates; ``cycles`` and
    ``rel`` are None.  Only a plain group may be over F_p (``p`` prime,
    coordinates mod p): a reduced F_p complex has d' = 0, so that is every
    F_p presentation ``chain`` builds.

    ``chain`` presents each homology group on a reduction C' of its
    complex, so there Z^n is C'_j, and reads classes of C in it by pushing
    them through the reduction's maps (``chain._HomologyArrow._push``).
    """

    # filled lazily, or by from_pair
    _reps: Optional[IntMatrix] = None
    _cycles_snf: Optional[SNFResult] = None
    _plain = False
    p = 0

    def __init__(self, cycles: IntMatrix, boundaries_in_cycle_coords: IntMatrix):
        self.cycles = cycles                      # n x z, saturated basis
        self.rel = boundaries_in_cycle_coords     # z x b
        self.dim = cycles.rows
        res, self._left_inverse = _factor(self.rel, True)
        self.rel_left = res.left
        z = cycles.cols
        rank = len(res.factors)
        self.torsion_moduli: List[int] = []
        self.torsion_rows: List[int] = []
        for i, d in enumerate(res.factors):
            if d >= 2:
                self.torsion_moduli.append(d)
                self.torsion_rows.append(i)
        self.free_rows = list(range(rank, z))
        self.group = AbelianGroup(len(self.free_rows), self.torsion_moduli)

    @classmethod
    def from_pair(cls, d_in: IntMatrix, d_out: IntMatrix, p: int = 0) -> "PresentedGroup":
        """ker(d_out) / im(d_in); over F_p (``p`` prime) only a plain group,
        with both differentials zero, else ``ExactLinError``."""
        if d_in.rows != d_out.cols:
            raise DimensionMismatch("boundaries do not fit the cycle lattice")
        if d_in.is_zero() and d_out.is_zero():
            pg = cls.__new__(cls)
            pg.p, pg.dim, pg._plain = p, d_out.cols, True
            pg.cycles = pg.rel = pg.rel_left = None
            pg.torsion_moduli, pg.torsion_rows = [], []
            pg.free_rows = list(range(pg.dim))
            pg.group = AbelianGroup(pg.dim)
            return pg
        if p:
            raise ExactLinError(
                f"F{p} presentations are plain: reduce the complex first")
        _, cycles = rank_and_kernel(d_out)
        # coordinates are later taken through the same factorization
        res = None if d_in.is_zero() else snf(cycles)
        rel = (IntMatrix(cycles.cols, d_in.cols) if res is None
               else _back_substitute(res, d_in))
        if rel is None:
            raise ExactLinError("boundary is not a cycle; composition nonzero?")
        pg = cls(cycles, rel)
        pg._cycles_snf = res
        return pg

    # -- coordinates -------------------------------------------------------

    def rank_coords(self) -> int:
        return len(self.torsion_rows) + len(self.free_rows)

    def coord_matrix(self, vectors: IntMatrix) -> Optional[IntMatrix]:
        """Canonical coordinates of the classes of the columns of
        ``vectors`` (of the presented Z^n), as columns, or None if some
        column is not a cycle."""
        if vectors.rows != self.dim:
            raise DimensionMismatch("vectors do not fit the cycle lattice")
        if self._plain:
            return vectors.mod(self.p)
        if vectors.is_zero():
            return IntMatrix(self.rank_coords(), vectors.cols)
        if self._cycles_snf is None:
            self._cycles_snf = snf(self.cycles)
        x = _back_substitute(self._cycles_snf, vectors)
        if x is None:
            return None
        y = self.rel_left @ x
        pos = {i: a for a, i in enumerate(self.torsion_rows + self.free_rows)}
        nt = len(self.torsion_rows)
        ent = {}
        for (i, j), v in y.entries.items():
            a = pos.get(i)
            if a is not None:
                ent[(a, j)] = v % self.torsion_moduli[a] if a < nt else v
        return IntMatrix(self.rank_coords(), vectors.cols, ent)

    def representatives(self) -> IntMatrix:
        """Cycles representing the canonical generators, as columns,
        through the inverse of ``rel_left`` kept by its factorization;
        computed once and shared."""
        if self._plain:
            return IntMatrix.identity(self.dim)
        if self._reps is None:
            rows = self.torsion_rows + self.free_rows
            e = IntMatrix(self.rel_left.rows, len(rows),
                          {(r, k): 1 for k, r in enumerate(rows)})
            self._reps = self.cycles @ (self._left_inverse @ e)
        return self._reps

    def coords_are_zero(self, coords: Sequence[int]) -> bool:
        nt = len(self.torsion_moduli)
        for c, d in zip(coords[:nt], self.torsion_moduli):
            if c % d:
                return False
        if self.p:
            return all(c % self.p == 0 for c in coords[nt:])
        return all(c == 0 for c in coords[nt:])

    def torsion_relation_columns(self) -> IntMatrix:
        """Columns m_t * e_t expressing the torsion relations in canonical
        coordinates (the free coordinates have no relations)."""
        a = self.rank_coords()
        ent = {}
        for t, d in enumerate(self.torsion_moduli):
            ent[(t, t)] = d
        return IntMatrix(a, len(self.torsion_moduli), ent)


def subgroups_equal(gens_a: IntMatrix, gens_b: IntMatrix,
                    relations: IntMatrix) -> bool:
    """Equality of subgroups of a presented group over Z, by double
    inclusion."""
    ga = IntMatrix.hstack([gens_a, relations])
    gb = IntMatrix.hstack([gens_b, relations])
    return lattice_contains(gb, gens_a) and lattice_contains(ga, gens_b)
