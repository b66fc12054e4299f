"""Exact linear algebra over Z, with ranks over prime fields.

Everything here is exact: arbitrary-precision integers.  Matrices are
stored sparsely as ``(row, col) -> nonzero value``.

The workhorse is Smith normal form over Z with unimodular transforms, from
which saturated kernels and exact linear solves follow.  Its pivot rule fixes the transforms:
the entry of least absolute value, first in row-major order.  The
reduction keeps the right transform by columns, so each row or column
operation costs only the entries it changes.  A matrix already in the
form the reduction would leave untouched (only leading diagonal entries,
forming a positive divisibility chain; empty and zero matrices among them)
is returned with identity transforms without a workspace.

No homology presentation is factored.  ``chain`` reduces a complex until
its differential is a sum of pieces v: b -> a (over F_p until it
vanishes), and the pass that ends the reduction reads a
``PresentedGroup``'s group and coordinates off those pieces for every
degree (``from_pieces``; ``from_pair`` takes two matrices); every F_p
verdict is a rank, from ``field_rank``.  The Smith
form serves the maps between presentations over Z: ``chain`` factors each
class matrix beside the target's torsion once and reads both injectivity
and exactness off that one factorization.

Factor once, solve many: a matrix is factored once per use and every
right-hand side is back-substituted through that one factorization.
``solve`` takes a whole block of right-hand-side columns, and the lattice
helpers make one ``solve`` call per inclusion.  A product with
``IntMatrix.identity`` is the other factor.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class ExactLinError(Exception):
    pass


class DimensionMismatch(ExactLinError):
    pass


class CompositionNonzero(ExactLinError):
    pass


class _Sealed:
    """A value that is read-only once built: assignment and deletion of any
    attribute raise ``AttributeError``.

    This is the package's one convention for values.  Results are records,
    ``typing.NamedTuple`` classes, read-only and compared by their fields;
    a record that validates its values puts ``chain._Checked`` before its
    NamedTuple base.  A value that keeps memos or private state is instead
    a slotted ``_Sealed`` class: here ``IntMatrix``, ``AbelianGroup`` and
    ``PresentedGroup``, in ``chain`` the modules, maps, complexes, homology
    tables and p-morphisms, ``connsum.FilteredComplex`` and
    ``flavors.FlavorBundle``.  Its constructor fills its slots: the classes
    built in bulk each their own way, through ``object.__setattr__`` or the
    slot descriptors, the others by ``_Sealed.__init__``, one value per slot
    in slot order.  After that only ``_memo`` writes, and only to a memo
    slot, which it fills whole: no memo is a container written in place
    (a complex's homology presentations are made with its reduction and
    kept in it).  A memo holds what the fixed fields determine, so it
    never goes stale, and it lives and dies with its object.  Equality is
    by value where the class defines it, else by identity."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def _memo(self, name: str, value):
        """Fill the memo slot ``name`` with ``value``, and return it."""
        object.__setattr__(self, name, value)
        return value


class IntMatrix(_Sealed):
    """Immutable sparse integer matrix.  Constructors fed from outside check
    every entry against the shape; closed operations, the SNF transforms and
    kernels build their nonzero in-range results unchecked, by ``_trusted``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Optional[Dict[Tuple[int, int], int]] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        clean: Dict[Tuple[int, int], int] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(
                        f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    clean[(i, j)] = v
        _set_rows(self, rows), _set_cols(self, cols), _set_entries(self, clean)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "IntMatrix":
        """A matrix owning ``entries``, already nonzero and in range."""
        m = cls.__new__(cls)
        _set_rows(m, rows), _set_cols(m, cols), _set_entries(m, entries)
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return _Identity._trusted(n, n, {(i, i): 1 for i in range(n)})

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


class _Identity(IntMatrix):
    """An identity, as only ``IntMatrix.identity`` builds one: a product
    with it is the other factor; a wrong shape raises in the general one."""

    __slots__ = ()

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            return IntMatrix.__matmul__(self, other)
        return other

    def __rmatmul__(self, other: IntMatrix) -> IntMatrix:
        if other.cols != self.rows:
            return IntMatrix.__matmul__(other, self)
        return other


class AbelianGroup(_Sealed):
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
    visit rows t and up only.
    """

    def __init__(self, M: IntMatrix):
        self.n, self.m = M.rows, M.cols
        self.a: List[Dict[int, int]] = [dict() for _ in range(self.n)]
        for (i, j), v in M.entries.items():
            self.a[i][j] = v
        self.left: List[Dict[int, int]] = [{i: 1} for i in range(self.n)]
        self.right: List[Dict[int, int]] = [{j: 1} for j in range(self.m)]

    # row operations act on (a, left); column operations on (a, right).

    def row_swap(self, i1, i2):
        for mat in (self.a, self.left):
            mat[i1], mat[i2] = mat[i2], mat[i1]

    def row_addmul(self, dst, src, c):
        _axpy(self.a[dst], self.a[src], c, 0)
        _axpy(self.left[dst], self.left[src], c, 0)

    def row_negate(self, i):
        for mat in (self.a, self.left):
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
        return _by_rows(self.left), _by_rows(self.right, True)


def _by_rows(rows: List[Dict[int, int]], transpose: bool = False
             ) -> IntMatrix:
    """The square matrix with these rows (columns, with ``transpose``)."""
    return IntMatrix._trusted(len(rows), len(rows), {
        (j, i) if transpose else (i, j): v
        for i, row in enumerate(rows) for j, v in row.items()})


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
    transforms (``IntMatrix.identity``) without running the reduction; that
    is the answer the reduction itself gives.  No presentation calls for a
    factorization, nor does anything over F_p: ranks come from
    ``field_rank``.  Every Smith form is made here.
    """
    factors = _already_reduced(M)
    if factors is not None:
        return SNFResult(factors, IntMatrix.identity(M.rows),
                         IntMatrix.identity(M.cols))
    return _snf_int(_Worker(M))


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


def _pieces(entries: Dict[Tuple[int, int], int]) -> Tuple[Dict[int, int], set]:
    """({row: entry}, columns) of matrix entries with at most one in every
    row and every column, else ``ExactLinError``."""
    rows = {i: v for (i, _), v in entries.items()}
    cols = {j for _, j in entries}
    if len(rows) < len(entries) or len(cols) < len(entries):
        raise ExactLinError("pair is not elementary: reduce the complex first")
    return rows, cols


def _invariant_factors(moduli: Sequence[int]) -> List[int]:
    """The invariant factors of the sum of Z/m over ``moduli`` (each
    m >= 1): m enters the chain f_1 | f_2 | ... by replacing each f_i in
    turn with gcd(f_i, m) and carrying lcm(f_i, m) on, which keeps it a
    divisibility chain; the factors 1 are dropped."""
    chain: List[int] = []
    for m in moduli:
        for i, f in enumerate(chain):
            g = gcd(f, m)
            chain[i], m = g, f // g * m
        chain.append(m)
    return [f for f in chain if f >= 2]


class PresentedGroup(_Sealed):
    """ker(d_out) / im(d_in) of Z^n for an elementary pair, built by
    ``from_pieces``.

    A pair is elementary when each of d_in and d_out has at most one entry
    in every row and every column, and no generator that d_in hits is moved
    by d_out: a sum of pieces v: b -> a, the form in which ``chain`` leaves
    a reduced complex C' over Z (and d' = 0, the plain group, over F_p).
    The group is read off the pieces with no factorization.  A generator
    hit by d_in with |v| >= 2 is a torsion coordinate mod |v|, one hit by a
    unit is a boundary, one moved by d_out is not a cycle, and every other
    one is a free coordinate.  Canonical coordinates are the torsion ones,
    then the free ones, each in generator order (``torsion_rows +
    free_rows``; ``_sources`` holds the moved generators); the moduli need
    not form a divisibility chain, and the invariant factors of ``group``
    come from them by gcd and lcm.  Over F_p (``p`` prime,
    coordinates mod p) only a plain group, with both differentials zero, is
    presented, and its coordinates are the generators themselves.

    ``chain`` indexes the pieces of each reduction C' by degree in the pass
    that ends it, and there presents H_j(C') on C'_j at every degree where
    C' is not empty; it reads a class of C in these coordinates by pushing
    the canonical generators of the source through the reduction's maps
    (``chain._HomologyArrow._push``).
    """

    __slots__ = ("dim", "p", "group", "torsion_rows",
                 "torsion_moduli", "free_rows", "_sources")

    @classmethod
    def from_pieces(cls, dim: int, d_in: Dict[Tuple[int, int], int],
                    d_out: Dict[Tuple[int, int], int], p: int = 0
                    ) -> "PresentedGroup":
        """ker(d_out) / im(d_in) of Z^dim, from the entries (row, column)
        -> v of an elementary pair: d_in's rows and d_out's columns are the
        generators of Z^dim.  ``ExactLinError`` for a pair that is not
        elementary, for a ``d_in`` outside ker(d_out), and over F_p (``p``
        prime) for a nonzero differential."""
        if not d_in and not d_out:
            rows, moduli, free, sources = [], [], list(range(dim)), ()
            group = AbelianGroup(dim)
        else:
            if p:
                raise ExactLinError(
                    f"F{p} presentations are plain: reduce the complex first")
            hit, _ = _pieces(d_in)
            _, sources = _pieces(d_out)
            if not sources.isdisjoint(hit):
                raise ExactLinError(
                    "boundary is not a cycle; composition nonzero?")
            rows = sorted(i for i, v in hit.items() if abs(v) >= 2)
            moduli = [abs(hit[i]) for i in rows]
            free = [i for i in range(dim) if i not in hit and i not in sources]
            group = AbelianGroup(len(free), _invariant_factors(moduli))
        pg = cls.__new__(cls)
        _set_dim(pg, dim), _set_p(pg, p)
        _set_group(pg, group), _set_torsion_rows(pg, rows)
        _set_moduli(pg, moduli), _set_free(pg, free), _set_sources(pg, sources)
        return pg

    @classmethod
    def from_pair(cls, d_in: IntMatrix, d_out: IntMatrix, p: int = 0) -> "PresentedGroup":
        """``from_pieces`` of two matrices, d_in of Z^n's height and d_out
        of its width."""
        if d_in.rows != d_out.cols:
            raise DimensionMismatch("boundaries do not fit the cycle lattice")
        return cls.from_pieces(d_out.cols, d_in.entries, d_out.entries, p)

    # -- coordinates -------------------------------------------------------

    def rank_coords(self) -> int:
        return len(self.torsion_rows) + len(self.free_rows)

    def columns_are_zero(self, M: IntMatrix) -> bool:
        """Whether every column of M, in canonical coordinates, is the zero
        class: each torsion coordinate vanishes mod its modulus, each free
        one exactly (mod p over F_p)."""
        if M.rows != self.rank_coords():
            raise DimensionMismatch("columns do not fit the coordinates")
        moduli, p = self.torsion_moduli, self.p
        nt = len(moduli)
        return not any(v % moduli[i] if i < nt else v % p if p else v
                       for (i, _), v in M.entries.items())

    def torsion_relation_columns(self) -> IntMatrix:
        """Columns m_t * e_t expressing the torsion relations in canonical
        coordinates (the free coordinates have no relations)."""
        a = self.rank_coords()
        ent = {}
        for t, d in enumerate(self.torsion_moduli):
            ent[(t, t)] = d
        return IntMatrix(a, len(self.torsion_moduli), ent)


(_set_dim, _set_p, _set_group, _set_torsion_rows, _set_moduli, _set_free,
 _set_sources) = (getattr(PresentedGroup, name).__set__
                  for name in PresentedGroup.__slots__)


def subgroups_equal(gens_a: IntMatrix, gens_b: IntMatrix,
                    relations: IntMatrix) -> bool:
    """Equality of subgroups of a presented group over Z, by double
    inclusion."""
    ga = IntMatrix.hstack([gens_a, relations])
    gb = IntMatrix.hstack([gens_b, relations])
    return lattice_contains(gb, gens_a) and lattice_contains(ga, gens_b)
