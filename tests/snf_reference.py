"""The Smith-normal-form kernel as it was before the sparse rewrite, kept as
the oracle that ``tests/test_exactlin.py`` compares ``exactlin.snf`` with,
and ``invert_unimodular`` on it, the oracle of the inverse that
``exactlin._factor`` keeps beside its left transform.

``_Worker``, ``_pick_pivot``, ``_snf_int``, ``_inv_mod`` and ``_snf_field``
are copied unchanged: the dense-walking version performs the row and column
operations in the order the pivot rule dictates, so its transforms are the
ones ``snf`` must still return entry for entry.  Nothing under ``src/``
imports this file.

The program factors over Z only (over F_p it reduces and takes ranks), so
the F_p factorizations the oracles need live here too, on
``reference_snf`` over any ring: ``reference_back_substitute``,
``reference_kernel``, ``reference_solve``, ``reference_lattice_contains``,
and ``FieldPresentation``, a homology group over F_p with coordinates.
"""

from typing import Dict, List, Optional, Tuple

from artifact.exactlin import (AbelianGroup, DimensionMismatch, ExactLinError,
                               IntMatrix, SNFResult)


class _Worker:
    """Mutable row-dict workspace tracking left/right transforms."""

    def __init__(self, M: IntMatrix):
        self.n = M.rows
        self.m = M.cols
        self.a: List[Dict[int, int]] = [dict() for _ in range(self.n)]
        for (i, j), v in M.entries.items():
            self.a[i][j] = v
        self.left: List[Dict[int, int]] = [{i: 1} for i in range(self.n)]
        self.right: List[Dict[int, int]] = [{j: 1} for j in range(self.m)]

    # row operations act on (a, left); column operations on (a, right).

    def row_swap(self, i1, i2):
        if i1 != i2:
            self.a[i1], self.a[i2] = self.a[i2], self.a[i1]
            self.left[i1], self.left[i2] = self.left[i2], self.left[i1]

    def row_addmul(self, dst, src, c):
        if not c:
            return
        for mat in (self.a, self.left):
            row, s = mat[dst], mat[src]
            for j, v in s.items():
                w = row.get(j, 0) + c * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)

    def row_negate(self, i):
        self.a[i] = {j: -v for j, v in self.a[i].items()}
        self.left[i] = {j: -v for j, v in self.left[i].items()}

    def col_swap(self, j1, j2):
        if j1 == j2:
            return
        for mat in (self.a, self.right):
            for row in mat:
                v1, v2 = row.pop(j1, None), row.pop(j2, None)
                if v2 is not None:
                    row[j1] = v2
                if v1 is not None:
                    row[j2] = v1

    def col_addmul(self, dst, src, c):
        # col_dst += c * col_src, i.e. right-multiply by an elementary matrix;
        # the same elementary matrix multiplies the accumulated right transform.
        if not c:
            return
        for mat in (self.a, self.right):
            for row in mat:
                v = row.get(src)
                if v:
                    w = row.get(dst, 0) + c * v
                    if w:
                        row[dst] = w
                    else:
                        row.pop(dst, None)

    def matrices(self) -> Tuple[IntMatrix, IntMatrix]:
        lent = {(i, j): v for i, row in enumerate(self.left) for j, v in row.items()}
        rent = {(i, j): v for i, row in enumerate(self.right) for j, v in row.items()}
        return (IntMatrix(self.n, self.n, lent), IntMatrix(self.m, self.m, rent))



def _pick_pivot(w: _Worker, t: int) -> Optional[Tuple[int, int]]:
    best = None
    best_abs = None
    for i in range(t, w.n):
        for j in sorted(w.a[i]):
            if j < t:
                continue
            a = abs(w.a[i][j])
            if best_abs is None or a < best_abs:
                best, best_abs = (i, j), a
    return best


def _snf_int(M: IntMatrix) -> SNFResult:
    w = _Worker(M)
    t = 0
    limit = min(w.n, w.m)
    while t < limit:
        pos = _pick_pivot(w, t)
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        while True:
            if w.a[t].get(t, 0) < 0:
                w.row_negate(t)
            piv = w.a[t][t]
            # knock the rest of column t down by floor division
            col_left = False
            for i in range(w.n):
                if i == t:
                    continue
                v = w.a[i].get(t)
                if v:
                    w.row_addmul(i, t, -(v // piv))
                    if w.a[i].get(t):
                        col_left = True
            if col_left:
                # a nonzero remainder < pivot exists; make it the new pivot
                for i in range(w.n):
                    if i != t and w.a[i].get(t):
                        w.row_swap(t, i)
                        break
                continue
            row_left = False
            for j in list(w.a[t]):
                if j == t:
                    continue
                v = w.a[t][j]
                w.col_addmul(j, t, -(v // piv))
                if w.a[t].get(j):
                    row_left = True
            if row_left:
                for j in sorted(w.a[t]):
                    if j != t:
                        w.col_swap(t, j)
                        break
                continue
            # row and column are clear; enforce divisibility of the rest
            bad = None
            for i in range(t + 1, w.n):
                for j in sorted(w.a[i]):
                    if w.a[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            w.row_addmul(t, bad, 1)
        t += 1
    factors = []
    for i in range(limit):
        v = w.a[i].get(i, 0)
        if v:
            factors.append(v)
    left, right = w.matrices()
    return SNFResult(factors, left, right)


def _inv_mod(v: int, p: int) -> int:
    return pow(v % p, p - 2, p)


def _snf_field(M: IntMatrix, p: int) -> SNFResult:
    w = _Worker(M)
    for row in w.a:
        for j in list(row):
            row[j] %= p
            if not row[j]:
                del row[j]
    t = 0
    limit = min(w.n, w.m)
    while t < limit:
        pos = None
        for i in range(t, w.n):
            for j in sorted(w.a[i]):
                if j >= t:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        inv = _inv_mod(w.a[t][t], p)
        # scale row t so the pivot is 1 (invertible over F_p)
        w.a[t] = {j: (v * inv) % p for j, v in w.a[t].items()}
        w.left[t] = {j: (v * inv) % p for j, v in w.left[t].items()}
        for i in range(w.n):
            if i != t and w.a[i].get(t):
                w.row_addmul(i, t, -w.a[i][t])
        for j in list(w.a[t]):
            if j != t:
                w.col_addmul(j, t, -w.a[t][j])
        for mat in (w.a, w.left):
            for row in mat:
                for j in list(row):
                    row[j] %= p
                    if not row[j]:
                        del row[j]
        for row in w.right:
            for j in list(row):
                row[j] %= p
                if not row[j]:
                    del row[j]
        t += 1
    factors = [1] * sum(1 for i in range(limit) if w.a[i].get(i))
    left, right = w.matrices()
    return SNFResult(factors, left.mod(p), right.mod(p))



def reference_snf(M: IntMatrix, p: int = 0) -> SNFResult:
    return _snf_int(M) if p == 0 else _snf_field(M, p)


def invert_unimodular(L: IntMatrix, p: int = 0) -> IntMatrix:
    """Exact inverse of an invertible (unimodular over Z) square matrix."""
    if L.rows != L.cols:
        raise DimensionMismatch("not square")
    res = reference_snf(L, p)
    if len(res.factors) != L.rows or (p == 0 and any(d != 1 for d in res.factors)):
        raise ExactLinError("matrix is not invertible over the ring")
    inv = res.right @ res.left
    return inv.mod(p) if p else inv


def reference_back_substitute(res: SNFResult, B: IntMatrix,
                              p: int = 0) -> Optional[IntMatrix]:
    """Solve M @ X = B through a factorization ``res`` of M over Z
    (``p`` 0) or F_p, or None if some column of B has no solution."""
    rank = len(res.factors)
    y = {}
    for (i, j), v in (res.left @ B).mod(p).entries.items():
        if i >= rank or v % res.factors[i]:
            return None
        y[(i, j)] = v // res.factors[i]
    return (res.right @ IntMatrix(res.right.rows, B.cols, y)).mod(p)


def reference_kernel(M: IntMatrix, p: int = 0) -> Tuple[int, IntMatrix]:
    """Rank and a kernel basis (saturated over Z), as columns."""
    res = reference_snf(M, p)
    rank = len(res.factors)
    return rank, IntMatrix(M.cols, M.cols - rank, {
        (i, j - rank): v for (i, j), v in res.right.entries.items()
        if j >= rank})


def reference_solve(M: IntMatrix, B: IntMatrix,
                    p: int = 0) -> Optional[IntMatrix]:
    return reference_back_substitute(reference_snf(M, p), B, p)


def reference_lattice_contains(basis: IntMatrix, vectors: IntMatrix,
                               p: int = 0) -> bool:
    """True iff every column of ``vectors`` lies in the span of ``basis``."""
    return reference_solve(basis, vectors, p) is not None


class FieldPresentation:
    """ker(d_out) / im(d_in) over F_p, unreduced, with the coordinates of a
    ``PresentedGroup``: a basis of the cycles, the boundaries in it, and
    the free rows of the left transform of their factorization."""

    def __init__(self, d_in: IntMatrix, d_out: IntMatrix, p: int):
        _, self.cycles = reference_kernel(d_out, p)
        res = reference_snf(reference_solve(self.cycles, d_in, p), p)
        self.p, self.dim, self.left = p, d_out.cols, res.left
        self.free_rows = list(range(len(res.factors), self.cycles.cols))
        self.group = AbelianGroup(len(self.free_rows))

    def rank_coords(self) -> int:
        return len(self.free_rows)

    def coord_matrix(self, vectors: IntMatrix) -> Optional[IntMatrix]:
        x = reference_solve(self.cycles, vectors, self.p)
        if x is None:
            return None
        y = (self.left @ x).mod(self.p)
        pos = {r: a for a, r in enumerate(self.free_rows)}
        return IntMatrix(self.rank_coords(), vectors.cols, {
            (pos[i], j): v for (i, j), v in y.entries.items() if i in pos})

    def representatives(self) -> IntMatrix:
        e = IntMatrix(self.left.rows, self.rank_coords(),
                      {(r, k): 1 for k, r in enumerate(self.free_rows)})
        inv = invert_unimodular(self.left, self.p)
        return (self.cycles @ inv @ e).mod(self.p)

    def coords_are_zero(self, coords) -> bool:
        return all(c % self.p == 0 for c in coords)
