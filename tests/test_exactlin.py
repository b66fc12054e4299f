"""Integer linear algebra: normal forms, presentations, homology of pairs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.exactlin import (
    AbelianGroup,
    CompositionNonzero,
    DimensionMismatch,
    ExactLinError,
    IntMatrix,
    PresentedGroup,
    field_rank,
    lattices_equal,
    rank_and_kernel,
    snf,
    solve,
    subgroups_equal,
    _factor,
    _inv_mod,
    _kernel_head,
)

from helpers import (det, from_rows, homology_of_pair, random_matrix,
                     submatrix_cols, to_dense)
from snf_reference import (invert_unimodular, reference_snf,
                           reference_solve)


def diag(*vals):
    return IntMatrix.diagonal(list(vals))


class TestSmithNormalForm:
    def test_two_by_two(self):
        res = snf(from_rows([[2, 4], [6, 8]]))
        assert res.factors == (2, 4)

    def test_identity(self):
        res = snf(IntMatrix.identity(3))
        assert res.factors == (1, 1, 1)

    def test_zero(self):
        res = snf(IntMatrix.zero(2, 3))
        assert res.factors == ()

    def test_empty(self):
        res = snf(IntMatrix.zero(0, 0))
        assert res.factors == ()
        assert res.left == IntMatrix.identity(0)

    def test_transforms_reconstruct(self):
        M = from_rows([[2, 4], [6, 8]])
        res = snf(M)
        D = res.left @ M @ res.right
        assert D == IntMatrix.diagonal([2, 4])

    def test_divisibility_chain(self):
        M = from_rows([[2, 0], [0, 3]])
        res = snf(M)
        assert res.factors == (1, 6)

    def test_product_equals_det(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n)
            res = snf(M)
            prod = 1
            for f in res.factors:
                prod *= f
            if len(res.factors) < n:
                prod = 0
            assert prod == abs(det(M))

    def test_transforms_unimodular(self):
        rng = random.Random(11)
        for _ in range(30):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            res = snf(M)
            assert abs(det(res.left)) == 1
            assert abs(det(res.right)) == 1

    def test_factors_match_sympy(self):
        # an independent oracle: sympy's Smith normal form over ZZ
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(13)
        for _ in range(300):
            M = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            want = invariant_factors(sympy.Matrix(to_dense(M)),
                                     domain=sympy.ZZ)
            assert snf(M).factors == tuple(abs(int(f)) for f in want if f)

    def test_field_rank_matches_sympy(self):
        # an independent oracle for F_p: sympy's rank over GF(p), for the
        # reference SNF factor count and for the transform-free
        # ``field_rank``
        pytest.importorskip("sympy")
        from sympy import GF, ZZ
        from sympy.polys.matrices import DomainMatrix
        rng = random.Random(29)
        for p in (2, 3, 5):
            for _ in range(100):
                M = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
                dm = DomainMatrix([[ZZ(v) for v in row] for row in to_dense(M)],
                                  (M.rows, M.cols), ZZ)
                want = dm.convert_to(GF(p)).rank()
                assert len(reference_snf(M, p).factors) == want
                assert field_rank(M, p) == want

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, rows):
        M = from_rows(rows)
        res = snf(M)
        D = res.left @ M @ res.right
        for i in range(D.rows):
            for j in range(D.cols):
                v = D.entries.get((i, j), 0)
                if i == j and i < len(res.factors):
                    assert v == res.factors[i] > 0
                else:
                    assert v == 0
        for i in range(1, len(res.factors)):
            assert res.factors[i] % res.factors[i - 1] == 0

    @given(st.integers(0, 4).flatmap(lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c,
                                    max_size=c), min_size=r, max_size=r)
        .map(lambda rows: from_rows(rows, cols=c)))),
        st.sampled_from((0, 2, 3, 5)))
    @settings(max_examples=120, deadline=None)
    def test_transform_property_all_rings(self, M, p):
        # left @ M @ right = diag(factors), both transforms invertible over
        # the ring, and the factors a divisibility chain (all 1 over F_p):
        # ``snf`` over Z, and over F_p the reference that the F_p oracles
        # factor with
        res = snf(M) if p == 0 else reference_snf(M, p)
        D = res.left @ M @ res.right
        if p:
            D = D.mod(p)
        assert D == IntMatrix.diagonal(list(res.factors), M.rows, M.cols)
        invert_unimodular(res.left, p)
        invert_unimodular(res.right, p)
        assert all(f > 0 for f in res.factors)
        if p:
            assert set(res.factors) <= {1}
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0

    def test_field_coefficients(self):
        # the reference factorization over F_p; ``snf`` is over Z only
        M = from_rows([[2, 4], [6, 8]])
        res = reference_snf(M, p=2)
        # over F_2 the matrix is zero
        assert res.factors == ()
        res5 = reference_snf(M, p=5)
        assert res5.factors == (1, 1)
        assert snf(M).factors == (2, 4)


def _smith_chain(rng, k):
    chain, d = [], 1
    for _ in range(k):
        d *= rng.choice((1, 1, 2, 3, 5))
        chain.append(d)
    return chain


def _seed_kernel_cases():
    """Seeded matrices up to 12x12 for the comparison with the seed kernel:
    empty and zero matrices, matrices already in Smith form (over Z, or
    over every F_p at once with diagonals stored unreduced), near misses
    that must run the reduction, signed permutations, and dense matrices
    with large entries."""
    rng = random.Random(5)

    def shape():
        return rng.randint(1, 12), rng.randint(1, 12)

    cases = [IntMatrix(0, k) for k in range(13)]
    cases += [IntMatrix(k, 0) for k in range(1, 13)]
    cases += [IntMatrix(*shape()) for _ in range(25)]
    cases += [diag(1, 2, 6), diag(4), diag(31, 31), diag(2, 1), diag(2, 3),
              diag(1, -2), diag(-1), diag(3, 0, 1),
              from_rows([[1, 1], [0, 1]]),
              from_rows([[0, 1], [1, 0]]),
              from_rows([[0, 0], [0, 1]])]
    for _ in range(75):
        r, c = shape()
        k = rng.randint(1, min(r, c))
        chain = _smith_chain(rng, k)
        # already reduced over Z, and over every F_p (1 mod 30)
        cases.append(IntMatrix.diagonal(chain, r, c))
        cases.append(IntMatrix.diagonal(
            [1 + 30 * rng.randint(0, 4) for _ in range(k)], r, c))
        # near misses: out of order, a negative entry, a stray unit, a
        # gap on the diagonal, a diagonal of 2 (not 1 over F_3)
        miss = [dict(IntMatrix.diagonal(chain, r, c).entries)
                for _ in range(5)]
        if k > 1:
            i = rng.randrange(k - 1)
            miss[0][(i, i)], miss[0][(i + 1, i + 1)] = (chain[i + 1] * 2,
                                                        chain[i])
        miss[1][(k - 1, k - 1)] = -chain[k - 1]
        i, j = rng.randrange(r), rng.randrange(c)
        if i != j:
            miss[2][(i, j)] = rng.choice((1, -1))
        if k < min(r, c):
            del miss[3][(0, 0)]
            miss[3][(k, k)] = chain[0]
        miss[4] = {(t, t): 2 for t in range(k)}
        cases += [IntMatrix(r, c, m) for m in miss]
    for _ in range(75):
        r, c = shape()
        rows = rng.sample(range(r), min(r, c))
        cols = rng.sample(range(c), min(r, c))
        scale = rng.choice((1, 1, 2, 6))
        cases.append(IntMatrix(r, c, {
            (i, j): rng.choice((1, -1)) * scale for i, j in zip(rows, cols)}))
    for _ in range(40):
        r, c = shape()
        cases.append(random_matrix(rng, r, c, lo=-10 ** 6, hi=10 ** 6,
                                   density=0.9))
    for _ in range(60):
        cases.append(random_matrix(rng, *shape()))
    return cases


class TestKernelMatchesSeed:
    """``snf`` returns the seed kernel's factors and transforms over Z,
    entry for entry (``tests/snf_reference.py`` holds that kernel)."""

    def test_seeded_matrices(self):
        cases = _seed_kernel_cases()
        assert len(cases) >= 500
        for M in cases:
            got, want = snf(M), reference_snf(M)
            assert got.factors == want.factors, M.entries
            assert got.left == want.left, M.entries
            assert got.right == want.right, M.entries

    @given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, 3, 4,
                                                     -6, 30)),
                                    min_size=c, max_size=c),
                           min_size=r, max_size=r)
        .map(lambda rows: from_rows(rows, cols=c)))))
    @settings(max_examples=150, deadline=None)
    def test_matches_seed_kernel_property(self, M):
        assert snf(M) == reference_snf(M)

    @given(st.lists(st.integers(-7, 31).filter(bool), max_size=5),
           st.integers(0, 2), st.integers(0, 2),
           st.one_of(st.none(), st.tuples(st.integers(0, 6),
                                          st.integers(0, 6),
                                          st.sampled_from((1, -1, 2)))))
    @settings(max_examples=150, deadline=None)
    def test_diagonal_forms_property(self, diag_values, extra_rows,
                                     extra_cols, stray):
        # diagonals (in Smith form or not) with at most one stray entry:
        # the inputs on either side of the already-reduced shortcut
        r = len(diag_values) + extra_rows
        c = len(diag_values) + extra_cols
        ent = {(t, t): v for t, v in enumerate(diag_values)}
        if stray is not None and stray[0] < r and stray[1] < c:
            ent[stray[:2]] = stray[2]
        M = IntMatrix(r, c, ent)
        assert snf(M) == reference_snf(M)


def _matrix(rows, cols, values):
    return IntMatrix(rows, cols, {(k // cols, k % cols): v
                                  for k, v in enumerate(values[:rows * cols])})


class TestTrustedConstruction:
    """Closed operations build their results unchecked; each result is the
    matrix the checked constructor makes of its entries, with no zero
    stored.  Constructors fed from outside keep every check."""

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.lists(st.integers(-6, 6), min_size=48, max_size=48),
           st.integers(-3, 3), st.sampled_from((0, 2, 3, 5)))
    @settings(max_examples=120, deadline=None)
    def test_closed_results_match_checked_construction(self, r, k, c,
                                                       values, s, p):
        A, A2 = _matrix(r, k, values), _matrix(r, k, values[16:])
        B = _matrix(k, c, values[32:])
        res = snf(A)
        results = [A @ B, A + A2, A - A2, -A, A.scale(s), A.mod(p),
                   IntMatrix.hstack([A, A2, _matrix(r, c, values[8:])]),
                   IntMatrix.identity(k), res.left, res.right,
                   _kernel_head(res, k), _kernel_head(res, k // 2)]
        for M in results:
            assert M == IntMatrix(M.rows, M.cols, M.entries)
            assert all(M.entries.values())

    def test_outside_constructors_still_check(self):
        for make in (lambda: IntMatrix(2, 2, {(2, 0): 1}),
                     lambda: IntMatrix(2, 2, {(0, -1): 1}),
                     lambda: IntMatrix(-1, 2),
                     lambda: from_rows([[1, 2], [3]]),
                     lambda: from_rows([[1, 2]], cols=3),
                     lambda: IntMatrix.diagonal([1, 2, 3], rows=2),
                     lambda: IntMatrix.diagonal([1, 2], cols=1)):
            with pytest.raises(DimensionMismatch):
                make()
        assert IntMatrix.column([0, 3, 0]) == IntMatrix(3, 1, {(1, 0): 3})
        assert IntMatrix(1, 2, {(0, 0): 0, (0, 1): 4}).entries == {(0, 1): 4}


class TestFieldRank:
    """``field_rank`` against the reference SNF factor count over F_p
    (sympy's GF(p) rank is the oracle of ``test_field_rank_matches_sympy``)."""

    def test_seeded_matrices(self):
        rng = random.Random(71)
        for p in (2, 3, 5):
            for _ in range(150):
                rows, cols = rng.randint(1, 8), rng.randint(1, 8)
                # entries far outside 0..p-1, negative ones included
                M = random_matrix(rng, rows, cols, lo=-40, hi=40,
                                  density=rng.choice((0.2, 0.5, 0.9)))
                assert field_rank(M, p) == len(reference_snf(M, p).factors)

    def test_edge_shapes(self):
        for p in (2, 3, 5):
            for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
                assert field_rank(IntMatrix(rows, cols), p) == 0
            # every entry a multiple of p: zero over F_p, not over Z
            M = from_rows([[p, -2 * p, 0], [0, 7 * p, p]])
            assert field_rank(M, p) == 0 < len(snf(M).factors)
            assert field_rank(from_rows([[1, 2, 3, 4]]), p) == 1
            assert field_rank(from_rows([[1], [2], [3]]), p) == 1
            assert field_rank(IntMatrix.identity(4).scale(p + 1), p) == 4
            assert field_rank(from_rows([[1, 1], [1, 1 + p]]),
                              p) == 1

    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from((2, 3, 5)),
           st.lists(st.integers(-30, 30), min_size=36, max_size=36))
    @settings(max_examples=150, deadline=None)
    def test_property(self, rows, cols, p, vals):
        M = IntMatrix(rows, cols, {(i, j): vals[i * 6 + j]
                                   for i in range(rows) for j in range(cols)})
        assert field_rank(M, p) == len(reference_snf(M, p).factors)


class TestInvMod:
    def test_zero_residue_raises(self):
        # pow(0, 0, 2) == 1 once made 0 look invertible mod 2
        for p in (2, 3, 5):
            for v in (0, p, -2 * p):
                with pytest.raises(ExactLinError):
                    _inv_mod(v, p)

    def test_inverses(self):
        for p in (2, 3, 5, 7):
            for v in range(-2 * p, 2 * p):
                if v % p:
                    assert v * _inv_mod(v, p) % p == 1


class TestKernelsAndSolve:
    def test_rank_and_kernel(self):
        M = from_rows([[1, 1]])
        rank, ker = rank_and_kernel(M)
        assert rank == 1
        want = from_rows([[1], [-1]])
        assert lattices_equal(ker, want)

    def test_kernel_saturated(self):
        M = from_rows([[2, 2]])
        _, ker = rank_and_kernel(M)
        # (1, -1) itself must lie in the kernel lattice, not only (2, -2)
        assert solve(ker, IntMatrix.column([1, -1])) is not None

    def test_solve_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x = IntMatrix.column([rng.randint(-4, 4) for _ in range(M.cols)])
            b = M @ x
            y = solve(M, b)
            assert y is not None
            assert M @ y == b

    def test_solve_unsolvable(self):
        M = from_rows([[2]])
        assert solve(M, IntMatrix.column([3])) is None

    def test_solve_mod_p(self):
        # the reference solve the F_p oracles use; ``solve`` is over Z only
        M = from_rows([[2]])
        y = reference_solve(M, IntMatrix.column([3]), p=5)
        assert y is not None
        assert ((M @ y) - IntMatrix.column([3])).mod(5).is_zero()

    def test_multi_column_solve_is_columnwise(self):
        # one factorization for all columns gives the columnwise solutions
        # side by side, and None as soon as one column has no solution
        rng = random.Random(41)
        for _ in range(60):
            M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            k = rng.randint(0, 4)
            X = random_matrix(rng, M.cols, k)
            B = M @ X
            if k and rng.random() < 0.5:
                # a random column is usually not in the image
                c = rng.randrange(k)
                bad = random_matrix(rng, M.rows, 1)
                B = IntMatrix.hstack([submatrix_cols(B, range(c)), bad,
                                      submatrix_cols(B, range(c + 1, k))])
            cols = [solve(M, submatrix_cols(B, [j])) for j in range(k)]
            got = solve(M, B)
            if any(c is None for c in cols):
                assert got is None
                continue
            assert got is not None
            assert got == (IntMatrix.hstack(cols) if cols
                           else IntMatrix(M.cols, 0))
            assert (M @ got - B).is_zero()

    def test_multi_column_solve_unsolvable_column(self):
        M = from_rows([[2, 0], [0, 1]])
        B = from_rows([[2, 3], [5, 1]])
        assert solve(M, submatrix_cols(B, [0])) is not None
        assert solve(M, B) is None

    def test_zero_column_solve(self):
        M = from_rows([[2, 4], [6, 8], [1, 0]])
        assert solve(M, IntMatrix(3, 0)) == IntMatrix(2, 0)
        with pytest.raises(DimensionMismatch):
            solve(M, IntMatrix(2, 0))

    def test_invert_unimodular(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            res = snf(random_matrix(rng, n, n + 1))
            G = res.left
            Ginv = invert_unimodular(G)
            assert G @ Ginv == IntMatrix.identity(n)
            assert Ginv @ G == IntMatrix.identity(n)


class TestLeftInverseKeptByTheReduction:
    """The factorization a ``PresentedGroup`` makes of its relations keeps
    the inverse of the left transform beside it, by the inverse of each row
    operation; ``invert_unimodular``, a second factorization, is its
    oracle.  The factorization itself is ``snf``'s."""

    def test_inverse_equals_invert_unimodular(self):
        rng = random.Random(15)
        cases = _seed_kernel_cases()[::2]
        cases += [random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7),
                                lo=-30, hi=30) for _ in range(160)]
        eliminated = 0
        for M in cases:
            res, inv = _factor(M, True)
            assert res == snf(M) and _factor(M)[1] is None
            assert inv == invert_unimodular(res.left), M.entries
            eliminated += res.left != IntMatrix.identity(M.rows)
        assert eliminated > 200

    def test_representatives_through_the_kept_inverse(self):
        rng = random.Random(16)
        for _ in range(60):
            C = random_matrix(rng, 5, 3)
            d_in = C @ random_matrix(rng, 3, 4)
            d_out = random_matrix(rng, 2, 5)
            if not (d_out @ d_in).is_zero():
                d_out = IntMatrix(0, 5)
            pg = PresentedGroup.from_pair(d_in, d_out)
            if pg.cycles is None:
                continue
            rows = pg.torsion_rows + pg.free_rows
            e = IntMatrix(pg.rel_left.rows, len(rows),
                          {(r, k): 1 for k, r in enumerate(rows)})
            want = pg.cycles @ (invert_unimodular(pg.rel_left) @ e)
            assert pg.representatives() == want


class TestAbelianGroup:
    def test_torsion_validated(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))

    def test_str(self):
        assert str(AbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(0, ())) == "0"


class TestHomologyOfPair:
    def test_torsion(self):
        # ambient rank 2, boundaries the image of diag(2,3), no outgoing map
        h = homology_of_pair(diag(2, 3), IntMatrix.zero(0, 2))
        assert h == AbelianGroup(0, (6,))

    def test_free(self):
        h = homology_of_pair(IntMatrix.zero(2, 0), IntMatrix.zero(0, 2))
        assert h == AbelianGroup(2, ())

    def test_cycle_restriction(self):
        # d_out = [1 1] kills one rank; nothing incoming
        h = homology_of_pair(IntMatrix.zero(2, 0),
                             from_rows([[1, 1]]))
        assert h == AbelianGroup(1, ())

    def test_composition_checked(self):
        with pytest.raises(CompositionNonzero):
            homology_of_pair(from_rows([[1], [0]]),
                             from_rows([[1, 0]]))

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            homology_of_pair(IntMatrix.zero(2, 1), IntMatrix.zero(1, 3))

    def test_mod_p(self):
        h = homology_of_pair(diag(2, 3), IntMatrix.zero(0, 2), p=2)
        # multiplication by 2 dies mod 2: one surviving line
        assert h == AbelianGroup(1, ())

    def test_klein_bottle_style(self):
        # d1 = [[0], [2]] from one 2-cell onto two 1-cycles
        h = homology_of_pair(from_rows([[0], [2]]),
                             IntMatrix.zero(0, 2))
        assert h == AbelianGroup(1, (2,))


class TestPresentedGroup:
    def test_coords_round_trip(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            cyc = IntMatrix.identity(n)
            rel = random_matrix(rng, n, rng.randint(0, 3))
            pg = PresentedGroup(cyc, rel)
            back = pg.coord_matrix(pg.representatives())
            assert back is not None
            for k in range(pg.rank_coords()):
                coords = [back[(a, k)] for a in range(back.rows)]
                want = [1 if i == k else 0 for i in range(pg.rank_coords())]
                nt = len(pg.torsion_moduli)
                got = [c % d for c, d in zip(coords[:nt], pg.torsion_moduli)]
                got += coords[nt:]
                assert got == [w % d for w, d in zip(want[:nt], pg.torsion_moduli)] + want[nt:]

    def test_zero_detection(self):
        # Z/2: relation 2x = 0, so 2*generator is the zero class
        pg = PresentedGroup(IntMatrix.identity(1), from_rows([[2]]))
        assert pg.group == AbelianGroup(0, (2,))
        rep = pg.representatives()
        assert not pg.coords_are_zero([pg.coord_matrix(rep)[(0, 0)]])
        assert pg.coords_are_zero([pg.coord_matrix(rep.scale(2))[(0, 0)]])

    def test_from_pair_factors_the_cycle_basis_once(self, monkeypatch):
        import artifact.exactlin as el
        calls = []
        original = el.snf

        def counting(M):
            calls.append(M)
            return original(M)

        monkeypatch.setattr(el, "snf", counting)
        # d_out kills e0 only; d_in hits 2 e1 + 4 e2
        d_out = from_rows([[1, 0, 0]])
        d_in = from_rows([[0], [2], [4]])
        pg = PresentedGroup.from_pair(d_in, d_out)
        assert pg.group == AbelianGroup(1, (2,))
        n = len(calls)
        assert pg.coord_matrix(from_rows([[0], [1], [2]])) is not None
        assert pg.coord_matrix(d_in) is not None
        assert len(calls) == n
        # no boundaries: the cycle basis is factored when first asked
        pg = PresentedGroup.from_pair(IntMatrix(3, 2), d_out)
        n = len(calls)
        assert pg._cycles_snf is None
        assert pg.coord_matrix(from_rows([[0], [1], [0]])) is not None
        assert len(calls) == n + 1

    def test_plain_group_is_its_own_coordinates(self):
        # zero differentials: every vector is a cycle and its own
        # coordinates, exactly as the general path computes them over Z
        # (mod p over F_p, where the general path is not taken)
        rng = random.Random(5)
        general = PresentedGroup(IntMatrix.identity(3), IntMatrix(3, 2))
        for p in (0, 2, 3):
            pg = PresentedGroup.from_pair(IntMatrix(3, 2), IntMatrix(1, 3), p)
            v = random_matrix(rng, 3, 4)
            assert pg.coord_matrix(v) == general.coord_matrix(v).mod(p)
            assert pg.representatives() == general.representatives()

    def test_plain_group_factors_nothing(self, monkeypatch):
        import artifact.exactlin as el
        calls = []
        original = el.snf
        monkeypatch.setattr(el, "snf",
                            lambda M: calls.append(M) or original(M))
        for p in (0, 2, 3):
            pg = PresentedGroup.from_pair(IntMatrix(4, 2), IntMatrix(3, 4), p)
            assert pg.group == AbelianGroup(4)
            assert pg.dim == 4 and pg.cycles is None
            assert pg.representatives() == IntMatrix.identity(4)
            v = from_rows([[1], [0], [p + 1], [-1]])
            assert pg.coord_matrix(v) == v.mod(p)
        assert calls == []
        # the dimension check still runs when both differentials are zero
        with pytest.raises(DimensionMismatch):
            PresentedGroup.from_pair(IntMatrix(3, 2), IntMatrix(1, 4))

    def test_field_group_with_a_differential_is_refused(self, monkeypatch):
        # over F_p only plain groups are presented (a reduced F_p complex
        # has d' = 0); a nonzero differential is refused, not factored
        import artifact.exactlin as el
        monkeypatch.setattr(el, "_factor", lambda *a: pytest.fail("factored"))
        d_out = from_rows([[1, 0, 0]])
        d_in = from_rows([[0], [2], [4]])
        for p in (2, 3, 5):
            for pair in ((d_in, d_out), (d_in, IntMatrix(1, 3)),
                         (IntMatrix(3, 2), d_out)):
                with pytest.raises(ExactLinError):
                    PresentedGroup.from_pair(*pair, p)

    def test_read_through_a_reduction(self):
        # C: b -> a with d b = a, plus a cycle c in degree 0; cancelling
        # b against a leaves C' = {c}, iota(c) = c, pi(a) = 0, pi(c) = c.
        # H_0 read in C' through pi and iota is H_0 of C unreduced.
        pg = PresentedGroup.from_pair(IntMatrix(1, 0), IntMatrix(0, 1))
        full = PresentedGroup.from_pair(from_rows([[1], [0]]),
                                        IntMatrix(0, 2))
        iota = from_rows([[0], [1]])          # rows a, c
        pi = from_rows([[0, 1]])
        assert pg.group == full.group == AbelianGroup(1)
        assert pg.representatives() == IntMatrix.identity(1)
        # iota carries C''s generator to one of C, and pi back
        there = full.coord_matrix(iota @ pg.representatives())
        back = pg.coord_matrix(pi @ full.representatives())
        assert there.rows == there.cols == 1 and abs(there[(0, 0)]) == 1
        assert back @ there == IntMatrix.identity(1)
        # a + 5 c is the class 5 c: a is a boundary
        v = from_rows([[1], [5]])
        assert pg.coord_matrix(pi @ v) == from_rows([[5]])
        assert full.coord_matrix(v) == there.scale(5)
        # C' presents only C'_0: a vector of C_0 itself does not fit
        with pytest.raises(DimensionMismatch):
            pg.coord_matrix(v)

    def test_coordinates_of_vectors_of_the_wrong_height(self):
        # a plain group and a factored one both refuse vectors whose
        # height is not the dimension of the presented Z^n
        plain = PresentedGroup.from_pair(IntMatrix(3, 2), IntMatrix(1, 3))
        factored = PresentedGroup.from_pair(
            from_rows([[0], [2], [4]]),
            from_rows([[1, 0, 0]]))
        assert plain._plain and not factored._plain
        for pg in (plain, factored):
            assert pg.dim == 3
            assert pg.coord_matrix(IntMatrix(3, 1)) is not None
            for rows in (2, 5):
                for v in (IntMatrix(rows, 1), IntMatrix.column([1] * rows)):
                    with pytest.raises(DimensionMismatch):
                        pg.coord_matrix(v)

    def test_subgroups_equal(self):
        no_rel = IntMatrix(2, 0)
        a = from_rows([[2, 0], [0, 3]])
        b = from_rows([[2, 0], [0, 9]])
        assert subgroups_equal(a, b, no_rel) is False
        c = from_rows([[0, -2], [3, 0]])
        assert subgroups_equal(a, c, no_rel) is True


class TestUniversalCoefficients:
    def test_dimension_count(self):
        """dim_p H_j(C; F_p) = rank H_j + t_p(H_j) + t_p(H_{j-1}), where
        t_p counts invariant factors divisible by p.  For a two-term complex
        top -> bot, the torsion all sits at bot, so the Tor correction
        appears once at bot and once (shifted) at top."""
        rng = random.Random(17)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            d = random_matrix(rng, rows, cols)
            bot_out = IntMatrix.zero(0, rows)
            top_in = IntMatrix.zero(cols, 0)
            hz_bot = homology_of_pair(d, bot_out)
            hz_top = homology_of_pair(top_in, d)
            assert hz_top.torsion == ()  # kernels of integer maps are free
            for p in (2, 3, 5):
                hp_bot = homology_of_pair(d, bot_out, p=p)
                hp_top = homology_of_pair(top_in, d, p=p)
                tp = sum(1 for t in hz_bot.torsion if t % p == 0)
                assert hp_bot.free_rank == hz_bot.free_rank + tp
                assert hp_top.free_rank == hz_top.free_rank + tp
