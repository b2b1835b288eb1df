import itertools
import random
from fractions import Fraction

from frobkit import GF, QQ, Mat, Poly, det, poly_at_matrix, rank
from frobkit.matrix import annihilator_chain
from frobkit.rows import dot, insert, krylov, matvec, reduce, rref, vecmat

F3 = GF(3)


def leibniz_det(F, rows):
    n = len(rows)
    acc = F.zero
    for perm in itertools.permutations(range(n)):
        term = F.one
        for i, j in enumerate(perm):
            term = F.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = F.sub(acc, term) if inversions % 2 else F.add(acc, term)
    return acc


def insert_rank(F, rows):
    ech = []
    return sum(insert(F, ech, r)[0] is not None for r in rows)


def random_rows(F, nrows, ncols, rng, rank_cap=None):
    """Random rows; with rank_cap, combinations of that many random rows."""
    if rank_cap is None:
        return [[F.random(rng) for _ in range(ncols)] for _ in range(nrows)]
    basis = random_rows(F, rank_cap, ncols, rng) or [[F.zero] * ncols]
    return [vecmat(F, [F.random(rng) for _ in basis], basis) for _ in range(nrows)]


def in_span(F, ech, v):
    return all(x == F.zero for x in reduce(F, ech, v))


def assert_reduced(F, rows, pivots, m):
    """rows are in reduced echelon form over their first m columns."""
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(rows):
        lead = next((t for t in range(m) if row[t] != F.zero), None)
        assert lead == (pivots[i] if i < len(pivots) else None)
    for i, c in enumerate(pivots):
        assert [rows[r][c] for r in range(len(rows))] == [
            F.one if r == i else F.zero for r in range(len(rows))
        ]


# -- exhaustive over GF(3) ---------------------------------------------------------


def test_det_matches_leibniz_and_insert_rank_matches_rref_exhaustive_gf3():
    for n in (2, 3):
        for cells in itertools.product(range(3), repeat=n * n):
            rows = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
            assert det(Mat(F3, rows)) == leibniz_det(F3, rows)
            work = [r[:] for r in rows]
            assert insert_rank(F3, rows) == len(rref(F3, work))


# -- random GF(25) and Q -----------------------------------------------------------


def fields_and_rngs():
    return ((GF(25), random.Random(25)), (QQ, random.Random(7)))


def test_rref_rows_span_the_input_and_are_reduced():
    for F, rng in fields_and_rngs():
        for _ in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            cap = rng.choice([None, rng.randint(0, min(nrows, ncols))])
            rows = random_rows(F, nrows, ncols, rng, cap)
            work = [r[:] for r in rows]
            pivots = rref(F, work)
            assert_reduced(F, work, pivots, ncols)
            assert all(x == F.zero for r in work[len(pivots):] for x in r)
            ech_out = [(c, work[i]) for i, c in enumerate(pivots)]
            assert all(in_span(F, ech_out, r) for r in rows)
            ech_in = []
            for r in rows:
                insert(F, ech_in, r)
            assert all(in_span(F, ech_in, work[i]) for i in range(len(pivots)))
            assert len(ech_in) == len(pivots)


def test_rref_carries_augmented_columns():
    F = GF(25)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_rows(F, n, n, rng)
        b = [F.random(rng) for _ in range(n)]
        work = [row + [x] for row, x in zip(a, b)]
        pivots = rref(F, work, n)
        assert_reduced(F, work, pivots, n)
        if len(pivots) == n:
            x = [work[i][n] for i in range(n)]
            assert matvec(F, a, x) == b


def test_insert_refuses_dependent_vectors():
    for F, rng in fields_and_rngs():
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = random_rows(F, rng.randint(1, n), n, rng)
            ech = []
            for r in rows:
                insert(F, ech, r)
            before = list(ech)
            coeffs = [F.random(rng) for _ in ech]
            combo = vecmat(F, coeffs, [r for _, r in ech])
            pivot, rest = insert(F, ech, combo)
            assert pivot is None
            assert all(x == F.zero for x in rest)
            assert ech == before
            for piv, row in ech:
                assert row[piv] == F.one
                assert all(x == F.zero for x in row[:piv])


def test_insert_returns_the_unscaled_pivot():
    F = GF(5)
    ech = []
    assert insert(F, ech, [0, 3, 1]) == (1, [0, 3, 1])
    assert ech == [(1, [0, 1, 2])]
    pivot, rest = insert(F, ech, [2, 1, 0])
    assert (pivot, rest) == (0, [2, 0, 3])


def test_annihilator_chain_is_monic_and_annihilates():
    for F, rng in fields_and_rngs():
        for _ in range(40):
            n = rng.randint(1, 6)
            a = Mat.from_raw(F, n, n, [F.random(rng) for _ in range(n * n)])
            v = [F.random(rng) for _ in range(n)]
            f, chain = annihilator_chain(a, v)
            assert f.is_monic
            assert f.degree == len(chain)
            assert chain[:1] == ([v] if any(x != F.zero for x in v) else [])
            fv = poly_at_matrix(f, a) @ Mat.from_raw(F, n, 1, v)
            assert fv.is_zero
            assert insert_rank(F, chain) == len(chain)


def test_det_random_against_leibniz():
    for F, rng in fields_and_rngs():
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = random_rows(F, n, n, rng, rng.choice([None, n - 1]))
            assert det(Mat(F, rows)) == leibniz_det(F, rows)


# -- products ----------------------------------------------------------------------


def test_products_agree_with_matmul():
    for F, rng in fields_and_rngs():
        for _ in range(20):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = random_rows(F, n, m, rng)
            a = Mat(F, rows)
            x = [F.random(rng) for _ in range(m)]
            u = [F.random(rng) for _ in range(n)]
            assert matvec(F, rows, x) == (a @ Mat.from_raw(F, m, 1, x)).col(0)
            assert vecmat(F, u, rows) == (Mat.from_raw(F, 1, n, u) @ a).row(0)
            assert dot(F, u, matvec(F, rows, x)) == dot(F, vecmat(F, u, rows), x)


def test_krylov_is_repeated_matvec():
    for F, rng in ((F3, random.Random(3)),) + fields_and_rngs():
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = random_rows(F, n, n, rng)
            v = [F.random(rng) for _ in range(n)]
            assert krylov(F, rows, v, 0) == []
            assert krylov(F, rows, v, 1) == [v]
            expect = [v]
            for _ in range(n - 1):
                expect.append(matvec(F, rows, expect[-1]))
            assert krylov(F, rows, v, n) == expect


# -- edge cases --------------------------------------------------------------------


def test_empty_shapes():
    F = GF(5)
    assert det(Mat.identity(F, 0)) == F.one
    assert rref(F, []) == []
    assert rref(F, [], 3) == []
    no_cols = [[], []]
    assert rref(F, no_cols) == []
    assert no_cols == [[], []]
    assert dot(F, [], []) == F.zero
    assert matvec(F, [], [1, 2]) == []
    assert matvec(F, [[], []], []) == [F.zero, F.zero]
    assert vecmat(F, [], []) == []
    assert reduce(F, [], []) == []
    ech = []
    assert insert(F, ech, []) == (None, [])
    assert ech == []
    f, chain = annihilator_chain(Mat.identity(F, 0), [])
    assert (f, chain) == (Poly.one(F), [])


def test_zero_rows_and_columns():
    F = QQ
    zero_rows = [[Fraction(0)] * 4 for _ in range(3)]
    assert rref(F, [r[:] for r in zero_rows]) == []
    assert insert_rank(F, zero_rows) == 0
    assert det(Mat(F, [r[:3] for r in zero_rows])) == 0
    rows = [[Fraction(0), Fraction(2)], [Fraction(0), Fraction(4)]]
    work = [r[:] for r in rows]
    assert rref(F, work) == [1]
    assert work == [[0, 1], [0, 0]]
    assert rank(Mat(F, rows)) == 1
    assert det(Mat(F, rows)) == 0
    assert annihilator_chain(Mat(F, rows), [Fraction(0), Fraction(0)]) == (Poly.one(F), [])
