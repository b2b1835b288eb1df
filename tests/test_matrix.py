import itertools
import random

import pytest

from frobkit import (
    GF,
    QQ,
    Mat,
    NonInvertibleDenominator,
    NotSquare,
    Poly,
    RationalFunction,
    ShapeMismatch,
    charpoly,
    charpoly_berkowitz,
    coeffs_from_charpoly,
    commutator,
    companion,
    det,
    inverse,
    kernel_basis,
    minimal_polynomial,
    outer,
    poly_at_matrix,
    poly_from_coeffs,
    principal_minor_sums,
    rank,
    solve_linear,
    unit_col,
    unit_row,
)
from frobkit.verify import random_matrix
from oracles import principal_minor_sums_by_subsets

F3 = GF(3)
E21 = Mat(F3, [[0, 0], [1, 0]])


def rnd_cells(F, n, rng):
    return Mat.from_raw(F, n, n, [F.random(rng) for _ in range(n * n)])


# -- basic operations ---------------------------------------------------------


def test_outer_product_unit_vectors():
    v = unit_col(F3, 2, 0)
    phi = unit_row(F3, 2, 1)
    assert outer(v, phi) == Mat(F3, [[0, 1], [0, 0]])


def test_outer_defining_property():
    rng = random.Random(1)
    F = GF(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        v = Mat.from_raw(F, n, 1, [F.random(rng) for _ in range(n)])
        phi = Mat.from_raw(F, 1, n, [F.random(rng) for _ in range(n)])
        u = Mat.from_raw(F, n, 1, [F.random(rng) for _ in range(n)])
        scalar = (phi @ u)[0, 0]
        assert outer(v, phi) @ u == v.scale(scalar)


def test_identity_commutes():
    rng = random.Random(2)
    for _ in range(20):
        b = rnd_cells(F3, 3, rng)
        assert commutator(Mat.identity(F3, 3), b).is_zero


def test_companion_transpose_swaps_subdiagonal():
    f = Poly(QQ, [-1, 3, -3, 1])
    c = companion(f)
    ct = c.transpose()
    for i in range(2):
        assert c[i + 1, i] == 1 and ct[i, i + 1] == 1
    for i in range(3):
        for j in range(3):
            assert ct[i, j] == c[j, i]


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Mat.identity(F3, 2) @ Mat.identity(F3, 3)
    with pytest.raises(ShapeMismatch):
        Mat.identity(F3, 2) + Mat.identity(F3, 3)


# -- solving -------------------------------------------------------------------


def test_solve_identity():
    res = solve_linear(Mat.identity(F3, 2), unit_col(F3, 2, 0))
    assert res.consistent and res.particular == unit_col(F3, 2, 0)
    assert res.kernel == [] and res.rank == 2


def test_solve_inconsistent():
    res = solve_linear(Mat.zeros(F3, 2), unit_col(F3, 2, 0))
    assert not res.consistent
    assert res.rank == 0


def test_kernel_of_e21():
    res = solve_linear(E21, Mat.zeros(F3, 2, 1))
    assert res.kernel == [unit_col(F3, 2, 1)]


def test_solve_random_consistency():
    rng = random.Random(3)
    F = GF(5)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = Mat.from_raw(F, n, m, [F.random(rng) for _ in range(n * m)])
        x = Mat.from_raw(F, m, 1, [F.random(rng) for _ in range(m)])
        b = a @ x
        res = solve_linear(a, b)
        assert res.consistent
        assert a @ res.particular == b
        for k in res.kernel:
            assert (a @ k).is_zero
        assert len(res.kernel) == m - res.rank


def test_inverse_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rnd_cells(GF(7), n, rng)
        if rank(m) < n:
            continue
        assert m @ inverse(m) == Mat.identity(GF(7), n)


# -- characteristic polynomial ----------------------------------------------------


def test_charpoly_identity_over_q():
    p = charpoly(Mat.identity(QQ, 3))
    assert p == Poly(QQ, [-1, 3, -3, 1])
    assert charpoly_berkowitz(Mat.identity(QQ, 3)) == p


def test_charpoly_empty_matrix():
    z = Mat.identity(QQ, 0)
    assert charpoly(z) == Poly.one(QQ)
    assert charpoly_berkowitz(z) == Poly.one(QQ)


def test_charpoly_companion_is_its_polynomial():
    f = Poly(F3, [1, 0, 1])
    assert charpoly(companion(f)) == f
    assert charpoly_berkowitz(companion(f)) == f


def test_charpoly_diag():
    assert charpoly(Mat.diag(F3, [1, 2])) == Poly(F3, [2, 0, 1])  # (x-1)(x-2) = x^2+2


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_charpoly_algorithms_agree_random(q):
    F = GF(q)
    rng = random.Random(q)
    for _ in range(60):
        n = rng.randint(0, 8)
        a = rnd_cells(F, n, rng)
        assert charpoly(a) == charpoly_berkowitz(a)


def test_charpoly_algorithms_agree_rationals():
    # 200 rational matrices with entries in [-9, 9]
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 5)
        a = random_matrix(QQ, n, rng)
        assert charpoly(a) == charpoly_berkowitz(a)


# -- principal minor sums -----------------------------------------------------------


def test_minor_sums_identity():
    assert principal_minor_sums(Mat.identity(QQ, 3)) == (1, 3, 3, 1)


def test_minor_sums_of_companion_paper_polynomial():
    c = companion(Poly(QQ, [-1, 3, -3, 1]))
    assert principal_minor_sums_by_subsets(c) == (1, 3, 3, 1)


def test_minor_sums_nilpotent():
    assert principal_minor_sums(E21) == (1, 0, 0)


def test_minor_sums_subsets_vs_charpoly_exhaustive_n2():
    els = list(F3.elements())
    for cells in itertools.product(els, repeat=4):
        a = Mat.from_raw(F3, 2, 2, list(cells))
        assert principal_minor_sums_by_subsets(a) == principal_minor_sums(a)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_minor_sums_subsets_vs_charpoly_random(n):
    rng = random.Random(n)
    for _ in range(60):
        F = GF(rng.choice([3, 5]))
        a = rnd_cells(F, n, rng)
        assert principal_minor_sums_by_subsets(a) == principal_minor_sums(a)


def test_poly_from_coeffs_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        a = rnd_cells(GF(5), rng.randint(0, 5), rng)
        p = charpoly(a)
        assert poly_from_coeffs(GF(5), coeffs_from_charpoly(p)) == p


# -- minimal polynomial --------------------------------------------------------------


def test_minpoly_identity():
    assert minimal_polynomial(Mat.identity(F3, 2)) == Poly(F3, [-1, 1])


def test_minpoly_companion():
    f = Poly(F3, [1, 0, 1])
    assert minimal_polynomial(companion(f)) == f


def test_minpoly_repeated_diag():
    m = Mat.diag(F3, [1, 1, 2])
    assert minimal_polynomial(m) == Poly(F3, [2, 0, 1])  # (x-1)(x-2)


def test_minpoly_divides_and_annihilates():
    rng = random.Random(5)
    for _ in range(80):
        F = GF(rng.choice([3, 5, 9]))
        a = rnd_cells(F, rng.randint(0, 5), rng)
        mp = minimal_polynomial(a)
        assert (charpoly(a) % mp).is_zero
        assert poly_at_matrix(mp, a).is_zero


# -- polynomial evaluation at matrices --------------------------------------------------


def test_poly_at_matrix_is_identity_on_x():
    rng = random.Random(6)
    a = rnd_cells(GF(5), 4, rng)
    assert poly_at_matrix(Poly.x(GF(5)), a) == a


def test_cayley_hamilton_spot():
    rng = random.Random(7)
    for _ in range(40):
        F = GF(rng.choice([3, 5, 9, 25]))
        a = rnd_cells(F, rng.randint(0, 6), rng)
        assert poly_at_matrix(charpoly(a), a).is_zero


def test_affine_poly_at_nilpotent():
    f = Poly(F3, [1, 1])  # x + 1
    assert poly_at_matrix(f, E21) == Mat.identity(F3, 2) + E21


def test_rational_function_at_matrix():
    F = GF(5)
    rng = random.Random(8)
    x = Poly.x(F)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rnd_cells(F, n, rng)
        chi = charpoly(a)
        # denominator x - c with c not an eigenvalue
        c = next(e for e in F.elements() if chi(e) != 0)
        rf = RationalFunction(x + Poly.one(F), x - Poly.constant(F, c))
        lhs = poly_at_matrix(rf, a)
        den = a - Mat.identity(F, n).scale(c)
        assert lhs @ den == poly_at_matrix(x + Poly.one(F), a)
        assert lhs @ a == a @ lhs  # commutes with a


def test_non_invertible_denominator():
    F = GF(3)
    x = Poly.x(F)
    rf = RationalFunction(Poly.one(F), x)  # 1/x at a nilpotent matrix
    with pytest.raises(NonInvertibleDenominator):
        poly_at_matrix(rf, E21)


def test_det_equals_last_minor_sum():
    rng = random.Random(9)
    for _ in range(80):
        F = GF(rng.choice([3, 5, 9]))
        n = rng.randint(0, 5)
        a = rnd_cells(F, n, rng)
        c = principal_minor_sums(a)
        assert det(a) == c[n]
        p = charpoly(a)
        sign = F.one if n % 2 == 0 else F.neg(F.one)
        assert det(a) == F.mul(sign, p(F.zero))


# -- degenerate shapes ---------------------------------------------------------------


def test_zero_by_zero_edge_cases():
    z = Mat.identity(F3, 0)
    assert det(z) == F3.one
    assert minimal_polynomial(z) == Poly.one(F3)
    assert principal_minor_sums(z) == (1,)
    assert charpoly(z)(0) == 1
    res = solve_linear(z, z)
    assert res.consistent and res.rank == 0


def test_one_by_one():
    a = Mat(F3, [[2]])
    assert charpoly(a) == Poly(F3, [1, 1])  # x - 2 = x + 1
    assert det(a) == 2
    assert minimal_polynomial(a) == Poly(F3, [1, 1])
    assert principal_minor_sums(a) == (1, 2)


def test_not_square_errors():
    a = Mat(F3, [[1, 0, 0], [0, 1, 0]])
    for fn in (charpoly, charpoly_berkowitz, det, minimal_polynomial):
        with pytest.raises(NotSquare):
            fn(a)


def test_kernel_basis_function():
    assert kernel_basis(E21) == [unit_col(F3, 2, 1)]
