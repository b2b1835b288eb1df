import itertools
import random

import pytest

from frobkit import (
    GF,
    QQ,
    LengthMismatch,
    Mat,
    Poly,
    charpoly,
    coeffs_from_charpoly,
    faddeev_chain,
    inverse,
    moments,
    nonzero_corner_conjugator,
    outer,
    poly_at_matrix,
    unit_col,
    unit_row,
    update_coefficients,
    update_report,
)
from frobkit.verify import random_col, random_matrix, random_row

F3 = GF(3)
E21 = Mat(F3, [[0, 0], [1, 0]])


def test_moments_nilpotent_example():
    m = moments(E21, unit_col(F3, 2, 0), unit_row(F3, 2, 1), 2)
    assert list(m) == [0, 1]
    assert m.first_nonzero() == 1


def test_moments_zero_vector():
    m = moments(E21, Mat.zeros(F3, 2, 1), unit_row(F3, 2, 0), 5)
    assert m.all_zero


def test_moments_identity_fixed_point():
    a = Mat.identity(F3, 3)
    m = moments(a, unit_col(F3, 3, 0), unit_row(F3, 3, 0), 6)
    assert list(m) == [1] * 6


def test_moments_match_explicit_powers():
    # the iterative kernel against explicitly formed matrix powers
    rng = random.Random(0)
    for _ in range(60):
        q = rng.choice([3, 5, 9])
        F = GF(q)
        n = rng.randint(1, 5)
        a = random_matrix(F, n, rng)
        v = random_col(F, n, rng)
        phi = random_row(F, n, rng)
        m = moments(a, v, phi, 7)
        x = Poly.x(F)
        for j in range(7):
            power = poly_at_matrix(x**j, a)
            assert m[j] == (phi @ power @ v)[0, 0]


def test_update_example_from_two_by_two():
    c = coeffs_from_charpoly(charpoly(E21))
    assert c == (1, 0, 0)
    m = moments(E21, unit_col(F3, 2, 0), unit_row(F3, 2, 1), 2)
    out = update_coefficients(c, m, 1)
    assert out == (1, 0, 2)  # c' = (1, 0, -1) mod 3
    direct = E21 + outer(unit_col(F3, 2, 0), unit_row(F3, 2, 1))
    assert coeffs_from_charpoly(charpoly(direct)) == out
    assert charpoly(direct) == Poly(F3, [2, 0, 1])  # x^2 - 1


def test_update_lambda_zero_is_identity():
    rng = random.Random(1)
    for _ in range(30):
        F = GF(5)
        n = rng.randint(1, 6)
        a = random_matrix(F, n, rng)
        c = coeffs_from_charpoly(charpoly(a))
        m = moments(a, random_col(F, n, rng), random_row(F, n, rng), n)
        assert update_coefficients(c, m, 0) == c


def test_update_zero_moments_fixed_for_every_lambda():
    # a vanishing moment sequence keeps the coefficients for all lambda
    v, phi = unit_col(F3, 2, 1), unit_row(F3, 2, 0)
    m = moments(E21, v, phi, 2)
    assert m.all_zero
    c = coeffs_from_charpoly(charpoly(E21))
    for lam in F3.elements():
        assert update_coefficients(c, m, lam) == c


def test_update_report_matches():
    rng = random.Random(2)
    for _ in range(50):
        F = GF(rng.choice([3, 9, 25]))
        n = rng.randint(1, 6)
        rep = update_report(
            random_matrix(F, n, rng), random_col(F, n, rng), random_row(F, n, rng),
            F.random(rng),
        )
        assert rep.matched_direct


def test_update_report_keeps_both_direct_recomputations():
    rng = random.Random(4)
    for _ in range(30):
        F = GF(rng.choice([3, 5, 25]))
        n = rng.randint(1, 5)
        a, v, phi = random_matrix(F, n, rng), random_col(F, n, rng), random_row(F, n, rng)
        lam = F.random(rng)
        rep = update_report(a, v, phi, lam)
        direct = coeffs_from_charpoly(charpoly(a + outer(v, phi).scale(lam)))
        assert rep.direct_hessenberg == rep.direct_berkowitz == direct == rep.c_of_perturbed


def test_update_length_checks():
    c = (1, 0, 0)
    m = moments(E21, unit_col(F3, 2, 0), unit_row(F3, 2, 1), 1)
    with pytest.raises(LengthMismatch):
        update_coefficients(c, m, 1)
    bad = (0, 0, 0)
    m2 = moments(E21, unit_col(F3, 2, 0), unit_row(F3, 2, 1), 2)
    with pytest.raises(LengthMismatch):
        update_coefficients(bad, m2, 1)


def test_chained_updates_compose():
    # applying the update twice with the refreshed moments equals the direct result
    rng = random.Random(3)
    F = GF(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = random_matrix(F, n, rng)
        v, phi = random_col(F, n, rng), random_row(F, n, rng)
        l1, l2 = F.random(rng), F.random(rng)
        c0 = coeffs_from_charpoly(charpoly(a))
        c1 = update_coefficients(c0, moments(a, v, phi, n), l1)
        a1 = a + outer(v, phi).scale(l1)
        c2 = update_coefficients(c1, moments(a1, v, phi, n), l2)
        a2 = a1 + outer(v, phi).scale(l2)
        assert c2 == coeffs_from_charpoly(charpoly(a2))


# -- coefficient chain ---------------------------------------------------------


def test_chain_starts_at_identity():
    rng = random.Random(4)
    a = random_matrix(GF(7), 4, rng)
    assert faddeev_chain(a)[0] == Mat.identity(GF(7), 4)


def test_chain_nilpotent_example():
    chain = faddeev_chain(E21)
    assert chain[0] == Mat.identity(F3, 2)
    assert chain[1] == -E21  # c_1 I - A = -A
    assert chain[2].is_zero  # c_2 I - A C_2 = A^2 = 0


def test_chain_closed_form_and_final_zero():
    rng = random.Random(5)
    x_cache = {}
    for _ in range(60):
        q = rng.choice([3, 5, 9])
        F = GF(q)
        n = rng.randint(0, 5)
        a = random_matrix(F, n, rng)
        chain = faddeev_chain(a)
        assert len(chain) == n + 1
        assert chain[-1].is_zero
        c = coeffs_from_charpoly(charpoly(a))
        x = x_cache.setdefault(q, Poly.x(F))
        for k in range(1, n + 2):
            closed = Mat.zeros(F, n)
            sign = False
            for j in range(k):
                term = poly_at_matrix(x**j, a).scale(c[k - 1 - j])
                closed = closed - term if sign else closed + term
                sign = not sign
            assert chain[k - 1] == closed


def test_chain_over_rationals():
    rng = random.Random(6)
    for _ in range(20):
        a = random_matrix(QQ, rng.randint(1, 4), rng)
        assert faddeev_chain(a)[-1].is_zero
        assert poly_at_matrix(charpoly(a), a).is_zero


# -- corner conjugation -----------------------------------------------------------


def test_corner_zero_matrix():
    assert nonzero_corner_conjugator(Mat.zeros(F3, 2)) is None
    assert nonzero_corner_conjugator(Mat.zeros(F3, 4)) is None


def test_corner_identity():
    b = nonzero_corner_conjugator(Mat.identity(F3, 3))
    assert (b @ Mat.identity(F3, 3) @ inverse(b))[0, 0] != 0


def test_corner_off_diagonal():
    m = Mat(F3, [[0, 1], [0, 0]])
    b = nonzero_corner_conjugator(m)
    assert (b @ m @ inverse(b))[0, 0] != 0


def test_corner_exhaustive_two_by_two():
    # every nonzero 2x2 over GF(3) gets a verified witness, never a zero certificate
    els = list(F3.elements())
    seen = 0
    for cells in itertools.product(els, repeat=4):
        m = Mat.from_raw(F3, 2, 2, list(cells))
        b = nonzero_corner_conjugator(m)
        if m.is_zero:
            assert b is None
            continue
        seen += 1
        assert b is not None
        assert (b @ m @ inverse(b))[0, 0] != 0
    assert seen == 80


def test_corner_random_larger():
    rng = random.Random(7)
    for _ in range(100):
        q = rng.choice([3, 5, 9])
        F = GF(q)
        n = rng.randint(1, 4)
        m = random_matrix(F, n, rng)
        b = nonzero_corner_conjugator(m)
        if m.is_zero:
            assert b is None
        else:
            assert (b @ m @ inverse(b))[0, 0] != 0


def test_corner_over_rationals():
    m = Mat(QQ, [[0, 0], [5, 0]])
    b = nonzero_corner_conjugator(m)
    assert (b @ m @ inverse(b))[0, 0] != 0
