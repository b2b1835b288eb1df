import random

import pytest

from frobkit import (
    GF,
    QQ,
    EvenCharacteristicUnsupported,
    Mat,
    NotFiniteField,
    NotMonic,
    Poly,
    centralizer_dimension,
    charpoly,
    companion,
    elementary_divisor_form,
    frobenius_form,
    inverse,
    minimal_polynomial,
    orbit_dimension,
    rank,
    smith_invariant_factors,
    transpose_conjugator,
)
from frobkit.canonical import centralizer_dim_from_chain
from frobkit.verify import random_matrix
from oracles import ad_matrix, smith_invariant_factors_without_hessenberg, transpose_conjugator_by_solve

F3 = GF(3)
E21 = Mat(F3, [[0, 0], [1, 0]])


def x3(*coeffs):
    return Poly(F3, coeffs)


# -- companion matrices --------------------------------------------------------


def test_companion_cubic_layout():
    c = companion(Poly(QQ, [-1, 3, -3, 1]))
    assert c.to_lists() == [[0, 0, 1], [1, 0, -3], [0, 1, 3]]


def test_companion_linear():
    assert companion(Poly(QQ, [-5, 1])).to_lists() == [[5]]


def test_companion_degenerate():
    c = companion(Poly.one(QQ))
    assert c.nrows == c.ncols == 0
    assert charpoly(c) == Poly.one(QQ)


def test_companion_requires_monic():
    with pytest.raises(NotMonic):
        companion(Poly(QQ, [1, 2]))


def test_companion_charpoly_equals_minpoly():
    rng = random.Random(0)
    for _ in range(40):
        F = GF(rng.choice([3, 5, 9]))
        deg = rng.randint(1, 6)
        f = Poly(F, [F.random(rng) for _ in range(deg)] + [F.one])
        c = companion(f)
        assert charpoly(c) == f
        assert minimal_polynomial(c) == f


# -- invariant factors ------------------------------------------------------------


def test_smith_scalar_matrix():
    assert smith_invariant_factors(Mat.identity(F3, 2)) == (x3(2, 1), x3(2, 1))


def test_smith_companion_single_factor():
    f = x3(1, 0, 1)
    assert smith_invariant_factors(companion(f)) == (f,)


def test_smith_distinct_eigenvalues():
    assert smith_invariant_factors(Mat.diag(F3, [1, 2])) == (x3(2, 0, 1),)


def test_smith_zero_by_zero():
    assert smith_invariant_factors(Mat.identity(F3, 0)) == ()


def _hessenberg_with_breaks(F, n, breaks, rng):
    """Random upper Hessenberg matrix with H[r+1][r] = 0 exactly for r in breaks:
    `hessenberg_rows` leaves it as it is, so it has len(breaks) + 1 blocks."""
    cells = [F.zero] * (n * n)
    for i in range(n):
        for j in range(max(i - 1, 0), n):
            v = F.random(rng)
            if j == i - 1:
                v = F.zero if j in breaks else (v if v != F.zero else F.one)
            cells[i * n + j] = v
    return Mat.from_raw(F, n, n, cells)


def test_smith_matches_full_matrix_oracle():
    # the Hessenberg route against the Euclidean loop on all of xI - A
    import itertools

    corpus = [
        Mat.from_raw(F3, n, n, list(cells))
        for n in range(3)
        for cells in itertools.product(list(F3.elements()), repeat=n * n)
    ]
    rng = random.Random(23)
    for F in (GF(5), GF(25), QQ):
        for n in range(1, 9):
            for _ in range(3):
                corpus.append(random_matrix(F, n, rng))
                breaks = set(rng.sample(range(n - 1), rng.randint(1, n - 1))) if n > 1 else set()
                corpus.append(_hessenberg_with_breaks(F, n, breaks, rng))
        corpus.append(Mat.identity(F, 4).scale(F.random(rng)))
    for a in corpus:
        assert smith_invariant_factors(a) == smith_invariant_factors_without_hessenberg(a), a


def test_smith_loop_sees_one_row_per_hessenberg_block(monkeypatch):
    # the pre-reduction leaves k x k to the Euclidean loop, k the number of
    # unreduced Hessenberg blocks: 1 for a random matrix, whose e_0 is
    # generically cyclic; one per companion block of a planted chain
    import frobkit.canonical as canonical
    from frobkit import block_diag

    sizes = []

    def loop(m, _fn=canonical._euclidean_smith):
        sizes.append(len(m))
        return _fn(m)

    monkeypatch.setattr(canonical, "_euclidean_smith", loop)
    F = GF(5)
    a = random_matrix(F, 10, random.Random(4))
    assert minimal_polynomial(a).degree == 10
    assert smith_invariant_factors(a) == (charpoly(a),)
    assert sizes == [1]
    f = Poly(F, [2, 1])
    chain = [f, f * Poly(F, [1, 0, 1]), f * Poly(F, [1, 0, 1]) * Poly(F, [3, 1])]
    for k in range(1, 4):
        sizes.clear()
        planted = block_diag(F, [companion(g) for g in chain[:k]])
        assert smith_invariant_factors(planted) == tuple(chain[:k])
        assert sizes == [k]


def test_frobenius_form_of_companion():
    f = x3(1, 2, 0, 1)
    c = companion(f)
    ff = frobenius_form(c)
    assert ff.invariant_factors == (f,)
    assert ff.transform @ c @ inverse(ff.transform) == ff.block_matrix()


def test_frobenius_identity_two_blocks():
    ff = frobenius_form(Mat.identity(F3, 2))
    assert ff.invariant_factors == (x3(2, 1), x3(2, 1))
    assert rank(ff.transform) == 2


def test_frobenius_round_trip_random():
    rng = random.Random(1)
    for _ in range(150):
        F = GF(rng.choice([3, 5, 9]))
        n = rng.randint(0, 6)
        a = random_matrix(F, n, rng)
        ff = frobenius_form(a)
        g = ff.transform
        assert g @ a @ inverse(g) == ff.block_matrix()
        # divisibility chain and product
        prod = Poly.one(F)
        for f1, f2 in zip(ff.invariant_factors, ff.invariant_factors[1:]):
            assert (f2 % f1).is_zero
        for f in ff.invariant_factors:
            prod = prod * f
        assert prod == charpoly(a)
        assert ff.minimal_polynomial() == minimal_polynomial(a)
        # independent oracle
        assert smith_invariant_factors(a) == ff.invariant_factors


def test_frobenius_basis_is_the_inverse_transform():
    rng = random.Random(5)
    for _ in range(40):
        F = rng.choice([GF(3), GF(25), QQ])
        n = rng.randint(0, 5)
        a = random_matrix(F, n, rng)
        ff = frobenius_form(a)
        assert ff.basis @ ff.transform == Mat.identity(F, n)
        assert a @ ff.basis == ff.basis @ ff.block_matrix()


def test_frobenius_of_cyclic_matrix_needs_no_elimination(monkeypatch):
    # a cyclic A is one annihilator chain: no psi solve and no complement.
    # Corpus: companions, and random cyclic matrices over GF(5), GF(25) and Q.
    import frobkit.canonical as canonical

    rng = random.Random(12)
    corpus = []
    for F in (GF(3), GF(5), GF(25), QQ):
        for deg in range(1, 7):
            corpus.append(companion(Poly(F, [F.random(rng) for _ in range(deg)] + [F.one])))
    for F in (GF(5), GF(25), QQ):
        for n in range(1, 9):
            for _ in range(3 if F is not QQ else 1):
                a = random_matrix(F, n, rng)
                if minimal_polynomial(a).degree == n:
                    corpus.append(a)

    def refuse(*args):
        raise AssertionError("elimination on a cyclic input")

    monkeypatch.setattr(canonical, "solve_linear", refuse)
    monkeypatch.setattr(canonical, "kernel_basis", refuse)
    for a in corpus:
        ff = frobenius_form(a)
        assert len(ff.invariant_factors) == 1
        assert a @ ff.basis == ff.basis @ ff.block_matrix()


def test_frobenius_basis_is_the_krylov_chain_of_a_cyclic_e0():
    # this keeps the transform (and so `rcf` output) fixed for such inputs
    from frobkit.matrix import annihilator_chain

    rng = random.Random(13)
    seen = 0
    for _ in range(60):
        F = rng.choice([GF(3), GF(5), GF(25), QQ])
        n = rng.randint(1, 6)
        a = random_matrix(F, n, rng)
        e0 = [F.one] + [F.zero] * (n - 1)
        ann, chain = annihilator_chain(a, e0)
        if ann.degree != n:
            continue
        seen += 1
        ff = frobenius_form(a)
        assert [ff.basis.col(j) for j in range(n)] == chain
    assert seen >= 30


def test_frobenius_round_trip_rationals():
    rng = random.Random(2)
    for _ in range(25):
        a = random_matrix(QQ, rng.randint(0, 4), rng)
        ff = frobenius_form(a)
        assert ff.transform @ a @ inverse(ff.transform) == ff.block_matrix()
        assert smith_invariant_factors(a) == ff.invariant_factors


# -- elementary divisors -----------------------------------------------------------


def test_elementary_distinct_eigenvalues():
    ed = elementary_divisor_form(Mat.diag(F3, [1, 2]))
    assert ed.blocks == ((x3(1, 1), 1), (x3(2, 1), 1))


def test_elementary_companion_of_prime_power():
    f = x3(1, 0, 1)
    c = companion(f**2)
    ed = elementary_divisor_form(c)
    assert ed.blocks == ((f, 2),)


def test_elementary_zero_matrix():
    ed = elementary_divisor_form(Mat.zeros(F3, 2))
    assert ed.blocks == ((x3(0, 1), 1), (x3(0, 1), 1))


def test_elementary_transform_verifies():
    rng = random.Random(3)
    for _ in range(60):
        F = GF(rng.choice([3, 5, 9]))
        n = rng.randint(0, 5)
        a = random_matrix(F, n, rng)
        ed = elementary_divisor_form(a)
        assert ed.transform @ a @ inverse(ed.transform) == ed.block_matrix()
        prod = Poly.one(F)
        for p, e in ed.blocks:
            prod = prod * p**e
        assert prod == charpoly(a)
        # canonical ordering is sorted
        keys = [(p.sort_key(), e) for p, e in ed.blocks]
        assert keys == sorted(keys)


def test_elementary_requires_odd_finite_field():
    with pytest.raises(NotFiniteField):
        elementary_divisor_form(Mat.identity(QQ, 2))
    with pytest.raises(EvenCharacteristicUnsupported):
        elementary_divisor_form(Mat.identity(GF(4), 2))


# -- transpose conjugation ------------------------------------------------------------


def test_transpose_conjugator_symmetric_matrix():
    a = Mat(F3, [[1, 2], [2, 0]])
    g = transpose_conjugator(a)
    assert g @ a.transpose() == a @ g
    assert rank(g) == 2


def test_transpose_conjugator_nilpotent_example():
    g = transpose_conjugator(E21)
    assert g @ E21.transpose() == E21 @ g
    # the antidiagonal swap works too, as a sanity anchor
    swap = Mat(F3, [[0, 1], [1, 0]])
    assert swap @ E21.transpose() @ inverse(swap) == E21


def test_transpose_conjugator_random_both_routes():
    rng = random.Random(4)
    for _ in range(60):
        F = GF(rng.choice([3, 5, 9]))
        n = rng.randint(0, 5)
        a = random_matrix(F, n, rng)
        for g in (transpose_conjugator(a), transpose_conjugator_by_solve(a)):
            assert rank(g) == n
            assert g @ a.transpose() == a @ g


def test_transpose_conjugator_rationals():
    rng = random.Random(5)
    for _ in range(15):
        a = random_matrix(QQ, rng.randint(1, 4), rng)
        g = transpose_conjugator(a)
        assert g @ a.transpose() == a @ g
        g2 = transpose_conjugator_by_solve(a)
        assert g2 @ a.transpose() == a @ g2



def test_transpose_conjugator_reuses_a_given_form():
    rng = random.Random(6)
    for F in (GF(3), GF(9), QQ):
        for _ in range(20):
            a = random_matrix(F, rng.randint(0, 5), rng)
            assert transpose_conjugator(a, form=frobenius_form(a)) == transpose_conjugator(a)

# -- centralizer dimensions -----------------------------------------------------------


def test_centralizer_scalar():
    assert centralizer_dimension(Mat.identity(F3, 2)) == 4
    assert orbit_dimension(Mat.identity(F3, 2)) == 0


def test_centralizer_nilpotent():
    assert centralizer_dimension(E21) == 2
    assert orbit_dimension(E21) == 2


def test_centralizer_cyclic():
    c = companion(x3(1, 1, 0, 1))
    assert centralizer_dimension(c) == 3
    assert centralizer_dim_from_chain(smith_invariant_factors(c)) == 3


def test_centralizer_methods_agree():
    rng = random.Random(6)
    for _ in range(60):
        F = GF(rng.choice([3, 5]))
        a = random_matrix(F, rng.randint(1, 5), rng)
        assert centralizer_dimension(a) == centralizer_dim_from_chain(smith_invariant_factors(a))


def _ad_centralizer_dim(a):
    """Oracle: n^2 - rank of the n^2 x n^2 matrix of B -> [A, B]."""
    n = a.nrows
    return n * n - rank(ad_matrix(a)) if n else 0


def planted_noncyclic(F, rng):
    """g blockdiag(C(f), C(f), C(f h)) g^-1: three invariant factors, two equal."""
    from frobkit import block_diag
    from frobkit.verify import random_invertible

    f = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 2))] + [F.one])
    h = Poly(F, [F.random(rng), F.one])
    g = random_invertible(F, 3 * int(f.degree) + 1, rng)
    return g @ block_diag(F, [companion(f), companion(f), companion(f * h)]) @ inverse(g)


def test_poly_at_companion_matches_horner():
    from frobkit import poly_at_matrix
    from frobkit.canonical import _poly_at_companion

    rng = random.Random(10)
    for q in (3, 25):
        F = GF(q)
        for _ in range(20):
            f = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 6))] + [F.one])
            g = Poly(F, [F.random(rng) for _ in range(rng.randint(0, 8))])
            c = companion(f)
            assert _poly_at_companion(g, c) == poly_at_matrix(g, c)


def test_centralizer_kernel_matches_ad_oracle():
    rng = random.Random(11)
    corpus = []
    for q in (3, 5, 9, 25):
        F = GF(q)
        corpus += [random_matrix(F, n, rng) for n in range(7) for _ in range(3)]
        corpus += [planted_noncyclic(F, rng) for _ in range(6)]
        for n in range(5):
            corpus += [Mat.zeros(F, n), Mat.identity(F, n).scale(F.random(rng))]
    corpus += [random_matrix(QQ, n, rng) for n in range(5) for _ in range(4)]
    corpus += [Mat.zeros(QQ, 3), Mat.identity(QQ, 4).scale(QQ.coerce(-2))]
    for a in corpus:
        dim = centralizer_dimension(a)
        assert dim == _ad_centralizer_dim(a), a
        assert dim == centralizer_dim_from_chain(smith_invariant_factors(a))
        assert orbit_dimension(a) == a.nrows**2 - dim


def test_frobenius_recovers_planted_invariant_factors():
    # build g^-1 * blockdiag(companions of a divisibility chain) * g for a
    # random invertible g; the chain must come back exactly
    from frobkit import block_diag, poly_lcm
    from frobkit.verify import random_invertible

    rng = random.Random(8)
    for _ in range(130):
        F = rng.choice([GF(3), GF(5), GF(9), GF(25), QQ])
        x = Poly.x(F)
        # a chain f_1 | f_2 | ... built by multiplying in random monic factors
        chain = []
        current = Poly.one(F)
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            extra = Poly(F, [F.random(rng) for _ in range(deg)] + [F.one])
            current = current * extra
            chain.append(current)
            if sum(int(f.degree) for f in chain) > 6:
                chain.pop()
                break
        chain = [f for f in chain if f.degree > 0]
        if not chain:
            continue
        n = sum(int(f.degree) for f in chain)
        block = block_diag(F, [companion(f) for f in chain])
        g = random_invertible(F, n, rng)
        a = inverse(g) @ block @ g
        ff = frobenius_form(a)
        assert ff.invariant_factors == tuple(chain)
        assert ff.basis @ ff.transform == Mat.identity(F, n)
        assert a @ ff.basis == ff.basis @ ff.block_matrix()
        assert smith_invariant_factors(a) == tuple(chain)
        assert minimal_polynomial(a) == chain[-1]


def test_frobenius_chain_and_psi_counts(monkeypatch):
    # a round stops its walk at the previous block's factor, and the cut
    # forms psi A^j only for the j < d that it reads
    import frobkit.canonical as canonical
    from frobkit import block_diag

    calls = {}
    for name in ("annihilator_chain", "vecmat"):
        def counted(*args, _fn=getattr(canonical, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(canonical, name, counted)
    F = GF(5)
    scalar = Mat.identity(F, 12).scale(2)
    quadratic = block_diag(F, [companion(Poly(F, [1, 0, 1]))] * 6)
    for a, expected in ((scalar, (23, 66)), (quadratic, (17, 35))):
        calls.update(annihilator_chain=0, vecmat=0)
        frobenius_form(a)
        assert (calls["annihilator_chain"], calls["vecmat"]) == expected


def test_frobenius_on_scalar_and_derogatory_matrices():
    # worst-case invariant structure: many repeated blocks
    from frobkit import block_diag
    from frobkit.verify import random_invertible

    rng = random.Random(9)
    F = GF(3)
    f = Poly(F, [1, 1])  # x + 1
    for copies in (2, 3, 4):
        block = block_diag(F, [companion(f)] * copies)
        g = random_invertible(F, copies, rng)
        a = inverse(g) @ block @ g
        ff = frobenius_form(a)
        assert ff.invariant_factors == tuple([f] * copies)
        assert centralizer_dimension(a) == copies * copies
    # factors x | x^2: the second block is cut from an invariant span that
    # is not spanned by unit vectors
    a = Mat(F, [[0, 1, 0], [0, 0, 0], [0, 1, 0]])
    ff = frobenius_form(a)
    assert ff.invariant_factors == (Poly(F, [0, 1]), Poly(F, [0, 0, 1]))
    assert ff.basis @ ff.transform == Mat.identity(F, 3)
    assert a @ ff.basis == ff.basis @ ff.block_matrix()
    assert smith_invariant_factors(a) == ff.invariant_factors


def test_companion_hankel_intertwines_transpose():
    # companion(f) H = H companion(f)^t, with H the symmetric coefficient Hankel
    from frobkit.canonical import _companion_hankel

    rng = random.Random(7)
    for _ in range(50):
        F = GF(rng.choice([3, 5, 9]))
        deg = rng.randint(1, 6)
        f = Poly(F, [F.random(rng) for _ in range(deg)] + [F.one])
        c = companion(f)
        h = _companion_hankel(f)
        assert h == h.transpose()
        assert rank(h) == deg
        assert c @ h == h @ c.transpose()
