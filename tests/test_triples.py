import itertools
import random

import pytest

from frobkit import (
    GF,
    QQ,
    EvenCharacteristicUnsupported,
    GroupElement,
    Mat,
    NotCoprime,
    NotIrreducible,
    Poly,
    RationalFunction,
    TooLargeForExhaustive,
    Triple,
    act,
    charpoly,
    commutator,
    commutator_range,
    direct_sum_check,
    equivalence_report,
    filtration,
    filtration_union_check,
    inverse,
    moment_vanishing,
    moments,
    outer,
    pairing,
    rank_one_shift,
    transpose_conjugator,
    triple_charpoly,
    twist,
    unit_col,
    unit_row,
)
from frobkit import block_diag, companion, poly_at_matrix, solve_linear
from frobkit.triples import _row_space
from frobkit.verify import random_col, random_invertible, random_row, random_triple
from oracles import ad_matrix

F3 = GF(3)
E21 = Mat(F3, [[0, 0], [1, 0]])
e1, e2 = unit_col(F3, 2, 0), unit_col(F3, 2, 1)
e1s, e2s = unit_row(F3, 2, 0), unit_row(F3, 2, 1)

T_BAD = Triple(E21, e1, e2s)  # moments (0, 1)
T_GOOD = Triple(E21, e2, e1s)  # all moments vanish


def all_triples_2x2_f3():
    els = list(F3.elements())
    for ac in itertools.product(els, repeat=4):
        a = Mat.from_raw(F3, 2, 2, list(ac))
        for vc in itertools.product(els, repeat=2):
            v = Mat.from_raw(F3, 2, 1, list(vc))
            for pc in itertools.product(els, repeat=2):
                yield Triple(a, v, Mat.from_raw(F3, 1, 2, list(pc)))


# -- group action -----------------------------------------------------------------


def test_act_identity():
    e = GroupElement.identity(F3, 2)
    assert act(e, T_BAD) == T_BAD


def test_act_transposition_with_identity_matrix():
    e = GroupElement(Mat.identity(F3, 2), -1)
    out = act(e, T_BAD)
    assert out.a == E21.transpose()
    assert out.v == T_BAD.phi.transpose()
    assert out.phi == T_BAD.v.transpose()


def test_act_transposition_is_involution():
    e = GroupElement(Mat.identity(F3, 2), -1)
    assert act(e, act(e, T_BAD)) == T_BAD


def test_action_law_random():
    rng = random.Random(0)
    for _ in range(80):
        q = rng.choice([3, 5, 9])
        F = GF(q)
        n = rng.randint(0, 4)
        t = random_triple(F, n, rng)
        e1_ = GroupElement(random_invertible(F, n, rng), rng.choice((1, -1)))
        e2_ = GroupElement(random_invertible(F, n, rng), rng.choice((1, -1)))
        assert act(e1_, act(e2_, t)) == act(e1_.compose(e2_), t)
        assert act(e1_.inverse(), act(e1_, t)) == t


def test_triple_charpoly_invariant_under_action():
    rng = random.Random(1)
    for _ in range(60):
        F = GF(rng.choice([3, 5]))
        n = rng.randint(0, 4)
        t = random_triple(F, n, rng)
        e = GroupElement(random_invertible(F, n, rng), rng.choice((1, -1)))
        assert triple_charpoly(act(e, t)) == triple_charpoly(t)


# -- pairing ----------------------------------------------------------------------


def test_pairing_examples():
    assert pairing(e1, e2s) == 0
    assert pairing(e1, e1s) == 1


def test_pairing_is_first_moment():
    rng = random.Random(2)
    for _ in range(50):
        t = random_triple(GF(5), rng.randint(1, 4), rng)
        assert pairing(t.v, t.phi) == moments(t.a, t.v, t.phi, 1)[0]
        if moment_vanishing(t).vanishes:
            assert pairing(t.v, t.phi) == 0


# -- moment vanishing ---------------------------------------------------------------


def test_moment_vanishing_examples():
    assert not moment_vanishing(T_BAD).vanishes
    assert moment_vanishing(T_BAD).witness_index == 1
    assert moment_vanishing(T_GOOD).vanishes
    zt = Triple(E21, Mat.zeros(F3, 2, 1), e2s)
    assert moment_vanishing(zt).vanishes


def test_moment_vanishing_truncation_matches_two_n():
    # n moments decide; cross-check against 2n moments on random corpora
    rng = random.Random(3)
    for _ in range(200):
        q = rng.choice([3, 5, 9])
        F = GF(q)
        n = rng.randint(1, 5)
        t = random_triple(F, n, rng)
        short = moment_vanishing(t).vanishes
        long = moments(t.a, t.v, t.phi, 2 * n).all_zero
        assert short == long


# -- commutator range ----------------------------------------------------------------


def test_commutator_range_zero_vector():
    rng = random.Random(4)
    a = Mat.from_raw(F3, 3, 3, [F3.random(rng) for _ in range(9)])
    r = commutator_range(Triple(a, Mat.zeros(F3, 3, 1), unit_row(F3, 3, 0)))
    assert r.member and r.witness.is_zero


def test_commutator_range_zero_matrix_rejects():
    r = commutator_range(Triple(Mat.zeros(F3, 2), e1, e1s))
    assert not r.member and r.witness is None


def test_commutator_range_witness_example():
    r = commutator_range(T_GOOD)
    assert r.member
    b = Mat.diag(F3, [1, 0])
    assert commutator(E21, b) == outer(e2, e1s)
    assert commutator(E21, r.witness) == outer(e2, e1s)


def _ad_member(t: Triple) -> bool:
    """Oracle: v (x) phi in [A, gl] by solving ad_A vec(B) = vec(v (x) phi)."""
    n = t.n
    if n == 0:
        return True
    target = outer(t.v, t.phi)
    rhs = Mat.from_raw(t.field, n * n, 1, list(target.cells))
    return solve_linear(ad_matrix(t.a), rhs).consistent


def _check_against_ad_oracle(triples) -> int:
    members = 0
    for t in triples:
        r = commutator_range(t)
        assert r.member == _ad_member(t), t
        if r.member:
            assert commutator(t.a, r.witness) == outer(t.v, t.phi)
            members += 1
    return members


def _planted_noncyclic_triple(F, rng) -> Triple:
    """A = g blockdiag(C(f), C(f), C(f h)) g^-1; v = f(A) u or random,
    phi = w h(A), which makes about half of them members."""
    f = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 2))] + [F.one])
    h = Poly(F, [F.random(rng), F.one])
    n = 3 * int(f.degree) + 1
    g = random_invertible(F, n, rng)
    a = g @ block_diag(F, [companion(f), companion(f), companion(f * h)]) @ inverse(g)
    v = random_col(F, n, rng)
    if rng.random() < 0.5:
        v = poly_at_matrix(f, a) @ v
    return Triple(a, v, random_row(F, n, rng) @ poly_at_matrix(h, a))


def test_commutator_range_matches_ad_oracle_exhaustive():
    assert _check_against_ad_oracle(all_triples_2x2_f3()) > 0


def test_commutator_range_matches_ad_oracle_random():
    rng = random.Random(12)
    for q in (3, 5, 9, 25):
        F = GF(q)
        _check_against_ad_oracle(random_triple(F, n, rng) for n in range(1, 7) for _ in range(4))


def test_commutator_range_matches_ad_oracle_planted_noncyclic():
    rng = random.Random(13)
    for q in (3, 5, 9, 25):
        F = GF(q)
        members = _check_against_ad_oracle(_planted_noncyclic_triple(F, rng) for _ in range(12))
        assert 0 < members < 12


def test_commutator_range_matches_ad_oracle_degenerate():
    rng = random.Random(14)
    triples = []
    for F in (GF(3), GF(25), QQ):
        for n in range(5):
            for a in (Mat.zeros(F, n), Mat.identity(F, n).scale(F.coerce(2))):
                for _ in range(3):
                    triples.append(Triple(a, random_col(F, n, rng), random_row(F, n, rng)))
                if n:
                    triples.append(Triple(a, unit_col(F, n, 0), unit_row(F, n, n - 1)))
    _check_against_ad_oracle(triples)


def test_commutator_range_matches_ad_oracle_rationals():
    rng = random.Random(15)
    triples = [random_triple(QQ, n, rng) for n in range(1, 5) for _ in range(8)]
    triples += [Triple(t.a, t.v, Mat.zeros(QQ, 1, t.n)) for t in triples[::4]]
    triples += [
        Triple(t.a, t.v, t.phi @ poly_at_matrix(charpoly(t.a) // Poly(QQ, [0, 1]), t.a))
        for t in triples[:8]
    ]
    _check_against_ad_oracle(triples)


def test_commutator_paths_never_build_ad_matrix(monkeypatch):
    # n = 24 over GF(5): ad_A would be a 576 x 576 system; none may be larger than n x n
    import frobkit.canonical as canonical
    import frobkit.matrix as matrix
    import frobkit.triples as triples
    from frobkit import centralizer_dimension, orbit_dimension
    from frobkit.canonical import centralizer_dim_from_chain, smith_invariant_factors

    n = 24
    solve = matrix.solve_linear
    sizes = []

    def guarded(a, b):
        if a.nrows > n or a.ncols > n:
            raise AssertionError(f"{a.nrows}x{a.ncols} system solved")
        sizes.append(a.nrows)
        return solve(a, b)

    for module in (matrix, canonical, triples):
        monkeypatch.setattr(module, "solve_linear", guarded)
    rng = random.Random(16)
    F = GF(5)
    t = random_triple(F, n, rng)
    r = commutator_range(t)
    if r.member:
        assert commutator(t.a, r.witness) == outer(t.v, t.phi)
    assert centralizer_dimension(t.a) == centralizer_dim_from_chain(smith_invariant_factors(t.a))
    assert orbit_dimension(t.a) == n * n - centralizer_dimension(t.a)
    a1, a2 = t.a.submatrix(range(12), range(12)), t.a.submatrix(range(12, 24), range(12, 24))
    assert direct_sum_check(a1, a2, samples=3, seed=1).ok
    assert max(sizes) == n  # the guard saw the n x n inverse of each Frobenius basis


def test_commutator_range_subset_of_moment_null_exhaustive():
    members = 0
    for t in all_triples_2x2_f3():
        r = commutator_range(t)
        if r.member:
            members += 1
            assert moment_vanishing(t).vanishes
    assert members == 1761  # frozen count over the full 6561-triple space


def test_commutator_members_never_leave_fiber():
    # members of the commutator range keep charpoly under every shift
    for t in all_triples_2x2_f3():
        if commutator_range(t).member:
            base = triple_charpoly(t)
            for lam in F3.elements():
                assert triple_charpoly(rank_one_shift(t, lam)) == base


def test_commutator_range_subset_random_large_fields():
    # includes q = 25, which the acceptance corpus leaves out
    rng = random.Random(9)
    for _ in range(150):
        q = rng.choice([3, 5, 9, 25])
        F = GF(q)
        n = rng.randint(1, 5)
        t = random_triple(F, n, rng)
        if commutator_range(t).member:
            assert moment_vanishing(t).vanishes


# -- shifts and twists ----------------------------------------------------------------


def test_shift_examples():
    assert rank_one_shift(T_BAD, 0) == T_BAD
    shifted = rank_one_shift(T_BAD, 1)
    assert shifted.a == Mat(F3, [[0, 1], [1, 0]])
    assert rank_one_shift(shifted, -1) == T_BAD


def test_shift_additivity():
    rng = random.Random(5)
    for _ in range(100):
        F = GF(rng.choice([3, 5, 9]))
        t = random_triple(F, rng.randint(1, 4), rng)
        l1, l2 = F.random(rng), F.random(rng)
        assert rank_one_shift(rank_one_shift(t, l1), l2) == rank_one_shift(
            t, F.add(l1, l2)
        )


def test_twist_identity_function():
    one = RationalFunction(Poly.one(F3))
    assert twist(T_BAD, one) == T_BAD


def test_twist_affine_example():
    f = Poly(F3, [1, 1])  # x + 1, coprime to charpoly x^2
    out = twist(T_BAD, f)
    assert out.v.col(0) == [1, 1]
    assert out.phi.row(0) == [1, 1]
    assert out.a == E21


def test_twist_not_coprime():
    with pytest.raises(NotCoprime):
        twist(T_BAD, Poly.x(F3))  # charpoly(E21) = x^2


def test_twist_composition_and_inverse():
    from frobkit import poly_gcd

    rng = random.Random(6)
    for _ in range(50):
        t = random_triple(F3, rng.randint(1, 4), rng)
        chi = charpoly(t.a)
        fs = []
        while len(fs) < 2:
            cand = Poly(F3, [F3.random(rng) for _ in range(rng.randint(1, 3))])
            if not cand.is_zero and poly_gcd(cand, chi).degree <= 0:
                fs.append(RationalFunction(cand))
        f, h = fs
        assert twist(twist(t, f), h) == twist(t, f * h)
        assert twist(twist(t, f), f.inverse()) == t
        assert triple_charpoly(twist(t, f)) == chi


def test_twist_preserves_moment_vanishing():
    rng = random.Random(7)
    from frobkit import poly_gcd

    found = 0
    while found < 40:
        F = GF(rng.choice([3, 5]))
        n = rng.randint(1, 4)
        t = random_triple(F, n, rng)
        if not moment_vanishing(t).vanishes:
            continue
        chi = charpoly(t.a)
        cand = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 3))])
        if cand.is_zero or poly_gcd(cand, chi).degree > 0:
            continue
        found += 1
        assert moment_vanishing(twist(t, cand)).vanishes


# -- equivalence report -----------------------------------------------------------------


def test_equivalence_report_examples():
    good = equivalence_report(T_GOOD)
    assert (good.all_vanish, good.stable_all, good.stable_some) == (True, True, True)
    bad = equivalence_report(T_BAD)
    assert (bad.all_vanish, bad.stable_all, bad.stable_some) == (False, False, False)
    assert bad.mismatch_lambda is not None
    zero_v = equivalence_report(Triple(E21, Mat.zeros(F3, 2, 1), e2s))
    assert (zero_v.all_vanish, zero_v.stable_all, zero_v.stable_some) == (
        True,
        True,
        True,
    )


def test_equivalence_report_rationals():
    a = Mat(QQ, [[0, 0], [1, 0]])
    t = Triple(a, unit_col(QQ, 2, 0), unit_row(QQ, 2, 1))
    rep = equivalence_report(t)
    assert rep.consistent and not rep.all_vanish
    t2 = Triple(a, unit_col(QQ, 2, 1), unit_row(QQ, 2, 0))
    rep2 = equivalence_report(t2)
    assert rep2.consistent and rep2.all_vanish


def test_equivalence_refuses_characteristic_two():
    F4 = GF(4)
    t = Triple(Mat.zeros(F4, 1), unit_col(F4, 1, 0), unit_row(F4, 1, 0))
    with pytest.raises(EvenCharacteristicUnsupported):
        equivalence_report(t)


def test_shift_keeps_fiber_iff_moments_vanish_spotcheck():
    rng = random.Random(8)
    for _ in range(100):
        F = GF(rng.choice([3, 5, 9]))
        t = random_triple(F, rng.randint(1, 4), rng)
        rep = equivalence_report(t)
        assert rep.consistent


# -- filtration ---------------------------------------------------------------------------


def test_filtration_nilpotent_block():
    x = Poly.x(F3)
    filt = filtration(x, 2)
    assert filt.dims == (2, 1, 0)
    assert filt.spaces[1].col(0) == [0, 1]  # span{e2}
    assert filt.dual_spaces[1].row(0) == [1, 0]  # span{e1*}


def test_filtration_degenerate_exponent():
    filt = filtration(Poly.x(F3), 0)
    assert filt.dims == (0,)
    assert filt.matrix.nrows == 0


def test_filtration_quadratic_dims():
    f = Poly(F3, [1, 0, 1])
    filt = filtration(f, 2)
    assert filt.dims == (4, 2, 0)


def test_filtration_dual_is_t_image():
    # T(v) = v^t g^{-1} maps U_i onto the dual space, per block
    x = Poly.x(F3)
    one = Poly.one(F3)
    for f, s in [(x, 2), (x + one, 2), (Poly(F3, [1, 0, 1]), 2), (x, 3)]:
        filt = filtration(f, s)
        a = filt.matrix
        g = transpose_conjugator(a)
        gi = inverse(g)
        for i in range(s + 1):
            sp, du = filt.spaces[i], filt.dual_spaces[i]
            rows = [
                (Mat.from_raw(F3, 1, a.nrows, sp.col(j)) @ gi).row(0)
                for j in range(sp.ncols)
            ]
            image = (
                _row_space(Mat(F3, rows))
                if rows
                else Mat.from_raw(F3, 0, a.nrows, [])
            )
            assert image == du


def test_filtration_rejects_bad_inputs():
    with pytest.raises(NotIrreducible):
        filtration(Poly(F3, [2, 0, 1]), 1)  # x^2 - 1 splits
    with pytest.raises(EvenCharacteristicUnsupported):
        filtration(Poly.x(GF(4)), 1)


def test_filtration_union_small_cases():
    x = Poly.x(F3)
    res = filtration_union_check(x, 1)
    assert res.ok and res.pairs_checked == 9 and res.members == 5
    res2 = filtration_union_check(x, 2)
    assert res2.ok and res2.pairs_checked == 81
    f = Poly(F3, [1, 0, 1])
    res3 = filtration_union_check(f, 1)
    assert res3.ok and res3.pairs_checked == 81


def test_filtration_union_over_f5():
    res = filtration_union_check(Poly.x(GF(5)), 2, pair_bound=100_000)
    assert res.ok and res.pairs_checked == 5**4


def test_filtration_union_bound():
    with pytest.raises(TooLargeForExhaustive):
        filtration_union_check(Poly.x(F3), 5, pair_bound=100)


# -- direct sums ---------------------------------------------------------------------------


def test_direct_sum_zero_blocks():
    res = direct_sum_check(Mat.zeros(F3, 1), Mat.zeros(F3, 1))
    assert res.ok and res.pairs_checked == 81


@pytest.mark.parametrize("c", [0, 1, 2])
def test_direct_sum_nilpotent_plus_scalar(c):
    res = direct_sum_check(E21, Mat(F3, [[c]]))
    assert res.ok
    assert res.pairs_checked == 3**6
    assert res.forward_violations == 0
    assert res.assembled_violations == 0
    assert res.moment_violations == 0


def test_direct_sum_sampled_over_f5():
    a1 = Mat(GF(5), [[0, 1], [0, 0]])
    a2 = Mat.diag(GF(5), [1, 2])
    res = direct_sum_check(a1, a2, samples=60, seed=1)
    assert res.ok
