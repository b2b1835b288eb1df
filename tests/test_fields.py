import random

import pytest

from frobkit import GF, QQ, DescriptorMismatch, DivisionByZero, FieldElem, NotFiniteField
from frobkit import fields
from frobkit.fields import default_modulus


def test_f3_basics():
    F = GF(3)
    assert F.add(2, 2) == 1
    assert F.inv(2) == 2
    assert F.mul(2, 2) == 1
    assert F.neg(1) == 2


def test_f9_modulus_and_u_square():
    F = GF(9)
    assert F.modulus == (1, 0, 1)  # u^2 + 1
    u = F.encode([0, 1])
    assert F.mul(u, u) == F.neg(1) == 2


def test_f25_default_modulus():
    F = GF(25)
    assert F.modulus == (2, 0, 1)  # u^2 + 2 (since -2 is a non-square mod 5)


def test_default_modulus_is_deterministic():
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(3, 3) == (1, 2, 0, 1)  # u^3 + 2u + 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_field_axioms_random(q):
    F = GF(q)
    rng = random.Random(q)
    one, zero = F.one, F.zero
    for _ in range(1000):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == zero
        if a != zero:
            assert F.mul(a, F.inv(a)) == one


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_frobenius_identity_exhaustive(q):
    # a^q = a for every element of GF(q), q <= 27
    F = GF(q)
    for a in F.elements():
        assert F.pow(a, q) == a


@pytest.mark.parametrize("q", [9, 25, 27])
def test_pth_root_inverts_frobenius(q):
    F = GF(q)
    p = F.characteristic
    for a in F.elements():
        assert F.pth_root(F.pow(a, p)) == a
        assert F.pow(F.pth_root(a), p) == a


def test_extension_subtraction_and_division():
    F = GF(9)
    rng = random.Random(0)
    for _ in range(300):
        a, b = F.random(rng), F.random(rng)
        assert F.add(F.sub(a, b), b) == a
        if b != 0:
            assert F.mul(F.div(a, b), b) == a


def test_char_two_fields_are_constructible():
    F4 = GF(4)
    assert F4.characteristic == 2
    assert F4.order == 4
    # arithmetic works fine; odd-only operations live elsewhere and refuse
    assert F4.add(1, 1) == 0


def test_rationals_are_exact():
    from fractions import Fraction

    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


def test_field_elem_operators():
    F = GF(7)
    a, b = F.elem(3), F.elem(5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (a / b).value == F.mul(3, F.inv(5))
    assert (-a).value == 4
    assert (a**6).value == 1
    assert a == 3 and a != 4


def test_descriptor_mismatch():
    a = GF(3).elem(1)
    b = GF(5).elem(1)
    with pytest.raises(DescriptorMismatch):
        _ = a + b


def test_division_by_zero():
    F = GF(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        _ = F.elem(3) / F.elem(0)


def test_canonical_coercion():
    F = GF(3)
    assert F.coerce(-1) == 2
    assert F.coerce(7) == 1
    F9 = GF(9)
    assert F9.coerce(-1) == 2  # constant digit of -1
    assert F9.coerce(5) == 5  # codes pass through


def test_elements_enumeration():
    assert list(GF(3).elements()) == [0, 1, 2]
    assert len(list(GF(9).elements())) == 9
    with pytest.raises(NotFiniteField):
        QQ.elements()


def test_gf_factory_identifies_prime_powers():
    assert GF(9).characteristic == 3
    assert GF(9).degree == 2
    assert GF(25) is GF(25)  # cached
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(12)


def test_field_elem_repr_and_hash():
    F = GF(9)
    e = FieldElem(F, 4)
    assert hash(e) == hash(FieldElem(F, 4))
    assert "GF(3^2)" in repr(e)


def _least_irreducible_brute(p, k):
    """Least base-p code of a monic degree-k polynomial that is no product of
    two monic polynomials of lower degree."""
    def monic(d):
        for code in range(p**d):
            yield [(code // p**i) % p for i in range(d)] + [1]

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return out

    reducible = {
        tuple(times(f, g)) for d in range(1, k // 2 + 1) for f in monic(d) for g in monic(k - d)
    }
    return next(tuple(f) for f in monic(k) if tuple(f) not in reducible)


def test_default_moduli_match_brute_force_up_to_512():
    pairs = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for k in range(2, 10) if p**k <= 512]
    assert len(pairs) == 20
    for p, k in pairs:
        assert default_modulus(p, k) == _least_irreducible_brute(p, k), (p, k)


def test_custom_modulus_must_be_irreducible():
    assert GF(3, 2, modulus=(2, 1, 1)).modulus == (2, 1, 1)  # u^2 + u + 2
    with pytest.raises(ValueError):
        GF(3, 2, modulus=(2, 0, 1))  # u^2 + 2 = (u + 1)(u + 2)


def test_gf_rejects_orders_below_two():
    for q in (0, 1, -5):
        with pytest.raises(ValueError):
            GF(q)


def test_gf_large_orders():
    assert GF(2**61 - 1).order == 2**61 - 1
    F = GF(1_000_000_007**2)
    assert (F.characteristic, F.degree) == (1_000_000_007, 2)
    big = GF(999_999_999_989**2)  # the order is past the bound below, its root is not
    assert (big.characteristic, big.degree) == (999_999_999_989, 2)
    with pytest.raises(ValueError):
        GF(2**89 - 1)  # prime, but past the bound where the test is exact
    with pytest.raises(ValueError):
        GF(2**61 * 3)


# -- the lookup tables ------------------------------------------------------------

TABLED = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for k in range(2, 10) if p**k <= 512]

# Moduli passed by hand, with the order of their root u: the first two do
# not make u a generator of F_q^*, the third does.
CUSTOM_MODULI = [
    ((3, 2, (1, 0, 1)), 4, (2,)),
    ((2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), 51, (3, 17)),
    ((7, 2, (3, 1, 1)), 48, (2, 3)),
]


def _pairwise_tables(F):
    """The tables by q(q+1)/2 polynomial products and an O(q^2) inverse search."""
    q, p = F.order, F.p
    add = [0] * (q * q)
    mul = [0] * (q * q)
    mod = list(F.modulus)
    decoded = [F.decode(a) for a in range(q)]
    for a in range(q):
        da = decoded[a]
        for b in range(a, q):
            s = F.encode([(x + y) % p for x, y in zip(da, decoded[b])])
            add[a * q + b] = add[b * q + a] = s
            m = F.encode(fields._poly_mulmod_p(da, decoded[b], mod, p))
            mul[a * q + b] = mul[b * q + a] = m
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a * q + b] == 1)
    neg = [F.encode([(-x) % p for x in decoded[a]]) for a in range(q)]
    return add, mul, inv, neg


def _assert_tables_match_oracle(F):
    assert F._tables_built
    add, mul, inv, neg = _pairwise_tables(F)
    assert F._add == add
    assert F._mul == mul
    assert F._inv == inv
    assert F._neg == neg


def test_tabled_pairs():
    assert len(TABLED) == 20


@pytest.mark.parametrize("p,k", TABLED)
def test_tables_match_pairwise_oracle(p, k):
    _assert_tables_match_oracle(GF(p, k))


@pytest.mark.parametrize("spec,u_order,primes", CUSTOM_MODULI)
def test_tables_match_oracle_for_custom_moduli(spec, u_order, primes):
    F = GF(*spec)
    u = F.encode([0, 1])
    assert F.pow(u, u_order) == 1
    assert all(F.pow(u, u_order // r) != 1 for r in primes)
    _assert_tables_match_oracle(F)


@pytest.mark.parametrize("q", [9, 25, 243])
def test_table_sub_exhaustive(q):
    F = GF(q)
    for a in F.elements():
        for b in F.elements():
            assert F.sub(a, b) == F.add(a, F.neg(b))


def test_untabled_sub_random():
    F = GF(625)
    assert not F._tables_built
    rng = random.Random(625)
    for _ in range(2000):
        a, b = F.random(rng), F.random(rng)
        assert F.sub(a, b) == F.add(a, F.neg(b))
        assert F.add(F.sub(a, b), b) == a


def test_table_build_makes_linearly_many_products(monkeypatch):
    calls = [0]
    orig = fields._poly_mulmod_p

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(fields, "_poly_mulmod_p", counted)
    for p, k in TABLED:
        calls[0] = 0
        F = fields.ExtensionField(p, k)
        assert F._tables_built
        assert calls[0] < 8 * F.order, (p, k, calls[0])


def test_tables_built_flag():
    # The benchmark's tracer splits table ops from polynomial ops on this flag.
    assert GF(243)._tables_built
    assert GF(512)._tables_built
    assert not GF(625)._tables_built
