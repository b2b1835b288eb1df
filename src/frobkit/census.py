"""Similarity classes of matrices with a prescribed characteristic polynomial.

Classes correspond to a choice, per irreducible factor of multiplicity m, of
a partition of m (the exponents of that factor across the elementary
divisors). Centralizer dimensions come from the invariant-factor degree
formula. Class sizes are exact for every n: |GL_n(q)| / |C(A)|, with the
centralizer order read off the partitions (Macdonald, Symmetric Functions
and Hall Polynomials, ch. IV), and checked against Reiner's count of the
matrices with charpoly g (Illinois J. Math. 5, 1961).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

from .canonical import centralizer_dim_from_chain
from .errors import AlgorithmDisagreement, EvenCharacteristicUnsupported, NotFiniteField, NotMonic
from .poly import Poly, factor


@dataclass(frozen=True)
class ClassRow:
    invariant_factors: tuple
    centralizer_dim: int
    orbit_dim: int
    class_size: int


def _partitions(m: int):
    """All descending partitions of m."""

    def rec(left: int, cap: int):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest

    return rec(m, m)


def _class_types(g: Poly) -> list[tuple[tuple, tuple]]:
    """(invariant-factor chain, ((prime, partition), ...)) per class, sorted by chain."""
    if not g.is_monic:
        raise NotMonic("characteristic polynomial must be monic")
    if not g.field.is_finite:
        raise NotFiniteField("class enumeration needs a finite field")
    if g.field.characteristic == 2:
        raise EvenCharacteristicUnsupported("factorization implemented for odd q only")
    fac = factor(g)
    primes = [p for p, _ in fac]
    types = []
    for combo in itertools.product(*(_partitions(m) for _, m in fac)):
        depth = max((len(lam) for lam in combo), default=0)
        factors = []
        for slot in range(depth):  # slot 0 pairs the largest parts
            f = Poly.one(g.field)
            for p, lam in zip(primes, combo):
                if slot < len(lam):
                    f = f * p ** lam[slot]
            factors.append(f)
        types.append((tuple(reversed(factors)), tuple(zip(primes, combo))))
    types.sort(key=lambda t: tuple(f.sort_key() for f in t[0]))
    return types


def classes_with_charpoly(g: Poly) -> list[tuple[Poly, ...]]:
    """All invariant-factor chains f_1 | ... | f_r with product g."""
    return [chain for chain, _ in _class_types(g)]


def _gl_order(n: int, q: int) -> int:
    return prod(q**n - q**i for i in range(n))


def _centralizer_order(primes) -> int:
    """|C(A)| = prod_f Q^(sum lam'_i^2) prod_i prod_(k <= m_i(lam)) (1 - Q^-k), Q = q^deg f."""
    order = 1
    for p, lam in primes:
        Q = p.field.order ** int(p.degree)
        conj = (sum(1 for part in lam if part > i) for i in range(lam[0]))
        mults = Counter(lam).values()
        order *= Q ** (sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults))
        order *= prod(Q**k - 1 for m in mults for k in range(1, m + 1))
    return order


def orbit_stats(g: Poly) -> list[ClassRow]:
    """One row per similarity class with charpoly g, with its exact size
    |GL_n(q)| / |C(A)|; the sizes must add up to Reiner's count
    |GL_n(q)| prod_(f^m || g) Q^(m(m-1)) / |GL_m(Q)|."""
    types = _class_types(g)
    q = g.field.order
    n = int(g.degree)
    gl = _gl_order(n, q)
    rows = []
    for chain, primes in types:
        cdim = centralizer_dim_from_chain(chain)
        rows.append(ClassRow(chain, cdim, n * n - cdim, gl // _centralizer_order(primes)))
    reiner, denom = gl, 1
    for p, lam in types[0][1]:  # any class: its partitions sum to the multiplicities
        Q, m = q ** int(p.degree), sum(lam)
        reiner *= Q ** (m * (m - 1))
        denom *= _gl_order(m, Q)
    if sum(r.class_size for r in rows) * denom != reiner:
        raise AlgorithmDisagreement("class sizes do not add up to the charpoly count")
    return rows
