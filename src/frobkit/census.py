"""Similarity classes of matrices with a prescribed characteristic polynomial.

Classes correspond to a choice, per irreducible factor of multiplicity m, of
a partition of m (the exponents of that factor across the elementary
divisors). Centralizer dimensions come from the invariant-factor degree
formula; exact class sizes are counted by brute enumeration when the matrix
space is small enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canonical import centralizer_dim_from_chain, smith_invariant_factors
from .errors import EvenCharacteristicUnsupported, NotFiniteField, NotMonic
from .matrix import Mat, charpoly
from .poly import Poly, factor


@dataclass(frozen=True)
class ClassRow:
    invariant_factors: tuple
    centralizer_dim: int
    orbit_dim: int
    class_size: int | None


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


def classes_with_charpoly(g: Poly, seed: int = 0) -> list[tuple[Poly, ...]]:
    """All invariant-factor chains f_1 | ... | f_r with product g."""
    if not g.is_monic:
        raise NotMonic("characteristic polynomial must be monic")
    if not g.field.is_finite:
        raise NotFiniteField("class enumeration needs a finite field")
    if g.field.characteristic == 2:
        raise EvenCharacteristicUnsupported("factorization implemented for odd q only")
    fac = factor(g, seed=seed)
    per_prime = [list(_partitions(m)) for _, m in fac]
    chains = []
    for combo in itertools.product(*per_prime):
        depth = max((len(lam) for lam in combo), default=0)
        factors = []
        for slot in range(depth):  # slot 0 pairs the largest parts
            f = Poly.one(g.field)
            for (p, _), lam in zip(fac, combo):
                if slot < len(lam):
                    f = f * p ** lam[slot]
            factors.append(f)
        chains.append(tuple(reversed(factors)))
    chains.sort(key=lambda ch: tuple(f.sort_key() for f in ch))
    return chains


def orbit_stats(g: Poly, exact_bound: int = 100_000, seed: int = 0) -> list[ClassRow]:
    """One row per similarity class with charpoly g.

    Class sizes are counted exactly, by enumerating all q^(n^2) matrices,
    when q^(n^2) <= exact_bound; otherwise they are omitted (None).
    """
    chains = classes_with_charpoly(g, seed=seed)
    F = g.field
    n = int(g.degree) if not g.is_zero else 0
    do_count = F.order ** (n * n) <= exact_bound
    sizes: dict[tuple, int] = {}
    if do_count:
        elems = list(F.elements())
        for cells in itertools.product(elems, repeat=n * n):
            m = Mat.from_raw(F, n, n, list(cells))
            if charpoly(m) != g:
                continue
            chain = smith_invariant_factors(m)
            sizes[chain] = sizes.get(chain, 0) + 1
    rows = []
    for chain in chains:
        cdim = centralizer_dim_from_chain(chain)
        rows.append(
            ClassRow(
                invariant_factors=chain,
                centralizer_dim=cdim,
                orbit_dim=n * n - cdim,
                class_size=sizes.get(chain, 0) if do_count else None,
            )
        )
    return rows
