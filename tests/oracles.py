"""Slow reference routes that the tests hold the library against.

`ad_matrix` is the n^2 x n^2 matrix of B -> [A, B]: its rank gives the
centralizer dimension and solving it decides commutator-range membership,
both at O(n^6). `transpose_conjugator_by_solve` solves g A^t = A g directly
and searches the solution space for an invertible g. The library computes
both answers in the Frobenius basis instead (`canonical._commutator_solve`,
`canonical.transpose_conjugator`). `principal_minor_sums_by_subsets` sums
determinants where the library reads the charpoly, and
`class_sizes_by_enumeration` counts matrices where `census.orbit_stats`
uses the centralizer-order formula. `smith_invariant_factors_without_hessenberg`
runs the Euclidean Smith loop on all of xI - A, where the library first splits
off the unit pivots of the Hessenberg form.
"""

from __future__ import annotations

import itertools
import random

from frobkit.canonical import _char_matrix, _euclidean_smith, smith_invariant_factors
from frobkit.errors import AlgorithmDisagreement, NotSquare
from frobkit.fields import Field
from frobkit.matrix import Mat, charpoly, det, kernel_basis, rank


def principal_minor_sums_by_subsets(a: Mat) -> tuple:
    """c_0..c_n by enumerating all principal minors directly."""
    if not a.is_square:
        raise NotSquare("principal minors of a non-square matrix")
    F = a.field
    n = a.nrows
    out = []
    for k in range(n + 1):
        acc = F.zero
        for subset in itertools.combinations(range(n), k):
            acc = F.add(acc, det(a.submatrix(subset, subset)))
        out.append(acc)
    return tuple(out)


def smith_invariant_factors_without_hessenberg(a: Mat) -> tuple:
    """Nonunit Smith invariants of the full n x n matrix xI - A."""
    if not a.is_square:
        raise NotSquare("invariant factors of a non-square matrix")
    return _euclidean_smith(_char_matrix(a.field, a.rows_list()))


def class_sizes_by_enumeration(F: Field, n: int) -> dict:
    """{(charpoly, invariant factors): count} over all q^(n^2) n x n matrices."""
    sizes: dict[tuple, int] = {}
    elems = list(F.elements())
    for cells in itertools.product(elems, repeat=n * n):
        m = Mat.from_raw(F, n, n, list(cells))
        key = (charpoly(m), smith_invariant_factors(m))
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def ad_matrix(a: Mat) -> Mat:
    """The n^2 x n^2 matrix of B -> [A, B] in the standard basis (row-major vec)."""
    if not a.is_square:
        raise NotSquare("ad of a non-square matrix")
    F = a.field
    n = a.nrows
    cells = [F.zero] * (n * n * n * n)
    width = n * n
    for k in range(n):
        for l in range(n):
            cidx = k * n + l
            for i in range(n):
                # (A E_kl)[i][l] = A[i][k]
                if a[i, k] != F.zero:
                    cells[(i * n + l) * width + cidx] = F.add(
                        cells[(i * n + l) * width + cidx], a[i, k]
                    )
            for j in range(n):
                # (E_kl A)[k][j] = A[l][j]
                if a[l, j] != F.zero:
                    cells[(k * n + j) * width + cidx] = F.sub(
                        cells[(k * n + j) * width + cidx], a[l, j]
                    )
    return Mat.from_raw(F, width, width, cells)


def transpose_conjugator_by_solve(a: Mat, seed: int = 0, max_tries: int = 64) -> Mat:
    """The literal route: solve g A^t = A g, then pick an invertible solution.

    Greedy rank improvement over the kernel basis, with a bounded randomized
    fallback. An invertible solution exists over the ground field since A is
    conjugate to its transpose.
    """
    if not a.is_square:
        raise NotSquare("transpose conjugation of a non-square matrix")
    F = a.field
    n = a.nrows
    if n == 0:
        return Mat.identity(F, 0)
    at = a.transpose()
    cols = []
    for k in range(n):
        for l in range(n):
            col = [F.zero] * (n * n)
            for j in range(n):
                # (E_kl A^t)[k][j]
                col[k * n + j] = F.add(col[k * n + j], at[l, j])
            for i in range(n):
                # (A E_kl)[i][l]
                col[i * n + l] = F.sub(col[i * n + l], a[i, k])
            cols.append(col)
    op = Mat.from_raw(
        F, n * n, n * n,
        [cols[c][r] for r in range(n * n) for c in range(n * n)],
    )
    basis = kernel_basis(op)
    if not basis:
        raise AlgorithmDisagreement("solution space of g A^t = A g is never zero")

    def to_mat(cells) -> Mat:
        return Mat.from_raw(F, n, n, list(cells))

    def is_invertible(m: Mat) -> bool:
        return rank(m) == n

    g = to_mat(basis[0].col(0))
    if not is_invertible(g):
        scalars = list(F.elements()) if F.is_finite else [F.coerce(k) for k in range(-4, 5)]
        for b in basis[1:]:
            if is_invertible(g):
                break
            bm = to_mat(b.col(0))
            best, best_rank = g, rank(g)
            for t in scalars:
                cand = g + bm.scale(t)
                r = rank(cand)
                if r > best_rank:
                    best, best_rank = cand, r
            g = best
    if not is_invertible(g):
        rng = random.Random(seed)
        for _ in range(max_tries):
            cells = [F.zero] * (n * n)
            for b in basis:
                t = F.random(rng)
                bc = b.col(0)
                cells = [F.add(c, F.mul(t, x)) for c, x in zip(cells, bc)]
            g = to_mat(cells)
            if is_invertible(g):
                break
        else:
            raise RuntimeError("no invertible solution found within retry bound")
    if g @ at != a @ g:
        raise AlgorithmDisagreement("transpose conjugator failed verification")
    return g
