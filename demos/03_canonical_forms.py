"""Rational canonical form, elementary divisors, and transpose conjugation.

Run with:  python demos/03_canonical_forms.py
"""

import random

from frobkit import (
    GF,
    Mat,
    Poly,
    centralizer_dimension,
    charpoly,
    companion,
    elementary_divisor_form,
    frobenius_form,
    inverse,
    minimal_polynomial,
    orbit_dimension,
    smith_invariant_factors,
    transpose_conjugator,
)
from frobkit.canonical import centralizer_dim_from_chain
from frobkit.verify import random_matrix

F = GF(3)
rng = random.Random(2026)

# companion matrices follow the convention: ones under the diagonal,
# negated coefficients in the last column
f = Poly(F, [1, 0, 1])  # x^2 + 1, irreducible over GF(3)
c = companion(f**2)
print("companion of (x^2+1)^2 over GF(3):")
for row in c.to_lists():
    print("   ", row)
print("charpoly:", charpoly(c).pretty(), " minpoly:", minimal_polynomial(c).pretty())

# a random matrix decomposes into companion blocks of its invariant factors
a = random_matrix(F, 5, rng)
ff = frobenius_form(a)
print("\nrandom 5x5 over GF(3):")
print("invariant factors:", [g.pretty() for g in ff.invariant_factors])
print("Smith form of xI - A agrees:",
      smith_invariant_factors(a) == ff.invariant_factors)

g = ff.transform
assert g @ a @ inverse(g) == ff.block_matrix()
print("transform verified: g A g^(-1) equals the companion block matrix")

# elementary divisors refine each invariant factor into prime powers
ed = elementary_divisor_form(a)
print("elementary divisor blocks:", [(p.pretty(), e) for p, e in ed.blocks])
assert ed.transform @ a @ inverse(ed.transform) == ed.block_matrix()

# every matrix is conjugate to its transpose over the ground field;
# the witness comes from the canonical form plus symmetric Hankel blocks
t = transpose_conjugator(a)
assert t @ a.transpose() @ inverse(t) == a
print("\ntranspose conjugation verified: g A^t g^(-1) = A")
print("the witness is symmetric:", t == t.transpose())

# centralizer dimension two ways: kernel of B -> [A, B], and the
# sum of min(deg f_i, deg f_j) over invariant factors
print("\ncentralizer dimension (kernel):", centralizer_dimension(a))
print("centralizer dimension (formula):",
      centralizer_dim_from_chain(smith_invariant_factors(a)))
print("orbit dimension:", orbit_dimension(a))

# the 0x0 matrix is a legal degenerate case end to end
z = Mat.identity(F, 0)
print("\n0x0 matrix: charpoly =", charpoly(z).pretty(),
      " invariant factors =", frobenius_form(z).invariant_factors)
