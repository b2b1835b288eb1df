"""Rank-one perturbation kernels.

The heart of the library: given the principal minor sums c_0..c_n of A and
the moment scalars phi A^j v, the minor sums of A + lam * v(x)phi follow by an
O(n^2) coefficient update instead of an O(n^3) recomputation. The companion
pieces here are the moment iterator (Krylov-style, never forms matrix
powers), the matrix chain C_(k+1) = c_k I - A C_k whose final element
vanishes by Cayley-Hamilton, and a deterministic conjugator that exposes a
nonzero (1,1) entry of any nonzero matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import AlgorithmDisagreement, LengthMismatch, NotSquare, ShapeMismatch
from .fields import Field
from .matrix import (
    Mat,
    charpoly,
    charpoly_berkowitz,
    coeffs_from_charpoly,
    inverse,
    kernel_basis,
    outer,
    row_vector,
)
from .rows import dot, krylov


@dataclass(frozen=True)
class MomentSequence:
    """Scalars m_j = phi A^j v for j < len; keeps its provenance triple."""

    field: Field
    values: tuple
    source: tuple = dc_field(default=(), repr=False)  # (A, v, phi) when known

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int):
        return self.values[j]

    def __iter__(self):
        return iter(self.values)

    @property
    def all_zero(self) -> bool:
        z = self.field.zero
        return all(v == z for v in self.values)

    def first_nonzero(self) -> int | None:
        z = self.field.zero
        for j, v in enumerate(self.values):
            if v != z:
                return j
        return None


def _check_triple_shapes(a: Mat, v: Mat, phi: Mat) -> int:
    if not a.is_square:
        raise ShapeMismatch("A must be square")
    n = a.nrows
    if v.nrows != n or v.ncols != 1:
        raise ShapeMismatch(f"v must be {n}x1")
    if phi.nrows != 1 or phi.ncols != n:
        raise ShapeMismatch(f"phi must be 1x{n}")
    a.field.check_same(v.field)
    a.field.check_same(phi.field)
    return n


def moments(a: Mat, v: Mat, phi: Mat, count: int) -> MomentSequence:
    """m_j = phi A^j v for j = 0..count-1, by iterated matrix-vector products."""
    _check_triple_shapes(a, v, phi)
    F = a.field
    pr = phi.row(0)
    chain = krylov(F, a.rows_list(), v.col(0), count)
    return MomentSequence(F, tuple(dot(F, pr, w) for w in chain), source=(a, v, phi))


def update_coefficients(c, m: MomentSequence, lam) -> tuple:
    """Minor sums of A + lam * v(x)phi from those of A and the moments of (A, v, phi).

    c'_k = c_k + lam * sum_{j<k} (-1)^j c_{k-1-j} m_j, so a zero moment
    sequence leaves every coefficient fixed for every lam.
    """
    F = m.field
    c = [F.coerce(x) for x in c]
    n = len(c) - 1
    if not c or c[0] != F.one:
        raise LengthMismatch("coefficient sequence must start with c_0 = 1")
    if len(m) < n:
        raise LengthMismatch(f"need at least {n} moments, got {len(m)}")
    lam = F.coerce(lam)
    add, sub, mul, zero = F.add, F.sub, F.mul, F.zero
    out = [c[0]]
    for k in range(1, n + 1):
        acc = zero
        negate = False
        for j in range(k):
            term = mul(c[k - 1 - j], m[j])
            acc = sub(acc, term) if negate else add(acc, term)
            negate = not negate
        out.append(add(c[k], mul(lam, acc)))
    return tuple(out)


@dataclass(frozen=True)
class UpdateReport:
    """Coefficient update next to the direct recomputation, for one instance.

    direct_hessenberg and direct_berkowitz are the minor sums of the perturbed
    matrix from the two charpoly algorithms.
    """

    c_of_a: tuple
    c_of_perturbed: tuple
    lam: object
    matched_direct: bool
    direct_hessenberg: tuple
    direct_berkowitz: tuple


def update_report(a: Mat, v: Mat, phi: Mat, lam) -> UpdateReport:
    """Run the O(n^2) update and compare against both direct charpoly paths."""
    n = _check_triple_shapes(a, v, phi)
    F = a.field
    lam = F.coerce(lam)
    c_a = coeffs_from_charpoly(charpoly(a))
    m = moments(a, v, phi, n)
    c_new = update_coefficients(c_a, m, lam)
    perturbed = a + outer(v, phi).scale(lam)
    direct_h = coeffs_from_charpoly(charpoly(perturbed))
    direct_b = coeffs_from_charpoly(charpoly_berkowitz(perturbed))
    matched = c_new == direct_h == direct_b
    return UpdateReport(c_a, c_new, lam, matched, direct_h, direct_b)


def faddeev_chain(a: Mat) -> list[Mat]:
    """Matrices C_1..C_(n+1) with C_1 = I and C_(k+1) = c_k I - A C_k.

    The closed form is C_(k+1) = sum_{j<=k} (-1)^j c_(k-j) A^j, so the last
    element is (-1)^n P_A(A) = 0. Coefficients come from charpoly, never from
    trace division, which would fail in small characteristic.
    """
    if not a.is_square:
        raise NotSquare("chain of a non-square matrix")
    F = a.field
    n = a.nrows
    c = coeffs_from_charpoly(charpoly(a))
    ident = Mat.identity(F, n)
    chain = [ident]
    for k in range(1, n + 1):
        chain.append(ident.scale(c[k]) - a @ chain[k - 1])
    return chain


def nonzero_corner_conjugator(m: Mat) -> Mat | None:
    """An invertible B with (B m B^-1)[0,0] != 0, or None when m = 0.

    Deterministic: find (v, phi) with phi v != 0 and phi m v != 0 (a short
    sweep works over any field with at least 3 elements), then complete
    phi and the hyperplane of w = v / (phi v) to a basis.
    """
    if not m.is_square:
        raise NotSquare("corner conjugation of a non-square matrix")
    if m.is_zero:
        return None
    F = m.field
    n = m.nrows
    zero = F.zero
    diag_hit = next((i for i in range(n) if m[i, i] != zero), None)
    if diag_hit is not None:
        v = [zero] * n
        v[diag_hit] = F.one
        phi = list(v)
    else:
        i, j = next(
            (i, j) for i in range(n) for j in range(n) if m[i, j] != zero
        )
        v = phi = None
        for s in _scalar_candidates(F):
            for t in _scalar_candidates(F):
                if F.add(s, t) == zero:
                    continue
                val = m[i, j]
                val = F.add(val, F.mul(t, m[i, i]))
                val = F.add(val, F.mul(s, m[j, j]))
                val = F.add(val, F.mul(F.mul(s, t), m[j, i]))
                if val != zero:
                    v = [zero] * n
                    v[j] = F.one
                    v[i] = F.add(v[i], t)
                    phi = [zero] * n
                    phi[i] = F.one
                    phi[j] = F.add(phi[j], s)
                    break
            if v is not None:
                break
        if v is None:
            raise ValueError("needs a field with at least 3 elements")
    inv_pair = F.inv(dot(F, phi, v))
    w = [F.mul(c, inv_pair) for c in v]
    # rows: phi on top, then a basis of the annihilator of w
    ann = kernel_basis(row_vector(F, w))
    rows = [phi] + [k.col(0) for k in ann]
    b = Mat(F, rows)
    if (b @ m @ inverse(b))[0, 0] == zero:
        raise AlgorithmDisagreement("corner construction failed post-hoc verification")
    return b


def _scalar_candidates(F: Field):
    if F.is_finite:
        return F.elements()
    return (F.coerce(k) for k in range(4))
