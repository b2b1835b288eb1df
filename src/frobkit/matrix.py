"""Dense exact matrices over a field.

Row-major immutable cells of raw field values. Two independent
characteristic-polynomial algorithms (Hessenberg reduction and the
division-free Berkowitz method) cross-check each other. The 0x0 matrix is
legal everywhere and has characteristic polynomial 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    NonInvertibleDenominator,
    NotSquare,
    ShapeMismatch,
)
from .fields import Field, FieldElem
from .poly import Poly, RationalFunction, poly_lcm
from .rows import dot, insert, matvec, rref


class Mat:
    __slots__ = ("field", "nrows", "ncols", "cells")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        data = []
        ncols = None
        nrows = 0
        for row in rows:
            row = [field.coerce(c) for c in row]
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ShapeMismatch("ragged rows")
            data.extend(row)
            nrows += 1
        self.field = field
        self.nrows = nrows
        self.ncols = ncols if ncols is not None else 0
        self.cells = tuple(data)

    @staticmethod
    def from_raw(field: Field, nrows: int, ncols: int, cells: Sequence) -> "Mat":
        m = object.__new__(Mat)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.cells = tuple(cells)
        if len(m.cells) != nrows * ncols:
            raise ShapeMismatch("cell count does not match shape")
        return m

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int | None = None) -> "Mat":
        if ncols is None:
            ncols = nrows
        return Mat.from_raw(field, nrows, ncols, [field.zero] * (nrows * ncols))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        cells = [field.zero] * (n * n)
        for i in range(n):
            cells[i * n + i] = field.one
        return Mat.from_raw(field, n, n, cells)

    @staticmethod
    def diag(field: Field, entries: Iterable) -> "Mat":
        entries = [field.coerce(e) for e in entries]
        n = len(entries)
        cells = [field.zero] * (n * n)
        for i, e in enumerate(entries):
            cells[i * n + i] = e
        return Mat.from_raw(field, n, n, cells)

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.cells[i * self.ncols + j]

    def elem(self, i: int, j: int) -> FieldElem:
        return FieldElem(self.field, self[i, j])

    def row(self, i: int) -> list:
        return list(self.cells[i * self.ncols : (i + 1) * self.ncols])

    def col(self, j: int) -> list:
        return [self.cells[i * self.ncols + j] for i in range(self.nrows)]

    def rows_list(self) -> list[list]:
        return [self.row(i) for i in range(self.nrows)]

    def to_lists(self) -> list[list]:
        return self.rows_list()

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(c == z for c in self.cells)

    def _same_field(self, other: "Mat") -> None:
        self.field.check_same(other.field)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("addition shapes differ")
        add = self.field.add
        return Mat.from_raw(
            self.field, self.nrows, self.ncols,
            [add(a, b) for a, b in zip(self.cells, other.cells)],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("subtraction shapes differ")
        sub = self.field.sub
        return Mat.from_raw(
            self.field, self.nrows, self.ncols,
            [sub(a, b) for a, b in zip(self.cells, other.cells)],
        )

    def __neg__(self) -> "Mat":
        neg = self.field.neg
        return Mat.from_raw(self.field, self.nrows, self.ncols, [neg(a) for a in self.cells])

    def scale(self, scalar) -> "Mat":
        s = self.field.coerce(scalar)
        mul = self.field.mul
        return Mat.from_raw(self.field, self.nrows, self.ncols, [mul(a, s) for a in self.cells])

    def __mul__(self, scalar) -> "Mat":
        return self.scale(scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        n, k, m = self.nrows, self.ncols, other.ncols
        a, b = self.cells, other.cells
        out = [zero] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = i * m
            for t in range(k):
                c = arow[t]
                if c == zero:
                    continue
                brow = t * m
                for j in range(m):
                    bv = b[brow + j]
                    if bv != zero:
                        out[orow + j] = add(out[orow + j], mul(c, bv))
        return Mat.from_raw(F, n, m, out)

    def transpose(self) -> "Mat":
        n, m = self.nrows, self.ncols
        return Mat.from_raw(
            self.field, m, n,
            [self.cells[i * m + j] for j in range(m) for i in range(n)],
        )

    def trace(self):
        if not self.is_square:
            raise NotSquare("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.nrows):
            acc = self.field.add(acc, self[i, i])
        return acc

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        return Mat.from_raw(
            self.field, len(rows), len(cols),
            [self.cells[i * self.ncols + j] for i in rows for j in cols],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.cells))

    def __repr__(self):
        rows = [" ".join(self.field.to_str(c) for c in self.row(i)) for i in range(self.nrows)]
        return f"Mat({self.field}, {self.nrows}x{self.ncols}: [" + "; ".join(rows) + "])"


# -- vectors -------------------------------------------------------------------


def col_vector(field: Field, entries: Iterable) -> Mat:
    return Mat(field, [[e] for e in entries])

def row_vector(field: Field, entries: Iterable) -> Mat:
    return Mat(field, [list(entries)])

def unit_col(field: Field, n: int, i: int) -> Mat:
    cells = [field.zero] * n
    cells[i] = field.one
    return Mat.from_raw(field, n, 1, cells)

def unit_row(field: Field, n: int, i: int) -> Mat:
    cells = [field.zero] * n
    cells[i] = field.one
    return Mat.from_raw(field, 1, n, cells)


def outer(v: Mat, phi: Mat) -> Mat:
    """Rank-one matrix v (x) phi with (v (x) phi) u = (phi u) v."""
    v.field.check_same(phi.field)
    if v.ncols != 1 or phi.nrows != 1:
        raise ShapeMismatch("outer product wants a column and a row")
    if v.nrows != phi.ncols:
        raise ShapeMismatch("outer product dimensions differ")
    F = v.field
    mul = F.mul
    n = v.nrows
    out = [F.zero] * (n * n)
    for i in range(n):
        vi = v.cells[i]
        if vi == F.zero:
            continue
        for j in range(n):
            out[i * n + j] = mul(vi, phi.cells[j])
    return Mat.from_raw(F, n, n, out)


def commutator(a: Mat, b: Mat) -> Mat:
    if not (a.is_square and b.is_square and a.nrows == b.nrows):
        raise ShapeMismatch("commutator wants same-size square matrices")
    return a @ b - b @ a


def block_diag(field: Field, blocks: Sequence[Mat]) -> Mat:
    n = sum(b.nrows for b in blocks)
    m = sum(b.ncols for b in blocks)
    out = [field.zero] * (n * m)
    ro, co = 0, 0
    for b in blocks:
        field.check_same(b.field)
        for i in range(b.nrows):
            for j in range(b.ncols):
                out[(ro + i) * m + (co + j)] = b[i, j]
        ro += b.nrows
        co += b.ncols
    return Mat.from_raw(field, n, m, out)


# -- linear solving --------------------------------------------------------------


@dataclass
class SolveResult:
    """Particular solution (None when inconsistent), kernel basis of A, rank of A."""

    particular: Mat | None
    kernel: list[Mat]
    rank: int

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def solve_linear(a: Mat, b: Mat) -> SolveResult:
    """Solve A X = b exactly; kernel columns have free variables set to 0/1."""
    a._same_field(b)
    if a.nrows != b.nrows:
        raise ShapeMismatch("A and b row counts differ")
    F = a.field
    zero = F.zero
    n, m, w = a.nrows, a.ncols, b.ncols
    rows = [a.row(i) + b.row(i) for i in range(n)]
    pivots = rref(F, rows, m)
    rank = len(pivots)
    kernel = _kernel_from_rref(F, rows, pivots, m)
    for i in range(rank, n):
        if any(rows[i][m + j] != zero for j in range(w)):
            return SolveResult(None, kernel, rank)
    # particular solution: free variables zero
    part = [zero] * (m * w)
    for ri, c in enumerate(pivots):
        for j in range(w):
            part[c * w + j] = rows[ri][m + j]
    return SolveResult(Mat.from_raw(F, m, w, part), kernel, rank)


def _kernel_from_rref(F: Field, rows: list, pivots: list, m: int) -> list[Mat]:
    zero = F.zero
    pivot_cols = set(pivots)
    basis = []
    for free in range(m):
        if free in pivot_cols:
            continue
        vec = [zero] * m
        vec[free] = F.one
        for ri, c in enumerate(pivots):
            vec[c] = F.neg(rows[ri][free])
        basis.append(Mat.from_raw(F, m, 1, vec))
    return basis


def kernel_basis(a: Mat) -> list[Mat]:
    return solve_linear(a, Mat.zeros(a.field, a.nrows, 1)).kernel


def rank(a: Mat) -> int:
    return solve_linear(a, Mat.zeros(a.field, a.nrows, 1)).rank


def inverse(a: Mat) -> Mat:
    if not a.is_square:
        raise NotSquare("inverse of a non-square matrix")
    res = solve_linear(a, Mat.identity(a.field, a.nrows))
    if res.rank != a.nrows:
        raise DivisionByZero("matrix is singular")
    return res.particular


def det(a: Mat):
    """Determinant as the product of the pivots met while inserting the rows
    into an echelon, signed by the order of the pivot columns; det of 0x0 is 1.

    Each inserted row is reduced against the rows before it, which leaves the
    determinant alone; reordering the columns by pivot makes the reduced rows
    triangular with the pivots on the diagonal.
    """
    if not a.is_square:
        raise NotSquare("determinant of a non-square matrix")
    F = a.field
    ech: list = []
    acc = F.one
    for row in a.rows_list():
        pivot, rest = insert(F, ech, row)
        if pivot is None:
            return F.zero
        acc = F.mul(acc, rest[pivot])
    pivots = [p for p, _ in ech]
    inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1 :])
    return F.neg(acc) if inversions % 2 else acc


# -- characteristic polynomial ---------------------------------------------------


def hessenberg_rows(a: Mat) -> list[list]:
    """Rows of an upper Hessenberg matrix H similar to A, by elementary
    similarities: a row swap paired with a column swap, and a row axpy paired
    with the inverse column axpy. H[i][j] = 0 for i > j + 1."""
    F = a.field
    n = a.nrows
    add, sub, mul, inv, zero = F.add, F.sub, F.mul, F.inv, F.zero
    H = a.rows_list()
    for j in range(n - 2):
        piv = -1
        for i in range(j + 1, n):
            if H[i][j] != zero:
                piv = i
                break
        if piv == -1:
            continue
        if piv != j + 1:
            H[j + 1], H[piv] = H[piv], H[j + 1]
            for row in H:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        pinv = inv(H[j + 1][j])
        for i in range(j + 2, n):
            c = H[i][j]
            if c == zero:
                continue
            f = mul(c, pinv)
            hi, hp = H[i], H[j + 1]
            for col in range(j, n):
                hi[col] = sub(hi[col], mul(f, hp[col]))
            for r in range(n):
                H[r][j + 1] = add(H[r][j + 1], mul(f, H[r][i]))
    return H


def charpoly(a: Mat) -> Poly:
    """det(xI - A) via similarity reduction to Hessenberg form (primary path)."""
    if not a.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    F = a.field
    n = a.nrows
    if n == 0:
        return Poly.one(F)
    add, sub, mul, zero = F.add, F.sub, F.mul, F.zero
    H = hessenberg_rows(a)
    # charpolys of leading principal minors of the Hessenberg matrix
    polys = [[F.one]]
    for k in range(1, n + 1):
        hkk = H[k - 1][k - 1]
        prev = polys[k - 1]
        cur = [zero] * (k + 1)
        for idx, c in enumerate(prev):
            cur[idx + 1] = add(cur[idx + 1], c)
            if hkk != zero and c != zero:
                cur[idx] = sub(cur[idx], mul(hkk, c))
        prod = F.one
        for i in range(k - 1, 0, -1):
            prod = mul(prod, H[i][i - 1])
            if prod == zero:
                break
            coeff = mul(H[i - 1][k - 1], prod)
            if coeff != zero:
                for idx, c in enumerate(polys[i - 1]):
                    if c != zero:
                        cur[idx] = sub(cur[idx], mul(coeff, c))
        polys.append(cur)
    return Poly.from_raw(F, polys[n])


def charpoly_berkowitz(a: Mat) -> Poly:
    """Division-free characteristic polynomial (independent oracle path)."""
    if not a.is_square:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    F = a.field
    n = a.nrows
    if n == 0:
        return Poly.one(F)
    add, mul, neg, zero = F.add, F.mul, F.neg, F.zero
    A = a.rows_list()
    vect = [F.one, neg(A[0][0])]
    for r in range(1, n):
        R = A[r][:r]
        s = [A[i][r] for i in range(r)]
        q = [F.one, neg(A[r][r])]
        for power in range(r):
            q.append(neg(dot(F, R, s)))
            if power < r - 1:
                s = matvec(F, A[:r], s)
        new = [zero] * (r + 2)
        for i in range(r + 2):
            acc = zero
            lo = max(0, i - r - 1)
            for j in range(lo, min(i, len(vect) - 1) + 1):
                vj = vect[j]
                if vj != zero:
                    acc = add(acc, mul(q[i - j], vj))
            new[i] = acc
        vect = new
    return Poly.from_raw(F, list(reversed(vect)))


def coeffs_from_charpoly(p: Poly) -> tuple:
    """Principal minor sums c_0..c_n from det(xI - A) = sum (-1)^k c_k x^(n-k)."""
    F = p.field
    n = int(p.degree)
    out = []
    sign = False
    for k in range(n + 1):
        c = p.coeff(n - k)
        out.append(F.neg(c) if sign else c)
        sign = not sign
    return tuple(out)


def poly_from_coeffs(field: Field, c: Sequence) -> Poly:
    """Rebuild det(xI - A) from minor sums c_0..c_n."""
    n = len(c) - 1
    raw = [field.zero] * (n + 1)
    sign = False
    for k in range(n + 1):
        v = field.coerce(c[k])
        raw[n - k] = field.neg(v) if sign else v
        sign = not sign
    return Poly.from_raw(field, raw)


def principal_minor_sums(a: Mat) -> tuple:
    """c_0..c_n, c_k the sum of the k x k principal minors, read off charpoly(a)."""
    return coeffs_from_charpoly(charpoly(a))


def annihilator_chain(a: Mat, v: list) -> tuple[Poly, list[list]]:
    """Monic annihilator of v under A and the chain v, Av, ..., A^(d-1)v.

    A^j v enters an echelon with e_j appended, so a row's tail records the
    combination of the chain it stands for. The tail is only j + 1 wide:
    earlier rows have shorter tails, so the appended 1 is never reduced and
    the first dependent power leaves a monic polynomial in its tail.
    """
    F = a.field
    n = a.nrows
    rows = a.rows_list()
    ech: list = []
    chain: list[list] = []
    w = list(v)
    while True:
        j = len(chain)
        pivot, rest = insert(F, ech, w + [F.zero] * j + [F.one], n)
        if pivot is None:
            return Poly(F, rest[n:]), chain
        chain.append(w)
        w = matvec(F, rows, w)


def minimal_polynomial(a: Mat) -> Poly:
    """Least monic annihilator, by Krylov chains off the standard basis.

    The lcm of the local annihilators of e_1..e_n is the minimal polynomial;
    vectors already inside the accumulated (A-invariant) Krylov span are
    skipped since their annihilators divide the running lcm.
    """
    if not a.is_square:
        raise NotSquare("minimal polynomial of a non-square matrix")
    F = a.field
    n = a.nrows
    span: list = []  # echelon of the Krylov chains walked so far
    m = Poly.one(F)
    for start in range(n):
        if m.degree == n:
            break
        e = [F.zero] * n
        e[start] = F.one
        if insert(F, span, e)[0] is None:
            continue
        ann, chain = annihilator_chain(a, e)
        m = poly_lcm(m, ann)
        for w in chain[1:]:  # chain[0] is e, inserted above
            insert(F, span, w)
    return m


def poly_at_matrix(f, a: Mat) -> Mat:
    """Evaluate a polynomial or rational function at a square matrix.

    For p/q the denominator must be invertible at A, which the caller
    guarantees by keeping q coprime to the characteristic polynomial.
    """
    if not a.is_square:
        raise NotSquare("evaluation at a non-square matrix")
    if isinstance(f, RationalFunction):
        num = _horner(f.num, a)
        if f.is_polynomial:
            return num
        den = _horner(f.den, a)
        try:
            den_inv = inverse(den)
        except DivisionByZero as exc:
            raise NonInvertibleDenominator(
                "denominator shares a factor with the characteristic polynomial"
            ) from exc
        return num @ den_inv
    if isinstance(f, Poly):
        return _horner(f, a)
    raise TypeError(f"expected Poly or RationalFunction, got {type(f).__name__}")


def _horner(f: Poly, a: Mat) -> Mat:
    F = a.field
    n = a.nrows
    acc = Mat.zeros(F, n, n)
    ident = Mat.identity(F, n)
    for c in reversed(f.coeffs):
        acc = acc @ a
        if c != F.zero:
            acc = acc + ident.scale(c)
    return acc
