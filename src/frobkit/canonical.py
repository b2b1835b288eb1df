"""Companion matrices, invariant factors, and canonical conjugations.

Invariant factors are computed two independent ways: `frobenius_form` runs a
cyclic decomposition directly over the ground field (maximal vector, then an
invariant complement cut out by a dual functional), while
`smith_invariant_factors` reduces A to Hessenberg form H by the similarity
`charpoly` uses, splits the unit subdiagonal pivots off xI - H, and runs a
Euclidean Smith loop over F[x] on the k x k rest, one row and column per
unreduced block of H. The two share no Krylov chain; they must agree, and
tests hold them to that.

The transpose conjugator g with g A^t g^(-1) = A comes from the Frobenius
transform and a symmetric Hankel matrix per companion block: for a companion
matrix C of f, C H = H C^t where H[r][c] is the x^(r+c+1) coefficient of f.

The commutator equation [A, B] = Y, and with Y = 0 the centralizer, is
solved in the Frobenius basis: one d_i x d_i system f_j(C_i) per pair of
invariant factors, O(n^3) in all (see `_commutator_solve`). Its kernel
dimension is checked against the invariant-factor formula of the Smith form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlgorithmDisagreement,
    EvenCharacteristicUnsupported,
    NotFiniteField,
    NotMonic,
    NotSquare,
)
from .fields import Field
from .matrix import (
    Mat,
    SolveResult,
    annihilator_chain,
    block_diag,
    hessenberg_rows,
    inverse,
    kernel_basis,
    solve_linear,
    unit_col,
)
from .poly import Poly, factor, poly_gcd, poly_lcm
from .rows import dot, krylov, matvec, vecmat


def companion(f: Poly) -> Mat:
    """Companion matrix: ones under the diagonal, -coefficients in the last column."""
    if not f.is_monic:
        raise NotMonic("companion matrix wants a monic polynomial")
    F = f.field
    n = int(f.degree)
    cells = [F.zero] * (n * n)
    for i in range(n - 1):
        cells[(i + 1) * n + i] = F.one
    for i in range(n):
        cells[i * n + (n - 1)] = F.neg(f.coeff(i))
    return Mat.from_raw(F, n, n, cells)


def companion_block_matrix(field: Field, factors) -> Mat:
    return block_diag(field, [companion(f) for f in factors])


# -- Krylov helpers ------------------------------------------------------------


def poly_at_vector(f: Poly, a: Mat, v: list) -> list:
    """f(A) v by Horner on vectors; never forms f(A)."""
    F = a.field
    rows = a.rows_list()
    zero = F.zero
    acc = [zero] * len(v)
    add, mul = F.add, F.mul
    for c in reversed(f.coeffs):
        acc = matvec(F, rows, acc)
        if c != zero:
            acc = [add(x, mul(c, y)) for x, y in zip(acc, v)]
    return acc


def _coprime_split(g: Poly, h: Poly) -> tuple[Poly, Poly]:
    """g1 | g, h1 | h with g1 h1 = lcm(g, h) and gcd(g1, h1) = 1."""
    d = poly_gcd(g, h)
    g1 = g // d
    while True:
        t = poly_gcd(g1, g // g1)
        if t.degree <= 0:
            break
        g1 = g1 * t
    h1 = poly_lcm(g, h) // g1
    return g1.monic(), h1.monic()


def _maximal_vector(a: Mat, span: list[list], cap: Poly | None) -> tuple[Poly, list[list]]:
    """The minimal polynomial g of A on the A-invariant space spanned by span,
    with the Krylov chain w, Aw, ..., A^(deg g - 1)w of a vector w attaining it.

    Walks the vectors of span, merging each new local annihilator into the
    running one by a coprime split; stops once deg g fills the space or g
    reaches `cap`, a known multiple of the minimal polynomial (the previous
    block's factor), since every later vector's annihilator divides it.
    """
    F = a.field
    g, chain = annihilator_chain(a, span[0])
    for v in span[1:]:
        if g.degree == len(span) or g == cap:
            break
        ann, _ = annihilator_chain(a, v)
        if (g % ann).is_zero:
            continue
        combined = poly_lcm(g, ann)
        g1, h1 = _coprime_split(g, ann)
        u1 = poly_at_vector(g // g1, a, chain[0])
        u2 = poly_at_vector(ann // h1, a, v)
        g, chain = annihilator_chain(a, [F.add(x, y) for x, y in zip(u1, u2)])
        if g != combined:
            raise AlgorithmDisagreement("maximal-vector combination failed")
    return g, chain


# -- Frobenius (rational canonical) form ---------------------------------------


@dataclass(frozen=True)
class FrobeniusForm:
    """Invariant factors f_1 | ... | f_r and g with g A g^(-1) = blockdiag(companions).

    basis is P = g^(-1), whose columns are the Krylov chains of the blocks.
    """

    invariant_factors: tuple
    transform: Mat
    basis: Mat

    def block_matrix(self) -> Mat:
        return companion_block_matrix(self.transform.field, self.invariant_factors)

    def minimal_polynomial(self) -> Poly:
        if not self.invariant_factors:
            return Poly.one(self.transform.field)
        return self.invariant_factors[-1]


@dataclass(frozen=True)
class ElementaryDivisorForm:
    """Blocks (irreducible f, exponent s) with transform onto companion(f^s) blocks."""

    blocks: tuple  # of (Poly, int), canonically sorted
    transform: Mat

    def block_matrix(self) -> Mat:
        return companion_block_matrix(
            self.transform.field, [p**e for p, e in self.blocks]
        )


def _columns_matrix(field: Field, n: int, cols: list[list]) -> Mat:
    return Mat.from_raw(
        field, n, len(cols), [cols[j][i] for i in range(n) for j in range(len(cols))]
    )


def _verified_basis(a: Mat, polys, chains, what: str) -> Mat:
    """P with the chains as columns, checked against A P = P blockdiag(companion(f))."""
    p_mat = _columns_matrix(a.field, a.nrows, [w for chain in chains for w in chain])
    if a @ p_mat != p_mat @ companion_block_matrix(a.field, polys):
        raise AlgorithmDisagreement(f"{what} failed verification")
    return p_mat


def frobenius_form(a: Mat) -> FrobeniusForm:
    """Cyclic decomposition of A with an explicit, verified transform.

    Works in V throughout, on a basis `span` of an A-invariant subspace W,
    at first the unit vectors. Each round peels one cyclic block off W: a
    vector w whose annihilator g (degree d) is the minimal polynomial of A
    on W, with its chain w, Aw, ..., A^(d-1)w. If the chain fills W the
    decomposition is complete; otherwise any functional psi with
    psi A^i w = [i = d-1] for i < d cuts the next W as the x in W with
    psi A^j x = 0 for j < d. That space is A-invariant because g(A) kills W,
    and the anti-triangular moment matrix [psi A^(i+j) w] makes it a
    complement of the chain in W.
    """
    if not a.is_square:
        raise NotSquare("canonical form of a non-square matrix")
    F = a.field
    n = a.nrows
    rows = a.rows_list()
    blocks: list[tuple[Poly, list[list]]] = []  # largest invariant factor first
    span = [[F.one if i == j else F.zero for i in range(n)] for j in range(n)]
    g = None
    while span:
        g, chain = _maximal_vector(a, span, g)
        blocks.append((g, chain))
        d = len(chain)
        if d == len(span):
            break
        chain_mat = Mat.from_raw(F, d, n, [x for w in chain for x in w])
        psi = solve_linear(chain_mat, unit_col(F, d, d - 1)).particular.cells
        cut: list = []
        for j in range(d):  # psi A^j x for j < d; psi A^d is never read
            if j:
                psi = vecmat(F, psi, rows)
            cut.extend(dot(F, psi, x) for x in span)
        nker = kernel_basis(Mat.from_raw(F, d, len(span), cut))
        if len(nker) != len(span) - d:
            raise AlgorithmDisagreement("complement dimension off")
        span = [vecmat(F, k.cells, span) for k in nker]
    blocks.reverse()
    factors = tuple(g for g, _ in blocks)
    p_mat = _verified_basis(a, factors, [chain for _, chain in blocks], "cyclic decomposition")
    for f1, f2 in zip(factors, factors[1:]):
        if not (f2 % f1).is_zero:
            raise AlgorithmDisagreement("divisibility chain broken")
    return FrobeniusForm(factors, inverse(p_mat), p_mat)


# -- Smith normal form of xI - A (invariant-factor check) ------------------------


def _char_matrix(field: Field, rows: list[list]) -> list[list[Poly]]:
    """xI - A as rows of polynomials, from the rows of A."""
    neg, one = field.neg, field.one
    return [
        [Poly.from_raw(field, [neg(c), one] if i == j else [neg(c)]) for j, c in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def smith_invariant_factors(a: Mat) -> tuple:
    """Nonunit diagonal of the Smith form of xI - A, in divisibility order.

    A is first reduced to Hessenberg form H (`hessenberg_rows`, as in
    `charpoly`). Each nonzero H[r+1][r] is a unit pivot of xI - H at (r+1, r);
    left to right, row ops with it clear column r from the live rows: row 0
    and each row r+1 with H[r+1][r] = 0. The pivot row is still its row of
    xI - H, so each op multiplies by a constant or by x - c, and the pivot
    row and column then split off as a unit. The k x k rest, on the live rows
    and the block-end columns, goes to the Euclidean loop; k = 1 for most A.
    """
    if not a.is_square:
        raise NotSquare("invariant factors of a non-square matrix")
    F = a.field
    n = a.nrows
    if n == 0:
        return ()
    M = _char_matrix(F, hessenberg_rows(a))
    live, ends = [0], []
    for r in range(n - 1):
        pivot_row = M[r + 1]
        if pivot_row[r].is_zero:
            live.append(r + 1)
            ends.append(r)
            continue
        pinv = F.inv(pivot_row[r].coeffs[0])
        for i in live:
            row = M[i]
            if row[r].is_zero:
                continue
            q = row[r] * pinv
            for c in range(r + 1, n):
                if not pivot_row[c].is_zero:
                    row[c] = row[c] - q * pivot_row[c]
    ends.append(n - 1)
    return _euclidean_smith([[M[i][c] for c in ends] for i in live])


def _euclidean_smith(M: list[list[Poly]]) -> tuple:
    """Nonunit diagonal of the Smith form of a square polynomial matrix of
    full rank, monic and in divisibility order; M is overwritten.

    Pivots on the entry of least degree; when a remainder survives a
    division step the pass repeats, and the minimum degree strictly drops,
    so the loop terminates. After a pivot clears its row and column it must
    divide the remaining block; a violating row is folded in and reprocessed.
    """
    n = len(M)
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if not M[i][j].is_zero and (
                        best is None or M[i][j].degree < M[best[0]][best[1]].degree
                    ):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                M[t], M[bi] = M[bi], M[t]
            if bj != t:
                for row in M:
                    row[t], row[bj] = row[bj], row[t]
            piv = M[t][t]
            dirty = False
            for r in range(t + 1, n):
                if M[r][t].is_zero:
                    continue
                q = M[r][t] // piv
                if not q.is_zero:
                    for c2 in range(t, n):
                        M[r][c2] = M[r][c2] - q * M[t][c2]
                if not M[r][t].is_zero:
                    dirty = True
            for c in range(t + 1, n):
                if M[t][c].is_zero:
                    continue
                q = M[t][c] // piv
                if not q.is_zero:
                    for r2 in range(t, n):
                        M[r2][c] = M[r2][c] - q * M[r2][t]
                if not M[t][c].is_zero:
                    dirty = True
            if dirty:
                continue
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (M[i][j] % piv).is_zero:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for c2 in range(t, n):
                M[t][c2] = M[t][c2] + M[bad][c2]
    diag = [M[i][i].monic() for i in range(n)]
    return tuple(d for d in diag if d.degree > 0)


def elementary_divisor_form(a: Mat) -> ElementaryDivisorForm:
    """Split each invariant factor into prime powers and respin the transform."""
    F = a.field
    if not F.is_finite:
        raise NotFiniteField("elementary divisors need factorization over F_q")
    if F.characteristic == 2:
        raise EvenCharacteristicUnsupported("factorization implemented for odd q only")
    ff = frobenius_form(a)
    offset = 0
    blocks: list[tuple[Poly, int, list[list]]] = []
    rows = a.rows_list()
    for f in ff.invariant_factors:
        w = ff.basis.col(offset)
        offset += int(f.degree)
        for prime, exp in factor(f):
            u = poly_at_vector(f // (prime**exp), a, w)
            blocks.append((prime, exp, krylov(F, rows, u, exp * int(prime.degree))))
    blocks.sort(key=lambda b: (b[0].sort_key(), b[1]))
    polys = [p**e for p, e, _ in blocks]
    p2 = _verified_basis(a, polys, [c for _, _, c in blocks], "elementary divisor transform")
    return ElementaryDivisorForm(tuple((p, e) for p, e, _ in blocks), inverse(p2))


# -- transpose conjugation --------------------------------------------------------


def _companion_hankel(f: Poly) -> Mat:
    """Symmetric H with companion(f) H = H companion(f)^t; unit anti-diagonal."""
    F = f.field
    d = int(f.degree)
    coeffs = list(f.coeffs)  # a_0..a_d with a_d = 1

    def at(idx: int):
        return coeffs[idx] if idx <= d else F.zero

    return Mat.from_raw(
        F, d, d, [at(r + c + 1) for r in range(d) for c in range(d)]
    )


def transpose_conjugator(a: Mat, form: FrobeniusForm | None = None) -> Mat:
    """Invertible g with g A^t g^(-1) = A, assembled from the Frobenius form;
    `form` may pass frobenius_form(a) when the caller has it."""
    if not a.is_square:
        raise NotSquare("transpose conjugation of a non-square matrix")
    F = a.field
    if a.nrows == 0:
        return Mat.identity(F, 0)
    ff = form if form is not None else frobenius_form(a)
    s = block_diag(F, [_companion_hankel(f) for f in ff.invariant_factors])
    p_mat = ff.basis
    g = p_mat @ s @ p_mat.transpose()
    if g @ a.transpose() != a @ g:
        raise AlgorithmDisagreement("transpose conjugator failed verification")
    return g


# -- centralizer and orbit dimensions ---------------------------------------------


def _commutator_solve(ff: FrobeniusForm, y: Mat | None, basis: bool = False) -> SolveResult:
    """Solve [A, B] = Y for B, given the Frobenius form of A; y None means Y = 0.

    With T = ff.transform, P = ff.basis and C = T A P = blockdiag(companion(f_j)),
    B = P X T turns the equation into C X - X C = Z for Z = T Y P. Down the
    d_j columns of block j it reads x_(k+1) = C x_k - z_k, so every column
    follows from x_0, and the last one closes the chain: f_j(C) x_0 = r_j,
    with r_j = -sum_m coeff_m(f_j) u_m for the chain u_0 = 0,
    u_(m+1) = C u_m - z_m. As C is block diagonal, that system splits into
    the d_i x d_i systems f_j(C_i), each solved by elimination.

    Returns a SolveResult for ad_A: particular is B with free variables 0
    (None when Y is not a commutator with A), rank is n^2 - dim C(A), and
    kernel is a basis of the centralizer C(A) as n x n matrices when `basis`
    is set, else empty.
    """
    T, P = ff.transform, ff.basis
    F = T.field
    n = T.nrows
    zero, sub, mul = F.zero, F.sub, F.mul
    factors = ff.invariant_factors
    starts = [0]
    for f in factors:
        starts.append(starts[-1] + int(f.degree))
    companions = [companion(g) for g in factors]
    c_rows = block_diag(F, companions).rows_list()
    z_cols = (T @ y @ P).transpose().rows_list() if y is not None else [[zero] * n] * n

    def chain(x, zs) -> list:
        """x, C x - z_0, C(C x - z_0) - z_1, ...: one vector more than zs."""
        out = [x]
        for z in zs:
            out.append([sub(a, b) for a, b in zip(matvec(F, c_rows, out[-1]), z)])
        return out

    def to_b(cols: list) -> Mat:
        return P @ _columns_matrix(F, n, cols) @ T

    consistent = True
    nullity = 0
    x_cols: list[list] = []
    kernel: list[Mat] = []
    for f, s in zip(factors, starts):
        d = int(f.degree)
        zs = z_cols[s : s + d]
        r = [zero] * n
        for a_m, u in zip(f.coeffs, chain([zero] * n, zs)):
            if a_m != zero:
                r = [sub(x, mul(a_m, w)) for x, w in zip(r, u)]
        x0 = [zero] * n
        for c_i, t in zip(companions, starts):
            e = c_i.nrows
            res = solve_linear(_poly_at_companion(f, c_i), Mat.from_raw(F, e, 1, r[t : t + e]))
            nullity += len(res.kernel)
            if res.consistent:
                x0[t : t + e] = res.particular.cells
            else:
                consistent = False
            if basis:
                for k in res.kernel:
                    u = [zero] * n
                    u[t : t + e] = k.cells
                    cols = [[zero] * n] * n
                    cols[s : s + d] = krylov(F, c_rows, u, d)
                    kernel.append(to_b(cols))
        x_cols.extend(chain(x0, zs[:-1]))
    particular = to_b(x_cols) if consistent else None
    return SolveResult(particular, kernel, n * n - nullity)


def _poly_at_companion(f: Poly, c: Mat) -> Mat:
    """f(C) for a companion matrix C in O(deg f d^2 + d^3), not by Horner on
    matrices: C e_k = e_(k+1) and f(C) commutes with C, so f(C) e_k = C^k f(C) e_0."""
    F = c.field
    f_e0 = poly_at_vector(f, c, unit_col(F, c.nrows, 0).cells)
    return _columns_matrix(F, c.nrows, krylov(F, c.rows_list(), f_e0, c.nrows))


def centralizer_dim_from_chain(chain) -> int:
    """sum of min(deg f_i, deg f_j) over all pairs of invariant factors."""
    degs = [int(f.degree) for f in chain]
    return sum(min(d1, d2) for d1 in degs for d2 in degs)


def centralizer_dimension(a: Mat) -> int:
    """dim C(A), by eliminating the block systems f_j(C_i) of the Frobenius
    basis (see `_commutator_solve`). The independent route is
    centralizer_dim_from_chain(smith_invariant_factors(a))."""
    if not a.is_square:
        raise NotSquare("centralizer of a non-square matrix")
    return a.nrows * a.nrows - _commutator_solve(frobenius_form(a), None).rank


def orbit_dimension(a: Mat) -> int:
    """Dimension of the conjugation orbit: n^2 minus the centralizer dimension."""
    return a.nrows * a.nrows - centralizer_dimension(a)
