"""Geometry of triples (A, v, phi) in gl(V) x V x V*.

The extended group GL(V) x| S2 acts on triples; the sign -1 component sends
(A, v, phi) to (A^t, phi^t, v^t) twisted by conjugation. Two subsets of the
pair space drive everything here: the moment-null pairs (every phi A^k v
vanishes) and the commutator-range pairs (v (x) phi lies in [A, gl(V)]). The
second is contained in the first; membership functions return certificates
so failures replay from the report alone. Commutator-range membership and
its witness come from the Frobenius-basis solve in `canonical`, and every
witness is re-checked against [A, B] = v (x) phi before it is returned.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .canonical import FrobeniusForm, _commutator_solve, companion, frobenius_form
from .errors import (
    AlgorithmDisagreement,
    EvenCharacteristicUnsupported,
    NotCoprime,
    NotIrreducible,
    NotMonic,
    NotFiniteField,
    ShapeMismatch,
    TooLargeForExhaustive,
)
from .fields import Field
from .matrix import (
    Mat,
    block_diag,
    charpoly,
    commutator,
    inverse,
    outer,
    poly_at_matrix,
    solve_linear,
)
from .poly import Poly, as_rational_function, is_irreducible, poly_gcd
from .rankone import MomentSequence, _check_triple_shapes, moments
from .rows import dot, insert, reduce, rref


@dataclass(frozen=True)
class Triple:
    a: Mat
    v: Mat
    phi: Mat

    def __post_init__(self):
        _check_triple_shapes(self.a, self.v, self.phi)

    @property
    def n(self) -> int:
        return self.a.nrows

    @property
    def field(self) -> Field:
        return self.a.field


class GroupElement:
    """(g, sign) in GL(V) x| S2; sign -1 composes through g -> (g^-1)^t."""

    __slots__ = ("g", "sign", "g_inv")

    def __init__(self, g: Mat, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not g.is_square:
            raise ShapeMismatch("group element must be square")
        self.g = g
        self.sign = sign
        self.g_inv = inverse(g)  # raises if singular

    @staticmethod
    def identity(field: Field, n: int) -> "GroupElement":
        return GroupElement(Mat.identity(field, n), 1)

    def compose(self, other: "GroupElement") -> "GroupElement":
        twisted = other.g if self.sign == 1 else other.g_inv.transpose()
        return GroupElement(self.g @ twisted, self.sign * other.sign)

    def inverse(self) -> "GroupElement":
        if self.sign == 1:
            return GroupElement(self.g_inv, 1)
        return GroupElement(self.g.transpose(), -1)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.sign == other.sign
            and self.g == other.g
        )

    def __repr__(self):
        return f"GroupElement(sign={self.sign}, g={self.g!r})"


def act(e: GroupElement, t: Triple) -> Triple:
    """(g,1): (gAg^-1, gv, phi g^-1); (g,-1): (gA^t g^-1, g phi^t, v^t g^-1)."""
    g, gi = e.g, e.g_inv
    if g.nrows != t.n:
        raise ShapeMismatch("group element size does not match the triple")
    if e.sign == 1:
        return Triple(g @ t.a @ gi, g @ t.v, t.phi @ gi)
    return Triple(
        g @ t.a.transpose() @ gi,
        g @ t.phi.transpose(),
        t.v.transpose() @ gi,
    )


def triple_charpoly(t: Triple) -> Poly:
    """The conjugation invariant attached to a triple: charpoly of its matrix."""
    return charpoly(t.a)


def pairing(v: Mat, phi: Mat):
    """The scalar phi v (the quadratic form on V + V* evaluated at (v, phi))."""
    v.field.check_same(phi.field)
    if v.ncols != 1 or phi.nrows != 1 or v.nrows != phi.ncols:
        raise ShapeMismatch("pairing wants a column and a matching row")
    return dot(v.field, phi.row(0), v.col(0))


def rank_one_shift(t: Triple, lam) -> Triple:
    """(A + lam * v(x)phi, v, phi); shifting by -lam undoes it."""
    lam = t.field.coerce(lam)
    return Triple(t.a + outer(t.v, t.phi).scale(lam), t.v, t.phi)


def twist(t: Triple, f) -> Triple:
    """(A, f(A)v, phi f(A)) for rational f with numerator and denominator
    coprime to charpoly(A); fiber-preserving and invertible via 1/f."""
    rf = as_rational_function(f)
    t.field.check_same(rf.field)
    chi = charpoly(t.a)
    if poly_gcd(rf.num, chi).degree > 0 or poly_gcd(rf.den, chi).degree > 0:
        raise NotCoprime("numerator and denominator must be coprime to charpoly(A)")
    if rf.num.is_zero:
        raise NotCoprime("the zero function is not invertible")
    fa = poly_at_matrix(rf, t.a)
    return Triple(t.a, fa @ t.v, t.phi @ fa)


# -- membership certificates -----------------------------------------------------


@dataclass(frozen=True)
class MomentNullCertificate:
    """Whether all phi A^k v vanish; n moments decide (Cayley-Hamilton truncation)."""

    vanishes: bool
    witness_index: int | None
    moments: MomentSequence

    def __bool__(self) -> bool:
        return self.vanishes


def moment_vanishing(t: Triple) -> MomentNullCertificate:
    m = moments(t.a, t.v, t.phi, t.n)
    idx = m.first_nonzero()
    return MomentNullCertificate(idx is None, idx, m)


@dataclass(frozen=True)
class CommutatorRangeCertificate:
    """Whether v (x) phi = [A, B] for some B; carries a verified witness B."""

    member: bool
    witness: Mat | None

    def __bool__(self) -> bool:
        return self.member


def commutator_range(t: Triple, form: FrobeniusForm | None = None) -> CommutatorRangeCertificate:
    """Decide v (x) phi in [A, gl] with a witness B, solved in the Frobenius
    basis of A; `form` may pass frobenius_form(t.a) when the caller has it."""
    target = outer(t.v, t.phi)
    b = _commutator_solve(form if form is not None else frobenius_form(t.a), target).particular
    if b is None:
        return CommutatorRangeCertificate(False, None)
    if commutator(t.a, b) != target:
        raise AlgorithmDisagreement("commutator witness failed re-check")
    return CommutatorRangeCertificate(True, b)


# -- the three-way equivalence ------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Moment vanishing vs charpoly stability under every rank-one shift.

    all_vanish:  every phi A^k v = 0;
    stable_all:  charpoly(A + lam v(x)phi) = charpoly(A) for all tested lam;
    stable_some: the same for at least one lam != 0.
    The three must agree (odd characteristic); `consistent` says they do.
    """

    all_vanish: bool
    stable_all: bool
    stable_some: bool
    lambdas: tuple
    mismatch_lambda: object | None

    @property
    def consistent(self) -> bool:
        return self.all_vanish == self.stable_all == self.stable_some


def equivalence_report(t: Triple, rational_lambda_bound: int = 8) -> EquivalenceReport:
    F = t.field
    if F.characteristic == 2:
        raise EvenCharacteristicUnsupported(
            "the equivalence needs characteristic different from 2"
        )
    base = charpoly(t.a)
    if F.is_finite:
        lambdas = list(F.elements())
    else:
        lambdas = []
        for k in range(1, rational_lambda_bound + 1):
            lambdas.extend((F.coerce(k), F.coerce(-k)))
    vp = outer(t.v, t.phi)
    stable_all = True
    stable_some = False
    mismatch = None
    for lam in lambdas:
        stays = charpoly(t.a + vp.scale(lam)) == base
        if not stays:
            stable_all = False
            if mismatch is None:
                mismatch = lam
        elif lam != F.zero:
            stable_some = True
    mv = moment_vanishing(t)
    return EquivalenceReport(mv.vanishes, stable_all, stable_some, tuple(lambdas), mismatch)


# -- filtration of a companion block -------------------------------------------------


@dataclass(frozen=True)
class Filtration:
    """U_i = f(A)^i V for A = companion(f^s), with dual spaces on the V* side.

    spaces[i] holds a reduced column basis of U_i (an n x dim matrix);
    dual_spaces[i] holds a reduced row basis of the annihilator of U_(s-i),
    which coincides with the row space of f(A)^i.
    """

    f: Poly
    s: int
    matrix: Mat
    spaces: tuple
    dual_spaces: tuple

    @property
    def dims(self) -> tuple:
        return tuple(m.ncols for m in self.spaces)


def _rref_rows(rows: list[list], F: Field) -> list[list]:
    """Reduced row echelon form, zero rows dropped; canonical for comparisons."""
    work = [r[:] for r in rows]
    return work[: len(rref(F, work))]


def _column_space(m: Mat) -> Mat:
    """Canonical (RREF-of-transpose) column basis, returned as columns."""
    F = m.field
    rows = _rref_rows([m.col(j) for j in range(m.ncols)], F)
    return Mat.from_raw(
        F, m.nrows, len(rows), [rows[j][i] for i in range(m.nrows) for j in range(len(rows))]
    )


def _row_space(m: Mat) -> Mat:
    F = m.field
    rows = _rref_rows(m.rows_list(), F)
    return Mat(F, rows) if rows else Mat.from_raw(F, 0, m.ncols, [])


def _annihilator_rows(basis_cols: Mat) -> Mat:
    """Row space of functionals vanishing on the given column space."""
    F = basis_cols.field
    n = basis_cols.nrows
    if basis_cols.ncols == 0:
        return _row_space(Mat.identity(F, n))
    ker = solve_linear(basis_cols.transpose(), Mat.zeros(F, basis_cols.ncols, 1)).kernel
    rows = [k.col(0) for k in ker]
    return _row_space(Mat(F, rows)) if rows else Mat.from_raw(F, 0, n, [])


def filtration(f: Poly, s: int) -> Filtration:
    """Descending chain f(A)^i V for A = companion(f^s), i = 0..s, plus duals.

    Self-checks the dimension formula dim U_i = (s - i) deg f and the
    agreement of the annihilator construction with the row space of f(A)^i.
    """
    F = f.field
    if not F.is_finite:
        raise NotFiniteField("filtrations are built over finite fields")
    if F.characteristic == 2:
        raise EvenCharacteristicUnsupported("odd characteristic only")
    if not f.is_monic:
        raise NotMonic("f must be monic")
    if not is_irreducible(f):
        raise NotIrreducible(f"{f.pretty()} is not irreducible")
    if s < 0:
        raise ValueError("exponent must be >= 0")
    k = int(f.degree)
    n = s * k
    a = companion(f**s)
    fa = poly_at_matrix(f, a)
    power = Mat.identity(F, n)
    spaces = []
    powers = []
    for i in range(s + 1):
        powers.append(power)
        spaces.append(_column_space(power))
        if i < s:
            power = power @ fa
    for i, sp in enumerate(spaces):
        if sp.ncols != (s - i) * k:
            raise AlgorithmDisagreement("filtration dimension formula failed")
    duals = []
    for i in range(s + 1):
        ann = _annihilator_rows(spaces[s - i])
        via_rows = _row_space(powers[i])
        if ann != via_rows:
            raise AlgorithmDisagreement("dual filtration cross-check failed")
        duals.append(ann)
    return Filtration(f, s, a, tuple(spaces), tuple(duals))


def _echelon(F: Field, vecs: list[list]) -> list:
    """Echelon of a reduced basis, for O(n^2) membership tests by `reduce`."""
    ech: list = []
    for v in vecs:
        insert(F, ech, v)
    return ech


def _in_span(F: Field, ech: list, vec) -> bool:
    zero = F.zero
    return all(x == zero for x in reduce(F, ech, vec))


@dataclass(frozen=True)
class FiltrationUnionCheck:
    """Exhaustive comparison: moment-null pairs vs the union of U_i + U*_(s-i)."""

    ok: bool
    pairs_checked: int
    members: int
    counterexample: tuple | None


def filtration_union_check(f: Poly, s: int, pair_bound: int = 6561) -> FiltrationUnionCheck:
    """Enumerate every (v, phi) and test: moments vanish iff some i has
    v in U_i and phi in the annihilator of U_(s-i)."""
    filt = filtration(f, s)
    F = f.field
    n = filt.matrix.nrows
    q = F.order
    total = q ** (2 * n)
    if total > pair_bound:
        raise TooLargeForExhaustive(f"{total} pairs exceed the bound {pair_bound}")
    a = filt.matrix
    col_ech = [_echelon(F, [sp.col(j) for j in range(sp.ncols)]) for sp in filt.spaces]
    row_ech = [_echelon(F, du.rows_list()) for du in filt.dual_spaces]
    elems = list(F.elements())
    members = 0
    checked = 0
    for vt in itertools.product(elems, repeat=n):
        v = Mat.from_raw(F, n, 1, list(vt))
        v_in = [_in_span(F, col_ech[i], vt) for i in range(s + 1)]
        for pt in itertools.product(elems, repeat=n):
            phi = Mat.from_raw(F, 1, n, list(pt))
            checked += 1
            mnull = moments(a, v, phi, n).first_nonzero() is None
            union = any(
                v_in[i] and _in_span(F, row_ech[s - i], pt) for i in range(s + 1)
            )
            if mnull != union:
                return FiltrationUnionCheck(False, checked, members, (vt, pt, mnull, union))
            if mnull:
                members += 1
    return FiltrationUnionCheck(True, checked, members, None)


# -- direct sums ----------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSumCheck:
    """Both inclusions tied to A1 (+) A2, with riding moment-null spot checks."""

    ok: bool
    pairs_checked: int
    forward_violations: int
    assembled_violations: int
    moment_violations: int
    counterexample: tuple | None


def direct_sum_check(
    a1: Mat,
    a2: Mat,
    samples: int = 200,
    seed: int = 0,
    exhaustive_bound: int = 6561,
) -> DirectSumCheck:
    """For pairs (v, phi) on V1 + V2, check that membership of v (x) phi in
    [A1 (+) A2, gl] forces blockwise membership, and that blockwise witnesses
    assemble block-diagonally to certify blockdiag(v1 (x) phi1, v2 (x) phi2).
    Also rides along: every commutator-range member is moment-null.
    """
    a1.field.check_same(a2.field)
    F = a1.field
    n1, n2 = a1.nrows, a2.nrows
    n = n1 + n2
    a = block_diag(F, [a1, a2])
    forms = [frobenius_form(m) for m in (a, a1, a2)]

    if F.is_finite and F.order ** (2 * n) <= exhaustive_bound:
        elems = list(F.elements())
        pair_iter = (
            (list(vt), list(pt))
            for vt in itertools.product(elems, repeat=n)
            for pt in itertools.product(elems, repeat=n)
        )
    else:
        rng = random.Random(seed)
        pair_iter = (
            ([F.random(rng) for _ in range(n)], [F.random(rng) for _ in range(n)])
            for _ in range(samples)
        )

    forward = assembled = momentv = checked = 0
    first_bad = None
    for vc, pc in pair_iter:
        checked += 1
        v = Mat.from_raw(F, n, 1, vc)
        phi = Mat.from_raw(F, 1, n, pc)
        v1, v2 = Mat.from_raw(F, n1, 1, vc[:n1]), Mat.from_raw(F, n2, 1, vc[n1:])
        p1, p2 = Mat.from_raw(F, 1, n1, pc[:n1]), Mat.from_raw(F, 1, n2, pc[n1:])
        full, b1, b2 = (
            _commutator_solve(ff, outer(x, y)).particular
            for ff, x, y in zip(forms, (v, v1, v2), (phi, p1, p2))
        )
        if full is not None:
            if b1 is None or b2 is None:
                forward += 1
                first_bad = first_bad or (vc, pc, "forward")
            t = Triple(a, v, phi)
            if moment_vanishing(t).witness_index is not None:
                momentv += 1
                first_bad = first_bad or (vc, pc, "moment")
        if b1 is not None and b2 is not None:
            assembled_b = block_diag(F, [b1, b2])
            target = block_diag(F, [outer(v1, p1), outer(v2, p2)])
            if commutator(a, assembled_b) != target:
                assembled += 1
                first_bad = first_bad or (vc, pc, "assembled")
    ok = forward == assembled == momentv == 0
    return DirectSumCheck(ok, checked, forward, assembled, momentv, first_bad)
