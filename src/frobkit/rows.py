"""Row kernels: the one home of dot, matvec, elimination and echelon insertion.

Vectors are lists of raw field values and a matrix is a list of its rows, so
every algorithm above this layer (solving, determinants, Krylov chains,
canonical forms, span membership) shares the same few loops. Products skip
zero operands, which keeps sparse and structured inputs cheap.

An echelon is a list of (pivot, row) pairs with row[pivot] = 1 and zeros
before the pivot. Each row also vanishes at the pivots of the rows listed
before it, so one pass in list order clears a vector at every pivot.
"""

from __future__ import annotations

from .fields import Field


def dot(F: Field, u, v):
    """sum u[i] v[i] over the common length."""
    add, mul, zero = F.add, F.mul, F.zero
    acc = zero
    for a, b in zip(u, v):
        if a != zero and b != zero:
            acc = add(acc, mul(a, b))
    return acc


def matvec(F: Field, rows: list, v) -> list:
    """A v, for A given by its rows."""
    return [dot(F, row, v) for row in rows]


def krylov(F: Field, rows: list, v, k: int) -> list:
    """The chain v, A v, ..., A^(k-1) v of k vectors, for A given by its rows."""
    chain = [v] if k > 0 else []
    for _ in range(k - 1):
        chain.append(matvec(F, rows, chain[-1]))
    return chain


def vecmat(F: Field, u, rows: list) -> list:
    """u A, for A given by its rows: the combination sum u[i] rows[i]."""
    add, mul, zero = F.add, F.mul, F.zero
    out = [zero] * (len(rows[0]) if rows else 0)
    for c, row in zip(u, rows):
        if c == zero:
            continue
        for j, x in enumerate(row):
            if x != zero:
                out[j] = add(out[j], mul(c, x))
    return out


def reduce(F: Field, ech: list, v) -> list:
    """A copy of v minus the multiples of the echelon rows that clear its pivots.

    Rows may be shorter than v; columns past a row's end are left alone.
    """
    sub, mul, zero = F.sub, F.mul, F.zero
    v = list(v)
    for piv, row in ech:
        c = v[piv]
        if c != zero:
            for t in range(piv, len(row)):
                v[t] = sub(v[t], mul(c, row[t]))
    return v


def insert(F: Field, ech: list, v, m: int | None = None) -> tuple:
    """Reduce v against ech and, if a pivot is left, append it to ech.

    Pivots are sought among the first m columns (all of them by default);
    later columns ride along, e.g. to record which combination v is. Returns
    (pivot, remainder): the remainder is v reduced but not yet scaled, so
    remainder[pivot] is the pivot value. The pivot is None when v lies in
    the span of ech, which is then left as it was.
    """
    rest = reduce(F, ech, v)
    zero, one = F.zero, F.one
    pivot = next((t for t in range(len(rest) if m is None else m) if rest[t] != zero), None)
    if pivot is None:
        return None, rest
    row = rest
    if rest[pivot] != one:
        s, mul = F.inv(rest[pivot]), F.mul
        row = rest[:pivot] + [mul(x, s) for x in rest[pivot:]]
    ech.append((pivot, row))
    return pivot, rest


def rref(F: Field, rows: list, m: int | None = None) -> list:
    """Gauss-Jordan elimination in place over the first m columns of rows.

    Columns past m (an augmented right-hand side) are carried along. Returns
    the pivot columns: row i of the result has its unit pivot at pivots[i],
    and the rows past len(pivots) are zero in their first m columns.
    """
    sub, mul, inv, zero, one = F.sub, F.mul, F.inv, F.zero, F.one
    n = len(rows)
    if m is None:
        m = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(m):
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c] != zero), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        total = len(rr)
        if rr[c] != one:
            scale = inv(rr[c])
            for j in range(c, total):
                rr[j] = mul(rr[j], scale)
        for i in range(n):
            f = rows[i][c]
            if i != r and f != zero:
                ri = rows[i]
                for j in range(c, total):
                    ri[j] = sub(ri[j], mul(f, rr[j]))
        pivots.append(c)
        r += 1
    return pivots
