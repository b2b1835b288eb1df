"""The benchmark's own exact arithmetic, written apart from frobkit.

Every check in the benchmark recomputes what it needs here: integers mod p,
polynomials mod the field's modulus for GF(p^k), and `Fraction` for Q.
Values use frobkit's raw encodings (an extension element is an int whose
base-p digits are its residue coefficients, constant digit lowest), so
outputs can be compared cell by cell. Nothing here imports frobkit.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own result."""


# -- fields ------------------------------------------------------------------------


class ModP:
    """GF(p) on the integers 0..p-1."""

    def __init__(self, p: int):
        self.p = p
        self.order = p
        self.finite = True
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)


class ModPoly:
    """GF(p^k) = GF(p)[u]/(modulus); products are memoised per pair."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.k = len(modulus) - 1
        self.modulus = tuple(modulus)
        self.order = p**self.k
        self.finite = True
        self.zero, self.one = 0, 1
        self._add: dict = {}
        self._sub: dict = {}
        self._mul: dict = {}

    def digits(self, a: int) -> list:
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d % self.p
        return v

    def _digitwise(self, table: dict, key: int, a: int, b: int, op) -> int:
        hit = table.get(key)
        if hit is None:
            hit = table[key] = self.undigits([op(x, y) for x, y in zip(self.digits(a), self.digits(b))])
        return hit

    def add(self, a, b):
        return self._digitwise(self._add, a * self.order + b, a, b, int.__add__)

    def sub(self, a, b):
        return self._digitwise(self._sub, a * self.order + b, a, b, int.__sub__)

    def neg(self, a):
        return self._digitwise(self._sub, a, 0, a, int.__sub__)

    def mul(self, a, b):
        key = a * self.order + b
        hit = self._mul.get(key)
        if hit is None:
            p, k, m = self.p, self.k, self.modulus
            da, db = self.digits(a), self.digits(b)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] += x * y
            for top in range(2 * k - 2, k - 1, -1):
                c = prod[top] % p
                if c:
                    for j in range(k + 1):
                        prod[top - k + j] -= c * m[j]
            hit = self.undigits(prod[:k])
            self._mul[key] = hit
        return hit

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # a^(q-2) by square and multiply
        r, b, e = 1, a, self.order - 2
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def random(self, rng):
        return rng.randrange(self.order)

    def elements(self):
        return range(self.order)


class Rationals:
    """Q on `fractions.Fraction`."""

    finite = False
    order = None
    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / Fraction(a)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9))


def least_irreducible(p: int, k: int) -> tuple:
    """The monic irreducible of degree k over GF(p) with least base-p code."""
    base = ModP(p)
    for code in range(p**k):
        f = [(code // p**i) % p for i in range(k)] + [1]
        if is_irreducible(base, f):
            return tuple(f)
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


# -- polynomials: coefficient lists low to high, no trailing zeros -------------------


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def padd(F, f, g):
    out = [F.zero] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(out)


def psub(F, f, g):
    return padd(F, f, [F.neg(c) for c in g])


def pmul(F, f, g):
    if not f or not g:
        return []
    if type(F) is ModP:  # plain integers, one reduction per coefficient
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return trim([c % F.p for c in out])
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != 0:
            for j, b in enumerate(g):
                if b != 0:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out)


def pdivmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    d = len(g) - 1
    if len(rem) <= d:
        return [], trim(rem)
    lead = F.inv(g[-1])
    quot = [F.zero] * (len(rem) - d)
    if type(F) is ModP:
        p = F.p
        for top in range(len(rem) - 1, d - 1, -1):
            q = rem[top] * lead % p
            if q:
                quot[top - d] = q
                for j in range(d + 1):
                    rem[top - d + j] -= q * g[j]
                rem[top] %= p
            rem[top - 1] %= p
        return trim(quot), trim([c % p for c in rem[:d]])
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        q = F.mul(c, lead)
        quot[top - d] = q
        for j in range(d + 1):
            rem[top - d + j] = F.sub(rem[top - d + j], F.mul(q, g[j]))
    return trim(quot), trim(rem[:d])


def pexact(F, f, g):
    q, r = pdivmod(F, f, g)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def pmonic(F, f):
    if not f or f[-1] == F.one:
        return list(f)
    s = F.inv(f[-1])
    return [F.mul(c, s) for c in f]


def pgcd(F, f, g):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, pdivmod(F, f, g)[1]
    return pmonic(F, f)


def ppowmod(F, base, e: int, mod):
    result, b = [F.one], pdivmod(F, base, mod)[1]
    while e:
        if e & 1:
            result = pdivmod(F, pmul(F, result, b), mod)[1]
        b = pdivmod(F, pmul(F, b, b), mod)[1]
        e >>= 1
    return result


def _prime_divisors(d: int) -> list:
    out, m, r = [], d, 2
    while r * r <= m:
        if m % r == 0:
            out.append(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        out.append(m)
    return out


def is_irreducible(F, f) -> bool:
    """Rabin's test over a finite field: f monic of degree d >= 1."""
    d = len(f) - 1
    if d < 1 or f[-1] != F.one:
        return False
    q = F.order
    x = [F.zero, F.one]

    def x_q_power(m: int):
        r = x
        for _ in range(m):
            r = ppowmod(F, r, q, f)
        return r

    if pdivmod(F, psub(F, x_q_power(d), x), f)[1]:
        return False
    for r in _prime_divisors(d):
        if len(pgcd(F, f, psub(F, x_q_power(d // r), x))) > 1:
            return False
    return True


def companion_rows(F, f) -> list:
    """Ones under the diagonal, minus the low coefficients in the last column."""
    d = len(f) - 1
    rows = [[F.zero] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i + 1][i] = F.one
    for i in range(d):
        rows[i][d - 1] = F.neg(f[i])
    return rows


def block_diag(F, blocks) -> list:
    n = sum(len(b) for b in blocks)
    rows = [[F.zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(row)] = row
        at += len(b)
    return rows


# -- dense matrices: lists of rows ---------------------------------------------------


def rows_of(cells, nrows: int, ncols: int) -> list:
    return [list(cells[i * ncols : (i + 1) * ncols]) for i in range(nrows)]


def matmul(F, a, b) -> list:
    add, mul, zero = F.add, F.mul, F.zero
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * m
        for t, c in enumerate(row):
            if c != 0:
                for j, x in enumerate(b[t]):
                    if x != 0:
                        acc[j] = add(acc[j], mul(c, x))
        out.append(acc)
    return out


def transpose(a) -> list:
    return [list(col) for col in zip(*a)] if a else []


def inverse(F, a):
    """Gauss-Jordan inverse, or None when a is singular."""
    n = len(a)
    rows = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        s = F.inv(rows[c][c])
        rows[c] = [F.mul(x, s) for x in rows[c]]
        rc = rows[c]
        for i in range(n):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rc)]
    return [r[n:] for r in rows]


def rank(F, a) -> int:
    rows = [list(r) for r in a]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = F.inv(rows[r][c])
        rr = [F.mul(x, s) for x in rows[r]]
        rows[r] = rr
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f != 0:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rr)]
        r += 1
    return r


def charpoly(F, a) -> list:
    """det(xI - A) by fraction-free (Bareiss) elimination over F[x].

    The k-th pivot is the leading principal k-minor of xI - A, a monic
    polynomial of degree k, so no pivot is ever zero and every division is exact.
    """
    n = len(a)
    if n == 0:
        return [F.one]
    m = [
        [[F.neg(a[i][j]), F.one] if i == j else trim([F.neg(a[i][j])]) for j in range(n)]
        for i in range(n)
    ]
    prev = [F.one]
    for k in range(n - 1):
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(F, pmul(F, piv, m[i][j]), pmul(F, m[i][k], m[k][j]))
                m[i][j] = pexact(F, num, prev)
        prev = piv
    return m[n - 1][n - 1]


def minor_sums(F, chi) -> list:
    """c_0..c_n with det(xI - A) = sum_k (-1)^k c_k x^(n-k)."""
    n = len(chi) - 1
    return [F.neg(chi[n - k]) if k % 2 else chi[n - k] for k in range(n + 1)]


def moments(F, a, v, phi, count: int) -> list:
    """phi A^j v for j < count."""
    out, w = [], list(v)
    for _ in range(count):
        acc = F.zero
        for x, y in zip(phi, w):
            acc = F.add(acc, F.mul(x, y))
        out.append(acc)
        w = [col[0] for col in matmul(F, a, [[x] for x in w])]
    return out


def is_cyclic(F, a, rng) -> bool:
    """True once a random Krylov space fills F^n; False when none of four tries did
    (the callers then fall back on the full centralizer)."""
    n = len(a)
    for _ in range(4):
        w = [F.random(rng) for _ in range(n)]
        krylov = []
        for _ in range(n):
            krylov.append(w)
            w = [col[0] for col in matmul(F, a, [[x] for x in w])]
        if rank(F, krylov) == n:
            return True
    return False


def centralizer_dim(F, a) -> int:
    return len(centralizer_basis(F, a))


def invariant_factors_from_blocks(F, blocks) -> list:
    """Rebuild f_1 | ... | f_r from elementary divisors (prime, exponent)."""
    by_prime: dict = {}
    for prime, e in blocks:
        by_prime.setdefault(tuple(prime), []).append(e)
    depth = max((len(es) for es in by_prime.values()), default=0)
    out = []
    for slot in range(depth):
        f = [F.one]
        for prime, es in by_prime.items():
            es = sorted(es, reverse=True)
            if slot < len(es):
                for _ in range(es[slot]):
                    f = pmul(F, f, list(prime))
        out.append(f)
    return list(reversed(out))


def centralizer_basis(F, a) -> list:
    """A basis of {B : AB = BA}, from the reduced echelon form of the n^2 x n^2 system."""
    n = len(a)
    eqs = []
    for i in range(n):
        for j in range(n):
            row = [F.zero] * (n * n)
            for t in range(n):
                row[t * n + j] = F.add(row[t * n + j], a[i][t])
                row[i * n + t] = F.sub(row[i * n + t], a[t][j])
            eqs.append(row)
    pivots, r = [], 0
    for c in range(n * n):
        piv = next((i for i in range(r, len(eqs)) if eqs[i][c] != 0), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        s = F.inv(eqs[r][c])
        eqs[r] = [F.mul(x, s) for x in eqs[r]]
        for i in range(len(eqs)):
            f = eqs[i][c]
            if i != r and f != 0:
                eqs[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(eqs[i], eqs[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in sorted(set(range(n * n)) - set(pivots)):
        vec = [F.zero] * (n * n)
        vec[free] = F.one
        for row, c in zip(eqs, pivots):
            vec[c] = F.neg(row[free])
        basis.append(rows_of(vec, n, n))
    return basis
