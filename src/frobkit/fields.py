"""Exact field arithmetic: prime fields, small extension fields, and rationals.

Elements are raw values: Python ints holding the canonical representative for
finite fields (an extension element is encoded in base p, low digit first),
and `fractions.Fraction` for rationals. The field object supplies the ops, so
inner loops can grab bound methods once and stay cheap. `FieldElem` wraps a
raw value with its field for operator syntax at the API edges.

Extension fields of order up to _TABLE_LIMIT answer every op from flat lookup
tables. They cost O(q) polynomial products to build: mul and inv come from the
exp/log tables of a primitive element, add and neg from the base-p digits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterator

from .errors import DescriptorMismatch, DivisionByZero, NotFiniteField, ParseError

# Full add/mul lookup tables are built for extension fields up to this order.
_TABLE_LIMIT = 512


# Miller-Rabin with the first twelve primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015), so under it the test is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.

    A composite verdict is always exact. A number that passes every base at
    or above the proven bound raises ValueError rather than being guessed.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to prove prime")
    return True


def _iroot(q: int, k: int) -> int:
    """The largest r with r^k <= q, in exact integer arithmetic."""
    lo, hi = 1, 1 << (q.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= q:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order {q} is below 2")
    if _is_prime(q):
        return q, 1
    for k in range(2, q.bit_length()):
        r = _iroot(q, k)
        if r**k == q and _is_prime(r):
            return r, k
    raise ValueError(f"{q} is not a prime power")


class Field:
    """Common interface; concrete subclasses hold the arithmetic."""

    characteristic: int
    order: int | None  # None for infinite fields
    is_finite: bool

    zero = 0
    one = 1

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def pth_root(self, a):
        """Inverse of the Frobenius x -> x^p (finite fields only)."""
        raise NotFiniteField("p-th roots only exist in finite fields")

    def elements(self) -> Iterator:
        raise NotFiniteField("cannot enumerate an infinite field")

    def random(self, rng):
        raise NotImplementedError

    def elem(self, value) -> "FieldElem":
        return FieldElem(self, self.coerce(value))

    def coerce(self, value):
        """Canonical raw value from an int, Fraction, or FieldElem."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        raise NotImplementedError

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise DescriptorMismatch(f"{self} vs {other}")


class PrimeField(Field):
    """F_p with canonical representatives 0..p-1."""

    is_finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.degree = 1

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def pth_root(self, a):
        return a % self.p  # Frobenius is the identity on F_p

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)

    def coerce(self, value):
        if isinstance(value, FieldElem):
            self.check_same(value.field)
            return value.value
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_str(self, s: str):
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise ParseError(f"bad {self} element: {s!r}") from exc


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod_p(a: list, b: list, mod: list, p: int) -> list:
    """(a*b) mod `mod` over F_p; coefficient lists low-to-high, mod monic."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    return prod[:k] + [0] * (k - len(prod))


def default_modulus(p: int, k: int) -> tuple:
    """Fixed modulus per (p, k): the monic irreducible with least base-p encoding."""
    from .poly import Poly, is_irreducible  # poly imports this module

    F = GF(p)
    for code in range(p**k):
        f = [0] * (k + 1)
        c, i = code, 0
        while c:
            f[i] = c % p
            c //= p
            i += 1
        f[k] = 1
        if is_irreducible(Poly(F, f)):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # unreachable


class ExtensionField(Field):
    """F_{p^k} = F_p[u]/(m(u)), elements encoded as ints in [0, p^k).

    The encoding is positional base p, constant coefficient in the lowest
    digit, so enumeration order and serialization are stable. For orders up
    to _TABLE_LIMIT full add/mul/inv/neg tables are precomputed from the
    powers of a primitive element (see _build_tables), and sub is one lookup;
    larger fields fall back to per-op polynomial arithmetic.
    """

    is_finite = True

    def __init__(self, p: int, k: int, modulus: tuple | None = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be >= 2 (use PrimeField)")
        self.p = p
        self.k = k
        self.degree = k
        self.characteristic = p
        self.order = p**k
        if modulus is None:
            modulus = default_modulus(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        from .poly import Poly, is_irreducible  # poly imports this module

        if not is_irreducible(Poly(GF(p), modulus)):
            raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._tables_built = False
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        """The add/mul/inv/neg tables, in O(q) polynomial products.

        F_q^* is cyclic: with a generator g, a*b = exp[log a + log b], so one
        walk of g's powers gives every row of the mul table. Addition is
        digit-wise mod p, so the add table grows one base-p digit at a time.
        """
        q, p, k = self.order, self.p, self.k
        n, mod = q - 1, list(self.modulus)
        # g generates F_q^* iff g^(n/r) != 1 for each prime r | n; codes below
        # p are the constants, whose orders divide p - 1. Until the tables
        # are built, pow multiplies polynomials.
        cofactors = [n // r for r in _prime_factors(n)]
        g = self.decode(next(c for c in range(p, q) if all(self.pow(c, e) != 1 for e in cofactors)))
        exp, x = [1], self.decode(1)
        for _ in range(n - 1):
            x = _poly_mulmod_p(x, g, mod, p)
            exp.append(self.encode(x))
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        exp2 = exp + exp
        pick = itemgetter(*log[1:])  # row a, columns b >= 1, from exp shifted by log a
        mul = [0] * q
        for a in range(1, q):
            mul.append(0)
            mul.extend(pick(exp2[log[a] : log[a] + n]))
        self._mul = mul
        self._inv = [0] + [exp[-log[a] % n] for a in range(1, q)]

        # Row lo + hi*m of the p^(j+1) table is p copies of row lo of the p^j
        # table, the copy for high digit d offset by ((hi + d) mod p) * m.
        rows, neg, m = [[0]], [0], 1
        for _ in range(k):
            grown = [None] * (m * p)
            for lo, row in enumerate(rows):
                copies = [[x + c * m for x in row] for c in range(p)]
                for hi in range(p):
                    grown[lo + hi * m] = list(chain.from_iterable(copies[hi:] + copies[:hi]))
            neg = [neg[lo] + (-hi % p) * m for hi in range(p) for lo in range(m)]
            rows, m = grown, m * p
        self._add = list(chain.from_iterable(rows))
        self._neg = neg
        self._tables_built = True

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.p, self.k, self.modulus))

    def encode(self, coeffs) -> int:
        value = 0
        for c in reversed(list(coeffs)):
            value = value * self.p + (c % self.p)
        return value

    def decode(self, a: int) -> list:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(a % self.p)
            a //= self.p
        return coeffs

    def add(self, a, b):
        if self._tables_built:
            return self._add[a * self.order + b]
        p = self.p
        return self.encode([(x + y) % p for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a, b):
        if self._tables_built:
            return self._add[a * self.order + self._neg[b]]
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self._tables_built:
            return self._neg[a]
        p = self.p
        return self.encode([(-x) % p for x in self.decode(a)])

    def mul(self, a, b):
        if self._tables_built:
            return self._mul[a * self.order + b]
        return self.encode(_poly_mulmod_p(self.decode(a), self.decode(b), list(self.modulus), self.p))

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._tables_built:
            return self._inv[a]
        return self.pow(a, self.order - 2)

    def pth_root(self, a):
        # Frobenius has order k, so its inverse is x -> x^(p^(k-1)).
        return self.pow(a, self.p ** (self.k - 1))

    def elements(self):
        return iter(range(self.order))

    def random(self, rng):
        return rng.randrange(self.order)

    def coerce(self, value):
        """Ints in [0, q) are element codes; other ints reduce into the prime subfield."""
        if isinstance(value, FieldElem):
            self.check_same(value.field)
            return value.value
        if isinstance(value, int):
            if 0 <= value < self.order:
                return value
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_str(self, s: str):
        try:
            v = int(s)
        except ValueError as exc:
            raise ParseError(f"bad {self} element: {s!r}") from exc
        if not 0 <= v < self.order:
            raise ParseError(f"{self} element code out of range: {s!r}")
        return v


class RationalField(Field):
    """Exact rationals via fractions.Fraction (already canonical)."""

    is_finite = False
    characteristic = 0
    order = None

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0")
        return a / b

    def pow(self, a, e: int):
        if e < 0 and a == 0:
            raise DivisionByZero("inverse of 0")
        return a**e

    def random(self, rng):
        # Small-integer entries keep test corpora readable and fast.
        return Fraction(rng.randint(-9, 9))

    def coerce(self, value):
        if isinstance(value, FieldElem):
            self.check_same(value.field)
            return value.value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational: {s!r}") from exc


QQ = RationalField()

_FIELD_CACHE: dict = {}


def GF(q: int, k: int | None = None, modulus: tuple | None = None) -> Field:
    """Finite field of order q, or of order q^k when k is given.

    GF(9) and GF(3, 2) are the same field; a custom modulus bypasses the
    cache so equal orders with different moduli stay distinct objects.
    """
    p, n = (q, k) if k is not None else _prime_power(q)
    if modulus is not None:
        return ExtensionField(p, n, modulus)
    key = (p, n)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = PrimeField(p) if n == 1 else ExtensionField(p, n)
    return _FIELD_CACHE[key]


class FieldElem:
    """A raw value tagged with its field; operator sugar for the API edges."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _other(self, other):
        if isinstance(other, FieldElem):
            self.field.check_same(other.field)
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElem(self.field, self.field.add(self.value, self._other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElem(self.field, self.field.sub(self.value, self._other(other)))

    def __rsub__(self, other):
        return FieldElem(self.field, self.field.sub(self._other(other), self.value))

    def __mul__(self, other):
        return FieldElem(self.field, self.field.mul(self.value, self._other(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        divisor = self._other(other)
        if divisor == self.field.zero:
            raise DivisionByZero("division by 0")
        return FieldElem(self.field, self.field.div(self.value, divisor))

    def __rtruediv__(self, other):
        if self.value == self.field.zero:
            raise DivisionByZero("division by 0")
        return FieldElem(self.field, self.field.div(self._other(other), self.value))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.value))

    def __pow__(self, e: int):
        return FieldElem(self.field, self.field.pow(self.value, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self.field.coerce(other)
        except (TypeError, DescriptorMismatch):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != self.field.zero

    def __repr__(self):
        return f"{self.field}:{self.field.to_str(self.value)}"
