"""Dense univariate polynomials over a field, plus factorization over F_q.

Coefficients are stored low-to-high with no trailing zeros. The degree of the
zero polynomial is float("-inf") so degree comparisons need no special cases.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import (
    DivisionByZero,
    EvenCharacteristicUnsupported,
    NotFiniteField,
    ParseError,
)
from .fields import Field, _prime_factors

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        self.field = field
        raw = [field.coerce(c) for c in coeffs]
        while raw and raw[-1] == field.zero:
            raw.pop()
        self.coeffs = tuple(raw)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, (field.one,))

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, (field.zero, field.one))

    @staticmethod
    def constant(field: Field, c) -> "Poly":
        return Poly(field, (field.coerce(c),))

    @staticmethod
    def from_raw(field: Field, raw: list) -> "Poly":
        """Wrap an already-canonical coefficient list (no coercion)."""
        while raw and raw[-1] == field.zero:
            raw.pop()
        p = object.__new__(Poly)
        p.field = field
        p.coeffs = tuple(raw)
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # -- arithmetic --------------------------------------------------------

    def _same(self, other: "Poly") -> None:
        self.field.check_same(other.field)

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly.from_raw(F, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [F.sub(self.coeff(i), other.coeff(i)) for i in range(n)]
        return Poly.from_raw(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly.from_raw(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, Poly):
            s = F.coerce(other)
            return Poly.from_raw(F, [F.mul(c, s) for c in self.coeffs])
        self._same(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == F.zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b != F.zero:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly.from_raw(F, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        self._same(other)
        F = self.field
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead_inv = F.inv(other.coeffs[-1])
        if len(rem) <= d:
            return Poly.zero(F), self
        quot = [F.zero] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if c == F.zero:
                continue
            q = F.mul(c, lead_inv)
            quot[top - d] = q
            for j in range(d + 1):
                rem[top - d + j] = F.sub(rem[top - d + j], F.mul(q, other.coeffs[j]))
        return Poly.from_raw(F, quot), Poly.from_raw(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        F = self.field
        inv = F.inv(self.coeffs[-1])
        return Poly.from_raw(F, [F.mul(c, inv) for c in self.coeffs])

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(self.coeffs[i], F.coerce(i % F.characteristic if F.characteristic else i)))
        return Poly.from_raw(F, out)

    def __call__(self, value):
        """Evaluate at a scalar (raw value or FieldElem) by Horner."""
        F = self.field
        x = F.coerce(value)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({self.field}, {self.pretty()})"

    def sort_key(self) -> tuple:
        """Total order on polynomials over one finite field (degree, then coeffs)."""
        return (len(self.coeffs), self.coeffs)

    # -- printing ----------------------------------------------------------

    def pretty(self, var: str = "x") -> str:
        F = self.field
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == F.zero:
                continue
            cs = F.to_str(c)
            if i == 0:
                term = cs
            else:
                xpart = var if i == 1 else f"{var}^{i}"
                if c == F.one:
                    term = xpart
                elif cs == "-1":
                    term = f"-{xpart}"
                else:
                    if "/" in cs or (F.is_finite and getattr(F, "degree", 1) > 1 and c not in (0, 1)):
                        cs = f"({cs})"
                    term = f"{cs}{xpart}"
            terms.append(term)
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    f.field.check_same(g.field)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero or g.is_zero:
        return Poly.zero(f.field)
    return ((f * g) // poly_gcd(f, g)).monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e modulo mod."""
    result = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _require_finite(field: Field) -> None:
    if not field.is_finite:
        raise NotFiniteField("operation requires a finite field")


def _poly_pth_root(f: Poly) -> Poly:
    """Inverse of x -> x^p on polynomials with vanishing derivative."""
    F = f.field
    p = F.characteristic
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pth_root(f.coeffs[i]))
    return Poly.from_raw(F, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities; valid in characteristic p.

    Factors whose multiplicity is divisible by p survive gcd(f, f') intact and
    are recovered through a p-th root, so f' = 0 never breaks the recursion.
    """
    _require_finite(f.field)
    f = f.monic()
    if f.degree <= 0:
        return []
    p = f.field.characteristic
    parts: list[tuple[Poly, int]] = []
    d = f.derivative()
    if d.is_zero:
        for h, m in squarefree_decomposition(_poly_pth_root(f)):
            parts.append((h, m * p))
        return parts
    c = poly_gcd(f, d)
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        fac = w // y
        if fac.degree > 0:
            parts.append((fac, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for h, m in squarefree_decomposition(_poly_pth_root(c)):
            parts.append((h, m * p))
    return parts


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split monic squarefree f into (product of degree-d irreducibles, d)."""
    F = f.field
    q = F.order
    out = []
    x = Poly.x(F)
    h = x % f
    d = 1
    while f.degree >= 2 * d:
        h = pow_mod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
        d += 1
    if f.degree > 0:
        out.append((f, int(f.degree)))
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus for odd q: f monic squarefree, all factors of degree d."""
    F = f.field
    if f.degree == d:
        return [f]
    q = F.order
    e = (q**d - 1) // 2
    n = int(f.degree)
    while True:
        a = Poly.from_raw(F, [F.random(rng) for _ in range(n)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < f.degree:
            break
        b = pow_mod(a, e, f)
        g = poly_gcd(b - Poly.one(F), f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor(f: Poly, seed: int = 0) -> list[tuple[Poly, int]]:
    """Factor f over an odd finite field into monic irreducibles.

    Returns (factor, multiplicity) pairs sorted by (degree, coefficients);
    the product of factor^multiplicity equals f up to the leading coefficient.
    The randomized equal-degree stage draws from random.Random(seed); the
    sorted result is the unique factorization, so only the path depends on it.
    """
    _require_finite(f.field)
    if f.field.characteristic == 2:
        raise EvenCharacteristicUnsupported("factorization implemented for odd q only")
    if f.is_zero:
        raise DivisionByZero("cannot factor the zero polynomial")
    rng = random.Random(seed)
    found: list[tuple[Poly, int]] = []
    for part, mult in squarefree_decomposition(f):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree_split(prod, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda pair: pair[0].sort_key())
    return found


def is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility test over F_q (any characteristic)."""
    _require_finite(f.field)
    if f.degree < 1:
        raise ValueError("irreducibility is about nonconstant polynomials")
    n = int(f.degree)
    if n == 1:
        return True
    F = f.field
    q = F.order
    f = f.monic()
    x = Poly.x(F)
    powers = [x % f]  # powers[i] = x^(q^i) mod f
    for _ in range(n):
        powers.append(pow_mod(powers[-1], q, f))
    if powers[n] != powers[0]:
        return False
    return all(poly_gcd(powers[n // r] - x, f).degree <= 0 for r in _prime_factors(n))


class RationalFunction:
    """A ratio of polynomials, stored with monic denominator and gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        num.field.check_same(den.field)
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead_inv = den.field.inv(den.leading)
        self.num = num * lead_inv
        self.den = den * lead_inv

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero:
            raise DivisionByZero("inverse of the zero function")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial:
            return f"RationalFunction({self.num.pretty()})"
        return f"RationalFunction(({self.num.pretty()})/({self.den.pretty()}))"


def as_rational_function(f) -> RationalFunction:
    if isinstance(f, RationalFunction):
        return f
    if isinstance(f, Poly):
        return RationalFunction(f)
    raise ParseError(f"expected Poly or RationalFunction, got {type(f).__name__}")
