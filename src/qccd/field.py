"""Exact arithmetic in GF(p^k): field contexts, elements, Frobenius, trace,
subfield embeddings and roots of unity.

Elements are stored in polynomial-basis representation, encoded as an
integer in [0, p^k): the base-p digits are the coefficients, low digit =
constant coefficient.  All field contexts are interned singletons, so the
choice of modulus and primitive element is bit-reproducible across runs.

Fields have order at most 2^16, and each builds its exp/log tables of a
primitive element g when it is created; in odd characteristic with k > 1
also Zech logarithms zech[d] = log(1 + g^d) for addition.  All arithmetic,
the row operation ``row_sub_raw`` (xs - c*ys) included, reads these tables;
traces read one table per subfield, built from the traces of the basis.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import (
    CharacteristicDividesM,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotASubfield,
    NotSquareOrderField,
)

# every field is tabled, so this is also the largest table
MAX_FIELD_ORDER = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# prime-field polynomial helpers (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------

def _pf_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pf_mod(a, b, p):
    # b monic
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
        a.pop()
    return _pf_trim(a)


def _pf_is_irreducible(f, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    k = len(f) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for digits in itertools.product(range(p), repeat=d):
            g = list(digits) + [1]
            if not _pf_mod(f, g, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p),
    coefficients compared low-degree-first."""
    for digits in itertools.product(range(p), repeat=k):
        f = list(digits) + [1]
        if _pf_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FiniteField:
    """GF(p^k) with a fixed modulus.  Obtain instances via make_field()."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus
        self._embeddings: dict[int, tuple[list[int], dict[int, int]]] = {}
        self._traces: dict[int, list[int]] = {}
        if p == 2:
            self._mod_bits = sum(1 << i for i, c in enumerate(modulus) if c)
        else:
            self._mod_bits = None
        self._pk_pows = [p**i for i in range(k + 1)]
        self._build_tables()

    # singletons survive pickling
    def __reduce__(self):
        return (make_field, (self.p, self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    # -- digit encoding ----------------------------------------------------
    def to_digits(self, a: int) -> list[int]:
        p = self.p
        return [(a // self._pk_pows[i]) % p for i in range(self.k)]

    def from_digits(self, digits) -> int:
        return sum(d * self._pk_pows[i] for i, d in enumerate(digits))

    # -- raw arithmetic on integer codes -----------------------------------
    # Zech addition: with n = q - 1 and g^(n/2) = -1, a nonzero b is a * g^d
    # for d = log b - log a, so a + b = g^(log a + zech[d]), and a + b = 0
    # exactly when d = n/2 (mod n), where zech points into the zeros of exp.
    def add_raw(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg_raw(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return -a % self.p
        if not a:
            return 0
        return self._exp[self._log[a] + (self.order - 1) // 2]

    def sub_raw(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a - b) % self.p
        return self.add_raw(a, self.neg_raw(b))

    def row_sub_raw(self, xs, c: int, ys) -> list[int]:
        """xs - c * ys entrywise on equal-length lists of raw codes, the row
        operation of every elimination; no entry costs a method call."""
        p = self.p
        if c == 0:
            return list(xs)
        if self.k == 1:
            if p == 2:
                return [x ^ y for x, y in zip(xs, ys)]
            return [(x - c * y) % p for x, y in zip(xs, ys)]
        exp, log = self._exp, self._log
        if p == 2:
            lc = log[c]
            return [x ^ exp[lc + log[y]] if y else x for x, y in zip(xs, ys)]
        n, zech = self.order - 1, self._zech
        lc = (log[c] + n // 2) % n  # log of -c; lc + log[y] is the log of -c*y
        return [(exp[log[x] + zech[lc + log[y] - log[x]]] if x else exp[lc + log[y]]) if y else x
                for x, y in zip(xs, ys)]

    def _polymul_raw(self, a: int, b: int) -> int:
        """a * b in the polynomial basis: only to find g and build the tables."""
        if a == 0 or b == 0:
            return 0
        if self.p == 2:
            k, mod = self.k, self._mod_bits
            r = 0
            top = 1 << k
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        p = self.p
        da, db = self.to_digits(a), self.to_digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % p
        return self.from_digits(prod[: self.k])

    def _build_tables(self) -> None:
        """g is the first element in canonical order that generates the
        multiplicative group; exp[i] = g^i for i < 2n, log inverts it.  The
        digit rows of g^0 .. g^(t-1) times the matrix of multiplication by
        h = g^t are the rows of g^t .. g^(2t-1), so t doubles per product."""
        n, p, pows = self.order - 1, self.p, self._pk_pows[:-1]
        facs = _prime_factors(n) if n > 1 else []
        g = next(g for g in range(1, self.order)
                 if all(self._pow_square_mult(g, n // f) != 1 for f in facs))
        rows, h = np.array([self.to_digits(1)]), g
        while len(rows) < n:
            times_h = np.array([self.to_digits(self._polymul_raw(h, x)) for x in pows])
            rows = np.concatenate([rows, rows @ times_h % p])
            h = self._polymul_raw(h, h)
        codes = rows[:n] @ pows
        exp = codes.tolist() * 2
        log = np.zeros(self.order, dtype=np.int64)
        log[codes] = np.arange(n)
        log = log.tolist()
        self._zech = None
        if p != 2 and self.k > 1:
            # 1 + g^d only changes the constant digit.  zech has period n and
            # length 2n, so any d in [-2n, 2n) indexes it; 1 + g^(n/2) = 0
            # maps to 2n - 1, and exp is 0 from there on
            zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp[:n]]
            zech[n // 2] = 2 * n - 1
            self._zech = zech + zech
            exp[2 * n - 1:] = [0] * n
        self._prim, self._exp, self._log = g, exp, log

    def tables(self):
        """(exp, log) lists, exp[log a + log b] = a * b."""
        return self._exp, self._log

    def mul_raw(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv_raw(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("cannot invert zero")
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def _pow_square_mult(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._polymul_raw(r, a)
            a = self._polymul_raw(a, a)
            e >>= 1
        return r

    def pow_raw(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("cannot raise zero to a negative power")
            return 0
        return self._exp[self._log[a] * e % (self.order - 1)]

    def frobenius_raw(self, a: int, j: int) -> int:
        return self.pow_raw(a, self.p**j)

    def primitive_element_raw(self) -> int:
        """First element in canonical enumeration order that generates the
        multiplicative group."""
        return self._prim

    def multiplicative_order_raw(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        n = self.order - 1
        o = n
        for f in _prime_factors(n) if n > 1 else []:
            while o % f == 0 and self.pow_raw(a, o // f) == 1:
                o //= f
        return o

    # -- elements ----------------------------------------------------------
    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, raw: int) -> "FieldElement":
        if not 0 <= raw < self.order:
            raise ValueError(f"element code {raw} out of range for {self}")
        return FieldElement(self, raw)

    # -- subfield machinery ------------------------------------------------
    def is_subfield(self, sub: "FiniteField") -> bool:
        return sub.p == self.p and self.k % sub.k == 0

    def embedding(self, sub: "FiniteField") -> tuple[list[int], dict[int, int]]:
        """(table, retract): table[x_sub] = image in self; retract inverts it."""
        if not self.is_subfield(sub):
            raise NotASubfield(f"{sub} is not a subfield of {self}")
        key = sub.k
        cached = self._embeddings.get(key)
        if cached is not None:
            return cached
        if sub.order == self.order:
            table = list(range(self.order))
            retract = {x: x for x in range(self.order)}
        else:
            root = self._subfield_root(sub)
            rpows = [1]
            for _ in range(sub.k - 1):
                rpows.append(self.mul_raw(rpows[-1], root))
            table = [0] * sub.order
            for x in range(sub.order):
                acc = 0
                for i, d in enumerate(sub.to_digits(x)):
                    if d:
                        acc = self.add_raw(acc, self.mul_raw(d, rpows[i]))
                table[x] = acc
            retract = {img: x for x, img in enumerate(table)}
        self._embeddings[key] = (table, retract)
        return table, retract

    def _subfield_root(self, sub: "FiniteField") -> int:
        """Smallest root in self of sub's modulus (canonical embedding)."""
        g = self.primitive_element_raw()
        step = (self.order - 1) // (sub.order - 1)
        candidates = [0] + [self.pow_raw(g, j * step) for j in range(sub.order - 1)]
        roots = []
        for c in candidates:
            # Horner; modulus coefficients are prime-field codes, valid here too
            acc = 0
            for coef in reversed(sub.modulus):
                acc = self.add_raw(self.mul_raw(acc, c), coef)
            if acc == 0:
                roots.append(c)
        return min(roots)

    def trace_table(self, sub: "FiniteField") -> list[int]:
        """table[a] = trace of a down to sub, as a raw code of sub.  The trace
        is GF(p)-linear, so the table follows from the traces of the basis
        elements x^i (raw code p^i), each a sum of Frobenius images."""
        if not self.is_subfield(sub):
            raise NotASubfield(f"{sub} is not a subfield of {self}")
        table = self._traces.get(sub.k)
        if table is not None:
            return table
        _, retract = self.embedding(sub)
        table = [0]
        for i in range(self.k):
            acc = y = self._pk_pows[i]
            for _ in range(self.k // sub.k - 1):
                y = self.pow_raw(y, sub.order)
                acc = self.add_raw(acc, y)
            if acc not in retract:
                raise AssertionError("trace value escaped the subfield")
            t = retract[acc]
            # table[a + d p^i] = table[a] + d t for a < p^i and digit d
            table = [sub.add_raw(x, sub.mul_raw(d, t)) for d in range(self.p) for x in table]
        self._traces[sub.k] = table
        return table

    def trace_raw(self, a: int, sub: "FiniteField") -> int:
        """Trace of a down to sub, returned as a raw code of sub."""
        return self.trace_table(sub)[a]


class FieldElement:
    """Immutable element of a FiniteField."""

    __slots__ = ("field", "raw")

    def __init__(self, field: FiniteField, raw: int):
        self.field = field
        self.raw = raw

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            # small integers embed via the prime subfield
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.add_raw(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.sub_raw(self.raw, other.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_raw(self.raw))

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul_raw(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul_raw(self.raw, self.field.inv_raw(other.raw)))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.field, self.field.pow_raw(self.field.inv_raw(self.raw), -e))
        return FieldElement(self.field, self.field.pow_raw(self.raw, e))

    def frobenius(self, j: int) -> "FieldElement":
        if j < 0:
            raise ValueError("Frobenius power must be nonnegative")
        return FieldElement(self.field, self.field.frobenius_raw(self.raw, j))

    def conjugate(self) -> "FieldElement":
        """x -> x^sqrt(Q); requires a square-order field."""
        if self.field.k % 2:
            raise NotSquareOrderField(f"{self.field} has no square order")
        return self.frobenius(self.field.k // 2)

    def multiplicative_order(self) -> int:
        return self.field.multiplicative_order_raw(self.raw)

    @property
    def coeffs(self) -> list[int]:
        return self.field.to_digits(self.raw)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.raw))

    def __repr__(self):
        return f"{self.field}({self.raw})"


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the lexicographically smallest monic irreducible modulus."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"GF({p}^{k}) exceeds the {MAX_FIELD_ORDER} element cap")
    return FiniteField(p, k, _smallest_irreducible(p, k))


def field_from_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    if q > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"GF({q}) exceeds the {MAX_FIELD_ORDER} element cap")
    facs = _prime_factors(q)
    if len(facs) != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    p = facs[0]
    k = 0
    n = q
    while n > 1:
        n //= p
        k += 1
    if p**k != q:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return make_field(p, k)


def frobenius(x: FieldElement, j: int) -> FieldElement:
    return x.frobenius(j)


def trace(x: FieldElement, sub: FiniteField) -> FieldElement:
    return FieldElement(sub, x.field.trace_raw(x.raw, sub))


def root_of_unity(F: FiniteField, m: int) -> tuple[FiniteField, FieldElement]:
    """Splitting field of x^m - 1 over F and a canonical primitive m-th root
    of unity in it."""
    if m < 1:
        raise ValueError("m must be positive")
    if math.gcd(m, F.p) != 1:
        raise CharacteristicDividesM(f"characteristic {F.p} divides m={m}")
    if m == 1:
        return F, F.one
    # s = multiplicative order of |F| mod m
    s = 1
    acc = F.order % m
    while acc != 1:
        acc = (acc * F.order) % m
        s += 1
    splitting = make_field(F.p, F.k * s)
    g = splitting.primitive_element_raw()
    xi = splitting.pow_raw(g, (splitting.order - 1) // m)
    return splitting, FieldElement(splitting, xi)
