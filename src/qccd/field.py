"""Exact arithmetic in GF(p^k): field contexts, Frobenius, trace, subfield
embeddings and roots of unity.

An element is its raw code, an integer in [0, p^k) in polynomial-basis
representation: the base-p digits are the coefficients, low digit =
constant coefficient.  The field's ``*_raw`` methods are its arithmetic.
All field contexts are interned singletons, so the choice of modulus and
primitive element is bit-reproducible across runs.

Fields have order at most 2^16.  Each is built from X, the k x k matrix
over GF(p) of multiplication by x on digit rows: the modulus passes
Rabin's irreducibility test on X, an element a acts as M_a = sum a_i X^i,
and the exp/log tables of the primitive element g are built by doubling
with M_(g^t); in odd characteristic with k > 1 also Zech logarithms
zech[d] = log(1 + g^d) for addition.  All arithmetic, the row operation
``row_sub_raw`` (xs - c*ys) included, reads these tables; traces read one
table per subfield, built from the traces of the basis.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import (
    CharacteristicDividesM,
    DivisionByZero,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotASubfield,
    NotSquareOrderField,
)

# every field is tabled, so this is also the largest table
MAX_FIELD_ORDER = 1 << 16


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
# construction: k x k matrices over GF(p) acting on digit rows
# ---------------------------------------------------------------------------

def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for e >= 1 by square-and-multiply."""
    R = M
    for bit in bin(e)[3:]:
        R = R @ R % p
        if bit == "1":
            R = R @ M % p
    return R


def _times_x(modulus, p: int) -> np.ndarray:
    """X, the matrix of multiplication by x on the digit rows of
    GF(p)[x]/(f): row i is x^(i+1), and x^k = -(f_0 + ... + f_(k-1) x^(k-1))."""
    k = len(modulus) - 1
    X = np.eye(k, k, 1, dtype=np.int64)
    X[-1] = [-c % p for c in modulus[:k]]
    return X


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p),
    coefficients compared low-degree-first, by Rabin's test: X^(p^k) = X,
    so f is a product of distinct irreducibles of degrees dividing k, and
    X^(p^(k/r)) - X is a unit, its (p^k - 1)-th power I, for each prime
    r | k.  With k > 1, x divides every candidate with constant term 0."""
    if k == 1:
        return (0, 1)
    one = np.eye(k, dtype=np.int64)
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        X = _times_x((*low, 1), p)
        frob = [X]  # frob[j] = X^(p^j)
        for _ in range(k):
            frob.append(_mat_pow(frob[-1], p, p))
        if np.array_equal(frob[k], X) and all(
                np.array_equal(_mat_pow((frob[k // r] - X) % p, p**k - 1, p), one)
                for r in _prime_factors(k)):
            return (*low, 1)
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

    def _build_tables(self) -> None:
        """g is the first element in canonical order with M_g^(n/r) != I for
        each prime r | n, a generator of the multiplicative group; exp[i] =
        g^i for i < 2n, log inverts it.  The digit rows of g^0 .. g^(t-1)
        times M_(g^t) are those of g^t .. g^(2t-1), so t doubles per product."""
        n, p, k, pows = self.order - 1, self.p, self.k, self._pk_pows[:-1]
        X = _times_x(self.modulus, p)
        xpows = list(itertools.accumulate([X] * (k - 1), lambda A, B: A @ B % p,
                                          initial=np.eye(k, dtype=np.int64)))
        for g in range(1, self.order):
            M = np.tensordot(self.to_digits(g), xpows, 1) % p
            if all((_mat_pow(M, n // r, p) != xpows[0]).any() for r in _prime_factors(n)):
                break
        rows = xpows[0][:1]
        while len(rows) < n:
            rows = np.concatenate([rows, rows @ M % p])
            M = M @ M % p
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

    def pow_raw(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("cannot raise zero to a negative power")
            return 0
        return self._exp[self._log[a] * e % (self.order - 1)]

    @property
    def conj_exp(self) -> int:
        """sqrt(Q) = p^(k/2), the exponent of the Hermitian conjugation
        x -> x^sqrt(Q); only square-order fields have one."""
        if self.k % 2:
            raise NotSquareOrderField(f"{self} has no square order")
        return self._pk_pows[self.k // 2]

    def primitive_element_raw(self) -> int:
        """First element in canonical enumeration order that generates the
        multiplicative group."""
        return self._prim

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


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the lexicographically smallest monic irreducible modulus."""
    if _prime_factors(p) != [p]:
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


def root_of_unity(F: FiniteField, m: int) -> tuple[FiniteField, int]:
    """Splitting field S of x^m - 1 over F and a canonical primitive m-th
    root of unity in it, as a raw code of S."""
    if m < 1:
        raise ValueError("m must be positive")
    if math.gcd(m, F.p) != 1:
        raise CharacteristicDividesM(f"characteristic {F.p} divides m={m}")
    if m == 1:
        return F, 1
    # s = multiplicative order of |F| mod m
    s = 1
    acc = F.order % m
    while acc != 1:
        acc = (acc * F.order) % m
        s += 1
    splitting = make_field(F.p, F.k * s)
    g = splitting.primitive_element_raw()
    return splitting, splitting.pow_raw(g, (splitting.order - 1) // m)
