"""Dense univariate polynomials over a finite field, and the factorization
of x^m - 1 into self-reciprocal factors and reciprocal pairs.

Coefficients are stored low degree first as raw field codes, with no
trailing zeros (the zero polynomial has an empty coefficient tuple).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotASubfield,
    NotCoprime,
    NotSquareOrderField,
    ZeroConstantTerm,
)
from .field import FieldElement, FiniteField, root_of_unity


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    # -- basics ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "Poly"):
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, [F.add_raw(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, [F.sub_raw(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg_raw(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        d = len(other.coeffs)
        for i, a in enumerate(self.coeffs):
            if a:
                out[i:i + d] = F.row_sub_raw(out[i:i + d], F.neg_raw(a), other.coeffs)
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(F, [F.mul_raw(c, a) for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv_raw(self.coeffs[-1]))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = F.inv_raw(other.coeffs[-1])
        q = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = F.mul_raw(rem[-1], lead_inv)
            shift = len(rem) - 1 - db
            if c:
                q[shift] = c
                rem[shift:] = F.row_sub_raw(rem[shift:], c, other.coeffs)
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, q), Poly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    # -- evaluation --------------------------------------------------------
    def evaluate(self, point: FieldElement) -> FieldElement:
        """Evaluate at a point in the coefficient field or any extension."""
        E = point.field
        if E is self.field:
            coeffs = self.coeffs
        else:
            if not E.is_subfield(self.field):
                raise NotASubfield(f"{self.field} does not embed into {E}")
            table, _ = E.embedding(self.field)
            coeffs = [table[c] for c in self.coeffs]
        acc = 0
        for c in reversed(coeffs):
            acc = E.add_raw(E.mul_raw(acc, point.raw), c)
        return FieldElement(E, acc)

    # -- reciprocal / conjugate --------------------------------------------
    def reciprocal(self) -> "Poly":
        """Monic reciprocal f0^-1 x^deg f(1/x); requires f(0) != 0."""
        if self.is_zero() or self.coeffs[0] == 0:
            raise ZeroConstantTerm("reciprocal requires a nonzero constant term")
        F = self.field
        inv0 = F.inv_raw(self.coeffs[0])
        return Poly(F, [F.mul_raw(inv0, c) for c in reversed(self.coeffs)])

    def conjugate(self) -> "Poly":
        """Coefficientwise x -> x^sqrt(Q); requires a square-order field."""
        F = self.field
        if F.k % 2:
            raise NotSquareOrderField(f"{F} has no square order")
        e = F.p ** (F.k // 2)
        return Poly(F, [F.pow_raw(c, e) for c in self.coeffs])

    def conj_reciprocal(self) -> "Poly":
        return self.conjugate().reciprocal()

    # -- modular helpers for R = F[x]/(x^m - 1) ----------------------------
    def reduce_mod_xm(self, m: int) -> "Poly":
        F = self.field
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[i % m] = F.add_raw(out[i % m], c)
        return Poly(F, out)

    def mul_mod_xm(self, other: "Poly", m: int) -> "Poly":
        return (self * other).reduce_mod_xm(m)

    def shift_mod_xm(self, s: int, m: int) -> "Poly":
        """Multiply by x^s in F[x]/(x^m - 1)."""
        F = self.field
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i + s) % m] = F.add_raw(out[(i + s) % m], c)
        return Poly(F, out)

    def padded_coeffs(self, n: int) -> list[int]:
        return [self.coeff(i) for i in range(n)]

    def substitute_power(self, e: int, m: int) -> "Poly":
        """f(x^e) reduced in F[x]/(x^m - 1)."""
        F = self.field
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                j = (i * e) % m
                out[j] = F.add_raw(out[j], c)
        return Poly(F, out)

    # -- misc --------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Poly({self.field}, {list(self.coeffs)})"


def xm_minus_one(field: FiniteField, m: int) -> Poly:
    if m < 1:
        raise ValueError(f"x^m - 1 needs m >= 1, got m = {m}")
    coeffs = [0] * (m + 1)
    coeffs[0] = field.neg_raw(1)
    coeffs[m] = 1
    return Poly(field, coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# cyclotomic cosets and the factorization of x^m - 1
# ---------------------------------------------------------------------------

def cyclotomic_cosets(q: int, m: int) -> list[list[int]]:
    """q-cyclotomic cosets of Z_m, each sorted, ordered by smallest member."""
    if math.gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    seen = [False] * m
    cosets = []
    for i in range(m):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * q) % m
        cosets.append(sorted(orbit))
    return cosets


@dataclass(frozen=True)
class FactorProfile:
    """Factorization x^m - 1 = prod g_i * prod h_j h_j^* over the base field,
    with root exponents chosen from cyclotomic coset leaders."""

    m: int
    base: FiniteField
    self_recip: tuple[tuple[Poly, int], ...]      # (g_i, u_i)
    pairs: tuple[tuple[Poly, Poly, int], ...]     # (h_j, h_j^*, v_j)
    splitting: FiniteField
    xi: FieldElement

    @property
    def s(self) -> int:
        return len(self.self_recip)

    @property
    def t(self) -> int:
        return len(self.pairs)

    def all_factors(self) -> list[Poly]:
        out = [g for g, _ in self.self_recip]
        for h, hstar, _ in self.pairs:
            out.extend([h, hstar])
        return out

    def verify(self):
        prod = Poly.one(self.base)
        for f in self.all_factors():
            prod = prod * f
        if prod != xm_minus_one(self.base, self.m):
            raise AssertionError("factor product does not reconstruct x^m - 1")
        for g, u in self.self_recip:
            if g != g.reciprocal():
                raise AssertionError("self-reciprocal factor fails reciprocal check")
            if g.evaluate(self.xi**u).raw != 0:
                raise AssertionError("g_i(xi^u_i) != 0")
        for h, hstar, v in self.pairs:
            if hstar != h.reciprocal() or h == hstar:
                raise AssertionError("pair orientation check failed")
            if h.evaluate(self.xi**v).raw != 0:
                raise AssertionError("h_j(xi^v_j) != 0")
            if hstar.evaluate(self.xi ** (-v % self.m)).raw != 0:
                raise AssertionError("h_j^*(xi^-v_j) != 0")


@lru_cache(maxsize=None)
def factor_xm_minus_1(base: FiniteField, m: int) -> FactorProfile:
    """Factor x^m - 1 over the base field (squarefree case, gcd(m, p) = 1)."""
    if math.gcd(m, base.p) != 1:
        raise NotCoprime(f"characteristic {base.p} divides m={m}")
    splitting, xi = root_of_unity(base, m)
    _, retract = splitting.embedding(base)
    xi_pows = [splitting.pow_raw(xi.raw, i) for i in range(m)]

    cosets = cyclotomic_cosets(base.order, m)
    by_leader = {}
    for coset in cosets:
        # minimal polynomial prod_{i in coset} (x - xi^i), computed upstairs
        poly = [1]
        for i in coset:
            root = xi_pows[i]
            # multiply (current) by (x - root)
            poly = splitting.row_sub_raw([0] + poly, root, poly + [0])
        try:
            base_coeffs = [retract[c] for c in poly]
        except KeyError:
            raise AssertionError("minimal polynomial coefficients escaped the base field")
        by_leader[coset[0]] = (Poly(base, base_coeffs), coset)

    self_recip = []
    pairs = []
    for leader in sorted(by_leader):
        f, coset = by_leader[leader]
        neg = sorted((-i) % m for i in coset)
        if neg == coset:
            self_recip.append((f, leader))
        else:
            neg_leader = neg[0]
            if leader < neg_leader:
                pairs.append((f, by_leader[neg_leader][0], leader))

    profile = FactorProfile(
        m=m,
        base=base,
        self_recip=tuple(self_recip),
        pairs=tuple(pairs),
        splitting=splitting,
        xi=xi,
    )
    profile.verify()
    return profile
