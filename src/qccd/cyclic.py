"""Cyclic codes by generator polynomial: LCD characterizations for the
Euclidean and Hermitian forms, reversibility, and repeated-root lengths
ell = ell0 * p^e."""
from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import NotADivisor, NotSquareOrderField
from .field import FiniteField
from .lincode import LinearCode
from .polyring import Poly, factor_xm_minus_1, poly_gcd, xm_minus_one


class CyclicCode:
    """Length-ell cyclic code <g(x)> with g | x^ell - 1."""

    def __init__(self, field: FiniteField, ell: int, g: Poly, h: Poly):
        self.field = field
        self.ell = ell
        self.g = g
        self.h = h
        self.dim = ell - g.degree
        self._lin = None

    def as_linear_code(self) -> LinearCode:
        if self._lin is None:
            rows = [self.g.shift_mod_xm(i, self.ell).padded_coeffs(self.ell) for i in range(self.dim)]
            self._lin = LinearCode.from_rows(self.field, self.ell, rows)
        return self._lin

    def __repr__(self):
        return f"CyclicCode({self.field}, ell={self.ell}, dim={self.dim})"


def make_cyclic(field: FiniteField, ell: int, g: Poly) -> CyclicCode:
    if g.field is not field:
        raise NotADivisor("generator polynomial over the wrong field")
    g = g.monic() if not g.is_zero() else g
    modp = xm_minus_one(field, ell)
    if g.is_zero() or not (modp % g).is_zero():
        raise NotADivisor("g does not divide x^ell - 1")
    h = modp // g
    return CyclicCode(field, ell, g, h)


def _squarefree_split(ell: int, p: int) -> tuple[int, int]:
    """ell = ell0 * p^e with gcd(ell0, p) = 1; returns (ell0, p^e)."""
    pe = 1
    while ell % p == 0:
        ell //= p
        pe *= p
    return ell, pe


@lru_cache(maxsize=None)
def irreducible_factors(field: FiniteField, ell: int) -> tuple[tuple[Poly, int], ...]:
    """Irreducible factors of x^ell - 1 with multiplicities, in the canonical
    profile order of the squarefree part."""
    ell0, pe = _squarefree_split(ell, field.p)
    profile = factor_xm_minus_1(field, ell0)
    return tuple((f, pe) for f in profile.all_factors())


def divisors_of_xell_minus_one(field: FiniteField, ell: int):
    """All monic divisors of x^ell - 1, ordered by exponent vector
    (lexicographic over the canonical factor order)."""
    facs = irreducible_factors(field, ell)
    ranges = [range(mult + 1) for _, mult in facs]
    for exps in itertools.product(*ranges):
        d = Poly.one(field)
        for (f, _), e in zip(facs, exps):
            for _ in range(e):
                d = d * f
        yield d


def _multiplicity(f: Poly, g: Poly) -> int:
    m = 0
    while not g.is_zero():
        q, r = g.divmod(f)
        if not r.is_zero():
            break
        g = q
        m += 1
    return m


def _factors_balanced(C: CyclicCode, target: Poly) -> bool:
    """Every irreducible factor of target has the same multiplicity in target
    as in x^ell - 1 (or multiplicity zero)."""
    for f, mult in irreducible_factors(C.field, C.ell):
        mg = _multiplicity(f, target)
        if mg not in (0, mult):
            return False
    return True


def is_lcd_cyclic(C: CyclicCode, form: str = "euclidean") -> bool:
    """LCD test via the coprimality of g with the (conjugate-)reciprocal
    check polynomial; cross-checked against the factor-multiplicity
    characterization."""
    g = C.g
    if C.dim == 0:
        return True  # zero code: trivial hull
    if form == "euclidean":
        ht = C.h.reciprocal()
        primary = poly_gcd(g, ht).degree == 0
        secondary = (g == g.reciprocal()) and _factors_balanced(C, g)
    elif form == "hermitian":
        if C.field.k % 2:
            raise NotSquareOrderField(f"{C.field} has no square order")
        ht = C.h.conjugate().reciprocal()
        primary = poly_gcd(g, ht).degree == 0
        secondary = (g == g.conj_reciprocal()) and _factors_balanced(C, g)
    else:
        raise ValueError(f"unknown form {form!r}")
    if C.dim == C.ell:
        secondary = True  # g = 1: whole space, vacuously balanced
    if primary != secondary:
        raise AssertionError("LCD gcd criterion and factor criterion disagree")
    return primary


def is_reversible(C: CyclicCode) -> bool:
    """Closed under coordinate reversal; iff g is self-reciprocal."""
    if C.dim == 0 or C.dim == C.ell:
        return True
    poly_verdict = C.g == C.g.reciprocal()
    sem_verdict = C.as_linear_code().closed_under(range(C.ell - 1, -1, -1))
    if poly_verdict != sem_verdict:
        raise AssertionError("reversibility checks disagree")
    return poly_verdict


def is_conjugate_reversible(C: CyclicCode) -> bool:
    """Closed under conjugated coordinate reversal; iff g equals its
    conjugate-reciprocal."""
    F = C.field
    if F.k % 2:
        raise NotSquareOrderField(f"{F} has no square order")
    if C.dim == 0 or C.dim == C.ell:
        return True
    poly_verdict = C.g == C.g.conj_reciprocal()
    sem_verdict = C.as_linear_code().closed_under(range(C.ell - 1, -1, -1), F.p ** (F.k // 2))
    if poly_verdict != sem_verdict:
        raise AssertionError("conjugate-reversibility checks disagree")
    return poly_verdict
