"""Cyclic codes by generator polynomial: LCD characterizations for the
Euclidean and Hermitian forms, reversibility, and repeated-root lengths
ell = ell0 * p^e.

Each verdict is computed once, from g: the gcd criterion for LCD, and g
against its (conjugate-)reciprocal for reversibility; ``_star`` picks
either by form for both LCD tests.  The CLI's ``cyclic-check`` compares
them with the oracle ``is_lcd_by_factors``, the hull dimension and the
closure under reversal of the code spanned by the rotations of g.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import NotADivisor
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
            b, n = self.g.padded_coeffs(self.ell), self.ell  # x^i rotates g by i
            rows = [b[n - i:] + b[:n - i] for i in range(self.dim)]
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


def _star(f: Poly, form: str) -> Poly:
    """The reciprocal of f for the Euclidean form, its conjugate-reciprocal
    for the Hermitian one."""
    if form == "euclidean":
        return f.reciprocal()
    if form == "hermitian":
        return f.conj_reciprocal()
    raise ValueError(f"unknown form {form!r}")


def is_lcd_by_factors(C: CyclicCode, form: str = "euclidean") -> bool:
    """The factor characterization of LCD cyclic codes: g equals its
    (conjugate-)reciprocal, and every irreducible factor of x^ell - 1 divides
    g to its full multiplicity in x^ell - 1 or not at all.  The CLI checks
    ``is_lcd_cyclic`` against it."""
    g = C.g
    return g == _star(g, form) and all(
        _multiplicity(f, g) in (0, mult) for f, mult in irreducible_factors(C.field, C.ell)
    )


def is_lcd_cyclic(C: CyclicCode, form: str = "euclidean") -> bool:
    """LCD test via the coprimality of g with the (conjugate-)reciprocal
    check polynomial."""
    if C.dim == 0:
        return True  # zero code: trivial hull
    return poly_gcd(C.g, _star(C.h, form)).degree == 0


def is_reversible(C: CyclicCode) -> bool:
    """Closed under coordinate reversal; iff g is self-reciprocal (1 and
    x^ell - 1 are)."""
    return C.g == C.g.reciprocal()


def is_conjugate_reversible(C: CyclicCode) -> bool:
    """Closed under conjugated coordinate reversal; iff g equals its
    conjugate-reciprocal (1 and x^ell - 1 do)."""
    return C.g == C.g.conj_reciprocal()
