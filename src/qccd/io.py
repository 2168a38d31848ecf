"""Text formats for polynomials, linear codes, and quasi-cyclic codes.

Polynomials: comma-separated coefficients, low degree first ("1,1,0,1"
is 1 + x + x^3).  Each coefficient is the integer code of a field element.

Linear code files: first line "q n k", then k rows of n space-separated
element codes.

Quasi-cyclic code files: first line "q m ell r", then r generator lines,
each with ell coefficient lists separated by "|".

Code lengths n and m*ell above ``lincode.MAX_LENGTH`` are refused from the
header, before anything is built.
"""
from __future__ import annotations

from .errors import LengthMismatch, QccdError
from .field import FiniteField, field_from_order
from .lincode import MAX_LENGTH, LinearCode
from .polyring import Poly
from .qc import QcCode


class ParseError(QccdError):
    pass


def parse_poly(field: FiniteField, text: str) -> Poly:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    try:
        coeffs = [int(t) for t in text.split(",")]
    except ValueError as e:
        raise ParseError(f"bad polynomial {text!r}") from e
    if any(c < 0 or c >= field.order for c in coeffs):
        raise ParseError(f"coefficient out of range for {field} in {text!r}")
    return Poly(field, coeffs)


def format_poly(p: Poly) -> str:
    coeffs = list(p.coeffs) if p.coeffs else [0]
    return ",".join(str(c) for c in coeffs)


def parse_code(text: str) -> LinearCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty code file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError('expected header "q n k"')
    try:
        q, n, k = (int(x) for x in head)
    except ValueError as e:
        raise ParseError(f"bad header {lines[0]!r}") from e
    if not 1 <= n <= MAX_LENGTH:
        raise ParseError(f"n must be between 1 and {MAX_LENGTH} in header {lines[0]!r}")
    if len(lines) != 1 + k:
        raise ParseError(f"expected {k} rows, got {len(lines) - 1}")
    field = field_from_order(q)
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as e:
            raise ParseError(f"bad row {ln!r}") from e
        if len(row) != n:
            raise ParseError(f"row of length {len(row)}, expected {n}")
        if any(x < 0 or x >= q for x in row):
            raise ParseError(f"entry out of range in {ln!r}")
        rows.append(row)
    return LinearCode.from_rows(field, n, rows)


def format_code(C: LinearCode) -> str:
    lines = [f"{C.field.order} {C.n} {C.k}"]
    lines += [" ".join(str(x) for x in r) for r in C.rows]
    return "\n".join(lines) + "\n"


def parse_qc(text: str) -> QcCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty quasi-cyclic code file")
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError('expected header "q m ell r"')
    try:
        q, m, ell, r = (int(x) for x in head)
    except ValueError as e:
        raise ParseError(f"bad header {lines[0]!r}") from e
    if m < 1 or ell < 1 or m * ell > MAX_LENGTH:
        raise ParseError(f"need m, ell >= 1 and m*ell <= {MAX_LENGTH} in header {lines[0]!r}")
    if len(lines) != 1 + r:
        raise ParseError(f"expected {r} generator lines, got {len(lines) - 1}")
    field = field_from_order(q)
    gens = []
    for ln in lines[1:]:
        parts = ln.split("|")
        if len(parts) != ell:
            raise ParseError(f"expected {ell} blocks in {ln!r}")
        gen = tuple(parse_poly(field, p) for p in parts)
        for p in gen:
            if p.degree >= m:
                raise LengthMismatch(f"block of degree {p.degree} at m={m}")
        gens.append(gen)
    return QcCode.make(field, m, ell, gens)


def format_qc(C: QcCode) -> str:
    lines = [f"{C.base.order} {C.m} {C.ell} {len(C.gens)}"]
    for gen in C.gens:
        lines.append("|".join(format_poly(p) for p in gen))
    return "\n".join(lines) + "\n"
