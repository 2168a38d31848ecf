import pytest

from qccd.field import make_field
from qccd.io import (
    ParseError,
    format_code,
    format_poly,
    format_qc,
    parse_code,
    parse_poly,
    parse_qc,
)
from qccd.lincode import LinearCode
from qccd.polyring import Poly
from qccd.qc import QcCode

F2 = make_field(2, 1)
F4 = make_field(2, 2)


def test_poly_roundtrip():
    p = Poly(F4, [1, 3, 0, 2])
    assert parse_poly(F4, format_poly(p)) == p
    assert format_poly(Poly.zero(F2)) == "0"
    assert parse_poly(F2, "1,1,0,1") == Poly(F2, [1, 1, 0, 1])


def test_poly_whitespace_and_errors():
    assert parse_poly(F2, " 1,0,1 ") == Poly(F2, [1, 0, 1])
    with pytest.raises(ParseError):
        parse_poly(F2, "")
    with pytest.raises(ParseError):
        parse_poly(F2, "1,2")  # 2 out of range for GF(2)
    with pytest.raises(ParseError):
        parse_poly(F2, "1,x")


def test_code_roundtrip():
    C = LinearCode.from_rows(F4, 5, [[1, 0, 2, 3, 1], [0, 1, 1, 0, 2]])
    assert parse_code(format_code(C)) == C


def test_code_header_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("2 5\n")
    with pytest.raises(ParseError):
        parse_code("2 3 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_code("2 3 2\n1 0 1\n")  # row count mismatch
    with pytest.raises(ParseError):
        parse_code("2 3 1\n1 0 5\n")  # entry out of range
    for header in ("4 0 0", "4 -2 0"):
        with pytest.raises(ParseError):
            parse_code(header + "\n")


def test_qc_roundtrip():
    C = QcCode.make(
        F2, 5, 2, [(Poly.one(F2), Poly(F2, [1, 1, 0, 1]))]
    )
    D = parse_qc(format_qc(C))
    assert D.expand() == C.expand()


def test_qc_shipped_format():
    text = "2 5 2 1\n1|1,1,0,1\n"
    C = parse_qc(text)
    assert (C.base.order, C.m, C.ell) == (2, 5, 2)
    assert C.gens[0][1] == Poly(F2, [1, 1, 0, 1])


def test_qc_errors():
    with pytest.raises(ParseError):
        parse_qc("2 5 2\n")
    with pytest.raises(ParseError):
        parse_qc("2 5 2 1\n1\n")  # wrong number of blocks
    with pytest.raises(ParseError):
        parse_qc("2 5 2 2\n1|1\n")  # generator count mismatch


def test_length_cap_is_checked_from_the_header():
    from qccd.lincode import MAX_LENGTH

    assert parse_code(f"4 {MAX_LENGTH} 0\n").n == MAX_LENGTH
    C = parse_qc(f"2 {MAX_LENGTH // 2} 2 0\n")
    assert C.m * C.ell == MAX_LENGTH
    for text in (f"4 {MAX_LENGTH + 1} 0\n", "4 50000000 0\n", "4 50000000 1\n0\n"):
        with pytest.raises(ParseError, match="between 1 and"):
            parse_code(text)
    for text in (f"2 {MAX_LENGTH // 2 + 1} 2 0\n", "2 1048575 2 0\n", f"2 1 {MAX_LENGTH + 1} 0\n"):
        with pytest.raises(ParseError, match="m\\*ell <="):
            parse_qc(text)
