import pytest

from qccd.cyclic import (
    divisors_of_xell_minus_one,
    irreducible_factors,
    is_conjugate_reversible,
    is_lcd_by_factors,
    is_lcd_cyclic,
    is_reversible,
    make_cyclic,
)
from qccd.errors import NotADivisor, NotSquareOrderField
from qccd.field import make_field
from qccd.polyring import Poly, xm_minus_one

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def divides(d, f):
    return (f % d).is_zero()


def _agrees_with_oracles(C, form):
    """The gcd verdict equals the factor criterion, and the polynomial
    reversibility verdict equals the code's closure under (conjugated)
    coordinate reversal."""
    lin = C.as_linear_code()
    reversal = range(C.ell - 1, -1, -1)
    if form == "euclidean":
        closed, reversible = lin.closed_under(reversal), is_reversible(C)
    else:
        closed = lin.closed_under(reversal, C.field.conj_exp)
        reversible = is_conjugate_reversible(C)
    return is_lcd_cyclic(C, form) == is_lcd_by_factors(C, form) and reversible == closed


def test_make_cyclic_rejects_nondivisor():
    with pytest.raises(NotADivisor):
        make_cyclic(F2, 7, Poly(F2, [1, 0, 1]))


def test_dimension_and_rows():
    g = Poly(F2, [1, 1, 0, 1])
    C = make_cyclic(F2, 7, g)
    assert C.dim == 4
    lin = C.as_linear_code()
    assert lin.params() == (7, 4)
    assert lin.min_distance() == 3  # the cyclic Hamming code


def test_check_polynomial():
    g = Poly(F2, [1, 1, 0, 1])
    C = make_cyclic(F2, 7, g)
    assert C.g * C.h == xm_minus_one(F2, 7)


def test_trivial_codes():
    whole = make_cyclic(F2, 5, Poly.one(F2))
    zero = make_cyclic(F2, 5, xm_minus_one(F2, 5))
    assert whole.dim == 5 and zero.dim == 0
    assert is_lcd_cyclic(whole) and is_lcd_cyclic(zero)
    assert is_reversible(whole) and is_reversible(zero)


@pytest.mark.parametrize(
    "field,ell,count",
    [(F2, 7, 8), (F2, 15, 32), (F4, 15, 512), (F3, 8, 32)],
)
def test_divisor_enumeration_count(field, ell, count):
    divs = list(divisors_of_xell_minus_one(field, ell))
    assert len(divs) == count
    assert len(set(d.coeffs for d in divs)) == count
    mod = xm_minus_one(field, ell)
    for d in divs:
        assert divides(d, mod)


def test_repeated_root_factors():
    # x^4 - 1 = (x - 1)^4 over GF(2)
    facs = irreducible_factors(F2, 4)
    assert facs == ((Poly(F2, [1, 1]), 4),)
    # x^6 - 1 over GF(2): squarefree part x^3 - 1, each factor squared
    facs6 = irreducible_factors(F2, 6)
    assert all(mult == 2 for _, mult in facs6)
    assert len(facs6) == 2


@pytest.mark.parametrize("field,ell", [(F2, 7), (F2, 15), (F4, 5), (F3, 8)])
def test_euclidean_lcd_iff_reversible_iff_hull_zero(field, ell):
    for g in divisors_of_xell_minus_one(field, ell):
        C = make_cyclic(field, ell, g)
        verdict = is_lcd_cyclic(C, "euclidean")
        assert verdict == (C.as_linear_code().hull_dim("euclidean") == 0)
        assert _agrees_with_oracles(C, "euclidean")
        if verdict:
            assert is_reversible(C)


def test_lcd_reversible_equivalence_needs_both_directions():
    # reversible alone is not sufficient in the repeated-root case:
    # g = (x-1)^2 divides x^4 - 1 over GF(2), is self-reciprocal, not LCD
    g = Poly(F2, [1, 0, 1])
    C = make_cyclic(F2, 4, g)
    assert is_reversible(C)
    assert not is_lcd_cyclic(C)


@pytest.mark.parametrize("ell", [4, 6, 2])
def test_repeated_root_euclidean_sweep(ell):
    for g in divisors_of_xell_minus_one(F2, ell):
        C = make_cyclic(F2, ell, g)
        assert is_lcd_cyclic(C) == (C.as_linear_code().hull_dim() == 0)
        assert _agrees_with_oracles(C, "euclidean")


@pytest.mark.parametrize("ell", [3, 5, 15, 2, 6])
def test_hermitian_lcd_iff_conj_reversible_iff_hull_zero(ell):
    for g in divisors_of_xell_minus_one(F4, ell):
        C = make_cyclic(F4, ell, g)
        verdict = is_lcd_cyclic(C, "hermitian")
        assert verdict == (C.as_linear_code().hull_dim("hermitian") == 0)
        assert _agrees_with_oracles(C, "hermitian")
        if verdict:
            assert is_conjugate_reversible(C)


def test_hermitian_requires_square_order():
    C = make_cyclic(F2, 7, Poly(F2, [1, 1, 0, 1]))
    with pytest.raises(NotSquareOrderField):
        is_lcd_cyclic(C, "hermitian")
    with pytest.raises(NotSquareOrderField):
        is_conjugate_reversible(C)


def test_quaternary_15_11_3():
    f = Poly(F4, [2, 1, 1])
    g = f * f.reciprocal()
    C = make_cyclic(F4, 15, g)
    lin = C.as_linear_code()
    assert lin.params() == (15, 11)
    assert lin.min_distance() == 3
    assert is_lcd_cyclic(C, "euclidean")
    assert is_reversible(C)


def test_reversible_examples():
    assert is_reversible(make_cyclic(F2, 7, Poly(F2, [1, 1])))
    # an irreducible non-self-reciprocal generator is not reversible
    assert not is_reversible(make_cyclic(F2, 7, Poly(F2, [1, 1, 0, 1])))


def test_conjugate_reversible_example():
    f = Poly(F4, [2, 1, 1])
    g = f * f.conj_reciprocal()
    C = make_cyclic(F4, 15, g)
    assert is_conjugate_reversible(C)
    assert is_lcd_cyclic(C, "hermitian")
