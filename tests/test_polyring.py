import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccd.errors import NotSquareOrderField, ZeroConstantTerm
from qccd.field import field_from_order, make_field, root_of_unity
from qccd.polyring import (
    Poly,
    cyclotomic_cosets,
    factor_xm_minus_1,
    poly_gcd,
    xm_minus_one,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def P(field, *coeffs):
    return Poly(field, list(coeffs))


def polys(field, max_deg=6):
    return st.lists(
        st.integers(0, field.order - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda c: Poly(field, c))


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul_examples():
    assert P(F2, 1, 1) * P(F2, 1, 1) == P(F2, 1, 0, 1)
    assert P(F3, 1, 2) * P(F3, 2, 1) == P(F3, 2, 2, 2)


def test_divmod_identity():
    a = P(F3, 2, 0, 1, 1, 2)
    b = P(F3, 1, 1, 1)
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=60)
@given(polys(F4), polys(F4))
def test_mul_commutes_gf4(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(polys(F3), polys(F3, 4))
def test_divmod_roundtrip(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a


def test_evaluate():
    f = P(F2, 1, 1, 0, 1)  # 1 + x + x^3
    assert f.evaluate(F2, 0) == 1
    assert f.evaluate(F2, 1) == 1
    # at a root in GF(8): f is a factor of x^7 - 1
    F8 = make_field(2, 3)
    roots = [a for a in range(8) if f.evaluate(F8, a) == 0]
    assert len(roots) == 3


# ---------------------------------------------------------------------------
# reciprocals and conjugates
# ---------------------------------------------------------------------------

def test_reciprocal_examples():
    f = P(F2, 1, 1, 0, 1)
    assert f.reciprocal() == P(F2, 1, 0, 1, 1)
    g = P(F3, 2, 0, 1)  # 2 + x^2 -> monic reciprocal of reversed
    assert g.reciprocal() == (P(F3, 1, 0, 2)).monic()


def test_reciprocal_needs_nonzero_constant():
    with pytest.raises(ZeroConstantTerm):
        P(F2, 0, 1).reciprocal()


def test_self_reciprocal():
    f = P(F2, 1, 1, 1)
    assert f.reciprocal() == f


def test_conjugate_squares_coefficients():
    f = P(F4, 2, 1, 3)
    g = f.conjugate()
    assert g == P(F4, 3, 1, 2)
    with pytest.raises(NotSquareOrderField):
        P(F2, 1, 1).conjugate()


def test_reciprocal_gf4_example():
    # x^2 + x + w over GF(4): monic reciprocal is x^2 + w^2 x + w^2
    f = P(F4, 2, 1, 1)
    assert f.reciprocal() == P(F4, 3, 3, 1)


def test_conj_reciprocal_composes_both_maps():
    f = P(F4, 2, 1, 1)
    assert f.conj_reciprocal() == f.reciprocal().conjugate() == P(F4, 2, 2, 1)


@settings(max_examples=40)
@given(polys(F4))
def test_reciprocal_involutes(f):
    if f.is_zero() or f.coeffs[0] == 0:
        return
    assert f.reciprocal().reciprocal() == f.monic()


# ---------------------------------------------------------------------------
# R = F[x]/(x^m - 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, m", [(2, 7), (3, 8), (4, 5), (9, 5)])
def test_fold_matches_evaluation(q, m):
    # at each m-th root of unity xi^i, an independent oracle in the splitting
    # field: f.fold(m, e) takes the value f(xi^(i e)), and a b folded a(xi^i) b(xi^i)
    base, rng = field_from_order(q), random.Random(q * 100 + m)
    S, xi = root_of_unity(base, m)
    unit = next(e for e in range(2, m) if math.gcd(e, m) == 1)
    non_unit = next(e for e in range(2, m + 1) if math.gcd(e, m) > 1)
    assert unit not in (1, m - 1)
    for _ in range(6):
        f, a, b = (Poly(base, [rng.randrange(q) for _ in range(rng.randrange(3 * m))])
                   for _ in range(3))
        ab = (a * b).fold(m)
        assert ab.degree < m
        for e in (1, m - 1, unit, non_unit):
            folded = f.fold(m, e)
            assert folded.degree < m
            for i in range(m):
                point = S.pow_raw(xi, i)
                assert folded.evaluate(S, point) == f.evaluate(S, S.pow_raw(xi, i * e)), (e, i)
        for i in range(m):
            point = S.pow_raw(xi, i)
            assert ab.evaluate(S, point) == S.mul_raw(a.evaluate(S, point), b.evaluate(S, point))


def test_fold_examples():
    f = P(F2, 1, 1, 0, 1, 0, 0, 0, 1)  # 1 + x + x^3 + x^7
    assert f.fold(7) == P(F2, 0, 1, 0, 1)  # x^7 = 1 cancels the constant
    assert f.fold(7, 6) == P(F2, 0, 0, 0, 0, 1, 0, 1)  # x -> x^6 = x^-1
    assert P(F3, 1, 2, 1).fold(3, 3) == P(F3, 1)  # x -> x^3 = 1: f(1) = 4 = 1
    assert Poly.zero(F3).fold(4, 2).is_zero()


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------

def test_xm_minus_one_needs_positive_m():
    assert xm_minus_one(F3, 1) == P(F3, 2, 1)
    for m in (0, -2):
        with pytest.raises(ValueError):
            xm_minus_one(F2, m)


def test_gcd_of_coprime_is_one():
    assert poly_gcd(P(F2, 1, 1), P(F2, 1, 1, 1)).degree == 0


# ---------------------------------------------------------------------------
# cyclotomic cosets and factorization
# ---------------------------------------------------------------------------

def test_cosets_partition():
    cosets = cyclotomic_cosets(2, 15)
    seen = sorted(x for c in cosets for x in c)
    assert seen == list(range(15))
    assert [min(c) for c in cosets] == sorted(min(c) for c in cosets)


def test_cosets_gf4_mod_15():
    cosets = cyclotomic_cosets(4, 15)
    assert len(cosets) == 9
    assert all(len(c) <= 2 for c in cosets)


def test_factor_m3_gf2():
    prof = factor_xm_minus_1(F2, 3)
    assert (prof.s, prof.t) == (2, 0)
    gs = [g for g, _ in prof.self_recip]
    assert gs == [P(F2, 1, 1), P(F2, 1, 1, 1)]


def test_factor_m5_gf2():
    prof = factor_xm_minus_1(F2, 5)
    assert (prof.s, prof.t) == (2, 0)
    assert prof.self_recip[1][0] == P(F2, 1, 1, 1, 1, 1)


def test_factor_m7_gf2():
    prof = factor_xm_minus_1(F2, 7)
    assert (prof.s, prof.t) == (1, 1)
    h, hstar, v = prof.pairs[0]
    assert v == 1
    assert {h, hstar} == {P(F2, 1, 1, 0, 1), P(F2, 1, 0, 1, 1)}
    assert h.reciprocal() == hstar


@pytest.mark.parametrize(
    "q,m", [(2, 9), (2, 15), (3, 8), (3, 13), (4, 15), (4, 5)]
)
def test_factor_product_reconstructs(q, m):
    from qccd.field import field_from_order

    base = field_from_order(q)
    prof = factor_xm_minus_1(base, m)
    prod = Poly.one(base)
    for f in prof.all_factors():
        prod = prod * f
    assert prod == xm_minus_one(base, m)
    prof.verify()


def test_pair_orientation_deterministic():
    prof = factor_xm_minus_1(F2, 7)
    # the first member of the pair carries the smaller coset leader
    h, hstar, v = prof.pairs[0]
    S = prof.splitting
    assert h.evaluate(S, S.pow_raw(prof.xi, v)) == 0
    assert hstar.evaluate(S, S.pow_raw(prof.xi, -v)) == 0


def test_factor_profile_cached():
    assert factor_xm_minus_1(F2, 21) is factor_xm_minus_1(F2, 21)
