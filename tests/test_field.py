import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccd.errors import (
    DivisionByZero,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotASubfield,
    NotSquareOrderField,
)
from qccd.field import (
    FiniteField,
    _smallest_irreducible,
    field_from_order,
    make_field,
    root_of_unity,
)

def sub(F, a, b):
    """a - b as a + (-b)."""
    return F.add_raw(a, F.neg_raw(b))


def frobenius(F, a, j):
    """a^(p^j)."""
    return F.pow_raw(a, F.p**j)


def multiplicative_order(F, a):
    """The least o >= 1 with a^o = 1, by trying each in turn."""
    return next(o for o in range(1, F.order) if F.pow_raw(a, o) == 1)


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F16 = make_field(2, 4)


def test_canonical_moduli():
    # lexicographically smallest monic irreducible, low degree first
    assert F2.modulus == (0, 1)          # x
    assert F4.modulus == (1, 1, 1)       # 1 + x + x^2
    assert F8.modulus == (1, 0, 1, 1)    # 1 + x^2 + x^3
    assert F9.modulus == (1, 0, 1)       # 1 + x^2
    assert F16.modulus == (1, 0, 0, 1, 1)


def test_field_identity_is_cached():
    assert make_field(2, 2) is F4
    assert field_from_order(9) is F9


def test_bad_parameters():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 3)
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)
    with pytest.raises(FieldTooLarge):
        make_field(2, 21)
    with pytest.raises(FieldTooLarge):  # before hours of trial division
        field_from_order(2**89 - 1)


@pytest.mark.parametrize("F", [F2, F3, F4, F8, F9])
def test_field_axioms_exhaustive(F):
    q = F.order
    for a in range(q):
        assert F.add_raw(a, 0) == a
        assert F.mul_raw(a, 1) == a
        assert F.add_raw(a, F.neg_raw(a)) == 0
        if a:
            assert F.mul_raw(a, F.inv_raw(a)) == 1
        for b in range(q):
            assert F.add_raw(a, b) == F.add_raw(b, a)
            assert F.mul_raw(a, b) == F.mul_raw(b, a)
            for c in range(q):
                lhs = F.mul_raw(a, F.add_raw(b, c))
                rhs = F.add_raw(F.mul_raw(a, b), F.mul_raw(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2)])
def test_add_neg_sub_match_digit_formula(p, k):
    F = make_field(p, k)

    def digitwise(f, *xs):
        return sum(f(*(x // p**i for x in xs)) % p * p**i for i in range(k))

    for a in range(F.order):
        assert F.neg_raw(a) == digitwise(lambda x: -x, a)
        for b in range(F.order):
            assert F.add_raw(a, b) == digitwise(lambda x, y: x + y, a, b)
            assert sub(F, a, b) == digitwise(lambda x, y: x - y, a, b)


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        F4.inv_raw(0)


@given(st.integers(0, 8), st.integers(0, 8))
def test_frobenius_is_additive_and_multiplicative(a, b):
    F = F9
    fa, fb = frobenius(F, a, 1), frobenius(F, b, 1)
    assert frobenius(F, F.add_raw(a, b), 1) == F.add_raw(fa, fb)
    assert frobenius(F, F.mul_raw(a, b), 1) == F.mul_raw(fa, fb)


@pytest.mark.parametrize("F", [F4, F8, F9, F16])
def test_frobenius_orbit_closes(F):
    for a in range(F.order):
        assert frobenius(F, a, F.k) == a


def test_primitive_element_order():
    for F in (F4, F8, F9, F16):
        g = F.primitive_element_raw()
        assert multiplicative_order(F, g) == F.order - 1


def test_element_operators():
    w = 2  # the class of x in GF(2)[x]/(1 + x + x^2)
    assert F4.mul_raw(w, w) == 3
    assert F4.add_raw(w, w) == 0
    assert F4.pow_raw(w, 3) == 1
    assert F4.pow_raw(w, F4.conj_exp) == 3  # conjugation is squaring in GF(4)
    assert [F.conj_exp for F in (F4, F9, F16)] == [2, 3, 4]
    with pytest.raises(NotSquareOrderField, match=r"^GF\(2\^3\) has no square order$"):
        F8.conj_exp
    assert F4.mul_raw(w, F4.inv_raw(w)) == 1


def test_subfield_embedding_roundtrip():
    table, retract = F16.embedding(F4)
    assert len(table) == 4
    assert table[0] == 0 and table[1] == 1
    for a in range(4):
        for b in range(4):
            assert retract[F16.add_raw(table[a], table[b])] == F4.add_raw(a, b)
            assert retract[F16.mul_raw(table[a], table[b])] == F4.mul_raw(a, b)


def test_embedding_rejects_non_subfield():
    with pytest.raises(NotASubfield):
        F8.embedding(F4)
    with pytest.raises(NotASubfield):
        F9.embedding(F2)


def test_trace_values():
    # trace of GF(4) down to GF(2): Tr(x) = x + x^2
    assert [F4.trace_raw(a, F2) for a in range(4)] == [0, 0, 1, 1]


def schoolbook_product(F, a, b):
    """a * b from the digit lists of a and b: their product as polynomials
    over GF(p), reduced by the monic modulus from the top degree down."""
    p, k, f = F.p, F.k, F.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(F.to_digits(a)):
        for j, y in enumerate(F.to_digits(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    while len(prod) > k:
        c, shift = prod.pop(), len(prod) - k
        for j in range(k):
            prod[shift + j] = (prod[shift + j] - c * f[j]) % p
    return sum(d * p**i for i, d in enumerate(prod))


@pytest.mark.parametrize("p, k", [(2, 1), (2, 8), (3, 5), (5, 3), (7, 2), (257, 1), (2, 16), (3, 10)])
def test_tables_match_polynomial_products(p, k):
    # the tables, built by doubling, against schoolbook products: exp[i + 1]
    # = exp[i] g and exp lists every nonzero element once, so g is primitive
    F = make_field(p, k)
    exp, log = F.tables()
    g, n = F.primitive_element_raw(), F.order - 1
    assert exp[0] == 1 and sorted(exp[:n]) == list(range(1, F.order))
    rng = random.Random(F.order)
    steps = range(n) if n <= 4096 else rng.sample(range(n), 2000)
    for i in steps:
        assert exp[i + 1] == schoolbook_product(F, exp[i], g) and log[exp[i]] == i
    for _ in range(300):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.mul_raw(a, b) == schoolbook_product(F, a, b)


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def smallest_irreducible_by_trial_division(p, k):
    """The first monic f of degree k, low-degree-first order, that no monic
    polynomial of degree 1 .. k/2 divides."""
    def divides(g, f):
        f = list(f)
        while len(f) >= len(g):
            c, shift = f.pop(), len(f) - len(g) + 1
            for j in range(len(g) - 1):
                f[shift + j] = (f[shift + j] - c * g[j]) % p
        return not any(f)

    for low in itertools.product(range(p), repeat=k):
        f = [*low, 1]
        if not any(divides([*h, 1], f) for d in range(1, k // 2 + 1)
                   for h in itertools.product(range(p), repeat=d)):
            return tuple(f)


def test_modulus_search_matches_trial_division():
    for p in filter(is_prime, range(2, 1025)):
        for k in range(1, 11):
            if p**k <= 1024:
                assert _smallest_irreducible(p, k) == smallest_irreducible_by_trial_division(p, k), (p, k)


def pinned_fields():
    small = [(p, k) for p in filter(is_prime, range(2, 4097)) for k in range(1, 13) if p**k <= 4096]
    return sorted(small + [(2, 16), (3, 10), (251, 2), (65521, 1)])


def test_moduli_and_primitive_elements_are_pinned():
    # digest of "p k modulus g" lines from the trial-division construction
    # that preceded the matrix one; FiniteField bypasses make_field's cache
    lines = []
    for p, k in pinned_fields():
        F = FiniteField(p, k, _smallest_irreducible(p, k))
        lines.append(f"{p} {k} {' '.join(map(str, F.modulus))} {F.primitive_element_raw()}")
    assert len(lines) == 608
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "64a36725058279c9a75f198e981767ac15bdb4cce2f124ba5e93480108c35917"


@pytest.mark.parametrize("p, k, j", [(2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 6, 2), (3, 6, 3)])
def test_trace_table_is_the_frobenius_sum(p, k, j):
    big, sub = make_field(p, k), make_field(p, j)
    table, (_, retract) = big.trace_table(sub), big.embedding(sub)
    for a in range(big.order):
        acc = y = a
        for _ in range(k // j - 1):
            y = frobenius(big, y, j)
            acc = big.add_raw(acc, y)
        assert table[a] == retract[acc]


def test_trace_is_surjective_onto_subfield():
    for big, sub in ((F16, F4), (F9, F3), (F8, F2)):
        values = {big.trace_raw(a, sub) for a in range(big.order)}
        assert values == set(range(sub.order))


@pytest.mark.parametrize(
    "q,m", [(2, 3), (2, 5), (2, 7), (3, 4), (4, 5), (3, 8)]
)
def test_root_of_unity_has_exact_order(q, m):
    S, xi = root_of_unity(field_from_order(q), m)
    assert multiplicative_order(S, xi) == m


def test_root_of_unity_splitting_degree():
    # order of 2 mod 7 is 3, so the 7th roots live in GF(8)
    S, xi = root_of_unity(F2, 7)
    assert S is F8 and multiplicative_order(F8, xi) == 7


def test_frobenius_orbit_iterates():
    # frobenius(a, j) is j squarings; the orbit of 7 in GF(16) has 4 members
    orbit = [7]
    for _ in range(4):
        orbit.append(F16.pow_raw(orbit[-1], 2))
    assert [frobenius(F16, 7, j) for j in range(5)] == orbit
    assert orbit[4] == 7 and len(set(orbit)) == 4


def test_fields_pickle():
    # the process pool ships fields by pickle: they come back as the singleton
    F = pickle.loads(pickle.dumps(F9))
    assert F is F9


@settings(max_examples=50)
@given(st.integers(0, 15), st.integers(1, 14))
def test_division_roundtrip_gf16(a, b):
    assert F16.mul_raw(F16.mul_raw(a, F16.inv_raw(b)), b) == a


# ---------------------------------------------------------------------------
# table kernels: Zech addition and the row operation
# ---------------------------------------------------------------------------

def digit_sub(F, x, y):
    """x - y by the base-p digit formula."""
    p = F.p
    return sum((x // p**i - y // p**i) % p * p**i for i in range(F.k))


def digit_add(F, x, y):
    return digit_sub(F, x, digit_sub(F, 0, y))


def row_reference(F, xs, c, ys):
    return [digit_sub(F, x, F.mul_raw(c, y)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_zech_kernels_match_digit_formula_on_every_pair(p, k):
    F = make_field(p, k)
    q = F.order
    xs = [x for x in range(q) for _ in range(q)]
    ys = list(range(q)) * q
    for x, y in zip(xs, ys):
        assert F.add_raw(x, y) == digit_add(F, x, y)
        assert sub(F, x, y) == digit_sub(F, x, y)
    assert [F.neg_raw(x) for x in range(q)] == [digit_sub(F, 0, x) for x in range(q)]
    rng = random.Random(q)
    for c in {0, 1, p - 1, F.primitive_element_raw(), rng.randrange(q), rng.randrange(q)}:
        assert F.row_sub_raw(xs, c, ys) == row_reference(F, xs, c, ys), c


@pytest.mark.parametrize("p, k", [(3, 6), (3, 10)])
def test_zech_kernels_match_digit_formula_on_seeded_pairs(p, k):
    F = make_field(p, k)
    rng = random.Random(k)
    xs = [rng.randrange(F.order) for _ in range(3000)] + [0, 0, 5, 7]
    ys = [rng.randrange(F.order) for _ in range(3000)] + [0, 4, 0, 7]
    for x, y in zip(xs, ys):
        assert F.add_raw(x, y) == digit_add(F, x, y)
        assert sub(F, x, y) == digit_sub(F, x, y)
        assert F.neg_raw(x) == digit_sub(F, 0, x)
    for c in (0, 1, F.neg_raw(1), rng.randrange(1, F.order)):
        assert F.row_sub_raw(xs, c, ys) == row_reference(F, xs, c, ys), c


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 4)])
def test_row_op_matches_digit_formula(p, k):
    F = make_field(p, k)
    rng = random.Random(p * 100 + k)
    xs = [rng.randrange(F.order) for _ in range(200)] + [0, 0, 1]
    ys = [rng.randrange(F.order) for _ in range(200)] + [0, 1, 0]
    cs = range(F.order) if F.order <= 16 else [0, 1, F.neg_raw(1)] + rng.sample(range(F.order), 5)
    for c in cs:
        assert F.row_sub_raw(xs, c, ys) == row_reference(F, xs, c, ys), c
