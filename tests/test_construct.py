import hashlib
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import qccd.construct as cc
import qccd.lincode as lc
from qccd.construct import (
    DcSearchReport,
    dc_is_lcd,
    dc_search,
    double_circulant,
    expand_subfield,
    find_a,
    hermitian_lcd_extend,
    self_dual_basis,
)
from qccd.errors import (
    BasisFieldMismatch,
    DegreeTooLarge,
    EvenCharacteristic,
    NoSelfDualBasisExists,
    NotCoprime,
    NotSquareOrderField,
    NotSystematic,
    TooLargeToEnumerate,
)
from qccd.field import field_from_order, make_field
from qccd.lincode import LinearCode, bz_min_distance, weight_distribution
from qccd.polyring import Poly, poly_gcd, xm_minus_one

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


# ---------------------------------------------------------------------------
# Hermitian extension
# ---------------------------------------------------------------------------

def random_systematic(rng, field, ell, k):
    rows = [
        [1 if j == i else 0 for j in range(k)]
        + [rng.randrange(field.order) for _ in range(ell - k)]
        for i in range(k)
    ]
    return LinearCode.from_rows(field, ell, rows)


@pytest.mark.parametrize("field", [F4, F9])
def test_extension_gram_is_identity(field):
    rng = random.Random(42)
    for _ in range(25):
        k = rng.randrange(1, 5)
        ell = rng.randrange(k, k + 5)
        Ct = random_systematic(rng, field, ell, k)
        out = hermitian_lcd_extend(Ct)
        assert out.params() == (2 * ell - k, k)
        gram = out.gram("hermitian")
        assert gram == [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        assert out.hull_dim("hermitian") == 0
        assert out.min_distance() >= Ct.min_distance()


def test_extension_with_empty_p():
    Ct = LinearCode.from_rows(F4, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out = hermitian_lcd_extend(Ct)
    assert out.params() == (3, 3)
    assert out.hull_dim("hermitian") == 0


def test_extension_rejects_nonsystematic():
    C = LinearCode.from_rows(F4, 3, [[0, 1, 2]])
    with pytest.raises(NotSystematic):
        hermitian_lcd_extend(C)


def test_extension_needs_square_order():
    C = LinearCode.from_rows(F2, 3, [[1, 0, 1]])
    with pytest.raises(NotSquareOrderField):
        hermitian_lcd_extend(C)


def test_find_a_gf9():
    a = find_a(F9)
    assert F9.pow_raw(a, 4) == F9.neg_raw(1)
    assert F9.pow_raw(a, 8) == 1  # and a^4 = -1: a has order 8


def test_find_a_gf25():
    F25 = make_field(5, 2)
    a = find_a(F25)
    assert F25.pow_raw(a, 6) == F25.neg_raw(1)
    # first solution in canonical enumeration
    for b in range(a):
        assert F25.pow_raw(b, 6) != F25.neg_raw(1)


def test_find_a_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        find_a(F4)
    with pytest.raises(EvenCharacteristic):  # checked before the square order
        find_a(make_field(2, 3))
    with pytest.raises(NotSquareOrderField):
        find_a(make_field(3, 3))


def test_find_a_conjugate_product():
    for F in (F9, make_field(5, 2), make_field(7, 2)):
        a = find_a(F)
        assert F.mul_raw(a, F.pow_raw(a, F.conj_exp)) == F.neg_raw(1)


# ---------------------------------------------------------------------------
# double circulant codes
# ---------------------------------------------------------------------------

def test_double_circulant_shape():
    C = double_circulant(F2, 5, Poly(F2, [1, 1]))
    lin = C.expand()
    assert lin.params() == (10, 5)


def test_double_circulant_degree_check():
    with pytest.raises(DegreeTooLarge):
        double_circulant(F2, 3, Poly(F2, [1, 0, 0, 1]))


def test_dc_zero_a_is_lcd():
    assert dc_is_lcd(F2, 7, Poly.zero(F2))
    assert dc_is_lcd(F3, 5, Poly.zero(F3))


def test_dc_needs_coprime_m():
    with pytest.raises(NotCoprime):
        dc_is_lcd(F2, 6, Poly.one(F2))


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_dc_criterion_matches_hull_oracle_gf2(m):
    for serial in range(2**m):
        a = Poly(F2, [(serial >> i) & 1 for i in range(m)])
        assert dc_is_lcd(F2, m, a) == (double_circulant(F2, m, a).expand().hull_dim() == 0)


def _screen_against_gcd(field, m, serials):
    # the unit test of 1 + a a* in F_q[x]/(x^m - 1) on a block's digits
    # against the gcd criterion; returns the criterion's verdicts
    q = field.order
    a = np.array([cc._serial_to_coeffs(s, q, m) for s in serials], dtype=np.int64)
    expected = [dc_is_lcd(field, m, Poly(field, row)) for row in a.tolist()]
    assert cc._dc_screen(field, m, a).tolist() == expected, (field, m)
    return expected


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11])
def test_dc_gram_screen_gf2_every_serial(m):
    _screen_against_gcd(F2, m, range(2**m))


@pytest.mark.parametrize("m", range(17, 32, 2))
def test_dc_gram_screen_gf2_seeded(m):
    # ord_m(2) reaches 28 (m = 29): splitting fields far above 2^16
    expected = _screen_against_gcd(F2, m, list(cc._random_serials(m, 300, 2**m)))
    assert 0 < sum(expected) < len(expected)


@pytest.mark.parametrize("q, m_max", [(3, 7), (4, 5), (5, 4), (7, 3), (8, 3), (9, 4), (16, 3)])
def test_dc_screen_every_serial(q, m_max):
    field = field_from_order(q)
    for m in range(1, m_max + 1):
        if m % field.p:
            _screen_against_gcd(field, m, range(q**m))


@pytest.mark.parametrize("m", range(1, 14, 2))
def test_dc_screen_gf2_rejects_odd_weight(m):
    # over GF(2), c(1) = 1 + a(1) a*(1) = 1 + a(1)^2 is 0 when a has odd
    # weight, so c is not a unit: every binary LCD <(1, a)> has a of even weight
    serials = np.arange(2**m)
    a = (serials[:, None] >> np.arange(m)) & 1
    odd = a.sum(axis=1) % 2 == 1
    verdicts = cc._dc_screen(F2, m, a)
    assert not verdicts[odd].any()
    assert verdicts[~odd].any()


@pytest.mark.parametrize("q, m", [(3, 41), (3, 44), (4, 45), (5, 64)])
def test_dc_screen_seeded(q, m):
    # splitting fields above 2^16; over GF(3), m = 44, serials pass 2^63
    serials = list(cc._random_serials(m, 300, q**m))
    expected = _screen_against_gcd(field_from_order(q), m, serials)
    assert 0 < sum(expected) < len(expected)


@pytest.mark.parametrize("m", [2, 4, 5])
def test_dc_criterion_matches_hull_oracle_gf3(m):
    for serial in range(3**m):
        a = Poly(F3, [(serial // 3**i) % 3 for i in range(m)])
        assert dc_is_lcd(F3, m, a) == (
            double_circulant(F3, m, a).expand().hull_dim() == 0
        )


def _coprime_shapes(space):
    # (q, m) with gcd(m, q) = 1 and q^m <= space, m = 1 included
    return [(q, m) for q, p in [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)]
            for m in range(1, space.bit_length()) if m % p and q**m <= space]


@pytest.mark.parametrize("q, m", _coprime_shapes(1 << 10))
def test_dc_lcd_count_counts_the_criterion(q, m):
    # even m over GF(3), GF(7) (q = 3 mod 4) and GF(5), GF(9) (q = 1 mod 4)
    # gives the coset {m/2} = -{m/2} of size 1
    field = field_from_order(q)
    lcd = [dc_is_lcd(field, m, Poly(field, cc._serial_to_coeffs(s, q, m))) for s in range(q**m)]
    assert cc.dc_lcd_count(q, m) == sum(lcd)


@pytest.mark.parametrize("q, m", _coprime_shapes(1 << 14))
def test_dc_lcd_count_matches_exhaustive_search(q, m):
    assert dc_search(field_from_order(q), m).lcd_count == cc.dc_lcd_count(q, m)


def _dc_distance(base, m, a):
    # the distance _dc_scan computes: the engine on G1 = [I | circ(a)]
    g1 = np.array([0, 1] + list(a), dtype=np.int64)[cc._dc_positions(m)]
    return int(bz_min_distance(base, g1[None], range(m))[0])


def _expanded_distance(base, m, a):
    # full enumeration of the expanded code, independent of the engine
    lin = double_circulant(base, m, Poly(base, a)).expand()
    dist = weight_distribution(base, lin.rows, lin.n)
    return next(i for i in range(1, lin.n + 1) if dist[i])


@pytest.mark.parametrize("base, m", [(F2, 7), (F3, 5), (F4, 4)])
def test_dc_generator_spans_the_double_circulant_code(base, m):
    rng = random.Random(m)
    for _ in range(10):
        a = cc._serial_to_coeffs(rng.randrange(base.order**m), base.order, m)
        g1 = np.array([0, 1] + a, dtype=np.int64)[cc._dc_positions(m)]
        assert g1[:, :m].tolist() == np.eye(m, dtype=np.int64).tolist()
        expanded = double_circulant(base, m, Poly(base, a)).expand()
        assert LinearCode.from_rows(base, 2 * m, g1.tolist()) == expanded, a


def test_gf2_fast_distance_agrees():
    for m in (5, 7):
        for serial in range(2**m):
            a = cc._serial_to_coeffs(serial, 2, m)
            assert _dc_distance(F2, m, a) == _expanded_distance(F2, m, a)


def _span_weights_gf2(masks) -> np.ndarray:
    """Popcounts of all 2^k XOR combinations of the bit masks, one per
    coefficient vector (the empty combination first)."""
    arr = np.zeros(1, dtype=np.int64)
    for w in masks:
        arr = np.concatenate([arr, np.bitwise_xor(arr, np.int64(w))])
    return np.bitwise_count(arr)


def _full_distance_gf2(a, m):
    # minimum weight over every nonzero codeword of <(1, a)>
    mask = (1 << m) - 1
    rows = [(1 << i) | ((((a << i) | (a >> (m - i))) & mask) << m) for i in range(m)]
    return int(_span_weights_gf2(rows)[1:].min())


def test_gf2_bz_distance_every_a():
    for m in range(1, 12):
        for a in range(2**m):
            assert _dc_distance(F2, m, cc._serial_to_coeffs(a, 2, m)) == _full_distance_gf2(a, m), (m, a)


@pytest.mark.parametrize("m", range(13, 22))
def test_gf2_bz_distance_seeded(m):
    rng = random.Random(m)
    # 0 and 1 + x + ... + x^(m-1) = (x^m - 1)/(x + 1) have gcd degree m and
    # m - 1 with x^m - 1, so G2 has rank 0 and 1 on the right half
    cases = [0, (1 << m) - 1, 1 | 1 << (m - 1)] + [rng.randrange(2**m) for _ in range(4)]
    for a in cases:
        assert _dc_distance(F2, m, cc._serial_to_coeffs(a, 2, m)) == _full_distance_gf2(a, m), (m, a)


def test_gf2_bz_distance_mask_width():
    # codewords of length 2m must fit a 64-bit mask; a = 0 is LCD
    with pytest.raises(TooLargeToEnumerate):
        dc_search(F2, 33, mode="random", seed=1, trials=1)


@pytest.mark.parametrize("field, m_max", [(F3, 5), (F4, 5), (F5, 4), (F9, 3)])
def test_bz_distance_every_a(field, m_max):
    q = field.order
    for m in range(1, m_max + 1):
        for serial in range(q**m):
            a = cc._serial_to_coeffs(serial, q, m)
            assert _dc_distance(field, m, a) == _expanded_distance(field, m, a), (m, a)


@pytest.mark.parametrize("field, m", [(F3, 7), (F3, 8), (F4, 7)])
def test_bz_distance_seeded(field, m):
    q = field.order
    rng = random.Random(q * m)
    # a = 0 and a = (x^m - 1)/(x - 1) leave G2 rank 0 and 1 on the right half
    cases = [[0] * m, [1] * m] + [
        cc._serial_to_coeffs(rng.randrange(q**m), q, m) for _ in range(40)
    ]
    for a in cases:
        assert _dc_distance(field, m, a) == _expanded_distance(field, m, a), a


@pytest.mark.parametrize("field, m", [(F3, 5), (F4, 4), (F5, 3), (F9, 3)])
@pytest.mark.parametrize("chunk", [1 << 16, 4])
def test_row_sums_visit_each_normalised_combination_once(monkeypatch, field, m, chunk):
    # rows of the identity: each sum is its own coefficient vector
    monkeypatch.setattr(lc, "_SUMS", chunk)
    q = field.order
    eye = np.eye(m, dtype=np.int64)[None]
    mults = lc._multiples(field, eye)
    for w in range(1, m + 1):
        blocks = list(lc._row_sums(field, mults, w))
        assert all(b.shape[0] * b.shape[1] <= chunk for b in blocks)
        got = [tuple(v) for b in blocks for v in b[0].tolist()]
        expected = [
            v for v in itertools.product(range(q), repeat=m)
            if sum(map(bool, v)) == w and next(x for x in v if x) == 1
        ]
        assert sorted(got) == expected


@pytest.mark.parametrize("field, m", [(F3, 5), (F4, 4), (F5, 3)])
def test_bz_distance_needs_no_fallback(monkeypatch, field, m):
    # r2 >= 1 for a != 0, so the bound meets the Singleton bound m + 1 by
    # w = m - 1 and the search never runs to full depth (the rows, w = 1,
    # are weighed without row sums)
    depths = []
    row_sums = lc._row_sums

    def recording(f, mults, w):
        depths.append(w)
        return row_sums(f, mults, w)

    monkeypatch.setattr(lc, "_row_sums", recording)
    for serial in range(field.order**m):
        a = cc._serial_to_coeffs(serial, field.order, m)
        depths.clear()
        _dc_distance(field, m, a)
        assert max(depths, default=1) <= max(1, m - 1), a


def test_bz_distance_refuses_large_codes():
    # 3^16 > ENUM_CAP; a = 0 would otherwise end at w = 1
    with pytest.raises(TooLargeToEnumerate):
        dc_search(F3, 16, mode="random", seed=1, trials=1)
    with pytest.raises(TooLargeToEnumerate):
        double_circulant(F3, 16, Poly.zero(F3)).expand().min_distance()


def test_dc_scan_takes_exact_digits_of_serials_past_2_63(monkeypatch):
    # random serials reach 2^64 - 1, and the place values 3^41..3^43 of m = 44
    # pass 2^64: with exact digits the screen passes on exactly the serials
    # the gcd criterion calls LCD, with their digits as the first row's right half
    passed = []
    monkeypatch.setattr(cc, "bz_min_distance", lambda base, g1, pivots, floor: (
        passed.append(g1), np.zeros(len(g1), dtype=np.int64))[1])
    rng = random.Random(9)
    verdicts = set()
    for serial in [2**64 - 1, 2**63 + 5] + [rng.getrandbits(64) for _ in range(10)]:
        coeffs = cc._serial_to_coeffs(serial, 3, 44)
        lcd = dc_is_lcd(F3, 44, Poly(F3, coeffs))
        verdicts.add(lcd)
        passed.clear()
        assert cc._dc_scan(F3, 44, [serial], [1]) == ((1, 0, serial) if lcd else (0, -1, -1))
        assert [g1[0, 0, 44:].tolist() for g1 in passed] == ([coeffs] if lcd else [])
    assert verdicts == {True, False}


@pytest.mark.parametrize("q, m, seeds", [(2, 41, range(1, 9)), (3, 25, range(1, 6))])
def test_dc_search_refuses_unsupported_sizes_for_every_seed(monkeypatch, q, m, seeds):
    # the refusal comes before any candidate is screened, so it does not
    # depend on whether the drawn serials hold an LCD one
    def no_screen(*args):
        raise AssertionError("a candidate was screened")

    monkeypatch.setattr(cc, "_dc_screen", no_screen)
    for seed in seeds:
        with pytest.raises(TooLargeToEnumerate):
            dc_search(field_from_order(q), m, mode="random", seed=seed, trials=1)


@pytest.mark.parametrize("q", [2**13, 3**8])
def test_dc_search_m1_takes_full_blocks_and_no_multiples(monkeypatch, q):
    # a code of dimension 1 takes no row sums, so no scalar multiples are
    # built and the q serials go in blocks of _DC_BLOCK
    calls = {"screen": 0, "multiples": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cc, "_dc_screen", counting("screen", cc._dc_screen))
    monkeypatch.setattr(lc, "_multiples", counting("multiples", lc._multiples))
    report = dc_search(field_from_order(q), 1)
    assert calls == {"screen": -(-q // cc._DC_BLOCK), "multiples": 0}
    # a = 0 gives [2,1,1]; every other LCD a, 1 + a^2 != 0, gives [2,1,2]
    assert report.lcd_count == cc.dc_lcd_count(q, 1)
    assert report.best_distance == 2 and report.best_serial == (2 if q % 2 == 0 else 1)


def _reference_scan(base, m, serials, mode="exhaustive", first_tie=False):
    # dc_search's report from a test of every serial given, ties broken
    # toward the smallest serial or, with first_tie, the first one given
    q = base.order
    count, best_d, best_serial = 0, -1, -1
    for serial in serials:
        a = Poly(base, cc._serial_to_coeffs(serial, q, m))
        if not dc_is_lcd(base, m, a):
            continue
        d = _full_distance_gf2(serial, m) if q == 2 else _expanded_distance(base, m, a.coeffs)
        count += 1
        if d > best_d or (not first_tie and d == best_d and serial < best_serial):
            best_d, best_serial = d, serial
    return DcSearchReport(
        q=q, m=m, mode=mode, best_a=tuple(cc._serial_to_coeffs(best_serial, q, m)),
        best_serial=best_serial, best_distance=best_d, lcd_count=count,
        candidates=len(serials),
    )


@pytest.mark.parametrize(
    "q, m",
    [(2, m) for m in (1, 3, 5, 7, 9, 11, 13)]
    + [(3, m) for m in (1, 2, 4, 5, 7)]
    + [(4, m) for m in (1, 3, 5)],
)
def test_dc_search_orbits_match_reference_scan(q, m):
    base = {2: F2, 3: F3, 4: make_field(2, 2)}[q]
    assert dc_search(base, m) == _reference_scan(base, m, range(q**m))


@pytest.mark.parametrize("m, trials, seed", [(9, 30, 1), (11, 40, 2), (13, 40, 2)])
def test_dc_search_random_gf2_matches_reference_scan(m, trials, seed):
    # each seed draws two serials of the best distance, the larger first
    serials = list(cc._random_serials(seed, trials, 2**m))
    expected = _reference_scan(F2, m, serials, mode="random")
    assert dc_search(F2, m, mode="random", seed=seed, trials=trials) == replace(
        expected, seed=seed
    )


@pytest.mark.parametrize(
    "field, m",
    [(F5, m) for m in (1, 2, 3, 4)] + [(make_field(7, 1), 3)] + [(F9, m) for m in (1, 2)],
)
def test_dc_search_odd_fields_match_reference_scan(field, m):
    # unit-test LCD screen and floored stacked distances against the gcd criterion
    # and full enumeration of every serial
    assert dc_search(field, m) == _reference_scan(field, m, range(field.order**m))


@pytest.mark.parametrize("block", [1, 3, cc._DC_BLOCK])
@pytest.mark.parametrize("field, m, trials, seed", [(F4, 5, 40, 1), (F5, 4, 40, 1)])
def test_dc_search_random_keeps_first_tie_across_blocks(monkeypatch, field, m, trials, seed, block):
    monkeypatch.setattr(cc, "_DC_BLOCK", block)
    serials = list(cc._random_serials(seed, trials, field.order**m))
    first = _reference_scan(field, m, serials, mode="random", first_tie=True)
    # a later trial reaches the same distance with a smaller serial
    assert first.best_serial != _reference_scan(field, m, serials, mode="random").best_serial
    got = dc_search(field, m, mode="random", seed=seed, trials=trials)
    assert got == replace(first, seed=seed)


@pytest.mark.parametrize("field, m, trials, seed", [(F3, 8, 100, 1), (F4, 7, 120, 2)])
def test_dc_search_random_at_benchmark_shapes(field, m, trials, seed):
    # some LCD candidates have a singular circ(a), so the second information
    # set of their stacked reduction is rank-deficient
    serials = list(cc._random_serials(seed, trials, field.order**m))
    drawn = [Poly(field, cc._serial_to_coeffs(s, field.order, m)) for s in serials]
    assert any(dc_is_lcd(field, m, a) and poly_gcd(a, xm_minus_one(field, m)).degree > 0
               for a in drawn)
    expected = _reference_scan(field, m, serials, mode="random", first_tie=True)
    got = dc_search(field, m, mode="random", seed=seed, trials=trials)
    assert got == replace(expected, seed=seed)


@pytest.mark.parametrize("block", [1, 3, cc._DC_BLOCK])
def test_dc_search_blocks_and_workers_give_one_report(monkeypatch, block):
    monkeypatch.setattr(cc, "_DC_BLOCK", block)
    drawn = list(cc._random_serials(1, 40, 4**5))
    for field, m, kwargs, expected in [
        (F2, 9, {}, _reference_scan(F2, 9, range(2**9))),
        (F3, 5, {}, _reference_scan(F3, 5, range(3**5))),
        (F4, 5, {"mode": "random", "seed": 1, "trials": 40},
         replace(_reference_scan(F4, 5, drawn, "random", first_tie=True), seed=1)),
    ]:
        for workers in (1, 2, 3):
            assert dc_search(field, m, workers=workers, **kwargs) == expected, (field, m, workers)


def test_dc_scan_tests_blocks_not_candidates(monkeypatch):
    # one LCD screen and one engine call per block, no gcd criterion
    engine_calls, screens, gcd_calls = [], [], []
    engine, screen, gcd = cc.bz_min_distance, cc._dc_screen, cc.dc_is_lcd
    monkeypatch.setattr(cc, "bz_min_distance",
                        lambda *args, **kw: engine_calls.append(1) or engine(*args, **kw))
    monkeypatch.setattr(cc, "_dc_screen", lambda *args: screens.append(1) or screen(*args))
    monkeypatch.setattr(cc, "dc_is_lcd", lambda *args: gcd_calls.append(1))
    monkeypatch.setattr(cc, "_DC_BLOCK", 50)
    for field, m in [(F3, 7), (F2, 15)]:
        engine_calls.clear()
        screens.clear()
        serials, sizes = cc._dc_orbits(field.order, m)
        cc._dc_scan(field, m, serials, sizes)
        blocks = [serials[i:i + 50] for i in range(0, len(serials), 50)]
        with_lcd = sum(any(gcd(field, m, Poly(field, cc._serial_to_coeffs(s, field.order, m)))
                           for s in block) for block in blocks)
        assert gcd_calls == [] and len(screens) == len(blocks) > 1, field
        assert len(engine_calls) == with_lcd >= len(blocks) - 1, field


def test_dc_scan_blocks_shrink_with_the_field(monkeypatch):
    # a block's scalar multiples, (q - 1) m^2 entries a code, stay within _CHUNK
    stacks, engine = [], cc.bz_min_distance

    def recording(field, stack, pivots, floor=None):
        stacks.append(len(stack))
        return engine(field, stack, pivots, floor)

    monkeypatch.setattr(cc, "bz_min_distance", recording)
    monkeypatch.setattr(cc, "_CHUNK", 5 * 4 * 3 * 3)  # five candidates of GF(5), m = 3
    assert dc_search(F5, 3) == _reference_scan(F5, 3, range(5**3))
    assert len(stacks) > 1 and max(stacks) <= 5


@pytest.mark.parametrize("q, m", [(2, 9), (3, 5), (4, 3), (3, 4)])
def test_dc_orbits_are_the_symmetry_orbits(q, m):
    base = {2: F2, 3: F3, 4: make_field(2, 2)}[q]

    def serial(p):
        return sum(c * q**i for i, c in enumerate(p.coeffs))

    def x_pow(i):
        return Poly(base, [0] * i + [1])

    def orbit(s):
        a = Poly(base, cc._serial_to_coeffs(s, q, m))
        return {
            serial((x_pow(i) * a.fold(m, j)).fold(m))
            for i in range(m) for j in range(1, m + 1) if math.gcd(j, m) == 1
        }

    reps, sizes = cc._dc_orbits(q, m)
    assert reps == sorted({min(orbit(s)) for s in range(q**m)})
    assert sizes == [len(orbit(s)) for s in reps]


@pytest.mark.parametrize("q, m, orbits", [(2, 15, 368), (2, 17, 522), (3, 11, 1698), (4, 9, 5164)])
def test_dc_orbit_counts(q, m, orbits):
    # counts of the serial-by-serial walk the batched orbits replaced
    reps, sizes = cc._dc_orbits(q, m)
    assert len(reps) == len(sizes) == orbits
    assert sum(sizes) == q**m
    assert reps == sorted(reps) and reps[0] == 0


@pytest.mark.parametrize("batch", [1, 3, 1000])
def test_dc_orbits_batch_size(monkeypatch, batch):
    expected = cc._dc_orbits(3, 5)
    monkeypatch.setattr(cc, "_ORBIT_BATCH", batch)
    assert cc._dc_orbits(3, 5) == expected


def test_dc_search_small_table():
    assert dc_search(F2, 3).best_distance == 1
    r5 = dc_search(F2, 5)
    assert r5.best_distance == 3
    assert r5.lcd_count == 11
    assert dc_search(F2, 7).best_distance == 4


def test_dc_search_reports_smallest_tie():
    r = dc_search(F2, 5)
    # every smaller serial is either non-LCD or has a smaller distance
    for s in range(r.best_serial):
        a = Poly(F2, [(s >> i) & 1 for i in range(5)])
        if dc_is_lcd(F2, 5, a):
            assert _expanded_distance(F2, 5, a.coeffs) < r.best_distance


def test_dc_search_workers_deterministic():
    for field, m, kwargs in [
        (F2, 9, {}),
        (F2, 13, {}),
        (F3, 5, {}),
        (F2, 11, {"mode": "random", "seed": 99, "trials": 40}),
        (F3, 8, {"mode": "random", "seed": 1, "trials": 100}),
    ]:
        reports = [dc_search(field, m, workers=w, **kwargs) for w in (1, 2, 3, 4)]
        assert all(r == reports[0] for r in reports), (field, m, kwargs)


def test_dc_search_random_mode_deterministic():
    a = dc_search(F2, 11, mode="random", seed=99, trials=40)
    b = dc_search(F2, 11, mode="random", seed=99, trials=40)
    assert a == b
    c = dc_search(F2, 11, mode="random", seed=100, trials=40)
    assert c.seed != a.seed


def test_dc_search_random_needs_seed():
    with pytest.raises(ValueError):
        dc_search(F2, 11, mode="random")


def test_dc_search_generic_field():
    r = dc_search(F3, 4)
    # verified against the criterion + plain distance enumeration
    best, count = -1, 0
    for s in range(81):
        a = Poly(F3, [(s // 3**i) % 3 for i in range(4)])
        if dc_is_lcd(F3, 4, a):
            count += 1
            best = max(best, _expanded_distance(F3, 4, a.coeffs))
    assert (r.best_distance, r.lcd_count) == (best, count)


def test_clamp_workers(monkeypatch):
    monkeypatch.setattr(cc.os, "cpu_count", lambda: 4)
    assert cc._clamp_workers(10**9, 2**20) == 4
    assert cc._clamp_workers(3, 2) == 2
    assert cc._clamp_workers(1, 100) == 1
    monkeypatch.setattr(cc.os, "cpu_count", lambda: None)
    assert cc._clamp_workers(8, 100) == 1
    for bad in (0, -3):
        with pytest.raises(ValueError):
            cc._clamp_workers(bad, 100)
    with pytest.raises(ValueError):
        dc_search(F3, 4, workers=0)


def test_dc_search_random_mode_ties_and_repeats():
    # random mode over q > 2 keeps the first tie in trial order: serial
    # 4770 (trial 10) wins although 926 (trial 98) also reaches d = 6
    r = dc_search(F3, 8, mode="random", seed=1, trials=100)
    assert (r.best_serial, r.best_distance) == (4770, 6)
    serials = list(cc._random_serials(1, 100, 3**8))
    assert serials.index(4770) < serials.index(926)
    a = Poly(F3, cc._serial_to_coeffs(926, 3, 8))
    assert dc_is_lcd(F3, 8, a)
    assert _expanded_distance(F3, 8, a.coeffs) == 6
    # lcd_count counts trials, so repeated serials count more than once
    F4 = make_field(2, 2)
    r = dc_search(F4, 7, mode="random", seed=3, trials=120)
    lcd = [
        s for s in cc._random_serials(3, 120, 4**7)
        if dc_is_lcd(F4, 7, Poly(F4, cc._serial_to_coeffs(s, 4, 7)))
    ]
    assert r.lcd_count == len(lcd) == 94
    assert len(set(lcd)) == 92


@pytest.mark.parametrize("seed, space", [(0, 2), (7, 2**11), (1, 3**8), (3, 4**7), (44, 3**44)])
def test_random_serials_are_blake2b_digests(seed, space):
    # the first 8 bytes of BLAKE2b("seed:i"), big-endian, reduced mod the
    # space; 3^44 > 2^64 leaves the digest whole
    expected = [
        int.from_bytes(hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest(), "big")
        % space
        for i in range(200)
    ]
    assert list(cc._random_serials(seed, 200, space)) == expected


def test_dc_search_cap():
    with pytest.raises(TooLargeToEnumerate):
        dc_search(F3, 19)


# ---------------------------------------------------------------------------
# self-dual bases and descent
# ---------------------------------------------------------------------------

def test_self_dual_basis_gf4():
    B = self_dual_basis(2, 2)
    assert B.basis == (2, 3)  # {w, w^2}


@pytest.mark.parametrize("q,ell", [(2, 2), (2, 3), (2, 4), (4, 2), (3, 3), (3, 5), (9, 3)])
def test_self_dual_basis_gram(q, ell):
    B = self_dual_basis(q, ell)  # the constructor re-verifies the Gram matrix
    assert len(B.basis) == ell


def test_self_dual_basis_parity_obstruction():
    with pytest.raises(NoSelfDualBasisExists):
        self_dual_basis(3, 2)
    with pytest.raises(NoSelfDualBasisExists):
        self_dual_basis(5, 4)


def test_coordinates_invert_the_basis():
    B = self_dual_basis(2, 3)
    big, sub = B.big, B.sub
    for x in range(big.order):
        coords = B.coordinates(x)
        acc = 0
        for c, b in zip(coords, B.basis):
            table, _ = big.embedding(sub)
            acc = big.add_raw(acc, big.mul_raw(table[c], b))
        assert acc == x


def test_trace_identity_on_random_pairs():
    B = self_dual_basis(2, 2)
    big, sub = B.big, B.sub
    rng = random.Random(77)
    for _ in range(200):
        x, y = rng.randrange(4), rng.randrange(4)
        lhs = big.trace_raw(big.mul_raw(x, y), sub)
        cx = B.coordinates(x)
        cy = B.coordinates(y)
        rhs = 0
        for a, b in zip(cx, cy):
            rhs = sub.add_raw(rhs, sub.mul_raw(a, b))
        assert lhs == rhs


def test_expand_subfield_scales_parameters():
    B = self_dual_basis(2, 2)
    rng = random.Random(31)
    for _ in range(10):
        rows = [[rng.randrange(4) for _ in range(5)] for _ in range(2)]
        C = LinearCode.from_rows(B.big, 5, rows)
        D = expand_subfield(C, B)
        assert D.params() == (10, 2 * C.k)


def test_expand_subfield_zero_code():
    B = self_dual_basis(2, 2)
    Z = LinearCode.from_rows(B.big, 4, [])
    assert expand_subfield(Z, B).params() == (8, 0)


def test_expand_subfield_lcd_iff():
    B = self_dual_basis(2, 2)
    rng = random.Random(55)
    for _ in range(40):
        rows = [[rng.randrange(4) for _ in range(6)] for _ in range(3)]
        C = LinearCode.from_rows(B.big, 6, rows)
        if C.k == 0:
            continue
        D = expand_subfield(C, B)
        assert (C.hull_dim("euclidean") == 0) == (D.hull_dim("euclidean") == 0)


def test_expand_subfield_field_mismatch():
    B = self_dual_basis(2, 2)
    C = LinearCode.from_rows(F2, 4, [[1, 0, 1, 0]])
    with pytest.raises(BasisFieldMismatch):
        expand_subfield(C, B)


def test_quaternary_descent_example():
    f = Poly(F4, [2, 1, 1])
    g = f * f.reciprocal()
    from qccd.cyclic import make_cyclic

    C = make_cyclic(F4, 15, g).as_linear_code()
    B = self_dual_basis(2, 2)
    D = expand_subfield(C, B)
    assert D.params() == (30, 22)
    assert D.min_distance() == 3
    assert D.hull_dim() == 0
