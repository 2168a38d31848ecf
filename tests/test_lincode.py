import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qccd.lincode as lc
from qccd.errors import LengthMismatch, TooLargeToEnumerate
from qccd.field import make_field
from qccd.lincode import LinearCode, min_weight, rref, weight_distribution

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)

HAMMING_7_4 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def random_code(rng, field, n, kmax):
    rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(kmax)]
    return LinearCode.from_rows(field, n, rows)


def test_rref_canonical():
    rows, pivots = rref(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rows == [[1, 0, 1], [0, 1, 1]]
    assert pivots == [0, 1]


def test_rref_scales_pivots():
    rows, _ = rref(F3, [[2, 1, 0]])
    assert rows == [[1, 2, 0]]


def test_equality_is_representation_free():
    rng = random.Random(5)
    for _ in range(20):
        C = random_code(rng, F4, 6, 3)
        if C.k == 0:
            continue
        # re-generate from random invertible combinations of the rows
        mixed = []
        for _ in range(6):
            acc = [0] * C.n
            for r in C.rows:
                s = rng.randrange(4)
                acc = [F4.add_raw(a, F4.mul_raw(s, x)) for a, x in zip(acc, r)]
            mixed.append(acc)
        D = LinearCode.from_rows(F4, C.n, mixed)
        if D.k == C.k:
            assert D == C


def test_hamming_code():
    C = LinearCode.from_rows(F2, 7, HAMMING_7_4)
    assert C.params() == (7, 4)
    assert C.min_distance() == 3
    D = C.dual()
    assert D.params() == (7, 3)
    assert D.min_distance() == 4
    assert C.hull_dim() == C.intersect(D).k


def test_contains():
    C = LinearCode.from_rows(F2, 7, HAMMING_7_4)
    assert C.contains([1, 0, 0, 0, 0, 1, 1])
    assert not C.contains([1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(LengthMismatch):
        C.contains([1, 0])


def test_row_length_checked():
    with pytest.raises(LengthMismatch):
        LinearCode.from_rows(F2, 3, [[1, 0]])


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_dual_of_dual(field):
    rng = random.Random(11)
    for _ in range(10):
        C = random_code(rng, field, 8, 4)
        assert C.dual().dual() == C
        assert C.dual().k == C.n - C.k


def test_sum_and_intersect_dimensions():
    rng = random.Random(7)
    for _ in range(15):
        A = random_code(rng, F3, 7, 3)
        B = random_code(rng, F3, 7, 3)
        s = A.sum_code(B)
        i = A.intersect(B)
        assert s.k + i.k == A.k + B.k
        for row in i.rows:
            assert A.contains(row) and B.contains(row)


def test_hull_matches_intersection_oracle():
    rng = random.Random(13)
    for field in (F2, F3, F4):
        for _ in range(15):
            C = random_code(rng, field, 8, 4)
            assert C.hull_dim("euclidean") == C.intersect(C.dual()).k


def test_hermitian_hull_matches_oracle():
    rng = random.Random(17)
    for _ in range(20):
        C = random_code(rng, F4, 8, 4)
        expected = C.intersect(C.conjugate_code().dual()).k
        assert C.hull_dim("hermitian") == expected
        assert C.is_lcd("hermitian") == (expected == 0)


def test_self_dual_code_has_full_hull():
    C = LinearCode.from_rows(F2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert C.dual() == C
    assert C.hull_dim() == C.k


def test_gram_hermitian_gf4():
    C = LinearCode.from_rows(F4, 2, [[1, 2]])
    # <(1,w),(1,w)>_h = 1 + w * w^2 = 1 + 1 = 0
    assert C.gram("hermitian") == [[0]]


def test_systematic_form():
    C = LinearCode.from_rows(F2, 5, [[0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])
    rows, perm = C.systematic_form()
    assert perm == (1, 2, 0, 3, 4)
    for i, row in enumerate(rows):
        assert list(row[: C.k]) == [1 if j == i else 0 for j in range(C.k)]


# ---------------------------------------------------------------------------
# weight distributions and distances
# ---------------------------------------------------------------------------

def brute_weights(field, rows, n):
    """Reference weight distribution by plain iteration (no numpy): one
    weight per coefficient vector over the field."""
    import itertools

    dist = [0] * (n + 1)
    for msg in itertools.product(range(field.order), repeat=len(rows)):
        word = [0] * n
        for s, row in zip(msg, rows):
            word = [field.add_raw(x, field.mul_raw(s, y)) for x, y in zip(word, row)]
        dist[sum(1 for x in word if x)] += 1
    return dist


@pytest.mark.parametrize("field,n", [(F2, 10), (F3, 7), (F4, 6)])
def test_weight_distribution_matches_bruteforce(field, n):
    rng = random.Random(n)
    for _ in range(5):
        C = random_code(rng, field, n, 3)
        got = weight_distribution(field, C.rows, n)
        assert list(got) == brute_weights(field, C.rows, n)


def test_gf2_packed_path_agrees():
    rng = random.Random(3)
    rows = [[rng.randrange(2) for _ in range(20)] for _ in range(6)]
    C = LinearCode.from_rows(F2, 20, rows)
    got = weight_distribution(F2, C.rows, 20)
    assert list(got) == brute_weights(F2, C.rows, 20)
    assert int(got.sum()) == 2**C.k


def test_min_distance_direct_vs_transform():
    rng = random.Random(23)
    for field in (F2, F3, F4):
        for _ in range(8):
            n = 9
            C = random_code(rng, field, n, rng.randrange(2, 8))
            if C.k == 0 or C.k == n:
                continue
            direct = min_weight(field, C.rows, n)
            via_dual = lc._min_weight_from_dual(
                weight_distribution(field, C.dual().rows, n), n, field.order
            )
            assert direct == via_dual == C.min_distance()


def test_min_distance_uses_smaller_side():
    # high-rate code: k > n - k, distance must still be exact
    C = LinearCode.from_rows(
        F2, 6, [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 0, 1],
                [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]]
    )
    assert C.min_distance() == 2


@pytest.mark.parametrize("leaders, k, d", [((1,), 57, 3), ((1, 3), 51, 5), ((1, 3, 5), 45, 7)])
def test_min_distance_of_high_rate_bch_codes(leaders, k, d):
    # narrow-sense binary BCH codes of length 63 with zeros xi^i for i in the
    # cyclotomic cosets of the leaders; d from MacWilliams & Sloane, ch. 9
    from qccd.cyclic import make_cyclic
    from qccd.polyring import Poly, factor_xm_minus_1

    prof = factor_xm_minus_1(F2, 63)
    g = Poly.one(F2)
    for f in prof.all_factors():
        if any(f.evaluate(prof.xi**i).raw == 0 for i in leaders):
            g = g * f
    C = make_cyclic(F2, 63, g).as_linear_code()
    assert C.params() == (63, k) and k > 63 - k  # the dual-enumeration route
    assert C.min_distance() == d


def test_min_distance_cached():
    C = LinearCode.from_rows(F2, 7, HAMMING_7_4)
    assert C.min_distance() == 3
    assert C._dmin == 3
    assert C.min_distance() == 3


def test_enumeration_cap():
    rows = [[1 if i == j else 0 for j in range(60)] for i in range(30)]
    C = LinearCode.from_rows(F2, 60, rows)
    with pytest.raises(TooLargeToEnumerate):
        C.min_distance()


def test_zero_code_distance_undefined():
    C = LinearCode.from_rows(F2, 5, [])
    with pytest.raises(ValueError):
        C.min_distance()


def test_krawtchouk_row_sums():
    # sum_j K_j(i) over all j equals q^n at i = 0 only via j=0..n with x=0:
    # a simpler sanity: K_j(0) = (q-1)^j C(n,j)
    from math import comb

    for q in (2, 3, 4):
        for j in range(5):
            assert lc._krawtchouk(j, 0, 8, q) == (q - 1) ** j * comb(8, j)


# ---------------------------------------------------------------------------
# projective enumeration against a pure-Python oracle
# ---------------------------------------------------------------------------

F5 = make_field(5, 1)
F9 = make_field(3, 2)
F16 = make_field(2, 4)
F729 = make_field(3, 6)


def raw_rows(rng, field, n, k):
    """k rows, not reduced: one is zero and one is a multiple of another."""
    rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
    if k >= 2:
        rows[rng.randrange(k)] = [0] * n
    if k >= 3:
        s = rng.randrange(1, field.order)
        rows[-1] = [field.mul_raw(s, x) for x in rows[0]]
    return rows


# (field, largest k); each id names the scalar set, None: the whole field
ENUM_GRID = [(F2, 5), (F3, 5), (F4, 4), (F5, 3), (F9, 3)]


@pytest.mark.parametrize("chunk", [lc._CHUNK, 4])
@pytest.mark.parametrize(
    "field,kmax", ENUM_GRID, ids=[f"field{i}-None-{k}" for i, (_, k) in enumerate(ENUM_GRID)]
)
def test_projective_enumeration_matches_bruteforce(field, kmax, chunk, monkeypatch):
    # a small chunk forces the offsets-times-base path at every size
    monkeypatch.setattr(lc, "_CHUNK", chunk)
    rng = random.Random(field.order * 31 + kmax)
    for k in range(1, kmax + 1):
        n = rng.randrange(1, 7)
        rows = raw_rows(rng, field, n, k)
        got = weight_distribution(field, rows, n)
        assert list(got) == brute_weights(field, rows, n)


def test_generic_gf2_path_matches_bruteforce():
    # longer than a packed word, so GF(2) takes the generic path
    rng = random.Random(2)
    rows = raw_rows(rng, F2, 70, 5)
    got = weight_distribution(F2, rows, 70)
    assert list(got) == brute_weights(F2, rows, 70)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, F3, F4, F5]),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_macwilliams_identity(field, n, seed):
    # |C| * B_j = sum_i A_i K_j(i) with A, B the distributions of C, C-dual
    rng = random.Random(seed)
    C = random_code(rng, field, n, rng.randrange(0, n + 1))
    A = [int(x) for x in weight_distribution(field, C.rows, n)]
    B = [int(x) for x in weight_distribution(field, C.dual().rows, n)]
    q = field.order
    for j in range(n + 1):
        assert sum(a * lc._krawtchouk(j, i, n, q) for i, a in enumerate(A)) == q**C.k * B[j]


# ---------------------------------------------------------------------------
# table kernels: row multiples and rref against per-element references
# ---------------------------------------------------------------------------

MULT_FIELDS = [F2, F3, F4, F9, F16, F729]
MULT_IDS = [f"field{i}-None" for i in range(len(MULT_FIELDS))]  # None: every field element


@pytest.mark.parametrize("field", MULT_FIELDS, ids=MULT_IDS)
def test_row_multiples_match_mul_raw(field):
    rng = random.Random(field.order)
    for shape in ((3, 5), (2, 3, 4)):
        R = np.array([rng.randrange(field.order) for _ in range(np.prod(shape))]).reshape(shape)
        R.flat[0] = 0
        got = lc._row_multiples(field, R)
        assert got.shape == (field.order,) + shape
        for s, M in enumerate(got):
            assert M.ravel().tolist() == [field.mul_raw(s, x) for x in R.ravel().tolist()]


def reference_rref(field, rows):
    """rref by per-element field calls: the elimination the row operation
    replaces."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv_raw(rows[r][c])
        rows[r] = [field.mul_raw(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub_raw(x, field.mul_raw(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9, F16, F729])
def test_rref_matches_per_element_reference(field):
    rng = random.Random(field.order + 7)
    for _ in range(12):
        k, n = rng.randrange(1, 7), rng.randrange(1, 9)
        rows = raw_rows(rng, field, n, k)  # a zero row and a dependent row
        if k >= 4:
            s, t = rng.randrange(field.order), rng.randrange(field.order)
            rows[1] = [field.add_raw(field.mul_raw(s, x), field.mul_raw(t, y))
                       for x, y in zip(rows[2], rows[3])]
        assert rref(field, rows) == reference_rref(field, rows)
    assert rref(field, []) == ([], [])


@pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (20, 7), (63, 17)])
def test_reduce_stack_over_gf2_is_the_mask_kernel(n, k):
    # the same algorithm as _reduce_gf2: the same rows and pivots, on raw codes
    rng = random.Random(n * 100 + k + 1)

    def bits(masks):
        return [[x >> j & 1 for j in range(n)] for x in masks]

    for cols in ([], list(range(n)), sorted(rng.sample(range(n), rng.randrange(n + 1)))):
        for size in (1, 9):  # with zero and repeated rows
            stack = [[rng.getrandbits(n) if rng.random() < 0.8 else 0 for _ in range(k)]
                     for _ in range(size)]
            if size > 1:
                stack[0], stack[1] = [0] * k, [stack[1][0]] * k
            reduced, pivots = lc._reduce_stack(F2, [bits(masks) for masks in stack], cols)
            assert reduced.shape == (size, k, n) and pivots.shape == (size, k)
            for masks, got, piv in zip(stack, reduced.tolist(), pivots.tolist()):
                want, want_piv = lc._reduce_gf2(masks, sum(1 << c for c in cols))
                assert got == bits(want)
                assert [c for c in piv if c >= 0] == want_piv


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_reduce_stack_pivots_inside_cols(field):
    # unit pivot columns inside cols, other rows zero there, the rank of the
    # cols submatrix, and the row space unchanged
    rng = random.Random(field.order + 11)
    for k, n in [(1, 1), (1, 4), (3, 5), (4, 4), (6, 3), (5, 8), (8, 16)]:
        for cols in ([], list(range(n)), sorted(rng.sample(range(n), rng.randrange(1, n + 1)))):
            for size in (1, 6):
                stack = [raw_rows(rng, field, n, k) for _ in range(size)]  # zero, dependent rows
                if size > 1:
                    stack[1] = [[0] * n for _ in range(k)]
                    stack[2][-1] = list(stack[2][0])  # repeated row
                R, pivots = lc._reduce_stack(field, np.array(stack), cols)
                assert R.shape == (size, k, n) and pivots.shape == (size, k)
                for rows, got, piv in zip(stack, R.tolist(), pivots.tolist()):
                    for i, c in enumerate(piv):
                        if c >= 0:
                            assert c in cols
                            assert [g[c] for g in got] == [int(j == i) for j in range(k)]
                        else:
                            assert not any(got[i][c] for c in cols)
                    rank = len(rref(field, [[r[c] for c in cols] for r in rows])[1])
                    assert sum(c >= 0 for c in piv) == rank
                    assert rref(field, got) == rref(field, rows)


@pytest.mark.parametrize("field,form", [
    (F2, "euclidean"), (F3, "euclidean"), (F5, "euclidean"), (F9, "euclidean"),
    (F729, "euclidean"), (F4, "hermitian"), (F9, "hermitian"), (F16, "hermitian"),
])
def test_gram_matches_per_element_reference(field, form):
    rng = random.Random(field.order + 3)
    for k, n in [(1, 1), (3, 5), (4, 7), (2, 9)]:
        C = random_code(rng, field, n, k)
        e = 1 if form == "euclidean" else C._conj_exp(None)
        want = []
        for r in C.rows:
            row = []
            for s in C.rows:
                acc = 0
                for x, y in zip(r, s):
                    acc = field.add_raw(acc, field.mul_raw(x, field.pow_raw(y, e)))
                row.append(acc)
            want.append(row)
        assert C.gram(form) == want


@pytest.mark.parametrize("field,e", [(F4, 2), (F9, 3), (F16, 4), (F729, 1)])
def test_gram_stack_in_chunks(monkeypatch, field, e):
    # a stack larger than one chunk of products gives every code its own Gram matrix
    rng = random.Random(field.order + 5)
    stack = np.array([raw_rows(rng, field, 6, 3) for _ in range(9)])
    alone = [lc._gram(field, X[None], e)[0].tolist() for X in stack]
    monkeypatch.setattr(lc, "_SUMS", 2 * 3 * 3 * 6)
    assert lc._gram(field, stack, e).tolist() == alone


F127, F131 = make_field(127, 1), make_field(131, 1)  # sums of two codes fill a byte / pass it


@pytest.mark.parametrize("field,dtype", [
    (F2, np.uint8), (F3, np.uint8), (F4, np.uint8), (F127, np.uint8), (F131, np.uint16),
    (F729, np.uint16),
])
@pytest.mark.parametrize("chunk", [lc._SUMS, 5])
def test_multiples_are_narrow_and_match_mul_raw(monkeypatch, field, dtype, chunk):
    monkeypatch.setattr(lc, "_SUMS", chunk)
    rng = random.Random(field.order)
    mats = [raw_rows(rng, field, 4, 2) for _ in range(3)]
    got = lc._multiples(field, mats)
    assert got.dtype == dtype and got.shape == (3, field.order - 1, 2, 4)
    for s in rng.sample(range(1, field.order), min(6, field.order - 1)):
        want = [[[field.mul_raw(s, x) for x in r] for r in m] for m in mats]
        assert got[:, s - 1].tolist() == want


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann engine against full enumeration
# ---------------------------------------------------------------------------

def record_ranks(monkeypatch):
    """(ranks, k) of every code in every bound the engine evaluates."""
    seen, bound = [], lc._bz_bound

    def recording(ranks, k, w):
        seen.extend((tuple(r), k) for r in np.asarray(ranks).tolist())
        return bound(ranks, k, w)

    monkeypatch.setattr(lc, "_bz_bound", recording)
    return seen


@pytest.mark.parametrize("field,kmax,nmax", [
    (F2, 9, 12), (F3, 6, 9), (F4, 5, 8), (F5, 4, 7), (F9, 3, 6),
])
def test_bz_engine_matches_weight_distribution(monkeypatch, field, kmax, nmax):
    seen = record_ranks(monkeypatch)
    rng = random.Random(field.order * 101)
    for trial in range(60):
        n = rng.randrange(1, nmax + 1)
        rows = raw_rows(rng, field, n, rng.randrange(1, kmax + 1))  # zero, dependent rows
        if trial % 2:
            # repeated columns leave later information sets partial
            extra = [rng.randrange(n) for _ in range(rng.randrange(1, n + 1))]
            rows = [r + [r[c] for c in extra] for r in rows]
        width = len(rows[0])
        C = LinearCode.from_rows(field, width, rows)
        if C.k == 0:
            continue
        d = min_weight(field, rows, width)
        assert lc.bz_min_distance(field, [C.rows], C.pivot_cols)[0] == d, (rows, C.pivot_cols)
        assert C.min_distance() == d  # engine for k <= n - k, dual otherwise
    # some codes reached a partial information set (r_j < k) after the first
    assert any(len(ranks) > 1 and min(ranks[1:]) < k for ranks, k in seen)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_bz_engine_whole_space(field):
    # k = n: no column is left for a second information set
    rng = random.Random(field.order)
    for n in (1, 2, 5):
        rows = raw_rows(rng, field, n, n + 2)
        rows[:n] = [[rng.randrange(1, field.order) if i == j else 0 for j in range(n)]
                    for i in range(n)]
        C = LinearCode.from_rows(field, n, rows)
        assert C.k == n
        d = lc.bz_min_distance(field, [C.rows], C.pivot_cols)[0]
        assert d == 1 == min_weight(field, rows, n)


@pytest.mark.parametrize("n,packed", [(63, True), (64, False)])
def test_bz_engine_binary_mask_width(monkeypatch, n, packed):
    # 63 columns fit an int64 bit mask; length 64 runs on raw codes
    calls, reduce_gf2 = [], lc._reduce_gf2
    monkeypatch.setattr(lc, "_reduce_gf2", lambda *args: calls.append(1) or reduce_gf2(*args))
    rng = random.Random(n)
    for k in (3, 6, 9):
        rows = raw_rows(rng, F2, n, k)
        C = LinearCode.from_rows(F2, n, rows)
        assert lc.bz_min_distance(F2, [C.rows], C.pivot_cols)[0] == min_weight(F2, rows, n)
        assert C.min_distance() == min_weight(F2, rows, n)
    assert bool(calls) == packed


@pytest.mark.parametrize("n", [1, 5, 20, 63])
@pytest.mark.parametrize("k", [1, 2, 7, 17])
def test_reduce_gf2_stack_matches_list_kernel(n, k):
    # the stack kernel against _reduce_gf2 code by code, with zero rows,
    # repeated rows, cols = 0, all columns, and bit 62 at n = 63
    rng = random.Random(n * 100 + k)
    for cols in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n), 1 << (n - 1)):
        stack = [[rng.getrandbits(n) if rng.random() < 0.8 else 0 for _ in range(k)]
                 for _ in range(9)]
        stack[0] = [0] * k
        stack[1] = [stack[1][0]] * k
        reduced, bits = lc._reduce_gf2_stack(stack, cols)
        assert reduced.shape == bits.shape == (9, k)
        for masks, g, p in zip(stack, reduced.tolist(), bits.tolist()):
            expected, pivots = lc._reduce_gf2(masks, cols)
            assert g == expected
            assert [1 << c for c in pivots] == [b for b in p if b]
        if cols == 1 << 62:
            assert (bits == 1 << 62).any()


def test_bz_engine_reduces_binary_groups_as_stacks(monkeypatch):
    # codes with the same used columns take one stack-kernel call; a lone code the list kernel
    calls, stack_kernel, list_kernel = [], lc._reduce_gf2_stack, lc._reduce_gf2
    monkeypatch.setattr(lc, "_reduce_gf2_stack",
                        lambda *args: calls.append(len(args[0])) or stack_kernel(*args))
    monkeypatch.setattr(lc, "_reduce_gf2",
                        lambda *args: calls.append("list") or list_kernel(*args))
    rng = random.Random(5)
    k, n = 6, 20
    codes = [[[int(i == j) for j in range(k)] + [rng.randrange(2) for _ in range(n - k)]
              for i in range(k)] for _ in range(12)]
    got = lc.bz_min_distance(F2, codes, range(k))
    assert got.tolist() == [min_weight(F2, rows, n) for rows in codes]
    assert calls[0] == 12
    calls.clear()
    assert lc.bz_min_distance(F2, codes[:1], range(k))[0] == got[0]
    assert calls and set(calls) == {"list"}


def stronger_bound(ranks, k, w):
    """(w + 1) per set: too strong once a set has rank below k."""
    return (np.asarray(ranks) > 0).sum(-1) * (np.asarray(w) + 1)


@pytest.mark.parametrize("field,b,c", [
    (F2, [1, 1, 0, 0], [0, 1, 1, 1]),  # bit masks
    (F3, [1, 1, 1, 0], [0, 0, 1, 1]),  # raw codes
])
def test_bz_bound_counts_only_the_new_pivots(monkeypatch, field, b, c):
    # G = [I_4 | b b c c]: the columns beside the identity have rank 2, so a
    # later matrix adds max(0, w + 1 - 2) to the bound, not w + 1
    rows = [[int(i == j) for j in range(4)] + [b[i], b[i], c[i], c[i]] for i in range(4)]
    seen = record_ranks(monkeypatch)
    assert lc.bz_min_distance(field, [rows], range(4))[0] == min_weight(field, rows, 8) == 2
    assert seen[-1] == ((4, 2, 2), 4)
    # the stronger bound stops at w = 1, where the lightest word seen weighs 3
    monkeypatch.setattr(lc, "_bz_bound", stronger_bound)
    assert lc.bz_min_distance(field, [rows], range(4))[0] == 3


def systematic(field, p_rows):
    """[I_k | P] from the rows of P."""
    k = len(p_rows)
    return [[int(i == j) for j in range(k)] + list(r) for i, r in enumerate(p_rows)]


def ragged_stack(rng, field):
    """[I_4 | P] codes needing 1, 2 and 3 information sets: P = 0 (the
    double-circulant code a = 0), P = b b c c (ranks 4, 2, 2), random P."""
    stack = [systematic(field, [[0] * 4] * 4)]
    for _ in range(2):  # two, so the third sets are reduced as a stack too
        b, c = ([rng.randrange(field.order) for _ in range(4)] for _ in range(2))
        stack.append(systematic(field, [[b[i], b[i], c[i], c[i]] for i in range(4)]))
    stack += [systematic(field, [[rng.randrange(field.order) for _ in range(4)] for _ in range(4)])
              for _ in range(6)]
    return stack


@pytest.mark.parametrize("chunk", [lc._SUMS, 4])
@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_bz_engine_on_ragged_stacks(monkeypatch, field, chunk):
    # one search over codes of 1, 2 and 3 information sets gives each code
    # the distance it has alone and the one full enumeration gives
    monkeypatch.setattr(lc, "_SUMS", chunk)
    rng = random.Random(field.order * 7)
    seen = record_ranks(monkeypatch)
    for _ in range(3):
        stack = ragged_stack(rng, field)
        got = lc.bz_min_distance(field, stack, range(4)).tolist()
        alone = [int(lc.bz_min_distance(field, [rows], range(4))[0]) for rows in stack]
        assert got == alone == [min_weight(field, rows, 8) for rows in stack]
    sets = {sum(r > 0 for r in ranks) for ranks, _ in seen}
    assert {1, 2, 3} <= sets


@pytest.mark.parametrize("field", [F127, F131])
def test_bz_engine_at_the_narrow_type_limit(field):
    # row sums of raw codes reach 2 (p - 1): 252 fits the bytes of GF(127);
    # over GF(131) the last code's sums 128 + 128 and 127 + 129 would wrap to
    # zero entries in a byte and give a word of weight 4 (d = 5)
    rng = random.Random(field.order)
    stack = [systematic(field, [[rng.randrange(field.order) for _ in range(4)] for _ in range(3)])
             for _ in range(4)]
    P = [[128, 127, 130, 127], [3, 3, 3, 2], [129, 127, 3, 126]]
    stack.append(systematic(field, [[x % field.order for x in r] for r in P]))
    got = lc.bz_min_distance(field, stack, range(3)).tolist()
    assert got == [min_weight(field, rows, 7) for rows in stack]


@pytest.mark.parametrize("field,b,c", [
    (F2, [1, 1, 0, 0], [0, 1, 1, 1]),  # bit masks
    # raw codes, stacked reduction: rows 2 and 3 have no pivot in the second
    # set and become e0 - e1 + e2, e0 - e1 + e3, so w = 1 sees no weight 2
    (F3, [0, 1, 1, 1], [1, 1, 0, 0]),
])
def test_bz_bound_counts_only_the_new_pivots_on_stacks(monkeypatch, field, b, c):
    # the same [I_4 | b b c c] inside a stack of other codes
    rows = systematic(field, [[b[i], b[i], c[i], c[i]] for i in range(4)])
    stack = ragged_stack(random.Random(5), field)[3:6] + [rows]
    want = [min_weight(field, g, 8) for g in stack]
    assert want[-1] == 2
    assert lc.bz_min_distance(field, stack, range(4)).tolist() == want
    monkeypatch.setattr(lc, "_bz_bound", stronger_bound)
    assert lc.bz_min_distance(field, stack, range(4))[-1] == 3


def test_closed_under_permutation_and_frobenius():
    hamming = LinearCode.from_rows(F2, 7, [[1, 1, 0, 1, 0, 0, 0][-i:] + [1, 1, 0, 1, 0, 0, 0][:-i]
                                           for i in range(4)])
    assert hamming.closed_under([6, 0, 1, 2, 3, 4, 5])  # cyclic shift
    assert not hamming.closed_under(range(6, -1, -1))  # 1 + x + x^3 is not self-reciprocal
    # <(1, w)> over GF(4) maps to (w^2, 1) = w^2 (1, w) under swap + squaring
    C = LinearCode.from_rows(F4, 2, [[1, 2]])
    assert C.closed_under([1, 0], 2)
    assert not C.closed_under([1, 0])
    assert not C.closed_under([0, 1], 2)
