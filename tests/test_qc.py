import itertools
import math
import random

import pytest

import qccd.qc as qcmod
from qccd.errors import (
    NotCoprime,
    NotLcd,
    PreconditionViolation,
    ShapeMismatch,
    SlotNotAPair,
    SlotNotSelfReciprocal,
    SubfieldViolation,
)
from qccd.field import field_from_order, make_field
from qccd.lincode import LinearCode
from qccd.polyring import Poly, factor_xm_minus_1
from qccd.qc import (
    ConstituentSet,
    QcCode,
    build_pair_double,
    build_self_single,
    constituents,
    dual_constituents,
    from_constituents,
    is_qccd,
    jensen_bound,
    twod_cyclic_lcd,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)

GRID = [
    (q, m, ell)
    for q in (2, 3)
    for m in (3, 5, 7)
    for ell in (2, 3, 4)
    if m % q
]


def random_qc(rng, base, m, ell, r):
    gens = [
        tuple(Poly(base, [rng.randrange(base.order) for _ in range(m)]) for _ in range(ell))
        for _ in range(r)
    ]
    return QcCode.make(base, m, ell, gens)


def seeded_codes(count, seed=20240915):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q, m, ell = GRID[rng.randrange(len(GRID))]
        base = make_field(q, 1)
        out.append(random_qc(rng, base, m, ell, rng.randrange(1, 3)))
    return out


CODES = seeded_codes(60)


def test_make_checks_shape():
    with pytest.raises(ShapeMismatch):
        QcCode.make(F2, 3, 2, [(Poly.one(F2),)])


def test_expand_layout():
    # <(1, x)> at m=3: rows are shifts of (1,0,0 | 0,1,0)
    C = QcCode.make(F2, 3, 2, [(Poly.one(F2), Poly(F2, [0, 1]))])
    lin = C.expand()
    assert lin.params() == (6, 3)
    assert lin.contains([1, 0, 0, 0, 1, 0])
    assert lin.contains([0, 1, 0, 0, 0, 1])
    assert lin.contains([0, 0, 1, 1, 0, 0])


def all_shifts(C):
    """The F_q-linear view from all m shifts of every generator: each
    block times x^s, folded into R."""
    x_pows = [Poly(C.base, [0] * s + [1]) for s in range(C.m)]
    rows = [[c for a in gen for c in (x_s * a).fold(C.m).padded_coeffs(C.m)]
            for gen in C.gens for x_s in x_pows]
    return LinearCode.from_rows(C.base, C.m * C.ell, rows)


def test_expand_matches_all_shifts():
    # m - deg gcd(v_1, ..., v_ell, x^m - 1) shifts per generator; the RREF is the same
    F4 = make_field(2, 2)
    rng = random.Random(7)
    codes = CODES + [from_constituents(constituents(C)) for C in CODES[:20]]
    codes += [random_qc(rng, F4, 5, 3, 3), QcCode.make(F3, 5, 2, [(Poly.zero(F3),) * 2] * 2)]
    # repeated roots: the characteristic divides m
    repeated = [random_qc(rng, base, m, ell, r)
                for base, m in ((F2, 4), (F2, 6), (F3, 6)) for ell in (2, 3) for r in (1, 2)]
    # a multiple of the first generator, so the stacked bases exceed k, and a zero generator
    for C in repeated + CODES[:12]:
        v, zero = C.gens[0], (Poly.zero(C.base),) * C.ell
        w = tuple((a * Poly(C.base, [1, 1, 1])).fold(C.m) for a in v)
        lone = QcCode.make(C.base, C.m, C.ell, [v]).expand()
        assert QcCode.make(C.base, C.m, C.ell, [v, w]).expand() == lone, C
        assert QcCode.make(C.base, C.m, C.ell, [zero, v]).expand() == lone, C
    for C in codes + repeated:
        lin, ref = C.expand(), all_shifts(C)
        assert lin == ref and lin.pivot_cols == ref.pivot_cols, C
    assert any(C.expand().k < C.m * len(C.gens) for C in codes[60:80])
    assert any(C.expand().k < C.m * len(C.gens) for C in repeated)


def test_from_rows_roundtrip():
    rng = random.Random(1)
    C = random_qc(rng, F3, 5, 3, 2)
    lin = C.expand()
    D = QcCode.from_rows(F3, 5, 3, [list(r) for r in lin.rows])
    assert D.expand() == lin


def test_constituents_require_coprime_m():
    C = QcCode.make(F3, 3, 2, [(Poly.one(F3), Poly.one(F3))])
    with pytest.raises(NotCoprime):
        constituents(C)


def test_constituent_dimension_identity():
    for C in CODES:
        cs = constituents(C)
        assert cs.fq_dimension() == C.expand().k


def test_crt_roundtrip():
    for C in CODES:
        cs = constituents(C)
        assert from_constituents(cs).expand() == C.expand()


def test_qccd_criterion_equals_hull_oracle():
    for C in CODES:
        verdict, cert = is_qccd(C)
        assert verdict == (C.expand().hull_dim("euclidean") == 0)
        assert len(cert["self"]) == constituents(C).profile.s
        assert len(cert["pairs"]) == constituents(C).profile.t


def test_dual_decomposition():
    for C in CODES[:30]:
        expected = constituents(
            QcCode.from_rows(
                C.base, C.m, C.ell, [list(r) for r in C.expand().dual().rows]
            )
        )
        assert dual_constituents(C) == expected


def test_whole_space_is_qccd():
    C = QcCode.make(F2, 5, 2, [(Poly.one(F2), Poly.zero(F2)), (Poly.zero(F2), Poly.one(F2))])
    verdict, _ = is_qccd(C)
    assert verdict
    assert C.expand().k == 10


# ---------------------------------------------------------------------------
# distance bound
# ---------------------------------------------------------------------------

def test_jensen_bound_sound():
    for C in CODES:
        lin = C.expand()
        if lin.k == 0:
            assert jensen_bound(C) == 0
            continue
        assert 0 < jensen_bound(C) <= lin.min_distance()


def test_jensen_bound_tight_for_single_slot():
    # <(1,1)> at m=3: distance 2, bound reaches it
    C = QcCode.make(F2, 3, 2, [(Poly.one(F2), Poly.one(F2))])
    assert jensen_bound(C) == C.expand().min_distance() == 2


def subfield_min_weight(S, rows, suborder):
    """Least weight of a nonzero combination of rows with coefficients in
    the roots of x^suborder - x in S, by plain iteration.  Scaling keeps the
    weight, so only coefficient vectors with first nonzero entry 1 are
    visited."""
    sub = [z for z in range(S.order) if S.pow_raw(z, suborder) == z]
    weights = []
    for lead in range(len(rows)):
        for tail in itertools.product(sub, repeat=len(rows) - lead - 1):
            word = list(rows[lead])
            for c, row in zip(tail, rows[lead + 1:]):
                word = [S.add_raw(x, S.mul_raw(c, y)) for x, y in zip(word, row)]
            weights.append(sum(1 for x in word if x))
    return min(weights)


def _nonzero_slots(C):
    cs = constituents(C)
    S = cs.profile.splitting
    for f, _, part in cs.slots():
        if part.k:
            yield S, part, C.base.order**f.degree


def test_constituent_distance_over_own_field_matches_subfield_span():
    cases = [slot for C in CODES + EXT_CODES for slot in _nonzero_slots(C)]
    # wider spans over a proper subfield: GF(4) inside GF(16), GF(9) inside GF(3^6)
    for q, m, ell, r in ((4, 5, 6, 4), (9, 7, 5, 3)):
        C = random_qc(random.Random(q), field_from_order(q), m, ell, r)
        cases += [slot for slot in _nonzero_slots(C) if slot[2] == q]
    assert {(16, 4, 4), (729, 9, 3)} <= {(S.order, sub, part.k) for S, part, sub in cases}
    for S, part, suborder in cases:
        own = qcmod._own_field(S, part, suborder)
        assert own.field.order == suborder
        assert own == LinearCode.from_rows(own.field, own.n, own.rows)
        assert own.min_distance() == subfield_min_weight(S, part.rows, suborder), (S, part)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_pair_double():
    profile = factor_xm_minus_1(F2, 7)
    S = profile.splitting  # GF(8), equal to the pair-slot subfield
    C = LinearCode.from_rows(S, 3, [[1, 0, 3], [0, 1, 5]])
    assert C.hull_dim("euclidean") == 0
    code = build_pair_double(profile, 0, C)
    verdict, _ = is_qccd(code)
    assert verdict
    assert code.expand().hull_dim() == 0
    assert code.expand().k == 2 * 3 * C.k  # deg(h) * (k' + k'')


def test_build_pair_double_rejects_non_lcd():
    profile = factor_xm_minus_1(F2, 7)
    S = profile.splitting
    bad = LinearCode.from_rows(S, 2, [[1, 1]])
    if bad.hull_dim() == 0:  # (1,1) is self-orthogonal over GF(8)? check
        pytest.skip("unexpectedly LCD")
    with pytest.raises(NotLcd):
        build_pair_double(profile, 0, bad)


def test_build_pair_double_bad_index():
    profile = factor_xm_minus_1(F2, 7)
    with pytest.raises(SlotNotAPair):
        build_pair_double(profile, 1, LinearCode.from_rows(profile.splitting, 2, []))


def test_build_self_single():
    profile = factor_xm_minus_1(F2, 3)
    S = profile.splitting  # GF(4)
    # slot 1 carries the quadratic self-reciprocal factor
    C = LinearCode.from_rows(S, 2, [[1, 0]])
    assert C.hull_dim("hermitian") == 0
    code = build_self_single(profile, 1, C)
    verdict, _ = is_qccd(code)
    assert verdict
    assert code.expand().hull_dim() == 0
    assert code.expand().k == 2 * C.k


def test_build_self_single_rejects_odd_degree():
    profile = factor_xm_minus_1(F2, 3)
    C = LinearCode.from_rows(profile.splitting, 2, [])
    with pytest.raises(SlotNotSelfReciprocal):
        build_self_single(profile, 0, C)  # slot 0 carries x + 1


def test_builder_requires_subfield_entries():
    profile = factor_xm_minus_1(F2, 15)  # splitting GF(16); cubic-pair? no:
    # m=15 over GF(2): factors of degree 1, 2, 4, 4, 4; slot subfields differ
    S = profile.splitting
    # the degree-2 self-reciprocal slot lives in GF(4) inside GF(16)
    idx = next(i for i, (g, _) in enumerate(profile.self_recip) if g.degree == 2)
    outside = LinearCode.from_rows(S, 2, [[1, 2]])  # raw 2 not in embedded GF(4)
    with pytest.raises(SubfieldViolation):
        build_self_single(profile, idx, outside)


# ---------------------------------------------------------------------------
# 2D cyclic assembly
# ---------------------------------------------------------------------------

def _cyclic_part(S, suborder, ell, gen_poly):
    """Cyclic constituent over the embedded subfield from a generator poly."""
    rows = []
    coeffs = list(gen_poly) + [0] * (ell - len(gen_poly))
    for s in range(ell):
        rows.append(coeffs[-s:] + coeffs[:-s] if s else list(coeffs))
    return LinearCode.from_rows(S, ell, rows)


def test_twod_cyclic_lcd():
    profile = factor_xm_minus_1(F2, 3)
    S = profile.splitting
    ell = 7
    # reversible cyclic constituents: full space and the parity-check code
    full = LinearCode.from_rows(S, ell, [[1 if i == j else 0 for j in range(ell)] for i in range(ell)])
    cs = ConstituentSet(profile, ell, (full, full), ())
    code, lcd = twod_cyclic_lcd(cs)
    assert lcd
    assert code.expand().k == ell * 3


def test_twod_cyclic_rejects_nonreversible():
    profile = factor_xm_minus_1(F2, 3)
    S = profile.splitting
    ell = 7
    # <1 + x + x^3> over GF(2) embedded: cyclic but not reversible
    part = _cyclic_part(S, 2, ell, [1, 1, 0, 1])
    full = LinearCode.from_rows(S, ell, [[1 if i == j else 0 for j in range(ell)] for i in range(ell)])
    with pytest.raises(PreconditionViolation):
        twod_cyclic_lcd(ConstituentSet(profile, ell, (part, full), ()))


# binary m = 7: x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1), one self-reciprocal
# slot of degree 1 and one reciprocal pair, over GF(8); its only self slot is
# odd, so the single-slot refusals past the slot checks use m = 3's quadratic one,
# and binary m = 21's pair of degree 3 (pair 1) has its field GF(8) inside GF(64)
P7, P3, P21 = factor_xm_minus_1(F2, 7), factor_xm_minus_1(F2, 3), factor_xm_minus_1(F2, 21)
S8, S4, S64 = P7.splitting, P3.splitting, P21.splitting


def _full(S, ell):
    return LinearCode.from_rows(S, ell, [[int(i == j) for j in range(ell)] for i in range(ell)])


def _m7_set(ell, self_part, cp, cpp=None):
    return ConstituentSet(P7, ell, (self_part,), ((cp, cpp or cp),))


@pytest.mark.parametrize("build, refusal", [
    # <1 + x> is reversible and cyclic: the pair slot carries [7, 6] twice
    (lambda: twod_cyclic_lcd(_m7_set(7, _full(S8, 7), _cyclic_part(S8, 8, 7, [1, 1]))), None),
    (lambda: twod_cyclic_lcd(_m7_set(2, _full(S8, 2), _full(S8, 2))),
     (PreconditionViolation, "characteristic 2 divides ell=2")),
    (lambda: twod_cyclic_lcd(_m7_set(3, LinearCode.from_rows(S8, 3, [[1, 0, 0]]), _full(S8, 3))),
     (PreconditionViolation, "self slot u=0: constituent is not cyclic")),
    (lambda: twod_cyclic_lcd(_m7_set(7, _full(S8, 7), _full(S8, 7), _cyclic_part(S8, 8, 7, [1, 1]))),
     (PreconditionViolation, "pair slot v=1: paired constituents differ")),
    (lambda: twod_cyclic_lcd(_m7_set(3, _full(S8, 3), LinearCode.from_rows(S8, 3, [[1, 0, 0]]))),
     (PreconditionViolation, "pair slot v=1: constituent is not cyclic")),
    (lambda: twod_cyclic_lcd(_m7_set(7, _full(S8, 7), _cyclic_part(S8, 8, 7, [1, 1, 0, 1]))),
     (PreconditionViolation, "pair slot v=1: constituent is not reversible")),
    (lambda: build_self_single(P7, 1, _full(S8, 2)),
     (SlotNotSelfReciprocal, "profile has 1 self-reciprocal slots")),
    (lambda: build_self_single(P3, 1, _full(F2, 2)),
     (ShapeMismatch, "constituent must live in the splitting field")),
    # (1, 1) is Hermitian self-orthogonal over GF(4): 1 + 1 = 0
    (lambda: build_self_single(P3, 1, LinearCode.from_rows(S4, 2, [[1, 1]])),
     (NotLcd, "constituent is not Hermitian LCD")),
    (lambda: build_pair_double(P7, 0, _full(F2, 3)),
     (ShapeMismatch, "constituent must live in the splitting field")),
    (lambda: build_pair_double(P7, 1, _full(S8, 2)),
     (SlotNotAPair, "profile has 1 pair slots")),
    # (1, 1) is Euclidean self-orthogonal in characteristic 2
    (lambda: build_pair_double(P7, 0, LinearCode.from_rows(S8, 2, [[1, 1]])),
     (NotLcd, "constituent is not Euclidean LCD")),
    # GF(8) is {0, 1, 10, 11, 36, 37, 46, 47} in GF(64), so 2 lies outside it
    (lambda: build_pair_double(P21, 1, LinearCode.from_rows(S64, 2, [[1, 2]])),
     (SubfieldViolation, "entry 2 not in the subfield of order 8")),
], ids=["twod-pair-slot", "twod-char-divides-ell", "twod-self-not-cyclic", "twod-pair-differ",
        "twod-pair-not-cyclic", "twod-pair-not-reversible", "single-slot-index",
        "single-wrong-field", "single-not-lcd", "pair-double-wrong-field", "pair-double-index",
        "pair-double-not-lcd", "pair-double-outside-subfield"])
def test_builders_on_binary_m7(build, refusal):
    if refusal is None:
        code, lcd = build()
        lin = code.expand()
        assert lcd and lin.hull_dim("euclidean") == 0 and is_qccd(code)[0]
        assert lin.params() == (49, 1 * 7 + 3 * (6 + 6))  # sum of deg * dims over the slots
        return
    error, message = refusal
    with pytest.raises(error, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: build_pair_double(P7, 0, _full(S8, 2)), "pair-doubling"),
    (lambda: build_self_single(P3, 1, LinearCode.from_rows(S4, 2, [[1, 0]])), "single-slot"),
])
def test_builders_recertify(monkeypatch, build, message):
    # the built code goes through is_qccd again: a failed verdict is a broken invariant
    build()
    monkeypatch.setattr(qcmod, "is_qccd", lambda code: (False, {}))
    with pytest.raises(AssertionError, match=f"^{message} construction failed certification$"):
        build()


# ---------------------------------------------------------------------------
# extension-field bases and the inverse CRT
# ---------------------------------------------------------------------------

# GF(2) at m = 21 has slot fields GF(4) and GF(8) strictly inside its splitting field GF(64)
EXT_GRID = [
    (q, m, ell) for q in (4, 5, 8, 9) for m in (3, 5, 7) for ell in (2, 3, 4) if math.gcd(m, q) == 1
] + [(2, 21, ell) for ell in (2, 3)]


def extension_codes(count, seed=20261018):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q, m, ell = EXT_GRID[rng.randrange(len(EXT_GRID))]
        out.append(random_qc(rng, field_from_order(q), m, ell, rng.randrange(1, 3)))
    return out


EXT_CODES = extension_codes(36)


def test_extension_bases_certify_roundtrip_and_dimension():
    assert {C.base.order for C in EXT_CODES} == {2, 4, 5, 8, 9}
    for C in EXT_CODES:
        lin = C.expand()
        verdict, _ = is_qccd(C)
        assert verdict == (lin.hull_dim("euclidean") == 0), C
        cs = constituents(C)
        assert cs.fq_dimension() == lin.k, C
        assert from_constituents(cs).expand() == lin, C


M1_CODES = [
    random_qc(random.Random(q), field_from_order(q), 1, ell, 2)
    for q in (2, 3, 4, 9)
    for ell in (1, 3)
]


# slot fields strictly between a non-prime base and the splitting field,
# whose own copy of the base is not the one the splitting field holds
TOWER_CODES = [
    random_qc(random.Random(q), field_from_order(q), m, 1, 1) for q, m in ((4, 35), (8, 39), (9, 32))
]


def test_inverse_crt_evaluates_to_constituents():
    # each generator takes its constituent entry at its slot root, the
    # conjugates of that entry at the conjugate roots, and 0 at every other
    # m-th root of unity
    covered = {"self": 0, "pair": 0, "between": 0}
    for C in CODES + EXT_CODES + M1_CODES + TOWER_CODES:
        cs = constituents(C)
        profile = cs.profile
        S, q, m = profile.splitting, C.base.order, C.m
        gens = iter(from_constituents(cs).gens)
        for idx, (f, exp, part) in enumerate(cs.slots()):
            degree = f.degree
            for row in part.rows:
                gen = next(gens)
                for a, c in zip(gen, row):
                    expected = {exp * q**t % m: S.pow_raw(c, q**t) for t in range(degree)}
                    for i in range(m):
                        value = a.evaluate(S, S.pow_raw(profile.xi, i))
                        assert value == expected.get(i, 0), (C, exp, i)
                covered["self" if idx < profile.s else "pair"] += 1
                covered["between"] += q < q**degree < S.order
    assert {C.m for C in M1_CODES} == {1}
    assert all(covered.values()), covered


def test_idempotent_is_primitive():
    for q, m in ((2, 1), (2, 7), (3, 5), (4, 5), (9, 7), (2, 15)):
        profile = factor_xm_minus_1(field_from_order(q), m)
        S = profile.splitting
        for e in range(m):
            E = Poly(S, qcmod._idempotent(profile, e))
            assert (E * E).fold(m) == E, (q, m, e)
            for i in range(m):
                assert E.evaluate(S, S.pow_raw(profile.xi, i)) == (i == e), (q, m, e, i)


def test_from_constituents_refuses_entry_outside_subfield():
    profile = factor_xm_minus_1(F2, 7)  # splitting GF(8); slot x + 1 at u = 0
    S = profile.splitting
    zero = LinearCode.from_rows(S, 2, [])
    inside = ConstituentSet(profile, 2, (LinearCode.from_rows(S, 2, [[1, 0]]),), ((zero, zero),))
    all_ones = Poly(F2, [1] * 7)
    assert from_constituents(inside).gens == ((all_ones, Poly.zero(F2)),)
    # raw 2 (a generator of GF(8)) is not in GF(2)
    outside = ConstituentSet(profile, 2, (LinearCode.from_rows(S, 2, [[1, 2]]),), ((zero, zero),))
    with pytest.raises(SubfieldViolation):
        from_constituents(outside)
