"""Acceptance gate: ten end-to-end checks, one test (and one printed
verdict line) per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
import time

import pytest

import qccd.construct as cc
from qccd.cli import main as cli_main
from qccd.construct import (
    dc_is_lcd,
    dc_search,
    double_circulant,
    expand_subfield,
    hermitian_lcd_extend,
    self_dual_basis,
)
from qccd.cyclic import (
    divisors_of_xell_minus_one,
    is_conjugate_reversible,
    is_lcd_by_factors,
    is_lcd_cyclic,
    is_reversible,
    make_cyclic,
)
from qccd.errors import TooLargeToEnumerate
from qccd.field import make_field
from qccd.lincode import LinearCode
from qccd.polyring import Poly, factor_xm_minus_1
from qccd.qc import (
    QcCode,
    build_pair_double,
    build_self_single,
    constituents,
    dual_constituents,
    from_constituents,
    is_qccd,
    jensen_bound,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def verdict_line(num, ok, desc):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")


# ---------------------------------------------------------------------------
# shared seeded random QC grid (criteria 4, 5, 6, 10)
# ---------------------------------------------------------------------------

GRID = [
    (q, m, ell)
    for q in (2, 3)
    for m in (3, 5, 7)
    for ell in (2, 3, 4)
    if m % q  # constituent theory needs gcd(m, p) = 1
]


@pytest.fixture(scope="module")
def qc_grid():
    rng = random.Random(777)
    codes = []
    for _ in range(200):
        q, m, ell = GRID[rng.randrange(len(GRID))]
        base = make_field(q, 1)
        gens = [
            tuple(
                Poly(base, [rng.randrange(q) for _ in range(m)]) for _ in range(ell)
            )
            for _ in range(rng.randrange(1, 3))
        ]
        codes.append(QcCode.make(base, m, ell, gens))
    return codes


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_named_double_circulant_example(tmp_path, capsys):
    """qc-check on (1, 1+x+x^3) at m=5 over GF(2): expected [10,5,3],
    Euclidean hull 0, and the gcd criterion true."""
    f = tmp_path / "dc_m5.qc"
    f.write_text("2 5 2 1\n1|1,1,0,1\n")
    t0 = time.time()
    rc = cli_main(["qc-check", "--in", str(f)])
    elapsed = time.time() - t0
    payload = json.loads(capsys.readouterr().out)
    ok = (
        rc == 0
        and payload["params"] == {"n": 10, "k": 5, "d": 3}
        and payload["hull_dim"] == 0
        and payload["dc_criterion"] is True
        and elapsed < 1.0
    )
    with capsys.disabled():
        verdict_line(1, ok, "named [10,5,3] double circulant example")
    assert ok, (
        "expected [10,5,3], hull 0, criterion true; got "
        f"{payload['params']}, hull {payload['hull_dim']}, "
        f"criterion {payload['dc_criterion']}"
    )


def test_criterion_02_dc_table(capsys):
    expected = {3: 1, 5: 3, 7: 4, 9: 3, 11: 6, 13: 7, 15: 5, 17: 8}
    got = {}
    for m in sorted(expected):
        got[m] = dc_search(F2, m, workers=4 if m >= 13 else 1).best_distance
    ok = got == expected
    with capsys.disabled():
        verdict_line(2, ok, f"double circulant table {got}")
    assert got == expected


def test_criterion_03_dc_criterion_oracle_sweep(capsys):
    mismatches = 0
    cases = 0
    for m in (3, 5, 7, 9):
        for serial in range(2**m):
            a = Poly(F2, [(serial >> i) & 1 for i in range(m)])
            cases += 1
            crit = dc_is_lcd(F2, m, a)
            oracle = double_circulant(F2, m, a).expand().hull_dim() == 0
            mismatches += crit != oracle
    ok = mismatches == 0
    with capsys.disabled():
        verdict_line(3, ok, f"gcd criterion vs hull oracle, {cases} cases")
    assert mismatches == 0


def test_criterion_04_qccd_criterion_oracle(qc_grid, capsys):
    failures = 0
    for C in qc_grid:
        verdict, _ = is_qccd(C)
        failures += verdict != (C.expand().hull_dim("euclidean") == 0)
    ok = failures == 0
    with capsys.disabled():
        verdict_line(4, ok, f"constituent criterion vs hull oracle, {len(qc_grid)} codes")
    assert failures == 0


def test_criterion_05_crt_roundtrip_and_dimension(qc_grid, capsys):
    failures = 0
    for C in qc_grid:
        cs = constituents(C)
        lin = C.expand()
        failures += from_constituents(cs).expand() != lin
        failures += cs.fq_dimension() != lin.k
    ok = failures == 0
    with capsys.disabled():
        verdict_line(5, ok, f"CRT roundtrip + dimension identity, {len(qc_grid)} codes")
    assert failures == 0


def test_criterion_06_dual_decomposition(qc_grid, capsys):
    failures = 0
    for C in qc_grid[:100]:
        from_dual = constituents(
            QcCode.from_rows(
                C.base, C.m, C.ell, [list(r) for r in C.expand().dual().rows]
            )
        )
        failures += dual_constituents(C) != from_dual
    ok = failures == 0
    with capsys.disabled():
        verdict_line(6, ok, "dual decomposition on 100 codes")
    assert failures == 0


def test_criterion_07_hermitian_extension(capsys):
    rng = random.Random(4242)
    failures = 0
    for i in range(100):
        field = F4 if i < 50 else F9
        k = rng.randrange(1, 5)
        ell = rng.randrange(k, min(k + 6, (24 + k) // 2 + 1))
        rows = [
            [1 if j == i2 else 0 for j in range(k)]
            + [rng.randrange(field.order) for _ in range(ell - k)]
            for i2 in range(k)
        ]
        Ct = LinearCode.from_rows(field, ell, rows)
        out = hermitian_lcd_extend(Ct)
        gram = out.gram("hermitian")
        good = (
            out.params() == (2 * ell - k, k)
            and gram == [[1 if a == b else 0 for b in range(k)] for a in range(k)]
            and out.hull_dim("hermitian") == 0
            and out.min_distance() >= Ct.min_distance()
        )
        failures += not good
    ok = failures == 0
    with capsys.disabled():
        verdict_line(7, ok, "Hermitian-LCD extension on 100 systematic codes")
    assert failures == 0


def test_criterion_08_cyclic_sweeps(capsys):
    mismatches = 0
    checked = 0
    for ell in (3, 5, 15):
        for g in divisors_of_xell_minus_one(F4, ell):
            C = make_cyclic(F4, ell, g)
            lin = C.as_linear_code()
            crit = is_lcd_cyclic(C, "hermitian")
            rev = is_conjugate_reversible(C)
            hull = lin.hull_dim("hermitian") == 0
            factors = is_lcd_by_factors(C, "hermitian")
            closed = lin.closed_under(range(ell - 1, -1, -1), F4.conj_exp)
            mismatches += not (crit == rev == hull == factors == closed)
            checked += 1
    for field, ell in ((F2, 7), (F2, 15), (F4, 7), (F4, 15)):
        for g in divisors_of_xell_minus_one(field, ell):
            C = make_cyclic(field, ell, g)
            lin = C.as_linear_code()
            crit = is_lcd_cyclic(C, "euclidean")
            rev = is_reversible(C)
            hull = lin.hull_dim("euclidean") == 0
            factors = is_lcd_by_factors(C, "euclidean")
            closed = lin.closed_under(range(ell - 1, -1, -1))
            mismatches += not (crit == rev == hull == factors == closed)
            checked += 1
    ok = mismatches == 0
    with capsys.disabled():
        verdict_line(8, ok, f"cyclic LCD equivalences over {checked} divisors")
    assert mismatches == 0


def test_criterion_09_descent_pipeline(capsys):
    f = Poly(F4, [2, 1, 1])
    C = make_cyclic(F4, 15, f * f.reciprocal())
    lin = C.as_linear_code()
    stage1 = (
        lin.params() == (15, 11)
        and lin.min_distance() == 3
        and is_lcd_cyclic(C, "euclidean")
    )
    B = self_dual_basis(2, 2)
    D = expand_subfield(lin, B)
    stage2 = D.params() == (30, 22) and D.min_distance() == 3 and D.hull_dim() == 0
    ok = stage1 and stage2
    with capsys.disabled():
        verdict_line(9, ok, "[15,11,3] quaternary -> [30,22,3] binary descent")
    assert stage1, (lin.params(), lin.min_distance())
    assert stage2, (D.params(), D.min_distance(), D.hull_dim())


def test_criterion_10_jensen_and_builders(qc_grid, capsys):
    violations = 0
    bounded = 0
    for C in qc_grid:
        lin = C.expand()
        if lin.k == 0:
            continue
        try:
            d = lin.min_distance()
        except TooLargeToEnumerate:
            continue
        bounded += 1
        violations += jensen_bound(C) > d

    prof7 = factor_xm_minus_1(F2, 7)
    pair_code = build_pair_double(
        prof7, 0, LinearCode.from_rows(prof7.splitting, 3, [[1, 0, 3], [0, 1, 5]])
    )
    v1, _ = is_qccd(pair_code)
    built1 = v1 and pair_code.expand().hull_dim() == 0

    prof3 = factor_xm_minus_1(F2, 3)
    single_code = build_self_single(
        prof3, 1, LinearCode.from_rows(prof3.splitting, 2, [[1, 0]])
    )
    v2, _ = is_qccd(single_code)
    built2 = v2 and single_code.expand().hull_dim() == 0

    ok = violations == 0 and built1 and built2
    with capsys.disabled():
        verdict_line(
            10, ok, f"concatenation bound sound on {bounded} codes + both builders"
        )
    assert violations == 0
    assert built1 and built2
