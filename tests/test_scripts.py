import importlib.util
import json
import os
from fractions import Fraction

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_random_qc_audit_smoke(capsys):
    audit = load_script("random_qc_audit")
    assert audit.main(["--seed", "7", "--trials", "30"]) == 0
    assert "30 trials, all checks passed" in capsys.readouterr().out


def test_reproduce_dc_table_smoke(capsys):
    table = load_script("reproduce_dc_table")
    assert table.main(["--m-max", "9"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert out.startswith("delta_GV = 0.1100 ")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["3", "1"], ["5", "3"], ["7", "4"], ["9", "3"]]
    # d/2m, and LCD frac = dc_lcd_count(2, m) / 2^m
    assert [row[4] for row in rows] == ["0.167", "0.300", "0.286", "0.167"]
    fracs = [Fraction(1, 8), Fraction(11, 32), Fraction(57, 128), Fraction(55, 512)]
    assert [row[5] for row in rows] == [f"{float(f):.4f}" for f in fracs]


def test_reproduce_dc_table_flags_a_wrong_lcd_count(monkeypatch, capsys):
    table = load_script("reproduce_dc_table")
    monkeypatch.setattr(table, "dc_lcd_count", lambda q, m: 1)
    assert table.main(["--m-max", "5"]) == 1
    assert "#LCD MISMATCH (dc_lcd_count 1)" in capsys.readouterr().out


def test_time_kernels_smoke(capsys):
    timer = load_script("time_kernels")
    assert timer.main(["--runs", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert {"nproc", "python", "numpy"} <= result.keys()
    footprint = result["import"]
    assert 0 < footprint["rss_before_kb"] < footprint["rss_after_kb"]
    assert footprint["openssl"] is False
    times = result["median_us"]
    # every DC shape (stack kernel, list rref, whole engine), mask kernel on
    # GF(2) only, the screen where m is prime to q (not m = 8 over GF(2),
    # GF(4)); two QC kernels on 11 (q, m) shapes, r = 1, 2; the cold import;
    # the cold construction of five fields; and four enumerations, each with
    # its tracemalloc peak
    assert len(times) == 4 * 3 * 3 * 3 + 3 * 3 + (4 * 3 - 2) * 3 + 2 * 11 * 2 + 1 + 5 + 4
    assert {f"field/{p}^{k}" for p, k in timer.COLD_FIELDS} <= times.keys()
    enum = {f"enum/q{q}/n{n}/k{k}" for q, n, k in timer.ENUM_SHAPES}
    assert enum <= times.keys() and result["enum_peak_kb"].keys() == enum
    assert all(kb > 0 for kb in result["enum_peak_kb"].values())
    assert all(t > 0 for t in times.values())
