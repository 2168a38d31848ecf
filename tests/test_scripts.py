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


def test_bench_record_smoke(tmp_path, monkeypatch):
    # this checkout against itself on one workload: equal digests, every
    # end-to-end metric summarised on both sides, and a win count for each
    record = load_script("bench_record")
    monkeypatch.setattr(record.workloads, "WORKLOADS", ("dc_odd",))
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--parent", record.ROOT, "--seeds", "1", "--seconds", "0", "--smoke"]
    assert record.main(argv) == 0
    data = json.loads(out.read_text())
    context = data["context"]
    assert {"nproc", "python", "numpy"} <= context.keys() and context["problems"] == []
    assert context["seeds"] == [1] and context["git_commits"].keys() == {"change", "parent"}
    change, parent = data["change"]["dc_odd"], data["parent"]["dc_odd"]
    assert change["certificate_sha256"] == parent["certificate_sha256"]
    assert list(change["certificate_sha256"]) == ["1"]
    with open(os.path.join(record.ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    for side in (change, parent):
        assert side["metrics"].keys() == names
        assert all(m["min"] <= m["median"] <= m["max"] and len(m["runs"]) == 1
                   for m in side["metrics"].values())
    assert data["change_wins"]["dc_odd"].keys() == names


def test_bench_record_flags_failures_and_differing_digests(tmp_path, monkeypatch):
    # a failed request, and a digest that differs between the sides at a seed, exit 1
    record = load_script("bench_record")
    monkeypatch.setattr(record.workloads, "WORKLOADS", ("dc_odd",))
    metrics = {"setup_s": {"value": 0.1, "unit": "s"}}
    for failed, parent_digest in [(0, "b"), (1, "a")]:
        monkeypatch.setattr(record, "run_bench", lambda root, *args: (
            {"certificate_sha256": "a" if root == record.ROOT else parent_digest},
            {"correct": not failed, "failed": failed, "metrics": metrics}))
        out = tmp_path / "BENCH.json"
        assert record.main(["--out", str(out), "--parent", str(tmp_path), "--seeds", "1"]) == 1
        assert json.loads(out.read_text())["context"]["problems"]


def test_time_kernels_smoke(capsys):
    timer = load_script("time_kernels")
    assert timer.main(["--runs", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert {"nproc", "python", "numpy"} <= result.keys()
    footprint = result["import"]
    assert 0 < footprint["rss_before_kb"] < footprint["rss_after_kb"]
    assert footprint["openssl"] is False
    times = result["median_us"]
    # every DC shape (stack kernel, list rref, whole engine), plane kernel on
    # GF(2), GF(3) and GF(4), not GF(9), the screen where m is prime to q
    # (not m = 8 over GF(2), GF(4)); two QC kernels on 11 (q, m) shapes,
    # r = 1, 2; the cold import; the cold construction of five fields; and
    # four enumerations, each with its tracemalloc peak
    assert len(times) == 4 * 3 * 3 * 3 + 3 * 3 * 3 + (4 * 3 - 2) * 3 + 2 * 11 * 2 + 1 + 5 + 4
    assert {f"field/{p}^{k}" for p, k in timer.COLD_FIELDS} <= times.keys()
    enum = {f"enum/q{q}/n{n}/k{k}" for q, n, k in timer.ENUM_SHAPES}
    assert enum <= times.keys() and result["enum_peak_kb"].keys() == enum
    assert all(kb > 0 for kb in result["enum_peak_kb"].values())
    assert all(t > 0 for t in times.values())
