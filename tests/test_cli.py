import json
import os
import subprocess
import sys

import pytest

from qccd.cli import main

DATA_DC_M5 = "2 5 2 1\n1|1,1,0,1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_factor_m7(capsys):
    code, payload = run_json(capsys, "factor", "--q", "2", "--m", "7")
    assert code == 0
    assert payload["s"] == 1 and payload["t"] == 1
    assert payload["pairs"][0]["degree"] == 3
    got = {payload["pairs"][0]["factor"], payload["pairs"][0]["reciprocal"]}
    assert got == {"1,1,0,1", "1,0,1,1"}


def test_factor_m15_gf4(capsys):
    code, payload = run_json(capsys, "factor", "--q", "4", "--m", "15")
    assert code == 0
    assert payload["s"] + 2 * payload["t"] == 9


def test_cyclic_check_euclidean(capsys):
    code, payload = run_json(
        capsys, "cyclic-check", "--q", "4", "--ell", "15", "--g", "1,2,2,2,1"
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["params"] == {"n": 15, "k": 11, "d": 3}
    assert payload["hull_dim"] == 0
    assert payload["oracle_agreement"] is True


def test_cyclic_check_hermitian(capsys):
    code, payload = run_json(
        capsys, "cyclic-check", "--q", "4", "--ell", "5", "--g", "1,1",
        "--form", "hermitian",
    )
    assert code == 0
    assert payload["verdict"] == (payload["hull_dim"] == 0)


def test_cyclic_check_no_oracle(capsys):
    code, payload = run_json(
        capsys, "cyclic-check", "--q", "2", "--ell", "7", "--g", "1,1,0,1",
        "--no-oracle",
    )
    assert code == 0
    assert "hull_dim" not in payload


def test_cyclic_check_input_error(capsys):
    code, payload = run_json(
        capsys, "cyclic-check", "--q", "2", "--ell", "7", "--g", "1,0,1"
    )
    assert code == 2
    assert payload["error"] == "NotADivisor"


def test_qc_check_shipped_example(tmp_path, capsys):
    f = tmp_path / "dc.qc"
    f.write_text(DATA_DC_M5)
    code, payload = run_json(capsys, "qc-check", "--in", str(f))
    assert code == 0
    assert payload["params"]["n"] == 10 and payload["params"]["k"] == 5
    assert payload["oracle_agreement"] is True
    assert payload["dc_criterion"] == payload["verdict"]
    assert payload["verdict"] == (payload["hull_dim"] == 0)


def test_qc_check_missing_file(capsys):
    code, payload = run_json(capsys, "qc-check", "--in", "/nonexistent.qc")
    assert code == 2
    assert "error" in payload


def test_qc_constituents(tmp_path, capsys):
    f = tmp_path / "dc.qc"
    f.write_text(DATA_DC_M5)
    code, payload = run_json(capsys, "qc-constituents", "--in", str(f))
    assert code == 0
    assert payload["fq_dimension"] == payload["expanded_dimension"] == 5
    assert payload["roundtrip"] is True
    degrees = sorted(s["degree"] for s in payload["self_slots"])
    assert degrees == [1, 4]


def test_qc_jensen(tmp_path, capsys):
    f = tmp_path / "dc.qc"
    f.write_text(DATA_DC_M5)
    code, payload = run_json(capsys, "qc-jensen", "--in", str(f))
    assert code == 0
    assert payload["bound"] <= payload["min_distance"]


def test_dc_search_m5(capsys):
    code, payload = run_json(
        capsys, "dc-search", "--q", "2", "--m", "5", "--exhaustive"
    )
    assert code == 0
    assert payload["best"]["d"] == 3
    assert payload["lcd_count"] == 11


def test_dc_search_random_deterministic(capsys):
    args = ("dc-search", "--q", "2", "--m", "11", "--seed", "5", "--trials", "30")
    _, p1 = run_json(capsys, *args)
    _, p2 = run_json(capsys, *args)
    p1.pop("time"), p2.pop("time")
    assert p1 == p2


def test_dc_search_workers_stable(capsys):
    _, a = run_json(capsys, "dc-search", "--q", "2", "--m", "9", "--exhaustive")
    _, b = run_json(
        capsys, "dc-search", "--q", "2", "--m", "9", "--exhaustive",
        "--workers", "3",
    )
    a.pop("time"), b.pop("time")
    assert a == b


def test_extend_hermitian(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("4 4 2\n1 0 1 2\n0 1 3 1\n")
    code, payload = run_json(capsys, "extend-hermitian", "--in", str(f))
    assert code == 0
    assert payload["params"]["n"] == 6 and payload["params"]["k"] == 2
    assert payload["gram_identity"] is True
    assert payload["hull_dim"] == 0
    assert payload["params"]["d"] >= payload["input_params"]["d"]


def test_descend(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "2")
    assert code == 0
    assert payload["params"] == {
        "n": 6,
        "k": 2,
        "d": payload["params"]["d"],
    }
    assert payload["oracle_agreement"] is True


def test_descend_bad_subfield(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "3")
    assert code == 2


@pytest.mark.parametrize("q", ["0", "1", "6"])
def test_descend_subfield_must_be_a_field_order(tmp_path, capsys, q):
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", q)
    assert code == 2
    assert payload["error"] == "NonPrimeCharacteristic"


def test_table_repro_json(capsys):
    code, payload = run_json(
        capsys, "table-repro", "--m-max", "9", "--format", "json"
    )
    assert code == 0
    assert [r["d"] for r in payload["rows"]] == [1, 3, 4, 3]
    assert payload["all_match"] is True


def test_table_repro_table_format(capsys):
    code, out = run(capsys, "table-repro", "--m-max", "5")
    assert code == 0
    assert "reference" in out.splitlines()[0]
    assert not any("NO" in line for line in out.splitlines()[1:])


def test_unknown_command(capsys):
    assert main(["no-such-command"]) == 2


def test_missing_required_flag(capsys):
    assert main(["factor", "--q", "2"]) == 2


def _fresh_process(*argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "qccd.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_parser_reused_across_subcommands(capsys):
    from qccd.cli import build_parser

    assert build_parser() is build_parser()
    requests = [
        ("cyclic-check", "--q", "4", "--ell", "15", "--g", "1,2,2,2,1"),
        ("factor", "--q", "2", "--m", "7"),
        ("dc-search", "--q", "3", "--m", "4", "--exhaustive"),
    ]
    for argv in requests:
        code, got = run_json(capsys, *argv)
        fresh_code, fresh = _fresh_process(*argv)
        got.pop("time"), fresh.pop("time")
        assert (code, got) == (fresh_code, fresh)


def test_field_order_cap_in_cli(capsys):
    code, payload = run_json(capsys, "factor", "--q", str(2**89 - 1), "--m", "3")
    assert code == 2
    assert payload["error"] == "FieldTooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ("cyclic-check", "--q", "2", "--ell", "0", "--g", "1"),
        ("cyclic-check", "--q", "2", "--ell", "-1", "--g", "1"),
        ("factor", "--q", "2", "--m", "0"),
        ("dc-search", "--q", "2", "--m", "-1", "--exhaustive"),
        ("dc-search", "--q", "2", "--m", "5", "--exhaustive", "--workers", "0"),
        ("table-repro", "--m-max", "5", "--workers", "-2"),
    ],
)
def test_nonpositive_lengths_and_workers_rejected(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == "InvalidParameter"


@pytest.mark.parametrize("m_max", ["2", "-3"])
def test_table_repro_m_max_rejected(capsys, m_max):
    code, payload = run_json(capsys, "table-repro", "--m-max", m_max, "--format", "json")
    assert code == 2
    assert payload["error"] == "InvalidParameter"


@pytest.mark.parametrize("command", ["extend-hermitian", "descend"])
def test_code_file_length_rejected(tmp_path, capsys, command):
    f = tmp_path / "empty.txt"
    f.write_text("4 0 0\n")
    argv = ["--q", "2"] if command == "descend" else []
    code, payload = run_json(capsys, command, "--in", str(f), *argv)
    assert code == 2
    assert payload["error"] == "ParseError"


@pytest.mark.parametrize("header", ["2 0 2 1", "2 -1 2 1", "2 3 0 0", "2 3 -2 0"])
def test_qc_header_lengths_rejected(tmp_path, capsys, header):
    f = tmp_path / "bad.qc"
    f.write_text(header + "\n1|1\n")
    code, payload = run_json(capsys, "qc-check", "--in", str(f))
    assert code == 2
    assert payload["error"] == "ParseError"
