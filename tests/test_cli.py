import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qccd.construct as cc
import qccd.cyclic as cy
import qccd.lincode as lc
import qccd.qc as qcmod
from qccd.cli import main
from qccd.io import parse_qc
from qccd.lincode import MAX_LENGTH

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


def test_cyclic_check_no_oracle(capsys, monkeypatch):
    def oracle_ran(*args):
        raise AssertionError("a cross-check ran under --no-oracle")

    for owner, name in [(cy, "is_lcd_by_factors"), (lc.LinearCode, "closed_under"),
                        (lc.LinearCode, "hull_dim")]:
        monkeypatch.setattr(owner, name, oracle_ran)
    code, payload = run_json(
        capsys, "cyclic-check", "--q", "2", "--ell", "7", "--g", "1,1,0,1",
        "--no-oracle",
    )
    assert code == 0
    assert "hull_dim" not in payload
    assert payload["verdict"] is False and payload["reversible"] is False


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


def test_qc_constituents_pair_slots(tmp_path, capsys):
    # binary m = 7 has one reciprocal pair h = 1 + x^2 + x^3, h* = 1 + x + x^3;
    # the generator (h*, h*) vanishes at the roots of h* only
    f = tmp_path / "m7.qc"
    f.write_text("2 7 2 1\n1,1,0,1|1,1,0,1\n")
    code, payload = run_json(capsys, "qc-constituents", "--in", str(f))
    assert code == 0
    assert payload["self_slots"] == [{"coset_leader": 0, "degree": 1, "dim": 1, "length": 2}]
    assert payload["pair_slots"] == [{"coset_leader": 1, "degree": 3, "dims": [1, 0], "length": 2}]
    assert payload["fq_dimension"] == payload["expanded_dimension"] == 1 * 1 + 3 * (1 + 0)


def test_qc_jensen(tmp_path, capsys):
    f = tmp_path / "dc.qc"
    f.write_text(DATA_DC_M5)
    code, payload = run_json(capsys, "qc-jensen", "--in", str(f))
    assert code == 0
    assert payload["bound"] <= payload["min_distance"]


# the [8,4,4] extended Hamming code as a quasi-cyclic code with m = 1
HAMMING_M1 = "2 1 8 4\n1|0|0|0|0|1|1|1\n0|1|0|0|1|0|1|1\n0|0|1|0|1|1|0|1\n0|0|0|1|1|1|1|0\n"


def test_qc_jensen_takes_one_distance_at_m1(tmp_path, capsys, monkeypatch):
    # with m = 1 the one constituent is the expanded code itself, so the
    # bound and the oracle share one BZ run; the inner code, all of GF(2),
    # takes its distance from the dual's weights
    f = tmp_path / "hamming.qc"
    f.write_text(HAMMING_M1)
    calls, bz = [], lc.bz_min_distance

    def counted(*args, **kwargs):
        calls.append(args)
        return bz(*args, **kwargs)

    lc._min_distance.cache_clear()
    monkeypatch.setattr(lc, "bz_min_distance", counted)
    code, payload = run_json(capsys, "qc-jensen", "--in", str(f))
    payload.pop("time")
    assert (code, payload) == (0, {
        "command": "qc-jensen", "q": 2, "m": 1, "ell": 8,
        "bound": 4, "min_distance": 4, "oracle_agreement": True,
    })
    assert len(calls) == 1


def _systematic_qc(seed):
    """GF(2), m = 5, ell = 12, r = 7: generator i is 1 in block i, 0 in the
    other first seven blocks, and seeded bits in the last five."""
    rng = random.Random(seed)
    lines = ["2 5 12 7"]
    for i in range(7):
        blocks = ["1" if j == i else "0" for j in range(7)]
        blocks += [",".join(str(rng.randrange(2)) for _ in range(5)) for _ in range(5)]
        lines.append("|".join(blocks))
    return "\n".join(lines) + "\n"


def test_qc_jensen_constituent_beyond_span_cap(tmp_path, capsys):
    # constituents [12,7,2] over GF(2) at x + 1 and [12,7,3] over GF(16):
    # 16^7 words are past the cap, but the GF(16) distance comes from the
    # dual's 16^5.  Bound: min(2 * 5, 3 * 1), inner distances of the
    # repetition code and of the whole space
    f = tmp_path / "sys.qc"
    f.write_text(_systematic_qc(5))
    code, payload = run_json(capsys, "qc-jensen", "--in", str(f))
    assert code == 0 and payload["oracle_agreement"] is True
    assert payload["bound"] == 3
    cs = qcmod.constituents(parse_qc(f.read_text()))
    S = cs.profile.splitting
    own = [qcmod._own_field(S, part, 2**g.degree) for g, _, part in cs.slots()]
    own = {c.field.order: c for c in own}
    assert {q: (c.n, c.k, c.min_distance()) for q, c in own.items()} == {
        2: (12, 7, 2), 16: (12, 7, 3)
    }
    assert 16**7 > lc.ENUM_CAP
    # a second route to the GF(16) distance: BZ on the same rows
    assert lc.bz_min_distance(own[16].field, [own[16].rows], own[16].pivot_cols)[0] == 3


def test_dc_search_m5(capsys):
    code, payload = run_json(
        capsys, "dc-search", "--q", "2", "--m", "5", "--exhaustive"
    )
    assert code == 0
    assert payload["best"]["d"] == 3
    assert payload["lcd_count"] == 11
    assert payload["oracle_agreement"] is True


def test_dc_search_oracle_checks_the_best_a(capsys, monkeypatch):
    # a screen that passes every candidate lets through <(1, 1 + x + x^2)> at m = 5,
    # distance 4 but not LCD, and the gcd criterion on the best a says so
    monkeypatch.setattr(cc, "_dc_screen", lambda base, m, a: np.ones(len(a), dtype=bool))
    code, payload = run_json(capsys, "dc-search", "--q", "2", "--m", "5", "--exhaustive")
    assert code == 3
    assert payload["best"] == {"a": "1,1,1,0,0", "serial": 7, "d": 4}
    assert payload["oracle_agreement"] is False


def test_dc_search_oracle_checks_the_count(capsys, monkeypatch):
    # a screen that drops the first LCD candidate, a = 0 (orbit size 1), keeps
    # the best a LCD, and only the closed-form count sees the loss
    screen, dropped = cc._dc_screen, []

    def drop_one(base, m, a):
        lcd = screen(base, m, a)
        if not dropped and lcd.any():
            dropped.append(int(lcd.argmax()))
            lcd[dropped[0]] = False
        return lcd

    monkeypatch.setattr(cc, "_dc_screen", drop_one)
    code, payload = run_json(capsys, "dc-search", "--q", "2", "--m", "5", "--exhaustive")
    assert dropped == [0]
    assert code == 3
    assert payload["best"]["d"] == 3 and payload["lcd_count"] == 10
    assert payload["oracle_agreement"] is False


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


def test_library_assertion_exits_3(tmp_path, capsys, monkeypatch):
    def broken(C, B):
        raise AssertionError("subfield image has unexpected dimension")

    monkeypatch.setattr(cc, "expand_subfield", broken)
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "2")
    assert code == 3
    assert payload == {"error": "OracleDisagreement",
                       "message": "subfield image has unexpected dimension"}


def test_descend_bad_subfield(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "3")
    assert code == 2


@pytest.mark.parametrize("header, q", [("78125 2 1", "5"), ("65537 2 1", "65537")])
def test_descend_refuses_untabled_fields(tmp_path, capsys, header, q):
    # code fields above 2^16 are refused as every field is: at the file's header
    f = tmp_path / "code.txt"
    f.write_text(f"{header}\n1 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", q)
    assert code == 2
    assert payload["error"] == "FieldTooLarge"


@pytest.mark.parametrize("q", ["0", "1", "6"])
def test_descend_subfield_must_be_a_field_order(tmp_path, capsys, q):
    f = tmp_path / "code.txt"
    f.write_text("4 3 1\n1 0 2\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", q)
    assert code == 2
    assert payload["error"] == "NonPrimeCharacteristic"


# -- one oracle path -----------------------------------------------------------

# label -> (argv with "{in}" for the input file, file text, keys only the oracle writes)
ORACLE_REQUESTS = {
    "cyclic-euclidean": (("cyclic-check", "--q", "4", "--ell", "15", "--g", "1,2,2,2,1"),
                         None, {"hull_dim"}),
    # x + w over GF(4) at ell = 3 is closed under conjugated reversal, not plain reversal
    "cyclic-hermitian": (("cyclic-check", "--q", "4", "--ell", "3", "--g", "2,1",
                          "--form", "hermitian"), None, {"hull_dim"}),
    "qc-check": (("qc-check", "--in", "{in}"), DATA_DC_M5, {"hull_dim"}),
    "qc-constituents": (("qc-constituents", "--in", "{in}"), DATA_DC_M5,
                        {"expanded_dimension", "roundtrip"}),
    "qc-jensen": (("qc-jensen", "--in", "{in}"), DATA_DC_M5, {"min_distance"}),
    "extend-hermitian": (("extend-hermitian", "--in", "{in}"), "4 4 2\n1 0 1 2\n0 1 3 1\n",
                         {"gram_identity", "hull_dim"}),
    "descend": (("descend", "--in", "{in}", "--q", "2"), "4 3 1\n1 0 2\n",
                {"hull_dim_input", "hull_dim", "verdict"}),
}


def _oracle_request(tmp_path, label, *extra):
    argv, text, _ = ORACLE_REQUESTS[label]
    if text is not None:
        f = tmp_path / "input.txt"
        f.write_text(text)
        argv = tuple(str(f) if a == "{in}" else a for a in argv)
    return (*argv, *extra)


@pytest.mark.parametrize("label", list(ORACLE_REQUESTS))
def test_no_oracle_drops_only_the_oracle_keys(tmp_path, capsys, label):
    code, full = run_json(capsys, *_oracle_request(tmp_path, label))
    bare_code, bare = run_json(capsys, *_oracle_request(tmp_path, label, "--no-oracle"))
    assert code == bare_code == 0
    assert full.pop("oracle_agreement") is bare.pop("oracle_agreement") is True
    full.pop("time"), bare.pop("time")
    oracle_keys = ORACLE_REQUESTS[label][2]
    assert oracle_keys <= set(full)
    assert {k: v for k, v in full.items() if k not in oracle_keys} == bare


def _flip(f):
    return lambda *args: not f(*args)


# (request label, owner, attribute, the lie made from the true function)
LIES = [
    ("cyclic-euclidean", cy, "is_lcd_cyclic", _flip),
    ("cyclic-euclidean", cy, "is_reversible", _flip),
    ("cyclic-euclidean", cy, "is_lcd_by_factors", _flip),
    ("cyclic-hermitian", cy, "is_lcd_cyclic", _flip),
    ("cyclic-hermitian", cy, "is_conjugate_reversible", _flip),
    ("qc-check", qcmod, "is_qccd", lambda f: lambda C: (not f(C)[0], f(C)[1])),
    ("qc-check", cc, "dc_is_lcd", _flip),
    ("qc-constituents", qcmod.ConstituentSet, "fq_dimension", lambda f: lambda cs: f(cs) + 1),
    ("qc-constituents", qcmod, "from_constituents",
     lambda f: lambda cs: qcmod.QcCode.make(cs.profile.base, cs.profile.m, cs.ell, [])),
    ("qc-jensen", qcmod, "jensen_bound", lambda f: lambda C: C.expand().min_distance() + 1),
    ("extend-hermitian", cc, "hermitian_lcd_extend",
     lambda f: lambda Ct: lc.LinearCode.from_rows(Ct.field, 2, [[1, 1]])),  # self-orthogonal
    ("descend", cc, "expand_subfield",
     lambda f: lambda C, B: lc.LinearCode.from_rows(B.sub, 6, [[1, 1, 0, 0, 0, 0]])),
]


@pytest.mark.parametrize("label,owner,name,lie", LIES,
                         ids=[f"{label}-{name}" for label, _, name, _ in LIES])
def test_a_lying_criterion_exits_3_with_its_certificate(tmp_path, capsys, monkeypatch,
                                                       label, owner, name, lie):
    monkeypatch.setattr(owner, name, lie(getattr(owner, name)))
    code, payload = run_json(capsys, *_oracle_request(tmp_path, label))
    assert code == 3
    assert payload["command"] == ORACLE_REQUESTS[label][0][0]
    assert payload["oracle_agreement"] is False
    assert ORACLE_REQUESTS[label][2] <= set(payload)


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


def _fresh_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _fresh_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )


def test_closed_stdout_ends_without_a_traceback():
    # the reader closes the pipe after its first byte: the command exits
    # quietly (1 when its write failed, 0 when it had written all), and no
    # later flush at exit fails either
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-m", "qccd.cli", "factor", "--q", "2", "--m", "63"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) in (0, 1)
        assert err == ""


def _fresh_process(*argv):
    proc = _fresh_python("-m", "qccd.cli", *argv)
    return proc.returncode, json.loads(proc.stdout)


def test_import_loads_no_process_pool():
    # only dc_search with workers > 1 starts a pool, so a cold start skips its modules
    proc = _fresh_python("-c", "import sys, numpy, qccd, qccd.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qccd.construct" in loaded
    assert not {"concurrent.futures.process", "multiprocessing"} & loaded


def test_dc_search_loads_no_openssl():
    # random trials hash with the interpreter's own BLAKE2b; hashlib would
    # load OpenSSL's libcrypto through _hashlib
    code = (
        "import contextlib, io, sys\n"
        "from qccd import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['dc-search', '--q', '2', '--m', '11', '--seed', '7',"
        " '--trials', '200']) == 0\n"
        "    assert cli.main(['dc-search', '--q', '3', '--m', '4', '--exhaustive']) == 0\n"
        "print(*sys.modules)\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qccd.construct" in loaded
    assert "_hashlib" not in loaded


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


FIELD_ABOVE_CAP = [
    ("factor", "--q", "2", "--m", "19"),  # splits in GF(2^18)
    ("cyclic-check", "--q", "2", "--ell", "25", "--g", "1,1"),  # GF(2^20)
    ("qc-check", "2 19 1 1\n1,1,0,1\n"),
    ("extend-hermitian", "531441 2 1\n1 2\n"),  # a code over GF(3^12)
]


def _field_above_cap(tmp_path, capsys, argv):
    if len(argv) == 2:  # a command and the text of its input file
        f = tmp_path / "input.txt"
        f.write_text(argv[1])
        argv = (argv[0], "--in", str(f))
    return run_json(capsys, *argv)


@pytest.mark.parametrize("argv", FIELD_ABOVE_CAP)
def test_fields_above_cap_refused(tmp_path, capsys, argv):
    code, payload = _field_above_cap(tmp_path, capsys, argv)
    assert code == 2
    assert payload["error"] == "FieldTooLarge"


def test_fields_above_cap_refused_before_modulus_search(tmp_path, capsys, monkeypatch):
    import qccd.field as fd

    for p in (2, 3):  # the base fields are built before the patch
        fd.make_field(p, 1)

    def no_search(p, k):
        raise AssertionError(f"modulus search for GF({p}^{k})")

    monkeypatch.setattr(fd, "_smallest_irreducible", no_search)
    for argv in FIELD_ABOVE_CAP:
        code, payload = _field_above_cap(tmp_path, capsys, argv)
        assert (code, payload["error"]) == (2, "FieldTooLarge"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("cyclic-check", "--q", "2", "--ell", "0", "--g", "1"),
        ("cyclic-check", "--q", "2", "--ell", "-1", "--g", "1"),
        ("factor", "--q", "2", "--m", "0"),
        ("dc-search", "--q", "2", "--m", "-1", "--exhaustive"),
        ("dc-search", "--q", "2", "--m", "5", "--exhaustive", "--workers", "0"),
        ("table-repro", "--m-max", "5", "--workers", "-2"),
        ("dc-search", "--q", "3", "--m", "5", "--seed", "1", "--trials", "0"),
        ("dc-search", "--q", "3", "--m", "5", "--seed", "1", "--trials", "-5"),
    ],
)
def test_nonpositive_lengths_and_workers_rejected(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == "InvalidParameter"


def test_dc_search_trials_cap(capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("trials drawn past the cap")

    monkeypatch.setattr(cc, "_random_serials", no_draws)
    for trials in (cc.SEARCH_CAP + 1, 10**11):
        code, payload = run_json(
            capsys, "dc-search", "--q", "2", "--m", "9", "--seed", "1", "--trials", str(trials)
        )
        assert code == 2
        assert payload["error"] == "TooLargeToEnumerate"


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


# -- malformed input files ----------------------------------------------------

FIELD_ORDERS = [2, 3, 4, 5, 9]
BAD_ORDERS = ["0", "1", "-4", "6", "12", str(2**21)]
NOT_INTS = ["x", "1.5", "0x3", "--1"]


def _replace(draw, tokens, choices):
    i = draw(st.integers(0, len(tokens) - 1))
    tokens[i] = draw(st.sampled_from(choices))


@st.composite
def malformed_code(draw):
    """A "q n k" code file with exactly one fault."""
    q = draw(st.sampled_from(FIELD_ORDERS))
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    head = [str(q), str(n), str(k)]
    rows = [[str(draw(st.integers(0, q - 1))) for _ in range(n)] for _ in range(k)]
    faults = ["empty", "order", "length", "head_tokens", "head_int", "row_count"]
    if k:
        faults += ["row_length", "entry_range", "entry_int"]
    fault = draw(st.sampled_from(faults))
    if fault == "empty":
        return draw(st.sampled_from(["", "\n", "  \n \n"]))
    if fault == "order":
        head[0] = draw(st.sampled_from(BAD_ORDERS))
    elif fault == "length":
        head[1] = str(draw(st.integers(-3, 0)))
    elif fault == "head_tokens":
        head = draw(st.sampled_from([head[:2], head + ["1"], head[:1]]))
    elif fault == "head_int":
        _replace(draw, head, NOT_INTS)
    elif fault == "row_count":
        head[2] = str(draw(st.sampled_from([k + 1, k + 2, k - 1, -1])))
    elif fault == "row_length":
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif fault == "entry_range":
        _replace(draw, draw(st.sampled_from(rows)), [str(q), str(q + 5), "-1"])
    else:
        _replace(draw, draw(st.sampled_from(rows)), NOT_INTS + ["1,0"])
    return "\n".join([" ".join(head)] + [" ".join(r) for r in rows]) + "\n"


@st.composite
def malformed_qc(draw):
    """A "q m ell r" quasi-cyclic code file with exactly one fault."""
    q = draw(st.sampled_from(FIELD_ORDERS))
    m, ell, r = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    head = [str(q), str(m), str(ell), str(r)]
    gens = [
        [[str(draw(st.integers(0, q - 1))) for _ in range(draw(st.integers(1, m)))]
         for _ in range(ell)]
        for _ in range(r)
    ]
    faults = ["empty", "order", "length", "head_tokens", "head_int", "gen_count"]
    if r:
        faults += ["block_count", "coeff_range", "coeff_int", "degree"]
    fault = draw(st.sampled_from(faults))
    if fault == "empty":
        return draw(st.sampled_from(["", "\n", "  \n \n"]))
    if fault == "order":
        head[0] = draw(st.sampled_from(BAD_ORDERS))
    elif fault == "length":
        head[draw(st.sampled_from([1, 2]))] = str(draw(st.integers(-3, 0)))
    elif fault == "head_tokens":
        head = draw(st.sampled_from([head[:3], head + ["1"], head[:1]]))
    elif fault == "head_int":
        _replace(draw, head, NOT_INTS)
    elif fault == "gen_count":
        head[3] = str(draw(st.sampled_from([r + 1, r + 2, r - 1, -1])))
    elif fault == "block_count":
        gen = draw(st.sampled_from(gens))
        if draw(st.booleans()):
            gen.append(["0"])
        else:
            gen.pop()
    elif fault == "degree":
        draw(st.sampled_from(draw(st.sampled_from(gens)))).extend(["0"] * m + ["1"])
    else:
        block = draw(st.sampled_from(draw(st.sampled_from(gens))))
        bad = [str(q), str(q + 5), "-1"] if fault == "coeff_range" else NOT_INTS + ["", " "]
        _replace(draw, block, bad)
    lines = ["|".join(",".join(block) for block in gen) for gen in gens]
    return "\n".join([" ".join(head)] + lines) + "\n"


def _run_on_text(tmpdir, text, command, *flags):
    path = os.path.join(tmpdir, "input")
    with open(path, "w") as fh:
        fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--in", path, *flags])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=malformed_qc())
def test_malformed_qc_file_is_an_input_error(text):
    with tempfile.TemporaryDirectory() as tmpdir:
        code, out, err = _run_on_text(tmpdir, text, "qc-check")
    assert (code, err) == (2, ""), (text, out)
    assert set(json.loads(out)) == {"error", "message"}


@settings(max_examples=150, deadline=None)
@given(text=malformed_code(), command=st.sampled_from(["extend-hermitian", "descend"]))
def test_malformed_code_file_is_an_input_error(text, command):
    flags = ["--q", "2"] if command == "descend" else []
    with tempfile.TemporaryDirectory() as tmpdir:
        code, out, err = _run_on_text(tmpdir, text, command, *flags)
    assert (code, err) == (2, ""), (text, out)
    assert set(json.loads(out)) == {"error", "message"}


# -- length cap ----------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("cyclic-check", "--q", "2", "--ell", "200000", "--g", "1"),
        ("cyclic-check", "--q", "2", "--ell", "511", "--g", "1,1"),
        ("factor", "--q", "2", "--m", "1048575"),
        ("dc-search", "--q", "2", "--m", "65", "--seed", "1", "--trials", "1"),
    ],
)
def test_lengths_above_cap_rejected(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == "InvalidParameter"
    assert f"at most {MAX_LENGTH}" in payload["message"]


@pytest.mark.parametrize(
    "command,text",
    [
        ("qc-check", "2 1048575 2 0\n"),
        ("qc-constituents", "2 33 2 0\n"),
        ("qc-jensen", "3 1 65 0\n"),
        ("extend-hermitian", "4 50000000 0\n"),
        ("descend", "4 65 0\n"),
    ],
)
def test_file_lengths_above_cap_rejected(tmp_path, capsys, command, text):
    f = tmp_path / "long.txt"
    f.write_text(text)
    argv = ["--q", "2"] if command == "descend" else []
    code, payload = run_json(capsys, command, "--in", str(f), *argv)
    assert code == 2
    assert payload["error"] == "ParseError"


def test_descended_length_capped(tmp_path, capsys):
    # [40, 0] over GF(4) is within the cap; descended to GF(2) it has length 80
    f = tmp_path / "wide.code"
    f.write_text("4 40 0\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "2")
    assert code == 2
    assert payload["error"] == "InvalidParameter"
    f.write_text("4 32 0\n")
    code, payload = run_json(capsys, "descend", "--in", str(f), "--q", "2")
    assert code == 0 and payload["params"]["n"] == 64
