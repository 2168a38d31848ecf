import importlib.util
import json
import os

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
    rows = [line.split()[:2] for line in out.splitlines()[1:]]
    assert rows == [["3", "1"], ["5", "3"], ["7", "4"], ["9", "3"]]


def test_time_kernels_smoke(capsys):
    timer = load_script("time_kernels")
    assert timer.main(["--runs", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert {"nproc", "python", "numpy"} <= result.keys()
    times = result["median_us"]
    # every DC shape, mask kernel on GF(2) only; two QC kernels on 11 (q, m) shapes, r = 1, 2
    assert len(times) == 4 * 3 * 3 * 2 + 3 * 3 + 2 * 11 * 2
    assert all(t > 0 for t in times.values())
