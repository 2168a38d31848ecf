import importlib.util
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
