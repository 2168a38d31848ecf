"""Smoke test of the benchmark runner: every workload, untraced and traced,
at a tenth of its size, plus the refusal to run without the sources."""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, json.loads(context)["context"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metrics_match_runner():
    end_to_end, per_layer = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.generate("certify", 5, True, str(tmp_path / "a"))
    b = workloads.generate("certify", 5, True, str(tmp_path / "b"))
    strip = [[x for x in argv if not x.endswith(".txt")] for argv in a]
    assert strip == [[x for x in argv if not x.endswith(".txt")] for argv in b]
    for fa, fb in zip(sorted(os.listdir(tmp_path / "a")), sorted(os.listdir(tmp_path / "b"))):
        assert (tmp_path / "a" / fa).read_text() == (tmp_path / "b" / fb).read_text()


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, "--workload", "dc_gf2", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
