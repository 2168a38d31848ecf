#!/usr/bin/env python3
"""Record the benchmark of this checkout, and optionally of a parent
checkout, in one JSON file.

    python3 scripts/bench_record.py --out BENCH_26.json --parent ../parent \\
        --seeds 1,2,1,2 --seconds 30

For each seed in turn, and each workload of ``bench/workloads.py`` within
it, runs ``bench/run.py --workload W --seed N --seconds S --trace 0`` in
this checkout and, with --parent, the same command in the parent checkout
(which must hold its own ``bench/`` and ``src/``), alternating which side
runs first.  A seed may repeat: each entry of --seeds is one run, so
``--seeds 1,1,1`` is three runs at seed 1.  --smoke passes ``--smoke`` on
to the runner, for the script's own test.

The file holds a context block (nproc, the Python and numpy versions, each
side's git commit, marked ``+modified`` when tracked files differ from it,
the seeds, --seconds) and, for each side and workload,
the ``certificate_sha256`` of each seed, and each end-to-end metric's
median, min and max over the runs with its per-run values in run order.
With --parent, ``change_wins`` counts, per workload and metric, the runs
where this checkout beat the parent run paired with it (the direction from
``BENCHMARK.json``).  Exits 1 when a run failed a request, was not
``correct``, gave two digests at one seed, or when the two sides' digests
differ at a seed; the file is written either way.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def run_bench(root: str, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """(context, result) of one ``bench/run.py`` run in the checkout at root."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv + ["--smoke"] * smoke, cwd=root, capture_output=True, text=True,
                          timeout=600 + 4 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {}, {"correct": False, "failed": None, "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def git_commit(root: str) -> str:
    """HEAD of the checkout at root, marked when tracked files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, timeout=60)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return "unknown" if head is None else head + ("+modified" if git("status", "--porcelain", "-uno") else "")


def summarise(runs: list[tuple[int, dict, dict]]) -> tuple[dict, list[str]]:
    """One side's record of one workload, and its problems."""
    digests, problems, values, units = {}, [], {}, {}
    for seed, context, result in runs:
        if result.get("failed") != 0 or not result.get("correct"):
            problems.append(f"seed {seed}: failed {result.get('failed')}, correct {result.get('correct')}"
                            + (f", {result['error']}" if result.get("error") else ""))
        digest = context.get("certificate_sha256")
        if digests.setdefault(str(seed), digest) != digest:
            problems.append(f"seed {seed}: digests {digests[str(seed)]} and {digest}")
        for name, metric in result.get("metrics", {}).items():
            units[name] = metric["unit"]
            values.setdefault(name, []).append(metric["value"])
    metrics = {name: {"median": statistics.median(vs), "min": min(vs), "max": max(vs), "runs": vs,
                      "unit": units[name]} for name, vs in values.items()}
    return {"certificate_sha256": digests, "metrics": metrics}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", help="root of the parent checkout, run alternately with this one")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated, one run each")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"change": ROOT} | ({"parent": os.path.abspath(args.parent)} if args.parent else {})

    runs = {side: {w: [] for w in workloads.WORKLOADS} for side in sides}
    commits = {side: git_commit(root) for side, root in sides.items()}
    for i, seed in enumerate(seeds):
        for j, workload in enumerate(workloads.WORKLOADS):
            order = list(sides.items())
            if (i + j) % 2:
                order.reverse()
            for side, root in order:
                context, result = run_bench(root, workload, seed, args.seconds, args.smoke)
                runs[side][workload].append((seed, context, result))
                shown = {name: round(m["value"], 4) for name, m in result.get("metrics", {}).items()}
                print(f"{side} {workload} seed {seed}: {shown}", file=sys.stderr, flush=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    record, problems = {}, []
    for side in sides:
        record[side] = {}
        for workload, side_runs in runs[side].items():
            record[side][workload], found = summarise(side_runs)
            problems += [f"{side} {workload} {p}" for p in found]
    if args.parent:
        record["change_wins"] = {}
        for workload in workloads.WORKLOADS:
            change, parent = record["change"][workload], record["parent"][workload]
            for seed, digest in change["certificate_sha256"].items():
                if parent["certificate_sha256"].get(seed) != digest:
                    problems.append(f"{workload} seed {seed}: the change's digest {digest} differs"
                                    f" from the parent's {parent['certificate_sha256'].get(seed)}")
            record["change_wins"][workload] = {
                name: sum((c < p) == (better.get(name) == "lower") and c != p
                          for c, p in zip(stats["runs"], parent["metrics"][name]["runs"]))
                for name, stats in change["metrics"].items() if name in parent["metrics"]}
    record["context"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "git_commits": commits, "seeds": seeds, "seconds": args.seconds, "smoke": args.smoke,
        "problems": problems,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
