#!/usr/bin/env python3
"""qccd benchmark runner.

    python3 bench/run.py --workload {dc_gf2,dc_odd,certify} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Builds the workload's inputs from the
seed, then runs repetitions of it, each in a fresh process (bench/rep.py),
until S seconds have passed.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced repetitions and
prints the per-layer metrics.  Every output is checked outside the timed
region.  The last line of standard output is the JSON result; the line
before it is the run context.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "candidates_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {f"field.{op}_ns.{f}": "ns" for op in ("add", "mul", "inv")
             for f in tracing.PROBE_FIELDS}
    for name in tracing.TARGETS:
        units[f"{name}.self_s"] = "s"
    for name in ("field.make_field", "lincode.enum", "lincode.min_distance", "lincode.rref",
                 "polyring.gcd", "polyring.factor", "qc.expand", "construct.dc_search",
                 "construct.dc_is_lcd"):
        units[f"{name}.calls"] = "count"
    units["lincode.enum.codewords"] = "count"
    units["lincode.min_distance.refused"] = "count"
    units["lincode.rref.cells"] = "count"
    units["polyring.factor.cache_hit_ratio"] = "ratio"
    units["qc.cache_hit_ratio"] = "ratio"
    units["construct.dc.lcd_frac"] = "ratio"
    for mod in tracing.MODULES:
        units[f"share.{mod}"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


SETUP_SAMPLES = 8  # extra set-up-only processes per run
PROBE_SAMPLES = 3  # field-probe processes per traced run
CHILD_TIMEOUT_S = 150


def run_child(spec: dict, workdir: str, tag: str):
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    out_path = os.path.join(workdir, f"{tag}.out.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), spec_path, out_path],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"{tag}: timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(out_path) as fh:
        return json.load(fh), None


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------

def check_dc(argv, cert, memo) -> str | None:
    """Re-check a dc-search certificate: candidate count, the reference
    table, and the best code against the brute-force oracles."""
    from qccd import construct, field_from_order
    from qccd.cli import DC_TABLE_REFERENCE
    from qccd.polyring import Poly

    opts = dict(zip(argv[1::2], argv[2::2]))
    q, m = int(opts["--q"]), int(opts["--m"])
    exhaustive = "--exhaustive" in argv
    expected = q**m if exhaustive else int(opts["--trials"])
    if cert["candidates"] != expected or not 0 < cert["lcd_count"] <= expected:
        return f"candidates {cert['candidates']} / lcd_count {cert['lcd_count']}"
    best = cert["best"]
    if exhaustive and q == 2 and m in DC_TABLE_REFERENCE and best["d"] != DC_TABLE_REFERENCE[m]:
        return f"m={m}: d={best['d']}, reference {DC_TABLE_REFERENCE[m]}"
    coeffs = [int(c) for c in best["a"].split(",")]
    if sum(c * q**i for i, c in enumerate(coeffs)) != best["serial"]:
        return "best.a does not match best.serial"
    key = (q, m, best["a"])
    if key not in memo:
        base = field_from_order(q)
        a = Poly(base, coeffs)
        lin = construct.double_circulant(base, m, a).expand()
        criterion = construct.dc_is_lcd(base, m, a)
        if criterion != (lin.hull_dim("euclidean") == 0) or not criterion:
            memo[key] = f"best code: gcd criterion {criterion}, hull {lin.hull_dim()}"
        elif lin.min_distance() != best["d"]:
            memo[key] = f"best code: d={best['d']}, min_distance {lin.min_distance()}"
        else:
            memo[key] = None
    return memo[key]


def check_certificate(argv, cert, memo) -> str | None:
    if cert.get("oracle_agreement") is not True:
        return "oracle_agreement is not true"
    if argv[0] == "dc-search":
        return check_dc(argv, cert, memo)
    if argv[0] in ("qc-check", "qc-constituents"):
        with open(argv[2]) as fh:
            _, m, _, r = (int(x) for x in fh.readline().split())
        k = cert["params"]["k"] if argv[0] == "qc-check" else cert["fq_dimension"]
        if k != r * m:
            return f"dimension {k}, generators are systematic of rank {r * m}"
    return None


def request_failures(requests, reps) -> tuple[list[str], int, int]:
    """Compare every repetition with the first and check the first; returns
    (messages, attempted, failed)."""
    messages, attempted, failed = [], 0, 0
    reference = next((r["requests"] for _, r in reps if r is not None), None)
    bad = {}
    memo = {}
    for j, argv in enumerate(requests):
        ref = reference[j] if reference else None
        if ref is None or ref["error"] or ref["rc"] != 0:
            bad[j] = f"rc={ref and ref['rc']} error={ref and ref['error']}"
        else:
            problem = check_certificate(argv, ref["cert"], memo)
            if problem:
                bad[j] = problem
    for _, result in reps:
        attempted += len(requests)
        for j in range(len(requests)):
            got = result["requests"][j] if result else None
            why = bad.get(j)
            if why is None and (got is None or got["cert"] != reference[j]["cert"]):
                why = "certificate differs between repetitions"
            if why:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"request {j} {' '.join(requests[j])}: {why}")
    return messages, attempted, failed


def digest(reps) -> str | None:
    first = next((r for _, r in reps if r is not None), None)
    if first is None:
        return None
    certs = [req["cert"] for req in first["requests"]]
    return hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(plain, setup_samples) -> dict:
    rates, cands, p50, p95, rss = [], [], [], [], []
    for r in plain:
        lat_ms = [req["s"] * 1000 for req in r["requests"]]
        n_cand = sum((req["cert"] or {}).get("candidates", 1) for req in r["requests"])
        rates.append(len(lat_ms) / r["wall_s"])
        cands.append(n_cand / r["wall_s"])
        p50.append(statistics.median(lat_ms))
        p95.append(statistics.quantiles(lat_ms, n=20)[18] if len(lat_ms) > 1 else lat_ms[0])
        rss.append(r["peak_rss_mb"])
    values = {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": statistics.median(rates),
        "candidates_per_s": statistics.median(cands),
        "request_p50_ms": statistics.median(p50),
        "request_p95_ms": statistics.median(p95),
        "peak_rss_mb": statistics.median(rss),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain, traced, probes) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions; counts must repeat
    exactly across them."""
    units = per_layer_units()
    first = traced[0]["trace"]
    problems = []
    for t in traced[1:]:
        t = t["trace"]
        if ({k: v["calls"] for k, v in t["spans"].items()}
                != {k: v["calls"] for k, v in first["spans"].items()}
                or t["counters"] != first["counters"] or t["caches"] != first["caches"]):
            problems.append("per-layer counts differ between traced repetitions")
    values = {}
    for key, vals in probes.items():
        values[key] = statistics.median(vals)
    for name, agg in first["spans"].items():
        values[f"{name}.self_s"] = statistics.median(t["trace"]["spans"][name]["self_s"]
                                                     for t in traced)
        if f"{name}.calls" in units:
            values[f"{name}.calls"] = agg["calls"]
    counters = first["counters"]
    for key in ("lincode.enum.codewords", "lincode.min_distance.refused", "lincode.rref.cells"):
        values[key] = counters[key]
    values["construct.dc.lcd_frac"] = _ratio(counters["construct.dc.lcd_count"],
                                             counters["construct.dc.candidates"])
    caches = first["caches"]
    factor = caches["polyring.factor"]
    values["polyring.factor.cache_hit_ratio"] = _ratio(factor["hits"],
                                                       factor["hits"] + factor["misses"])
    qc_hits = sum(v["hits"] for k, v in caches.items() if k.startswith("qc."))
    qc_all = qc_hits + sum(v["misses"] for k, v in caches.items() if k.startswith("qc."))
    values["qc.cache_hit_ratio"] = _ratio(qc_hits, qc_all)
    for mod in tracing.MODULES:
        values[f"share.{mod}"] = statistics.median(t["trace"]["shares"][mod] for t in traced)
    values["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                     / statistics.median(r["wall_s"] for r in plain) - 1)
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, problems


# ---------------------------------------------------------------------------

def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="about a tenth of each workload, for the runner's own test")
    args = ap.parse_args(argv)
    # on SIGTERM, exit through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "qccd", "__init__.py")):
        print(f"no qccd sources under {ROOT}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    requests = workloads.generate(args.workload, args.seed, args.smoke, workdir)
    fields = workloads.BASE_FIELDS[args.workload]

    errors = []
    reps = []  # (traced, result or None)
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        spec = {"mode": "rep", "fields": fields, "requests": requests, "trace": traced,
                "spans_path": os.path.join(workdir, f"spans{i}.jsonl")}
        t0 = time.perf_counter()
        result, err = run_child(spec, workdir, f"rep{i}")
        if err:
            errors.append(err)
        reps.append((traced, result))
        i += 1
        now = time.perf_counter()
        # stop when another repetition would end past --seconds, once the
        # run has at least one repetition of each kind it reports on
        need_traced = args.trace and not any(t for t, _ in reps)
        if now + (now - t0) - start > args.seconds and not need_traced:
            break

    setup_samples = [r["setup_s"] for _, r in reps if r is not None]
    for j in range(SETUP_SAMPLES):
        result, err = run_child({"mode": "setup", "fields": fields}, workdir, f"setup{j}")
        if err:
            errors.append(err)
        else:
            setup_samples.append(result["setup_s"])
    probes = {}
    if args.trace:
        for j in range(PROBE_SAMPLES):
            spec = {"mode": "probe", "fields": fields, "seed": args.seed}
            result, err = run_child(spec, workdir, f"probe{j}")
            if err:
                errors.append(err)
                continue
            for key, v in result["probe"].items():
                probes.setdefault(key, []).append(v)

    messages, attempted, failed = request_failures(requests, reps)
    errors += messages
    plain = [r for t, r in reps if r is not None and not t]
    traced_reps = [r for t, r in reps if r is not None and t]
    metrics = {}
    if args.trace and plain and traced_reps and len(probes) == len(tracing.PROBE_FIELDS) * 3:
        metrics, problems = per_layer(plain, traced_reps, probes)
        errors += problems
    elif not args.trace and plain and setup_samples:
        metrics = end_to_end(plain, setup_samples)
    else:
        errors.append("not enough successful repetitions to report metrics")

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "fresh_process_per_repetition": True,
        "repetitions": len(reps), "traced_repetitions": len(traced_reps),
        "requests_per_repetition": len(requests),
        "latency_samples": sum(len(r["requests"]) for r in plain),
        "setup_samples": len(setup_samples),
        "certificate_sha256": digest(reps),
        "errors": errors,
    }
    print(json.dumps({"context": context}))
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
