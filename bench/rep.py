"""One repetition of a workload, in a fresh process.

    python3 bench/rep.py SPEC_JSON OUT_JSON

The spec names the mode ("rep", "setup" or "probe"), the base fields to
build and, for "rep", the request list and whether to trace.  The process
imports qccd from ``src/`` of the checkout it runs in, so caches and field
tables start cold every time.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(fields):
    """Import qccd and build the base fields with their tables; seconds.
    numpy is imported before the clock starts: its import is most of a
    cold start, no change to qccd can move it, and its speed varies with
    the machine's file cache."""
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qccd
    import qccd.cli  # noqa: F401  (the request entry point)

    for p, k in fields:
        qccd.make_field(p, k).mul_raw(1, 1)
    return time.perf_counter() - t0


def run_requests(requests):
    """Send each argv to qccd.cli.main in order; per request: seconds,
    exit code, certificate (minus "time") or error."""
    from qccd import cli

    out = []
    for argv in requests:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            error = None
        except Exception as e:  # a traceback is a failed request, not a crash
            rc, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        cert = None
        if error is None:
            try:
                cert = json.loads(buf.getvalue())
                cert.pop("time", None)
            except ValueError:
                error = "output is not one JSON object"
        out.append({"s": dt, "rc": rc, "cert": cert, "error": error})
    return out


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"setup_s": setup(spec["fields"])}
    if spec["mode"] == "probe":
        from tracing import field_probe

        result["probe"] = field_probe(spec["seed"])
    elif spec["mode"] == "rep":
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        result["requests"] = run_requests(spec["requests"])
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary(result["wall_s"])
            tracer.dump(spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
