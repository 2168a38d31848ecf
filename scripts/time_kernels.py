#!/usr/bin/env python3
"""Time the kernels of the double-circulant search and the two directions
of the quasi-cyclic CRT.

Each DC shape is a stack of B seeded generators G = [I_m | circ(a)] over
GF(q), k = m rows and n = 2m columns, reduced inside the right half as the
Brouwer-Zimmermann engine takes its second information set:
``lincode._reduce_stack`` on the whole stack with the right half's mask,
``lincode._reduce_planes_stack`` on planes (q = 2, 3, 4: one plane over
GF(2), two over GF(3) and GF(4)), and the list ``rref`` on each matrix
alone with the right half first; the whole engine,
``lincode.bz_min_distance`` on the stack with pivots 0..m-1, B = 1
included, so the cost of a stack of one stays in view; and the LCD screen
``construct._dc_screen`` on the stack's coefficient rows a, on the shapes
with m prime to q (m = 8 is skipped over GF(2) and GF(4)).  Each QC shape
is a list of QC_CODES seeded systematic codes of ``bench``'s certify
shapes (ell = 3, r generators, dimension r*m), plus GF(2) at m = 21:
``QcCode.expand`` on each, and ``qc.from_constituents`` on each one's
constituents, which are taken outside the timed call; the caches are warm
after the first run.  The ``import`` entry times ``import qccd, qccd.cli``
in --runs fresh interpreters that have imported numpy first, as the
benchmark's set-up does; each also reads its VmRSS from /proc/self/status
(Linux) before and after that import, and whether OpenSSL's ``_hashlib``
got loaded.  The ``field`` entries time the cold construction of GF(2^11),
GF(2^16), GF(3^10), GF(251^2) and GF(65521), modulus search and tables,
as ``FiniteField(p, k, _smallest_irreducible(p, k))``, past ``make_field``'s
cache.  The ``enum`` entries time ``lincode.weight_distribution`` on seeded
rows of a binary [60,20] code (one plane), a binary [70,16] code (raw
codes, past the 64-bit mask), a ternary [24,12] and a GF(9) [12,6] code,
and take the tracemalloc peak of one more call each.  Prints one JSON
line: the median wall time in microseconds of --runs calls per kernel and
shape, the enumeration peaks in kB, the import's footprint, nproc and the
Python and numpy versions.
"""
import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import qccd
from qccd import QcCode, constituents, from_constituents, make_field
from qccd.construct import _dc_screen
from qccd.field import FiniteField, _smallest_irreducible
from qccd.lincode import (_reduce_planes_stack, _reduce_stack, _words, bz_min_distance, rref,
                          weight_distribution)
from qccd.polyring import Poly

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}
MS = (5, 7, 8)
BATCHES = (1, 16, 128)
QC_SHAPES = [(q, m) for q in FIELDS for m in (3, 5, 7) if m % FIELDS[q][0]] + [(2, 21)]
QC_CODES = 8
COLD_FIELDS = [(2, 11), (2, 16), (3, 10), (251, 2), (65521, 1)]
ENUM_SHAPES = [(2, 60, 20), (2, 70, 16), (3, 24, 12), (9, 12, 6)]  # (q, n, k)


def dc_stack(rng: random.Random, q: int, m: int, batch: int) -> np.ndarray:
    """(batch, m, 2m) generators [I | circ(a)], a uniform over GF(q)^m."""
    i, j = np.ogrid[:m, :m]
    a = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(batch)])
    return np.concatenate([np.broadcast_to(i == j, (batch, m, m)), a[:, (j - i) % m]], axis=2)


def systematic_qc(rng: random.Random, field, m: int, ell: int, r: int) -> QcCode:
    """Generator i is 1 in block pos[i], 0 in the other blocks of pos and
    uniform elsewhere, so the code has dimension r*m."""
    pos = rng.sample(range(ell), r)
    gens = [[Poly(field, [int(j == pos[i])] if j in pos else
                  [rng.randrange(field.order) for _ in range(m)]) for j in range(ell)]
            for i in range(r)]
    return QcCode.make(field, m, ell, gens)


COLD_IMPORT = """
import json, sys, time, numpy

def rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

before = rss_kb()
t = time.perf_counter()
import qccd, qccd.cli
s = time.perf_counter() - t
print(json.dumps([s, before, rss_kb(), "_hashlib" in sys.modules]))
"""


def cold_import(runs: int) -> tuple[float, dict]:
    """Importing qccd in a fresh interpreter: the median wall time in
    microseconds, and the median VmRSS in kB before and after the import
    with whether any run loaded OpenSSL (``_hashlib``)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qccd.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    results = [json.loads(subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                                         check=True, capture_output=True, text=True,
                                         timeout=120).stdout)
               for _ in range(runs)]
    s, before, after, openssl = zip(*results)
    return round(1e6 * statistics.median(s), 1), {
        "rss_before_kb": statistics.median(before),
        "rss_after_kb": statistics.median(after),
        "openssl": any(openssl),
    }


def median_us(call, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e6 * statistics.median(times), 1)


def peak_kb(call) -> int:
    """The tracemalloc peak of one call, in kB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    import_us, footprint = cold_import(args.runs)
    times = {"import": import_us}
    for p, k in COLD_FIELDS:
        times[f"field/{p}^{k}"] = median_us(
            lambda: FiniteField(p, k, _smallest_irreducible(p, k)), args.runs)
    for q, (p, k) in FIELDS.items():
        field = make_field(p, k)
        for m in MS:
            right, order = np.arange(2 * m) >= m, [*range(m, 2 * m), *range(m)]
            for batch in BATCHES:
                stack = dc_stack(rng, q, m, batch)
                shape = f"q{q}/m{m}/B{batch}"
                times[f"reduce_stack/{shape}"] = median_us(
                    lambda: _reduce_stack(field, stack, right), args.runs)
                if q in (2, 3, 4):
                    planes = _words(field, stack)[0]
                    times[f"reduce_planes_stack/{shape}"] = median_us(
                        lambda: _reduce_planes_stack(field, planes, (1 << 2 * m) - (1 << m)), args.runs)
                times[f"bz/{shape}"] = median_us(
                    lambda: bz_min_distance(field, stack, range(m)), args.runs)
                lists = stack[:, :, order].tolist()
                times[f"rref/{shape}"] = median_us(
                    lambda: [rref(field, rows) for rows in lists], args.runs)
                if m % p:
                    times[f"dc_screen/{shape}"] = median_us(
                        lambda: _dc_screen(field, m, stack[:, 0, m:]), args.runs)
    for q, m in QC_SHAPES:
        field = make_field(*FIELDS[q])
        for r in (1, 2):
            codes = [systematic_qc(rng, field, m, 3, r) for _ in range(QC_CODES)]
            parts = [constituents(C) for C in codes]
            shape = f"q{q}/m{m}/r{r}"
            times[f"qc_expand/{shape}"] = median_us(
                lambda: [C.expand() for C in codes], args.runs)
            times[f"from_constituents/{shape}"] = median_us(
                lambda: [from_constituents(cs) for cs in parts], args.runs)
    peaks = {}
    for q, n, k in ENUM_SHAPES:
        field = make_field(*FIELDS[q])
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        shape = f"enum/q{q}/n{n}/k{k}"
        times[shape] = median_us(lambda: weight_distribution(field, rows, n), args.runs)
        peaks[shape] = peak_kb(lambda: weight_distribution(field, rows, n))
    print(json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "runs": args.runs,
        "import": footprint,
        "enum_peak_kb": peaks,
        "median_us": times,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
