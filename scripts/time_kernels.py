#!/usr/bin/env python3
"""Time the elimination kernels of the double-circulant search and the
two directions of the quasi-cyclic CRT.

Each DC shape is a stack of B seeded generators G = [I_m | circ(a)] over
GF(q), k = m rows and n = 2m columns, reduced inside the right half as the
Brouwer-Zimmermann engine takes its second information set:
``lincode._reduce_stack`` on the whole stack, ``lincode._reduce_gf2_stack``
on bit masks (q = 2 only), and the list ``rref`` on each matrix alone with
the right half first.  Each QC shape is a list of QC_CODES seeded
systematic codes of ``bench``'s certify shapes (ell = 3, r generators,
dimension r*m), plus GF(2) at m = 21: ``QcCode.expand`` on each, and
``qc.from_constituents`` on each one's constituents, which are taken
outside the timed call; the caches are warm after the first run.  Prints
one JSON line: the median wall time in microseconds of --runs calls per
kernel and shape, with nproc and the Python and numpy versions.
"""
import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

import numpy as np

from qccd import QcCode, constituents, from_constituents, make_field
from qccd.lincode import _reduce_gf2_stack, _reduce_stack, rref
from qccd.polyring import Poly

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}
MS = (5, 7, 8)
BATCHES = (1, 16, 128)
QC_SHAPES = [(q, m) for q in FIELDS for m in (3, 5, 7) if m % FIELDS[q][0]] + [(2, 21)]
QC_CODES = 8


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


def median_us(call, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e6 * statistics.median(times), 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    times = {}
    for q, (p, k) in FIELDS.items():
        field = make_field(p, k)
        for m in MS:
            right, order = range(m, 2 * m), [*range(m, 2 * m), *range(m)]
            for batch in BATCHES:
                stack = dc_stack(rng, q, m, batch)
                shape = f"q{q}/m{m}/B{batch}"
                times[f"reduce_stack/{shape}"] = median_us(
                    lambda: _reduce_stack(field, stack, right), args.runs)
                if q == 2:
                    masks = stack @ (1 << np.arange(2 * m))
                    times[f"reduce_gf2_stack/{shape}"] = median_us(
                        lambda: _reduce_gf2_stack(masks, (1 << 2 * m) - (1 << m)), args.runs)
                lists = stack[:, :, order].tolist()
                times[f"rref/{shape}"] = median_us(
                    lambda: [rref(field, rows) for rows in lists], args.runs)
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
    print(json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "runs": args.runs,
        "median_us": times,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
