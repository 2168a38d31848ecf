#!/usr/bin/env python3
"""Time the elimination kernels of the double-circulant search.

Each shape is a stack of B seeded generators G = [I_m | circ(a)] over
GF(q), k = m rows and n = 2m columns, reduced inside the right half as the
Brouwer-Zimmermann engine takes its second information set:
``lincode._reduce_stack`` on the whole stack, ``lincode._reduce_gf2_stack``
on bit masks (q = 2 only), and the list ``rref`` on each matrix alone with
the right half first.  Prints one JSON line: the median wall time in
microseconds of --runs calls per kernel and shape, with nproc and the
Python and numpy versions.
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

from qccd import make_field
from qccd.lincode import _reduce_gf2_stack, _reduce_stack, rref

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}
MS = (5, 7, 8)
BATCHES = (1, 16, 128)


def dc_stack(rng: random.Random, q: int, m: int, batch: int) -> np.ndarray:
    """(batch, m, 2m) generators [I | circ(a)], a uniform over GF(q)^m."""
    i, j = np.ogrid[:m, :m]
    a = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(batch)])
    return np.concatenate([np.broadcast_to(i == j, (batch, m, m)), a[:, (j - i) % m]], axis=2)


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
