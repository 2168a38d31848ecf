#!/usr/bin/env python3
"""Reproduce the best-distance table for binary LCD double circulant codes.

Runs the exhaustive search for each odd m up to --m-max and prints the
distances next to the reference row, flagging any mismatch.
"""
import argparse
import sys
import time

from qccd import dc_search, make_field
from qccd.cli import DC_TABLE_REFERENCE


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=13)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    base = make_field(2, 1)
    ok = True
    print(f"{'m':>4} {'d':>4} {'ref':>4} {'#LCD':>6} {'sec':>7}   best a")
    for m in range(3, args.m_max + 1, 2):
        t0 = time.time()
        r = dc_search(base, m, workers=args.workers)
        ref = DC_TABLE_REFERENCE.get(m)
        flag = "" if ref is None or r.best_distance == ref else "   <-- MISMATCH"
        ok &= ref is None or r.best_distance == ref
        a_str = ",".join(str(c) for c in r.best_a)
        print(
            f"{m:>4} {r.best_distance:>4} {ref if ref is not None else '-':>4}"
            f" {r.lcd_count:>6} {time.time() - t0:>7.2f}   {a_str}{flag}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
