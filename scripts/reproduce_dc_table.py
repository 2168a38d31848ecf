#!/usr/bin/env python3
"""Reproduce the best-distance table for binary LCD double circulant codes.

Runs the exhaustive search for each odd m up to --m-max and prints the
distances next to the reference row, with the relative distance d/2m
against the binary Gilbert-Varshamov distance and the fraction of a in
GF(2)^m that give an LCD code, dc_lcd_count(2, m) / 2^m.  A distance that
differs from the reference, or an LCD count that differs from
dc_lcd_count, is flagged and the exit status is 1.
"""
import argparse
import math
import sys
import time

from qccd import dc_search, make_field
from qccd.cli import DC_TABLE_REFERENCE
from qccd.construct import dc_lcd_count


def gv_delta() -> float:
    """The root of H_2(delta) = 1/2 on (0, 1/2), by bisection: the relative
    distance the Gilbert-Varshamov bound reaches at rate 1/2."""
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        h = -mid * math.log2(mid) - (1 - mid) * math.log2(1 - mid)
        lo, hi = (mid, hi) if h < 0.5 else (lo, mid)
    return lo


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=13)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    base = make_field(2, 1)
    ok = True
    print(f"delta_GV = {gv_delta():.4f} (H_2(delta) = 1/2), the GV relative distance at rate 1/2")
    print(f"{'m':>4} {'d':>4} {'ref':>4} {'#LCD':>6} {'d/2m':>6} {'LCD frac':>8} {'sec':>7}   best a")
    for m in range(3, args.m_max + 1, 2):
        t0 = time.time()
        r = dc_search(base, m, workers=args.workers)
        ref, lcd = DC_TABLE_REFERENCE.get(m), dc_lcd_count(2, m)
        flag = "" if ref is None or r.best_distance == ref else "   <-- MISMATCH"
        flag += "" if r.lcd_count == lcd else f"   <-- #LCD MISMATCH (dc_lcd_count {lcd})"
        ok &= not flag
        a_str = ",".join(str(c) for c in r.best_a)
        print(
            f"{m:>4} {r.best_distance:>4} {ref if ref is not None else '-':>4}"
            f" {r.lcd_count:>6} {r.best_distance / (2 * m):>6.3f} {lcd / 2**m:>8.4f}"
            f" {time.time() - t0:>7.2f}   {a_str}{flag}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
