#!/usr/bin/env python3
"""Randomized audit of the quasi-cyclic certification machinery.

Draws seeded random QC codes over GF(2), GF(3), GF(4) and GF(9) and
checks, for each one: the constituent-wise complementary-dual criterion
against the expanded hull, the CRT roundtrip, the dimension identity, the
dual decomposition, and the concatenation bound against the true distance.
"""
import argparse
import math
import random
import sys

from qccd import (
    QcCode,
    constituents,
    dual_constituents,
    field_from_order,
    from_constituents,
    is_qccd,
    jensen_bound,
)
from qccd.errors import TooLargeToEnumerate
from qccd.polyring import Poly


def random_code(rng, base, m, ell, r):
    gens = []
    for _ in range(r):
        gens.append(
            tuple(
                Poly(base, [rng.randrange(base.order) for _ in range(m)])
                for _ in range(ell)
            )
        )
    return QcCode.make(base, m, ell, gens)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--trials", type=int, default=100)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    grid = [
        (q, m, ell)
        for q in (2, 3, 4, 9)
        for m in (3, 5, 7)
        for ell in (2, 3, 4)
        if math.gcd(m, q) == 1  # the block length must be coprime to the characteristic
    ]
    qccd_count = 0
    for i in range(args.trials):
        q, m, ell = grid[rng.randrange(len(grid))]
        base = field_from_order(q)
        C = random_code(rng, base, m, ell, rng.randrange(1, 3))
        lin = C.expand()

        verdict, _ = is_qccd(C)
        hull = lin.hull_dim()
        assert verdict == (hull == 0), (i, q, m, ell)
        qccd_count += verdict

        cs = constituents(C)
        assert from_constituents(cs).expand() == lin, (i, "roundtrip")
        assert cs.fq_dimension() == lin.k, (i, "dimension")
        assert dual_constituents(C) == constituents(
            QcCode.from_rows(base, m, ell, [list(r) for r in lin.dual().rows])
        ), (i, "dual decomposition")

        if lin.k:
            try:
                d = lin.min_distance()
            except TooLargeToEnumerate:
                d = None
            if d is not None:
                assert jensen_bound(C) <= d, (i, "bound")
    print(f"{args.trials} trials, all checks passed ({qccd_count} complementary-dual)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
