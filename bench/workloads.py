"""Seeded inputs for the three benchmark workloads.

A workload is a list of ``qccd`` command lines (argv lists) that one
repetition sends, one after the other, to ``qccd.cli.main``.  The same
seed gives the same list.  Only ``certify`` needs the library here, to list
the divisors of x^ell - 1 for its ``cyclic-check`` requests; everything
else is plain arithmetic on the seed.
"""
from __future__ import annotations

import os
import random

WORKLOADS = ("dc_gf2", "dc_odd", "certify")

# Base fields each workload builds during set-up, as (p, k).
BASE_FIELDS = {
    "dc_gf2": [(2, 1)],
    "dc_odd": [(3, 1), (2, 2)],
    "certify": [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3)],
}

# dc_gf2: the binary table that `table-repro` sweeps (exhaustive, odd
# m = 3..15) plus seeded random-mode searches at m = 17 and 19, where
# exhaustive search would not fit in a run.
DC_GF2_TABLE = range(3, 16, 2)
DC_GF2_RANDOM = [(17, 12, 150), (19, 6, 100)]  # (m, requests, trials each)

# dc_odd: the generic path (polyring gcd, QcCode.expand, rref, small
# full-field enumerations) over GF(3) and GF(4).
DC_ODD_EXHAUSTIVE = [(3, 7), (4, 5), (3, 5), (4, 3)]  # (q, m)
DC_ODD_RANDOM = [(3, 8, 10, 100), (4, 7, 5, 120)]  # (q, m, requests, trials)

# certify: every light shape below, each the given number of times, plus a
# fixed heavy class of qc-jensen requests whose constituents are enumerated
# over subfield scalars of GF(3^6).  The mix is the same for every seed (the
# seed draws coefficients and order), and the heavy class is about 9% of the
# stream, so request_p95_ms falls inside it.
CERTIFY_LIGHT = {
    "qc-check": 1,
    "qc-constituents": 1,
    "qc-jensen": 1,
    "cyclic-euclidean": 2,
    "cyclic-hermitian": 2,
    "extend-hermitian": 2,
    "descend": 2,
}
CERTIFY_HEAVY = [((3, 7, 3, 2), 15), ((9, 7, 4, 2), 5)]  # ((q, m, ell, r), count)
LIGHT_ENUM = 1 << 14  # most codewords a light request may enumerate
REFUSED_ENUM = 1 << 26  # sizes above this are refused by the library's cap
CYCLIC_LENGTHS = {
    "cyclic-euclidean": [(2, 7), (2, 14), (2, 15), (2, 17), (2, 21), (2, 23),
                         (3, 8), (3, 10), (3, 11), (3, 13), (4, 5), (4, 9), (4, 15)],
    "cyclic-hermitian": [(4, 5), (4, 9), (4, 15), (9, 4), (9, 5), (9, 8)],
}
EXTEND_SHAPES = [(4, 6, 3), (4, 8, 3), (9, 5, 2), (9, 6, 3), (16, 5, 2), (16, 6, 3)]
DESCEND_SHAPES = [(4, 2, 6, 3), (8, 2, 5, 2), (16, 2, 5, 2), (27, 3, 4, 2)]  # (Q, q, n, k)

SMOKE_SCALE = 10  # --smoke keeps about one request in ten


def _argv_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def dc_gf2(rng: random.Random, smoke: bool) -> list[list[str]]:
    table = [3, 5, 7] if smoke else DC_GF2_TABLE
    reqs = [["dc-search", "--q", "2", "--m", str(m), "--exhaustive", "--workers", "1"]
            for m in table]
    for m, count, trials in DC_GF2_RANDOM:
        for _ in range(1 if smoke else count):
            reqs.append(["dc-search", "--q", "2", "--m", str(m), "--seed", _argv_seed(rng),
                         "--trials", str(trials // SMOKE_SCALE if smoke else trials),
                         "--workers", "1"])
    return reqs


def dc_odd(rng: random.Random, smoke: bool) -> list[list[str]]:
    reqs = []
    for q, m in DC_ODD_EXHAUSTIVE[1:] if smoke else DC_ODD_EXHAUSTIVE:
        reqs.append(["dc-search", "--q", str(q), "--m", str(m), "--exhaustive", "--workers", "1"])
    for q, m, count, trials in DC_ODD_RANDOM:
        for _ in range(1 if smoke else count):
            reqs.append(["dc-search", "--q", str(q), "--m", str(m), "--seed", _argv_seed(rng),
                         "--trials", str(trials // SMOKE_SCALE if smoke else trials),
                         "--workers", "1"])
    return reqs


# -- certify -----------------------------------------------------------------

def _characteristic(q: int) -> int:
    return next(d for d in range(2, q + 1) if q % d == 0)


def _coset_sizes(q: int, m: int) -> list[int]:
    seen, sizes = set(), []
    for i in range(m):
        if i not in seen:
            j, size = i, 0
            while j not in seen:
                seen.add(j)
                j, size = (j * q) % m, size + 1
            sizes.append(size)
    return sizes


def _enum_sizes(shape) -> tuple[int, int]:
    """Codewords the oracle distance and the Jensen bound enumerate for a QC
    code of this shape with systematic generators (dimension r*m over F_q,
    dimension r in every constituent)."""
    q, m, ell, r = shape
    k, n = r * m, m * ell
    oracle = q ** min(k, n - k)
    jensen = max(q ** (size * r) for size in _coset_sizes(q, m))
    return oracle, jensen


def _qc_shapes():
    for q in (2, 3, 4, 9):
        for m in (3, 5, 7):
            if m % _characteristic(q) == 0:
                continue
            for ell in (2, 3, 4):
                for r in range(1, min(ell, 3)):  # r = ell would be all of F_q^(m*ell)
                    yield q, m, ell, r


def light_qc_shapes(command: str) -> list[tuple[int, int, int, int]]:
    out = []
    for shape in _qc_shapes():
        oracle, jensen = _enum_sizes(shape)
        oracle_ok = oracle <= LIGHT_ENUM or oracle > REFUSED_ENUM
        if command == "qc-constituents" or (
            oracle_ok and (command == "qc-check" or jensen <= LIGHT_ENUM)
        ):
            out.append(shape)
    return out


def _qc_text(rng: random.Random, shape) -> str:
    """Generators in systematic form over R = F_q[x]/(x^m - 1): generator i
    has 1 in block position pos[i] and 0 in the other identity positions,
    so the code has dimension exactly r*m."""
    q, m, ell, r = shape
    pos = rng.sample(range(ell), r)
    lines = [f"{q} {m} {ell} {r}"]
    for i in range(r):
        blocks = []
        for j in range(ell):
            if j in pos:
                coeffs = [1 if j == pos[i] else 0]
            else:
                coeffs = [rng.randrange(q) for _ in range(m)]
            blocks.append(",".join(map(str, coeffs)))
        lines.append("|".join(blocks))
    return "\n".join(lines) + "\n"


def _code_text(rng: random.Random, q: int, n: int, k: int) -> str:
    """A random [n, k] code: [I_k | P] with its columns shuffled."""
    rows = [[1 if j == i else 0 for j in range(k)] + [rng.randrange(q) for _ in range(n - k)]
            for i in range(k)]
    perm = rng.sample(range(n), n)
    lines = [f"{q} {n} {k}"] + [" ".join(str(row[c]) for c in perm) for row in rows]
    return "\n".join(lines) + "\n"


def _divisors(q: int, ell: int) -> list[str]:
    from qccd import field_from_order
    from qccd.cyclic import divisors_of_xell_minus_one
    from qccd.io import format_poly

    # without 1 and x^ell - 1, whose codes are the whole space and zero
    return [format_poly(g) for g in divisors_of_xell_minus_one(field_from_order(q), ell)
            if 0 < g.degree < ell]


def certify(rng: random.Random, smoke: bool, workdir: str) -> list[list[str]]:
    """Requests in a seeded order; each file-based request gets its own file."""
    plan = []  # (kind, shape)
    for kind, copies in CERTIFY_LIGHT.items():
        if kind.startswith("qc-"):
            shapes = light_qc_shapes(kind)
        elif kind.startswith("cyclic-"):
            shapes = CYCLIC_LENGTHS[kind]
        elif kind == "extend-hermitian":
            shapes = EXTEND_SHAPES
        else:
            shapes = DESCEND_SHAPES
        plan += [(kind, shape) for shape in shapes] * copies
    if smoke:
        plan = plan[::SMOKE_SCALE]
    for shape, count in CERTIFY_HEAVY:
        plan += [("qc-jensen", shape)] * (1 if smoke else count)
    rng.shuffle(plan)

    divisors = {}
    reqs = []
    for i, (kind, shape) in enumerate(plan):
        path = os.path.join(workdir, f"req{i:04d}.txt")
        if kind.startswith("qc-"):
            text = _qc_text(rng, shape)
            argv = [kind, "--in", path]
        elif kind.startswith("cyclic-"):
            q, ell = shape
            if shape not in divisors:
                divisors[shape] = _divisors(q, ell)
            g = rng.choice(divisors[shape])
            reqs.append(["cyclic-check", "--q", str(q), "--ell", str(ell), "--g", g,
                         "--form", kind.split("-")[1]])
            continue
        elif kind == "extend-hermitian":
            q, n, k = shape
            text = _code_text(rng, q, n, k)
            argv = [kind, "--in", path]
        else:
            Q, q, n, k = shape
            text = _code_text(rng, Q, n, k)
            argv = [kind, "--in", path, "--q", str(q)]
        with open(path, "w") as fh:
            fh.write(text)
        reqs.append(argv)
    return reqs


def generate(workload: str, seed: int, smoke: bool, workdir: str) -> list[list[str]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dc_gf2":
        return dc_gf2(rng, smoke)
    if workload == "dc_odd":
        return dc_odd(rng, smoke)
    return certify(rng, smoke, workdir)
