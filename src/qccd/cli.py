"""Command-line front end.

Every subcommand prints a JSON certificate on standard output (the dc
table also has a plain-text rendering via --format table).  Exit codes:
0 when a verdict was computed and all cross-checks agreed, 2 for input
errors, 3 when a criterion and its independent oracle disagree.

Each ``cmd_*`` returns its payload and an oracle (None for ``factor`` and
``table-repro``) that adds its keys and says whether the cross-checks agree;
``main`` runs it unless given --no-oracle.  Construction invariants raise
AssertionError in the library and always run (exit 3, OracleDisagreement).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from . import construct, cyclic, io, qc
from .errors import InvalidParameter, QccdError, TooLargeToEnumerate
from .field import field_from_order
from .lincode import MAX_LENGTH, LinearCode
from .polyring import Poly, factor_xm_minus_1

DC_TABLE_REFERENCE = {3: 1, 5: 3, 7: 4, 9: 3, 11: 6, 13: 7, 15: 5, 17: 8}


def _emit(payload: dict, fmt: str = "json") -> None:
    payload.setdefault("time", time.time())
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_table(payload)


def _print_table(payload: dict) -> None:
    rows = payload["rows"]
    print("m    found  reference  match")
    for r in rows:
        ref = r["reference"] if r["reference"] is not None else "-"
        print(f"{r['m']:<4} {r['d']:<6} {ref!s:<10} {'yes' if r['match'] else 'NO'}")


def _try_distance(C: LinearCode):
    try:
        return C.min_distance()
    except TooLargeToEnumerate:
        return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_factor(args):
    base = field_from_order(args.q)
    profile = factor_xm_minus_1(base, args.m)
    payload = {
        "command": "factor",
        "q": args.q,
        "m": args.m,
        "s": profile.s,
        "t": profile.t,
        "self_reciprocal": [
            {"factor": io.format_poly(g), "degree": g.degree, "coset_leader": u}
            for g, u in profile.self_recip
        ],
        "pairs": [
            {
                "factor": io.format_poly(h),
                "reciprocal": io.format_poly(hstar),
                "degree": h.degree,
                "coset_leader": v,
            }
            for h, hstar, v in profile.pairs
        ],
    }
    return payload, None


def cmd_cyclic_check(args):
    base = field_from_order(args.q)
    g = io.parse_poly(base, args.g)
    C = cyclic.make_cyclic(base, args.ell, g)
    lin = C.as_linear_code()
    hermitian = args.form == "hermitian"
    verdict = cyclic.is_lcd_cyclic(C, args.form)
    reversible = cyclic.is_conjugate_reversible(C) if hermitian else cyclic.is_reversible(C)
    payload = {
        "command": "cyclic-check",
        "q": args.q,
        "ell": args.ell,
        "g": io.format_poly(C.g),
        "form": args.form,
        "params": {"n": lin.n, "k": lin.k, "d": _try_distance(lin) if lin.k else None},
        "verdict": verdict,
        "reversible": reversible,
    }

    def oracle(payload):
        payload["hull_dim"] = hull = lin.hull_dim(args.form)
        reversal = range(C.ell - 1, -1, -1)
        return (
            (hull == 0) == verdict
            and cyclic.is_lcd_by_factors(C, args.form) == verdict
            and lin.closed_under(reversal, base.conj_exp if hermitian else 1) == reversible
        )

    return payload, oracle


def cmd_qc_check(args):
    with open(args.infile) as fh:
        C = io.parse_qc(fh.read())
    verdict, cert = qc.is_qccd(C)
    lin = C.expand()
    payload = {
        "command": "qc-check",
        "q": C.base.order,
        "m": C.m,
        "ell": C.ell,
        "params": {"n": lin.n, "k": lin.k, "d": _try_distance(lin) if lin.k else None},
        "verdict": verdict,
        "per_slot": cert,
    }
    if len(C.gens) == 1 and C.ell == 2 and C.gens[0][0].coeffs == (1,):
        payload["dc_criterion"] = construct.dc_is_lcd(C.base, C.m, C.gens[0][1])

    def oracle(payload):
        payload["hull_dim"] = hull = lin.hull_dim("euclidean")
        return (hull == 0) == verdict and payload.get("dc_criterion", verdict) == verdict

    return payload, oracle


def _slot_summaries(cs: qc.ConstituentSet):
    self_slots = []
    for (g, u), part in zip(cs.profile.self_recip, cs.self_parts):
        self_slots.append(
            {"coset_leader": u, "degree": g.degree, "dim": part.k, "length": part.n}
        )
    pair_slots = []
    for (h, _, v), (cp, cpp) in zip(cs.profile.pairs, cs.pair_parts):
        pair_slots.append(
            {"coset_leader": v, "degree": h.degree, "dims": [cp.k, cpp.k], "length": cp.n}
        )
    return self_slots, pair_slots


def cmd_qc_constituents(args):
    with open(args.infile) as fh:
        C = io.parse_qc(fh.read())
    cs = qc.constituents(C)
    self_slots, pair_slots = _slot_summaries(cs)
    payload = {
        "command": "qc-constituents",
        "q": C.base.order,
        "m": C.m,
        "ell": C.ell,
        "self_slots": self_slots,
        "pair_slots": pair_slots,
        "fq_dimension": cs.fq_dimension(),
    }

    def oracle(payload):
        lin = C.expand()
        payload["expanded_dimension"] = lin.k
        payload["roundtrip"] = qc.from_constituents(cs).expand() == lin
        return lin.k == cs.fq_dimension() and payload["roundtrip"]

    return payload, oracle


def cmd_qc_jensen(args):
    with open(args.infile) as fh:
        C = io.parse_qc(fh.read())
    bound = qc.jensen_bound(C)
    payload = {
        "command": "qc-jensen",
        "q": C.base.order,
        "m": C.m,
        "ell": C.ell,
        "bound": bound,
    }

    def oracle(payload):
        lin = C.expand()
        payload["min_distance"] = d = _try_distance(lin) if lin.k else 0
        return d is None or bound <= d

    return payload, oracle


def cmd_dc_search(args):
    base = field_from_order(args.q)
    if args.seed is not None and not args.exhaustive:
        report = construct.dc_search(
            base, args.m, mode="random", seed=args.seed,
            trials=args.trials, workers=args.workers,
        )
    else:
        report = construct.dc_search(base, args.m, workers=args.workers)
    payload = {
        "command": "dc-search",
        "q": report.q,
        "m": report.m,
        "mode": report.mode,
        "best": {
            "a": ",".join(str(c) for c in report.best_a),
            "serial": report.best_serial,
            "d": report.best_distance,
        },
        "lcd_count": report.lcd_count,
        "candidates": report.candidates,
    }
    if report.seed is not None:
        payload["seed"] = report.seed

    def oracle(_):  # random mode counts trials: only an exhaustive count has a closed form
        return construct.dc_is_lcd(base, report.m, Poly(base, report.best_a)) and (
            report.mode == "random"
            or report.lcd_count == construct.dc_lcd_count(report.q, report.m))

    return payload, oracle


def cmd_extend_hermitian(args):
    with open(args.infile) as fh:
        C = io.parse_code(fh.read())
    sysrows, perm = C.systematic_form()
    Ct = LinearCode.from_rows(C.field, C.n, sysrows)
    out = construct.hermitian_lcd_extend(Ct)
    payload = {
        "command": "extend-hermitian",
        "q": C.field.order,
        "input_params": {"n": C.n, "k": C.k, "d": _try_distance(C) if C.k else None},
        "column_permutation": list(perm),
        "params": {"n": out.n, "k": out.k, "d": _try_distance(out) if out.k else None},
        "code": io.format_code(out),
        "verdict": True,
    }

    def oracle(payload):
        identity = [[int(i == j) for j in range(out.k)] for i in range(out.k)]
        payload["gram_identity"] = out.gram("hermitian") == identity
        payload["hull_dim"] = out.hull_dim("hermitian")
        return payload["gram_identity"] and payload["hull_dim"] == 0

    return payload, oracle


def cmd_descend(args):
    with open(args.infile) as fh:
        C = io.parse_code(fh.read())
    Q = C.field.order
    sub = field_from_order(args.q)
    if not C.field.is_subfield(sub):
        raise QccdError(f"{args.q} is not a subfield order of {Q}")
    ell = C.field.k // sub.k
    if C.n * ell > MAX_LENGTH:
        raise InvalidParameter(f"descended length {C.n * ell} exceeds {MAX_LENGTH}")
    B = construct.self_dual_basis(args.q, ell)
    if B.big is not C.field:
        raise QccdError("basis field does not match the code field")
    out = construct.expand_subfield(C, B)
    payload = {
        "command": "descend",
        "Q": Q,
        "q": args.q,
        "ell": ell,
        "basis": list(B.basis),
        "input_params": {"n": C.n, "k": C.k, "d": _try_distance(C) if C.k else None},
        "params": {"n": out.n, "k": out.k, "d": _try_distance(out) if out.k else None},
        "code": io.format_code(out),
    }

    def oracle(payload):
        payload["hull_dim_input"] = C.hull_dim("euclidean")
        payload["hull_dim"] = out.hull_dim("euclidean")
        payload["verdict"] = payload["hull_dim"] == 0
        return (payload["hull_dim_input"] == 0) == payload["verdict"]

    return payload, oracle


def cmd_table_repro(args):
    if args.m_max < 3:
        raise InvalidParameter(f"--m-max must be at least 3, got {args.m_max}")
    base = field_from_order(2)
    rows = []
    for m in range(3, args.m_max + 1, 2):
        report = construct.dc_search(base, m, workers=args.workers)
        ref = DC_TABLE_REFERENCE.get(m)
        rows.append(
            {
                "m": m,
                "d": report.best_distance,
                "a": ",".join(str(c) for c in report.best_a),
                "lcd_count": report.lcd_count,
                "reference": ref,
                "match": ref is None or report.best_distance == ref,
            }
        )
    payload = {
        "command": "table-repro",
        "m_max": args.m_max,
        "rows": rows,
        "all_match": all(r["match"] for r in rows),
    }
    return payload, None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The qccd argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qccd",
        description="construction and certification of complementary-dual "
        "cyclic and quasi-cyclic codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        if flags.get("q"):
            p.add_argument("--q", type=int, required=True, help="field order")
        if flags.get("m"):
            p.add_argument("--m", type=int, required=True, help="cyclic block length")
        if flags.get("ell"):
            p.add_argument("--ell", type=int, required=True, help="code length / index")
        if flags.get("g"):
            p.add_argument("--g", required=True, help="generator polynomial, low first")
        if flags.get("infile"):
            p.add_argument("--in", dest="infile", required=True, help="input file")
        if flags.get("oracle"):
            p.add_argument("--no-oracle", action="store_true")
        p.set_defaults(func=func)
        return p

    add("factor", cmd_factor, q=True, m=True)

    p = add("cyclic-check", cmd_cyclic_check, q=True, ell=True, g=True, oracle=True)
    p.add_argument("--form", choices=["euclidean", "hermitian"], default="euclidean")

    add("qc-check", cmd_qc_check, infile=True, oracle=True)
    add("qc-constituents", cmd_qc_constituents, infile=True, oracle=True)
    add("qc-jensen", cmd_qc_jensen, infile=True, oracle=True)

    p = add("dc-search", cmd_dc_search, q=True, m=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)

    add("extend-hermitian", cmd_extend_hermitian, infile=True, oracle=True)

    p = add("descend", cmd_descend, infile=True, oracle=True)
    p.add_argument("--q", type=int, required=True, help="subfield order")

    p = sub.add_parser("table-repro")
    p.add_argument("--m-max", type=int, default=13)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_table_repro)

    return parser


# Built at import, as per-process set-up: every command parses its argv with it,
# and its first build (argparse's gettext lookups load ``locale``) would
# otherwise fall into the first command.
build_parser()


def _check_ranges(args) -> None:
    for name in ("m", "ell", "workers", "trials"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise InvalidParameter(f"--{name} must be at least 1, got {value}")
        if name in ("m", "ell") and value is not None and value > MAX_LENGTH:
            raise InvalidParameter(f"--{name} must be at most {MAX_LENGTH}, got {value}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        _check_ranges(args)
        payload, oracle = args.func(args)
        if oracle is not None:
            payload["oracle_agreement"] = getattr(args, "no_oracle", False) or oracle(payload)
        _emit(payload, getattr(args, "format", "json"))
        sys.stdout.flush()  # a reader that closed the pipe fails the write here
        return 0 if payload.get("oracle_agreement", True) else 3
    except BrokenPipeError:  # nobody reads: exit quietly, and let no flush at exit fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (QccdError, OSError, ValueError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return 2
    except AssertionError as e:
        print(json.dumps({"error": "OracleDisagreement", "message": str(e)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
