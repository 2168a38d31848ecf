"""Spans around the public functions of each qccd module, installed from
outside the package.

Every traced function is replaced at every name it is looked up under:
the module attribute it is defined as, each module that imported it by
name, and the class for methods.  Spans are kept in memory as
(name, parent index, start, end) and summarised, or written out, at the
end.  Per-element field calls (``add_raw``, ``mul_raw``, ...) are not
wrapped; ``field_probe`` times them instead.
"""
from __future__ import annotations

import functools
import importlib
import json
import random
import time

# span name -> [(module, class or None, attribute)] it wraps
TARGETS = {
    "field.make_field": [("field", None, "make_field")],
    "polyring.gcd": [("polyring", None, "poly_gcd")],
    "polyring.factor": [("polyring", None, "factor_xm_minus_1")],
    "lincode.rref": [("lincode", None, "rref")],
    "lincode.enum": [("lincode", None, "weight_distribution")],
    "lincode.min_distance": [("lincode", "LinearCode", "min_distance")],
    "lincode.dual": [("lincode", "LinearCode", "dual")],
    "lincode.intersect": [("lincode", "LinearCode", "intersect")],
    "lincode.hull": [("lincode", "LinearCode", "hull_dim")],
    "qc.expand": [("qc", "QcCode", "expand")],
    "qc.constituents": [("qc", None, "constituents")],
    "qc.from_constituents": [("qc", None, "from_constituents")],
    "qc.dual_constituents": [("qc", None, "dual_constituents")],
    "qc.is_qccd": [("qc", None, "is_qccd")],
    "qc.jensen": [("qc", None, "jensen_bound")],
    "cyclic.is_lcd": [("cyclic", None, "is_lcd_cyclic")],
    "cyclic.reversible": [("cyclic", None, "is_reversible"),
                          ("cyclic", None, "is_conjugate_reversible")],
    "construct.extend": [("construct", None, "hermitian_lcd_extend")],
    "construct.descend": [("construct", None, "self_dual_basis"),
                          ("construct", None, "expand_subfield")],
    "construct.dc_search": [("construct", None, "dc_search")],
    "construct.dc_is_lcd": [("construct", None, "dc_is_lcd")],
    "io.parse": [("io", None, "parse_poly"), ("io", None, "parse_code"),
                 ("io", None, "parse_qc")],
    "io.format": [("io", None, "format_poly"), ("io", None, "format_code"),
                  ("io", None, "format_qc")],
    "cli.main": [("cli", None, "main")],
}
MODULES = ("field", "polyring", "lincode", "cyclic", "qc", "construct", "io", "cli")
QC_CACHES = ("_subfield_elements", "_idempotent", "_interp_matrix", "_inner_sum_distance")

PROBE_FIELDS = {"gf2": (2, 1), "gf3": (3, 1), "gf4": (2, 2), "gf729": (3, 6), "gf65536": (2, 16)}
PROBE_OPS = 20000


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end]
        self.stack = []
        self.counters = {"lincode.rref.cells": 0, "lincode.enum.codewords": 0,
                         "lincode.min_distance.refused": 0,
                         "construct.dc.candidates": 0, "construct.dc.lcd_count": 0}
        self.installed = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = _COUNTS.get(name)
        from qccd.errors import TooLargeToEnumerate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except TooLargeToEnumerate:
                if name == "lincode.min_distance":
                    counters["lincode.min_distance.refused"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        import qccd

        mods = {name: importlib.import_module(f"qccd.{name}") for name in MODULES}
        namespaces = [qccd] + list(mods.values())
        for name, targets in TARGETS.items():
            for modname, owner, attr in targets:
                if owner is not None:
                    cls = getattr(mods[modname], owner)
                    orig = cls.__dict__[attr]
                    self._replace(cls, attr, orig, self._wrap(name, orig))
                    continue
                orig = getattr(mods[modname], attr)
                wrapped = self._wrap(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._replace(ns, key, orig, wrapped)

    def _replace(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self.installed.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def summary(self, wall: float) -> dict:
        """Per span name: calls and self seconds; per module: share of the
        traced wall time spent in its own code."""
        self_s = [end - start for _, _, start, end in self.spans]
        for name, parent, start, end in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        by_name = {name: {"calls": 0, "self_s": 0.0} for name in TARGETS}
        for (name, _, _, _), s in zip(self.spans, self_s):
            by_name[name]["calls"] += 1
            by_name[name]["self_s"] += s
        shares = {mod: 0.0 for mod in MODULES}
        for name, agg in by_name.items():
            shares[name.split(".")[0]] += agg["self_s"] / wall
        return {"spans": by_name, "counters": dict(self.counters),
                "shares": shares, "caches": cache_counts()}


def _count_rref(counters, args, kwargs, result):
    rows = args[1]
    counters["lincode.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_enum(counters, args, kwargs, result):
    field, rows = args[0], args[1]
    scalars = args[3] if len(args) > 3 else kwargs.get("scalars")
    size = field.order if scalars is None else len(scalars)
    counters["lincode.enum.codewords"] += size ** len(rows)


def _count_dc(counters, args, kwargs, report):
    counters["construct.dc.candidates"] += report.candidates
    counters["construct.dc.lcd_count"] += report.lcd_count


_COUNTS = {"lincode.rref": _count_rref, "lincode.enum": _count_enum,
           "construct.dc_search": _count_dc}


def cache_counts() -> dict:
    """Hits and misses of the lru caches the per-layer metrics read."""
    from qccd import polyring, qc

    out = {}
    for key, fn in [("polyring.factor", polyring.factor_xm_minus_1)] + [
        (f"qc.{name}", getattr(qc, name)) for name in QC_CACHES
    ]:
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses}
    return out


def field_probe(seed: int) -> dict:
    """Nanoseconds per add_raw / mul_raw / inv_raw on nonzero operands
    drawn from the seed, per field (tables built before timing)."""
    from qccd import make_field

    rng = random.Random(seed)
    out = {}
    for label, (p, k) in PROBE_FIELDS.items():
        F = make_field(p, k)
        F.mul_raw(1, 1)
        xs = [rng.randrange(1, F.order) for _ in range(PROBE_OPS)]
        ys = [rng.randrange(1, F.order) for _ in range(PROBE_OPS)]
        for op in ("add", "mul", "inv"):
            fn = getattr(F, f"{op}_raw")
            t = time.perf_counter_ns()
            if op == "inv":
                for x in xs:
                    fn(x)
            else:
                for x, y in zip(xs, ys):
                    fn(x, y)
            out[f"field.{op}_ns.{label}"] = (time.perf_counter_ns() - t) / PROBE_OPS
    return out
