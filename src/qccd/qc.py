"""Quasi-cyclic codes as modules over R = F_q[x]/(x^m - 1).

A QC code is held by generator tuples in R^ell; each generator's F_q-span
follows from its rank, m - deg gcd(v_1, ..., v_ell, x^m - 1).  The
constituent decomposition evaluates the generators at powers of a
primitive m-th root of unity and spans over the splitting field, with
subfield membership asserted after every reduction.  The inverse direction
rebuilds generator tuples by the trace formula of Ling & Sole ("On the
algebraic structure of quasi-cyclic codes I: finite fields", IEEE Trans.
IT 47, 2001), a closed form in the primitive idempotents, traced in each
slot's own field GF(q^deg).  A constituent's minimum distance is taken
over that field too, where its RREF rows already lie (extending scalars
never changes a distance).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclic import make_cyclic
from .errors import (
    NotCoprime,
    NotLcd,
    PreconditionViolation,
    ShapeMismatch,
    SlotNotAPair,
    SlotNotSelfReciprocal,
    SubfieldViolation,
)
from .field import FiniteField, field_from_order
from .lincode import LinearCode
from .polyring import FactorProfile, Poly, factor_xm_minus_1, poly_gcd, xm_minus_one


@dataclass(frozen=True)
class QcCode:
    base: FiniteField
    m: int
    ell: int
    gens: tuple[tuple[Poly, ...], ...]

    @classmethod
    def make(cls, base: FiniteField, m: int, ell: int, gens) -> "QcCode":
        norm = []
        for gen in gens:
            gen = tuple(gen)
            if len(gen) != ell:
                raise ShapeMismatch(f"generator tuple of length {len(gen)}, expected {ell}")
            norm.append(tuple(a.reduce_mod_xm(m) for a in gen))
        return cls(base, m, ell, tuple(norm))

    @classmethod
    def from_rows(cls, base: FiniteField, m: int, ell: int, rows) -> "QcCode":
        """Reinterpret F_q rows of length m*ell (blockwise layout) as
        generator tuples."""
        gens = []
        for row in rows:
            if len(row) != m * ell:
                raise ShapeMismatch(f"row length {len(row)}, expected {m * ell}")
            gens.append(tuple(Poly(base, row[j * m : (j + 1) * m]) for j in range(ell)))
        return cls(base, m, ell, tuple(gens))

    def expand(self) -> LinearCode:
        """F_q-linear view, written blockwise per coordinate.  A generator v
        spans R v = R/(h), h = (x^m - 1)/g with g = gcd(v_1, ..., v_ell,
        x^m - 1), so its first m - deg g shifts are a basis of R v; one RREF
        reduces the stacked bases of all generators."""
        m, rows = self.m, []
        for gen in self.gens:
            g = xm_minus_one(self.base, m)
            for a in gen:
                g = poly_gcd(g, a)
            blocks = [a.padded_coeffs(m) for a in gen]  # x^s rotates each block by s
            rows += [[c for b in blocks for c in b[m - s:] + b[:m - s]]
                     for s in range(m - g.degree)]
        return LinearCode.from_rows(self.base, m * self.ell, rows)

    def __repr__(self):
        return f"QcCode({self.base}, m={self.m}, ell={self.ell}, r={len(self.gens)})"


# ---------------------------------------------------------------------------
# constituents
# ---------------------------------------------------------------------------

def slot_conj_exp(base: FiniteField, degree: int) -> int:
    """Exponent of the conjugation on the subfield attached to a
    self-reciprocal factor: the square-root Frobenius when the degree is
    even, the identity otherwise."""
    return base.order ** (degree // 2) if degree % 2 == 0 else 1


@lru_cache(maxsize=None)
def _subfield_elements(splitting: FiniteField, suborder: int) -> frozenset[int]:
    return frozenset(splitting.embedding(field_from_order(suborder))[0])


def _assert_subfield(splitting: FiniteField, rows, suborder: int):
    outside = set().union(*rows) - _subfield_elements(splitting, suborder)
    if outside:
        raise SubfieldViolation(f"entry {min(outside)} not in the subfield of order {suborder}")


def _own_field(splitting: FiniteField, part: LinearCode, suborder: int) -> LinearCode:
    """The constituent as a code over GF(suborder), which must hold its RREF
    rows: the retract keeps the pivots, so the rows stay canonical."""
    _assert_subfield(splitting, part.rows, suborder)
    sub = field_from_order(suborder)
    _, retract = splitting.embedding(sub)
    rows = [[retract[z] for z in row] for row in part.rows]
    return LinearCode(sub, part.n, rows, part.pivot_cols)


@dataclass(frozen=True)
class ConstituentSet:
    """CRT image of a QC code: one linear code per factor of x^m - 1, all
    represented inside the splitting field."""

    profile: FactorProfile
    ell: int
    self_parts: tuple[LinearCode, ...]
    pair_parts: tuple[tuple[LinearCode, LinearCode], ...]

    def slots(self):
        """(factor, root exponent, constituent) per slot in canonical order:
        the self-reciprocal slots, then h at xi^v and h* at xi^-v per pair."""
        profile = self.profile
        for (g, u), part in zip(profile.self_recip, self.self_parts):
            yield g, u, part
        for (h, hstar, v), (cp, cpp) in zip(profile.pairs, self.pair_parts):
            yield h, v, cp
            yield hstar, (-v) % profile.m, cpp

    def fq_dimension(self) -> int:
        return sum(f.degree * part.k for f, _, part in self.slots())


def constituents(C: QcCode) -> ConstituentSet:
    """Evaluate the generators at xi^{u_i}, xi^{v_j}, xi^{-v_j} and span
    over the respective subfields."""
    if math.gcd(C.m, C.base.p) != 1:
        raise NotCoprime(f"characteristic {C.base.p} divides m={C.m}")
    profile = factor_xm_minus_1(C.base, C.m)
    S = profile.splitting
    xi = profile.xi

    def span_at(exp: int, suborder: int) -> LinearCode:
        point = xi**exp
        rows = [[a.evaluate(point).raw for a in gen] for gen in C.gens]
        code = LinearCode.from_rows(S, C.ell, rows)
        _assert_subfield(S, code.rows, suborder)
        return code

    q = C.base.order
    self_parts = [span_at(u, q**g.degree) for g, u in profile.self_recip]
    pair_parts = [
        (span_at(v, q**h.degree), span_at((-v) % C.m, q**h.degree))
        for h, _, v in profile.pairs
    ]
    return ConstituentSet(profile, C.ell, tuple(self_parts), tuple(pair_parts))


# ---------------------------------------------------------------------------
# inverse CRT
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _idempotent(profile: FactorProfile, exp: int) -> tuple[int, ...]:
    """Coefficients E_j = m^-1 xi^(-j*exp) of the primitive idempotent of
    S[x]/(x^m - 1): 1 at xi^exp and 0 at every other m-th root of unity."""
    S, m = profile.splitting, profile.m
    m_inv = S.inv_raw(m % S.p)
    return tuple(S.mul_raw(m_inv, S.pow_raw(profile.xi.raw, -j * exp)) for j in range(m))


@lru_cache(maxsize=None)
def _interp_matrix(profile: FactorProfile, exp: int, degree: int) -> tuple[int, ...]:
    """The idempotent's coefficients E_j as codes of its own field
    GF(q^degree), where they lie: xi^exp is fixed by x -> x^(q^degree).
    The name stays because ``bench/tracing.py`` reads this cache by name."""
    _, into = profile.splitting.embedding(field_from_order(profile.base.order**degree))
    return tuple(into[e] for e in _idempotent(profile, exp))


def from_constituents(cs: ConstituentSet) -> QcCode:
    """Inverse CRT by the trace formula (Ling & Sole, IEEE Trans. IT 47,
    2001): an entry c of the constituent at xi^e, of degree d, becomes the
    block a_j = Tr_{F_{q^d}/F_q}(c E_j), j < m, with E_j the coefficients of
    the idempotent at xi^e.  The product and the trace are read in the
    slot's own field GF(q^d); its copy of F_q need not be the one the
    splitting field holds, so each trace is read back through the splitting
    field.  One generator tuple per basis vector of each constituent,
    supported on that slot only."""
    profile = cs.profile
    base, S = profile.base, profile.splitting
    _, retract = S.embedding(base)
    gens = []
    for f, exp, part in cs.slots():
        own = _own_field(S, part, base.order**f.degree)
        F = own.field
        up, _ = S.embedding(F)
        back = [retract[up[z]] for z in F.embedding(base)[0]]
        tr, E = F.trace_table(base), _interp_matrix(profile, exp, f.degree)
        gens += [tuple(Poly(base, [back[tr[F.mul_raw(c, e)]] for e in E]) for c in row)
                 for row in own.rows]
    if not gens:
        gens = [tuple(Poly.zero(base) for _ in range(cs.ell))]
    return QcCode.make(base, profile.m, cs.ell, gens)


# ---------------------------------------------------------------------------
# duals, certification, distance bound
# ---------------------------------------------------------------------------

def dual_constituents(C: QcCode) -> ConstituentSet:
    """Constituents of the Euclidean dual: Hermitian duals in the
    self-reciprocal slots, crossed Euclidean duals in the pair slots."""
    cs = constituents(C)
    profile = cs.profile
    self_parts = []
    for (g, _), part in zip(profile.self_recip, cs.self_parts):
        e = slot_conj_exp(profile.base, g.degree)
        conj = part if e == 1 else part.conjugate_code(e)
        self_parts.append(conj.dual())
    pair_parts = [(cpp.dual(), cp.dual()) for cp, cpp in cs.pair_parts]
    return ConstituentSet(profile, cs.ell, tuple(self_parts), tuple(pair_parts))


def is_qccd(C: QcCode) -> tuple[bool, dict]:
    """Constituent-wise complementary-dual certification: every
    self-reciprocal constituent Hermitian LCD, and trivial crossed
    intersections in every pair slot."""
    cs = constituents(C)
    profile = cs.profile
    cert = {"self": [], "pairs": []}
    verdict = True
    for (g, u), part in zip(profile.self_recip, cs.self_parts):
        e = slot_conj_exp(profile.base, g.degree)
        hull = part.hull_dim("hermitian", conj_exp=e) if part.k else 0
        cert["self"].append({"u": u, "degree": g.degree, "dim": part.k, "hull_dim": hull})
        verdict &= hull == 0
    for (h, _, v), (cp, cpp) in zip(profile.pairs, cs.pair_parts):
        i1 = cp.intersect(cpp.dual()).k
        i2 = cpp.intersect(cp.dual()).k
        cert["pairs"].append(
            {"v": v, "degree": h.degree, "dims": [cp.k, cpp.k], "crossed_dims": [i1, i2]}
        )
        verdict &= i1 == 0 and i2 == 0
    return verdict, cert


@lru_cache(maxsize=None)
def _inner_sum_distance(base: FiniteField, m: int, check_coeffs: tuple[int, ...]) -> int:
    check = Poly(base, check_coeffs)
    gen = xm_minus_one(base, m) // check
    cyc = make_cyclic(base, m, gen)
    return cyc.as_linear_code().min_distance()


def jensen_bound(C: QcCode) -> int:
    """Concatenation lower bound on the minimum distance: sorted nonzero
    constituent distances against the distances of partial sums of the
    matching minimal cyclic codes."""
    cs = constituents(C)
    S, q = cs.profile.splitting, C.base.order
    outer = sorted(  # (constituent distance, slot index, factor)
        (_own_field(S, part, q**f.degree).min_distance(), idx, f)
        for idx, (f, _, part) in enumerate(cs.slots())
        if part.k
    )
    bounds, check = [], Poly.one(C.base)
    for d_out, _, f in outer:
        check = check * f
        bounds.append(d_out * _inner_sum_distance(C.base, C.m, check.coeffs))
    return min(bounds, default=0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _zero_part(profile: FactorProfile, ell: int) -> LinearCode:
    return LinearCode.from_rows(profile.splitting, ell, [])


def build_pair_double(profile: FactorProfile, pair_index: int, C: LinearCode) -> QcCode:
    """QC code with the given Euclidean LCD code in both halves of one
    reciprocal pair slot and zero everywhere else; QCCD by construction."""
    if not 0 <= pair_index < profile.t:
        raise SlotNotAPair(f"profile has {profile.t} pair slots")
    h, _, _ = profile.pairs[pair_index]
    S = profile.splitting
    if C.field is not S:
        raise ShapeMismatch("constituent must live in the splitting field")
    _assert_subfield(S, C.rows, profile.base.order**h.degree)
    if C.k and C.hull_dim("euclidean") != 0:
        raise NotLcd("constituent is not Euclidean LCD")
    ell = C.n
    self_parts = [_zero_part(profile, ell) for _ in range(profile.s)]
    pair_parts = [
        (C, C) if j == pair_index else (_zero_part(profile, ell), _zero_part(profile, ell))
        for j in range(profile.t)
    ]
    code = from_constituents(ConstituentSet(profile, ell, tuple(self_parts), tuple(pair_parts)))
    ok, _ = is_qccd(code)
    if not ok:
        raise AssertionError("pair-doubling construction failed certification")
    return code


def build_self_single(profile: FactorProfile, self_index: int, C: LinearCode) -> QcCode:
    """QC code with the given Hermitian LCD code in one self-reciprocal slot
    of even degree and zero everywhere else; QCCD by construction."""
    if not 0 <= self_index < profile.s:
        raise SlotNotSelfReciprocal(f"profile has {profile.s} self-reciprocal slots")
    g, _ = profile.self_recip[self_index]
    if g.degree % 2:
        raise SlotNotSelfReciprocal(
            "slot must carry a self-reciprocal factor of even degree"
        )
    S = profile.splitting
    if C.field is not S:
        raise ShapeMismatch("constituent must live in the splitting field")
    _assert_subfield(S, C.rows, profile.base.order**g.degree)
    e = slot_conj_exp(profile.base, g.degree)
    if C.k and C.hull_dim("hermitian", conj_exp=e) != 0:
        raise NotLcd("constituent is not Hermitian LCD")
    ell = C.n
    self_parts = [
        C if i == self_index else _zero_part(profile, ell) for i in range(profile.s)
    ]
    pair_parts = [
        (_zero_part(profile, ell), _zero_part(profile, ell)) for _ in range(profile.t)
    ]
    code = from_constituents(ConstituentSet(profile, ell, tuple(self_parts), tuple(pair_parts)))
    ok, _ = is_qccd(code)
    if not ok:
        raise AssertionError("single-slot construction failed certification")
    return code


# ---------------------------------------------------------------------------
# 2D cyclic assembly
# ---------------------------------------------------------------------------

def twod_cyclic_lcd(cs: ConstituentSet) -> tuple[QcCode, bool]:
    """Assemble a 2D cyclic code from cyclic constituents that are
    (conjugate-)reversible, and certify LCD with the expanded hull oracle."""
    profile = cs.profile
    if math.gcd(cs.ell, profile.base.p) != 1:
        raise PreconditionViolation(f"characteristic {profile.base.p} divides ell={cs.ell}")
    shift = [cs.ell - 1] + list(range(cs.ell - 1))
    reversal = range(cs.ell - 1, -1, -1)
    for (g, u), part in zip(profile.self_recip, cs.self_parts):
        label = f"self slot u={u}"
        if part.k:
            if not part.closed_under(shift):
                raise PreconditionViolation(f"{label}: constituent is not cyclic")
            e = slot_conj_exp(profile.base, g.degree)
            if not part.closed_under(reversal, e):
                raise PreconditionViolation(f"{label}: constituent is not conjugate-reversible")
    for (_, _, v), (cp, cpp) in zip(profile.pairs, cs.pair_parts):
        label = f"pair slot v={v}"
        if cp != cpp:
            raise PreconditionViolation(f"{label}: paired constituents differ")
        if cp.k:
            if not cp.closed_under(shift):
                raise PreconditionViolation(f"{label}: constituent is not cyclic")
            if not cp.closed_under(reversal):
                raise PreconditionViolation(f"{label}: constituent is not reversible")
    code = from_constituents(cs)
    lcd = code.expand().hull_dim("euclidean") == 0
    return code, lcd
