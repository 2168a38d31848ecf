"""LCD code builders: Hermitian-LCD extension of systematic codes,
double-circulant criterion and exhaustive/random search, and subfield
descent through a self-dual basis."""
from __future__ import annotations

import hashlib
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BasisFieldMismatch,
    DegreeTooLarge,
    EvenCharacteristic,
    NoSelfDualBasisExists,
    NotCoprime,
    NotSquareOrderField,
    NotSystematic,
    SearchExhausted,
    TooLargeToEnumerate,
)
from .field import FieldElement, FiniteField, field_from_order, make_field
from .lincode import _CHUNK, ENUM_CAP, LinearCode, _gram, _reduce_stack, bz_min_distance
from .lincode import _reduce_gf2_stack
from .polyring import Poly, poly_gcd, xm_minus_one
from .qc import QcCode

SEARCH_CAP = 1 << 20
_DC_BLOCK = 128  # candidates tested at once by _dc_scan
_ORBIT_BATCH = 256  # unseen serials taken at once by _dc_orbits


# ---------------------------------------------------------------------------
# Hermitian LCD extension  [I:P] -> [I:P:P] or [I:P:aP]
# ---------------------------------------------------------------------------

def find_a(field: FiniteField) -> FieldElement:
    """First element a (canonical enumeration) with a^(s+1) = -1, where the
    field order is s^2 with s odd."""
    if field.p == 2:
        raise EvenCharacteristic("a^(s+1) = -1 is only needed in odd characteristic")
    if field.k % 2:
        raise NotSquareOrderField(f"{field} has no square order")
    s = field.p ** (field.k // 2)
    minus_one = field.neg_raw(1)
    for a in range(field.order):
        if field.pow_raw(a, s + 1) == minus_one:
            return FieldElement(field, a)
    raise SearchExhausted("no element with a^(s+1) = -1 found")  # unreachable


def hermitian_lcd_extend(Ct: LinearCode) -> LinearCode:
    """From a systematic [l, k] code build a Hermitian LCD [2l-k, k] code
    whose Gram matrix is exactly the identity."""
    F = Ct.field
    if F.k % 2:
        raise NotSquareOrderField(f"{F} has no square order")
    k, ell = Ct.k, Ct.n
    for i, row in enumerate(Ct.rows):
        if any(row[j] != (1 if j == i else 0) for j in range(k)):
            raise NotSystematic("generator is not of the form [I_k : P]")
    P = [row[k:] for row in Ct.rows]
    if F.p == 2:
        tail = P
    else:
        a = find_a(F).raw
        tail = [[F.mul_raw(a, x) for x in row] for row in P]
    rows = [list(Ct.rows[i]) + list(tail[i]) for i in range(k)]
    return LinearCode.from_rows(F, 2 * ell - k, rows)


# ---------------------------------------------------------------------------
# double circulant codes
# ---------------------------------------------------------------------------

def double_circulant(base: FiniteField, m: int, a: Poly) -> QcCode:
    if a.degree >= m:
        raise DegreeTooLarge(f"deg a = {a.degree} must be < m = {m}")
    return QcCode.make(base, m, 2, [(Poly.one(base), a)])


def dc_is_lcd(base: FiniteField, m: int, a: Poly) -> bool:
    """gcd(a(x) a(x^(m-1)) + 1, x^m - 1) = 1: the LCD criterion for
    <(1, a)>, kept as the oracle of the search's Gram-rank test."""
    if math.gcd(m, base.p) != 1:
        raise NotCoprime(f"characteristic {base.p} divides m={m}")
    arev = a.substitute_power(m - 1, m)
    f = a.mul_mod_xm(arev, m) + Poly.one(base)
    if f.is_zero():
        return False
    return poly_gcd(f, xm_minus_one(base, m)).degree == 0


@dataclass(frozen=True)
class DcSearchReport:
    q: int
    m: int
    mode: str
    best_a: tuple[int, ...]   # coefficient codes, low degree first
    best_serial: int
    best_distance: int
    lcd_count: int
    candidates: int
    seed: int | None = None


def _serial_to_coeffs(serial: int, q: int, m: int) -> list[int]:
    return [(serial // q**i) % q for i in range(m)]


@lru_cache(maxsize=None)
def _dc_positions(m: int) -> np.ndarray:
    """G1 = [I | circ(a)] for <(1, a)> as indices into [0, 1, a_0, ...,
    a_(m-1)]: row i is x^i (1, a(x))."""
    i, j = np.ogrid[:m, :m]
    return np.hstack([(i == j).astype(np.intp), 2 + (j - i) % m])


def _dc_orbits(q: int, m: int) -> tuple[list[int], list[int]]:
    """Smallest serial and size of every orbit of a -> x^i a(x^j) mod
    x^m - 1, gcd(j, m) = 1, on the q^m serials, in increasing order.  Both
    maps permute the coordinates of <(1, a)>, so an orbit shares the LCD
    property and the minimum distance.  The next ``_ORBIT_BATCH`` unseen
    serials are taken at a time: their digits times a table of q-powers
    (float64, exact below 2^53) give all m phi(m) images of each.  A serial
    stands for its orbit iff it is the least of them, and the orbit's size
    is m phi(m) over the number of images equal to it."""
    i = np.arange(m)
    space, powers = q**m, q**i  # coefficient i of a moves to j i + shift
    table = np.hstack([q ** ((j * i[:, None] + i) % m)
                       for j in range(m) if math.gcd(j, m) == 1]).astype(np.float64)
    seen = np.zeros(space, dtype=bool)
    reps, sizes = [], []
    lo, span = 0, _ORBIT_BATCH
    while lo < space:
        free = np.flatnonzero(~seen[lo:lo + span])
        if free.size < _ORBIT_BATCH and lo + span < space:
            span *= 2  # too few unseen serials here: look further
            continue
        s = lo + free[:_ORBIT_BATCH]
        images = ((s[:, None] // powers % q).astype(np.float64) @ table).astype(np.int64)
        rep = images.min(axis=1) == s
        reps += s[rep].tolist()
        sizes += (table.shape[1] // (images[rep] == s[rep, None]).sum(axis=1)).tolist()
        seen[images] = True
        lo = int(s[-1]) + 1 if s.size else space
    return reps, sizes


def _dc_screen_gf2(serials, m: int) -> np.ndarray:
    """Massey's LCD test on a block of binary serials, the bit masks of a:
    the Gram matrix of [I | circ(a)] is circ(1 + a a*), whose first row has
    bit j the parity of |a & x^j a|.  It is nonsingular iff
    ``_reduce_gf2_stack`` finds a pivot in every row."""
    a, j, full = np.asarray(serials, dtype=np.int64)[:, None], np.arange(m), (1 << m) - 1
    times_x = lambda b: (b << j | b >> (m - j)) & full  # noqa: E731  x^j b mod x^m - 1, every j
    first = (np.bitwise_count(a & times_x(a)) & 1).astype(np.int64) @ (1 << j) ^ 1
    return _reduce_gf2_stack(times_x(first[:, None]), full)[1].all(axis=1)


def _dc_scan(base: FiniteField, m: int, serials, weights):
    """(lcd_count, best_d, best_serial) over the serials in the given order,
    up to ``_DC_BLOCK`` at a time: an LCD serial counts with its weight, and the
    first serial of the largest distance wins.  G1 = [I | circ(a)], from the
    serials' digits in numpy, is LCD iff G1 G1^T is nonsingular (Massey):
    every row of the block's Gram matrices pivots in one ``_reduce_stack``,
    on bit masks over GF(2) ``_reduce_gf2_stack``.  One ``bz_min_distance``
    call on a block's LCD G1s (pivots 0..m-1) gives their distances; lengths
    2m past a 64-bit mask over GF(2), and q^m above ``ENUM_CAP``, are refused."""
    q = base.order
    # the scalar multiples of a block, about (q - 1) m^2 entries a code, stay near _CHUNK
    size = max(1, min(_DC_BLOCK, _CHUNK // ((q - 1) * m * m)))
    count, best_d, best_serial = 0, -1, -1
    for start in range(0, len(serials), size):
        block = serials[start:start + size]
        if q == 2:
            lcd = _dc_screen_gf2(block, m)
            if lcd.any() and 2 * m > 63:
                raise TooLargeToEnumerate(f"codewords of length {2 * m} exceed a 64-bit mask")
            block = list(itertools.compress(block, lcd))
            g1 = (np.array(block, dtype=np.int64)[:, None] << 2 | 2) >> np.arange(m + 2) & 1
        else:  # [0, 1, a_0, ...] a place at a time: serials reach 2^64 - 1, q^m may pass it
            g1, s = np.zeros((len(block), m + 2), dtype=np.int64), np.array(block, dtype=np.uint64)
            g1[:, 1] = 1
            for i in range(2, m + 2):
                s, g1[:, i] = np.divmod(s, q)
        g1 = g1.reshape(len(block), m + 2)[:, _dc_positions(m)]
        if q > 2:
            lcd = (_reduce_stack(base, _gram(base, g1), range(m))[1] >= 0).all(axis=1)
            if lcd.any() and q**m > ENUM_CAP:
                raise TooLargeToEnumerate(f"{q}^{m} codewords exceed the enumeration cap")
            block, g1 = list(itertools.compress(block, lcd)), g1[lcd]
        if not block:
            continue
        d = bz_min_distance(base, g1, range(m))
        count += sum(w for w, keep in zip(weights[start:start + size], lcd) if keep)
        i = int(d.argmax())  # the first of the block's largest distance
        if d[i] > best_d:
            best_d, best_serial = int(d[i]), block[i]
    return count, best_d, best_serial


def _clamp_workers(workers: int, chunks: int) -> int:
    """Worker processes worth starting: at most one per chunk of work and
    one per CPU."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _random_serials(seed: int, trials: int, space: int):
    for i in range(trials):
        digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest()
        yield int.from_bytes(digest, "big") % space


def dc_search(
    base: FiniteField,
    m: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    trials: int = 0,
    workers: int = 1,
) -> DcSearchReport:
    """Best minimum distance over LCD double circulant codes <(1, a(x))>.

    Exhaustive mode tests one a per orbit of a -> x^i a(x^j) mod x^m - 1,
    gcd(j, m) = 1: these maps permute coordinates, so they keep the LCD
    property and the distance.  The orbit's smallest serial stands for it
    and ``lcd_count`` adds the orbit's size, so the report is the one a
    test of every serial gives, ties broken toward the smallest serial.
    Random mode tests every trial, so a serial drawn twice is counted
    twice in ``lcd_count``; over GF(2) it breaks ties toward the smallest
    serial, and with q > 2 it keeps the first tie in trial order.

    Candidates are tested in blocks (``_dc_scan``) by the rank of the Gram
    matrices of G1 = [I | circ(a)], on bit masks over GF(2), with
    ``dc_is_lcd``, the gcd criterion, as the oracle.
    The distances come from ``lincode.bz_min_distance``, the engine behind
    ``LinearCode.min_distance``, given the G1s with pivots 0..m-1, so G1 is
    never reduced; further information sets lie in the right half.  More
    than ``SEARCH_CAP`` candidates or trials are refused.
    ``workers`` splits the candidates into contiguous chunks, so the report
    is identical for any worker count; it is clamped to the CPUs and the
    candidates.
    """
    if math.gcd(m, base.p) != 1:
        raise NotCoprime(f"characteristic {base.p} divides m={m}")
    q = base.order
    space = q**m
    if mode == "exhaustive":
        if space > SEARCH_CAP:
            raise TooLargeToEnumerate(f"{q}^{m} candidates exceed the search cap")
        serials, weights = _dc_orbits(q, m)
        n_candidates = space
    elif mode == "random":
        if seed is None:
            raise ValueError("random mode requires a seed")
        if trials > SEARCH_CAP:
            raise TooLargeToEnumerate(f"{trials} trials exceed the search cap")
        serials = list(_random_serials(seed, trials, space))
        if q == 2:
            serials.sort()
        weights = [1] * len(serials)
        n_candidates = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")

    workers = _clamp_workers(workers, len(serials))
    if workers > 1:
        size = -(-len(serials) // workers)
        starts = range(0, len(serials), size)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _dc_scan, itertools.repeat(base), itertools.repeat(m),
                [serials[i:i + size] for i in starts], [weights[i:i + size] for i in starts],
            ))
    else:
        parts = [_dc_scan(base, m, serials, weights)]
    # the chunks are in scan order, so the first best one wins
    _, best_d, best_serial = max(parts, key=lambda part: part[1])

    if best_serial < 0:
        raise SearchExhausted("no LCD double circulant candidate found")
    return DcSearchReport(
        q=q,
        m=m,
        mode=mode,
        best_a=tuple(_serial_to_coeffs(best_serial, q, m)),
        best_serial=best_serial,
        best_distance=best_d,
        lcd_count=sum(count for count, _, _ in parts),
        candidates=n_candidates,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# self-dual bases and subfield descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfDualBasis:
    big: FiniteField
    sub: FiniteField
    basis: tuple[FieldElement, ...]

    def __post_init__(self):
        big, sub = self.big, self.sub
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                t = big.trace_raw(big.mul_raw(bi.raw, bj.raw), sub)
                if t != (1 if i == j else 0):
                    raise AssertionError("trace Gram matrix is not the identity")

    def coordinates(self, x: FieldElement) -> list[int]:
        """Coordinates of x relative to the basis, as raw codes of sub."""
        big, sub = self.big, self.sub
        return [big.trace_raw(big.mul_raw(x.raw, b.raw), sub) for b in self.basis]


def self_dual_basis(q: int, ell: int) -> SelfDualBasis:
    """Deterministic self-dual basis of GF(q^ell) over GF(q): normal bases
    are scanned first, then a depth-first orthonormal-set search."""
    sub = field_from_order(q)
    big = make_field(sub.p, sub.k * ell)
    if q % 2 and ell % 2 == 0:
        raise NoSelfDualBasisExists(
            f"no self-dual basis of GF({q}^{ell}) over GF({q}): q odd, ell even"
        )

    tr = big.trace_table(sub)
    unit_norm = [x for x in range(1, big.order) if tr[big.mul_raw(x, x)] == 1]

    # 1) normal bases {alpha^(q^i)}: the trace is Frobenius-invariant, so
    #    Tr(alpha^(q^i) alpha^(q^j)) = Tr(alpha^(1 + q^(j - i)))
    for alpha in unit_norm:
        if all(tr[big.pow_raw(alpha, 1 + q**d)] == 0 for d in range(1, ell)):
            basis = [big.pow_raw(alpha, q**i) for i in range(ell)]
            return SelfDualBasis(big, sub, tuple(FieldElement(big, b) for b in basis))

    # 2) DFS over orthonormal sets in canonical element order
    def dfs(chosen: list[int], rest: list[int]):
        """rest: the later unit-norm elements orthogonal to all of chosen."""
        if len(chosen) == ell:
            return chosen
        for idx, x in enumerate(rest):
            found = dfs(chosen + [x], [y for y in rest[idx + 1:] if tr[big.mul_raw(x, y)] == 0])
            if found:
                return found
        return None

    found = dfs([], unit_norm)
    if found is None:
        raise SearchExhausted(
            f"no self-dual basis of GF({q}^{ell}) over GF({q}) found by search"
        )
    return SelfDualBasis(big, sub, tuple(FieldElement(big, b) for b in found))


def expand_subfield(C: LinearCode, B: SelfDualBasis) -> LinearCode:
    """Image of C under the coordinate map to the subfield: each generator
    row is scaled by every basis element and written in basis coordinates,
    so the result is the full subfield-linear image of C."""
    if C.field is not B.big:
        raise BasisFieldMismatch(f"code over {C.field}, basis for {B.big}")
    big, sub = B.big, B.sub
    rows = []
    for row in C.rows:
        for beta in B.basis:
            scaled = [big.mul_raw(beta.raw, x) for x in row]
            rows.append([big.trace_raw(big.mul_raw(z, b.raw), sub)
                         for z in scaled for b in B.basis])
    result = LinearCode.from_rows(sub, C.n * len(B.basis), rows)
    if result.k != C.k * len(B.basis):
        raise AssertionError("subfield image has unexpected dimension")
    return result
