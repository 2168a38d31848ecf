"""Linear codes by generator matrix over a finite field.

Generator matrices are kept in canonical reduced row-echelon form, so code
equality is a plain matrix comparison.  Every elimination of one matrix
(``rref``, ``LinearCode.contains``) runs through the field's one row
operation ``FiniteField.row_sub_raw``; a stack of matrices is reduced in
numpy one row at a time, each matrix inside its own mask of free columns
(``_reduce_stack``, on planes ``_reduce_planes_stack``).  ``_gram`` forms
X conj(Y)^T for every pair of a stack whole: the Gram matrices of
``LinearCode.gram``, and the products in F_q[x]/(x^m - 1) of the
double-circulant LCD screen.

Minimum distance is exact.  One Brouwer-Zimmermann engine,
``bz_min_distance``, gives one distance per code of a stack: a stack of one
for ``LinearCode.min_distance`` (k <= n - k), exact; a block of candidates
for the double-circulant search, with a floor, where only the block's
first largest distance above the floor must be exact.  Each round of
information sets is one masked elimination of every code still taking a
set, and the rows of each new set lower its code's lightest word at once.
Codes with k > n - k enumerate their dual.

Both engines share one word layout (``_words``): for n <= 64 codes over
GF(2), GF(3) and GF(4) as P = 1 or 2 uint64 planes (bitsliced after
Boothby and Bradshaw; GF(2) the one-plane case), all others as raw codes;
and one source of scalar multiples (``_multiples``).  Enumeration
(``weight_distribution``) is projective: scalar multiples of a codeword
share its weight, so past the span of the last rows, built whole and
counted once, one codeword per class of nonzero scalar multiples is
visited, in blocks of about ``_CHUNK``, and counted q - 1 times.  A code
is always spanned over its own field; a constituent of a quasi-cyclic code
is first taken into its own subfield (``qc._own_field``).
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache, reduce
from math import comb

import numpy as np

from .errors import (
    FieldMismatch,
    LengthMismatch,
    TooLargeToEnumerate,
)
from .field import FiniteField

ENUM_CAP = 1 << 24
_CHUNK = 1 << 16
_SUMS = 1 << 14  # entries per block of BZ row sums, 16 KB per array for q <= 128
MAX_LENGTH = 64  # longest n, m, ell and m*ell taken from input: commands end in seconds


def rref(field: FiniteField, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    n = len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        if lead != 1:
            # lead^-1 * row, as 0 - (-lead^-1) * row
            rows[r] = field.row_sub_raw([0] * n, field.neg_raw(field.inv_raw(lead)), rows[r])
        pivot_row = rows[r]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = field.row_sub_raw(row, row[c], pivot_row)
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivot_cols


class LinearCode:
    """[n, k] linear code with a canonical RREF generator matrix."""

    def __init__(self, field: FiniteField, n: int, rows, pivot_cols):
        # rows must already be canonical RREF; use from_rows otherwise
        self.field = field
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.k = len(self.rows)
        self.pivot_cols = tuple(pivot_cols)

    @classmethod
    def from_rows(cls, field: FiniteField, n: int, rows) -> "LinearCode":
        rows = list(rows)
        for r in rows:
            if len(r) != n:
                raise LengthMismatch(f"row of length {len(r)}, expected {n}")
        reduced, pivots = rref(field, rows)
        return cls(field, n, reduced, pivots)

    # -- basics ------------------------------------------------------------
    def params(self) -> tuple[int, int]:
        return self.n, self.k

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and other.field is self.field
            and other.n == self.n
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.n, self.rows))

    def __repr__(self):
        return f"LinearCode({self.field}, [{self.n},{self.k}])"

    def _check_compat(self, other: "LinearCode"):
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if other.n != self.n:
            raise LengthMismatch(f"lengths {self.n} vs {other.n}")

    def contains(self, vec) -> bool:
        F = self.field
        v = list(vec)
        if len(v) != self.n:
            raise LengthMismatch(f"vector length {len(v)}, expected {self.n}")
        for row, pc in zip(self.rows, self.pivot_cols):
            c = v[pc]
            if c:
                v = F.row_sub_raw(v, c, row)
        return not any(v)

    def closed_under(self, perm, power: int = 1) -> bool:
        """Whether the code is closed under c -> (c[perm[0]]^power, ...,
        c[perm[n-1]]^power): a coordinate permutation composed with a
        Frobenius power.  The map is additive, so testing the rows suffices."""
        F = self.field
        return all(
            self.contains([row[j] if power == 1 else F.pow_raw(row[j], power) for j in perm])
            for row in self.rows
        )

    # -- duals, sums, intersections ----------------------------------------
    def dual(self) -> "LinearCode":
        F = self.field
        pivots = set(self.pivot_cols)
        free = [c for c in range(self.n) if c not in pivots]
        rows = []
        for f in free:
            v = [0] * self.n
            v[f] = 1
            for i, pc in enumerate(self.pivot_cols):
                v[pc] = F.neg_raw(self.rows[i][f])
            rows.append(v)
        return LinearCode.from_rows(F, self.n, rows)

    def sum_code(self, other: "LinearCode") -> "LinearCode":
        self._check_compat(other)
        return LinearCode.from_rows(self.field, self.n, list(self.rows) + list(other.rows))

    def intersect(self, other: "LinearCode") -> "LinearCode":
        self._check_compat(other)
        return self.dual().sum_code(other.dual()).dual()

    # -- conjugation and Gram forms ----------------------------------------
    def conjugate_code(self, conj_exp: int | None = None) -> "LinearCode":
        F = self.field
        e = conj_exp or F.conj_exp
        rows = [[F.pow_raw(x, e) for x in r] for r in self.rows]
        return LinearCode.from_rows(F, self.n, rows)

    def gram(self, form: str = "euclidean", conj_exp: int | None = None) -> list[list[int]]:
        if form == "euclidean":
            e = 1
        elif form == "hermitian":
            e = conj_exp or self.field.conj_exp
        else:
            raise ValueError(f"unknown form {form!r}")
        rows = np.array(self.rows, dtype=np.int64).reshape(1, self.k, self.n)
        return _gram(self.field, rows, e)[0].tolist()

    def hull_dim(self, form: str = "euclidean", conj_exp: int | None = None) -> int:
        """dim(C ∩ C^dual) for the Euclidean or Hermitian form, as the rank
        defect of the Gram matrix."""
        if form not in ("euclidean", "hermitian"):
            raise ValueError(f"unknown form {form!r}")
        if self.k == 0:
            return 0
        gram = self.gram(form, conj_exp)
        _, pivots = rref(self.field, gram)
        return self.k - len(pivots)

    # -- systematic form ----------------------------------------------------
    def systematic_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Column-permute so the first k columns are the identity.

        Returns (rows of [I_k : P], perm) where perm[i] is the original
        column sitting at position i.
        """
        pivots = list(self.pivot_cols)
        free = [c for c in range(self.n) if c not in set(pivots)]
        perm = pivots + free
        rows = tuple(tuple(r[c] for c in perm) for r in self.rows)
        return rows, tuple(perm)

    # -- distance -----------------------------------------------------------
    def min_distance(self) -> int:
        """Exact minimum Hamming weight over nonzero codewords:
        ``bz_min_distance`` on the RREF for k <= n - k, else the Krawtchouk
        transform of the smaller dual's weights (faster there, measured).
        q^min(k, n - k) above ``ENUM_CAP`` is refused.  Equal codes share
        one computation: the last 16 distances are kept."""
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        return _min_distance(self)


@lru_cache(maxsize=16)
def _min_distance(code: LinearCode) -> int:
    q, k, n = code.field.order, code.k, code.n
    small = min(k, n - k)
    if q**small > ENUM_CAP:
        raise TooLargeToEnumerate(
            f"min(q^k, q^(n-k)) = {q}^{small} exceeds the enumeration cap"
        )
    if k <= n - k:
        return int(bz_min_distance(code.field, [code.rows], code.pivot_cols)[0])
    return _min_weight_from_dual(weight_distribution(code.field, code.dual().rows, n), n, q)


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def _mod(A: np.ndarray, p: int) -> np.ndarray:
    """A mod p in place (A fresh): numpy divides ~3x faster than it takes a remainder."""
    A -= A // p * p
    return A


def _vadd(field: FiniteField, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized field addition of raw codes or planes (broadcasting)."""
    p = field.p
    if p == 2:  # raw codes and planes alike
        return np.bitwise_xor(A, b)
    if A.dtype == np.uint64:  # GF(3) planes, a plane at a time: an inner loop of 2 is slow
        return np.stack(_padd(p, (A[..., 0], A[..., 1]), (b[..., 0], b[..., 1])), axis=-1)
    if field.k == 1:
        return _mod(A + b, p)
    out = np.zeros(np.broadcast_shapes(A.shape, b.shape), dtype=A.dtype)
    for i in range(field.k):
        pi = p**i
        out += _mod((A // pi) + (b // pi), p) * pi
    return out


def _words(field: FiniteField, stack):
    """The one layout of codewords, for both engines: (words, weigh).  Rows
    of length n <= MAX_LENGTH over GF(2), GF(3) and GF(4) become P uint64
    planes on a last axis (P = 1 over GF(2), 2 over GF(3) and GF(4)), plane
    i bit i of each raw code, weighed by the popcount of their OR; every
    other code stays int64 raw codes, weighed by its nonzero entries along
    the last axis."""
    G = np.asarray(stack, dtype=np.int64)
    if field.order in _PLANES and G.shape[-1] <= MAX_LENGTH:
        P = _PLANES[field.order].shape[1]
        # bit 63 is -2^63 in int64: no sum of distinct bits overflows, and uint64 reads it as 2^63
        words = (G[..., None, :] >> np.arange(P)[:, None] & 1) @ (1 << np.arange(G.shape[-1]))
        return words.view(np.uint64), lambda words: np.bitwise_count(
            reduce(np.bitwise_or, [words[..., i] for i in range(P)]))
    return G, lambda words: np.add.reduce(words != 0, axis=-1)


# s (p0, p1) = e[_PLANES[q][s - 1]] with e = (p0, p1, p0 ^ p1): over GF(3)
# 2 swaps the planes, over GF(4) w (p0, p1) = (p1, p0 ^ p1), w^2 = w + 1;
# a GF(2) word is one plane (p0,), its own only multiple
_PLANES = {2: np.array([[0]]), 3: np.array([[0, 1], [1, 0]]), 4: np.array([[0, 1], [1, 2], [2, 0]])}


@lru_cache(maxsize=None)
def _plane_steps(field: FiniteField) -> np.ndarray:
    """steps[l] = (s, -s, -2s, ..., -(q - 1)s) as _PLANES rows, s = 1/l (1 for
    l = 0): a pivot row R of lead l becomes sR, and a row with c at the pivot adds -csR."""
    F, P = field, _PLANES[field.order]
    return np.array([[P[F.mul_raw(F.neg_raw(c) if c else 1, F.inv_raw(l) if l else 1) - 1]
                      for c in range(F.order)] for l in range(F.order)])


def _padd(p: int, a, b):
    """a + b on tuples of P plane ints or arrays (``_words``): XOR plane by
    plane over GF(2) and GF(4), seven operations on the pair over GF(3)."""
    if p == 2:
        return tuple(map(operator.xor, a, b))
    (a0, a1), (b0, b1) = a, b
    t = (a0 | b1) ^ (a1 | b0)
    return (a1 | b1) ^ t, (a0 | b0) ^ t


@lru_cache(maxsize=None)
def _np_tables(field: FiniteField):
    """(EXP, LOG, INV) with EXP[LOG[a] + LOG[b]] = a b for all a, b (LOG[0]
    points into zeros), INV[a] = a^-1 for a nonzero and INV[0] = 1."""
    exp, log = field.tables()
    n = field.order - 1
    EXP = np.zeros(4 * n + 1, dtype=np.int64)
    EXP[:2 * n - 1] = exp[:2 * n - 1]
    LOG = np.array([2 * n] + log[1:], dtype=np.int64)
    return EXP, LOG, EXP[-LOG % n]


def _vmul(field: FiniteField, A: np.ndarray, B: np.ndarray, e: int = 1) -> np.ndarray:
    """A B^e entrywise on raw codes (e >= 1), from the exp/log tables, or
    a b mod p over a prime field."""
    if field.k == 1 and e == 1:
        return _mod(A * B, field.p)
    EXP, LOG, _ = _np_tables(field)
    if e == 1:
        return EXP[LOG[A] + LOG[B]]
    return np.where(B == 0, 0, EXP[LOG[A] + LOG[B] * e % (field.order - 1)])


def _gram(field: FiniteField, stack, e: int = 1, other=None) -> np.ndarray:
    """X conj(Y)^T, conj(y) = y^e, for each X of a (B, k, n) stack and Y of
    ``other``, a (B, l, n) stack that defaults to X; over an extension
    field the products are taken about ``_SUMS`` at a time."""
    X, p = np.asarray(stack, dtype=np.int64), field.p
    Y = X if other is None else np.asarray(other, dtype=np.int64)
    if field.k == 1:  # e = 1; integer products summed before one reduction
        return _mod(X @ Y.swapaxes(1, 2), p)
    B, k, n = X.shape
    step, parts = max(1, _SUMS // max(1, k * Y.shape[1] * n)), []
    for i in range(0, max(B, 1), step):
        P = _vmul(field, X[i:i + step, :, None], Y[i:i + step, None], e)
        if p == 2:
            parts.append(np.bitwise_xor.reduce(P, axis=-1))
        else:  # digit d of a sum is the sum of the digits d mod p
            parts.append(sum(_mod(_mod(P // p**d, p).sum(axis=-1), p) * p**d
                             for d in range(field.k)))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann minimum distance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _subsets(k: int, w: int) -> np.ndarray:
    """The w-subsets of range(k) as the columns of a (w, C(k, w)) index
    array of bytes (k <= MAX_LENGTH), built without a tuple per subset."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), w))
    return np.fromiter(flat, dtype=np.int8, count=comb(k, w) * w).reshape(-1, w).T


def _row_sums(field: FiniteField, mults: np.ndarray, w: int):
    """Every sum of w rows with first coefficient 1, for each matrix j,
    from mults[j, s - 1, i] = s * (row i of matrix j): blocks of shape
    (matrices, B, ...) with at most ``_SUMS`` entries in all.  A row may be
    an array of raw codes or P planes (``_words``)."""
    q, k = field.order, mults.shape[2]
    # s * (row i) at (s - 1) k + i, gathered by np.take: ~4x faster than [:, idx]
    flat = mults.reshape(len(mults), k * (q - 1), *mults.shape[3:])
    idx = _subsets(k, w)
    per = (q - 1) ** (w - 1)
    total, block = idx.shape[1] * per, max(1, _SUMS // flat[:, 0].size)
    for start in range(0, total, block):
        # flat index f: subset f // per, coefficients of rows 2..w the
        # base-(q - 1) digits of f % per, all 0 (coefficient 1) when per = 1
        stop = min(start + block, total)
        subset, coef = (slice(start, stop), None) if per == 1 else np.divmod(np.arange(start, stop), per)
        words = flat.take(idx[0, subset], axis=1)
        for t in range(1, w):
            at = idx[t, subset]
            if coef is not None:
                at = at + k * (coef % (q - 1))
                coef //= q - 1
            words = _vadd(field, words, flat.take(at, axis=1))
        yield words


def _bz_bound(ranks, k: int, w) -> np.ndarray:
    """Per code, from its row of (codes, sets) ranks and its depth w: the least
    weight of a word that is no sum of at most w rows of any matrix.  It has
    w + 1 - (k - r_j) nonzeros on the r_j pivots matrix j alone has."""
    terms = np.add(ranks, np.subtract(w, k - 1)[..., None])
    return np.add.reduce(np.maximum(terms, 0, out=terms), axis=-1)


def _reduce_planes(field: FiniteField, words, cols) -> tuple[list[tuple[int, ...]], list[int]]:
    """Rows of P plane ints each (``_words``) reduced to unit pivot columns
    inside the mask cols, one per row that has a bit there when its turn
    comes, and those columns: the pivot row is scaled to lead 1, and each
    row cleared at the pivot."""
    g, pivots, steps, p = [tuple(w) for w in words], [], _plane_steps(field).tolist(), field.p
    top = len(g[0]) - 1 if g else 0  # the raw code at bit b: (p0 & b > 0) | (p_top & b > 0) << top
    for r in range(len(g)):
        row = g[r]
        low = (row[0] | row[-1]) & cols
        if low:
            bit = low & -low
            if not top:  # GF(2): the pivot row is its own scaled row and what each row adds
                add = [row]
            else:
                e = (*row, row[0] ^ row[1])
                row, *add = [tuple(map(e.__getitem__, at))
                             for at in steps[(row[0] & bit > 0) | (row[1] & bit > 0) << 1]]
            g = [_padd(p, w, add[c - 1]) if (c := (w[0] & bit > 0) | (w[-1] & bit > 0) << top)
                 else w for w in g]
            g[r] = row
            pivots.append(bit.bit_length() - 1)
    return g, pivots


def _reduce_planes_stack(field: FiniteField, words, cols) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_planes`` of each matrix of a (B, k, P) stack of planes inside
    the mask cols, one int or a (B,) array, one numpy step per row on rows
    of B contiguous words (held as (P, k, B)): the reduced stack and the
    (B, k) uint64 pivot bits (bit 63 a column), 0 for no pivot."""
    g = np.ascontiguousarray(np.asarray(words, dtype=np.uint64).transpose(2, 1, 0))
    cols, bits = np.asarray(cols, dtype=np.uint64), np.zeros(g.shape[1:], dtype=np.uint64)
    steps, at = _plane_steps(field)[:, :3].transpose(1, 2, 0) * len(words), np.arange(len(words))
    for r in range(g.shape[1]):
        row = g[:, r]
        low = (row[0] | row[-1]) & cols
        bits[r] = bit = low & -low
        c = (g & bit) != 0  # the coefficient of each row at the pivot, a bit per plane
        if len(g) == 1:  # GF(2): the pivot row is its own scaled row and what each row adds
            s, d = row, c * row[:, None]
        else:
            e = np.concatenate([row, row[:1] ^ row[1:]])
            s, u, v = e.take(steps[:, :, c[0, r] + 2 * c[1, r]] + at)  # sR, -sR, -2sR
            d = c[0] * u[:, None] ^ c[1] * v[:, None]  # -c sR: over GF(3) one of c0, c1 is set
        g = g ^ d if field.p == 2 else np.array(_padd(field.p, g, d))
        g[:, r] = s
    return g.transpose(2, 1, 0), bits.T


def _reduce_stack(field: FiniteField, stack, free) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_planes`` of each matrix of a (B, k, n) stack of raw codes over
    any field, inside its free columns, a boolean mask per matrix (B, n) or
    one for all (n,), one numpy step per row: the reduced stack and the
    (B, k) pivot columns, -1 for a row zero inside its free columns at its
    turn."""
    M = np.array(stack, dtype=np.int64, order="C")  # a copy; a strided one slows each step
    B, k, _ = M.shape
    free, pivots, p = np.asarray(free, dtype=bool), np.full((B, k), -1), field.p
    inv, at = _np_tables(field)[2], np.arange(B)
    for r in range(k):
        nonzero = (M[:, r] != 0) & free
        c = nonzero.argmax(axis=1)
        has = nonzero[at, c]  # False: no pivot, the matrix stays as it is (INV[0] = 1)
        row = _vmul(field, M[:, r], inv[M[at, r, c] * has][:, None])
        f, row = (M[at, :, c] * has[:, None])[:, :, None], row[:, None]
        if p == 2:
            M ^= _vmul(field, f, row)
        elif field.k == 1:
            M = _mod(M - f * row, p)
        else:
            M = _vadd(field, M, _vmul(field, _vmul(field, field.neg_raw(1), f), row))
        M[:, r], pivots[:, r] = row[:, 0], np.where(has, c, -1)
    return M, pivots


def _multiples(field: FiniteField, mats) -> np.ndarray:
    """mults[j, s - 1] = s * mats[j] for every nonzero scalar s, in the
    narrowest unsigned type that holds the sum of two raw codes, so the
    row sums built from it are a fraction of the int64 size.  Built about
    ``_SUMS`` entries at a time: no int64 temporary of the whole.  Planes
    (``_words``) take ``_PLANES``."""
    mats = np.asarray(mats)
    if mats.dtype == np.uint64:
        e = np.concatenate([mats, mats[..., :1] ^ mats[..., 1:]], axis=-1)
        return e[..., _PLANES[field.order]].transpose(0, 2, 1, 3)
    mats = mats.astype(np.min_scalar_type(2 * field.order - 2))
    scalars = np.arange(1, field.order)[:, None, None]
    mults = np.empty((len(mats), field.order - 1, *mats.shape[1:]), dtype=mats.dtype)
    step = max(1, _SUMS // max(1, mults[0].size))
    for i in range(0, len(mats), step):
        mults[i:i + step] = _vmul(field, scalars, mats[i:i + step, None])
    return mults


def bz_min_distance(field: FiniteField, stack, pivots, floor: int | None = None) -> np.ndarray:
    """Minimum distance of each code of a (B, k, n) stack of generators that
    are the identity at ``pivots``, by one Brouwer-Zimmermann search.

    Matrix j > 1 of a code is its generator reduced inside its still-unused
    columns; r_j counts its new pivots there.  A set of rank r raises
    ``_bz_bound`` only from w = k - r on, so a code stops taking sets when,
    at the best rank min(k, unused columns), its search would stop before
    that anyway: the bound already reaches its lightest row, or k = 1.
    Used columns are int bit masks.  A round reduces every code still
    taking a set in one elimination, each inside its own unused columns
    (``_reduce_planes_stack`` on planes, else ``_reduce_stack``, with a mask
    per code); a lone code takes ``_reduce_planes`` on ints, or the list
    ``rref``, faster on one small matrix.  The rows of each new set lower its code's lightest word at
    once, so the next round's test sees them.  For w = 1, 2, ... the
    sums of w rows with first coefficient 1 of each matrix stand for all
    words of information weight w (for w = 1 the rows, already weighed); a
    code is done when its bound reaches the lightest word seen, and at
    w = k at the latest.

    With a ``floor`` only the stack's first largest distance is wanted, and
    only if it is above the floor.  A code whose lightest row is at most
    the floor takes no sets.  After each depth, with L the largest distance
    of the done codes, an open code is dropped when its lightest word is at
    most the floor, below L, or equal to L after the first done code at L.
    So the first largest entry is exact when it is above the floor, every
    entry is an upper bound on its distance that beats neither it nor the
    floor, and the largest entry is at most the floor otherwise.  A dropped
    code's lightest word is not its distance, so it never counts as done.
    Words take the layout of ``_words`` (P = 1 or 2 planes for n <= 64 over
    GF(2), GF(3), GF(4)), row sums of raw codes the type of ``_multiples``.
    """
    G = np.asarray(stack, dtype=np.int64)
    codes, k, n = G.shape
    G, weigh = _words(field, G)
    packed = G.dtype == np.uint64  # planes, else raw codes
    best = weigh(G).min(axis=1).astype(np.int64)
    mats, owner, ranks = [G], list(range(codes)), [[k] for _ in range(codes)]
    full = (1 << n) - 1
    used = [sum(1 << c for c in pivots)] * codes  # bit masks of the used columns
    live = list(range(codes)) if k > 1 else []
    while live:
        live = [b for b in live if used[b] != full]
        depth = [k - min(k, n - used[b].bit_count()) - 1 for b in live]  # before a set can add
        go = _bz_bound([ranks[b] for b in live], k, depth) < best[live]
        if floor is not None:
            go &= best[live] > floor
        live = list(itertools.compress(live, go))
        if not live:
            break
        free = [full ^ used[b] for b in live]
        if len(live) == 1:
            b = live[0]
            if packed:
                g, piv = _reduce_planes(field, G[b].tolist(), free[0])
            else:  # the free columns first
                order = sorted(range(n), key=lambda c: used[b] >> c & 1)
                g, piv = rref(field, G[b][:, order].tolist())
                piv = [order[c] for c in piv if c < n - used[b].bit_count()]
            reduced, new = np.array([g], dtype=G.dtype), [sum(1 << c for c in piv)]
        elif packed:
            reduced, bits = _reduce_planes_stack(field, G[live], free)
            new = bits.sum(axis=1).tolist()
        else:
            width = n // 8 + 1  # bytes of an n-bit mask, whatever n is
            free = b"".join(f.to_bytes(width, "little") for f in free)
            free = np.unpackbits(np.frombuffer(free, np.uint8).reshape(-1, width), axis=1,
                                 count=n, bitorder="little").view(bool)
            reduced, piv = _reduce_stack(field, G[live], free)
            bit = np.append(1 << np.arange(n, dtype=object), 0)  # bit[-1]: no pivot
            new = bit[piv].sum(axis=1).tolist()
        best[live] = np.minimum(best[live], weigh(reduced).min(axis=1))
        took = [i for i, got in enumerate(new) if got]
        for i in took:
            ranks[live[i]].append(new[i].bit_count())
            used[live[i]] |= new[i]
        live = [live[i] for i in took]
        mats.append(reduced[took])
        owner += live
    ranks = np.array(list(itertools.zip_longest(*ranks, fillvalue=0))).T  # 0: no set
    owner = np.array(owner)
    mats = np.concatenate(mats)
    mults = mats[:, None] if k == 1 else _multiples(field, mats)  # k = 1: no row sums
    bounds = _bz_bound(ranks, k, np.arange(1, k + 1)[:, None])  # (w, code)
    dropped = np.zeros(codes, dtype=bool)
    for w in range(1, k + 1):
        for words in _row_sums(field, mults, w) if w > 1 else ():  # rows: weighed above
            np.minimum.at(best, owner, weigh(words).min(axis=1))
        done = (bounds[w - 1] >= best) & ~dropped
        if floor is not None:
            top = best[done].max(initial=floor)
            later = np.arange(codes) > np.argmax(done & (best == top)) if top > floor else True
            dropped |= ~done & ((best < top) | (best == top) & later)
        keep = ~(done | dropped)[owner]
        if not keep.any():
            break
        if not keep.all():
            mults, owner = mults[keep], owner[keep]
    return best


def weight_distribution(field: FiniteField, rows, n: int) -> np.ndarray:
    """Hamming weight distribution of the span of rows over the field.
    Exact integer counts, one per coefficient vector, so dependent and zero
    rows count with multiplicity.

    The span of the last rows (the base, at most ``_CHUNK`` words) is built
    whole and counted once.  A coefficient vector whose first nonzero entry
    is at row i before the base gives lambda*(rows[i] + span(rows[i+1:]))
    for one nonzero lambda, of the weight of rows[i] + span(rows[i+1:]), so
    those words are enumerated once, in blocks of about ``_CHUNK``, and
    counted q - 1 times.
    """
    k = len(rows)
    dist = np.zeros(n + 1, dtype=np.int64)
    if k == 0:
        dist[0] = 1
        return dist
    q = field.order
    if q**k > ENUM_CAP:
        raise TooLargeToEnumerate(f"{q}^{k} codewords exceed the enumeration cap")
    words, weigh = _words(field, rows)
    mults = _multiples(field, words[None])[0]  # mults[s - 1, i] = s * rows[i]

    def spanned(i, span):
        # span(rows[i:]) from span(rows[i+1:]): it, and one broadcast add of the multiples of row i
        return np.concatenate([span, _vadd(field, mults[:, i, None], span).reshape(-1, *span.shape[1:])])

    def count(W):
        return np.bincount(weigh(W).ravel(), minlength=n + 1)

    split = k - next(j for j in range(k, -1, -1) if q**j <= _CHUNK)
    base = np.zeros_like(mults[0, :1])
    for i in range(k - 1, split - 1, -1):
        base = spanned(i, base)
    dist += count(base)

    span, block = np.zeros_like(base[:1]), max(1, _CHUNK // len(base))
    for i in range(split - 1, -1, -1):
        offsets = _vadd(field, span, mults[0, i])
        for b in range(0, len(offsets), block):
            dist += (q - 1) * count(_vadd(field, offsets[b:b + block, None], base))
        if i:
            span = spanned(i, span)
    return dist


def _krawtchouk(j: int, i: int, n: int, q: int) -> int:
    return sum(
        (-1) ** t * (q - 1) ** (j - t) * comb(i, t) * comb(n - i, j - t)
        for t in range(min(i, j) + 1)
    )


def _min_weight_from_dual(dual_dist: np.ndarray, n: int, q: int) -> int:
    """Minimum nonzero weight of C from the weight distribution of its dual."""
    dual_size = int(dual_dist.sum())
    counts = [int(c) for c in dual_dist]
    for j in range(1, n + 1):
        num = sum(c * _krawtchouk(j, i, n, q) for i, c in enumerate(counts) if c)
        if num % dual_size:
            raise AssertionError("weight-enumerator transform gave a non-integer count")
        if num // dual_size > 0:
            return j
    raise ValueError("the code contains no nonzero codeword")
