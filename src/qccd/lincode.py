"""Linear codes by generator matrix over a finite field.

Generator matrices are kept in canonical reduced row-echelon form, so code
equality is a plain matrix comparison.  Every elimination of one matrix
(``rref``, ``LinearCode.contains``) runs through the field's one row
operation ``FiniteField.row_sub_raw``; a stack of matrices is reduced in
numpy one row at a time inside a set of columns (``_reduce_stack``, on bit
masks ``_reduce_gf2_stack``), and its Gram matrices are formed whole (``_gram``).

Minimum distance is exact.  One Brouwer-Zimmermann engine,
``bz_min_distance``, gives one distance per code of a stack: a stack of one
for ``LinearCode.min_distance`` (k <= n - k), a block of candidates for the
double-circulant search.  Codes with k > n - k enumerate their dual.

Enumeration (``weight_distribution``) is projective: scalar multiples of a
codeword share its weight, so one codeword per class of nonzero scalar
multiples is visited and counted q - 1 times, which divides the work by
q - 1.  Each row adds its scalar multiples to the span built so far in one
broadcast vector add.  A code is always spanned over its own field; a
constituent of a quasi-cyclic code is first taken into its own subfield
(``qc._own_field``).
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .errors import (
    FieldMismatch,
    LengthMismatch,
    NotSquareOrderField,
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

    def __init__(self, field: FiniteField, n: int, rows, pivot_cols=None):
        # rows must already be canonical RREF; use from_rows otherwise
        self.field = field
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.k = len(self.rows)
        if pivot_cols is None:
            pivot_cols = [next(j for j, x in enumerate(r) if x) for r in self.rows]
        self.pivot_cols = tuple(pivot_cols)
        self._dmin = None

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
    def _conj_exp(self, conj_exp: int | None) -> int:
        if conj_exp is not None:
            return conj_exp
        F = self.field
        if F.k % 2:
            raise NotSquareOrderField(f"{F} has no square order")
        return F.p ** (F.k // 2)

    def conjugate_code(self, conj_exp: int | None = None) -> "LinearCode":
        e = self._conj_exp(conj_exp)
        F = self.field
        rows = [[F.pow_raw(x, e) for x in r] for r in self.rows]
        return LinearCode.from_rows(F, self.n, rows)

    def gram(self, form: str = "euclidean", conj_exp: int | None = None) -> list[list[int]]:
        e = 1 if form == "euclidean" else self._conj_exp(conj_exp)
        rows = np.array(self.rows, dtype=np.int64).reshape(1, self.k, self.n)
        return _gram(self.field, rows, e)[0].tolist()

    def hull_dim(self, form: str = "euclidean", conj_exp: int | None = None) -> int:
        """dim(C ∩ C^dual) for the Euclidean or Hermitian form, as the rank
        defect of the Gram matrix."""
        if self.k == 0:
            return 0
        gram = self.gram(form, conj_exp)
        _, pivots = rref(self.field, gram)
        return self.k - len(pivots)

    def is_lcd(self, form: str = "euclidean", conj_exp: int | None = None) -> bool:
        verdict = self.hull_dim(form, conj_exp) == 0
        if form == "hermitian" and self.k > 0:
            # independent cross-check through the conjugate-dual intersection
            other = self.intersect(self.conjugate_code(self._conj_exp(conj_exp)).dual())
            if (other.k == 0) != verdict:
                raise AssertionError("Hermitian LCD cross-check disagreement")
        return verdict

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
        q^min(k, n - k) above ``ENUM_CAP`` is refused."""
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        if self._dmin is not None:
            return self._dmin
        q, k, n = self.field.order, self.k, self.n
        small = min(k, n - k)
        if q**small > ENUM_CAP:
            raise TooLargeToEnumerate(
                f"min(q^k, q^(n-k)) = {q}^{small} exceeds the enumeration cap"
            )
        if k <= n - k:
            d = int(bz_min_distance(self.field, [self.rows], self.pivot_cols)[0])
        else:
            dual_dist = weight_distribution(self.field, self.dual().rows, n)
            d = _min_weight_from_dual(dual_dist, n, q)
        self._dmin = d
        return d


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def _mod(A: np.ndarray, p: int) -> np.ndarray:
    """A mod p in place (A fresh): numpy divides ~3x faster than it takes a remainder."""
    A -= A // p * p
    return A


def _vadd(field: FiniteField, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized field addition of raw codes (broadcasting)."""
    p = field.p
    if p == 2:
        return np.bitwise_xor(A, b)
    if field.k == 1:
        return _mod(A + b, p)
    out = np.zeros(np.broadcast_shapes(A.shape, b.shape), dtype=A.dtype)
    for i in range(field.k):
        pi = p**i
        out += _mod((A // pi) + (b // pi), p) * pi
    return out


def _span_weights_gf2(masks) -> np.ndarray:
    """Popcounts of all 2^k XOR combinations of the bit masks, one per
    coefficient vector (the empty combination first)."""
    arr = np.zeros(1, dtype=np.int64)
    for w in masks:
        arr = np.concatenate([arr, np.bitwise_xor(arr, np.int64(w))])
    return np.bitwise_count(arr)


@lru_cache(maxsize=None)
def _np_tables(field: FiniteField):
    """(EXP, LOG) with EXP[LOG[a] + LOG[b]] = a b for all a, b: LOG[0] points into zeros."""
    exp, log = field.tables()
    n = field.order - 1
    EXP = np.zeros(4 * n + 1, dtype=np.int64)
    EXP[:2 * n - 1] = exp[:2 * n - 1]
    return EXP, np.array([2 * n] + log[1:], dtype=np.int64)


def _vmul(field: FiniteField, A: np.ndarray, B: np.ndarray, e: int = 1) -> np.ndarray:
    """A B^e entrywise on raw codes (e < 0 needs B nonzero), from the exp/log
    tables, or a b mod p over a prime field."""
    if field.k == 1 and e == 1:
        return _mod(A * B, field.p)
    EXP, LOG = _np_tables(field)
    if e == 1:
        return EXP[LOG[A] + LOG[B]]
    return np.where(B == 0, 0, EXP[LOG[A] + LOG[B] * e % (field.order - 1)])


def _row_multiples(field: FiniteField, R: np.ndarray) -> np.ndarray:
    """s * R for every field element s on a new first axis.  Scalars vary
    fastest in memory: spans built from them inherit it and enumerate ~1.4x
    faster."""
    s = np.arange(field.order, dtype=np.int64)
    return np.moveaxis(_vmul(field, s, R[..., None]), -1, 0)


def _gram(field: FiniteField, stack, e: int = 1) -> np.ndarray:
    """X conj(X)^T, conj(x) = x^e, for each X of a (B, k, n) stack; over an
    extension field the products are taken about ``_SUMS`` at a time."""
    X, p = np.asarray(stack, dtype=np.int64), field.p
    if field.k == 1:  # e = 1; integer products summed before one reduction
        return _mod(X @ X.swapaxes(1, 2), p)
    B, k, n = X.shape
    step, parts = max(1, _SUMS // max(1, k * k * n)), []
    for i in range(0, max(B, 1), step):
        P = _vmul(field, X[i:i + step, :, None], X[i:i + step, None], e)
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
    an array of raw codes or, over GF(2), one bit mask."""
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


def _reduce_gf2(masks: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Bit-mask rows reduced to unit pivot columns inside the mask cols, one
    per row that has a bit there when its turn comes, and those columns."""
    g, pivots = list(masks), []
    for r in range(len(g)):
        low = g[r] & cols
        if low:
            bit, row = low & -low, g[r]
            g = [x ^ row if x & bit else x for x in g]
            g[r] = row
            pivots.append(bit.bit_length() - 1)
    return g, pivots


def _reduce_gf2_stack(masks, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_gf2`` of each row of a (B, k) stack of bit masks, one numpy
    step per row: the reduced stack and the (B, k) pivot bits, 0 for a row
    with no bit inside cols at its turn."""
    g = np.array(masks, dtype=np.int64)
    bits = np.zeros_like(g)
    for r in range(g.shape[1]):
        row, low = g[:, r].copy(), g[:, r] & cols
        bits[:, r] = bit = low & -low
        g ^= np.where(g & bit[:, None], row[:, None], 0)
        g[:, r] = row
    return g, bits


def _reduce_stack(field: FiniteField, stack, cols) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_gf2`` of each matrix of a (B, k, n) stack of raw codes over
    any field, inside a list of columns, one numpy step per row: the reduced
    stack and the (B, k) pivot columns, -1 for a row zero inside cols at its
    turn.  A step takes the matrices that pivot, the whole stack if all do."""
    M = np.array(stack, dtype=np.int64)
    B, k, _ = M.shape
    cols, pivots = np.asarray(cols, dtype=np.intp), np.full((B, k), -1)
    for r in range(k if cols.size else 0):
        c = cols[(M[:, r, cols] != 0).argmax(axis=1)]
        lead = M[np.arange(B), r, c]  # 0: no pivot in this matrix
        b = slice(None) if lead.all() else np.flatnonzero(lead)
        X, c = M[b], c[b]
        row = _vmul(field, X[:, r], lead[b, None], -1)
        f = _vmul(field, field.neg_raw(1), X[np.arange(len(X)), :, c])
        X = _vadd(field, X, _vmul(field, f[:, :, None], row[:, None]))
        X[:, r] = row
        M[b], pivots[b, r] = X, c
    return M, pivots


def _multiples(field: FiniteField, mats) -> np.ndarray:
    """mults[j, s - 1] = s * mats[j] for every nonzero scalar s, in the
    narrowest unsigned type that holds the sum of two raw codes, so the
    row sums built from it are a fraction of the int64 size.  Built about
    ``_SUMS`` entries at a time: no int64 temporary of the whole."""
    mats = np.array(mats, dtype=np.min_scalar_type(2 * field.order - 2))
    scalars = np.arange(1, field.order)[:, None, None]
    mults = np.empty((len(mats), field.order - 1, *mats.shape[1:]), dtype=mats.dtype)
    step = max(1, _SUMS // max(1, mults[0].size))
    for i in range(0, len(mats), step):
        mults[i:i + step] = _vmul(field, scalars, mats[i:i + step, None])
    return mults


def bz_min_distance(field: FiniteField, stack, pivots) -> np.ndarray:
    """Minimum distance of each code of a (B, k, n) stack of generators that
    are the identity at ``pivots``, by one Brouwer-Zimmermann search.

    Matrix j > 1 of a code is its generator reduced inside its still-unused
    columns; r_j counts its new pivots there.  A set of rank r raises
    ``_bz_bound`` only from w = k - r on, so a code stops taking sets when,
    at the best rank min(k, unused columns), its search would stop before
    that anyway: the bound already reaches its lightest row, or k = 1.
    Codes with the same used columns are reduced together (``_reduce_stack``
    or ``_reduce_gf2_stack``), a lone code by the list ``rref`` or
    ``_reduce_gf2``, faster on one small matrix.  For w = 1, 2, ... the
    sums of w rows with first coefficient 1 of each matrix stand for all
    words of information weight w; a code stops when its bound reaches the
    lightest word seen, and at w = k at the latest.
    Binary codes with n <= 63 run on int64 bit masks (XOR, popcount);
    other row sums run in the narrow type of ``_multiples``.
    """
    G = np.asarray(stack, dtype=np.int64)
    codes, k, n = G.shape
    packed = field.order == 2 and n <= 63
    if packed:
        G, weigh = G @ (1 << np.arange(n, dtype=np.int64)), np.bitwise_count
    else:
        weigh = lambda words: np.count_nonzero(words, axis=-1)  # noqa: E731
    best = weigh(G).min(axis=1).astype(np.int64)
    mats, owner, ranks = list(G), list(range(codes)), [[k] for _ in range(codes)]
    used = [frozenset(pivots)] * codes
    live = list(range(codes)) if k > 1 else []
    while live:
        live = [b for b in live if len(used[b]) < n]
        if not live:
            break
        depth = [k - min(k, n - len(used[b])) - 1 for b in live]  # before a set can add
        go = _bz_bound([ranks[b] for b in live], k, depth) < best[live]
        groups = {}
        for b in np.array(live)[go].tolist():
            groups.setdefault(used[b], []).append(b)
        live = []
        for cols, members in groups.items():
            unused = [c for c in range(n) if c not in cols]
            if packed:
                mask = sum(1 << c for c in unused)
                if len(members) == 1:
                    reduced, new = zip(_reduce_gf2(G[members[0]].tolist(), mask))
                else:
                    reduced, bits = _reduce_gf2_stack(G[members], mask)
                    new = [[b.bit_length() - 1 for b in p if b] for p in bits.tolist()]
            elif len(members) == 1:
                order = unused + sorted(cols)
                reduced, piv = zip(rref(field, G[members[0]][:, order].tolist()))
                new = [[order[c] for c in piv[0] if c < len(unused)]]
            else:
                reduced, piv = _reduce_stack(field, G[members], unused)
                new = [[c for c in p if c >= 0] for p in piv.tolist()]
            for b, g, got in zip(members, reduced, new):
                if got:
                    mats.append(g)
                    owner.append(b)
                    ranks[b].append(len(got))
                    used[b] = cols.union(got)
                    live.append(b)
    ranks = np.array(list(itertools.zip_longest(*ranks, fillvalue=0))).T  # 0: no set
    owner = np.array(owner)
    mults = np.array(mats, dtype=np.int64)[:, None] if packed else _multiples(field, mats)
    bounds = _bz_bound(ranks, k, np.arange(1, k + 1)[:, None])  # (w, code)
    for w in range(1, k + 1):
        for words in _row_sums(field, mults, w):
            np.minimum.at(best, owner, weigh(words).min(axis=1))
        keep = (bounds[w - 1] < best)[owner]
        if not keep.any():
            break
        if not keep.all():
            mults, owner = mults[keep], owner[keep]
    return best


def _weight_counts(W: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(np.count_nonzero(W, axis=1), minlength=n + 1)


def weight_distribution(field: FiniteField, rows, n: int) -> np.ndarray:
    """Hamming weight distribution of the span of rows over the field.
    Exact integer counts, one per coefficient vector, so dependent and zero
    rows count with multiplicity.

    lambda*c has the weight of c for every nonzero scalar lambda.  A nonzero
    coefficient vector with first nonzero entry at row i is
    lambda*(rows[i] + span(rows[i+1:])) for one lambda, so each of those
    words is enumerated once and counted q - 1 times.
    """
    rows = [list(r) for r in rows]
    k = len(rows)
    dist = np.zeros(n + 1, dtype=np.int64)
    if k == 0:
        dist[0] = 1
        return dist
    q = field.order
    if q**k > ENUM_CAP:
        raise TooLargeToEnumerate(f"{q}^{k} codewords exceed the enumeration cap")

    if q == 2 and n <= 62:
        packed = [sum(1 << j for j, x in enumerate(r) if x) for r in rows]
        return np.bincount(_span_weights_gf2(packed), minlength=n + 1).astype(np.int64)

    # scalar multiples of every row, mults[:, i] a (q, n) array
    R = np.array(rows, dtype=np.int64)
    mults = _row_multiples(field, R)

    def spanned(i, span):
        # span(rows[i:]) from span(rows[i+1:]): one broadcast add
        return _vadd(field, mults[:, i, None, :], span[None, :, :]).reshape(-1, n)

    # the last j rows are spanned inside one array (the base); each row
    # before them leads a set of offsets, each added to the whole base
    j = 0
    while j < k and q ** (j + 1) <= _CHUNK:
        j += 1
    split = k - j
    base = np.zeros((1, n), dtype=np.int64)
    for i in range(k - 1, split - 1, -1):
        dist += _weight_counts(_vadd(field, base, R[i]), n)
        if i:
            base = spanned(i, base)

    span = np.zeros((1, n), dtype=np.int64)
    block = max(1, _CHUNK // len(base))
    for i in range(split - 1, -1, -1):
        offsets = _vadd(field, span, R[i])
        for b in range(0, len(offsets), block):
            W = _vadd(field, offsets[b:b + block, None, :], base[None, :, :])
            dist += _weight_counts(W.reshape(-1, n), n)
        if i:
            span = spanned(i, span)

    dist *= q - 1
    dist[0] += 1
    return dist


def min_weight(field: FiniteField, rows, n: int) -> int:
    dist = weight_distribution(field, rows, n)
    for i in range(1, n + 1):
        if dist[i] > 0:
            return i
    raise ValueError("the span contains no nonzero codeword")


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
