"""Linear and cyclic codes over constructed fields.

Generator matrices are normalized to reduced row-echelon form, so two
codes are equal exactly when their stored matrices are equal.  Minimum
distance is computed exactly by one of two strategies (codeword
enumeration, or a search for the smallest dependent column set of a
parity-check matrix), each guarded by an explicit budget.  Strategy
"auto" runs whichever of the two has the lower estimated cost among
those that fit their budgets (``distance_strategy``); both give the same
answer, so the choice only moves the running time.

Enumeration is one encoding kernel, ``_encode`` (float matrix products
over prime fields, lookup tables up to order 64, field operations
above), fed by one of two message generators.  The projective pass
encodes only the messages whose most significant nonzero digit is 1,
(q^k - 1)/(q - 1) of the q^k: nonzero multiples of a word have its
weight, and the multiple with top digit 1 comes first in codeword
order, so the pass still finds the first least-weight word
(``min_weight_codeword``).  For ``min_distance`` alone, a code with N >=
2 disjoint information sets may instead be searched by the
Brouwer-Zimmermann method (``_min_weight_bz``): messages of weight t = 1,
2, ... on each set's systematic generator, until the least weight seen
meets the floor N (t + 1) that every word not yet seen exceeds.  It runs
when its estimated cost is lower (``_enumeration_plan``).  Either way
the enumeration budget bounds q^k.

The parity search runs in layers of increasing weight w.  Each layer is
decided by one of two exact searches, whichever is estimated cheaper for
(q, n, k, w): a collision of half-supports, costed by the syndromes it
tabulates and streams, C(n, ceil(w/2)) (q-1)^(ceil(w/2)-1) +
C(n, floor(w/2)) (q-1)^floor(w/2) entries; or one rank check per w-subset
of columns, costed at C(n, w) w^2 (n - k) units.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import Factorization, Field, Poly
from .errors import InternalConsistencyError, ResourceLimitError


class Budget(NamedTuple):
    """Caps on exact distance work: ``enum`` on the q^k codewords of an
    enumeration, ``rank`` on the parity search's subset-rank checks."""

    enum: int = 1 << 24
    rank: int = 10 ** 7


ENUM_BUDGET_DEFAULT, RANK_BUDGET_DEFAULT = Budget()

# numpy enumeration uses lookup tables up to this field order
_NUMPY_TABLE_MAX = 64
# messages encoded per block by the numpy paths and by the pure-Python path
_CHUNK = 1 << 18
_PY_CHUNK = 1 << 8

# Nanoseconds per unit of work of each distance kernel, for the cost
# rules in distance_strategy, _enumeration_plan and _min_weight_parity.
# Enumeration does k * n units per message encoded, plus a fixed cost per
# block of messages after the first, and the Brouwer-Zimmermann search
# one elimination of k^2 * n units per information set, charged at the
# rank-check rate; layer w of the parity search does C(n, w) * w^2 *
# (n - k) units by rank checks, or tabulates and streams the entries
# counted in _layer_costs by collision.  Measured on 2-core x86-64,
# Python 3.11, numpy 2.4, one BLAS thread.  Projective passes over random
# [2k, k] and [3k, k] codes (F_2 k <= 18 up to F_256 k = 2): 1.9-5.2 ns
# over prime fields (median 3.4; float matrix product), 18-25 ns on the
# lookup-table path (median 20.5), 740-1870 ns on the pure-Python path
# (F_81..F_256, median 1130).  The search on Reed-Solomon codes over
# F_7..F_49, binary Golay, Reed-Muller and BCH codes and random [2k..4k,
# k] codes: the same rate per message on large runs, and 50 us (prime)
# to 85 us (lookup tables) per block beyond it (medians); finding the
# information sets, 180-540 ns per k^2 n unit over prime fields and
# 330-1540 ns over extension fields.  The rank and collision figures are
# medians over layers searched to the end (a layer that finds its word
# stops early), over F_2..F_9, F_16, F_25, F_27, F_49, F_67 and F_125
# (layers of at least 5000 entries or 50000 units): collision 213 ns per
# entry in characteristic 2, where addition is xor (105-422), and 431 ns
# in odd characteristic (222-714).  Rank checks, one rref per subset on every
# field (layers of at most 20000 subsets, two draws of random codes):
# 259-261 ns over prime fields (128-494), 342-386 ns over extension
# fields (113-1118), 301-310 ns over both.
_ENUM_NS = {"prime": 3.5, "table": 20.0, "python": 1100.0}
_BLOCK_NS = 60000.0
_RANK_NS = 300.0
_COLLISION_NS_CHAR2 = 210.0
_COLLISION_NS_ODD = 430.0


def rref(rows: Iterable[Sequence[int]], field: Field
         ) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Reduced row-echelon form with leading ones.

    Returns (echelon rows including zero rows, rank, pivot columns).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0, ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        if inv != 1:
            mat[r] = field.scale_row(inv, mat[r])
        row = mat[r]
        for i, other in enumerate(mat):
            if i != r and other[c] != 0:
                mat[i] = field.axpy(other, field.neg(other[c]), row)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat), r, tuple(pivots)


@dataclass(frozen=True)
class LinearCode:
    """A linear code of length n, stored as an RREF generator matrix.

    ``rows`` holds only the nonzero rows, so the dimension is len(rows).
    The zero code has an empty row tuple.
    """

    field: Field
    n: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, field: Field, n: int,
                  rows: Iterable[Sequence[int]]) -> "LinearCode":
        mat = [tuple(r) for r in rows]
        for r in mat:
            if len(r) != n:
                raise ValueError(f"row length {len(r)} != code length {n}")
            for v in r:
                if not 0 <= v < field.order:
                    raise ValueError(f"entry {v} outside field of order "
                                     f"{field.order}")
        ech, rank, piv = rref(mat, field)
        return cls(field, n, ech[:rank], piv)

    @classmethod
    def zero(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, (), ())

    @classmethod
    def full(cls, field: Field, n: int) -> "LinearCode":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n))
                     for i in range(n))
        return cls(field, n, rows, tuple(range(n)))

    @property
    def k(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Residual of a vector after subtracting its pivot components."""
        F = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                v = F.axpy(v, F.neg(c), row)
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            return False
        return all(v == 0 for v in self.reduce(vec))

    def dual(self) -> "LinearCode":
        """The code of vectors orthogonal to every generator row."""
        F = self.field
        n = self.n
        free = [c for c in range(n) if c not in self.pivots]
        basis = []
        for f in free:
            v = [0] * n
            v[f] = 1
            for row, p in zip(self.rows, self.pivots):
                v[p] = F.neg(row[f])
            basis.append(v)
        return LinearCode.from_rows(F, n, basis)

    def codewords(self):
        """Iterate all codewords (messages in base-q counting order: the
        digit of row i has place value q^i)."""
        q = self.field.order
        k = self.k
        for idx in range(q ** k):
            msg = []
            t = idx
            for _ in range(k):
                msg.append(t % q)
                t //= q
            yield tuple(_combine(self.field, msg, self.rows, self.n))


def _combine(F: Field, coefs: Sequence[int],
             rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The combination of the rows with the given coefficients."""
    word = [0] * n
    for coef, row in zip(coefs, rows):
        word = F.axpy(word, coef, row)
    return word


# ---------------------------------------------------------------------------
# minimum distance


@lru_cache(maxsize=None)
def _enum_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """The field's addition and multiplication tables."""
    q = field.order
    add = np.empty((q, q), dtype=np.uint8)
    mul = np.empty((q, q), dtype=np.uint8)
    for a in range(q):
        for b in range(q):
            add[a, b] = field.add(a, b)
            mul[a, b] = field.mul(a, b)
    return add, mul


def _enum_path(F: Field) -> str:
    """Arithmetic of the enumeration kernel: "prime" (matrix products),
    "table" (lookup tables) or "python" (field operations)."""
    if F.is_prime:
        return "prime"
    return "table" if F.order <= _NUMPY_TABLE_MAX else "python"


def _encode(F: Field, M: np.ndarray, G: Sequence[Sequence[int]]
            ) -> np.ndarray:
    """The codewords M G, one per message row of M (field indices, the
    digit of row i of G in column i)."""
    path = _enum_path(F)
    if path == "prime":
        q = F.order
        if len(G) * (q - 1) * (q - 1) < 1 << 50:
            # The products are integers below 2^50, exact in a float64.
            # x / q is correctly rounded: exact when q divides x, and
            # otherwise within a quarter of 1/q of x / q, which is at
            # least 1/q from an integer; so the floor is exact.  It is
            # several times faster than the float remainder x % q.
            X = M @ np.array(G, dtype=np.float64)
            T = np.divide(X, q)
            np.floor(T, out=T)
            T *= q
            X -= T
            return X
        return (M.astype(np.int64) @ np.array(G, dtype=np.int64)) % q
    if path == "table":
        add, mul = _enum_tables(F)
        Gt = np.array(G, dtype=np.uint8)
        C = np.zeros((len(M), Gt.shape[1]), dtype=np.uint8)
        for i, row in enumerate(Gt):
            C = add[C, mul[M[:, i][:, None], row[None, :]]]
        return C
    return np.array([_combine(F, msg, G, len(G[0])) for msg in M.tolist()],
                    dtype=np.int64)


def _digits(idx: np.ndarray, base: int, k: int, dtype) -> np.ndarray:
    """The k base-``base`` digits of each index, least significant
    first."""
    out = np.empty((len(idx), k), dtype=dtype)
    for i in range(k):
        out[:, i] = idx % base
        idx = idx // base
    return out


def _chunk_and_dtype(F: Field) -> tuple[int, type]:
    """Messages per block and the dtype of their digits (float64 over
    prime fields, the operand of the matrix product)."""
    path = _enum_path(F)
    if path == "python":
        return _PY_CHUNK, np.int64
    return _CHUNK, np.uint8 if path == "table" else np.float64


def _projective_messages(F: Field, k: int):
    """Blocks of the messages whose most significant nonzero digit is 1,
    in increasing index order: the spans [q^t, 2 q^t) for t = 0..k-1,
    (q^k - 1)/(q - 1) messages in all.  A block may join several spans,
    so a short code is one block."""
    q = F.order
    chunk, dtype = _chunk_and_dtype(F)
    block, size = [], 0
    for t in range(k):
        lo, end = q ** t, 2 * q ** t
        while lo < end:
            hi = min(end, lo + chunk - size)
            block.append(np.arange(lo, hi))
            size, lo = size + hi - lo, hi
            if size == chunk or (t == k - 1 and lo == end):
                yield _digits(np.concatenate(block), q, k, dtype)
                block, size = [], 0


def _weight_messages(F: Field, k: int, t: int):
    """Blocks of the messages with exactly t nonzero digits, the most
    significant of them 1: C(k, t) (q - 1)^(t - 1) messages in all."""
    q = F.order
    chunk, dtype = _chunk_and_dtype(F)
    count = (q - 1) ** (t - 1)
    flat = chain.from_iterable(combinations(range(k), t))
    while True:
        S = np.fromiter(islice(flat, t * max(1, chunk // count)),
                        dtype=np.intp).reshape(-1, t)
        if not len(S):
            return
        for lo in range(0, count, chunk):
            coef = np.ones((min(chunk, count - lo), t), dtype=dtype)
            coef[:, :-1] += _digits(np.arange(lo, lo + len(coef)), q - 1,
                                    t - 1, dtype)
            M = np.zeros((len(S) * len(coef), k), dtype=dtype)
            rows = np.arange(len(M)).reshape(len(S), len(coef))
            M[rows[:, :, None], S[:, None, :]] = coef[None, :, :]
            yield M


def _min_weight_enum(code: LinearCode) -> tuple[int, tuple[int, ...]]:
    """Least weight over the nonzero codewords, and the first codeword of
    that weight in the order of ``LinearCode.codewords``.

    Only the messages whose most significant nonzero digit is 1 are
    encoded.  Every nonzero codeword is a multiple of exactly one of
    them, and multiples have equal weight.  Of a word's multiples, the
    one whose top digit is 1 has the lowest index, because 1 is the
    least nonzero digit; so the first word of least weight in codeword
    order is among those encoded."""
    F = code.field
    best_w, best = code.n + 1, None
    for M in _projective_messages(F, code.k):
        C = _encode(F, M, code.rows)
        w = np.count_nonzero(C, axis=1)
        i = int(w.argmin())
        if w[i] < best_w:
            best_w, best = int(w[i]), tuple(int(v) for v in C[i])
            if best_w == 1:
                break
    return best_w, best


@lru_cache(maxsize=None)
def _information_sets(code: LinearCode
                      ) -> tuple[tuple[tuple[int, ...],
                                       tuple[tuple[int, ...], ...]], ...]:
    """Pairwise disjoint information sets, each with the generator matrix
    that is systematic on it: (columns, rows) pairs in which rows[i] is 1
    in columns[i] and 0 in the set's other columns.

    The first set is the pivots of the code's own RREF.  Each next one
    is the pivots of the RREF taken with the columns not yet used put
    first, while those columns still have rank k.
    """
    F, n, k = code.field, code.n, code.k
    found = [(code.pivots, code.rows)]
    used = set(code.pivots)
    while n - len(used) >= k:
        order = [c for c in range(n) if c not in used] + sorted(used)
        ech, _, piv = rref([[row[c] for c in order] for row in code.rows], F)
        if piv[-1] >= n - len(used):
            break
        place = {c: i for i, c in enumerate(order)}
        cols = tuple(order[p] for p in piv)
        found.append((cols, tuple(tuple(row[place[c]] for c in range(n))
                                  for row in ech)))
        used.update(cols)
    return tuple(found)


def _min_weight_bz(code: LinearCode, sets) -> int:
    """Least weight over the nonzero codewords, by enumeration over
    pairwise disjoint information sets (Brouwer-Zimmermann: Zimmermann
    1996; Grassl, "Searching for linear codes with large minimum
    distance", 2006).

    ``sets`` holds N generator matrices G_1..G_N systematic on pairwise
    disjoint information sets I_1..I_N, so the codeword m G_j agrees with
    the message m on I_j.  Level t encodes on G_1, ..., G_N in turn the
    messages with exactly t nonzero digits, the most significant of them
    1; any other message of weight t is a nonzero multiple of one of
    these, and its codeword has the same weight.  Once level t is done on
    G_1..G_j, every codeword not yet seen is m G_i with wt(m) > t for
    i <= j and wt(m) > t - 1 for i > j: it has more than t nonzero
    symbols on each of I_1..I_j and at least t on each of the others.
    The sets are disjoint, so its weight is at least N t + j.  The search
    stops as soon as the least weight seen is at most that floor, and
    level k on G_1 alone covers every codeword.
    """
    F, k = code.field, code.k
    N = len(sets)
    best = code.n + 1
    for t in range(1, k + 1):
        for j, (_, G) in enumerate(sets, 1):
            for M in _weight_messages(F, k, t):
                C = _encode(F, M, G)
                best = min(best, int(np.count_nonzero(C, axis=1).min()))
            if best <= N * t + j or t == k:
                return best
    return best


def _bz_work(q: int, k: int, N: int, cap: int) -> tuple[int, int]:
    """(messages, steps) of the longest run of ``_min_weight_bz`` with N
    information sets, given that the first set's rows include a codeword
    of weight at most cap; a step is one level on one set."""
    words = steps = 0
    for t in range(1, k + 1):
        level = comb(k, t) * (q - 1) ** (t - 1)
        for j in range(1, N + 1):
            words, steps = words + level, steps + 1
            if N * t + j >= cap or t == k:
                return words, steps
    return words, steps


def _distance_cap(code: LinearCode) -> int:
    """An upper bound on the minimum distance: min(n - k + 1, least
    weight of a generator row)."""
    return min(code.n - code.k + 1,
               min(sum(1 for v in row if v) for row in code.rows))


def _enumeration_plan(code: LinearCode, limit: float = float("inf")
                      ) -> tuple[float, tuple | None]:
    """(estimated nanoseconds, information sets or None) of exact
    enumeration on this code.

    A projective pass encodes (q^k - 1)/(q - 1) messages.  The
    Brouwer-Zimmermann search needs N >= 2 disjoint information sets, at
    most n // k of them.  It runs when its worst-case message count
    (``_bz_work``, with the cap of ``_distance_cap``) is below the
    projective count and its estimated time is below the projective
    pass's.  Each estimate charges k n units per message and a fixed
    cost per block of messages after the first; the search's also
    charges an elimination of k^2 n units per set.  The sets are only
    looked for when the search's least estimate over N = 2..n // k is
    below both the projective pass's and ``limit`` (the cost of another
    kernel that would win anyway).
    """
    F = code.field
    q, n, k = F.order, code.n, code.k
    unit = k * n * _ENUM_NS[_enum_path(F)]
    projective = (q ** k - 1) // (q - 1)
    blocks = -(-projective // _chunk_and_dtype(F)[0])
    plan = (projective * unit + (blocks - 1) * _BLOCK_NS, None)
    cap = _distance_cap(code)

    def search_ns(N: int) -> float:
        words, steps = _bz_work(q, k, N, cap)
        if words >= projective:
            return float("inf")
        return words * unit + (steps - 1) * _BLOCK_NS \
            + N * k * k * n * _RANK_NS

    beat = min(plan[0], limit)
    if 2 * k * k * n * _RANK_NS >= beat:   # below any search estimate
        return plan
    least = min((search_ns(N) for N in range(2, n // k + 1)),
                default=float("inf"))
    if least < beat:
        sets = _information_sets(code)
        ns = search_ns(len(sets))
        if len(sets) >= 2 and ns < plan[0]:
            plan = (ns, sets)
    return plan


def _rank_layer(F: Field, cols: list[tuple[int, ...]], w: int) -> bool:
    """Whether some w of the parity-check columns are dependent, by one
    elimination per column subset."""
    return any(rref([cols[j] for j in subset], F)[1] < w
               for subset in combinations(range(len(cols)), w))


def _syndrome_packing(F: Field, rho: int):
    """Vectors of F_q^rho as Python ints, for the collision search.

    Every base-p digit of every coordinate gets its own slot of bits.  In
    characteristic 2 a slot is one bit and vector addition is xor.  For
    odd p a slot has b bits with 2^(b-1) >= p: the sum of two reduced
    digits stays inside its slot, and adding 2^(b-1) - p to every slot
    sets a slot's top bit exactly where its digit sum reached p, which is
    where p is subtracted.  Returns (pack, width, add): pack(x) is the
    element x as coordinate 0, and coordinate r sits width * r bits
    higher.
    """
    p = F.char
    bits = 1 if p == 2 else (p - 1).bit_length() + 1
    width = bits * F.degree
    if p == 2:
        return (lambda x: x), width, operator.xor

    def pack(x: int) -> int:
        packed, t = 0, 0
        while x:
            packed |= (x % p) << (bits * t)
            x //= p
            t += 1
        return packed

    ones = ((1 << (width * rho)) - 1) // ((1 << bits) - 1)
    bias = ((1 << (bits - 1)) - p) * ones
    top = (1 << (bits - 1)) * ones

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & top) >> (bits - 1)) * p

    return pack, width, add


def _column_multiples(F: Field, cols: list[tuple[int, ...]], packing,
                      count: int) -> list[list[int]]:
    """Packed c * h for the nonzero c = 1, ..., count (field indices) of
    every column h.

    c * h is F_p-linear in the digits of c, so only the multiples by a
    single power p^i are computed in the field; any other c * h adds the
    multiple of c's lowest nonzero place to that of c minus that place.
    """
    pack, width, add = packing
    places = [0] * (count + 1)
    for c in range(1, count + 1):
        place = 1
        while c % (place * F.char) == 0:
            place *= F.char
        places[c] = place
    out = []
    for col in cols:
        mult = [0] * (count + 1)
        for c in range(1, count + 1):
            place = places[c]
            mult[c] = add(mult[c - place], mult[place]) if place != c \
                else sum(pack(F.mul(c, v)) << (width * r)
                         for r, v in enumerate(col))
        out.append(mult[1:])
    return out


def _weighted_prefixes(multiples: list[list[int]], add, size: int, lo: int,
                       hi: int, normalised: bool
                       ) -> list[tuple[int, int, int]]:
    """(syndrome, support mask, last position) of every choice of size
    positions in range(lo, hi - 1) with nonzero coefficients, leaving
    room for one more position below hi; with normalised the first
    coefficient is 1."""
    level = [(0, 0, lo - 1)]
    for t in range(size):
        nxt = []
        for s, mask, last in level:
            for j in range(last + 1, hi - size + t):
                bit = 1 << j
                for v in multiples[j][:1] if normalised and t == 0 \
                        else multiples[j]:
                    nxt.append((add(s, v), mask | bit, j))
        level = nxt
    return level


def _collision_layer(multiples: list[list[int]], add, w: int) -> bool:
    """Whether some w parity-check columns are dependent, given that no
    fewer are, by collision of half-supports (Stern 1989).

    A word of weight w, scaled so its first coefficient is 1, splits into
    its first a = ceil(w/2) positions and its last b = floor(w/2), and
    the two halves' syndromes cancel.  The syndromes of all normalised
    a-subsets below n - b go into a table, and those of all weighted
    b-subsets from a on are streamed against it; since the coefficients
    range over every nonzero value, the streamed set is closed under
    negation.  Any hit between disjoint halves is a nonzero word of
    weight w.  Halves that overlap span fewer than w positions, so their
    difference is the zero word: the same support with the same
    coefficients, a half meeting itself, which only even w allows and
    which is skipped.  A skip never hides a word: the table keeps the
    first of equal syndromes, and a word's left half comes before its
    right half.  For even w two table entries with one syndrome differ
    by a nonzero word of weight at most 2a = w, which settles the layer
    at once.
    """
    n = len(multiples)
    a, b = (w + 1) // 2, w // 2
    table: dict[int, int] = {}
    for s, mask, last in _weighted_prefixes(multiples, add, a - 1, 0, n - b,
                                            True):
        for j in range(last + 1, n - b):
            support = mask | 1 << j
            for v in multiples[j] if a > 1 else multiples[j][:1]:
                if table.setdefault(add(s, v), support) != support \
                        and a == b:
                    return True
    if b == 0:
        return 0 in table
    for s, mask, last in _weighted_prefixes(multiples, add, b - 1, a, n,
                                            False):
        for j in range(last + 1, n):
            support = mask | 1 << j
            for v in multiples[j]:
                hit = table.get(add(s, v))
                if hit is not None and hit != support:
                    return True
    return False


def _layer_costs(F: Field, n: int, k: int, w: int) -> tuple[float, float]:
    """Estimated nanoseconds of layer w of the parity search: by collision
    (table entries) and by rank checks (C(n, w) * w^2 * (n - k) units)."""
    q = F.order
    a, b = (w + 1) // 2, w // 2
    entries = comb(n, a) * (q - 1) ** (a - 1) + comb(n, b) * (q - 1) ** b
    collision = entries * (_COLLISION_NS_CHAR2 if F.char == 2
                           else _COLLISION_NS_ODD)
    rank = comb(n, w) * w * w * (n - k) * _RANK_NS
    return collision, rank


def _min_weight_parity(code: LinearCode, budget: Budget) -> int:
    """Smallest w such that some w parity-check columns are dependent.

    Layers run in increasing w, each by collision of half-supports or by
    rank checks, whichever is estimated cheaper; either search decides
    exactly whether a word of weight w exists, given that no lighter one
    does.  Before each layer the cumulative subset count is checked
    against the budget, so the search either completes exactly or
    rejects upfront, never mid-layer with a wrong answer.
    """
    F = code.field
    H = code.dual().rows
    rho = len(H)
    n, k = code.n, code.k
    cols = [tuple(row[j] for row in H) for j in range(n)]
    packing = multiples = None
    checked = 0
    for w in range(1, rho + 2):
        checked += comb(n, w)
        if checked > budget.rank:
            raise ResourceLimitError(
                f"instance too large: parity-check search needs up to "
                f"{checked} subset-rank checks, budget is {budget.rank}")
        collision_ns, rank_ns = _layer_costs(F, n, k, w)
        if collision_ns < rank_ns:
            count = 1 if w == 1 else F.order - 1
            if multiples is None or len(multiples[0]) < count:
                packing = packing or _syndrome_packing(F, rho)
                multiples = _column_multiples(F, cols, packing, count)
            found = _collision_layer(multiples, packing[2], w)
        else:
            found = _rank_layer(F, cols, w)
        if found:
            return w
    raise InternalConsistencyError(
        "no dependent column set of size redundancy+1 exists")


def distance_strategy(code: LinearCode, *, budget: Budget = Budget()
                      ) -> str:
    """The kernel min_distance(strategy="auto") runs on this code:
    "enumeration" or "parity".

    Enumeration is only a candidate when its q^k codewords fit
    budget.enum.  Its estimated time counts the messages it encodes:
    (q^k - 1)/(q - 1) for a projective pass, or the worst case of the
    information-set search where that runs (``_enumeration_plan``).  The
    parity search stops at layer d, and d is at most cap = min(n - k +
    1, least weight of a generator row), since every row is a codeword;
    it is only a candidate when its worst-case subset count up to cap
    fits budget.rank, so it cannot run out of budget.  Its estimated
    time is the sum over the layers up to cap of the cheaper of the
    layer's two searches (``_layer_costs``).  Between two candidates the
    lower estimated time wins; with neither, the answer is "parity",
    whose search then reports the exhausted budget.
    """
    if code.k == 0:
        raise ValueError("zero code has no minimum distance")
    F = code.field
    q, n, k = F.order, code.n, code.k
    if q ** k > budget.enum:
        return "parity"
    layers = range(1, _distance_cap(code) + 1)
    if sum(comb(n, w) for w in layers) > budget.rank:
        return "enumeration"
    parity_ns = sum(min(_layer_costs(F, n, k, w)) for w in layers)
    if parity_ns < _enumeration_plan(code, parity_ns)[0]:
        return "parity"
    return "enumeration"


def min_distance(code: LinearCode, *, budget: Budget = Budget(),
                 strategy: str = "auto") -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    Strategy "enumeration" enumerates the codewords up to scalar
    multiples, by a projective pass or by the search over disjoint
    information sets, and needs q^k within budget.enum; "parity"
    searches for the smallest linearly dependent set of parity-check
    columns; "auto" runs the one ``distance_strategy`` picks, the cheaper
    by estimate among those within budget.  Weight counts nonzero
    symbols of the code's own alphabet.  The zero code is rejected;
    budget exhaustion raises ResourceLimitError rather than returning a
    wrong answer.

    Answers of strategy "auto" are cached for the life of the process,
    keyed by (code, budget); the code is its RREF generator matrix, so
    equal codes share an entry.  Exceptions are not cached, so a call
    raises exactly where a first call with the same budget would.  A
    named strategy always runs its kernel.
    """
    if strategy not in ("auto", "enumeration", "parity"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if code.k == 0:
        raise ValueError("zero code has no minimum distance")
    if code.k == code.n:
        return 1
    if strategy == "auto":
        return _auto_distance(code, budget)
    return _run_kernel(code, strategy, budget)


@lru_cache(maxsize=None)
def _auto_distance(code: LinearCode, budget: Budget) -> int:
    return _run_kernel(code, distance_strategy(code, budget=budget), budget)


def _check_enumeration(code: LinearCode, budget: Budget) -> None:
    """Raise ResourceLimitError unless q^k fits the enumeration budget."""
    if code.field.order ** code.k > budget.enum:
        raise ResourceLimitError(
            f"instance too large: {code.field.order}^{code.k} codewords "
            f"exceed the enumeration budget {budget.enum}")


def _run_kernel(code: LinearCode, strategy: str, budget: Budget) -> int:
    if strategy == "parity":
        return _min_weight_parity(code, budget)
    _check_enumeration(code, budget)
    sets = _enumeration_plan(code)[1]
    if sets:
        return _min_weight_bz(code, sets)
    return _min_weight_enum(code)[0]


def min_weight_codeword(code: LinearCode, *, budget: Budget = Budget()
                        ) -> tuple[int, tuple[int, ...]]:
    """A codeword of minimum weight, found by enumeration: the first one
    in the order of ``LinearCode.codewords``.

    Returns (weight, word), for small codes (recovery vectors).  Answers
    are cached per code for the life of the process; q^k beyond
    budget.enum is rejected before the cache, so errors are never cached.
    """
    if code.k == 0:
        raise ValueError("zero code has no minimum-weight codeword")
    _check_enumeration(code, budget)
    return _first_min_weight_word(code)


@lru_cache(maxsize=None)
def _first_min_weight_word(code: LinearCode) -> tuple[int, tuple[int, ...]]:
    return _min_weight_enum(code)


# ---------------------------------------------------------------------------
# cyclic codes


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of length m given by a monic generator polynomial
    dividing x^m - 1.  Generator x^m - 1 itself encodes the zero code."""

    field: Field
    m: int
    gpoly: Poly

    @property
    def k(self) -> int:
        return self.m - self.gpoly.degree

    @lru_cache(maxsize=None)
    def linear_code(self) -> LinearCode:
        """Generator matrix rows x^t * g for t = 0..k-1 (cached)."""
        g = list(self.gpoly.coeffs)
        rows = []
        for t in range(self.k):
            row = [0] * self.m
            for i, c in enumerate(g):
                row[t + i] = c
            rows.append(row)
        return LinearCode.from_rows(self.field, self.m, rows)

    @lru_cache(maxsize=None)
    def dual(self) -> "CyclicCode":
        """Cyclic dual: reciprocal of (x^m - 1)/g, normalized monic
        (cached)."""
        F = self.field
        xm1 = Poly.x_pow(F, self.m).sub(Poly.one(F))
        h, rem = xm1.divmod(self.gpoly)
        if not rem.is_zero():
            raise InternalConsistencyError("generator does not divide x^m-1")
        return CyclicCode(F, self.m, h.reciprocal().monic())


def cyclic_code(g: Poly, m: int) -> CyclicCode:
    """The cyclic code of length m generated by g; g must divide x^m - 1."""
    F = g.field
    xm1 = Poly.x_pow(F, m).sub(Poly.one(F))
    gm = g.monic() if not g.is_zero() else g
    if gm.is_zero() or not gm.divides(xm1):
        raise ValueError(f"generator does not divide x^{m} - 1")
    return CyclicCode(F, m, gm)


def cyclic_dual(code: CyclicCode) -> CyclicCode:
    return code.dual()


def subcode_from_bz(I: Iterable[int], fact: Factorization) -> CyclicCode:
    """The cyclic code whose dual's basic zero set is the negated factor
    roots selected by I (1-based factor indices into the factorization).

    The code is the cyclic dual of the code generated by the product of
    the minimal polynomials of the selected roots' inverses.  It is built
    once per index set and kept in ``fact._subcode_cache``.
    """
    key = frozenset(I)
    got = fact._subcode_cache.get(key)
    if got is not None:
        return got
    if not key:
        raise ValueError("empty index set")
    polys = []
    for i in sorted(key):
        if not 1 <= i <= fact.num_factors:
            raise ValueError(f"factor index {i} out of range")
        u = fact.factors[i - 1].rep
        minpoly = fact.factor_by_member(-u % fact.m).poly
        if minpoly not in polys:
            polys.append(minpoly)
    g = Poly.one(fact.field)
    for p in polys:
        g = g.mul(p)
    got = fact._subcode_cache[key] = cyclic_code(g, fact.m).dual()
    return got


def subcode_distance(fact: Factorization, I: Iterable[int], *,
                     budget: Budget = Budget()) -> int:
    """Minimum distance of subcode_from_bz(I, fact), through the cache of
    min_distance, so the budget binds as in a first call."""
    return min_distance(subcode_from_bz(I, fact).linear_code(),
                        budget=budget)
