"""Linear and cyclic codes over constructed fields.

Generator matrices are normalized to reduced row-echelon form, so two
codes are equal exactly when their stored matrices are equal.  Minimum
distance is computed exactly by one of two strategies (codeword
enumeration, or a search for the smallest dependent column set of a
parity-check matrix), each guarded by an explicit budget.  Strategy
"auto" runs whichever of the two has the lower estimated cost among
those that fit their budgets (``distance_strategy``); both give the same
answer, so the choice only moves the running time.

Row reduction (``rref``) holds each row as one Python int, one byte per
entry, over the fields whose sums work byte by byte: F_2^a for a <= 8
and the prime fields below 128.  A row is scaled by ``bytes.translate``
through a 256-byte table per scalar, built once per field from
``algebra.multiplication_table``.  Every other field reduces rows entry
by entry through ``Field.axpy``; both give the same tuples.  These
rows, their tails, the greedy keys of ``construct`` and the words of
uint64 limbs below all add by one rule, the slot-wise add
(``_slot_add``): xor in characteristic 2, otherwise one biased carry
step per slot of bits.

Enumeration is one kernel, a projective pass (``_min_weight_enum``).  It
holds each codeword as a row of uint64 limbs in the slots of the parity
search's syndromes (``_Limbs``), and a word's weight is the
``np.bitwise_count`` of its symbols, each folded to one bit.  The pass
weighs only the words of the messages whose most significant nonzero
digit is 1, (q^k - 1)/(q - 1) of the q^k, built in message order as
spans of the base-p digit rows p^a G_i: nonzero multiples of a word have
its weight, and the multiple with top digit 1 comes first in codeword
order, so the pass finds the first least-weight word
(``min_weight_codeword``) and the distance alike.  The enumeration
budget bounds q^k.

Both kernels know a codeword of weight cap = min(n - k + 1, least
weight of a generator row) before they start (``_distance_cap``).  The
parity search runs in layers of increasing weight w = 2 .. cap - 1 and
answers cap if none holds a word: it stops where its floor meets that
witness.  The RREF decides weight 1, and the tails of its rows (their
entries off the pivots) decide weight 2 on every field and weight 3 over
the fields with byte scalings, with no parity-check matrix built
(``_proportional_tails``, ``_tail_sums``).  Each later layer is decided
on the parity-check columns by one of two exact searches, whichever is
estimated cheaper for (q, n, k, w): a collision of half-supports
compared up to a scalar, or one rank check per w-subset of columns,
costed at C(n, w) w^2 (n - k) units.  The collision search scales every
half's syndrome so that its first nonzero coordinate is 1, tabulates the
smaller half, b = floor(w/2) columns from position a = ceil(w/2) on,
C(n-a, b) (q-1)^(b-1) keys, and streams the larger, C(n-b, a)
(q-1)^(a-1) keys (only those starting below a when w is even), stopping
at the first hit; halves of three or more columns come in lists of about
_BATCH_KEYS keys, so a layer that finds its word stops soon after the
hit.  It is costed by the keys of halves of two or more columns and the
n (q-1) column multiples those halves need (``_collision_entries``); a
half of one column is a packed column itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations, product, repeat, starmap
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import Factorization, Field, Poly, multiplication_table
from .errors import InternalConsistencyError, ResourceLimitError


class Budget(NamedTuple):
    """Caps on exact distance work: ``enum`` on the q^k codewords of an
    enumeration, ``rank`` on the parity search's subset-rank checks."""

    enum: int = 1 << 24
    rank: int = 10 ** 7


ENUM_BUDGET_DEFAULT, RANK_BUDGET_DEFAULT = Budget()

# Codewords per block of a projective pass (``_projective_blocks``), each
# a column of uint64 limbs (``_Limbs``).
_BLOCK_WORDS = 1 << 13

# Nanoseconds per unit of work of each distance kernel, for the cost
# rules in distance_strategy, _enumeration_ns and _min_weight_parity.
# Enumeration weighs each word at one unit per uint64 limb, at a rate per
# characteristic (xor, or the slot-wise add), plus a fixed cost per
# block of a projective pass after the first, and for the first block a
# fixed number of units plus some per digit row p^a G_i it packs and
# spans (k e over F_{p^e}), at the same rate; layer w of the parity
# search does C(n, w) * w^2 * (n - k) units by rank checks, or tabulates
# and streams the entries counted in _collision_entries by collision,
# and a search that runs a collision layer first builds and packs the
# parity-check columns (_PARITY_SETUP_NS); a layer read off the RREF
# visits the entries counted in _tail_entries (_TAIL_NS each).  Measured
# on 2-core x86-64, Python 3.11, numpy 2.4.  Enumeration: random [2k,
# k], [3k, k] and [5k, k] codes over F_2..F_729 (F_2 k <= 20 to F_729 k
# = 2), four seeds, the fastest of three runs each; fitted by least
# squares on the relative error of the runs of at least 1 ms (96 runs):
# 2.9 ns per limb in characteristic 2 and 7.6 ns in odd characteristic,
# 20 and 50 us per block beyond the first; a whole pass of at least 20
# blocks takes 2.3-8.6 ns per limb in characteristic 2 (median 4.7) and
# 7.2-15 ns in odd (median 10.7), its block costs included.
# The rank and collision figures are medians over
# layers searched to the end (a layer that finds its word stops early),
# over F_2..F_9, F_16, F_25, F_27, F_49, F_67 and F_125 (layers of at
# least 5000 entries or 50000 units).  Collision, the normalisation of
# every key included (random codes of two seeds, 24-26 layers in
# characteristic 2 and 57 in odd characteristic per seed, three runs):
# medians 376-416 ns per entry in characteristic 2, where addition is
# xor (141-863; over F_2, where a key is one xor, 220-379), and 598-735
# ns in odd characteristic (279-1726; the most over F_3, where one key in
# two needs a scaling of its own).  Rank checks, one rref per subset on
# every field (layers of at most 20000 subsets, two draws of random
# codes): 259-261 ns over prime fields (128-494), 342-386 ns over
# extension fields (113-1118), 301-310 ns over both.  Fixed costs, from
# cold runs (packed rows not cached), median of 7-9 each, over F_2..F_256:
# a pass of one block costs 52-383 us beyond its words (144 codes, k =
# 2..13, median 126 us), fitted by least squares as 8400 + 2500 k e
# units at the per-limb rate, 25 + 7.5 k e us in characteristic 2 and
# 63 + 19 k e us in odd (measured over estimated: 0.55-2.1, quartiles
# 0.78 and 1.15); building the complement columns [-A^T | I] and their
# normalised packing for a collision layer takes 21-289 us (1200 random
# codes, n = 6..40, over F_2..F_256, F_9, F_25 and F_27, two seeds,
# best of 5; medians 70 and 76 us, 41-42 us for n <= 20).  Layers read
# off the RREF, from parity searches at cap 4 on codes of distance 4
# (layers 2 and 3 to the end, over F_2..F_256 byte fields, 168 codes per
# seed, best of 5), fitted by least squares on the relative error of
# the runs of at least 1000 entries (82 per seed): 106-110 ns per entry;
# medians 96-97 ns in characteristic 2, where a sum is one xor, and
# 216-221 ns in odd characteristic; measured over estimated 0.65-2.5
# (quartiles 0.85 and 1.9).  Runs of fewer entries take 10-240 us
# (median 52-55 us).
_ENUM_NS_CHAR2 = 3.0
_ENUM_NS_ODD = 7.5
_BLOCK_NS = 30000.0
_FIRST_BLOCK_UNITS = 8400.0
_DIGIT_ROW_UNITS = 2500.0
_PARITY_SETUP_NS = 75000.0
_TAIL_NS = 110.0
_RANK_NS = 300.0
_COLLISION_NS_CHAR2 = 400.0
_COLLISION_NS_ODD = 700.0
# Keys per list of halves of three or more columns (see _halves): the
# cost of a list, about 1 us, is then under 1 % of its keys'.
_BATCH_KEYS = 256


def rref(rows: Iterable[Sequence[int]], field: Field
         ) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Reduced row-echelon form with leading ones.

    Returns (echelon rows including zero rows, rank, pivot columns).

    Over F_2^a (a <= 8) and the prime fields below 128, whose sums work
    byte by byte, the rows are held one byte per entry (``_rref_bytes``);
    every other field goes entry by entry through ``Field.axpy``.  Both
    give the same tuples of ints.
    """
    scalings = _byte_scalings(field)
    if scalings is not None:
        return _rref_bytes(rows, field, scalings)
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


@lru_cache(maxsize=None)
def _byte_scalings(field: Field) -> tuple[bytes, ...] | None:
    """For a field whose sums work byte by byte (characteristic 2 or a
    prime p < 128, at most 256 elements), the ``bytes.translate`` table of
    multiplication by each element c: byte b < q maps to c b.  None for
    every other field."""
    q = field.order
    if q > 256 or not (field.char == 2
                       or (field.is_prime and field.char < 128)):
        return None
    table = np.zeros((q, 256), dtype=np.uint8)
    table[:, :q] = multiplication_table(field)
    return tuple(row.tobytes() for row in table)


def _slot_add(p: int, bits: int, ones: int
              ) -> tuple[Callable[[int, int], int], int | None, int | None]:
    """The slot-wise add of vectors held as one int, ``ones`` holding a 1
    at the lowest bit of every slot of ``bits`` bits; and, for odd p, its
    bias and top masks (None for p = 2).

    Every packed-vector add of this module is this one.  In
    characteristic 2 vectors add by xor, whatever their slots hold.  For
    odd p a slot holds one base-p digit and 2^(bits-1) >= p: the sum of
    two reduced digits stays below 2p - 1 < 2^bits, inside its slot, and
    adding the bias 2^(bits-1) - p to every slot sets a slot's top bit
    exactly where its digit sum reached p, which is where p is
    subtracted: s - ((s + bias & top) >> bits - 1) p for s = x + y.
    """
    if p == 2:
        return operator.xor, None, None
    half = 1 << bits - 1
    bias, top, shift = (half - p) * ones, half * ones, bits - 1

    def add(x: int, y: int) -> int:
        s = x + y
        return s - ((s + bias & top) >> shift) * p

    return add, bias, top


def byte_packed_add(field: Field, width: int
                    ) -> Callable[[int, int], int] | None:
    """Addition of vectors of ``width`` entries held as one Python int,
    byte j holding entry j, as the rows of ``_rref_bytes``: the slot-wise
    add (``_slot_add``) with 8-bit slots.  None for a field without byte
    scalings (``_byte_scalings``)."""
    if _byte_scalings(field) is None:
        return None
    return _slot_add(field.char, 8, int.from_bytes(b"\x01" * width,
                                                    "little"))[0]


def _rref_bytes(rows: Iterable[Sequence[int]], field: Field,
                scalings: tuple[bytes, ...]
                ) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """``rref`` with each row one Python int, byte j holding entry j.

    Rows add by the slot-wise add with 8-bit slots (``_slot_add``),
    written out inline with its masks.  A row is scaled by translating
    its bytes through the scalar's table.
    """
    mat = [bytes(r) for r in rows]
    if not mat:
        return (), 0, ()
    ncols = len(mat[0])
    mat = [int.from_bytes(r, "little") for r in mat]
    p = field.char
    _, bias, top = _slot_add(p, 8, int.from_bytes(b"\x01" * ncols, "little"))
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        shift = 8 * c
        mask = 255 << shift
        for pivot in range(r, nrows):
            if mat[pivot] & mask:
                break
        else:
            continue
        row = mat[pivot]
        mat[pivot] = mat[r]
        lead = row >> shift & 255
        if lead != 1:
            row = int.from_bytes(row.to_bytes(ncols, "little").translate(
                scalings[field.inv(lead)]), "little")
        mat[r] = row
        if field.order == 2:
            for i in range(nrows):
                if mat[i] & mask and i != r:
                    mat[i] ^= row
        else:
            # the multiple -a row that clears a coefficient a, by a
            raw = row.to_bytes(ncols, "little")
            multiples = {p - 1: row}
            for i in range(nrows):
                x = mat[i]
                if x & mask and i != r:
                    a = x >> shift & 255
                    m = multiples.get(a)
                    if m is None:
                        m = multiples[a] = int.from_bytes(raw.translate(
                            scalings[a if p == 2 else p - a]), "little")
                    if p == 2:
                        mat[i] = x ^ m
                    else:
                        s = x + m
                        mat[i] = s - ((s + bias & top) >> 7) * p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return (tuple(tuple(x.to_bytes(ncols, "little")) for x in mat), r,
            tuple(pivots))


@dataclass(frozen=True)
class LinearCode:
    """A linear code of length n, stored as an RREF generator matrix.

    ``rows`` holds only the nonzero rows, so the dimension ``k`` is
    len(rows).  The zero code has an empty row tuple.  Every cache keyed
    by a code hashes it, and the distance kernels and the family scans
    read ``k`` on every call, so both are taken once, in the constructor.
    """

    field: Field
    n: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    k: int = dc_field(init=False, repr=False, compare=False)
    _hash: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k", len(self.rows))
        object.__setattr__(self, "_hash",
                           hash((self.field, self.n, self.rows)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_rows(cls, field: Field, n: int,
                  rows: Iterable[Sequence[int]]) -> "LinearCode":
        """The code spanned by ``rows``, each of length n with entries in
        the field; raises ValueError at the first row that is not.

        The row lengths and the set of all entries are checked in one
        pass; only a matrix that fails it is walked row by row, to name
        the first fault.
        """
        mat = [tuple(r) for r in rows]
        vals = set().union(*mat)
        if not {n}.issuperset(map(len, mat)) or vals and not (
                0 <= min(vals) and max(vals) < field.order):
            for r in mat:
                if len(r) != n:
                    raise ValueError(
                        f"row length {len(r)} != code length {n}")
                if r and not 0 <= min(r) <= max(r) < field.order:
                    v = next(v for v in r if not 0 <= v < field.order)
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
        """The code of vectors orthogonal to every generator row
        (``dual_of_span``)."""
        return dual_of_span(self.field, self.n, self.rows)

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
            word = [0] * self.n
            for coef, row in zip(msg, self.rows):
                word = self.field.axpy(word, coef, row)
            yield tuple(word)


def dual_of_span(F: Field, n: int, rows: Sequence[Sequence[int]]
                 ) -> LinearCode:
    """The dual of the span of ``rows`` (length n each, entries in F, any
    rank), from one rref of the rows with their columns reversed.

    The reverse RREF, read back, has every row 1 on its pivot p, 0 on the
    other pivots and 0 past p, so its complement basis (``_complement``)
    starts each vector with its 1: that is the dual's RREF, and no second
    reduction is needed, whether the rows are raw or already reduced.
    """
    ech, rank, piv = rref([row[::-1] for row in rows], F)
    back = [row[::-1] for row in ech[:rank]]
    basis, free = _complement(F, n, back, [n - 1 - c for c in piv])
    return LinearCode(F, n, tuple(map(tuple, basis)), free)


def _complement(F: Field, n: int, rows: Sequence[Sequence[int]],
                pivots: Sequence[int]
                ) -> tuple[list[list[int]], tuple[int, ...]]:
    """The vectors e_f - sum_p R_p[f] e_p for each column f not in
    ``pivots``, in increasing f, and those columns.  Where every row R_p
    is 1 on its pivot p and 0 on the other pivots, the vectors are a
    basis of the dual (``dual_of_span``, ``_min_weight_parity``)."""
    taken = set(pivots)
    free = tuple(c for c in range(n) if c not in taken)
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = F.neg(row[f])
        basis.append(v)
    return basis, free


# ---------------------------------------------------------------------------
# minimum distance


class _Limbs:
    """The vectors of one field as rows of uint64 limbs, the word format
    of both exact searches.

    Every base-p digit of every symbol gets its own slot of b bits, one
    bit in characteristic 2 and the fewest with 2^(b-1) >= p otherwise,
    and vectors add by the slot-wise add (``_slot_add``).  Symbol j takes
    width = b e bits of limb j // per, width (j % per) bits up, per = 64
    // width.  Enumeration holds W words as a block of shape (limbs, W),
    the parity search a vector as one Python int (``ints``).  Where a
    symbol needs more than 64 bits, per is 0 and neither search packs
    words (``_layer_costs``, ``_check_enumeration``).
    """

    def __init__(self, F: Field):
        self.p, self.e = F.char, F.degree
        self.bits = 1 if self.p == 2 else (self.p - 1).bit_length() + 1
        self.width = self.bits * self.e
        self.per = 64 // self.width
        full = (1 << self.width * self.per) - 1
        self.ones = full // ((1 << self.bits) - 1)   # 1 in every slot
        if self.p != 2:
            _, bias, top = _slot_add(self.p, self.bits, self.ones)
            self.bias, self.top = np.uint64(bias), np.uint64(top)
        self.carry, self.modulus = np.uint64(self.bits - 1), np.uint64(self.p)
        half = 1 << self.width - 1   # the top bit of a symbol
        symbols = full // ((1 << self.width) - 1)   # 1 in every symbol
        self.low = np.uint64((half - 1) * symbols)
        self.high = np.uint64(half * symbols)
        self.slots = np.uint64(self.bits) * np.arange(self.e, dtype=np.uint64)
        self.symbols = np.uint64(self.width) * np.arange(self.per,
                                                         dtype=np.uint64)
        self.places = self.p ** np.arange(self.e, dtype=np.int64)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return x ^ y
        s = x + y
        t = s + self.bias
        t &= self.top
        t >>= self.carry
        t *= self.modulus
        s -= t
        return s

    def weights(self, words: np.ndarray) -> np.ndarray:
        """The weight of each word of a block: each symbol's bits folded
        to its top one, which its low bits added to themselves set unless
        they are all 0, and counted."""
        if self.width > 1:
            words = ((words & self.low) + self.low | words) & self.high
        return np.bitwise_count(words).sum(axis=0, dtype=np.intp)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Rows of field indices, shape (r, n), as rows of limbs."""
        digits = rows[..., None] // self.places % self.p
        padded = np.zeros((len(rows), -(-rows.shape[1] // self.per)
                           * self.per), dtype=np.uint64)
        padded[:, :rows.shape[1]] = (digits.astype(np.uint64)
                                     << self.slots).sum(axis=-1)
        return (padded.reshape(len(rows), -1, self.per)
                << self.symbols).sum(axis=-1, dtype=np.uint64)

    def unpack(self, word: np.ndarray, n: int) -> tuple[int, ...]:
        """The n field indices of one word."""
        symbols = (word[:, None] >> self.symbols).ravel()[:n]
        digits = symbols[:, None] >> self.slots \
            & np.uint64((1 << self.bits) - 1)
        return tuple((digits.astype(np.int64) @ self.places).tolist())

    def ints(self, block: np.ndarray) -> list[int]:
        """The words of a block as Python ints, limb l at bit 64 l."""
        out = block[-1].tolist()
        for limb in block[-2::-1]:
            out = [x << 64 | y for x, y in zip(out, limb.tolist())]
        return out

    def int_add(self, symbols: int):
        """Addition of vectors of ``symbols`` symbols held as ``ints``:
        the slot-wise add over the slots of every limb, the padding bits
        at the top of each limb left out."""
        limbs = ((1 << 64 * -(-symbols // self.per)) - 1) // ((1 << 64) - 1)
        return _slot_add(self.p, self.bits, self.ones * limbs)[0]

    def span(self, rows: np.ndarray) -> np.ndarray:
        """The F_p-span of rows[0], rows[1], ... (of any leading shape) in
        counting order: word j is the sum of j_r rows[r] over the base-p
        digits j_r of j.  A span S grows by a row r as S + c r for c =
        0..p-1, by doubling: the first m of these plus m r are the next m.
        """
        span = np.zeros((*rows.shape[1:], 1), dtype=np.uint64)
        for step in rows[..., None]:
            size = self.p * span.shape[-1]
            while span.shape[-1] < size:
                more = self.add(span[..., :size - span.shape[-1]], step)
                span = np.concatenate([span, more], axis=-1)
                if span.shape[-1] < size:
                    step = self.add(step, step)
        return span


@lru_cache(maxsize=None)
def _limbs(F: Field) -> _Limbs:
    return _Limbs(F)


@lru_cache(maxsize=None)
def _packed_rows(F: Field, G: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The digit rows p^a G_i of the generator matrix G over F_q, q =
    p^e, as rows of limbs, row e i + a (read-only).  Field indices add
    digitwise mod p, so the codeword of a message whose digit i has
    base-p digits (m_i)_a is the sum of (m_i)_a p^a G_i."""
    K = _limbs(F)
    R = K.pack(np.array([F.scale_row(K.p ** a, row) for row in G
                         for a in range(K.e)], dtype=np.int64))
    R.setflags(write=False)   # shared by every caller
    return R


def _projective_blocks(K: _Limbs, R: np.ndarray, k: int):
    """Blocks of the words of the messages whose most significant nonzero
    digit is 1, in increasing message index, from the digit rows R
    (``_packed_rows``): for t = 0..k-1, G_t plus the span S_t of the digit
    rows of G_0..G_{t-1}, whose counting order is their messages' order.
    The span of the most digit rows s that fits _BLOCK_WORDS words holds
    S_t for e t <= s, and S_t + G_t as its words q^t to 2 q^t - 1 for e t
    < s: the first block.  Each later block is that span plus each of a
    run of words of the span of the digit rows s..e t - 1, plus G_t,
    about _BLOCK_WORDS words in all."""
    e, q = K.e, K.p ** K.e
    s = 0
    while s < e * (k - 1) and K.p ** (s + 1) <= _BLOCK_WORDS:
        s += 1
    low, T = K.span(R[:s]), s // e
    yield np.concatenate([low[:, q ** t:2 * q ** t] for t in range(T)]
                         + [K.add(low[:, :q ** T], R[e * T, :, None])],
                         axis=1)
    step = max(1, _BLOCK_WORDS // low.shape[1])
    for t in range(T + 1, k):
        offsets = K.add(K.span(R[s:e * t]), R[e * t, :, None])
        for i in range(0, offsets.shape[1], step):
            words = K.add(offsets[:, i:i + step, None], low[:, None, :])
            yield words.reshape(len(words), -1)


def _min_weight_enum(code: LinearCode) -> tuple[int, np.ndarray | None]:
    """Least weight over the nonzero codewords, and the first codeword of
    that weight in the order of ``LinearCode.codewords`` as one column of
    limbs (``_Limbs``), left packed for callers that read only the weight.

    Only the messages whose most significant nonzero digit is 1 are
    weighed.  Every nonzero codeword is a multiple of exactly one of
    them, and multiples have equal weight.  Of a word's multiples, the
    one whose top digit is 1 has the lowest index, because 1 is the
    least nonzero digit; so the first word of least weight in codeword
    order is among those weighed.  A code of one row has one such word,
    the row itself, so nothing is packed and the word is None."""
    if code.k == 1:
        return code.n - code.rows[0].count(0), None
    F = code.field
    K = _limbs(F)
    best_w, best = code.n + 1, None
    for words in _projective_blocks(K, _packed_rows(F, code.rows), code.k):
        w = K.weights(words)
        i = int(w.argmin())
        if w[i] < best_w:
            best_w, best = int(w[i]), words[:, i]
            if best_w == 1:
                break
    return best_w, best


def _row_multiples(K: _Limbs, R: np.ndarray, k: int) -> np.ndarray:
    """The words c G_i, c = 1..q-1, of the k rows of G as a block, c G_i
    at i (q - 1) + c - 1, from the digit rows R (``_packed_rows``): c G_i
    is word c of the span of the digit rows of G_i."""
    span = K.span(R.reshape(k, K.e, -1).swapaxes(0, 1))
    return span[..., 1:].swapaxes(0, 1).reshape(R.shape[1], -1)


def _distance_cap(code: LinearCode) -> int:
    """The weight of a codeword that is known to exist, so an upper bound
    on the minimum distance: the least weight of an RREF generator row,
    min(n - k + 1, least row weight).  A row is a codeword, and it is 1
    on its pivot and 0 on the k - 1 other pivots, so it never weighs
    more than n - k + 1 (the Singleton bound)."""
    return code.n - max(row.count(0) for row in code.rows)


def _enumeration_ns(code: LinearCode) -> float:
    """Estimated nanoseconds of a projective pass on this code
    (``_min_weight_enum``): (q^k - 1)/(q - 1) words, each charged per
    uint64 limb (``_Limbs``), about _BLOCK_WORDS a block, plus a fixed
    cost for the first block that grows with the k e digit rows it packs
    and spans, and one per block after that."""
    F = code.field
    q, n, k = F.order, code.n, code.k
    rate = _ENUM_NS_CHAR2 if F.char == 2 else _ENUM_NS_ODD
    unit = -(-n // _limbs(F).per) * rate
    projective = (q ** k - 1) // (q - 1)
    blocks = -(-projective // _BLOCK_WORDS)
    return (projective * unit + (_FIRST_BLOCK_UNITS + _DIGIT_ROW_UNITS * k
                                 * F.degree) * rate
            + (blocks - 1) * _BLOCK_NS)


def _tails(code: LinearCode) -> list[tuple[int, ...]]:
    """The tail f_i of each RREF row R_i: its entries on the n - k columns
    that are no pivot, in increasing column.  The codeword sum m_i R_i is
    m on the pivots and sum m_i f_i on the other columns, so its weight is
    wt(m) + wt(sum m_i f_i).  Read for cap >= 3 only, so n - k >= 2 and
    the getter returns tuples."""
    taken = set(code.pivots)
    get = operator.itemgetter(*(c for c in range(code.n) if c not in taken))
    return list(map(get, code.rows))


def _proportional_tails(F: Field, tails: list[tuple[int, ...]]) -> bool:
    """Whether a word of weight 2 exists, given that every RREF row
    weighs at least 3, so every tail at least 2 (``_tails``): a word with
    one nonzero message digit is a multiple of a row, and one with three
    or more weighs more than 2, so a word of weight 2 is a R_i + b R_j
    with a f_i + b f_j = 0, that is f_i and f_j proportional.  Each tail
    is scaled to lead with 1, by ``bytes.translate`` over a field with
    byte scalings, and two are proportional exactly when they scale to
    one key."""
    scalings = _byte_scalings(F)
    keys = set()
    for f in tails:
        lead = next(filter(None, f))
        if scalings:
            keys.add(bytes(f).translate(scalings[F.inv(lead)]))
        else:
            keys.add(f if lead == 1 else tuple(F.scale_row(F.inv(lead), f)))
    return len(keys) < len(tails)


def _tail_sums(F: Field, tails: list[tuple[int, ...]]) -> bool:
    """Whether a word of weight 3 exists, over a field with byte scalings
    (``_byte_scalings``), given that none is lighter and every RREF row
    weighs at least 4, so every tail at least 3 (``_tails``).

    Such a word has two or three nonzero message digits.  Scaled so that
    the first is 1, it is R_i + a R_j with f_i + a f_j of weight 1, or
    R_i + a R_j + b R_l with f_i + a f_j = -b f_l: a nonzero multiple of
    a third tail, since a multiple of f_i or f_j would make two tails
    proportional, a word of weight 2.  So the C(k, 2) (q - 1) sums f_i +
    a f_j, i < j, are looked up in a set of the (q - 1) k multiples of
    the tails and the (q - 1) (n - k) vectors of weight 1.  The tails
    are byte-packed ints, as the rows of ``_rref_bytes``: scaled by
    ``bytes.translate`` and added by the slot-wise add (``_slot_add``),
    written out inline with its masks for odd p."""
    p, r, scalings = F.char, len(tails[0]), _byte_scalings(F)[1:]
    multiples = [[int.from_bytes(raw.translate(scale), "little")
                  for scale in scalings] for raw in map(bytes, tails)]
    targets = {c << 8 * t for c in range(1, F.order) for t in range(r)}
    for row in multiples:
        targets.update(row)
    add, bias, top = _slot_add(p, 8, int.from_bytes(b"\x01" * r, "little"))
    if p == 2:
        def sums(pairs):
            return starmap(add, pairs)
    else:
        def sums(pairs) -> list[int]:
            return [s - ((s + bias & top) >> 7) * p
                    for s in starmap(operator.add, pairs)]

    firsts = [row[0] for row in multiples]
    return any(not targets.isdisjoint(sums(product(firsts[:j], row)))
               for j, row in enumerate(multiples))


def _tail_entries(F: Field, n: int, k: int, w: int) -> int | None:
    """Entries that layer w visits where it is read off the RREF: the k
    tails of layer 2 (``_proportional_tails``) on every field; for layer
    3 over a field with byte scalings (``_tail_sums``), the (q - 1) n
    multiples it tabulates and the C(k, 2) (q - 1) sums it looks up.
    None for a layer searched on the parity-check columns."""
    if w == 2:
        return k
    if w == 3 and _byte_scalings(F) is not None:
        return (F.order - 1) * (n + comb(k, 2))
    return None


def _rank_layer(F: Field, cols: list[tuple[int, ...]], w: int) -> bool:
    """Whether some w of the parity-check columns are dependent, by one
    elimination per column subset."""
    return any(rref([cols[j] for j in subset], F)[1] < w
               for subset in combinations(range(len(cols)), w))


def _column_multiples(F: Field, cols: Sequence[Sequence[int]]
                      ) -> list[list[int]]:
    """Packed c h for every nonzero c (field indices 1..q-1) of every
    column h, as Python ints (``_row_multiples``, ``_Limbs.ints``).  The
    columns' digit rows are used once, so they are not cached."""
    K, q1 = _limbs(F), F.order - 1
    words = K.ints(_row_multiples(
        K, _packed_rows.__wrapped__(F, cols), len(cols)))
    return [words[j:j + q1] for j in range(0, len(words), q1)]


@lru_cache(maxsize=None)
def _scalar_logs(F: Field) -> tuple[tuple[int, ...], dict[int, int],
                                     tuple[tuple[int, int], ...], int]:
    """Discrete logarithms to the base of the multiplicative generator g,
    for the collision search: the powers g^e for e = 0..q-2 (field
    indices); the exponent of every nonzero value as packed by
    ``_Limbs.ints``; the pairs (e, log(1 - g^e)) for e = 1..q-2; and
    log(-1)."""
    g = F.multiplicative_generator()
    exp = [1]
    for _ in range(F.order - 2):
        exp.append(F.mul(exp[-1], g))
    log = {x: e for e, x in enumerate(exp)}
    K = _limbs(F)
    packed = K.ints(K.pack(np.array(exp, dtype=np.int64)[:, None]).T)
    return (tuple(exp), {x: e for e, x in enumerate(packed)},
            tuple((e, log[F.sub(1, x)]) for e, x in enumerate(exp) if e),
            log[F.neg(1)])


class _Syndromes:
    """The parity-check columns of one code, for the collision search.

    Scaling a column changes no dependency among the columns, so each
    column h_j is scaled to have first nonzero coordinate 1 and packed as
    a Python int (``_Limbs.ints``): ``units[j]``, whose first nonzero
    coordinate is ``leads[j]``.  The multiples g^e h_j for e = 0..q-2 of
    every column, g the multiplicative generator, are built on first use
    (``multiples``), that is only for layers whose halves have two or more
    columns.
    """

    def __init__(self, F: Field, cols: Sequence[Sequence[int]]):
        rho = len(cols[0])
        self.field = F
        K = self.limbs = _limbs(F)
        self.add = K.int_add(rho)
        self.cols, self.leads = [], []
        for col in cols:
            lead = next((r for r, v in enumerate(col) if v), rho)
            if lead < rho and col[lead] != 1:
                col = F.scale_row(F.inv(col[lead]), col)
            self.cols.append(col)
            self.leads.append(lead)
        self.units = K.ints(K.pack(np.array(self.cols, dtype=np.int64)).T)
        self._multiples = None

    def multiples(self) -> list[list[int]]:
        """The packed g^e h_j, indexed [j][e]; also sets ``tied[j]``, the
        (1 - g^e) h_j for e = 1..q-2 (see ``_successors``)."""
        if self._multiples is None:
            F = self.field
            exp, _, ties, _ = _scalar_logs(F)
            self._multiples = [
                [m[x - 1] for x in exp] for m in
                _column_multiples(F, self.cols)]
            self.tied = [[H[t] for _, t in ties] for H in self._multiples]
        return self._multiples

    def lead(self, s: int) -> tuple[int, int]:
        """(r, e) for a packed syndrome s != 0: its first nonzero
        coordinate is r, with value g^e."""
        K = self.limbs
        limb, bit = divmod((s & -s).bit_length() - 1, 64)
        j = bit // K.width
        value = (s >> 64 * limb + K.width * j) & ((1 << K.width) - 1)
        return limb * K.per + j, _scalar_logs(self.field)[1][value]


def _halves(syn: _Syndromes, size: int, lo: int, hi: int, stop: int):
    """Lists of the keys of the half-supports of ``size`` positions in
    range(lo, hi) whose first position is below stop, one key per class
    of nonzero coefficient vectors up to a common scalar: C(hi - lo,
    size) (q - 1)^(size - 1) keys when stop >= hi, or the one key 0 of
    the empty half when size is 0.  A key is the half's syndrome scaled
    so that its first nonzero coordinate is 1.

    Halves of two columns come one list per first position.  Larger
    halves come one list per run of second positions: as many as make
    about _BATCH_KEYS keys with the first of them, and at least one.  A
    stream that hits early so stops within a list of about that size
    instead of computing every half with its first position."""
    if size == 0:
        yield [0]
        return
    stop = min(stop, hi - size + 1)
    if size == 1:
        yield syn.units[lo:stop]
        return
    mult, leads = syn.multiples(), syn.leads
    classes = (syn.field.order - 1) ** (size - 1)
    end = hi - size + 2
    for j in range(lo, stop):
        step = end if size == 2 else max(
            1, _BATCH_KEYS // (comb(hi - j - 2, size - 2) * classes))
        for i in range(j + 1, end, step):
            keys: list[int] = []
            _complete(syn, mult[j], leads[j], range(i, min(i + step, end)),
                      size - 1, hi, keys)
            yield keys


def _successors(syn: _Syndromes, P: list[int], lead: int, j: int
                ) -> list[tuple[list[int], int]]:
    """The q - 1 classes of P + c h_j (c != 0), given a normalised P
    whose first nonzero coordinate, 1, is ``lead``: the multiples
    (indexed by exponent, like P's) and the first nonzero coordinate of
    each class's normalised form.

    With h_j's first nonzero coordinate at r, the normalised forms are
    P + c h_j if lead < r, and c P + h_j if lead > r.  If lead = r, they
    are u P + (1 - u) h_j for u != 0, 1, and P - h_j scaled, whose first
    nonzero coordinate is past r.
    """
    add, q1 = syn.add, len(P)
    H, r = syn.multiples()[j], syn.leads[j]
    if q1 == 1:
        # over F_2 every nonzero syndrome is normalised
        return [([add(P[0], H[0])], r)]
    if r > lead:
        forms = [(0, e, lead) for e in range(q1)]
    elif r < lead:
        forms = [(e, 0, r) for e in range(q1)]
    else:
        ties, neg_one = _scalar_logs(syn.field)[2:]
        forms = [(e, t, lead) for e, t in ties]
        s = add(P[0], H[neg_one])
        if s:
            r, e = syn.lead(s)
            forms.append((-e % q1, (neg_one - e) % q1, r))
    return [([add(u, v) for u, v in zip(P[x:] + P[:x], H[y:] + H[:y])], r)
            for x, y, r in forms]


def _complete(syn: _Syndromes, P: list[int], lead: int, nexts: range,
              more: int, hi: int, keys: list[int]) -> None:
    """Append to keys the key of every half that extends the normalised
    prefix P (``_successors``) by ``more`` increasing positions below hi,
    the first of them in ``nexts``."""
    add, p, units = syn.add, P[0], syn.units
    if len(P) == 1:
        # over F_2 every nonzero syndrome is normalised: the keys are sums
        if more == 1:
            keys.extend(map(add, repeat(p), units[nexts.start:nexts.stop]))
            return
        if more == 2:
            for j in nexts:
                keys.extend(map(add, repeat(add(p, units[j])),
                                units[j + 1:hi]))
            return
    if more > 1:
        for j in nexts:
            for Q, r in _successors(syn, P, lead, j):
                _complete(syn, Q, r, range(j + 1, hi - more + 2), more - 1,
                          hi, keys)
        return
    # the keys of the forms _successors lists, without their multiples
    push, rest = keys.append, P[1:]
    neg_one = _scalar_logs(syn.field)[3]
    span = slice(nexts.start, nexts.stop)
    for H, T, r in zip(syn.multiples()[span], syn.tied[span],
                       syn.leads[span]):
        if r > lead:
            for v in H:
                push(add(p, v))
        elif r < lead:
            h = H[0]
            for u in P:
                push(add(u, h))
        else:
            for u, v in zip(rest, T):
                push(add(u, v))
            s = add(p, H[neg_one])
            if s:
                e = syn.lead(s)[1]
                push(add(P[-e], H[neg_one - e]))


def _collision_layer(syn: _Syndromes, w: int) -> bool:
    """Whether some w parity-check columns are dependent, given that no
    fewer are, by collision of half-supports (Stern 1989), compared up to
    a scalar.

    A word of weight w splits into its first a = ceil(w/2) positions and
    its last b = floor(w/2), and the two halves' syndromes are
    proportional, so their keys (``_halves``) are equal.  The keys of the
    b-halves from position a on go into a table, and those of the
    a-halves below n - b are streamed against it; in an even layer only
    the a-halves that start below a, since the others are table entries.

    Given that no fewer than w columns are dependent, two halves with one
    key are distinct supports or coefficient classes and combine to a
    nonzero word of weight at most the sum of their sizes, so exactly w,
    on disjoint supports.  Two table entries with one key settle an even
    layer; in an odd layer they would be a lighter word, so they cannot
    occur.  A streamed half differs from every table entry, in size (odd
    w) or in its first position (even w), so a stream hit settles the
    layer.  Conversely the right half of a word of weight w is in the
    table, and its left half is streamed, or in an even layer is a
    second table entry with the same key.
    """
    n = len(syn.units)
    a, b = (w + 1) // 2, w // 2
    table: set[int] = set()
    for keys in _halves(syn, b, a, n, n):
        size = len(table)
        table.update(keys)
        if len(table) - size < len(keys) and a == b:
            return True
    return any(not table.isdisjoint(keys)
               for keys in _halves(syn, a, 0, n - b, a if a == b else n))


def _collision_entries(q: int, n: int, w: int) -> int:
    """Entries the collision search visits one by one in a layer w that
    finds nothing, with a = ceil(w/2) and b = floor(w/2): C(n - a, b) (q
    - 1)^(b - 1) table keys; C(n - b, a) (q - 1)^(a - 1) streamed keys
    in an odd layer, and C(n - a, a) - C(n - 2a, a) times (q - 1)^(a -
    1) in an even one; and the n (q - 1) column multiples when a >= 2.
    Keys of halves of at most one column are not counted: they are
    slices of the packed columns, which the table and the stream take
    whole, at a small fraction of the cost of a key built from two or
    more columns.  A later layer reuses the multiples, but each layer is
    charged them."""
    a, b = (w + 1) // 2, w // 2
    table = comb(n - a, b) * (q - 1) ** (b - 1) if b > 1 else 0
    starts = comb(n - b, a) - (comb(n - b - a, a) if a == b else 0)
    stream = starts * (q - 1) ** (a - 1) if a > 1 else 0
    return table + stream + (n * (q - 1) if a > 1 else 0)


def _layer_costs(F: Field, n: int, k: int, w: int) -> tuple[float, float]:
    """Estimated nanoseconds of layer w of the parity search: by collision
    (``_collision_entries``; never where a symbol needs more than one
    limb) and by rank checks (C(n, w) * w^2 * (n - k) units)."""
    if not _limbs(F).per:
        collision = float("inf")
    else:
        collision = _collision_entries(F.order, n, w) * (
            _COLLISION_NS_CHAR2 if F.char == 2 else _COLLISION_NS_ODD)
    rank = comb(n, w) * w * w * (n - k) * _RANK_NS
    return collision, rank


def _min_weight_parity(code: LinearCode, budget: Budget, cap: int) -> int:
    """Smallest w such that some w parity-check columns are dependent,
    given cap = ``_distance_cap(code)``.

    The search stops where its floor meets the witness cap (the stopping
    rule of Brouwer-Zimmermann: Zimmermann 1996; Grassl 2006).  Layers
    2 .. cap - 1 run in increasing w; each decides exactly whether a word
    of weight w exists, given that no lighter one does, and if none does
    the distance is cap, whose word exists.  The first layers are read
    off the RREF rows, whose least weight is cap (``_tails``): a word of
    weight 1 is c e_i, and its coefficient on every pivot but i is 0, so
    it is c times the row with pivot i, and the distance is 1 exactly
    when cap is 1; layer 2 compares the tails up to a scalar on every
    field (``_proportional_tails``), and layer 3 looks sums of two tails
    up among the multiples of the others over a field with byte scalings
    (``_tail_sums``).  Every other layer is searched on the parity-check
    columns, by collision of half-supports or by rank checks, whichever
    is estimated cheaper.  The columns are those of the complement basis
    [-A^T | I] (``_complement``), which spans the dual: row operations
    keep every dependency among the columns.  So for cap <= 4 (cap <= 3
    without byte scalings) no parity-check matrix is built.

    The budget charges C(n, w) subsets for every layer up to the answer,
    read off the RREF, searched or attained by cap alike, and is checked
    before each, so the search either completes exactly or rejects
    upfront, never mid-layer with a wrong answer.
    """
    F, n, k = code.field, code.n, code.k
    tails = cols = syn = None
    checked = 0
    for w in range(1, cap + 1):
        checked += comb(n, w)
        if checked > budget.rank:
            raise ResourceLimitError(
                f"instance too large: parity-check search needs up to "
                f"{checked} subset-rank checks, budget is {budget.rank}")
        if w == 1 or w == cap:
            continue
        if _tail_entries(F, n, k, w) is not None:
            tails = tails or _tails(code)
            if (_proportional_tails if w == 2 else _tail_sums)(F, tails):
                return w
            continue
        if cols is None:
            cols = list(zip(*_complement(F, n, code.rows, code.pivots)[0]))
        collision_ns, rank_ns = _layer_costs(F, n, k, w)
        if collision_ns < rank_ns:
            syn = syn or _Syndromes(F, cols)
            found = _collision_layer(syn, w)
        else:
            found = _rank_layer(F, cols, w)
        if found:
            return w
    return cap


def distance_strategy(code: LinearCode, *, budget: Budget = Budget()
                      ) -> str:
    """The kernel min_distance(strategy="auto") runs on this code:
    "enumeration" or "parity" (cached per (code, budget), like the
    distance itself).

    Both kernels start from cap = min(n - k + 1, least weight of a
    generator row), the weight of a word known to exist
    (``_distance_cap``).  The parity search decides layers 2 .. cap - 1
    and answers cap if they find nothing (``_min_weight_parity``).  It
    is only a candidate when the subset count of layers 1 .. cap fits
    budget.rank, so it cannot run out of budget.  Its estimated time sums
    over layers 2 .. cap - 1: the entries of a layer read off the RREF
    (``_tail_entries``), at _TAIL_NS each, or the cheaper of a column
    layer's two searches (``_layer_costs``), plus the set-up of the
    packed parity-check columns once if the cheaper search of some layer
    is a collision.  With cap <= 2 it has no layer to decide, so it wins
    at once.
    Enumeration is only a candidate when its q^k codewords fit
    budget.enum and a symbol fits a 64-bit limb (``_Limbs``).  A code of
    one row takes it at once, since its one projective word is the row.
    Otherwise its estimated time counts the (q^k - 1)/(q - 1) words its
    projective pass weighs (``_enumeration_ns``).  Between two
    candidates the lower estimated time wins; with neither, the answer is
    "parity", whose search then reports the exhausted budget.
    """
    if code.k == 0:
        raise ValueError("zero code has no minimum distance")
    return _auto_plan(code, budget)[0]


@lru_cache(maxsize=None)
def _auto_plan(code: LinearCode, budget: Budget) -> tuple[str, int]:
    """``distance_strategy`` with the cap, so the kernel takes the cap
    that was priced: one ``_distance_cap`` per (code, budget), and one
    ``_enumeration_ns`` where both kernels are candidates and cap > 2.
    The parity search is priced layer by layer as ``_min_weight_parity``
    runs it: by the entries of the layers read off the RREF, by the
    cheaper search of the others, and by _PARITY_SETUP_NS where a
    collision layer packs the parity-check columns."""
    F = code.field
    q, n, k = F.order, code.n, code.k
    cap = _distance_cap(code)
    if q ** k > budget.enum or not _limbs(F).per:
        return "parity", cap
    within = sum(comb(n, w) for w in range(1, cap + 1)) <= budget.rank
    if within and cap <= 2:
        return "parity", cap
    if k == 1 or not within:
        return "enumeration", cap
    parity_ns, packs = 0.0, False
    for w in range(2, cap):
        entries = _tail_entries(F, n, k, w)
        if entries is not None:
            parity_ns += entries * _TAIL_NS
            continue
        collision_ns, rank_ns = _layer_costs(F, n, k, w)
        parity_ns += min(collision_ns, rank_ns)
        packs = packs or collision_ns < rank_ns
    if packs:
        parity_ns += _PARITY_SETUP_NS
    if parity_ns < _enumeration_ns(code):
        return "parity", cap
    return "enumeration", cap


def min_distance(code: LinearCode, *, budget: Budget = Budget(),
                 strategy: str = "auto") -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    Strategy "enumeration" weighs the codewords up to scalar multiples
    by a projective pass (``_min_weight_enum``), and needs q^k within
    budget.enum; "parity" searches for the smallest linearly dependent
    set of parity-check columns, and stops where that floor meets the
    weight of a word known from the generator matrix
    (``_min_weight_parity``); "auto" runs the one ``distance_strategy``
    picks, the cheaper by estimate among those within budget.  Weight
    counts nonzero symbols of the code's own alphabet.  The zero code is
    rejected; budget exhaustion raises ResourceLimitError rather than
    returning a wrong answer.

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
    if strategy == "parity":
        return _min_weight_parity(code, budget, _distance_cap(code))
    _check_enumeration(code, budget)
    return _min_weight_enum(code)[0]


@lru_cache(maxsize=None)
def _auto_distance(code: LinearCode, budget: Budget) -> int:
    strategy, cap = _auto_plan(code, budget)
    if strategy == "parity":
        return _min_weight_parity(code, budget, cap)
    return _min_weight_enum(code)[0]


def _check_enumeration(code: LinearCode, budget: Budget) -> None:
    """Raise ResourceLimitError unless q^k fits the enumeration budget
    and a symbol fits a limb (``_Limbs``)."""
    q = code.field.order
    if q ** code.k > budget.enum:
        raise ResourceLimitError(
            f"instance too large: {q}^{code.k} codewords "
            f"exceed the enumeration budget {budget.enum}")
    if not _limbs(code.field).per:
        raise ResourceLimitError(
            f"instance too large: a symbol of F_{q} takes "
            f"{_limbs(code.field).width} bits, more than one 64-bit limb")


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
    w, word = _min_weight_enum(code)
    if word is None:
        return w, code.rows[0]
    return w, _limbs(code.field).unpack(word, code.n)


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
