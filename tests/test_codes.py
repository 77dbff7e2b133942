"""Tests for linear and cyclic codes: RREF normalization, duals, exact
minimum distance under both strategies, and cyclic subcodes selected by
factor index sets."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from qclrc import codes, construct
from qclrc.algebra import Poly, factor_unity, make_field
from qclrc.codes import (
    Budget,
    CyclicCode,
    LinearCode,
    cyclic_code,
    cyclic_dual,
    distance_strategy,
    min_distance,
    min_weight_codeword,
    rref,
    subcode_distance,
    subcode_from_bz,
)
from qclrc.errors import ResourceLimitError

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(4)
F5 = make_field(5)


def random_code(rng, field, n, max_rows):
    rows = [[rng.randrange(field.order) for _ in range(n)]
            for _ in range(rng.randint(1, max_rows))]
    return LinearCode.from_rows(field, n, rows)


# ---------------------------------------------------------------------------
# rref


def test_rref_identity_fixed_point():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ech, rank, piv = rref(rows, F2)
    assert ech == rows
    assert rank == 3
    assert piv == (0, 1, 2)


def test_rref_known_matrix():
    # over F_3: [[2,1,0],[1,2,0]] reduces to [[1,2,0],[0,0,0]]
    ech, rank, piv = rref([[2, 1, 0], [1, 2, 0]], F3)
    assert rank == 1
    assert piv == (0,)
    assert ech[0] == (1, 2, 0)
    assert ech[1] == (0, 0, 0)


def test_rref_leading_ones_and_cleared_pivot_columns(rng):
    for _ in range(50):
        field = rng.choice([F2, F3, F4, F5])
        n = rng.randint(1, 6)
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        ech, rank, piv = rref(rows, field)
        assert len(piv) == rank
        for r, p in enumerate(piv):
            assert ech[r][p] == 1
            assert all(ech[i][p] == 0 for i in range(len(ech)) if i != r)
            assert all(v == 0 for v in ech[r][:p])


def test_rref_empty():
    assert rref([], F2) == ((), 0, ())


def entrywise_rref(rows, F):
    """Gauss-Jordan elimination one entry at a time, by F.add and F.mul."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        found = [i for i in range(r, len(mat)) if mat[i][c]]
        if not found:
            continue
        mat[r], mat[found[0]] = mat[found[0]], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [F.add(a, F.mul(F.neg(f), b))
                          for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return tuple(map(tuple, mat)), len(pivots), tuple(pivots)


def rref_cases(rng, F):
    """Matrices over F: zero rows, duplicate and proportional rows, rank
    deficiency, more rows than columns, and a single column."""
    q = F.order

    def rand(k, n):
        return [[rng.randrange(q) for _ in range(n)] for _ in range(k)]

    def combos(base, k):
        out = []
        for _ in range(k):
            row = [0] * len(base[0])
            for b in base:
                row = [F.add(x, F.mul(rng.randrange(q), y))
                       for x, y in zip(row, b)]
            out.append(row)
        return out

    cases = [[[0] * 5 for _ in range(3)], [[0]], rand(4, 1), rand(1, 1)]
    for _ in range(6):
        n = rng.randint(2, 9)
        base = rand(rng.randint(1, 4), n)
        dup = base + [list(base[0]), [F.mul(q - 1, v) for v in base[-1]]]
        cases += [
            rand(rng.randint(1, 5), n),
            base[:1] + [[0] * n] + base[1:] + [[0] * n],
            dup,
            combos(base[:2], rng.randint(3, 6)),
            rand(n + rng.randint(1, 4), n),
        ]
    for rows in cases:
        rng.shuffle(rows)
    return cases


@pytest.mark.parametrize("q, packed", [
    (2, True), (3, True), (4, True), (5, True), (8, True), (16, True),
    (64, True), (127, True), (128, True), (256, True),
    (9, False), (3125, False)])
def test_rref_matches_entrywise_elimination(rng, q, packed):
    # byte-packed rows over F_2^a and the primes below 128, Field.axpy
    # rows elsewhere: the same tuples of ints as an entry-by-entry
    # elimination on every case
    F = make_field(q)
    assert (codes._byte_scalings(F) is not None) == packed
    for rows in rref_cases(rng, F):
        got = rref(rows, F)
        assert got == entrywise_rref(rows, F)
        assert len(got[0]) == len(rows)
        assert all(type(v) is int for row in got[0] for v in row)
    assert rref([], F) == ((), 0, ())


# ---------------------------------------------------------------------------
# the slot-wise add of packed vectors


def _digits(rng, p: int, size: int) -> list[int]:
    """Random digits below p, with 0, 1 and p - 1 drawn often, so that
    sums below p, at p and up to 2p - 2 all occur."""
    return [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(size)]


def _digitwise_sums(p: int, e: int, xs, ys) -> list[int]:
    """Field indices whose base-p digits are those of xs and ys added
    digit by digit mod p."""
    return [sum((x // p ** a + y // p ** a) % p * p ** a for a in range(e))
            for x, y in zip(xs, ys)]


@pytest.mark.parametrize("p", (3, 5, 7, 127))
def test_byte_packed_add_adds_digitwise_mod_p(rng, p):
    # one digit a byte, as the rows of rref, the tails and the greedy keys
    F = make_field(p)
    for width in (1, 2, 8, 9, 40):
        add = codes.byte_packed_add(F, width)
        for _ in range(40):
            x, y = _digits(rng, p, width), _digits(rng, p, width)
            got = add(int.from_bytes(bytes(x), "little"),
                      int.from_bytes(bytes(y), "little"))
            assert got.to_bytes(width, "little") == bytes(
                _digitwise_sums(p, 1, x, y))


@pytest.mark.parametrize("q", (3, 9, 25, 27))
def test_limb_words_add_digitwise_mod_p(rng, q):
    # words of one to four limbs, as Python ints (the parity search) and
    # as uint64 blocks (enumeration); the limbs of F_3, F_9 and F_27 leave
    # padding bits at their top, which must stay 0
    F = make_field(q)
    K = codes._Limbs(F)
    for n in (1, K.per, K.per + 1, 3 * K.per + 2):
        add = K.int_add(n)
        x, y = ([[sum(d * K.p ** a for a, d in
                      enumerate(_digits(rng, K.p, K.e))) for _ in range(n)]
                 for _ in range(30)] for _ in range(2))
        want = [_digitwise_sums(K.p, K.e, r, s) for r, s in zip(x, y)]
        X, Y, W = (K.pack(np.array(m, dtype=np.int64)) for m in (x, y, want))
        assert list(map(add, K.ints(X.T), K.ints(Y.T))) == K.ints(W.T)
        assert np.array_equal(K.add(X, Y), W)


# ---------------------------------------------------------------------------
# LinearCode basics


def test_from_rows_normalizes_to_rref():
    a = LinearCode.from_rows(F2, 4, [[1, 1, 0, 0], [0, 1, 1, 0]])
    b = LinearCode.from_rows(F2, 4, [[1, 0, 1, 0], [1, 1, 0, 0]])
    assert a == b
    assert a.k == 2


def test_from_rows_rejects_bad_shape_and_entries():
    with pytest.raises(ValueError, match="row length"):
        LinearCode.from_rows(F2, 3, [[1, 0]])
    with pytest.raises(ValueError, match="outside field"):
        LinearCode.from_rows(F2, 2, [[1, 2]])


def test_from_rows_names_the_first_fault_row_by_row():
    # the one-pass check only decides that some row fails; the message
    # is the first fault in row order, length or entry
    for rows, message in (
            ([[1, 0, 2], [1, 0]], "entry 2 outside field of order 2"),
            ([[1, 0], [1, 0, 2]], "row length 2 != code length 3"),
            ([[0, 1, 1], [1, -1, 0]], "entry -1 outside field of order 2"),
            ([[0, 1, 1], [1, 1, 0], [1, 0, 0, 0]],
             "row length 4 != code length 3")):
        with pytest.raises(ValueError) as err:
            LinearCode.from_rows(F2, 3, rows)
        assert str(err.value) == message
    assert LinearCode.from_rows(F2, 0, [(), ()]) == LinearCode.zero(F2, 0)
    assert LinearCode.from_rows(F2, 3, []) == LinearCode.zero(F2, 3)


def test_dimension_is_a_field_out_of_repr_and_comparison():
    code = LinearCode.from_rows(F3, 4, [[1, 2, 0, 1], [0, 1, 1, 1]])
    for c in (code, code.dual(), LinearCode.zero(F3, 4),
              LinearCode.full(F3, 4)):
        assert c.k == len(c.rows)
    assert "k=" not in repr(code)
    assert code == LinearCode(F3, 4, code.rows, code.pivots)


def test_zero_and_full_codes():
    z = LinearCode.zero(F3, 4)
    assert z.k == 0 and z.is_zero()
    assert z.contains([0, 0, 0, 0])
    assert not z.contains([1, 0, 0, 0])
    f = LinearCode.full(F3, 4)
    assert f.k == 4
    assert f.contains([2, 1, 0, 2])


def test_contains_membership(rng):
    code = LinearCode.from_rows(F5, 5, [[1, 2, 3, 4, 0], [0, 1, 1, 1, 1]])
    for word in code.codewords():
        assert code.contains(word)
    assert not code.contains([1, 0, 0, 0, 0])
    assert not code.contains([0, 0, 0, 0])


def test_codeword_count(rng):
    for _ in range(10):
        field = rng.choice([F2, F3])
        code = random_code(rng, field, rng.randint(2, 5), 3)
        words = set(code.codewords())
        assert len(words) == field.order ** code.k


# ---------------------------------------------------------------------------
# duals


def test_dual_dimension_and_orthogonality(rng):
    for _ in range(30):
        field = rng.choice([F2, F3, F4, F5])
        n = rng.randint(2, 7)
        code = random_code(rng, field, n, n)
        dual = code.dual()
        assert code.k + dual.k == n
        for row in code.rows:
            for drow in dual.rows:
                acc = 0
                for a, b in zip(row, drow):
                    acc = field.add(acc, field.mul(a, b))
                assert acc == 0


def test_double_dual_is_identity(rng):
    for _ in range(30):
        field = rng.choice([F2, F3, F4, F5])
        code = random_code(rng, field, rng.randint(2, 7), 5)
        assert code.dual().dual() == code


def test_dual_of_zero_and_full():
    assert LinearCode.zero(F2, 5).dual() == LinearCode.full(F2, 5)
    assert LinearCode.full(F2, 5).dual() == LinearCode.zero(F2, 5)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 3125])
def test_dual_of_span_reduces_raw_rows_once(rng, q, monkeypatch):
    # raw rows of any rank, zero rows and repeated or dependent rows
    # included, with 2 len(rows) on both sides of n: one rref, and the
    # dual of the code the rows span
    F = make_field(q)
    real, calls = codes.rref, []

    def counted(rows, field):
        calls.append(len(rows))
        return real(rows, field)
    monkeypatch.setattr(codes, "rref", counted)
    for trial in range(40):
        n = rng.randint(1, 12)
        rows = [[rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        if rows and trial % 3 == 0:
            rows.append(F.scale_row(rng.randrange(q), rows[0]))
        if trial % 5 == 0:
            rows.append([0] * n)
        rng.shuffle(rows)
        code = LinearCode.from_rows(F, n, rows)
        expected = LinearCode.from_rows(F, n, orthogonal_basis(code))
        assert code.dual() == expected
        calls.clear()
        assert codes.dual_of_span(F, n, rows) == expected
        assert calls == [len(rows)]


def orthogonal_basis(code):
    """e_f - sum_p R_p[f] e_p for each non-pivot column f of the RREF."""
    F = code.field
    basis = []
    for f in range(code.n):
        if f in code.pivots:
            continue
        v = [0] * code.n
        v[f] = 1
        for row, p in zip(code.rows, code.pivots):
            v[p] = F.sub(0, row[f])
        basis.append(v)
    return basis


def assert_rref(code):
    F = code.field
    assert list(code.pivots) == sorted(set(code.pivots))
    for i, (row, p) in enumerate(zip(code.rows, code.pivots)):
        assert row[p] == 1 and not any(row[:p])
        assert all(other[p] == 0 for j, other in enumerate(code.rows)
                   if j != i)
        assert all(type(x) is int and 0 <= x < F.order for x in row)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 27, 64, 127, 256,
                               9, 25, 131, 3125])
def test_dual_is_the_rref_of_the_orthogonal_basis(rng, q):
    # byte-packed rref over F_2^a and the primes below 128, entry by entry
    # over F_9, F_25, F_131 and F_3125; k on both sides of n/2, the zero
    # and full codes, and n = 1
    F = make_field(q)
    shapes = [(1, 0), (1, 1), (6, 0), (6, 6)] + [
        (n, k) for n in (2, 5, 8, 13) for k in (1, n // 2, n - 1)]
    for n, k in shapes + [(rng.randint(1, 12), None) for _ in range(6)]:
        k = rng.randint(0, n) if k is None else k
        rows = [[rng.randrange(q) if rng.random() < 0.8 else 0
                 for _ in range(n)] for _ in range(k)]
        code = LinearCode.from_rows(F, n, rows)
        dual = code.dual()
        assert dual == LinearCode.from_rows(F, n, orthogonal_basis(code))
        assert dual.k == n - code.k
        assert_rref(dual)
        for row in code.rows:
            for drow in dual.rows:
                acc = 0
                for a, b in zip(row, drow):
                    acc = F.add(acc, F.mul(a, b))
                assert acc == 0
        assert dual.dual() == code


def test_power_column_dual_over_f3125_is_pinned():
    # the [27, 24] code with parity columns (1, a, a^2) for the field
    # elements a = 0..26 of F_3125: the block A of its RREF [I | A]
    F = make_field(3125)
    cols = [tuple(F.pow(a, e) for e in range(3)) for a in range(27)]
    code = construct._from_parity_columns(F, cols)
    assert code.pivots == tuple(range(24))
    assert all(row[:24] == tuple(int(c == r) for c in range(24))
               for r, row in enumerate(code.rows))
    assert [row[24:] for row in code.rows] == [
        (1430, 1937, 537), (1470, 1433, 1001), (236, 345, 348),
        (753, 1633, 1398), (166, 2462, 1276), (1554, 1850, 1225),
        (1586, 847, 1621), (374, 2960, 720), (883, 749, 2277),
        (293, 1529, 2087), (1658, 1548, 703), (1687, 741, 1601),
        (467, 2955, 1232), (1123, 840, 2091), (375, 1871, 2283),
        (1872, 2471, 336), (1773, 1640, 1016), (545, 330, 529),
        (1198, 1441, 1290), (597, 1948, 1389), (1296, 4, 1984),
        (1319, 2549, 2566), (88, 1335, 1981), (733, 2547, 4)]


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_rejects_zero_code():
    with pytest.raises(ValueError, match="zero code"):
        min_distance(LinearCode.zero(F2, 4))


def test_min_distance_full_space_is_one():
    assert min_distance(LinearCode.full(F5, 6)) == 1


def test_min_distance_repetition_code():
    code = LinearCode.from_rows(F3, 7, [[1] * 7])
    assert min_distance(code) == 7
    assert min_distance(code, strategy="enumeration") == 7


def test_min_distance_hamming_7_4():
    rows = [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ]
    code = LinearCode.from_rows(F2, 7, rows)
    assert min_distance(code, strategy="enumeration") == 3
    assert min_distance(code, strategy="parity") == 3


def test_min_distance_strategies_agree(rng):
    for _ in range(60):
        field = rng.choice([F2, F3, F4, F5])
        n = rng.randint(2, 8)
        code = random_code(rng, field, n, n - 1)
        if code.k == 0 or code.k == n:
            continue
        d_enum = min_distance(code, strategy="enumeration")
        d_par = min_distance(code, strategy="parity")
        d_auto = min_distance(code, strategy="auto")
        assert d_enum == d_par == d_auto
        assert d_par <= n - code.k + 1


def test_min_distance_enumeration_budget():
    code = LinearCode.from_rows(F2, 6, [[1, 0, 0, 0, 1, 1],
                                        [0, 1, 0, 0, 1, 0],
                                        [0, 0, 1, 0, 0, 1]])
    with pytest.raises(ResourceLimitError, match="enumeration budget"):
        min_distance(code, strategy="enumeration", budget=Budget(enum=4))


def test_min_distance_parity_budget():
    code = LinearCode.from_rows(F2, 8, [[1, 1, 1, 1, 1, 1, 1, 1]])
    with pytest.raises(ResourceLimitError, match="instance too large"):
        min_distance(code, strategy="parity", budget=Budget(rank=3))


def test_min_distance_auto_falls_back_to_parity():
    # k = 5 with a tiny enumeration budget forces the parity search
    rows = [[1 if j == i else 0 for j in range(7)] + [1] for i in range(5)]
    for r in rows:
        r.extend([0])
    code = LinearCode.from_rows(F2, 9, [r[:9] for r in rows])
    d_auto = min_distance(code, budget=Budget(enum=8))
    d_enum = min_distance(code, strategy="enumeration")
    assert d_auto == d_enum


def zero_sum_code(field, n):
    return LinearCode.from_rows(
        field, n, [[1 if j == i else field.neg(1) if j == n - 1 else 0
                    for j in range(n)] for i in range(n - 1)])


def reed_solomon(F, n, k):
    """The [n, k, n - k + 1] code of the polynomials of degree below k
    evaluated at n distinct nonzero field elements."""
    g = F.multiplicative_generator()
    points = [F.pow(g, e) for e in range(n)]
    return LinearCode.from_rows(
        F, n, [[F.pow(x, t) for x in points] for t in range(k)])


def test_distance_strategy_routes_by_cost():
    # [11, 10]_5: 5^10 codewords against 66 column subsets up to weight 2
    assert distance_strategy(zero_sum_code(F5, 11)) == "parity"
    # [15, 5]_16 Reed-Solomon: 16^5 codewords against about 32k subsets
    # up to weight 11, each an elimination over an extension field
    F16 = make_field(16)
    rs, rs6 = (LinearCode.from_rows(
        F16, 15, [[F16.pow(a, e) for a in range(1, 16)] for e in range(k)])
        for k in (5, 6))
    assert distance_strategy(rs) == distance_strategy(rs6) == "enumeration"
    # the plan hands the kernel the cap it was priced with
    assert codes._auto_plan(rs, Budget()) == ("enumeration", 11)
    assert codes._auto_plan(rs6, Budget()) == ("enumeration", 10)


def test_min_distance_auto_enumerates_when_parity_exceeds_rank_budget():
    # The parity search would need 7 + 21 subset checks; the enumeration
    # budget holds all 3^6 codewords, so auto answers instead of raising.
    code = zero_sum_code(F3, 7)
    assert distance_strategy(code) == "parity"
    assert distance_strategy(code, budget=Budget(rank=27)) == "enumeration"
    assert min_distance(code, budget=Budget(rank=27)) == 2
    with pytest.raises(ResourceLimitError):
        min_distance(code, strategy="parity", budget=Budget(rank=27))
    # with neither budget met, auto raises as before
    with pytest.raises(ResourceLimitError, match="instance too large"):
        min_distance(code, budget=Budget(enum=3 ** 6 - 1, rank=27))


def test_min_distance_unknown_strategy():
    code = LinearCode.full(F2, 2)
    with pytest.raises(ValueError, match="unknown strategy"):
        min_distance(code, strategy="brute")


def test_min_weight_codeword_matches_distance(rng):
    for _ in range(20):
        field = rng.choice([F2, F3])
        n = rng.randint(2, 7)
        code = random_code(rng, field, n, n - 1)
        if code.k == 0 or code.k == n:
            continue
        w, word = min_weight_codeword(code)
        assert w == min_distance(code)
        assert code.contains(word)
        assert sum(1 for v in word if v) == w


def scan_min_weight(code):
    best_w, best = code.n + 1, None
    for word in code.codewords():
        w = sum(1 for v in word if v)
        if 0 < w < best_w:
            best_w, best = w, word
    return best_w, best


def test_min_weight_codeword_is_first_in_codeword_order(rng):
    # the enumeration kernel must pick the word the codeword scan picks
    for _ in range(60):
        field = rng.choice([F2, F3, F4, F5])
        n = rng.randint(2, 9)
        code = random_code(rng, field, n, 5)
        if code.k > 0:
            assert min_weight_codeword(code) == scan_min_weight(code)
    # q >= 3 with more least-weight words than one word's q - 1 multiples:
    # the projective pass skips most of them and must still return the
    # first in codeword order
    tied = 0
    for _ in range(80):
        field = rng.choice([F3, F4, F5, make_field(7), make_field(8),
                            make_field(9)])
        code = random_code(rng, field, rng.randint(3, 8), 4)
        if code.k == 0 or field.order ** code.k > 1 << 12:
            continue
        w, word = scan_min_weight(code)
        lightest = sum(1 for c in code.codewords()
                       if sum(1 for v in c if v) == w)
        tied += lightest > field.order - 1
        assert min_weight_codeword(code) == (w, word)
    assert tied >= 20


def first_word_of_weight(code, d):
    """The first codeword of weight d in codeword order: the codeword
    scan of ``scan_min_weight`` when d is the minimum distance, stopped
    there."""
    return next(c for c in code.codewords() if sum(1 for v in c if v) == d)


def counted_blocks(monkeypatch, name):
    """The sizes of the blocks of words the generator ``name`` yields."""
    sizes = []
    blocks = getattr(codes, name)

    def counted(*args):
        for words in blocks(*args):
            sizes.append(words.shape[1])
            yield words

    monkeypatch.setattr(codes, name, counted)
    return sizes


@pytest.mark.parametrize("block", [1 << 8, 3, 2])
def test_projective_pass_walks_spans_in_small_blocks(rng, monkeypatch,
                                                     block):
    # F_81 and F_729 span their words from digit rows over F_3, four and
    # six a symbol; a block of 3 words holds the span of one digit row,
    # so every span is split, and a block of 2 spans none
    monkeypatch.setattr(codes, "_BLOCK_WORDS", block)
    weighed = counted_blocks(monkeypatch, "_projective_blocks")
    for q in (81, 729):
        F = make_field(q)
        for _ in range(3):
            n = rng.randint(2, 5)
            rows = [[rng.randrange(q) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(2)]
            code = LinearCode.from_rows(F, n, rows)
            if code.k == 0:
                continue
            d = min_distance(code, strategy="parity")
            assert min_weight_codeword(code) == \
                (d, first_word_of_weight(code, d))
            if q == 81:
                assert min_weight_codeword(code) == scan_min_weight(code)
    # at most (q^2 - 1)/(q - 1) = q + 1 words per code, not q^2
    assert 0 < sum(weighed) <= 3 * 82 + 3 * 730
    assert max(weighed) <= block
    if block < 1 << 8:
        assert len(weighed) >= 27


@pytest.mark.parametrize("q", [81, 128, 243, 256, 729, 3125])
def test_enumeration_agrees_with_parity_on_large_fields(rng, q):
    # extension fields of more than 64 elements: the first least-weight
    # word and the distance by enumeration match the codeword scan and
    # the parity search
    F = make_field(q)
    kmax = 3 if q <= 128 else 2
    for _ in range(5):
        n = rng.randint(4, 7)
        rows = [[rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(rng.randint(2, kmax))]
        code = LinearCode.from_rows(F, n, rows)
        if code.k in (0, n):
            continue
        d = min_distance(code, strategy="parity")
        assert min_weight_codeword(code) == (d, first_word_of_weight(code, d))
        assert min_distance(code, strategy="enumeration") == d


@pytest.mark.parametrize("q, n, k, support", [(9, 40, 4, 4),
                                               (3125, 27, 2, 3)])
def test_enumeration_agrees_on_words_of_several_limbs(rng, q, n, k,
                                                      support):
    # a word of 40 symbols over F_9 takes 4 limbs of 10 symbols, and one
    # of 27 over F_3125 9 limbs of 3, as do the parity search's syndromes
    # of 36 and 25 coordinates; rows of a few nonzero symbols keep the
    # distance, and so the parity search, small, while the least-weight
    # words reach across limbs
    F = make_field(q)
    per = codes._limbs(F).per
    assert -(-n // per) >= 4
    across = 0
    for _ in range(4):
        rows = []
        for _ in range(k):
            row = [0] * n
            for j in rng.sample(range(n), support):
                row[j] = rng.randrange(1, q)
            rows.append(row)
        code = LinearCode.from_rows(F, n, rows)
        d = min_distance(code, strategy="parity")
        w, word = min_weight_codeword(code)
        assert (w, word) == (d, first_word_of_weight(code, d))
        across += len({j // per for j, v in enumerate(word) if v}) >= 2
        assert min_distance(code, strategy="enumeration") == d
    assert across >= 2


def test_symbols_wider_than_a_limb_take_the_rank_layers():
    # a symbol of F_3^22 takes 22 slots of 3 bits, more than one 64-bit
    # limb: the parity search decides every layer by rank checks, and
    # enumeration is refused rather than packed
    F = make_field(3 ** 22)
    assert codes._limbs(F).per == 0
    rows = [[1, 0, 0, 5, 7, 9], [0, 1, 0, 2, 3, 11], [0, 0, 1, 4, 8, 1]]
    code = LinearCode.from_rows(F, 6, rows)
    whole = Budget(enum=F.order ** 3)
    assert distance_strategy(code, budget=whole) == "parity"
    assert min_distance(code) == 3
    with pytest.raises(ResourceLimitError, match="64-bit limb"):
        min_distance(code, strategy="enumeration", budget=whole)
    with pytest.raises(ResourceLimitError, match="64-bit limb"):
        min_weight_codeword(code, budget=whole)


def test_enumeration_packs_a_large_prime_in_wide_slots():
    # a digit of F_p with (p - 1)^2 >= 2^50 takes a slot of 27 bits, 26
    # for the digit and one for the carry of the slot-wise add, so two
    # symbols share a limb
    p = 33554467
    F = make_field(p)
    assert (p - 1) ** 2 >= 1 << 50
    limbs = codes._limbs(F)
    assert (limbs.bits, limbs.width, limbs.per) == (27, 27, 2)
    code = LinearCode.from_rows(F, 5, [[7, 0, p - 1, 123456789 % p, 0]])
    assert min_weight_codeword(code, budget=Budget(enum=p)) == \
        (3, code.rows[0])


def test_min_weight_codeword_memoized_per_code(monkeypatch):
    code = cyclic_code(Poly(F2, [1, 1, 1, 0, 1]), 7).linear_code()
    enum = counting(monkeypatch, "_min_weight_enum")
    same = LinearCode.from_rows(F2, 7, reversed(code.rows))
    assert min_weight_codeword(code) == min_weight_codeword(same)
    assert len(enum) == 1
    # the budget gate comes first, so errors are never cached
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            min_weight_codeword(code, budget=Budget(enum=7))
    assert min_weight_codeword(code, budget=Budget(enum=8))[0] == 4
    assert len(enum) == 1
    # a named strategy still runs its kernel
    assert min_distance(code, strategy="enumeration") == 4
    assert len(enum) == 2


def test_packed_rows_held_per_field_and_rows():
    # row 2 i + a of the packed rows over F_9 is 3^a G_i, one 3-bit slot
    # per base-3 digit, 6 bits a symbol, 10 symbols a limb; equal
    # (field, rows) pairs share one read-only array
    F9 = make_field(9)
    G = ((1, 0, 5), (0, 1, 7))
    R = codes._packed_rows(F9, G)
    assert R.shape == (4, 1) and R.dtype == np.uint64
    assert not R.flags.writeable
    for i, row in enumerate(G):
        for a in range(2):
            scaled = F9.scale_row(3 ** a, row)
            assert int(R[2 * i + a, 0]) == sum(
                v // 3 ** b % 3 << 6 * j + 3 * b
                for j, v in enumerate(scaled) for b in range(2))
            assert codes._limbs(F9).unpack(R[2 * i + a], 3) == \
                tuple(scaled)
    assert codes._packed_rows(make_field(9), tuple(list(G))) is R


def parity_columns(code):
    H = code.dual().rows
    return [tuple(row[j] for row in H) for j in range(code.n)]


def collision_layer(code, w):
    syndromes = codes._Syndromes(code.field, parity_columns(code))
    return codes._collision_layer(syndromes, w)


@pytest.mark.parametrize("q, rows, d", [
    # extended Hamming [8, 4, 4]: halves of even layers meet themselves
    (2, [[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
         [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]], 4),
    # tetracode [4, 2, 3] over F_3: the same in odd characteristic
    (3, [[1, 0, 1, 1], [0, 1, 1, 2]], 3),
    # Reed-Solomon [6, 3, 4] over F_7
    (7, [[1] * 6, [1, 2, 3, 4, 5, 6], [1, 4, 2, 2, 4, 1]], 4),
    # [5, 2, 4] over F_4
    (4, [[1, 0, 1, 2, 3], [0, 1, 1, 3, 2]], 4),
])
def test_collision_layer_skips_halves_meeting_themselves(q, rows, d):
    F = make_field(q)
    code = LinearCode.from_rows(F, len(rows[0]), rows)
    assert min_distance(code, strategy="enumeration") == d
    assert [collision_layer(code, w) for w in range(1, d + 1)] == \
        [False] * (d - 1) + [True]


@pytest.mark.parametrize("choice", ["collision", "rank", "mixed"])
def test_parity_layers_agree_with_enumeration(rng, monkeypatch, choice):
    fields = [make_field(q) for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 125)]

    def costs(*layer):
        # (collision, rank) estimates that force the choice in each layer
        if choice == "mixed":
            return rng.choice([(0, 1), (1, 0)])
        return (0, 1) if choice == "collision" else (1, 0)

    monkeypatch.setattr(codes, "_layer_costs", costs)
    seen, orders = set(), set()
    for _ in range(300):
        field = rng.choice(fields)
        n = rng.randint(3, 12)
        code = random_code(rng, field, n, rng.choice([2, 4]))
        if code.k in (0, n) or field.order ** code.k > 1 << 14:
            continue
        d = min_distance(code, strategy="enumeration")
        # forced collision layers up to d stay small
        if sum(codes._collision_entries(field.order, n, w)
               for w in range(1, d + 1)) > 20000:
            continue
        assert min_distance(code, strategy="parity") == d
        seen.add((field.char == 2, d))
        orders.add(field.order)
    assert {(c, d) for c in (True, False) for d in range(1, 7)} <= seen
    assert orders == {field.order for field in fields}


def test_power_column_code_over_f3125_reads_layer_2_off_the_rref(
        monkeypatch):
    # a constituent the 4.6 scan verifies, cap 4: layer 2 compares the 24
    # row tails up to a scalar; F_3125 has no byte scalings, so layer 3
    # is searched on the parity-check columns, by rank checks, and none
    # of the 27 * 3124 column multiples is built
    F = make_field(3125)
    code = construct._power_column_code(F, 27, 24, 4)
    layers = []

    def record(name):
        kernel = getattr(codes, name)

        def run(*args):
            found = kernel(*args)
            layers.append((name, found))
            return found

        monkeypatch.setattr(codes, name, run)

    for name in ("_proportional_tails", "_tail_sums", "_collision_layer",
                 "_rank_layer"):
        record(name)
    built = counting(monkeypatch, "_column_multiples")
    assert codes._distance_cap(code) == 4
    assert distance_strategy(code) == "parity"
    assert min_distance(code) == 4
    assert layers == [("_proportional_tails", False), ("_rank_layer", False)]
    assert not built


@pytest.mark.parametrize("q, n, k, top", [
    (2, 16, 4, 5), (3, 12, 3, 5), (4, 10, 3, 5), (16, 8, 3, 5),
    # layer 5 would stream C(n - 2, 3) 3124^2 >= 3.9e7 keys
    (3125, 6, 2, 4),
])
def test_collision_entries_match_layer_costs(rng, monkeypatch, q, n, k, top):
    # layers 1..top of a code of distance above top find nothing, and
    # build exactly the table keys, streamed keys and column multiples
    # that _layer_costs charges
    F = make_field(q)
    code = random_code(rng, F, n, k)
    while code.k != k or min_distance(code, strategy="enumeration") <= top:
        code = random_code(rng, F, n, k)
    visited = []
    halves, multiples = codes._halves, codes._column_multiples

    def counted_halves(syndromes, size, *span):
        # halves of one column are slices of the packed columns
        for keys in halves(syndromes, size, *span):
            visited.append(len(keys) if size > 1 else 0)
            yield keys

    def counted_multiples(*args):
        out = multiples(*args)
        visited.extend(map(len, out))
        return out

    monkeypatch.setattr(codes, "_halves", counted_halves)
    monkeypatch.setattr(codes, "_column_multiples", counted_multiples)
    rate = codes._COLLISION_NS_CHAR2 if F.char == 2 else \
        codes._COLLISION_NS_ODD
    for w in range(1, top + 1):
        visited.clear()
        syndromes = codes._Syndromes(F, parity_columns(code))
        assert not codes._collision_layer(syndromes, w)
        assert sum(visited) == codes._collision_entries(q, n, w)
        assert codes._layer_costs(F, n, k, w)[0] == sum(visited) * rate


def test_found_layer_stops_within_one_position_batch(monkeypatch):
    # Reed-Solomon [15, 11, 5] over F_16: every 5 columns are dependent,
    # so layer 5 finds a word on the first 3-column halves it streams.
    # Keys come in one list per leading pair of positions, so the layer
    # builds fewer keys than the list of all halves with first position
    # 0 that a batch per first position would compute before its test.
    F = make_field(16)
    code = reed_solomon(F, 15, 11)
    built = []
    halves = codes._halves

    def counted_halves(*args):
        for keys in halves(*args):
            built.append(len(keys))
            yield keys

    monkeypatch.setattr(codes, "_halves", counted_halves)
    syndromes = codes._Syndromes(F, parity_columns(code))
    assert not any(codes._collision_layer(syndromes, w) for w in range(1, 5))
    built.clear()
    assert codes._collision_layer(syndromes, 5)
    a, b = 3, 2
    first_position = comb(15 - b - 1, a - 1) * 15 ** (a - 1)
    assert sum(built) < first_position
    assert min_distance(code, strategy="parity") == 5


@pytest.mark.parametrize("block", [1 << 18, 5])
def test_enumeration_kernels_agree_with_parity(rng, monkeypatch, block):
    # each code runs the projective pass and the parity search; a block
    # of 5 words splits every span of more into several
    monkeypatch.setattr(codes, "_BLOCK_WORDS", block)
    fields = [make_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)]
    passes = counting(monkeypatch, "_min_weight_enum")
    spans = counted_blocks(monkeypatch, "_projective_blocks")
    runs = 0
    for _ in range(120):
        field = rng.choice(fields)
        n = rng.randint(3, 10)
        code = random_code(rng, field, n, 4)
        if code.k in (0, n) or field.order ** code.k > 1 << 12:
            continue
        d = min_distance(code, strategy="parity")
        assert min_distance(code, strategy="enumeration") == d
        runs += 1
    assert len(passes) == runs
    if block == 5:
        # the first block of a pass holds S_t + G_t for each span S_t of
        # at most 4 words: 1 + 2 + 4 words over F_2
        assert max(spans) <= 7
        assert len(spans) > runs


def test_enumeration_budget_boundary():
    # q^k = budget.enum enumerates; q^k = budget.enum + 1 raises
    F16 = make_field(16)
    rs = LinearCode.from_rows(
        F16, 15, [[F16.pow(a, e) for a in range(1, 16)] for e in range(5)])
    for code, d in ((rs, 11), (zero_sum_code(F3, 7), 2)):
        size = code.field.order ** code.k
        assert min_distance(code, strategy="enumeration",
                            budget=Budget(enum=size)) == d
        with pytest.raises(ResourceLimitError, match="enumeration budget"):
            min_distance(code, strategy="enumeration",
                         budget=Budget(enum=size - 1))
        assert min_weight_codeword(code, budget=Budget(enum=size))[0] == d
        with pytest.raises(ResourceLimitError, match="enumeration budget"):
            min_weight_codeword(code, budget=Budget(enum=size - 1))


def cyclic_rows_from_octal(text, n):
    g = [int(b) for b in reversed(bin(int(text, 8))[2:])]
    return [[0] * t + g + [0] * (n - len(g) - t)
            for t in range(n - len(g) + 1)]


@pytest.mark.parametrize("octal, n, k, d", [
    ("3551", 31, 21, 5),
    ("12471", 63, 51, 5),
])
def test_parity_search_binary_bch(octal, n, k, d):
    code = LinearCode.from_rows(F2, n, cyclic_rows_from_octal(octal, n))
    assert code.k == k
    assert min_distance(code, strategy="parity") == d


def test_parity_search_extended_hamming_64():
    H = [[1] * 64] + [[(x >> b) & 1 for x in range(64)] for b in range(6)]
    code = LinearCode.from_rows(F2, 64, H).dual()
    assert code.k == 57
    assert min_distance(code, strategy="parity") == 4


# ---------------------------------------------------------------------------
# cyclic codes


def cyclic_shift(word):
    return (word[-1],) + tuple(word[:-1])


def test_cyclic_code_rejects_nondivisor():
    with pytest.raises(ValueError, match="does not divide"):
        cyclic_code(Poly(F2, [1, 1, 1]), 7)


def test_cyclic_code_full_and_zero():
    full = cyclic_code(Poly.one(F2), 7)
    assert full.k == 7
    xm1 = Poly.x_pow(F2, 7).sub(Poly.one(F2))
    zero = cyclic_code(xm1, 7)
    assert zero.k == 0
    assert zero.dual().k == 7
    assert full.dual().k == 0


def test_cyclic_linear_code_shift_invariant(rng):
    fact = factor_unity(7, 2)
    for info in fact.factors:
        code = cyclic_code(info.poly, 7).linear_code()
        for row in code.rows:
            assert code.contains(cyclic_shift(row))


def test_cyclic_code_distance_7_2():
    # weight-4 generator whose code has minimum distance 4
    g = Poly(F2, [1, 1, 1, 0, 1])
    code = cyclic_code(g, 7)
    assert code.k == 3
    assert min_distance(code.linear_code()) == 4


def test_cyclic_code_distance_11_5():
    g = Poly(F5, [4, 1])
    code = cyclic_code(g, 11)
    assert code.k == 10
    assert min_distance(code.linear_code()) == 2


def test_repetition_cyclic_code():
    xm1 = Poly.x_pow(F2, 7).sub(Poly.one(F2))
    g, rem = xm1.divmod(Poly(F2, [1, 1]))
    assert rem.is_zero()
    code = cyclic_code(g, 7)
    assert code.k == 1
    assert min_distance(code.linear_code()) == 7


def test_cyclic_dual_even_weight_code():
    even = cyclic_code(Poly(F2, [1, 1]), 7)
    dual = cyclic_dual(even)
    assert dual.gpoly == Poly(F2, [1, 1, 1, 1, 1, 1, 1])
    assert dual.k == 1
    assert min_distance(dual.linear_code()) == 7


def test_cyclic_dual_matches_linear_dual(rng):
    for m, q in [(7, 2), (4, 3), (5, 4), (11, 5)]:
        fact = factor_unity(m, q)
        for info in fact.factors:
            code = cyclic_code(info.poly, m)
            assert code.dual().linear_code() == code.linear_code().dual()


def test_cyclic_dual_reciprocal_value():
    # (x^7 - 1) / (x^3 + x^2 + 1) reversed gives x^4 + x^2 + x + 1
    g = Poly(F2, [1, 0, 1, 1])
    dual = cyclic_code(g, 7).dual()
    assert dual.gpoly == Poly(F2, [1, 1, 1, 0, 1])


# ---------------------------------------------------------------------------
# subcodes selected by factor indices


def test_subcode_rejects_empty_and_out_of_range():
    fact = factor_unity(7, 2)
    with pytest.raises(ValueError, match="empty index set"):
        subcode_from_bz([], fact)
    with pytest.raises(ValueError, match="out of range"):
        subcode_from_bz([4], fact)


def test_subcode_frozen_7_2():
    fact = factor_unity(7, 2)
    d1 = subcode_from_bz([1], fact)
    assert d1.gpoly == Poly(F2, [1, 1, 1, 0, 1])
    d2 = subcode_from_bz([2], fact)
    assert d2.gpoly == Poly(F2, [1, 0, 1, 1, 1])
    d12 = subcode_from_bz([1, 2], fact)
    assert d12.gpoly == Poly(F2, [1, 1])
    assert min_distance(d1.linear_code()) == 4
    assert min_distance(d2.linear_code()) == 4
    assert min_distance(d12.linear_code()) == 2


def test_subcode_frozen_11_5():
    fact = factor_unity(11, 5)
    full = subcode_from_bz([1, 2, 3], fact)
    assert full.gpoly == Poly.one(F5)
    assert full.k == 11
    assert min_distance(full.linear_code()) == 1


def test_subcode_nesting():
    # adding indices divides out more factors, so the dual grows
    fact = factor_unity(7, 2)
    small = subcode_from_bz([1], fact).linear_code()
    big = subcode_from_bz([1, 2], fact).linear_code()
    for row in small.rows:
        assert big.contains(row)


def test_subcode_duplicate_indices():
    fact = factor_unity(7, 2)
    assert subcode_from_bz([1, 1, 2], fact) == subcode_from_bz([1, 2], fact)


def test_subcode_distance_cached():
    fact = factor_unity(7, 2)
    assert subcode_distance(fact, [1]) == 4
    assert subcode_distance(fact, (1,)) == 4
    assert frozenset([1]) in fact._subcode_cache
    assert subcode_distance(fact, [1, 2]) == 2


def test_subcode_is_built_once_per_index_set():
    fact = factor_unity(7, 2)
    sub = subcode_from_bz([1, 2], fact)
    assert subcode_from_bz((2, 1, 1), fact) is sub
    assert fact._subcode_cache[frozenset([1, 2])] is sub
    assert sub.dual() is sub.dual()
    assert sub.linear_code() is sub.linear_code()


def test_subcode_distance_budget_binds_after_cached_call():
    # a first call with budget 1 raises; an earlier default call on the
    # same subcode must not answer it
    fact = factor_unity(7, 2)
    assert subcode_distance(fact, [1]) == 4
    with pytest.raises(ResourceLimitError):
        subcode_distance(fact, [1], budget=Budget(enum=1, rank=1))
    shared = factor_unity(7, make_field(2))
    assert shared is fact
    with pytest.raises(ResourceLimitError):
        subcode_distance(shared, [1], budget=Budget(enum=1, rank=1))
    assert subcode_distance(shared, [1]) == 4


def test_subcode_distance_tight_budget_raises_cold():
    fact = factor_unity(7, 2)
    with pytest.raises(ResourceLimitError):
        subcode_distance(fact, [1], budget=Budget(enum=1, rank=1))
    assert subcode_distance(fact, [1]) == 4


def counting(monkeypatch, name):
    calls = []
    kernel = getattr(codes, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(codes, name, counted)
    return calls


def test_named_strategy_runs_its_kernel_after_auto(monkeypatch):
    code = cyclic_code(Poly(F2, [1, 1, 1, 0, 1]), 7).linear_code()
    assert min_distance(code) == 4
    parity = counting(monkeypatch, "_min_weight_parity")
    enum = counting(monkeypatch, "_min_weight_enum")
    for _ in range(2):
        assert min_distance(code, strategy="parity") == 4
        assert min_distance(code, strategy="enumeration") == 4
    assert (len(parity), len(enum)) == (2, 2)
    assert min_distance(code) == 4
    assert (len(parity), len(enum)) == (2, 2)


def test_auto_distance_cached_per_budget(monkeypatch):
    code = cyclic_code(Poly(F2, [1, 1, 1, 0, 1]), 7).linear_code()
    parity = counting(monkeypatch, "_min_weight_parity")
    enum = counting(monkeypatch, "_min_weight_enum")
    same = LinearCode.from_rows(F2, 7, reversed(code.rows))
    assert same == code and same is not code
    assert min_distance(code) == min_distance(same) == 4
    assert len(parity) + len(enum) == 1
    assert min_distance(code, budget=Budget(enum=1)) == 4
    assert len(parity) + len(enum) == 2


def test_cold_auto_distance_plans_once(monkeypatch):
    # distance_strategy prices the parity search with the distance cap and
    # hands the cap to the kernel: one _distance_cap per cold min_distance,
    # and one _enumeration_ns unless the cap settles the plan at once
    F16 = make_field(16)
    rs, rs6 = (LinearCode.from_rows(
        F16, 15, [[F16.pow(a, e) for a in range(1, 16)] for e in range(k)])
        for k in (5, 6))
    plans = counting(monkeypatch, "_enumeration_ns")
    caps = counting(monkeypatch, "_distance_cap")
    parity = counting(monkeypatch, "_min_weight_parity")
    for code, d, plan_calls in ((rs, 11, 1), (rs6, 10, 1),
                                (zero_sum_code(F5, 11), 2, 0)):
        plans.clear()
        caps.clear()
        assert min_distance(code) == d
        assert distance_strategy(code) in ("enumeration", "parity")
        assert (len(plans), len(caps)) == (plan_calls, 1)
    assert len(parity) == 1


def test_every_strategy_matches_the_codeword_scan_across_cap_classes(rng):
    # the parity search stops where the RREF floor meets the witness cap
    # = min(n - k + 1, least row weight); all three strategies must still
    # equal the least nonzero weight of the codewords themselves
    fields = [make_field(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    classes = set()
    for _ in range(400):
        field = rng.choice(fields)
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        if field.order ** k > 3000:
            continue
        code = LinearCode.from_rows(field, n, [
            [rng.randrange(field.order) for _ in range(n)]
            for _ in range(k)])
        if code.k != k:
            continue
        d = scan_min_weight(code)[0]
        for strategy in ("auto", "parity", "enumeration"):
            assert min_distance(code, strategy=strategy) == d
        cap = codes._distance_cap(code)
        assert d <= cap
        classes.add("k = 1" if k == 1 else "k = n - 1" if k == n - 1
                    else "k")
        classes.add("cap <= 2" if cap <= 2 else "d = cap >= 3"
                    if d == cap else "d < cap")
    assert classes == {"k = 1", "k = n - 1", "k", "cap <= 2",
                       "d = cap >= 3", "d < cap"}


def test_parity_budget_still_charges_the_layers_it_skips():
    # [8, 4, 4]: every RREF row has weight 4, so cap = d = 4 and the
    # search runs layers 2 and 3 only, yet the budget still charges
    # C(8, w) for layer 1 and for layer cap, as a search of every layer
    code = LinearCode.from_rows(F2, 8, [
        [1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]])
    assert codes._distance_cap(code) == 4
    below = sum(comb(8, w) for w in range(1, 4))
    whole = below + comb(8, 4)
    for rank in (below, whole - 1):
        with pytest.raises(ResourceLimitError, match=f"needs up to {whole}"):
            min_distance(code, strategy="parity", budget=Budget(rank=rank))
        # auto falls back to enumeration, as when every layer was searched
        assert distance_strategy(code, budget=Budget(rank=rank)) == \
            "enumeration"
        assert min_distance(code, budget=Budget(rank=rank)) == 4
        with pytest.raises(ResourceLimitError, match="instance too large"):
            min_distance(code, budget=Budget(enum=15, rank=rank))
    assert min_distance(code, strategy="parity",
                        budget=Budget(rank=whole)) == 4
    assert min_distance(code, budget=Budget(enum=15, rank=whole)) == 4


def test_cap_of_two_builds_no_parity_check_matrix(monkeypatch):
    # cap <= 2 settles the distance from the RREF: d = 1 where a row has
    # weight 1, and d = 2 otherwise, by the witness of weight cap; layers
    # 2 and 3 are read off the row tails, so cap 3 and cap 4 build no
    # parity-check matrix either, over a field with byte scalings
    duals = counted_duals(monkeypatch)
    weight_one = LinearCode.from_rows(F3, 4, [[1, 0, 0, 0], [0, 1, 2, 1]])
    for code, d in ((zero_sum_code(F5, 11), 2), (weight_one, 1),
                    (LinearCode.from_rows(F4, 3, [[1, 2, 0]]), 2)):
        assert codes._distance_cap(code) == d
        assert codes._min_weight_parity(code, Budget(),
                                        codes._distance_cap(code)) == d
        assert min_distance(code) == d
    # the [7, 4, 3] Hamming code has cap 3, the [8, 4, 4] extended
    # Hamming code and the [6, 3, 4] Reed-Solomon code over F_7 cap 4
    hamming = LinearCode.from_rows(F2, 7, [
        [1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]])
    extended = LinearCode.from_rows(F2, 8, [
        [1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]])
    for code, cap in ((hamming, 3), (extended, 4),
                      (reed_solomon(make_field(7), 6, 3), 4)):
        assert codes._distance_cap(code) == cap
        assert min_distance(code, strategy="parity") == cap
    assert duals == []
    # cap 5 searches layer 4 on the columns of one complement basis, as
    # does layer 3 over F_9, which has no byte scalings; no dual is
    # reduced
    for code, cap in ((reed_solomon(make_field(8), 7, 3), 5),
                      (reed_solomon(make_field(9), 8, 5), 4)):
        assert codes._distance_cap(code) == cap
        assert min_distance(code, strategy="parity") == cap
        assert duals == [("complement", code)]
        duals.clear()


def counted_duals(monkeypatch):
    """The parity-check matrices built: ("dual", code) for each
    LinearCode.dual and ("complement", code) for each complement basis
    written from a code's own rows."""
    built = []
    dual, complement = LinearCode.dual, codes._complement

    def counted_dual(code):
        built.append(("dual", code))
        return dual(code)

    def counted_complement(F, n, rows, pivots):
        built.append(("complement", LinearCode(F, n, tuple(rows),
                                               tuple(pivots))))
        return complement(F, n, rows, pivots)

    monkeypatch.setattr(LinearCode, "dual", counted_dual)
    monkeypatch.setattr(codes, "_complement", counted_complement)
    return built


def tail_layers(code):
    """(layer 2, layer 3) as read off the RREF, None where not read."""
    F, n, k = code.field, code.n, code.k
    cap = codes._distance_cap(code)
    tails = codes._tails(code)
    two = codes._proportional_tails(F, tails) if cap >= 3 else None
    three = codes._tail_sums(F, tails) if cap >= 4 and not two and \
        codes._tail_entries(F, n, k, 3) is not None else None
    return two, three


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_rref_layers_agree_with_the_codeword_enumeration(rng, q):
    # each layer read off the RREF holds a word exactly where the
    # enumeration's least weight says so, and the parity search, which
    # reads them, returns that weight, at cap 3, 4 and at least 5; F_9
    # and F_27 have no byte scalings, so they read layer 2 alone
    F = make_field(q)
    want = {(cap, hit) for cap in (3, 4, 5) for hit in (True, False)} | {
        ("layer 2", True), ("layer 2", False)}
    if codes._byte_scalings(F) is not None:
        want |= {("layer 3", True), ("layer 3", False)}
    seen = set()
    for _ in range(2500):
        n = rng.randint(4, 13 if q < 27 else 8)
        k = rng.randint(2, n - 2)
        if q ** k > 1 << 13:
            continue
        code = random_code(rng, F, n, k)
        if code.k < 2:
            continue
        cap = codes._distance_cap(code)
        if cap < 3:
            continue
        d = codes._min_weight_enum(code)[0]
        two, three = tail_layers(code)
        assert two == (d == 2)
        if three is not None:
            assert three == (d == 3)
        assert codes._min_weight_parity(code, Budget(rank=10 ** 9), cap) \
            == d
        seen.add((min(cap, 5), d == cap))
        seen.add(("layer 2", two))
        if three is not None:
            seen.add(("layer 3", three))
        if seen == want:
            break
    assert seen == want


def test_cap_is_the_least_row_weight_and_never_above_singleton(rng):
    # an RREF row is 1 on its pivot and 0 on the other pivots, so it
    # weighs at most n - k + 1: cap = n - k + 1 only where every tail is
    # full, and never below the least row weight
    for _ in range(300):
        F = rng.choice([F2, F3, F4, F5, make_field(9)])
        n = rng.randint(2, 12)
        code = random_code(rng, F, n, n)
        if code.k == 0:
            continue
        least = min(n - row.count(0) for row in code.rows)
        assert codes._distance_cap(code) == least <= n - code.k + 1
    # cap = n - k + 1, the least row weight, with d = cap (Reed-Solomon
    # codes, read off the RREF up to layer 3 over F_7 and F_8, and up to
    # layer 2 over F_9) and with d < cap: over F_3, the tails (1, 1, 1)
    # and (1, 2, 1) differ by a vector of weight 1
    for F, n, k in ((make_field(7), 6, 3), (make_field(8), 7, 4),
                    (make_field(9), 8, 5)):
        code = reed_solomon(F, n, k)
        assert codes._distance_cap(code) == n - k + 1
        assert tail_layers(code) == (
            (False, False) if F.order < 9 else (False, None))
        assert min_distance(code, strategy="parity") == \
            codes._min_weight_enum(code)[0] == n - k + 1
    code = LinearCode.from_rows(F3, 5, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 1]])
    assert codes._distance_cap(code) == 4 == code.n - code.k + 1
    assert tail_layers(code) == (False, True)
    assert min_distance(code, strategy="parity") == 3


@pytest.mark.parametrize("q, tails, form", [
    # f_1 + f_2 = (0, 0, 0, 1)
    (2, [(1, 1, 1, 0), (1, 1, 1, 1)], "weight-1 sum"),
    # f_1 + 2 f_2 = (1, 2, 3, 4) + (4, 3, 2, 2) = (0, 0, 0, 1)
    (5, [(1, 2, 3, 4), (2, 4, 1, 1)], "weight-1 sum"),
    # f_1 + f_2 = f_3
    (2, [(1, 1, 1, 0, 0), (0, 0, 1, 1, 1), (1, 1, 0, 1, 1)], "dependent"),
    # f_1 + 3 f_2 = (1, 2, 6, 5, 1) = 4 f_3
    (7, [(1, 2, 3, 0, 0), (0, 0, 1, 4, 5), (2, 4, 5, 3, 2)], "dependent"),
])
def test_each_form_of_a_weight_3_word_is_read_off_the_tails(q, tails, form):
    # rows [I | tails] of weight at least 4, no two tails proportional:
    # the word of weight 3 is R_1 + a R_2 with a tail sum of weight 1, or
    # three rows whose tails are dependent while no sum of two tails has
    # weight 1
    F = make_field(q)
    k = len(tails)
    rows = [[int(i == j) for j in range(k)] + list(f)
            for i, f in enumerate(tails)]
    code = LinearCode.from_rows(F, len(rows[0]), rows)
    assert codes._tails(code) == tails
    assert codes._distance_cap(code) >= 4
    light = [(i, j, a) for i in range(k) for j in range(i + 1, k)
             for a in range(1, q)
             if sum(1 for u, v in zip(tails[i], tails[j])
                    if F.add(u, F.mul(a, v))) == 1]
    assert bool(light) == (form == "weight-1 sum")
    assert tail_layers(code) == (False, True)
    assert codes._min_weight_enum(code)[0] == 3
    assert min_distance(code, strategy="parity") == 3


def proportional_pair(F):
    """Rows [I | f] and [I | 5 f]: a word of weight 2."""
    f = [1, 2, 3]
    return LinearCode.from_rows(F, 5, [[1, 0] + f,
                                       [0, 1] + F.scale_row(5, f)])


def given_rows(*rows):
    return lambda F: LinearCode.from_rows(F, len(rows[0]), rows)


@pytest.mark.parametrize("q, make, d", [
    # d = 2 found in layer 2 over F_9, which has no byte scalings
    (9, proportional_pair, 2),
    # d = 3 found in layer 3 over F_2, and at cap 3 over F_2
    (2, given_rows([1, 0, 1, 1, 1, 0], [0, 1, 1, 1, 1, 1]), 3),
    (2, given_rows([1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                   [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]), 3),
    # d = cap = 4 through both RREF layers over F_7, and through layer 3
    # on the parity-check columns over F_9
    (7, given_rows([1] * 6, [1, 2, 3, 4, 5, 6], [1, 4, 2, 2, 4, 1]), 4),
    (9, lambda F: reed_solomon(F, 8, 5), 4),
])
def test_rref_layers_keep_the_parity_budget_boundary(q, make, d):
    # the rank budget charges C(n, w) for every layer up to the answer,
    # read off the RREF, searched or attained by cap alike: one subset
    # less than that raises, as it did when every layer was searched on
    # the parity-check columns
    code = make(make_field(q))
    assert codes._min_weight_enum(code)[0] == d
    need = sum(comb(code.n, w) for w in range(1, d + 1))
    with pytest.raises(ResourceLimitError, match=f"needs up to {need}"):
        min_distance(code, strategy="parity", budget=Budget(rank=need - 1))
    assert min_distance(code, strategy="parity", budget=Budget(rank=need)) \
        == d


@pytest.mark.parametrize("q", [2, 4, 9])
def test_one_row_code_is_its_own_least_weight_word(rng, monkeypatch, q):
    # a code of one row has one projective word, the row itself, so
    # enumeration returns it without packing any rows
    F = make_field(q)
    packed = counting(monkeypatch, "_packed_rows")
    for _ in range(12):
        n = rng.randint(1, 9)
        code = LinearCode.from_rows(
            F, n, [[rng.randrange(q) for _ in range(n)]])
        if code.k == 0:
            continue
        d = sum(1 for v in code.rows[0] if v)
        assert min_weight_codeword(code) == (d, first_word_of_weight(code, d))
        assert min_distance(code, strategy="enumeration") == d
        if code.n > 1:
            assert distance_strategy(code) == (
                "parity" if d <= 2 else "enumeration")
            assert min_distance(code) == d
    assert packed == []


def test_resource_limit_is_not_cached(monkeypatch):
    code = cyclic_code(Poly(F2, [1, 1, 1, 0, 1]), 7).linear_code()
    parity = counting(monkeypatch, "_min_weight_parity")
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            min_distance(code, budget=Budget(enum=1, rank=1))
    assert len(parity) == 2
    assert min_distance(code) == 4
