"""Tests for the quasi-cyclic layer.

Two independent oracles anchor the semantics: generator evaluation is
checked against direct powering of the canonical root of unity in the
splitting field, and the trace construction is checked by comparing the
full set of trace codewords with the full polynomial module generated
by the code's generator tuples.
"""

from __future__ import annotations

from itertools import product

import pytest

from qclrc import codes
from qclrc.algebra import (FactorInfo, Poly, factor_unity, make_field,
                           unity_context)
from qclrc.codes import (Budget, LinearCode, min_distance, rref,
                         subcode_from_bz)
from qclrc.errors import InternalConsistencyError, ResourceLimitError
from qclrc.qc import (
    AssociatedCodes,
    ConstituentDecomposition,
    QCCode,
    associated_cyclic_codes,
    column_shift,
    dimension_of,
    distance_sorted_order,
    evaluate_constituents,
    flatten,
    generator_matrix,
    qc_from_matrix_rows,
    rebuild_code,
    shift_invariance_check,
    trace_codeword,
    unflatten,
)
from qclrc.reference import reference_case

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)

# (q, m) pairs with gcd(q, m) = 1 used for random sampling
SMALL_CASES = [(2, 3), (2, 5), (2, 7), (3, 5), (3, 7)]


def random_qc(rng, q, m, ell, num_gens):
    F = make_field(q)
    gens = tuple(
        tuple(Poly(F, [rng.randrange(q) for _ in range(m)])
              for _ in range(ell))
        for _ in range(num_gens))
    return QCCode(F, m, ell, gens)


def module_words(code: QCCode) -> set[tuple[int, ...]]:
    """All codewords by brute enumeration of polynomial coefficients."""
    F = code.field
    q = F.order
    m = code.m
    xm1 = Poly.x_pow(F, m).sub(Poly.one(F))
    coeff_rows = []
    for gen in code.generators:
        for t in range(m):
            xt = Poly.x_pow(F, t)
            cols = [xt.mul(a).mod(xm1) for a in gen]
            arr = tuple(
                tuple(c.coeffs[g] if g < len(c.coeffs) else 0 for c in cols)
                for g in range(m))
            coeff_rows.append(flatten(arr))
    words = set()
    total = q ** len(coeff_rows)
    assert total <= 1 << 16
    for idx in range(total):
        word = [0] * (m * code.ell)
        t = idx
        for row in coeff_rows:
            c = t % q
            t //= q
            if c:
                word = [F.add(w, F.mul(c, v)) for w, v in zip(word, row)]
        words.add(tuple(word))
    return words


def example_dec_21_15() -> ConstituentDecomposition:
    """A length-21 dimension-15 decomposition over F_2 used as a fixture."""
    fact = factor_unity(7, 2)
    f1, f2, f3 = fact.factors
    rows1 = [
        (f1.pack([1, 1, 1]), f1.pack([1, 1, 1]), f1.pack([1, 0, 1])),
        (0, f1.pack([1, 0, 1]), f1.pack([1, 0, 1])),
    ]
    c1 = LinearCode.from_rows(f1.ext_field, 3, rows1)
    c2 = LinearCode.full(f2.ext_field, 3)
    c3 = LinearCode.zero(f3.ext_field, 3)
    return ConstituentDecomposition(fact, 3, (c1, c2, c3))


# ---------------------------------------------------------------------------
# QCCode validation


def test_qc_code_validates_shape():
    with pytest.raises(ValueError, match="tuple length"):
        QCCode(F2, 3, 2, ((Poly.one(F2),),))
    with pytest.raises(ValueError, match="degree"):
        QCCode(F2, 3, 1, ((Poly.x_pow(F2, 3),),))
    with pytest.raises(ValueError, match="wrong field"):
        QCCode(F2, 3, 1, ((Poly.one(F3),),))
    with pytest.raises(ValueError, match="positive"):
        QCCode(F2, 0, 1, ())


# ---------------------------------------------------------------------------
# layouts


def test_flatten_column_major():
    assert flatten([[1, 2], [3, 4]]) == (1, 3, 2, 4)


def test_unflatten_roundtrip(rng):
    for _ in range(20):
        m = rng.randint(1, 5)
        ell = rng.randint(1, 4)
        vec = tuple(rng.randrange(7) for _ in range(m * ell))
        arr = unflatten(vec, m, ell)
        assert len(arr) == m and len(arr[0]) == ell
        assert flatten(arr) == vec


def test_unflatten_rejects_bad_length():
    with pytest.raises(ValueError, match="length"):
        unflatten((1, 2, 3), 2, 2)


def test_column_shift():
    assert column_shift([[1, 2], [3, 4], [5, 6]]) == \
        ((5, 6), (1, 2), (3, 4))


def test_shift_invariance_positive_and_negative():
    # spans of full polynomial modules are invariant
    rows = [(1, 1, 0, 0, 1, 0), (0, 1, 1, 1, 0, 0), (1, 0, 1, 0, 0, 1)]
    closed = []
    for r in rows:
        for t in range(3):
            arr = unflatten(r, 3, 2)
            for _ in range(t):
                arr = column_shift(arr)
            closed.append(flatten(arr))
    assert shift_invariance_check(closed, 2, F2)
    assert not shift_invariance_check([(1, 0, 0, 0, 0, 0)], 2, F2)
    assert shift_invariance_check([], 2, F2)
    with pytest.raises(ValueError, match="multiple"):
        shift_invariance_check([(1, 0, 0)], 2, F2)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluation_matches_root_powering(rng):
    for q, m in [(2, 7), (5, 11)]:
        F = make_field(q)
        fact = factor_unity(m, F)
        ctx = unity_context(m, F)
        big = ctx.splitting
        for _ in range(15):
            a = Poly(F, [rng.randrange(q) for _ in range(m)])
            for info in fact.factors:
                root_big = big.pow(ctx.beta, info.rep)
                embedded = 0
                for c in reversed(info.unpack(info.eval(a))):
                    embedded = big.add(big.mul(embedded, root_big), c)
                direct = 0
                for c in reversed(a.coeffs):
                    direct = big.add(big.mul(direct, root_big), c)
                assert embedded == direct


def test_evaluation_zero_iff_divisible(rng):
    fact = factor_unity(7, 2)
    f1 = fact.factors[0]
    # a generator divisible by one factor kills exactly that constituent
    gen = (f1.poly.mul(Poly(F2, [1, 1])), f1.poly)
    code = QCCode(F2, 7, 2, (gen,))
    dec = evaluate_constituents(code, fact)
    assert dec.constituents[0].is_zero()
    assert not dec.constituents[1].is_zero()
    assert not dec.constituents[2].is_zero()


@pytest.mark.parametrize("wrong", [lambda got: got or 1, lambda got: 0],
                         ids=["zero-made-nonzero", "nonzero-made-zero"])
def test_evaluation_disagreeing_with_divisibility_is_caught(monkeypatch,
                                                            wrong):
    # f1 divides the entry, so its true value is 0 at f1 and nonzero at
    # the other factors; either kind of wrong value must be caught
    fact = factor_unity(7, 2)
    code = QCCode(F2, 7, 1, ((fact.factors[0].poly,),))
    evaluate = FactorInfo.eval
    monkeypatch.setattr(FactorInfo, "eval",
                        lambda info, a: wrong(evaluate(info, a)))
    with pytest.raises(InternalConsistencyError, match="disagree"):
        evaluate_constituents(code, fact)


def test_evaluation_reduces_each_entry_once(monkeypatch):
    """One division per generator entry and factor: FactorInfo.eval takes
    the remainder as it is."""
    F = make_field(3)
    fact = factor_unity(13, F)
    assert {info.degree for info in fact.factors} == {1, 3}
    code = QCCode(F, 13, 2, (
        (Poly(F, [1, 2, 0, 1] * 3), Poly(F, [2] * 13)),
        (Poly(F, [0, 1] * 6), Poly.one(F))))
    divide = Poly._divide
    calls = []

    def counted(a, b):
        calls.append(b)
        return divide(a, b)
    monkeypatch.setattr(Poly, "_divide", counted)
    evaluate_constituents(code, fact)
    assert len(calls) == 2 * 2 * fact.num_factors


def test_evaluate_rejects_mismatched_factorization():
    fact = factor_unity(5, 2)
    code = QCCode(F2, 7, 1, ((Poly.one(F2),),))
    with pytest.raises(ValueError, match="does not match"):
        evaluate_constituents(code, fact)


def test_dimension_matches_shifted_row_rank(rng):
    for _ in range(12):
        q, m = SMALL_CASES[rng.randrange(len(SMALL_CASES))]
        ell = rng.randint(1, 3)
        code = random_qc(rng, q, m, ell, rng.randint(1, 2))
        dec = evaluate_constituents(code)
        words = []
        F = code.field
        xm1 = Poly.x_pow(F, m).sub(Poly.one(F))
        for gen in code.generators:
            for t in range(m):
                xt = Poly.x_pow(F, t)
                cols = [xt.mul(a).mod(xm1) for a in gen]
                arr = tuple(
                    tuple(c.coeffs[g] if g < len(c.coeffs) else 0
                          for c in cols)
                    for g in range(m))
                words.append(flatten(arr))
        _, rank, _ = rref(words, F)
        assert dimension_of(dec) == rank


# ---------------------------------------------------------------------------
# trace construction


def test_trace_set_equals_module_set(rng):
    fact = factor_unity(7, 2)
    for _ in range(3):
        code = random_qc(rng, 2, 7, 2, 1)
        dec = evaluate_constituents(code, fact)
        traces = set()
        for combo in product(*[c.codewords() for c in dec.constituents]):
            traces.add(flatten(trace_codeword(dec, combo)))
        assert traces == module_words(code)


def test_trace_codeword_rejects_bad_rows():
    dec = example_dec_21_15()
    zero = (0, 0, 0)
    with pytest.raises(ValueError, match="coefficient rows"):
        trace_codeword(dec, (zero, zero))
    with pytest.raises(ValueError, match="row length"):
        trace_codeword(dec, ((0, 0), zero, zero))
    with pytest.raises(ValueError, match="not in the constituent"):
        trace_codeword(dec, (zero, zero, (1, 0, 0)))


def test_trace_of_zero_rows_is_zero():
    dec = example_dec_21_15()
    zero = (0, 0, 0)
    arr = trace_codeword(dec, (zero, zero, zero))
    assert all(v == 0 for row in arr for v in row)


def test_generator_matrix_fixture():
    dec = example_dec_21_15()
    assert dimension_of(dec) == 15
    G = generator_matrix(dec)
    assert len(G) == 15
    assert all(len(row) == 21 for row in G)
    assert shift_invariance_check(G, 3, F2)
    code = rebuild_code(dec)
    assert code.k == 15


def test_rebuild_code_reduces_the_trace_rows_once(monkeypatch):
    dec = example_dec_21_15()
    G = generator_matrix(dec)
    calls = []
    reduce_rows = codes.rref

    def counted(rows, field):
        calls.append(len(rows))
        return reduce_rows(rows, field)
    monkeypatch.setattr(codes, "rref", counted)
    code = rebuild_code(dec)
    assert calls == [15]
    assert code == LinearCode.from_rows(F2, 21, G)


def test_trace_construction_checks_its_rank(monkeypatch):
    dec = example_dec_21_15()
    monkeypatch.setattr(ConstituentDecomposition, "dimension",
                        lambda self: 14)
    for build in (generator_matrix, rebuild_code):
        with pytest.raises(InternalConsistencyError,
                           match="rank 15, expected 14"):
            build(dec)


def test_generator_matrix_roundtrip(rng):
    for _ in range(8):
        q, m = SMALL_CASES[rng.randrange(len(SMALL_CASES))]
        ell = rng.randint(2, 3)
        code = random_qc(rng, q, m, ell, rng.randint(1, 2))
        fact = factor_unity(m, code.field)
        dec = evaluate_constituents(code, fact)
        if dec.dimension() == 0:
            continue
        G = generator_matrix(dec)
        again = evaluate_constituents(
            qc_from_matrix_rows(code.field, m, ell, G), fact)
        assert again.constituents == dec.constituents


def test_generator_matrix_rows_shift_invariant(rng):
    for _ in range(6):
        q, m = SMALL_CASES[rng.randrange(len(SMALL_CASES))]
        ell = rng.randint(1, 3)
        code = random_qc(rng, q, m, ell, 1)
        dec = evaluate_constituents(code)
        if dec.dimension() == 0:
            continue
        assert shift_invariance_check(generator_matrix(dec), ell, code.field)


def test_codeword_columns_lie_in_associated_subcode(rng):
    for _ in range(6):
        q, m = SMALL_CASES[rng.randrange(len(SMALL_CASES))]
        ell = rng.randint(1, 3)
        code = random_qc(rng, q, m, ell, 1)
        fact = factor_unity(m, code.field)
        dec = evaluate_constituents(code, fact)
        if dec.dimension() == 0:
            continue
        D = subcode_from_bz(dec.nonzero_indices(), fact).linear_code()
        for row in generator_matrix(dec):
            arr = unflatten(row, m, ell)
            for j in range(ell):
                assert D.contains(tuple(arr[g][j] for g in range(m)))


# ---------------------------------------------------------------------------
# sorted order and associated codes


def test_distance_sorted_order_fixture():
    dec = example_dec_21_15()
    assert dec.constituent_distance(1) == 2
    assert dec.constituent_distance(2) == 1
    assert dec.nonzero_indices() == (1, 2)
    assert distance_sorted_order(dec) == (1, 2)


def test_associated_codes_fixture():
    assoc = associated_cyclic_codes(example_dec_21_15())
    assert assoc.order == (1, 2)
    assert assoc.subsets == ((1,), (2,), (1, 2))
    assert assoc.distance((1,)) == 4
    assert assoc.distance((2,)) == 4
    assert assoc.distance((1, 2)) == 2
    assert assoc.subcode((1, 2)).gpoly == Poly(F2, [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        assoc.distance((3,))


def test_associated_codes_ties_sort_by_index():
    fact = factor_unity(7, 2)
    f1, f2, f3 = fact.factors
    c1 = LinearCode.full(f1.ext_field, 2)
    c2 = LinearCode.full(f2.ext_field, 2)
    c3 = LinearCode.zero(f3.ext_field, 2)
    dec = ConstituentDecomposition(fact, 2, (c1, c2, c3))
    assert distance_sorted_order(dec) == (1, 2)


def test_sorted_order_and_subset_distances_11_5():
    fact = factor_unity(11, 5)
    f1, f2, f3 = fact.factors
    ell = 7
    c1 = LinearCode.from_rows(f1.ext_field, ell, [[1, 1, 0, 0, 0, 0, 0]])
    c2 = LinearCode.from_rows(f2.ext_field, ell, [[1, 1, 1, 0, 0, 0, 0]])
    c3 = LinearCode.from_rows(f3.ext_field, ell, [[1, 1, 1, 1, 0, 0, 0]])
    dec = ConstituentDecomposition(fact, ell, (c1, c2, c3))
    assoc = associated_cyclic_codes(dec)
    assert assoc.order == (3, 2, 1)
    expected = {
        (1,): 11, (2,): 6, (3,): 6,
        (1, 2): 5, (1, 3): 5, (2, 3): 2,
        (1, 2, 3): 1,
    }
    assert set(assoc.subsets) == set(expected)
    for positions, d in expected.items():
        assert assoc.distance(positions) == d, positions


def test_associated_codes_large_factor_count():
    # x^31 - 1 over F_2 has 7 factors; only contiguous ranges are listed
    fact = factor_unity(31, 2)
    assert fact.num_factors == 7
    ones = tuple(
        LinearCode.full(info.ext_field, 1) for info in fact.factors)
    dec = ConstituentDecomposition(fact, 1, ones)
    assoc = associated_cyclic_codes(dec)
    assert assoc.order == (1, 2, 3, 4, 5, 6, 7)
    assert len(assoc.subsets) == 7 * 8 // 2
    assert all(s == tuple(range(s[0], s[-1] + 1)) for s in assoc.subsets)


def test_constituent_decomposition_validation():
    fact = factor_unity(7, 2)
    f1, f2, f3 = fact.factors
    good = (LinearCode.zero(f1.ext_field, 2), LinearCode.zero(f2.ext_field, 2),
            LinearCode.zero(f3.ext_field, 2))
    with pytest.raises(ValueError, match="constituents for"):
        ConstituentDecomposition(fact, 2, good[:2])
    with pytest.raises(ValueError, match="wrong field"):
        ConstituentDecomposition(
            fact, 2, (good[1], good[0], good[2]))
    with pytest.raises(ValueError, match="length"):
        ConstituentDecomposition(
            fact, 3, good)


def test_constituent_distance_cached():
    dec = example_dec_21_15()
    assert dec.constituent_distance(1) == 2
    assert dec._dcache[1] == 2


def test_constituent_distance_budget_binds_after_cached_call():
    # a first call with budget 1 raises on F_8^3 (8^2 codewords, 3
    # one-column subsets); an earlier default call must not answer it,
    # on the same decomposition or on another sharing its factorization
    first = reference_case("4.1")
    with pytest.raises(ResourceLimitError):
        first.constituent_distance(1, budget=Budget(enum=1, rank=1))
    assert first.constituent_distance(1) == 2
    with pytest.raises(ResourceLimitError):
        first.constituent_distance(1, budget=Budget(enum=1, rank=1))
    second = reference_case("4.1")
    assert second.fact is first.fact
    with pytest.raises(ResourceLimitError):
        second.constituent_distance(1, budget=Budget(enum=1, rank=1))
    assert second.constituent_distance(1) == 2
