"""Bounds, status classification, and one-erasure recovery."""

from __future__ import annotations

import pytest

from qclrc.algebra import factor_unity, make_field
from qclrc.bounds import (
    CERT_PREFIX,
    CERT_TELESCOPE,
    GoBound,
    full_report,
    go_bound,
    locality_upper,
    prefix_bound,
    r_term,
    recover_symbol,
    recovery_check,
    singleton_bound,
    status_label,
)
from qclrc.codes import Budget, LinearCode, min_distance
from qclrc.errors import InternalConsistencyError
from qclrc.qc import ConstituentDecomposition, generator_matrix, rebuild_code
from qclrc.reference import reference_case

F2 = make_field(2)


def example_dec_21_15() -> ConstituentDecomposition:
    """Two-generator [21, 15] decomposition: one rank-2 constituent of
    distance 2, one full constituent, one zero constituent."""
    fact = factor_unity(7, F2)
    f1 = fact.factors[0]
    F8 = f1.ext_field
    c1 = LinearCode.from_rows(F8, 3, [
        (f1.pack((1, 1, 1)), f1.pack((1, 1, 1)), f1.pack((1, 0, 1))),
        (0, f1.pack((1, 0, 1)), f1.pack((1, 0, 1)))])
    c2 = LinearCode.full(fact.factors[1].ext_field, 3)
    c3 = LinearCode.zero(fact.factors[2].ext_field, 3)
    return ConstituentDecomposition(fact, 3, (c1, c2, c3))


def overlap_dec_6_4() -> ConstituentDecomposition:
    """Length-6 decomposition whose constituent supports can fully
    overlap: the telescoped terms overshoot the true distance here."""
    fact = factor_unity(3, F2)
    F4 = fact.factors[0].ext_field
    return ConstituentDecomposition(fact, 2, (
        LinearCode.from_rows(F4, 2, [(1, 1)]),
        LinearCode.full(F2, 2)))


def all_nonzero_dec_10() -> ConstituentDecomposition:
    """Length-10 decomposition with every constituent nonzero, so the
    associated cyclic code is the full space and its dual is zero."""
    fact = factor_unity(5, F2)
    return ConstituentDecomposition(fact, 2, (
        LinearCode.full(fact.factors[0].ext_field, 2),
        LinearCode.full(F2, 2)))


def random_decomposition(rng, fact, ell, *, max_dim_order=1 << 16):
    while True:
        cons = []
        for info in fact.factors:
            k = rng.randrange(0, ell + 1)
            if k == 0:
                cons.append(LinearCode.zero(info.ext_field, ell))
                continue
            rows = [tuple(rng.randrange(info.ext_field.order)
                          for _ in range(ell)) for _ in range(k)]
            cons.append(LinearCode.from_rows(info.ext_field, ell, rows))
        dec = ConstituentDecomposition(fact, ell, tuple(cons))
        k = dec.dimension()
        if 1 <= k and fact.field.order ** k <= max_dim_order:
            return dec


def rebuilt_distance(dec: ConstituentDecomposition) -> int:
    lin = LinearCode.from_rows(dec.field, dec.n, generator_matrix(dec))
    return min_distance(lin)


# ---------------------------------------------------------------------------
# singleton_bound


def test_singleton_bound_values():
    assert singleton_bound(21, 15, 6) == 5
    assert singleton_bound(77, 48, 10) == 26
    assert singleton_bound(7, 1, 1) == 7


def test_singleton_bound_nonpositive_regime():
    assert singleton_bound(6, 5, 1) <= 0


def test_singleton_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        singleton_bound(5, 6, 2)
    with pytest.raises(ValueError):
        singleton_bound(5, 0, 2)
    with pytest.raises(ValueError):
        singleton_bound(5, 3, 0)


def test_singleton_bound_monotone_in_locality():
    values = [singleton_bound(21, 15, r) for r in range(1, 16)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# locality_upper


def test_locality_upper_reference_value():
    assert locality_upper(example_dec_21_15()) == 6


def test_locality_upper_full_space_falls_back_to_block_cap():
    assert locality_upper(all_nonzero_dec_10()) == 4


def test_locality_upper_rejects_zero_code():
    fact = factor_unity(5, F2)
    dec = ConstituentDecomposition(fact, 2, tuple(
        LinearCode.zero(info.ext_field, 2) for info in fact.factors))
    with pytest.raises(ValueError):
        locality_upper(dec)


# ---------------------------------------------------------------------------
# r_term


REFERENCE_CDIST = {1: 4, 2: 3, 3: 2}
REFERENCE_DDIST = {
    frozenset({1}): 11, frozenset({2}): 6, frozenset({3}): 6,
    frozenset({1, 2}): 5, frozenset({1, 3}): 5, frozenset({2, 3}): 2,
    frozenset({1, 2, 3}): 1}


def test_r_term_singleton():
    assert r_term((3,), REFERENCE_CDIST, REFERENCE_DDIST) == 12


def test_r_term_pair():
    assert r_term((2, 3), REFERENCE_CDIST, REFERENCE_DDIST) == 10


def test_r_term_triple_telescopes_prefix_sets():
    assert r_term((1, 2, 3), REFERENCE_CDIST, REFERENCE_DDIST) == 18


def test_r_term_rejects_empty():
    with pytest.raises(ValueError):
        r_term((), REFERENCE_CDIST, REFERENCE_DDIST)


def test_r_term_rejects_missing_constituent_distance():
    with pytest.raises(ValueError):
        r_term((4,), REFERENCE_CDIST, REFERENCE_DDIST)


def test_r_term_rejects_increasing_distances():
    with pytest.raises(ValueError):
        r_term((3, 1), REFERENCE_CDIST, REFERENCE_DDIST)


def test_r_term_rejects_missing_subcode_distance():
    with pytest.raises(ValueError):
        r_term((2, 1), REFERENCE_CDIST, {frozenset({2}): 6})


# ---------------------------------------------------------------------------
# go_bound and prefix_bound


def test_go_bound_reference_case():
    go = go_bound(example_dec_21_15())
    assert go == GoBound(4, (1, 2), (((2,), 4), ((1, 2), 6)), CERT_TELESCOPE)


def test_go_bound_single_constituent():
    fact = factor_unity(7, F2)
    dec = ConstituentDecomposition(fact, 3, (
        LinearCode.zero(fact.factors[0].ext_field, 3),
        LinearCode.full(fact.factors[1].ext_field, 3),
        LinearCode.zero(F2, 3)))
    go = go_bound(dec)
    assert go.value == 4
    assert go.terms == (((2,), 4),)
    assert rebuilt_distance(dec) >= go.value


def test_go_bound_tie_reports_lex_smallest_order():
    fact = factor_unity(7, F2)
    f1, f2 = fact.factors[0], fact.factors[1]
    dec = ConstituentDecomposition(fact, 3, (
        LinearCode.from_rows(f1.ext_field, 3, [(1, 1, 0)]),
        LinearCode.from_rows(f2.ext_field, 3, [(1, 1, 0)]),
        LinearCode.zero(F2, 3)))
    go = go_bound(dec)
    assert go.order == (1, 2)
    assert go.value == 4


def test_go_bound_rejects_zero_code():
    fact = factor_unity(5, F2)
    dec = ConstituentDecomposition(fact, 2, tuple(
        LinearCode.zero(info.ext_field, 2) for info in fact.factors))
    with pytest.raises(ValueError):
        go_bound(dec)


def test_telescoped_terms_overshoot_on_overlapping_supports():
    """The telescoped value is not a floor: fully overlapping
    constituent supports realize a codeword below it."""
    dec = overlap_dec_6_4()
    go = go_bound(dec)
    assert go.value == 3
    assert go.certificate == CERT_TELESCOPE
    assert rebuilt_distance(dec) == 2


def test_telescoped_terms_overshoot_on_reference_77_48():
    """The [77, 48] reference code over F_5 holds a weight-4 word in row 0
    of its array, below the telescoped value 10 that the reference
    analysis reports; the prefix floor is 4."""
    dec = reference_case("4.6")
    word = [0] * dec.n
    for position, coef in zip((0, 11, 22, 33), (1, 2, 3, 4)):
        word[position] = coef
    assert rebuild_code(dec).contains(word)
    # Budget(enum=1) routes every distance to the exact parity-check search,
    # which takes milliseconds here where enumeration takes seconds.
    assert prefix_bound(dec, budget=Budget(enum=1)).value == 4
    assert go_bound(dec, budget=Budget(enum=1)).value == 10


def test_prefix_bound_holds_on_overlapping_supports():
    dec = overlap_dec_6_4()
    pb = prefix_bound(dec)
    assert pb == GoBound(2, (2, 1), (((2,), 3), ((1, 2), 2)), CERT_PREFIX)
    assert rebuilt_distance(dec) >= pb.value


def test_prefix_bound_reference_case():
    pb = prefix_bound(example_dec_21_15())
    assert pb.value == 4
    assert pb.certificate == CERT_PREFIX


def test_prefix_bound_sound_on_random_decompositions(rng):
    cells = [(q, m, ell) for q in (2, 3) for m in (3, 5, 7)
             for ell in (2, 3) if m % q != 0]
    facts = {(q, m): factor_unity(m, make_field(q))
             for q in (2, 3) for m in (3, 5, 7) if m % q != 0}
    checked = 0
    for q, m, ell in cells:
        for _ in range(4):
            dec = random_decomposition(rng, facts[q, m], ell)
            assert rebuilt_distance(dec) >= prefix_bound(dec).value
            checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# status_label


def test_status_labels():
    assert status_label(5, 5) == "optimal"
    assert status_label(5, 4) == "almost-optimal"
    assert status_label(5, 2) == "gap-3"
    assert status_label(0, 4) == "nonexistent"
    assert status_label(-3, 4) == "nonexistent"


def test_status_conflict_strict_raises():
    with pytest.raises(InternalConsistencyError):
        status_label(3, 5)


def test_status_conflict_nonstrict_labels():
    assert status_label(3, 5, strict=False) == "bound-conflict"


# ---------------------------------------------------------------------------
# full_report


def test_full_report_reference_case():
    rep = full_report(example_dec_21_15())
    assert (rep.n, rep.k, rep.r_upper, rep.d_s, rep.d_go) == (21, 15, 6, 5, 4)
    assert rep.order == (1, 2)
    assert rep.constituent_distances == (2, 1)
    assert rep.subcode_distances == (((1,), 4), ((2,), 4), ((1, 2), 2))
    assert rep.terms == (((2,), 4), ((1, 2), 6))
    assert rep.certificate == CERT_TELESCOPE
    assert rep.status == "almost-optimal"


def test_full_report_rejects_zero_code():
    fact = factor_unity(5, F2)
    dec = ConstituentDecomposition(fact, 2, tuple(
        LinearCode.zero(info.ext_field, 2) for info in fact.factors))
    with pytest.raises(ValueError):
        full_report(dec)


# ---------------------------------------------------------------------------
# recovery


def fixture_codeword(dec: ConstituentDecomposition) -> list[int]:
    rows = generator_matrix(dec)
    word = [0] * dec.n
    for row in (rows[0], rows[3], rows[7]):
        word = [dec.field.add(w, v) for w, v in zip(word, row)]
    return word


def as_array(dec: ConstituentDecomposition, word: list[int]):
    return tuple(tuple(word[j * dec.m + g] for j in range(dec.ell))
                 for g in range(dec.m))


def test_recover_symbol_reference_case():
    dec = example_dec_21_15()
    word = fixture_codeword(dec)
    coordinate = 9
    value, support = recover_symbol(dec, as_array(dec, word), coordinate)
    assert value == word[coordinate]
    assert support == (7, 8, 10, 11, 12, 13)


def test_recovery_set_stays_in_one_column():
    dec = example_dec_21_15()
    word = fixture_codeword(dec)
    for coordinate in (0, 6, 14, 20):
        _, support = recover_symbol(dec, as_array(dec, word), coordinate)
        assert len(support) == 6
        assert {p // dec.m for p in support} == {coordinate // dec.m}


def test_recover_symbol_rejects_bad_coordinate():
    dec = example_dec_21_15()
    word = fixture_codeword(dec)
    with pytest.raises(ValueError):
        recover_symbol(dec, as_array(dec, word), 21)


def test_recover_symbol_rejects_full_space():
    dec = all_nonzero_dec_10()
    with pytest.raises(ValueError, match="recovery undefined"):
        recover_symbol(dec, ((0, 0),) * 5, 0)


def test_recovery_check_random_trials(rng):
    dec = example_dec_21_15()
    r_up = locality_upper(dec)
    for _ in range(25):
        trial = recovery_check(dec, rng.randrange(dec.n), rng)
        assert trial.ok
        assert len(trial.recovery_set) <= r_up


def test_recovery_check_random_decompositions(rng):
    facts = [factor_unity(7, F2), factor_unity(5, make_field(3))]
    done = 0
    while done < 10:
        fact = facts[done % 2]
        dec = random_decomposition(rng, fact, 2)
        try:
            trial = recovery_check(dec, rng.randrange(dec.n), rng)
        except ValueError:
            continue  # full-space associated code has no dual word
        assert trial.ok
        done += 1
