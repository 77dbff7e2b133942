"""Family extension construction, bounds trajectory, and scanning."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest

from qclrc import bounds, codes, construct
from qclrc.algebra import factor_unity, make_field
from qclrc.bounds import prefix_bound, singleton_bound
from qclrc.codes import Budget, LinearCode, min_distance, rref
from qclrc.construct import (
    FamilySpec,
    ScanRow,
    _greedy_columns,
    build_cj,
    chain_condition,
    ds_of_cj,
    exact_code,
    extend_constituent,
    scan,
)
from qclrc.errors import ConstructionError, InternalConsistencyError
from qclrc.qc import ConstituentDecomposition, generator_matrix
from qclrc.reference import reference_case

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(4)
F5 = make_field(5)


@pytest.fixture(scope="module")
def optimal_family_spec():
    return FamilySpec.from_base(reference_case("4.6"), j_max=22)


def params(code: LinearCode) -> tuple[int, int, int]:
    return code.n, code.k, min_distance(code)


# ---------------------------------------------------------------------------
# chain_condition


def test_chain_condition_examples():
    assert chain_condition(11, 10, [1, 5, 5])
    assert not chain_condition(7, 6, [3, 3])


def test_chain_condition_full_degree_sum_always_holds():
    assert chain_condition(7, 3, [1, 3, 3])
    assert chain_condition(7, 1, [1, 3, 3])


# ---------------------------------------------------------------------------
# exact_code ladder


def test_exact_code_distance_one():
    assert params(exact_code(F3, 5, 3, 1)) == (5, 3, 1)


def test_exact_code_all_ones_dual():
    assert params(exact_code(F3, 6, 5, 2)) == (6, 5, 2)


def test_exact_code_distance_two_extra_redundancy():
    assert params(exact_code(F4, 7, 5, 2)) == (7, 5, 2)


def test_exact_code_reed_solomon():
    assert params(exact_code(F4, 5, 3, 3)) == (5, 3, 3)


def test_exact_code_extended_reed_solomon():
    assert params(exact_code(F5, 6, 3, 4)) == (6, 3, 4)


def test_exact_code_padded_core():
    assert params(exact_code(F5, 9, 6, 3)) == (9, 6, 3)


def test_exact_code_greedy_columns():
    assert params(exact_code(F5, 8, 4, 4)) == (8, 4, 4)
    assert params(exact_code(F5, 16, 12, 4)) == (16, 12, 4)


def _subset_span_greedy(field, red: int, d: int):
    """The greedy rung by its definition: a column, in base-q counting
    order, is accepted iff it lies in the span of no min(d-2, chosen)-
    subset of the columns accepted before it, each span checked by rank."""
    q = field.order
    chosen = []
    for value in range(1, q ** red):
        col = tuple(value // q ** (red - 1 - r) % q for r in range(red))
        size = min(d - 2, len(chosen))
        if size > 0 and any(
                rref(subset + (col,), field)[1] == rref(subset, field)[1]
                for subset in combinations(chosen, size)):
            continue
        chosen.append(col)
    return tuple(chosen)


def test_greedy_columns_match_subset_span_definition():
    keys = [(q, red, d) for q in (2, 3, 4, 5, 7, 8, 9)
            for red in range(1, 7) if q ** red <= 64
            for d in range(2, red + 2)]
    assert len(keys) == 43
    for q, red, d in keys:
        F = make_field(q)
        assert _greedy_columns(F, red, d) == _subset_span_greedy(F, red, d), \
            (q, red, d)
    assert _greedy_columns(F5, 4, 4) == (
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1),
        (0, 1, 2, 3), (0, 1, 3, 4), (1, 0, 0, 0), (1, 0, 1, 1),
        (1, 0, 2, 3), (1, 0, 3, 4), (1, 1, 0, 1), (1, 1, 1, 0),
        (1, 1, 3, 2), (1, 2, 0, 4), (1, 4, 1, 3), (1, 4, 2, 0))


def test_greedy_rung_is_bounded_by_its_work():
    # at most (q^red - 1) q^red steps: binary red 11 and 13 at d = 4
    # would scan for about 0.6 and 15 s (2-core x86-64), so both are
    # refused before the scan starts, while the 91 projective points of
    # F_9^3 are admitted
    assert _greedy_columns(F2, 13, 4) == ()
    assert _greedy_columns(F2, 11, 4) == ()
    assert len(_greedy_columns(make_field(9), 3, 3)) == 91
    # every key beyond 10^5 candidate columns stays refused
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 125):
        red = 1
        while q ** red - 1 <= 100_000:
            red += 1
        assert _greedy_columns(make_field(q), red, 4) == (), q
    # the largest key of the 4.6 ladder is admitted
    assert len(_greedy_columns(F5, 4, 4)) == 16


def test_greedy_columns_form_multiples_only_above_distance_two(
        monkeypatch):
    # at d = 2 only the zero column is ever covered, so every nonzero
    # column is accepted and no multiple of one is formed; the largest
    # such key the work bound admits keeps its 1408 columns
    scaled = []

    def count_scalings(F):
        scale_row = F.scale_row

        def counted(c, v):
            scaled.append(c)
            return scale_row(c, v)
        monkeypatch.setattr(F, "scale_row", counted)
    F = make_field(1409)
    count_scalings(F)
    assert _greedy_columns(F, 1, 2) == tuple((c,) for c in range(1, 1409))
    assert scaled == []
    # at d = 3 each accepted column extends the covered set by its
    # q - 1 multiples
    count_scalings(F3)
    assert len(_greedy_columns(F3, 2, 3)) == 4
    assert len(scaled) == 4 * 2


def test_exact_code_quadric_columns():
    assert params(exact_code(F5, 17, 13, 4)) == (17, 13, 4)
    assert params(exact_code(F5, 21, 17, 4)) == (21, 17, 4)
    assert params(exact_code(F5, 26, 22, 4)) == (26, 22, 4)


def test_exact_code_quadric_other_fields():
    assert params(exact_code(F3, 10, 6, 4)) == (10, 6, 4)
    assert params(exact_code(F4, 17, 13, 4)) == (17, 13, 4)


def test_exact_code_deterministic():
    a = exact_code(F5, 12, 8, 4)
    b = exact_code(F5, 12, 8, 4)
    assert a == b


def test_exact_code_cached_without_database():
    code = exact_code(F5, 12, 8, 4)
    assert exact_code(F5, 12, 8, 4) is code
    assert exact_code(F5, 12, 8, 4, budget=Budget(enum=1)) == code
    db = {(5, 12, 8): code.rows}
    assert exact_code(F5, 12, 8, 4, database=db) == code


def test_exact_code_database_path_builds_afresh():
    db = nine_five_db()
    first = exact_code(F4, 9, 5, 3, database=db)
    assert exact_code(F4, 9, 5, 3, database=db) is not first
    assert exact_code(F4, 9, 5, 3, database=db) == first


def test_exact_code_beyond_quadric_fails():
    with pytest.raises(ConstructionError, match="existence not established"):
        exact_code(F5, 27, 23, 4)


def test_exact_code_binary_distance_three_cap():
    assert params(exact_code(F2, 7, 4, 3)) == (7, 4, 3)
    with pytest.raises(ConstructionError):
        exact_code(F2, 9, 6, 3)


def test_exact_code_singleton_violation():
    with pytest.raises(ConstructionError, match="Singleton"):
        exact_code(F2, 5, 3, 4)


def test_exact_code_rejects_bad_parameters():
    with pytest.raises(ValueError):
        exact_code(F2, 5, 0, 1)
    with pytest.raises(ValueError):
        exact_code(F2, 5, 6, 1)
    with pytest.raises(ValueError):
        exact_code(F2, 5, 3, 0)


def nine_five_db() -> dict:
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 1, 0, 1),
            (1, 0, 1, 0)]
    parity = [tuple(col[r] for col in cols) for r in range(4)]
    gen = LinearCode.from_rows(F4, 9, parity).dual().rows
    return {(4, 9, 5): gen}


def test_exact_code_database_fallback():
    with pytest.raises(ConstructionError):
        exact_code(F4, 9, 5, 3)
    code = exact_code(F4, 9, 5, 3, database=nine_five_db())
    assert params(code) == (9, 5, 3)


def test_exact_code_database_entry_must_verify():
    bad = {(4, 9, 5): exact_code(F4, 9, 5, 1).rows}
    with pytest.raises(ConstructionError, match="fails verification"):
        exact_code(F4, 9, 5, 3, database=bad)


# ---------------------------------------------------------------------------
# extend_constituent


def test_extend_constituent_zero_passthrough():
    out = extend_constituent(LinearCode.zero(F4, 3), 2)
    assert out == LinearCode.zero(F4, 5)


def test_extend_constituent_identity_at_zero():
    code = exact_code(F4, 3, 2, 2)
    assert extend_constituent(code, 0) is code


def test_extend_constituent_examples():
    assert params(extend_constituent(exact_code(F4, 3, 2, 2), 2)) == (5, 4, 2)
    assert params(extend_constituent(LinearCode.full(F4, 3), 1)) == (4, 4, 1)


def test_extend_constituent_rejects_negative():
    with pytest.raises(ValueError):
        extend_constituent(LinearCode.full(F4, 3), -1)


# ---------------------------------------------------------------------------
# FamilySpec and ds_of_cj


def test_family_spec_reference_values(optimal_family_spec):
    spec = optimal_family_spec
    assert spec.r_upper == 10
    assert spec.d_go == 10
    assert spec.nonzero == (1, 2, 3)
    assert spec.degrees == (5, 5, 1)
    assert spec.dims == (4, 5, 3)
    assert spec.dists == (3, 2, 4)
    assert spec.admissible == tuple(range(23))


def test_family_spec_positivity_truncates_admissible_set():
    fact = factor_unity(3, 2)
    dec = ConstituentDecomposition(fact, 2, (
        LinearCode.from_rows(fact.factors[0].ext_field, 2, [(1, 1)]),
        LinearCode.full(F2, 2)))
    assert FamilySpec.from_base(dec, j_max=64).admissible == (0,)


def test_family_spec_rejects_zero_base():
    fact = factor_unity(7, 2)
    dec = ConstituentDecomposition(fact, 2, tuple(
        LinearCode.zero(info.ext_field, 2) for info in fact.factors))
    with pytest.raises(ValueError):
        FamilySpec.from_base(dec)


def test_ds_of_cj_reference_trajectory(optimal_family_spec):
    spec = optimal_family_spec
    assert [ds_of_cj(spec, j) for j in (0, 13, 14, 15, 22, 23)] == [
        26, 11, 10, 9, 2, 0]


def test_ds_of_cj_constant_for_gap_family():
    spec = FamilySpec.from_base(reference_case("4.4"), j_max=10)
    assert {ds_of_cj(spec, j) for j in range(11)} == {5}


def test_ds_of_cj_matches_singleton_bound(optimal_family_spec):
    spec = optimal_family_spec
    for j in range(6):
        k = sum((ki + j) * b for ki, b in zip(spec.dims, spec.degrees))
        assert ds_of_cj(spec, j) == singleton_bound(
            11 * (7 + j), k, spec.r_upper)


def test_ds_of_cj_rejects_negative():
    spec = FamilySpec.from_base(reference_case("4.4"))
    with pytest.raises(ValueError):
        ds_of_cj(spec, -1)


# ---------------------------------------------------------------------------
# build_cj


def test_build_cj_zero_is_base():
    dec = reference_case("4.4")
    spec = FamilySpec.from_base(dec)
    assert build_cj(spec, 0) is dec


def test_build_cj_gap_family_member():
    spec = FamilySpec.from_base(reference_case("4.4"))
    dec = build_cj(spec, 1)
    assert (dec.n, dec.dimension()) == (28, 21)
    assert params(dec.constituents[0]) == (4, 3, 2)
    assert params(dec.constituents[1]) == (4, 4, 1)
    assert dec.constituents[2] == LinearCode.zero(F2, 4)


def test_build_cj_outside_admissible_set():
    spec = FamilySpec.from_base(reference_case("4.4"), j_max=3)
    with pytest.raises(ValueError, match="admissible"):
        build_cj(spec, 4)


@pytest.mark.parametrize("lowered", [0, 1, 2])
def test_build_cj_rejects_a_member_whose_bound_moves(optimal_family_spec,
                                                     lowered):
    # a member built to one constituent distance below the family's has
    # another distance profile, so its bound is recomputed, not reused
    dists = list(optimal_family_spec.dists)
    dists[lowered] -= 1
    spec = replace(optimal_family_spec, dists=tuple(dists))
    with pytest.raises(InternalConsistencyError,
                       match="j=1 recomputes distance bound"):
        build_cj(spec, 1)


# ---------------------------------------------------------------------------
# scan


def test_scan_computes_the_bound_once_per_profile(monkeypatch):
    """Every member of the 4.6 family has the base's factorization and
    distance profile, so the telescoped terms of each tie-consistent
    ordering are computed once for the whole scan."""
    orders = []
    suffix_terms = bounds._suffix_terms

    def counted(fact, order, cdist, budget):
        orders.append(order)
        return suffix_terms(fact, order, cdist, budget)
    monkeypatch.setattr(bounds, "_suffix_terms", counted)
    spec = FamilySpec.from_base(reference_case("4.6"), j_max=22)
    report = scan(spec)
    assert len(report.rows) == 20
    profile = tuple(zip(spec.nonzero, spec.dists))
    assert orders == bounds._tie_consistent_orderings(profile) == [
        (3, 1, 2)]


def test_scan_reference_family_finds_optimal_member(optimal_family_spec):
    report = scan(optimal_family_spec)
    assert report.j0 == 14
    assert report.chain
    assert report.rows[14] == ScanRow(14, 231, 202, 10, 10, "optimal")
    assert report.rows[0] == ScanRow(0, 77, 48, 26, 10, "gap-16")
    assert report.rows[13].status == "almost-optimal"
    assert report.rows[-1].j == 19
    assert all(r.status == "optimal" for r in report.rows[14:])
    assert [r.d_s for r in report.rows] == sorted(
        (r.d_s for r in report.rows), reverse=True)
    assert len(report.warnings) == 1
    assert "truncated at j=20" in report.warnings[0]


def test_scan_gap_family_never_optimal():
    spec = FamilySpec.from_base(reference_case("4.4"), j_max=10)
    report = scan(spec)
    assert report.j0 is None
    assert not report.chain
    assert not report.warnings
    assert len(report.rows) == 11
    assert all(r.status == "almost-optimal" for r in report.rows)
    assert all(r.d_s == 5 and r.d_go == 4 for r in report.rows)
    assert report.rows[1] == ScanRow(1, 28, 21, 5, 4, "almost-optimal")


def test_scan_optimal_at_zero_with_rising_bound():
    fact = factor_unity(7, 2)
    dec = ConstituentDecomposition(fact, 2, (
        LinearCode.zero(fact.factors[0].ext_field, 2),
        LinearCode.zero(fact.factors[1].ext_field, 2),
        LinearCode.from_rows(F2, 2, [(1, 1)])))
    spec = FamilySpec.from_base(dec, j_max=2)
    report = scan(spec)
    assert report.j0 == 0
    assert not report.chain
    assert [r.d_s for r in report.rows] == [14, 19, 24]
    assert all(r.status == "optimal" for r in report.rows)
    assert any("rose" in w for w in report.warnings)


def test_scan_members_satisfy_prefix_floor(rng):
    fact = factor_unity(5, F3)
    done = 0
    while done < 6:
        cons = []
        for info in fact.factors:
            k = rng.randrange(0, 3)
            if k == 0:
                cons.append(LinearCode.zero(info.ext_field, 2))
            else:
                rows = [tuple(rng.randrange(info.ext_field.order)
                              for _ in range(2)) for _ in range(k)]
                cons.append(LinearCode.from_rows(info.ext_field, 2, rows))
        dec = ConstituentDecomposition(fact, 2, tuple(cons))
        if not 1 <= dec.dimension() or 3 ** dec.dimension() > 1 << 16:
            continue
        spec = FamilySpec.from_base(dec, j_max=2)
        report = scan(spec)
        for row in report.rows:
            member = build_cj(spec, row.j)
            assert member.dimension() == row.k
            lin = LinearCode.from_rows(member.field, member.n,
                                       generator_matrix(member))
            assert min_distance(lin) >= prefix_bound(member).value
        done += 1


# ---------------------------------------------------------------------------
# rung outputs built in RREF, one reduction per dual, packed greedy keys

RUNG_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 3125)
PACKED_GREEDY_FIELDS = (2, 3, 4, 5, 7, 8, 16)


def assert_as_reduced(code: LinearCode) -> None:
    """The code a rung built equals the code reduced from its rows."""
    assert code == LinearCode.from_rows(code.field, code.n, code.rows)


def _rung_outputs(F):
    """(rung, code) for every rung that applies over F, at lengths up to
    40: identity, power columns at rho = 1, 2 and 3 and with the unit
    column (n_core = q + 1), greedy and quadric columns."""
    q = F.order
    out = [("identity", construct._power_column_code(F, n, k, 1))
           for n, k in ((1, 1), (4, 2), (7, 7))]
    for n, k, d in ((3, 2, 2), (6, 2, 2), (5, 3, 3), (7, 3, 3), (8, 3, 4),
                    (27, 24, 4), (q + 1, q - 1, 3), (q + 3, q - 2, 4)):
        if 1 <= k < n <= 40 and d <= n - k + 1:
            code = construct._power_column_code(F, n, k, d)
            if code is not None:
                unit = d > 2 and k + d - 1 == q + 1
                rung = "unit" if unit else f"rho{d - 1}"
                out.append((rung, code))
    for red, d in ((2, 3), (3, 3), (3, 4), (4, 4)):
        cols = _greedy_columns(F, red, d)
        for n in sorted({red + 1, len(cols)}):
            if red < n <= len(cols):
                out.append(("greedy",
                            construct._from_parity_columns(F, cols[:n])))
    if q <= construct.QUADRIC_FIELD_CAP:
        cols = construct._quadric_columns(F)
        for n in (5, 8, len(cols)):
            out.append(("quadric",
                        construct._from_parity_columns(F, cols[:n])))
    return out


@pytest.mark.parametrize("q", RUNG_FIELDS)
def test_every_rung_builds_the_code_its_rows_reduce_to(q):
    # over F_3125 the unit column needs n_core = 3126, and the greedy and
    # quadric rungs serve no key, so there the power columns are checked
    F = make_field(q)
    outputs = _rung_outputs(F)
    for _, code in outputs:
        assert_as_reduced(code)
    rungs = {rung for rung, _ in outputs}
    assert {"identity", "rho1"} <= rungs
    if q >= 7:
        assert {"rho2", "rho3"} <= rungs
    if q <= 16:
        assert {"unit", "greedy", "quadric"} <= rungs


def test_exact_code_outputs_are_reduced_on_every_rung():
    # the ladder's answers through exact_code itself, one per rung:
    # identity, rho = 1, rho = 3 over F_3125, the unit column, greedy
    # and quadric
    for F, n, k, d in ((F5, 6, 4, 1), (F5, 9, 4, 2), (make_field(3125), 27,
                                                      24, 4),
                       (F4, 5, 2, 4), (F2, 15, 11, 3), (F5, 17, 13, 4)):
        assert_as_reduced(exact_code(F, n, k, d))


@pytest.mark.parametrize("q", PACKED_GREEDY_FIELDS)
def test_packed_greedy_accepts_the_columns_of_the_tuple_greedy(
        q, monkeypatch):
    # every key the work bound admits: the byte-packed scan against the
    # tuple scan, forced by a field with no packed add
    F = make_field(q)
    keys = [(red, d) for red in range(1, 11)
            if (q ** red - 1) * q ** red <= construct.GREEDY_WORK_BUDGET
            for d in range(2, red + 2)]
    assert construct.byte_packed_add(F, 1) is not None
    packed = [_greedy_columns(F, red, d) for red, d in keys]
    _greedy_columns.cache_clear()
    monkeypatch.setattr(construct, "byte_packed_add", lambda field, w: None)
    assert [_greedy_columns(F, red, d) for red, d in keys] == packed
    assert all(packed)


def _count_rref(monkeypatch) -> list:
    calls = []
    real = codes.rref

    def counted(rows, field):
        calls.append(field.order)
        return real(rows, field)
    monkeypatch.setattr(codes, "rref", counted)
    return calls


def test_rungs_reduce_once_per_dual_and_never_otherwise(monkeypatch):
    F3125 = make_field(3125)
    calls = _count_rref(monkeypatch)
    code = construct._power_column_code(F3125, 27, 24, 4)
    assert (code.n, code.k) == (27, 24)
    assert calls == [3125]
    calls.clear()
    construct._power_column_code(F3125, 30, 5, 1)
    construct._power_column_code(F2, 7, 3, 1)
    construct._power_column_code(F5, 9, 4, 2)
    assert calls == []
    # a greedy or quadric code is the dual of its parity checks: one rref
    # of the raw checks, whether 2 red < n or not
    hamming = _greedy_columns(F2, 4, 3)
    for F, cols in ((F2, hamming), (F2, hamming[:6]),
                    (F3, construct._quadric_columns(F3)[:10])):
        calls.clear()
        construct._from_parity_columns(F, cols)
        assert calls == [F.order]
