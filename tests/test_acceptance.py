"""End-to-end acceptance checks, one test per numbered criterion.

Each test freezes its expected values and, where stated, a wall-clock
budget.  Criteria 5 to 7 share one session-scoped random set of
constituent decompositions drawn from the --seed option, so the three
tests examine the same sample.  The terminal summary hook in conftest
prints one PASS/FAIL line per test in this file.
"""

import math
import random
import time

import pytest

from qclrc.algebra import factor_unity, make_field
from qclrc.bounds import (CERT_PREFIX, full_report, go_bound, prefix_bound,
                          recovery_check)
from qclrc.codes import (Budget, LinearCode, min_distance, min_weight_codeword,
                         rref)
from qclrc.construct import (FamilySpec, ScanRow, chain_condition, ds_of_cj,
                             scan)
from qclrc.qc import (ConstituentDecomposition, evaluate_constituents,
                      generator_matrix, qc_from_matrix_rows, rebuild_code,
                      shift_invariance_check)
from qclrc.reference import reference_case

DEC_SET_SIZE = 200
DIM_CAP = 1 << 16


def draw_decomposition(rng, fact, ell, *, max_dim_order=DIM_CAP):
    while True:
        cons = []
        for info in fact.factors:
            rows = rng.randrange(0, ell + 1)
            if rows == 0:
                cons.append(LinearCode.zero(info.ext_field, ell))
                continue
            mat = [tuple(rng.randrange(info.ext_field.order)
                         for _ in range(ell)) for _ in range(rows)]
            cons.append(LinearCode.from_rows(info.ext_field, ell, mat))
        dec = ConstituentDecomposition(fact, ell, tuple(cons))
        k = dec.dimension()
        if 1 <= k and fact.field.order ** k <= max_dim_order:
            return dec


@pytest.fixture(scope="session")
def decomposition_set(request):
    """200 random small decompositions shared by criteria 5, 6 and 7."""
    rng = random.Random(request.config.getoption("--seed"))
    out = []
    while len(out) < DEC_SET_SIZE:
        q = rng.choice((2, 3))
        m = rng.choice((3, 5, 7))
        if math.gcd(m, q) != 1:
            continue
        ell = rng.choice((2, 3))
        fact = factor_unity(m, make_field(q))
        out.append(draw_decomposition(rng, fact, ell))
    return tuple(out)


def test_criterion_01():
    """Factoring x^7 - 1 over F_2 and x^11 - 1 over F_5 is exact and fast."""
    start = time.perf_counter()

    fact = factor_unity(7, make_field(2))
    coeffs = tuple(info.poly.coeffs for info in fact.factors)
    assert set(coeffs) == {(1, 1), (1, 1, 0, 1), (1, 0, 1, 1)}
    assert coeffs[-1] == (1, 1)
    assert tuple(info.coset.members for info in fact.factors) == (
        (1, 2, 4), (3, 5, 6), (0,))

    fact = factor_unity(11, make_field(5))
    assert tuple(info.poly.coeffs for info in fact.factors) == (
        (4, 3, 1, 4, 4, 1), (4, 1, 1, 4, 2, 1), (4, 1))
    assert tuple(info.coset.members for info in fact.factors) == (
        (1, 3, 4, 5, 9), (2, 6, 7, 8, 10), (0,))

    assert time.perf_counter() - start < 1.0


def test_criterion_02():
    """The [21, 15] binary analysis reproduces every frozen value."""
    start = time.perf_counter()

    rep = full_report(reference_case("4.1"))
    assert (rep.n, rep.k, rep.r_upper) == (21, 15, 6)
    assert dict(rep.subcode_distances) == {(1,): 4, (2,): 4, (1, 2): 2}
    assert (rep.d_go, rep.d_s, rep.status) == (4, 5, "almost-optimal")

    assert time.perf_counter() - start < 5.0


def test_criterion_03():
    """The [77, 48] analysis over F_5 and its extension scan are exact."""
    start = time.perf_counter()

    dec = reference_case("4.6")
    rep = full_report(dec)
    assert (rep.n, rep.k, rep.r_upper) == (77, 48, 10)
    assert dict(rep.subcode_distances) == {
        (1,): 11, (2,): 6, (3,): 6,
        (1, 2): 5, (1, 3): 5, (2, 3): 2, (1, 2, 3): 1}
    assert dict(rep.terms) == {(3,): 12, (2, 3): 10, (1, 2, 3): 18}
    assert rep.d_go == 10

    spec = FamilySpec.from_base(dec, j_max=22)
    report = scan(spec)
    assert report.j0 == 14
    row = next(r for r in report.rows if r.j == 14)
    assert row == ScanRow(14, 231, 202, 10, 10, "optimal")

    assert time.perf_counter() - start < 60.0


def test_criterion_04():
    """The constant-gap family keeps d_s = 5 while the chain test fails."""
    start = time.perf_counter()

    spec = FamilySpec.from_base(reference_case("4.4"), j_max=10)
    report = scan(spec)
    assert report.chain is False
    assert len(report.rows) == 11
    for row in report.rows:
        assert (row.d_s, row.d_go, row.status) == (5, 4, "almost-optimal")
    assert report.j0 is None

    assert time.perf_counter() - start < 10.0


def test_criterion_05(decomposition_set):
    """Exhaustive distance of every rebuilt code meets the certified floor,
    and every draw the telescoped value overshoots carries a witness.

    prefix_bound is the floor the bounds module certifies: a codeword
    whose last active constituent under a fixed ordering is c has at
    least d(C_c) nonzero columns, each in the associated code of the
    prefix.  go_bound sums telescoped suffix terms whose minimum-weight
    supports can overlap, so its value can exceed the true distance
    (see test_bounds for a six-coordinate case and the [77, 48] reference
    code).  Each draw where it does must be a real overshoot:
    min_weight_codeword has to produce a word with exactly true_d nonzero
    symbols, and the test itself checks that the rebuilt code contains
    it, apart from any distance kernel.
    """
    for dec in decomposition_set:
        code = rebuild_code(dec)
        true_d = min_distance(code)
        floor = prefix_bound(dec)
        params = (dec.field.order, dec.m, dec.ell)
        assert floor.certificate == CERT_PREFIX
        assert floor.value <= true_d, (
            f"prefix floor {floor.value} exceeds true distance {true_d} "
            f"for (q, m, ell) = {params}")
        telescoped = go_bound(dec).value
        if true_d < telescoped:
            weight, word = min_weight_codeword(
                code, budget=Budget(enum=DIM_CAP))
            assert weight == true_d, (
                f"witness weight {weight} != true distance {true_d} below "
                f"telescoped value {telescoped} for (q, m, ell) = {params}")
            assert sum(1 for v in word if v) == true_d
            assert code.contains(word)


def test_criterion_06(decomposition_set):
    """Constituent evaluation inverts the trace-based generator matrix."""
    for dec in decomposition_set:
        rows = generator_matrix(dec)
        code = qc_from_matrix_rows(dec.field, dec.m, dec.ell, rows)
        back = evaluate_constituents(code, dec.fact)
        assert back.constituents == dec.constituents
        _, rank, _ = rref(rows, dec.field)
        expected = sum(c.k * info.degree for c, info
                       in zip(dec.constituents, dec.fact.factors))
        assert rank == expected


def test_criterion_07(decomposition_set):
    """Every generator matrix spans a code closed under column rotation."""
    for dec in decomposition_set:
        rows = generator_matrix(dec)
        assert shift_invariance_check(rows, dec.ell, dec.field)


def test_criterion_08(rng):
    """Enumeration and parity-check search agree on 500 random codes."""
    checked = 0
    while checked < 500:
        q = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 12)
        field = make_field(q)
        max_k = min(n, int(math.log(DIM_CAP, q)))
        mat = [tuple(rng.randrange(q) for _ in range(n))
               for _ in range(rng.randint(1, max_k))]
        code = LinearCode.from_rows(field, n, mat)
        if code.is_zero():
            continue
        by_enum = min_distance(code, strategy="enumeration",
                               budget=Budget(enum=DIM_CAP))
        by_parity = min_distance(code, strategy="parity")
        assert by_enum == by_parity, (
            f"strategies disagree on a [{n}, {code.k}] code over F_{q}: "
            f"{by_enum} != {by_parity}")
        checked += 1


def test_criterion_09(decomposition_set):
    """Whenever the chain test holds, d_s is nonincreasing along the family."""
    seen = 0
    for dec in decomposition_set:
        spec = FamilySpec.from_base(dec)
        if not chain_condition(dec.m, spec.r_upper, spec.degrees):
            continue
        seen += 1
        values = [ds_of_cj(spec, j) for j in spec.admissible]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier, (
                f"d_s increased from {earlier} to {later} in a family with "
                f"base (q, m, ell) = ({dec.field.order}, {dec.m}, {dec.ell})")
    assert seen > 0


def test_criterion_10(rng):
    """100 erasure trials on the [21, 15] code recover with sets of size <= 6."""
    dec = reference_case("4.1")
    for _ in range(100):
        coordinate = rng.randrange(dec.n)
        trial = recovery_check(dec, coordinate, rng)
        assert trial.recovered == trial.expected
        assert len(trial.recovery_set) <= 6
