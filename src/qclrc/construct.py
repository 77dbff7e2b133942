"""Distance-preserving family extensions of a constituent decomposition.

A decomposition with nonzero constituents [l, k_i, d_i] extends, one index
j at a time, to a family member whose nonzero constituents are
[l+j, k_i+j, d_i] codes over the same fields while zero constituents stay
zero.  The array length grows to m(l+j), the dimension grows by j per
nonzero factor degree, the associated cyclic code (hence the locality
bound) never changes, and the telescoped distance bound is recomputed and
asserted unchanged for every member.  Only the Singleton-type bound moves
with j, so scanning j in order locates the first member whose two bounds
meet; from that member on the family is certified optimal.

Extended constituents are built by a deterministic ladder and each rung's
output is verified (length, dimension, exact minimum distance) before use,
never trusted from the construction alone.  Each rung builds its code in
RREF with no redundant elimination: zero-padded RREF rows as they
stand, a code given by parity-check columns as their dual with one rref
(``dual_of_span``).  The rungs:

- distance d with redundancy d-1, and zero-padded if redundancy is larger:
  at d = 1 the identity rows, at d = 2 [I | -1], beyond that parity
  checks from power columns of the first field elements, plus a unit
  column when one more column than field elements is needed;
- greedy parity columns in base-q counting order, accepting a column iff
  it avoids the span of every (d-2)-subset already chosen, for keys whose
  scan stays within GREEDY_WORK_BUDGET steps; over fields with byte
  scalings the scan keys on byte-packed ints;
- distance 4 at redundancy 4: columns on an elliptic quadric built from
  the first anisotropic binary quadratic form, reaching q^2 + 1 columns;
- a caller-supplied database of generator matrices keyed by (q, n, k).

A rung that cannot reach the target passes to the next; when the ladder is
exhausted the construction fails with ConstructionError and a family scan
truncates its index set there with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import islice, product
from math import ceil
from typing import Mapping, Sequence

from .algebra import Field
from .bounds import (STATUS_OPTIMAL, go_bound, locality_upper,
                     singleton_bound, status_label)
from .codes import (Budget, LinearCode, byte_packed_add, dual_of_span,
                    min_distance)
from .errors import ConstructionError, InternalConsistencyError
from .qc import ConstituentDecomposition

# Steps a single greedy scan may take: accepted columns, at most one per
# projective point, (q^red - 1)/(q - 1), times covered entries, at most
# q^red, times nonzero multiples, q - 1.  On 2-core x86-64 with Python
# 3.11 a step costs 0.3-0.6 us, and the largest binary scan admitted, red
# 10 at d = 4, takes about 0.15 s; the rungs after it serve larger keys.
GREEDY_WORK_BUDGET = 2_000_000

# Largest field order for which the quadric rung searches a binary form.
QUADRIC_FIELD_CAP = 64

Database = Mapping[tuple[int, int, int], Sequence[Sequence[int]]]


def _verified(code: LinearCode, n: int, k: int, d: int,
              budget: Budget) -> LinearCode | None:
    """The candidate iff it has exactly the target parameters."""
    if code.n != n or code.k != k:
        return None
    if min_distance(code, budget=budget) != d:
        return None
    return code


def _from_parity_columns(field: Field, cols: Sequence[Sequence[int]]
                         ) -> LinearCode:
    red = len(cols[0])
    rows = [tuple(col[r] for col in cols) for r in range(red)]
    return dual_of_span(field, len(cols), rows)


def _power_column_code(field: Field, n: int, k: int, d: int
                       ) -> LinearCode | None:
    """[n, k, d] from a redundancy d-1 core plus n-k-d+1 zero columns.

    The core is in RREF (at d = 1 it is I, at d = 2 [I | -1], otherwise
    the dual of its parity checks, one rref), and zero columns appended to
    RREF rows leave them in RREF with the same pivots, so the padded code
    is built as it stands, with no further reduction.
    """
    rho = d - 1
    pad = (0,) * (n - k - rho)
    n_core = k + rho
    if rho <= 1:
        rows = [tuple(1 if c == r else 0 for c in range(k))
                + (field.neg(1),) * rho for r in range(k)]
        pivots = tuple(range(k))
    else:
        if n_core > field.order + 1:
            return None
        cols = [tuple(field.pow(a, e) for e in range(rho))
                for a in range(min(n_core, field.order))]
        if n_core == field.order + 1:
            cols.append(tuple(0 if e < rho - 1 else 1 for e in range(rho)))
        core = _from_parity_columns(field, cols)
        rows, pivots = core.rows, core.pivots
    return LinearCode(field, n, tuple(row + pad for row in rows), pivots)


@lru_cache(maxsize=None)
def _greedy_columns(field: Field, red: int, d: int
                    ) -> tuple[tuple[int, ...], ...]:
    """All columns the counting-order greedy accepts.

    A candidate is accepted iff it avoids the span of every (d-2)-subset
    of the columns already chosen, that is, iff no d-2 or fewer chosen
    columns combine to it.  ``covered`` maps every such combination to
    the fewest chosen columns that reach it, so the test is one lookup;
    an accepted column extends every entry still below d-2 columns by
    each of its nonzero multiples (``Field.scale_row``).  Those entries
    are kept in ``frontier``, each appended when it first falls below
    d-2, so a column walks them alone.  At d = 2 no entry is ever below
    0 columns, so only the zero column is covered and the multiples are
    not formed.  Over a field with byte scalings the keys are byte-packed
    ints, as the rows of ``rref``, added by the slot-wise add
    (``byte_packed_add``); other fields key on tuples added by
    ``Field.axpy``.  Both accept the same columns.  A key whose scan
    could take more than GREEDY_WORK_BUDGET steps gets no columns.
    """
    q = field.order
    if (q ** red - 1) * q ** red > GREEDY_WORK_BUDGET:
        return ()
    add = byte_packed_add(field, red)
    if add is None:
        pack = tuple

        def add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(field.axpy(x, 1, y))
    else:
        def pack(vec: Sequence[int]) -> int:
            return int.from_bytes(bytes(vec), "little")
    zero = pack((0,) * red)
    covered, frontier = {zero: 0}, [zero]
    chosen = []
    # product runs in base-q counting order, first coordinate highest
    for col in islice(product(range(q), repeat=red), 1, None):
        if pack(col) in covered:
            continue
        chosen.append(col)
        if d <= 2:
            continue
        multiples = [pack(field.scale_row(a, col)) for a in range(1, q)]
        # the entries this column extends are those below d-2 before it
        for vec in islice(frontier, len(frontier)):
            t = covered[vec] + 1
            for mult in multiples:
                key = add(vec, mult)
                had = covered.get(key, d)
                if had > t:
                    covered[key] = t
                    if t < d - 2 <= had:
                        frontier.append(key)
    return tuple(chosen)


def _form(field: Field, c: int, e: int, s: int, t: int) -> int:
    """The binary quadratic form s^2 + c st + e t^2."""
    return field.add(field.add(field.mul(s, s),
                               field.mul(c, field.mul(s, t))),
                     field.mul(e, field.mul(t, t)))


def _anisotropic_form(field: Field) -> tuple[int, int] | None:
    """First (c, e) with s^2 + c st + e t^2 nonzero off the origin."""
    for c in field.elements():
        for e in field.elements():
            values = (_form(field, c, e, s, t)
                      for s in field.elements() for t in field.elements()
                      if s or t)
            if all(values):
                return c, e
    return None


@lru_cache(maxsize=None)
def _quadric_columns(field: Field) -> tuple[tuple[int, ...], ...]:
    """q^2 + 1 columns in 4 rows with no 3 linearly dependent."""
    form = _anisotropic_form(field)
    if form is None:
        raise InternalConsistencyError(
            f"no anisotropic binary form over a field of order "
            f"{field.order}")
    c, e = form
    cols = [(0, 1, 0, 0)]
    for t in field.elements():
        for s in field.elements():
            cols.append((1, _form(field, c, e, s, t), s, t))
    return tuple(cols)


def exact_code(field: Field, n: int, k: int, d: int, *,
               database: Database | None = None,
               budget: Budget = Budget()) -> LinearCode:
    """A code with exactly the parameters [n, k, d], or ConstructionError.

    Rungs are tried in a fixed order (see the module docstring), each
    output is verified exactly, and failure to verify moves to the next
    rung, so equal inputs always return equal codes.  Without a database
    the code is built once per process for each (field, n, k, d, budget);
    errors are not cached.  A database is a mapping, not hashable, so
    that path builds the code on every call.
    """
    if database is None:
        return _exact_code_cached(field, n, k, d, budget, None)
    return _exact_code(field, n, k, d, budget, database)


def _exact_code(field: Field, n: int, k: int, d: int, budget: Budget,
                database: Database | None) -> LinearCode:
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} outside 1..{n}")
    if d < 1:
        raise ValueError(f"distance {d} must be positive")
    if d > n - k + 1:
        raise ConstructionError(
            f"no [{n}, {k}, {d}] code over a field of order {field.order}: "
            f"the distance exceeds the Singleton bound {n - k + 1}")
    cand = _power_column_code(field, n, k, d)
    if cand is not None:
        got = _verified(cand, n, k, d, budget)
        if got is not None:
            return got
    if d >= 2:
        cols = _greedy_columns(field, n - k, d)
        if len(cols) >= n:
            got = _verified(_from_parity_columns(field, cols[:n]),
                            n, k, d, budget)
            if got is not None:
                return got
    if (d == 4 and n - k == 4 and field.order <= QUADRIC_FIELD_CAP
            and n <= field.order ** 2 + 1):
        cols = _quadric_columns(field)
        got = _verified(_from_parity_columns(field, cols[:n]),
                        n, k, d, budget)
        if got is not None:
            return got
    if database is not None:
        entry = database.get((field.order, n, k))
        if entry is not None:
            got = _verified(LinearCode.from_rows(field, n, entry),
                            n, k, d, budget)
            if got is not None:
                return got
            raise ConstructionError(
                f"database entry for [{n}, {k}] over a field of order "
                f"{field.order} fails verification against distance {d}")
    raise ConstructionError(
        f"existence not established for a [{n}, {k}, {d}] code over a "
        f"field of order {field.order}")


_exact_code_cached = lru_cache(maxsize=None)(_exact_code)


def extend_constituent(code: LinearCode, j: int, *,
                       database: Database | None = None,
                       budget: Budget = Budget()) -> LinearCode:
    """The [n+j, k+j, d] extension of a code; zero codes gain length only."""
    if j < 0:
        raise ValueError(f"extension index {j} must be nonnegative")
    if code.is_zero():
        return LinearCode.zero(code.field, code.n + j)
    if j == 0:
        return code
    d = min_distance(code, budget=budget)
    return exact_code(code.field, code.n + j, code.k + j, d,
                      database=database, budget=budget)


def _ds_value(m: int, ell: int, dims: Sequence[int], degrees: Sequence[int],
              r_upper: int, j: int) -> int:
    k = sum((ki + j) * b for ki, b in zip(dims, degrees))
    return singleton_bound(m * (ell + j), k, r_upper)


@dataclass(frozen=True)
class FamilySpec:
    """Extension-family description derived from a base decomposition.

    ``admissible`` is the contiguous index set: 0 plus every following j
    up to ``j_max`` whose Singleton-type bound stays positive.  Whether a
    member is actually constructible is discovered during the scan.
    """

    base: ConstituentDecomposition
    r_upper: int
    d_go: int
    nonzero: tuple[int, ...]
    degrees: tuple[int, ...]
    dims: tuple[int, ...]
    dists: tuple[int, ...]
    j_max: int
    admissible: tuple[int, ...]
    database: Database | None = dc_field(default=None, compare=False)

    @classmethod
    def from_base(cls, base: ConstituentDecomposition, *, j_max: int = 64,
                  database: Database | None = None,
                  budget: Budget = Budget()) -> "FamilySpec":
        nonzero = base.nonzero_indices()
        if not nonzero:
            raise ValueError("zero code has no extension family")
        r_upper = locality_upper(base, budget=budget)
        degrees = tuple(base.fact.factors[i - 1].degree for i in nonzero)
        dims = tuple(base.constituents[i - 1].k for i in nonzero)
        dists = tuple(base.constituent_distance(i, budget=budget)
                      for i in nonzero)
        d_go = go_bound(base, budget=budget).value
        admissible = [0]
        for j in range(1, j_max + 1):
            if _ds_value(base.m, base.ell, dims, degrees, r_upper, j) <= 0:
                break
            admissible.append(j)
        return cls(base, r_upper, d_go, nonzero, degrees, dims, dists,
                   j_max, tuple(admissible), database)


def chain_condition(m: int, r_upper: int, degrees: Sequence[int]) -> bool:
    """Sufficient test that the Singleton-type bound never increases in j.

    True iff m + 1 <= sum of the nonzero factor degrees plus that sum
    divided by the locality, rounded up.  The test is not necessary: a
    family can have a constant bound while failing it.
    """
    total = sum(degrees)
    return m + 1 - (total + ceil(total / r_upper)) <= 0


def ds_of_cj(spec: FamilySpec, j: int) -> int:
    """Singleton-type bound of the j-th member at the base locality."""
    if j < 0:
        raise ValueError(f"extension index {j} must be nonnegative")
    return _ds_value(spec.base.m, spec.base.ell, spec.dims, spec.degrees,
                     spec.r_upper, j)


def build_cj(spec: FamilySpec, j: int, *, budget: Budget = Budget()
             ) -> ConstituentDecomposition:
    """The j-th family member, with its invariants recomputed and checked."""
    if j not in spec.admissible:
        raise ValueError(f"index {j} outside the admissible set "
                         f"0..{spec.admissible[-1]}")
    if j == 0:
        return spec.base
    ell = spec.base.ell + j
    cons = []
    pos = 0
    for code in spec.base.constituents:
        if code.is_zero():
            cons.append(LinearCode.zero(code.field, ell))
            continue
        cons.append(exact_code(code.field, ell, code.k + j, spec.dists[pos],
                               database=spec.database, budget=budget))
        pos += 1
    dec = ConstituentDecomposition(spec.base.fact, ell, tuple(cons))
    expected_k = sum((ki + j) * b
                     for ki, b in zip(spec.dims, spec.degrees))
    if dec.dimension() != expected_k:
        raise InternalConsistencyError(
            f"member j={j} has dimension {dec.dimension()}, "
            f"expected {expected_k}")
    r_up = locality_upper(dec, budget=budget)
    if r_up != spec.r_upper:
        raise InternalConsistencyError(
            f"member j={j} recomputes locality bound {r_up} != "
            f"{spec.r_upper}")
    d_go = go_bound(dec, budget=budget).value
    if d_go != spec.d_go:
        raise InternalConsistencyError(
            f"member j={j} recomputes distance bound {d_go} != {spec.d_go}")
    return dec


@dataclass(frozen=True)
class ScanRow:
    """Bounds and status of one family member."""

    j: int
    n: int
    k: int
    d_s: int
    d_go: int
    status: str


@dataclass(frozen=True)
class ScanReport:
    """Per-member rows, the first certified-optimal index, and warnings."""

    rows: tuple[ScanRow, ...]
    j0: int | None
    chain: bool
    warnings: tuple[str, ...]


def scan(spec: FamilySpec, *, budget: Budget = Budget()) -> ScanReport:
    """Walk the admissible indices and classify every family member.

    The first j whose two bounds meet certifies the whole tail: members
    at or past it are labeled optimal even where the raw comparison
    would disagree, because their true distance is pinned to the
    Singleton-type bound from that point on.  When the chain condition
    holds, a bound increase is an internal error; otherwise increases
    are only recorded as warnings.
    """
    chain = chain_condition(spec.base.m, spec.r_upper, spec.degrees)
    rows = []
    warnings = []
    j0 = None
    prev_ds = None
    for j in spec.admissible:
        try:
            dec = build_cj(spec, j, budget=budget)
        except ConstructionError as err:
            warnings.append(f"index set truncated at j={j}: {err}")
            break
        d_s = ds_of_cj(spec, j)
        if prev_ds is not None and d_s > prev_ds:
            if chain:
                raise InternalConsistencyError(
                    f"chain condition holds but the Singleton-type bound "
                    f"rose from {prev_ds} to {d_s} at j={j}")
            warnings.append(
                f"Singleton-type bound rose from {prev_ds} to {d_s} at "
                f"j={j}")
        prev_ds = d_s
        if j0 is None and d_s == spec.d_go:
            j0 = j
        if j0 is not None:
            status = STATUS_OPTIMAL
        else:
            status = status_label(d_s, spec.d_go, strict=False)
        rows.append(ScanRow(j, dec.n, dec.dimension(), d_s, spec.d_go,
                            status))
    return ScanReport(tuple(rows), j0, chain, tuple(warnings))
