"""Distance and locality bounds for constituent decompositions.

Two bounds are computed for each decomposition: an upper bound of
Singleton type driven by length, dimension, and locality, and a
constructive lower bound assembled from constituent distances and the
distances of associated cyclic codes over index subsets.  Comparing the
two classifies the code as optimal, almost-optimal, or carrying a
larger gap.

Two lower-bound term families are available.  go_bound computes the
established telescoped suffix terms over the distance-sorted
constituents; it reproduces the published reference values, but it is
not a universal floor: a codeword can concentrate overlapping
constituent supports on few columns and fall below the telescoped sum
(see the distance-floor tests for a six-coordinate example).
prefix_bound computes the provable floor: a codeword whose last active
position under some fixed ordering is c has at least d(C_c) nonzero
columns, each inside the associated code of the first c positions, so
every ordering yields a valid bound and the best ordering is taken.
Exhaustive verification should rely on prefix_bound.

Locality itself is bounded through the dual of the associated cyclic
code over all nonzero constituents, and the same dual drives explicit
one-erasure recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import ceil
from typing import Mapping, Sequence

from .algebra import Factorization
from .codes import (Budget, min_distance, min_weight_codeword,
                    subcode_distance, subcode_from_bz)
from .errors import InternalConsistencyError
from .qc import (
    MAX_SUBSET_FACTORS,
    ConstituentDecomposition,
    generator_matrix,
    report_subsets,
)

STATUS_OPTIMAL = "optimal"
STATUS_ALMOST = "almost-optimal"
STATUS_NONE = "nonexistent"
STATUS_CONFLICT = "bound-conflict"


def singleton_bound(n: int, k: int, r: int) -> int:
    """Upper bound on the distance of a code with locality r:
    n - k - ceil(k/r) + 2.  A value of zero or below means no such code
    exists."""
    if not n >= k >= 1:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    if r < 1:
        raise ValueError(f"locality must be positive, got {r}")
    return n - k - ceil(k / r) + 2


def locality_upper(dec: ConstituentDecomposition, *,
                   budget: Budget = Budget()) -> int:
    """Upper bound on the locality, derived from the dual of the
    associated cyclic code over all nonzero constituents.

    When that dual is nonzero, each column symbol is recoverable from
    the other positions of one dual codeword's support, giving locality
    at most its minimum weight minus one (and never above m - 1).  A
    zero dual yields no dual-side bound and the trivial m - 1 stands.
    The bound reads only the factorization and the nonzero set, and is
    computed once per process for each pair and budget.
    """
    nz = dec.nonzero_indices()
    if not nz:
        raise ValueError("zero code has no locality")
    return _locality_upper(dec.fact, nz, budget)


@lru_cache(maxsize=None)
def _locality_upper(fact: Factorization, nz: tuple[int, ...],
                    budget: Budget) -> int:
    dual = subcode_from_bz(nz, fact).dual()
    if dual.k == 0:
        return fact.m - 1
    d_dual = min_distance(dual.linear_code(), budget=budget)
    return min(d_dual - 1, fact.m - 1)


def r_term(ordered: Sequence[int], cdist: Mapping[int, int],
           ddist: Mapping[frozenset[int], int]) -> int:
    """The bound term for one ordered index set.

    ``ordered`` lists factor indices with nonincreasing constituent
    distance; ``ddist`` must cover every prefix set of the ordering.
    The term telescopes constituent distance drops against prefix
    subcode distances, closing with the final distance times the full
    set's subcode distance.
    """
    idx = tuple(ordered)
    if not idx:
        raise ValueError("empty index set")
    for i in idx:
        if i not in cdist:
            raise ValueError(f"missing constituent distance for index {i}")
    for a, b in zip(idx, idx[1:]):
        if cdist[a] < cdist[b]:
            raise ValueError(
                "constituent distances must be nonincreasing along the "
                "ordering")
    prefixes = [frozenset(idx[:a]) for a in range(1, len(idx) + 1)]
    for s in prefixes:
        if s not in ddist:
            raise ValueError(f"missing subcode distance for {sorted(s)}")
    acc = 0
    for a in range(len(idx) - 1):
        acc += (cdist[idx[a]] - cdist[idx[a + 1]]) * ddist[prefixes[a]]
    acc += cdist[idx[-1]] * ddist[prefixes[-1]]
    return acc


CERT_TELESCOPE = "telescoped-suffix-terms"
CERT_PREFIX = "prefix-products"


@dataclass(frozen=True)
class GoBound:
    """Constructive distance lower bound with its certifying data.

    ``order`` lists the factor indices by position.  ``terms`` pairs
    each index set used by the certificate with its bound term, and
    ``value`` is the smallest term.  ``certificate`` names the term
    family: telescoped suffix terms when the singleton subcode
    distances descend along the order, prefix products otherwise.
    """

    value: int
    order: tuple[int, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]
    certificate: str


# The distance bounds read a decomposition through its factorization and
# its distance profile: the (index, constituent distance) pairs of the
# nonzero constituents, by index.  Members of an extension family share
# both, so each bound is computed once per process for each
# (factorization, profile, budget).
Profile = tuple[tuple[int, int], ...]


def _profile(dec: ConstituentDecomposition, budget: Budget) -> Profile:
    nz = dec.nonzero_indices()
    if not nz:
        raise ValueError("zero code has no distance bound")
    return tuple((i, dec.constituent_distance(i, budget=budget))
                 for i in nz)


def _range_ddist(fact: Factorization, order: tuple[int, ...],
                 budget: Budget) -> dict[frozenset[int], int]:
    ddist: dict[frozenset[int], int] = {}
    h = len(order)
    for start in range(h):
        for end in range(start + 1, h + 1):
            s = frozenset(order[start:end])
            if s not in ddist:
                ddist[s] = subcode_distance(fact, s, budget=budget)
    return ddist


def _suffix_terms(fact: Factorization, order: tuple[int, ...],
                  cdist: dict[int, int], budget: Budget
                  ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Telescoped bound terms for every suffix of the ordering."""
    ddist = _range_ddist(fact, order, budget)
    h = len(order)
    out = []
    for t in range(1, h + 1):
        suf = order[h - t:]
        out.append((tuple(sorted(suf)), r_term(suf, cdist, ddist)))
    return tuple(out)


def _prefix_terms(fact: Factorization, order: tuple[int, ...],
                  cdist: dict[int, int], budget: Budget
                  ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Prefix-product bound terms: last constituent distance of the
    prefix times the prefix set's subcode distance."""
    out = []
    for c in range(1, len(order) + 1):
        s = tuple(sorted(order[:c]))
        d_s = subcode_distance(fact, s, budget=budget)
        out.append((s, cdist[order[c - 1]] * d_s))
    return tuple(out)


def _tie_consistent_orderings(profile: Profile) -> list[tuple[int, ...]]:
    """The nonzero indices sorted by distance descending, index ascending
    (``qc.distance_sorted_order``), with every reordering inside runs of
    equal distance while there are at most MAX_SUBSET_FACTORS indices."""
    canonical = [i for i, _ in sorted(profile, key=lambda t: (-t[1], t[0]))]
    cdist = dict(profile)
    groups: list[list[int]] = []
    for i in canonical:
        if groups and cdist[groups[-1][0]] == cdist[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(canonical) > MAX_SUBSET_FACTORS or all(len(g) == 1 for g in groups):
        return [tuple(canonical)]
    return [tuple(i for block in combo for i in block)
            for combo in product(*[list(permutations(g)) for g in groups])]


def _best_over_orders(fact: Factorization, profile: Profile,
                      orders: Sequence[tuple[int, ...]], term_func,
                      certificate: str, budget: Budget) -> GoBound:
    cdist = dict(profile)
    best: GoBound | None = None
    for order in orders:
        terms = term_func(fact, order, cdist, budget)
        value = min(v for _, v in terms)
        if best is None or value > best.value or \
                (value == best.value and order < best.order):
            best = GoBound(value, order, terms, certificate)
    assert best is not None
    return best


def go_bound(dec: ConstituentDecomposition, *,
             budget: Budget = Budget()) -> GoBound:
    """The telescoped distance lower bound, minimized over suffix sets.

    Constituents tied on distance admit several valid orderings; all
    tie-consistent orderings are tried (exactly, while the count of
    nonzero constituents stays within MAX_SUBSET_FACTORS) and the
    largest resulting bound is kept, with the lexicographically
    smallest maximizing order reported.

    Caution: the telescoped terms are not a universal floor on the true
    minimum distance.  Overlapping constituent supports can push a
    codeword below this value; prefix_bound never overshoots and should
    back any exhaustive verification.
    """
    return _go_bound(dec.fact, _profile(dec, budget), budget)


@lru_cache(maxsize=None)
def _go_bound(fact: Factorization, profile: Profile,
              budget: Budget) -> GoBound:
    return _best_over_orders(fact, profile,
                             _tie_consistent_orderings(profile),
                             _suffix_terms, CERT_TELESCOPE, budget)


def prefix_bound(dec: ConstituentDecomposition, *,
                 budget: Budget = Budget()) -> GoBound:
    """Provable distance floor from prefix products.

    For a fixed ordering of the nonzero constituents, any codeword
    whose last active position is c has at least d(C_c) nonzero
    columns, each a nonzero word of the associated code of the first c
    positions; the minimum of d(C_c) * d(D_prefix) over c is therefore
    a true lower bound for every ordering.  All orderings are tried
    (all permutations while the constituent count stays within
    MAX_SUBSET_FACTORS, tie-consistent sorted orders beyond that) and
    the largest bound is returned.
    """
    return _prefix_bound(dec.fact, _profile(dec, budget), budget)


@lru_cache(maxsize=None)
def _prefix_bound(fact: Factorization, profile: Profile,
                  budget: Budget) -> GoBound:
    nz = tuple(i for i, _ in profile)
    if len(nz) <= MAX_SUBSET_FACTORS:
        orders = list(permutations(nz))
    else:
        orders = _tie_consistent_orderings(profile)
    return _best_over_orders(fact, profile, orders, _prefix_terms,
                             CERT_PREFIX, budget)


# ---------------------------------------------------------------------------
# combined report


def status_label(d_s: int, d_go: int, *, strict: bool = True) -> str:
    """Classification of the gap between the two bounds.

    A lower bound exceeding a positive upper bound is contradictory:
    strict mode raises, non-strict mode labels the row so a larger scan
    can keep going.
    """
    if d_s <= 0:
        return STATUS_NONE
    if d_go > d_s:
        if strict:
            raise InternalConsistencyError(
                f"distance lower bound {d_go} exceeds upper bound {d_s}")
        return STATUS_CONFLICT
    if d_go == d_s:
        return STATUS_OPTIMAL
    if d_go == d_s - 1:
        return STATUS_ALMOST
    return f"gap-{d_s - d_go}"


@dataclass(frozen=True)
class BoundsReport:
    """Everything the analyzer prints for one decomposition."""

    n: int
    k: int
    r_upper: int
    d_s: int
    d_go: int
    order: tuple[int, ...]
    constituent_distances: tuple[int, ...]
    subcode_distances: tuple[tuple[tuple[int, ...], int], ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]
    certificate: str
    status: str


def full_report(dec: ConstituentDecomposition, *,
                budget: Budget = Budget()) -> BoundsReport:
    """Both bounds, the subset distance table, and the status.

    Positions in the report follow the order certified by the lower
    bound.  Subset labels are positions, not factor indices.
    """
    k = dec.dimension()
    if k == 0:
        raise ValueError("zero code has no bounds report")
    n = dec.n
    go = go_bound(dec, budget=budget)
    r_up = locality_upper(dec, budget=budget)
    d_s = singleton_bound(n, k, r_up)
    subdist = _subset_distances(dec.fact, go.order, budget)
    cdist = tuple(dec.constituent_distance(i, budget=budget)
                  for i in go.order)
    pos_of = {f: p for p, f in enumerate(go.order, 1)}
    terms = tuple((tuple(sorted(pos_of[f] for f in s)), v)
                  for s, v in go.terms)
    status = status_label(d_s, go.value, strict=True)
    return BoundsReport(n=n, k=k, r_upper=r_up, d_s=d_s, d_go=go.value,
                        order=go.order, constituent_distances=cdist,
                        subcode_distances=subdist, terms=terms,
                        certificate=go.certificate, status=status)


@lru_cache(maxsize=None)
def _subset_distances(fact: Factorization, order: tuple[int, ...],
                      budget: Budget
                      ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The report's subset distance table: each position set of
    ``report_subsets`` with the distance of the associated code of the
    factors at those positions of ``order``."""
    return tuple(
        (s, subcode_distance(fact, [order[p - 1] for p in s], budget=budget))
        for s in report_subsets(len(order)))


# ---------------------------------------------------------------------------
# recovery


@dataclass(frozen=True)
class RecoveryTrial:
    """Outcome of recovering one erased coordinate of one codeword."""

    recovered: int
    expected: int
    recovery_set: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.recovered == self.expected


def recover_symbol(dec: ConstituentDecomposition,
                   array: Sequence[Sequence[int]], coordinate: int, *,
                   budget: Budget = Budget()
                   ) -> tuple[int, tuple[int, ...]]:
    """Recover one flat coordinate of a codeword array from its column.

    Every column lies in the associated cyclic code over the nonzero
    constituents, so a minimum-weight codeword of that code's dual,
    rotated onto the erased row, determines the missing symbol from the
    other rows of the same column.  Returns the value and the flat
    recovery set, whose size is the dual codeword's weight minus one.
    """
    m = dec.m
    if not 0 <= coordinate < dec.n:
        raise ValueError(f"coordinate {coordinate} out of range")
    nz = dec.nonzero_indices()
    if not nz:
        raise ValueError("zero code has no recovery")
    dual = subcode_from_bz(nz, dec.fact).dual()
    if dual.k == 0:
        raise ValueError(
            "recovery undefined: the associated cyclic code fills the whole "
            "space, so its dual is zero")
    _, h = min_weight_codeword(dual.linear_code(), budget=budget)
    g = coordinate % m
    j = coordinate // m
    s = next(t for t in range(m) if h[t] != 0)
    shift = (g - s) % m
    rotated = tuple(h[(t - shift) % m] for t in range(m))
    F = dec.field
    acc = 0
    support = []
    for t in range(m):
        if t == g or rotated[t] == 0:
            continue
        support.append(j * m + t)
        acc = F.add(acc, F.mul(rotated[t], array[t][j]))
    value = F.mul(F.neg(F.inv(rotated[g])), acc)
    return value, tuple(support)


def recovery_check(dec: ConstituentDecomposition, coordinate: int,
                   rng) -> RecoveryTrial:
    """Draw a random codeword, erase one coordinate, and recover it."""
    rows = generator_matrix(dec)
    F = dec.field
    word = [0] * dec.n
    for row in rows:
        word = F.axpy(word, rng.randrange(F.order), row)
    m = dec.m
    array = tuple(tuple(word[j * m + g] for j in range(dec.ell))
                  for g in range(m))
    value, support = recover_symbol(dec, array, coordinate)
    return RecoveryTrial(value, word[coordinate], support)
