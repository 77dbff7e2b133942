"""Quasi-cyclic codes and their constituent decomposition.

A quasi-cyclic code of index ell and length m*ell is given by generator
tuples of polynomials modulo x^m - 1.  Evaluating the generators at the
root attached to each irreducible factor of x^m - 1 yields one
constituent code per factor, a linear code of length ell over that
factor's extension field.  A trace construction maps constituent data
back to codewords, giving an explicit generator matrix.

Codewords are handled in two layouts: an m x ell array (rows indexed by
the cyclic shift, columns by the quasi-cyclic block) and a flat vector
of length m*ell in column-major order.  The defining symmetry rotates
every column of the array down by one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Sequence

from .algebra import (FactorInfo, Factorization, Field, Poly, factor_unity,
                      trace_map)
from .codes import (Budget, CyclicCode, LinearCode, min_distance,
                    subcode_from_bz, subcode_distance)
from .errors import InternalConsistencyError

# tie enumeration and full subset listings stay exact up to this many
# nonzero constituents
MAX_SUBSET_FACTORS = 6


@dataclass(frozen=True)
class QCCode:
    """A quasi-cyclic code given by generator tuples over F_q[x]/(x^m-1).

    Each generator is an ell-tuple of polynomials of degree below m; the
    code is the module the tuples generate under multiplication by x
    (simultaneous cyclic shift of every column).
    """

    field: Field
    m: int
    ell: int
    generators: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if self.m < 1 or self.ell < 1:
            raise ValueError("m and ell must be positive")
        for gen in self.generators:
            if len(gen) != self.ell:
                raise ValueError(
                    f"generator tuple length {len(gen)} != index {self.ell}")
            for a in gen:
                if a.field != self.field:
                    raise ValueError("generator entry over the wrong field")
                if a.degree >= self.m:
                    raise ValueError(
                        f"generator entry degree {a.degree} not below m="
                        f"{self.m}")


def qc_from_matrix_rows(field: Field, m: int, ell: int,
                        rows: Iterable[Sequence[int]]) -> QCCode:
    """Generator tuples read off flat codewords: column j of the array
    form becomes the polynomial sum of entries times x^row."""
    gens = []
    for row in rows:
        arr = unflatten(row, m, ell)
        gens.append(tuple(
            Poly(field, [arr[g][j] for g in range(m)]) for j in range(ell)))
    return QCCode(field, m, ell, tuple(gens))


@dataclass(frozen=True)
class ConstituentDecomposition:
    """Constituent codes of a quasi-cyclic code, one per factor of
    x^m - 1, aligned with the factorization order.

    ``_dcache`` records each constituent distance found, by 1-based
    index.  The dimension and the nonzero indices are found once, in the
    constructor.
    """

    fact: Factorization
    ell: int
    constituents: tuple[LinearCode, ...]
    _dcache: dict = dc_field(default_factory=dict, repr=False, compare=False)
    _dimension: int = dc_field(init=False, repr=False, compare=False)
    _nonzero: tuple[int, ...] = dc_field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if len(self.constituents) != self.fact.num_factors:
            raise ValueError(
                f"{len(self.constituents)} constituents for "
                f"{self.fact.num_factors} factors")
        for info, code in zip(self.fact.factors, self.constituents):
            if code.field != info.ext_field:
                raise ValueError(
                    f"constituent for factor {info.poly} is over the wrong "
                    f"field")
            if code.n != self.ell:
                raise ValueError(
                    f"constituent length {code.n} != index {self.ell}")
        object.__setattr__(self, "_dimension", sum(
            c.k * info.degree
            for c, info in zip(self.constituents, self.fact.factors)))
        object.__setattr__(self, "_nonzero", tuple(
            i + 1 for i, c in enumerate(self.constituents)
            if not c.is_zero()))

    @property
    def field(self) -> Field:
        return self.fact.field

    @property
    def m(self) -> int:
        return self.fact.m

    @property
    def n(self) -> int:
        return self.m * self.ell

    def dimension(self) -> int:
        return self._dimension

    def nonzero_indices(self) -> tuple[int, ...]:
        """1-based indices of the factors with a nonzero constituent."""
        return self._nonzero

    def constituent_distance(self, i: int, *,
                             budget: Budget = Budget()) -> int:
        """Minimum distance of the i-th (1-based) constituent.

        The answer comes from the cache of min_distance, so the budget
        binds as in a first call; ``_dcache[i]`` records it.
        """
        got = self._dcache[i] = min_distance(self.constituents[i - 1],
                                             budget=budget)
        return got


def evaluate_constituents(code: QCCode,
                          fact: Factorization | None = None
                          ) -> ConstituentDecomposition:
    """Evaluate every generator entry at each factor's root.

    Each entry is reduced modulo the factor once and the remainder is
    evaluated; the value is zero exactly when the remainder is, and the
    two conditions are cross-checked.  An entry's values at every root
    are computed once per process for each (factorization, entry).  The
    row spans over the factor fields form the constituent codes.
    """
    if fact is None:
        fact = factor_unity(code.m, code.field)
    if fact.m != code.m or fact.field != code.field:
        raise ValueError("factorization does not match the code")
    values = [[_root_values(fact, a) for a in gen] for gen in code.generators]
    constituents = tuple(
        LinearCode.from_rows(info.ext_field, code.ell,
                             [[v[f] for v in row] for row in values])
        for f, info in enumerate(fact.factors))
    return ConstituentDecomposition(fact, code.ell, constituents)


@lru_cache(maxsize=None)
def _root_values(fact: Factorization, a: Poly) -> tuple[int, ...]:
    """The values of a(x) at the root of every factor, in factor order."""
    out = []
    for info in fact.factors:
        rem = a.mod(info.poly)
        val = info.eval(rem)
        if (val == 0) != rem.is_zero():
            raise InternalConsistencyError(
                "evaluation and divisibility disagree at factor "
                f"{info.poly}")
        out.append(val)
    return tuple(out)


def dimension_of(dec: ConstituentDecomposition) -> int:
    """Dimension over F_q: the sum of constituent dimensions weighted by
    factor degrees."""
    return dec.dimension()


# ---------------------------------------------------------------------------
# array layout


def flatten(array: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Column-major flattening: entry (g, j) lands at position j*m + g."""
    m = len(array)
    ell = len(array[0])
    return tuple(array[g][j] for j in range(ell) for g in range(m))


def unflatten(vec: Sequence[int], m: int, ell: int
              ) -> tuple[tuple[int, ...], ...]:
    """Inverse of flatten for an m x ell array."""
    if len(vec) != m * ell:
        raise ValueError(f"vector length {len(vec)} != {m}*{ell}")
    return tuple(tuple(vec[j * m + g] for j in range(ell)) for g in range(m))


def column_shift(array: Sequence[Sequence[int]]
                 ) -> tuple[tuple[int, ...], ...]:
    """Rotate every column down one row: the defining symmetry."""
    m = len(array)
    return tuple(tuple(array[(g - 1) % m]) for g in range(m))


def shift_invariance_check(rows: Iterable[Sequence[int]], ell: int,
                           field: Field) -> bool:
    """Whether the span of the rows is closed under the column rotation."""
    mat = [tuple(r) for r in rows]
    if not mat:
        return True
    n = len(mat[0])
    if n % ell != 0:
        raise ValueError(f"row length {n} is not a multiple of {ell}")
    m = n // ell
    code = LinearCode.from_rows(field, n, mat)
    for r in mat:
        shifted = flatten(column_shift(unflatten(r, m, ell)))
        if not code.contains(shifted):
            return False
    return True


# ---------------------------------------------------------------------------
# trace construction


def trace_codeword(dec: ConstituentDecomposition,
                   lambdas: Sequence[Sequence[int]]
                   ) -> tuple[tuple[int, ...], ...]:
    """The codeword array determined by one coefficient row per factor.

    Row i of ``lambdas`` is an ell-tuple over factor i's field and must
    lie in constituent i.  Entry (g, j) of the result is the sum over
    factors of the trace of lambda[i][j] times the factor root raised to
    m - g.
    """
    fact = dec.fact
    if len(lambdas) != fact.num_factors:
        raise ValueError(
            f"{len(lambdas)} coefficient rows for {fact.num_factors} factors")
    rows = [tuple(lam) for lam in lambdas]
    for code, info, lam in zip(dec.constituents, fact.factors, rows):
        if len(lam) != dec.ell:
            raise ValueError(
                f"coefficient row length {len(lam)} != index {dec.ell}")
        _check_in_constituent(code, info, lam)
    cols = [[0] * fact.m for _ in range(dec.ell)]
    for info, lam in zip(fact.factors, rows):
        _add_trace(cols, info, dec.field, lam)
    return tuple(zip(*cols))


def _check_in_constituent(code: LinearCode, info: FactorInfo,
                          lam: tuple[int, ...]) -> None:
    if not code.contains(lam):
        raise ValueError(
            f"coefficient row {lam} is not in the constituent of factor "
            f"{info.poly}")


def _add_trace(cols: list[list[int]], info: FactorInfo, F: Field,
               lam: Sequence[int]) -> None:
    """Add one factor's share to the columns of a codeword array: column
    j gains the traces down to F of lam[j] times root^(m - g), row g."""
    if not any(lam):
        return
    E = info.ext_field
    trace = trace_map(E, F)
    powers = [info.root_powers[-g] for g in range(len(info.root_powers))]
    for j, x in enumerate(lam):
        if x:
            traces = list(map(trace, E.scale_row(x, powers)))
            cols[j] = F.axpy(cols[j], 1, traces)


def generator_matrix(dec: ConstituentDecomposition
                     ) -> tuple[tuple[int, ...], ...]:
    """A full-rank k x (m*ell) generator matrix over the base field.

    For each factor, each reduced constituent row is scaled by the
    powers of the factor root that form a base-field basis of the factor
    field; each scaled row yields one trace codeword.  The rank is
    verified to equal the decomposition's dimension.
    """
    return _trace_construction(dec)[0]


def rebuild_code(dec: ConstituentDecomposition) -> LinearCode:
    """The decomposition's code as a plain linear code over F_q."""
    return _trace_construction(dec)[1]


def _trace_construction(dec: ConstituentDecomposition
                        ) -> tuple[tuple[tuple[int, ...], ...], LinearCode]:
    """generator_matrix's rows and the code they span, from one row
    reduction that also checks the rank."""
    fact = dec.fact
    out = tuple(row for i, code in enumerate(dec.constituents)
                for row in _trace_block(fact, i, code))
    code = LinearCode.from_rows(dec.field, dec.n, out)
    if code.k != dec.dimension():
        raise InternalConsistencyError(
            f"trace construction produced rank {code.k}, expected "
            f"{dec.dimension()}")
    return out, code


@lru_cache(maxsize=None)
def _trace_block(fact: Factorization, i: int, code: LinearCode
                 ) -> tuple[tuple[int, ...], ...]:
    """The flat trace codewords constituent ``code`` of factor i (0-based)
    contributes: one per reduced row v and root power t below the
    factor's degree, from the coefficient row root^t * v alone.  Computed
    once per process for each (factorization, i, code)."""
    info = fact.factors[i]
    E = info.ext_field
    out = []
    for v in code.rows:
        for t in range(info.degree):
            lam = tuple(E.scale_row(info.root_powers[t], v))
            _check_in_constituent(code, info, lam)
            cols = [[0] * fact.m for _ in range(code.n)]
            _add_trace(cols, info, fact.field, lam)
            out.append(tuple(chain.from_iterable(cols)))
    return tuple(out)


# ---------------------------------------------------------------------------
# associated cyclic codes


def distance_sorted_order(dec: ConstituentDecomposition, *,
                          budget: Budget = Budget()) -> tuple[int, ...]:
    """Nonzero constituent indices sorted by distance descending, index
    ascending (the position order used by the distance bound)."""
    items = [(i, dec.constituent_distance(i, budget=budget))
             for i in dec.nonzero_indices()]
    items.sort(key=lambda t: (-t[1], t[0]))
    return tuple(i for i, _ in items)


@dataclass(frozen=True)
class AssociatedCodes:
    """Cyclic codes attached to subsets of the sorted constituents.

    ``order`` maps 1-based positions to 1-based factor indices; position
    1 carries the largest constituent distance.  ``subsets`` lists the
    position sets reported by the analyzer: every nonempty subset when
    there are at most MAX_SUBSET_FACTORS positions, otherwise the
    contiguous position ranges.
    """

    dec: ConstituentDecomposition
    order: tuple[int, ...]
    subsets: tuple[tuple[int, ...], ...]

    def factor_set(self, positions: Iterable[int]) -> frozenset[int]:
        pos = tuple(positions)
        for p in pos:
            if not 1 <= p <= len(self.order):
                raise ValueError(f"position {p} out of range")
        return frozenset(self.order[p - 1] for p in pos)

    def subcode(self, positions: Iterable[int]) -> CyclicCode:
        return subcode_from_bz(self.factor_set(positions), self.dec.fact)

    def distance(self, positions: Iterable[int], *,
                 budget: Budget = Budget()) -> int:
        return subcode_distance(self.dec.fact, self.factor_set(positions),
                                budget=budget)


def associated_cyclic_codes(dec: ConstituentDecomposition, *,
                            order: tuple[int, ...] | None = None,
                            budget: Budget = Budget()) -> AssociatedCodes:
    """The sorted position order and the reported subset family.

    An explicit ``order`` (any permutation of the nonzero constituent
    indices, such as one produced by tie-breaking) overrides the default
    distance sort.
    """
    if order is None:
        order = distance_sorted_order(dec, budget=budget)
    elif sorted(order) != sorted(dec.nonzero_indices()):
        raise ValueError(
            "order is not a permutation of the nonzero constituent indices")
    return AssociatedCodes(dec, order, report_subsets(len(order)))


def report_subsets(h: int) -> tuple[tuple[int, ...], ...]:
    """The position sets reported for h sorted positions: every nonempty
    subset when h is at most MAX_SUBSET_FACTORS, otherwise the
    contiguous position ranges."""
    if h <= MAX_SUBSET_FACTORS:
        return tuple(tuple(s) for w in range(1, h + 1)
                     for s in combinations(range(1, h + 1), w))
    return tuple(tuple(range(s, e + 1))
                 for s in range(1, h + 1) for e in range(s, h + 1))
