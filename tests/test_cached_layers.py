"""The per-decomposition caches answer as a cold computation does.

The distance bounds are cached by (factorization, distance profile,
budget), the locality bound by (factorization, nonzero set, budget),
root values by (factorization, entry) and trace blocks by
(factorization, factor, constituent).  On random quasi-cyclic codes
over F_2..F_9, every answer read from a filled cache, for a fresh code
equal to the one that filled it, equals the answer computed with every
cache empty, before and after the caches are cleared.
"""

from __future__ import annotations

import math

from qclrc import algebra, bounds, codes, qc, specfile
from qclrc.algebra import Poly, make_field
from qclrc.bounds import (full_report, go_bound, locality_upper,
                          prefix_bound)
from qclrc.errors import InternalConsistencyError
from qclrc.qc import QCCode, evaluate_constituents, rebuild_code

DRAWS = 60
LAYER_CACHES = (bounds._go_bound, bounds._prefix_bound,
                bounds._locality_upper, bounds._subset_distances,
                qc._root_values, qc._trace_block)
EVERY_CACHE = LAYER_CACHES + (algebra._factor_unity, algebra.make_field,
                              codes._auto_distance, specfile._token_table)


def _draw(rng) -> tuple[int, int, int, tuple]:
    """(q, m, ell, generator coefficients) of one small random code."""
    while True:
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        m = rng.randrange(2, 6)
        if math.gcd(m, q) == 1:
            break
    ell = rng.randrange(1, 4)
    gens = tuple(tuple(tuple(rng.randrange(q) if rng.random() < 0.7 else 0
                             for _ in range(m)) for _ in range(ell))
                 for _ in range(rng.randrange(1, 3)))
    return q, m, ell, gens


def _code(q: int, m: int, ell: int, gens: tuple) -> QCCode:
    """A new QCCode object, with new polynomials, for the same code."""
    F = make_field(q)
    return QCCode(F, m, ell, tuple(tuple(Poly(F, c) for c in gen)
                                   for gen in gens))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InternalConsistencyError) as err:
        return type(err).__name__, str(err)


def _answers(code: QCCode) -> tuple:
    dec = evaluate_constituents(code)
    return (dec, rebuild_code(dec), _outcome(go_bound, dec),
            _outcome(prefix_bound, dec), _outcome(locality_upper, dec),
            _outcome(full_report, dec))


def _clear_every_cache() -> None:
    for fn in EVERY_CACHE:
        fn.cache_clear()


def test_warm_answers_equal_cold_answers(rng):
    draws = [_draw(rng) for _ in range(DRAWS)]
    cold = []
    for draw in draws:
        _clear_every_cache()
        cold.append(_answers(_code(*draw)))
    assert sum(bool(dec.nonzero_indices()) for dec, *_ in cold) >= 50
    # one pass that fills the caches across all draws, so an entry keyed
    # too coarsely would answer for another code, then a warm pass
    _clear_every_cache()
    filled = [_answers(_code(*draw)) for draw in draws]
    before = [fn.cache_info() for fn in LAYER_CACHES]
    warm = [_answers(_code(*draw)) for draw in draws]
    after = [fn.cache_info() for fn in LAYER_CACHES]
    _clear_every_cache()
    cleared = [_answers(_code(*draw)) for draw in draws]
    for i, draw in enumerate(draws):
        assert filled[i] == warm[i] == cold[i] == cleared[i], draw
    # the warm pass computed nothing anew in any layer
    for fn, b, a in zip(LAYER_CACHES, before, after):
        assert a.misses == b.misses and a.hits > b.hits, fn
