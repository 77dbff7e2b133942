"""Field, polynomial, coset, and unity-factorization tests.

Derived expected values are frozen from independent oracles implemented
inside this file (integer arithmetic mod p, exhaustive trial division for
irreducibility, direct power sums for traces).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from qclrc import algebra
from qclrc.algebra import (
    CyclotomicCoset,
    Poly,
    cyclotomic_cosets,
    factor_unity,
    field_trace,
    find_irreducible,
    is_irreducible,
    make_extension,
    make_field,
    make_prime_field,
    minimal_polynomial,
)
from qclrc.errors import ResourceLimitError


def poly_of(field, coeffs):
    return Poly(field, coeffs)


# ---------------------------------------------------------------------------
# prime fields


def test_prime_field_smallest():
    f2 = make_prime_field(2)
    assert f2.order == 2
    assert sorted(f2.elements()) == [0, 1]


def test_prime_field_ops_match_integer_arithmetic(rng):
    for p in (2, 3, 5, 7, 11):
        f = make_prime_field(p)
        for _ in range(50):
            a, b = rng.randrange(p), rng.randrange(p)
            assert f.add(a, b) == (a + b) % p
            assert f.sub(a, b) == (a - b) % p
            assert f.mul(a, b) == (a * b) % p
            if b:
                assert f.mul(f.div(a, b), b) == a % p


def test_composite_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_prime_field(4)


def test_make_field_prime_power():
    f4 = make_field(4)
    assert f4.order == 4 and f4.char == 2 and f4.degree == 2
    with pytest.raises(ValueError):
        make_field(6)


def test_make_field_factors_within_its_trial_bound():
    # every order below 2^40 factors; a prime above it is refused
    p = 1099511627689    # the largest prime below 2^40
    assert make_field(p).order == p
    assert make_field(3 ** 25).degree == 25
    with pytest.raises(ValueError, match="not a prime power"):
        make_field(1048573 * 1048571)
    with pytest.raises(ResourceLimitError, match="cannot factor"):
        make_field((1 << 61) - 1)


def test_make_field_trial_divides_a_prime_once(monkeypatch):
    factored = []
    factor = algebra._prime_factors

    def counted(n):
        factored.append(n)
        return factor(n)
    monkeypatch.setattr(algebra, "_prime_factors", counted)
    p = 1_000_003
    F = make_field(p)
    assert factored == [p]
    # the primality check of make_prime_field is its own one division,
    # and both return one object
    assert make_prime_field(p) is F
    assert factored == [p, p]
    assert make_field(p ** 2).base is F
    assert factored == [p, p, p ** 2]


# ---------------------------------------------------------------------------
# irreducibility and extensions


def oracle_irreducible(f: Poly) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    field = f.field
    q = field.order
    n = f.degree
    for d in range(1, n // 2 + 1):
        for idx in range(q ** d):
            g = Poly.monic_from_index(field, d, idx)
            if g.divides(f):
                return False
    return n >= 1


def test_find_irreducible_degree_one():
    f2 = make_prime_field(2)
    assert find_irreducible(f2, 1) == poly_of(f2, [0, 1])


def test_find_irreducible_f2_cubic():
    f2 = make_prime_field(2)
    got = find_irreducible(f2, 3)
    # Frozen: exhaustive scan of the 8 monic cubics over F_2 leaves
    # x^3 + x + 1 as the first with no root and no quadratic factor.
    assert got == poly_of(f2, [1, 1, 0, 1])
    assert oracle_irreducible(got)


def test_find_irreducible_is_smallest_and_deterministic():
    for q, deg in ((2, 3), (3, 2), (5, 2), (5, 5)):
        field = make_field(q)
        got = find_irreducible(field, deg)
        assert got == find_irreducible(field, deg)
        assert oracle_irreducible(got)
        # nothing smaller in counting order is irreducible
        for idx in range(q ** deg):
            cand = Poly.monic_from_index(field, deg, idx)
            if cand == got:
                break
            assert not oracle_irreducible(cand)


def test_is_irreducible_agrees_with_oracle(rng):
    for q in (2, 3, 4):
        field = make_field(q)
        for deg in (2, 3):
            for idx in range(q ** deg):
                cand = Poly.monic_from_index(field, deg, idx)
                assert is_irreducible(cand) == oracle_irreducible(cand)


def test_make_extension_f8():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, poly_of(f2, [1, 1, 0, 1]))
    assert f8.order == 8
    b = f8.gen
    # b^3 = b + 1
    assert f8.pow(b, 3) == f8.add(b, 1)


def test_make_extension_degree_one_is_base():
    f2 = make_prime_field(2)
    assert make_extension(f2, poly_of(f2, [1, 1])) is f2


def test_make_extension_rejects_reducible():
    f2 = make_prime_field(2)
    with pytest.raises(ValueError, match="reducible"):
        make_extension(f2, poly_of(f2, [1, 0, 1]))  # (x+1)^2


def test_extension_field_ops(rng):
    f2 = make_prime_field(2)
    f8 = make_extension(f2, poly_of(f2, [1, 1, 0, 1]))
    # multiplication table against raw polynomial multiplication
    for a in f8.elements():
        for b in f8.elements():
            assert f8.mul(a, b) == f8._mul_raw(a, b)
            assert f8.add(a, b) == f8.add(b, a)
    for a in range(1, 8):
        assert f8.mul(a, f8.inv(a)) == 1


def test_tower_two_steps():
    f4 = make_field(4)
    mod = find_irreducible(f4, 2)
    f16 = make_extension(f4, mod)
    assert f16.order == 16 and f16.degree == 4
    for a in range(1, 16):
        assert f16.mul(a, f16.inv(a)) == 1
    # subfield embedding is the identity on indices
    for a in range(4):
        for b in range(4):
            assert f16.add(a, b) == f4.add(a, b)
            assert f16.mul(a, b) == f4.mul(a, b)


def test_frobenius_fixes_exactly_base():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, poly_of(f2, [1, 1, 0, 1]))
    fixed = [z for z in f8.elements() if f8.pow(z, 2) == z]
    assert fixed == [0, 1]
    f3 = make_prime_field(3)
    f9 = make_extension(f3, find_irreducible(f3, 2))
    fixed = [z for z in f9.elements() if f9.pow(z, 3) == z]
    assert fixed == [0, 1, 2]


# ---------------------------------------------------------------------------
# row kernels


def _kernel_fields():
    """F_2, F_5, F_4, F_8, F_9, F_27, F_81, and the F_5^5 of factor_unity(11,
    5), the constituent field of the 4.6 reference case."""
    big = factor_unity(11, 5).factors[0].ext_field
    assert big.order == 5 ** 5
    return [make_field(q) for q in (2, 5, 4, 8, 9, 27, 81)] + [big]


def _scalar_mul(F, a, b):
    return (a * b) % F.char if F.is_prime else F._mul_raw(a, b)


@pytest.mark.parametrize("table_max", [None, 16])
def test_row_kernel_matches_entrywise(rng, monkeypatch, table_max):
    """axpy and scale_row against add and a table-free product, entry by
    entry, with c = 0 and c = 1 among the scalars; table_max = 16 sends
    every field above order 16 to the scalar fallback."""
    if table_max is not None:
        monkeypatch.setattr(algebra, "_TABLE_MAX", table_max)
    for F in _kernel_fields():
        q = F.order
        for trial in range(40):
            n = rng.randrange(2, 12)
            u = [rng.randrange(q) for _ in range(n)]
            v = [rng.randrange(q) for _ in range(n)]
            # zero entries of u and of v, whatever the field's size
            u[0], v[0], v[1] = 0, rng.randrange(1, q), 0
            c = (0, 1, rng.randrange(q), q - 1)[trial % 4]
            want = [F.add(a, _scalar_mul(F, c, b)) for a, b in zip(u, v)]
            assert F.axpy(u, c, v) == want, (F, c)
            assert F.scale_row(c, v) == [_scalar_mul(F, c, b) for b in v]
        # u + c*v is zero where u = -c*v: the sum that cancels
        c = rng.randrange(1, q)
        v = list(range(q))
        u = [F.neg(_scalar_mul(F, c, b)) for b in v]
        assert F.axpy(u, c, v) == [0] * q
        if table_max is not None and q > table_max:
            assert F._exp is None, F


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 64, 81, 125,
                               127, 128, 243, 256])
def test_arithmetic_tables_match_field_operations(rng, q):
    # built in numpy from the log/antilog tables; products are checked
    # against the table-free schoolbook product, on 0, 1, q - 1 and a
    # sample of other rows
    F = make_field(q)
    mul = algebra.multiplication_table(F)
    assert mul.dtype == "uint8" and mul.shape == (q, q)
    assert not mul.flags.writeable
    assert algebra.multiplication_table(make_field(q)) is mul
    rows = sorted({0, 1, q - 1, *rng.sample(range(q), min(q, 12))})
    for a in rows:
        assert mul[a].tolist() == [_scalar_mul(F, a, b) for b in range(q)]
    assert (mul == mul.T).all()


def test_arithmetic_tables_stop_at_256():
    with pytest.raises(ValueError, match="order 343"):
        algebra.multiplication_table(make_field(343))


def test_multiplicative_generator_is_searched_once(monkeypatch):
    # the splitting field F_5^5 of x^11 - 1 finds its generator once, for
    # its tables, and it is the least element of full order
    searched = []
    search = algebra.Field._search_generator

    def counted(self):
        searched.append(self)
        return search(self)

    monkeypatch.setattr(algebra.Field, "_search_generator", counted)
    big = algebra.unity_context(11, make_field(5)).splitting
    assert searched == [big]
    g = big.multiplicative_generator()
    assert searched == [big]
    for F in (make_field(4), make_field(9), make_field(49), big):
        n = F.order - 1

        def order(a):
            x, t = a, 1
            while x != 1:
                x, t = F._mul_raw(x, a), t + 1
            return t
        least = next(a for a in range(2, F.order) if order(a) == n)
        assert F.multiplicative_generator() == least
    assert g == least


def _schoolbook_generator(F, start: int = 2) -> int:
    """The least element of full order from index ``start`` on, each
    candidate tested by square-and-multiply over the schoolbook
    product."""
    n = F.order - 1
    primes = algebra._prime_factors(n)
    return next(c for c in range(start, F.order)
                if all(F._pow_raw(c, n // r) != 1 for r in primes))


def test_generator_search_matches_the_schoolbook_search():
    # every extension field of at most 4096 elements made by make_field,
    # and a quadratic extension on top of each one that stays below that
    simple = [make_field(q) for q in range(4, 4097)
              if len(algebra._prime_factors(q)) == 1
              and not algebra._is_prime(q)]
    assert len(simple) == 40
    towers = [make_extension(F, find_irreducible(F, 2)) for F in simple
              if F.order ** 2 <= 4096]
    assert sorted(F.order for F in towers) == [16, 64, 81, 256, 625, 729,
                                               1024, 2401, 4096]
    for F in simple + towers:
        assert F.multiplicative_generator() == _schoolbook_generator(F), F
    # the splitting field of x^11 - 1 over F_5 and its two factor fields
    big = algebra.unity_context(11, make_field(5)).splitting
    fields = [big] + [info.ext_field for info in factor_unity(11, 5).factors
                      if info.degree == 5]
    assert [F.order for F in fields] == [3125] * 3
    assert [F.multiplicative_generator() for F in fields] == [10, 7, 9]
    # a field above the table size searches without tables
    F = make_field(5 ** 7)
    assert F._exp is None
    assert F.multiplicative_generator() == _schoolbook_generator(F) == 9


def test_generator_search_starts_past_the_base_field():
    # the indices below the base field's order are the base field's
    # elements, none of full order; over F_p^2 the search starts at p, so
    # the splitting field of x^3 - 1 over F_100019 takes one batch where
    # a search from index 2 first tests the 100017 elements of F_p (27 s
    # with the schoolbook product on 2-core x86-64).  Past p = 2^31 the
    # products of F_p^2 digit maps no longer fit int64 and are taken in
    # Python ints.
    for p in (100019, 2147494021):
        Fp = make_field(p)
        F = make_extension(Fp, find_irreducible(Fp, 2))
        assert F.multiplicative_generator() == \
            _schoolbook_generator(F, start=p)
    assert F.degree * (p - 1) ** 2 >= 1 << 63
    fact = factor_unity(3, make_field(100019))
    assert [info.degree for info in fact.factors] == [2, 1]


def test_field_with_picked_kernels_pickles():
    for F in _kernel_fields():
        F.axpy([1], 1, [1])
        G = pickle.loads(pickle.dumps(F))
        assert G == F
        # hashed once, to the value of the signature: set orders stay put
        assert hash(G) == hash(F) == hash(F._sig)
        assert G.axpy([1, 0], 1, [1, 1]) == F.axpy([1, 0], 1, [1, 1])


def test_field_state_is_built_by_the_constructor():
    """Tables, row kernels and the generator are set when a field is
    made: no operation changes any slot afterwards, on prime fields, on
    extension fields with tables and on one above _TABLE_MAX."""
    fields = [make_field(q) for q in (7, 4, 9, 3125, 5 ** 7)]
    assert fields[-1].order > algebra._TABLE_MAX > fields[-2].order
    slots = algebra.Field.__slots__
    made = [[getattr(F, s, None) for s in slots] for F in fields]
    for F in fields:
        q, top = F.order, F.order - 1
        assert F.mul(2, top) == F.mul(top, 2)
        assert F.mul(top, F.inv(top)) == 1
        assert F.pow(2, q - 1) == 1
        g = F.multiplicative_generator()
        assert F.pow(g, top) == 1
        assert F.axpy([1, top], g, [top, 0]) == [
            F.add(1, F.mul(g, top)), top]
        assert F.scale_row(g, [0, 1]) == [0, g]
        if q <= 256:
            algebra.multiplication_table(F)
        prime = F.chain()[0]
        assert field_trace(top, F, prime) < prime.order
    for F, before in zip(fields, made):
        after = [getattr(F, s, None) for s in slots]
        changed = [s for s, a, b in zip(slots, before, after) if a is not b]
        assert changed == [], F


# ---------------------------------------------------------------------------
# traces


def _power_sum_trace(z, sup, sub):
    """The definition: sum of z^(|sub|^t) for t below [sup : sub]."""
    acc, w = 0, z
    for _ in range(sup.degree // sub.degree):
        acc = sup.add(acc, w)
        w = sup.pow(w, sub.order)
    return acc


def test_trace_table_matches_power_sum():
    f4 = make_field(4)
    f64 = make_extension(f4, find_irreducible(f4, 3))
    f81 = make_field(81)
    f3125 = factor_unity(11, 5).factors[0].ext_field
    for sup, sub in ((f64, f4), (f81, make_field(3)),
                     (f3125, make_prime_field(5))):
        got = [field_trace(z, sup, sub) for z in sup.elements()]
        assert got == [_power_sum_trace(z, sup, sub)
                       for z in sup.elements()], (sup, sub)
        assert set(got) == set(sub.elements())
    assert algebra._trace_table.cache_info().currsize == 3


def test_trace_table_is_linear_in_the_index_digits(monkeypatch):
    # the table adds digit multiples of the traces of the places, so the
    # power sum runs once per place, [sup : sub] times a table
    f4 = make_field(4)
    cases = [(make_field(5 ** 6), make_field(5)),
             (make_field(256), make_field(2)),
             (make_extension(f4, find_irreducible(f4, 3)), f4),
             (make_field(3 ** 6), make_field(3))]
    power_trace = algebra._power_trace
    calls = []

    def counted(*args):
        calls.append(args)
        return power_trace(*args)

    monkeypatch.setattr(algebra, "_power_trace", counted)
    for sup, sub in cases:
        calls.clear()
        table = algebra._trace_table(sup, sub)
        assert len(calls) <= sup.degree_over(sub)
        assert list(table) == [power_trace(z, sup, sub)
                               for z in sup.elements()], (sup, sub)


def walked_tables(F):
    """exp, log and zech of F one element at a time: multiplication by g
    tabulated from its digit map, its powers walked from 1, log by
    assignment and zech by a lookup per power."""
    g, image = F._search_generator()
    p, n = F.char, F.order - 1
    places = p ** np.arange(F.degree)
    digits = np.arange(F.order)[:, None] // places % p
    times_g = (digits @ image.astype(np.int64) % p @ places).tolist()
    exp = [1] * n
    for t in range(1, n):
        exp[t] = times_g[exp[t - 1]]
    log = [0] * F.order
    for t, v in enumerate(exp):
        log[v] = t
    zech = None
    if p != 2:
        zech = [log[v - v % p + (v % p + 1) % p] for v in exp]
        zech[n // 2] = -1
        zech += zech
    return exp + exp, log, zech


@pytest.mark.parametrize("q", [3125, 1 << 16, 3 ** 10])
def test_log_tables_match_the_walked_build(q):
    F = make_field(q)
    assert (F._exp, F._log, F._zech) == walked_tables(F)
    g = F.multiplicative_generator()
    assert all(F._exp[t + 1] == F._mul_raw(F._exp[t], g)
               for t in range(0, q - 1, 97))


def test_trace_above_table_max_uses_power_sum(monkeypatch):
    monkeypatch.setattr(algebra, "_TABLE_MAX", 16)
    f81 = make_field(81)
    f3 = make_field(3)
    assert [field_trace(z, f81, f3) for z in f81.elements()] == \
        [_power_sum_trace(z, f81, f3) for z in f81.elements()]
    assert algebra._trace_table.cache_info().currsize == 0


def test_trace_linear_zero():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, find_irreducible(f2, 3))
    assert field_trace(0, f8, f2) == 0


def test_trace_of_one():
    f3 = make_prime_field(3)
    f9 = make_extension(f3, find_irreducible(f3, 2))
    # Tr(1) = e * 1 in the subfield
    assert field_trace(1, f9, f3) == 2 % 3
    f2 = make_prime_field(2)
    f8 = make_extension(f2, find_irreducible(f2, 3))
    assert field_trace(1, f8, f2) == 3 % 2


def test_trace_beta_in_f8():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, poly_of(f2, [1, 1, 0, 1]))
    b = f8.gen
    direct = f8.add(f8.add(b, f8.pow(b, 2)), f8.pow(b, 4))
    assert direct == 0  # frozen from the power-sum computation
    assert field_trace(b, f8, f2) == 0


def test_trace_is_frobenius_stable_and_lands_in_subfield():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, find_irreducible(f2, 3))
    for z in f8.elements():
        t = field_trace(z, f8, f2)
        assert t in (0, 1)
        assert field_trace(f8.pow(z, 2), f8, f2) == t


def test_trace_rejects_unrelated_fields():
    f8 = make_extension(make_prime_field(2), find_irreducible(make_prime_field(2), 3))
    f3 = make_prime_field(3)
    with pytest.raises(ValueError):
        field_trace(1, f8, f3)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_divmod_roundtrip(rng):
    f5 = make_prime_field(5)
    for _ in range(100):
        a = poly_of(f5, [rng.randrange(5) for _ in range(rng.randrange(1, 8))])
        b = poly_of(f5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        quo, rem = a.divmod(b)
        assert quo.mul(b).add(rem) == a
        assert rem.degree < b.degree or rem.is_zero()


def test_poly_arithmetic_on_each_row_kernel(rng):
    """mul against the schoolbook sum of scalar products, and divmod
    round trips, over F_8, F_9 and F_7 (table, Zech and mod-p rows)."""
    for F in (make_field(8), make_field(9), make_field(7)):
        q = F.order
        for _ in range(60):
            a = poly_of(F, [rng.randrange(q) for _ in range(rng.randrange(8))])
            b = poly_of(F, [rng.randrange(q)
                            for _ in range(rng.randrange(1, 5))])
            prod = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    prod[i + j] = F.add(prod[i + j], F.mul(x, y))
            assert a.mul(b) == poly_of(F, prod)
            assert a.sub(b).add(b) == a
            assert a.add(a.neg()).is_zero()
            if b.is_zero():
                continue
            quo, rem = a.divmod(b)
            assert quo.mul(b).add(rem) == a
            assert rem.degree < b.degree
            assert a.mod(b) == rem


def test_poly_reciprocal():
    f2 = make_prime_field(2)
    p = poly_of(f2, [1, 1, 1, 0, 1])  # 1 + x + x^2 + x^4
    assert p.reciprocal() == poly_of(f2, [1, 0, 1, 1, 1])


def test_poly_eval_in_extension():
    f2 = make_prime_field(2)
    f8 = make_extension(f2, poly_of(f2, [1, 1, 0, 1]))
    b = f8.gen
    p = poly_of(f2, [1, 1, 0, 1])  # the modulus itself
    assert p.eval_at(b, f8) == 0


# ---------------------------------------------------------------------------
# cyclotomic cosets


def test_cosets_7_2():
    got = cyclotomic_cosets(7, 2)
    assert [(c.rep, c.members) for c in got] == [
        (0, (0,)), (1, (1, 2, 4)), (3, (3, 5, 6))]


def test_cosets_11_5():
    got = cyclotomic_cosets(11, 5)
    assert [(c.rep, c.members) for c in got] == [
        (0, (0,)), (1, (1, 3, 4, 5, 9)), (2, (2, 6, 7, 8, 10))]


def test_cosets_trivial_modulus():
    assert cyclotomic_cosets(1, 3) == [CyclotomicCoset(1, 0, (0,))]


def test_cosets_partition_and_closure(rng):
    for m, q in ((9, 2), (15, 2), (13, 3), (8, 5)):
        cosets = cyclotomic_cosets(m, q)
        all_members = sorted(x for c in cosets for x in c.members)
        assert all_members == list(range(m))
        for c in cosets:
            assert c.rep == min(c.members)
            for x in c.members:
                assert (x * q) % m in c.members


def test_cosets_reject_shared_factor():
    with pytest.raises(ValueError, match="gcd"):
        cyclotomic_cosets(6, 2)


# ---------------------------------------------------------------------------
# minimal polynomials and the factorization of x^m - 1


def test_minimal_polynomial_of_unity():
    f2 = make_prime_field(2)
    assert minimal_polynomial(0, 7, 2) == poly_of(f2, [1, 1])


def test_minimal_polynomials_m7():
    f2 = make_prime_field(2)
    assert minimal_polynomial(1, 7, 2) == poly_of(f2, [1, 1, 0, 1])
    assert minimal_polynomial(3, 7, 2) == poly_of(f2, [1, 0, 1, 1])


def test_factor_unity_7_2():
    fact = factor_unity(7, 2)
    f2 = fact.field
    polys = [f.poly for f in fact.factors]
    assert polys == [
        poly_of(f2, [1, 1, 0, 1]),   # x^3 + x + 1
        poly_of(f2, [1, 0, 1, 1]),   # x^3 + x^2 + 1
        poly_of(f2, [1, 1]),         # x + 1, always last
    ]
    assert [f.rep for f in fact.factors] == [1, 3, 0]


def test_factor_unity_11_5():
    fact = factor_unity(11, 5)
    f5 = fact.field
    polys = {f.poly for f in fact.factors}
    assert polys == {
        poly_of(f5, [4, 1, 1, 4, 2, 1]),  # x^5+2x^4+4x^3+x^2+x+4
        poly_of(f5, [4, 3, 1, 4, 4, 1]),  # x^5+4x^4+4x^3+x^2+3x+4
        poly_of(f5, [4, 1]),              # x + 4
    }
    assert fact.factors[-1].poly == poly_of(f5, [4, 1])
    assert [f.degree for f in fact.factors] == [5, 5, 1]


def test_factor_unity_trivial():
    fact = factor_unity(1, 2)
    assert [f.poly for f in fact.factors] == [poly_of(fact.field, [1, 1])]


def test_factor_unity_product_and_degrees():
    for m, q in ((7, 2), (11, 5), (9, 2), (15, 2), (5, 3), (13, 3), (3, 4)):
        fact = factor_unity(m, q)
        field = fact.field
        prod = Poly.one(field)
        for f in fact.factors:
            assert f.degree == len(f.coset.members)
            assert is_irreducible(f.poly)
            prod = prod.mul(f.poly)
        assert prod == Poly.x_pow(field, m).sub(Poly.one(field))
        assert fact.factors[-1].rep == 0


def test_factor_roots_vanish():
    for m, q in ((7, 2), (11, 5), (5, 3)):
        fact = factor_unity(m, q)
        for f in fact.factors:
            ext = f.ext_field
            val = f.poly.eval_at(f.root, ext)
            assert val == 0
            # the root is a primitive-power of the unity root: order divides m
            assert ext.pow(f.root, m) == 1


def test_factor_eval_matches_direct_powering(rng):
    # evaluation by reduction equals evaluation at the root by Horner;
    # x^5 - 1 splits into linear factors over F_11, so there each
    # remainder mod x - c is the value at a root c other than 1
    fact = factor_unity(7, 2)
    f2 = fact.field
    for idx in range(2 ** 7):
        a = Poly(f2, [(idx >> t) & 1 for t in range(7)])
        for f in fact.factors:
            assert f.eval(a) == a.eval_at(f.root, f.ext_field)
    fact = factor_unity(5, 11)
    for _ in range(20):
        a = Poly(fact.field, [rng.randrange(11) for _ in range(5)])
        for f in fact.factors:
            assert f.eval(a) == a.eval_at(f.root, f.ext_field)


def test_factor_root_powers():
    for m, q in ((5, 11), (7, 2), (11, 5), (1, 3)):
        for f in factor_unity(m, q).factors:
            E = f.ext_field
            assert f.root_powers == tuple(E.pow(f.root, e) for e in range(m))
            # the powers are derived data: equality and hashing skip them
            bare = dataclasses.replace(f, root_powers=())
            assert bare == f and hash(bare) == hash(f)


def test_factor_by_member():
    fact = factor_unity(7, 2)
    assert fact.factor_by_member(6).rep == 3
    assert fact.factor_by_member(-1).rep == 3
    assert fact.factor_by_member(0).rep == 0


def test_factor_unity_shared_per_field():
    fact = factor_unity(7, 2)
    assert factor_unity(7, make_field(2)) is fact
    assert factor_unity(7, 4) is not fact
