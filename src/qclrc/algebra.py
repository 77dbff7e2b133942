"""Exact finite field and polynomial arithmetic.

Fields are prime fields F_p or towers of explicit quotient-ring extensions.
Elements are plain integers: the index of the element's coefficient vector
in base-q positional notation, where q is the order of the field one step
down.  Index 0 is zero and index 1 is one in every field, and the elements
of any field lower in the same tower are exactly the indices below its
order, so embedding along a tower is the identity on indices.

Each field picks one arithmetic for whole rows (``Field.axpy``, the row
u + c*v, and ``Field.scale_row``): integer arithmetic mod p over prime
fields, xor when p = 2; lookups in the log/antilog tables for extension
fields up to ``_TABLE_MAX`` elements, with Zech logarithms for the sum in
odd characteristic; scalar field operations above.  Row reduction,
polynomial arithmetic and codeword combination go through these kernels
rather than through one ``add``/``mul`` call per entry.  The trace from a
field of at most ``_TABLE_MAX`` elements is looked up in a table of every
element's trace, built once per pair of fields.  A field of at most 256
elements also has a uint8 multiplication table
(``multiplication_table``), built in numpy from the log/antilog tables,
for the byte-packed rows of ``codes.rref``.

The module also builds cyclotomic cosets and the factorization of x^m - 1
into irreducible factors, one per coset, together with the extension field
and distinguished root attached to each factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import xor
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InternalConsistencyError, ResourceLimitError

# Extension fields up to this order build log/antilog tables when they
# are constructed, and trace tables are built for fields up to it.
_TABLE_MAX = 1 << 16

# Trial division tries no divisor above this, so every n below its square
# (2^40) factors completely; on 2-core x86-64 with Python 3.11 reaching it
# takes about 0.3 s.
_TRIAL_DIVISOR_MAX = 1 << 20

# Candidates per batch of the generator search over an extension field.
_GENERATOR_BATCH = 8


def _prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, by trial division up to
    _TRIAL_DIVISOR_MAX.  Raises ResourceLimitError where what is left of
    n after that is above the bound's square, so neither 1 nor known to
    be prime."""
    out: list[int] = []
    whole = n
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISOR_MAX:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if d * d <= n:
        raise ResourceLimitError(
            f"cannot factor {whole}: trial division stops at "
            f"{_TRIAL_DIVISOR_MAX}")
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _matrix_power(maps: np.ndarray, e: int, p: int) -> np.ndarray:
    """Each matrix of a stack raised to the power e >= 1, mod p, by
    square-and-multiply."""
    out = None
    while True:
        if e & 1:
            out = maps if out is None else out @ maps % p
        e >>= 1
        if not e:
            return out
        maps = maps @ maps % p


def pack_digits(digits: Sequence[int], base: int) -> int:
    """The index whose base-``base`` digits, ascending, are ``digits``."""
    out = 0
    for d in reversed(digits):
        out = out * base + d
    return out


def unpack_digits(index: int, base: int, width: int) -> tuple[int, ...]:
    """The ``width`` lowest base-``base`` digits of ``index``, ascending."""
    out = []
    for _ in range(width):
        index, d = divmod(index, base)
        out.append(d)
    return tuple(out)


class Field:
    """A finite field: F_p, or an extension of another Field by a modulus.

    Construct through :func:`make_prime_field`, :func:`make_field` or
    :func:`make_extension`; the constructor itself is internal.  Instances
    are immutable values; equality is structural on the modulus chain.
    The constructor builds everything derived from the modulus: the
    log/antilog tables of an extension field of at most ``_TABLE_MAX``
    elements, and the two row kernels (``_pick_rows``):
    ``axpy(u, c, v)``, the row u + c*v, and ``scale_row(c, v)``, the row
    c*v.
    """

    __slots__ = ("char", "base", "modulus", "order", "degree", "_sig",
                 "_hash", "_exp", "_log", "_zech", "axpy", "scale_row")

    def __init__(self, char: int, base: "Field | None",
                 modulus: "Poly | None"):
        self.char = char
        self.base = base
        self.modulus = modulus
        if base is None:
            self.order = char
            self.degree = 1
            self._sig: tuple = (char,)
        else:
            step = modulus.degree
            self.order = base.order ** step
            self.degree = base.degree * step
            self._sig = base._sig + (modulus.coeffs,)
        # Every cache keyed by a field, a code or a polynomial hashes the
        # field; the nested signature is hashed once here.
        self._hash = hash(self._sig)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        if base is not None and self.order <= _TABLE_MAX:
            self._build_tables()
        self.axpy, self.scale_row = self._pick_rows()

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self._sig == other._sig

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"F({self.char})"
        return f"F({self.char}^{self.degree})"

    @property
    def is_prime(self) -> bool:
        return self.base is None

    @property
    def gen(self) -> int:
        """The distinguished generator: the class of x in the top quotient."""
        if self.base is None:
            raise ValueError("prime field has no extension generator")
        return self.base.order

    def elements(self) -> range:
        return range(self.order)

    # -- additive structure -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.char
        if p == 2:
            return a ^ b
        if self.base is None:
            return (a + b) % p
        # Addition is coefficientwise mod p at every tower level, which is
        # digitwise mod p on the base-p expansion of the packed index.
        out = 0
        place = 1
        while a or b:
            out += ((a + b) % p) * place
            a //= p
            b //= p
            place *= p
        return out

    def neg(self, a: int) -> int:
        p = self.char
        if p == 2 or a == 0:
            return a
        if self.base is None:
            return (-a) % p
        out = 0
        place = 1
        while a:
            out += ((p - a % p) % p) * place
            a //= p
            place *= p
        return out

    def sub(self, a: int, b: int) -> int:
        p = self.char
        if p == 2:
            return a ^ b
        if self.base is None:
            return (a - b) % p
        return self.add(a, self.neg(b))

    # -- multiplicative structure -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.char
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if self._exp is None:
            return self._mul_raw(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def _mul_raw(self, a: int, b: int) -> int:
        """Schoolbook product of coefficient vectors, reduced by the modulus."""
        base = self.base
        q, step = base.order, self.modulus.degree
        av = unpack_digits(a, q, step)
        bv = unpack_digits(b, q, step)
        prod = [0] * (2 * step - 1)
        for i, ai in enumerate(av):
            if ai:
                prod[i:i + step] = base.axpy(prod[i:i + step], ai, bv)
        lower = self.modulus.coeffs[:-1]  # monic
        for i in range(len(prod) - 1, step - 1, -1):
            lead = prod[i]
            if lead:
                prod[i - step:i] = base.axpy(prod[i - step:i],
                                             base.neg(lead), lower)
        return pack_digits(prod[:step], q)

    def _build_tables(self) -> None:
        """Log/antilog tables of an extension field over the powers of its
        multiplicative generator g.

        Addition is digitwise mod p on the base-p digits of an index, so
        multiplication by g is an F_p-linear map of those digits, and so
        is multiplication by g^b, the b-th power of g's map.  The digits
        of the first b powers of g, times the map of g^b, are those of
        the next b: the powers come in doubling blocks from 1, log is
        their inverse permutation, and zech follows from both, all in
        numpy.  Below _TABLE_MAX = 2^16 elements every digit product sum
        fits int64.
        """
        g, image_digits = self._search_generator()
        p, n = self.char, self.order - 1
        places = p ** np.arange(self.degree, dtype=np.int64)
        digits = (places == 1).astype(np.int64)[None]   # the digits of 1
        step = image_digits.astype(np.int64)
        while len(digits) < n:
            more = digits[:n - len(digits)] @ step % p
            digits = np.concatenate([digits, more])
            step = step @ step % p
        exp = digits @ places
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n)
        if p != 2:
            # zech[t] is the log of 1 + g^t, or -1 where that sum is 0;
            # adding 1 changes only the lowest base-p digit of an index.
            low = exp % p
            zech = log[exp - low + (low + 1) % p]
            zech[n // 2] = -1
            self._zech = zech.tolist() * 2
        # Stored twice over, so a sum of two logs indexes it without % n.
        self._exp = exp.tolist() * 2
        self._log = log.tolist()

    def multiplicative_generator(self) -> int:
        """Smallest element (by index) of full multiplicative order.

        An extension field with log/antilog tables found it while
        building them, as g^1."""
        if self._exp is not None:
            return self._exp[1]
        return self._search_generator()[0]

    def _search_generator(self) -> tuple[int, np.ndarray | None]:
        """The smallest element g (by index) of full multiplicative order,
        with, over an extension field, the matrix over F_p of
        multiplication by g on base-p digits (row j: the digits of g*p^j).

        A candidate c has full order iff c^(n/r) != 1 for every prime r
        dividing n = q - 1.  Over F_p that is tested by ``pow``.  Over an
        extension field the map of c is linear in the digits of c, so the
        maps of the ``degree`` places p^i give the maps of a batch of
        candidates in one einsum; the powers are taken by square-and-
        multiply of those matrices mod p, and c^e = 1 iff the map of c^e
        is the identity.  Batches run in index order, so the least
        candidate that passes is the least generator.  They start at the
        order of the base field: the indices below it are the base field's
        elements, whose orders divide its order minus one, so none has
        full order.
        """
        n = self.order - 1
        if n == 1:
            return 1, None
        primes = _prime_factors(n)
        p = self.char
        if self.base is None:
            g = next(c for c in range(2, self.order)
                     if all(pow(c, n // r, p) != 1 for r in primes))
            return g, None
        D = self.degree
        # entries stay below p, so a product of two maps sums D terms
        # below p^2; past int64 the arithmetic is done in Python ints
        dtype = np.int64 if D * (p - 1) ** 2 < 1 << 63 else object
        places = [p ** j for j in range(D)]
        basis = np.array([[unpack_digits(self._mul_raw(a, b), p, D)
                           for b in places] for a in places], dtype=dtype)
        eye = np.eye(D, dtype=dtype)
        for start in range(self.base.order, self.order, _GENERATOR_BATCH):
            cands = range(start, min(start + _GENERATOR_BATCH, self.order))
            digits = np.array([unpack_digits(c, p, D) for c in cands],
                              dtype=dtype)
            maps = np.einsum("ci,ijk->cjk", digits, basis) % p
            full = np.ones(len(cands), dtype=bool)
            for r in primes:
                full &= ~(_matrix_power(maps, n // r, p) == eye).all(
                    axis=(1, 2))
            if full.any():
                c = int(full.argmax())
                return cands[c], maps[c]
        raise InternalConsistencyError("no multiplicative generator found")

    def _pow_raw(self, a: int, e: int) -> int:
        """a^e for e >= 0 without tables: square-and-multiply over the
        schoolbook product."""
        if self.base is None:
            return pow(a, e, self.char)
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.base is None:
            return pow(a, e, self.char)
        if a == 0:
            if e == 0:
                return 1
            return 0
        if self._exp is None:
            return self._pow_raw(a, e)
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def __reduce__(self):
        # The row kernels are closures; a copy builds its own.
        return Field, (self.char, self.base, self.modulus)

    # -- row kernels --------------------------------------------------------

    def _pick_rows(self) -> tuple[Callable, Callable]:
        """This field's row kernels, axpy(u, c, v) = u + c*v and
        scale_row(c, v) = c*v, entry by entry: integer arithmetic mod p
        (xor when p = 2), log/antilog lookups up to _TABLE_MAX elements,
        scalar field operations above."""
        p = self.char
        if self.base is None and p == 2:
            def axpy(u, c, v):
                return list(map(xor, u, v)) if c else list(u)

            def scale_row(c, v):
                return list(v) if c else [0] * len(v)
        elif self.base is None:
            def axpy(u, c, v):
                return [(a + c * b) % p for a, b in zip(u, v)]

            def scale_row(c, v):
                return [c * b % p for b in v]
        elif self._exp is not None:
            exp, log, zech = self._exp, self._log, self._zech

            def scale_row(c, v):
                if not c:
                    return [0] * len(v)
                lc = log[c]
                return [exp[lc + log[b]] if b else 0 for b in v]

            if p == 2:
                def axpy(u, c, v):
                    if not c:
                        return list(u)
                    lc = log[c]
                    return [a ^ exp[lc + log[b]] if b else a
                            for a, b in zip(u, v)]
            else:
                def axpy(u, c, v):
                    # a + w = a (1 + w/a): the log of the sum is
                    # log a + zech[log w - log a].
                    if not c:
                        return list(u)
                    lc = log[c]
                    out = []
                    for a, b in zip(u, v):
                        if b:
                            t = lc + log[b]
                            if a:
                                la = log[a]
                                z = zech[t - la]
                                a = exp[la + z] if z >= 0 else 0
                            else:
                                a = exp[t]
                        out.append(a)
                    return out
        else:
            add, mul = self.add, self.mul

            def axpy(u, c, v):
                return [add(a, mul(c, b)) for a, b in zip(u, v)]

            def scale_row(c, v):
                return [mul(c, b) for b in v]
        return axpy, scale_row

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- tower relations ------------------------------------------------------

    def chain(self) -> list["Field"]:
        """The fields of this tower, prime field first, self last."""
        out: list[Field] = []
        f: Field | None = self
        while f is not None:
            out.append(f)
            f = f.base
        return out[::-1]

    def degree_over(self, sub: "Field") -> int:
        """Extension degree [self : sub]; sub must lie in this tower."""
        if sub not in self.chain():
            raise ValueError(f"{sub} is not a subfield of {self} in its tower")
        return self.degree // sub.degree


def make_prime_field(p: int) -> Field:
    """The prime field F_p, the same object ``make_field(p)`` returns.

    Rejects composite p with a diagnostic.
    """
    if not _is_prime(p):
        raise ValueError(f"not prime: {p}")
    return _prime_field(p)


@lru_cache(maxsize=None)
def _prime_field(p: int) -> Field:
    return Field(p, None, None)


@lru_cache(maxsize=None)
def make_extension(base: Field, modulus: "Poly") -> Field:
    """The quotient field base[x] / <modulus>.

    The modulus must be monic and irreducible over ``base``.  The class of
    x is the distinguished generator of the result.  A degree-1 modulus
    x - c names no proper extension: the base field itself is returned
    (its root is c, recoverable from the modulus).
    """
    if modulus.field != base:
        raise ValueError("modulus is not a polynomial over the base field")
    if not modulus.is_monic():
        raise ValueError("modulus must be monic")
    if modulus.degree == 1:
        return base
    if not is_irreducible(modulus):
        raise ValueError(f"reducible modulus: {modulus}")
    return Field(base.char, base, modulus)


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """The field of order q = p^a, built deterministically.

    Prime q gives F_p; prime powers extend F_p by the lexicographically
    smallest irreducible polynomial of degree a.
    """
    primes = _prime_factors(q) if q >= 2 else []
    if len(primes) != 1:
        raise ValueError(f"not a prime power: {q}")
    p = primes[0]
    a = 0
    n = q
    while n % p == 0:
        n //= p
        a += 1
    fp = _prime_field(p)
    if a == 1:
        return fp
    return make_extension(fp, find_irreducible(fp, a))


@lru_cache(maxsize=None)
def multiplication_table(field: Field) -> np.ndarray:
    """The multiplication table of a field of at most 256 elements: a
    read-only q x q uint8 array indexed by element, built in numpy once
    per field.  Over prime fields it is taken mod p; over extension
    fields the product of two nonzero elements is read from the
    log/antilog tables."""
    q, p = field.order, field.char
    if q > 256:
        raise ValueError(f"no uint8 table for a field of order {q}")
    idx = np.arange(q)
    if field.is_prime:
        mul = (idx[:, None] * idx) % p
    else:
        log = np.array(field._log)
        mul = np.array(field._exp)[log[:, None] + log]
        mul[0, :] = mul[:, 0] = 0
    mul = mul.astype(np.uint8)
    mul.setflags(write=False)   # shared by every caller
    return mul


def field_trace(z: int, sup: Field, sub: Field) -> int:
    """Trace of z from sup down to sub: the sum of z**(|sub|**t).

    Both fields must belong to one registered tower; the result is an
    element of ``sub`` (verified).
    """
    return trace_map(sup, sub)(z)


def trace_map(sup: Field, sub: Field) -> Callable[[int], int]:
    """field_trace from sup down to sub as a function of the element: a
    lookup in the table of every element's trace when sup has at most
    _TABLE_MAX elements, the power sum above."""
    if sup.order <= _TABLE_MAX:
        return _trace_table(sup, sub).__getitem__
    return lambda z: _power_trace(z, sup, sub)


@lru_cache(maxsize=None)
def _trace_table(sup: Field, sub: Field) -> tuple[int, ...]:
    """The trace of every element of sup down to sub, by index.

    The base-s digits z_j of an index z, s = |sub|, are its coordinates
    over sub, and the trace is sub-linear: Tr(z) is the sum over j of
    z_j Tr(s^j).  So only the [sup : sub] traces of the places s^j are
    power sums (``_power_trace``); the table adds their multiples by the
    digits of every index at once, as base-p digits mod p.
    """
    s, p, f = sub.order, sup.char, sub.degree
    z = np.arange(sup.order, dtype=np.int64)
    places = p ** np.arange(f, dtype=np.int64)
    acc = np.zeros((sup.order, f), dtype=np.int64)
    for j in range(sup.degree_over(sub)):
        # c Tr(s^j) for every c in sub, as base-p digits
        multiples = np.array(sub.scale_row(_power_trace(s ** j, sup, sub),
                                           list(range(s))), dtype=np.int64)
        acc += (multiples[:, None] // places % p)[z // s ** j % s]
    return tuple((acc % p @ places).tolist())


def _power_trace(z: int, sup: Field, sub: Field) -> int:
    e = sup.degree_over(sub)
    s = sub.order
    acc = 0
    w = z
    for _ in range(e):
        acc = sup.add(acc, w)
        w = sup.pow(w, s)
    if acc >= sub.order:
        raise InternalConsistencyError(
            f"trace {acc} did not land in the subfield of order {sub.order}")
    return acc


class Poly:
    """Univariate polynomial over a Field, coefficients ascending by degree.

    Canonical form: trailing zero coefficients are stripped, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    Immutable and hashable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.order:
                raise ValueError(f"coefficient {c} outside field of order "
                                 f"{field.order}")
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x_pow(cls, field: Field, e: int) -> "Poly":
        return cls(field, (0,) * e + (1,))

    @classmethod
    def monic_from_index(cls, field: Field, degree: int, index: int) -> "Poly":
        """Monic polynomial of the given degree whose lower coefficients
        are the base-q digits of ``index`` (degree-0 digit first)."""
        q = field.order
        cs = []
        for _ in range(degree):
            cs.append(index % q)
            index //= q
        cs.append(1)
        return cls(field, cs)

    # -- structure --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ---------------------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        return self._plus(1, other)

    def neg(self) -> "Poly":
        F = self.field
        return Poly(F, F.scale_row(F.neg(1), self.coeffs))

    def sub(self, other: "Poly") -> "Poly":
        return self._plus(self.field.neg(1), other)

    def _plus(self, c: int, other: "Poly") -> "Poly":
        """self + c*other."""
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a = a + (0,) * (len(b) - len(a))
        out = list(a)
        out[:len(b)] = F.axpy(a[:len(b)], c, b)
        return Poly(F, out)

    def mul(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        nb = len(b)
        for i, ai in enumerate(a):
            if ai:
                out[i:i + nb] = F.axpy(out[i:i + nb], ai, b)
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(F, F.scale_row(c, self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        quo, rem = self._divide(other)
        return Poly(self.field, quo), Poly(self.field, rem)

    def mod(self, other: "Poly") -> "Poly":
        return Poly(self.field, self._divide(other)[1])

    def _divide(self, other: "Poly") -> tuple[list[int], list[int]]:
        """Coefficients of the quotient and the remainder of self by
        other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dd = other.degree
        if len(rem) <= dd:
            return [], rem
        *lower, lead = other.coeffs
        dinv = 1 if lead == 1 else F.inv(lead)
        quo = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = quo[i - dd] = F.mul(c, dinv)
                rem[i - dd:i] = F.axpy(rem[i - dd:i], F.neg(f), lower)
        # every coefficient from degree dd on has been cancelled
        del rem[dd:]
        return quo, rem

    def divides(self, other: "Poly") -> bool:
        return other.mod(self).is_zero()

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        out = Poly.one(self.field)
        base = self.mod(mod)
        while e:
            if e & 1:
                out = out.mul(base).mod(mod)
            base = base.mul(base).mod(mod)
            e >>= 1
        return out

    def reciprocal(self) -> "Poly":
        """Coefficient reversal: x^deg * p(1/x)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def eval_at(self, elem: int, target: Field | None = None) -> int:
        """Horner evaluation at an element of ``target`` (default: own field).

        Coefficients embed into ``target`` by index, which is valid when the
        coefficient field lies in target's tower.
        """
        F = target or self.field
        if F is not self.field and self.field not in F.chain():
            raise ValueError("coefficient field is not in the target tower")
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, elem), c)
        return acc


def is_irreducible(f: Poly) -> bool:
    """True iff a nonconstant polynomial has no nontrivial factor.

    Uses the distinct-degree sieve: f of degree n is irreducible iff
    gcd(x^(q^t) - x, f) is constant for every t up to n/2.
    """
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    F = f.field
    q = F.order
    x = Poly.x_pow(F, 1)
    r = x
    for _ in range(n // 2):
        r = r.pow_mod(q, f)
        if not r.sub(x).gcd(f).degree <= 0:
            return False
    return True


def find_irreducible(field: Field, degree: int) -> Poly:
    """Lexicographically smallest monic irreducible of the given degree.

    Monic candidates are scanned in base-q counting order of their lower
    coefficient vector; deterministic across runs.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    for index in range(field.order ** degree):
        cand = Poly.monic_from_index(field, degree, index)
        if is_irreducible(cand):
            return cand
    raise InternalConsistencyError(
        f"no irreducible of degree {degree} found over {field}")


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of an exponent under multiplication by q modulo m."""

    m: int
    rep: int
    members: tuple[int, ...]


def cyclotomic_cosets(m: int, q: int | Field) -> list[CyclotomicCoset]:
    """Partition of {0..m-1} into orbits under multiplication by q mod m.

    Sorted by smallest member (the representative); the coset of 0 is {0}
    and comes first.  Requires gcd(m, q) = 1.
    """
    qn = q.order if isinstance(q, Field) else q
    if m < 1:
        raise ValueError("m must be positive")
    if math.gcd(m, qn) != 1:
        raise ValueError(f"gcd(m, q) must be 1, got m={m}, q={qn}")
    seen = [False] * m
    out = []
    for r in range(m):
        if seen[r]:
            continue
        orbit = []
        v = r
        while not seen[v]:
            seen[v] = True
            orbit.append(v)
            v = (v * qn) % m
        out.append(CyclotomicCoset(m, r, tuple(sorted(orbit))))
    return out


class _UnityContext:
    """Splitting-field data for the m-th roots of unity over one field."""

    __slots__ = ("m", "field", "ext_degree", "splitting", "beta")

    def __init__(self, m: int, field: Field):
        self.m = m
        self.field = field
        q = field.order
        if math.gcd(m, q) != 1:
            raise ValueError(f"gcd(m, q) must be 1, got m={m}, q={q}")
        w = 1
        acc = q % m
        while acc != 1 % m:
            acc = (acc * q) % m
            w += 1
        self.ext_degree = w
        self.splitting = field if w == 1 else \
            make_extension(field, find_irreducible(field, w))
        big = self.splitting
        if m == 1:
            self.beta = 1
        else:
            g = big.multiplicative_generator()
            self.beta = big.pow(g, (big.order - 1) // m)
        if big.pow(self.beta, m) != 1:
            raise InternalConsistencyError("root of unity has wrong order")
        for r in _prime_factors(m):
            if m > 1 and big.pow(self.beta, m // r) == 1:
                raise InternalConsistencyError("root of unity has low order")


@lru_cache(maxsize=None)
def unity_context(m: int, field: Field) -> _UnityContext:
    return _UnityContext(m, field)


def minimal_polynomial(u: int, m: int, q: int | Field) -> Poly:
    """Minimal polynomial over F_q of the u-th power of the canonical
    primitive m-th root of unity: the product of (x - root^(u q^t)) over
    the cyclotomic coset of u.

    Every coefficient must descend to F_q; a failure to descend signals a
    broken tower and raises InternalConsistencyError.
    """
    field = q if isinstance(q, Field) else make_field(q)
    ctx = unity_context(m, field)
    big = ctx.splitting
    coset = {u % m}
    v = (u * field.order) % m
    while v not in coset:
        coset.add(v)
        v = (v * field.order) % m
    prod = Poly.one(big)
    for t in sorted(coset):
        root = big.pow(ctx.beta, t)
        prod = prod.mul(Poly(big, (big.neg(root), 1)))
    down = []
    for c in prod.coeffs:
        if c >= field.order:
            raise InternalConsistencyError(
                f"coefficient {c} of a factor of x^{m}-1 did not descend")
        down.append(c)
    return Poly(field, down)


@dataclass(frozen=True)
class FactorInfo:
    """One irreducible factor of x^m - 1 with its attached field data.

    ``ext_field`` realizes F_q adjoined the factor's root; ``root`` is that
    root's index inside ext_field (the class of x for factors of degree at
    least 2, the literal base-field root for linear factors), and
    ``root_powers[e]`` is root^e for e below m.
    """

    poly: Poly
    coset: CyclotomicCoset
    rep: int
    ext_field: Field
    root: int
    root_powers: tuple[int, ...] = dc_field(repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def pack(self, coeffs: Sequence[int]) -> int:
        """Element of ext_field with the given coefficients in the root."""
        out = pack_digits(coeffs, self.poly.field.order)
        if out >= self.ext_field.order:
            raise ValueError("coefficient vector too long for this factor")
        return out

    def unpack(self, elem: int) -> tuple[int, ...]:
        """Coefficient vector of an ext_field element in the root."""
        return unpack_digits(elem, self.poly.field.order, self.degree)

    def eval(self, a: Poly) -> int:
        """Evaluate a(x) over F_q at this factor's root.

        Reduction of a mod the factor gives the coefficient vector of the
        value in the root (a remainder already of lower degree is used as
        it is); for a linear factor x - c the remainder is a(c).
        """
        rem = a if a.degree < self.degree else a.mod(self.poly)
        return self.pack(rem.coeffs + (0,) * (self.degree - len(rem.coeffs)))


@dataclass(frozen=True)
class Factorization:
    """The factorization of x^m - 1 over F_q, one factor per coset.

    Factors are ordered by nonzero representative ascending, with the
    x - 1 factor (representative 0) last.  ``_subcode_cache`` maps an
    index set to its associated cyclic code (see ``codes.subcode_from_bz``).
    The factors follow from (m, field), so the hash, taken once in the
    constructor, is that of the pair and reads no factor.
    """

    m: int
    field: Field
    factors: tuple[FactorInfo, ...]
    _subcode_cache: dict = dc_field(default_factory=dict, repr=False,
                                    compare=False)
    _hash: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.m, self.field)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def factor_by_member(self, exponent: int) -> FactorInfo:
        """The factor whose coset contains the given exponent mod m."""
        e = exponent % self.m
        for f in self.factors:
            if e in f.coset.members:
                return f
        raise InternalConsistencyError(f"exponent {e} not covered by cosets")


def factor_unity(m: int, q: int | Field) -> Factorization:
    """Factor x^m - 1 over F_q into irreducible polynomials.

    One factor per cyclotomic coset; the product is verified to equal
    x^m - 1 exactly.  The factor x - 1 carries the last index.  One
    Factorization per (m, field) is built per process and shared by
    every caller.
    """
    field = q if isinstance(q, Field) else make_field(q)
    return _factor_unity(m, field)


@lru_cache(maxsize=None)
def _factor_unity(m: int, field: Field) -> Factorization:
    cosets = cyclotomic_cosets(m, field)
    ordered = [c for c in cosets if c.rep != 0] + \
        [c for c in cosets if c.rep == 0]
    infos = []
    for coset in ordered:
        poly = minimal_polynomial(coset.rep, m, field)
        if poly.degree != len(coset.members):
            raise InternalConsistencyError(
                f"factor degree {poly.degree} != coset size "
                f"{len(coset.members)}")
        if poly.degree == 1:
            ext = field
            root = field.neg(poly.coeffs[0])
        else:
            ext = make_extension(field, poly)
            root = ext.gen
        powers = tuple(ext.pow(root, e) for e in range(m))
        infos.append(FactorInfo(poly, coset, coset.rep, ext, root, powers))
    prod = Poly.one(field)
    for info in infos:
        prod = prod.mul(info.poly)
    target = Poly.x_pow(field, m).sub(Poly.one(field))
    if prod != target:
        raise InternalConsistencyError(
            "product of cyclotomic factors is not x^m - 1")
    return Factorization(m, field, tuple(infos))
