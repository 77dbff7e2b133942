"""Finite-field linear algebra of the benchmark's own.

The benchmark computes the true values it checks the program against
(ranks, canonical generator matrices, minimum distances, factorizations
of x^m - 1) with this module, not with the program.  A field is given by
its addition and multiplication tables over the integers 0..q-1; prime
fields are built here, and a prime-power field takes its tables from the
caller, since the packing of its elements into integers is a convention
of the program's file formats.
"""

from __future__ import annotations

from itertools import product

import numpy as np


class GF:
    """A finite field of order q as add/mul tables."""

    def __init__(self, q: int, add: list[list[int]], mul: list[list[int]]):
        self.q = q
        self.add = add
        self.mul = mul
        self.neg = [next(b for b in range(q) if add[a][b] == 0)
                    for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if mul[a][b] == 1)
                          for a in range(1, q)]
        self.add_np = np.array(add, dtype=np.uint8)
        self.mul_np = np.array(mul, dtype=np.uint8)

    @classmethod
    def prime(cls, p: int) -> "GF":
        return cls(p, [[(a + b) % p for b in range(p)] for a in range(p)],
                   [[(a * b) % p for b in range(p)] for a in range(p)])

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def axpy(self, c: int, x: list[int], y: list[int]) -> list[int]:
        """y + c*x, entrywise."""
        mc = self.mul[c]
        return [self.add[b][mc[a]] for a, b in zip(x, y)]


def rref(rows, F: GF) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form with leading ones: (nonzero rows, pivots)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.inv[mat[r][c]]
        mat[r] = [F.mul[inv][v] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = F.axpy(F.neg[mat[i][c]], mat[r], mat[i])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows, F: GF) -> int:
    return len(rref(rows, F)[0])


def dual(rows, n: int, F: GF) -> list[list[int]]:
    """Canonical generator rows of the dual of the span of ``rows``."""
    ech, piv = rref(rows, F)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [0] * n
        v[f] = 1
        for row, p in zip(ech, piv):
            v[p] = F.neg[row[f]]
        basis.append(v)
    return rref(basis, F)[0]


def all_codewords(rows, F: GF) -> np.ndarray:
    """Every codeword of the span of independent ``rows``, one per row."""
    G = np.array(rows, dtype=np.uint8)
    n = G.shape[1]
    words = np.zeros((1, n), dtype=np.uint8)
    for g in G:
        scaled = F.mul_np[:, g]
        words = F.add_np[words[None, :, :], scaled[:, None, :]].reshape(-1, n)
    return words


def min_weight(rows, F: GF) -> int:
    """Minimum weight over the nonzero codewords, by enumeration."""
    ech, _ = rref(rows, F)
    weights = np.count_nonzero(all_codewords(ech, F), axis=1)
    return int(weights[weights > 0].min())


# -- polynomials over F, coefficient lists ascending by degree --------------


def poly_trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a: list[int], b: list[int], F: GF) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return poly_trim([F.add[x][b[i]] if i < len(b) else x
                      for i, x in enumerate(a)])


def poly_mul(a: list[int], b: list[int], F: GF) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = F.add[out[i + j]][F.mul[x][y]]
    return poly_trim(out)


def poly_divmod(a: list[int], b: list[int], F: GF
                ) -> tuple[list[int], list[int]]:
    a = poly_trim(a)
    b = poly_trim(b)
    if len(a) < len(b):
        return [], a
    quo = [0] * (len(a) - len(b) + 1)
    inv = F.inv[b[-1]]
    rem = list(a)
    for s in range(len(a) - len(b), -1, -1):
        c = F.mul[rem[s + len(b) - 1]][inv]
        quo[s] = c
        if c:
            for i, y in enumerate(b):
                rem[s + i] = F.sub(rem[s + i], F.mul[c][y])
    return poly_trim(quo), poly_trim(rem)


def poly_mulmod_xm1(a: list[int], b: list[int], m: int, F: GF) -> list[int]:
    """a*b modulo x^m - 1."""
    out = [0] * m
    for i, v in enumerate(poly_mul(a, b, F)):
        out[i % m] = F.add[out[i % m]][v]
    return poly_trim(out)


def factor_xm1(m: int, F: GF) -> list[list[int]]:
    """Monic irreducible factors of x^m - 1 (gcd(m, q) = 1), by trial
    division with monic divisors of increasing degree."""
    rest = poly_trim([F.neg[1]] + [0] * (m - 1) + [1])
    out = []
    deg = 1
    while 2 * deg <= len(rest) - 1:
        for tail in product(range(F.q), repeat=deg):
            cand = list(tail) + [1]
            while True:
                quo, rem = poly_divmod(rest, cand, F)
                if rem:
                    break
                out.append(cand)
                rest = quo
        deg += 1
    if len(rest) > 1:
        out.append(rest)
    return out
