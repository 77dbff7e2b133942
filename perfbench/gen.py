"""Seeded input generation for the three workloads.

Each ``make_<workload>`` writes the files the program is given into a
directory, and returns the job list and the expected values the worker
checks against.  Expected values are computed here with the benchmark's
own arithmetic (``fq``) or are textbook parameters; the program is used
only for the tables of its prime-power fields, whose element packing is
a convention of its file formats.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd
from pathlib import Path

import fq

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

SURVEY_SPACE_CAP = 1 << 12
SURVEY_DRAWS_PER_SHAPE = 2
SURVEY_JMAX = 3


def field(q: int) -> fq.GF:
    """The field of order q with the program's element packing."""
    from qclrc.algebra import make_field
    F = make_field(q)
    if F.is_prime:
        return fq.GF.prime(q)
    return fq.GF(q, [[F.add(a, b) for b in range(q)] for a in range(q)],
                 [[F.mul(a, b) for b in range(q)] for a in range(q)])


def _poly_text(cs) -> str:
    return "[" + " ".join(str(c) for c in cs) + "]" if cs else "[0]"


def _elem_text(e: int, p: int, width: int) -> str:
    digits = []
    for _ in range(width):
        digits.append(e % p)
        e //= p
    return _poly_text(fq.poly_trim(digits))


_ORDER_TEXT = {2: "2", 3: "3", 4: "2^2", 5: "5", 16: "2^4"}
_PRIME_WIDTH = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 16: (2, 4)}


def matrix_text(q: int, rows) -> str:
    p, width = _PRIME_WIDTH[q]
    out = [f"q: {_ORDER_TEXT[q]}", f"n: {len(rows[0])}", "rows:"]
    for row in rows:
        out.append("- (" + ", ".join(_elem_text(e, p, width) for e in row)
                   + ")")
    return "\n".join(out) + "\n"


# -- reference ----------------------------------------------------------------

# The paper's published figures, as `qclrc reproduce` names its checks.
PAPER_4_1 = {"k": 15, "r_upper": 6, "d(D_{1})": 4, "d(D_{2})": 4,
             "d(D_{1, 2})": 2, "d_GO": 4, "d_S": 5,
             "status": "almost-optimal"}
PAPER_4_4 = {"d_GO": 4, "chain condition": False, "row count": 11,
             "j_0": None,
             **{f"d_S at j={j}": 5 for j in range(11)},
             **{f"status at j={j}": "almost-optimal" for j in range(11)}}
PAPER_4_6 = {"n": 77, "k": 48, "r_upper": 10,
             "d(D_{1})": 11, "d(D_{2})": 6, "d(D_{3})": 6, "d(D_{1, 2})": 5,
             "d(D_{1, 3})": 5, "d(D_{2, 3})": 2, "d(D_{1, 2, 3})": 1,
             "R_{3}": 12, "R_{2, 3}": 10, "R_{1, 2, 3}": 18, "d_GO": 10,
             "j_0": 14, "n at j=14": 231, "k at j=14": 202,
             "d_S at j=14": 10, "d_GO at j=14": 10,
             "status at j=14": "optimal"}

# 4.1: [21, 15] over F_2, analyzed from its spec file.
ANALYZE_4_1 = {"n": 21, "k": 15, "r_upper": 6, "d_go": 4, "d_s": 5,
               "status": "almost-optimal",
               "subcode_distances": {"1": 4, "2": 4, "1,2": 2}}
# 4.6: m = 11, l = 7, constituent dimensions 4, 5, 3 over factors of
# degree 5, 5, 1; locality 10 as reproduce 4.6 reports it.
FAMILY_4_6 = {"m": 11, "ell": 7, "dims": [4, 5, 3], "degrees": [5, 5, 1],
              "r": 10, "jmax": 22, "j0": 14}


def make_reference(out: Path, rng: random.Random) -> tuple[list, dict]:
    """The paper's cases: fixed inputs, whatever ``out`` and ``rng``."""
    spec41 = str(INPUTS / "ref-4.1.spec")
    spec46 = str(INPUTS / "ref-4.6.spec")
    jobs = [
        {"op": "reproduce", "argv": ["reproduce", "4.1"], "expect": PAPER_4_1},
        {"op": "reproduce", "argv": ["reproduce", "4.4"], "expect": PAPER_4_4},
        {"op": "reproduce", "argv": ["reproduce", "4.6"], "expect": PAPER_4_6},
        {"op": "analyze", "argv": ["analyze", spec41],
         "expect": ANALYZE_4_1},
        {"op": "scan", "argv": ["scan", spec46, "--jmax", "22"],
         "expect": FAMILY_4_6},
    ]
    return jobs, {}


# -- survey -------------------------------------------------------------------

# Two fixed inputs, independent of the seed, that hit faults of the
# program on every run: the telescoped bound exceeds d_S and `analyze`
# raises; the full space F_2^6 gets the m - 1 locality fallback and a
# d_S below its true distance 1.
FAULT_SPECS = {
    "telescoped-over-ds": ("q: 2\nm: 3\nl: 3\nconstituents:\n"
                           "  factor 1:\n    field: F_4\n"
                           "    row: ([1 0], [0 0], [0 1])\n"
                           "    row: ([0 0], [1 0], [1 1])\n"
                           "  factor 2:\n    field: F_2\n"
                           "    row: ([1], [0], [1])\n"
                           "    row: ([0], [1], [0])\n", 2),
    "full-space-locality": ("q: 2\nm: 3\nl: 2\ngenerators:\n"
                            "- ([1], [0])\n- ([0], [1])\n", 1),
}


def survey_shapes() -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Every (q, m, ell, constituent dimensions) the survey draws once.

    Dimensions follow the factors of x^m - 1 as ``fq.factor_xm1`` lists
    them.  At least one constituent is zero and at least one is not, and
    q^k stays within SURVEY_SPACE_CAP.  The list does not depend on the
    seed, so every seed runs codes of the same sizes.
    """
    out = []
    for q in (2, 3, 4):
        F = field(q)
        for m in (3, 5, 7):
            if gcd(m, q) != 1:
                continue
            degrees = [len(f) - 1 for f in _factors(q, m, F)]
            for ell in (2, 3, 4):
                for dims in product(range(ell + 1), repeat=len(degrees)):
                    k = sum(a * b for a, b in zip(dims, degrees))
                    if all(dims) or not k or q ** k > SURVEY_SPACE_CAP:
                        continue
                    out.append((q, m, ell, dims))
    return out


_FACTORS: dict[tuple[int, int], list[list[int]]] = {}


def _factors(q: int, m: int, F: fq.GF) -> list[list[int]]:
    got = _FACTORS.get((q, m))
    if got is None:
        got = _FACTORS[(q, m)] = fq.factor_xm1(m, F)
    return got


def _flat_shifts(gen, m: int, F: fq.GF) -> list[list[int]]:
    """The m shifts x^s * gen as flat words, position j*m + g."""
    rows = []
    for s in range(m):
        shift = [0] * s + [1]
        cols = [fq.poly_mulmod_xm1(a, shift, m, F) for a in gen]
        rows.append([(c[g] if g < len(c) else 0)
                     for c in cols for g in range(m)])
    return rows


def _draw_survey_code(rng: random.Random, F: fq.GF, q: int, m: int,
                      ell: int, dims: tuple[int, ...]) -> dict:
    """A random code of the given shape in generators form.

    Generator t sums, over every factor f_i with dims[i] > t, a tuple of
    random multiples of (x^m - 1)/f_i, whose evaluations at the root of
    f_i are uniform; the draw is repeated until every constituent has
    its full dimension dims[i].
    """
    factors = _factors(q, m, F)
    xm1 = [F.neg[1]] + [0] * (m - 1) + [1]
    cofactors = [fq.poly_divmod(xm1, f, F)[0] for f in factors]
    target = sum(d * (len(f) - 1) for d, f in zip(dims, factors))
    while True:
        gens = []
        for t in range(max(dims)):
            gen = [[] for _ in range(ell)]
            for i, cof in enumerate(cofactors):
                if dims[i] > t:
                    gen = [fq.poly_add(a, fq.poly_mulmod_xm1(
                        cof, [rng.randrange(q) for _ in range(m)], m, F), F)
                        for a in gen]
            gens.append(gen)
        rows = [r for gen in gens for r in _flat_shifts(gen, m, F)]
        ech, _ = fq.rref(rows, F)
        if len(ech) == target:
            break
    k, n = target, m * ell
    # one codeword, one erased coordinate; the array the program gets
    # holds a wrong symbol at the erased place
    word = [0] * n
    for row in ech:
        word = F.axpy(rng.randrange(q), row, word)
    coord = rng.randrange(n)
    array = [[word[j * m + g] for j in range(ell)] for g in range(m)]
    array[coord % m][coord // m] = (word[coord] + 1) % q
    spec = [f"q: {_ORDER_TEXT[q]}", f"m: {m}", f"l: {ell}", "generators:"]
    spec += ["- (" + ", ".join(_poly_text(a) for a in gen) + ")"
             for gen in gens]
    return {"spec": "\n".join(spec) + "\n", "q": q, "m": m, "ell": ell,
            "n": n, "k": k, "rref": ech, "d": fq.min_weight(ech, F),
            "factors": factors, "dims": list(dims), "array": array,
            "coord": coord, "symbol": word[coord]}


def make_survey(out: Path, rng: random.Random) -> tuple[list, dict]:
    fields = {q: field(q) for q in (2, 3, 4)}
    jobs = []
    shapes = survey_shapes() * SURVEY_DRAWS_PER_SHAPE
    for i, (q, m, ell, dims) in enumerate(shapes):
        draw = _draw_survey_code(rng, fields[q], q, m, ell, dims)
        path = out / f"draw-{i:03d}.spec"
        path.write_text(draw.pop("spec"), encoding="utf-8")
        jobs.append({"op": "survey", "path": str(path),
                     "array": draw.pop("array"), "coord": draw["coord"],
                     "expect": draw})
    for name, (text, true_d) in FAULT_SPECS.items():
        path = out / f"fault-{name}.spec"
        path.write_text(text, encoding="utf-8")
        jobs.append({"op": "fault", "name": name, "path": str(path),
                     "argv": ["analyze", str(path)],
                     "expect": {"d": true_d}})
    return jobs, {"jmax": SURVEY_JMAX}


# -- distance -----------------------------------------------------------------


def _octal_poly(text: str) -> list[int]:
    """Binary generator polynomial from its octal textbook form."""
    return [int(b) for b in reversed(bin(int(text, 8))[2:])]


def _cyclic_rows(g: list[int], n: int) -> list[list[int]]:
    return [[0] * t + g + [0] * (n - len(g) - t)
            for t in range(n - len(g) + 1)]


def _reed_muller_2_5() -> list[list[int]]:
    points = [[(x >> b) & 1 for b in range(5)] for x in range(32)]
    rows = [[1] * 32]
    rows += [[p[a] for p in points] for a in range(5)]
    rows += [[p[a] & p[b] for p in points]
             for a in range(5) for b in range(a + 1, 5)]
    return rows


def _golay_24() -> list[list[int]]:
    rows = _cyclic_rows(_octal_poly("5343"), 23)
    return [r + [sum(r) % 2] for r in rows]


def _reed_solomon(F: fq.GF, k: int) -> list[list[int]]:
    """Evaluations of 1, x, ..., x^(k-1) at the nonzero elements."""
    rows = [[1] * (F.q - 1)]
    for _ in range(k - 1):
        rows.append([F.mul[a][x] for a, x in zip(rows[-1], range(1, F.q))])
    return rows


def _hamming(F: fq.GF, r: int) -> list[list[int]]:
    """Dual of the columns with leading coordinate 1, one per point."""
    cols = []
    for v in range(1, F.q ** r):
        digits = [(v // F.q ** e) % F.q for e in range(r)]
        if next(d for d in reversed(digits) if d) == 1:
            cols.append(digits)
    H = [[c[e] for c in cols] for e in range(r)]
    return fq.dual(H, len(cols), F)


def _extended_hamming_64() -> list[list[int]]:
    H = [[1] * 64] + [[(x >> b) & 1 for x in range(64)] for b in range(6)]
    return fq.dual(H, 64, fq.GF.prime(2))


def _zero_sum(F: fq.GF, n: int) -> list[list[int]]:
    return [[1 if j == i else (F.neg[1] if j == n - 1 else 0)
             for j in range(n)] for i in range(n - 1)]


Entry = tuple[str, int, list[list[int]], tuple[int, int, int]]


def catalogue() -> list[Entry]:
    """(name, q, generator rows, textbook [n, k, d]) of every code."""
    F2, F3, F4, F5, F16 = (field(q) for q in (2, 3, 4, 5, 16))
    return [
        # only enumeration is feasible
        ("bch-31-16", 2, _cyclic_rows(_octal_poly("107657"), 31), (31, 16, 7)),
        ("reed-muller-2-5", 2, _reed_muller_2_5(), (32, 16, 8)),
        ("golay-24", 2, _golay_24(), (24, 12, 8)),
        ("reed-solomon-15-5", 16, _reed_solomon(F16, 5), (15, 5, 11)),
        # within the enumeration budget, parity search far cheaper
        ("bch-31-21", 2, _cyclic_rows(_octal_poly("3551"), 31), (31, 21, 5)),
        ("zero-sum-11", 5, _zero_sum(F5, 11), (11, 10, 2)),
        # beyond the enumeration budget
        ("hamming-31-2", 2, _hamming(F2, 5), (31, 26, 3)),
        ("hamming-40-3", 3, _hamming(F3, 4), (40, 36, 3)),
        ("hamming-21-4", 4, _hamming(F4, 3), (21, 18, 3)),
        ("hamming-31-5", 5, _hamming(F5, 3), (31, 28, 3)),
        ("ext-hamming-64", 2, _extended_hamming_64(), (64, 57, 4)),
        ("bch-63-51", 2, _cyclic_rows(_octal_poly("12471"), 63), (63, 51, 5)),
        ("reed-solomon-15-11", 16, _reed_solomon(F16, 11), (15, 11, 5)),
    ]


def disguise(name: str, rows, F: fq.GF, rng: random.Random
             ) -> list[list[int]]:
    """A monomially equivalent code in a random basis: permuted, randomly
    rescaled columns, rows mixed by a random invertible matrix L*U.

    The permutation is drawn from the code's name, not from ``rng``: the
    parity-check search stops at the first dependent column set in
    lexicographic order, so a permutation that changed with the seed
    would change its cost (26.5 to 31.6 s per round over five seeds).
    Scaling and basis change keep every column set's rank, so they leave
    the search's path as it is.
    """
    k, n = len(rows), len(rows[0])
    nonzero = list(range(1, F.q))
    perm = list(range(n))
    random.Random(name).shuffle(perm)
    scale = [rng.choice(nonzero) for _ in range(n)]
    cols = [[F.mul[scale[j]][row[perm[j]]] for j in range(n)] for row in rows]
    # U: random upper triangular with nonzero diagonal, then L unit lower
    mixed = []
    for i in range(k):
        pivot = rng.choice(nonzero)
        acc = [F.mul[pivot][v] for v in cols[i]]
        for t in range(i + 1, k):
            acc = F.axpy(rng.randrange(F.q), cols[t], acc)
        mixed.append(acc)
    out = []
    for i in range(k):
        acc = list(mixed[i])
        for t in range(i):
            acc = F.axpy(rng.randrange(F.q), mixed[t], acc)
        out.append(acc)
    return out


def make_distance(out: Path, rng: random.Random) -> tuple[list, dict]:
    jobs = []
    for name, q, rows, (n, k, d) in catalogue():
        F = field(q)
        if fq.rank(rows, F) != k or len(rows[0]) != n:
            raise RuntimeError(f"catalogue code {name} is not [{n}, {k}]")
        path = out / f"{name}.mat"
        path.write_text(matrix_text(q, disguise(name, rows, F, rng)),
                        encoding="utf-8")
        jobs.append({"op": "mindist", "name": name,
                     "argv": ["mindist", str(path)],
                     "expect": {"q": q, "n": n, "k": k, "d": d}})
    return jobs, {}


MAKERS = {"reference": make_reference, "survey": make_survey,
          "distance": make_distance}
