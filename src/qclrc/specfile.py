"""Line-oriented text formats for codes and code databases.

Three file kinds share one syntax: ``key: value`` headers, block
keywords ending in a colon, and parenthesized tuples of bracket
polynomials.  A bracket polynomial ``[c0 c1 ...]`` lists coefficients
ascending by degree; ``[0]`` is the zero polynomial.  Blank lines and
lines starting with ``#`` are skipped; indentation is not significant.
Parse errors carry 1-based line numbers.  Each distinct entry text is
checked once per field and the answer kept in one token table per
(reader, base field, entry size), a dict looked up entry by entry; the
table answers an entry that fails with None, and the line holding it
raises the ParseError of its first fault.

Code spec file (:class:`CodeSpec`): headers ``q`` (field order, as
``p`` or ``p^a``), ``m`` (shift order) and ``l`` (index), then exactly
one body block:

- ``generators:`` holds one ``- (poly, ..., poly)`` line per generator
  tuple; entries are polynomials over the base field of degree below m.
- ``constituents:`` holds one ``factor N:`` block per factor of
  x^m - 1, in factorization order, each with a ``field: F_k`` tag and
  ``row: (elem, ..., elem)`` lines whose entries are coordinate vectors
  in the factor's root, coordinates in the base field.

Matrix file (:class:`MatrixSpec`): headers ``q`` and ``n``, then a
``rows:`` block of ``- (elem, ..., elem)`` generator rows whose entries
are coordinate vectors over the prime subfield.

Database file: ``code q n k:`` record headers, each followed by
generator rows in matrix-file syntax.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import (Field, Poly, factor_unity, make_field, pack_digits,
                      unpack_digits)
from .codes import LinearCode
from .errors import ParseError, ResourceLimitError
from .qc import ConstituentDecomposition, QCCode, evaluate_constituents

__all__ = [
    "CodeSpec",
    "MatrixSpec",
    "parse",
    "render",
    "to_decomposition",
    "from_decomposition",
    "parse_matrix",
    "render_matrix",
    "to_code",
    "from_code",
    "parse_database",
    "render_database",
    "poly_text",
    "read_order",
]

_HEADER_RE = re.compile(r"(\w+)\s*:\s*(.*)")
_BRACKET_RE = re.compile(r"\[\s*((?:\d+\s*)*)\]")
_RECORD_RE = re.compile(r"code\s+(\d+)\s+(\d+)\s+(\d+)\s*:")
_ORDER_RE = re.compile(r"(\d+)(?:\^(\d+))?")


@dataclass(frozen=True)
class CodeSpec:
    """Parsed code spec file: field order, array shape and one body.

    Exactly one of ``generators`` and ``constituents`` is set.
    Generator entries are canonical coefficient tuples (no trailing
    zeros); constituent rows hold packed extension-field elements, one
    tuple of rows per factor of x^m - 1 in factorization order.
    """

    q: int
    m: int
    ell: int
    generators: tuple[tuple[tuple[int, ...], ...], ...] | None
    constituents: tuple[tuple[tuple[int, ...], ...], ...] | None

    def __post_init__(self):
        if (self.generators is None) == (self.constituents is None):
            raise ValueError(
                "exactly one of generators and constituents must be set")


@dataclass(frozen=True)
class MatrixSpec:
    """Parsed matrix file: a generator matrix over the field of order q.

    Rows hold field elements as packed integers.
    """

    q: int
    n: int
    rows: tuple[tuple[int, ...], ...]


# -- bracket polynomials ------------------------------------------------------


def poly_text(coeffs: Sequence[int]) -> str:
    """Bracket form of a coefficient vector; the empty vector is [0]."""
    if not coeffs:
        return "[0]"
    return "[" + " ".join(str(c) for c in coeffs) + "]"


def _canonical(coeffs: Sequence[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _tuple_parts(text: str, no: int) -> list[str]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(no, f"expected a parenthesized tuple, got {s!r}")
    inner = s[1:-1].strip()
    if not inner:
        raise ParseError(no, "empty tuple")
    # Brackets never contain commas, so a top-level split is safe.
    return inner.split(",")


def _coeffs(tok: str, bound: int, size: int) -> tuple[int, ...] | None:
    """The canonical coefficients of one bracket entry, if it lists at
    most ``size`` of them after trailing zeros are dropped, each below
    ``bound``; None otherwise.

    A pure function of its arguments, kept in a token table
    (``_token_table``), so a file pays the regex and the checks once per
    distinct entry text.
    """
    got = _BRACKET_RE.fullmatch(tok.strip())
    if not got:
        return None
    cs = _canonical([int(t) for t in got.group(1).split()])
    if len(cs) > size or any(c >= bound for c in cs):
        return None
    return cs


def _element(tok: str, base: int, degree: int) -> int | None:
    """The element of the field of order base^degree whose coordinates
    over the field of order ``base`` an entry lists, packed; None as for
    ``_coeffs``."""
    cs = _coeffs(tok, base, degree)
    return None if cs is None else pack_digits(cs, base)


class _Tokens(dict):
    """Entry text -> what ``read(text, bound, size)`` makes of it, filled
    on first lookup (``_token_table``)."""

    def __init__(self, read: Callable[[str, int, int], object], bound: int,
                 size: int):
        super().__init__()
        self.read, self.bound, self.size = read, bound, size

    def __missing__(self, tok: str) -> object:
        got = self[tok] = self.read(tok, self.bound, self.size)
        return got


@lru_cache(maxsize=None)
def _token_table(read: Callable[[str, int, int], object], bound: int,
                 size: int) -> _Tokens:
    """The one token table of a reader, a bound on the values and an
    entry size."""
    return _Tokens(read, bound, size)


@dataclass(frozen=True)
class _Kind:
    """One kind of tuple line: the function that reads its entries, and
    the wording of its errors (the entry count, an entry with too
    many coordinates, a value outside the field)."""

    read: Callable[[str, int, int], object]
    count: str
    size: str
    value: str


_GENERATOR = _Kind(_coeffs, "generator tuple has {got} entries, index is "
                   "{want}", "entry degree {deg} not below m = {size}",
                   "coefficient")
_CONSTITUENT = _Kind(_element, "row has {got} entries, index is {want}",
                     "entry degree {deg} not below factor degree {size}",
                     "coefficient")
_MATRIX_ROW = _Kind(_element, "row has {got} entries, length is {want}",
                    "entry has {length} coordinates, field degree is {size}",
                    "coordinate")
_DATABASE_ROW = _Kind(_element, "row has {got} entries, record length is "
                      "{want}", _MATRIX_ROW.size, "coordinate")


def _read_tuple(text: str, no: int, kind: _Kind, count: int, bound: int,
                size: int) -> tuple:
    """The entries of a tuple line, each read by ``kind.read(entry,
    bound, size)``: one token-table lookup per entry.

    A line that does not hold ``count`` entries that all pass raises the
    ParseError of its first fault: a malformed entry, then the entry
    count, then the first entry too long or holding a value outside the
    field.
    """
    parts = _tuple_parts(text, no)
    entries = tuple(map(_token_table(kind.read, bound, size).__getitem__,
                        parts))
    if len(entries) == count and None not in entries:
        return entries
    failed = [part.strip() for part, entry in zip(parts, entries)
              if entry is None]
    found = [_BRACKET_RE.fullmatch(tok) for tok in failed]
    for tok, got in zip(failed, found):
        if not got:
            raise ParseError(no, f"malformed bracket polynomial {tok!r}")
    if len(entries) != count:
        raise ParseError(no, kind.count.format(got=len(entries), want=count))
    cs = _canonical([int(t) for t in found[0].group(1).split()])
    if len(cs) > size:
        raise ParseError(no, kind.size.format(deg=len(cs) - 1,
                                              length=len(cs), size=size))
    c = next(c for c in cs if c >= bound)
    raise ParseError(no, f"{kind.value} {c} outside field of order {bound}")


def _tuple_text(parts: Iterable[str]) -> str:
    return "(" + ", ".join(parts) + ")"


# -- shared scanning ----------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if ln and not ln.startswith("#"):
            out.append((no, ln))
    return out


def _eof_line(text: str) -> int:
    return len(text.splitlines()) or 1


def read_order(text: str) -> int | None:
    """The integer a field order written ``p`` or ``p^a`` stands for, or
    None where ``text`` has neither form.  Whether it is a prime power
    is left to the caller."""
    got = _ORDER_RE.fullmatch(text)
    if not got:
        return None
    return int(got.group(1)) ** int(got.group(2) or 1)


def _parse_order(val: str, no: int, key: str) -> int:
    q = read_order(val)
    if q is None:
        raise ParseError(no, f"header {key} must be p or p^a, got {val!r}")
    try:
        make_field(q)
    except ValueError:
        raise ParseError(no, f"not a prime power: {val}") from None
    except ResourceLimitError as err:
        raise ParseError(no, str(err)) from None
    return q


def _parse_count(val: str, no: int, key: str) -> int:
    if not val.isdigit() or int(val) < 1:
        raise ParseError(
            no, f"header {key} must be a positive integer, got {val!r}")
    return int(val)


def _scan_headers(lines: list[tuple[int, str]], keys: tuple[str, ...],
                  bodies: tuple[str, ...], eof: int
                  ) -> tuple[dict[str, int], dict[str, int], int, str]:
    """Read ``key: value`` headers up to a body keyword.

    Returns the header values, their line numbers, the index of the
    first body line and the body keyword.
    """
    vals: dict[str, int] = {}
    at: dict[str, int] = {}
    pos = 0
    body = None
    while pos < len(lines):
        no, ln = lines[pos]
        if ln.rstrip(":") in bodies and ln.endswith(":"):
            body = ln.rstrip(":")
            pos += 1
            break
        got = _HEADER_RE.fullmatch(ln)
        if not got or got.group(1) not in keys:
            raise ParseError(
                no, f"expected a header ({', '.join(keys)}) or a body "
                f"keyword, got {ln!r}")
        key, val = got.group(1), got.group(2).strip()
        if key in vals:
            raise ParseError(no, f"duplicate header {key!r}")
        parse_one = _parse_order if key == "q" else _parse_count
        vals[key] = parse_one(val, no, key)
        at[key] = no
        pos += 1
    if body is None:
        want = " or ".join(f"{b}:" for b in bodies)
        raise ParseError(eof, f"missing body block ({want})")
    missing = [k for k in keys if k not in vals]
    if missing:
        raise ParseError(lines[pos - 1][0],
                         "missing header " + ", ".join(missing))
    return vals, at, pos, body


# -- code spec files ------------------------------------------------------------


def parse(text: str) -> CodeSpec:
    """Parse a code spec file; raises ParseError on bad input."""
    lines = _content_lines(text)
    eof = _eof_line(text)
    vals, at, pos, body = _scan_headers(
        lines, ("q", "m", "l"), ("generators", "constituents"), eof)
    q, m, ell = vals["q"], vals["m"], vals["l"]
    if math.gcd(m, q) != 1:
        raise ParseError(
            at["m"], f"m = {m} shares a factor with the field order {q}")
    if body == "generators":
        return _parse_generators(lines[pos:], q, m, ell, eof)
    return _parse_constituents(lines[pos:], q, m, ell, eof)


def _parse_generators(lines: list[tuple[int, str]], q: int, m: int,
                      ell: int, eof: int) -> CodeSpec:
    gens = []
    for no, ln in lines:
        if not ln.startswith("- "):
            raise ParseError(
                no, f"expected a '- (...)' generator line, got {ln!r}")
        gens.append(_read_tuple(ln[2:], no, _GENERATOR, ell, q, m))
    if not gens:
        raise ParseError(eof, "generators block lists no generator tuples")
    return CodeSpec(q, m, ell, tuple(gens), None)


def _parse_constituents(lines: list[tuple[int, str]], q: int, m: int,
                        ell: int, eof: int) -> CodeSpec:
    fact = factor_unity(m, make_field(q))
    t = fact.num_factors
    cons = []
    idx = 0
    for fi in range(1, t + 1):
        info = fact.factors[fi - 1]
        if idx >= len(lines):
            raise ParseError(eof, f"missing block for factor {fi} of {t}")
        no, ln = lines[idx]
        if ln != f"factor {fi}:":
            raise ParseError(no, f"expected 'factor {fi}:', got {ln!r}")
        idx += 1
        no, ln = lines[idx] if idx < len(lines) else (eof, "")
        got = _HEADER_RE.fullmatch(ln)
        if not got or got.group(1) != "field":
            raise ParseError(
                no, f"factor {fi} block must start with a field: tag")
        tag, want = got.group(2).strip(), f"F_{info.ext_field.order}"
        if tag != want:
            raise ParseError(
                no, f"factor {fi} field tag is {tag!r}, expected {want!r}")
        idx += 1
        rows = []
        while idx < len(lines) and lines[idx][1].startswith("row:"):
            no, ln = lines[idx]
            rows.append(_read_tuple(ln.partition(":")[2], no, _CONSTITUENT,
                                    ell, q, info.degree))
            idx += 1
        cons.append(tuple(rows))
    if idx < len(lines):
        raise ParseError(
            lines[idx][0],
            f"unexpected content after factor {t}: {lines[idx][1]!r}")
    return CodeSpec(q, m, ell, None, tuple(cons))


def _order_text(q: int) -> str:
    field = make_field(q)
    if field.degree == 1:
        return str(q)
    return f"{field.char}^{field.degree}"


def render(spec: CodeSpec) -> str:
    """Canonical text of a code spec; parse(render(s)) == s."""
    out = [f"q: {_order_text(spec.q)}", f"m: {spec.m}", f"l: {spec.ell}"]
    if spec.generators is not None:
        out.append("generators:")
        for gen in spec.generators:
            out.append("- " + _tuple_text(poly_text(cs) for cs in gen))
    else:
        fact = factor_unity(spec.m, make_field(spec.q))
        out.append("constituents:")
        for fi, (info, rows) in enumerate(
                zip(fact.factors, spec.constituents), 1):
            out.append(f"  factor {fi}:")
            out.append(f"    field: F_{info.ext_field.order}")
            for row in rows:
                out.append("    row: " + _tuple_text(
                    poly_text(info.unpack(e)) for e in row))
    return "\n".join(out) + "\n"


def to_decomposition(spec: CodeSpec) -> ConstituentDecomposition:
    """Build the constituent decomposition a spec file describes.

    A generators body is evaluated at every factor root; a constituents
    body is taken as the row spans directly.
    """
    field = make_field(spec.q)
    fact = factor_unity(spec.m, field)
    if spec.generators is not None:
        gens = tuple(tuple(Poly(field, cs) for cs in gen)
                     for gen in spec.generators)
        return evaluate_constituents(
            QCCode(field, spec.m, spec.ell, gens), fact)
    codes = tuple(
        LinearCode.from_rows(info.ext_field, spec.ell, rows)
        for info, rows in zip(fact.factors, spec.constituents))
    return ConstituentDecomposition(fact, spec.ell, codes)


def from_decomposition(dec: ConstituentDecomposition) -> CodeSpec:
    """Constituents-body spec for a decomposition.

    The base field must be the canonical field of its order, so that a
    later parse rebuilds identical element packing.
    """
    if make_field(dec.field.order) != dec.field:
        raise ValueError(
            "decomposition field is not the canonical field of its order")
    cons = tuple(tuple(tuple(row) for row in code.rows)
                 for code in dec.constituents)
    return CodeSpec(dec.field.order, dec.m, dec.ell, None, cons)


# -- matrix files --------------------------------------------------------------


def parse_matrix(text: str) -> MatrixSpec:
    """Parse a matrix file; raises ParseError on bad input."""
    lines = _content_lines(text)
    eof = _eof_line(text)
    vals, _, pos, _ = _scan_headers(lines, ("q", "n"), ("rows",), eof)
    q, n = vals["q"], vals["n"]
    field = make_field(q)
    rows = []
    for no, ln in lines[pos:]:
        if not ln.startswith("- "):
            raise ParseError(no, f"expected a '- (...)' row line, got {ln!r}")
        rows.append(_read_tuple(ln[2:], no, _MATRIX_ROW, n, field.char,
                                field.degree))
    if not rows:
        raise ParseError(eof, "rows block lists no rows")
    return MatrixSpec(q, n, tuple(rows))


def _elem_text(elem: int, field: Field) -> str:
    return poly_text(unpack_digits(elem, field.char, field.degree))


def render_matrix(mat: MatrixSpec) -> str:
    """Canonical text of a matrix file; parse_matrix inverts it."""
    field = make_field(mat.q)
    out = [f"q: {_order_text(mat.q)}", f"n: {mat.n}", "rows:"]
    for row in mat.rows:
        out.append("- " + _tuple_text(_elem_text(e, field) for e in row))
    return "\n".join(out) + "\n"


def to_code(mat: MatrixSpec) -> LinearCode:
    """Row span of a parsed matrix file."""
    return LinearCode.from_rows(make_field(mat.q), mat.n, mat.rows)


def from_code(code: LinearCode) -> MatrixSpec:
    """Matrix file content for a linear code.

    The field must be the canonical field of its order, so that a later
    parse rebuilds identical element packing.
    """
    if make_field(code.field.order) != code.field:
        raise ValueError("code field is not the canonical field of its order")
    return MatrixSpec(code.field.order, code.n,
                      tuple(tuple(row) for row in code.rows))


# -- database files -------------------------------------------------------------


def parse_database(text: str
                   ) -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Parse a code database file into a {(q, n, k): rows} mapping."""
    lines = _content_lines(text)
    eof = _eof_line(text)
    db: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}
    idx = 0
    while idx < len(lines):
        no, ln = lines[idx]
        got = _RECORD_RE.fullmatch(ln)
        if not got:
            raise ParseError(
                no, f"expected a 'code q n k:' record header, got {ln!r}")
        q, n, k = (int(g) for g in got.groups())
        _parse_order(str(q), no, "q")
        if not 1 <= k <= n:
            raise ParseError(no, f"record has k = {k} outside 1..{n}")
        key = (q, n, k)
        if key in db:
            raise ParseError(no, f"duplicate record for q={q} n={n} k={k}")
        field = make_field(q)
        idx += 1
        rows = []
        while idx < len(lines) and lines[idx][1].startswith("- "):
            no2, ln2 = lines[idx]
            rows.append(_read_tuple(ln2[2:], no2, _DATABASE_ROW, n,
                                    field.char, field.degree))
            idx += 1
        if not rows:
            raise ParseError(no, f"record q={q} n={n} k={k} lists no rows")
        db[key] = tuple(rows)
    return db


def render_database(db: Mapping[tuple[int, int, int],
                                Sequence[Sequence[int]]]) -> str:
    """Canonical text of a code database, records sorted by key."""
    out = []
    for q, n, k in sorted(db):
        field = make_field(q)
        out.append(f"code {q} {n} {k}:")
        for row in db[(q, n, k)]:
            out.append("- " + _tuple_text(_elem_text(e, field) for e in row))
    return "\n".join(out) + "\n"
