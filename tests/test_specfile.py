"""Tests for the text file formats: parsing, rendering, round trips."""

import pytest

from qclrc import specfile
from qclrc.algebra import factor_unity, make_field
from qclrc.codes import LinearCode
from qclrc.errors import ParseError
from qclrc.qc import ConstituentDecomposition
from qclrc.reference import reference_case
from qclrc.specfile import (CodeSpec, MatrixSpec, from_code,
                            from_decomposition, parse, parse_database,
                            parse_matrix, poly_text, render, render_database,
                            render_matrix, to_code, to_decomposition)

CONSTITUENT_TEXT = """\
q: 2
m: 7
l: 3
constituents:
  factor 1:
    field: F_8
    row: ([1 1 1], [1 1 1], [1 0 1])
    row: ([0], [1 0 1], [1 0 1])
  factor 2:
    field: F_8
    row: ([1], [0], [0])
    row: ([0], [1], [0])
    row: ([0], [0], [1])
  factor 3:
    field: F_2
"""

GENERATOR_TEXT = """\
q: 2
m: 3
l: 2
generators:
- ([1], [1])
"""


def strip_zeros(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


# -- code spec parsing -----------------------------------------------------------


def test_parse_constituents_builds_expected_decomposition():
    dec = to_decomposition(parse(CONSTITUENT_TEXT))
    assert dec.dimension() == 15
    assert tuple(c.k for c in dec.constituents) == (2, 3, 0)
    assert dec.nonzero_indices() == (1, 2)


def test_parse_generators_evaluates_at_every_root():
    dec = to_decomposition(parse(GENERATOR_TEXT))
    assert dec.dimension() == 3
    assert all(c.rows == ((1, 1),) for c in dec.constituents)


def test_parse_accepts_headers_in_any_order():
    text = "l: 2\nq: 2\nm: 3\ngenerators:\n- ([1], [1])\n"
    assert parse(text) == parse(GENERATOR_TEXT)


def test_parse_accepts_power_form_order():
    plain = "q: 4\nm: 3\nl: 1\ngenerators:\n- ([3])\n"
    power = "q: 2^2\nm: 3\nl: 1\ngenerators:\n- ([3])\n"
    assert parse(plain) == parse(power)
    assert parse(plain).q == 4


def test_parse_skips_blanks_and_comments():
    text = ("# shape\n\nq: 2\nm: 3\n# index\nl: 2\n\ngenerators:\n"
            "- ([1], [1])\n\n# end\n")
    assert parse(text) == parse(GENERATOR_TEXT)


def test_parse_strips_trailing_zero_coefficients():
    padded = "q: 2\nm: 3\nl: 2\ngenerators:\n- ([1 0 0], [1 0])\n"
    assert parse(padded) == parse(GENERATOR_TEXT)


def test_render_emits_power_form_order():
    spec = parse("q: 4\nm: 3\nl: 1\ngenerators:\n- ([3])\n")
    assert render(spec).splitlines()[0] == "q: 2^2"


def test_round_trip_handwritten_files():
    for text in (CONSTITUENT_TEXT, GENERATOR_TEXT):
        spec = parse(text)
        assert parse(render(spec)) == spec
        assert render(parse(render(spec))) == render(spec)


def test_code_spec_requires_exactly_one_body():
    with pytest.raises(ValueError, match="exactly one"):
        CodeSpec(2, 3, 1, None, None)
    with pytest.raises(ValueError, match="exactly one"):
        CodeSpec(2, 3, 1, (((1,),),), ((), (), ()))


# -- code spec errors -------------------------------------------------------------


def check_error(text, match, line):
    with pytest.raises(ParseError, match=match) as err:
        parse(text)
    assert err.value.line == line


def test_rejects_unknown_header():
    check_error("shape: 3\n", "expected a header", 1)


def test_rejects_duplicate_header():
    check_error("q: 2\nq: 3\n", "duplicate header", 2)


def test_rejects_non_prime_power_order():
    check_error("q: 6\n", "not a prime power", 1)


def test_rejects_order_too_large_to_factor():
    check_error("q: 2305843009213693951\n", "cannot factor", 1)


def test_rejects_malformed_order():
    check_error("q: five\n", "must be p or p\\^a", 1)


def test_rejects_non_positive_header():
    check_error("q: 2\nm: 0\n", "positive integer", 2)


def test_rejects_order_sharing_a_factor_with_m():
    check_error("q: 2\nm: 4\nl: 1\ngenerators:\n- ([1])\n",
                "shares a factor", 2)


def test_rejects_missing_headers():
    check_error("q: 2\ngenerators:\n- ([1])\n", "missing header m, l", 2)


def test_rejects_missing_body():
    check_error("q: 2\nm: 3\nl: 1\n", "missing body block", 3)


def test_rejects_empty_generators_block():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n", "no generator tuples", 4)


def test_rejects_non_generator_line():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n([1])\n",
                "expected a '- \\(...\\)' generator line", 5)


def test_rejects_wrong_tuple_length():
    check_error("q: 2\nm: 3\nl: 2\ngenerators:\n- ([1])\n",
                "1 entries, index is 2", 5)


def test_rejects_generator_degree_at_m():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n- ([1 0 0 1])\n",
                "degree 3 not below m = 3", 5)


def test_rejects_coefficient_outside_field():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n- ([2])\n",
                "coefficient 2 outside field of order 2", 5)


def test_rejects_malformed_bracket():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n- (1)\n",
                "malformed bracket polynomial", 5)


def test_rejects_empty_tuple():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n- ()\n", "empty tuple", 5)


def test_rejects_unparenthesized_tuple():
    check_error("q: 2\nm: 3\nl: 1\ngenerators:\n- [1]\n",
                "parenthesized tuple", 5)


def test_rejects_wrong_field_tag():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                "    field: F_2\n", "expected 'F_4'", 6)


def test_rejects_out_of_order_factor_blocks():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 2:\n"
                "    field: F_2\n", "expected 'factor 1:'", 5)


def test_rejects_missing_factor_block():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                "    field: F_4\n", "missing block for factor 2 of 2", 6)


def test_rejects_row_before_field_tag():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                "    row: ([1])\n", "must start with a field: tag", 6)


def test_rejects_constituent_entry_degree_at_factor_degree():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                "    field: F_4\n    row: ([1 1 1])\n",
                "degree 2 not below factor degree 2", 7)


def test_rejects_wrong_row_length():
    check_error("q: 2\nm: 3\nl: 2\nconstituents:\n  factor 1:\n"
                "    field: F_4\n    row: ([1])\n",
                "1 entries, index is 2", 7)


def test_rejects_content_after_last_factor():
    check_error("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                "    field: F_4\n  factor 2:\n    field: F_2\nextra:\n",
                "unexpected content after factor 2", 9)


# -- decomposition round trips ----------------------------------------------------


def test_from_decomposition_round_trips_reference_case():
    dec = reference_case("4.1")
    spec = from_decomposition(dec)
    rebuilt = to_decomposition(parse(render(spec)))
    assert rebuilt.constituents == dec.constituents
    assert rebuilt.fact.factors == dec.fact.factors


def test_from_decomposition_rejects_noncanonical_field():
    # The minimal polynomial of a fifth root of unity is not the modulus
    # make_field picks for order 16.
    field = factor_unity(5, 2).factors[0].ext_field
    assert make_field(16) != field
    fact = factor_unity(3, field)
    dec = ConstituentDecomposition(
        fact, 1, tuple(LinearCode.zero(i.ext_field, 1) for i in fact.factors))
    with pytest.raises(ValueError, match="canonical field"):
        from_decomposition(dec)


def test_random_code_specs_round_trip(rng):
    cases = [(2, 3), (2, 7), (3, 5), (4, 3), (5, 4)]
    for _ in range(40):
        q, m = cases[rng.randrange(len(cases))]
        ell = rng.randrange(1, 4)
        fact = factor_unity(m, make_field(q))
        if rng.random() < 0.5:
            gens = tuple(
                tuple(strip_zeros(rng.randrange(q) for _ in range(m))
                      for _ in range(ell))
                for _ in range(rng.randrange(1, 3)))
            spec = CodeSpec(q, m, ell, gens, None)
        else:
            cons = tuple(
                tuple(tuple(rng.randrange(info.ext_field.order)
                            for _ in range(ell))
                      for _ in range(rng.randrange(3)))
                for info in fact.factors)
            spec = CodeSpec(q, m, ell, None, cons)
        assert parse(render(spec)) == spec


# -- matrix files -----------------------------------------------------------------


def test_parse_matrix_packs_prime_subfield_coordinates():
    mat = parse_matrix("q: 2^2\nn: 3\nrows:\n- ([1], [0], [1 1])\n")
    assert mat == MatrixSpec(4, 3, ((1, 0, 3),))
    assert to_code(mat).rows == ((1, 0, 3),)


def test_matrix_round_trips_through_code():
    code = LinearCode.from_rows(make_field(4), 3, [(1, 0, 3), (0, 1, 2)])
    assert to_code(parse_matrix(render_matrix(from_code(code)))) == code


def test_from_code_rejects_noncanonical_field():
    field = factor_unity(5, 2).factors[0].ext_field
    with pytest.raises(ValueError, match="canonical field"):
        from_code(LinearCode.from_rows(field, 1, [(1,)]))


def test_random_matrices_round_trip(rng):
    for _ in range(40):
        q = (2, 3, 4, 5, 8)[rng.randrange(5)]
        n = rng.randrange(1, 5)
        rows = tuple(tuple(rng.randrange(q) for _ in range(n))
                     for _ in range(rng.randrange(1, 4)))
        mat = MatrixSpec(q, n, rows)
        assert parse_matrix(render_matrix(mat)) == mat


def test_matrix_rejects_coordinate_outside_prime_subfield():
    with pytest.raises(ParseError,
                       match="coordinate 2 outside field of order 2") as err:
        parse_matrix("q: 4\nn: 1\nrows:\n- ([2])\n")
    assert err.value.line == 4


def test_matrix_rejects_too_many_coordinates():
    with pytest.raises(ParseError, match="2 coordinates, field degree is 1"):
        parse_matrix("q: 3\nn: 1\nrows:\n- ([1 1])\n")


def test_matrix_rejects_wrong_row_length():
    with pytest.raises(ParseError, match="2 entries, length is 3"):
        parse_matrix("q: 2\nn: 3\nrows:\n- ([1], [0])\n")


def test_matrix_rejects_empty_rows_block():
    with pytest.raises(ParseError, match="no rows") as err:
        parse_matrix("q: 2\nn: 3\nrows:\n")
    assert err.value.line == 3


CONSTITUENTS = ("q: 2\nm: 3\nl: 2\nconstituents:\nfactor 1:\nfield: F_4\n"
                "row: ([1 1], [0 1])\nfactor 2:\nfield: F_2\nrow: {}\n")


@pytest.mark.parametrize("read, good, bad, line, message", [
    # [2] is an element of F_3, not of F_2
    (parse_matrix, "q: 3\nn: 2\nrows:\n- ([2], [1])\n",
     "q: 2\nn: 2\nrows:\n- ([2], [1])\n",
     4, "coordinate 2 outside field of order 2"),
    # a malformed entry among entries the cache holds, on a later line
    (parse_matrix, "q: 2\nn: 2\nrows:\n- ([1], [0])\n- ([0], [1])\n",
     "q: 2\nn: 2\nrows:\n- ([1], [0])\n\n# note\n- ([0], [1 x])\n",
     7, "malformed bracket polynomial '[1 x]'"),
    # the checks keep their order: a malformed entry before the count,
    # the count before an entry outside the field
    (parse_matrix, "q: 2\nn: 2\nrows:\n- ([1], [0])\n",
     "q: 2\nn: 2\nrows:\n- ([2], [0], [x])\n",
     4, "malformed bracket polynomial '[x]'"),
    (parse_matrix, "q: 3\nn: 3\nrows:\n- ([2], [0], [1])\n",
     "q: 2\nn: 2\nrows:\n- ([2], [0], [1])\n",
     4, "row has 3 entries, length is 2"),
    (parse_database, "code 3 2 1:\n- ([2], [1])\n",
     "code 2 2 1:\n- ([1], [0])\n- ([2], [1])\n",
     3, "coordinate 2 outside field of order 2"),
    (parse, "q: 3\nm: 2\nl: 1\ngenerators:\n- ([2 1])\n",
     "q: 2\nm: 3\nl: 1\ngenerators:\n- ([2 1])\n",
     5, "coefficient 2 outside field of order 2"),
    (parse, "q: 2\nm: 5\nl: 1\ngenerators:\n- ([1 1 1 1])\n",
     "q: 2\nm: 3\nl: 1\ngenerators:\n- ([1 1 1 1])\n",
     5, "entry degree 3 not below m = 3"),
    # [1 1] is an element of the F_4 of factor 1, not of factor 2's F_2
    (parse, CONSTITUENTS.format("([1], [1])"),
     CONSTITUENTS.format("([1 1], [1])"),
     10, "entry degree 1 not below factor degree 1"),
    (parse, CONSTITUENTS.format("([1], [1])"), CONSTITUENTS.format("([1])"),
     10, "row has 1 entries, index is 2"),
    # [2] is an element of F_3, not of the F_2 of factor 2
    (parse, "q: 3\nm: 2\nl: 2\nconstituents:\nfactor 1:\nfield: F_3\n"
     "row: ([2], [1])\nfactor 2:\nfield: F_3\nrow: ([1], [2])\n",
     CONSTITUENTS.format("([1], [2])"),
     10, "coefficient 2 outside field of order 2"),
    (parse_database, "code 2 3 1:\n- ([1], [0], [1])\n",
     "code 2 2 1:\n- ([1], [0], [1])\n",
     2, "row has 3 entries, record length is 2"),
])
def test_cached_entries_keep_every_parse_error(read, good, bad, line,
                                               message):
    # entries are read through a cache of their text, which keeps no
    # error: a rejected file raises the same ParseError, line and
    # message, before and after a valid file has filled the cache
    with pytest.raises(ParseError) as cold:
        read(bad)
    assert cold.value.line == line
    assert str(cold.value) == f"line {line}: {message}"
    read(good)
    with pytest.raises(ParseError) as warm:
        read(bad)
    assert (warm.value.line, str(warm.value)) == (line, str(cold.value))


def test_one_token_table_per_reader_and_field():
    # a matrix over F_4 reads its entries through the table of (element,
    # base 2, degree 2): each distinct entry text once, a rejected one
    # kept as None; F_2 has a table of its own, where [1 1] is rejected
    text = "q: 4\nn: 3\nrows:\n- ([1 1], [0], [0 1])\n- ([1 1],[0],[1])\n"
    mat = parse_matrix(text)
    assert mat.rows == ((3, 0, 2), (3, 0, 1))
    f4 = specfile._token_table(specfile._element, 2, 2)
    assert f4 == {"[1 1]": 3, " [0]": 0, " [0 1]": 2, "[0]": 0, "[1]": 1}
    assert parse_matrix(text) == mat and len(f4) == 5
    with pytest.raises(ParseError, match="coordinate 2 outside"):
        parse_matrix("q: 4\nn: 1\nrows:\n- ([2])\n")
    assert f4.get("[2]", 0) is None
    with pytest.raises(ParseError, match="entry has 2 coordinates"):
        parse_matrix("q: 2\nn: 1\nrows:\n- ([1 1])\n")
    f2 = specfile._token_table(specfile._element, 2, 1)
    assert f2 is not f4 and f2 == {"[1 1]": None}


# -- database files -----------------------------------------------------------------


def test_parse_database_reads_records():
    db = parse_database(
        "code 2 3 2:\n- ([1], [0], [1])\n- ([0], [1], [1])\n"
        "code 4 2 1:\n- ([1 1], [1])\n")
    assert db == {(2, 3, 2): ((1, 0, 1), (0, 1, 1)), (4, 2, 1): ((3, 1),)}


def test_database_round_trips(rng):
    for _ in range(20):
        db = {}
        for _ in range(rng.randrange(1, 4)):
            q = (2, 3, 4)[rng.randrange(3)]
            n = rng.randrange(1, 5)
            k = rng.randrange(1, n + 1)
            rows = tuple(tuple(rng.randrange(q) for _ in range(n))
                         for _ in range(k))
            db[(q, n, k)] = rows
        assert parse_database(render_database(db)) == db


def test_database_rejects_bad_record_header():
    with pytest.raises(ParseError, match="record header") as err:
        parse_database("code 2 3:\n- ([1], [0], [1])\n")
    assert err.value.line == 1


def test_database_rejects_duplicate_record():
    with pytest.raises(ParseError, match="duplicate record") as err:
        parse_database("code 2 1 1:\n- ([1])\ncode 2 1 1:\n- ([1])\n")
    assert err.value.line == 3


def test_database_rejects_dimension_above_length():
    with pytest.raises(ParseError, match="outside 1..2"):
        parse_database("code 2 2 3:\n- ([1], [0])\n")


def test_database_rejects_record_without_rows():
    with pytest.raises(ParseError, match="lists no rows"):
        parse_database("code 2 3 2:\n")


def test_database_rejects_non_prime_power_order():
    with pytest.raises(ParseError, match="not a prime power"):
        parse_database("code 6 3 2:\n- ([1], [0], [1])\n")


# -- rendering helpers ---------------------------------------------------------------


def test_poly_text_zero_and_multidigit():
    assert poly_text(()) == "[0]"
    assert poly_text((0, 12, 3)) == "[0 12 3]"
