"""Tests for the command-line frontend."""

import json
import re
import subprocess
import sys
import time

import pytest

from qclrc import cli
from qclrc.algebra import make_field
from qclrc.bounds import full_report
from qclrc.codes import LinearCode, min_distance
from qclrc.reference import reference_case
from qclrc.specfile import (from_code, from_decomposition, parse_matrix,
                            render, render_database, render_matrix, to_code)

RS_MATRIX = """\
q: 5
n: 7
rows:
- ([1], [0], [0], [1], [1], [1], [1])
- ([0], [1], [0], [1], [2], [3], [4])
- ([0], [0], [1], [1], [4], [4], [1])
"""

GENERATOR_SPEC = """\
q: 2
m: 3
l: 2
generators:
- ([1], [1])
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def doc_of(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    return json.loads(out)


def int_set(text):
    return set(re.findall(r"\d+", text))


@pytest.fixture(scope="module")
def ref_spec_file(tmp_path_factory):
    def write(case_id):
        text = render(from_decomposition(reference_case(case_id)))
        path = tmp_path_factory.mktemp("spec") / f"{case_id}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


@pytest.fixture()
def rs_matrix_file(tmp_path):
    path = tmp_path / "rs.txt"
    path.write_text(RS_MATRIX, encoding="utf-8")
    return str(path)


def eight_four_three_code():
    # Dual of four parity columns plus e-columns: pairwise independent,
    # with e1 + e2 equal to the first extra column, so d is exactly 3.
    field = make_field(4)
    parity = [(1, 0, 0, 0, 1, 0, 0, 1),
              (0, 1, 0, 0, 1, 1, 0, 0),
              (0, 0, 1, 0, 0, 1, 1, 0),
              (0, 0, 0, 1, 0, 0, 1, 1)]
    return LinearCode.from_rows(field, 8, parity).dual()


def nine_five_rows():
    field = make_field(4)
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 1, 0, 1),
            (1, 0, 1, 0)]
    parity = [tuple(col[i] for col in cols) for i in range(4)]
    return LinearCode.from_rows(field, 9, parity).dual().rows


# -- factor -----------------------------------------------------------------------


def test_factor_seven_over_two_text(capsys):
    code, out, _ = run(capsys, "factor", "--m", "7", "--q", "2")
    assert code == 0
    assert out.splitlines() == [
        "x^7 - 1 over F_2: 3 irreducible factors",
        "  1: [1 1 0 1]  coset {1, 2, 4}  degree 3",
        "  2: [1 0 1 1]  coset {3, 5, 6}  degree 3",
        "  3: [1 1]  coset {0}  degree 1",
    ]


def test_factor_eleven_over_five_structured(capsys):
    doc = doc_of(capsys, "factor", "--m", "11", "--q", "5")
    assert [f["degree"] for f in doc["factors"]] == [5, 5, 1]
    assert [f["coset"] for f in doc["factors"]] == [
        [1, 3, 4, 5, 9], [2, 6, 7, 8, 10], [0]]
    assert doc["factors"][-1]["poly"] == [4, 1]


def test_factor_trivial_m_one(capsys):
    code, out, _ = run(capsys, "factor", "--m", "1", "--q", "3")
    assert code == 0
    assert out.splitlines() == [
        "x^1 - 1 over F_3: 1 irreducible factor",
        "  1: [2 1]  coset {0}  degree 1",
    ]


def test_factor_gcd_violation_exits_nonzero(capsys):
    code, out, err = run(capsys, "factor", "--m", "4", "--q", "2")
    assert code == 1
    assert out == ""
    assert "gcd(m, q) must be 1" in err


def test_factor_over_a_large_prime_fails_fast():
    # 2^61 - 1 is prime: trial division stops at its bound and the
    # command ends with a one-line error instead of running on
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qclrc.cli", "factor", "--m", "3", "--q",
         str((1 << 61) - 1)], capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cannot factor 2305843009213693951: trial division stops "
        "at 1048576"]


def test_factor_accepts_power_form_order(capsys):
    assert doc_of(capsys, "factor", "--m", "3", "--q", "2^2") == \
        doc_of(capsys, "factor", "--m", "3", "--q", "4")


def test_factor_rejects_malformed_order():
    with pytest.raises(SystemExit) as err:
        cli.main(["factor", "--m", "3", "--q", "four"])
    assert err.value.code == 2


def test_factor_text_and_structured_agree(capsys):
    doc = doc_of(capsys, "factor", "--m", "7", "--q", "2")
    _, out, _ = run(capsys, "factor", "--m", "7", "--q", "2")
    assert int_set(json.dumps(doc)) == int_set(out)


# -- analyze ----------------------------------------------------------------------


def test_analyze_reference_file(capsys, ref_spec_file):
    code, out, _ = run(capsys, "analyze", ref_spec_file("4.1"))
    assert code == 0
    lines = out.splitlines()
    for want in ("n: 21", "k: 15", "r_upper: 6", "d_GO: 4", "d_S: 5",
                 "status: almost-optimal", "  {1, 2}: 2"):
        assert want in lines


def test_analyze_structured_fields(capsys, ref_spec_file):
    doc = doc_of(capsys, "analyze", ref_spec_file("4.1"))
    assert (doc["n"], doc["k"], doc["r_upper"]) == (21, 15, 6)
    assert (doc["d_go"], doc["d_s"]) == (4, 5)
    assert doc["status"] == "almost-optimal"
    assert {tuple(r["positions"]): r["distance"]
            for r in doc["subcode_distances"]} == {
                (1,): 4, (2,): 4, (1, 2): 2}


def test_analyze_text_and_structured_agree(capsys, ref_spec_file):
    path = ref_spec_file("4.1")
    doc = doc_of(capsys, "analyze", path)
    _, out, _ = run(capsys, "analyze", path)
    assert int_set(json.dumps(doc)) == int_set(out)


def test_analyze_generators_file_matches_library(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text(GENERATOR_SPEC, encoding="utf-8")
    doc = doc_of(capsys, "analyze", str(path))
    from qclrc.specfile import parse, to_decomposition
    rep = full_report(to_decomposition(parse(GENERATOR_SPEC)))
    assert (doc["n"], doc["k"], doc["r_upper"]) == (rep.n, rep.k, rep.r_upper)
    assert (doc["d_go"], doc["d_s"], doc["status"]) == (
        rep.d_go, rep.d_s, rep.status)


def test_analyze_rejects_zero_code(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("q: 2\nm: 3\nl: 1\nconstituents:\n  factor 1:\n"
                    "    field: F_4\n  factor 2:\n    field: F_2\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "zero code" in err


def test_analyze_reports_parse_error_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q: 2\nm: six\nl: 1\ngenerators:\n- ([1])\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 2" in err


def test_analyze_internal_error_is_one_line(capsys, tmp_path):
    # The telescoped bound 3 exceeds d_S = 2 on this code (true distance
    # 2), which full_report refuses as an internal inconsistency.
    path = tmp_path / "telescoped.txt"
    path.write_text("q: 2\nm: 3\nl: 3\nconstituents:\n"
                    "  factor 1:\n    field: F_4\n"
                    "    row: ([1 0], [0 0], [0 1])\n"
                    "    row: ([0 0], [1 0], [1 1])\n"
                    "  factor 2:\n    field: F_2\n"
                    "    row: ([1], [0], [1])\n"
                    "    row: ([0], [1], [0])\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_zero_locality_is_a_one_line_error(capsys, tmp_path, command):
    # m = 1 leaves locality_upper at m - 1 = 0, where the Singleton-type
    # bound is undefined; analyze and scan refuse it alike
    path = tmp_path / "m1.txt"
    path.write_text("q: 2\nm: 1\nl: 3\ngenerators:\n- ([1], [1], [0])\n",
                    encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error: locality must be positive, got 0\n"


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "absent.txt" in err


# -- scan -------------------------------------------------------------------------


def test_scan_constant_gap_family(capsys, ref_spec_file):
    code, out, _ = run(capsys, "scan", ref_spec_file("4.4"), "--jmax", "10")
    assert code == 0
    lines = out.splitlines()
    rows = [ln for ln in lines if re.match(r"\s+\d+\s", ln)]
    assert len(rows) == 11
    assert all(ln.endswith("almost-optimal") for ln in rows)
    assert "chain condition: does not hold" in lines
    assert "j_0: not found" in lines


def test_scan_jmax_zero_single_row_matches_analyze(capsys, ref_spec_file):
    path = ref_spec_file("4.1")
    scan_doc = doc_of(capsys, "scan", path, "--jmax", "0")
    analyze_doc = doc_of(capsys, "analyze", path)
    assert len(scan_doc["rows"]) == 1
    row = scan_doc["rows"][0]
    assert row == {"j": 0, "n": analyze_doc["n"], "k": analyze_doc["k"],
                   "d_s": analyze_doc["d_s"], "d_go": analyze_doc["d_go"],
                   "status": analyze_doc["status"]}


def test_scan_text_and_structured_agree(capsys, ref_spec_file):
    path = ref_spec_file("4.4")
    doc = doc_of(capsys, "scan", path, "--jmax", "3")
    _, out, _ = run(capsys, "scan", path, "--jmax", "3")
    assert int_set(json.dumps(doc)) == int_set(out)


# -- reproduce --------------------------------------------------------------------


def test_reproduce_4_1_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "4.1")
    assert code == 0
    assert "result: PASS" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_reproduce_4_4_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "4.4")
    assert code == 0
    assert "result: PASS" in out
    assert "PASS j_0 = None" in out


def test_reproduce_4_6_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "4.6")
    assert code == 0
    assert "result: PASS" in out
    assert "PASS j_0 = 14" in out
    assert "PASS n at j=14 = 231" in out


def test_reproduce_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["reproduce", "9.9"])
    assert err.value.code == 2


def test_reproduce_mismatch_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(cli._CHECKS, "4.1",
                        lambda budget: [("k", 15, 14), ("d_S", 5, 5)])
    code, out, _ = run(capsys, "reproduce", "4.1")
    assert code == 1
    assert "FAIL k: expected 15, got 14" in out
    assert "result: FAIL (1 mismatch)" in out


def test_reproduce_structured_reports_checks(capsys):
    doc = doc_of(capsys, "reproduce", "4.1")
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])
    assert {"name": "k", "expected": 15, "got": 15, "ok": True} \
        in doc["checks"]


# -- extend -----------------------------------------------------------------------


def test_extend_emits_matrix_file(capsys, rs_matrix_file):
    code, out, _ = run(capsys, "extend", rs_matrix_file, "2")
    assert code == 0
    assert out.splitlines()[0] == "# [9, 5, 4] over F_5"
    ext = to_code(parse_matrix(out))
    assert (ext.n, ext.k) == (9, 5)
    assert min_distance(ext) == 4


def test_extend_zero_index_echoes_code(capsys, rs_matrix_file):
    code, out, _ = run(capsys, "extend", rs_matrix_file, "0")
    assert code == 0
    assert to_code(parse_matrix(out)) == to_code(parse_matrix(RS_MATRIX))


def test_extend_rejects_zero_code(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("q: 2\nn: 3\nrows:\n- ([0], [0], [0])\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "extend", str(path), "1")
    assert code == 1
    assert "zero code" in err


def test_extend_uses_database(capsys, tmp_path):
    base = eight_four_three_code()
    assert min_distance(base) == 3
    mat = tmp_path / "base.txt"
    mat.write_text(render_matrix(from_code(base)), encoding="utf-8")
    db = tmp_path / "db.txt"
    db.write_text(render_database({(4, 9, 5): nine_five_rows()}),
                  encoding="utf-8")
    code, _, err = run(capsys, "extend", str(mat), "1")
    assert code == 1
    assert "existence not established" in err
    code, out, _ = run(capsys, "extend", str(mat), "1", "--db", str(db))
    assert code == 0
    assert out.splitlines()[0] == "# [9, 5, 3] over F_4"
    assert min_distance(to_code(parse_matrix(out))) == 3


def test_extend_rejects_database_entry_failing_verification(capsys, tmp_path):
    base = eight_four_three_code()
    mat = tmp_path / "base.txt"
    mat.write_text(render_matrix(from_code(base)), encoding="utf-8")
    bad = tuple(tuple(1 if i == j else 0 for j in range(9))
                for i in range(5))
    db = tmp_path / "db.txt"
    db.write_text(render_database({(4, 9, 5): bad}), encoding="utf-8")
    code, _, err = run(capsys, "extend", str(mat), "1", "--db", str(db))
    assert code == 1
    assert "fails verification" in err


# -- mindist ----------------------------------------------------------------------


def test_mindist_reports_parameters(capsys, rs_matrix_file):
    code, out, _ = run(capsys, "mindist", rs_matrix_file)
    assert code == 0
    assert out.strip() == "[7, 3, 4] over F_5"
    doc = doc_of(capsys, "mindist", rs_matrix_file)
    assert doc == {"command": "mindist", "q": 5, "n": 7, "k": 3, "d": 4,
                   "method": "enumeration"}


def test_mindist_structured_reports_method(capsys, tmp_path):
    # The [11, 10]_5 zero-sum code: 5^10 codewords against 66 column
    # subsets, so the parity search runs; the text line does not say so.
    path = tmp_path / "zero_sum.txt"
    rows = "".join(
        "- (" + ", ".join(f"[{1 if j == i else 4 if j == 10 else 0}]"
                          for j in range(11)) + ")\n"
        for i in range(10))
    path.write_text(f"q: 5\nn: 11\nrows:\n{rows}", encoding="utf-8")
    code, out, _ = run(capsys, "mindist", str(path))
    assert code == 0
    assert out == "[11, 10, 2] over F_5\n"
    doc = doc_of(capsys, "mindist", str(path))
    assert (doc["d"], doc["method"]) == (2, "parity")


@pytest.mark.parametrize("command", [
    ("mindist", "{matrix}"), ("analyze", "{spec}"), ("scan", "{spec}"),
    ("extend", "{matrix}", "2"), ("reproduce", "4.1")],
    ids=lambda command: command[0])
def test_budget_exhaustion_surfaces_on_every_command(capsys, rs_matrix_file,
                                                     ref_spec_file, command):
    # A command that dropped --budget would answer at the default budget.
    argv = [arg.format(matrix=rs_matrix_file, spec=ref_spec_file("4.1"))
            for arg in command]
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: .*budget.*\n", err)   # one line


def test_main_calls_share_no_state(capsys, monkeypatch, rs_matrix_file,
                                  ref_spec_file):
    # the parser is built once per process, and every call starts from
    # its own namespace: no option or subcommand default carries over
    assert cli._build_parser() is cli._build_parser()
    seen = []
    budget = cli._budget

    def record(args):
        seen.append(dict(vars(args)))
        return budget(args)

    monkeypatch.setattr(cli, "_budget", record)
    assert run(capsys, "mindist", rs_matrix_file, "--budget", "100000")[0] == 0
    assert run(capsys, "scan", ref_spec_file("4.1"), "--jmax", "0")[0] == 0
    assert run(capsys, "mindist", rs_matrix_file)[0] == 0
    first, scan, last = seen
    assert first["budget"] == 100000 and last["budget"] is None
    assert scan["jmax"] == 0 and scan["budget"] is None
    assert "jmax" not in last and "db" not in last
    assert first == {**last, "budget": 100000}


# -- process-level smoke ------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qclrc.cli", "factor", "--m", "7", "--q", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "3 irreducible factors" in proc.stdout
