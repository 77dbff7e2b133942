"""Command-line frontend.

Commands: ``factor`` prints the factors of x^m - 1 over F_q, ``analyze``
reports bounds and status for a code spec file, ``scan`` walks
an extension family, ``reproduce`` checks a built-in reference case
against its frozen expected values, ``extend`` lengthens a code from a
matrix file, and ``mindist`` computes an exact minimum distance.

Every command renders the same numbers as text (default) or as a single
JSON document (``--format structured``).  Exit status is 0 on success,
1 on any error or reproduce mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .algebra import factor_unity, make_field
from .bounds import BoundsReport, full_report
from .codes import Budget, distance_strategy, min_distance
from .construct import FamilySpec, extend_constituent, scan
from .errors import (ConstructionError, InternalConsistencyError,
                     ResourceLimitError)
from .reference import REFERENCE_IDS, reference_case
from .specfile import (from_code, parse, parse_database, parse_matrix,
                       poly_text, read_order, render_matrix, to_code,
                       to_decomposition)

Doc = dict

DEFAULT_JMAX = 10


def _order_arg(text: str) -> int:
    """Field order argument, as a plain integer or p^a."""
    q = read_order(text)
    if q is None:
        raise argparse.ArgumentTypeError(
            f"field order must be p or p^a, got {text!r}")
    return q


def _budget(args: argparse.Namespace) -> Budget:
    if args.budget is None:
        return Budget()
    return Budget(args.budget, args.budget)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_database(args: argparse.Namespace) -> dict | None:
    if getattr(args, "db", None) is None:
        return None
    return parse_database(_read(args.db))


def _set_text(positions: Sequence[int]) -> str:
    return "{" + ", ".join(str(p) for p in positions) + "}"


# -- factor ---------------------------------------------------------------------


def _run_factor(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    fact = factor_unity(args.m, make_field(args.q))
    doc = {
        "command": "factor",
        "m": args.m,
        "q": args.q,
        "factors": [
            {"index": i, "poly": list(info.poly.coeffs),
             "coset": list(info.coset.members), "degree": info.degree}
            for i, info in enumerate(fact.factors, 1)],
    }
    count = len(doc["factors"])
    plural = "s" if count != 1 else ""
    lines = [f"x^{args.m} - 1 over F_{args.q}: "
             f"{count} irreducible factor{plural}"]
    for f in doc["factors"]:
        lines.append(f"  {f['index']}: {poly_text(f['poly'])}  "
                     f"coset {_set_text(f['coset'])}  degree {f['degree']}")
    return doc, lines


# -- analyze --------------------------------------------------------------------


def _report_doc(rep: BoundsReport) -> Doc:
    return {
        "n": rep.n,
        "k": rep.k,
        "r_upper": rep.r_upper,
        "constituent_distances": [
            {"position": p, "factor": f, "distance": d}
            for p, (f, d) in enumerate(
                zip(rep.order, rep.constituent_distances), 1)],
        "subcode_distances": [
            {"positions": list(s), "distance": d}
            for s, d in rep.subcode_distances],
        "certificate": rep.certificate,
        "terms": [{"positions": list(s), "value": v} for s, v in rep.terms],
        "d_go": rep.d_go,
        "d_s": rep.d_s,
        "status": rep.status,
    }


def _report_lines(doc: Doc) -> list[str]:
    lines = [f"n: {doc['n']}", f"k: {doc['k']}", f"r_upper: {doc['r_upper']}",
             "constituent distances by position:"]
    for row in doc["constituent_distances"]:
        lines.append(f"  {row['position']} (factor {row['factor']}): "
                     f"{row['distance']}")
    lines.append("subcode distances:")
    for row in doc["subcode_distances"]:
        lines.append(f"  {_set_text(row['positions'])}: {row['distance']}")
    lines.append(f"bound terms ({doc['certificate']}):")
    for row in doc["terms"]:
        lines.append(f"  {_set_text(row['positions'])}: {row['value']}")
    lines += [f"d_GO: {doc['d_go']}", f"d_S: {doc['d_s']}",
              f"status: {doc['status']}"]
    return lines


def _run_analyze(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    dec = to_decomposition(parse(_read(args.specfile)))
    rep = full_report(dec, budget=_budget(args))
    doc = {"command": "analyze", **_report_doc(rep)}
    return doc, _report_lines(doc)


# -- scan -----------------------------------------------------------------------


def _scan_doc(report) -> Doc:
    return {
        "rows": [
            {"j": r.j, "n": r.n, "k": r.k, "d_s": r.d_s, "d_go": r.d_go,
             "status": r.status} for r in report.rows],
        "chain_condition": report.chain,
        "j0": report.j0,
        "warnings": list(report.warnings),
    }


def _scan_lines(doc: Doc) -> list[str]:
    lines = [f"{'j':>4} {'n':>6} {'k':>6} {'d_S':>5} {'d_GO':>5}  status"]
    for r in doc["rows"]:
        lines.append(f"{r['j']:>4} {r['n']:>6} {r['k']:>6} {r['d_s']:>5} "
                     f"{r['d_go']:>5}  {r['status']}")
    holds = "holds" if doc["chain_condition"] else "does not hold"
    lines.append(f"chain condition: {holds}")
    j0 = doc["j0"]
    lines.append(f"j_0: {'not found' if j0 is None else j0}")
    for w in doc["warnings"]:
        lines.append(f"warning: {w}")
    return lines


def _run_scan(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    dec = to_decomposition(parse(_read(args.specfile)))
    budget = _budget(args)
    spec = FamilySpec.from_base(dec, j_max=args.jmax,
                                database=_load_database(args), budget=budget)
    doc = {"command": "scan", "jmax": args.jmax,
           **_scan_doc(scan(spec, budget=budget))}
    return doc, _scan_lines(doc)


# -- reproduce ------------------------------------------------------------------


def _checks_4_1(budget: Budget) -> list[tuple[str, object, object]]:
    rep = full_report(reference_case("4.1"), budget=budget)
    ddist = {tuple(s): d for s, d in rep.subcode_distances}
    return [
        ("k", 15, rep.k),
        ("r_upper", 6, rep.r_upper),
        ("d(D_{1})", 4, ddist.get((1,))),
        ("d(D_{2})", 4, ddist.get((2,))),
        ("d(D_{1, 2})", 2, ddist.get((1, 2))),
        ("d_GO", 4, rep.d_go),
        ("d_S", 5, rep.d_s),
        ("status", "almost-optimal", rep.status),
    ]


def _checks_4_4(budget: Budget) -> list[tuple[str, object, object]]:
    spec = FamilySpec.from_base(reference_case("4.4"), j_max=10,
                                budget=budget)
    report = scan(spec, budget=budget)
    checks: list[tuple[str, object, object]] = [
        ("d_GO", 4, spec.d_go),
        ("chain condition", False, report.chain),
        ("row count", 11, len(report.rows)),
    ]
    for row in report.rows:
        checks.append((f"d_S at j={row.j}", 5, row.d_s))
        checks.append((f"status at j={row.j}", "almost-optimal", row.status))
    checks.append(("j_0", None, report.j0))
    return checks


def _checks_4_6(budget: Budget) -> list[tuple[str, object, object]]:
    dec = reference_case("4.6")
    rep = full_report(dec, budget=budget)
    ddist = {tuple(s): d for s, d in rep.subcode_distances}
    terms = {tuple(s): v for s, v in rep.terms}
    checks: list[tuple[str, object, object]] = [
        ("n", 77, rep.n),
        ("k", 48, rep.k),
        ("r_upper", 10, rep.r_upper),
    ]
    table = [((1,), 11), ((2,), 6), ((3,), 6), ((1, 2), 5), ((1, 3), 5),
             ((2, 3), 2), ((1, 2, 3), 1)]
    for positions, want in table:
        checks.append((f"d(D_{_set_text(positions)})", want,
                       ddist.get(positions)))
    for positions, want in [((3,), 12), ((2, 3), 10), ((1, 2, 3), 18)]:
        checks.append((f"R_{_set_text(positions)}", want,
                       terms.get(positions)))
    checks.append(("d_GO", 10, rep.d_go))
    spec = FamilySpec.from_base(dec, j_max=22, budget=budget)
    report = scan(spec, budget=budget)
    checks.append(("j_0", 14, report.j0))
    at_j0 = {row.j: row for row in report.rows}.get(14)
    checks.append(("n at j=14", 231, at_j0.n if at_j0 else None))
    checks.append(("k at j=14", 202, at_j0.k if at_j0 else None))
    checks.append(("d_S at j=14", 10, at_j0.d_s if at_j0 else None))
    checks.append(("d_GO at j=14", 10, at_j0.d_go if at_j0 else None))
    checks.append(("status at j=14", "optimal",
                   at_j0.status if at_j0 else None))
    return checks


_CHECKS = {"4.1": _checks_4_1, "4.4": _checks_4_4, "4.6": _checks_4_6}


def _run_reproduce(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    checks = _CHECKS[args.case_id](_budget(args))
    rows = [{"name": name, "expected": want, "got": got, "ok": want == got}
            for name, want, got in checks]
    ok = all(r["ok"] for r in rows)
    doc = {"command": "reproduce", "id": args.case_id, "checks": rows,
           "ok": ok}
    lines = [f"reference case {args.case_id}: {len(rows)} checks"]
    for r in rows:
        if r["ok"]:
            lines.append(f"  PASS {r['name']} = {r['got']}")
        else:
            lines.append(f"  FAIL {r['name']}: expected {r['expected']}, "
                         f"got {r['got']}")
    failed = sum(not r["ok"] for r in rows)
    plural = "es" if failed != 1 else ""
    lines.append("result: PASS" if ok else
                 f"result: FAIL ({failed} mismatch{plural})")
    return doc, lines


# -- extend ---------------------------------------------------------------------


def _run_extend(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    code = to_code(parse_matrix(_read(args.matrixfile)))
    if code.is_zero():
        raise ValueError("the matrix file spans the zero code")
    budget = _budget(args)
    ext = extend_constituent(code, args.j, database=_load_database(args),
                             budget=budget)
    d = min_distance(code, budget=budget)
    doc = {"command": "extend", "j": args.j, "q": ext.field.order,
           "n": ext.n, "k": ext.k, "d": d,
           "rows": [list(row) for row in ext.rows]}
    lines = [f"# [{doc['n']}, {doc['k']}, {doc['d']}] over F_{doc['q']}"]
    lines += render_matrix(from_code(ext)).splitlines()
    return doc, lines


# -- mindist --------------------------------------------------------------------


def _run_mindist(args: argparse.Namespace) -> tuple[Doc, list[str]]:
    code = to_code(parse_matrix(_read(args.matrixfile)))
    budget = _budget(args)
    d = min_distance(code, budget=budget)
    doc = {"command": "mindist", "q": code.field.order, "n": code.n,
           "k": code.k, "d": d,
           "method": distance_strategy(code, budget=budget)}
    return doc, [f"[{doc['n']}, {doc['k']}, {doc['d']}] over F_{doc['q']}"]


# -- parser ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` starts
    every call from a fresh namespace, so calls share no state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="text",
                        help="text lines or one JSON document")
    common.add_argument("--budget", type=int, default=None,
                        help="cap the enumeration and rank-probe budgets")
    parser = argparse.ArgumentParser(
        prog="qclrc",
        description="Quasi-cyclic locally recoverable codes toolbox.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", parents=[common],
                       help="factor x^m - 1 over F_q")
    p.add_argument("--m", type=int, required=True, help="shift order")
    p.add_argument("--q", type=_order_arg, required=True,
                   help="field order, p or p^a")
    p.set_defaults(run=_run_factor)

    p = sub.add_parser("analyze", parents=[common],
                       help="bounds report for a code spec file")
    p.add_argument("specfile", help="code spec file")
    p.set_defaults(run=_run_analyze)

    p = sub.add_parser("scan", parents=[common],
                       help="walk the extension family of a spec file")
    p.add_argument("specfile", help="code spec file")
    p.add_argument("--jmax", type=int, default=DEFAULT_JMAX,
                   help="largest extension index to consider")
    p.add_argument("--db", default=None,
                   help="code database file for construction lookups")
    p.set_defaults(run=_run_scan)

    p = sub.add_parser("reproduce", parents=[common],
                       help="check a built-in reference case")
    p.add_argument("case_id", choices=REFERENCE_IDS, metavar="id",
                   help=f"one of {', '.join(REFERENCE_IDS)}")
    p.set_defaults(run=_run_reproduce)

    p = sub.add_parser("extend", parents=[common],
                       help="extend a code from a matrix file by j")
    p.add_argument("matrixfile", help="matrix file")
    p.add_argument("j", type=int, help="extension index")
    p.add_argument("--db", default=None,
                   help="code database file for construction lookups")
    p.set_defaults(run=_run_extend)

    p = sub.add_parser("mindist", parents=[common],
                       help="exact minimum distance from a matrix file")
    p.add_argument("matrixfile", help="matrix file")
    p.set_defaults(run=_run_mindist)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, lines = args.run(args)
    except (ValueError, ConstructionError, ResourceLimitError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalConsistencyError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    if args.format == "structured":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0 if doc.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
