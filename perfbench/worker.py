"""One round of a workload in a fresh process.

Started by ``run.py``.  Set-up runs from process start to the first job:
importing numpy and ``qclrc`` and reading the workload's manifest and
input files.  The jobs then run back to back, untimed checks follow, and
the round's figures are printed as one JSON line.  Because the process
is fresh, the program's module-level caches start cold, as they do for
a user of the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (set-up cost a user pays)

from qclrc import bounds, cli, codes, construct, qc, specfile


# -- jobs ---------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = cli.main(argv + ["--format", "structured"])
    return status, out.getvalue()


def run_survey_draw(text: str, array, coord: int, jmax: int) -> list:
    """The five steps of one survey code; each entry is a step's output,
    or the exception that stopped it (later steps then do not run)."""
    out: list = []
    try:
        dec = specfile.to_decomposition(specfile.parse(text))
        out.append((dec.m, dec.ell, dec.dimension(),
                    [(info.poly.coeffs, code.k) for info, code in
                     zip(dec.fact.factors, dec.constituents)]))
        rep = bounds.full_report(dec)
        floor = bounds.prefix_bound(dec).value
        out.append((rep.n, rep.k, rep.r_upper, rep.d_s, rep.d_go, floor))
        code = qc.rebuild_code(dec)
        out.append((code.rows, codes.min_distance(code)))
        out.append(bounds.recover_symbol(dec, array, coord))
        spec = construct.FamilySpec.from_base(dec, j_max=jmax)
        report = construct.scan(spec)
        out.append((spec.r_upper, [(r.j, r.n, r.k, r.d_s, r.d_go)
                                   for r in report.rows]))
    except Exception as err:  # a failed step is a failed operation
        out.append(err)
    return out


def solve(jobs: list, texts: list, extra: dict) -> list:
    results = []
    for job, text in zip(jobs, texts):
        if job["op"] == "survey":
            results.append(run_survey_draw(text, job["array"], job["coord"],
                                           extra["jmax"]))
            continue
        try:
            results.append(run_cli(job["argv"]))
        except Exception as err:  # the command ended in a traceback
            results.append(err)
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "jobs.json").read_text(encoding="utf-8"))
    jobs = manifest["jobs"]
    texts = [Path(j["path"]).read_text(encoding="utf-8") if "path" in j
             else None for j in jobs]
    setup_end = time.perf_counter()
    round_doc = {"setup_s": setup_end - args.t0}
    if args.setup_only:
        print(json.dumps(round_doc))
        return 0

    tracer = None
    if args.trace_file:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    results = solve(jobs, texts, manifest["extra"])
    round_doc["solve_s"] = time.perf_counter() - start
    round_doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        round_doc["layers"] = tracer.summary()
        tracer.write(args.trace_file)

    import checks
    expect = json.loads((inputs / "expect.json").read_text(encoding="utf-8"))
    round_doc.update(checks.check_round(jobs, results, expect))
    print(json.dumps(round_doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
