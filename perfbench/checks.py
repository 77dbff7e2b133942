"""Output checks of every workload.

Each check compares one operation's output with values the benchmark
computed apart from the program (``gen``), with the paper's published
figures, or with properties the method must have, and returns None when
the output is right or a one-line reason when it is not.  An operation
whose check fails counts as failed.  Operations of kind ``fault`` run
fixed inputs that hit known faults of the program; their failures are
expected, any other failure makes the run incorrect.
"""

from __future__ import annotations

import json
from math import ceil

SURVEY_STEPS = ("decompose", "bounds", "distance", "recovery", "scan")


def _doc(result) -> tuple[dict | None, str | None]:
    """The structured output of a command, or the reason there is none."""
    if isinstance(result, Exception):
        return None, f"raised {type(result).__name__}: {result}"
    status, text = result
    if status != 0:
        return None, f"exit status {status}: {text.strip()[:200]}"
    return json.loads(text), None


def check_reproduce(result, paper: dict) -> str | None:
    doc, why = _doc(result)
    if doc is None:
        return why
    got = {row["name"]: row["got"] for row in doc["checks"]}
    if not doc["ok"] or got != paper:
        wrong = sorted(k for k in paper.keys() | got.keys()
                       if got.get(k, "?") != paper.get(k, "?"))
        return f"differs from the paper's figures at {wrong}"
    return None


def check_analyze(result, want: dict) -> str | None:
    doc, why = _doc(result)
    if doc is None:
        return why
    for key in ("n", "k", "r_upper", "d_go", "d_s", "status"):
        if doc[key] != want[key]:
            return f"{key} = {doc[key]}, expected {want[key]}"
    sub = {",".join(map(str, row["positions"])): row["distance"]
           for row in doc["subcode_distances"]}
    if sub != want["subcode_distances"]:
        return f"subcode distances {sub}"
    return None


def family_row_error(j: int, n: int, k: int, d_s: int, m: int, ell: int,
                     dims, degrees, r: int) -> str | None:
    """n = m(l + j), k = sum (k_i + j) deg_i over the nonzero
    constituents, d_S = n - k - ceil(k / r) + 2."""
    want_k = sum((ki + j) * b for ki, b in zip(dims, degrees) if ki)
    if n != m * (ell + j) or k != want_k:
        return f"j={j}: [{n}, {k}], expected [{m * (ell + j)}, {want_k}]"
    if d_s != n - k - ceil(k / r) + 2:
        return f"j={j}: d_S = {d_s}, expected {n - k - ceil(k / r) + 2}"
    return None


def check_family_scan(result, want: dict) -> str | None:
    doc, why = _doc(result)
    if doc is None:
        return why
    rows = doc["rows"]
    last = len(rows) - 1
    if [r["j"] for r in rows] != list(range(last + 1)) or \
            last > want["jmax"]:
        return f"rows for j = {[r['j'] for r in rows]}"
    if last < want["jmax"] and not any(f"j={last + 1}:" in w
                                       for w in doc["warnings"]):
        return f"rows end at j={last} without a truncation warning"
    for r in rows:
        err = family_row_error(r["j"], r["n"], r["k"], r["d_s"], want["m"],
                               want["ell"], want["dims"], want["degrees"],
                               want["r"])
        if err:
            return err
    if doc["j0"] != want["j0"]:
        return f"j_0 = {doc['j0']}, expected {want['j0']}"
    return None


def check_mindist(result, want: dict) -> str | None:
    doc, why = _doc(result)
    if doc is None:
        return why
    got = {key: doc[key] for key in ("q", "n", "k", "d")}
    if got != want:
        return f"[{got['n']}, {got['k']}, {got['d']}]_{got['q']}, expected " \
               f"[{want['n']}, {want['k']}, {want['d']}]_{want['q']}"
    return None


def check_fault(result, want: dict) -> str | None:
    doc, why = _doc(result)
    if doc is None:
        return why
    if doc["d_s"] < want["d"]:
        return f"d_S = {doc['d_s']} below the true distance {want['d']}"
    return None


def check_survey(steps: list, want: dict) -> list[str | None]:
    """One verdict per survey step; a step after an exception fails."""
    verdicts: list[str | None] = []
    done = [s for s in steps if not isinstance(s, Exception)]
    d = want["d"]
    r_upper = d_s = d_go = None
    if len(done) > 0:
        m, ell, dim, parts = done[0]
        got = {tuple(poly): k for poly, k in parts}
        drawn = {tuple(f): k for f, k in zip(want["factors"], want["dims"])}
        verdicts.append(
            None if (m, ell, dim) == (want["m"], want["ell"], want["k"])
            and got == drawn else
            f"decomposed to dimension {dim}, constituents {got}; drawn "
            f"{want['k']}, {drawn}")
    if len(done) > 1:
        n, k, r_upper, d_s, d_go, floor = done[1]
        verdicts.append(
            None if (n, k) == (want["n"], want["k"]) and floor <= d <= d_s
            else f"[{n}, {k}]: prefix floor {floor}, true distance {d}, "
                 f"d_S {d_s}")
    if len(done) > 2:
        rows, dist = done[2]
        same = [list(r) for r in rows] == want["rref"]
        verdicts.append(
            None if same and dist == d else
            f"rebuilt code {'equal' if same else 'differs'}, distance "
            f"{dist}, true {d}")
    if len(done) > 3:
        value, support = done[3]
        verdicts.append(
            None if value == want["symbol"] and len(support) <= r_upper
            and want["coord"] not in support else
            f"recovered {value} from {len(support)} positions, erased "
            f"{want['symbol']}, r_upper {r_upper}")
    if len(done) > 4:
        r, rows = done[4]
        err = None if rows and rows[0][3] == d_s else "j=0 row differs"
        if [row[0] for row in rows] != list(range(len(rows))):
            err = f"rows for j = {[row[0] for row in rows]}"
        degrees = [len(f) - 1 for f in want["factors"]]
        for j, n, k, row_ds, row_dgo in rows:
            err = err or family_row_error(j, n, k, row_ds, want["m"],
                                          want["ell"], want["dims"], degrees,
                                          r)
            if row_dgo != d_go:
                err = err or f"j={j}: d_GO {row_dgo}, base {d_go}"
        verdicts.append(err)
    if len(done) < len(SURVEY_STEPS):
        err = steps[-1]
        why = f"raised {type(err).__name__}: {err}"
        verdicts += [why] * (len(SURVEY_STEPS) - len(done))
    return verdicts


_CLI_CHECKS = {"reproduce": check_reproduce, "analyze": check_analyze,
               "scan": check_family_scan, "mindist": check_mindist,
               "fault": check_fault}


def check_round(jobs: list, results: list, expect: list) -> dict:
    """Attempted and failed operations of one round, and the reasons."""
    attempted = 0
    failures = []
    unexpected = 0
    for job, result, want in zip(jobs, results, expect):
        if job["op"] == "survey":
            verdicts = check_survey(result, want)
            names = [f"{job['path'].rsplit('/', 1)[-1]}:{s}"
                     for s in SURVEY_STEPS]
        else:
            verdicts = [_CLI_CHECKS[job["op"]](result, want)]
            names = [" ".join(job["argv"][:1] + [job.get("name") or
                                                 job["argv"][-1]])]
        attempted += len(verdicts)
        for name, why in zip(names, verdicts):
            if why is not None:
                failures.append(f"{name}: {why}")
                unexpected += job["op"] != "fault"
    return {"attempted": attempted, "failed": len(failures),
            "unexpected": unexpected, "failures": failures[:20]}
