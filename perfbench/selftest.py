"""Self-test: every workload's checks accept right outputs and reject
wrong ones.

    python3 perfbench/selftest.py

Runs a few real operations of each workload on small seeded inputs,
requires their checks to pass, then alters one output at a time (a
distance off by one, a survey distance raised above d_S, a wrong
recovered symbol, a family row off the formulas, a figure off the
paper's) and requires the check to reject it.  Exits 1 on the first
check that does not behave.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402


def expect(label: str, verdict, accept: bool) -> None:
    ok = (verdict is None) == accept if not isinstance(verdict, list) else \
        all(v is None for v in verdict) == accept
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        sys.exit(1)


def structured(doc: dict) -> tuple[int, str]:
    return 0, json.dumps(doc)


def test_distance(tmp: Path) -> None:
    jobs, _ = gen.make_distance(tmp, random.Random(1))
    job = next(j for j in jobs if j["name"] == "golay-24")
    result = worker.run_cli(job["argv"])
    want = job["expect"]
    expect("golay-24 as computed", checks.check_mindist(result, want), True)
    doc = json.loads(result[1])
    doc["d"] += 1
    expect("catalogue distance off by one",
           checks.check_mindist(structured(doc), want), False)
    doc["d"] -= 1
    doc["k"] -= 1
    expect("catalogue dimension off by one",
           checks.check_mindist(structured(doc), want), False)


def test_reference() -> None:
    jobs, _ = gen.make_reference(Path(), random.Random(1))
    repro = jobs[0]
    result = worker.run_cli(repro["argv"])
    expect("reproduce 4.1 as computed",
           checks.check_reproduce(result, repro["expect"]), True)
    doc = json.loads(result[1])
    doc["checks"][0]["got"] += 1
    expect("reproduce figure off the paper's",
           checks.check_reproduce(structured(doc), repro["expect"]), False)
    analyze = jobs[3]
    result = worker.run_cli(analyze["argv"])
    expect("analyze 4.1 as computed",
           checks.check_analyze(result, analyze["expect"]), True)
    doc = json.loads(result[1])
    doc["subcode_distances"][0]["distance"] += 1
    expect("analyze subcode distance off by one",
           checks.check_analyze(structured(doc), analyze["expect"]), False)
    # a short scan of 4.6 stands in for the j <= 22 one
    family = dict(jobs[4]["expect"], jmax=2, j0=None)
    result = worker.run_cli(jobs[4]["argv"][:2] + ["--jmax", "2"])
    expect("scan 4.6 to j=2 as computed",
           checks.check_family_scan(result, family), True)
    doc = json.loads(result[1])
    doc["rows"][1]["k"] += 1
    expect("scan row dimension off the formula",
           checks.check_family_scan(structured(doc), family), False)
    doc = json.loads(result[1])
    doc["rows"].pop()
    expect("scan rows cut short without a warning",
           checks.check_family_scan(structured(doc), family), False)


def test_survey(tmp: Path) -> None:
    rng = random.Random(1)
    shapes = gen.survey_shapes()
    draws = [gen._draw_survey_code(rng, gen.field(q), q, m, ell, dims)
             for q, m, ell, dims in (shapes[0], shapes[len(shapes) // 2],
                                     shapes[-1])]
    for i, draw in enumerate(draws):
        steps = worker.run_survey_draw(draw["spec"], draw["array"],
                                       draw["coord"], gen.SURVEY_JMAX)
        expect(f"survey draw {i} as computed",
               checks.check_survey(steps, draw), True)
        n, k, r, d_s, d_go, floor = steps[1]
        wrong = copy.deepcopy(steps)
        wrong[2] = (steps[2][0], d_s + 1)
        expect(f"survey draw {i} distance raised above d_S",
               checks.check_survey(wrong, draw)[2], False)
        expect(f"survey draw {i} true distance above d_S",
               checks.check_survey(steps, dict(draw, d=d_s + 1))[1], False)
        wrong = copy.deepcopy(steps)
        wrong[1] = (n, k, r, d_s, d_go, draw["d"] + 1)
        expect(f"survey draw {i} prefix floor above the true distance",
               checks.check_survey(wrong, draw)[1], False)
        wrong = copy.deepcopy(steps)
        wrong[3] = ((steps[3][0] + 1) % draw["q"], steps[3][1])
        expect(f"survey draw {i} wrong recovered symbol",
               checks.check_survey(wrong, draw)[3], False)
        wrong = copy.deepcopy(steps)
        r_scan, rows = wrong[4]
        rows[-1] = (rows[-1][0], rows[-1][1], rows[-1][2] + 1,
                    *rows[-1][3:])
        expect(f"survey draw {i} scan row off the formula",
               checks.check_survey(wrong, draw)[4], False)
        wrong = copy.deepcopy(steps)
        wrong[0] = (*steps[0][:3], [(p, k + 1) for p, k in steps[0][3]])
        expect(f"survey draw {i} constituent dimensions off",
               checks.check_survey(wrong, draw)[0], False)
    for name, (text, true_d) in gen.FAULT_SPECS.items():
        path = tmp / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        try:
            result = worker.run_cli(["analyze", str(path)])
        except Exception as err:  # the fault ends in a traceback
            result = err
        expect(f"fault {name} is caught",
               checks.check_fault(result, {"d": true_d}), False)


def main() -> int:
    (HERE / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_out") as tmp:
        test_distance(Path(tmp))
        test_reference()
        test_survey(Path(tmp))
    print("all checks reject the wrong answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
