"""Benchmark of qclrc: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {reference,survey,distance}
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, then runs rounds of the
workload, each in a fresh single-threaded worker process, until the next
round would end past ``--seconds``; a few more workers only set up.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(medians over the run's workers) with ``--trace 0``, the per-layer
metrics of traced rounds with ``--trace 1``.  Details, traces and the
result are kept under ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WORKLOADS = ("reference", "survey", "distance")
SETUP_ONLY_WORKERS = 8
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    import tracer
    units = {}
    for layer in tracer.TARGETS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({c: "count" for c in tracer.COUNTS})
    units["codes.min_distance.space_per_s"] = "1/s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def make_inputs(workload: str, seed: int) -> Path:
    """Write the inputs, the job manifest and the expected values."""
    import gen
    out = OUT / "inputs" / f"{workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs, extra = gen.MAKERS[workload](out, rng)
    expect = [job.pop("expect") for job in jobs]
    (out / "jobs.json").write_text(json.dumps(
        {"workload": workload, "jobs": jobs, "extra": extra}),
        encoding="utf-8")
    (out / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    return out


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    path = [str(SRC), str(HERE)]
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(inputs: Path, deadline: float, *, setup_only: bool = False,
               trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "qclrc" / "__init__.py").is_file():
        print(f"qclrc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    inputs = make_inputs(args.workload, args.seed)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    setups = [run_worker(inputs, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY_WORKERS // 2)]
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 0
        trace_file = OUT / f"trace-{stem}-{len(rounds)}.npz" if traced \
            else None
        started = time.perf_counter()
        doc = run_worker(inputs, deadline, trace_file=trace_file)
        doc["traced"] = traced
        rounds.append(doc)
        took = time.perf_counter() - started
        need_untraced = args.trace == 1 and len(rounds) < 2
        if not need_untraced and \
                time.perf_counter() + took - begin > args.seconds:
            break
    setups += [run_worker(inputs, deadline, setup_only=True)["setup_s"]
               for _ in range(SETUP_ONLY_WORKERS - len(setups))]
    setups += [r["setup_s"] for r in rounds]

    plain = [r for r in rounds if not r["traced"]]
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        units = per_layer_units()
        values = {name: statistics.median(r["layers"].get(name, 0.0)
                                          for r in traced_rounds)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced_rounds)
            - statistics.median(r["solve_s"] for r in plain))

    result = {
        "correct": all(r["unexpected"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"args": vars(args), "rounds": rounds, "setups": setups,
               "result": result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1),
                                             encoding="utf-8")
    for why in sorted({f for r in rounds for f in r["failures"]}):
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
