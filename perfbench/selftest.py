#!/usr/bin/env python3
"""Short-pass self-test of the lbp benchmark.

Run from the root of a checkout (builds on first use, ~1 min of runs):

    python3 perfbench/selftest.py

It checks that the benchmark measures and that its checker bites:

1. Every workload, untraced and traced, reports every metric that
   BENCHMARK.json names, each finite and with its declared unit, and
   no point fails.
2. The modelled results are anchored to the checked-in sweep record:
   fig7_sweep's sim_cycles equals cycle_stack.total and its trace-cache
   replay coverage equals trace_cache.replay_coverage in
   BENCH_sim_fastpath.json (read from the file, not hard-coded).
3. The redundant-execution share is 0 on cli_run, 308/352 on
   fig7_sweep and 95/96 on buffer_curve.
4. A corrupted expected checksum for one job, injected on the
   benchmark's side only, fails exactly that job's points: error rate
   1 for the job, and the run reports correct=false.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check_metrics(workload, result, declared):
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload}: correct, {result['failed']} of "
          f"{result['attempted']} points failed")
    got = result["metrics"]
    for m in declared:
        v = got.get(m["name"])
        check(v is not None and isinstance(v["value"], (int, float))
              and math.isfinite(v["value"]) and v["unit"] == m["unit"],
              f"{workload}: {m['name']} present, finite, in {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    check(not extra, f"{workload}: no undeclared metrics {sorted(extra)}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    anchor = json.loads((ROOT / "BENCH_sim_fastpath.json").read_text())
    traced = {}
    for wl in [w["name"] for w in bench["workloads"]]:
        result, _ = run(wl, 0)
        check_metrics(wl, result, bench["end_to_end"])
        check(result["metrics"]["setup_s"]["value"] > 0,
              f"{wl}: setup_s is positive")
        if wl == "fig7_sweep":
            check(result["metrics"]["sim_cycles"]["value"]
                  == anchor["cycle_stack"]["total"],
                  "fig7_sweep: sim_cycles equals BENCH_sim_fastpath.json "
                  "cycle_stack.total")
        result, _ = run(wl, 1)
        check_metrics(wl + " traced", result, bench["per_layer"])
        traced[wl] = result["metrics"]

    cov = traced["fig7_sweep"]["sim.trace.replay_coverage"]["value"]
    want = anchor["trace_cache"]["replay_coverage"]
    check(abs(cov - want) <= 1e-12 * want,
          f"fig7_sweep: replay coverage {cov} equals "
          f"BENCH_sim_fastpath.json trace_cache.replay_coverage {want}")
    total = sum(v["value"] for k, v in traced["fig7_sweep"].items()
                if k.startswith("simcyc."))
    check(total == anchor["cycle_stack"]["total"],
          "fig7_sweep: simcyc.* classes sum to cycle_stack.total")
    for wl, share in [("cli_run", 0.0), ("fig7_sweep", 308 / 352),
                      ("buffer_curve", 95 / 96)]:
        got = traced[wl]["sim.redundant_exec_share"]["value"]
        check(abs(got - share) < 1e-12,
              f"{wl}: sim.redundant_exec_share {got} == {share}")

    # Negative cases: the corrupted job's points, and only those, fail.
    for wl, job, job_points, pass_points in [("cli_run", 3, 1, 11),
                                             ("fig7_sweep", 0, 16, 352)]:
        result, lines = run(wl, 0, "--corrupt-job", str(job))
        passes = result["attempted"] // pass_points
        check(not result["correct"]
              and result["failed"] == passes * job_points
              and result["attempted"] == passes * pass_points,
              f"{wl}: corrupting job {job} fails exactly its points "
              f"({result['failed']} of {result['attempted']})")
        check(any(l.startswith(f"job {job} ") and "error_rate 1 " in l
                  for l in lines),
              f"{wl}: job {job} reports error_rate 1")

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
