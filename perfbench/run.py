#!/usr/bin/env python3
"""Build and run the lbp cold end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_run --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the lbp library from
src/ plus the lbp_perfbench program) as a Release build under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Every other argument goes to lbp_perfbench, whose last stdout
line is the JSON result. Build output goes to stderr, so stdout
carries only the benchmark's report. Traced runs (--trace 1) write their
span trace and cycle-stack document under <build dir>/perfbench-out
unless --out-dir is given. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# lbp_perfbench must finish well inside the benchmark's 180 s
# per-run limit; a hung run is killed and reported as a failure.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build lbp_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no lbp sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        subprocess.run(cfg, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "lbp_perfbench"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", str(target / "perfbench-out")]
    try:
        proc = subprocess.run([str(exe)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
