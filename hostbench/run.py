#!/usr/bin/env python3
"""Builds the host-time chain benchmark from source and runs one workload.

Run from the root of the repository:

    python3 hostbench/run.py --workload vanilla_megaflow --seed 1 \
        --seconds 10 --trace 0
    python3 hostbench/run.py --check            # cost-model invariance

The build goes to $CARGO_TARGET_DIR (default .bench_build) and results to
.bench_out/. The last line of standard output is the JSON result; the
exit code is non-zero, with no result printed, if the build fails or any
correctness gate does.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("vanilla_megaflow", "bypass_highway", "reconfig_churn")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build() -> Path:
    """Configures once, then brings the benchmark binary up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"error: no program sources under {ROOT} to build")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hostbench_chain", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("error: build failed")
    return build_dir / "hostbench_chain"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="show the work is fixed by workload and seed")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.check:
        status = 0
        for workload in [args.workload] if args.workload else WORKLOADS:
            status |= subprocess.run(
                [str(binary), "--check", "--workload", workload,
                 "--seed", str(args.seed)], cwd=ROOT).returncode
        return status
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(ROOT / ".bench_out")], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
