#!/usr/bin/env python3
"""Diff the virtual-time summary tables of two builds' bench binaries.

Runs every `bench_*` executable found in both build directories with
`--smoke`, drops google-benchmark's `BM_*` rows (they carry host
timings, which differ on every run) and compares what is left: the
summary tables, series and acceptance lines each bench prints. Those
are virtual time, so two builds that do the same work print them byte
for byte the same. Use it to show that a refactor or a host-time
optimisation left every modeled figure where it was.

Benches without a smoke mode ignore the flag and run their full sweep.
Benches in NOT_COMPARED print host-clock figures only and are listed,
not run.

Usage:
  diff_bench_tables.py BASE_BUILD NEW_BUILD

Exits 0 only when every compared bench exited 0 on both sides and
printed the same table. A difference prints a unified diff; a non-zero
exit or a timeout on either side is a failure too.
"""

import concurrent.futures
import difflib
import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 1800

NOT_COMPARED = {
    "bench_detector_scale":
        "host-clock timings only (google-benchmark's own main)",
}


def bench_names(build_dir: str) -> set:
    """Executable bench_* files directly inside `build_dir`."""
    names = set()
    for entry in os.listdir(build_dir):
        path = os.path.join(build_dir, entry)
        if (entry.startswith("bench_") and os.path.isfile(path)
                and os.access(path, os.X_OK)):
            names.add(entry)
    return names


def summary_of(stdout: str) -> list:
    """The bench's stdout without google-benchmark's per-run timing rows."""
    return [line for line in stdout.splitlines(keepends=True)
            if not line.startswith("BM_")]


def run_bench(build_dir: str, name: str):
    """(failure or None, summary lines) of one `--smoke` run, in a
    scratch cwd so files a bench writes land nowhere near either tree."""
    path = os.path.abspath(os.path.join(build_dir, name))
    with tempfile.TemporaryDirectory(prefix="bench_diff_") as cwd:
        try:
            proc = subprocess.run([path, "--smoke"], cwd=cwd,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s", []
    failure = f"exit {proc.returncode}" if proc.returncode != 0 else None
    return failure, summary_of(proc.stdout)


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: diff_bench_tables.py BASE_BUILD NEW_BUILD",
              file=sys.stderr)
        return 2
    base, new = sys.argv[1], sys.argv[2]
    base_names, new_names = bench_names(base), bench_names(new)
    names = sorted((base_names & new_names) - NOT_COMPARED.keys())
    if not names:
        print("no bench_* executable found in both build directories")
        return 1

    results = {}
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        futures = {pool.submit(run_bench, side, name): (side, name)
                   for name in names for side in (base, new)}
        for future in concurrent.futures.as_completed(futures):
            results[futures[future]] = future.result()

    bad = 0
    for name in names:
        base_fail, base_lines = results[(base, name)]
        new_fail, new_lines = results[(new, name)]
        if base_fail or new_fail:
            status = (f"FAILED   base: {base_fail or 'ok'}, "
                      f"new: {new_fail or 'ok'}")
        elif base_lines != new_lines:
            status = "DIFFERS"
        else:
            rows = sum(1 for line in base_lines if line.strip())
            print(f"{name:32s} identical, {rows} summary lines")
            continue
        bad += 1
        print(f"{name:32s} {status}")
        sys.stdout.writelines(difflib.unified_diff(
            base_lines, new_lines, fromfile=f"{base}/{name}",
            tofile=f"{new}/{name}"))
    for name in sorted((base_names | new_names) & NOT_COMPARED.keys()):
        print(f"{name:32s} not compared: {NOT_COMPARED[name]}")
    for name in sorted((base_names ^ new_names) - NOT_COMPARED.keys()):
        print(f"{name:32s} not compared: built on one side only")
    print(f"{len(names) - bad}/{len(names)} bench tables identical")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
