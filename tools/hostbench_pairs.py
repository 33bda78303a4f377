#!/usr/bin/env python3
"""Run interleaved parent/change pairs of the host-time benchmark.

Run from the root of the repository:

    python3 tools/hostbench_pairs.py --parent HEAD~1 --pairs 10 \\
        --seed0 8001 --workload vanilla_megaflow

The parent side is REV, exported with `git archive` into a temporary
directory; the change side is this checkout's working tree. Each side is
built in Release through its own hostbench/run.py, into its own build
directory under the temporary directory. Pair i runs seed SEED0 + i on
both sides, with the parent first in even pairs and the change first in
odd ones. The workloads (all by default), the end-to-end metrics, their
bounds and the default run length come from BENCHMARK.json.

Every run is printed when it ends, with the --show metrics (default: the
end-to-end ones) and the first one's ratio to the other side of its
pair. A run that reads far off its partner is flagged, since a window
in which the benchmark shared its core reads 1.3-1.6x high.

The output ends with a verdict per metric per workload and, as the last
line of standard output, a JSON object: "entry" is one entry in
BENCH_hostbench.json's schema (its "change" and "note" fields left for
the author), "verdicts" the verdicts. A verdict is one of:

  gain met       the change is better in at least 9 of every 10 pairs and
                 its median beats the parent's by more than the parent's
                 interquartile range;
  within bound   the change's median is worse than the parent's by no
                 more than the metric's bound;
  outside bound  it is worse by more than that;
  unresolved     either side's interquartile range passes the bound
                 (relative to its median), so the runs cannot tell.

With --trace 1 the traced per-layer metrics of BENCHMARK.json are
summarized too; they get no verdict, since they have no bound. Traced
runs report no end-to-end metrics, so pick what they print with --show.

Exits non-zero if a side fails to build or any run fails.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# A run this far off its pair partner is flagged as a likely shared-core
# window.
FLAG_RATIO = 1.25


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def export(rev: str, dest: Path) -> str:
    """Extracts REV's tree into `dest`; returns REV's full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"error: git archive {rev} failed")
    return commit


def build(side: str, side_root: Path, build_dir: Path) -> None:
    """Builds one side through its own hostbench/run.py."""
    spec = importlib.util.spec_from_file_location(
        f"hostbench_run_{side}", side_root / "hostbench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    saved = os.environ.get("CARGO_TARGET_DIR")
    os.environ["CARGO_TARGET_DIR"] = str(build_dir)
    try:
        run_py.build()
    except SystemExit as e:
        sys.exit(f"error: building {side_root} failed: {e}")
    finally:
        if saved is None:
            del os.environ["CARGO_TARGET_DIR"]
        else:
            os.environ["CARGO_TARGET_DIR"] = saved


def run_once(side_root: Path, build_dir: Path, workload: str, seed: int,
             seconds: float, trace: int):
    """One benchmark run; returns (result JSON or None, host block, s)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=side_root, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        print(f"    run failed (exit {proc.returncode}): {' | '.join(tail)}",
              flush=True)
        return None, None, elapsed
    result = json.loads(lines[-1])
    host = None
    out = side_root / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    if out.is_file():
        with open(out, encoding="utf-8") as f:
            host = json.load(f).get("host")
    return result, host, elapsed


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6),
            "q3": round(q3, 6)}


def verdict(parent, change, better, better_pairs, complete, bound):
    """The verdict for one metric (see the module doc)."""
    p = parent["median"]
    if complete == 0 or p == 0:
        return "unresolved"
    gap = p - change["median"] if better == "lower" else change["median"] - p
    if 10 * better_pairs >= 9 * complete and gap > parent["q3"] - parent["q1"]:
        return "gain met"
    for side in (parent, change):
        if (side["median"] == 0 or
                (side["q3"] - side["q1"]) / abs(side["median"]) > bound):
            return "unresolved"
    return "within bound" if -gap / abs(p) <= bound else "outside bound"


def summarize(workload, runs, seeds, first, metrics, units):
    """Per-workload block of the entry, plus its verdicts."""
    complete = [i for i in range(len(seeds))
                if runs["parent"][i] is not None
                and runs["change"][i] is not None]
    failed = sum(1 for side in SIDES for r in runs[side] if r is None)
    block = {"pairs": len(seeds), "seeds": seeds, "first_side": first,
             "failed": failed, "metrics": {}}
    verdicts = {}
    for name, better, bound in metrics:
        both = [i for i in complete
                if all(name in runs[side][i]["metrics"] for side in SIDES)]
        if not both:
            continue
        value = {side: [runs[side][i]["metrics"][name]["value"] for i in both]
                 for side in SIDES}
        sides = {side: quartiles(value[side]) for side in SIDES}
        pairs = list(zip(value["parent"], value["change"]))
        lower = sum(1 for p, c in pairs if c < p)
        block["metrics"][name] = {
            "unit": units[name], "parent": sides["parent"],
            "change": sides["change"], "change_lower_in_pairs": lower}
        if bound is not None:
            higher = sum(1 for p, c in pairs if c > p)
            verdicts[name] = verdict(sides["parent"], sides["change"], better,
                                     lower if better == "lower" else higher,
                                     len(both), bound)
    block["note"] = ""
    return block, verdicts, len(complete)


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision the working tree is compared to")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1,
                        help="pair i runs seed SEED0 + i on both sides")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--show", action="append", metavar="METRIC",
                        help="repeatable; metrics printed per run "
                             "(default: the end-to-end ones, which traced "
                             "runs do not report)")
    args = parser.parse_args()
    workloads = args.workload or names

    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    if args.trace:
        metrics += [(m["name"], m["better"], None) for m in bench["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    shown = args.show or [m["name"] for m in bench["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix="hostbench_pairs.") as tmp:
        tmp = Path(tmp)
        roots = {"parent": tmp / "parent", "change": ROOT}
        builds = {side: tmp / f"{side}-build" for side in SIDES}
        parent_commit = export(args.parent, roots["parent"])
        for side in SIDES:
            print(f"building {side} ({roots[side]})", flush=True)
            build(side, roots[side], builds[side])

        entry_workloads, all_verdicts, host = {}, {}, None
        status = 0
        for workload in workloads:
            seeds = [args.seed0 + i for i in range(args.pairs)]
            first = [SIDES[i % 2] for i in range(args.pairs)]
            runs = {side: [None] * args.pairs for side in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if first[i] == "parent" else SIDES[::-1]
                for side in order:
                    result, run_host, elapsed = run_once(
                        roots[side], builds[side], workload, seed,
                        args.seconds, args.trace)
                    if result is None or not result.get("correct", False):
                        status = 1
                        result = None
                    runs[side][i] = result
                    if side == "change" and run_host is not None:
                        host = run_host
                    line = (f"pair {i + 1}/{args.pairs} {workload} seed {seed}"
                            f" {side:<6} ({elapsed:5.1f} s)")
                    if result is not None:
                        m = result["metrics"]
                        line += "".join(f" {name} {m[name]['value']:.4g}"
                                        for name in shown if name in m)
                        if result.get("failed"):
                            line += f" failed_ops {result['failed']}"
                        other = runs[SIDES[1 - SIDES.index(side)]][i]
                        key = next((name for name in shown
                                    if name in m and other is not None
                                    and name in other["metrics"]), None)
                        if key is not None:
                            ratio = (runs["change"][i]["metrics"][key]["value"]
                                     / runs["parent"][i]["metrics"][key]
                                     ["value"])
                            line += f" | change/parent {ratio:.3f} ({key})"
                            if not 1 / FLAG_RATIO < ratio < FLAG_RATIO:
                                line += " <- far off its pair: shared core?"
                    print(line, flush=True)
            block, verdicts, complete = summarize(workload, runs, seeds, first,
                                                  metrics, units)
            entry_workloads[workload] = block
            all_verdicts[workload] = verdicts
            print(f"{workload}: {complete} complete pairs, "
                  f"{block['failed']} failed runs", flush=True)
            for name, v in verdicts.items():
                e = block["metrics"][name]
                ratio = e["change"]["median"] / e["parent"]["median"]
                print(f"  {name:<22} {e['parent']['median']:.6g} -> "
                      f"{e['change']['median']:.6g} ({ratio:.3f}x, lower in "
                      f"{e['change_lower_in_pairs']}/{complete}): {v}",
                      flush=True)

    entry = {
        "change": "",
        "parent_commit": parent_commit,
        "change_commit": "the commit that adds this entry",
        "method": ("interleaved parent/change pairs, alternating which side "
                   "runs first; each side built in Release from its own "
                   "checkout; seed = the pair's seed on both sides"),
        "window_s": args.seconds,
        "host": dict(sorted(host.items())) if host else None,
        "workloads": entry_workloads,
    }
    print(json.dumps({"entry": entry, "verdicts": all_verdicts}))
    return status


if __name__ == "__main__":
    sys.exit(main())
