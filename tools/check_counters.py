#!/usr/bin/env python3
"""Counter-name drift checker (stdlib only).

docs/COUNTERS.md documents every counter the datapath exposes, including
the google-benchmark column names `export_counters` publishes. Those
tables are hand-written prose — nothing stops a counter rename in code
from silently stranding them. This checker closes the loop:

  * every bench column `export_counters` publishes must appear (as
    `name`, in backticks) in docs/COUNTERS.md: each literal
    `state.counters["name"]` in bench/bench_common.h, plus each column
    named in the HW_TIER_COUNTERS list in src/classifier/dp_classifier.h
    (export_counters publishes those in a loop over the list);
  * every tier counter in that list (the TierCounters fields it
    generates) must appear there too;
  * every field of chain::ChainMetrics in src/chain/chain.h likewise;
  * every endpoint counter — the fields of pkt::EndpointCounters in
    src/pkt/endpoint.h and of vm::AppCounters in src/vm/apps.h, which
    hostbench reads as `app.*` — must name a table row (in backticks,
    in the row's first cell) of the "## Endpoint counters" section:
    names like `delivered` recur elsewhere in the file and in that
    section's prose, so only a row of that section documents one;
  * every engine-tagged column published through
    `export_engine_counter(state, i, "name", ...)` anywhere under bench/
    must appear in docs/COUNTERS.md under its documented pattern
    `e<i>_name` (the literal placeholder `<i>`, since the engine index
    is runtime data);
  * every telemetry gauge registered in src/ or bench/ (a
    `.gauge("name")` call on a MetricsRegistry, whose only metric kind
    is the callback gauge) must appear, in backticks, in
    docs/OBSERVABILITY.md. Tests are exempt: throwaway names assembled
    to exercise the registry are not part of the exported surface.

Run from anywhere: paths resolve relative to the repository root (the
parent of this script's directory). CI runs it next to check_links.py.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_COMMON = os.path.join(ROOT, "bench", "bench_common.h")
TIER_COUNTERS = os.path.join(ROOT, "src", "classifier", "dp_classifier.h")
CHAIN_METRICS = os.path.join(ROOT, "src", "chain", "chain.h")
ENDPOINT_STRUCTS = [
    (os.path.join(ROOT, "src", "pkt", "endpoint.h"), "EndpointCounters"),
    (os.path.join(ROOT, "src", "vm", "apps.h"), "AppCounters"),
]
ENDPOINT_SECTION = "## Endpoint counters"
COUNTERS_MD = os.path.join(ROOT, "docs", "COUNTERS.md")
OBSERVABILITY_MD = os.path.join(ROOT, "docs", "OBSERVABILITY.md")
GAUGE_DIRS = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

BENCH_DIR = os.path.join(ROOT, "bench")

BENCH_RE = re.compile(r'state\.counters\["([A-Za-z0-9_]+)"\]')
ENGINE_COLUMN_RE = re.compile(
    r'export_engine_counter\(\s*state\s*,\s*[^,]+,\s*"([A-Za-z0-9_]+)"')
FIELD_RE = re.compile(
    r"^\s*(?:std::uint64_t|std::size_t|double|TimeNs|classifier::TierCounters)"
    r"\s+([a-z]\w*)\s*[=;]", re.MULTILINE)
# One entry of the HW_TIER_COUNTERS X-macro: X(field, "column") or
# X(field, nullptr) for a counter no bench table publishes.
TIER_ENTRY_RE = re.compile(r'\bX\((\w+),\s*(?:"([A-Za-z0-9_]+)"|nullptr)\)')
# First cell of a markdown table row.
ROW_HEAD_RE = re.compile(r"^\|([^|\n]*)\|", re.MULTILINE)
GAUGE_RE = re.compile(r'(?:\.|->)gauge\(\s*"([a-z0-9_.]+)"')


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def struct_fields(text, struct_name):
    """Field names declared in `struct <name> [: bases] { ... };` (first
    brace block; inherited fields are not included)."""
    match = re.search(r"\bstruct %s\b[^;{]*\{" % struct_name, text)
    if match is None:
        return []
    start = match.start()
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return FIELD_RE.findall(text[start:i])
    return []


def section(text, heading):
    """Body of the markdown section starting with `heading`, up to the
    next heading of the same level ('' when absent)."""
    start = text.find(heading)
    if start < 0:
        return ""
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def tier_counter_list(text):
    """(field, column or None) per entry of the HW_TIER_COUNTERS list."""
    start = text.find("#define HW_TIER_COUNTERS(X)")
    if start < 0:
        return []
    lines = text[start:].splitlines()
    end = next((i for i, line in enumerate(lines)
                if not line.rstrip().endswith("\\")), len(lines) - 1)
    block = "\n".join(lines[:end + 1])
    return [(field, column or None)
            for field, column in TIER_ENTRY_RE.findall(block)]


def main():
    errors = []
    docs = read(COUNTERS_MD)
    documented = set(re.findall(r"`([A-Za-z0-9_]+)`", docs))

    tier_list = tier_counter_list(read(TIER_COUNTERS))
    if not tier_list:
        errors.append("no entries parsed from HW_TIER_COUNTERS "
                      "(parser broken?)")
    literal_columns = set(BENCH_RE.findall(read(BENCH_COMMON)))
    if not literal_columns:
        errors.append("no state.counters[...] found in bench_common.h "
                      "(parser broken?)")
    bench_columns = sorted(
        literal_columns | {column for _, column in tier_list if column})
    for name in bench_columns:
        if name not in documented:
            errors.append(
                f"bench column `{name}` (bench/bench_common.h or "
                f"HW_TIER_COUNTERS) is not mentioned in docs/COUNTERS.md")

    engine_columns = engine_tagged_columns()
    # Engine-tagged columns are documented as the pattern `e<i>_name`
    # (backticked literally): the index is runtime data, so the docs
    # carry the placeholder, and the doc set is matched on it.
    documented_patterns = set(re.findall(r"`e<i>_([A-Za-z0-9_]+)`", docs))
    for name, where in sorted(engine_columns.items()):
        if name not in documented_patterns:
            errors.append(
                f"engine-tagged bench column `e<i>_{name}` ({where}) is "
                f"not mentioned in docs/COUNTERS.md")

    tier_fields = [field for field, _ in tier_list]
    for name in tier_fields:
        if name not in documented:
            errors.append(
                f"tier counter `{name}` (HW_TIER_COUNTERS in "
                f"src/classifier/dp_classifier.h) is not mentioned in "
                f"docs/COUNTERS.md")

    chain_fields = struct_fields(read(CHAIN_METRICS), "ChainMetrics")
    if not chain_fields:
        errors.append("no fields parsed from ChainMetrics (parser broken?)")
    for name in chain_fields:
        if name not in documented:
            errors.append(
                f"ChainMetrics field `{name}` (src/chain/chain.h) is not "
                f"mentioned in docs/COUNTERS.md")

    endpoint_docs = {name
                     for cell in ROW_HEAD_RE.findall(
                         section(docs, ENDPOINT_SECTION))
                     for name in re.findall(r"`([A-Za-z0-9_]+)`", cell)}
    endpoint_fields = []
    for path, struct in ENDPOINT_STRUCTS:
        fields = struct_fields(read(path), struct)
        if not fields:
            errors.append(f"no fields parsed from {struct} "
                          f"(parser broken?)")
        for name in fields:
            endpoint_fields.append(name)
            if name not in endpoint_docs:
                errors.append(
                    f"endpoint counter `{name}` ({struct} in "
                    f"{os.path.relpath(path, ROOT)}) has no row in the "
                    f"\"{ENDPOINT_SECTION[3:]}\" section of "
                    f"docs/COUNTERS.md")

    gauge_names = registered_gauges()
    if not gauge_names:
        errors.append("no MetricsRegistry gauge registrations found "
                      "under src/ or bench/ (parser broken?)")
    observability = set(re.findall(r"`([a-z0-9_.]+)`",
                                   read(OBSERVABILITY_MD)))
    for name, where in sorted(gauge_names.items()):
        if name not in observability:
            errors.append(
                f"gauge `{name}` ({where}) is not mentioned in "
                f"docs/OBSERVABILITY.md")

    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(bench_columns)} bench columns, "
          f"{len(engine_columns)} engine-tagged columns, "
          f"{len(tier_fields)} TierCounters fields, "
          f"{len(chain_fields)} ChainMetrics fields, "
          f"{len(endpoint_fields)} endpoint counters, "
          f"{len(gauge_names)} registered gauges: "
          f"{'FAIL' if errors else 'OK'} ({len(errors)} undocumented)")
    return 1 if errors else 0


def engine_tagged_columns():
    """Maps engine-tagged column name -> first publishing file (bench/)."""
    names = {}
    for dirpath, _, filenames in os.walk(BENCH_DIR):
        for filename in sorted(filenames):
            if not filename.endswith((".h", ".cpp")):
                continue
            path = os.path.join(dirpath, filename)
            for name in ENGINE_COLUMN_RE.findall(read(path)):
                names.setdefault(name, os.path.relpath(path, ROOT))
    return names


def registered_gauges():
    """Maps gauge name -> first registering file, over src/ and bench/."""
    names = {}
    for base in GAUGE_DIRS:
        for dirpath, _, filenames in os.walk(base):
            for filename in sorted(filenames):
                if not filename.endswith((".h", ".cpp")):
                    continue
                path = os.path.join(dirpath, filename)
                for name in GAUGE_RE.findall(read(path)):
                    names.setdefault(name, os.path.relpath(path, ROOT))
    return names


if __name__ == "__main__":
    sys.exit(main())
