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
  * every section headed `## Title (`ns::Struct`, `path`)` (several
    pairs separated by `;` when a section covers more than one struct)
    must have a table row per field of each struct it names: the
    field's name, in backticks, in the row's first cell. Names like
    `delivered` recur elsewhere in the file and in a section's prose,
    so only a row of its own section documents a field. A struct whose
    fields an X-macro list generates (TierCounters) is read through
    that list;
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
# One entry of an X-macro list such as HW_TIER_COUNTERS:
# X(field, "column") or X(field, nullptr) for a counter no bench table
# publishes.
XMACRO_ENTRY_RE = re.compile(
    r'\bX\((\w+),\s*(?:"([A-Za-z0-9_]+)"|nullptr)\)')
# A struct-body line expanding an X-macro list: `LIST(FIELD_MACRO)`.
XMACRO_USE_RE = re.compile(r"^\s*(\w+)\(\w+\)\s*$", re.MULTILINE)
# A second-level heading whose parenthesis names the documented structs.
STRUCT_HEADING_RE = re.compile(r"^## ([^\n(]*)\(([^\n]*)\)[ \t]*$",
                               re.MULTILINE)
STRUCT_REF_RE = re.compile(r"`\w+::(\w+)`,\s*`([^`]+)`")
# First cell of a markdown table row.
ROW_HEAD_RE = re.compile(r"^\|([^|\n]*)\|", re.MULTILINE)
GAUGE_RE = re.compile(r'(?:\.|->)gauge\(\s*"([a-z0-9_.]+)"')


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def struct_fields(text, struct_name):
    """Field names declared in `struct <name> [: bases] { ... };` (first
    brace block; inherited fields are not included). A body line that
    expands an X-macro list defined in the same file adds the list's
    fields."""
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
                body = text[start:i]
                fields = FIELD_RE.findall(body)
                for macro in XMACRO_USE_RE.findall(body):
                    fields += [field for field, _ in xmacro_list(text, macro)]
                return fields
    return []


def xmacro_list(text, macro):
    """(field, column or None) per entry of `#define <macro>(X)`."""
    start = text.find("#define %s(X)" % macro)
    if start < 0:
        return []
    lines = text[start:].splitlines()
    end = next((i for i, line in enumerate(lines)
                if not line.rstrip().endswith("\\")), len(lines) - 1)
    block = "\n".join(lines[:end + 1])
    return [(field, column or None)
            for field, column in XMACRO_ENTRY_RE.findall(block)]


def struct_sections(docs):
    """(title, body, [(struct, path)]) per section whose heading names
    structs; the body runs to the next second-level heading."""
    headings = list(STRUCT_HEADING_RE.finditer(docs))
    sections = []
    for heading in headings:
        refs = STRUCT_REF_RE.findall(heading.group(2))
        if not refs:
            continue
        end = docs.find("\n## ", heading.end())
        body = docs[heading.end():] if end < 0 else docs[heading.end():end]
        sections.append((heading.group(1).strip(), body, refs))
    return sections


def main():
    errors = []
    docs = read(COUNTERS_MD)
    documented = set(re.findall(r"`([A-Za-z0-9_]+)`", docs))

    tier_list = xmacro_list(read(TIER_COUNTERS), "HW_TIER_COUNTERS")
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

    sections = struct_sections(docs)
    if not sections:
        errors.append("no struct sections parsed from docs/COUNTERS.md "
                      "(parser broken?)")
    struct_field_count = 0
    for title, body, refs in sections:
        rows = {name for cell in ROW_HEAD_RE.findall(body)
                for name in re.findall(r"`([A-Za-z0-9_]+)`", cell)}
        for struct, path in refs:
            fields = struct_fields(read(os.path.join(ROOT, path)), struct)
            if not fields:
                errors.append(f"no fields parsed from {struct} in {path} "
                              f"(parser broken?)")
            struct_field_count += len(fields)
            for name in fields:
                if name not in rows:
                    errors.append(
                        f"{struct} field `{name}` ({path}) has no row in "
                        f"the \"{title}\" section of docs/COUNTERS.md")

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
          f"{struct_field_count} fields of "
          f"{sum(len(refs) for _, _, refs in sections)} structs in "
          f"{len(sections)} sections, "
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
