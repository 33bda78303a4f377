#!/usr/bin/env python3
"""Markdown link checker (stdlib only) for the repo's docs.

Verifies that every relative link target in the given markdown files
exists on disk (anchors are stripped; http/https/mailto links are
skipped — CI must not depend on the network). Also verifies that
in-file anchor links point at a heading that actually exists.

It also keeps the bench catalogue (the "Paper reproductions" and
"Ablations" sections of docs/BENCHMARKS.md) in step with bench/: every
bench/bench_*.cpp needs a heading or a table row there that names it in
backticks, and every bench a catalogue heading or row names needs a
source. A retired bench belongs under "Retired ablations", which is
outside the catalogue.

Usage: check_links.py [FILE.md ...]
With no arguments, checks README.md and docs/*.md relative to the
repository root (the parent of this script's directory). The catalogue
check always runs against that root.
"""

import glob
import os
import re
import sys

# Inline markdown links: [text](target). Images share the syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"^(`{3,}|~{3,}).*?^\1`*\s*$", re.MULTILINE | re.DOTALL)
INLINE_CODE_RE = re.compile(r"`[^`\n]*`")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "docs", "BENCHMARKS.md")
CATALOGUE_SECTIONS = ("## Paper reproductions", "## Ablations")
# A bench named in backticks in a heading or in a table row's first cell.
CATALOGUE_ENTRY_RE = re.compile(
    r"^(?:#{2,6}\s[^\n]*?|\|[^|\n]*?)`(bench_\w+)`", re.MULTILINE)


def strip_code(text: str) -> str:
    """Drop fenced blocks and inline code — links there are not rendered."""
    return INLINE_CODE_RE.sub("", FENCE_RE.sub("", text))


def anchor_of(heading: str) -> str:
    """GitHub-style anchor: lowercase, spaces to dashes, drop punctuation."""
    heading = heading.strip().lower()
    heading = re.sub(r"[^\w\s-]", "", heading, flags=re.UNICODE)
    return re.sub(r"\s+", "-", heading)


def headings_in(path: str) -> set:
    """All anchors the file defines, with GitHub's -N duplicate suffixes."""
    with open(path, encoding="utf-8") as fh:
        text = strip_code(fh.read())
    anchors, seen = set(), {}
    for match in HEADING_RE.finditer(text):
        anchor = anchor_of(match.group(1))
        count = seen.get(anchor, 0)
        seen[anchor] = count + 1
        anchors.add(anchor if count == 0 else f"{anchor}-{count}")
    return anchors


def check_file(path: str) -> list:
    errors = []
    base = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as fh:
        text = strip_code(fh.read())
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                errors.append(f"{path}: broken link -> {target}")
                continue
            if anchor and resolved.endswith(".md"):
                if anchor_of(anchor) not in headings_in(resolved):
                    errors.append(f"{path}: missing anchor -> {target}")
        elif anchor:
            if anchor_of(anchor) not in headings_in(path):
                errors.append(f"{path}: missing anchor -> #{anchor}")
    return errors


def catalogue_section(text: str, heading: str) -> str:
    """Body of the level-2 section `heading`, up to the next one."""
    start = text.find(heading + "\n")
    if start < 0:
        return ""
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def check_bench_catalogue() -> list:
    """Benches with no catalogue entry, and entries with no bench."""
    sources = {os.path.basename(path)[:-len(".cpp")]
               for path in glob.glob(os.path.join(ROOT, "bench",
                                                  "bench_*.cpp"))}
    with open(CATALOGUE, encoding="utf-8") as fh:
        text = FENCE_RE.sub("", fh.read())
    sections = [catalogue_section(text, heading)
                for heading in CATALOGUE_SECTIONS]
    errors = [f"{CATALOGUE}: section {heading!r} not found"
              for heading, body in zip(CATALOGUE_SECTIONS, sections)
              if not body]
    listed = {name for body in sections
              for name in CATALOGUE_ENTRY_RE.findall(body)}
    for name in sorted(sources - listed):
        errors.append(f"{CATALOGUE}: bench/{name}.cpp has no catalogue "
                      f"heading or table row")
    for name in sorted(listed - sources):
        errors.append(f"{CATALOGUE}: catalogue entry `{name}` has no "
                      f"bench/{name}.cpp")
    return errors


def main(argv: list) -> int:
    files = argv[1:]
    if not files:
        files = [os.path.join(ROOT, "README.md")] + sorted(
            glob.glob(os.path.join(ROOT, "docs", "*.md")))
    errors = []
    for path in files:
        if not os.path.exists(path):
            errors.append(f"{path}: file not found")
            continue
        errors.extend(check_file(path))
    errors.extend(check_bench_catalogue())
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} file(s): "
          f"{'FAIL' if errors else 'OK'} ({len(errors)} broken)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
