#!/usr/bin/env python3
"""Repo-specific concurrency-invariant lint (stdlib only).

Three bug classes this repo has already eaten — or that the multi-PMD
scale-out would reintroduce — checked mechanically on every push:

1. **Cross-context `now_ns()` arithmetic** (the PR 6 bug class). Under
   SimRuntime, `now_ns()` adds the *active context's* burned-cycle offset
   to the epoch start, so values produced in different contexts are not
   mutually ordered. Comparing or subtracting a `now_ns()` result against
   a timestamp that crossed a context boundary (a packet `ts_ns`, an op
   `deadline`) must use `epoch_start_ns()` instead. The lint flags any
   expression that mixes a `now_ns()` result with the repo's
   cross-context timestamp vocabulary (`ts_ns`, `deadline`), both on one
   line and through a local variable assigned from `now_ns()`.
   Suppress a deliberate same-context use with `// lint: same-context`.

2. **Counter ownership.** `classifier::TierCounters` fields (the
   HW_TIER_COUNTERS list in dp_classifier.h) are incremented only by
   the classifier (src/classifier/), and
   `vswitch::EngineCounters` fields only by the forwarding engine
   (src/vswitch/) — each counter struct has exactly one writing path, so
   the sharded datapath can keep per-engine counters unsynchronized. An
   increment from anywhere else is a new unsynchronized writer.

3. **Queue API discipline.** Ring enqueue/dequeue results must be
   `[[nodiscard]]` (a dropped `false` is a silently leaked mbuf), and in
   megaflow.cpp every touch of the revalidator queue (`queue_`,
   `queue_overflowed_`) must happen under a `lock_guard` of
   `queue_mutex_` in the same scope.

Run from anywhere: paths resolve relative to the repository root (the
parent of this script's directory). `--self-test` runs the embedded
fixtures — including a cross-context `now_ns()` comparison that MUST
fail — and exits non-zero if any rule stopped firing.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SUPPRESS = "lint: same-context"

# Identifiers that name timestamps crossing context boundaries. A value
# compared against one of these must come from epoch_start_ns().
CROSS_CONTEXT_TS = r"(?:ts_ns|deadline)"
NOW_CALL = re.compile(r"\bnow_ns\(\)")
# `x = ... now_ns() ...;` — x now carries a context-local timestamp.
NOW_ASSIGN = re.compile(
    r"\b(?:const\s+)?(?:TimeNs|auto|std::uint64_t|uint64_t)\s+(\w+)\s*=."
    r"*\bnow_ns\(\)")
CMP_OPS = r"(?:<=|>=|<|>|-|==|!=)"

FIELD_RE = re.compile(r"^\s*(?:std::uint64_t|double|TimeNs)\s+([a-z]\w*)\s*=",
                      re.MULTILINE)
# One entry of the HW_TIER_COUNTERS X-macro: X(field, "column"|nullptr).
TIER_ENTRY_RE = re.compile(r'\bX\((\w+),\s*(?:"[A-Za-z0-9_]+"|nullptr)\)')

# Queue APIs whose result must not be dropped.
QUEUE_API = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:bool|std::size_t|size_t)\s+"
    r"((?:enqueue|dequeue)\w*)\s*\(")
NODISCARD = "[[nodiscard]]"

LOCK_RE = re.compile(r"lock_guard\s*<[^>]*>\s+\w+\s*\(\s*queue_mutex_\s*\)")
QUEUE_TOUCH = re.compile(r"\bqueue_\b|\bqueue_overflowed_\b")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def strip_comment(line):
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def struct_fields(text, struct_name):
    """Field names of `struct <name> { ... };` (first brace block)."""
    start = text.find("struct %s {" % struct_name)
    if start < 0:
        return []
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return FIELD_RE.findall(text[start:i])
    return []


def tier_counter_fields(text):
    """Field names of the HW_TIER_COUNTERS list, in declaration order."""
    start = text.find("#define HW_TIER_COUNTERS(X)")
    if start < 0:
        return []
    lines = text[start:].splitlines()
    end = next((i for i, line in enumerate(lines)
                if not line.rstrip().endswith("\\")), len(lines) - 1)
    return TIER_ENTRY_RE.findall("\n".join(lines[:end + 1]))


# --------------------------------------------------------------- rule 1

def check_cross_context_now(path, lines):
    """now_ns() results compared/subtracted against cross-context stamps."""
    findings = []
    # (name, brace_depth) of locals assigned from now_ns().
    tainted = []
    depth = 0
    for num, raw in enumerate(lines, 1):
        if SUPPRESS in raw:
            depth += raw.count("{") - raw.count("}")
            continue
        line = strip_comment(raw)
        mixed = re.search(
            r"now_ns\(\).*{cmp}.*\b{ts}\b|\b{ts}\b.*{cmp}.*now_ns\(\)".format(
                cmp=CMP_OPS, ts=CROSS_CONTEXT_TS), line)
        if NOW_CALL.search(line) and (mixed or re.search(
                r"\.\s*{ts}\b|->\s*{ts}\b".format(ts=CROSS_CONTEXT_TS), line)):
            findings.append(
                (path, num,
                 "now_ns() mixed with a cross-context timestamp "
                 "(ts_ns/deadline): use epoch_start_ns(), or mark the line "
                 "'// %s'" % SUPPRESS))
        else:
            assign = NOW_ASSIGN.search(line)
            if assign:
                tainted.append((assign.group(1), depth))
            else:
                for name, _ in tainted:
                    if re.search(
                            r"\b{v}\b.*{cmp}.*\b{ts}\b|\b{ts}\b.*{cmp}.*\b{v}\b"
                            .format(v=re.escape(name), cmp=CMP_OPS,
                                    ts=CROSS_CONTEXT_TS), line):
                        findings.append(
                            (path, num,
                             "'%s' holds a now_ns() value and is compared "
                             "against a cross-context timestamp: use "
                             "epoch_start_ns(), or mark the line '// %s'"
                             % (name, SUPPRESS)))
                        break
        depth += line.count("{") - line.count("}")
        tainted = [(n, d) for n, d in tainted if d <= depth]
    return findings


# --------------------------------------------------------------- rule 2

def counter_owners():
    """field name -> set of allowed path prefixes (repo-relative)."""
    owners = {}
    tiers = tier_counter_fields(
        read(os.path.join(SRC, "classifier", "dp_classifier.h")))
    engine = struct_fields(
        read(os.path.join(SRC, "vswitch", "forwarding_engine.h")),
        "EngineCounters")
    for field in tiers:
        owners.setdefault(field, set()).add(os.path.join("src", "classifier"))
    for field in engine:
        owners.setdefault(field, set()).add(os.path.join("src", "vswitch"))
    return owners


def check_counter_ownership(path, lines, owners):
    findings = []
    rel = os.path.relpath(path, ROOT)
    # Keyed on the conventional `counters_` member so same-named fields of
    # unrelated stats structs (e.g. megaflow's own Stats::misses) don't
    # collide with the ownership map.
    inc = re.compile(
        r"\bcounters_\.(\w+)\s*(?:\+=|\+\+)|\+\+counters_\.(\w+)")
    for num, raw in enumerate(lines, 1):
        line = strip_comment(raw)
        for match in inc.finditer(line):
            field = match.group(1) or match.group(2)
            allowed = owners.get(field)
            if allowed and not any(rel.startswith(p) for p in allowed):
                findings.append(
                    (path, num,
                     "increment of counter field '%s' outside its owning "
                     "path (%s)" % (field, ", ".join(sorted(allowed)))))
    return findings


# --------------------------------------------------------------- rule 3

def check_nodiscard(path, lines):
    """enqueue/dequeue declarations in ring/channel headers."""
    findings = []
    for num, raw in enumerate(lines, 1):
        match = QUEUE_API.match(strip_comment(raw))
        if not match:
            continue
        prev = lines[num - 2] if num >= 2 else ""
        if NODISCARD not in raw and NODISCARD not in prev:
            findings.append(
                (path, num,
                 "queue API '%s' must be [[nodiscard]] — a dropped result "
                 "is a leaked mbuf or lost message" % match.group(1)))
    return findings


def check_queue_lock(path, lines):
    """Every revalidator-queue touch under a queue_mutex_ lock_guard."""
    findings = []
    depth = 0
    locked_at = None  # brace depth at which the lock_guard lives
    for num, raw in enumerate(lines, 1):
        line = strip_comment(raw)
        if LOCK_RE.search(line):
            locked_at = depth
        elif QUEUE_TOUCH.search(line) and locked_at is None:
            findings.append(
                (path, num,
                 "revalidator queue touched outside a lock_guard of "
                 "queue_mutex_"))
        depth += line.count("{") - line.count("}")
        if locked_at is not None and depth < locked_at:
            locked_at = None
    return findings


# ------------------------------------------------------------------ main

def lint_file(path, owners):
    lines = read(path).splitlines()
    findings = []
    findings += check_cross_context_now(path, lines)
    findings += check_counter_ownership(path, lines, owners)
    rel = os.path.relpath(path, ROOT)
    if rel.startswith(os.path.join("src", "ring")) or rel.startswith(
            os.path.join("src", "pmd")):
        findings += check_nodiscard(path, lines)
    if rel.endswith(os.path.join("classifier", "megaflow.cpp")):
        findings += check_queue_lock(path, lines)
    return findings


def lint_tree(root, owners):
    findings = []
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if name.endswith((".h", ".cpp", ".cc")):
                findings += lint_file(os.path.join(dirpath, name), owners)
    return findings


# -------------------------------------------------------------- self-test

BAD_NOW_FIXTURE = """\
void Sink::poll() {
  const TimeNs now = runtime_->now_ns();
  if (now - pkt->ts_ns > budget_) drop();   // cross-context compare: BAD
}
"""

BAD_NOW_ONELINE_FIXTURE = """\
void Agent::poll() {
  if (op.deadline <= runtime_->now_ns()) fail(op);
}
"""

GOOD_NOW_FIXTURE = """\
void Sink::poll() {
  const TimeNs now = runtime_->epoch_start_ns();
  if (now - pkt->ts_ns > budget_) drop();
  const TimeNs pace = runtime_->now_ns();    // same-context pacing: fine
  if (pace >= next_refill_ns_) refill();
}
"""

SUPPRESSED_NOW_FIXTURE = """\
void Gen::poll() {
  if (runtime_->now_ns() >= stamp.ts_ns) send();  // lint: same-context
}
"""

BAD_NODISCARD_FIXTURE = """\
class Ring {
  bool enqueue(T item) noexcept;
  std::size_t dequeue_burst(std::span<T> out) noexcept;
};
"""

GOOD_NODISCARD_FIXTURE = """\
class Ring {
  [[nodiscard]] bool enqueue(T item) noexcept;
  [[nodiscard]]
  std::size_t dequeue_burst(std::span<T> out) noexcept;
};
"""

BAD_LOCK_FIXTURE = """\
bool Cache::drain() {
  events.swap(queue_);
  return queue_overflowed_;
}
"""

GOOD_LOCK_FIXTURE = """\
bool Cache::drain() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    events.swap(queue_);
    overflowed = queue_overflowed_;
  }
  return overflowed;
}
"""


def self_test():
    def run(checker, fixture, *args):
        return checker("fixture.cpp", fixture.splitlines(), *args)

    failures = []

    def expect(name, findings, want_hits):
        if bool(findings) != want_hits:
            failures.append("%s: expected %s, got %d finding(s)"
                            % (name, "hits" if want_hits else "clean",
                               len(findings)))

    expect("bad-now (variable)", run(check_cross_context_now,
                                     BAD_NOW_FIXTURE), True)
    expect("bad-now (one line)", run(check_cross_context_now,
                                     BAD_NOW_ONELINE_FIXTURE), True)
    expect("good-now", run(check_cross_context_now, GOOD_NOW_FIXTURE), False)
    expect("suppressed-now", run(check_cross_context_now,
                                 SUPPRESSED_NOW_FIXTURE), False)
    expect("bad-nodiscard", run(check_nodiscard, BAD_NODISCARD_FIXTURE), True)
    expect("good-nodiscard", run(check_nodiscard, GOOD_NODISCARD_FIXTURE),
           False)
    expect("bad-lock", run(check_queue_lock, BAD_LOCK_FIXTURE), True)
    expect("good-lock", run(check_queue_lock, GOOD_LOCK_FIXTURE), False)

    owners = {"emc_hits": {os.path.join("src", "classifier")}}
    bad_counter = ["void f() { counters_.emc_hits += n; }"]
    expect("bad-counter",
           check_counter_ownership(os.path.join(ROOT, "src", "vm", "x.cpp"),
                                   bad_counter, owners), True)
    expect("good-counter",
           check_counter_ownership(
               os.path.join(ROOT, "src", "classifier", "x.cpp"),
               bad_counter, owners), False)

    # The owning-struct parses must keep finding real fields — an empty
    # owner map would silently disable rule 2 on the real tree.
    real_owners = counter_owners()
    if "emc_hits" not in real_owners:
        failures.append("counter_owners: TierCounters parse came up empty")
    if "rx_packets" not in real_owners:
        failures.append("counter_owners: EngineCounters parse came up empty")

    for failure in failures:
        print("self-test FAILED: %s" % failure)
    if not failures:
        print("check_invariants self-test OK "
              "(%d fixtures, all rules firing)" % 10)
    return 1 if failures else 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    owners = counter_owners()
    targets = [a for a in argv if not a.startswith("-")] or [SRC]
    findings = []
    for target in targets:
        if os.path.isdir(target):
            findings += lint_tree(target, owners)
        else:
            findings += lint_file(target, owners)
    for path, num, message in findings:
        print("%s:%d: %s" % (os.path.relpath(path, ROOT), num, message))
    if findings:
        print("check_invariants: %d finding(s)" % len(findings))
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
