#!/usr/bin/env python3
"""Project lint: enforces repo invariants the compiler cannot.

Part of the static-analysis gate (ctest -L analysis, test name lint_py).
Checks, each with a stable rule id:

  raw-databuf-new        Every DataBuf handle comes from make_buf /
                         make_buf_pooled or the Global Array view factory
                         (GlobalArray::view, the one caller of make_view),
                         all in src/support/data_buf.h: no `new Buffer` or
                         `make_shared<Buffer>` outside that header, and no
                         `make_view(` outside it and src/ga/. Otherwise the
                         pool recycling and the MP_ANALYSIS lifecycle
                         tracking are silently bypassed, or a view of
                         storage nobody vouches for escapes.
  lock-in-task-body      No lock acquisition inside a `.body = [...]` task
                         lambda: task bodies must be lock-free so the
                         scheduler can never deadlock through user code.
                         Waiver: a `// mp-lint: allow(lock-in-task-body)`
                         comment inside the body (the paper's WRITE
                         critical region carries one).
  ga-copy-in-task-body   No `get_hash_block(` call inside a `.body = [...]`
                         task lambda under src/: a task hands a Global
                         Array block on as a read-only view
                         (ga::view_hash_block) instead of copying it out.
  pragma-once            Every header under src/ starts its preprocessor
                         life with #pragma once.
  iostream-in-header     No <iostream> in src/ headers (drags in static
                         init order and bloats every TU; use <cstdio> or
                         support/log.h in .cpp files).
  include-count          At most MAX_INCLUDES includes per src/ file —
                         a growing include list marks a layering problem.
  using-namespace-std    `using namespace std;` is banned everywhere.
  reset-stats-discipline The persistent-Context reset
                         (Context::reset_for_resubmission in
                         src/ptg/context.cpp) must snapshot every stats
                         family into a local and call validate() on it
                         BEFORE the statement that replaces the finished
                         run's Submission (`sub_ = std::make_unique<
                         Submission>(...)`): the replacement discards the
                         counters, so a torn release/acquire pair must be
                         caught before it, or it is never seen. The
                         families are NOT hardcoded: every
                         `*Stats`-returning zero-arg accessor declared in
                         src/ptg/context.h is discovered by pattern, so
                         adding a new stats family to the Context
                         automatically extends the reset obligation.
  wire-tag-exhaustiveness Every `switch` over a fabric message tag (the
                         WireTag enum in src/ptg/protocol.h, or its
                         Context::kTag* aliases) must either list a case
                         for every enumerator or carry a `default:` that
                         raises / logs (MP_REQUIRE, MP_ASSERT, throw,
                         abort, MP_LOG_WARN/ERROR). A silently dropped
                         tag is the PR 6 livelock class: the message is
                         consumed, no handler runs, and the protocol
                         stalls with no diagnostic.
  compile-time-isa       No preprocessor test of a vector-ISA macro
                         (`__AVX*__`, `__FMA__`, `__SSE*__`) under src/
                         or bench/. The default build targets baseline
                         x86-64, so such a branch only runs in a -march
                         build; a kernel picks its ISA at run time instead
                         (per-function target attributes + a cached
                         __builtin_cpu_supports check, as in
                         src/linalg/gemm.cpp).
  sanitizer-fork         No preprocessor test of `__SANITIZE_THREAD__`,
                         `__SANITIZE_ADDRESS__` or `__has_feature(...
                         sanitizer)` under src/ or bench/: the code a
                         sanitizer build tests must be the code that
                         ships, so no path may exist only with (or only
                         without) a sanitizer.
  bulk-copy-outside-codec No WireWriter::put_doubles / WireReader::
                         get_doubles call under src/ outside the data-plane
                         codec (encode_buf / decode_buf in
                         src/ptg/context.cpp). The codec copies only
                         buffers up to the eager limit and ships larger
                         ones as shared message segments; any other call
                         site would bring back a bulk copy of task data
                         on the data plane.
  symbolic-call-on-hot-path No call of a TaskClass's symbolic description
                         (`.rank_of(`, `.priority(`, `.num_task_inputs(`,
                         `.num_outputs(`, `.route_outputs(`,
                         `.enumerate_rank(`) in src/ptg/context.cpp. The
                         runtime runs the compiled graph (ptg::FlatGraph):
                         only the compile evaluates the description, once
                         per template, and the per-task path calls a
                         class's body (and, after a rank death, its
                         recovery hooks) and nothing else.
  shared-rmw-on-task-path No atomic read-modify-write (`fetch_*`,
                         `exchange`, `compare_exchange_*`) on a member of
                         the run's Submission (`sub.` / `sub_->`) inside
                         Context::execute_task, deposit, publish,
                         post_activation or worker_loop in
                         src/ptg/context.cpp. Every worker of a rank runs
                         these per task, so such an update bounces one
                         cache line between all of them; per-task counts
                         live in the worker's own WorkerScratch or under
                         a heap's lock instead. A task's own pending-input
                         count is reached through a reference, not a
                         `sub.` member, and is allowed. Waiver: a
                         `// mp-lint: allow(shared-rmw-on-task-path)`
                         comment on the line or the line above (the rare
                         paths: a migrated-in task's credit, a duplicate
                         deposit dropped under failure detection).

Exit status: 0 clean, 1 findings, 2 internal error.
Usage: tools/lint.py [--tidy] [paths...]   (default: src/ bench/)
"""

import pathlib
import re
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
MAX_INCLUDES = 30

DATA_BUF_FILE = "src/support/data_buf.h"
RAW_BUF_RE = re.compile(
    r"\bnew\s+(?:mp::)?Buffer\b|\bmake_shared\s*<\s*(?:mp::)?Buffer\s*>")
MAKE_VIEW_RE = re.compile(r"\bmake_view\s*\(")
GA_COPY_RE = re.compile(r"\bget_hash_block\s*\(")
LOCK_RE = re.compile(
    r"\b(?:std::)?(?:lock_guard|unique_lock|scoped_lock)\b|\.lock\(\)")
BODY_RE = re.compile(r"\bbody\s*=\s*\[")
WAIVER = "mp-lint: allow(lock-in-task-body)"
# A conditional directive (with its backslash continuations), the
# vector-ISA macros the compile-time-isa rule forbids it to test, and the
# sanitizer probes the sanitizer-fork rule forbids it to test.
PP_COND_RE = re.compile(
    r"^[ \t]*#[ \t]*(?:if|ifdef|ifndef|elif)\b(?:[^\n]*\\\n)*[^\n]*", re.M)
ISA_MACRO_RE = re.compile(r"\b__(?:AVX\w*|FMA|SSE\w*)__\b")
SANITIZER_RE = re.compile(
    r"\b__SANITIZE_(?:THREAD|ADDRESS)__\b"
    r"|\b__has_feature\s*\(\s*\w*sanitizer\s*\)")
# A call of the wire serializer's bulk double copy, e.g. `w.put_doubles(`
# or `r->get_doubles(`; the definitions in src/vc/message.h do not match.
BULK_COPY_RE = re.compile(r"(?:\.|->)\s*((?:put|get)_doubles)\s*\(")
CODEC_FILE = "src/ptg/context.cpp"
CODEC_FNS = ("encode_buf", "decode_buf")
CODEC_DEF_RE = re.compile(r"\b(encode_buf|decode_buf)\s*\([^;{]*\)\s*\{")
RUNTIME_FILE = "src/ptg/context.cpp"
# The Context functions every worker runs per task, and an atomic
# read-modify-write on a Submission member, e.g. `sub.executed.fetch_add(`.
TASK_PATH_FNS = ("execute_task", "deposit", "publish", "post_activation",
                 "worker_loop")
TASK_PATH_DEF_RE = re.compile(
    r"\bContext::(" + "|".join(TASK_PATH_FNS) + r")\s*\([^;{]*\)\s*\{")
SHARED_RMW_RE = re.compile(
    r"\bsub_?\s*(?:\.|->)\s*(\w+)\s*\.\s*"
    r"(fetch_\w+|exchange|compare_exchange_\w+)\s*\(")
RMW_WAIVER = "mp-lint: allow(shared-rmw-on-task-path)"
SYMBOLIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(rank_of|priority|num_task_inputs|num_outputs|"
    r"route_outputs|enumerate_rank)\s*\(")


def strip_comments_and_strings(text):
    """Blanks out comments and string literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(" ".join("\n" if ch == "\n" else " " for ch in [])
                       or "".join("\n" if ch == "\n" else " "
                                  for ch in text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lambda_span(code, start):
    """[start, end) of the lambda body whose `[` capture begins at start."""
    brace = code.find("{", start)
    if brace < 0:
        return start, start
    depth, i = 0, brace
    while i < len(code):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return brace, i + 1
        i += 1
    return brace, len(code)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def lint_file(path, findings):
    try:
        rel = path.relative_to(REPO)
    except ValueError:  # explicit path outside the repo: lint it fully
        rel = path
    text = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(text)
    in_src = "src" in rel.parts
    is_header = path.suffix == ".h"

    for m in re.finditer(r"using\s+namespace\s+std\s*;", code):
        findings.append((rel, line_of(text, m.start()), "using-namespace-std",
                         "`using namespace std;` is banned"))

    if str(rel) != DATA_BUF_FILE:
        for m in RAW_BUF_RE.finditer(code):
            findings.append(
                (rel, line_of(text, m.start()), "raw-databuf-new",
                 f"raw `{m.group(0)}`; use make_buf/make_buf_pooled "
                 f"({DATA_BUF_FILE})"))
        if not (in_src and "ga" in rel.parts):
            for m in MAKE_VIEW_RE.finditer(code):
                findings.append(
                    (rel, line_of(text, m.start()), "raw-databuf-new",
                     "`make_view` outside the Global Array view factory; "
                     "use ga::GlobalArray::view / ga::view_hash_block"))

    if in_src:
        lint_bulk_copies(rel, text, code, findings)

    if str(rel) == RUNTIME_FILE:
        for m in SYMBOLIC_CALL_RE.finditer(code):
            findings.append(
                (rel, line_of(text, m.start()), "symbolic-call-on-hot-path",
                 f"`{m.group(1)}(` evaluates the symbolic description in "
                 "the runtime; read the compiled graph (ptg::FlatGraph) "
                 "instead"))
        lint_reset_stats(path, rel, text, code, findings)
        lint_task_path_rmw(rel, text, code, findings)
        if lint_tag_switches(rel, text, code, findings) == 0:
            findings.append(
                (rel, 1, "wire-tag-exhaustiveness",
                 "no switch over a message tag found in the comm loop; "
                 "the dispatch-exhaustiveness rule cannot anchor (update "
                 "tools/lint.py if the dispatch moved)"))
    elif in_src:
        lint_tag_switches(rel, text, code, findings)

    if in_src or "bench" in rel.parts:
        for m in PP_COND_RE.finditer(code):
            isa = ISA_MACRO_RE.search(m.group(0))
            if isa:
                findings.append(
                    (rel, line_of(text, m.start()), "compile-time-isa",
                     f"`{isa.group(0)}` test selects code at compile time; "
                     "only a -march build reaches it (dispatch at run time "
                     "instead, see src/linalg/gemm.cpp)"))
            san = SANITIZER_RE.search(m.group(0))
            if san:
                findings.append(
                    (rel, line_of(text, m.start()), "sanitizer-fork",
                     f"`{san.group(0)}` test forks the code by sanitizer; "
                     "a sanitizer build must run the code that ships"))

    if in_src:
        for m in BODY_RE.finditer(code):
            lo, hi = lambda_span(code, m.end() - 1)
            body_code = code[lo:hi]
            lock = LOCK_RE.search(body_code)
            if lock and WAIVER not in text[lo:hi]:
                findings.append(
                    (rel, line_of(text, lo + lock.start()),
                     "lock-in-task-body",
                     "lock acquisition inside a task body; task bodies "
                     "must be lock-free (waiver: // " + WAIVER + ")"))
            for copy in GA_COPY_RE.finditer(body_code):
                findings.append(
                    (rel, line_of(text, lo + copy.start()),
                     "ga-copy-in-task-body",
                     "`get_hash_block` copies a Global Array block inside "
                     "a task body; hand it on as a view "
                     "(ga::view_hash_block)"))

        n_includes = len(re.findall(r"^\s*#\s*include\b", code, re.M))
        if n_includes > MAX_INCLUDES:
            findings.append(
                (rel, 1, "include-count",
                 f"{n_includes} includes (max {MAX_INCLUDES}); "
                 "split the file or trim the interface"))

        if is_header:
            first_directive = re.search(r"^\s*#\s*(\w+)", code, re.M)
            if not first_directive or first_directive.group(1) != "pragma" \
                    or "#pragma once" not in code:
                findings.append((rel, 1, "pragma-once",
                                 "header must start with #pragma once"))
            if re.search(r"#\s*include\s*<iostream>", code):
                findings.append(
                    (rel, line_of(text,
                                  code.find("<iostream>")),
                     "iostream-in-header",
                     "<iostream> in a src/ header; use <cstdio> or "
                     "support/log.h in the .cpp"))


def lint_bulk_copies(rel, text, code, findings):
    """bulk-copy-outside-codec: put_doubles/get_doubles calls under src/
    are allowed only inside the codec functions of src/ptg/context.cpp.
    If the codec disappears from that file the rule reports, so renaming
    it cannot silently retire the rule."""
    allowed = []
    if str(rel) == CODEC_FILE:
        found = set()
        for m in CODEC_DEF_RE.finditer(code):
            found.add(m.group(1))
            allowed.append(lambda_span(code, m.end() - 1))
        for fn in CODEC_FNS:
            if fn not in found:
                findings.append(
                    (rel, 1, "bulk-copy-outside-codec",
                     f"codec function `{fn}` not found; the data-plane "
                     "copy rule cannot anchor (update tools/lint.py if "
                     "the codec moved)"))
    for m in BULK_COPY_RE.finditer(code):
        if any(lo <= m.start() < hi for lo, hi in allowed):
            continue
        findings.append(
            (rel, line_of(text, m.start()), "bulk-copy-outside-codec",
             f"`{m.group(1)}` outside the data-plane codec (encode_buf/"
             f"decode_buf in {CODEC_FILE}); route the buffer through the "
             "codec, which ships large buffers as shared segments"))


def lint_task_path_rmw(rel, text, code, findings):
    """shared-rmw-on-task-path: no atomic read-modify-write on a
    Submission member inside the per-task Context functions. If one of them
    disappears from the file the rule reports, so renaming it cannot
    silently retire the rule."""
    found = set()
    lines = text.split("\n")
    for m in TASK_PATH_DEF_RE.finditer(code):
        found.add(m.group(1))
        lo, hi = lambda_span(code, m.end() - 1)
        for rmw in SHARED_RMW_RE.finditer(code, lo, hi):
            line = line_of(text, rmw.start())
            nearby = lines[max(0, line - 2):line]
            if any(RMW_WAIVER in l for l in nearby):
                continue
            findings.append(
                (rel, line, "shared-rmw-on-task-path",
                 f"`sub.{rmw.group(1)}.{rmw.group(2)}(` in "
                 f"Context::{m.group(1)}: every worker of the rank writes "
                 "that cache line per task; count in the worker's "
                 "WorkerScratch or under a heap's lock (waiver: // "
                 + RMW_WAIVER + ")"))
    for fn in TASK_PATH_FNS:
        if fn not in found:
            findings.append(
                (rel, 1, "shared-rmw-on-task-path",
                 f"`Context::{fn}` not found; the task-path rule cannot "
                 "anchor (update tools/lint.py if it moved)"))


RESET_FN_RE = re.compile(
    r"void\s+Context::reset_for_resubmission\s*\(\s*\)\s*\{")
# The statement that discards the finished run's state: the replacement of
# the Context's Submission.
RESET_ANCHOR_RE = re.compile(
    r"\bsub_\s*=\s*std::make_unique\s*<\s*Submission\s*>\s*\(")
# Zero-arg accessor returning a stats aggregate, e.g.
#   StealStats steal_stats() const;
#   SchedStats scheduler_stats() const;
STATS_ACCESSOR_RE = re.compile(r"\b([A-Z]\w*Stats)\s+(\w+)\s*\(\s*\)\s*const")


def reset_stats_families(header_path):
    """Discover the stats families the reset must certify: every
    `*Stats`-returning zero-arg const accessor declared in context.h.
    Returns [(type, method), ...] deduplicated by type, declaration order.
    Pattern-based on purpose: adding e.g. `ResendStats resend_stats()
    const` to the Context extends the reset obligation without touching
    this file."""
    try:
        header = header_path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    seen, families = set(), []
    for typ, method in STATS_ACCESSOR_RE.findall(
            strip_comments_and_strings(header)):
        if typ not in seen:
            seen.add(typ)
            families.append((typ, method))
    return families


def lint_reset_stats(path, rel, text, code, findings):
    """reset-stats-discipline: the persistent-Context reset must snapshot
    (acquire) every stats counter family into a local and validate() it
    before the statement that replaces the finished run's Submission —
    see src/ptg/context.h's counter-pair discipline. Anchored on
    Context::reset_for_resubmission and, inside it, on that replacement;
    if either disappears the rule reports, so a rename cannot silently
    retire it. The family list is discovered from context.h
    (reset_stats_families), and each family is matched by its snapshot
    TYPE, not the accessor spelling, so `sched.stats()` and
    `scheduler_stats()` both satisfy the SchedStats obligation."""
    m = RESET_FN_RE.search(code)
    if not m:
        findings.append(
            (rel, 1, "reset-stats-discipline",
             "Context::reset_for_resubmission not found; the reset-path "
             "stats discipline cannot be checked (update tools/lint.py if "
             "the reset moved)"))
        return
    families = reset_stats_families(path.parent / "context.h")
    if not families:
        findings.append(
            (rel, 1, "reset-stats-discipline",
             "no *Stats-returning accessors discovered in src/ptg/"
             "context.h; the reset-path stats discipline cannot be "
             "checked (update tools/lint.py if the accessors moved)"))
        return
    lo, hi = lambda_span(code, m.end() - 1)
    body = code[lo:hi]
    anchor = RESET_ANCHOR_RE.search(body)
    if not anchor:
        findings.append(
            (rel, line_of(text, lo), "reset-stats-discipline",
             "reset body never replaces the Submission (`sub_ = "
             "std::make_unique<Submission>(...)`); the rule cannot anchor "
             "(update tools/lint.py if the reset changed shape)"))
        return
    before = body[:anchor.start()]
    for typ, method in families:
        decl = re.search(r"\b" + typ + r"\s+(\w+)\s*=", before)
        if not decl:
            findings.append(
                (rel, line_of(text, lo + anchor.start()),
                 "reset-stats-discipline",
                 f"no `{typ}` snapshot (accessor `{method}()`) before the "
                 "Submission is replaced: every counter family must be "
                 "snapshotted (acquire) and validated before its counters "
                 "are discarded"))
            continue
        var = decl.group(1)
        if not re.search(r"\b" + var + r"\s*\.\s*validate\s*\(\s*\)",
                         before):
            findings.append(
                (rel, line_of(text, lo + decl.start()),
                 "reset-stats-discipline",
                 f"`{typ}` snapshot `{var}` is not validate()d before the "
                 "Submission is replaced"))


WIRE_ENUM_FILE = "src/ptg/protocol.h"
WIRE_ENUM_RE = re.compile(r"\bkWire(\w+)\s*=\s*\d+")
# A switch whose controlling expression is a message tag: `switch (tag)`,
# `switch (m.tag)`, `switch (msg->tag)`, ... — the expression must END in
# the identifier `tag` so switches over unrelated enums never match.
TAG_SWITCH_RE = re.compile(r"\bswitch\s*\(\s*([^()]*?\btag)\s*\)")
CASE_TAG_RE = re.compile(r"\bcase\s+(?:\w+\s*::\s*)*k(?:Wire|Tag)(\w+)\s*:")
DEFAULT_RAISES_RE = re.compile(
    r"\b(?:MP_REQUIRE|MP_ASSERT|MP_LOG_WARN|MP_LOG_ERROR|throw|abort)\b")

_WIRE_TAGS = None


def wire_tags():
    """Enumerator names of the WireTag enum (kWire prefix stripped),
    parsed from src/ptg/protocol.h. Cached; empty set on parse failure —
    lint_tag_switches turns that into a finding rather than silence."""
    global _WIRE_TAGS
    if _WIRE_TAGS is None:
        try:
            text = (REPO / WIRE_ENUM_FILE).read_text(encoding="utf-8",
                                                     errors="replace")
            _WIRE_TAGS = frozenset(
                WIRE_ENUM_RE.findall(strip_comments_and_strings(text)))
        except OSError:
            _WIRE_TAGS = frozenset()
    return _WIRE_TAGS


def lint_tag_switches(rel, text, code, findings):
    """wire-tag-exhaustiveness: every switch over a fabric message tag
    must handle all WireTag enumerators or carry a default that raises.
    Returns the number of tag switches inspected (context.cpp anchors on
    it being nonzero, so moving the dispatch cannot retire the rule)."""
    inspected = 0
    for m in TAG_SWITCH_RE.finditer(code):
        inspected += 1
        lo, hi = lambda_span(code, m.end())
        body = code[lo:hi]
        if not wire_tags():
            findings.append(
                (rel, line_of(text, m.start()), "wire-tag-exhaustiveness",
                 f"switch over `{m.group(1).strip()}` but no WireTag "
                 f"enumerators could be parsed from {WIRE_ENUM_FILE}; "
                 "update tools/lint.py"))
            continue
        handled = set(CASE_TAG_RE.findall(body))
        missing = sorted(wire_tags() - handled)
        if not missing:
            continue  # fully enumerated; a default is then optional
        dm = re.search(r"\bdefault\s*:", body)
        if dm:
            # The default's statement region: up to the next case label
            # (defaults normally come last, so usually the body tail).
            nxt = re.search(r"\bcase\b", body[dm.end():])
            region = body[dm.end():dm.end() + nxt.start() if nxt
                          else len(body)]
            if DEFAULT_RAISES_RE.search(region):
                continue
            findings.append(
                (rel, line_of(text, lo + dm.start()),
                 "wire-tag-exhaustiveness",
                 "tag switch default does not raise or log (need "
                 "MP_REQUIRE/MP_ASSERT/throw/abort/MP_LOG_*) and cases "
                 "miss: " + ", ".join("kWire" + t for t in missing)))
        else:
            findings.append(
                (rel, line_of(text, m.start()), "wire-tag-exhaustiveness",
                 "tag switch without default misses enumerators: "
                 + ", ".join("kWire" + t for t in missing)
                 + " (add the cases or a raising default)"))
    return inspected


def run_tidy():
    tidy = shutil.which("clang-tidy")
    if not tidy:
        print("lint.py --tidy: clang-tidy not found on this host; skipped")
        return 0
    sources = sorted(str(p) for p in (REPO / "src").rglob("*.cpp"))
    r = subprocess.run([tidy, "-p", str(REPO / "build"), *sources],
                       cwd=REPO)
    return r.returncode


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    roots = ([pathlib.Path(a) if pathlib.Path(a).is_absolute() else REPO / a
              for a in args] if args else [REPO / "src", REPO / "bench"])
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cpp")))
    findings = []
    for f in files:
        lint_file(f, findings)
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if "--tidy" in argv and run_tidy() != 0:
        return 1
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
