#!/usr/bin/env python3
"""Project lint for the rpqi tree, run from CTest and CI.

Checks that complement the compiler's own enforcement:

  discard        Status/StatusOr are [[nodiscard]] (and -Werror=unused-result
                 is on), so the *compiler* rejects silent drops. This rule
                 polices the escape hatch: every `(void)` discard cast must
                 carry a written justification on the same line:
                     (void)expr;  // lint: allow-discard <why>
                 and base/status.h must keep its [[nodiscard]] annotations.

  no-terminate   Library code under src/ must not call abort/exit/_Exit/
                 quick_exit or use a naked `new` — errors travel as Status,
                 ownership as containers/smart pointers. The single allowed
                 location is base/logging.h (RPQI_CHECK's sink).

  include-guard  Every header under src/ uses the canonical guard
                 RPQI_<DIR>_<FILE>_H_ derived from its path.

  budget-loop    Any loop that grows an automaton (calls AddState or a
                 Determinize variant) must live in a function that charges a
                 Budget, or carry an explicit waiver:
                     // lint: allow-unbudgeted <why>
                 Unbounded construction loops are how the pipeline used to
                 hang before execution budgets existed (see base/budget.h).

  fault-site     Every fault-injection site named in src/ via
                 RPQI_FAULT_POINT / RPQI_FAULT_FIRED / RPQI_FAULT_STALL must
                 (a) follow the [a-z0-9_.]+ grammar, (b) be unique across code
                 locations (one name == one failure point, so chaos specs and
                 obs counters stay unambiguous), (c) keep the site name on the
                 same line as the macro so greps and this lint can find it,
                 and (d) appear in the kKnownSites catalog in
                 tests/fault_test.cc — and vice versa, so the catalog test
                 cannot rot as sites come and go.

  service-io     Code under src/service/ and src/net/ must not write to
                 stdout/stderr directly (printf/fprintf/puts/fputs/
                 std::cout/std::cerr):
                 the serving layer speaks NDJSON on stdout, and a stray
                 diagnostic line corrupts the protocol stream. All responses
                 go through the transport's per-connection output buffers
                 (src/net), stdio included. Waiver:
                     // lint: allow-direct-io <why>
                 (In-memory formatting like snprintf is fine.)

  lock-order     src/base/thread_annotations.h declares the project lock
                 hierarchy between the RPQI_LOCK_ORDER_BEGIN/END markers
                 (one mutex name per line, outermost first). Within a
                 function, nested lock scopes (MutexLock, std::lock_guard,
                 std::unique_lock, std::scoped_lock) over *ranked* mutexes
                 must acquire strictly downward in that order — acquiring
                 upward or acquiring the same rank twice is how AB/BA
                 deadlocks are born. RPQI_REQUIRES(mu) annotations count as
                 already holding `mu` for the whole function body. Waiver,
                 on the acquisition line or the line above:
                     // lint: allow-lock-order <why>
                 The hierarchy cannot go stale: like the fault-site catalog,
                 the check runs both ways — every ranked name must be a
                 `Mutex` declared under src/, and every `Mutex` declared
                 under src/ must be ranked.
                 The rule also polices the analysis escape hatch: every
                 RPQI_NO_THREAD_SAFETY_ANALYSIS use needs a written waiver
                 on the same or the preceding line:
                     // lint: allow-no-tsa <why>

  memory-order   Every non-default std::memory_order_* argument in src/ must
                 justify itself with an `order: <why>` comment on the same
                 line, an earlier line of the same statement, or a comment
                 block immediately above the statement (either `//` or
                 `/* */` form — macro bodies can only use the latter).
                 Explicit memory_order_seq_cst is exempt (it is the
                 default); memory_order_consume is banned outright — its
                 specification is unimplementable and every compiler
                 silently promotes it.

Usage: tools/rpqi_lint.py [REPO_ROOT]
Exit status: 0 clean, 1 findings (one `file:line: rule: message` per line).
"""

import os
import re
import sys

LINT_SKIP_FILES = set()  # relative paths exempt from all rules

DISCARD_RE = re.compile(r"\(void\)\s*[A-Za-z_(]")
ALLOW_DISCARD_RE = re.compile(r"//\s*lint:\s*allow-discard\s+\S")
ALLOW_UNBUDGETED_RE = re.compile(r"//\s*lint:\s*allow-unbudgeted\s+\S")
TERMINATE_RE = re.compile(
    r"(?<![\w.])(?:std::)?(abort|_Exit|quick_exit|exit)\s*\(")
NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:]")
GROWTH_CALL_RE = re.compile(r"\b(AddState|Determinize\w*)\s*\(")
DIRECT_IO_RE = re.compile(
    r"(?<![\w.])(?:std::)?(printf|fprintf|puts|fputs|cout|cerr)\b")
ALLOW_DIRECT_IO_RE = re.compile(r"//\s*lint:\s*allow-direct-io\s+\S")
LOOP_HEADER_RE = re.compile(r"(?<![\w.])(for|while)\s*\(")
BUDGET_MENTION_RE = re.compile(r"[Bb]udget")
FAULT_MACRO_RE = re.compile(r"\bRPQI_FAULT_(?:POINT|FIRED|STALL)\s*\(")
FAULT_SITE_RE = re.compile(
    r"\bRPQI_FAULT_(?:POINT|FIRED|STALL)\s*\(\s*\"([^\"]*)\"")
FAULT_NAME_RE = re.compile(r"[a-z0-9_.]+\Z")
FAULT_CATALOG_PATH = os.path.join("tests", "fault_test.cc")
LOCK_HIERARCHY_PATH = os.path.join("src", "base", "thread_annotations.h")
ACQUIRE_RE = re.compile(
    r"\b(?:MutexLock|std::lock_guard|std::unique_lock|std::scoped_lock)"
    r"\s*(?:<[^<>]*>)?\s+\w+\s*[({]\s*([^(),;{}]+)")
REQUIRES_RE = re.compile(r"\bRPQI_REQUIRES\s*\(([^()]*)\)")
TRAILING_IDENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*$")
ALLOW_LOCK_ORDER_RE = re.compile(r"//\s*lint:\s*allow-lock-order\s+\S")
MUTEX_DECL_RE = re.compile(r"(?<![\w:])Mutex\s+([A-Za-z_]\w*)\s*[;{(=]")
NO_TSA_RE = re.compile(r"\bRPQI_NO_THREAD_SAFETY_ANALYSIS\b")
ALLOW_NO_TSA_RE = re.compile(r"//\s*lint:\s*allow-no-tsa\s+\S")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order_(\w+)")
ORDER_COMMENT_RE = re.compile(r"(?://|/\*)\s*order:\s*\S")


def strip_code_line(line):
    """Removes string/char literals and // comments from one line.

    Good enough for lint purposes: the codebase has no multi-line raw strings
    in library code (the CLI usage text lives in tools/, where only the
    discard rule runs, keyed on `(void)` which the usage text never contains).
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_block_comments(lines):
    """Returns code-only lines with /* */ regions and literals removed."""
    stripped = []
    in_block = False
    for line in lines:
        if in_block:
            end = line.find("*/")
            if end < 0:
                stripped.append("")
                continue
            line = line[end + 2:]
            in_block = False
        code = strip_code_line(line)
        while True:
            start = code.find("/*")
            if start < 0:
                break
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block = True
                break
            code = code[:start] + " " + code[end + 2:]
        stripped.append(code)
    return stripped


def iter_source_files(root, subdirs, exts):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in exts:
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    if rel not in LINT_SKIP_FILES:
                        yield rel


def check_discards(rel, raw_lines, code_lines, findings):
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if DISCARD_RE.search(code) and not ALLOW_DISCARD_RE.search(raw):
            findings.append(
                (rel, lineno, "discard",
                 "`(void)` discard without `// lint: allow-discard <why>`"))


def check_nodiscard_annotations(root, findings):
    rel = os.path.join("src", "base", "status.h")
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        text = f.read()
    for cls in ("Status", "StatusOr"):
        if not re.search(r"class \[\[nodiscard\]\] " + cls + r"\b", text):
            findings.append(
                (rel, 1, "discard",
                 f"class {cls} lost its [[nodiscard]] annotation"))


def check_terminate(rel, code_lines, findings):
    if rel == os.path.join("src", "base", "logging.h"):
        return
    for lineno, code in enumerate(code_lines, 1):
        m = TERMINATE_RE.search(code)
        if m:
            findings.append(
                (rel, lineno, "no-terminate",
                 f"call to {m.group(1)}() in library code "
                 "(return a Status instead)"))
        m = NAKED_NEW_RE.search(code)
        if m:
            findings.append(
                (rel, lineno, "no-terminate",
                 "naked `new` in library code "
                 "(use containers or std::make_unique)"))


def check_service_io(rel, raw_lines, code_lines, findings):
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        m = DIRECT_IO_RE.search(code)
        if m and not ALLOW_DIRECT_IO_RE.search(raw):
            findings.append(
                (rel, lineno, "service-io",
                 f"direct {m.group(1)} in the serving layer corrupts the "
                 "NDJSON stream; route output through the transport or "
                 "add `// lint: allow-direct-io <why>`"))


def check_include_guard(rel, code_lines, findings):
    stem = re.sub(r"[^A-Za-z0-9]", "_", os.path.relpath(rel, "src"))
    guard = "RPQI_" + stem.upper() + "_"
    text = "\n".join(code_lines)
    if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
        findings.append(
            (rel, 1, "include-guard",
             f"expected include guard {guard} (#ifndef + #define)"))


def enclosing_function_region(code_lines, index):
    """Approximates the enclosing function of line `index` (0-based).

    Functions in this codebase close with a `}` at column zero, so the region
    runs from just after the previous such line to the next one.
    """
    start = 0
    for i in range(index - 1, -1, -1):
        if code_lines[i].startswith("}"):
            start = i + 1
            break
    end = len(code_lines)
    for i in range(index, len(code_lines)):
        if code_lines[i].startswith("}"):
            end = i + 1
            break
    return start, end


def check_budget_loops(rel, raw_lines, code_lines, findings):
    # Track which open braces belong to loop constructs; a growth call is
    # "in a loop" when any enclosing brace is a loop brace. Brace-free
    # single-statement loops are caught by the pending-header state.
    loop_stack = []  # True for braces opened by a for/while header
    pending_loop_header = False
    for lineno, code in enumerate(code_lines, 1):
        is_loop_line = bool(LOOP_HEADER_RE.search(code))
        in_loop = (any(loop_stack) or pending_loop_header or is_loop_line)
        m = GROWTH_CALL_RE.search(code)
        if m and in_loop:
            index = lineno - 1
            start, end = enclosing_function_region(code_lines, index)
            region_code = "\n".join(code_lines[start:end])
            region_raw = "\n".join(raw_lines[start:end])
            if not (BUDGET_MENTION_RE.search(region_code)
                    or ALLOW_UNBUDGETED_RE.search(region_raw)):
                findings.append(
                    (rel, lineno, "budget-loop",
                     f"loop calls {m.group(1)}() but the enclosing function "
                     "neither charges a Budget nor carries "
                     "`// lint: allow-unbudgeted <why>`"))
        for c in code:
            if c == "{":
                loop_stack.append(is_loop_line or pending_loop_header)
                pending_loop_header = False
            elif c == "}" and loop_stack:
                loop_stack.pop()
        if is_loop_line and "{" not in code:
            pending_loop_header = True
        elif code.strip() and not is_loop_line:
            pending_loop_header = False


def check_fault_sites(rel, raw_lines, code_lines, fault_sites, findings):
    """Collects RPQI_FAULT_* site names into `fault_sites` (name -> (rel,
    lineno) of first sighting), flagging grammar breaks, duplicates, and
    names split off the macro line. Matches run on the raw line (string
    literals survive there) gated on the stripped line (so the worked
    example in fault.h's doc comment is not a site)."""
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        macro = FAULT_MACRO_RE.search(code)
        if not macro:
            continue
        m = FAULT_SITE_RE.search(raw)
        if not m:
            # The macro definitions themselves (`#define RPQI_FAULT_...`)
            # take an unquoted parameter; only call sites must inline a
            # string literal.
            if not code.lstrip().startswith("#define"):
                findings.append(
                    (rel, lineno, "fault-site",
                     "fault site name must be a string literal on the same "
                     "line as the RPQI_FAULT_* macro"))
            continue
        name = m.group(1)
        if not FAULT_NAME_RE.match(name):
            findings.append(
                (rel, lineno, "fault-site",
                 f'site "{name}" breaks the [a-z0-9_.]+ grammar'))
            continue
        if name in fault_sites:
            first_rel, first_line = fault_sites[name]
            findings.append(
                (rel, lineno, "fault-site",
                 f'site "{name}" already used at {first_rel}:{first_line}; '
                 "one name means one failure point"))
        else:
            fault_sites[name] = (rel, lineno)


def check_fault_catalog(root, fault_sites, findings):
    """Cross-checks code sites against kKnownSites in tests/fault_test.cc."""
    rel = FAULT_CATALOG_PATH
    try:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
    except OSError:
        findings.append(
            (rel, 1, "fault-site",
             "missing fault-site catalog (kKnownSites) test file"))
        return
    m = re.search(r"kKnownSites\[\]\s*=\s*\{(.*?)\}", text, re.DOTALL)
    if not m:
        findings.append(
            (rel, 1, "fault-site", "kKnownSites array not found"))
        return
    start_line = text[:m.start()].count("\n") + 1
    catalog = {}
    for offset, line in enumerate(m.group(1).splitlines()):
        for name in re.findall(r'"([^"]*)"', line):
            catalog[name] = start_line + offset
    for name, (site_rel, site_line) in sorted(fault_sites.items()):
        if name not in catalog:
            findings.append(
                (site_rel, site_line, "fault-site",
                 f'site "{name}" is missing from kKnownSites in {rel}'))
    for name, lineno in sorted(catalog.items()):
        if name not in fault_sites:
            findings.append(
                (rel, lineno, "fault-site",
                 f'catalog entry "{name}" has no RPQI_FAULT_* call site '
                 "under src/"))


def load_lock_hierarchy(root, findings):
    """Parses the declared lock order from thread_annotations.h.

    Returns ({mutex_name: rank}, {mutex_name: lineno}) with rank 0 =
    outermost; the line map is None when there is no block. A missing file
    or marker block is itself a finding: the hierarchy is the rule's source
    of truth, so losing it must fail the lint rather than silently disable
    it.
    """
    rel = LOCK_HIERARCHY_PATH
    try:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        findings.append(
            (rel, 1, "lock-order", "missing lock-hierarchy header"))
        return {}, None
    ranks = {}
    rank_lines = {}
    in_block = False
    for lineno, line in enumerate(lines, 1):
        if "RPQI_LOCK_ORDER_BEGIN" in line:
            in_block = True
            continue
        if "RPQI_LOCK_ORDER_END" in line:
            return ranks, rank_lines
        if in_block:
            tokens = line.lstrip("/ \t").split()
            if tokens:
                ranks[tokens[0]] = len(ranks)
                rank_lines[tokens[0]] = lineno
    findings.append(
        (rel, 1, "lock-order",
         "RPQI_LOCK_ORDER_BEGIN/END hierarchy block not found"))
    return {}, None


def collect_mutex_decls(rel, code_lines, mutex_decls):
    """Records every `Mutex name` declaration as name -> (rel, lineno)."""
    for lineno, code in enumerate(code_lines, 1):
        for m in MUTEX_DECL_RE.finditer(code):
            mutex_decls.setdefault(m.group(1), (rel, lineno))


def check_lock_catalog(rank_lines, mutex_decls, findings):
    """Cross-checks the hierarchy block against the Mutex declarations under
    src/, both ways, so a removed lock cannot leave a stale rank behind and
    a new lock cannot skip the hierarchy."""
    if rank_lines is None:
        return  # the missing block is already a finding
    for name, lineno in sorted(rank_lines.items()):
        if name not in mutex_decls:
            findings.append(
                (LOCK_HIERARCHY_PATH, lineno, "lock-order",
                 f"ranked name `{name}` is not a Mutex declared under src/ "
                 "(stale rank)"))
    for name, (rel, lineno) in sorted(mutex_decls.items()):
        if name not in rank_lines:
            findings.append(
                (rel, lineno, "lock-order",
                 f"Mutex `{name}` is not ranked in the RPQI_LOCK_ORDER "
                 f"block of {LOCK_HIERARCHY_PATH}"))


def line_has_waiver(raw_lines, index, waiver_re):
    """True when `waiver_re` matches line `index` (0-based) or the line
    immediately above it (the 80-column escape)."""
    if waiver_re.search(raw_lines[index]):
        return True
    return index > 0 and waiver_re.search(raw_lines[index - 1])


def ranked_names(arg_text, ranks):
    """Mutex names from an annotation/constructor argument list, keeping only
    ranked ones. `&reg.fault_mu, shard->shard_mu` -> [fault_mu, shard_mu]."""
    names = []
    for arg in arg_text.split(","):
        m = TRAILING_IDENT_RE.search(arg.strip())
        if m and m.group(1) in ranks:
            names.append(m.group(1))
    return names


def check_lock_order(rel, raw_lines, code_lines, ranks, findings):
    """Lexically tracks nested lock scopes per brace depth and flags
    acquisitions that violate the declared hierarchy, plus unjustified
    RPQI_NO_THREAD_SAFETY_ANALYSIS waivers."""
    held = []  # (name, rank, depth) — popped when depth drops below `depth`
    depth = 0
    pending_requires = []  # REQUIRES names awaiting the function's open brace
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        stripped = code.lstrip()
        if stripped.startswith("#"):
            continue  # the macros' own definitions are not uses
        if NO_TSA_RE.search(code) and not line_has_waiver(
                raw_lines, lineno - 1, ALLOW_NO_TSA_RE):
            findings.append(
                (rel, lineno, "lock-order",
                 "RPQI_NO_THREAD_SAFETY_ANALYSIS without "
                 "`// lint: allow-no-tsa <why>` on this or the line above"))
        for m in REQUIRES_RE.finditer(code):
            pending_requires.extend(ranked_names(m.group(1), ranks))
        acquisitions = []
        for m in ACQUIRE_RE.finditer(code):
            acquisitions.extend(ranked_names(m.group(1), ranks))
        waived = line_has_waiver(raw_lines, lineno - 1, ALLOW_LOCK_ORDER_RE)
        for name in acquisitions:
            rank = ranks[name]
            for held_name, held_rank, _ in held:
                if waived:
                    continue
                if held_name == name:
                    findings.append(
                        (rel, lineno, "lock-order",
                         f"acquires `{name}` while already holding it "
                         "(double acquisition of a non-reentrant mutex)"))
                elif rank <= held_rank:
                    findings.append(
                        (rel, lineno, "lock-order",
                         f"acquires `{name}` (rank {rank}) while holding "
                         f"`{held_name}` (rank {held_rank}); the declared "
                         "order in base/thread_annotations.h is "
                         "outermost-first"))
            held.append((name, rank, depth))
        for c in code:
            if c == "{":
                depth += 1
                if pending_requires:
                    for name in pending_requires:
                        held.append((name, ranks[name], depth))
                    pending_requires = []
            elif c == "}":
                depth = max(0, depth - 1)
                held = [h for h in held if h[2] <= depth]
        # A declaration (`... RPQI_REQUIRES(mu);`) has no body to hold the
        # lock in: a `;` that arrives before the open brace cancels it.
        if pending_requires and ";" in code:
            pending_requires = []


def statement_start(code_lines, index):
    """First line (0-based) of the statement containing line `index`: walks
    up while the previous line is a non-terminated code line."""
    while index > 0:
        prev = code_lines[index - 1].strip()
        if not prev or prev[-1] in ";{}" or prev.startswith("#"):
            return index
        index -= 1
    return index


def has_order_comment(raw_lines, code_lines, index):
    """True when an `order: <why>` comment covers line `index` (0-based):
    on any line of the enclosing statement, or in the comment block
    immediately above it."""
    start = statement_start(code_lines, index)
    for i in range(start, index + 1):
        if ORDER_COMMENT_RE.search(raw_lines[i]):
            return True
    i = start - 1
    while i >= 0 and code_lines[i].strip() == "" and raw_lines[i].strip():
        if ORDER_COMMENT_RE.search(raw_lines[i]):
            return True
        i -= 1
    return False


def check_memory_order(rel, raw_lines, code_lines, findings):
    for lineno, code in enumerate(code_lines, 1):
        for m in MEMORY_ORDER_RE.finditer(code):
            order = m.group(1)
            if order == "consume":
                findings.append(
                    (rel, lineno, "memory-order",
                     "memory_order_consume is banned (unimplementable; "
                     "compilers silently promote it) — use acquire"))
            elif order != "seq_cst" and not has_order_comment(
                    raw_lines, code_lines, lineno - 1):
                findings.append(
                    (rel, lineno, "memory-order",
                     f"memory_order_{order} without an `order: <why>` "
                     "comment on the statement or immediately above it"))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = []
    fault_sites = {}
    mutex_decls = {}
    lock_ranks, rank_lines = load_lock_hierarchy(root, findings)

    for rel in iter_source_files(root, ["src", "tools"], {".h", ".cc"}):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        code_lines = strip_block_comments(raw_lines)
        check_discards(rel, raw_lines, code_lines, findings)
        if rel.startswith("src" + os.sep):
            check_terminate(rel, code_lines, findings)
            check_fault_sites(rel, raw_lines, code_lines, fault_sites,
                              findings)
            check_lock_order(rel, raw_lines, code_lines, lock_ranks,
                             findings)
            collect_mutex_decls(rel, code_lines, mutex_decls)
            check_memory_order(rel, raw_lines, code_lines, findings)
            if rel.endswith(".h"):
                check_include_guard(rel, code_lines, findings)
            if rel.endswith(".cc"):
                check_budget_loops(rel, raw_lines, code_lines, findings)
            if (rel.startswith(os.path.join("src", "service") + os.sep)
                    or rel.startswith(os.path.join("src", "net") + os.sep)):
                check_service_io(rel, raw_lines, code_lines, findings)

    check_nodiscard_annotations(root, findings)
    check_fault_catalog(root, fault_sites, findings)
    check_lock_catalog(rank_lines, mutex_decls, findings)

    for rel, lineno, rule, message in sorted(findings):
        print(f"{rel}:{lineno}: {rule}: {message}")
    if findings:
        print(f"rpqi_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("rpqi_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
