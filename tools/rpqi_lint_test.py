#!/usr/bin/env python3
"""Tests for tools/rpqi_lint.py.

Usage: rpqi_lint_test.py PATH_TO_RPQI_LINT

Builds throwaway mini-repos (src/ + tests/ fixtures in a tempdir) and runs
the lint against them, asserting that every rule both fires on a violation
and stays quiet on the idiomatic form:

  discard        (void) casts need a waiver; status.h keeps [[nodiscard]].
  no-terminate   abort/exit and naked `new` are banned in library code.
  include-guard  RPQI_<PATH>_H_ guards derived from the file path.
  budget-loop    growth calls inside loops need a Budget or a waiver.
  fault-site     grammar, uniqueness, same-line names, catalog sync.
  service-io     no stdout/stderr writes under src/service/ or src/net/.
  lock-order     hierarchy violations, double acquisition, REQUIRES-held
                 locks, allow-lock-order waivers, allow-no-tsa waivers,
                 a missing hierarchy block, a stale rank and an unranked
                 mutex.
  memory-order   non-seq_cst orders need `order:` comments; consume banned.
"""

import os
import subprocess
import sys
import tempfile

FAILURES = []

# A minimal status.h satisfying the lint's [[nodiscard]] cross-check; every
# fixture repo carries it because check_nodiscard_annotations always runs.
STATUS_H = """\
#ifndef RPQI_BASE_STATUS_H_
#define RPQI_BASE_STATUS_H_
namespace rpqi {
class [[nodiscard]] Status {};
template <typename T>
class [[nodiscard]] StatusOr {};
}  // namespace rpqi
#endif  // RPQI_BASE_STATUS_H_
"""

# A minimal thread_annotations.h with a 3-level hierarchy for the lock-order
# rule. outer_mu > middle_mu > inner_mu.
THREAD_ANNOTATIONS_H = """\
#ifndef RPQI_BASE_THREAD_ANNOTATIONS_H_
#define RPQI_BASE_THREAD_ANNOTATIONS_H_
// RPQI_LOCK_ORDER_BEGIN
//   outer_mu    fixture outermost lock
//   middle_mu   fixture middle lock
//   inner_mu    fixture innermost lock
// RPQI_LOCK_ORDER_END
#define RPQI_REQUIRES(...)
#define RPQI_NO_THREAD_SAFETY_ANALYSIS
#endif  // RPQI_BASE_THREAD_ANNOTATIONS_H_
"""

# The fixture hierarchy's mutexes, declared under src/ so the lock-order
# rule's declaration cross-check passes on the baseline.
FIXTURE_LOCKS_CC = """\
Mutex outer_mu;
Mutex middle_mu;
Mutex inner_mu;
"""

FAULT_CATALOG = """\
const char* const kKnownSites[] = {};
"""

FAULT_CATALOG_GOOD_SITE = """\
const char* const kKnownSites[] = {
    "good.site",
};
"""


def check(label, condition, detail=""):
    if condition:
        print(f"ok: {label}")
    else:
        FAILURES.append(label)
        print(f"FAIL: {label} {detail}")


def run_lint(lint_py, files):
    """Writes `files` ({relpath: text}) into a fresh repo root and lints it.

    Every fixture gets the baseline status.h / thread_annotations.h /
    fault-catalog files unless the caller overrides them.
    """
    root = tempfile.mkdtemp(prefix="rpqi_lint_fix_")
    merged = {
        os.path.join("src", "base", "status.h"): STATUS_H,
        os.path.join("src", "base", "thread_annotations.h"):
            THREAD_ANNOTATIONS_H,
        os.path.join("src", "base", "fixture_locks.cc"): FIXTURE_LOCKS_CC,
        os.path.join("tests", "fault_test.cc"): FAULT_CATALOG,
    }
    merged.update(files)
    for rel, text in merged.items():
        if text is None:
            continue  # caller removed a baseline file
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    result = subprocess.run([sys.executable, lint_py, root],
                            capture_output=True, text=True)
    return result.returncode, result.stdout


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: rpqi_lint_test.py RPQI_LINT_PY")
    lint = sys.argv[1]

    # --- baseline ----------------------------------------------------------
    code, out = run_lint(lint, {})
    check("baseline fixture is clean", code == 0, out)

    # --- discard -----------------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/a.cc": "void F() {\n  (void)G();\n}\n",
    })
    check("bare (void) discard fires", code == 1 and "discard" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  (void)G();  // lint: allow-discard result checked upstream\n"
            "}\n",
    })
    check("waived (void) discard passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/status.h": STATUS_H.replace("class [[nodiscard]] Status",
                                              "class Status"),
    })
    check("stripped [[nodiscard]] on Status fires",
          code == 1 and "lost its [[nodiscard]]" in out, out)

    # --- no-terminate ------------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/a.cc": "void F() {\n  abort();\n}\n",
    })
    check("abort() in library code fires",
          code == 1 and "no-terminate" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc": "void F() {\n  auto* p = new int;\n}\n",
    })
    check("naked new fires", code == 1 and "naked `new`" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n  auto p = std::make_unique<int>();\n}\n",
    })
    check("make_unique passes", code == 0, out)

    # --- include-guard -----------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/widget.h": "#pragma once\nint x;\n",
    })
    check("pragma once instead of guard fires",
          code == 1 and "include-guard" in out
          and "RPQI_BASE_WIDGET_H_" in out, out)
    code, out = run_lint(lint, {
        "src/base/widget.h":
            "#ifndef RPQI_BASE_WIDGET_H_\n"
            "#define RPQI_BASE_WIDGET_H_\n"
            "#endif  // RPQI_BASE_WIDGET_H_\n",
    })
    check("canonical guard passes", code == 0, out)

    # --- budget-loop -------------------------------------------------------
    code, out = run_lint(lint, {
        "src/automata/grow.cc":
            "void Grow(Nfa* nfa) {\n"
            "  while (true) {\n"
            "    nfa->AddState();\n"
            "  }\n"
            "}\n",
    })
    check("unbudgeted growth loop fires",
          code == 1 and "budget-loop" in out, out)
    code, out = run_lint(lint, {
        "src/automata/grow.cc":
            "Status Grow(Nfa* nfa, Budget* budget) {\n"
            "  while (true) {\n"
            "    RPQI_RETURN_IF_ERROR(budget->Check());\n"
            "    nfa->AddState();\n"
            "  }\n"
            "}\n",
    })
    check("budget-charging growth loop passes", code == 0, out)

    # --- fault-site --------------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/a.cc":
            'void F() {\n  if (RPQI_FAULT_FIRED("Bad.Site")) return;\n}\n',
        "tests/fault_test.cc":
            'const char* const kKnownSites[] = {\n    "Bad.Site",\n};\n',
    })
    check("uppercase fault-site name fires",
          code == 1 and "fault-site" in out and "grammar" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            'void F() {\n  if (RPQI_FAULT_FIRED("good.site")) return;\n}\n',
        "src/base/b.cc":
            'void G() {\n  if (RPQI_FAULT_FIRED("good.site")) return;\n}\n',
        "tests/fault_test.cc": FAULT_CATALOG_GOOD_SITE,
    })
    check("duplicate fault-site fires",
          code == 1 and "already used" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            'void F() {\n  if (RPQI_FAULT_FIRED("good.site")) return;\n}\n',
        "tests/fault_test.cc": FAULT_CATALOG_GOOD_SITE,
    })
    check("cataloged unique fault-site passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            'void F() {\n  if (RPQI_FAULT_FIRED("other.site")) return;\n}\n',
        "tests/fault_test.cc": FAULT_CATALOG_GOOD_SITE,
    })
    check("uncataloged fault-site fires (both directions)",
          code == 1 and "missing from kKnownSites" in out
          and "has no RPQI_FAULT_* call site" in out, out)

    # --- service-io --------------------------------------------------------
    code, out = run_lint(lint, {
        "src/service/a.cc":
            '#include <cstdio>\nvoid F() {\n  printf("hi\\n");\n}\n',
    })
    check("printf under src/service fires",
          code == 1 and "service-io" in out, out)
    code, out = run_lint(lint, {
        "src/net/a.cc":
            '#include <cstdio>\nvoid F() {\n  printf("hi\\n");\n}\n',
    })
    check("printf under src/net fires",
          code == 1 and "service-io" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            '#include <cstdio>\nvoid F() {\n  printf("hi\\n");\n}\n',
    })
    check("printf outside src/service passes (service-io scope)",
          "service-io" not in out, out)

    # --- lock-order --------------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  MutexLock lock(&inner_mu);\n"
            "  MutexLock inner(&outer_mu);\n"
            "}\n",
    })
    check("inverted lock order fires",
          code == 1 and "lock-order" in out and "rank" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  MutexLock lock(&outer_mu);\n"
            "  MutexLock inner(&inner_mu);\n"
            "}\n",
    })
    check("declared-order nesting passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  MutexLock lock(&middle_mu);\n"
            "  {\n"
            "    MutexLock again(&middle_mu);\n"
            "  }\n"
            "}\n",
    })
    check("double acquisition fires",
          code == 1 and "already holding it" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  for (auto& shard : shards) {\n"
            "    MutexLock lock(&middle_mu);\n"
            "  }\n"
            "  MutexLock after(&middle_mu);\n"
            "}\n",
    })
    check("sequential (non-nested) same-lock scopes pass", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() RPQI_REQUIRES(middle_mu) {\n"
            "  MutexLock lock(&outer_mu);\n"
            "}\n",
    })
    check("REQUIRES counts as held", code == 1 and "lock-order" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.h":
            "#ifndef RPQI_BASE_A_H_\n"
            "#define RPQI_BASE_A_H_\n"
            "void F() RPQI_REQUIRES(middle_mu);\n"
            "void G() {\n"
            "  MutexLock lock(&outer_mu);\n"
            "}\n"
            "#endif  // RPQI_BASE_A_H_\n",
    })
    check("REQUIRES on a declaration does not leak into the next function",
          code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  MutexLock lock(&inner_mu);\n"
            "  // lint: allow-lock-order fixture justification\n"
            "  MutexLock inner(&outer_mu);\n"
            "}\n",
    })
    check("allow-lock-order waiver passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() RPQI_NO_THREAD_SAFETY_ANALYSIS {\n}\n",
    })
    check("bare NO_THREAD_SAFETY_ANALYSIS fires",
          code == 1 and "allow-no-tsa" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "// lint: allow-no-tsa fixture protocol justification\n"
            "void F() RPQI_NO_THREAD_SAFETY_ANALYSIS {\n}\n",
    })
    check("waived NO_THREAD_SAFETY_ANALYSIS passes", code == 0, out)
    code, out = run_lint(lint, {
        os.path.join("src", "base", "thread_annotations.h"):
            "#ifndef RPQI_BASE_THREAD_ANNOTATIONS_H_\n"
            "#define RPQI_BASE_THREAD_ANNOTATIONS_H_\n"
            "#endif  // RPQI_BASE_THREAD_ANNOTATIONS_H_\n",
    })
    check("missing hierarchy block fires",
          code == 1 and "hierarchy block not found" in out, out)
    code, out = run_lint(lint, {
        os.path.join("src", "base", "thread_annotations.h"):
            THREAD_ANNOTATIONS_H.replace(
                "//   inner_mu    fixture innermost lock\n",
                "//   inner_mu    fixture innermost lock\n"
                "//   gone_mu     fixture lock whose Mutex was deleted\n"),
    })
    check("stale rank (no Mutex declared under src/) fires",
          code == 1 and "`gone_mu`" in out and "stale rank" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.h":
            "#ifndef RPQI_BASE_A_H_\n"
            "#define RPQI_BASE_A_H_\n"
            "class A {\n"
            "  mutable Mutex rogue_mu_;\n"
            "};\n"
            "#endif  // RPQI_BASE_A_H_\n",
    })
    check("unranked Mutex declaration fires",
          code == 1 and "`rogue_mu_` is not ranked" in out
          and "src/base/a.h:4" in out, out)

    # --- memory-order ------------------------------------------------------
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  flag.load(std::memory_order_relaxed);\n"
            "}\n",
    })
    check("unjustified relaxed order fires",
          code == 1 and "memory-order" in out, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  flag.load(std::memory_order_relaxed);  // order: gate only\n"
            "}\n",
    })
    check("same-line order comment passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  // order: pairs with the release store in G; the comment\n"
            "  // may span lines\n"
            "  flag.load(\n"
            "      std::memory_order_acquire);\n"
            "}\n",
    })
    check("preceding-comment + wrapped statement passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.h":
            "#ifndef RPQI_BASE_A_H_\n"
            "#define RPQI_BASE_A_H_\n"
            "#define GATE()                                             \\\n"
            "  (g_on.load(                                              \\\n"
            "       std::memory_order_relaxed /* order: gate only */))\n"
            "#endif  // RPQI_BASE_A_H_\n",
    })
    check("block-comment order waiver in a macro passes", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  flag.load(std::memory_order_seq_cst);\n"
            "}\n",
    })
    check("explicit seq_cst needs no comment", code == 0, out)
    code, out = run_lint(lint, {
        "src/base/a.cc":
            "void F() {\n"
            "  // order: no justification saves consume\n"
            "  flag.load(std::memory_order_consume);\n"
            "}\n",
    })
    check("memory_order_consume is banned outright",
          code == 1 and "consume" in out, out)

    print()
    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("rpqi_lint_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
