#!/usr/bin/env python3
"""Tests for tools/bench_diff.py.

Usage: bench_diff_test.py PATH_TO_BENCH_DIFF

Exercises the hardening this tool grew alongside the observability layer:
  * zero / near-zero baseline medians are skipped (no ZeroDivisionError);
  * counters present in only one run report as added/removed, never crash;
  * counter drift, added/removed counters and benchmark rows missing from
    the new run exit 1 under --counters fail, 0 under the warn default;
    rows only in the new run are listed, never gated;
  * --fail-on-regression still gates timing regressions;
  * non-numeric entry values are ignored rather than compared.
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok: {label}")
    else:
        FAILURES.append(label)
        print(f"FAIL: {label} {detail}")


def write_bench(directory, filename, entries):
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        json.dump({"bench": filename, "entries": entries}, handle)
    return path


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: bench_diff_test.py BENCH_DIFF_PY")
    bench_diff = sys.argv[1]
    tmp = tempfile.mkdtemp(prefix="rpqi_bench_diff_")

    def run(old_entries, new_entries, *extra):
        old_dir = tempfile.mkdtemp(dir=tmp)
        new_dir = tempfile.mkdtemp(dir=tmp)
        write_bench(old_dir, "BENCH_t.json", old_entries)
        write_bench(new_dir, "BENCH_t.json", new_entries)
        return subprocess.run(
            [sys.executable, bench_diff, old_dir, new_dir] + list(extra),
            capture_output=True, text=True)

    # --- near-zero baselines ----------------------------------------------
    result = run([{"name": "fast", "median_ms": 0.0, "states": 5}],
                 [{"name": "fast", "median_ms": 9.9, "states": 5}])
    check("zero baseline median does not crash", result.returncode == 0,
          result.stderr)
    check("zero baseline is reported as skipped",
          "below min-time floor" in result.stdout, result.stdout)
    result = run([{"name": "fast", "median_ms": 0.01}],
                 [{"name": "fast", "median_ms": 5.0}],
                 "--fail-on-regression")
    check("sub-floor baseline never flags a regression",
          result.returncode == 0 and "REGRESSIONS" not in result.stdout,
          result.stdout)
    result = run([{"name": "fast", "median_ms": 0.01}],
                 [{"name": "fast", "median_ms": 5.0}],
                 "--fail-on-regression", "--min-time-ms", "0")
    check("floor of 0 restores the comparison", result.returncode == 1,
          result.stdout)

    # --- added/removed counters -------------------------------------------
    result = run([{"name": "b", "median_ms": 1.0, "old_only": 3}],
                 [{"name": "b", "median_ms": 1.0, "new_only": 7}],
                 "--counters", "fail")
    check("disjoint counter sets fail --counters fail",
          result.returncode == 1, result.stdout)
    check("removed counter is reported",
          "counter removed: old_only" in result.stdout, result.stdout)
    check("added counter is reported",
          "counter added: new_only" in result.stdout, result.stdout)
    # One direction at a time: a counter that fell to zero drops out of the
    # entry; a counter that appears is new work. Both are counter changes.
    kept = {"name": "b", "median_ms": 1.0, "states": 5}
    result = run([dict(kept, gone=2)], [dict(kept)], "--counters", "fail")
    check("removed counter alone fails --counters fail",
          result.returncode == 1
          and "counter removed: gone" in result.stdout, result.stdout)
    result = run([dict(kept)], [dict(kept, fresh=4)], "--counters", "fail")
    check("added counter alone fails --counters fail",
          result.returncode == 1
          and "counter added: fresh" in result.stdout, result.stdout)
    result = run([dict(kept, gone=2)], [dict(kept, fresh=4)])
    check("counter set changes default to warn-only exit 0",
          result.returncode == 0
          and "counter set changes" in result.stdout, result.stdout)

    # --- counter drift gating ---------------------------------------------
    old = [{"name": "b", "median_ms": 1.0, "states_explored": 100}]
    drifted = [{"name": "b", "median_ms": 1.0, "states_explored": 101}]
    result = run(old, drifted, "--counters", "fail")
    check("counter drift with --counters fail exits 1",
          result.returncode == 1, result.stdout)
    check("drift names the counter and both values",
          "states_explored 100 -> 101" in result.stdout, result.stdout)
    result = run(old, drifted)
    check("counter drift defaults to warn-only exit 0",
          result.returncode == 0 and "counter drifts" in result.stdout,
          result.stdout)
    result = run(old, list(old), "--counters", "fail")
    check("identical counters pass --counters fail",
          result.returncode == 0, result.stdout)

    # --- timing regressions unchanged -------------------------------------
    slow = [{"name": "b", "median_ms": 10.0}]
    slower = [{"name": "b", "median_ms": 20.0}]
    result = run(slow, slower)
    check("timing regression warns by default",
          result.returncode == 0 and "REGRESSIONS" in result.stdout,
          result.stdout)
    result = run(slow, slower, "--fail-on-regression")
    check("timing regression fails when asked", result.returncode == 1,
          result.stdout)

    # --- non-numeric values and disjoint benchmark sets --------------------
    result = run([{"name": "b", "median_ms": 1.0, "series": "hard",
                   "label": "x"}],
                 [{"name": "c", "median_ms": 1.0, "label": "y"}],
                 "--counters", "fail")
    check("string-valued keys and disjoint names do not crash",
          "Traceback" not in result.stderr, result.stderr)
    check("disjoint names fail --counters fail (row b is missing)",
          result.returncode == 1, result.stdout)
    check("unmatched benchmarks are listed",
          "only in baseline" in result.stdout
          and "only in new run" in result.stdout, result.stdout)

    # --- missing rows -----------------------------------------------------
    # A bench binary drops a run that calls SkipWithError and still exits 0,
    # so a benchmark that starts failing shows up only as a missing row.
    rows = [{"name": "kept", "median_ms": 1.0, "states": 5},
            {"name": "skipped", "median_ms": 1.0, "states": 6}]
    result = run(rows, rows[:1], "--counters", "fail")
    check("a row missing from the new run fails --counters fail",
          result.returncode == 1
          and "only in baseline:\n  skipped" in result.stdout, result.stdout)
    result = run(rows, rows[:1])
    check("a missing row is warn-only by default",
          result.returncode == 0 and "only in baseline" in result.stdout,
          result.stdout)
    result = run(rows[:1], rows, "--counters", "fail")
    check("a row only in the new run is listed, not gated",
          result.returncode == 0
          and "only in new run:\n  skipped" in result.stdout, result.stdout)

    if FAILURES:
        print(f"\n{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("\nall bench_diff checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
