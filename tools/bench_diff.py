#!/usr/bin/env python3
"""Compare two bench runs (BENCH_*.json files written by the bench binaries).

Usage:
  bench_diff.py BASELINE NEW [--threshold 0.20] [--min-time-ms 0.05]
                [--fail-on-regression] [--counters warn|fail]

BASELINE and NEW are either single BENCH_*.json files or directories that are
scanned for BENCH_*.json. Entries are matched by benchmark name; a wall-time
increase beyond the threshold (default 20%) is flagged as a regression, a
matching decrease as an improvement. Entries whose baseline time is below
--min-time-ms are skipped for timing comparison (a ratio against a
near-zero denominator is noise, and a zero denominator is undefined).

The exit code is 0 unless --fail-on-regression is given (CI runs timings
warn-only: quick-mode timings on shared runners are too noisy to gate a
build on).

Counters — every numeric entry key except the timing bookkeeping
(median_ms, iterations, n) — are deterministic, so any drift usually means
an algorithmic change, not noise. A counter present in only one of the two
runs of a benchmark is reported as added/removed: a counter that falls to
zero drops out of the entry, and one that appears is new work. With
--counters fail the script exits 1 on any counter drift, on any added or
removed counter, and on any benchmark row the baseline has but the new run
lacks, which CI uses as a hard gate; the default (warn) only reports them.
A missing row is how a failing benchmark shows up: the bench binaries drop
a run that calls SkipWithError and still exit 0. Rows only in the new run
are listed, never gated.
"""

import argparse
import json
import os
import sys

# Entry keys that describe the run rather than the computation: never
# compared as counters.
NON_COUNTER_KEYS = {"name", "series", "n", "median_ms", "iterations"}


def load_entries(path):
    """Returns {benchmark name: entry dict} from a file or directory."""
    files = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                files.append(os.path.join(path, name))
    else:
        files.append(path)
    if not files:
        sys.exit(f"bench_diff: no BENCH_*.json under {path}")
    entries = {}
    for file_path in files:
        with open(file_path) as handle:
            data = json.load(handle)
        for entry in data.get("entries", []):
            entries[entry["name"]] = entry
    return entries


def counter_keys(entry):
    """Numeric counter keys of one entry."""
    return {key for key, value in entry.items()
            if key not in NON_COUNTER_KEYS
            and isinstance(value, (int, float))}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative wall-time change that counts as a "
                             "regression/improvement (default 0.20)")
    parser.add_argument("--min-time-ms", type=float, default=0.05,
                        help="skip timing comparison when the baseline "
                             "median is below this floor (default 0.05)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any timing regression is flagged "
                             "(default: warn only)")
    parser.add_argument("--counters", choices=("warn", "fail"),
                        default="warn",
                        help="fail: exit 1 on any counter drift, "
                             "added/removed counter or benchmark row "
                             "missing from the new run; warn (default): "
                             "report only")
    args = parser.parse_args()

    baseline = load_entries(args.baseline)
    new = load_entries(args.new)

    regressions = []
    improvements = []
    skipped_fast = []
    counter_drifts = []
    counter_changes = []  # added/removed counter keys
    for name in sorted(set(baseline) & set(new)):
        old_ms = baseline[name].get("median_ms")
        new_ms = new[name].get("median_ms")
        if isinstance(old_ms, (int, float)) and isinstance(new_ms,
                                                           (int, float)):
            if old_ms < args.min_time_ms:
                skipped_fast.append(
                    f"{name}: baseline {old_ms:.4f} ms below floor")
            else:
                ratio = new_ms / old_ms
                line = (f"{name}: {old_ms:.3f} ms -> {new_ms:.3f} ms "
                        f"({ratio:.2f}x)")
                if ratio > 1 + args.threshold:
                    regressions.append(line)
                elif ratio < 1 - args.threshold:
                    improvements.append(line)
        old_keys = counter_keys(baseline[name])
        new_keys = counter_keys(new[name])
        for key in sorted(old_keys & new_keys):
            if baseline[name][key] != new[name][key]:
                counter_drifts.append(
                    f"{name}: {key} {baseline[name][key]:g} -> "
                    f"{new[name][key]:g}")
        for key in sorted(old_keys - new_keys):
            counter_changes.append(f"{name}: counter removed: {key}")
        for key in sorted(new_keys - old_keys):
            counter_changes.append(f"{name}: counter added: {key}")

    only_old = sorted(set(baseline) - set(new))
    only_new = sorted(set(new) - set(baseline))

    print(f"compared {len(set(baseline) & set(new))} benchmarks "
          f"(threshold {args.threshold:.0%})")
    for title, lines in (("REGRESSIONS", regressions),
                         ("improvements", improvements),
                         ("below min-time floor", skipped_fast),
                         ("counter drifts", counter_drifts),
                         ("counter set changes", counter_changes),
                         ("only in baseline", only_old),
                         ("only in new run", only_new)):
        if lines:
            print(f"\n{title}:")
            for line in lines:
                print(f"  {line}")
    if not regressions:
        print("\nno regressions beyond threshold")

    failed = False
    if regressions and args.fail_on_regression:
        failed = True
    if counter_drifts and args.counters == "fail":
        print("\ncounter drift with --counters fail: failing")
        failed = True
    if counter_changes and args.counters == "fail":
        print("\ncounter set change with --counters fail: failing")
        failed = True
    if only_old and args.counters == "fail":
        print("\nbenchmark rows missing from the new run with --counters "
              "fail: failing")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
