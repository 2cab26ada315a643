#!/usr/bin/env python3
"""Tests the BENCH_<name>.json summary written by bench/bench_main.cc.

Usage: bench_main_test.py PATH_TO_BENCH_RPQI_EVAL

Runs one row of a bench binary with --benchmark_repetitions=3 and checks that
the summary holds exactly one entry for it: the median aggregate, named and
split into series and n like a single-repetition run (no "_median" suffix,
no second entry for the first repetition).
"""

import json
import os
import subprocess
import sys
import tempfile

ROW = "BM_EvalLabelSkew/csr/128"


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: bench_main_test.py BENCH_RPQI_EVAL")
    with tempfile.TemporaryDirectory(prefix="rpqi_bench_main_") as tmp:
        out = os.path.join(tmp, "BENCH_rpqi_eval.json")
        subprocess.run(
            [sys.argv[1], "--quick", "--benchmark_filter=^%s$" % ROW,
             "--benchmark_repetitions=3", "--bench_out=" + out],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as handle:
            entries = json.load(handle)["entries"]
    names = [entry["name"] for entry in entries]
    failures = []
    if names != [ROW]:
        failures.append("entries %s, want exactly [%s]" % (names, ROW))
    for entry in entries:
        if entry["series"] != "BM_EvalLabelSkew/csr" or entry["n"] != 128:
            failures.append("entry %s has series %s and n %s" %
                            (entry["name"], entry["series"], entry["n"]))
    for failure in failures:
        print("FAIL: " + failure)
    if failures:
        sys.exit(1)
    print("ok: one median entry for %s" % ROW)


if __name__ == "__main__":
    main()
