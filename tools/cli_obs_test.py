#!/usr/bin/env python3
"""CLI-level tests for exit codes and the observability flags.

Usage: cli_obs_test.py PATH_TO_RPQI_BINARY

Drives the built `rpqi` binary end to end:
  * exit codes 0/1/2/3/4 through real commands (5, cancellation, has no CLI
    trigger — its mapping is covered by the base_test unit test);
  * a rewrite whose regex is too long to print by its deadline exits 4;
  * --trace-out produces valid NDJSON whose spans cover every rewrite stage
    (rewrite.A1 .. rewrite.R) with positive ids, well-formed parent links,
    and durations;
  * answer commands emit answer.CDA.probe / answer.ODA.probe spans;
  * `answer` without --pair refuses more than 2^20 pairs (exit 2);
  * an allocation failure exits 3 with one `error:` line;
  * --metrics-out produces NDJSON counter records consistent with the run;
  * unusable --trace-out/--metrics-out paths exit 2.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

FAILURES = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok: {label}")
    else:
        FAILURES.append(label)
        print(f"FAIL: {label} {detail}")


def run(binary, *args, timeout=None):
    """The finished process; past `timeout` seconds it is killed and its
    returncode reads None."""
    try:
        return subprocess.run([binary] + list(args), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as expired:
        return subprocess.CompletedProcess(expired.cmd, None, "", "")


def load_ndjson(path):
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))  # raises on malformed JSON
    return records


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_obs_test.py RPQI_BINARY")
    binary = sys.argv[1]
    tmp = tempfile.mkdtemp(prefix="rpqi_cli_obs_")

    # --- exit codes -------------------------------------------------------
    check("exit 0 on positive decision",
          run(binary, "satisfies", "--query", "a", "--word", "a")
          .returncode == 0)
    check("exit 1 on negative decision",
          run(binary, "satisfies", "--query", "a", "--word", "b")
          .returncode == 1)
    check("exit 2 on parse error",
          run(binary, "rewrite", "--query", "((", "--view", "v=a")
          .returncode == 2)
    check("exit 2 on unknown command",
          run(binary, "frobnicate").returncode == 2)
    # Self-containment of the exponential family: deciding "contained" must
    # exhaust the lazy complement product (~2^22 subset states), so tiny
    # budgets reliably trip. (The rewrite command degrades to a certified
    # partial result instead of failing, by design, so it cannot exit 3.)
    hard = ("(a|b)* a" + " (a|b)" * 22)
    check("exit 3 on state-quota exhaustion",
          run(binary, "contains", "--query", hard, "--in", hard,
              "--max-states", "100").returncode == 3)
    check("exit 4 on deadline",
          run(binary, "contains", "--query", hard, "--in", hard,
              "--timeout-ms", "1").returncode == 4)
    # Rendering obeys the deadline: R of the hard family at k = 5 takes
    # milliseconds, but its regex prints as hundreds of megabytes.
    started = time.monotonic()
    rendered = run(binary, "rewrite", "--query",
                   "(a | b)* a" + " (a | b)" * 5, "--view", "va=a",
                   "--view", "vb=b", "--timeout-ms", "1000", timeout=10)
    render_s = time.monotonic() - started
    render_errors = [line for line in rendered.stderr.splitlines()
                     if line.startswith("error:")]
    check("rewrite past its deadline while rendering exits 4 within 3 s",
          rendered.returncode == 4 and render_s < 3.0
          and len(render_errors) == 1,
          (rendered.returncode, round(render_s, 2), rendered.stderr[-300:]))
    # The exactness check obeys the quota too: this pipeline fits 128 states
    # and its exactness search does not, so `exact` is unknown, with cause.
    result = run(binary, "rewrite", "--query", "(a | b)* a (a | b) (a | b)",
                 "--view", "v=a", "--view", "w=b", "--max-states", "128")
    check("rewrite reports exactness unknown past the quota",
          result.returncode == 0 and
          "exact: unknown (ResourceExhausted: state quota of 128 exceeded)"
          in result.stdout.splitlines(), result.stdout + result.stderr)
    # The same at k = 3, whose regex (about 20 KB) renders past the printer's
    # first budget check: it is printed before the exactness search spends
    # the quota, as `rpqi serve` renders it.
    result = run(binary, "rewrite", "--query", "(a | b)* a" + " (a | b)" * 3,
                 "--view", "va=a", "--view", "vb=b", "--max-states", "240")
    lines = result.stdout.splitlines()
    check("rewrite renders a long rewriting before exactness runs out",
          result.returncode == 0 and lines and len(lines[0]) > 16384 and
          "exact: unknown (ResourceExhausted: state quota of 240 exceeded)"
          in lines, result.stdout[-300:] + result.stderr)

    # --- trace NDJSON over the rewrite pipeline ---------------------------
    trace_path = os.path.join(tmp, "trace.ndjson")
    metrics_path = os.path.join(tmp, "metrics.ndjson")
    result = run(binary, "rewrite", "--query", "a b", "--view", "v1=a",
                 "--view", "v2=b", "--trace-out", trace_path,
                 "--metrics-out", metrics_path)
    check("traced rewrite run succeeds", result.returncode == 0,
          result.stderr)
    spans = load_ndjson(trace_path)
    check("trace records are span-typed",
          spans and all(r.get("type") == "span" for r in spans))
    names = {r["name"] for r in spans}
    for stage in ("compile.regex", "rewrite.pipeline", "rewrite.A1",
                  "rewrite.A3", "rewrite.A2xA3", "rewrite.A4", "rewrite.R",
                  "automata.materialize", "automata.determinize",
                  "emptiness.search"):
        check(f"trace has a {stage} span", stage in names, sorted(names))
    ids = [r["id"] for r in spans]
    check("span ids are unique and positive",
          len(set(ids)) == len(ids) and all(i > 0 for i in ids))
    by_id = {r["id"]: r for r in spans}
    check("parents are emitted spans or root",
          all(r["parent"] == 0 or r["parent"] in by_id for r in spans))
    pipeline_id = next(r["id"] for r in spans
                       if r["name"] == "rewrite.pipeline")
    stage_parents = {r["parent"] for r in spans
                     if r["name"].startswith("rewrite.A")}
    check("rewrite stages nest under rewrite.pipeline",
          stage_parents == {pipeline_id}, stage_parents)
    check("spans carry sane timings",
          all(r["dur_us"] >= 0 and r["start_us"] >= 0 for r in spans))

    # --- metrics NDJSON ---------------------------------------------------
    metrics = load_ndjson(metrics_path)
    counters = {r["name"]: r["value"] for r in metrics
                if r.get("type") == "counter"}
    check("metrics include the rewrite run",
          counters.get("rewrite.exact_runs") == 1, counters)
    check("metrics include compile counters",
          counters.get("compile.regexes", 0) >= 3, counters)

    # --- answer spans -----------------------------------------------------
    for mode, span_name in (("cda", "answer.CDA.probe"),
                            ("oda", "answer.ODA.probe")):
        mode_trace = os.path.join(tmp, f"{mode}.ndjson")
        result = run(binary, "answer", "--mode", mode, "--objects", "2",
                     "--query", "p", "--view", "v=p;sound;0,1",
                     "--pair", "0,1", "--trace-out", mode_trace)
        check(f"{mode} answer run succeeds", result.returncode == 0,
              result.stderr)
        mode_names = {r["name"] for r in load_ndjson(mode_trace)}
        check(f"{mode} trace has {span_name}", span_name in mode_names,
              sorted(mode_names))

    # --- all-pairs cap ----------------------------------------------------
    # Without --pair the CLI probes all N² pairs. Above 2^20 pairs it refuses
    # with one error line, as the serve `answer` op does; --timeout-ms stops a
    # binary without the cap after 2 s (exit 4) instead of hours later.
    capped = run(binary, "answer", "--mode", "cda", "--objects", "1025",
                 "--query", "a", "--view", "v=a;sound;0,1",
                 "--timeout-ms", "2000")
    capped_errors = [line for line in capped.stderr.splitlines()
                     if line.startswith("error:")]
    check("all-pairs answer above 2^20 pairs exits 2",
          capped.returncode == 2, (capped.returncode, capped.stderr[-300:]))
    check("all-pairs cap prints one error line naming the cap and --pair",
          len(capped_errors) == 1 and "2^20" in capped_errors[0]
          and "--pair" in capped_errors[0] and capped.stdout == "",
          capped.stderr[-300:])
    explicit = run(binary, "answer", "--mode", "cda", "--objects", "1025",
                   "--query", "a", "--view", "v=a;sound;0,1",
                   "--pair", "0,1", "--timeout-ms", "2000")
    check("an explicit --pair on 1025 objects still answers",
          explicit.returncode == 0
          and explicit.stdout.strip() == "(0,1): certain",
          (explicit.returncode, explicit.stdout[-300:],
           explicit.stderr[-300:]))

    # --- allocation failure -----------------------------------------------
    # An allocation failure is exit 3 with one error line, not an abort
    # (exit 134); the injected fault throws where the CDA solver allocates
    # its masks.
    oom = run(binary, "answer", "--mode", "cda", "--objects", "2",
              "--query", "p", "--view", "v=p;sound;0,1", "--pair", "0,1",
              "--fault", "cda.mask_alloc=once")
    check("allocation failure exits 3", oom.returncode == 3,
          (oom.returncode, oom.stderr))
    error_lines = [line for line in oom.stderr.splitlines()
                   if line.startswith("error:")]
    check("allocation failure prints one error line",
          len(error_lines) == 1 and oom.stdout == "", oom.stderr)

    # --- unusable sink paths ----------------------------------------------
    bad = os.path.join(tmp, "missing-dir", "out.ndjson")
    check("unwritable --trace-out exits 2",
          run(binary, "satisfies", "--query", "a", "--word", "a",
              "--trace-out", bad).returncode == 2)
    check("unwritable --metrics-out exits 2",
          run(binary, "satisfies", "--query", "a", "--word", "a",
              "--metrics-out", bad).returncode == 2)

    if FAILURES:
        print(f"\n{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("\nall CLI observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
