#!/usr/bin/env python3
"""CLI-level tests for the `rpqi serve` NDJSON protocol.

Usage: cli_serve_test.py PATH_TO_RPQI_BINARY

Drives the built `rpqi` binary end to end:
  * a mixed batch of eval/rewrite/answer/admin requests, each answered
    exactly once with the request id echoed, exit 0 on clean EOF drain;
  * plan-cache hit/miss transitions and per-request counter deltas
    (--max-batch 1, so each request is its own submission);
  * stdio responses in request order, even when a later request finishes
    first on another worker;
  * a CDA candidate space past the int range answered as
    `invalid_request`, with the server still answering afterwards;
  * `rpqi answer` on all pairs gives the serve `answer` op's verdicts, for
    one CDA and one ODA instance;
  * deterministic queue-full rejection (--threads 1 --queue-depth 1
    --max-batch 1 with an `admin sleep` occupying the worker) producing
    `overloaded` responses in-band, not a process exit;
  * `admin reload` hot-swapping the snapshot mid-batch: requests before and
    after the swap all answered, snapshot_version advances;
  * binary columnar snapshots: `rpqi compact` conversion, live reload onto
    the mmap path with identical answers, torn-file reloads degrading to
    structured `unavailable` responses;
  * `admin shutdown` stops reading further input and still drains cleanly;
  * a 128 MiB newline-free stdin line is answered `invalid_request` at a
    bounded memory cost (peak RSS via os.wait4), and the next line is
    served; a closed stdin or stdout exits 2 instead of hanging;
  * the ParseFlags regression: a trailing flag with no value exits 2 with a
    "requires a value" diagnostic (not "unexpected argument");
  * fault injection end to end: `--fault snapshot.open=once:2` makes the
    first reload fail with a structured `unavailable` response, the retry
    succeeds and serving recovers; `--reload-retries` absorbs the same fault
    inside one request; RPQI_FAULT in the environment behaves like the flag;
    a malformed spec exits 2 before serving starts;
  * the TCP transport (`--transport tcp --port 0 --port-file`): concurrent
    clients each answered in order, a stdio-vs-TCP differential (identical
    responses modulo timing/counters), slow-writer partial-line framing, a
    batched stream proving snapshot-pin amortization via
    service.batch.snapshot_pins_saved, `--max-conns` shedding with one
    structured `overloaded` line, `--max-line-bytes` oversized-line
    rejection with the connection surviving, and the cross-connection
    shutdown drain (admin shutdown on one connection never truncates
    another connection's in-flight request).
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

FAILURES = []


def check(label, condition, detail=""):
    if condition:
        print(f"ok: {label}")
    else:
        FAILURES.append(label)
        print(f"FAIL: {label} {detail}")


def serve(binary, lines, *flags, env=None):
    """Runs `rpqi serve` with the given stdin lines; returns (proc, records)."""
    run_env = None
    if env:
        run_env = dict(os.environ)
        run_env.update(env)
    proc = subprocess.run(
        [binary, "serve"] + list(flags),
        input="".join(line + "\n" for line in lines),
        capture_output=True, text=True, timeout=120, env=run_env)
    records = []
    for line in proc.stdout.splitlines():
        if line.strip():
            records.append(json.loads(line))  # raises on malformed JSON
    return proc, records


def by_id(records):
    ids = {}
    for record in records:
        ids.setdefault(record.get("id"), []).append(record)
    return ids


class TcpServer:
    """`rpqi serve --transport tcp --port 0` as a context manager: waits for
    the ephemeral port via --port-file, kills the process on exit if the
    scenario didn't shut it down via the protocol."""

    def __init__(self, binary, tmp, *flags):
        self.port_file = tempfile.mktemp(prefix="port_", dir=tmp)
        self.proc = subprocess.Popen(
            [binary, "serve", "--transport", "tcp", "--port", "0",
             "--port-file", self.port_file] + list(flags),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.port = None

    def __enter__(self):
        deadline = time.time() + 20
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited early: "
                                   + self.proc.stderr.read())
            try:
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
                    return self
            except FileNotFoundError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server never wrote its port file")

    def __exit__(self, *exc):
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port), timeout=10)


def read_tcp_lines(sock, count, timeout=20):
    """Reads until `count` JSON lines arrive, EOF, or timeout."""
    sock.settimeout(0.2)
    buf = b""
    lines = []
    deadline = time.time() + timeout
    while len(lines) < count and time.time() < deadline:
        try:
            data = sock.recv(65536)
        except socket.timeout:
            continue
        if not data:
            break
        buf += data
        while b"\n" in buf:
            raw, buf = buf.split(b"\n", 1)
            if raw.strip():
                lines.append(json.loads(raw))
    return lines


def strip_varying(record):
    """Drops timing and counter fields, which legitimately differ between
    transports (the TCP batch path reports its own amortization counters)."""
    return {k: v for k, v in record.items() if k not in ("us", "counters")}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_serve_test.py RPQI_BINARY")
    binary = sys.argv[1]
    tmp = tempfile.mkdtemp(prefix="rpqi_cli_serve_")

    db1 = os.path.join(tmp, "g1.txt")
    with open(db1, "w") as handle:
        handle.write("a r b\nb r c\nc s d\n")
    db2 = os.path.join(tmp, "g2.txt")
    with open(db2, "w") as handle:
        handle.write("a r b\nb r c\nc s d\nd r e\n")

    # --- mixed batch, clean drain ----------------------------------------
    batch = [
        '{"id":1,"op":"eval","query":"r* s"}',
        '{"id":2,"op":"eval","query":"r* s"}',
        '{"id":3,"op":"rewrite","query":"r r","views":{"v1":"r"}}',
        ('{"id":4,"op":"answer","mode":"oda","objects":2,"query":"r",'
         '"views":[{"name":"v","expr":"r","assumption":"exact",'
         '"extension":[[0,1]]}],"pairs":[[0,1],[1,0]]}'),
        'this is not json',
        '{"id":5,"op":"admin","action":"stats"}',
    ]
    # --max-batch 1: every request is its own batch; request 2 must find
    # request 1's plan in the plan cache (a per-request
    # service.plan_cache.hit).
    proc, records = serve(binary, batch, "--db", db1, "--max-batch", "1")
    check("mixed batch exits 0 on EOF drain", proc.returncode == 0,
          proc.stderr)
    ids = by_id(records)
    check("every request answered exactly once",
          sorted(k for k in ids if k is not None) == [1, 2, 3, 4, 5]
          and all(len(v) == 1 for v in ids.values()),
          proc.stdout)
    check("invalid json answered in-band with id null",
          len(ids.get(None, [])) == 1
          and ids[None][0]["code"] == "invalid_request")
    check("first eval is a cache miss", ids[1][0].get("cache") == "miss")
    check("second eval is a cache hit", ids[2][0].get("cache") == "hit")
    check("eval answers are node-name pairs",
          sorted(ids[1][0]["answers"]) == [["a", "d"], ["b", "d"], ["c", "d"]])
    check("rewrite reports exactness",
          ids[3][0]["rewriting"] == "v1 v1" and ids[3][0]["exact"] is True)
    check("oda results per pair",
          [r["certain"] for r in ids[4][0]["results"]] == [True, False])
    check("responses carry per-request counter deltas",
          ids[1][0]["counters"].get("service.requests") == 1
          and ids[2][0]["counters"].get("service.plan_cache.hit") == 1)
    check("admin stats sees cache and snapshot",
          ids[5][0]["plan_cache"]["hits"] >= 1
          and ids[5][0]["snapshot"]["version"] == 1)

    # --- stdio responses keep request order -------------------------------
    # Two reads become two batches on two workers. The first sleeps, so the
    # second finishes first; its response must still come second.
    proc = subprocess.Popen([binary, "serve", "--db", db1, "--threads", "2"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdin.write('{"id":1,"op":"admin","action":"sleep","ms":300}\n')
    proc.stdin.flush()
    time.sleep(0.1)
    proc.stdin.write('{"id":2,"op":"eval","query":"r"}\n')
    proc.stdin.flush()
    out, err = proc.communicate(timeout=60)
    order = [json.loads(line)["id"] for line in out.splitlines()
             if line.strip()]
    check("stdio responses keep request order", order == [1, 2],
          out + err)

    # --- CDA candidate space past the int range --------------------------
    # objects² · relations used to be computed in int: 2^16 objects wrapped
    # it to 0 (a wrong "certain"), 50000 made it negative and the server
    # aborted with std::length_error. Both are invalid requests now, and the
    # server answers the request after them.
    def cda_request(request_id, objects):
        return ('{"id":%d,"op":"answer","mode":"cda","objects":%d,'
                '"query":"p","views":[{"name":"v","expr":"p",'
                '"assumption":"sound","extension":[[0,1]]}],'
                '"pairs":[[1,0]]}' % (request_id, objects))
    proc, records = serve(binary, [cda_request(1, 65536),
                                   cda_request(2, 50000),
                                   cda_request(3, 3)])
    check("cda overflow run exits 0", proc.returncode == 0,
          f"exit {proc.returncode}: {proc.stderr[-300:]}")
    ids = by_id(records)
    check("cda overflow spaces are invalid requests",
          all(i in ids and ids[i][0].get("code") == "invalid_request"
              for i in (1, 2)), proc.stdout)
    check("server answers the request after the overflow",
          3 in ids and ids[3][0]["status"] == "ok"
          and [r["certain"] for r in ids[3][0]["results"]] == [False],
          proc.stdout)

    # --- `rpqi answer` agrees with the serve `answer` op ------------------
    # Both hold one solver for every probe of the instance; all pairs are
    # probed when no pair is named.
    def cli_verdicts(mode, objects, query, view):
        name, rest = view.split("=", 1)
        expr, assumption, pairs = rest.split(";")
        result = subprocess.run(
            [binary, "answer", "--mode", mode, "--objects", str(objects),
             "--query", query, "--view", view],
            capture_output=True, text=True, timeout=120)
        verdicts = {}
        for line in result.stdout.splitlines():
            pair, verdict = line.split(": ")
            c, d = pair.strip("()").split(",")
            verdicts[(int(c), int(d))] = verdict == "certain"
        request = json.dumps({
            "id": 1, "op": "answer", "mode": mode, "objects": objects,
            "query": query,
            "views": [{"name": name, "expr": expr, "assumption": assumption,
                       "extension": [[int(x) for x in pair.split(",")]
                                     for pair in pairs.split()]}]})
        return result.returncode, verdicts, request

    for mode, objects, query, view in (
            ("cda", 3, "p p", "v=p;sound;0,1 1,2"),
            ("oda", 2, "r", "v=r;exact;0,1")):
        code, cli, request = cli_verdicts(mode, objects, query, view)
        proc, records = serve(binary, [request])
        served = {}
        if records and records[0].get("status") == "ok":
            served = {tuple(r["pair"]): r["certain"]
                      for r in records[0]["results"]}
        check(f"{mode} cli answer probes every pair",
              code == 0 and len(cli) == objects * objects, cli)
        check(f"{mode} cli verdicts equal the serve op's", cli == served,
              f"cli {cli} serve {served}")

    # --- deterministic queue-full rejection ------------------------------
    # One worker, queue depth 1, one request per batch: the sleep occupies
    # the worker (or the queue slot) and the burst behind it must overflow
    # into `overloaded`.
    burst = ['{"id":0,"op":"admin","action":"sleep","ms":1500}']
    burst += ['{"id":%d,"op":"eval","query":"r"}' % i for i in range(1, 9)]
    proc, records = serve(binary, burst, "--db", db1, "--threads", "1",
                          "--queue-depth", "1", "--max-batch", "1")
    check("overload run still exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    rejected = [r for rs in ids.values() for r in rs
                if r.get("code") == "overloaded"]
    completed = [r for rs in ids.values() for r in rs
                 if r.get("status") == "ok"]
    # The worker sleeps 1.5s; the queue holds one request. At most one eval
    # is accepted (whichever lands after the worker dequeues the sleep), so
    # at least 7 of the 8 must be rejected.
    check("queue-full rejections are structured responses",
          len(rejected) >= 7, proc.stdout)
    check("accepted requests still complete", len(completed) >= 1)
    check("rejections echo their request ids",
          all(isinstance(r.get("id"), int) for r in rejected))
    check("every burst request answered exactly once",
          sorted(ids) == list(range(9))
          and all(len(v) == 1 for v in ids.values()))

    # --- reload during a stream of queries -------------------------------
    stream = ['{"id":%d,"op":"eval","query":"r* s"}' % i for i in range(10)]
    stream.insert(5, '{"id":100,"op":"admin","action":"reload","db":"%s"}'
                  % db2)
    proc, records = serve(binary, stream, "--db", db1, "--threads", "4")
    check("reload run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("zero requests lost across reload",
          sorted(ids) == list(range(10)) + [100]
          and all(len(v) == 1 for v in ids.values()), proc.stdout)
    check("reload response advances the snapshot version",
          ids[100][0]["snapshot_version"] == 2)
    versions = {ids[i][0]["snapshot_version"] for i in range(10)}
    check("eval requests pin version 1 or 2, nothing else",
          versions <= {1, 2}, str(versions))
    check("all evals succeeded across the swap",
          all(ids[i][0]["status"] == "ok" for i in range(10)))

    # --- binary columnar snapshot: compact + live reload ------------------
    # `rpqi compact` converts the text graph to the mmap-loaded columnar
    # format; `admin reload` hot-swaps to it and answers must be identical
    # to the text snapshot's, with the mmap counters recording the open.
    db2_bin = os.path.join(tmp, "g2.rpqicol")
    proc = subprocess.run(
        [binary, "compact", "--in", db2, "--out", db2_bin, "--validate", "1"],
        capture_output=True, text=True, timeout=60)
    check("compact text -> binary exits 0", proc.returncode == 0, proc.stderr)
    check("compact reports validation", "validate: ok" in proc.stdout,
          proc.stdout)

    text_proc, text_records = serve(binary, [
        '{"id":1,"op":"eval","query":"r* s"}'], "--db", db2)
    bin_batch = [
        '{"id":1,"op":"admin","action":"reload","db":"%s"}' % db2_bin,
        '{"id":2,"op":"eval","query":"r* s"}',
        '{"id":3,"op":"admin","action":"stats"}',
    ]
    proc, records = serve(binary, bin_batch, "--db", db1, "--threads", "2")
    check("binary reload run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("reload onto a columnar snapshot succeeds",
          ids[1][0]["status"] == "ok"
          and ids[1][0]["snapshot_version"] == 2, proc.stdout)
    check("columnar snapshot serves identical answers",
          sorted(ids[2][0]["answers"])
          == sorted(by_id(text_records)[1][0]["answers"]), proc.stdout)
    check("mmap open is recorded in the reload counters",
          ids[1][0]["counters"].get("service.snapshot.mmap_opens") == 1,
          proc.stdout)

    # A torn binary file (truncated mid-write) must surface as a structured
    # `unavailable` reload error while the old snapshot keeps serving.
    torn = os.path.join(tmp, "torn.rpqicol")
    with open(db2_bin, "rb") as handle:
        full = handle.read()
    with open(torn, "wb") as handle:
        handle.write(full[:len(full) // 2])
    proc, records = serve(binary, [
        '{"id":1,"op":"admin","action":"reload","db":"%s"}' % torn,
        '{"id":2,"op":"eval","query":"r* s"}',
    ], "--db", db2, "--threads", "1")
    check("torn binary reload run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("torn binary reload is `unavailable`",
          ids[1][0]["status"] == "error"
          and ids[1][0]["code"] == "unavailable", proc.stdout)
    check("old snapshot keeps serving after torn reload",
          ids[2][0]["status"] == "ok", proc.stdout)

    # --- persistent plan cache across a restart ---------------------------
    # First process: cold miss compiles, evals, and persists the plan to
    # --plan-cache-dir. Second process (fresh in-memory cache, same dir):
    # the same query is served from disk — cache=="disk", the disk_hit
    # counter fires, and no compile work appears in the response delta.
    plan_dir = os.path.join(tmp, "plans")
    os.makedirs(plan_dir, exist_ok=True)
    proc, records = serve(binary, [
        '{"id":1,"op":"eval","query":"r* s"}',
    ], "--db", db1, "--plan-cache-dir", plan_dir)
    check("plan-dir run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("cold eval with a plan dir is a miss",
          ids[1][0].get("cache") == "miss", proc.stdout)
    check("cold eval persists a plan file",
          any(name.endswith(".rpqiplan") for name in os.listdir(plan_dir))
          and ids[1][0]["counters"].get("service.plan_cache.disk_write") == 1,
          proc.stdout)
    cold_answers = sorted(ids[1][0]["answers"])

    proc, records = serve(binary, [
        '{"id":1,"op":"eval","query":"r* s"}',
        '{"id":2,"op":"eval","query":"r* s"}',
    ], "--db", db1, "--plan-cache-dir", plan_dir)
    check("restarted plan-dir run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("restarted server serves the query from disk",
          ids[1][0].get("cache") == "disk"
          and ids[1][0]["counters"].get("service.plan_cache.disk_hit") == 1,
          proc.stdout)
    check("disk-served answers match the cold run",
          sorted(ids[1][0]["answers"]) == cold_answers, proc.stdout)
    check("disk hit skips compilation",
          "eval.plan_compiles" not in ids[1][0]["counters"], proc.stdout)
    check("second query after restart is an in-memory hit",
          ids[2][0].get("cache") == "hit", proc.stdout)

    # --- shutdown stops the reader ---------------------------------------
    proc, records = serve(binary, [
        '{"id":1,"op":"eval","query":"r"}',
        '{"id":2,"op":"admin","action":"shutdown"}',
        '{"id":3,"op":"eval","query":"r"}',
    ], "--db", db1)
    check("shutdown run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("requests before shutdown answered", 1 in ids and 2 in ids)
    check("input after shutdown is not consumed", 3 not in ids, proc.stdout)

    # --- stdio: an oversized line costs bounded memory --------------------
    # The framer stops buffering a line at --max-line-bytes (1 MiB) and
    # swallows the rest, so a 128 MiB newline-free line must not show up in
    # the peak RSS, and the request after it is still served.
    def serve_peak_rss(chunks):
        """Streams `chunks` to `rpqi serve` on stdin; returns the response
        records and the process's peak RSS in KiB."""
        child = subprocess.Popen([binary, "serve", "--db", db1],
                                 stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        for chunk in chunks:
            child.stdin.write(chunk)
        child.stdin.close()
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        return ([json.loads(line) for line in out.splitlines()
                 if line.strip()], usage.ru_maxrss)

    ok_line = b'{"id":1,"op":"eval","query":"r"}\n'
    small_records, small_rss = serve_peak_rss([ok_line])
    mib = b"x" * (1 << 20)
    big_records, big_rss = serve_peak_rss([mib] * 128 + [b"\n", ok_line])
    check("stdio oversized line is `invalid_request`, next line is ok",
          len(big_records) == 2
          and big_records[0].get("code") == "invalid_request"
          and big_records[1].get("id") == 1
          and big_records[1]["status"] == "ok", json.dumps(big_records))
    check("stdio 128 MiB line adds < 32 MiB of peak RSS",
          small_records and big_rss - small_rss < 32 * 1024,
          f"{small_rss} KiB -> {big_rss} KiB")

    # --- stdio: a closed stdin or stdout is a usage error, not a hang ------
    for fd, name in ((0, "stdin"), (1, "stdout")):
        try:
            proc = subprocess.run([binary, "serve"], stderr=subprocess.PIPE,
                                  preexec_fn=lambda fd=fd: os.close(fd),
                                  text=True, timeout=20)
            outcome = (proc.returncode, proc.stderr)
        except subprocess.TimeoutExpired:
            outcome = ("timeout", "")
        check("serve with a closed %s exits 2" % name,
              outcome[0] == 2 and "descriptor %d" % fd in outcome[1],
              str(outcome))

    # --- structured error classes ----------------------------------------
    proc, records = serve(binary, [
        '{"id":1,"op":"eval","query":"r"}',
        '{"id":2,"op":"nope"}',
    ])
    check("no-snapshot server exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("eval without snapshot is `unavailable`",
          ids[1][0]["code"] == "unavailable")
    check("unknown op is `invalid_request`",
          ids[2][0]["code"] == "invalid_request")

    proc, records = serve(
        binary, ['{"id":1,"op":"eval","query":"r*","max_states":1}'],
        "--db", db1)
    check("state quota maps to `resource_exhausted`",
          by_id(records)[1][0]["code"] == "resource_exhausted", proc.stdout)

    # --- bad --db fails fast with exit 2, not a serving loop -------------
    proc = subprocess.run([binary, "serve", "--db",
                           os.path.join(tmp, "missing.txt")],
                          input="", capture_output=True, text=True,
                          timeout=60)
    check("unreadable --db exits 2", proc.returncode == 2, proc.stderr)

    # --- fault injection end to end --------------------------------------
    # once:2 — the initial --db load is the first hit on snapshot.open, so
    # the *reload* is the one that fails. Single attempt (default): the
    # failure surfaces as a structured `unavailable`, no version is burned,
    # and the retried request succeeds.
    fault_batch = [
        '{"id":1,"op":"eval","query":"r* s"}',
        '{"id":2,"op":"admin","action":"reload","db":"%s"}' % db2,
        '{"id":3,"op":"admin","action":"reload","db":"%s"}' % db2,
        '{"id":4,"op":"eval","query":"r* s"}',
    ]
    proc, records = serve(binary, fault_batch, "--db", db1, "--threads", "1",
                          "--fault", "snapshot.open=once:2")
    check("faulted run exits 0", proc.returncode == 0, proc.stderr)
    ids = by_id(records)
    check("eval before the fault is ok", ids[1][0]["status"] == "ok")
    check("injected reload failure is `unavailable`",
          ids[2][0]["status"] == "error"
          and ids[2][0]["code"] == "unavailable", proc.stdout)
    check("injected failure names the fault",
          "injected" in ids[2][0].get("message", ""), proc.stdout)
    check("retried reload succeeds without a burned version",
          ids[3][0]["status"] == "ok"
          and ids[3][0]["snapshot_version"] == 2, proc.stdout)
    check("serving recovers after the fault", ids[4][0]["status"] == "ok")

    # With --reload-retries the same transient fault is absorbed inside the
    # one request; the counter delta records the retry.
    proc, records = serve(binary, [
        '{"id":1,"op":"admin","action":"reload","db":"%s"}' % db2,
    ], "--db", db1, "--threads", "1", "--reload-retries", "3",
        "--fault", "snapshot.open=once:2")
    check("reload retry absorbs a transient fault", proc.returncode == 0
          and by_id(records)[1][0]["status"] == "ok", proc.stdout)
    check("retry shows up in the counter delta",
          by_id(records)[1][0]["counters"]
          .get("service.snapshot.retries") == 1, proc.stdout)

    # RPQI_FAULT in the environment arms the same spec as the flag.
    proc, records = serve(binary, [
        '{"id":1,"op":"admin","action":"reload","db":"%s"}' % db2,
    ], "--db", db1, "--threads", "1",
        env={"RPQI_FAULT": "snapshot.open=once:2"})
    check("RPQI_FAULT env arms fault sites",
          by_id(records)[1][0].get("code") == "unavailable", proc.stdout)

    # A malformed spec is a usage error: exit 2 before serving starts.
    proc = subprocess.run(
        [binary, "serve", "--db", db1, "--fault", "snapshot.open=sometimes"],
        input="", capture_output=True, text=True, timeout=60)
    check("malformed --fault spec exits 2", proc.returncode == 2, proc.stderr)
    check("malformed --fault spec is diagnosed",
          "snapshot.open" in proc.stderr, proc.stderr)

    # --- ParseFlags regression (satellite): trailing flag ----------------
    proc = subprocess.run([binary, "eval", "--db"], capture_output=True,
                          text=True, timeout=60)
    check("trailing --db exits 2", proc.returncode == 2)
    check("trailing --db says 'requires a value'",
          "flag --db requires a value" in proc.stderr, proc.stderr)
    check("trailing flag is not 'unexpected argument'",
          "unexpected argument" not in proc.stderr, proc.stderr)

    # --- TCP: concurrent clients ------------------------------------------
    with TcpServer(binary, tmp, "--db", db1, "--threads", "2") as server:
        results = {}

        def client(idx):
            sock = server.connect()
            try:
                for i in range(10):
                    sock.sendall(
                        b'{"id":%d,"op":"eval","query":"r* s"}\n'
                        % (idx * 100 + i))
                results[idx] = read_tcp_lines(sock, 10)
            finally:
                sock.close()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        check("tcp concurrent clients all fully answered",
              all(len(results.get(i, [])) == 10 for i in range(4)),
              str({i: len(v) for i, v in results.items()}))
        check("tcp responses stay on their own connection in order",
              all([r["id"] for r in results[i]]
                  == [i * 100 + j for j in range(10)] for i in range(4)))
        check("tcp responses are ok with answers",
              all(r["status"] == "ok" and "answers" in r
                  for v in results.values() for r in v))

        # Batched stream on one connection: adjacent lines in one send are
        # admitted as a batch sharing one snapshot pin; the amortization is
        # observable in the per-response counter deltas.
        sock = server.connect()
        sock.sendall(b"".join(
            b'{"id":%d,"op":"eval","query":"r* s"}\n' % i
            for i in range(200, 206)))
        batched = read_tcp_lines(sock, 6)
        sock.close()
        check("tcp batched stream fully answered", len(batched) == 6)
        pins_saved = sum(
            r.get("counters", {}).get("service.batch.snapshot_pins_saved", 0)
            for r in batched)
        check("tcp batch amortizes snapshot pins "
              "(service.batch.snapshot_pins_saved > 0)",
              pins_saved > 0, json.dumps(batched))

        # Protocol shutdown so __exit__ sees a clean exit.
        sock = server.connect()
        sock.sendall(b'{"id":"q","op":"admin","action":"shutdown"}\n')
        read_tcp_lines(sock, 1)
        sock.close()
    check("tcp server exits 0 after protocol shutdown",
          server.proc.returncode == 0, server.proc.stderr.read())

    # --- TCP: stdio differential ------------------------------------------
    # The same request stream through both transports must produce identical
    # responses modulo timing/counters — one protocol, two framings.
    diff_batch = [
        '{"id":1,"op":"eval","query":"r* s"}',
        '{"id":2,"op":"eval","query":"r* s"}',
        '{"id":3,"op":"rewrite","query":"r r","views":{"v1":"r"}}',
        '{"id":4,"op":"nope"}',
        'not json at all',
        '{"id":5,"op":"eval","query":"r*","max_states":1}',
    ]
    _, stdio_records = serve(binary, diff_batch, "--db", db1)
    with TcpServer(binary, tmp, "--db", db1) as server:
        sock = server.connect()
        tcp_records = []
        # One request at a time, awaiting each response: the differential
        # isolates framing, keeping batch-context effects out of the
        # comparison (batch parity is asserted separately above).
        for line in diff_batch:
            sock.sendall(line.encode() + b"\n")
            tcp_records += read_tcp_lines(sock, 1)
        sock.sendall(b'{"op":"admin","action":"shutdown"}\n')
        read_tcp_lines(sock, 1)
        sock.close()
    check("tcp differential: same number of responses",
          len(tcp_records) == len(stdio_records))
    # Compare order-independently: the protocol promises one response per
    # request, not a global ordering (stdio answers invalid lines inline
    # while queued work completes on workers).
    tcp_canon = sorted(json.dumps(strip_varying(r), sort_keys=True)
                       for r in tcp_records)
    stdio_canon = sorted(json.dumps(strip_varying(r), sort_keys=True)
                         for r in stdio_records)
    check("tcp differential: responses identical modulo timing/counters",
          tcp_canon == stdio_canon,
          json.dumps(tcp_canon) + " vs " + json.dumps(stdio_canon))

    # --- TCP: slow-writer partial-line framing ----------------------------
    with TcpServer(binary, tmp, "--db", db1) as server:
        sock = server.connect()
        request = b'{"id":77,"op":"eval","query":"r* s"}\n'
        for i in range(0, len(request), 5):
            sock.sendall(request[i:i + 5])
            time.sleep(0.02)
        framed = read_tcp_lines(sock, 1)
        check("tcp slow writer: fragmented request framed and answered",
              len(framed) == 1 and framed[0]["id"] == 77
              and framed[0]["status"] == "ok", json.dumps(framed))
        # Two requests coalesced into one segment both answered.
        sock.sendall(b'{"id":78,"op":"eval","query":"r"}\n'
                     b'{"id":79,"op":"eval","query":"r"}\n')
        pair = read_tcp_lines(sock, 2)
        check("tcp coalesced segment: both requests answered",
              sorted(r["id"] for r in pair) == [78, 79], json.dumps(pair))
        sock.sendall(b'{"op":"admin","action":"shutdown"}\n')
        read_tcp_lines(sock, 1)
        sock.close()

    # --- TCP: connection-limit shedding -----------------------------------
    with TcpServer(binary, tmp, "--db", db1, "--max-conns", "1") as server:
        first = server.connect()
        first.sendall(b'{"id":1,"op":"eval","query":"r"}\n')
        check("tcp shed: first connection serves",
              read_tcp_lines(first, 1)[0]["status"] == "ok")
        second = server.connect()
        shed = read_tcp_lines(second, 1)
        check("tcp shed: excess connection gets one `overloaded` line",
              len(shed) == 1 and shed[0].get("code") == "overloaded",
              json.dumps(shed))
        check("tcp shed: excess connection is then closed",
              second.recv(1024) == b"" if not shed else True)
        second.close()
        first.sendall(b'{"id":2,"op":"eval","query":"r"}\n')
        check("tcp shed: surviving connection unaffected",
              read_tcp_lines(first, 1)[0]["status"] == "ok")
        first.sendall(b'{"op":"admin","action":"shutdown"}\n')
        read_tcp_lines(first, 1)
        first.close()

    # --- TCP: oversized-line rejection ------------------------------------
    with TcpServer(binary, tmp, "--db", db1,
                   "--max-line-bytes", "128") as server:
        sock = server.connect()
        sock.sendall(b"x" * 400 + b"\n")
        oversized = read_tcp_lines(sock, 1)
        check("tcp oversized line is a structured invalid_request",
              len(oversized) == 1
              and oversized[0].get("code") == "invalid_request",
              json.dumps(oversized))
        sock.sendall(b'{"id":1,"op":"eval","query":"r"}\n')
        check("tcp connection survives an oversized line",
              read_tcp_lines(sock, 1)[0]["status"] == "ok")
        sock.sendall(b'{"op":"admin","action":"shutdown"}\n')
        read_tcp_lines(sock, 1)
        sock.close()

    # --- TCP: cross-connection shutdown drain (regression) ----------------
    # `admin shutdown` on connection B while connection A has an in-flight
    # request: A's response must still be delivered before the server exits.
    with TcpServer(binary, tmp, "--db", db1, "--threads", "2") as server:
        slow = server.connect()
        slow.sendall(b'{"id":"slow","op":"admin","action":"sleep",'
                     b'"ms":800}\n')
        time.sleep(0.2)  # the sleep is on a worker before shutdown arrives
        admin = server.connect()
        admin.sendall(b'{"id":"bye","op":"admin","action":"shutdown"}\n')
        bye = read_tcp_lines(admin, 1)
        check("tcp drain: shutdown acknowledged on its own connection",
              len(bye) == 1 and bye[0]["status"] == "ok", json.dumps(bye))
        drained = read_tcp_lines(slow, 1)
        check("tcp drain: in-flight request on another connection "
              "is answered, not truncated",
              len(drained) == 1 and drained[0]["status"] == "ok"
              and drained[0].get("slept_ms") == 800, json.dumps(drained))
        slow.close()
        admin.close()
    check("tcp drain: server exits 0 after the drain",
          server.proc.returncode == 0, server.proc.stderr.read())

    print(f"\n{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
