"""Driving one `rpqi serve --transport tcp` process from the benchmark.

`Server` owns the process; `closed_loop` runs the timed traffic: every
connection keeps exactly one operation in flight and starts the next one as
soon as the last response line of the previous one has arrived.
"""

import json
import os
import selectors
import socket
import subprocess
import time

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
# Longest wait for the responses to one step of an operation.
IO_TIMEOUT_S = 30.0


class BenchError(Exception):
    """An operation failed in a way that makes the run meaningless."""


def response_field(line, key):
    """The raw bytes of a top-level scalar field of a response line.

    Searches from the end, where rpqi puts `cache`, `us` and `counters`; the
    other fields these lines hold (answers, ids) come earlier.
    """
    at = line.rfind(b'"%s":' % key.encode())
    if at < 0:
        return None
    at += len(key) + 3
    end = at
    while end < len(line) and line[end] not in b",}":
        end += 1
    return line[at:end]


class Server:
    """One `rpqi serve` process listening on an ephemeral loopback port."""

    def __init__(self, binary, workdir, args, trace_prefix=None):
        port_file = os.path.join(workdir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        cmd = [binary, "serve", "--transport", "tcp", "--port", "0",
               "--port-file", "port"] + list(args)
        if trace_prefix:
            cmd += ["--trace-out", trace_prefix + ".trace",
                    "--metrics-out", trace_prefix + ".metrics"]
        self.log_path = os.path.join(workdir, "serve.log")
        log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(cmd, cwd=workdir, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=log)
        log.close()
        deadline = time.monotonic() + START_TIMEOUT_S
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError("rpqi serve exited with %d during start-up: %s"
                                 % (self.proc.returncode, self.log_tail()))
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("rpqi serve did not start listening")
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    continue
            except FileNotFoundError:
                pass
            time.sleep(0.0002)

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=IO_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def exchange(self, sock, lines):
        """Sends request lines on `sock`; returns the response lines.

        Responses to pipelined requests may arrive in any order.
        """
        sock.sendall(b"".join(line + b"\n" for line in lines))
        chunks = []
        newlines = 0
        while newlines < len(lines):
            data = sock.recv(1 << 20)
            if not data:
                raise BenchError("connection closed before all responses")
            chunks.append(data)
            newlines += data.count(b"\n")
        return b"".join(chunks).split(b"\n")[:len(lines)]

    def request(self, sock, payloads):
        """Sends request objects on `sock`; returns their parsed responses."""
        return [json.loads(line) for line in self.exchange(
            sock, [json.dumps(p).encode() for p in payloads])]

    def stop(self):
        """Asks for a graceful drain and waits for a clean exit."""
        try:
            with self.connect() as sock:
                self.request(sock, [{"id": "stop", "op": "admin",
                                     "action": "shutdown"}])
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired, BenchError) as err:
            self.kill()
            raise BenchError("rpqi serve did not drain: %s" % err) from err
        if code != 0:
            raise BenchError("rpqi serve exited with %d: %s" %
                             (code, self.log_tail()))

    def log_tail(self):
        """The end of the server's stderr, for error messages."""
        with open(self.log_path, "rb") as f:
            return f.read()[-2000:].decode(errors="replace").strip()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class _Conn:
    __slots__ = ("sock", "stream", "tail", "lines", "steps", "step", "want",
                 "started", "step_sent", "ctx", "busy")

    def __init__(self, sock, stream):
        self.sock = sock
        self.stream = stream
        self.tail = []
        self.lines = []
        self.steps = ()
        self.step = 0
        self.want = 0
        self.started = 0.0
        self.step_sent = 0.0
        self.ctx = None
        self.busy = False

    def begin(self):
        self.steps, self.ctx = self.stream.next_op()
        self.step = 0
        self.want = 0
        self.lines = []
        self.busy = True
        self.started = time.perf_counter()
        self.send_step()

    def send_step(self):
        payload, lines = self.steps[self.step]
        self.step += 1
        self.want += lines
        self.step_sent = time.perf_counter()
        self.sock.sendall(payload)


def closed_loop(server, streams, warmup_s, seconds):
    """Runs every stream on its own connection for `warmup_s + seconds`.

    A stream has `next_op()`, returning `(steps, ctx)`, and
    `done(ctx, lines, latency_s)`. The steps of an operation are
    `(payload_bytes, response_lines)` pairs sent one after another, each as
    soon as the previous one is answered; `done` gets every response line of
    the operation and its latency, from sending the first step to reading the
    last line. Operations still in flight at the deadline are completed and
    reported; no new ones start after it. Returns the start of the timed
    window (after the warm-up) and the end of the run.
    """
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for stream in streams:
            conn = _Conn(server.connect(), stream)
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            conns.append(conn)
        start = time.perf_counter()
        deadline = start + warmup_s + seconds
        for conn in conns:
            conn.begin()
        busy = len(conns)
        while busy:
            events = sel.select(timeout=IO_TIMEOUT_S)
            for key, _ in events:
                conn = key.data
                data = conn.sock.recv(1 << 20)
                if not data:
                    raise BenchError("server closed a connection")
                conn.tail.append(data)
                if b"\n" not in data:
                    continue
                parts = b"".join(conn.tail).split(b"\n")
                last = parts.pop()
                conn.tail = [last] if last else []
                conn.lines.extend(parts)
                if len(conn.lines) < conn.want:
                    continue
                if conn.step < len(conn.steps):
                    conn.send_step()
                    continue
                now = time.perf_counter()
                conn.stream.done(conn.ctx, conn.lines, now - conn.started)
                if now < deadline:
                    conn.begin()
                else:
                    conn.busy = False
                    busy -= 1
            now = time.perf_counter()
            for conn in conns:
                if conn.busy and now - conn.step_sent > IO_TIMEOUT_S:
                    raise BenchError("no response within %.0f s" % IO_TIMEOUT_S)
        return start + warmup_s, time.perf_counter()
    finally:
        for conn in conns:
            sel.unregister(conn.sock)
            conn.sock.close()
        sel.close()
