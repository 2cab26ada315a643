#!/usr/bin/env python3
"""End-to-end benchmark of `rpqi serve` and the paper's decision procedures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload modules_read --seed 1 --seconds 10 --trace 0

The script builds `rpqi` from source (CMake, Release, into
$CARGO_TARGET_DIR/rpqi-release, default .bench_build/rpqi-release), makes the
workload's inputs from --seed, starts `rpqi serve --transport tcp` on them,
drives it with closed-loop clients for --seconds, checks the answers against
an independent reference (oracle.py), and prints one JSON object as the last
line of stdout. With --trace 0 it reports the end-to-end metrics; with
--trace 1 the same traffic runs against a server writing
--trace-out/--metrics-out and it reports the per-layer breakdown instead
(layers.py).

The serving workloads replay the paper's Example 1, the traffic model of
`rpqi loadgen --scenario modules` (src/workload, src/net/loadgen.cc): a
database of software modules (hasSubmodule) and their variables
(containsVar), the Algol-visibility query
(hasSubmodule^-)* (containsVar | hasSubmodule) and its navigation views
up = hasSubmodule^- and downOrVar = containsVar | hasSubmodule. The module
tree is drawn as MakeSoftwareModulesScenario draws it (module i hangs under a
uniform module < i, each variable sits in a uniform module), with 200 modules
and 400 variables instead of the CI smoke's 8 and 12. Every connection is a
closed loop, loadgen's `--mode closed`: it sends its next operation as soon
as the previous one is answered.

  modules_read  2 connections each run loadgen's mix over and over; an
                operation is one pass, 5 requests one after another: eval
                of the visibility query, eval of each view, the visibility
                query again and the Example 3 rewriting of the visibility
                query over the views. The set-up warms the plan cache, so
                every timed request is a hit: plan lookup, answer rendering
                and the TCP transport carry the cost.
  modules_edit  2 tenants (--namespace) and 1 connection, which saves in
                each tenant's code base in turn. An operation is one save:
                against the tenant's base tree, a module moves under
                another module and 2 variables move. The client reloads the
                tenant's snapshot from the new file and then sends the
                visibility query and both view queries as one pipelined
                batch. The new snapshot has a new fingerprint, so the three
                evals miss the plan cache: snapshot load, query compilation
                and the all-pairs product BFS carry the cost.
  decide        2 connections send jobs of 7 pipelined requests: 3 maximal
                rewritings of distinct query/view instances (A1..A4, R and
                the exactness check), 3 CDA certain-answer requests on the
                Table 1 chain family (sound, exact and mixed views) and 1
                ODA request on two objects, each probing one certain and one
                refuted pair.

An operation is one pass of the mix (modules_read), one edit (modules_edit)
or one job (decide). The traffic runs 1 s untimed, then --seconds timed; p50_ms,
p90_ms and ops_per_s are medians over 2-second windows of the timed run (see
per_window).
setup_s is the time from spawning the server to its being ready for the
traffic: listening with its snapshots loaded and, for modules_read, the plan
cache warmed. It is measured on 9 fresh servers and reported as the median;
the last of them serves the traffic. Per-layer figures (--trace 1) cover all
of the traffic.
"""

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import oracle  # noqa: E402
import serve  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 9
SERVER_THREADS = 2
# Traffic before the timed window: a fresh server runs its first second up to
# twice as slow (heap growth, first touches of the plan cache).
TRAFFIC_WARMUP_S = 1.0
# Timings are medians over windows of this length (see per_window).
WINDOW_S = 2.0

MODULES = 200
VARIABLES = 400
# The median size of the visibility query's answer over such trees.
VISIBLE_PAIRS = 6560
VISIBILITY = "(hasSubmodule^-)* (containsVar | hasSubmodule)"
VIEWS = {"up": "hasSubmodule^-", "downOrVar": "containsVar | hasSubmodule"}
# loadgen's modules mix, in its order.
MIX = [("eval", VISIBILITY), ("eval", VIEWS["up"]),
       ("eval", VIEWS["downOrVar"]), ("eval", VISIBILITY),
       ("rewrite", VISIBILITY)]

# Half of the CI saturation smoke's 4 loadgen connections and 4 server
# threads, so that the client and the server together keep at most 4 cores
# busy.
READ_CONNECTIONS = 2

# The tenants share one connection, which saves in each in turn. With a
# connection per tenant, a save runs alone or next to the other tenant's, and
# the median latency swings between the two cases from run to run.
EDIT_TENANTS = 2
EDIT_MOVED_VARIABLES = 2
EDIT_QUERIES = [VISIBILITY, VIEWS["up"], VIEWS["downOrVar"]]
# Every so many saves, the answers are kept for the check (odd, so that both
# tenants are sampled).
EDIT_SAMPLE_EVERY = 25

DECIDE_CONNECTIONS = 2
DECIDE_REWRITES = 3
# (assumption, objects): a sound chain of 4 objects costs 1-60 ms depending on
# the object order, so the sound variant uses 3.
DECIDE_CDA_VARIANTS = [("sound", 3), ("exact", 4), ("mixed", 4)]
DECIDE_CHECKED = 150
REWRITE_RELATIONS = ["a", "b", "c"]
CDA_RELATIONS = ["p", "q", "s", "t"]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def target_dir(*parts):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, target, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def build():
    """Builds the rpqi CLI from the checkout's sources; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rpqi sources next to perfbench/ (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    build_dir = target_dir("rpqi-release")
    env = dict(os.environ, TMPDIR=target_dir("tmp"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", ROOT, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "rpqi_cli",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("building rpqi failed")
    binary = os.path.join(build_dir, "tools", "rpqi")
    if not os.access(binary, os.X_OK):
        fail("build produced no %s" % binary)
    return binary


# --------------------------------------------------------------------------
# Inputs


class ModuleTree:
    """The Example 1 database: hasSubmodule edges form a tree over the
    modules (module i hangs under a module < i) and containsVar edges put
    each variable in one module."""

    def __init__(self, rng):
        self.parent = [0] + [rng.randrange(i) for i in range(1, MODULES)]
        self.owner = [rng.randrange(MODULES) for _ in range(VARIABLES)]

    def edited(self, rng):
        """One save: a copy of the tree in which a module has moved under
        another one and some variables have moved to other modules."""
        tree = ModuleTree.__new__(ModuleTree)
        tree.parent = list(self.parent)
        tree.owner = list(self.owner)
        i = rng.randrange(1, MODULES)
        tree.parent[i] = rng.randrange(i)
        for _ in range(EDIT_MOVED_VARIABLES):
            tree.owner[rng.randrange(VARIABLES)] = rng.randrange(MODULES)
        return tree

    def visible_pairs(self):
        """The size of the visibility query's answer: every module sees the
        submodules and variables of itself and of each of its ancestors."""
        below = [0] * MODULES
        for i in range(1, MODULES):
            below[self.parent[i]] += 1
        for module in self.owner:
            below[module] += 1
        seen = below[:1]
        for i in range(1, MODULES):
            seen.append(below[i] + seen[self.parent[i]])
        return sum(seen)

    def edges(self):
        for i in range(1, MODULES):
            yield ("module%d" % self.parent[i], "hasSubmodule", "module%d" % i)
        for j, module in enumerate(self.owner):
            yield ("module%d" % module, "containsVar", "var%d" % j)

    def write(self, path):
        with open(path, "w") as f:
            f.writelines("%s %s %s\n" % edge for edge in self.edges())


def typical_tree(rng):
    """A module tree whose visibility answer is the median size, give or take
    1%: the size varies by +-20% between random trees, and with it the cost
    of every request."""
    while True:
        tree = ModuleTree(rng)
        if abs(tree.visible_pairs() - VISIBLE_PAIRS) <= VISIBLE_PAIRS // 100:
            return tree


def request_tail(body):
    """The bytes of a request line after its id; `body` is the request
    without its id."""
    return json.dumps(body, separators=(",", ":")).encode()[1:]


def request_line(op_id, body):
    """One request line; `body` is the request without its id."""
    return b'{"id":%d,' % op_id + request_tail(body)


def mix_request(kind, query):
    if kind == "rewrite":
        return {"op": kind, "query": query, "views": VIEWS}
    return {"op": kind, "query": query}


def ok_prefix(op_id):
    return b'{"id":%d,"status":"ok",' % op_id


def response_id(line):
    """The integer id of a response line (rpqi writes it first), or None."""
    text = line[6:line.find(b",", 6)] if line.startswith(b'{"id":') else b""
    return int(text) if text.isdigit() else None


def rewrite_instance(rng):
    """A query and views that tile it, so the rewriting is often non-empty."""
    def atom():
        rel = rng.choice(REWRITE_RELATIONS)
        return rel + "^-" if rng.random() < 0.25 else rel

    atoms = [atom() for _ in range(rng.randint(4, 6))]
    segments = []
    while len(atoms) > sum(len(s) for s in segments):
        done = sum(len(s) for s in segments)
        segments.append(atoms[done:done + rng.randint(1, 2)])
    views = {}
    for i, segment in enumerate(segments):
        expr = " ".join(segment)
        if rng.random() < 0.3:
            expr = "(%s | %s)" % (expr, atom())
        views["v%d" % i] = expr
    views["v%d" % len(segments)] = atom() + " " + atom()
    parts = [" ".join(s) for s in segments]
    i = rng.randrange(len(parts))
    roll = rng.random()
    if roll < 0.35:
        parts[i] = "(%s)*" % parts[i]
    elif roll < 0.7:
        parts[i] = "(%s | %s)" % (parts[i], atom())
    return " ".join(parts), views


def certain_probe(rng, mode, assumption, n):
    """A Table 1 chain instance for `mode` (cda or oda) and its known
    certain/refuted probe pair.

    Objects are a random permutation of 0..n-1 along a chain of p edges; the
    sound/exact view lists the chain (as p, or as p^- read backwards) and the
    query walks it end to end (forwards, or backwards with p^-). Every
    consistent database contains the chain, so its end-to-end pair is
    certain; the chain alone is consistent and lacks the reverse pair. The
    `mixed` variant adds a complete view `p p` listing exactly the chain's
    two-step pairs.
    """
    rel = rng.choice(CDA_RELATIONS)
    order = rng.sample(range(n), n)
    chain = [[order[i], order[i + 1]] for i in range(n - 1)]
    if rng.random() < 0.5:
        view = {"name": "v", "expr": rel, "extension": chain}
    else:
        view = {"name": "v", "expr": rel + "^-",
                "extension": [[b, a] for a, b in chain]}
    view["assumption"] = "exact" if assumption == "exact" else "sound"
    views = [view]
    if assumption == "mixed":
        views.append({"name": "w", "expr": "%s %s" % (rel, rel),
                      "assumption": "complete",
                      "extension": [[order[i], order[i + 2]]
                                    for i in range(n - 2)]})
    if rng.random() < 0.5:
        query = " ".join([rel] * (n - 1))
        certain = [order[0], order[-1]]
    else:
        query = " ".join([rel + "^-"] * (n - 1))
        certain = [order[-1], order[0]]
    return {"op": "answer", "mode": mode, "objects": n, "query": query,
            "views": views, "pairs": [certain, certain[::-1]]}


# --------------------------------------------------------------------------
# Responses


def response_tail(line):
    """A response line from its `cache` field (or its `us` field) on."""
    at = line.rfind(b'"cache":')
    if at < 0:
        at = line.rfind(b'"us":')
    return line[max(at, 0):]


class Tally:
    """What a run measured: op latencies, failures and request footprints."""

    def __init__(self, trace):
        self.trace = trace
        # (sent at, latency) per operation, both in seconds.
        self.ops = []
        self.failed = 0
        self.requests = 0
        self.problems = []
        # Traced runs only: response bytes, and per operation its latency
        # and the tail of each response line (cache, us, counters). layers.py
        # parses the tails after the traffic, so that the client does no
        # more work in the loop than in an untraced run.
        self.bytes = 0
        self.tails = []

    def problem(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def op_done(self, lines, latency_s):
        """Books one operation."""
        self.ops.append((time.perf_counter() - latency_s, latency_s))
        self.requests += len(lines)
        if self.trace:
            self.bytes += sum(len(line) + 1 for line in lines)
            self.tails.append((latency_s, [response_tail(line)
                                           for line in lines]))


# --------------------------------------------------------------------------
# Workloads


class Stream:
    """One connection's traffic; see serve.closed_loop."""

    def __init__(self, next_op, done):
        self.next_op = next_op
        self.done = done


class Workload:
    def __init__(self, workdir, seed, trace):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tally = Tally(trace)
        self.next_id = 0
        # Requests each server gets during set-up, before the traffic.
        self.requests_before_window = 1

    def new_id(self):
        self.next_id += 1
        return self.next_id

    def server_args(self):
        return ["--threads", str(SERVER_THREADS)]

    def warm(self, server):
        """Brings a fresh server to the state the timed traffic needs."""
        with server.connect() as sock:
            reply = server.request(sock, [{"id": 0, "op": "admin",
                                           "action": "stats"}])[0]
        if reply.get("status") != "ok":
            raise serve.BenchError("admin stats failed: %r" % reply)

    def streams(self):
        raise NotImplementedError

    def check(self):
        """Checks too slow for the timed window; failures go to the tally."""


class ModulesRead(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.tree = typical_tree(self.rng)
        self.tree.write(os.path.join(self.workdir, "modules.txt"))
        self.distinct = []
        for request in MIX:
            if request not in self.distinct:
                self.distinct.append(request)
        # Two passes: the first fills the plan cache, the second reads the
        # hits the traffic will see.
        self.requests_before_window = 2 * len(self.distinct)
        self.warm_lines = None

    def server_args(self):
        return super().server_args() + ["--db", "modules.txt"]

    def warm(self, server):
        with server.connect() as sock:
            for _ in range(2):
                self.warm_lines = [
                    server.exchange(sock, [request_line(
                        i, mix_request(*request))])[0]
                    for i, request in enumerate(self.distinct)]

    def expected_hits(self):
        """Checks the warm-up's hits against the oracle; returns each one's
        bytes between the id/status prefix and the server time."""
        graph = oracle.Graph(self.tree.edges())
        want = oracle.answers(VISIBILITY, graph)
        expected = {}
        for i, ((kind, query), line) in enumerate(zip(self.distinct,
                                                      self.warm_lines)):
            response = json.loads(line)
            if (response.get("status") != "ok" or response.get("id") != i
                    or response.get("cache") != "hit"):
                raise serve.BenchError("warm-up %s %r: %s" % (
                    kind, query, line[:200]))
            if kind == "eval":
                got = {tuple(pair) for pair in response["answers"]}
                if got != oracle.answers(query, graph):
                    raise serve.BenchError("warm-up %r: wrong answer set"
                                           % query)
            else:
                got = oracle.answers(response["rewriting"],
                                     oracle.view_graph(VIEWS, graph))
                if (response["empty"] or not response["exhaustive"]
                        or not got <= want
                        or (response["exact"] and got != want)):
                    raise serve.BenchError("warm-up rewriting %r is wrong"
                                           % response["rewriting"])
            expected[(kind, query)] = line[len(ok_prefix(i)):
                                           line.rfind(b'"us":') + 5]
        return expected

    def streams(self):
        expected = self.expected_hits()
        bodies = [(request_tail(mix_request(*request)) + b"\n",
                   expected[request]) for request in MIX]
        tally = self.tally

        def next_op():
            steps, ctx = [], []
            for body, want in bodies:
                op_id = self.new_id()
                steps.append((b'{"id":%d,' % op_id + body, 1))
                ctx.append((op_id, want))
            return steps, ctx

        def done(ctx, lines, latency_s):
            tally.op_done(lines, latency_s)
            for (op_id, want), line in zip(ctx, lines):
                prefix = ok_prefix(op_id)
                if not (line.startswith(prefix)
                        and line.startswith(want, len(prefix))):
                    tally.problem("request %d: %s" % (op_id, line[:200]))

        return [Stream(next_op, done) for _ in range(READ_CONNECTIONS)]


class ModulesEdit(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.trees = [typical_tree(self.rng) for _ in range(EDIT_TENANTS)]
        for tenant, tree in enumerate(self.trees):
            tree.write(os.path.join(self.workdir, "t%d_0.txt" % tenant))
        with open(os.path.join(self.workdir, "views.txt"), "w") as f:
            f.writelines("%s=%s\n" % view for view in sorted(VIEWS.items()))
        # (tree, reload id, eval response lines) of sampled edits.
        self.samples = []

    def server_args(self):
        args = super().server_args()
        for tenant in range(EDIT_TENANTS):
            args += ["--namespace", "t%d=t%d_0.txt:views.txt" % (tenant, tenant)]
        return args

    def streams(self):
        tally = self.tally
        files = ["t%d_0.txt" % tenant for tenant in range(EDIT_TENANTS)]
        saves = [0]

        def next_op():
            saves[0] += 1
            tenant = saves[0] % EDIT_TENANTS
            name = "t%d" % tenant
            # Each save changes the tenant's base tree a little, so the
            # traffic's cost does not drift away from the typical tree's.
            tree = self.trees[tenant].edited(self.rng)
            path = "%s_%d.txt" % (name, saves[0])
            tree.write(os.path.join(self.workdir, path))
            # The tenant's previous file is loaded by now.
            os.remove(os.path.join(self.workdir, files[tenant]))
            files[tenant] = path
            reload_id = self.new_id()
            reload = request_line(reload_id, {
                "op": "admin", "action": "reload", "ns": name, "db": path})
            evals = [request_line(self.new_id(), {
                "op": "eval", "ns": name, "query": query})
                for query in EDIT_QUERIES]
            sampled = saves[0] % EDIT_SAMPLE_EVERY == 0
            ctx = (reload_id, tree if sampled else None)
            return [(reload + b"\n", 1),
                    (b"\n".join(evals) + b"\n", len(evals))], ctx

        def done(ctx, lines, latency_s):
            reload_id, sampled_tree = ctx
            tally.op_done(lines, latency_s)
            reload, evals = lines[0], lines[1:]
            version = serve.response_field(reload, "snapshot_version")
            if not reload.startswith(ok_prefix(reload_id)) or not version:
                tally.problem("reload: %s" % reload[:200])
                return
            ids = range(reload_id + 1, reload_id + 1 + len(EDIT_QUERIES))
            for line in evals:
                op_id = response_id(line)
                if (op_id not in ids or not line.startswith(
                        ok_prefix(op_id) + b'"snapshot_version":'
                        + version + b",")):
                    tally.problem("eval after reload %d: %s" % (
                        reload_id, line[:200]))
                    return
            if sampled_tree is not None:
                self.samples.append((sampled_tree, reload_id, evals))

        return [Stream(next_op, done)]

    def check(self):
        """Answers of the sampled edits against their own version's tree."""
        for tree, reload_id, lines in self.samples:
            graph = oracle.Graph(tree.edges())
            for line in lines:
                response = json.loads(line)
                query = EDIT_QUERIES[response["id"] - reload_id - 1]
                got = {tuple(pair) for pair in response["answers"]}
                if got != oracle.answers(query, graph):
                    self.tally.problem("%r after reload %d: wrong answer set"
                                       % (query, reload_id))


class Decide(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.seen = set()
        self.samples = []

    def fresh_rewrite(self):
        while True:
            query, views = rewrite_instance(self.rng)
            key = (query, tuple(sorted(views.items())))
            if key not in self.seen:
                self.seen.add(key)
                return {"op": "rewrite", "query": query, "views": views}

    def streams(self):
        tally = self.tally

        def next_job():
            requests = [self.fresh_rewrite() for _ in range(DECIDE_REWRITES)]
            requests += [certain_probe(self.rng, "cda", assumption, objects)
                         for assumption, objects in DECIDE_CDA_VARIANTS]
            requests.append(certain_probe(
                self.rng, "oda", self.rng.choice(["sound", "exact"]), 2))
            for request in requests:
                request["id"] = self.new_id()
            payload = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                              for r in requests).encode()
            return [(payload, len(requests))], requests

        def job_done(requests, lines, latency_s):
            tally.op_done(lines, latency_s)
            by_id = {}
            for line in lines:
                response = json.loads(line)
                by_id[response.get("id")] = response
            for request in requests:
                response = by_id.get(request["id"], {})
                if response.get("status") != "ok":
                    tally.problem("%s: %r" % (request["op"], response))
                elif request["op"] == "answer":
                    got = [r["certain"] for r in response["results"]]
                    if got != [True, False]:
                        tally.problem("%s %r: got %r" % (
                            request["mode"], request, got))
                elif not response["exhaustive"]:
                    tally.problem("rewrite %r not exhaustive" % request)
                else:
                    self.samples.append((request, response))

        return [Stream(next_job, job_done) for _ in range(DECIDE_CONNECTIONS)]

    def check(self):
        """Rewritings are sound on random databases, and exact ones agree.

        Evaluating a rewriting over the views materialized on a database gives
        the answers of its expansion there, so a sound rewriting's answers are
        a subset of the query's, and an exact rewriting's are the same set.
        """
        rng = random.Random(len(self.samples))
        chosen = rng.sample(self.samples, min(DECIDE_CHECKED, len(self.samples)))
        for request, response in chosen:
            if response["empty"]:
                continue
            for _ in range(2):
                graph = oracle.Graph([("o%d" % rng.randrange(8),
                                       rng.choice(REWRITE_RELATIONS),
                                       "o%d" % rng.randrange(8))
                                      for _ in range(16)])
                graph.nodes = {"o%d" % i for i in range(8)}
                want = oracle.answers(request["query"], graph)
                got = oracle.answers(response["rewriting"],
                                     oracle.view_graph(request["views"], graph))
                if not got <= want or (response["exact"] and got != want):
                    self.tally.problem("rewrite %r gave %r" % (
                        request, response["rewriting"]))
                    break


WORKLOADS = {"modules_read": ModulesRead, "modules_edit": ModulesEdit,
             "decide": Decide}


# --------------------------------------------------------------------------
# Run


def percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_window(ops, start, end):
    """Latencies (ms) of the operations sent in each whole window of the
    timed run.

    Each timing is reported as its median over these windows, which shrugs
    off the bursts in which a shared machine runs the benchmark slower. The
    tail is p90: the highest percentile that keeps ten samples beyond it in
    every window of the slowest workload (modules_edit, ~100 operations).
    """
    windows = [[] for _ in range(int((end - start) / WINDOW_S))]
    for sent, latency in ops:
        index = math.floor((sent - start) / WINDOW_S)
        if 0 <= index < len(windows):
            windows[index].append(latency * 1000.0)
    return [w for w in windows if w]


def measure(binary, workdir, args):
    workload = WORKLOADS[args.workload](workdir, args.seed, args.trace)
    prefix = os.path.join(workdir, "serve")
    setup_times = []
    server = None
    try:
        for attempt in range(SETUPS):
            last = attempt == SETUPS - 1
            started = time.perf_counter()
            server = serve.Server(binary, workdir, workload.server_args(),
                                  prefix if last and args.trace else None)
            workload.warm(server)
            setup_times.append(time.perf_counter() - started)
            if not last:
                server.stop()
        streams = workload.streams()
        # The client's own garbage collector would stall responses mid-run.
        gc.collect()
        gc.disable()
        client_cpu_s = time.process_time()
        measure_from, end = serve.closed_loop(server, streams,
                                              TRAFFIC_WARMUP_S, args.seconds)
        client_cpu_s = time.process_time() - client_cpu_s
        gc.enable()
        server.stop()
    finally:
        if server is not None:
            server.kill()
    workload.check()
    tally = workload.tally
    for message in tally.problems:
        log("check failed: " + message)
    windows = per_window(tally.ops, measure_from, end)
    if not windows:
        raise serve.BenchError("no operation completed in the timed run")
    p50_ms = statistics.median(statistics.median(w) for w in windows)
    if args.trace:
        metrics = layers.per_layer(workload, prefix, p50_ms, client_cpu_s)
    else:
        metrics = {
            "p50_ms": (p50_ms, "ms"),
            "p90_ms": (statistics.median(percentile(w, 0.9) for w in windows),
                       "ms"),
            "ops_per_s": (statistics.median(len(w) for w in windows)
                          / WINDOW_S, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    # Every check failure names one request, so requests are what is counted.
    log("%s seed %d: %d operations, %d requests, %d failed" % (
        args.workload, args.seed, len(tally.ops), tally.requests, tally.failed))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.requests,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    workdir = os.path.join(target_dir("tmp"), "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        result = measure(binary, workdir, args)
    except (serve.BenchError, OSError, ValueError) as err:
        # ValueError: a response that is not the JSON it should be.
        fail(str(err), code=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
