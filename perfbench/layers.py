"""Per-layer breakdown of a traced run (`--trace 1`).

Three sources, each measured where the work happens:
  * the benchmark's own client: each operation's latency, from sending its
    requests to reading its last response line, the client's CPU time (its
    share of what the latency measures), and each response's `us` (the
    server's execution time before rendering) and `counters` (the exact
    per-request counter footprint the server reports in-band);
  * the server's span trace (`--trace-out`): every request is a
    `service.request` span whose descendants are the engine layers;
  * the server's metrics dump (`--metrics-out`): queue wait and batch sizes.
"""

import json

import serve

# Span name -> layer. A span's self time (its duration minus its children's)
# goes to the nearest enclosing span that names a layer.
LAYER_OF_SPAN = {
    "compile.regex": "compile",
    "eval.all_pairs": "eval",
    "rewrite.A1": "rewrite_a1",
    "rewrite.A3": "rewrite_a3",
    "rewrite.A2xA3": "rewrite_a2xa3",
    "rewrite.A4": "rewrite_a4",
    "rewrite.R": "rewrite_r",
    "answer.CDA.probe": "cda",
    "answer.ODA.probe": "oda",
    "service.snapshot.load": "snapshot",
    "service.request": "other",
}
# Automata work directly under a request, outside the rewriting pipeline and
# the CDA/ODA searches, is the exactness check (containment, Theorem 9).
CONTAINMENT_SPANS = ("automata.", "emptiness.")
LAYERS = ["compile", "eval", "rewrite_a1", "rewrite_a3", "rewrite_a2xa3",
          "rewrite_a4", "rewrite_r", "containment", "cda", "oda", "snapshot",
          "other"]


def _read_ndjson(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _read_spans(path):
    """(id, parent, name, dur_us) of every span in a --trace-out file."""
    spans = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            spans.append((record["id"], record["parent"], record["name"],
                          record["dur_us"]))
    return spans


def layer_shares(spans, skip, count):
    """Share of request time per layer over requests skip..skip+count-1."""
    requests = sorted(s for s in spans if s[2] == "service.request")
    requests = requests[skip:skip + count]
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    totals = dict.fromkeys(LAYERS, 0)
    for root in requests:
        stack = [(root, "other")]
        while stack:
            span, layer = stack.pop()
            span_id, _, name, dur_us = span
            if name in LAYER_OF_SPAN:
                layer = LAYER_OF_SPAN[name]
            elif layer == "other" and name.startswith(CONTAINMENT_SPANS):
                layer = "containment"
            kids = children.get(span_id, [])
            totals[layer] += dur_us - sum(kid[3] for kid in kids)
            stack.extend((kid, layer) for kid in kids)
    whole = sum(r[3] for r in requests) or 1
    return {name: 100.0 * value / whole for name, value in totals.items()}


def _histogram_mean(records, name):
    for record in records:
        if record.get("type") == "histogram" and record["name"] == name:
            return record["sum_us"] / record["count"] if record["count"] else 0.0
    return 0.0


def footprints(tally):
    """Server time (`us`: execution before rendering), the rest of the
    operations' latency, cache hits and engine counters of the traffic."""
    out = {"server_us": 0, "outside_us": 0.0, "cacheable": 0, "cache_hits": 0,
           "counters": {}}
    counters = out["counters"]
    for latency_s, tails in tally.tails:
        server_us = 0
        for tail in tails:
            server_us += int(serve.response_field(tail, "us") or 0)
            cache = serve.response_field(tail, "cache")
            if cache is not None:
                out["cacheable"] += 1
                out["cache_hits"] += cache == b'"hit"'
            at = tail.rfind(b'"counters":')
            if at >= 0:
                for name, value in json.loads(tail[at + 11:-1]).items():
                    counters[name] = counters.get(name, 0) + value
        out["server_us"] += server_us
        out["outside_us"] += latency_s * 1e6 - server_us
    return out


def per_layer(workload, prefix, p50_ms, client_cpu_s):
    tally = workload.tally
    requests = max(tally.requests, 1)
    shares = layer_shares(_read_spans(prefix + ".trace"),
                          workload.requests_before_window, tally.requests)
    records = _read_ndjson(prefix + ".metrics")
    seen = footprints(tally)
    counters = seen["counters"]

    def per_request(name):
        return counters.get(name, 0) / requests

    metrics = {
        "traced_p50_ms": (p50_ms, "ms"),
        "server_us_per_req": (seen["server_us"] / requests, "us"),
        "outside_us_per_req": (seen["outside_us"] / requests, "us"),
        "client_cpu_us_per_op": (client_cpu_s * 1e6 / max(len(tally.ops), 1),
                                 "us"),
        "queue_wait_us": (_histogram_mean(records, "worker_pool.queue_wait_us"),
                          "us"),
        "batch_size_mean": (_histogram_mean(records, "service.batch.size"),
                            "count"),
        "response_bytes_per_req": (tally.bytes / requests, "B"),
        "cache_hit_pct": (100.0 * seen["cache_hits"]
                          / max(seen["cacheable"], 1), "%"),
        "regex_compiles_per_req": (per_request("compile.regexes"), "count"),
        "plan_compiles_per_req": (per_request("eval.plan_compiles"), "count"),
        "bfs_runs_per_req": (per_request("eval.bfs_runs"), "count"),
        "eval_configs_per_req": (per_request("eval.configurations"), "count"),
        "cda_nodes_per_req": (per_request("cda.nodes_visited"), "count"),
    }
    for name in LAYERS:
        metrics[name + "_pct"] = (shares[name], "%")
    return metrics
