#!/usr/bin/env python3
"""Golden test of the rendered maximal rewritings.

Usage: rewrite_golden_test.py RPQI_BINARY GOLDEN_FILE [--update]

GOLDEN_FILE holds one rewrite instance per line: a name, a query, its views
(name -> expression), and the expected `rewriting` text and `stats` object
of the `rpqi serve` rewrite response. The instances are the first 35
distinct ones that perfbench's `rewrite_instance` draws from
random.Random(7), the paper's Example 3 (the Algol visibility query over
its navigation views), and the hard family (a | b)* a (a | b)^k for
k = 0..3 over the views va = a, vb = b.

The test sends every instance to one `rpqi serve` process over stdin and
fails on any byte of difference in `rewriting` or `stats`, so a change to
the pipeline (the subset construction, Minimize, state elimination, the
printer) shows whether its output is identical. With --update it rewrites
the expected fields from RPQI_BINARY instead; regenerate only when an output
change is intended, and say so where the change is described.
"""

import json
import subprocess
import sys

CHECKED_FIELDS = ("rewriting", "stats")


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def serve(binary, instances):
    """The rewrite response for each instance, in instance order."""
    requests = "".join(
        json.dumps({"id": i, "op": "rewrite", "query": instance["query"],
                    "views": instance["views"]}) + "\n"
        for i, instance in enumerate(instances))
    result = subprocess.run([binary, "serve", "--threads", "1"],
                            input=requests, capture_output=True, text=True,
                            timeout=300)
    if result.returncode != 0:
        sys.exit("rpqi serve exited %d: %s" % (result.returncode,
                                                result.stderr[-500:]))
    by_id = {}
    for line in result.stdout.splitlines():
        response = json.loads(line)
        by_id[response.get("id")] = response
    return [by_id.get(i, {}) for i in range(len(instances))]


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = len(args) != len(sys.argv) - 1
    if len(args) != 2:
        sys.exit(__doc__)
    binary, golden_path = args
    instances = load(golden_path)
    responses = serve(binary, instances)

    failures = []
    for instance, response in zip(instances, responses):
        if response.get("status") != "ok":
            failures.append("%s: %r" % (instance["name"], response))
            continue
        for field in CHECKED_FIELDS:
            if update:
                instance[field] = response[field]
            elif response.get(field) != instance.get(field):
                failures.append("%s: %s\n  want %s\n  got  %s" % (
                    instance["name"], field,
                    json.dumps(instance.get(field)),
                    json.dumps(response.get(field))))

    if failures:
        print("\n".join(failures))
        print("\n%d of %d instances differ" % (
            len({f.split(":")[0] for f in failures}), len(instances)))
        return 1
    if update:
        with open(golden_path, "w") as handle:
            for instance in instances:
                handle.write(json.dumps(instance) + "\n")
        print("updated %d instances" % len(instances))
        return 0
    print("all %d rewritings match" % len(instances))
    return 0


if __name__ == "__main__":
    sys.exit(main())
