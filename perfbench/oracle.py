"""Reference semantics the benchmark checks rpqi's answers against.

Written independently of the program's automata: a regular path query with
inverse is evaluated as relational algebra over node pairs (atoms are edge
sets, concatenation is composition, `^-` is the converse, `*` is the
reflexive-transitive closure over every node of the database).
"""

import re

_TOKEN = re.compile(r"\s*(?:(\^-)|([A-Za-z_][A-Za-z0-9_]*)|(%[A-Za-z]+)|(.))")


def parse(text):
    """Parses the rpqi expression syntax into nested tuples."""
    tokens = []
    for inv, ident, pct, other in _TOKEN.findall(text):
        if inv:
            tokens.append(("^-", None))
        elif ident:
            tokens.append(("id", ident))
        elif pct:
            tokens.append(("%", pct[1:]))
        elif other.strip():
            tokens.append((other, None))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def alternation():
        nonlocal pos
        node = concat()
        while peek() == "|":
            pos += 1
            node = ("alt", node, concat())
        return node

    def concat():
        node = repetition()
        while peek() in ("id", "%", "("):
            node = ("cat", node, repetition())
        return node

    def repetition():
        nonlocal pos
        node = primary()
        while peek() in ("*", "+", "?", "^-"):
            kind = {"*": "star", "+": "plus", "?": "opt", "^-": "inv"}[peek()]
            pos += 1
            node = (kind, node)
        return node

    def primary():
        nonlocal pos
        kind, value = tokens[pos] if pos < len(tokens) else (None, None)
        pos += 1
        if kind == "(":
            node = alternation()
            if peek() != ")":
                raise ValueError("expected ')' in %r" % text)
            pos += 1
            return node
        if kind == "id":
            return ("atom", value)
        if kind == "%" and value in ("eps", "epsilon"):
            return ("eps",)
        if kind == "%" and value == "empty":
            return ("empty",)
        raise ValueError("unexpected token in %r" % text)

    node = alternation()
    if pos != len(tokens):
        raise ValueError("trailing input in %r" % text)
    return node


class Graph:
    """Edge-labelled graph: `edges` is an iterable of (from, relation, to)."""

    def __init__(self, edges):
        self.nodes = set()
        self.forward = {}
        for a, rel, b in edges:
            self.nodes.add(a)
            self.nodes.add(b)
            self.forward.setdefault(rel, {}).setdefault(a, set()).add(b)

    def relation(self, name):
        return self.forward.get(name, {})


def _converse(rel):
    out = {}
    for a, targets in rel.items():
        for b in targets:
            out.setdefault(b, set()).add(a)
    return out


def _compose(left, right):
    out = {}
    for a, mids in left.items():
        reached = set()
        for m in mids:
            reached.update(right.get(m, ()))
        if reached:
            out[a] = reached
    return out


def _union(left, right):
    out = {a: set(t) for a, t in left.items()}
    for a, t in right.items():
        out.setdefault(a, set()).update(t)
    return out


def _closure(rel, nodes):
    out = {}
    for start in nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            step = []
            for a in frontier:
                for b in rel.get(a, ()):
                    if b not in seen:
                        seen.add(b)
                        step.append(b)
            frontier = step
        out[start] = seen
    return out


def evaluate(node, graph):
    """Answer relation of a parsed expression over `graph`: node -> targets."""
    kind = node[0]
    if kind == "atom":
        return graph.relation(node[1])
    if kind == "eps":
        return {a: {a} for a in graph.nodes}
    if kind == "empty":
        return {}
    if kind == "inv":
        return _converse(evaluate(node[1], graph))
    if kind == "cat":
        return _compose(evaluate(node[1], graph), evaluate(node[2], graph))
    if kind == "alt":
        return _union(evaluate(node[1], graph), evaluate(node[2], graph))
    if kind == "opt":
        return _union(evaluate(node[1], graph), evaluate(("eps",), graph))
    if kind == "star":
        return _closure(evaluate(node[1], graph), graph.nodes)
    if kind == "plus":
        inner = evaluate(node[1], graph)
        return _compose(inner, _closure(inner, graph.nodes))
    raise ValueError(kind)


def answers(text, graph):
    """All answer pairs of the query `text` over `graph`, as a set."""
    rel = evaluate(parse(text), graph)
    return {(a, b) for a, targets in rel.items() for b in targets}


def view_graph(view_defs, graph):
    """The graph whose `v` edges are the extension of view `v` over `graph`."""
    edges = []
    for name, expr in view_defs.items():
        edges.extend((a, name, b) for a, b in answers(expr, graph))
    result = Graph(edges)
    result.nodes = set(graph.nodes)
    return result
