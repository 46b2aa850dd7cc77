"""Canonical labelling of graph patterns.

Two patterns get the same key exactly when they are isomorphic under renaming
of non-reserved variables (triple order ignored). Reserved ?source/?target
keep their identity. Keys are stable across processes: no builtin hashing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType

from .patterns import GraphPattern, Variable, is_var

MAX_VERTICES = 200


@dataclass(frozen=True)
class CanonicalForm:
    key: str
    variable_mapping: MappingProxyType  # Variable -> canonical Variable, read-only

    def __hash__(self):
        return hash(self.key)


def _sig(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _vertex(node):
    return ("var", node.name) if is_var(node) else ("term", node)


def _initial_color(vertex) -> str:
    kind, payload = vertex
    if kind == "triple":
        return "T"
    if kind == "term":
        return "K:" + payload.n3()
    if payload in ("source", "target"):
        return "R:" + payload
    return "V"


def canonicalize(gp: GraphPattern) -> CanonicalForm:
    """Canonical form via color refinement with deterministic individualization.

    Computed once per pattern object and kept on it: patterns are immutable.
    """
    if gp._canon is None:
        object.__setattr__(gp, "_canon", _compute(gp))
    return gp._canon


def _compute(gp: GraphPattern) -> CanonicalForm:
    if not gp.triples:
        raise ValueError("cannot canonicalize an empty pattern")

    triples = gp.sorted_triples()
    vertices: set = set()
    adjacency: dict = {}

    def add_edge(a, b, label: str) -> None:
        adjacency.setdefault(a, []).append((label, ">", b))
        adjacency.setdefault(b, []).append((label, "<", a))

    for i, tp in enumerate(triples):
        tv = ("triple", i)
        vertices.add(tv)
        for label, node in (("s", tp.s), ("p", tp.p), ("o", tp.o)):
            nv = _vertex(node)
            vertices.add(nv)
            add_edge(tv, nv, label)
    for v in vertices:
        adjacency.setdefault(v, [])
    if len(vertices) > MAX_VERTICES:
        raise ValueError("pattern too large for canonicalization: %d vertices"
                         % len(vertices))

    free_names = sorted(v[1] for v in vertices
                        if v[0] == "var" and v[1] not in ("source", "target"))

    def refine(colors: dict) -> dict:
        while True:
            new = {}
            for v in vertices:
                sig_parts = sorted("%s|%s|%s" % (label, direction, colors[n])
                                   for label, direction, n in adjacency[v])
                new[v] = _sig(colors[v], *sig_parts)
            if len(set(new.values())) == len(set(colors.values())):
                return new
            colors = new

    def serialize(colors: dict) -> tuple[str, dict]:
        ordered = sorted(free_names, key=lambda name: (colors[("var", name)], name))
        rename = {name: "cv%d" % i for i, name in enumerate(ordered)}

        def canon_node(node):
            if is_var(node):
                if node.name in ("source", "target"):
                    return node
                return Variable(rename[node.name])
            return node

        lines = sorted("%s %s %s ." % (canon_node(tp.s).n3(), canon_node(tp.p).n3(),
                                       canon_node(tp.o).n3())
                       for tp in triples)
        mapping = {Variable(name): Variable(new) for name, new in rename.items()}
        mapping[Variable("source")] = Variable("source")
        mapping[Variable("target")] = Variable("target")
        return "\n".join(lines), mapping

    def search(colors: dict) -> tuple[str, dict]:
        colors = refine(colors)
        by_color: dict[str, list] = {}
        for name in free_names:
            by_color.setdefault(colors[("var", name)], []).append(name)
        tied = {c: names for c, names in by_color.items() if len(names) > 1}
        if not tied:
            return serialize(colors)
        target_color = min(tied)
        best = None
        for name in sorted(tied[target_color]):
            branched = dict(colors)
            branched[("var", name)] = _sig("IND", colors[("var", name)])
            result = search(branched)
            if best is None or result[0] < best[0]:
                best = result
        return best

    key, mapping = search({v: _initial_color(v) for v in vertices})
    del search  # its closure holds itself: free the pattern's graph now, not at a GC pass
    return CanonicalForm(key=key, variable_mapping=MappingProxyType(mapping))


def pattern_key(gp: GraphPattern) -> str:
    return canonicalize(gp).key
