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
    return hashlib.sha256(("\x00".join(parts) + "\x00").encode("utf-8")).hexdigest()


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
    # a vertex for each triple and for each distinct node
    size = len(triples) + len({node for tp in triples for node in tp})
    if size > MAX_VERTICES:
        raise ValueError("pattern too large for canonicalization: %d vertices"
                         % size)

    free_names = sorted(v.name for v in gp.variables() if not v.is_reserved)
    if len(free_names) <= 1:
        # colours only order the free variables, so one or none needs no search
        key, mapping = _serialize(triples, free_names)
    else:
        key, mapping = _search(triples, free_names)
    return CanonicalForm(key=key, variable_mapping=MappingProxyType(mapping))


def _serialize(triples: list, ordered: list) -> tuple[str, dict]:
    """The key and variable mapping that name the free variables `ordered`
    cv0, cv1, ... in that order."""
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


def _search(triples: list, free_names: list) -> tuple[str, dict]:
    """The least serialization over the orders of the free variables that
    colour refinement, with individualization of tied colours, leaves."""
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
        return _serialize(triples, sorted(
            free_names, key=lambda name: (colors[("var", name)], name)))

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

    best = search({v: _initial_color(v) for v in vertices})
    del search  # its closure holds itself: free the pattern's graph now, not at a GC pass
    return best


def pattern_key(gp: GraphPattern) -> str:
    return canonicalize(gp).key
