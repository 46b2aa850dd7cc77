"""SPARQL basic graph patterns: variables, triple patterns, and pattern predicates."""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Iterator, Optional, Union

from .rdf import IRI, LITERAL, Term

SOURCE_NAME = "source"
TARGET_NAME = "target"

_VAR_KIND_ORDER = 9  # variables sort after all term kinds

# SPARQL's VARNAME, ASCII only: every name the learner makes has this form
_VARNAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Variable(namedtuple("_Variable", "name")):
    __slots__ = ()

    def __new__(cls, name: str):
        if not _VARNAME_RE.fullmatch(name):
            raise ValueError("not a variable name: %r" % (name,))
        return tuple.__new__(cls, (name,))

    def __repr__(self):
        return "Variable(%r)" % self.name

    def sort_key(self):
        return (_VAR_KIND_ORDER, self.name, "", "")

    def n3(self) -> str:
        return "?%s" % self.name

    @property
    def is_reserved(self) -> bool:
        return self.name in (SOURCE_NAME, TARGET_NAME)


SOURCE_VAR = Variable(SOURCE_NAME)
TARGET_VAR = Variable(TARGET_NAME)

Node = Union[Term, Variable]

Binding = dict  # Variable -> Term


def is_var(node: Node) -> bool:
    return isinstance(node, Variable)


class TriplePattern(namedtuple("_TriplePattern", "s p o")):
    __slots__ = ()

    def __new__(cls, s: Node, p: Node, o: Node):
        if isinstance(s, Term) and s.kind == LITERAL:
            raise ValueError("triple pattern subject must not be a literal")
        if isinstance(p, Term) and p.kind != IRI:
            raise ValueError("triple pattern predicate must be an IRI or variable")
        return tuple.__new__(cls, (s, p, o))

    def __repr__(self):
        return "TriplePattern(%s)" % self.n3()

    def sort_key(self):
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())

    def n3(self) -> str:
        return "%s %s %s ." % (self.s.n3(), self.p.n3(), self.o.n3())

    def variables(self) -> Iterator[Variable]:
        for node in self:
            if isinstance(node, Variable):
                yield node

    def substitute(self, binding: Binding) -> "TriplePattern":
        def sub(node: Node) -> Node:
            return binding.get(node, node) if isinstance(node, Variable) else node
        return TriplePattern(sub(self.s), sub(self.p), sub(self.o))


class GraphPattern:
    """A set of triple patterns; the evolutionary individual.

    `_canon` holds the canonical form once `canon.canonicalize` has computed
    it; it takes no part in equality, hashing or repr.
    """

    __slots__ = ("triples", "_hash", "_canon")

    def __init__(self, triples: Iterable[TriplePattern] = ()):
        object.__setattr__(self, "triples", frozenset(triples))
        object.__setattr__(self, "_hash", hash(self.triples))
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("GraphPattern is immutable")

    def __eq__(self, other):
        return isinstance(other, GraphPattern) and self.triples == other.triples

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.triples)

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.sorted_triples())

    def __repr__(self):
        return "GraphPattern{%s}" % " ".join(t.n3() for t in self.sorted_triples())

    def sorted_triples(self) -> list[TriplePattern]:
        return sorted(self.triples, key=TriplePattern.sort_key)

    def variables(self) -> set[Variable]:
        return {v for t in self.triples for v in t.variables()}

    def nonreserved_variables(self) -> list[Variable]:
        return sorted((v for v in self.variables() if not v.is_reserved),
                      key=lambda v: v.name)

    @property
    def length(self) -> int:
        return len(self.triples)

    @property
    def variable_count(self) -> int:
        return len(self.variables())

    @property
    def is_complete(self) -> bool:
        vs = self.variables()
        return SOURCE_VAR in vs and TARGET_VAR in vs

    def nodes(self) -> set[Node]:
        """Subject and object positions only; predicates attach to the s-o edge."""
        out: set[Node] = set()
        for t in self.triples:
            out.add(t.s)
            out.add(t.o)
        return out

    @property
    def is_connected(self) -> bool:
        if not self.triples:
            return False
        triples = list(self.triples)
        # union-find over s-o endpoints; predicate variables also join their edge
        parent: dict[Node, Node] = {}

        def find(x: Node) -> Node:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: Node, b: Node) -> None:
            parent[find(a)] = find(b)

        for t in triples:
            union(t.s, t.o)
            if isinstance(t.p, Variable):
                union(t.p, t.s)
        roots = {find(n) for n in parent}
        return len(roots) == 1

    def with_triple(self, tp: TriplePattern) -> "GraphPattern":
        return GraphPattern(self.triples | {tp})

    def without_triple(self, tp: TriplePattern) -> "GraphPattern":
        return GraphPattern(self.triples - {tp})

    def substitute(self, binding: Binding) -> "GraphPattern":
        return GraphPattern(t.substitute(binding) for t in self.triples)

    def text(self) -> str:
        return " ".join(t.n3() for t in self.sorted_triples())


# ---------------------------------------------------------------------------
# SPARQL 1.1 serialization


def long_row_error(row: tuple, width: int) -> ValueError:
    """The error for a VALUES row with more entries than its variables."""
    return ValueError("VALUES row %r is longer than its %d variables" % (row, width))


def values_clause(variables: list[Variable], rows: list[tuple]) -> str:
    head = " ".join(v.n3() for v in variables)
    width = len(variables)
    for row in rows:
        if len(row) > width:
            raise long_row_error(row, width)
    # a short row leaves its last variables unbound, as in engine.select
    body = " ".join("(%s)" % " ".join("UNDEF" if t is None else t.nt
                                      for t in row + (None,) * (width - len(row)))
                    for row in rows)
    return "VALUES (%s) { %s }" % (head, body)


def to_select_sparql(gp: GraphPattern, projection: list[Variable],
                     values: Optional[tuple[list[Variable], list[tuple]]] = None,
                     limit: Optional[int] = None) -> str:
    parts = ["SELECT DISTINCT %s WHERE {" % " ".join(v.n3() for v in projection)]
    if values is not None:
        parts.append(" " + values_clause(*values))
    parts.extend(" " + t.n3() for t in gp.sorted_triples())
    parts.append(" }")
    if limit is not None:
        parts.append(" LIMIT %d" % limit)
    return "".join(parts)
