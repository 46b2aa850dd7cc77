"""SPARQL basic graph patterns: variables, triple patterns, and pattern predicates."""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Iterator, Optional, Union

from .rdf import BNODE, IRI, LITERAL, Term

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


def is_var(node: Node) -> bool:
    return isinstance(node, Variable)


_NO_BLANK_NODE = "a triple pattern names no blank node"


class TriplePattern(namedtuple("_TriplePattern", "s p o")):
    __slots__ = ()

    def __new__(cls, s: Node, p: Node, o: Node):
        # SPARQL reads a blank node in a query as a variable, the store as a
        # constant: a pattern names none, so both read it alike
        if isinstance(s, Term) and s.kind != IRI:
            raise ValueError("triple pattern subject must not be a literal"
                             if s.kind == LITERAL else _NO_BLANK_NODE)
        if isinstance(p, Term) and p.kind != IRI:
            raise ValueError("triple pattern predicate must be an IRI or variable")
        if isinstance(o, Term) and o.kind == BNODE:
            raise ValueError(_NO_BLANK_NODE)
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

    def substitute(self, binding: dict) -> "TriplePattern":
        """Each node that is a key of `binding`, a variable or a term, replaced."""
        get = binding.get
        return TriplePattern(get(self.s, self.s), get(self.p, self.p), get(self.o, self.o))


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

    def substitute(self, binding: dict) -> "GraphPattern":
        return GraphPattern(t.substitute(binding) for t in self.triples)

    def text(self) -> str:
        return " ".join(t.n3() for t in self.sorted_triples())


# ---------------------------------------------------------------------------
# SPARQL 1.1 query shape, checked alike by every backend, and serialization


def values_table(width: int, rows) -> tuple:
    """`rows` as a tuple, each row holding one Term per VALUES variable; a
    shorter or longer row is a ValueError."""
    if set(map(len, rows)) <= {width}:
        return tuple(rows)
    row = next(row for row in rows if len(row) != width)
    raise ValueError("VALUES row %r is %s than its %d variables"
                     % (row, "longer" if len(row) > width else "shorter", width))


def check_pattern(gp: GraphPattern) -> None:
    """ValueError unless `gp` has a triple pattern: a query needs at least one."""
    if not gp.triples:
        raise ValueError("a query needs at least one triple pattern")


def check_projection(gp: GraphPattern, projection, values_vars) -> None:
    """ValueError unless each projected variable occurs in `gp` or among
    the VALUES variables."""
    known = gp.variables() | set(values_vars)
    missing = [v for v in projection if v not in known]
    if missing:
        raise ValueError("projection variables not in pattern or VALUES: %s"
                         % ", ".join(v.n3() for v in missing))


def check_limit(limit) -> None:
    """ValueError unless `limit` is None (no limit) or an int >= 0."""
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError("a limit is None or an integer >= 0, not %r" % (limit,))


def values_clause(variables: list[Variable], rows: list[tuple]) -> str:
    head = " ".join(v.n3() for v in variables)
    body = " ".join("(%s)" % " ".join(t.n3() for t in row)
                    for row in values_table(len(variables), rows))
    return "VALUES (%s) { %s }" % (head, body)


def to_select_sparql(gp: GraphPattern, projection: list[Variable],
                     values: Optional[tuple[list[Variable], list[tuple]]] = None,
                     limit: Optional[int] = None) -> str:
    check_limit(limit)
    parts = ["SELECT DISTINCT %s WHERE {" % " ".join(v.n3() for v in projection)]
    if values is not None:
        parts.append(" " + values_clause(*values))
    parts.extend(" " + t.n3() for t in gp.sorted_triples())
    parts.append(" }")
    if limit is not None:
        parts.append(" LIMIT %d" % limit)
    return "".join(parts)
