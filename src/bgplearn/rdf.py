"""RDF data model, N-Triples / Turtle-subset parsing, and an indexed in-memory store."""

from __future__ import annotations

import gzip
import re
import sys
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional

IRI = "iri"
BNODE = "bnode"
LITERAL = "literal"

IN = "in"
OUT = "out"
BIDI = "bidi"

# The text each term field may hold, from the IRIREF, BLANK_NODE_LABEL and
# LANGTAG rules of N-Triples; the tokenizer reads tokens with the same classes.
_IRI_CHARS = r'[^<>"{}|^`\\\x00-\x20]*'
_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:" + _IRI_CHARS)
_BLANK_RE = re.compile(r"[A-Za-z0-9](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")
_LANG_RE = re.compile(r"[A-Za-z][A-Za-z0-9\-]*")

_KIND_ORDER = {IRI: 0, BNODE: 1, LITERAL: 2}


class RDFSyntaxError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class Term(namedtuple("_Term", "kind value datatype lang")):
    """An RDF node: IRI, blank node, or literal. An immutable tuple of its four
    fields that writes its N-Triples text in `n3()`; order terms with `sort_key()`."""

    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: Optional[str] = None,
                lang: Optional[str] = None):
        if kind not in (IRI, BNODE, LITERAL):
            raise ValueError("unknown term kind: %r" % kind)
        if kind != LITERAL and (datatype is not None or lang is not None):
            raise ValueError("datatype/lang only valid on literals")
        if datatype is not None and lang is not None:
            raise ValueError("literal has at most one of datatype and language tag")
        if not isinstance(value, str) or {type(datatype), type(lang)} - {str, type(None)}:
            raise ValueError("a term's value, datatype and language tag are strings, "
                             "not %r" % ((value, datatype, lang),))
        # a field N-Triples cannot write would change the text of every
        # query or file that the term is written into
        if kind == IRI and not _IRI_RE.fullmatch(value):
            raise ValueError("not an absolute IRI: %r" % (value,))
        if kind == BNODE and not _BLANK_RE.fullmatch(value):
            raise ValueError("not a blank node label: %r" % (value,))
        if datatype is not None and not _IRI_RE.fullmatch(datatype):
            raise ValueError("not an absolute datatype IRI: %r" % (datatype,))
        if lang is not None and not _LANG_RE.fullmatch(lang):
            raise ValueError("not a language tag: %r" % (lang,))
        return tuple.__new__(cls, (kind, value, datatype, lang))

    def __repr__(self):
        return "Term(%s)" % self.n3()

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.value, self.datatype or "", self.lang or "")

    def n3(self) -> str:
        kind, value, datatype, lang = self
        if kind == IRI:
            return "<%s>" % value
        if kind == BNODE:
            return "_:%s" % value
        text = '"%s"' % (value.replace("\\", "\\\\").replace('"', '\\"')
                         .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))
        if lang is not None:
            return "%s@%s" % (text, lang)
        return text if datatype is None else "%s^^<%s>" % (text, datatype)


def iri(value: str) -> Term:
    return Term(IRI, value)


def bnode(value: str) -> Term:
    return Term(BNODE, value)


def literal(value: str, datatype: Optional[str] = None, lang: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype, lang)


class Triple(namedtuple("_Triple", "s p o")):
    """A ground RDF statement. Subject is never a literal; predicate is an IRI."""

    __slots__ = ()

    def __new__(cls, s: Term, p: Term, o: Term):
        if s.kind == LITERAL:
            raise ValueError("triple subject must not be a literal")
        if p.kind != IRI:
            raise ValueError("triple predicate must be an IRI")
        return tuple.__new__(cls, (s, p, o))

    def __repr__(self):
        return "Triple(%s %s %s)" % (self.s.n3(), self.p.n3(), self.o.n3())

    def n3(self) -> str:
        return "%s %s %s ." % (self.s.n3(), self.p.n3(), self.o.n3())


def _key_getter(slots: list[int]):
    """The getter of a lookup table's key from the ids at `slots` of a
    sequence: the id for one slot, their tuple for none or several."""
    return itemgetter(*slots) if slots else (lambda ids: ())


# each lookup table's key from (s, p, o), by mask (see `TripleStore`)
_KEYS = [_key_getter([i for i in range(3) if mask & (4 >> i)]) for mask in range(8)]


class TripleStore:
    """Immutable-after-load set of triples behind one lookup table per
    bound/unbound slot combination.

    Terms are interned to integer ids. `tables[mask]` (s = 4, p = 2, o = 1)
    maps the ids of the bound slots alone, an int for one slot and a tuple
    otherwise, to their id-triples in (s, p, o) order; a group of one triple
    is that triple's 1-tuple in `tables[7]`. So every lookup and every count
    is one dict read, and results are deterministic for a given load.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        # ids in first-occurrence order, s then p then o of each triple; that
        # order decides the order of every lookup's results
        ids: dict[Term, int] = {}
        intern = ids.setdefault
        spo = {(intern(t.s, len(ids)), intern(t.p, len(ids)), intern(t.o, len(ids)))
               for t in triples}
        self._build(list(ids), ids, spo)

    @classmethod
    def _from_ids(cls, terms: list[Term], ids: dict[Term, int],
                  spo: set[tuple[int, int, int]]) -> TripleStore:
        store = cls.__new__(cls)
        store._build(terms, ids, spo)
        return store

    def _build(self, terms: list[Term], ids: dict[Term, int],
               spo: set[tuple[int, int, int]]) -> None:
        """The lookup tables of the id triples `spo`; `terms[i]` is the term
        of id i and `ids` maps each term back to its id."""
        self._ids = ids
        self._terms = terms
        self.term_id = ids.get  # a term's id, or None if the store lacks it
        self.term = terms.__getitem__  # the term of an id
        spo = sorted(spo)
        one = dict(zip(spo, zip(spo)))
        self.tables: list[dict] = [{(): tuple(spo)}]
        for key in _KEYS[1:7]:
            table = {}
            # the sort is stable, so each group keeps the (s, p, o) order
            for k, group in groupby(sorted(spo, key=key), key):
                group = tuple(group)
                table[k] = group if len(group) > 1 else one[group[0]]
            self.tables.append(table)
        self.tables.append(one)

    def __len__(self) -> int:
        return len(self.tables[0][()])

    def __contains__(self, t: Triple) -> bool:
        return (self._ids.get(t.s), self._ids.get(t.p), self._ids.get(t.o)) in self.tables[7]

    @property
    def terms(self) -> list[Term]:
        return list(self._terms)

    def match_ids(self, s: Optional[int], p: Optional[int], o: Optional[int]
                  ) -> tuple[tuple[int, int, int], ...]:
        """All id-triples matching the bound slots, sorted by (s, p, o) ids;
        an unbound slot is None.

        A negative or past-the-end id matches nothing.
        """
        mask = (s is not None) << 2 | (p is not None) << 1 | (o is not None)
        return self.tables[mask].get(_KEYS[mask]((s, p, o)), ())

    def count(self, s: Optional[int] = None, p: Optional[int] = None,
              o: Optional[int] = None) -> int:
        """Exact cardinality of a bound/unbound slot combination (for join planning)."""
        return len(self.match_ids(s, p, o))

    @cached_property
    def term_rank(self) -> list[int]:
        """Each id's place among the store's terms in `Term.sort_key` order,
        which no two terms share; worked out on first use."""
        terms = self._terms
        rank = [0] * len(terms)
        for place, tid in enumerate(sorted(range(len(terms)),
                                           key=lambda i: terms[i].sort_key())):
            rank[tid] = place
        return rank

    @cached_property
    def graph(self) -> tuple[array, array, array]:
        """The distinct subject-object edges, worked out on first use: their
        nodes' sorted ids, then each edge's source and destination as places
        in those ids, in the (s, o) table's key order, which `_build` sorts."""
        nodes = sorted(self.tables[4].keys() | self.tables[1].keys())
        place = dict(zip(nodes, range(len(nodes))))
        ends = array("q", map(place.__getitem__, chain.from_iterable(self.tables[5])))
        return array("q", nodes), ends[0::2], ends[1::2]

    def degree(self, node: Term, direction: str) -> int:
        nid = self._ids.get(node)  # None is no table's key
        if direction == OUT:
            return len(self.tables[4].get(nid, ()))
        if direction == IN:
            return len(self.tables[1].get(nid, ()))
        raise ValueError("unknown direction: %r" % direction)

    def triples(self) -> Iterator[Triple]:
        for s, p, o in self.tables[0][()]:
            yield Triple(self._terms[s], self._terms[p], self._terms[o])

    def serialize(self) -> str:
        return "".join(t.n3() + "\n" for t in self.triples())


# ---------------------------------------------------------------------------
# Parsing: N-Triples plus a pragmatic Turtle subset
# (@prefix / PREFIX, `a`, `;` and `,` lists).

_RDF_TYPE_TOKEN = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

# A literal's text, its escapes unrolled: no quote, backslash or line break
# except in an escape.
_LITERAL = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'

# Whitespace and comments before a token are skipped atomically (a lookahead
# captures them, the backreference consumes them), so a token that fails after
# a comment is never re-read from inside it. `bad` takes any other character.
# A prefix or local name does not end in `.` (Turtle's PN_PREFIX, PN_LOCAL),
# so `ex:o.` is `ex:o` and the statement's dot.
_TOKEN_RE = re.compile(r"""
    (?=(?P<skip>(?:\s+|\#[^\n]*)*))(?P=skip)
    (?: (?P<iriref><%s>)
      | (?P<literal>%s)
      | (?P<blank>_:%s)
      | (?P<langtag>@%s)
      | (?P<dtsep>\^\^)
      | (?P<punct>[.;,])
      | (?P<pname>(?:[A-Za-z_](?:[\w\-.]*[\w\-])?)?:(?:[\w\-.:%%]*[\w\-:%%])?)
      | (?P<word>[A-Za-z_][\w\-]*)
      | (?P<end>\Z)
      | (?P<bad>.)
    )
""" % (_IRI_CHARS, _LITERAL, _BLANK_RE.pattern, _LANG_RE.pattern), re.VERBOSE)

# One N-Triples statement, `subject predicate object .`, after any run of
# spaces, tabs and line ends, with spaces or tabs between its tokens. Its
# groups are the subject, predicate and object tokens, or for a literal object
# its quoted text and its language tag or `<datatype>`. Each token is the one
# `_TOKEN_RE` reads there: a blank node object is its longest label, so
# `_:b.c<...>` is not read as the label `b` and the statement's dot.
_STATEMENT_RE = re.compile(r"""
    [ \t\r\n]*
    (<%(iri)s>|_:%(blank)s) [ \t]+
    (<%(iri)s>) [ \t]+
    (?: (<%(iri)s>|_:%(blank)s(?!\.*[A-Za-z0-9_\-]))
      | (%(literal)s)(?:@(%(lang)s)|\^\^(<%(iri)s>))? )
    [ \t]*\.
""" % dict(iri=_IRI_CHARS, blank=_BLANK_RE.pattern, literal=_LITERAL,
           lang=_LANG_RE.pattern), re.VERBOSE)


# An escape, whole, as `re.split` gives it back between the text around it.
_ESCAPE_RE = re.compile(r"(\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.))")

_UNESCAPES = {
    "\\t": "\t", "\\b": "\b", "\\n": "\n", "\\r": "\r", "\\f": "\f",
    '\\"': '"', "\\'": "'", "\\\\": "\\",
}


def _unescape_one(escape: str) -> str:
    c = _UNESCAPES.get(escape)
    if c is not None:
        return c
    if len(escape) > 2:  # \uXXXX or \UXXXXXXXX
        code = int(escape[2:], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValueError("%s is not a Unicode scalar value" % escape)
        return chr(code)
    e = escape[1]
    if e in ("u", "U"):
        raise ValueError("malformed \\%s escape in literal" % e)
    raise ValueError("unknown escape \\%s in literal" % e)


class _Escapes(dict):
    """The text of each escape, decoded at its first use; a bad escape
    raises ValueError with the message to report, and is never stored."""

    def __missing__(self, escape: str) -> str:
        self[escape] = text = _unescape_one(escape)
        return text


def _unescape(raw: str, escapes: _Escapes) -> str:
    """A literal's body with its escapes decoded through `escapes`."""
    if "\\" not in raw:
        return raw
    parts = _ESCAPE_RE.split(raw)
    parts[1::2] = map(escapes.__getitem__, parts[1::2])
    return "".join(parts)


class _Parser:
    """Parses to id triples, handing out ids in first-occurrence s, p, o
    order, the order in which `TripleStore(triples)` interns.

    A statement in N-Triples form is read by one `_STATEMENT_RE` match. Any
    other statement or directive, and one whose terms fail a check, is read
    token by token; tokens are `(kind, text, offset)`. So every error comes
    from the token path, and line and column are worked out from the offset
    only when one is raised.

    Each IRI and blank node is checked and built once per parse: `ids` maps
    its `<...>` or `_:` text (a prefixed name by the text of the IRI it
    expands to under the prefixes then declared) to its id. A token that
    fails the check is never entered, so it raises wherever it occurs first.
    Literals and every newly built term are keyed by `Term` in `term_ids`,
    so a term has one id however it is written; each language tag and
    datatype IRI is one interned string, and each escape is decoded once,
    in `escapes`.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.ids: dict[str, int] = {}
        self.terms: list[Term] = []
        self.term_ids: dict[Term, int] = {}
        self.escapes = _Escapes()

    def _error(self, message: str, offset: int) -> RDFSyntaxError:
        line_start = self.text.rfind("\n", 0, offset) + 1
        return RDFSyntaxError(message, self.text.count("\n", 0, offset) + 1,
                              offset - line_start + 1)

    def _intern(self, term: Term) -> int:
        tid = self.term_ids.setdefault(term, len(self.terms))
        if tid == len(self.terms):
            self.terms.append(term)
        return tid

    def _node(self, token: str) -> int:
        """The id of an `<...>` or `_:` token; ValueError for a relative IRI."""
        tid = self.ids.get(token)
        if tid is None:
            term = iri(token[1:-1]) if token[0] == "<" else bnode(token[2:])
            tid = self.ids[token] = self._intern(term)
        return tid

    def _statement(self, s: str, p: str, o: Optional[str], lit: Optional[str],
                   lang: Optional[str], dt: Optional[str]
                   ) -> Optional[tuple[int, int, int]]:
        """The id triple of a `_STATEMENT_RE` match's groups, or None if a
        term fails its check."""
        try:
            sid, pid = self._node(s), self._node(p)
            if o is not None:
                return sid, pid, self._node(o)
            # the match has made every check of `Term` but this one
            if dt is not None:
                dt = sys.intern(dt[1:-1])
                if not _IRI_RE.fullmatch(dt):
                    return None
            return sid, pid, self._intern(tuple.__new__(Term, (
                LITERAL, _unescape(lit[1:-1], self.escapes), dt, lang and sys.intern(lang))))
        except ValueError:
            return None

    def _next(self, required: Optional[str] = None):
        # every match starts where the last one ended: `bad` takes any
        # character no other token starts with, `end` the end of the text,
        # which each later call reads again
        m = _TOKEN_RE.match(self.text, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "end":
            if required:
                raise self._error("unexpected end of input, expected %s" % required,
                                  offset)
            return None
        if kind == "bad":
            char = self.text[offset]
            raise self._error("unterminated literal" if char == '"'
                              else "unexpected character %r" % char, offset)
        return kind, m.group(kind), offset

    def _push(self, tok) -> None:
        """Read `tok` again next, from its first character."""
        self.pos = tok[2]

    def _iri(self, token: str, offset: int) -> int:
        """The id of an `<...>` token; its characters are valid, so only a
        relative IRI is refused."""
        try:
            return self._node(token)
        except ValueError:
            raise self._error("invalid IRI %s" % token, offset) from None

    def _expand_pname(self, value: str, offset: int) -> str:
        """The `<...>` text of a prefixed name."""
        pfx, _, local = value.partition(":")
        if pfx not in self.prefixes:
            raise self._error("undeclared prefix %r" % pfx, offset)
        # a declared prefix is an absolute IRI and a local name holds only
        # IRI characters, so the expansion is always valid
        return "<%s%s>" % (self.prefixes[pfx], local)

    def _term(self, tok, *, as_predicate: bool = False, as_subject: bool = False) -> int:
        kind, value, offset = tok
        if kind == "iriref":
            return self._iri(value, offset)
        if kind == "pname":
            return self._iri(self._expand_pname(value, offset), offset)
        if kind == "blank":
            if as_predicate:
                raise self._error("blank node not allowed as predicate", offset)
            return self._node(value)
        if kind == "word" and value == "a" and as_predicate:
            return self._iri(_RDF_TYPE_TOKEN, offset)
        if kind == "literal":
            if as_predicate or as_subject:
                raise self._error("literal not allowed in this position", offset)
            try:
                raw = _unescape(value[1:-1], self.escapes)
            except ValueError as exc:
                raise self._error(str(exc), offset) from None
            nxt = self._next()
            if nxt is not None and nxt[0] == "langtag":
                return self._intern(literal(raw, lang=sys.intern(nxt[1][1:])))
            if nxt is not None and nxt[0] == "dtsep":
                dtok = self._next("datatype IRI")
                if dtok[0] == "iriref":
                    dt = dtok[1][1:-1]
                elif dtok[0] == "pname":
                    dt = self._expand_pname(dtok[1], dtok[2])[1:-1]
                else:
                    raise self._error("expected datatype IRI", dtok[2])
                try:
                    return self._intern(literal(raw, datatype=sys.intern(dt)))
                except ValueError:
                    raise self._error("invalid datatype IRI <%s>" % dt, offset) from None
            if nxt is not None:
                self._push(nxt)
            return self._intern(literal(raw))
        raise self._error("unexpected token %r" % value, offset)

    def _prefix(self, tok) -> None:
        """The rest of an `@prefix` or SPARQL `PREFIX` directive."""
        _, value, offset = tok
        ptok = self._next("prefix name")
        if ptok[0] != "pname" or not ptok[1].endswith(":"):
            raise self._error("expected prefix declaration", ptok[2])
        itok = self._next("prefix IRI")
        if itok[0] != "iriref":
            raise self._error("expected IRI in prefix declaration", itok[2])
        if not _IRI_RE.fullmatch(itok[1][1:-1]):
            raise self._error("invalid IRI %s" % itok[1], itok[2])
        self.prefixes[ptok[1][:-1]] = itok[1][1:-1]
        dot = self._next()
        if value.startswith("@"):
            if dot is None or dot[1] != ".":
                raise self._error("@prefix directive must end with '.'", offset)
        elif dot is not None and dot[1] != ".":
            self._push(dot)

    def _tokens(self) -> Iterator[tuple[int, int, int]]:
        """The id triples of the one statement or directive at `pos`, read
        token by token; returns False at the end of the input."""
        tok = self._next()
        if tok is None:
            return False
        if tok[0] in ("langtag", "word") and tok[1].lstrip("@").lower() == "prefix":
            self._prefix(tok)
            return True
        subject = self._term(tok, as_subject=True)
        while True:  # predicate-object list
            ptok = self._next("predicate")
            predicate = self._term(ptok, as_predicate=True)
            while True:  # object list
                otok = self._next("object")
                yield subject, predicate, self._term(otok)
                sep = self._next("'.'")
                if sep[1] == ",":
                    continue
                break
            if sep[1] == ";":
                nxt = self._next("'.' or predicate")
                if nxt[1] == ".":
                    sep = nxt
                    break
                self._push(nxt)
                continue
            break
        if sep[1] != ".":
            raise self._error("expected '.' at end of statement", sep[2])
        return True

    def parse(self) -> Iterator[tuple[int, int, int]]:
        text = self.text
        match = _STATEMENT_RE.match
        get = self.ids.get
        while True:
            m = match(text, self.pos)
            if m is not None:
                s, p, o, lit, lang, dt = m.groups()
                spo = get(s), get(p), get(o)
                if None in spo:
                    spo = self._statement(s, p, o, lit, lang, dt)
                if spo is not None:
                    yield spo
                    self.pos = m.end()
                    continue
            if not (yield from self._tokens()):
                return


def _decode(data) -> str:
    """The text of a str, bytes (gzipped or not) or binary stream; bytes
    that are not UTF-8 raise RDFSyntaxError at the first bad byte."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, str):
        return data
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        # the bytes before the bad one are valid, so the column counts characters
        raise RDFSyntaxError("invalid UTF-8 byte 0x%02x" % data[exc.start],
                             data.count(b"\n", 0, exc.start) + 1,
                             len(data[line_start:exc.start].decode("utf-8")) + 1) from None


def parse_triples(data) -> Iterator[Triple]:
    """Parse N-Triples / Turtle-subset text, bytes, or a binary stream."""
    parser = _Parser(_decode(data))
    terms = parser.terms
    return (Triple(terms[s], terms[p], terms[o]) for s, p, o in parser.parse())


def load_ntriples(data) -> TripleStore:
    """Build a store from N-Triples / Turtle-subset input; duplicates collapse."""
    parser = _Parser(_decode(data))
    spo = set(parser.parse())
    terms, ids = parser.terms, parser.term_ids
    del parser  # the token memo and the text go before the table is built
    return TripleStore._from_ids(terms, ids, spo)


def load_file(path: str) -> TripleStore:
    with open(path, "rb") as fh:
        return load_ntriples(fh)
