"""RDF data model, N-Triples / Turtle-subset parsing, and an indexed in-memory store."""

from __future__ import annotations

import gzip
import re
from collections import namedtuple
from itertools import groupby
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
_BLANK_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]*")
_LANG_RE = re.compile(r"[A-Za-z][A-Za-z0-9\-]*")

_KIND_ORDER = {IRI: 0, BNODE: 1, LITERAL: 2}


class RDFSyntaxError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class Term(namedtuple("_Term", "kind value datatype lang nt")):
    """An RDF node: IRI, blank node, or literal. An immutable tuple that keeps
    its N-Triples text `nt`; order terms with `sort_key()`."""

    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: Optional[str] = None,
                lang: Optional[str] = None):
        if kind not in (IRI, BNODE, LITERAL):
            raise ValueError("unknown term kind: %r" % kind)
        if kind != LITERAL and (datatype is not None or lang is not None):
            raise ValueError("datatype/lang only valid on literals")
        if datatype is not None and lang is not None:
            raise ValueError("literal has at most one of datatype and language tag")
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
        if kind == IRI:
            nt = "<%s>" % value
        elif kind == BNODE:
            nt = "_:%s" % value
        elif lang is not None:
            nt = '"%s"@%s' % (escape_literal(value), lang)
        elif datatype is not None:
            nt = '"%s"^^<%s>' % (escape_literal(value), datatype)
        else:
            nt = '"%s"' % escape_literal(value)
        return tuple.__new__(cls, (kind, value, datatype, lang, nt))

    def __getnewargs__(self):
        return self[:4]

    def __repr__(self):
        return "Term(%s)" % self.n3()

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.value, self.datatype or "", self.lang or "")

    def n3(self) -> str:
        return self.nt


def iri(value: str) -> Term:
    return Term(IRI, value)


def bnode(value: str) -> Term:
    return Term(BNODE, value)


def literal(value: str, datatype: Optional[str] = None, lang: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype, lang)


def escape_literal(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


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


def _groups(rows: list, slots: tuple[int, ...]) -> Iterator[tuple]:
    """(bound values, matching rows) for each distinct value of `slots`; the
    sort is stable, so each group keeps the order of `rows`."""
    bound = itemgetter(*slots)
    return ((k, tuple(g)) for k, g in groupby(sorted(rows, key=bound), bound))


class TripleStore:
    """Immutable-after-load set of triples behind one pre-sorted lookup table.

    Terms are interned to integer ids. At load, every bound/unbound slot
    combination of every triple, from `(s, p, o)` to `(None, None, None)`,
    is mapped to the tuple of its matching id-triples in (s, p, o) order, so
    every lookup and every count is one dict read and results are
    deterministic for a given load.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        intern = self._intern
        spo = sorted({(intern(t.s), intern(t.p), intern(t.o)) for t in triples})
        index = {(None, None, None): tuple(spo)}
        index.update((key, (key,)) for key in spo)
        index.update(((s, p, None), m) for (s, p), m in _groups(spo, (0, 1)))
        index.update(((s, None, o), m) for (s, o), m in _groups(spo, (0, 2)))
        index.update(((None, p, o), m) for (p, o), m in _groups(spo, (1, 2)))
        index.update(((s, None, None), m) for s, m in _groups(spo, (0,)))
        index.update(((None, p, None), m) for p, m in _groups(spo, (1,)))
        index.update(((None, None, o), m) for o, m in _groups(spo, (2,)))
        self._index: dict[tuple, tuple[tuple[int, int, int], ...]] = index

    def _intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def __len__(self) -> int:
        return len(self._index[None, None, None])

    def __contains__(self, t: Triple) -> bool:
        key = (self._ids.get(t.s), self._ids.get(t.p), self._ids.get(t.o))
        return None not in key and key in self._index

    def term_id(self, term: Term) -> Optional[int]:
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        return self._terms[tid]

    @property
    def terms(self) -> list[Term]:
        return list(self._terms)

    def match_ids(self, s: Optional[int], p: Optional[int], o: Optional[int]
                  ) -> tuple[tuple[int, int, int], ...]:
        """All id-triples matching the bound slots, sorted by (s, p, o) ids.

        An absent, negative or past-the-end id matches nothing.
        """
        return self._index.get((s, p, o), ())

    def count(self, s: Optional[int] = None, p: Optional[int] = None,
              o: Optional[int] = None) -> int:
        """Exact cardinality of a bound/unbound slot combination (for join planning)."""
        return len(self._index.get((s, p, o), ()))

    def degree(self, node: Term, direction: str = BIDI) -> int:
        nid = self._ids.get(node)
        if nid is None:
            out_deg = in_deg = 0
        else:
            out_deg = len(self._index.get((nid, None, None), ()))
            in_deg = len(self._index.get((None, None, nid), ()))
        if direction == OUT:
            return out_deg
        if direction == IN:
            return in_deg
        if direction == BIDI:
            return out_deg + in_deg
        raise ValueError("unknown direction: %r" % direction)

    def triples(self) -> Iterator[Triple]:
        for s, p, o in self._index[None, None, None]:
            yield Triple(self._terms[s], self._terms[p], self._terms[o])

    def serialize(self) -> str:
        return "".join(t.n3() + "\n" for t in self.triples())

    def edges(self) -> set[tuple[int, int]]:
        """Distinct (subject-id, object-id) pairs, predicates collapsed."""
        return {(s, o) for s, _, o in self._index[None, None, None]}


# ---------------------------------------------------------------------------
# Parsing: N-Triples plus a pragmatic Turtle subset
# (@prefix / PREFIX, `a`, `;` and `,` lists).

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# Whitespace and comments before a token are skipped atomically (a lookahead
# captures them, the backreference consumes them), so a token that fails after
# a comment is never re-read from inside it. `bad` takes any other character.
_TOKEN_RE = re.compile(r"""
    (?=(?P<skip>(?:\s+|\#[^\n]*)*))(?P=skip)
    (?: (?P<iriref><%s>)
      | (?P<literal>"(?:[^"\\\n]|\\.)*")
      | (?P<blank>_:%s)
      | (?P<langtag>@%s)
      | (?P<dtsep>\^\^)
      | (?P<punct>[.;,])
      | (?P<pname>(?:[A-Za-z_][\w\-.]*)?:[\w\-.:%%]*)
      | (?P<word>[A-Za-z_][\w\-]*)
      | (?P<end>\Z)
      | (?P<bad>.)
    )
""" % (_IRI_CHARS, _BLANK_RE.pattern, _LANG_RE.pattern), re.VERBOSE)


_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")

_UNESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_one(m: re.Match) -> str:
    digits = m.group(1) or m.group(2)
    if digits:
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValueError("%s is not a Unicode scalar value" % m.group())
        return chr(code)
    e = m.group(3)
    if e in ("u", "U"):
        raise ValueError("malformed \\%s escape in literal" % e)
    if e not in _UNESCAPES:
        raise ValueError("unknown escape \\%s in literal" % e)
    return _UNESCAPES[e]


def _unescape(raw: str) -> str:
    """A literal's body with its escapes decoded; a bad escape raises
    ValueError with the message to report."""
    if "\\" not in raw:
        return raw
    return _ESCAPE_RE.sub(_unescape_one, raw)


class _Parser:
    """Tokens are `(kind, text, offset)`; line and column are worked out from
    the offset only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.pushed: Optional[tuple] = None

    def _error(self, message: str, offset: int) -> RDFSyntaxError:
        line_start = self.text.rfind("\n", 0, offset) + 1
        return RDFSyntaxError(message, self.text.count("\n", 0, offset) + 1,
                              offset - line_start + 1)

    def _next(self, required: Optional[str] = None):
        t = self.pushed
        if t is not None:
            self.pushed = None
            return t
        m = _TOKEN_RE.match(self.text, self.pos)
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
        self.pos = m.end()
        return kind, m.group(kind), offset

    def _push(self, t) -> None:
        self.pushed = t

    def _iri(self, token: str, offset: int) -> Term:
        """The IRI of an `<...>` token; its characters are valid, so only a
        relative IRI is refused."""
        try:
            return iri(token[1:-1])
        except ValueError:
            raise self._error("invalid IRI %s" % token, offset) from None

    def _expand_pname(self, value: str, offset: int) -> Term:
        pfx, _, local = value.partition(":")
        if pfx not in self.prefixes:
            raise self._error("undeclared prefix %r" % pfx, offset)
        return iri(self.prefixes[pfx] + local)

    def _term(self, tok, *, as_predicate: bool = False, as_subject: bool = False) -> Term:
        kind, value, offset = tok
        if kind == "iriref":
            return self._iri(value, offset)
        if kind == "pname":
            return self._expand_pname(value, offset)
        if kind == "blank":
            if as_predicate:
                raise self._error("blank node not allowed as predicate", offset)
            return bnode(value[2:])
        if kind == "word" and value == "a" and as_predicate:
            return iri(_RDF_TYPE)
        if kind == "literal":
            if as_predicate or as_subject:
                raise self._error("literal not allowed in this position", offset)
            try:
                raw = _unescape(value[1:-1])
            except ValueError as exc:
                raise self._error(str(exc), offset) from None
            nxt = self._next()
            if nxt is not None and nxt[0] == "langtag":
                return literal(raw, lang=nxt[1][1:])
            if nxt is not None and nxt[0] == "dtsep":
                dtok = self._next("datatype IRI")
                if dtok[0] == "iriref":
                    dt = dtok[1][1:-1]
                elif dtok[0] == "pname":
                    dt = self._expand_pname(dtok[1], dtok[2]).value
                else:
                    raise self._error("expected datatype IRI", dtok[2])
                try:
                    return literal(raw, datatype=dt)
                except ValueError:
                    raise self._error("invalid datatype IRI <%s>" % dt, offset) from None
            if nxt is not None:
                self._push(nxt)
            return literal(raw)
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
        self.prefixes[ptok[1][:-1]] = self._iri(itok[1], itok[2]).value
        dot = self._next()
        if value.startswith("@"):
            if dot is None or dot[1] != ".":
                raise self._error("@prefix directive must end with '.'", offset)
        elif dot is not None and dot[1] != ".":
            self._push(dot)

    def parse(self) -> Iterator[Triple]:
        while True:
            tok = self._next()
            if tok is None:
                return
            if tok[0] in ("langtag", "word") and tok[1].lstrip("@").lower() == "prefix":
                self._prefix(tok)
                continue
            subject = self._term(tok, as_subject=True)
            while True:  # predicate-object list
                ptok = self._next("predicate")
                predicate = self._term(ptok, as_predicate=True)
                while True:  # object list
                    otok = self._next("object")
                    obj = self._term(otok)
                    yield Triple(subject, predicate, obj)
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


def parse_triples(data) -> Iterator[Triple]:
    """Parse N-Triples / Turtle-subset text, bytes, or a binary stream."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        data = data.decode("utf-8")
    return _Parser(data).parse()


def load_ntriples(data) -> TripleStore:
    """Build a store from N-Triples / Turtle-subset input; duplicates collapse."""
    return TripleStore(parse_triples(data))


def load_file(path: str) -> TripleStore:
    with open(path, "rb") as fh:
        return load_ntriples(fh)
