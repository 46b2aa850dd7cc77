import copy
import gzip
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgplearn import rdf
from bgplearn.patterns import TriplePattern, Variable
from bgplearn.rdf import (BIDI, IN, OUT, RDFSyntaxError, Term, Triple, TripleStore,
                          bnode, iri, literal, load_ntriples, parse_triples)

from conftest import ex, random_store


class TestTerm:
    def test_equality_is_bit_exact(self):
        assert iri("http://x/a") == iri("http://x/a")
        assert iri("http://x/a") != iri("http://x/A")
        assert literal("1") != literal("1", datatype="http://x/int")
        assert literal("a", lang="en") != literal("a", lang="de")

    def test_iri_must_be_absolute(self):
        with pytest.raises(ValueError):
            iri("relative/path")
        with pytest.raises(ValueError):
            iri("")

    @pytest.mark.parametrize("label", ["b1.", "b.", "a-b_c."])
    def test_bnode_label_cannot_end_in_dot(self, label):
        with pytest.raises(ValueError, match="not a blank node label"):
            bnode(label)
        assert bnode(label + "x").value == label + "x"

    def test_literal_datatype_lang_exclusive(self):
        with pytest.raises(ValueError):
            Term("literal", "x", datatype="http://x/t", lang="en")

    def test_immutable(self):
        t = iri("http://x/a")
        with pytest.raises(AttributeError):
            t.value = "other"

    def test_four_fields(self):
        """A term holds its RDF fields only; its text is written on demand."""
        t = literal('a"b', lang="en")
        assert Term._fields == ("kind", "value", "datatype", "lang")
        assert tuple(t) == ("literal", 'a"b', None, "en")
        assert pickle.loads(pickle.dumps(t)) == t
        assert t.n3() == '"a\\"b"@en'

    @pytest.mark.parametrize("kind", ["iri", "bnode", "literal"])
    @pytest.mark.parametrize("field", ["value", "datatype", "lang"])
    @pytest.mark.parametrize("bad", [5, 0, b"http://x/a", ["en"]],
                             ids=["int", "zero", "bytes", "list"])
    def test_non_string_field_refused(self, kind, field, bad):
        """Every field is checked when the term is built, not when it is written."""
        fields = dict(value={"iri": "http://x/a", "bnode": "b1"}.get(kind, "v"),
                      datatype=None, lang=None)
        fields[field] = bad
        with pytest.raises(ValueError):
            Term(kind, **fields)


# text near the edges of the term rules: delimiters, whitespace, a scheme
_EDGY_TEXT = st.text(st.sampled_from('<>"{}|^`\\ \t\n\x00#.:_-?/@aZ09\xe9\u2028'))
_ANY_TEXT = st.one_of(st.text(), _EDGY_TEXT, _EDGY_TEXT.map("http:".__add__),
                      st.from_regex(r"[A-Za-z][A-Za-z0-9\-]*", fullmatch=True))

_MAKERS = {
    "iri": iri,
    "bnode": bnode,
    "lang": lambda x: literal("v", lang=x),
    "datatype": lambda x: literal("v", datatype=x),
    "literal": literal,
}


def _read_back(term):
    """`term` parsed back from a triple that holds its N-Triples text."""
    (t,) = parse_triples("<http://x/s> <http://x/p> %s ." % term.n3())
    return t.o


class TestTermText:
    """A term either refuses its text or writes N-Triples that reads back
    as the same term, so no term can change the text it is written into."""

    @pytest.mark.parametrize("kind", list(_MAKERS))
    @given(x=_ANY_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_refused_or_round_trips(self, kind, x):
        try:
            term = _MAKERS[kind](x)
        except ValueError:
            assert kind != "literal"  # a literal's value may be any text
            return
        assert _read_back(term) == term


_N3_TERMS = {
    "iri": (lambda: iri("http://x/a"), "<http://x/a>"),
    "bnode": (lambda: bnode("b1"), "_:b1"),
    "lang": (lambda: literal("chat", lang="fr"), '"chat"@fr'),
    "datatype": (lambda: literal("1", datatype="http://x/int"), '"1"^^<http://x/int>'),
    "escapes": (lambda: literal('a"b\\c\nd\te\r'), '"a\\"b\\\\c\\nd\\te\\r"'),
}


class TestN3Memo:
    @pytest.mark.parametrize("kind", list(_N3_TERMS))
    def test_first_and_second_call_agree(self, kind):
        make, text = _N3_TERMS[kind]
        t = make()
        assert t.n3() == text
        assert t.n3() == text

    @pytest.mark.parametrize("kind", list(_N3_TERMS))
    @pytest.mark.parametrize("serialised", [0, 1, 2], ids=["neither", "one", "both"])
    def test_equality_ignores_memo(self, kind, serialised):
        make, _text = _N3_TERMS[kind]
        a, b = make(), make()
        text = repr(a)
        for t in (a, b)[:serialised]:
            t.n3()
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert repr(a) == text == repr(b)

    def test_term_still_immutable(self):
        t = literal("x", lang="en")
        t.n3()
        with pytest.raises(AttributeError):
            t.value = "y"


_VALUE_TYPES = {
    "term": lambda: literal("a\"b", lang="en"),
    "triple": lambda: Triple(ex("s"), ex("p"), literal("1", datatype="http://x/int")),
    "variable": lambda: Variable("x"),
    "triple_pattern": lambda: TriplePattern(Variable("x"), ex("p"), literal("b")),
}


class TestValueTypes:
    @pytest.mark.parametrize("kind", list(_VALUE_TYPES))
    def test_fields_read_only(self, kind):
        value = _VALUE_TYPES[kind]()
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    @pytest.mark.parametrize("kind", list(_VALUE_TYPES))
    def test_no_instance_dict(self, kind):
        value = _VALUE_TYPES[kind]()
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("kind", list(_VALUE_TYPES))
    def test_copy_and_pickle_round_trip(self, kind):
        value = _VALUE_TYPES[kind]()
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)


class TestTriple:
    def test_subject_literal_rejected(self):
        with pytest.raises(ValueError):
            Triple(literal("x"), iri("http://x/p"), iri("http://x/o"))

    def test_predicate_must_be_iri(self):
        with pytest.raises(ValueError):
            Triple(iri("http://x/s"), bnode("b"), iri("http://x/o"))


class TestTriplePattern:
    @pytest.mark.parametrize("s, o", [(bnode("b1"), Variable("x")),
                                      (Variable("x"), bnode("b1"))],
                             ids=["subject", "object"])
    def test_blank_node_refused(self, s, o):
        """SPARQL reads a blank node in a query as a variable, the store as a
        constant: a pattern names none."""
        with pytest.raises(ValueError, match="names no blank node"):
            TriplePattern(s, ex("p"), o)

    def test_literal_subject_refused(self):
        with pytest.raises(ValueError) as exc:
            TriplePattern(literal("s"), ex("p"), Variable("x"))
        assert str(exc.value) == "triple pattern subject must not be a literal"


class TestParser:
    def test_single_statement(self):
        store = load_ntriples("<http://x/s> <http://x/p> <http://x/o> .")
        assert len(store) == 1

    def test_empty_input(self):
        assert len(load_ntriples("")) == 0

    def test_duplicates_collapse(self):
        lines = ["<http://x/s%d> <http://x/p> <http://x/o> ." % i for i in range(8)]
        lines += [lines[0], lines[3]]  # 10 lines, 2 duplicates
        store = load_ntriples("\n".join(lines))
        assert len(store) == 8 + 0  # 8 distinct subjects
        assert len(lines) == 10

    def test_ten_line_fixture_with_two_duplicates(self):
        lines = ["<http://x/s> <http://x/p> <http://x/o%d> ." % i for i in range(9)]
        lines.insert(4, lines[0])
        assert len(lines) == 10
        assert len(load_ntriples("\n".join(lines))) == 9

    def test_turtle_subset(self):
        text = """
        @prefix ex: <http://x/> .
        ex:s a ex:T ; ex:p ex:o1 , ex:o2 .
        ex:s2 ex:q "lit"@en .
        ex:s3 ex:q "42"^^ex:int .
        """
        store = load_ntriples(text)
        assert len(store) == 5
        assert literal("lit", lang="en") in [t.o for t in store.triples()]

    def test_sparql_style_prefix(self):
        store = load_ntriples("PREFIX ex: <http://x/>\nex:a ex:b ex:c .")
        assert len(store) == 1

    def test_literal_escapes(self):
        store = load_ntriples('<http://x/s> <http://x/p> "a\\"b\\nc\\u0041\\U0001F600" .')
        assert list(store.triples())[0].o.value == 'a"b\ncA\U0001F600'

    def test_short_unicode_escape_rejected(self):
        with pytest.raises(RDFSyntaxError) as exc:
            load_ntriples('<http://x/s> <http://x/p>\n "a\\u12" .')
        assert (exc.value.line, exc.value.column) == (2, 2)
        with pytest.raises(RDFSyntaxError):
            load_ntriples('<http://x/s> <http://x/p> "\\U0001F60" .')

    def test_invalid_unicode_escape_rejected(self):
        with pytest.raises(RDFSyntaxError) as exc:
            load_ntriples('<http://x/s> <http://x/p> "\\uZZZZ" .')
        assert (exc.value.line, exc.value.column) == (1, 27)
        with pytest.raises(RDFSyntaxError):
            load_ntriples('<http://x/s> <http://x/p> "\\U0011FFFF" .')
        with pytest.raises(RDFSyntaxError):  # a surrogate cannot be encoded as UTF-8
            load_ntriples('<http://x/s> <http://x/p> "\\uD800" .')

    def test_syntax_error_position(self):
        with pytest.raises(RDFSyntaxError) as exc:
            load_ntriples("<http://x/s> <http://x/p>\n ] .")
        assert exc.value.line == 2

    def test_invalid_iri(self):
        with pytest.raises(RDFSyntaxError):
            load_ntriples("<notabsolute> <http://x/p> <http://x/o> .")

    def test_unterminated_literal(self):
        with pytest.raises(RDFSyntaxError) as exc:
            load_ntriples('<http://x/s> <http://x/p> "open')
        assert str(exc.value) == "unterminated literal (line 1, column 27)"
        assert (exc.value.line, exc.value.column) == (1, 27)

    def test_missing_dot(self):
        with pytest.raises(RDFSyntaxError):
            load_ntriples("<http://x/s> <http://x/p> <http://x/o>")

    def test_gzip_input(self):
        data = gzip.compress(b"<http://x/s> <http://x/p> <http://x/o> .")
        assert len(load_ntriples(data)) == 1

    def test_bnode_subject(self):
        store = load_ntriples("_:b1 <http://x/p> _:b2 .")
        t = list(store.triples())[0]
        assert t.s == bnode("b1") and t.o == bnode("b2")

    def test_bnode_label_ends_before_dot(self):
        """N-Triples' BLANK_NODE_LABEL cannot end in '.', so `_:b1.` is the
        label b1 and the statement's dot."""
        text = _S_P + "_:b1.\n" + _S_P + "_:b.2 ."
        assert list(parse_triples(text)) == [
            Triple(iri("http://x/s"), iri("http://x/p"), bnode("b1")),
            Triple(iri("http://x/s"), iri("http://x/p"), bnode("b.2"))]

    def test_prefixed_name_ends_before_dot(self):
        """Turtle's prefix and local name cannot end in '.', so `ex:o.` is
        the name `ex:o` and the statement's dot."""
        prefix = "@prefix ex: <http://x/> .\n"
        assert list(parse_triples(prefix + "ex:s ex:p ex:o.\n")) == [
            Triple(iri("http://x/s"), iri("http://x/p"), iri("http://x/o"))]
        with pytest.raises(RDFSyntaxError) as exc:
            list(parse_triples(prefix + "ex:s ex:p ex:o. .\n"))
        assert str(exc.value) == "unexpected token '.' (line 2, column 17)"
        with pytest.raises(RDFSyntaxError) as exc:
            list(parse_triples("@prefix ex.: <http://x/> .\n"))
        assert str(exc.value) == "expected prefix declaration (line 1, column 9)"

    def test_prefix_redeclared_mid_document(self):
        text = ("@prefix ex: <http://a/> .\nex:s ex:p ex:o .\n"
                "@prefix ex: <http://b/> .\nex:s ex:p ex:o .\n")
        assert list(parse_triples(text)) == [
            Triple(iri("http://a/s"), iri("http://a/p"), iri("http://a/o")),
            Triple(iri("http://b/s"), iri("http://b/p"), iri("http://b/o"))]

    def test_terms_in_first_occurrence_order(self):
        text = """@prefix ex: <http://x/> .
        ex:s a ex:T ; ex:p "lit"@en , _:b .
        _:b <http://x/p> ex:s , "2"^^ex:int .
        <http://x/o> ex:q ex:T .
        """
        assert load_ntriples(text).terms == [
            iri("http://x/s"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            iri("http://x/T"), iri("http://x/p"), literal("lit", lang="en"), bnode("b"),
            literal("2", datatype="http://x/int"), iri("http://x/o"), iri("http://x/q")]

    def test_one_object_per_iri_and_blank_node(self):
        text = """@prefix ex: <http://x/> .
        ex:s a ex:T ; ex:p _:b .
        <http://x/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> _:b .
        _:b ex:p <http://x/T> .
        """
        (s1, a1, t1), (s1_, p1, b1), (s2, a2, b2), (b3, p2, t2) = parse_triples(text)
        assert s1 is s1_ is s2 and a1 is a2 and t1 is t2 and p1 is p2
        assert b1 is b2 is b3 and b1 == bnode("b")

    def test_end_after_literal(self):
        with pytest.raises(RDFSyntaxError) as exc:
            list(parse_triples(_S_P + '"o"'))
        assert str(exc.value) == ("unexpected end of input, expected '.' "
                                  "(line 1, column 30)")


_S_P = "<http://x/s> <http://x/p> "

# input, message, line, column
_SYNTAX_ERRORS = {
    "after_comment": (_S_P + "# <http://x/o> .\n ] .", "unexpected character ']'", 2, 2),
    "undeclared_prefix": ("@prefix ex: <http://x/> .\nex:s nope:p ex:o .",
                          "undeclared prefix 'nope'", 2, 6),
    "malformed_u": (_S_P + '\n "a\\u12" .', "malformed \\u escape in literal", 2, 2),
    "malformed_U": (_S_P + '"\\U0001F60" .', "malformed \\U escape in literal", 1, 27),
    "surrogate": (_S_P + '"x\\uD800" .', "\\uD800 is not a Unicode scalar value", 1, 27),
    "beyond_unicode": (_S_P + '"\\U0011FFFF" .',
                       "\\U0011FFFF is not a Unicode scalar value", 1, 27),
    "unknown_escape": (_S_P + '"a\\qb" .', "unknown escape \\q in literal", 1, 27),
    "literal_subject": ('"s" <http://x/p> <http://x/o> .',
                        "literal not allowed in this position", 1, 1),
    "literal_predicate": ('<http://x/s> "p" <http://x/o> .',
                          "literal not allowed in this position", 1, 14),
    "bnode_predicate": ("<http://x/s> _:p <http://x/o> .",
                        "blank node not allowed as predicate", 1, 14),
    "missing_dot": (_S_P + "<http://x/o>\n" + _S_P + "<http://x/o> .",
                    "expected '.' at end of statement", 2, 1),
    "end_after_semicolon": (_S_P + "<http://x/o> ; # more\n",
                            "unexpected end of input, expected '.' or predicate", 2, 1),
    "prefix_without_colon": ("@prefix ex <http://x/> .", "expected prefix declaration", 1, 9),
    "prefix_without_dot": ("@prefix ex: <http://x/>\nex:s ex:p ex:o .",
                           "@prefix directive must end with '.'", 1, 1),
    "invalid_datatype": ('@prefix ex: <http://x/> .\nex:s ex:p "1"^^<int> .',
                         "invalid datatype IRI <int>", 2, 11),
}


class TestParserPinned:
    """Exact messages, positions and output of the parser."""

    @pytest.mark.parametrize("case", list(_SYNTAX_ERRORS))
    def test_syntax_error(self, case):
        text, message, line, column = _SYNTAX_ERRORS[case]
        with pytest.raises(RDFSyntaxError) as exc:
            list(parse_triples(text))
        assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_turtle_subset_triples(self):
        text = r"""# leading comment "not a literal
@prefix ex: <http://x/> .
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
ex:s a ex:T ;  # type
    ex:name "café \"q\"\tand\\back"@fr-CA , "plain" ;
    ex:age "42"^^xsd:integer ;
    ex:sym "\U0001F600\n\r\b\f\'"^^<http://x/dt> ;
    .
_:b1 <http://x/p> ex:o . # trailing
"""
        s, x = iri("http://x/s"), "http://x/"
        assert list(parse_triples(text)) == [
            Triple(s, iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), iri(x + "T")),
            Triple(s, iri(x + "name"), literal('café "q"\tand\\back', lang="fr-CA")),
            Triple(s, iri(x + "name"), literal("plain")),
            Triple(s, iri(x + "age"),
                   literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer")),
            Triple(s, iri(x + "sym"), literal("\U0001F600\n\r\b\f'", datatype=x + "dt")),
            Triple(bnode("b1"), iri(x + "p"), iri(x + "o")),
        ]


# Terms of the corpus below, as N-Triples and, where Turtle can alias them,
# as prefixed names under `ex:`.
_NT_NODES = ["<http://x/n%d>" % i for i in range(4)] + ["_:b1", "_:b.2", "_:b-3"]
_NT_PREDS = ["<http://x/p%d>" % i for i in range(3)]
_BODIES = ["ab", "a\\u0062", "a\\U00000062", "tab\\there", '\\"q\\"', "it\\'s",
           "back\\\\slash", "line\\nbreak\\r", "\\b\\f", "caf\\u00E9", "café",
           "\\U0001F600", "raw\ttab", ""]
_SUFFIXES = ["", "", "@en", "@fr-CA", "^^<http://x/int>"]


def _pname(token):
    return "ex:" + token[len("<http://x/"):-1] if token.startswith("<http://x/") else token


def _corpus_doc(rng):
    """A document of N-Triples lines, repeated and aliased terms, mixed with
    the Turtle subset, comments, CRLF, tabs and maybe no final newline."""
    def term(pool, turtle):
        token = rng.choice(pool)
        return _pname(token) if turtle and rng.random() < 0.5 else token

    def obj(turtle):
        if rng.random() < 0.6:
            return term(_NT_NODES, turtle)
        suffix = rng.choice(_SUFFIXES)
        if turtle and suffix.startswith("^^") and rng.random() < 0.5:
            suffix = "^^ex:int"
        return '"%s"%s' % (rng.choice(_BODIES), suffix)

    def pred(turtle):
        return "a" if turtle and rng.random() < 0.2 else term(_NT_PREDS, turtle)

    def gap():
        return rng.choice([" ", " ", "\t", "  ", " \t"])

    def end():
        return rng.choice(["\n", "\n", "\r\n", " # note\n", "\n# a comment line\n", "\n\n"])

    parts = [rng.choice(["@prefix ex: <http://x/> .", "PREFIX ex: <http://x/>"]), end()]
    for _ in range(rng.randrange(5, 40)):
        roll = rng.random()
        if roll < 0.6:
            parts.append(rng.choice(["", "", "  ", "\t"]) + gap().join(
                [term(_NT_NODES, False), term(_NT_PREDS, False), obj(False)])
                + rng.choice(["", " ", "\t"]) + ".")
        elif roll < 0.9:
            preds = []
            for _ in range(rng.randrange(1, 3)):
                objs = ("," + gap()).join(obj(True) for _ in range(rng.randrange(1, 3)))
                preds.append(pred(True) + gap() + objs)
            parts.append(term(_NT_NODES, True) + gap() + (" ;" + end()).join(preds)
                         + rng.choice([" .", " ;\n.", "\t."]))
        else:
            parts.append(rng.choice(["@prefix ex: <http://x/> .", "PREFIX ex: <http://x/>",
                                     "# only a comment"]))
        parts.append(end())
    if rng.random() < 0.3:
        parts.pop()
    return "".join(parts)


_CORPUS = [_corpus_doc(random.Random(seed)) for seed in range(60)]


def _table(store):
    return [list(table.items()) for table in store.tables]


# N-Triples lines whose terms fail a check after a statement that is read in
# one match: input, message, line, column
_NT_LINE_ERRORS = {
    "bad_escape": (_S_P + "<http://x/o> .\n" + _S_P + '"a\\qb" .',
                   "unknown escape \\q in literal", 2, 27),
    "relative_subject": (_S_P + "<http://x/o> .\n<s> <http://x/p> <http://x/o> .",
                         "invalid IRI <s>", 2, 1),
    "relative_predicate": (_S_P + "<http://x/o> .\n<http://x/s> <p> <http://x/o> .",
                           "invalid IRI <p>", 2, 14),
    "relative_object": (_S_P + "<http://x/o> .\n" + _S_P + "<o> .", "invalid IRI <o>", 2, 27),
    "bad_datatype": (_S_P + "<http://x/o> .\n" + _S_P + '"1"^^<int> .',
                     "invalid datatype IRI <int>", 2, 27),
    "literal_subject_line": (_S_P + "<http://x/o> .\n" + '"s" <http://x/p> <http://x/o> .',
                             "literal not allowed in this position", 2, 1),
    "blank_before_iri": (_S_P + "_:b.c<http://x/o> .",
                         "expected '.' at end of statement", 1, 32),
}


class TestStatementPath:
    """A statement in N-Triples form is read in one match; it must give what
    the token path gives for it, and every error comes from the token path."""

    @staticmethod
    def _both(text, monkeypatch, read):
        """`read(text)` as it stands, then with every statement read token by
        token, as the parser reads any statement not in N-Triples form."""
        first = read(text)
        with monkeypatch.context() as m:
            m.setattr(rdf, "_STATEMENT_RE", re.compile(r"(?!)"))
            return first, read(text)

    def test_corpus_exercises_both_paths(self):
        lines = [line for doc in _CORPUS for line in doc.split("\n")]
        assert sum(bool(rdf._STATEMENT_RE.fullmatch(line)) for line in lines) > 400
        assert sum(" ;" in line for line in lines) > 200

    @pytest.mark.parametrize("seed", range(len(_CORPUS)))
    def test_same_triples_terms_and_table(self, seed, monkeypatch):
        text = _CORPUS[seed]
        fast, slow = self._both(text, monkeypatch, lambda t: list(parse_triples(t)))
        assert fast == slow
        fast, slow = self._both(text, monkeypatch, load_ntriples)
        assert fast.terms == slow.terms
        assert _table(fast) == _table(slow)

    @pytest.mark.parametrize("case", list(_SYNTAX_ERRORS) + list(_NT_LINE_ERRORS))
    def test_same_error(self, case, monkeypatch):
        text, message, line, column = {**_SYNTAX_ERRORS, **_NT_LINE_ERRORS}[case]

        def error(t):
            with pytest.raises(RDFSyntaxError) as exc:
                load_ntriples(t)
            return str(exc.value), exc.value.line, exc.value.column

        fast, slow = self._both(text, monkeypatch, error)
        assert fast == slow == ("%s (line %d, column %d)" % (message, line, column),
                                line, column)

    def test_aliases_share_one_id(self):
        store = load_ntriples('@prefix ex: <http://x/> .\n'
                              + _S_P + '"a\\u0062" .\n' + _S_P + '"ab" .\n'
                              'ex:s ex:p <http://x/s> .\n<http://x/s> ex:p ex:s .\n')
        assert store.terms == [iri("http://x/s"), iri("http://x/p"), literal("ab")]
        assert len(store) == 2

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    def test_load_equals_store_of_parsed_triples(self, crlf):
        for text in _CORPUS:
            if crlf:
                text = text.replace("\n", "\r\n")
            loaded, built = load_ntriples(text), TripleStore(parse_triples(text))
            assert loaded.terms == built.terms
            assert _table(loaded) == _table(built)


class TestEncoding:
    _BAD = b'<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> "caf\xff" .\n'

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_invalid_utf8_is_positioned(self, gz):
        data = gzip.compress(self._BAD) if gz else self._BAD
        with pytest.raises(RDFSyntaxError) as exc:
            load_ntriples(data)
        assert str(exc.value) == "invalid UTF-8 byte 0xff (line 2, column 31)"

    def test_column_counts_characters(self):
        data = '<http://x/s> <http://x/p> "é'.encode("utf-8") + b'\xc3" .'
        with pytest.raises(RDFSyntaxError) as exc:
            list(parse_triples(data))
        assert (exc.value.line, exc.value.column) == (1, 29)


class TestRoundTrip:
    def test_serialize_reparses_equal(self, capitals_store):
        again = load_ntriples(capitals_store.serialize())
        assert set(again.triples()) == set(capitals_store.triples())

    def test_random_round_trip(self):
        rng = random.Random(7)
        store = random_store(rng, n_triples=40)
        again = load_ntriples(store.serialize())
        assert set(again.triples()) == set(store.triples())


class TestMatch:
    def test_match_matches_bruteforce_all_combos(self):
        rng = random.Random(3)
        store = random_store(rng, n_triples=50, n_nodes=8, n_preds=3)
        triples = list(store.triples())
        past_end = len(store.terms)
        for probe in triples:
            probe_ids = tuple(store.term_id(t) for t in probe)
            for mask in range(8):
                s = probe.s if mask & 4 else None
                p = probe.p if mask & 2 else None
                o = probe.o if mask & 1 else None
                expected = {t for t in triples
                            if (s is None or t.s == s)
                            and (p is None or t.p == p)
                            and (o is None or t.o == o)}
                ids = [None if t is None else store.term_id(t) for t in (s, p, o)]
                matches = store.match_ids(*ids)
                assert isinstance(matches, tuple)
                assert list(matches) == sorted(matches)
                assert {Triple(*map(store.term, trip)) for trip in matches} == expected
                # counts must agree with match_ids, the reference
                assert store.count(*ids) == len(matches), ids
            # a negative or past-the-end id in any bound slot matches nothing
            for bad in (-1, past_end):
                for mask in range(1, 8):
                    bound = [bad if mask & bit else tid
                             for tid, bit in zip(probe_ids, (4, 2, 1))]
                    assert store.match_ids(*bound) == (), bound
                    assert store.count(*bound) == 0, bound
            assert probe in store
        for bad in (-1, past_end):
            for mask in range(1, 8):
                bound = [bad if mask & bit else None for bit in (4, 2, 1)]
                assert store.match_ids(*bound) == (), bound
                assert store.count(*bound) == 0, bound
        probe = triples[17]
        absent = store.term_id(probe.p)  # predicates never occur as nodes here
        for mask in range(8):
            bound = [absent if mask & bit else None for bit in (4, 2, 1)]
            assert store.count(*bound) == len(store.match_ids(*bound)), bound
        assert Triple(probe.s, probe.p, ex("absent")) not in store
        assert Triple(ex("absent1"), ex("absent2"), ex("absent3")) not in store
        dup = load_ntriples(probe.n3() + "\n" + probe.n3() + "\n")
        assert len(dup) == 1
        dup_ids = [dup.term_id(t) for t in probe]
        for mask in range(8):
            bound = [tid if mask & bit else None for tid, bit in zip(dup_ids, (4, 2, 1))]
            assert len(dup.match_ids(*bound)) == 1, bound
            assert dup.count(*bound) == 1, bound
        for node in store.terms + [ex("absent")]:
            out_deg = sum(t.s == node for t in triples)
            in_deg = sum(t.o == node for t in triples)
            assert store.degree(node, OUT) == out_deg
            assert store.degree(node, IN) == in_deg
            assert store.degree(node, BIDI) == out_deg + in_deg


    def test_singleton_groups_share_the_triples_1_tuple(self):
        """A group of one triple, under any slots bound, is the very tuple
        that the fully bound lookup of that triple returns."""
        store = random_store(random.Random(5), n_triples=60, n_nodes=10, n_preds=4)
        shared = 0
        for trip in store.match_ids(None, None, None):
            full = store.match_ids(*trip)
            assert full == (trip,)
            for mask in range(7):
                bound = [tid if mask & bit else None for tid, bit in zip(trip, (4, 2, 1))]
                group = store.match_ids(*bound)
                if len(group) == 1:
                    assert group is full, bound
                    shared += 1
        assert shared > len(store)

    @pytest.mark.parametrize("path", ["statement", "tokens"])
    def test_literals_share_tag_strings(self, path, monkeypatch):
        """Literals of one load share one string per language tag and per
        datatype IRI, read in one match or token by token."""
        if path == "tokens":
            monkeypatch.setattr(rdf, "_STATEMENT_RE", re.compile(r"(?!)"))
        xsd_int = "<http://www.w3.org/2001/XMLSchema#integer>"
        store = load_ntriples("".join(_S_P + lit + " .\n" for lit in (
            '"a"@en', '"b"@en', '"1"^^' + xsd_int, '"2"^^' + xsd_int)))
        a, b, one, two = store.terms[2:]
        assert (a.lang, b.lang, one.datatype) == ("en", "en", xsd_int[1:-1])
        assert a.lang is b.lang
        assert one.datatype is two.datatype


class TestDegree:
    def test_isolated_node(self, capitals_store):
        assert capitals_store.degree(ex("Nowhere"), BIDI) == 0

    def test_directional_counts(self):
        store = load_ntriples("""
        <http://x/n> <http://x/p> <http://x/a> .
        <http://x/n> <http://x/p> <http://x/b> .
        <http://x/n> <http://x/q> <http://x/c> .
        <http://x/d> <http://x/p> <http://x/n> .
        <http://x/e> <http://x/p> <http://x/n> .
        """)
        n = iri("http://x/n")
        assert store.degree(n, OUT) == 3
        assert store.degree(n, IN) == 2
        assert store.degree(n, BIDI) == 5

    def test_unknown_direction_refused(self, capitals_store):
        for node in (ex("Berlin"), ex("Nowhere")):
            with pytest.raises(ValueError, match="unknown direction"):
                capitals_store.degree(node, "sideways")

    def test_self_loop_counts_twice_bidi(self):
        store = load_ntriples("<http://x/x> <http://x/p> <http://x/x> .")
        x = iri("http://x/x")
        assert store.degree(x, OUT) == 1
        assert store.degree(x, IN) == 1
        assert store.degree(x, BIDI) == 2
