import copy
import gzip
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_literal_datatype_lang_exclusive(self):
        with pytest.raises(ValueError):
            Term("literal", "x", datatype="http://x/t", lang="en")

    def test_immutable(self):
        t = iri("http://x/a")
        with pytest.raises(AttributeError):
            t.value = "other"


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
    (t,) = parse_triples("<http://x/s> <http://x/p> %s ." % term.nt)
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
    "triple_pattern": lambda: TriplePattern(Variable("x"), ex("p"), bnode("b")),
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
        probe = triples[17]
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
        probe_ids = tuple(store.term_id(t) for t in probe)
        absent = store.term_id(probe.p)  # predicates never occur as nodes here
        past_end = len(store.terms)
        for ids in (probe_ids, (absent,) * 3, (past_end,) * 3, (-1,) * 3):
            for mask in range(8):
                bound = [tid if mask & bit else None
                         for tid, bit in zip(ids, (4, 2, 1))]
                assert store.count(*bound) == len(store.match_ids(*bound)), bound
        # a negative or past-the-end id in any bound slot matches nothing
        for bad in (-1, past_end):
            for mask in range(1, 8):
                bound = [bad if mask & bit else tid
                         for tid, bit in zip(probe_ids, (4, 2, 1))]
                assert store.match_ids(*bound) == (), bound
                assert store.count(*bound) == 0, bound
        assert probe in store
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

    def test_self_loop_counts_twice_bidi(self):
        store = load_ntriples("<http://x/x> <http://x/p> <http://x/x> .")
        x = iri("http://x/x")
        assert store.degree(x, OUT) == 1
        assert store.degree(x, IN) == 1
        assert store.degree(x, BIDI) == 2
