import json
import random

import pytest

from bgplearn.evolution import LearnedPattern
from bgplearn.fitness import FitnessTuple, GroundTruthPair, PatternEvaluation
from bgplearn.iojson import (GroundTruthError, dumps, learned_from_json,
                             learned_to_json, node_from_json, node_to_json,
                             parse_ground_truth, parse_sources, pattern_from_json,
                             pattern_to_json)
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)
from bgplearn.rdf import iri, literal

from conftest import ex, random_pattern, random_store


class TestNodeRoundTrip:
    def test_all_kinds(self):
        nodes = [iri("http://x/a"), literal("hi"),
                 literal("hi", lang="en"),
                 literal("3", datatype="http://www.w3.org/2001/XMLSchema#integer"),
                 Variable("v"), SOURCE_VAR]
        for node in nodes:
            assert node_from_json(node_to_json(node)) == node


class TestPatternRoundTrip:
    def test_random_patterns(self):
        rng = random.Random(12)
        store = random_store(rng, 40, 10, 4)
        for _ in range(50):
            gp = random_pattern(rng, rng.randint(1, 5), rng.randint(0, 4),
                                store, with_reserved=True)
            doc = pattern_to_json(gp)
            json.dumps(doc)  # must be JSON-serializable
            assert pattern_from_json(doc) == gp

    def test_literal_objects_survive(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), literal("x", lang="de")),
                           TriplePattern(SOURCE_VAR, ex("q"), TARGET_VAR)])
        assert pattern_from_json(pattern_to_json(gp)) == gp


class TestFitnessAndLedger:
    def test_fitness_round_trip(self):
        """A learned pattern, its fitness among its fields, survives the text
        of a `patterns.json`."""
        ft = FitnessTuple(remains=1.5, score=2.0, gain=2.0, f1=0.75,
                          avg_result_len=1.25, gt_matches=3, pattern_length=2,
                          pattern_vars=3, timeout_penalty=0.5, query_time_s=0.125)
        lp = LearnedPattern(
            pattern=GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)]),
            fitness=ft, evaluation=PatternEvaluation(pv=[1.0, 0.5]), run_index=2)
        assert learned_from_json(json.loads(dumps(learned_to_json(lp)))) == lp

    @pytest.mark.parametrize("pv", [[float("nan"), 0.0], [2.0, -1.0], ["abc", 0],
                                    [None, 0], 5],
                             ids=["nan", "out_of_range", "string", "null", "number"])
    def test_pv_checked_by_ledger_rule(self, pv):
        """A `pv` entry is what a ledger may hold: a number in [0, 1]."""
        lp = LearnedPattern(
            pattern=GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)]),
            fitness=FitnessTuple(1.0, 1.0, 1.0, 1.0, 1.0, 1, 1, 2, 0.0, 0.0),
            evaluation=PatternEvaluation(pv=[1.0, 0.5]), run_index=1)
        doc = dict(learned_to_json(lp), pv=pv)
        with pytest.raises((ValueError, TypeError)):
            learned_from_json(doc)

    def test_dumps_stable(self):
        a = dumps({"b": 1, "a": [2, 3]})
        b = dumps({"a": [2, 3], "b": 1})
        assert a == b and a.endswith("\n")


GT_OK = """\
# capitals ground truth
@prefix ex: <http://example.org/> .
ex:Berlin\tex:Germany
<http://example.org/Paris>\t<http://example.org/France>
http://example.org/Oslo\thttp://example.org/Norway
"""


class TestGroundTruth:
    def test_mixed_syntax(self):
        pairs = parse_ground_truth(GT_OK)
        assert pairs == [GroundTruthPair(ex("Berlin"), ex("Germany")),
                         GroundTruthPair(ex("Paris"), ex("France")),
                         GroundTruthPair(ex("Oslo"), ex("Norway"))]

    def test_sparql_prefix_form(self):
        pairs = parse_ground_truth(
            "PREFIX e: <http://example.org/>\ne:a\te:b\n")
        assert pairs == [GroundTruthPair(ex("a"), ex("b"))]

    def test_duplicates_rejected_with_rows(self):
        text = "<http://x/a>\t<http://x/b>\n<http://x/a>\t<http://x/b>\n"
        with pytest.raises(GroundTruthError) as exc:
            parse_ground_truth(text)
        assert exc.value.rows
        assert "2" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(GroundTruthError):
            parse_ground_truth("# only a comment\n")

    def test_bad_column_count(self):
        with pytest.raises(GroundTruthError):
            parse_ground_truth("<http://x/a>\n")

    def test_undeclared_prefix_reads_as_scheme(self):
        # zz:a is a well-formed absolute IRI with scheme "zz"
        pairs = parse_ground_truth("zz:a\tzz:b\n")
        assert pairs[0].source.value == "zz:a"

    def test_invalid_token_rejected(self):
        with pytest.raises(GroundTruthError):
            parse_ground_truth("<http://x/a>\t-bad:b\n")

    def test_relative_iri_rejected(self):
        with pytest.raises(GroundTruthError):
            parse_ground_truth("foo\tbar\n")

    def test_unwritable_iri_rejected_with_row(self):
        text = ("<http://x/a>\t<http://x/b>\n"
                "<http://e/a> } ; DROP ?x <http://e/z>\t<http://x/c>\n")
        with pytest.raises(GroundTruthError) as exc:
            parse_ground_truth(text)
        assert exc.value.rows == [2]
        assert "row 2" in str(exc.value)


class TestSources:
    def test_forms_and_comments(self):
        text = "# sources\n<http://x/a>\n  http://x/b  \n\n  # indented comment\n"
        assert parse_sources(text) == [iri("http://x/a"), iri("http://x/b")]

    @pytest.mark.parametrize("line", ["<http://e/a> . ?x ?y <http://e/z>",
                                      "http://x/a>", "relative"])
    def test_unwritable_line_rejected_with_row(self, line):
        with pytest.raises(GroundTruthError) as exc:
            parse_sources("<http://x/a>\n%s\n" % line)
        assert exc.value.rows == [2]
