import random

import pytest

from bgplearn.engine import (COMPLETE, HARD_TIMEOUT, SOFT_TIMEOUT,
                             TICKS_PER_SECOND, DegenerateQueryError,
                             join_plan, select)
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)
from bgplearn.rdf import load_ntriples

from conftest import ex, naive_select, random_pattern, random_store

V = Variable


def gp(*triples):
    return GraphPattern(triples)


CAPITAL_GP = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR))


class TestSelect:
    def test_values_restriction(self, capitals_store):
        res = select(capitals_store, CAPITAL_GP, [TARGET_VAR],
                     values=([SOURCE_VAR], [(ex("Berlin"),)]))
        assert res.row_set() == {(ex("Germany"),)}
        assert res.status == COMPLETE

    def test_no_match_complete(self, capitals_store):
        pattern = gp(TriplePattern(SOURCE_VAR, ex("nosuch"), TARGET_VAR))
        res = select(capitals_store, pattern, [SOURCE_VAR, TARGET_VAR])
        assert res.rows == [] and res.status == COMPLETE

    def test_hard_timeout_zero(self, capitals_store):
        res = select(capitals_store, CAPITAL_GP, [TARGET_VAR], hard_timeout=0)
        assert res.status == HARD_TIMEOUT and res.rows == []

    def test_degenerate_query(self, capitals_store):
        with pytest.raises(DegenerateQueryError):
            select(capitals_store, gp(), [SOURCE_VAR])

    def test_distinct(self, capitals_store):
        # two patterns binding ?target the same way must not duplicate rows
        pattern = gp(TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR))
        res = select(capitals_store, pattern, [TARGET_VAR],
                     values=([SOURCE_VAR], [(ex("Berlin"),)]))
        assert len(res.rows) == len(set(res.rows))
        assert (ex("Germany"),) in res.row_set()

    def test_limit(self, capitals_store):
        pattern = gp(TriplePattern(V("s"), V("p"), V("o")))
        res = select(capitals_store, pattern, [V("s")], limit=2)
        assert len(res.rows) == 2

    def test_join_two_hops(self, capitals_store):
        pattern = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), V("c")),
                     TriplePattern(V("c"), iri_a(), ex("Country")))
        res = select(capitals_store, pattern, [SOURCE_VAR, V("c")])
        assert res.row_set() == {(ex("Berlin"), ex("Germany")),
                                 (ex("Paris"), ex("France")),
                                 (ex("Oslo"), ex("Norway"))}

    def test_projection_var_must_exist(self, capitals_store):
        with pytest.raises(ValueError):
            select(capitals_store, CAPITAL_GP, [V("nope")])

    def test_soft_timeout_rows_subset(self):
        rng = random.Random(1)
        store = random_store(rng, n_triples=200, n_nodes=12, n_preds=3)
        pattern = gp(TriplePattern(V("a"), V("p"), V("b")),
                     TriplePattern(V("b"), V("q"), V("c")),
                     TriplePattern(V("c"), V("r"), V("d")))
        full = select(store, pattern, [V("a"), V("d")], soft_timeout=None,
                      hard_timeout=None)
        assert full.status == COMPLETE
        partial = select(store, pattern, [V("a"), V("d")],
                         soft_timeout=0.01, hard_timeout=None)
        assert partial.status == SOFT_TIMEOUT
        assert partial.row_set() <= full.row_set()

    def test_determinism(self, capitals_store):
        pattern = gp(TriplePattern(V("s"), V("p"), V("o")))
        r1 = select(capitals_store, pattern, [V("s"), V("o")])
        r2 = select(capitals_store, pattern, [V("s"), V("o")])
        assert r1.rows == r2.rows and r1.elapsed == r2.elapsed

    def test_values_union_property(self, capitals_store):
        rows = [(ex("Berlin"),), (ex("Paris"),), (ex("Oslo"),)]
        merged = select(capitals_store, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                        values=([SOURCE_VAR], rows))
        union = set()
        for row in rows:
            union |= select(capitals_store, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                            values=([SOURCE_VAR], [row])).row_set()
        assert merged.row_set() == union


def iri_a():
    from bgplearn.rdf import iri
    return iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


LOOPS_TTL = """
@prefix : <http://example.org/> .
:a :p :a .
:a :p :b .
:b :q :b .
:b :p :a .
:c :q :c .
"""

TWO_HOP_GP = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
                TriplePattern(TARGET_VAR, iri_a(), ex("Country")))

_PINNED = {
    # ?source's VALUES row Atlantis is not in the store: it joins nothing
    "absent_values_term_joined": dict(
        pattern=gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
                   TriplePattern(TARGET_VAR, iri_a(), ex("Country"))),
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Paris"),), (ex("Atlantis"),), (ex("Berlin"),)]),
        rows=[(ex("Paris"), ex("France")), (ex("Berlin"), ex("Germany"))],
        status=COMPLETE, ticks=9),
    # ?x occurs only in VALUES and the projection: both rows give one answer
    "absent_values_term_projected": dict(
        pattern=CAPITAL_GP, projection=[V("x")],
        values=([V("x"), SOURCE_VAR], [(ex("Atlantis"), ex("Berlin")),
                                       (ex("Atlantis"), ex("Paris"))]),
        rows=[(ex("Atlantis"),)], status=COMPLETE, ticks=5),
    "absent_constant": dict(
        pattern=gp(TriplePattern(SOURCE_VAR, ex("nosuch"), TARGET_VAR)),
        projection=[SOURCE_VAR, TARGET_VAR], rows=[], status=COMPLETE, ticks=0),
    "repeated_variable": dict(
        pattern=gp(TriplePattern(V("x"), V("p"), V("x"))), projection=[V("x")],
        rows=[], status=COMPLETE, ticks=9),
    "limit_1": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o"))), projection=[V("s")],
        limit=1, rows=[(ex("Berlin"),)], status=COMPLETE, ticks=10),
    "soft_timeout": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o")),
                   TriplePattern(V("o"), V("q"), V("z"))),
        projection=[V("s"), V("z")], soft_timeout=20 / TICKS_PER_SECOND,
        rows=[(ex("Berlin"), ex("Country")), (ex("Berlin"), ex("France")),
              (ex("Paris"), ex("Country"))],
        status=SOFT_TIMEOUT, ticks=21),
    # one query, three sets of VALUES slots left unbound, one absent term
    "values_mixed_none": dict(
        pattern=TWO_HOP_GP, projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR, TARGET_VAR],
                [(ex("Paris"), None), (None, ex("Norway")),
                 (ex("Berlin"), ex("Germany")), (None, None),
                 (ex("Atlantis"), None)]),
        rows=[(ex("Paris"), ex("France")), (ex("Oslo"), ex("Norway")),
              (ex("Berlin"), ex("Germany"))],
        status=COMPLETE, ticks=20),
    "repeated_variable_matches": dict(
        store=LOOPS_TTL,
        pattern=gp(TriplePattern(V("x"), V("p"), V("x"))),
        projection=[V("x"), V("p")],
        rows=[(ex("a"), ex("p")), (ex("b"), ex("q")), (ex("c"), ex("q"))],
        status=COMPLETE, ticks=9),
    # the budget is overrun in the second triple's lookups: no rows, but the
    # metered time is every tick spent
    "hard_timeout_mid_join": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o")),
                   TriplePattern(V("o"), V("q"), V("z"))),
        projection=[V("s"), V("z")], hard_timeout=20 / TICKS_PER_SECOND,
        rows=[], status=HARD_TIMEOUT, ticks=21),
    "values_only": dict(
        pattern=gp(), projection=[V("x")],
        values=([V("x")], [(ex("Berlin"),), (ex("Atlantis"),), (ex("Berlin"),),
                           (None,)]),
        rows=[(ex("Berlin"),), (ex("Atlantis"),), (None,)],
        status=COMPLETE, ticks=7),
    "limit_at_last_depth": dict(
        pattern=TWO_HOP_GP, projection=[SOURCE_VAR, TARGET_VAR], limit=2,
        rows=[(ex("Berlin"), ex("Germany")), (ex("Paris"), ex("France"))],
        status=COMPLETE, ticks=8),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_select_pinned(capitals_store, case):
    """Rows in order, status and the exact metered time of fixed queries."""
    c = _PINNED[case]
    store = load_ntriples(c["store"]) if "store" in c else capitals_store
    res = select(store, c["pattern"], c["projection"], c.get("values"),
                 c.get("limit"), c.get("soft_timeout", 2.0), c.get("hard_timeout"))
    assert res.rows == c["rows"]
    assert res.status == c["status"]
    assert res.elapsed == c["ticks"] / TICKS_PER_SECOND


class TestValuesRows:
    def test_row_longer_than_variables_rejected(self, capitals_store):
        with pytest.raises(ValueError):
            select(capitals_store, CAPITAL_GP, [TARGET_VAR],
                   values=([SOURCE_VAR], [(ex("Berlin"), ex("junk"))]))

    def test_bare_term_row_rejected(self, capitals_store):
        with pytest.raises(ValueError):
            select(capitals_store, CAPITAL_GP, [TARGET_VAR],
                   values=([SOURCE_VAR], [ex("Berlin")]))


class TestJoinPlan:
    def test_single_triple(self, capitals_store):
        tp = TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)
        assert join_plan(capitals_store, gp(tp)) == [tp]

    def test_rare_predicate_first(self, capitals_store):
        rare = TriplePattern(SOURCE_VAR, ex("locatedIn"), V("v"))   # 1 triple
        common = TriplePattern(V("v"), ex("capitalOf"), TARGET_VAR)  # 3 triples
        plan = join_plan(capitals_store, gp(rare, common))
        assert plan[0] == rare

    def test_fixed_subject_before_all_variable(self, capitals_store):
        fixed = TriplePattern(ex("Berlin"), V("p"), V("v"))
        open_ = TriplePattern(V("a"), V("q"), V("b"))
        plan = join_plan(capitals_store, gp(fixed, open_))
        assert plan[0] == fixed


class TestOracleEquivalence:
    def test_random_patterns_match_bruteforce(self):
        rng = random.Random(42)
        checked = 0
        while checked < 60:
            store = random_store(rng, n_triples=rng.randint(10, 60),
                                 n_nodes=rng.randint(5, 12), n_preds=3)
            pattern = random_pattern(rng, n_triples=rng.randint(1, 3),
                                     n_vars=3, store=store)
            projection = sorted(pattern.variables(), key=lambda v: v.name)
            if not projection:
                continue
            res = select(store, pattern, projection,
                         soft_timeout=None, hard_timeout=None)
            expected = naive_select(store, pattern, projection)
            assert res.row_set() == expected
            checked += 1

    def test_random_values_tables_match_bruteforce(self):
        """VALUES rows mixing store terms, None entries and absent terms, over
        pattern variables and one variable the pattern does not use."""
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            store = random_store(rng, n_triples=rng.randint(10, 40),
                                 n_nodes=rng.randint(5, 10), n_preds=3)
            pattern = random_pattern(rng, n_triples=rng.randint(1, 3),
                                     n_vars=2, store=store)
            pattern_vars = sorted(pattern.variables(), key=lambda v: v.name)
            if not pattern_vars:
                continue
            values_vars = rng.sample(pattern_vars,
                                     rng.randint(1, min(2, len(pattern_vars))))
            if rng.random() < 0.5:
                values_vars.append(V("extra"))
            choices = store.terms + [None, ex("absent1"), ex("absent2")]
            rows = [tuple(rng.choice(choices) for _ in values_vars)
                    for _ in range(rng.randint(1, 5))]
            projection = sorted(set(pattern_vars) | set(values_vars),
                                key=lambda v: v.name)
            res = select(store, pattern, projection, values=(values_vars, rows),
                         soft_timeout=None, hard_timeout=None)
            expected = naive_select(store, pattern, projection, (values_vars, rows))
            assert res.row_set() == expected
            checked += 1
