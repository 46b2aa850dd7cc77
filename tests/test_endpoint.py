import json
import random
from types import SimpleNamespace

import pytest
import requests

from bgplearn import endpoint
from bgplearn.endpoint import (Endpoint, EndpointConfig, EndpointError,
                               EndpointUnreachable, local_endpoint)
from bgplearn.engine import COMPLETE, HARD_TIMEOUT, select
from bgplearn.evolution import fix_var
from bgplearn.fitness import CoverageLedger, evaluate
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, to_select_sparql)
from bgplearn.predict import PatternPortfolio, PortfolioEntry, predict_targets
from bgplearn.rdf import bnode, iri, literal, load_ntriples

from conftest import ex, select_terms

V = Variable
CAPITAL_GP = GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])


class TestCaching:
    def test_identical_call_hits_cache(self, capitals_store):
        ep = local_endpoint(capitals_store)
        berlin = tuple(ep.handles([ex("Berlin")]))
        r1 = ep.run_select(CAPITAL_GP, [TARGET_VAR], values=([SOURCE_VAR], [berlin]))
        calls = ep.backend_calls
        r2 = ep.run_select(CAPITAL_GP, [TARGET_VAR], values=([SOURCE_VAR], [berlin]))
        assert ep.backend_calls == calls
        assert r2 is r1

    def test_renamed_variables_hit_cache(self, capitals_store):
        ep = local_endpoint(capitals_store)
        a = GraphPattern([TriplePattern(SOURCE_VAR, V("v0"), V("v1")),
                          TriplePattern(V("v1"), V("v2"), TARGET_VAR)])
        b = GraphPattern([TriplePattern(SOURCE_VAR, V("x"), V("y")),
                          TriplePattern(V("y"), V("z"), TARGET_VAR)])
        ep.run_select(a, [SOURCE_VAR, TARGET_VAR])
        calls = ep.backend_calls
        ep.run_select(b, [SOURCE_VAR, TARGET_VAR])
        assert ep.backend_calls == calls

    def test_different_values_miss_cache(self, capitals_store):
        ep = local_endpoint(capitals_store)
        berlin, paris = ep.handles([ex("Berlin"), ex("Paris")])
        ep.run_select(CAPITAL_GP, [TARGET_VAR], values=([SOURCE_VAR], [(berlin,)]))
        calls = ep.backend_calls
        ep.run_select(CAPITAL_GP, [TARGET_VAR], values=([SOURCE_VAR], [(paris,)]))
        assert ep.backend_calls == calls + 1


class TestUncached:
    def test_fix_var_and_predict_store_nothing(self, capitals_store, capitals_gt):
        """Each of their queries goes to the backend, even asked twice."""
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), V("o")),
                           TriplePattern(V("o"), V("q"), TARGET_VAR)])
        portfolio = PatternPortfolio([PortfolioEntry(CAPITAL_GP, [1.0], None)])
        for _ in range(2):
            fix_var(gp, ep, capitals_gt, CoverageLedger.zeros(len(capitals_gt)),
                    random.Random(0))
            sets = predict_targets(ep, portfolio, ex("Berlin"))
            assert [set(ep.terms(list(s))) for s in sets] == [{ex("Germany")}]
        assert ep.backend_calls == 4
        assert ep._cache == {} and ep._tables == {}

    def test_uncached_queries_still_bound_the_plans(self, capitals_store,
                                                    monkeypatch):
        monkeypatch.setattr(endpoint, "_MEMO_BOUND", 2)
        ep = local_endpoint(capitals_store)
        for name in ("capitalOf", "locatedIn", "population", "capitalOf"):
            gp = GraphPattern([TriplePattern(SOURCE_VAR, ex(name), TARGET_VAR)])
            res = select_terms(ep, gp, [SOURCE_VAR, TARGET_VAR], cache=False)
            assert res.rows == select(capitals_store, gp, [SOURCE_VAR, TARGET_VAR]).rows
            assert len(ep._plans) <= 2
        assert ep.backend_calls == 4 and ep._cache == {}


class TestUndecoded:
    """A local query's VALUES entries and rows are store ids, which `terms`
    decodes."""

    def test_batched_equals_unbatched(self, capitals_store):
        terms = [ex("Berlin"), ex("Nowhere"), ex("Paris")]
        projection = [SOURCE_VAR, TARGET_VAR]
        batched = local_endpoint(capitals_store, batch_size=1)
        whole = local_endpoint(capitals_store)
        handles = whole.handles(terms)
        assert handles == [capitals_store.term_id(ex("Berlin")), -1,
                           capitals_store.term_id(ex("Paris"))]
        values = ([SOURCE_VAR], [(h,) for h in handles])
        rows = batched.run_select(CAPITAL_GP, projection, values).rows
        assert batched.backend_calls == 3
        assert rows == whole.run_select(CAPITAL_GP, projection, values).rows
        assert all(type(tid) is int for row in rows for tid in row)
        assert ([tuple(whole.terms(row)) for row in rows]
                == select_terms(whole, CAPITAL_GP, projection,
                                ([SOURCE_VAR], [(t,) for t in terms])).rows
                == [(ex("Berlin"), ex("Germany")), (ex("Paris"), ex("France"))])

    def test_values_only_projection_holds_its_handle(self, capitals_store):
        """A variable that only the VALUES table binds holds the id it was
        given, a negative one for a term the store lacks; asked in terms, the
        query gives that term back."""
        ep = local_endpoint(capitals_store)
        terms = [ex("Berlin"), ex("Nowhere"), ex("Paris"), ex("Atlantis"), ex("Oslo")]
        berlin, nowhere, paris, atlantis, oslo = ep.handles(terms)
        assert (nowhere, atlantis) == (-1, -2)
        values = ([SOURCE_VAR, V("x")], [(berlin, nowhere), (paris, atlantis),
                                         (oslo, paris)])
        projection = [TARGET_VAR, V("x")]
        germany, france, norway = ep.handles([ex("Germany"), ex("France"),
                                              ex("Norway")])
        expected = [(germany, nowhere), (france, atlantis), (norway, paris)]
        for _ in range(2):  # a new plan, then the endpoint's kept one
            assert ep.run_select(CAPITAL_GP, projection, values).rows == expected
        assert select(capitals_store, CAPITAL_GP, projection, values,
                      decode=False).rows == expected
        term_values = ([SOURCE_VAR, V("x")], [(terms[0], terms[1]), (terms[2], terms[3]),
                                              (terms[4], terms[2])])
        assert (select_terms(ep, CAPITAL_GP, projection, term_values).rows
                == [(ex("Germany"), ex("Nowhere")), (ex("France"), ex("Atlantis")),
                    (ex("Norway"), ex("Paris"))])

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 384])
    def test_local_entry_that_is_no_id_refused(self, capitals_store, cache,
                                               batch_size):
        """A local table holds the store's ids only: a term, a bool or a
        float is refused before the first batch runs."""
        ep = local_endpoint(capitals_store, batch_size=batch_size)
        berlin = capitals_store.term_id(ex("Berlin"))
        for late in ((ex("Oslo"),), (True,), (1.0,)):
            with pytest.raises(ValueError) as exc:
                ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                              values=([SOURCE_VAR], [(berlin,), late]),
                              cache=cache)
            assert str(exc.value) == ("VALUES row %r holds an entry that is not an int"
                                      % (late,))
        assert ep.backend_calls == 0 and ep._cache == {}

    def test_handle_of_a_missing_term_has_no_term(self, capitals_store):
        """A local handle below 0 names a term the store lacks: it decodes to
        none, as a past-the-end id does, rather than to the store's last."""
        ep = local_endpoint(capitals_store)
        berlin, missing = ep.handles([ex("Berlin"), iri("http://e/zz")])
        assert ep.terms([berlin]) == [ex("Berlin")] and missing == -1
        assert ep.terms([berlin, berlin]) == [ex("Berlin")] * 2 and ep.terms([]) == []
        for handle in (missing, -2, len(capitals_store.terms)):
            with pytest.raises(IndexError):
                ep.terms([handle])
            with pytest.raises(IndexError):
                ep.terms([berlin, handle])

    def test_table_checked_once_while_it_is_the_last(self, capitals_store,
                                                     monkeypatch):
        """A tuple of tuple rows that passed is not checked again while it is
        the last table checked; another table or width is, and refused,
        which leaves the last table as it was; a list, or a tuple whose rows
        are lists, is checked every time."""
        checked = []

        def check(rows, kind):
            checked.append(rows)
            real(rows, kind)

        real = endpoint.check_values_entries
        monkeypatch.setattr(endpoint, "check_values_entries", check)
        ep = local_endpoint(capitals_store)
        berlin, paris = ep.handles([ex("Berlin"), ex("Paris")])
        table = ((berlin,), (paris,))
        expected = ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], table)).rows
        for cache in (True, False, False):
            assert ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], table),
                                 cache=cache).rows == expected
        assert checked == [table]
        term_table = ((ex("Berlin"),), (ex("Paris"),))
        with pytest.raises(ValueError, match="holds an entry that is not an int"):
            ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], term_table))
        with pytest.raises(ValueError, match="shorter than its 2 variables"):
            ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR, V("x")], table))
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], table)).rows == expected
        assert checked == [table, term_table]  # the width is refused before it
        rows = [(berlin,), (paris,)]
        list_rows = ([berlin], [paris])
        for _ in range(2):
            ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], rows), cache=False)
            ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], list_rows),
                          cache=False)
        assert len(checked) == 6
        list_rows[1][0] = ex("Paris")
        with pytest.raises(ValueError, match="holds an entry that is not an int"):
            ep.run_select(CAPITAL_GP, [TARGET_VAR], ([SOURCE_VAR], list_rows),
                          cache=False)

    def test_remote_handles_are_terms(self):
        """A remote endpoint's handles are its terms, so a query sends its
        terms' text, uncached as cached, and an id is refused."""
        post = _AnsweringPost([(ex("Berlin"), ex("Germany"))])
        ep = _remote(post, retries=0)
        assert ep.handles([ex("Berlin")]) == [ex("Berlin")]
        values = ([SOURCE_VAR], [(ex("Berlin"),)])
        rows = ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR], values).rows
        assert rows == [(ex("Berlin"), ex("Germany"))]
        ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR], values, cache=False)
        assert post.calls[0] == post.calls[1]
        with pytest.raises(ValueError, match="holds an entry that is not a Term"):
            ep.run_select(CAPITAL_GP, [SOURCE_VAR], ([SOURCE_VAR], [(3,)]))
        assert len(post.calls) == 2


class TestValuesTableKey:
    STORE = "<http://e/a> <http://e/rel> <http://e/x> .\n"
    GP = GraphPattern([TriplePattern(SOURCE_VAR, iri("http://e/rel"), TARGET_VAR)])

    def test_term_holding_separator_misses_cache(self):
        ep = local_endpoint(load_ntriples(self.STORE))
        projection = [SOURCE_VAR, TARGET_VAR]
        # one IRI whose text is what two rows' texts joined would read as
        # cannot be built, so no table of it can share a key with `two`
        with pytest.raises(ValueError):
            iri("http://e/a>\x1eR:<http://e/b")
        two = [(iri("http://e/a"),), (iri("http://e/b"),)]
        res = select_terms(ep, self.GP, projection, values=([SOURCE_VAR], two))
        assert res.rows == [(iri("http://e/a"), iri("http://e/x"))]

    def test_bounded_registry_never_stale(self, capitals_store, monkeypatch):
        monkeypatch.setattr(endpoint, "_MEMO_BOUND", 2)
        ep = local_endpoint(capitals_store)
        rng = random.Random(5)
        sources = [ex(name) for name in ("Berlin", "Paris", "Oslo", "Rome")]
        projection = [SOURCE_VAR, TARGET_VAR]
        for _ in range(60):
            rows = [(s,) for s in rng.sample(sources, rng.randint(1, 4))]
            res = select_terms(ep, CAPITAL_GP, projection, values=([SOURCE_VAR], rows))
            expected = select(capitals_store, CAPITAL_GP, projection,
                              values=([SOURCE_VAR], rows))
            assert res.rows == expected.rows
            assert max(map(len, (ep._cache, ep._tables, ep._plans))) <= 2

    def test_long_row_refused_before_sending(self, capitals_store):
        post = _FakePost([("ok", [])])
        ep = _remote(post)
        values = ([SOURCE_VAR], [(ex("Berlin"),), (ex("Berlin"), ex("Paris"))])
        with pytest.raises(ValueError) as remote_exc:
            ep.run_select(CAPITAL_GP, [SOURCE_VAR], values=values)
        assert post.calls == [] and len(ep._cache) == 0
        with pytest.raises(ValueError) as local_exc:
            select(capitals_store, CAPITAL_GP, [SOURCE_VAR], values=values)
        assert str(remote_exc.value) == str(local_exc.value)
        assert "is longer than its 1 variables" in str(remote_exc.value)


class TestUnboundValues:
    def test_sparql_pads_short_row(self, capitals_store):
        """A short row is not padded with UNDEF: the SPARQL writer refuses
        it with the engine's message, as it refuses a long one."""
        values = ([SOURCE_VAR, TARGET_VAR], [(ex("Berlin"),)])
        with pytest.raises(ValueError) as sparql_exc:
            to_select_sparql(CAPITAL_GP, [SOURCE_VAR], values)
        with pytest.raises(ValueError) as local_exc:
            select(capitals_store, CAPITAL_GP, [SOURCE_VAR], values=values)
        assert str(sparql_exc.value) == str(local_exc.value)
        assert "is shorter than its 2 variables" in str(sparql_exc.value)

    def test_sparql_refuses_long_row(self, capitals_store):
        values = ([SOURCE_VAR], [(ex("Berlin"),), (ex("Berlin"), ex("Paris"))])
        with pytest.raises(ValueError) as sparql_exc:
            to_select_sparql(CAPITAL_GP, [SOURCE_VAR], values)
        with pytest.raises(ValueError) as local_exc:
            select(capitals_store, CAPITAL_GP, [SOURCE_VAR], values=values)
        assert str(sparql_exc.value) == str(local_exc.value)


_LONG_ROW = (ex("Berlin"), ex("Paris"))

# Each query is accepted with the same rows on every path, or refused with
# the same message before anything is sent or cached, and before the first
# batch of a batched query runs. `sent` is text a remote endpoint
# must be sent for the unbatched query; the pattern is CAPITAL_GP unless the
# case names one. A VALUES row holds one Term per VALUES variable, no fewer
# and no more, so a bare term is no row and a plain tuple equal to a term is
# no entry; a limit is None or an int >= 0, and a limit of 0 gives no rows.
# A local endpoint's query is in store ids: its terms are encoded with
# `select_terms`, unless the case is `unencoded`, when the local endpoint
# refuses a term with `local_error`.
_SHAPES = {
    "full_rows": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),), (ex("Oslo"),)]),
        sent="VALUES (?source) { (<http://example.org/Berlin>)"
             " (<http://example.org/Oslo>) }",
        rows=[(ex("Berlin"), ex("Germany")), (ex("Oslo"), ex("Norway"))]),
    "short_row": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR, TARGET_VAR], [(ex("Berlin"),)]),
        error="VALUES row %r is shorter than its 2 variables" % ((ex("Berlin"),),)),
    "long_row": dict(
        projection=[SOURCE_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),), _LONG_ROW]),
        error="VALUES row %r is longer than its 1 variables" % (_LONG_ROW,)),
    "bare_term_row": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR, TARGET_VAR, V("a"), V("b")], [ex("Berlin")]),
        error="VALUES row %r holds an entry that is not a Term" % (ex("Berlin"),)),
    "late_bad_row": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),), ("x",)]),
        error="VALUES row ('x',) holds an entry that is not a Term"),
    "plain_tuple_entry": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(tuple(ex("Berlin")),)]),
        error="VALUES row %r holds an entry that is not a Term"
              % ((tuple(ex("Berlin")),),)),
    "unencoded_term": dict(
        projection=[SOURCE_VAR, TARGET_VAR], unencoded=True,
        values=([SOURCE_VAR], [(ex("Berlin"),), (ex("Oslo"),)]),
        sent="VALUES (?source) { (<http://example.org/Berlin>)"
             " (<http://example.org/Oslo>) }",
        rows=[(ex("Berlin"), ex("Germany")), (ex("Oslo"), ex("Norway"))],
        local_error="VALUES row %r holds an entry that is not an int"
                    % ((ex("Berlin"),),)),
    "projection_outside": dict(
        projection=[V("nowhere")], values=None,
        error="projection variables not in pattern or VALUES: ?nowhere"),
    "empty_pattern": dict(
        pattern=GraphPattern(), projection=[SOURCE_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),)]),
        error="a query needs at least one triple pattern"),
    "limit_zero": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),), (ex("Oslo"),)]), limit=0,
        sent=" } LIMIT 0", rows=[]),
    "bad_limit": dict(
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Berlin"),), (ex("Oslo"),)]), limit=-1,
        error="a limit is None or an integer >= 0, not -1"),
    "float_limit": dict(
        projection=[SOURCE_VAR, TARGET_VAR], values=None, limit=1.5,
        error="a limit is None or an integer >= 0, not 1.5"),
}


class _AnsweringPost:
    """A remote endpoint that answers a query with those of `rows` whose
    source its VALUES table names."""

    def __init__(self, rows):
        self.rows = rows or []
        self.calls = []

    def __call__(self, url, data, headers, timeout):
        query = data["query"]
        self.calls.append(query)
        return _answer({"results": {"bindings": [
            {"source": {"type": "uri", "value": s.value},
             "target": {"type": "uri", "value": t.value}}
            for s, t in self.rows if "(%s)" % s.n3() in query]}})


@pytest.mark.parametrize("path", ["engine", "local", "batched", "remote",
                                  "remote_batched"])
@pytest.mark.parametrize("case", list(_SHAPES))
def test_one_query_shape_rule_on_every_path(capitals_store, case, path):
    c = _SHAPES[case]
    post = _AnsweringPost(c.get("rows"))
    ep = {"engine": None, "local": local_endpoint(capitals_store),
          "batched": local_endpoint(capitals_store, batch_size=1),
          "remote": _remote(post, retries=0),
          "remote_batched": _remote(post, retries=0, batch_size=1)}[path]

    pattern = c.get("pattern", CAPITAL_GP)
    local = path in ("local", "batched")
    error = c.get("local_error", c.get("error")) if local else c.get("error")

    def run():
        if ep is None:
            return select(capitals_store, pattern, c["projection"], c["values"],
                          c.get("limit"))
        if local and not c.get("unencoded"):
            return select_terms(ep, pattern, c["projection"], c["values"],
                                c.get("limit"))
        return ep.run_select(pattern, c["projection"], c["values"], c.get("limit"))

    if error is None:
        result = run()
        assert result.rows == c["rows"] and result.status == COMPLETE
        batches = len(c["values"][1]) if c["values"] else 1
        assert len(post.calls) == {"remote": 1, "remote_batched": batches}.get(path, 0)
        if path == "remote":
            assert c["sent"] in post.calls[0]
        return
    with pytest.raises(ValueError) as exc:
        run()
    assert str(exc.value) == error
    assert post.calls == []
    if ep is not None:
        assert len(ep._cache) == 0
        # only the backend reads the projection
        assert ep.backend_calls == (case == "projection_outside")
    if path == "remote" and case in ("short_row", "long_row", "bare_term_row",
                                     "late_bad_row", "plain_tuple_entry",
                                     "bad_limit", "float_limit"):
        # the query writer refuses the rows and the limit on its own too
        with pytest.raises(ValueError) as writer:
            to_select_sparql(pattern, c["projection"], c["values"], c.get("limit"))
        assert str(writer.value) == c["error"]


class TestBatching:
    def test_batched_equals_unbatched(self, capitals_store):
        pairs = [(ex("n%d" % i),) for i in range(7)]
        pairs += [(ex("Berlin"),), (ex("Paris"),), (ex("Oslo"),)]
        big = local_endpoint(capitals_store, batch_size=3)
        small = local_endpoint(capitals_store, batch_size=1000)
        r_b = select_terms(big, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                           values=([SOURCE_VAR], pairs))
        r_u = select_terms(small, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                           values=([SOURCE_VAR], pairs))
        assert r_b.row_set() == r_u.row_set()

    def test_batch_request_count(self, capitals_store):
        ep = local_endpoint(capitals_store, batch_size=300)
        pairs = [(ex("s%d" % i),) for i in range(700)]
        select_terms(ep, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                     values=([SOURCE_VAR], pairs))
        assert ep.backend_calls == 3

    @pytest.mark.parametrize("cache", [True, False])
    def test_remote_refuses_late_bad_row_before_posting(self, cache):
        """A remote endpoint reads the whole VALUES table before it posts the
        first batch, with or without the cache key, which reads row lengths."""
        post = _AnsweringPost([])
        ep = _remote(post, retries=0, batch_size=1)
        for late, error in ((_LONG_ROW, "is longer than its 1 variables"),
                            (("x",), "holds an entry that is not a Term")):
            with pytest.raises(ValueError, match=error):
                ep.run_select(CAPITAL_GP, [SOURCE_VAR],
                              values=([SOURCE_VAR], [(ex("Berlin"),), late]),
                              cache=cache)
        assert post.calls == [] and ep.backend_calls == 0

    @pytest.mark.parametrize("cache", [True, False])
    def test_local_refuses_late_bad_row_before_any_batch(self, capitals_store, cache):
        """A local endpoint reads the whole VALUES table before it runs the
        first batch, as a remote one does before it posts."""
        ep = local_endpoint(capitals_store, batch_size=1)
        berlin, oslo, paris = ep.handles([ex("Berlin"), ex("Oslo"), ex("Paris")])
        for late, error in (((berlin, paris), "is longer than its 1 variables"),
                            (("x",), "holds an entry that is not an int")):
            with pytest.raises(ValueError, match=error):
                ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                              values=([SOURCE_VAR], [(berlin,), (oslo,), late]),
                              cache=cache)
        assert ep.backend_calls == 0 and ep._cache == {}


def _sparql_json(rows):
    return {"head": {"vars": ["target"]},
            "results": {"bindings": [
                {"target": {"type": "uri", "value": t}} for t in rows]}}


def _answer(doc):
    """A 200 answer whose body is the JSON text of `doc`."""
    return 200, json.dumps(doc)


class _FakePost:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, data, headers, timeout):
        self.calls.append(data["query"])
        action = self.responses.pop(0) if self.responses else ("ok", [])
        if action[0] == "error":
            raise ConnectionError("boom")
        if action[0] == "http":
            return action[1], None
        return _answer(_sparql_json(action[1]))


_BERLIN = {"type": "uri", "value": "http://example.org/Berlin"}


def _remote(post, **kw):
    cfg = EndpointConfig(backoff=0.0, **kw)
    return Endpoint(cfg, url="http://fake/sparql", http_post=post)


class TestRemote:
    def test_json_results_parsed(self):
        post = _FakePost([("ok", ["http://x/Germany"])])
        ep = _remote(post)
        res = ep.run_select(CAPITAL_GP, [TARGET_VAR],
                            values=([SOURCE_VAR], [(ex("Berlin"),)]))
        assert res.status == COMPLETE
        assert res.rows[0][0].value == "http://x/Germany"
        assert "SELECT DISTINCT ?target" in post.calls[0]
        assert "VALUES" in post.calls[0]

    def test_learner_queries_post_pinned_text(self, missing_gt):
        """A fitness and a fix-var query send the text they sent before the
        ground truth was encoded once per session, pinned from then."""
        post = _AnsweringPost([(ex("Berlin"), ex("Germany"))])
        ep = _remote(post, retries=0)
        ev, _ = evaluate(ep, CAPITAL_GP, missing_gt,
                         CoverageLedger.zeros(len(missing_gt)))
        assert ev.pv == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        fix_var(GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)]), ep,
                missing_gt, CoverageLedger.zeros(len(missing_gt)), random.Random(3))
        assert post.calls == [text.replace("ex:", "http://example.org/") for text in (
            "SELECT DISTINCT ?source ?target WHERE { VALUES (?source) {"
            " (<ex:Berlin>) (<ex:Atlantis>) (<ex:Paris>) (<ex:Lemuria>) (<ex:Oslo>) }"
            " ?source <ex:capitalOf> ?target . }",
            "SELECT DISTINCT ?source ?target ?p WHERE { VALUES (?source ?target) {"
            " (<ex:Lemuria> <ex:France>) (<ex:Berlin> <ex:Germany>)"
            " (<ex:Oslo> <ex:Norway>) (<ex:Paris> <ex:Elsewhere>)"
            " (<ex:Atlantis> <ex:Norway>) (<ex:Atlantis> <ex:Germany>) }"
            " ?source ?p ?target . } LIMIT 1024")]

    def test_posted_query_text(self):
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        gp = GraphPattern([
            TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
            TriplePattern(SOURCE_VAR, ex("label"),
                          literal('say "hi" \\ now\nok', lang="en")),
            TriplePattern(TARGET_VAR, ex("code"), literal("42", datatype=xsd_int))])
        rows = [(ex("Berlin"), ex("Germany")), (bnode("b1"), ex("France"))]
        post = _FakePost([("ok", [])])
        _remote(post).run_select(gp, [SOURCE_VAR, TARGET_VAR],
                                 values=([SOURCE_VAR, TARGET_VAR], rows), limit=5)
        assert post.calls == [
            "SELECT DISTINCT ?source ?target WHERE {"
            " VALUES (?source ?target) {"
            " (<http://example.org/Berlin> <http://example.org/Germany>)"
            " (_:b1 <http://example.org/France>) }"
            " ?source <http://example.org/capitalOf> ?target ."
            r' ?source <http://example.org/label> "say \"hi\" \\ now\nok"@en .'
            ' ?target <http://example.org/code> "42"^^<%s> .'
            " } LIMIT 5" % xsd_int]

    def test_json_terms_parsed(self):
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        answers = [{"type": "bnode", "value": "b0"},
                   {"type": "literal", "value": 'say "hi"', "xml:lang": "en-GB"},
                   {"type": "typed-literal", "value": "42", "datatype": xsd_int}]
        ep = _remote(lambda url, data, headers, timeout: _answer({
            "results": {"bindings": [{"target": a} for a in answers]}}))
        res = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert res.rows == [(bnode("b0"),), (literal('say "hi"', lang="en-GB"),),
                            (literal("42", datatype=xsd_int),)]

    @pytest.mark.parametrize("term", [
        {"type": "uri", "value": "http://e/a> . ?x ?y <http://e/z"},
        {"type": "uri", "value": "http://e/a b"},
        {"type": "bnode", "value": "b0 . ?x ?y"},
        {"type": "literal", "value": "v", "datatype": "http://e/t> . ?x ?y <http://e/z"},
        {"type": "literal", "value": "v", "xml:lang": "en . ?x ?y"}],
        ids=["iri", "iri-space", "bnode", "datatype", "lang"])
    def test_unwritable_json_term_refused(self, term):
        """A term N-Triples cannot write would change the text of every later
        query built from it, so the answer is refused, not learned from."""
        bad = term.get("datatype") or term.get("xml:lang") or term["value"]
        ep = _remote(lambda url, data, headers, timeout: _answer({
            "results": {"bindings": [{"target": term}]}}))
        with pytest.raises(ValueError) as exc:
            ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert repr(bad) in str(exc.value)
        assert len(ep._cache) == 0

    @pytest.mark.parametrize("term,message", [
        ({"type": "uri"}, r"are strings, not \(None, None, None\)"),
        ({"type": "literal", "value": 3}, r"are strings, not \(3, None, None\)"),
        ({"type": "literal", "value": "v", "datatype": 3},
         r"are strings, not \('v', 3, None\)"),
        ({"type": "literal", "value": "v", "xml:lang": 3},
         r"are strings, not \('v', None, 3\)")],
        ids=["missing", "not-string", "datatype", "lang"])
    def test_json_term_without_string_value_refused(self, term, message):
        ep = _remote(lambda url, data, headers, timeout: _answer({
            "results": {"bindings": [{"target": term}]}}))
        with pytest.raises(ValueError, match=message):
            ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert len(ep._cache) == 0

    @pytest.mark.parametrize("payload", [
        [], None, {}, {"results": []}, {"results": {"bindings": {}}},
        {"results": {"bindings": [["x"]]}},
        {"results": {"bindings": [{"source": "x", "target": _BERLIN}]}},
        {"results": {"bindings": [{"source": _BERLIN}]}}],
        ids=["list", "null", "no-results", "results-list", "bindings-object",
             "binding-list", "term-string", "unbound-target"])
    def test_malformed_answer_refused(self, payload):
        """An answer outside the SPARQL JSON results format, or one leaving a
        projected variable unbound, is refused and nothing is cached."""
        ep = _remote(lambda url, data, headers, timeout: _answer(payload))
        with pytest.raises(ValueError, match="^SPARQL JSON "):
            ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR])
        assert len(ep._cache) == 0

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b"", b"\xff"],
                             ids=["html", "empty", "not-utf8"])
    def test_non_json_answer_refused_once(self, monkeypatch, body):
        """A 200 answer that is not JSON, through the HTTP client itself, is
        a ValueError after one post, and nothing is cached."""
        posts = []

        def post(url, data, headers, timeout):
            posts.append(url)
            answer = requests.Response()
            answer.status_code, answer._content = 200, body
            return answer

        monkeypatch.setattr(requests, "post", post)
        ep = Endpoint(EndpointConfig(backoff=0.0), url="http://fake/sparql")
        with pytest.raises(ValueError, match="^SPARQL JSON answer that is not JSON: "):
            ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert len(posts) == 1 and len(ep._cache) == 0

    def test_retry_then_success(self):
        post = _FakePost([("error",), ("error",), ("ok", ["http://x/G"])])
        ep = _remote(post, retries=3)
        res = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert res.status == COMPLETE
        assert len(post.calls) == 3 and len(post.responses) == 0

    def test_unreachable_after_retries(self):
        post = _FakePost([("error",)] * 10)
        ep = _remote(post, retries=2)
        with pytest.raises(EndpointUnreachable):
            ep.run_select(CAPITAL_GP, [TARGET_VAR])

    def test_http_4xx_is_endpoint_error(self):
        """A refused query is not retried and is not an unreachable endpoint."""
        post = _FakePost([("http", 400)] * 10)
        ep = _remote(post, retries=2)
        with pytest.raises(EndpointError, match="HTTP 400") as exc:
            ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert not isinstance(exc.value, EndpointUnreachable)
        assert len(post.calls) == 1 and len(ep._cache) == 0

    def test_http_5xx_is_hard_timeout(self):
        post = _FakePost([("http", 503)] * 10)
        ep = _remote(post, retries=2)
        res = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert res.status == HARD_TIMEOUT and res.rows == []
        assert len(post.calls) == 3  # retried like a network failure

    def test_http_5xx_retried_then_success(self):
        post = _FakePost([("http", 503), ("ok", ["http://x/G"])])
        ep = _remote(post, retries=3)
        res = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert res.status == COMPLETE and res.rows[0][0].value == "http://x/G"
        assert len(post.calls) == 2

    def test_http_5xx_timeout_not_cached(self):
        post = _FakePost([("http", 503), ("ok", ["http://x/G"])])
        ep = _remote(post, retries=0)
        first = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert first.status == HARD_TIMEOUT
        second = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert second.status == COMPLETE
        assert [row[0].value for row in second.rows] == ["http://x/G"]


class TestConfig:
    def test_invariants(self):
        # each numeric setting at its lowest accepted value, then just below it
        for name, lowest, below in [
                ("batch_size", 1, 0), ("default_limit", 1, 0),
                ("retries", 0, -1), ("backoff", 0.0, -0.5),
                ("soft_timeout", 0.0, -1.0), ("hard_timeout", 0.0, -0.01)]:
            EndpointConfig(**{name: lowest})
            with pytest.raises(ValueError, match=name):
                EndpointConfig(**{name: below})

    @pytest.mark.parametrize("setting", [
        dict(batch_size=1.5), dict(default_limit=2.0), dict(retries=True),
        dict(backoff=False), dict(soft_timeout=True)],
        ids=lambda s: "%s=%r" % next(iter(s.items())))
    def test_a_setting_has_its_declared_type(self, capitals_store, setting):
        """An int setting takes an int, and no setting takes a bool, on a
        local and a remote endpoint alike; the remote one posts nothing."""
        refusal = "^%s must be " % next(iter(setting))
        with pytest.raises(ValueError, match=refusal):
            local_endpoint(capitals_store, **setting)
        post = _FakePost([])
        with pytest.raises(ValueError, match=refusal):
            Endpoint(EndpointConfig(**setting), url="http://fake/sparql",
                     http_post=post)
        assert post.calls == []


class TestBackend:
    def test_needs_one_of_store_and_url(self, capitals_store):
        for given in ({}, {"url": ""},
                      {"store": capitals_store, "url": "http://e/sparql"}):
            with pytest.raises(ValueError, match="either a store or a url"):
                Endpoint(EndpointConfig(), **given)

    def test_url_is_posted_to(self):
        urls = []

        def post(url, data, headers, timeout):
            urls.append(url)
            return _answer(_sparql_json([]))

        Endpoint(EndpointConfig(), url="http://e/sparql",
                 http_post=post).run_select(CAPITAL_GP, [TARGET_VAR])
        assert urls == ["http://e/sparql"]


class TestCacheExpiry:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake `time` for the endpoint module; advance it with clock[0]."""
        now = [1000.0]
        monkeypatch.setattr(endpoint, "time", SimpleNamespace(
            time=lambda: now[0], sleep=lambda seconds: None))
        return now

    def test_remote_answer_never_expires(self, clock):
        """A remote answer stays cached however long a session runs, so a
        pattern's fitness cannot change within it."""
        post = _FakePost([])
        ep = _remote(post)
        first = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        clock[0] += 1e9
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR]) is first
        assert len(post.calls) == 1

    def test_local_answer_never_expires(self, clock, capitals_store):
        ep = local_endpoint(capitals_store)
        first = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        clock[0] += 1e9
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR]) is first
        assert ep.backend_calls == 1
