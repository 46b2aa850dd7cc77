import json
import random
from types import SimpleNamespace

import pytest

from bgplearn import endpoint
from bgplearn.endpoint import (Endpoint, EndpointConfig, EndpointUnreachable,
                               local_endpoint)
from bgplearn.engine import COMPLETE, HARD_TIMEOUT, select
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, to_select_sparql)
from bgplearn.rdf import bnode, iri, literal, load_ntriples

from conftest import ex

V = Variable
CAPITAL_GP = GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])


class TestCaching:
    def test_identical_call_hits_cache(self, capitals_store):
        ep = local_endpoint(capitals_store)
        r1 = ep.run_select(CAPITAL_GP, [TARGET_VAR],
                           values=([SOURCE_VAR], [(ex("Berlin"),)]))
        calls = ep.backend_calls
        r2 = ep.run_select(CAPITAL_GP, [TARGET_VAR],
                           values=([SOURCE_VAR], [(ex("Berlin"),)]))
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
        ep.run_select(CAPITAL_GP, [TARGET_VAR],
                      values=([SOURCE_VAR], [(ex("Berlin"),)]))
        calls = ep.backend_calls
        ep.run_select(CAPITAL_GP, [TARGET_VAR],
                      values=([SOURCE_VAR], [(ex("Paris"),)]))
        assert ep.backend_calls == calls + 1


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
        res = ep.run_select(self.GP, projection, values=([SOURCE_VAR], two))
        assert res.rows == [(iri("http://e/a"), iri("http://e/x"))]

    def test_bounded_registry_never_stale(self, capitals_store):
        ep = local_endpoint(capitals_store, cache_capacity=2)
        rng = random.Random(5)
        sources = [ex(name) for name in ("Berlin", "Paris", "Oslo", "Rome")]
        projection = [SOURCE_VAR, TARGET_VAR]
        for _ in range(60):
            rows = [(s,) for s in rng.sample(sources, rng.randint(1, 4))]
            res = ep.run_select(CAPITAL_GP, projection, values=([SOURCE_VAR], rows))
            expected = select(capitals_store, CAPITAL_GP, projection,
                              values=([SOURCE_VAR], rows))
            assert res.rows == expected.rows
            assert len(ep._tables._numbers) <= 3

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
    VALUES = ([SOURCE_VAR], [(ex("Berlin"),), (None,)])

    def test_endpoint_rows_equal_engine_rows(self, capitals_store):
        projection = [SOURCE_VAR, TARGET_VAR]
        res = local_endpoint(capitals_store).run_select(CAPITAL_GP, projection,
                                                        values=self.VALUES)
        expected = select(capitals_store, CAPITAL_GP, projection, values=self.VALUES)
        assert res.rows == expected.rows and len(res.rows) == 3

    def test_sparql_writes_undef(self):
        query = to_select_sparql(CAPITAL_GP, [TARGET_VAR], self.VALUES)
        assert "VALUES (?source) { (<http://example.org/Berlin>) (UNDEF) }" in query

    def test_sparql_pads_short_row(self):
        values = ([SOURCE_VAR, TARGET_VAR], [(ex("Berlin"),)])
        query = to_select_sparql(CAPITAL_GP, [SOURCE_VAR], values)
        assert ("VALUES (?source ?target) { (<http://example.org/Berlin> UNDEF) }"
                in query)

    def test_sparql_refuses_long_row(self, capitals_store):
        values = ([SOURCE_VAR], [(ex("Berlin"),), (ex("Berlin"), ex("Paris"))])
        with pytest.raises(ValueError) as sparql_exc:
            to_select_sparql(CAPITAL_GP, [SOURCE_VAR], values)
        with pytest.raises(ValueError) as local_exc:
            select(capitals_store, CAPITAL_GP, [SOURCE_VAR], values=values)
        assert str(sparql_exc.value) == str(local_exc.value)

    def test_short_row_shares_cache_entry(self, capitals_store):
        ep = local_endpoint(capitals_store)
        projection = [SOURCE_VAR, TARGET_VAR]
        short = ep.run_select(CAPITAL_GP, projection,
                              values=(projection, [(ex("Berlin"),)]))
        padded = ep.run_select(CAPITAL_GP, projection,
                               values=(projection, [(ex("Berlin"), None)]))
        assert ep.backend_calls == 1
        assert padded is short


class TestBatching:
    def test_batched_equals_unbatched(self, capitals_store):
        pairs = [(ex("n%d" % i),) for i in range(7)]
        pairs += [(ex("Berlin"),), (ex("Paris"),), (ex("Oslo"),)]
        big = local_endpoint(capitals_store, batch_size=3)
        small = local_endpoint(capitals_store, batch_size=1000)
        r_b = big.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                             values=([SOURCE_VAR], pairs))
        r_u = small.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                               values=([SOURCE_VAR], pairs))
        assert r_b.row_set() == r_u.row_set()

    def test_batch_request_count(self, capitals_store):
        ep = local_endpoint(capitals_store, batch_size=300)
        pairs = [(ex("s%d" % i),) for i in range(700)]
        ep.run_select(CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                      values=([SOURCE_VAR], pairs))
        assert ep.backend_calls == 3


def _sparql_json(rows):
    return {"head": {"vars": ["target"]},
            "results": {"bindings": [
                {"target": {"type": "uri", "value": t}} for t in rows]}}


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
        return 200, _sparql_json(action[1])


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

    def test_posted_query_text(self):
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        gp = GraphPattern([
            TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
            TriplePattern(SOURCE_VAR, ex("label"),
                          literal('say "hi" \\ now\nok', lang="en")),
            TriplePattern(TARGET_VAR, ex("code"), literal("42", datatype=xsd_int)),
            TriplePattern(bnode("b0"), ex("near"), SOURCE_VAR)])
        rows = [(ex("Berlin"), ex("Germany")), (bnode("b1"), ex("France"))]
        post = _FakePost([("ok", [])])
        _remote(post).run_select(gp, [SOURCE_VAR, TARGET_VAR],
                                 values=([SOURCE_VAR, TARGET_VAR], rows), limit=5)
        assert post.calls == [
            "SELECT DISTINCT ?source ?target WHERE {"
            " VALUES (?source ?target) {"
            " (<http://example.org/Berlin> <http://example.org/Germany>)"
            " (_:b1 <http://example.org/France>) }"
            " _:b0 <http://example.org/near> ?source ."
            " ?source <http://example.org/capitalOf> ?target ."
            r' ?source <http://example.org/label> "say \"hi\" \\ now\nok"@en .'
            ' ?target <http://example.org/code> "42"^^<%s> .'
            " } LIMIT 5" % xsd_int]

    def test_json_terms_parsed(self):
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        answers = [{"type": "bnode", "value": "b0"},
                   {"type": "literal", "value": 'say "hi"', "xml:lang": "en-GB"},
                   {"type": "typed-literal", "value": "42", "datatype": xsd_int}]
        ep = _remote(lambda url, data, headers, timeout: (200, {
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
        ep = _remote(lambda url, data, headers, timeout: (200, {
            "results": {"bindings": [{"target": term}]}}))
        with pytest.raises(ValueError) as exc:
            ep.run_select(CAPITAL_GP, [TARGET_VAR])
        assert repr(bad) in str(exc.value)
        assert len(ep._cache) == 0

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
                ("cache_capacity", 0, -5), ("cache_ttl", 0.0, -1.0),
                ("retries", 0, -1), ("backoff", 0.0, -0.5),
                ("soft_timeout", 0.0, -1.0), ("hard_timeout", 0.0, -0.01)]:
            EndpointConfig(**{name: lowest})
            with pytest.raises(ValueError, match=name):
                EndpointConfig(**{name: below})


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
            return 200, _sparql_json([])

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

    @pytest.mark.parametrize("overrides, ttl", [({}, 3600.0),
                                                ({"cache_ttl": 10.0}, 10.0)],
                             ids=["default", "ten"])
    def test_remote_answer_expires_after_ttl(self, clock, overrides, ttl):
        post = _FakePost([])
        ep = _remote(post, **overrides)
        first = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        clock[0] += ttl
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR]) is first
        assert len(post.calls) == 1
        clock[0] += 0.5
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR]) is not first
        assert len(post.calls) == 2

    def test_local_answer_never_expires(self, clock, capitals_store):
        ep = local_endpoint(capitals_store, cache_ttl=0)
        first = ep.run_select(CAPITAL_GP, [TARGET_VAR])
        clock[0] += 1e9
        assert ep.run_select(CAPITAL_GP, [TARGET_VAR]) is first
        assert ep.backend_calls == 1
