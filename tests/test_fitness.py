import dataclasses
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgplearn import fitness
from bgplearn.endpoint import Endpoint, EndpointConfig, local_endpoint
from bgplearn.engine import (COMPLETE, SOFT_TIMEOUT, TICKS_PER_SECOND, EvalResult,
                            select)
from bgplearn.fitness import (_STATUS_PENALTY, OVERFIT_FACTOR, CoverageLedger,
                              FitnessTuple, GroundTruthPair, encode_gt, evaluate,
                              score)
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, to_select_sparql)
from bgplearn.rdf import IRI, literal

from conftest import (ex, json_term, mixed_store, random_pattern, random_store,
                      select_terms)

V = Variable
CAPITAL_GP = GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])
ALLVAR_GP = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])


class TestLedger:
    def test_zeros_and_remains(self):
        led = CoverageLedger.zeros(4)
        assert led.remains() == 4.0
        assert list(led.values) == [0.0, 0.0, 0.0, 0.0]

    def test_updated_elementwise_max(self):
        led = CoverageLedger([0.2, 0.9, 0.0])
        new = led.updated([[0.5, 0.1, 0.0], [0.0, 0.0, 1.0]])
        assert list(new.values) == [0.5, 0.9, 1.0]
        assert list(led.values) == [0.2, 0.9, 0.0]

    @pytest.mark.parametrize("values", ["1", ["0.5"], [True], [0.5, False], {"1": 0}],
                             ids=["string", "numeric_string", "true", "false",
                                  "dict_key"])
    def test_refuses_what_is_not_a_precision(self, values):
        with pytest.raises(ValueError, match="real numbers in \\[0, 1\\]"):
            CoverageLedger(values)

    def test_remains_after_update(self):
        led = CoverageLedger.zeros(3).updated([[1.0, 0.0, 0.5]])
        assert led.remains() == pytest.approx(3 - 1.5)

    @staticmethod
    def _random_values(rng):
        return [rng.choice([0.0, 1.0, 1.0 / rng.randint(1, 9), rng.random()])
                for _ in range(rng.randint(0, 400))]

    def test_remains_bit_equal_to_sum(self):
        rng = random.Random(3)
        for values in [[]] + [self._random_values(rng) for _ in range(200)]:
            led = CoverageLedger(values)
            # repr round-trips a float exactly
            assert repr(led.remains()) == repr(sum(1.0 - v for v in values))
            assert led.weights == tuple(1.0 - v for v in values)

    def test_json_bytes_unchanged(self):
        rng = random.Random(4)
        for _ in range(50):
            values = self._random_values(rng)
            led = CoverageLedger(values)
            assert led.to_json() == json.dumps(values)


def _key(**kw):
    base = dict(remains=0.0, score=0.0, gain=0.0, f1=0.0, avg_result_len=0.0,
                gt_matches=0, pattern_length=1, pattern_vars=2,
                timeout_penalty=0.0, query_time_s=0.0)
    base.update(kw)
    return FitnessTuple(**base).key()


class TestTupleOrdering:
    def test_remains_dominates(self):
        assert _key(remains=2.0, score=0.0) > _key(remains=1.0, score=99.0)

    def test_score_breaks_ties(self):
        assert _key(score=2.0) > _key(score=1.0)

    def test_minimized_fields_flip(self):
        assert _key(avg_result_len=1.0) > _key(avg_result_len=5.0)
        assert _key(pattern_length=2) > _key(pattern_length=4)
        assert _key(pattern_vars=2) > _key(pattern_vars=5)
        assert _key(timeout_penalty=0.0) > _key(timeout_penalty=0.5)
        assert _key(query_time_s=0.1) > _key(query_time_s=0.9)

    def test_maximized_fields_keep_direction(self):
        assert _key(gain=3.0) > _key(gain=1.0)
        assert _key(f1=0.9) > _key(f1=0.2)
        assert _key(gt_matches=4) > _key(gt_matches=3)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=10, max_size=10),
           st.lists(st.floats(0, 10, allow_nan=False), min_size=10, max_size=10))
    @settings(max_examples=100)
    def test_comparison_is_total_and_antisymmetric(self, a, b):
        fields = ("remains", "score", "gain", "f1", "avg_result_len",
                  "gt_matches", "pattern_length", "pattern_vars",
                  "timeout_penalty", "query_time_s")
        ka = FitnessTuple(**dict(zip(fields, a))).key()
        kb = FitnessTuple(**dict(zip(fields, b))).key()
        assert (ka < kb) + (kb < ka) + (ka == kb) == 1


class TestScore:
    @staticmethod
    def _matched(gt, matched):
        """The distinct sources and targets of the pairs `matched` names."""
        return ({gt[i].source for i in matched}, {gt[i].target for i in matched})

    gt = [GroundTruthPair(ex("a"), ex("x")),
          GroundTruthPair(ex("b"), ex("y")),
          GroundTruthPair(ex("c"), ex("z"))]

    def test_diverse_matches_full_gain(self):
        assert score(3.0, *self._matched(self.gt, {0, 1, 2})) == 3.0

    def test_single_pair_overfit(self):
        s = score(1.0, *self._matched(self.gt, {0}))
        assert s == pytest.approx(0.1)

    def test_zero_gain(self):
        assert score(0.0, *self._matched(self.gt, {0, 1})) == 0.0

    def test_same_source_overfit(self):
        gt = [GroundTruthPair(ex("a"), ex("x")),
              GroundTruthPair(ex("a"), ex("y"))]
        assert score(2.0, *self._matched(gt, {0, 1})) == pytest.approx(0.2)


class TestEvaluate:
    def test_exact_pattern_on_fixture(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, fit = evaluate(ep, CAPITAL_GP, capitals_gt, led)
        assert ev.pv == [1.0, 1.0, 1.0]
        assert fit.gt_matches == 3
        assert fit.avg_result_len == pytest.approx(1.0)
        assert fit.f1 == pytest.approx(1.0)
        assert fit.gain == pytest.approx(3.0)
        assert fit.score == pytest.approx(3.0)
        assert fit.remains == pytest.approx(3.0)
        assert fit.pattern_length == 1 and fit.pattern_vars == 2
        assert fit.timeout_penalty == 0.0

    def test_overfit_factor_scales_a_single_matched_pair(self, capitals_store,
                                                         capitals_gt, monkeypatch):
        gt = [capitals_gt[0], GroundTruthPair(ex("Nowhere"), ex("Germany"))]
        led = CoverageLedger.zeros(len(gt))
        for factor, expected in ((OVERFIT_FACTOR, 0.1), (0.5, 0.5), (1.0, 1.0)):
            monkeypatch.setattr(fitness, "OVERFIT_FACTOR", factor)
            _, fit = evaluate(local_endpoint(capitals_store), CAPITAL_GP, gt, led)
            assert (fit.gain, fit.score) == (1.0, expected)

    def test_all_variable_predicate(self, capitals_store, capitals_gt):
        # Berlin has capitalOf, locatedIn and population edges so its
        # result list is longer than one; precision drops below 1.
        ep = local_endpoint(capitals_store)
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, fit = evaluate(ep, ALLVAR_GP, capitals_gt, led)
        assert ev.covered == [True, True, True]
        berlin = select(capitals_store, ALLVAR_GP, [TARGET_VAR],
                        values=([SOURCE_VAR], [(ex("Berlin"),)]))
        berlin_len = len(berlin.rows)
        assert berlin_len >= 2
        assert ev.pv[0] == pytest.approx(1.0 / berlin_len)
        assert fit.avg_result_len > 1.0
        assert 0.0 < fit.f1 < 1.0

    def test_saturated_ledger_zero_gain(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        led = CoverageLedger([1.0, 1.0, 1.0])
        _unused, fit = evaluate(ep, CAPITAL_GP, capitals_gt, led)
        assert fit.gain == 0.0 and fit.score == 0.0
        assert fit.remains == 0.0

    def test_partial_ledger_gain(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        led = CoverageLedger([1.0, 0.0, 0.5])
        _unused, fit = evaluate(ep, CAPITAL_GP, capitals_gt, led)
        assert fit.gain == pytest.approx(0.0 + 1.0 + 0.5)
        assert fit.remains == pytest.approx(1.5)

    def test_no_match_pattern(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("nosuch"), TARGET_VAR)])
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, fit = evaluate(ep, gp, capitals_gt, led)
        assert ev.pv == [0.0, 0.0, 0.0]
        assert fit.gain == 0.0 and fit.f1 == 0.0
        assert fit.avg_result_len == 0.0

    def test_incomplete_pattern_zeroed_without_query(self, capitals_store,
                                                     capitals_gt):
        ep = local_endpoint(capitals_store)
        frag = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), V("o"))])
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, fit = evaluate(ep, frag, capitals_gt, led)
        assert fit.gain == 0.0 and ev.pv == [0.0, 0.0, 0.0]
        assert ep.backend_calls == 0

    def test_pv_values_are_reciprocals(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        rng = random.Random(7)
        for _ in range(20):
            pred = rng.choice(["capitalOf", "locatedIn", "population", "nosuch"])
            gp = GraphPattern([TriplePattern(SOURCE_VAR, ex(pred), TARGET_VAR)])
            led = CoverageLedger.zeros(len(capitals_gt))
            ev, _ = evaluate(ep, gp, capitals_gt, led)
            for v in ev.pv:
                assert v == 0.0 or abs(1.0 / v - round(1.0 / v)) < 1e-12

    def test_soft_timeout_scores_partial_rows_without_gain(self, capitals_gt):
        """A soft-timed-out answer still gives each pair its precision from
        the rows it holds, but no gain, however many new pairs they cover."""
        class SoftTimeoutEndpoint:
            handles = staticmethod(list)  # a remote endpoint's handles are its terms

            def run_select(self, gp, projection, values=None, limit=None,
                           decode=True):
                rows = [(ex("Berlin"), ex("Germany")), (ex("Paris"), ex("France")),
                        (ex("Paris"), ex("Spain"))]
                return EvalResult(rows, elapsed=0.25, status=SOFT_TIMEOUT)

        led = CoverageLedger.zeros(len(capitals_gt))
        ev, fit = evaluate(SoftTimeoutEndpoint(), CAPITAL_GP, capitals_gt, led)
        assert ev.pv == [1.0, 0.5, 0.0]
        assert fit.gt_matches == 2 and fit.avg_result_len == 1.0
        assert fit.gain == 0.0 and fit.score == 0.0
        assert fit.timeout_penalty == 0.5 and fit.query_time_s == 0.25

    def test_update_ledger(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, _ = evaluate(ep, CAPITAL_GP, capitals_gt, led)
        new = led.updated([ev.pv])
        assert list(new.values) == [1.0, 1.0, 1.0]
        assert new.remains() == 0.0


class TestMissingTerms:
    """Terms the store lacks score as they did before the ground truth was
    encoded once per session; the figures are pinned from then."""

    @pytest.mark.parametrize("batch_size", [2, 384])
    @pytest.mark.parametrize("gp, pv, elapsed, known_elapsed", [
        (CAPITAL_GP, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0], 2.2e-05, 1.8e-05),
        (ALLVAR_GP, [0.5, 0.0, 0.0, 0.0, 0.0, 1.0], 2.8e-05, 2.4e-05)],
        ids=["capital", "any_predicate"])
    def test_scored_as_pinned(self, capitals_store, missing_gt, batch_size, gp, pv,
                              elapsed, known_elapsed):
        ledger = CoverageLedger.zeros(len(missing_gt))
        ep = local_endpoint(capitals_store, batch_size=batch_size)
        encoded = encode_gt(ep, missing_gt)
        assert encode_gt(ep, encoded) is encoded
        assert list(encoded) == missing_gt
        # Atlantis, Elsewhere and Lemuria: one negative id each, in pair order
        assert ([h for h in encoded.sources + encoded.targets if h < 0]
                == [-1, -3, -1] + [-2])
        assert len(encoded.rows) == 5
        # through the session's encoding, and a plain list on a fresh endpoint
        for gt, endpoint in ((encoded, ep),
                             (missing_gt, local_endpoint(capitals_store,
                                                         batch_size=batch_size))):
            ev, fit = evaluate(endpoint, gp, gt, ledger)
            assert ev.pv == pv
            assert fit.timeout_penalty == 0.0 and fit.query_time_s == elapsed
        # each missing source is a VALUES row of its own, at one tick
        known = [p for p in missing_gt if p.source not in (ex("Atlantis"), ex("Lemuria"))]
        _, fit = evaluate(local_endpoint(capitals_store), gp, known,
                          CoverageLedger.zeros(len(known)))
        assert fit.query_time_s == known_elapsed
        assert round((elapsed - known_elapsed) * TICKS_PER_SECOND) == 2


def _reference_evaluate(endpoint, gp, gt, ledger):
    """fitness.evaluate and score as per-pair loops, kept verbatim as the
    reference for the same float operations in the same order."""
    n = len(gt)
    remains = sum(1.0 - v for v in ledger.values)
    base = dict(remains=remains, pattern_length=gp.length,
                pattern_vars=gp.variable_count)
    sources = list(dict.fromkeys(pair.source for pair in gt))
    res = select_terms(endpoint, gp, [SOURCE_VAR, TARGET_VAR],
                       values=([SOURCE_VAR], [(s,) for s in sources]), limit=None)
    penalty = _STATUS_PENALTY[res.status]
    targets_by_source = {}
    for s, t in res.rows:
        targets_by_source.setdefault(s, set()).add(t)
    pv = []
    covered = []
    total_len = 0
    for s, t in gt:
        tset = targets_by_source.get(s)
        hit = bool(tset) and t in tset
        covered.append(hit)
        pv.append(1.0 / len(tset) if hit else 0.0)
        if tset:
            total_len += len(tset)
    gt_matches = sum(covered)
    recall = gt_matches / n if n else 0.0
    avg_result_len = total_len / n if n else 0.0
    precision = 1.0 / avg_result_len if avg_result_len > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision > 0 and recall > 0 else 0.0)
    if penalty > 0:
        gain = 0.0
    else:
        gain = sum([max(0.0, p - v) for p, v in zip(pv, ledger.values)])
    matched = [pair for pair, hit in zip(gt, covered) if hit]
    if (len({p.source for p in matched}) < 2
            or len({p.target for p in matched}) < 2):
        sc = gain * OVERFIT_FACTOR
    else:
        sc = gain * 1.0
    ft = FitnessTuple(score=sc, gain=gain, f1=f1, avg_result_len=avg_result_len,
                      gt_matches=gt_matches, timeout_penalty=penalty,
                      query_time_s=res.elapsed, **base)
    return pv, covered, ft


def _random_path_pattern(rng, store) -> GraphPattern:
    """?source to ?target over one or two edges of the store's predicates."""
    preds = [V("p")] + sorted({tr.p for tr in store.triples()},
                              key=lambda t: t.sort_key())
    return GraphPattern(rng.choice([
        [TriplePattern(SOURCE_VAR, rng.choice(preds), TARGET_VAR)],
        [TriplePattern(TARGET_VAR, rng.choice(preds), SOURCE_VAR)],
        [TriplePattern(SOURCE_VAR, rng.choice(preds), V("x")),
         TriplePattern(V("x"), rng.choice(preds), TARGET_VAR)]]))


def _answering_endpoint(rows):
    """A remote endpoint whose every answer is `rows`."""
    body = json.dumps({"results": {"bindings": [
        {"source": json_term(s), "target": json_term(t)} for s, t in rows]}})
    return Endpoint(EndpointConfig(), url="http://fake/sparql",
                    http_post=lambda url, data, headers, timeout: (200, body))


def test_evaluate_equals_per_pair_reference():
    """On random stores, patterns and ledgers, with GT sources that have up
    to three targets, terms the store lacks, soft and hard timeouts, and a
    remote endpoint that also answers a row for a source outside the GT."""
    rng = random.Random(21)
    budgets = [dict(soft_timeout=None, hard_timeout=None)] * 4 + [
        dict(soft_timeout=0.0, hard_timeout=None),
        dict(soft_timeout=None, hard_timeout=0.0)]
    seen = Counter()
    for _ in range(200):
        store = random_store(rng, rng.randint(30, 120), rng.randint(8, 16),
                             rng.randint(2, 4))
        nodes = sorted(store.terms, key=lambda t: t.sort_key())
        gp = _random_path_pattern(rng, store)
        answers = select(store, gp, [SOURCE_VAR, TARGET_VAR], limit=None).rows
        # pairs the pattern finds, repeated sources and pairs, and sources
        # it never reaches
        gt = [GroundTruthPair(*rng.choice(answers))
              for _ in answers[:rng.randint(0, 20)]]
        gt += [GroundTruthPair(rng.choice(nodes[:6]), rng.choice(nodes))
               for _ in range(rng.randint(1, 20))]
        # sources with two or three targets, some of which the pattern finds
        for source in rng.sample(nodes, 2):
            found = [t for s, t in answers if s == source] or nodes
            gt += [GroundTruthPair(source, rng.choice(found + nodes[:2]))
                   for _ in range(rng.randint(2, 3))]
        # terms the store lacks, as a source and as a target
        gt += [GroundTruthPair(ex("missing%d" % rng.randrange(2)), rng.choice(nodes))
               for _ in range(rng.randint(0, 2))]
        gt += [GroundTruthPair(rng.choice(nodes), ex("missing%d" % rng.randrange(2)))
               for _ in range(rng.randint(0, 2))]
        rng.shuffle(gt)
        ledger = CoverageLedger([rng.choice([0.0, 1.0, 0.5, rng.random()])
                                 for _ in gt])
        if rng.random() < 0.25:
            sources = {p.source for p in gt}
            outside = [n for n in nodes if n not in sources] or [ex("outside")]
            rows = [row for row in answers if row[0] in sources]
            rows.insert(rng.randint(0, len(rows)), (rng.choice(outside), rng.choice(nodes)))
            ep, ref_ep = _answering_endpoint(rows), _answering_endpoint(rows)
            seen["remote"] += 1
        else:
            budget = rng.choice(budgets)
            ep, ref_ep = local_endpoint(store, **budget), local_endpoint(store, **budget)
        ev, ft = evaluate(ep, gp, gt, ledger)
        ref_pv, ref_covered, ref_ft = _reference_evaluate(ref_ep, gp, gt, ledger)
        if ep.store is None:  # a remote query's time is its wall time
            ft, ref_ft = (dataclasses.replace(f, query_time_s=0.0) for f in (ft, ref_ft))
        # repr round-trips every float and tells 1 from 1.0
        assert repr((ev.pv, ev.covered)) == repr((ref_pv, ref_covered))
        assert repr(ft) == repr(ref_ft)
        matched = Counter(p.source for p, hit in zip(gt, ev.covered) if hit)
        seen["several targets matched"] += any(k > 1 for k in matched.values())
        seen["soft timeout"] += ft.timeout_penalty == 0.5
        seen["gain"] += ft.gain > 0
    assert min(seen.values()) >= 10, seen


def test_local_fitness_on_ids_equals_remote_fitness_on_terms():
    """A local endpoint scores store ids and a remote one terms: both give the
    same evaluation, for a GT that holds a source and a target the store
    lacks, and the local one keeps each fitness query's id rows cached."""
    rng = random.Random(41)
    matched = 0
    for _ in range(40):
        store = mixed_store(rng, rng.randint(20, 60))
        iris = [t for t in store.terms if t.kind == IRI]
        gp = _random_path_pattern(rng, store)
        answers = select(store, gp, [SOURCE_VAR, TARGET_VAR], limit=None).rows
        gt = [GroundTruthPair(*pair) for pair in answers[:rng.randint(0, 8)]
              if pair[0].kind == IRI]
        gt += [GroundTruthPair(rng.choice(iris), rng.choice(store.terms))
               for _ in range(rng.randint(1, 8))]
        gt += [GroundTruthPair(ex("nowhere"), rng.choice(store.terms)),
               GroundTruthPair(rng.choice(iris), literal("nothing")),
               GroundTruthPair(ex("nowhere"), ex("nothing"))]
        rng.shuffle(gt)
        ledger = CoverageLedger([rng.choice([0.0, 1.0, 0.5]) for _ in gt])

        local = local_endpoint(store)
        query = (gp, [SOURCE_VAR, TARGET_VAR],
                 ([SOURCE_VAR], list(zip(dict.fromkeys(p.source for p in gt)))), None)
        res = select(store, *query)
        assert res.status == COMPLETE
        body = json.dumps({"results": {"bindings": [
            {"source": json_term(s), "target": json_term(t)} for s, t in res.rows]}})
        posts = []

        def post(url, data, headers, timeout):
            posts.append(data["query"])
            assert data["query"] == to_select_sparql(*query)
            return 200, body

        remote = Endpoint(local.config, url="http://fake/sparql", http_post=post)
        ev, ft = evaluate(local, gp, gt, ledger)
        remote_ev, remote_ft = evaluate(remote, gp, gt, ledger)
        assert len(posts) == 1
        assert repr(ev) == repr(remote_ev)
        assert (repr(dataclasses.replace(ft, query_time_s=0.0))
                == repr(dataclasses.replace(remote_ft, query_time_s=0.0)))

        assert evaluate(local, gp, gt, ledger) == (ev, ft)
        assert local.backend_calls == 1
        (cached,) = local._cache.values()
        assert all(type(h) is int for row in cached.rows for h in row)
        matched += ft.gt_matches > 0
    assert matched > 20
