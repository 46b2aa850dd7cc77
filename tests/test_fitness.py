import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgplearn.endpoint import local_endpoint
from bgplearn.engine import select
from bgplearn.fitness import (CoverageLedger, FitnessTuple, GroundTruthPair,
                              ScoreConfig, evaluate, score, update_ledger)
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)

from conftest import ex

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

    def test_remains_after_update(self):
        led = CoverageLedger.zeros(3).updated([[1.0, 0.0, 0.5]])
        assert led.remains() == pytest.approx(3 - 1.5)


def _ft(**kw):
    base = dict(remains=0.0, score=0.0, gain=0.0, f1=0.0, avg_result_len=0.0,
                gt_matches=0, pattern_length=1, pattern_vars=2,
                timeout_penalty=0.0, query_time_s=0.0)
    base.update(kw)
    return FitnessTuple(**base)


class TestTupleOrdering:
    def test_remains_dominates(self):
        assert _ft(remains=2.0, score=0.0) > _ft(remains=1.0, score=99.0)

    def test_score_breaks_ties(self):
        assert _ft(score=2.0) > _ft(score=1.0)

    def test_minimized_fields_flip(self):
        assert _ft(avg_result_len=1.0) > _ft(avg_result_len=5.0)
        assert _ft(pattern_length=2) > _ft(pattern_length=4)
        assert _ft(pattern_vars=2) > _ft(pattern_vars=5)
        assert _ft(timeout_penalty=0.0) > _ft(timeout_penalty=0.5)
        assert _ft(query_time_s=0.1) > _ft(query_time_s=0.9)

    def test_maximized_fields_keep_direction(self):
        assert _ft(gain=3.0) > _ft(gain=1.0)
        assert _ft(f1=0.9) > _ft(f1=0.2)
        assert _ft(gt_matches=4) > _ft(gt_matches=3)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=10, max_size=10),
           st.lists(st.floats(0, 10, allow_nan=False), min_size=10, max_size=10))
    @settings(max_examples=100)
    def test_comparison_is_total_and_antisymmetric(self, a, b):
        fields = ("remains", "score", "gain", "f1", "avg_result_len",
                  "gt_matches", "pattern_length", "pattern_vars",
                  "timeout_penalty", "query_time_s")
        fa = FitnessTuple(**dict(zip(fields, a)))
        fb = FitnessTuple(**dict(zip(fields, b)))
        assert (fa < fb) + (fb < fa) + (fa.key() == fb.key()) == 1


class TestScore:
    def _eval(self, matched):
        from bgplearn.fitness import PatternEvaluation
        pv = [1.0 if i in matched else 0.0 for i in range(len(self.gt))]
        covered = [i in matched for i in range(len(self.gt))]
        return PatternEvaluation(pv=pv, covered=covered)

    gt = [GroundTruthPair(ex("a"), ex("x")),
          GroundTruthPair(ex("b"), ex("y")),
          GroundTruthPair(ex("c"), ex("z"))]

    def test_diverse_matches_full_gain(self):
        assert score(3.0, self._eval({0, 1, 2}), self.gt, ScoreConfig()) == 3.0

    def test_single_pair_overfit(self):
        s = score(1.0, self._eval({0}), self.gt, ScoreConfig())
        assert s == pytest.approx(0.1)

    def test_zero_gain(self):
        assert score(0.0, self._eval({0, 1}), self.gt, ScoreConfig()) == 0.0

    def test_same_source_overfit(self):
        gt = [GroundTruthPair(ex("a"), ex("x")),
              GroundTruthPair(ex("a"), ex("y"))]
        from bgplearn.fitness import PatternEvaluation
        ev = PatternEvaluation(pv=[1.0, 1.0], covered=[True, True])
        assert score(2.0, ev, gt, ScoreConfig()) == pytest.approx(0.2)


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

    def test_update_ledger(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        led = CoverageLedger.zeros(len(capitals_gt))
        ev, _ = evaluate(ep, CAPITAL_GP, capitals_gt, led)
        new = update_ledger(led, [ev])
        assert list(new.values) == [1.0, 1.0, 1.0]
        assert new.remains() == 0.0
