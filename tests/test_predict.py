import dataclasses
import itertools
import json
import math
import random

import pytest

from bgplearn.endpoint import Endpoint, EndpointConfig, local_endpoint
from bgplearn.engine import HARD_TIMEOUT, select
from bgplearn.fitness import FitnessTuple
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, to_select_sparql)
from bgplearn.predict import (FUSION_STRATEGIES, PatternPortfolio,
                              PortfolioEntry, RankedPrediction, fuse,
                              precision_loss, predict, predict_targets,
                              reduce_queries)
from bgplearn.rdf import Term, Triple, TripleStore, bnode, literal

from conftest import ex, json_term, select_terms

V = Variable
EX_INT = "http://www.w3.org/2001/XMLSchema#integer"


# the share of the best k patterns' covered sum that greedy selection reaches
GREEDY_BOUND = 1 - 1 / math.e


def _covered(entries, selected) -> float:
    """The sum over pairs of the best pv among `selected`."""
    return sum(max((entries[j].pv[i] for j in selected), default=0.0)
               for i in range(len(entries[0].pv)))


def _fit(score=1.0, f1=0.5, avg=2.0):
    return FitnessTuple(remains=0.0, score=score, gain=score, f1=f1,
                        avg_result_len=avg, gt_matches=1, pattern_length=1,
                        pattern_vars=2, timeout_penalty=0.0, query_time_s=0.0)


def _entry(pv, score=1.0, f1=0.5, avg=2.0, pred="p"):
    gp = GraphPattern([TriplePattern(SOURCE_VAR, ex(pred), TARGET_VAR)])
    return PortfolioEntry(pattern=gp, pv=list(pv), fitness=_fit(score, f1, avg))


class TestReduceQueries:
    def test_k_at_least_n_keeps_all(self):
        entries = [_entry([1, 0, 0]), _entry([0, 1, 0]), _entry([0, 0, 1])]
        out = reduce_queries(PatternPortfolio(entries), 3)
        assert out.representatives == [0, 1, 2]
        assert out.precision_loss == 0.0

    def test_duplicate_pvs_collapse_without_loss(self):
        entries = [_entry([1.0, 0.5, 0.0], score=2.0),
                   _entry([1.0, 0.5, 0.0], score=1.0)]
        out = reduce_queries(PatternPortfolio(entries), 1)
        assert out.precision_loss == 0.0
        assert out.representatives == [0]  # higher score wins the tie

    def test_block_structure_matches_exhaustive_oracle(self):
        rng = random.Random(13)
        # ten patterns in three pv blocks plus noise
        blocks = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
        entries = []
        for i in range(10):
            base = blocks[i % 3]
            pv = [max(0.0, v + rng.uniform(-0.05, 0.05)) for v in base]
            entries.append(_entry(pv, score=rng.uniform(0.5, 3.0)))
        portfolio = PatternPortfolio(entries)
        for k in (1, 2, 3, 5):
            out = reduce_queries(portfolio, k)
            assert len(out.representatives) <= k
            best = max(_covered(entries, sel)
                       for sel in itertools.combinations(range(len(entries)), k))
            # greedy reports its own loss and covers at least 1 - 1/e of
            # what the best k patterns cover
            assert out.precision_loss == precision_loss(entries, out.representatives)
            assert _covered(entries, out.representatives) >= GREEDY_BOUND * best

    def test_loss_monotone_in_k(self):
        rng = random.Random(4)
        entries = [_entry([rng.random() for _ in range(8)]) for _ in range(12)]
        portfolio = PatternPortfolio(entries)
        losses = [reduce_queries(portfolio, k).precision_loss
                  for k in (1, 2, 4, 8, 12)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_k_three_on_exact_blocks_is_lossless(self):
        entries = [_entry([1, 1, 0, 0]), _entry([1, 1, 0, 0]),
                   _entry([0, 0, 1, 0]), _entry([0, 0, 0, 1])]
        out = reduce_queries(PatternPortfolio(entries), 3)
        assert out.precision_loss == 0.0

    @pytest.mark.parametrize("pvs, scores, k, reps, loss", [
        # a spread pattern first, then the block it lacks most, then a tie
        # of equal gain and score that the lower index wins
        ([[1, 1, 0, 0], [0, 0, 1, 0], [0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]],
         [1, 1, 2, 1], 1, [2], 2.0),
        ([[1, 1, 0, 0], [0, 0, 1, 0], [0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]],
         [1, 1, 2, 1], 2, [0, 2], 1.0),
        ([[1, 1, 0, 0], [0, 0, 1, 0], [0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]],
         [1, 1, 2, 1], 3, [0, 1, 2], 0.5),
        # an equal gain goes to the higher score
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0.5]], [1, 2, 3], 2, [0, 1], 0.5),
        # a second pick that adds nothing is not made
        ([[1, 0], [1, 0], [0, 0]], [1, 1, 1], 2, [0], 0.0),
        # an all-zero portfolio keeps its best pattern alone
        ([[0, 0], [0, 0], [0, 0]], [1, 3, 2], 2, [1], 0.0)],
        ids=["spread_k1", "spread_k2", "spread_k3", "score_tie", "no_gain",
             "all_zero"])
    def test_greedy_picks(self, pvs, scores, k, reps, loss):
        entries = [_entry(pv, score=score) for pv, score in zip(pvs, scores)]
        out = reduce_queries(PatternPortfolio(entries), k)
        assert (out.representatives, out.precision_loss) == (reps, loss)
        assert out.clustering_variant == "greedy"
        assert out.selected() == [entries[i] for i in reps]

    def test_equal_score_tie_goes_to_higher_fitness_key(self):
        entries = [_entry([1.0, 0.0], f1=0.5), _entry([1.0, 0.0], f1=0.9),
                   _entry([0.0, 0.5])]
        out = reduce_queries(PatternPortfolio(entries), 1)
        assert out.representatives == [1]

    def test_greedy_covers_bound_of_exhaustive(self):
        """On random portfolios, sparse and dense, greedy covers at least
        1 - 1/e of the best subset of at most k patterns."""
        rng = random.Random(50)
        for _ in range(200):
            n, pairs = rng.randint(2, 8), rng.randint(1, 6)
            density = rng.choice([0.3, 1.0])
            entries = [_entry([rng.random() if rng.random() < density else 0.0
                               for _ in range(pairs)],
                              score=rng.choice([0.5, 1.0, rng.random()]))
                       for _ in range(n)]
            portfolio = PatternPortfolio(entries)
            for k in range(1, n):
                out = reduce_queries(portfolio, k)
                assert 1 <= len(out.representatives) <= k
                best = max(_covered(entries, sel)
                           for sel in itertools.combinations(range(n), k))
                assert _covered(entries, out.representatives) >= GREEDY_BOUND * best

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            reduce_queries(PatternPortfolio([]), 2)
        with pytest.raises(ValueError):
            reduce_queries(PatternPortfolio([_entry([1.0])]), 0)


class TestPredictTargets:
    def test_fixture_targets(self, capitals_store):
        ep = local_endpoint(capitals_store)
        entry = _entry([1.0], pred="capitalOf")
        portfolio = PatternPortfolio([entry], representatives=[0])
        sets = predict_targets(ep, portfolio, ex("Berlin"))
        assert [set(ep.terms(list(s))) for s in sets] == [{ex("Germany")}]

    def test_unknown_source_gives_empty(self, capitals_store):
        ep = local_endpoint(capitals_store)
        portfolio = PatternPortfolio([_entry([1.0], pred="capitalOf")],
                                     representatives=[0])
        assert predict_targets(ep, portfolio, ex("Nowhere")) == [set()]

    def test_timeout_gives_empty_set(self, capitals_store):
        ep = local_endpoint(capitals_store, hard_timeout=0.0)
        portfolio = PatternPortfolio([_entry([1.0], pred="capitalOf")],
                                     representatives=[0])
        assert predict_targets(ep, portfolio, ex("Berlin")) == [set()]


def _naive_rankings(entries, tsets):
    """Per-strategy sums in selection order, sorted by (-value, sort_key)."""
    values = {s: {} for s in FUSION_STRATEGIES}
    for e, ts in zip(entries, tsets):
        for t in ts:
            for strategy, w in (("target_occs", 1.0), ("scores", e.score),
                                ("f_measures", e.f1),
                                ("gp_precisions", e.gp_precision),
                                ("precisions", 1.0 / len(ts))):
                values[strategy][t] = values[strategy].get(t, 0.0) + w
    return {s: sorted(d.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
            for s, d in values.items()}


_ZERO_SUMS = (0.0,) * len(FUSION_STRATEGIES)


# predict.fuse as it was before it summed into one list per strategy, kept
# verbatim as the reference that fuse must reproduce bit for bit
def _reference_fuse(target_sets: list[set[Term]], portfolio: PatternPortfolio,
                    source: Term) -> RankedPrediction:
    """Aggregate per-pattern target sets into the five ranked fusion lists."""
    selected = portfolio.selected()
    if len(target_sets) != len(selected):
        raise ValueError("one target set per selected pattern required")
    # one row of the five sums per target, in FUSION_STRATEGIES order
    sums: dict[Term, list[float]] = {}
    for entry, tset in zip(selected, target_sets):
        if not tset:
            continue
        weights = (1.0, entry.score, entry.f1, entry.gp_precision, 1.0 / len(tset))
        for t in tset:
            sums[t] = [a + w for a, w in zip(sums.get(t, _ZERO_SUMS), weights)]
    # stable sorts: by term first, then by value, give (-value, sort_key) order
    by_term = sorted(sums.items(), key=lambda kv: kv[0].sort_key())
    rankings = {}
    for i, strategy in enumerate(FUSION_STRATEGIES):
        ranked = sorted(by_term, key=lambda kv: -kv[1][i])
        rankings[strategy] = [(t, row[i]) for t, row in ranked]
    return RankedPrediction(source=source, rankings=rankings)


def test_fuse_equals_reference():
    """Value ties, empty sets, signed zero weights and a subset of
    representatives; repr tells -0.0 from 0.0 and round-trips every float."""
    rng = random.Random(22)
    terms = [ex("b"), ex("a"), ex("c"), bnode("n1"), bnode("n0"), literal("x"),
             literal("x", lang="en"), literal("x", datatype=EX_INT), literal("1")]
    for _ in range(300):
        n = rng.randint(1, 7)
        entries = [_entry([1.0], score=rng.choice([0.0, -0.0, 1.0, 2.0, rng.random()]),
                          f1=rng.choice([0.0, -0.0, 0.5, rng.random()]),
                          avg=rng.choice([0.0, 0.5, 2.0, rng.uniform(0.1, 9)]))
                   for _ in range(n)]
        reps = sorted(rng.sample(range(n), rng.randint(1, n)))
        portfolio = PatternPortfolio(entries, representatives=reps)
        tsets = [set(rng.sample(terms, rng.choice([0, 1, 3, len(terms)])))
                 for _ in reps]
        got = fuse(tsets, portfolio, ex("s"))
        assert repr(got) == repr(_reference_fuse(tsets, portfolio, ex("s")))


class TestFuse:
    def test_single_pattern_two_targets(self):
        entry = _entry([1.0], score=2.0, f1=0.8, avg=2.0)
        portfolio = PatternPortfolio([entry], representatives=[0])
        pred = fuse([{ex("A"), ex("B")}], portfolio, ex("s"))
        for strategy in FUSION_STRATEGIES:
            assert len(pred.rankings[strategy]) == 2
        assert dict(pred.rankings["target_occs"])[ex("A")] == 1.0
        assert dict(pred.rankings["scores"])[ex("A")] == 2.0
        assert dict(pred.rankings["f_measures"])[ex("A")] == 0.8
        assert dict(pred.rankings["gp_precisions"])[ex("A")] == pytest.approx(0.5)
        assert dict(pred.rankings["precisions"])[ex("A")] == pytest.approx(0.5)

    def test_negative_handle_ranked_then_refused(self, capitals_store):
        """A local `order_key` checks nothing: a negative handle, which names
        a term the store lacks, ranks as the store's last id does. `fuse`
        decodes every ranked target with `terms`, which refuses it, so no
        rankings come back."""
        ep = local_endpoint(capitals_store)
        germany, missing = ep.handles([ex("Germany"), ex("Nowhere")])
        order_key = ep.order_key()
        assert missing < 0
        assert order_key(missing) == order_key(len(capitals_store.terms) - 1)
        portfolio = PatternPortfolio([_entry([1.0])], representatives=[0])
        pred = None
        with pytest.raises(IndexError):
            pred = fuse([{germany, missing}], portfolio, ex("Berlin"), order_key,
                        ep.terms)
        assert pred is None

    def test_occurrence_counting(self):
        e1, e2, e3 = (_entry([1.0], score=s) for s in (1.0, 2.0, 4.0))
        portfolio = PatternPortfolio([e1, e2, e3], representatives=[0, 1, 2])
        pred = fuse([{ex("A")}, {ex("A"), ex("B")}, {ex("B")}],
                    portfolio, ex("s"))
        occs = dict(pred.rankings["target_occs"])
        assert occs == {ex("A"): 2.0, ex("B"): 2.0}
        scores = dict(pred.rankings["scores"])
        assert scores[ex("A")] == 3.0 and scores[ex("B")] == 6.0
        assert pred.rankings["scores"][0][0] == ex("B")

    def test_naive_oracle_random(self):
        rng = random.Random(21)
        terms = [ex("t%d" % i) for i in range(6)]
        for _ in range(100):
            n = rng.randint(1, 5)
            entries = [_entry([rng.random()], score=rng.uniform(0, 3),
                              f1=rng.random(), avg=rng.uniform(0.5, 4))
                       for _ in range(n)]
            tsets = [set(rng.sample(terms, rng.randint(0, 4)))
                     for _ in range(n)]
            portfolio = PatternPortfolio(entries, representatives=list(range(n)))
            pred = fuse(tsets, portfolio, ex("s"))
            # independent recomputation of each aggregate
            for strategy in FUSION_STRATEGIES:
                expected = {}
                for e, ts in zip(entries, tsets):
                    w = {"target_occs": 1.0, "scores": e.score,
                         "f_measures": e.f1,
                         "gp_precisions": 1.0 / e.fitness.avg_result_len,
                         "precisions": 1.0 / len(ts) if ts else 0.0}[strategy]
                    for t in ts:
                        expected[t] = expected.get(t, 0.0) + w
                got = dict(pred.rankings[strategy])
                assert got == pytest.approx(expected)
                vals = [v for _, v in pred.rankings[strategy]]
                assert vals == sorted(vals, reverse=True)

    def test_exact_rankings_with_forced_ties(self):
        # integer weights and shared target sets force value ties, so the
        # order inside a tie comes from Term.sort_key across term kinds
        terms = [ex("b"), ex("a"), bnode("n1"), bnode("n0"), literal("x"),
                 literal("x", lang="en"), literal("x", lang="de"), ex("c")]
        cases = [([(2, 1, 1), (2, 1, 2), (1, 0, 4), (3, 1, 1), (1, 1, 2)],
                  [set(terms[:3]), set(terms[1:6]), set(),
                   {terms[0], terms[4], terms[7]}, set(terms)])]
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 6)
            weights = [(rng.randint(0, 3), rng.randint(0, 2), rng.randint(1, 4))
                       for _ in range(n)]
            tsets = [set(rng.sample(terms, rng.randint(0, len(terms))))
                     for _ in range(n)]
            tsets[rng.randrange(n)] = set()
            cases.append((weights, tsets))
        for weights, tsets in cases:
            entries = [_entry([1.0], score=float(s), f1=float(f), avg=float(a))
                       for s, f, a in weights]
            portfolio = PatternPortfolio(entries,
                                         representatives=list(range(len(entries))))
            pred = fuse(tsets, portfolio, ex("s"))
            assert list(pred.rankings) == list(FUSION_STRATEGIES)
            assert pred.rankings == _naive_rankings(entries, tsets)

    def test_tie_break_lexicographic(self):
        portfolio = PatternPortfolio([_entry([1.0])], representatives=[0])
        pred = fuse([{ex("zeta"), ex("alpha")}], portfolio, ex("s"))
        assert [t for t, _ in pred.rankings["target_occs"]] == \
               [ex("alpha"), ex("zeta")]

    def test_set_count_mismatch(self):
        portfolio = PatternPortfolio([_entry([1.0])], representatives=[0])
        with pytest.raises(ValueError):
            fuse([], portfolio, ex("s"))


_DT = "http://e/dt"

# targets of every kind, several of one lexical form, so that a tie between
# them breaks by kind, then value, then datatype, then language
_MIXED = [ex("v"), ex("w"), bnode("v"), bnode("w"), literal("v"), literal("w"),
          literal("v", lang="en"), literal("v", lang="de"),
          literal("v", datatype=_DT), literal("v", datatype=EX_INT),
          literal(ex("v").value)]
_SOURCES = [ex("s%d" % i) for i in range(4)]
_PREDS = [ex("p%d" % i) for i in range(3)]


def _mixed_store(rng) -> TripleStore:
    """Sources pointing at `_MIXED` targets, which point on at each other,
    interned in a random first-occurrence order."""
    triples = [Triple(s, p, t) for s in _SOURCES for p in _PREDS for t in _MIXED
               if rng.random() < 0.3]
    triples += [Triple(t, p, u) for t in _MIXED[:4] for p in _PREDS for u in _MIXED
                if rng.random() < 0.1]
    rng.shuffle(triples)
    return TripleStore(triples)


def _random_portfolio(rng) -> PatternPortfolio:
    """One to six patterns with tied and signed zero weights; one in three
    portfolios holds a cross product that overruns a 0.01 s budget."""
    p, q = rng.choice(_PREDS), rng.choice(_PREDS)
    shapes = [[(SOURCE_VAR, p, TARGET_VAR)], [(SOURCE_VAR, V("p"), TARGET_VAR)],
              [(SOURCE_VAR, p, V("x")), (V("x"), q, TARGET_VAR)],
              [(SOURCE_VAR, p, TARGET_VAR), (TARGET_VAR, q, V("y"))]]
    chosen = [rng.choice(shapes) for _ in range(rng.randint(1, 6))]
    if rng.random() < 1 / 3:
        chosen.append([(SOURCE_VAR, V("p"), TARGET_VAR), (V("a"), V("b"), V("c")),
                       (V("d"), V("e"), V("f"))])
    entries = [PortfolioEntry(GraphPattern([TriplePattern(*t) for t in triples]),
                              [1.0], _fit(score=rng.choice([0.0, -0.0, 0.5, 1.0]),
                                          f1=rng.choice([0.0, -0.0, 0.5]),
                                          avg=rng.choice([0.0, 2.0, 4.0])))
               for triples in chosen]
    reps = sorted(rng.sample(range(len(entries)), rng.randint(1, len(entries))))
    return PatternPortfolio(entries, representatives=reps)


def _config():
    return EndpointConfig(soft_timeout=None, hard_timeout=0.01)


class TestPredictGate:
    """What the benchmark's predict gate checks, on stores whose targets
    mix every kind of term."""

    def test_predict_equals_fuse_over_engine_select(self):
        rng = random.Random(34)
        statuses = []
        for _ in range(40):
            store = _mixed_store(rng)
            ep = Endpoint(_config(), store=store)
            portfolio = _random_portfolio(rng)
            for source in _SOURCES + [ex("nowhere")]:
                sets = []
                for entry in portfolio.selected():
                    res = select(store, entry.pattern, [TARGET_VAR],
                                 values=([SOURCE_VAR], [(source,)]),
                                 limit=ep.config.default_limit,
                                 soft_timeout=ep.config.soft_timeout,
                                 hard_timeout=ep.config.hard_timeout)
                    statuses.append(res.status)
                    sets.append(set() if res.timed_out else {row[0] for row in res.rows})
                direct = fuse(sets, portfolio, source)
                assert repr(predict(ep, portfolio, source)) == repr(direct)
        assert HARD_TIMEOUT in statuses

    def test_store_order_is_sort_key_order(self):
        store = _mixed_store(random.Random(7))
        order = sorted(range(len(store.terms)), key=store.term_rank.__getitem__)
        assert [store.term(i) for i in order] == sorted(store.terms, key=Term.sort_key)
        assert sorted(store.term_rank) == list(range(len(store.terms)))


def test_remote_predict_equals_local():
    """A remote endpoint that answers each predict query, by its exact text,
    with the local engine's rows, or with a 503 where the engine's query
    overran its budget, ranks as the local store does."""
    rng = random.Random(35)
    for _ in range(20):
        store = _mixed_store(rng)
        local = Endpoint(_config(), store=store)
        portfolio = _random_portfolio(rng)
        answers = {}
        for entry in portfolio.selected():
            for source in _SOURCES + [ex("nowhere")]:
                args = (entry.pattern, [TARGET_VAR], ([SOURCE_VAR], [(source,)]),
                        local.config.default_limit)
                res = select_terms(local, *args)
                answers[to_select_sparql(*args)] = (503, None) if res.timed_out else (
                    200, json.dumps({"results": {"bindings": [{"target": json_term(t)}
                                                              for t, in res.rows]}}))

        def post(url, data, headers, timeout):
            return answers[data["query"]]

        remote = Endpoint(dataclasses.replace(_config(), retries=0, backoff=0.0),
                          url="http://fake/sparql", http_post=post)
        for source in _SOURCES + [ex("nowhere")]:
            got = predict(remote, portfolio, source)
            assert repr(got) == repr(predict(local, portfolio, source))


class TestEndToEnd:
    def test_predict_ranks_truth_first(self, capitals_store):
        ep = local_endpoint(capitals_store)
        exact = _entry([1.0, 1.0, 1.0], score=3.0, f1=1.0, avg=1.0,
                       pred="capitalOf")
        noisy = PortfolioEntry(
            pattern=GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)]),
            pv=[0.3, 0.5, 1.0], fitness=_fit(score=0.4, f1=0.5, avg=2.0))
        portfolio = PatternPortfolio([exact, noisy], representatives=[0, 1])
        pred = predict(ep, portfolio, ex("Berlin"))
        for strategy in FUSION_STRATEGIES:
            assert pred.rankings[strategy][0][0] == ex("Germany")
