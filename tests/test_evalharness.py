import math
import os
import random
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from bgplearn import evalharness
from bgplearn.evalharness import (HITS_AUTH, INDEG, PAGERANK, RECALL_KS,
                                  baseline_predict, hits, metrics, neighbourhood,
                                  pagerank, rank_of_truth, split_pairs)
import bgplearn
from bgplearn.fitness import GroundTruthPair
from bgplearn.rdf import BIDI, IN, OUT, Triple, TripleStore, load_ntriples

from conftest import CAPITALS_TTL, ex, mixed_store, random_store, sorted_set_graph


def chain_store(edges):
    return TripleStore([Triple(ex(s), ex("p"), ex(o)) for s, o in edges])


def _edges(store):
    """The store's distinct (subject id, object id) pairs."""
    return {(s, o) for s, _, o in store.match_ids(None, None, None)}


class TestSplit:
    def test_sizes_match_paper_scale(self):
        pairs = [GroundTruthPair(ex("s%d" % i), ex("t%d" % i))
                 for i in range(727)]
        split = split_pairs(pairs, ratio=0.1, seed=1)
        assert len(split.test) == 72
        assert len(split.train) == 655

    def test_disjoint_and_complete(self):
        pairs = [GroundTruthPair(ex("s%d" % i), ex("t%d" % i))
                 for i in range(50)]
        split = split_pairs(pairs, ratio=0.2, seed=3)
        assert len(split.train) + len(split.test) == 50
        assert set(split.train).isdisjoint(split.test)
        assert set(split.train) | set(split.test) == set(pairs)

    def test_seed_determinism(self):
        pairs = [GroundTruthPair(ex("s%d" % i), ex("t%d" % i))
                 for i in range(30)]
        a = split_pairs(pairs, seed=9)
        b = split_pairs(pairs, seed=9)
        assert a.train == b.train and a.test == b.test

    def test_ratio_outside_unit_interval_refused(self):
        pairs = [GroundTruthPair(ex("s%d" % i), ex("t%d" % i))
                 for i in range(10)]
        assert len(split_pairs(pairs, ratio=0.0).test) == 0
        assert len(split_pairs(pairs, ratio=1.0).test) == 10
        for ratio in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="ratio"):
                split_pairs(pairs, ratio=ratio)


class TestRankOfTruth:
    def test_found(self):
        ranked = [(ex("a"), 3.0), (ex("b"), 2.0), (ex("c"), 1.0)]
        assert rank_of_truth(ranked, ex("a")) == 1
        assert rank_of_truth(ranked, ex("c")) == 3

    def test_missing_is_infinite(self):
        assert rank_of_truth([(ex("a"), 1.0)], ex("zz")) == math.inf


class TestMetrics:
    def test_closed_forms(self):
        rep = metrics([1, 2, 4])
        assert rep.map == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
        expected_ndcg = (1 + 1 / math.log2(3) + 1 / math.log2(5)) / 3
        assert rep.ndcg == pytest.approx(expected_ndcg, abs=1e-12)
        assert rep.recall_at_k[1] == pytest.approx(1 / 3)
        assert rep.recall_at_k[2] == pytest.approx(2 / 3)
        assert rep.recall_at_k[4] == pytest.approx(1.0)
        assert rep.recall_at_k[10] == pytest.approx(1.0)

    def test_miss_counts_zero(self):
        rep = metrics([1, math.inf])
        assert rep.map == pytest.approx(0.5)
        assert rep.ndcg == pytest.approx(0.5)
        assert rep.recall_at_k[10] == pytest.approx(0.5)

    def test_empty(self):
        rep = metrics([])
        assert rep.map == 0.0 and rep.ndcg == 0.0
        assert all(v == 0.0 for v in rep.recall_at_k.values())

    @pytest.mark.parametrize("ranks", [[], [3.0, math.inf]])
    def test_cutoffs_are_one_to_ten(self, ranks):
        assert list(metrics(ranks).recall_at_k) == list(RECALL_KS) == list(range(1, 11))

    def test_recall_monotone(self):
        rng = random.Random(6)
        ranks = [float(rng.randint(1, 15)) for _ in range(40)]
        rep = metrics(ranks)
        vals = [rep.recall_at_k[k] for k in range(1, 11)]
        assert vals == sorted(vals)


class TestPageRank:
    def test_cycle_is_uniform(self):
        store = chain_store([("a", "b"), ("b", "c"), ("c", "a")])
        pr = pagerank(store)
        for v in pr.values():
            assert v == pytest.approx(1 / 3, abs=1e-9)
        assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)

    def test_two_node_closed_form(self):
        # a -> b with b dangling: classic closed form under redistribution
        store = chain_store([("a", "b")])
        pr = pagerank(store)
        a, b = pr[ex("a")], pr[ex("b")]
        d = 0.85
        # stationarity: a = d*(dangling share) + (1-d)/2 ; b = a*d + same
        assert a + b == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(a * d + d * b / 2 + (1 - d) / 2, abs=1e-8)

    def test_sums_to_one_random(self):
        rng = random.Random(17)
        for _ in range(10):
            store = random_store(rng, 80, 25, 5)
            pr = pagerank(store)
            assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v > 0 for v in pr.values())

    def test_matches_reference_iteration(self):
        # independent dense-matrix power iteration
        rng = random.Random(30)
        store = random_store(rng, 60, 15, 4)
        nodes = sorted({n for e in _edges(store) for n in e})
        idx = {store.term(n): i for i, n in enumerate(nodes)}
        n = len(nodes)
        m = np.zeros((n, n))
        for s, o in _edges(store):
            m[idx[store.term(o)], idx[store.term(s)]] = 1.0
        out_deg = m.sum(axis=0)
        col = np.where(out_deg > 0, out_deg, 1.0)
        m = m / col
        d = 0.85
        r = np.full(n, 1.0 / n)
        for _ in range(200):
            dangling_mass = r[out_deg == 0].sum()
            r = d * (m @ r + dangling_mass / n) + (1 - d) / n
        pr = pagerank(store)
        for term, i in idx.items():
            assert pr[term] == pytest.approx(r[i], abs=1e-9)


class TestHits:
    def test_bipartite_symmetry(self):
        store = chain_store([("h1", "a1"), ("h1", "a2"),
                             ("h2", "a1"), ("h2", "a2")])
        auth, hub = hits(store)
        assert auth[ex("a1")] == pytest.approx(auth[ex("a2")])
        assert hub[ex("h1")] == pytest.approx(hub[ex("h2")])
        assert auth[ex("h1")] == pytest.approx(0.0, abs=1e-9)
        assert hub[ex("a1")] == pytest.approx(0.0, abs=1e-9)

    def test_l2_normalized(self):
        rng = random.Random(8)
        store = random_store(rng, 60, 20, 4)
        auth, hub = hits(store)
        assert math.sqrt(sum(v * v for v in auth.values())) == pytest.approx(1.0)
        assert math.sqrt(sum(v * v for v in hub.values())) == pytest.approx(1.0)


def _reference_scores(store):
    """PageRank and HITS as computed with np.add.at and np.linalg.norm."""
    nodes, src, dst = sorted_set_graph(store)
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    n = len(nodes)
    out_deg = np.bincount(src, minlength=n).astype(float)
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(200):
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_deg, 1.0))
        new = np.zeros(n)
        np.add.at(new, dst, contrib[src])
        new = 0.85 * (new + rank[dangling].sum() / n) + (1.0 - 0.85) / n
        done = np.abs(new - rank).sum() < 1e-10
        rank = new
        if done:
            break
    auth = np.full(n, 1.0 / math.sqrt(n))
    hub = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(200):
        new_auth = np.zeros(n)
        np.add.at(new_auth, dst, hub[src])
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hub = np.zeros(n)
        np.add.at(new_hub, src, new_auth[dst])
        norm = np.linalg.norm(new_hub)
        if norm > 0:
            new_hub /= norm
        done = np.abs(new_auth - auth).sum() + np.abs(new_hub - hub).sum() < 1e-10
        auth, hub = new_auth, new_hub
        if done:
            break
    terms = [store.term(t) for t in nodes]
    return tuple(dict(zip(terms, map(float, v))) for v in (rank, auth, hub))


_FIXTURE_STORES = {
    "capitals": lambda: load_ntriples(CAPITALS_TTL),
    "bipartite": lambda: chain_store([("h1", "a1"), ("h1", "a2"),
                                      ("h2", "a1"), ("h2", "a2")]),
    "random": lambda: random_store(random.Random(8), 60, 20, 4),
    "random_dense": lambda: random_store(random.Random(30), 200, 40, 5),
}

# Scores of one seeded 12,000-node, 24,000-edge store in node order, written
# as repr; OpenBLAS splits a norm of this length between its threads.
_THREADS_SCRIPT = """
import random
from bgplearn.evalharness import hits, pagerank
from bgplearn.rdf import Triple, TripleStore, iri
rng = random.Random(5)
nodes = [iri("http://example.org/n%d" % i) for i in range(12000)]
p = iri("http://example.org/p")
store = TripleStore(Triple(s, p, rng.choice(nodes)) for s in nodes * 2)
auth, hub = hits(store)
print(repr([list(scores.values()) for scores in (pagerank(store), auth, hub)]))
"""


class TestReferenceScores:
    @pytest.mark.parametrize("name", sorted(_FIXTURE_STORES))
    def test_match_add_at_and_linalg_norm(self, name):
        store = _FIXTURE_STORES[name]()
        ref_pr, ref_auth, ref_hub = _reference_scores(store)
        assert pagerank(store) == ref_pr  # bincount adds in add.at's order
        auth, hub = hits(store)
        for got, ref in ((auth, ref_auth), (hub, ref_hub)):
            assert got.keys() == ref.keys()
            for term, value in ref.items():
                assert abs(got[term] - value) <= 1e-12

    def test_independent_of_blas_threads(self):
        src = os.path.dirname(os.path.dirname(bgplearn.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            outputs.append(subprocess.run(
                [sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        assert outputs[0] == outputs[1]


def _sorted_set_node_graph(store):
    """`evalharness._node_graph` from a sorted set of edge tuples."""
    nodes, src, dst = sorted_set_graph(store)
    return ([store.term(n) for n in nodes], np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64))


_GRAPH_STORES = dict(_FIXTURE_STORES, empty=TripleStore, **{
    "mixed%d" % seed: (lambda seed=seed: mixed_store(random.Random(seed)))
    for seed in range(12)})


class TestSharedGraph:
    @pytest.mark.parametrize("name", sorted(_GRAPH_STORES))
    def test_scores_equal_the_sorted_set_build(self, name, monkeypatch):
        """Each score and its node order are those of the scores over a
        graph built from a sorted set of edge tuples, float for float."""
        make = _GRAPH_STORES[name]
        got = [pagerank(make()), *hits(make())]
        monkeypatch.setattr(evalharness, "_node_graph", _sorted_set_node_graph)
        want = [pagerank(make()), *hits(make())]
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

    def test_pagerank_and_hits_build_one_graph(self, monkeypatch):
        build = TripleStore.graph.func
        stores = []

        def counted(store):
            stores.append(store)
            return build(store)

        graph = cached_property(counted)
        graph.__set_name__(TripleStore, "graph")
        monkeypatch.setattr(TripleStore, "graph", graph)
        store = mixed_store(random.Random(3))
        assert stores == []  # not built at load
        pagerank(store)
        hits(store)
        pagerank(store)
        assert stores == [store]


class TestBaselines:
    def _star(self):
        # hub points at leaves; leaves l1..l3 also feed into "popular"
        return chain_store([("hub", "l1"), ("hub", "l2"), ("hub", "l3"),
                            ("l1", "popular"), ("l2", "popular"),
                            ("l3", "popular"), ("hub", "popular")])

    def test_neighbourhood_directions(self):
        store = self._star()
        assert neighbourhood(store, ex("hub"), OUT) == \
            {ex("l1"), ex("l2"), ex("l3"), ex("popular")}
        assert neighbourhood(store, ex("popular"), IN) == \
            {ex("hub"), ex("l1"), ex("l2"), ex("l3")}
        assert neighbourhood(store, ex("l1"), BIDI) == \
            {ex("hub"), ex("popular")}
        assert neighbourhood(store, ex("absent"), OUT) == set()

    def test_indegree_baseline_ranks_popular_first(self):
        store = self._star()
        ranked = baseline_predict(store, ex("hub"), OUT, INDEG, 10)
        assert ranked[0][0] == ex("popular")
        assert ranked[0][1] == 4.0

    def test_pagerank_baseline(self):
        store = self._star()
        ranked = baseline_predict(store, ex("hub"), OUT, PAGERANK, 2,
                                  scores=pagerank(store))
        assert len(ranked) == 2
        assert ranked[0][0] == ex("popular")

    def test_precomputed_scores_reused(self):
        store = self._star()
        scores = {ex("l2"): 9.0}
        ranked = baseline_predict(store, ex("hub"), OUT, HITS_AUTH, 10,
                                  scores=scores)
        assert ranked[0] == (ex("l2"), 9.0)

    def test_lexicographic_tie_break(self):
        store = chain_store([("s", "b"), ("s", "a")])
        ranked = baseline_predict(store, ex("s"), OUT, INDEG, 10)
        assert [t for t, _ in ranked] == [ex("a"), ex("b")]

    def test_unknown_scorer(self):
        store = self._star()
        with pytest.raises(ValueError, match="'bogus'"):
            baseline_predict(store, ex("hub"), OUT, "bogus", 5)

    @pytest.mark.parametrize("source", ["hub", "absent"])
    @pytest.mark.parametrize("scorer", [PAGERANK, HITS_AUTH])
    def test_graph_scorer_needs_its_scores(self, scorer, source):
        """Refused whether or not the source has a neighbour to rank."""
        store = self._star()
        with pytest.raises(ValueError, match="scorer %r needs its scores" % scorer):
            baseline_predict(store, ex(source), OUT, scorer, 5)
