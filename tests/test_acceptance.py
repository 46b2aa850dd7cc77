"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from bgplearn import cli
from bgplearn.canon import pattern_key
from bgplearn.endpoint import local_endpoint
from bgplearn.evalharness import (baseline_predict, hits, metrics, pagerank,
                                  rank_of_truth)
from bgplearn.evolution import EvolutionConfig, learn
from bgplearn.fitness import CoverageLedger, FitnessTuple, GroundTruthPair, evaluate
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)
from bgplearn.predict import (FUSION_STRATEGIES, PatternPortfolio,
                              PortfolioEntry, fuse, precision_loss, predict,
                              reduce_queries)
from bgplearn.rdf import Triple, TripleStore, iri
from bgplearn.simplify import projection_checker, simplify

from conftest import (ex, naive_cost, naive_select, random_pattern, select_terms,
                      random_store, variable_bijection_isomorphic)

V = Variable


def _passed(criterion, text):
    print("\n[criterion %d] PASS - %s" % (criterion, text))


# ---------------------------------------------------------------------------
# Planted-relation store builders


def planted_store(rng, n_pairs, two_hop=False, decoy_factor=12, n_hubs=4):
    """A store with one planted source->target relation plus popular decoys."""
    triples = []
    pairs = []
    for j in range(n_pairs):
        s, t = ex("src%d" % j), ex("tgt%d" % j)
        pairs.append(GroundTruthPair(s, t))
        if two_hop:
            mid = ex("mid%d" % j)
            triples.append(Triple(s, ex("relA"), mid))
            triples.append(Triple(mid, ex("relB"), t))
        else:
            triples.append(Triple(s, ex("rel"), t))
    n_planted = len(triples)
    hubs = [ex("hub%d" % h) for h in range(n_hubs)]
    others = [ex("o%d" % i) for i in range(3 * n_pairs)]
    decoy_preds = [ex("d%d" % i) for i in range(6)]
    seen = set(triples)
    while len(triples) < n_planted * (decoy_factor + 1):
        kind = rng.random()
        if kind < 0.5:
            # sources point at popular hubs so degree baselines prefer hubs
            tr = Triple(ex("src%d" % rng.randrange(n_pairs)),
                        rng.choice(decoy_preds), rng.choice(hubs))
        elif kind < 0.75:
            tr = Triple(rng.choice(others), rng.choice(decoy_preds),
                        rng.choice(hubs))
        else:
            tr = Triple(rng.choice(others), rng.choice(decoy_preds),
                        rng.choice(others))
        if tr not in seen:
            seen.add(tr)
            triples.append(tr)
    return TripleStore(triples), pairs


def projection_equal(store, gp_a, gp_b):
    ep = local_endpoint(store, hard_timeout=120.0)
    ra = ep.run_select(gp_a, [SOURCE_VAR, TARGET_VAR], limit=None)
    rb = ep.run_select(gp_b, [SOURCE_VAR, TARGET_VAR], limit=None)
    return (not ra.timed_out and not rb.timed_out
            and ra.row_set() == rb.row_set())


def recovered(store, result, generator, max_run=None):
    gen_key = pattern_key(generator)
    for lp in result.patterns:
        if max_run is not None and lp.run_index > max_run:
            continue
        if lp.canonical_key == gen_key:
            return True
        if projection_equal(store, lp.pattern, generator):
            return True
    return False


LEARN_CFG = dict(population_size=60, max_generations=8, hall_of_fame_size=20,
                 reintro_fresh=4, reintro_hof=4)

# deterministic work-metered query budgets keep each learn run fast while
# still letting runaway patterns hit the (penalized) timeout path
FAST_EP = dict(soft_timeout=0.05, hard_timeout=0.2)


def test_criterion_1_single_pattern_reidentification():
    one_hop = GraphPattern([TriplePattern(SOURCE_VAR, ex("rel"), TARGET_VAR)])
    two_hop = GraphPattern([TriplePattern(SOURCE_VAR, ex("relA"), V("m")),
                            TriplePattern(V("m"), ex("relB"), TARGET_VAR)])
    cases = [(1, 20, False), (2, 30, True), (3, 50, False),
             (4, 40, True), (5, 25, False)]
    for seed, n_pairs, deep in cases:
        rng = random.Random(100 + seed)
        store, gt = planted_store(rng, n_pairs, two_hop=deep,
                                  decoy_factor=14 if deep else 20)
        assert 400 <= len(store) <= 5000
        cfg = EvolutionConfig(seed=seed, max_runs=1, **LEARN_CFG)
        t0 = time.monotonic()
        result = learn(local_endpoint(store, **FAST_EP), gt, cfg)
        elapsed = time.monotonic() - t0
        generator = two_hop if deep else one_hop
        assert recovered(store, result, generator, max_run=1), \
            "seed %d failed to recover the planted relation in run 1" % seed
        assert elapsed < 60.0, "seed %d took %.1fs" % (seed, elapsed)
    _passed(1, "planted 1- and 2-triple relations re-identified in run 1 "
               "for all 5 seeds, each under 60s")


def test_criterion_2_multi_pattern_coverage():
    gen_a = GraphPattern([TriplePattern(SOURCE_VAR, ex("relA"), TARGET_VAR)])
    gen_b = GraphPattern([TriplePattern(SOURCE_VAR, ex("relB"), TARGET_VAR)])
    for seed in range(1, 6):
        rng = random.Random(200 + seed)
        triples = []
        gt = []
        for j in range(10):
            s, t = ex("sa%d" % j), ex("ta%d" % j)
            triples.append(Triple(s, ex("relA"), t))
            gt.append(GroundTruthPair(s, t))
        for j in range(10):
            s, t = ex("sb%d" % j), ex("tb%d" % j)
            triples.append(Triple(s, ex("relB"), t))
            gt.append(GroundTruthPair(s, t))
        others = [ex("x%d" % i) for i in range(30)]
        seen = set(triples)
        while len(triples) < 400:
            tr = Triple(rng.choice(others), ex("d%d" % rng.randrange(4)),
                        rng.choice(others))
            if tr not in seen:
                seen.add(tr)
                triples.append(tr)
        store = TripleStore(triples)
        cfg = EvolutionConfig(seed=seed, max_runs=8, **LEARN_CFG)
        result = learn(local_endpoint(store, **FAST_EP), gt, cfg)
        assert recovered(store, result, gen_a), "seed %d missed relA" % seed
        assert recovered(store, result, gen_b), "seed %d missed relB" % seed

        # in the first run that accepts a generator-equivalent pattern, the
        # remains drop covers at least 90% of that relation's 10 pairs
        first = None
        for rec in result.runs:
            for lp in rec.accepted:
                if projection_equal(store, lp.pattern, gen_a) or \
                        projection_equal(store, lp.pattern, gen_b):
                    first = rec
                    break
            if first:
                break
        assert first is not None
        assert first.remains_before - first.remains_after >= 10 * 0.9
    _passed(2, "two disjoint planted relations recovered within 8 runs for "
               "all 5 seeds; remains drops by >= 0.9 x covered pairs")


def test_criterion_3_fitness_oracle_equivalence():
    rng = random.Random(33)
    checked = 0
    while checked < 200:
        store = random_store(rng, rng.randint(30, 200), rng.randint(8, 20),
                             rng.randint(2, 5))
        gp = random_pattern(rng, rng.randint(1, 4), rng.randint(0, 3),
                            store, with_reserved=True)
        if not (gp.is_complete and gp.is_connected):
            continue
        nodes = sorted({t for t in store.terms if t.kind == "iri"},
                       key=lambda t: t.sort_key())
        gt = []
        seen = set()
        for _ in range(rng.randint(2, 8)):
            pair = GroundTruthPair(rng.choice(nodes), rng.choice(nodes))
            if pair not in seen:
                seen.add(pair)
                gt.append(pair)
        values = ([SOURCE_VAR], [(p.source,) for p in gt])
        if naive_cost(store, gp, values) > 200_000:
            continue  # keep the independent oracle tractable
        ledger = CoverageLedger([rng.choice([0, 1, Fraction(1, 2),
                                             Fraction(1, 3)])
                                 for _ in gt])
        ev, fit = evaluate(local_endpoint(store, hard_timeout=300.0), gp, gt,
                           CoverageLedger([float(x) for x in ledger.values]))

        # independent recomputation via the naive engine oracle
        rows = naive_select(store, gp, [SOURCE_VAR, TARGET_VAR],
                            values=values)
        by_source = {}
        for s, t in rows:
            by_source.setdefault(s, set()).add(t)
        pv, lengths, matches = [], [], 0
        for pair in gt:
            pred = by_source.get(pair.source, set())
            lengths.append(Fraction(len(pred)))
            if pair.target in pred:
                matches += 1
                pv.append(Fraction(1, len(pred)))
            else:
                pv.append(Fraction(0))
        recall = Fraction(matches, len(gt))
        avg_len = sum(lengths) / len(gt)
        precision = (Fraction(1) / avg_len) if avg_len > 0 else Fraction(0)
        f1 = (2 * precision * recall / (precision + recall)
              if precision > 0 and recall > 0 else Fraction(0))
        gain = sum(max(Fraction(0), p - l)
                   for p, l in zip(pv, ledger.values))

        assert fit.gt_matches == matches
        assert abs(fit.avg_result_len - float(avg_len)) <= 1e-12
        assert abs(fit.f1 - float(f1)) <= 1e-12
        assert abs(fit.gain - float(gain)) <= 1e-12
        for got, want in zip(ev.pv, pv):
            assert abs(got - float(want)) <= 1e-12
        checked += 1
    _passed(3, "evaluate() matches rational-arithmetic recomputation of "
               "recall, avg_result_len, f1, gain and pv on 200 random cases")


def test_criterion_4_engine_oracle_equivalence():
    rng = random.Random(44)
    checked = 0
    while checked < 500:
        store = random_store(rng, rng.randint(10, 120), rng.randint(5, 18),
                             rng.randint(1, 5))
        gp = random_pattern(rng, rng.randint(1, 4), rng.randint(0, 4),
                            store, with_reserved=rng.random() < 0.7)
        variables = sorted(gp.variables(), key=lambda v: v.name)
        if not variables:
            continue
        projection = variables[:rng.randint(1, len(variables))]
        values = None
        if rng.random() < 0.3 and SOURCE_VAR in gp.variables():
            nodes = [t for t in store.terms if t.kind == "iri"]
            values = ([SOURCE_VAR],
                      [(rng.choice(nodes),) for _ in range(rng.randint(1, 4))])
        if naive_cost(store, gp, values) > 200_000:
            continue  # keep the independent oracle tractable
        ep = local_endpoint(store, hard_timeout=300.0)
        res = select_terms(ep, gp, projection, values=values, limit=None)
        assert not res.timed_out
        assert res.row_set() == naive_select(store, gp, projection, values)
        checked += 1
    _passed(4, "select() equals brute-force assignment enumeration on 500 "
               "random pattern/store/projection cases")


def test_criterion_5_canonicalization():
    rng = random.Random(55)
    store = random_store(rng, 60, 12, 4)

    def shuffled_rename(gp):
        mapping = {}
        names = list(range(100))
        rng.shuffle(names)
        for i, v in enumerate(sorted(gp.variables(), key=lambda v: v.name)):
            if not v.is_reserved:
                mapping[v] = V("w%d" % names[i])
        return GraphPattern(sorted((tp.substitute(mapping) for tp in gp.triples),
                                   key=lambda tp: rng.random()))

    done = 0
    while done < 1000:
        gp = random_pattern(rng, rng.randint(1, 5), rng.randint(0, 5),
                            store, with_reserved=True)
        assert pattern_key(gp) == pattern_key(shuffled_rename(gp))
        done += 1

    distinct_checked = 0
    while distinct_checked < 200:
        a = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 3),
                           store, with_reserved=True)
        b = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 3),
                           store, with_reserved=True)
        if variable_bijection_isomorphic(a, b):
            continue
        assert pattern_key(a) != pattern_key(b)
        distinct_checked += 1
    _passed(5, "canonical keys invariant under 1000 renamings/shuffles and "
               "distinct for 200 brute-force-verified non-isomorphic pairs")


def test_criterion_6_simplification():
    rng = random.Random(66)
    verified = 0
    while verified < 200:
        store = random_store(rng, rng.randint(20, 200), rng.randint(6, 20),
                             rng.randint(2, 5))
        gp = random_pattern(rng, rng.randint(1, 5), rng.randint(0, 4),
                            store, with_reserved=True)
        out_syntactic = simplify(gp)
        assert simplify(out_syntactic) == out_syntactic  # idempotence, always
        if not (gp.is_complete and gp.is_connected):
            continue
        if naive_cost(store, gp) > 2_000_000:
            continue  # cap the work of the unrestricted projection queries
        ep = local_endpoint(store, hard_timeout=300.0)
        out = simplify(gp, checker=projection_checker(ep))
        assert simplify(out, checker=projection_checker(ep)) == out
        assert projection_equal(store, gp, out)
        verified += 1
    _passed(6, "verified simplification preserves the source/target "
               "projection on 200 random cases; idempotent on all")


def _naive_fuse(entries, tsets):
    out = {s: {} for s in FUSION_STRATEGIES}
    for e, ts in zip(entries, tsets):
        weights = {"target_occs": 1.0, "scores": e.fitness.score,
                   "f_measures": e.fitness.f1,
                   "gp_precisions": (1.0 / e.fitness.avg_result_len
                                     if e.fitness.avg_result_len > 0 else 0.0),
                   "precisions": 1.0 / len(ts) if ts else 0.0}
        for s in FUSION_STRATEGIES:
            for t in ts:
                out[s][t] = out[s].get(t, 0.0) + weights[s]
    return out


def _fit(score=1.0, f1=0.5, avg=2.0):
    return FitnessTuple(remains=0.0, score=score, gain=score, f1=f1,
                        avg_result_len=avg, gt_matches=1, pattern_length=1,
                        pattern_vars=2, timeout_penalty=0.0, query_time_s=0.0)


def _entry(pv, score=1.0, f1=0.5, avg=2.0, pred="p"):
    gp = GraphPattern([TriplePattern(SOURCE_VAR, ex(pred), TARGET_VAR)])
    return PortfolioEntry(pattern=gp, pv=list(pv), fitness=_fit(score, f1, avg))


def test_criterion_7_fusion_and_metrics():
    rng = random.Random(77)
    terms = [ex("t%d" % i) for i in range(8)]
    for _ in range(100):
        n = rng.randint(1, 6)
        entries = [_entry([rng.random()], score=rng.uniform(0, 3),
                          f1=rng.random(), avg=rng.uniform(0.5, 4))
                   for _ in range(n)]
        tsets = [set(rng.sample(terms, rng.randint(0, 5))) for _ in range(n)]
        portfolio = PatternPortfolio(entries, representatives=list(range(n)))
        got = fuse(tsets, portfolio, ex("s"))
        want = _naive_fuse(entries, tsets)
        for s in FUSION_STRATEGIES:
            assert dict(got.rankings[s]) == pytest.approx(want[s])
            vals = [v for _, v in got.rankings[s]]
            assert vals == sorted(vals, reverse=True)

        ranks = [rank_of_truth(got.rankings["target_occs"], rng.choice(terms))
                 for _ in range(5)]
        rep = metrics(ranks)
        finite = [r for r in ranks]
        assert abs(rep.map - sum((1 / r if math.isfinite(r) else 0.0)
                                 for r in finite) / len(finite)) <= 1e-12

    rep = metrics([1, 2, 4])
    assert abs(rep.map - (1 + Fraction(1, 2) + Fraction(1, 4)) / 3) <= 1e-12
    want_ndcg = (1 + 1 / math.log2(3) + 1 / math.log2(5)) / 3
    assert abs(rep.ndcg - want_ndcg) <= 1e-12
    _passed(7, "fuse() and metrics() match naive oracles on 100 random "
               "portfolios; ranks [1,2,4] give the closed-form MAP and NDCG")


def test_criterion_8_query_reduction():
    # ten patterns in three exact pv blocks; block mass decreasing
    blocks = [([1.0, 1.0, 1.0, 1.0, 0.0, 0.0], 4, 3.0),
              ([0.0, 0.0, 0.0, 0.0, 1.0, 0.0], 3, 2.0),
              ([0.0, 0.0, 0.0, 0.0, 0.0, 0.5], 3, 1.0)]
    entries = []
    for pv, count, score in blocks:
        for _ in range(count):
            entries.append(_entry(pv, score=score))
    portfolio = PatternPortfolio(entries)
    for k in (1, 3, 5, 10):
        out = reduce_queries(portfolio, k)
        oracle = min(precision_loss(entries, list(sel))
                     for r in range(1, min(k, len(entries)) + 1)
                     for sel in itertools.combinations(range(len(entries)), r))
        assert out.precision_loss == pytest.approx(oracle, abs=1e-12)

    # 500-pattern synthetic portfolio: 100 latent groups of 5 near-duplicates
    rng = random.Random(88)
    big = []
    for g in range(100):
        base = [rng.random() if rng.random() < 0.25 else 0.0 for _ in range(40)]
        for _ in range(5):
            pv = [max(0.0, v + rng.uniform(-0.002, 0.002)) if v > 0 else 0.0
                  for v in base]
            big.append(_entry(pv, score=rng.uniform(0.5, 3.0)))
    out = reduce_queries(PatternPortfolio(big), 100)
    total_mass = sum(max(e.pv[i] for e in big) for i in range(40))
    assert out.precision_loss < 0.01 * total_mass
    _passed(8, "reduction loss equals the exhaustive oracle on the "
               "10-pattern toy; K=100 loss < 1% of precision mass on"
               " a 500-pattern portfolio")


def test_criterion_9_baselines_and_fusion_dominance():
    # closed forms
    cycle = TripleStore([Triple(ex("a"), ex("p"), ex("b")),
                         Triple(ex("b"), ex("p"), ex("c")),
                         Triple(ex("c"), ex("p"), ex("a"))])
    pr = pagerank(cycle)
    assert abs(sum(pr.values()) - 1.0) <= 1e-9
    for v in pr.values():
        assert abs(v - 1 / 3) <= 1e-9
    rng = random.Random(99)
    for _ in range(5):
        store = random_store(rng, 80, 20, 4)
        assert abs(sum(pagerank(store).values()) - 1.0) <= 1e-9
    sym = TripleStore([Triple(ex("h1"), ex("p"), ex("a1")),
                       Triple(ex("h1"), ex("p"), ex("a2")),
                       Triple(ex("h2"), ex("p"), ex("a1")),
                       Triple(ex("h2"), ex("p"), ex("a2"))])
    auth, hub = hits(sym)
    assert abs(auth[ex("a1")] - auth[ex("a2")]) <= 1e-9
    assert abs(hub[ex("h1")] - hub[ex("h2")]) <= 1e-9

    # fusion strictly beats every baseline at Recall@1 on the decoy fixture
    store, gt = planted_store(random.Random(900), 30, decoy_factor=20)
    cfg = EvolutionConfig(seed=1, max_runs=2, **LEARN_CFG)
    result = learn(local_endpoint(store, **FAST_EP), gt, cfg)
    assert result.patterns
    entries = [PortfolioEntry(pattern=lp.pattern, pv=lp.evaluation.pv,
                              fitness=lp.fitness,
                              canonical_key=lp.canonical_key)
               for lp in result.patterns]
    reduced = reduce_queries(PatternPortfolio(entries), 10)
    ep = local_endpoint(store)
    fusion_recall = {}
    for s in FUSION_STRATEGIES:
        hits_at_1 = 0
        for pair in gt:
            ranked = predict(ep, reduced, pair.source).rankings[s]
            if rank_of_truth(ranked, pair.target) == 1:
                hits_at_1 += 1
        fusion_recall[s] = hits_at_1 / len(gt)

    pr = pagerank(store)
    auth, hub = hits(store)
    from bgplearn.rdf import IN, OUT
    indeg = {t: float(store.degree(t, IN)) for t in store.terms}
    outdeg = {t: float(store.degree(t, OUT)) for t in store.terms}
    baseline_recall = {}
    for name, scores in (("pagerank", pr), ("hits_auth", auth),
                         ("hits_hub", hub), ("indeg", indeg),
                         ("outdeg", outdeg)):
        for direction in ("in", "out", "bidi"):
            hits_at_1 = 0
            for pair in gt:
                ranked = baseline_predict(store, pair.source, direction,
                                          "pagerank", k=10, scores=scores)
                if rank_of_truth(ranked, pair.target) == 1:
                    hits_at_1 += 1
            baseline_recall["%s %s" % (name, direction)] = hits_at_1 / len(gt)

    worst_fusion = min(fusion_recall.values())
    best_baseline = max(baseline_recall.values())
    assert worst_fusion > best_baseline, \
        "fusion %r vs baselines %r" % (fusion_recall, baseline_recall)
    _passed(9, "PageRank/HITS closed forms hold to 1e-9; every fusion "
               "strategy's Recall@1 beats every baseline's on the decoy "
               "fixture (%.2f > %.2f)" % (worst_fusion, best_baseline))


def test_criterion_10_end_to_end_report(tmp_path, capsys):
    """The published benchmark numbers (Recall@10 0.639, MAP 0.399, ~530
    patterns, multi-hour runs on a 7.9G-triple endpoint) are out of reach on
    a desktop and are NOT asserted. This criterion checks that the harness
    runs end to end and emits the full metric table. A remote endpoint from
    the BGPLEARN_ENDPOINT environment variable is used when provided;
    otherwise a local planted-relation store stands in."""
    store, gt = planted_store(random.Random(1000), 30, decoy_factor=15)
    store_path = tmp_path / "store.nt"
    store_path.write_text(store.serialize())
    gt_path = tmp_path / "gt.tsv"
    gt_path.write_text("".join("<%s>\t<%s>\n" % (p.source.value, p.target.value)
                               for p in gt))
    backend = (["--endpoint-url", os.environ["BGPLEARN_ENDPOINT"]]
               if os.environ.get("BGPLEARN_ENDPOINT")
               else ["--store", str(store_path)])
    fast = ["--set", "population_size=40", "--set", "max_generations=5",
            "--set", "max_runs=2", "--set", "hall_of_fame_size=20",
            "--set", "soft_timeout=0.05", "--set", "hard_timeout=0.2"]
    out_dir = tmp_path / "out"
    assert cli.main(["learn", *backend, "--gt", str(gt_path),
                     "--out", str(out_dir), "--seed", "1", *fast]) == 0
    assert cli.main(["evaluate", *backend,
                     "--patterns", str(out_dir / "patterns.json"),
                     "--gt", str(gt_path), "--ratio", "0.2", "--baselines",
                     "--out", str(tmp_path / "eval.json")]) == 0
    table = capsys.readouterr().out
    doc = json.loads((tmp_path / "eval.json").read_text())
    for strategy in FUSION_STRATEGIES:
        assert strategy in doc["metrics"]
        assert strategy in table
    for baseline in ("pagerank", "hits", "indeg", "outdeg"):
        for direction in ("in", "out", "bidi"):
            assert "%s %s" % (baseline, direction) in doc["metrics"]
    for col in ("R@1", "R@10", "MAP", "NDCG"):
        assert col in table
    for rep in doc["metrics"].values():
        assert 0.0 <= rep["map"] <= 1.0 and 0.0 <= rep["ndcg"] <= 1.0
        recalls = [rep["recall_at_k"][str(k)] for k in range(1, 11)]
        assert recalls == sorted(recalls)
    _passed(10, "end-to-end learn+evaluate emits the full metric table "
                "(published large-scale numbers intentionally not asserted)")


def test_criterion_11_determinism(tmp_path):
    store, gt = planted_store(random.Random(1100), 20, decoy_factor=12)
    store_path = tmp_path / "store.nt"
    store_path.write_text(store.serialize())
    gt_path = tmp_path / "gt.tsv"
    gt_path.write_text("".join("<%s>\t<%s>\n" % (p.source.value, p.target.value)
                               for p in gt))
    fast = ["--set", "population_size=40", "--set", "max_generations=4",
            "--set", "max_runs=2",
            "--set", "soft_timeout=0.05", "--set", "hard_timeout=0.2"]
    outputs = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        assert cli.main(["learn", "--store", str(store_path),
                         "--gt", str(gt_path), "--out", str(out_dir),
                         "--seed", "5", *fast]) == 0
        blob = {}
        for path in sorted(out_dir.glob("*.json")):
            blob[path.name] = path.read_bytes()
        outputs.append(blob)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], \
            "%s differs between identically seeded runs" % name
    _passed(11, "two identically seeded learn invocations produce "
                "byte-identical JSON outputs")
