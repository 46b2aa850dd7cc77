import json
import math
import random
from collections import Counter

import pytest

from bgplearn import evolution
from bgplearn.canon import pattern_key
from bgplearn.endpoint import Endpoint, EndpointConfig, local_endpoint
from bgplearn.evolution import (EvolutionConfig, HallOfFame, Individual,
                                fit_to_live, fix_var, init_population, learn,
                                learn_runs,
                                mate, mut_add_edge, mut_del_triple,
                                mut_expand_node, mut_increase_dist,
                                mut_introduce_var, mut_merge_var,
                                mut_simplify, mut_split_var, mutate,
                                next_generation, run_single, tournament,
                                _random_path, _weighted_draws)
from bgplearn.fitness import CoverageLedger, FitnessTuple, GroundTruthPair
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)
from bgplearn.rdf import iri, load_ntriples

from conftest import EX, ex

V = Variable
CAPITAL_GP = GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])


class _LowestDraws:
    """A stand-in rng whose every draw is its lowest: 0.0 and index 0."""

    def random(self):
        return 0.0

    def randrange(self, n):
        return 0


def small_cfg(**kw):
    base = dict(population_size=20, max_generations=3, max_runs=2,
                hall_of_fame_size=10, reintro_fresh=2, reintro_hof=2, seed=7)
    base.update(kw)
    return EvolutionConfig(**base)


class TestInitPopulation:
    def test_path_shapes(self):
        rng = random.Random(3)
        cfg = EvolutionConfig()
        for _ in range(200):
            gp = _random_path(cfg, rng)
            assert 1 <= gp.length <= cfg.max_path_length
            assert gp.is_complete and gp.is_connected
            # every slot except the predicates is a chain node variable
            for tp in gp.triples:
                assert isinstance(tp.p, Variable)
                assert isinstance(tp.s, Variable) and isinstance(tp.o, Variable)

    def test_length_distribution_halves(self):
        rng = random.Random(9)
        cfg = EvolutionConfig()
        counts = Counter(_random_path(cfg, rng).length for _ in range(8000))
        # P(l) proportional to 2^-l over l in 1..3: 4/7, 2/7, 1/7
        assert counts[1] / 8000 == pytest.approx(4 / 7, abs=0.03)
        assert counts[2] / 8000 == pytest.approx(2 / 7, abs=0.03)
        assert counts[3] / 8000 == pytest.approx(1 / 7, abs=0.03)

    def test_fragment_fraction(self):
        rng = random.Random(1)
        cfg = EvolutionConfig(population_size=100)
        pop = init_population(cfg, rng)
        fragments = [i for i in pop if not i.pattern.is_complete]
        assert len(fragments) == 10
        for ind in fragments:
            gp = ind.pattern
            assert gp.length == 1
            names = {v.name for v in gp.variables()}
            assert "source" in names or "target" in names

    def test_seeded_determinism(self):
        cfg = EvolutionConfig(population_size=50)
        a = init_population(cfg, random.Random(5))
        b = init_population(cfg, random.Random(5))
        assert [i.pattern for i in a] == [i.pattern for i in b]

    def test_init_fix_var_grounds_terms(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        cfg = EvolutionConfig(population_size=60, init_fix_var_prob=1.0,
                              fragment_fraction=0.0)
        pop = init_population(cfg, random.Random(2), endpoint=ep,
                              gt=capitals_gt,
                              ledger=CoverageLedger.zeros(len(capitals_gt)))
        grounded = [i for i in pop
                    if any(not isinstance(n, Variable)
                           for tp in i.pattern.triples for n in tp)]
        assert grounded  # at least some initial patterns got a fixed term


class TestMating:
    def test_identical_parents_yield_parent(self):
        cfg = EvolutionConfig()
        rng = random.Random(0)
        a = Individual(CAPITAL_GP)
        c1, c2 = mate(a, Individual(CAPITAL_GP), rng, cfg)
        assert c1.pattern == CAPITAL_GP and c2.pattern == CAPITAL_GP

    def test_degenerate_probabilities(self):
        cfg = EvolutionConfig(p_dominant=1.0, p_recessive=0.0)
        rng = random.Random(4)
        dom = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR),
                            TriplePattern(SOURCE_VAR, ex("q"), V("x"))])
        rec = GraphPattern([TriplePattern(SOURCE_VAR, V("y"), TARGET_VAR)])
        for _ in range(50):
            c1, c2 = mate(Individual(dom), Individual(rec), rng, cfg)
            assert c1.pattern == dom
            assert c2.pattern == rec

    def test_child_triples_come_from_parents(self):
        cfg = EvolutionConfig()
        rng = random.Random(8)
        dom = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR),
                            TriplePattern(TARGET_VAR, ex("q"), V("x"))])
        rec = GraphPattern([TriplePattern(SOURCE_VAR, ex("r"), V("y")),
                            TriplePattern(V("y"), ex("s"), TARGET_VAR)])
        allowed_preds = {ex("p"), ex("q"), ex("r"), ex("s")}
        for _ in range(100):
            c1, _ = mate(Individual(dom), Individual(rec), rng, cfg)
            for tp in c1.pattern.triples:
                assert tp.p in allowed_preds


    def test_recessive_variables_renamed_to_free_names(self):
        """The recessive side's free variables become the lowest `r<n>` names
        that neither side holds, in order of first appearance."""
        cfg = EvolutionConfig(p_dominant=1.0, p_recessive=1.0)
        dom = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), V("r0")),
                            TriplePattern(V("r0"), ex("q"), TARGET_VAR)])
        rec = GraphPattern([TriplePattern(SOURCE_VAR, ex("r"), V("a")),
                            TriplePattern(V("a"), ex("s"), V("r2")),
                            TriplePattern(V("r2"), ex("t"), TARGET_VAR)])
        c1, c2 = mate(Individual(dom), Individual(rec), _LowestDraws(), cfg)
        assert c1.pattern == GraphPattern(dom.triples | {
            TriplePattern(SOURCE_VAR, ex("r"), V("r1")),
            TriplePattern(V("r1"), ex("s"), V("r3")),
            TriplePattern(V("r3"), ex("t"), TARGET_VAR)})
        assert c2.pattern == GraphPattern(rec.triples | {
            TriplePattern(SOURCE_VAR, ex("p"), V("r1")),
            TriplePattern(V("r1"), ex("q"), TARGET_VAR)})


class TestSubstitute:
    def test_term_and_variable_keys(self):
        tp = TriplePattern(ex("a"), ex("p"), V("x"))
        assert tp.substitute({ex("a"): V("y"), V("x"): ex("b")}) == \
            TriplePattern(V("y"), ex("p"), ex("b"))
        assert tp.substitute({ex("p"): V("q")}) == TriplePattern(ex("a"), V("q"), V("x"))
        gp = GraphPattern([tp, TriplePattern(V("x"), ex("p"), ex("a"))])
        assert gp.substitute({ex("a"): V("y")}) == GraphPattern([
            TriplePattern(V("y"), ex("p"), V("x")), TriplePattern(V("x"), ex("p"), V("y"))])


class TestMutations:
    def test_introduce_var_replaces_term_in_every_position(self):
        """The chosen term goes as subject, predicate and object alike, for
        the lowest `v<n>` name that the pattern does not hold."""
        gp = GraphPattern([TriplePattern(ex("a"), ex("a"), SOURCE_VAR),
                           TriplePattern(TARGET_VAR, ex("a"), ex("a")),
                           TriplePattern(SOURCE_VAR, ex("b"), V("v0"))])
        assert mut_introduce_var(gp, _LowestDraws()) == GraphPattern([
            TriplePattern(V("v1"), V("v1"), SOURCE_VAR),
            TriplePattern(TARGET_VAR, V("v1"), V("v1")),
            TriplePattern(SOURCE_VAR, ex("b"), V("v0"))])

    def test_introduce_var_replaces_all_occurrences(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), ex("A")),
                           TriplePattern(ex("A"), ex("p"), TARGET_VAR)])
        rng = random.Random(1)
        seen_without_a = False
        for _ in range(40):
            out = mut_introduce_var(gp, rng)
            assert out is not None
            chosen_gone = all(n != ex("A") for tp in out.triples for n in tp) \
                or all(n != ex("p") for tp in out.triples for n in tp)
            assert chosen_gone
            if all(n != ex("A") for tp in out.triples for n in tp):
                seen_without_a = True
        assert seen_without_a

    def test_introduce_var_no_fixed_terms(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])
        assert mut_introduce_var(gp, random.Random(0)) is None

    def test_split_var_keeps_both_sides(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("v"), TARGET_VAR),
                           TriplePattern(TARGET_VAR, V("v"), SOURCE_VAR)])
        rng = random.Random(2)
        out = mut_split_var(gp, rng)
        assert out is not None
        assert V("v") not in out.variables()
        fresh = [v for v in out.variables() if not v.is_reserved]
        assert len(fresh) == 2

    def test_merge_var(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("a"), V("x")),
                           TriplePattern(V("x"), V("b"), TARGET_VAR)])
        out = mut_merge_var(gp, random.Random(3))
        assert out is not None
        assert len(out.nonreserved_variables()) < 3

    def test_del_triple(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR),
                           TriplePattern(SOURCE_VAR, ex("q"), TARGET_VAR)])
        out = mut_del_triple(gp, random.Random(0))
        assert out is not None and out.length == 1
        assert out.triples < gp.triples

    def test_expand_node_adds_one_triple(self):
        out = mut_expand_node(CAPITAL_GP, random.Random(5))
        assert out is not None and out.length == 2
        assert CAPITAL_GP.triples < out.triples

    def test_add_edge_connects_existing_nodes(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), V("x")),
                           TriplePattern(V("x"), ex("q"), TARGET_VAR)])
        # a draw whose node pair already has an edge returns None, so try
        # several seeds and check every successful application
        succeeded = False
        for seed in range(30):
            out = mut_add_edge(gp, random.Random(seed))
            if out is None:
                continue
            succeeded = True
            assert out.length == 3
            new = next(iter(out.triples - gp.triples))
            nodes = gp.nodes()
            assert new.s in nodes and new.o in nodes
        assert succeeded

    def test_add_edge_single_node_none(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), SOURCE_VAR)])
        assert mut_add_edge(gp, random.Random(0)) is None

    def test_increase_dist_moves_reserved_one_hop(self):
        rng = random.Random(7)
        out = mut_increase_dist(CAPITAL_GP, rng)
        assert out is not None and out.length == 2
        # exactly one triple still touches the displaced reserved variable
        reserved_hits = [tp for tp in out.triples
                         if SOURCE_VAR in tp or TARGET_VAR in tp]
        assert len(reserved_hits) == 2  # old core triple rewired + new hop
        assert out.is_connected and out.is_complete

    def test_simplify_mutation_none_when_minimal(self):
        assert mut_simplify(CAPITAL_GP, random.Random(0)) is None

    def test_simplify_mutation_reduces(self):
        gp = CAPITAL_GP.with_triple(TriplePattern(SOURCE_VAR, V("v"), TARGET_VAR))
        out = mut_simplify(gp, random.Random(0))
        assert out == CAPITAL_GP


class TestFixVar:
    def test_grounds_predicate_on_fixture(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])
        cfg = EvolutionConfig()
        children = fix_var(gp, ep, capitals_gt,
                           CoverageLedger.zeros(3), random.Random(1), cfg)
        assert CAPITAL_GP in children
        for child in children:
            assert V("p") not in child.variables()

    def test_no_free_variables(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        assert fix_var(CAPITAL_GP, ep, capitals_gt, None,
                       random.Random(0), EvolutionConfig()) == []

    def test_no_bindings(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("nosuch"), V("x")),
                           TriplePattern(V("x"), ex("nosuch"), TARGET_VAR)])
        assert fix_var(gp, ep, capitals_gt, None,
                       random.Random(0), EvolutionConfig()) == []

    def test_saturated_ledger_uniform_fallback(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])
        children = fix_var(gp, ep, capitals_gt, CoverageLedger([1.0, 1.0, 1.0]),
                           random.Random(2), EvolutionConfig())
        assert CAPITAL_GP in children

    @staticmethod
    def _sampled_pairs(store, gt, ledger, seed):
        inner = local_endpoint(store)
        sent = []

        class Spy:
            config = inner.config

            def run_select(self, gp, projection, values=None, limit=None,
                           cache=True):
                sent.append(list(values[1]))
                return inner.run_select(gp, projection, values, limit, cache)

        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])
        fix_var(gp, Spy(), gt, ledger, random.Random(seed), EvolutionConfig())
        return sent

    def test_saturated_ledger_samples_like_no_ledger(self, capitals_store,
                                                     capitals_gt):
        for seed in range(5):
            saturated = self._sampled_pairs(capitals_store, capitals_gt,
                                            CoverageLedger([1.0, 1.0, 1.0]), seed)
            assert saturated == self._sampled_pairs(capitals_store, capitals_gt,
                                                    None, seed)
            assert sorted(saturated[0]) == sorted(capitals_gt)

    def test_sampling_stops_at_zero_weight(self, capitals_store, capitals_gt):
        sent = self._sampled_pairs(capitals_store, capitals_gt,
                                   CoverageLedger([1.0, 0.0, 1.0]), 0)
        # covered pairs weigh 0: only the uncovered pair is sampled
        assert sent == [[(ex("Paris"), ex("France"))]]

    def test_no_child_names_a_blank_node(self):
        """A blank node the variable binds is dropped, after the draws."""
        store = load_ntriples("<http://x/a> <http://x/p> _:b1 .\n"
                              "_:b1 <http://x/q> <http://x/t> .\n"
                              "<http://x/a> <http://x/p> <http://x/c> .\n"
                              "<http://x/c> <http://x/q> <http://x/t> .\n")
        gp = GraphPattern([TriplePattern(SOURCE_VAR, iri("http://x/p"), V("v")),
                           TriplePattern(V("v"), iri("http://x/q"), TARGET_VAR)])
        gt = [GroundTruthPair(iri("http://x/a"), iri("http://x/t"))]
        children = fix_var(gp, local_endpoint(store), gt, None, random.Random(0),
                           EvolutionConfig())
        assert children == [gp.substitute({V("v"): iri("http://x/c")})]

    def test_child_count_bounded(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        gp = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), V("o")),
                           TriplePattern(V("o"), V("q"), TARGET_VAR)])
        cfg = EvolutionConfig(fix_var_children=2)
        children = fix_var(gp, ep, capitals_gt, None, random.Random(3), cfg)
        assert len(children) <= 2


def _reference_draws(weights, m, rng):
    """The linear-scan sampler that _weighted_draws replaced, kept verbatim."""
    indices = list(range(len(weights)))
    pool = list(weights)
    picks = []
    for _ in range(m):
        total = sum(pool)
        if total <= 0:
            break
        r = rng.random() * total
        acc = 0.0
        pick = len(pool) - 1  # if rounding leaves r at the total
        for j, w in enumerate(pool):
            acc += w
            if r < acc:
                pick = j
                break
        picks.append(indices.pop(pick))
        del pool[pick]
    return picks


def _random_weights(rng):
    n = rng.randint(0, 60)
    kind = rng.randrange(5)
    if kind == 0:  # fix-var weights of a ledger, some pairs saturated or open
        return [1.0 - rng.choice([0.0, 1.0, 0.5, 1.0 / rng.randint(1, 9),
                                  rng.random()]) for _ in range(n)]
    if kind == 1:  # term counts
        return [float(rng.randint(1, 50)) for _ in range(n)]
    if kind == 2:  # zeros among positive weights
        return [rng.choice([0.0, 0.0, rng.random()]) for _ in range(n)]
    if kind == 3:  # an all-zero pool
        return [0.0] * n
    return [rng.choice([0.0, 1.0]) * 10.0 ** rng.randint(-300, 300)
            * rng.random() for _ in range(n)]  # magnitudes 1e-300 to 1e300


class TestWeightedDraws:
    def test_same_picks_and_rng_state_as_reference(self):
        gen = random.Random(12)
        for case in range(3000):
            weights = _random_weights(gen)
            m = gen.randint(0, len(weights) + 5)  # m > n included
            ref_rng, rng = random.Random(case), random.Random(case)
            expected = _reference_draws(weights, m, ref_rng)
            assert _weighted_draws(tuple(weights), m, rng) == expected, weights
            assert rng.getstate() == ref_rng.getstate()

    def test_all_zero_pool_draws_nothing(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert _weighted_draws([0.0, 0.0, 0.0], 5, rng) == []
        assert rng.getstate() == state

    @pytest.mark.parametrize("u, expected", [
        (0.0, [1, 3]),  # r = 0 passes over leading zero weights
        (1.0, [3, 2]),  # as if r rounded up to the total: the last index
    ])
    def test_r_at_either_end(self, u, expected):
        class Fixed(random.Random):
            def random(self):
                return u

        weights = [0.0, 2.0, 0.0, 1.0]
        assert (_weighted_draws(weights, 2, Fixed())
                == _reference_draws(weights, 2, Fixed()) == expected)

    def test_draws_without_replacement(self):
        picks = _weighted_draws([1.0, 2.0, 3.0, 4.0], 10, random.Random(4))
        assert sorted(picks) == [0, 1, 2, 3]


class TestFitToLive:
    def test_happy_path(self):
        assert fit_to_live(Individual(CAPITAL_GP), EvolutionConfig())

    def test_too_long(self):
        tps = [TriplePattern(SOURCE_VAR, ex("p%d" % i), TARGET_VAR)
               for i in range(11)]
        assert not fit_to_live(Individual(GraphPattern(tps)), EvolutionConfig())

    def test_too_many_vars(self):
        tps = [TriplePattern(SOURCE_VAR, V("p%d" % i), TARGET_VAR)
               for i in range(6)]
        gp = GraphPattern(tps + [TriplePattern(SOURCE_VAR, ex("q"), TARGET_VAR)])
        assert gp.variable_count == 8
        assert not fit_to_live(Individual(gp), EvolutionConfig())

    def test_incomplete(self):
        frag = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), V("o"))])
        assert not fit_to_live(Individual(frag), EvolutionConfig())

    def test_disconnected(self):
        gp = GraphPattern([TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR),
                           TriplePattern(V("a"), ex("q"), V("b"))])
        assert not fit_to_live(Individual(gp), EvolutionConfig())


def _ind(pattern, **fit):
    ind = Individual(pattern)
    base = dict(remains=0.0, score=0.0, gain=0.0, f1=0.0, avg_result_len=0.0,
                gt_matches=0, pattern_length=pattern.length,
                pattern_vars=pattern.variable_count, timeout_penalty=0.0,
                query_time_s=0.0)
    base.update(fit)
    ind.fitness = FitnessTuple(**base)
    return ind


class TestSelection:
    def _pool(self):
        pats = [GraphPattern([TriplePattern(SOURCE_VAR, ex("p%d" % i), TARGET_VAR)])
                for i in range(6)]
        return [_ind(p, score=float(i)) for i, p in enumerate(pats)]

    def test_tournament_prefers_fitter(self):
        # contenders are drawn with replacement, so check the selection
        # pressure statistically: the best wins far more often than the worst
        pool = self._pool()
        rng = random.Random(0)
        wins = Counter(tournament(pool, 3, rng).fitness.score
                       for _ in range(600))
        assert wins[5.0] > wins[0.0] * 5

    def test_tournament_k1_uniform(self):
        pool = self._pool()
        rng = random.Random(1)
        picks = {tournament(pool, 1, rng).fitness.score for _ in range(200)}
        assert len(picks) == len(pool)

    def test_next_generation_size_and_reintro(self):
        cfg = small_cfg()
        pool = self._pool()
        hof = HallOfFame(cfg.hall_of_fame_size)
        hof.update(pool)
        out = next_generation(pool * 5, hof, cfg, random.Random(2))
        assert len(out) == cfg.population_size
        # hof reintroduction: the two best patterns are present
        keys = {ind.canonical_key for ind in out}
        assert pool[5].canonical_key in keys


class TestRunSingle:
    def test_unfit_child_gives_way_to_its_parent(self, capitals_store, capitals_gt,
                                                 monkeypatch):
        """Every child below is unfit (it has no ?target), so the offspring
        handed to the next generation is the population itself."""
        unfit = GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), V("x"))])
        assert not fit_to_live(Individual(unfit), small_cfg())
        seen = {}

        def init_spy(*args, **kwargs):
            population = init_population(*args, **kwargs)
            seen.setdefault("population", population)  # the first generation
            return population

        def next_generation_spy(offspring, *args):
            seen["offspring"] = list(offspring)
            return next_generation(offspring, *args)

        monkeypatch.setattr(evolution, "init_population", init_spy)
        monkeypatch.setattr(evolution, "mutate", lambda *args: [Individual(unfit)])
        monkeypatch.setattr(evolution, "next_generation", next_generation_spy)
        cfg = small_cfg(max_generations=1, mating_prob=0.0)
        ledger = CoverageLedger.zeros(len(capitals_gt))
        run_single(local_endpoint(capitals_store), capitals_gt, ledger, cfg,
                   random.Random(cfg.seed))
        assert len(seen["population"]) == cfg.population_size
        assert [id(ind) for ind in seen["offspring"]] == [
            id(ind) for ind in seen["population"]]


class TestRunSingleScoresEachPatternOnce:
    @staticmethod
    def _scored(monkeypatch, ep, gt, patterns):
        """The initial population of a run of no generations, one individual
        per pattern, once scored, and the patterns `ep` was asked for."""
        population = [Individual(gp) for gp in patterns]
        monkeypatch.setattr(evolution, "init_population", lambda *args: population)
        asked = []
        real_run_select = ep.run_select

        def run_select(gp, *args, **kwargs):
            asked.append(gp)
            return real_run_select(gp, *args, **kwargs)

        monkeypatch.setattr(ep, "run_select", run_select)
        cfg = small_cfg(max_generations=0, population_size=len(patterns))
        run_single(ep, gt, CoverageLedger.zeros(len(gt)), cfg,
                   random.Random(cfg.seed))
        return population, asked

    def test_equal_pattern_is_not_queried_again(self, capitals_store, capitals_gt,
                                                monkeypatch):
        a, b = (GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])
                for _ in range(2))
        assert a == b and a is not b
        ep = local_endpoint(capitals_store)
        (first, second), asked = self._scored(monkeypatch, ep, capitals_gt, [a, b])
        assert asked == [a] and ep.backend_calls == 1
        assert second.pattern is first.pattern
        assert second.fitness == first.fitness and second.fitness.score > 0

    def test_renamed_twin_hits_the_endpoint_cache(self, capitals_store, capitals_gt,
                                                  monkeypatch):
        a = GraphPattern([TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR)])
        b = GraphPattern([TriplePattern(SOURCE_VAR, V("q"), TARGET_VAR)])
        ep = local_endpoint(capitals_store)
        (first, second), asked = self._scored(monkeypatch, ep, capitals_gt, [a, b])
        assert asked == [a, b] and ep.backend_calls == 1
        assert second.pattern is b and second.fitness == first.fitness

    def test_remote_hard_timeout_is_asked_again(self, capitals_gt, monkeypatch):
        """A 5xx answer may be transient: the equal pattern scored after it
        takes the next answer, not the hard timeout."""
        berlin = {"source": {"type": "uri", "value": EX + "Berlin"},
                  "target": {"type": "uri", "value": EX + "Germany"}}
        answers = [(503, None), (200, json.dumps({"results": {"bindings": [berlin]}}))]
        ep = Endpoint(EndpointConfig(retries=0, backoff=0.0), url="http://e/sparql",
                      http_post=lambda *args, **kwargs: answers.pop(0))
        a, b = (GraphPattern([TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)])
                for _ in range(2))
        (first, second), asked = self._scored(monkeypatch, ep, capitals_gt, [a, b])
        assert asked == [a, b] and answers == []
        assert first.fitness.timeout_penalty == 1.0
        assert second.fitness.timeout_penalty == 0.0
        assert second.evaluation.pv == [1.0, 0.0, 0.0]


class TestLearn:
    def test_finds_planted_relation(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        cfg = small_cfg(max_runs=3)
        result = learn(ep, capitals_gt, cfg)
        keys = {lp.canonical_key for lp in result.patterns}
        assert pattern_key(CAPITAL_GP) in keys
        assert result.ledger.remains() < len(capitals_gt)

    def test_stops_when_covered(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        cfg = small_cfg(max_runs=10)
        result = learn(ep, capitals_gt, cfg)
        # the exact pattern covers everything in run 1, so later runs stop
        assert len(result.runs) < 10

    @staticmethod
    def _runs(monkeypatch, store, gt, cfg, **kw):
        """The number of runs `learn_runs` makes and of records it yields."""
        real_run_single = evolution.run_single
        calls = []

        def counted(*args):
            calls.append(args)
            return real_run_single(*args)

        monkeypatch.setattr(evolution, "run_single", counted)
        records = list(learn_runs(local_endpoint(store), gt, cfg, **kw))
        return len(calls), len(records)

    def test_no_run_once_no_pattern_can_pass(self, capitals_store, capitals_gt,
                                             monkeypatch):
        """A score is at most the remains, so no run is made once the remains
        are at most `score_threshold`: a 1-pair GT under the default config,
        and a resumed session whose ledger leaves remains of exactly 2.0."""
        cfg = EvolutionConfig(seed=7)
        assert self._runs(monkeypatch, capitals_store, capitals_gt[:1], cfg) == (0, 0)
        ledger = CoverageLedger([0.5, 0.5, 0.0])
        assert ledger.remains() == cfg.score_threshold
        assert self._runs(monkeypatch, capitals_store, capitals_gt, cfg,
                          ledger=ledger, start_run=5) == (0, 0)

    def test_run_made_while_remains_exceed_threshold(self, capitals_store, capitals_gt,
                                                     monkeypatch):
        """Remains one ulp above the threshold still make a run."""
        cfg = small_cfg(max_runs=1, score_threshold=math.nextafter(1.0, 0.0))
        assert self._runs(monkeypatch, capitals_store, capitals_gt[:1], cfg) == (1, 1)
        cfg = small_cfg(max_runs=5, score_threshold=math.nextafter(2.0, 0.0))
        assert self._runs(monkeypatch, capitals_store, capitals_gt, cfg,
                          ledger=CoverageLedger([0.5, 0.5, 0.0]), start_run=5) == (1, 1)

    def test_seeded_determinism(self, capitals_store, capitals_gt):
        cfg = small_cfg(max_runs=2)
        r1 = learn(local_endpoint(capitals_store), capitals_gt, cfg)
        r2 = learn(local_endpoint(capitals_store), capitals_gt, cfg)
        assert [lp.canonical_key for lp in r1.patterns] == \
               [lp.canonical_key for lp in r2.patterns]
        assert [lp.fitness for lp in r1.patterns] == \
               [lp.fitness for lp in r2.patterns]
        assert r1.ledger == r2.ledger

    def test_accepted_scores_above_threshold(self, capitals_store, capitals_gt):
        ep = local_endpoint(capitals_store)
        result = learn(ep, capitals_gt, small_cfg())
        for lp in result.patterns:
            assert lp.fitness.score > small_cfg().score_threshold

    def test_empty_gt_rejected(self, capitals_store):
        with pytest.raises(ValueError):
            learn(local_endpoint(capitals_store), [], small_cfg())

    def test_learn_collects_learn_runs(self, capitals_store, capitals_gt):
        cfg = small_cfg(max_runs=3, min_remains=0.0, score_threshold=-1.0)
        runs = list(learn_runs(local_endpoint(capitals_store), capitals_gt, cfg))
        result = learn(local_endpoint(capitals_store), capitals_gt, cfg)
        assert runs == result.runs and len(runs) == 3
        assert result.ledger == runs[-1].ledger
        assert sorted(lp.canonical_key for lp in result.patterns) == \
            sorted(lp.canonical_key for rec in runs for lp in rec.accepted)

    def test_known_keys_never_accepted(self, capitals_store, capitals_gt):
        cfg = small_cfg(max_runs=3, min_remains=0.0, score_threshold=-1.0)
        first = learn(local_endpoint(capitals_store), capitals_gt, cfg)
        known = {lp.canonical_key for lp in first.patterns}
        assert pattern_key(CAPITAL_GP) in known
        runs = list(learn_runs(local_endpoint(capitals_store), capitals_gt, cfg,
                               known_keys=known))
        keys = [lp.canonical_key for rec in runs for lp in rec.accepted]
        assert len(runs) == 3 and not known & set(keys)
        assert len(keys) == len(set(keys))
