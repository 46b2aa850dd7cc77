import random

from bgplearn.canon import pattern_key
from bgplearn.endpoint import local_endpoint
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)
from bgplearn.simplify import projection_checker, simplify

from conftest import ex, random_pattern, random_store

V = Variable


def gp(*tps):
    return GraphPattern(list(tps))


class TestSubsumedRule:
    def test_generalizing_parallel_triple_dropped(self):
        # ?source :p ?target plus the generalization ?source ?v ?target
        specific = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        general = TriplePattern(SOURCE_VAR, V("v"), TARGET_VAR)
        out = simplify(gp(specific, general))
        assert out.triples == frozenset({specific})

    def test_fresh_object_generalizer_dropped(self):
        specific = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        general = TriplePattern(SOURCE_VAR, ex("p"), V("any"))
        out = simplify(gp(specific, general))
        assert out.triples == frozenset({specific})

    def test_shared_variable_not_fresh(self):
        # ?v occurs twice, so the wider triple is not a pure generalization.
        a = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        b = TriplePattern(SOURCE_VAR, V("v"), TARGET_VAR)
        c = TriplePattern(TARGET_VAR, V("v"), SOURCE_VAR)
        out = simplify(gp(a, b, c))
        assert b in out.triples and c in out.triples


class TestFixedAppendixRule:
    def test_ground_triple_behind_fixed_node_dropped(self):
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        anchor = TriplePattern(TARGET_VAR, ex("in"), ex("A"))
        appendix = TriplePattern(ex("A"), ex("q"), ex("B"))
        out = simplify(gp(core, anchor, appendix))
        assert out.triples == frozenset({core, anchor})

    def test_fixed_pair_with_fresh_predicate_dropped(self):
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        anchor = TriplePattern(TARGET_VAR, ex("in"), ex("A"))
        appendix = TriplePattern(ex("A"), V("q"), ex("B"))
        out = simplify(gp(core, anchor, appendix))
        assert out.triples == frozenset({core, anchor})


class TestLooseLeafRule:
    def test_fresh_leaf_dropped(self):
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        leaf = TriplePattern(SOURCE_VAR, V("q"), V("x"))
        out = simplify(gp(core, leaf))
        assert out.triples == frozenset({core})

    def test_leaf_with_fixed_predicate_kept(self):
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        leaf = TriplePattern(SOURCE_VAR, ex("q"), V("x"))
        out = simplify(gp(core, leaf))
        assert leaf in out.triples


class TestGuards:
    def test_never_disconnects(self):
        # The bridge triple matches the leaf rule shape but removing it
        # would disconnect ?target from ?source.
        bridge = TriplePattern(SOURCE_VAR, V("q"), V("x"))
        tail = TriplePattern(V("x"), ex("p"), TARGET_VAR)
        out = simplify(gp(bridge, tail))
        assert out.triples == frozenset({bridge, tail})

    def test_never_incompletizes(self):
        only = TriplePattern(SOURCE_VAR, V("q"), TARGET_VAR)
        extra = TriplePattern(SOURCE_VAR, V("q2"), TARGET_VAR)
        out = simplify(gp(only, extra))
        assert out.is_complete and out.is_connected
        assert len(out.triples) == 1

    def test_incomplete_input_returned_unchanged(self):
        frag = gp(TriplePattern(SOURCE_VAR, V("p"), V("o")))
        assert simplify(frag) == frag


class TestProperties:
    def test_idempotent_random(self):
        rng = random.Random(11)
        store = random_store(rng, 40, 12, 4)
        for _ in range(80):
            pat = random_pattern(rng, rng.randint(1, 5), rng.randint(0, 4),
                                 store, with_reserved=True)
            once = simplify(pat)
            assert simplify(once) == once
            assert len(once.triples) <= len(pat.triples)

    def test_result_admissible_when_input_admissible(self):
        rng = random.Random(23)
        store = random_store(rng, 40, 12, 4)
        for _ in range(80):
            pat = random_pattern(rng, rng.randint(1, 5), rng.randint(0, 4),
                                 store, with_reserved=True)
            if not (pat.is_complete and pat.is_connected and pat.triples):
                continue
            out = simplify(pat)
            assert out.is_complete and out.is_connected and out.triples


class TestVerifiedMode:
    def test_checker_preserves_projection(self):
        rng = random.Random(5)
        for trial in range(30):
            store = random_store(rng, 60, 15, 4)
            ep = local_endpoint(store)
            pat = random_pattern(rng, rng.randint(2, 5), rng.randint(0, 4),
                                 store, with_reserved=True)
            if not (pat.is_complete and pat.is_connected):
                continue
            out = simplify(pat, checker=projection_checker(ep))
            before = ep.run_select(pat, [SOURCE_VAR, TARGET_VAR], limit=None)
            after = ep.run_select(out, [SOURCE_VAR, TARGET_VAR], limit=None)
            assert before.row_set() == after.row_set()

    def test_sink_node_leaf_kept_in_verified_mode(self):
        # :a :p :b, and :b has no outgoing edges. Syntactic mode drops
        # the leaf ?target ?q ?x; verified mode must keep it because the
        # leaf makes the projection empty and dropping it would grow it.
        from bgplearn.rdf import Triple, TripleStore
        store = TripleStore([Triple(ex("a"), ex("p"), ex("b"))])
        ep = local_endpoint(store)
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        leaf = TriplePattern(TARGET_VAR, V("q"), V("x"))
        pat = gp(core, leaf)
        syntactic = simplify(pat)
        verified = simplify(pat, checker=projection_checker(ep))
        assert syntactic.triples == frozenset({core})
        assert verified.triples == frozenset({core, leaf})

    def test_checker_approved_drop_happens(self, capitals_store):
        ep = local_endpoint(capitals_store)
        core = TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)
        general = TriplePattern(SOURCE_VAR, V("v"), TARGET_VAR)
        out = simplify(gp(core, general), checker=projection_checker(ep))
        assert out.triples == frozenset({core})

    def test_victim_of_two_rules_checked_once(self):
        """?source ?x ?y is both subsumed by the core and a loose leaf; a
        checker that refuses every drop is asked about it once."""
        core = TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR)
        both = TriplePattern(SOURCE_VAR, V("x"), V("y"))
        calls = []

        def refuse(before, after):
            calls.append((before, after))
            return False

        pat = gp(core, both)
        assert simplify(pat, checker=refuse) == pat
        assert calls == [(pat, gp(core))]
