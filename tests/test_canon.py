import gc
import random

import pytest

from bgplearn import canon
from bgplearn.canon import canonicalize, pattern_key
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable)

from conftest import ex, random_pattern, random_store, variable_bijection_isomorphic

V = Variable


def gp(*triples):
    return GraphPattern(triples)


class TestCanonicalize:
    def test_pure_renaming_equal_keys(self):
        a = gp(TriplePattern(SOURCE_VAR, V("p"), V("v")),
               TriplePattern(V("v"), V("q"), TARGET_VAR))
        b = gp(TriplePattern(SOURCE_VAR, V("a"), V("x")),
               TriplePattern(V("x"), V("b"), TARGET_VAR))
        assert pattern_key(a) == pattern_key(b)

    def test_direction_distinguishes(self):
        a = gp(TriplePattern(SOURCE_VAR, ex("p"), V("v")))
        b = gp(TriplePattern(V("v"), ex("p"), SOURCE_VAR))
        assert pattern_key(a) != pattern_key(b)

    def test_symmetric_pattern_swap_equal(self):
        base = [TriplePattern(SOURCE_VAR, V("p"), V("v1")),
                TriplePattern(SOURCE_VAR, V("p"), V("v2")),
                TriplePattern(V("v1"), ex("q"), V("t0")),
                TriplePattern(V("v2"), ex("q"), V("t0"))]
        swapped = [t.substitute({V("v1"): V("v2"), V("v2"): V("v1")}) for t in base]
        assert variable_bijection_isomorphic(gp(*base), gp(*swapped))
        assert pattern_key(gp(*base)) == pattern_key(gp(*swapped))

    def test_reserved_vars_fixed(self):
        a = gp(TriplePattern(SOURCE_VAR, ex("p"), TARGET_VAR))
        form = canonicalize(a)
        assert form.variable_mapping[SOURCE_VAR] == SOURCE_VAR
        assert form.variable_mapping[TARGET_VAR] == TARGET_VAR
        # swapping source/target roles must change the key
        b = gp(TriplePattern(TARGET_VAR, ex("p"), SOURCE_VAR))
        assert pattern_key(a) != pattern_key(b)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(gp())

    def test_stable_across_calls(self):
        p = gp(TriplePattern(SOURCE_VAR, V("p"), V("v")),
               TriplePattern(V("v"), ex("q"), TARGET_VAR))
        assert pattern_key(p) == pattern_key(p)

    def test_no_cyclic_garbage(self):
        """A form that needs individualisation (?a and ?b are tied) leaves
        nothing for the cyclic collector."""
        gc.collect()
        gc.disable()
        try:
            form = canonicalize(gp(TriplePattern(V("a"), ex("p"), V("b")),
                                   TriplePattern(V("b"), ex("p"), V("a"))))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert form.key.count("?cv") == 4


def _random_rename_shuffle(gp_in, rng):
    free = [v for v in gp_in.variables() if not v.is_reserved]
    fresh = ["w%d" % i for i in range(len(free))]
    rng.shuffle(fresh)
    mapping = {v: Variable(name) for v, name in zip(free, fresh)}
    triples = [t.substitute(mapping) for t in gp_in.sorted_triples()]
    rng.shuffle(triples)
    return GraphPattern(triples)


class TestRandomized:
    def test_renaming_invariance(self):
        rng = random.Random(11)
        store = random_store(rng, n_triples=30, n_nodes=6, n_preds=3)
        for _ in range(150):
            p = random_pattern(rng, n_triples=rng.randint(1, 6), n_vars=4,
                               store=store)
            q = _random_rename_shuffle(p, rng)
            assert pattern_key(p) == pattern_key(q)

    def test_soundness_equal_key_implies_isomorphism(self):
        rng = random.Random(13)
        store = random_store(rng, n_triples=30, n_nodes=6, n_preds=3)
        pairs_checked = 0
        while pairs_checked < 60:
            p = random_pattern(rng, n_triples=rng.randint(1, 3), n_vars=3,
                               store=store)
            q = random_pattern(rng, n_triples=rng.randint(1, 3), n_vars=3,
                               store=store)
            same_key = pattern_key(p) == pattern_key(q)
            iso = variable_bijection_isomorphic(p, q)
            assert same_key == iso
            pairs_checked += 1

    def test_distinct_keys_for_nonisomorphic(self):
        rng = random.Random(17)
        store = random_store(rng, n_triples=30, n_nodes=6, n_preds=3)
        seen = 0
        while seen < 40:
            p = random_pattern(rng, n_triples=rng.randint(1, 3), n_vars=3,
                               store=store)
            q = random_pattern(rng, n_triples=rng.randint(1, 3), n_vars=3,
                               store=store)
            if variable_bijection_isomorphic(p, q):
                continue
            assert pattern_key(p) != pattern_key(q)
            seen += 1

    def test_one_free_variable_needs_no_search(self):
        """A pattern with at most one free variable gets the key and mapping
        that the full colour-refinement search gives it."""
        rng = random.Random(19)
        store = random_store(rng, n_triples=30, n_nodes=6, n_preds=3)
        free_counts = set()
        for _ in range(300):
            p = random_pattern(rng, n_triples=rng.randint(1, 6),
                               n_vars=rng.randint(0, 1), store=store)
            free = sorted(v.name for v in p.variables() if not v.is_reserved)
            free_counts.add(len(free))
            form = canonicalize(p)
            key, mapping = canon._search(p.sorted_triples(), free)
            assert (form.key, dict(form.variable_mapping)) == (key, mapping)
        assert free_counts == {0, 1}

    def test_size_limit_holds_without_search(self):
        """The vertex limit also holds for a pattern that needs no search."""
        triples = [TriplePattern(SOURCE_VAR, ex("p"), ex("n%d" % i))
                   for i in range(canon.MAX_VERTICES // 2)]
        with pytest.raises(ValueError, match="too large for canonicalization"):
            canonicalize(GraphPattern(triples))


class TestMemo:
    @staticmethod
    def _pair():
        """Two equal patterns built separately."""
        return tuple(gp(TriplePattern(SOURCE_VAR, V("p"), V("v")),
                        TriplePattern(V("v"), ex("q"), TARGET_VAR))
                     for _ in range(2))

    def test_same_form_object(self):
        a, _ = self._pair()
        assert canonicalize(a) is canonicalize(a)

    @pytest.mark.parametrize("canonicalised", [0, 1, 2],
                             ids=["neither", "one", "both"])
    def test_equality_ignores_memo(self, canonicalised):
        a, b = self._pair()
        text = repr(a)
        for p in (a, b)[:canonicalised]:
            canonicalize(p)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert repr(a) == text == repr(b)
        assert pattern_key(a) == pattern_key(b)

    def test_pattern_still_immutable(self):
        a, _ = self._pair()
        canonicalize(a)
        with pytest.raises(AttributeError):
            a.triples = frozenset()
        with pytest.raises(AttributeError):
            a._canon = None

    def test_variable_mapping_read_only(self):
        a, _ = self._pair()
        mapping = canonicalize(a).variable_mapping
        with pytest.raises(TypeError):
            mapping[V("p")] = V("x")
        with pytest.raises(TypeError):
            del mapping[SOURCE_VAR]
        assert canonicalize(a).variable_mapping[V("v")] == mapping[V("v")]
