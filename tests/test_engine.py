import gc
import math
import random
from operator import itemgetter
from typing import Optional

import pytest

from bgplearn import endpoint, engine
from bgplearn.endpoint import local_endpoint
from bgplearn.engine import (COMPLETE, DEFAULT_HARD_TIMEOUT, DEFAULT_SOFT_TIMEOUT,
                             HARD_TIMEOUT, SOFT_TIMEOUT, TICKS_PER_SECOND,
                             EvalResult, join_plan, select)
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, check_pattern,
                               check_projection, is_var)
from bgplearn.rdf import Term, Triple, TripleStore, literal, load_ntriples

from conftest import ex, naive_select, random_pattern, random_store

V = Variable


def gp(*triples):
    return GraphPattern(triples)


CAPITAL_GP = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR))


class TestSelect:
    def test_values_restriction(self, capitals_store):
        res = select(capitals_store, CAPITAL_GP, [TARGET_VAR],
                     values=([SOURCE_VAR], [(ex("Berlin"),)]))
        assert res.row_set() == {(ex("Germany"),)}
        assert res.status == COMPLETE

    def test_no_match_complete(self, capitals_store):
        pattern = gp(TriplePattern(SOURCE_VAR, ex("nosuch"), TARGET_VAR))
        res = select(capitals_store, pattern, [SOURCE_VAR, TARGET_VAR])
        assert res.rows == [] and res.status == COMPLETE

    def test_hard_timeout_zero(self, capitals_store):
        res = select(capitals_store, CAPITAL_GP, [TARGET_VAR], hard_timeout=0)
        assert res.status == HARD_TIMEOUT and res.rows == []

    def test_degenerate_query(self, capitals_store):
        """A query needs a triple pattern, with or without VALUES."""
        for values in (None, ([SOURCE_VAR], [(ex("Berlin"),)])):
            with pytest.raises(ValueError,
                               match="^a query needs at least one triple pattern$"):
                select(capitals_store, gp(), [SOURCE_VAR], values)

    def test_distinct(self, capitals_store):
        # two patterns binding ?target the same way must not duplicate rows
        pattern = gp(TriplePattern(SOURCE_VAR, V("p"), TARGET_VAR))
        res = select(capitals_store, pattern, [TARGET_VAR],
                     values=([SOURCE_VAR], [(ex("Berlin"),)]))
        assert len(res.rows) == len(set(res.rows))
        assert (ex("Germany"),) in res.row_set()

    def test_limit(self, capitals_store):
        pattern = gp(TriplePattern(V("s"), V("p"), V("o")))
        res = select(capitals_store, pattern, [V("s")], limit=2)
        assert len(res.rows) == 2

    def test_join_two_hops(self, capitals_store):
        pattern = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), V("c")),
                     TriplePattern(V("c"), iri_a(), ex("Country")))
        res = select(capitals_store, pattern, [SOURCE_VAR, V("c")])
        assert res.row_set() == {(ex("Berlin"), ex("Germany")),
                                 (ex("Paris"), ex("France")),
                                 (ex("Oslo"), ex("Norway"))}

    def test_projection_var_must_exist(self, capitals_store):
        with pytest.raises(ValueError):
            select(capitals_store, CAPITAL_GP, [V("nope")])

    def test_soft_timeout_rows_subset(self):
        rng = random.Random(1)
        store = random_store(rng, n_triples=200, n_nodes=12, n_preds=3)
        pattern = gp(TriplePattern(V("a"), V("p"), V("b")),
                     TriplePattern(V("b"), V("q"), V("c")),
                     TriplePattern(V("c"), V("r"), V("d")))
        full = select(store, pattern, [V("a"), V("d")], soft_timeout=None,
                      hard_timeout=None)
        assert full.status == COMPLETE
        partial = select(store, pattern, [V("a"), V("d")],
                         soft_timeout=0.01, hard_timeout=None)
        assert partial.status == SOFT_TIMEOUT
        assert partial.row_set() <= full.row_set()

    def test_determinism(self, capitals_store):
        pattern = gp(TriplePattern(V("s"), V("p"), V("o")))
        r1 = select(capitals_store, pattern, [V("s"), V("o")])
        r2 = select(capitals_store, pattern, [V("s"), V("o")])
        assert r1.rows == r2.rows and r1.elapsed == r2.elapsed

    def test_values_union_property(self, capitals_store):
        rows = [(ex("Berlin"),), (ex("Paris"),), (ex("Oslo"),)]
        merged = select(capitals_store, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                        values=([SOURCE_VAR], rows))
        union = set()
        for row in rows:
            union |= select(capitals_store, CAPITAL_GP, [SOURCE_VAR, TARGET_VAR],
                            values=([SOURCE_VAR], [row])).row_set()
        assert merged.row_set() == union


def iri_a():
    from bgplearn.rdf import iri
    return iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


LOOPS_TTL = """
@prefix : <http://example.org/> .
:a :p :a .
:a :p :b .
:b :q :b .
:b :p :a .
:c :q :c .
"""

TWO_HOP_GP = gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
                TriplePattern(TARGET_VAR, iri_a(), ex("Country")))

_PINNED = {
    # ?source's VALUES row Atlantis is not in the store: it joins nothing
    "absent_values_term_joined": dict(
        pattern=gp(TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR),
                   TriplePattern(TARGET_VAR, iri_a(), ex("Country"))),
        projection=[SOURCE_VAR, TARGET_VAR],
        values=([SOURCE_VAR], [(ex("Paris"),), (ex("Atlantis"),), (ex("Berlin"),)]),
        rows=[(ex("Paris"), ex("France")), (ex("Berlin"), ex("Germany"))],
        status=COMPLETE, ticks=9),
    # ?x occurs only in VALUES and the projection: both rows give one answer
    "absent_values_term_projected": dict(
        pattern=CAPITAL_GP, projection=[V("x")],
        values=([V("x"), SOURCE_VAR], [(ex("Atlantis"), ex("Berlin")),
                                       (ex("Atlantis"), ex("Paris"))]),
        rows=[(ex("Atlantis"),)], status=COMPLETE, ticks=5),
    "absent_constant": dict(
        pattern=gp(TriplePattern(SOURCE_VAR, ex("nosuch"), TARGET_VAR)),
        projection=[SOURCE_VAR, TARGET_VAR], rows=[], status=COMPLETE, ticks=0),
    "repeated_variable": dict(
        pattern=gp(TriplePattern(V("x"), V("p"), V("x"))), projection=[V("x")],
        rows=[], status=COMPLETE, ticks=9),
    "limit_1": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o"))), projection=[V("s")],
        limit=1, rows=[(ex("Berlin"),)], status=COMPLETE, ticks=10),
    "soft_timeout": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o")),
                   TriplePattern(V("o"), V("q"), V("z"))),
        projection=[V("s"), V("z")], soft_timeout=20 / TICKS_PER_SECOND,
        rows=[(ex("Berlin"), ex("Country")), (ex("Berlin"), ex("France")),
              (ex("Paris"), ex("Country"))],
        status=SOFT_TIMEOUT, ticks=21),
    "repeated_variable_matches": dict(
        store=LOOPS_TTL,
        pattern=gp(TriplePattern(V("x"), V("p"), V("x"))),
        projection=[V("x"), V("p")],
        rows=[(ex("a"), ex("p")), (ex("b"), ex("q")), (ex("c"), ex("q"))],
        status=COMPLETE, ticks=9),
    # the budget is overrun in the second triple's lookups: no rows, but the
    # metered time is every tick spent
    "hard_timeout_mid_join": dict(
        pattern=gp(TriplePattern(V("s"), V("p"), V("o")),
                   TriplePattern(V("o"), V("q"), V("z"))),
        projection=[V("s"), V("z")], hard_timeout=20 / TICKS_PER_SECOND,
        rows=[], status=HARD_TIMEOUT, ticks=21),
    "limit_at_last_depth": dict(
        pattern=TWO_HOP_GP, projection=[SOURCE_VAR, TARGET_VAR], limit=2,
        rows=[(ex("Berlin"), ex("Germany")), (ex("Paris"), ex("France"))],
        status=COMPLETE, ticks=8),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_select_pinned(capitals_store, case):
    """Rows in order, status and the exact metered time of fixed queries."""
    c = _PINNED[case]
    store = load_ntriples(c["store"]) if "store" in c else capitals_store
    res = select(store, c["pattern"], c["projection"], c.get("values"),
                 c.get("limit"), c.get("soft_timeout", 2.0), c.get("hard_timeout"))
    assert res.rows == c["rows"]
    assert res.status == c["status"]
    assert res.elapsed == c["ticks"] / TICKS_PER_SECOND


class TestValuesRows:
    def test_bare_term_row_rejected(self, capitals_store):
        with pytest.raises(ValueError):
            select(capitals_store, CAPITAL_GP, [TARGET_VAR],
                   values=([SOURCE_VAR], [ex("Berlin")]))


class TestJoinPlan:
    def test_single_triple(self, capitals_store):
        tp = TriplePattern(SOURCE_VAR, ex("capitalOf"), TARGET_VAR)
        assert join_plan(capitals_store, gp(tp)) == [tp]

    def test_rare_predicate_first(self, capitals_store):
        rare = TriplePattern(SOURCE_VAR, ex("locatedIn"), V("v"))   # 1 triple
        common = TriplePattern(V("v"), ex("capitalOf"), TARGET_VAR)  # 3 triples
        plan = join_plan(capitals_store, gp(rare, common))
        assert plan[0] == rare

    def test_fixed_subject_before_all_variable(self, capitals_store):
        fixed = TriplePattern(ex("Berlin"), V("p"), V("v"))
        open_ = TriplePattern(V("a"), V("q"), V("b"))
        plan = join_plan(capitals_store, gp(fixed, open_))
        assert plan[0] == fixed


def _pattern_from_store(rng, store):
    """One to three store triples, each after the first sharing a node with
    an earlier one, with most distinct terms made variables: the pattern has
    at least the chosen triples as a solution."""
    triples = list(store.triples())
    chosen = [rng.choice(triples)]
    for _ in range(rng.randint(0, 2)):
        nodes = {n for t in chosen for n in (t.s, t.o)}
        chosen.append(rng.choice([t for t in triples if t.s in nodes or t.o in nodes]))
    names = iter([SOURCE_VAR, TARGET_VAR] + [V("v%d" % i) for i in range(7)])
    as_var = {term: next(names)
              for term in dict.fromkeys(n for t in chosen for n in t)
              if rng.random() < 0.7}
    return GraphPattern(TriplePattern(*(as_var.get(n, n) for n in t)) for t in chosen)


class TestOracleEquivalence:
    def test_random_patterns_match_bruteforce(self):
        rng = random.Random(42)
        checked = 0
        while checked < 60:
            store = random_store(rng, n_triples=rng.randint(10, 60),
                                 n_nodes=rng.randint(5, 12), n_preds=3)
            pattern = random_pattern(rng, n_triples=rng.randint(1, 3),
                                     n_vars=3, store=store)
            projection = sorted(pattern.variables(), key=lambda v: v.name)
            if not projection:
                continue
            res = select(store, pattern, projection,
                         soft_timeout=None, hard_timeout=None)
            expected = naive_select(store, pattern, projection)
            assert res.row_set() == expected
            checked += 1

    def test_random_values_tables_match_bruteforce(self):
        """VALUES rows over pattern variables and one variable the pattern
        does not use: most rows take the pattern variables' terms from one of
        the pattern's solutions, the rest mix store terms and absent terms."""
        rng = random.Random(43)
        checked = nonempty = 0
        while checked < 60:
            store = random_store(rng, n_triples=rng.randint(10, 40),
                                 n_nodes=rng.randint(5, 10), n_preds=3)
            pattern = (_pattern_from_store(rng, store) if rng.random() < 0.75 else
                       random_pattern(rng, n_triples=rng.randint(1, 3), n_vars=2,
                                      store=store))
            pattern_vars = sorted(pattern.variables(), key=lambda v: v.name)
            if not pattern_vars:
                continue
            solutions = sorted(naive_select(store, pattern, pattern_vars),
                               key=lambda row: [t.sort_key() for t in row])
            values_vars = rng.sample(pattern_vars,
                                     rng.randint(1, min(2, len(pattern_vars))))
            if rng.random() < 0.5:
                values_vars.append(V("extra"))
            choices = store.terms + [ex("absent1"), ex("absent2")]
            rows = []
            for _ in range(rng.randint(1, 5)):
                if solutions and rng.random() < 0.75:
                    solution = dict(zip(pattern_vars, rng.choice(solutions)))
                    rows.append(tuple(solution[v] if v in solution
                                      else rng.choice(choices) for v in values_vars))
                else:
                    rows.append(tuple(rng.choice(choices) for _ in values_vars))
            projection = sorted(set(pattern_vars) | set(values_vars),
                                key=lambda v: v.name)
            res = select(store, pattern, projection, values=(values_vars, rows),
                         soft_timeout=None, hard_timeout=None)
            expected = naive_select(store, pattern, projection, (values_vars, rows))
            assert res.row_set() == expected
            checked += 1
            nonempty += bool(expected)
        assert nonempty >= checked // 2


# engine.select before plans were memoised and before each step read its own
# lookup table, with today's query-shape checks, kept as the reference that
# every plan, memoised or not, must reproduce bit for bit: each step looks its
# matches up through `store.match_ids`, under a key padded with None

# One plan triple compiled for one set of bound slots: the getter of its
# padded lookup key, the (position, slot) pairs it binds, the position pairs
# that must hold one id (an unbound variable repeated in the triple), and
# whether its key reads a bound VALUES slot, the only kind that can hold a
# negative id.
_Pairs = tuple[tuple[int, int], ...]
_Step = tuple[itemgetter, _Pairs, _Pairs, bool]


class _Stop(Exception):
    """Ends a join early: the row limit is reached or the tick budget overrun."""


def _tuple_getter(slots: list[int]):
    """`itemgetter` that returns a tuple for any number of slots."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda binding: (binding[slot],)
    if not slots:
        return lambda binding: ()
    return itemgetter(*slots)


def _compile(triple_slots: list[tuple[int, int, int]],
             values_bound: frozenset[int]) -> list[_Step]:
    """Steps of the plan when only `values_bound` is bound before the first;
    negative slots hold constants and are always bound."""
    bound = set(values_bound)
    steps = []
    for slots in triple_slots:
        first: dict[int, int] = {}
        pairs = []
        for pos, slot in enumerate(slots):
            if slot < 0 or slot in bound:
                continue
            if slot in first:
                pairs.append((first[slot], pos))
            else:
                first[slot] = pos
        writes = tuple((pos, slot) for slot, pos in first.items())
        steps.append((itemgetter(*slots), writes, tuple(pairs),
                      not values_bound.isdisjoint(slots)))
        bound.update(first)
    return steps


def _reference_select(store: TripleStore, gp: GraphPattern,
                      projection: list[Variable],
                      values: Optional[tuple[list[Variable], list[tuple]]] = None,
                      limit: Optional[int] = None,
                      soft_timeout: Optional[float] = DEFAULT_SOFT_TIMEOUT,
                      hard_timeout: Optional[float] = DEFAULT_HARD_TIMEOUT) -> EvalResult:
    """DISTINCT solution mappings of the natural join of gp, VALUES-restricted.

    The plan is compiled once into one step per triple; every VALUES row then
    runs through the steps depth first.
    """
    values_vars = values[0] if values else []
    check_pattern(gp)
    check_projection(gp, projection, values_vars)

    soft_budget = None if soft_timeout is None else int(soft_timeout * TICKS_PER_SECOND)
    hard_budget = None if hard_timeout is None else int(hard_timeout * TICKS_PER_SECOND)
    if hard_budget is not None and hard_budget <= 0:
        return EvalResult([], 0.0, HARD_TIMEOUT)
    if limit == 0:  # a query for no rows is complete without running
        return EvalResult([], 0.0, COMPLETE)

    plan = join_plan(store, gp, set(values_vars))
    # a binding is a list of term ids: one slot per variable (plan order, then
    # VALUES and projection order), then the plan's constants, addressed by
    # negative slots from the end; a triple's lookup key is then one
    # itemgetter, and an unbound variable's slot reads None
    slot_of: dict[Variable, int] = {}
    constants: list[int] = []
    triple_slots = []
    for tp in plan:
        slots = []
        for node in tp:
            if is_var(node):
                slots.append(slot_of.setdefault(node, len(slot_of)))
                continue
            tid = store.term_id(node)
            if tid is None:  # a constant missing from the store matches nothing
                return EvalResult([], 0.0, COMPLETE)
            constants.append(tid)
            slots.append(-len(constants))
        triple_slots.append(tuple(slots))
    for v in (*values_vars, *projection):
        slot_of.setdefault(v, len(slot_of))
    template = [None] * len(slot_of) + constants[::-1]

    # VALUES terms missing from the store get negative ids, which match
    # nothing; a row holds one term per VALUES variable, and a shorter or
    # longer row is an error
    value_slots = [slot_of[v] for v in values_vars]
    width = len(value_slots)
    steps = _compile(triple_slots, frozenset(value_slots))
    term_id = store.term_id
    unknown: dict[Term, int] = {}
    work = []  # the initial binding of each VALUES row
    for row in (values[1] if values else [()]):
        if len(row) != width:
            raise ValueError("VALUES row %r is %s than its %d variables" % (
                row, "longer" if len(row) > width else "shorter", width))
        binding = template.copy()
        for slot, term in zip(value_slots, row):
            tid = term_id(term)
            if tid is None:
                tid = unknown.setdefault(term, ~len(unknown))
            binding[slot] = tid
        work.append(binding)

    budget = min((b for b in (soft_budget, hard_budget) if b is not None),
                 default=math.inf)
    max_rows = math.inf if limit is None else limit
    project = _tuple_getter([slot_of[v] for v in projection])
    match_ids = store.match_ids
    last = len(triple_slots) - 1
    found: dict[tuple, None] = {}  # distinct projected id rows, in order
    ticks = 0

    def emit(binding: list) -> None:
        nonlocal ticks
        row = project(binding)
        if row not in found:
            ticks += 1
            if ticks > budget:
                raise _Stop
            found[row] = None
            if len(found) >= max_rows:
                raise _Stop

    def extend(binding: list, steps: list[_Step], depth: int) -> None:
        nonlocal ticks
        key, writes, pairs, reads_values = steps[depth]
        lookup = key(binding)
        if reads_values and unknown and any(tid is not None and tid < 0
                                            for tid in lookup):
            return
        matches = match_ids(*lookup)
        ticks += len(matches) or 1
        if ticks > budget:
            raise _Stop
        # bind in place; the slots are reset once all matches are tried
        for trip in matches:
            if pairs and any(trip[a] != trip[b] for a, b in pairs):
                continue
            for pos, slot in writes:
                binding[slot] = trip[pos]
            if depth < last:
                extend(binding, steps, depth + 1)
            else:
                emit(binding)
        for _pos, slot in writes:
            binding[slot] = None

    status = COMPLETE
    try:
        for binding in work:
            ticks += 1
            if ticks > budget:
                raise _Stop
            extend(binding, steps, 0)
    except _Stop:
        if ticks > budget:
            if hard_budget is not None and ticks > hard_budget:
                return EvalResult([], ticks / TICKS_PER_SECOND, HARD_TIMEOUT)
            status = SOFT_TIMEOUT

    missing = list(unknown)
    term = store.term

    def decode(tid: int) -> Term:
        return term(tid) if tid >= 0 else missing[~tid]

    rows = [tuple(map(decode, row)) for row in found]
    return EvalResult(rows, ticks / TICKS_PER_SECOND, status)


def _random_budget(rng, ticks: int):
    """Soft and hard timeouts: none, spent at once, ample, or short of the
    `ticks` the query needs in full, so that it times out in the middle."""
    return [rng.choice([None, 0.0, 10.0, rng.randint(1, ticks + 1) / TICKS_PER_SECOND])
            for _ in ("soft", "hard")]


def _random_query(rng, store):
    """A pattern with repeated variables and sometimes an absent constant, a
    projection, and VALUES variables that may include one the pattern lacks."""
    variables = [SOURCE_VAR, TARGET_VAR, V("v0")][:rng.randint(1, 3)]
    nodes = sorted(store.terms, key=lambda t: t.sort_key())
    preds = sorted({tr.p for tr in store.triples()}, key=lambda t: t.sort_key())
    if rng.random() < 0.1:
        preds.append(ex("absent"))
    pattern = GraphPattern(
        TriplePattern(rng.choice(variables * 3 + nodes[:1]),
                      rng.choice(variables + preds * 2),
                      rng.choice(variables * 3 + nodes[:1]))
        for _ in range(rng.randint(1, 3)))
    pattern_vars = sorted(pattern.variables(), key=lambda v: v.name)
    values_vars = rng.sample(pattern_vars, rng.randint(0, min(2, len(pattern_vars))))
    if rng.random() < 0.3:
        values_vars.append(V("extra"))
    known = pattern_vars + values_vars
    projection = rng.sample(known, rng.randint(1, len(known))) if known else []
    return pattern, projection, values_vars


def _random_table(rng, store, values_vars):
    """Full rows of store terms and absent terms."""
    choices = store.terms + [ex("absent1"), ex("absent2")]
    return [tuple(rng.choice(choices) for _ in values_vars)
            for _ in range(rng.randint(0, 6))]


def _same(res, ref):
    assert (res.rows, res.status) == (ref.rows, ref.status)
    assert repr(res.elapsed) == repr(ref.elapsed)


class TestPlanMemo:
    def test_select_equals_reference(self):
        """Rows in order, status and ticks equal the reference, planned per
        call and with one memo shared across tables, budgets and limits."""
        rng = random.Random(44)
        for _ in range(40):
            store = random_store(rng, n_triples=rng.randint(15, 60),
                                 n_nodes=rng.randint(3, 8), n_preds=3)
            memo = {}
            shapes = [_random_query(rng, store) for _ in range(6)]
            for _ in range(30):
                pattern, projection, values_vars = rng.choice(shapes)
                if rng.random() < 0.3:  # one pattern and projection, another shape
                    values_vars = values_vars[::-1]
                values = None
                if values_vars or rng.random() < 0.3:
                    values = (values_vars, _random_table(rng, store, values_vars))
                limit = rng.choice([None, 1, 2, 3, 5, 8])
                full = _reference_select(store, pattern, projection, values, limit,
                                         None, None)
                soft, hard = _random_budget(rng, round(full.elapsed * TICKS_PER_SECOND))
                args = (store, pattern, projection, values, limit, soft, hard)
                ref = _reference_select(*args)
                res = select(*args)
                assert all(None not in row for row in res.rows)
                _same(res, ref)
                _same(select(*args, plans=memo), ref)

    def test_bounded_memo_equals_engine(self, capitals_store, monkeypatch):
        monkeypatch.setattr(endpoint, "_MEMO_BOUND", 2)
        ep = local_endpoint(capitals_store)
        rng = random.Random(6)
        sources = [ex(name) for name in ("Berlin", "Paris", "Oslo", "Rome")]
        for _ in range(60):
            pattern = random_pattern(rng, n_triples=rng.randint(1, 2), n_vars=1,
                                     store=capitals_store)
            projection = sorted(pattern.variables() | {SOURCE_VAR},
                                key=lambda v: v.name)
            values = ([SOURCE_VAR], [(s,) for s in rng.sample(sources, 2)])
            res = ep.run_select(pattern, projection, values=values)
            expected = select(capitals_store, pattern, projection, values=values)
            assert (res.rows, res.status, res.elapsed) == (
                expected.rows, expected.status, expected.elapsed)
            assert max(map(len, (ep._cache, ep._tables, ep._plans))) <= 2

    def test_projection_error_never_memoised(self, capitals_store):
        memo = {}
        for _ in range(3):
            with pytest.raises(ValueError, match="projection variables"):
                select(capitals_store, CAPITAL_GP, [V("nowhere")], plans=memo)
            assert memo == {}
        ep = local_endpoint(capitals_store)
        for _ in range(2):
            with pytest.raises(ValueError, match="projection variables"):
                ep.run_select(CAPITAL_GP, [V("nowhere")])
        assert ep._plans == {}


def _chain_store():
    """n0 -next-> n1 ... -> n25, with dead ends off the chain, two more ends
    after n24, a self-loop and a literal of quotes, newlines and `#` text."""
    nxt, loop, note = ex("next"), ex("loop"), ex("note")
    triples = [Triple(ex("n%d" % i), nxt, ex("n%d" % (i + 1))) for i in range(25)]
    triples += [Triple(ex("n%d" % i), nxt, ex("dead%d" % i)) for i in (3, 9, 17, 22)]
    triples += [Triple(ex("n24"), nxt, ex("z1")), Triple(ex("n24"), nxt, ex("z2")),
                Triple(ex("n2"), loop, ex("n2")), Triple(ex("n2"), loop, ex("n3")),
                Triple(ex("n3"), note, QUOTED), Triple(ex("n4"), note, QUOTED)]
    return TripleStore(triples)


QUOTED = literal('say "hi"\n# not a comment\n""" \\ \' + )\n', lang="en")


def _chain(length):
    nodes = [SOURCE_VAR, *(V("v%d" % i) for i in range(1, length)), TARGET_VAR]
    return gp(*(TriplePattern(a, ex("next"), b) for a, b in zip(nodes, nodes[1:])))


def _hand_made_queries():
    """(pattern, projection, values) of each case the generated joins must
    reproduce: a chain past one generated function's nesting, repeated
    variables, an absent constant, unknown VALUES terms read by a step (in
    the first block and in a later one), a projected VALUES-only variable, an
    empty VALUES table and no VALUES."""
    x, y = V("x"), V("y")
    absent = ex("absent")
    chain = _chain(25)
    ends = [(ex("n0"), ex("n25")), (ex("n0"), absent), (absent, ex("z1")),
            (ex("n1"), ex("z2")), (ex("n0"), ex("z1"))]
    return [
        (chain, [TARGET_VAR], ([SOURCE_VAR], [(ex("n0"),), (absent,), (ex("n1"),)])),
        (chain, [SOURCE_VAR, TARGET_VAR], ([SOURCE_VAR, TARGET_VAR], ends)),
        (chain, [TARGET_VAR, V("v24")], None),
        # steps 0-15 walk the chain; step 16, the first of the second
        # generated function, reads ?extra
        (gp(*_chain(16).triples, TriplePattern(V("extra"), y, x)), [TARGET_VAR, y],
         ([SOURCE_VAR, V("extra")], [(ex("n0"), ex("n2")), (ex("n0"), absent),
                                     (ex("n1"), ex("n3")), (ex("n9"), ex("n2"))])),
        (gp(TriplePattern(x, ex("loop"), x), TriplePattern(x, ex("next"), y),
            TriplePattern(y, ex("next"), TARGET_VAR)), [x, y, TARGET_VAR], None),
        (gp(TriplePattern(x, y, x)), [x, y], None),
        (gp(TriplePattern(SOURCE_VAR, ex("next"), x), TriplePattern(x, absent, y)),
         [y], ([SOURCE_VAR], [(ex("n0"),)])),
        (gp(TriplePattern(SOURCE_VAR, ex("next"), x), TriplePattern(x, ex("next"), y)),
         [V("extra"), y, SOURCE_VAR],
         ([SOURCE_VAR, V("extra")], [(ex("n%d" % i), ex("e%d" % i)) for i in range(6)]
          + [(absent, ex("n1")), (ex("n1"), absent), (ex("n1"), absent)])),
        (gp(TriplePattern(SOURCE_VAR, ex("next"), x)), [x], ([SOURCE_VAR], [])),
        (gp(TriplePattern(x, ex("note"), QUOTED), TriplePattern(SOURCE_VAR, ex("next"), x)),
         [SOURCE_VAR, x], None),
    ]


class TestGeneratedJoin:
    def test_hand_made_plans_equal_reference(self):
        """Every soft budget up to the full ticks, and every limit up to the
        full row count, give the reference's rows, status and elapsed."""
        store = _chain_store()
        for pattern, projection, values in _hand_made_queries():
            full = _reference_select(store, pattern, projection, values, None, None, None)
            ticks = round(full.elapsed * TICKS_PER_SECOND)
            limits = [None, *range(len(full.rows) + 1)]
            # each budget with one limit in turn, and each limit unbudgeted
            cases = [(limits[b % len(limits)], b / TICKS_PER_SECOND)
                     for b in range(ticks + 1)] + [(limit, None) for limit in limits]
            memo = {}
            for limit, soft in cases:
                args = (store, pattern, projection, values, limit, soft, None)
                ref = _reference_select(*args)
                _same(select(*args), ref)
                _same(select(*args, plans=memo), ref)
        assert [len(_reference_select(store, q[0], q[1], q[2]).rows)
                for q in _hand_made_queries()] == [3, 2, 3, 10, 2, 1, 0, 8, 0, 2]

    def test_bounded_cache_equals_reference(self, monkeypatch):
        monkeypatch.setattr(engine, "_RUNS", {})
        monkeypatch.setattr(engine, "_RUNS_BOUND", 2)
        rng = random.Random(45)
        store = random_store(rng, n_triples=40, n_nodes=6, n_preds=3)
        for _ in range(60):
            pattern, projection, values_vars = _random_query(rng, store)
            values = (values_vars, _random_table(rng, store, values_vars))
            args = (store, pattern, projection, values, rng.choice([None, 1, 3]))
            _same(select(*args), _reference_select(*args))
            assert len(engine._RUNS) <= 2

    def test_cache_keys_hold_ints_only(self):
        store = _chain_store()
        for pattern, projection, values in _hand_made_queries():
            select(store, pattern, projection, values)
        assert engine._RUNS

        def leaves(key):
            for part in key:
                yield from leaves(part) if isinstance(part, tuple) else [part]

        assert all(type(leaf) is int for key in engine._RUNS for leaf in leaves(key))

    def test_no_cyclic_garbage(self):
        """A query leaves nothing for the cyclic collector, whether it
        completes, times out or stops at its limit."""
        store = _chain_store()
        chain = _chain(25)
        queries = [dict(), dict(soft_timeout=10 / TICKS_PER_SECOND), dict(limit=1)]
        gc.collect()
        gc.disable()
        try:
            for kwargs in queries:
                res = select(store, chain, [TARGET_VAR], ([SOURCE_VAR], [(ex("n0"),)]),
                             **kwargs)
                assert gc.collect() == 0
            assert (res.status, len(res.rows)) == (COMPLETE, 1)
        finally:
            gc.enable()
