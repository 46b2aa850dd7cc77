"""Local evaluation of basic graph patterns: join planning, SELECT, timeouts.

Evaluation cost is metered in deterministic work ticks (one tick per candidate
triple touched) and converted to seconds at a fixed nominal rate, so that
reported query times and timeout behaviour are reproducible across runs.

A plan (join order, slot layout and compiled steps) depends only on the
store, the pattern, the VALUES variables and the projection. `select` plans
each call afresh unless it is given a `plans` dict, in which it keeps the
plan of each such shape so that it runs with any VALUES table, limit and
budget. Planning costs no ticks, so a memo changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .patterns import (GraphPattern, TriplePattern, Variable, check_pattern,
                       check_projection, is_var, values_table)
from .rdf import Term, TripleStore, key_getter

COMPLETE = "complete"
SOFT_TIMEOUT = "soft_timeout"
HARD_TIMEOUT = "hard_timeout"

TICKS_PER_SECOND = 500_000

DEFAULT_SOFT_TIMEOUT = 2.0
DEFAULT_HARD_TIMEOUT = 10.0
DEFAULT_LIMIT = 1024


@dataclass
class EvalResult:
    rows: list[tuple[Term, ...]]
    elapsed: float
    status: str = COMPLETE

    @property
    def timed_out(self) -> bool:
        return self.status != COMPLETE

    def row_set(self) -> frozenset[tuple[Term, ...]]:
        return frozenset(self.rows)


class _Stop(Exception):
    """Ends a join early: the row limit is reached or the tick budget overrun."""


def _estimate(store: TripleStore, tp: TriplePattern, bound: set[Variable]) -> int:
    """Index-cardinality estimate; bound variables shrink the guess heuristically."""
    ids = []
    bound_var_slots = 0
    for node in tp:
        if is_var(node):
            ids.append(None)
            if node in bound:
                bound_var_slots += 1
        else:
            tid = store.term_id(node)
            if tid is None:
                return 0
            ids.append(tid)
    est = store.count(*ids)
    for _ in range(bound_var_slots):
        est = (est + 7) // 8
    return est


def join_plan(store: TripleStore, gp: GraphPattern,
              bound: Optional[set[Variable]] = None) -> list[TriplePattern]:
    """Greedy selectivity order; disconnected components are appended last."""
    remaining = gp.sorted_triples()
    if not remaining:
        return []
    bound_vars: set[Variable] = set(bound) if bound else set()
    order: list[TriplePattern] = []
    while remaining:
        if order:
            connected = [tp for tp in remaining
                         if not any(True for _ in tp.variables())
                         or any(v in bound_vars for v in tp.variables())]
            candidates = connected or remaining
        else:
            candidates = remaining
        best = min(candidates,
                   key=lambda tp: (_estimate(store, tp, bound_vars), tp.sort_key()))
        order.append(best)
        remaining.remove(best)
        bound_vars.update(best.variables())
    return order


def _tuple_getter(slots: list[int]):
    """`itemgetter` that returns a tuple for any number of slots."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda binding: (binding[slot],)
    if not slots:
        return lambda binding: ()
    return itemgetter(*slots)


# One plan triple compiled for one set of bound slots: the `get` of the
# store's table for its bound positions and that table's key getter, the
# (position, slot) pairs it binds, the position pairs that must hold one id
# (a repeated unbound variable), and its VALUES slots, the only negative ids.
_Pairs = tuple[tuple[int, int], ...]
_Step = tuple[Callable, Callable, _Pairs, _Pairs, tuple[int, ...]]


def _compile(store: TripleStore, triple_slots: list[tuple[int, int, int]],
             values_bound: frozenset[int]) -> list[_Step]:
    """Steps of the plan when only `values_bound` is bound before the first;
    negative slots hold constants and are always bound."""
    bound = set(values_bound)
    steps = []
    for slots in triple_slots:
        first: dict[int, int] = {}
        pairs = []
        keyed = []
        mask = 0
        for pos, slot in enumerate(slots):
            if slot < 0 or slot in bound:
                keyed.append(slot)
                mask |= 4 >> pos
            elif slot in first:
                pairs.append((first[slot], pos))
            else:
                first[slot] = pos
        writes = tuple((pos, slot) for slot, pos in first.items())
        steps.append((store.tables[mask].get, key_getter(keyed), writes, tuple(pairs),
                      tuple(values_bound.intersection(slots))))
        bound.update(first)
    return steps


class _Plan:
    """What select works out from the store, the pattern, the VALUES
    variables and the projection alone: the join order, the slot layout, the
    projection getter and the steps compiled for a row that binds every
    VALUES slot. `steps` is None when a constant is missing from the store,
    so that the query matches nothing."""

    __slots__ = ("template", "value_slots", "project", "steps")

    def __init__(self, store: TripleStore, gp: GraphPattern,
                 projection: list[Variable], values_vars: list[Variable]):
        check_pattern(gp)
        check_projection(gp, projection, values_vars)
        plan = join_plan(store, gp, set(values_vars))
        # a binding is a list of term ids: one slot per variable (plan order,
        # then VALUES and projection order), then the plan's constants,
        # addressed by negative slots from the end; a triple's lookup key is
        # then one itemgetter, and an unbound variable's slot reads None
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
                    self.steps = None
                    return
                constants.append(tid)
                slots.append(-len(constants))
            triple_slots.append(tuple(slots))
        for v in (*values_vars, *projection):
            slot_of.setdefault(v, len(slot_of))
        self.template = [None] * len(slot_of) + constants[::-1]
        self.value_slots = [slot_of[v] for v in values_vars]
        self.project = _tuple_getter([slot_of[v] for v in projection])
        self.steps = _compile(store, triple_slots, frozenset(self.value_slots))


def select(store: TripleStore, gp: GraphPattern, projection: list[Variable],
           values: Optional[tuple[list[Variable], list[tuple]]] = None,
           limit: Optional[int] = None,
           soft_timeout: Optional[float] = DEFAULT_SOFT_TIMEOUT,
           hard_timeout: Optional[float] = DEFAULT_HARD_TIMEOUT,
           plans: Optional[dict] = None) -> EvalResult:
    """DISTINCT solution mappings of the natural join of gp, VALUES-restricted.

    The plan is compiled into one step per triple, or taken from `plans`, a
    dict of plans over `store` only that keeps each plan compiled here; every
    VALUES row then runs through the steps depth first. The pattern, the
    projection and the VALUES rows are read by `patterns.check_pattern`,
    `check_projection` and `values_table`, the rules a remote endpoint's
    queries follow too; the rows are read only once the budget and the
    pattern's constants leave something to run.
    """
    values_vars = values[0] if values else []
    if plans is None:
        plan = _Plan(store, gp, projection, values_vars)
    else:
        key = (gp, tuple(values_vars), tuple(projection))
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _Plan(store, gp, projection, values_vars)

    soft_budget = None if soft_timeout is None else int(soft_timeout * TICKS_PER_SECOND)
    hard_budget = None if hard_timeout is None else int(hard_timeout * TICKS_PER_SECOND)
    if hard_budget is not None and hard_budget <= 0:
        return EvalResult([], 0.0, HARD_TIMEOUT)
    steps = plan.steps
    if steps is None:
        return EvalResult([], 0.0, COMPLETE)

    # VALUES terms missing from the store get negative ids, which match nothing
    value_slots = plan.value_slots
    template = plan.template
    term_id = store.term_id
    unknown: dict[Term, int] = {}
    work = []  # the initial binding of each VALUES row
    for row in (values_table(len(value_slots), values[1]) if values else [()]):
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
    project = plan.project
    last = len(steps) - 1
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

    def extend(binding: list, depth: int) -> None:
        nonlocal ticks
        get, key, writes, pairs, value_slots = steps[depth]
        if value_slots and unknown and any(binding[slot] < 0 for slot in value_slots):
            return
        matches = get(key(binding), ())
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
                extend(binding, depth + 1)
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
            extend(binding, 0)
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
