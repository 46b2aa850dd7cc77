"""Local evaluation of basic graph patterns: join planning, SELECT, timeouts.

Evaluation cost is metered in deterministic work ticks (one tick per candidate
triple touched) and converted to seconds at a fixed nominal rate, so that
reported query times and timeout behaviour are reproducible across runs.

A plan (join order, slot layout, each step's lookup table and the constants'
ids) depends only on the store, the pattern, the VALUES variables and the
projection. `select` plans each call afresh unless it is given a `plans`
dict, in which it keeps the plan of each such shape so that it runs with any
VALUES table, limit and budget. Planning costs no ticks, so a memo changes no
result.

A plan runs as one generated Python function: a loop over the VALUES rows and
one nested `for` loop per triple, with the lookups, the tick counting and the
budget and limit checks written out inline. The function depends only on the
plan's slot layout, so one is generated per layout and kept for the process;
the first query of a layout pays for compiling it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from .patterns import (GraphPattern, TriplePattern, Variable, check_limit,
                       check_pattern, check_projection, check_values_entries,
                       is_var, values_table)
from .rdf import Term, TripleStore

COMPLETE = "complete"
SOFT_TIMEOUT = "soft_timeout"
HARD_TIMEOUT = "hard_timeout"

TICKS_PER_SECOND = 500_000

DEFAULT_SOFT_TIMEOUT = 2.0
DEFAULT_HARD_TIMEOUT = 10.0
DEFAULT_LIMIT = 1024


@dataclass
class EvalResult:
    rows: list[tuple]  # of terms, or of store ids: an endpoint's handles
    elapsed: float
    status: str = COMPLETE

    @property
    def timed_out(self) -> bool:
        return self.status != COMPLETE

    def row_set(self) -> frozenset[tuple]:
        return frozenset(self.rows)


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


# the join function and table masks of each plan shape: its triples' slots,
# its VALUES slots and its projection slots, ints only; a function depends on
# nothing else, so every store and endpoint shares it; cleared once it holds
# this many
_RUNS_BOUND = 1024
_RUNS: dict[tuple, tuple[Callable, tuple[int, ...]]] = {}

# steps per generated function: CPython refuses more than 20 nested blocks
_BLOCK = 16


def _generate(triple_slots: tuple[tuple[int, int, int], ...],
              value_slots: tuple[int, ...], project_slots: tuple[int, ...]):
    """The join function of a plan shape and the table mask of each step.

    `run(rows, gets, consts, budget, max_rows, found)` walks each row of
    VALUES ids through one nested loop per triple, looking each step's
    matches up with its `get`. It adds each new projected id row to the dict
    `found` and returns its ticks, stopping once they pass `budget` or
    `found` holds `max_rows` rows. Slot n is the local `vn` and slot -n the
    constant `cn`, `consts[n - 1]`. Each `_BLOCK` steps are one function,
    which passes its bound variables to the next block's and gets back its
    ticks and whether to stop. The source holds only fixed names and slot
    numbers, never a term."""
    source: list[str] = []

    def put(depth: int, *lines: str) -> None:
        source.extend(" " * depth + line for line in lines)

    def names(prefix: str, slots) -> str:
        return "".join("%s%d, " % (prefix, n) for n in slots)

    # the lowest slot, if negative, is minus the number of constants
    consts = names("c", range(1, 1 - min(0, *map(min, triple_slots))))
    bound = set(value_slots)
    masks = []
    for start in range(0, len(triple_slots), _BLOCK):
        steps = triple_slots[start:start + _BLOCK]
        if start == 0:
            stop = done = "return ticks"
            put(0, "def run(rows, gets, consts, budget, max_rows, found):", " ticks = 0")
        else:
            stop, done = "return ticks, True", "return ticks, False"
            put(0, "def b%d(ticks, gets, consts, budget, max_rows, found, %s):"
                % (start, names("v", sorted(bound))))
        put(1, "%s= gets[%d:%d]" % (names("g", range(start, start + len(steps))),
                                    start, start + len(steps)))
        if consts:
            put(1, consts + "= consts")
        depth = 1
        if start == 0:
            put(1, "for %s in rows:" % (names("v", value_slots) or "_"),
                " ticks += 1", " if ticks > budget: return ticks")
            depth = 2
        for i, slots in enumerate(steps, start):
            keyed, targets, repeats = [], [], []
            mask = 0
            for pos, slot in enumerate(slots):
                name = "v%d" % slot if slot >= 0 else "c%d" % -slot
                if slot < 0 or slot in bound:
                    keyed.append(name)
                    targets.append("_")
                    mask |= 4 >> pos
                elif name in targets:  # a repeated variable holds one id
                    repeats.append("e%d != %s" % (pos, name))
                    targets.append("e%d" % pos)
                else:
                    targets.append(name)
            masks.append(mask)
            reads = sorted(set(value_slots).intersection(slots))
            if reads:  # an unknown VALUES term, a negative id, matches nothing
                put(depth, "if %s: %s" % (" or ".join("v%d < 0" % v for v in reads),
                                          "continue" if depth > 1 else done))
            key = keyed[0] if len(keyed) == 1 else "(%s)" % "".join(k + ", " for k in keyed)
            put(depth, "m = g%d(%s, ())" % (i, key), "ticks += len(m) or 1",
                "if ticks > budget: " + stop, "for %s in m:" % ", ".join(targets))
            depth += 1
            if repeats:
                put(depth, "if %s: continue" % " or ".join(repeats))
            bound.update(slot for slot in slots if slot >= 0)
        if start + _BLOCK < len(triple_slots):
            put(depth, "ticks, stop = b%d(ticks, gets, consts, budget, max_rows, found, %s)"
                % (start + _BLOCK, names("v", sorted(bound))), "if stop: " + stop)
        else:
            put(depth, "row = (%s)" % names("v", project_slots), "if row not in found:",
                " ticks += 1", " if ticks > budget: " + stop, " found[row] = None",
                " if len(found) >= max_rows: " + stop)
        put(1, done)
    namespace: dict = {}
    exec("\n".join(source), namespace)
    return namespace["run"], tuple(masks)


class _Plan:
    """What select works out from the store, the pattern, the VALUES
    variables and the projection alone: the join order, the generated join
    function of its shape, each step's table `get` and the constants' ids.
    `run` is None when a constant is missing from the store, so that the
    query matches nothing."""

    __slots__ = ("run", "gets", "consts")

    def __init__(self, store: TripleStore, gp: GraphPattern,
                 projection: list[Variable], values_vars: list[Variable]):
        check_pattern(gp)
        check_projection(gp, projection, values_vars)
        plan = join_plan(store, gp, set(values_vars))
        # one slot per variable, in plan order and then VALUES order; the
        # plan's constants take slots -1, -2, ...
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
                    self.run = None
                    return
                constants.append(tid)
                slots.append(-len(constants))
            triple_slots.append(tuple(slots))
        for v in values_vars:
            slot_of.setdefault(v, len(slot_of))
        shape = (tuple(triple_slots), tuple(slot_of[v] for v in values_vars),
                 tuple(slot_of[v] for v in projection))
        compiled = _RUNS.get(shape)
        if compiled is None:
            if len(_RUNS) >= _RUNS_BOUND:
                _RUNS.clear()
            compiled = _RUNS[shape] = _generate(*shape)
        self.run, masks = compiled
        self.gets = tuple(store.tables[mask].get for mask in masks)
        self.consts = tuple(constants)


def term_ids(store: TripleStore, terms: list[Term]) -> list[int]:
    """The store id of each term; a term the store lacks gets a negative id,
    one for each distinct such term, which matches nothing."""
    ids = list(map(store.term_id, terms))
    if None in ids:
        unknown: dict[Term, int] = {}
        ids = [unknown.setdefault(term, ~len(unknown)) if tid is None else tid
               for term, tid in zip(terms, ids)]
    return ids


def select(store: TripleStore, gp: GraphPattern, projection: list[Variable],
           values: Optional[tuple[list[Variable], list[tuple]]] = None,
           limit: Optional[int] = None,
           soft_timeout: Optional[float] = DEFAULT_SOFT_TIMEOUT,
           hard_timeout: Optional[float] = DEFAULT_HARD_TIMEOUT,
           plans: Optional[dict] = None, decode: bool = True) -> EvalResult:
    """DISTINCT solution mappings of the natural join of gp, VALUES-restricted.

    The plan is made here, or taken from `plans`, a dict of plans over
    `store` only that keeps each plan made here; its join function then runs
    every VALUES row through the triples depth first. The limit, pattern
    and projection are read by `patterns.check_limit`, `check_pattern` and
    `check_projection`: the rules a remote endpoint's queries follow too.

    With `decode=True`, the form for a direct caller and the reference for
    the endpoint's, each VALUES entry is a `Term` and each row holds terms;
    the VALUES rows are read by `values_table` and `check_values_entries`,
    only once the budget, the constants and the limit leave something to
    run.

    With `decode=False`, the one form `Endpoint.run_select` asks for, the
    query is in the store's ids, both ways: each VALUES entry is an id, as
    `term_ids` gives, read as given (the endpoint checks the table), and
    each row holds ids, which `store.term` decodes. A negative id, for a
    term the store lacks, matches nothing; a projected variable that only
    the VALUES table binds holds the id it was given.
    """
    check_limit(limit)
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
    if plan.run is None or limit == 0:
        return EvalResult([], 0.0, COMPLETE)

    work = values[1] if values else [()]  # the ids of each VALUES row
    missing: dict[int, Term] = {}  # the term of each negative id
    if values and decode:
        work = values_table(len(values_vars), work)
        check_values_entries(work, Term)
        flat = list(chain.from_iterable(work))
        ids = term_ids(store, flat)
        missing = {tid: term for term, tid in zip(flat, ids) if tid < 0}
        if values_vars:  # else every row is empty
            work = list(zip(*[iter(ids)] * len(values_vars)))

    budget = min((b for b in (soft_budget, hard_budget) if b is not None),
                 default=math.inf)
    found: dict[tuple, None] = {}  # distinct projected id rows, in order
    ticks = plan.run(work, plan.gets, plan.consts, budget,
                     math.inf if limit is None else limit, found)
    status = COMPLETE
    if ticks > budget:
        if hard_budget is not None and ticks > hard_budget:
            return EvalResult([], ticks / TICKS_PER_SECOND, HARD_TIMEOUT)
        status = SOFT_TIMEOUT
    if not decode:
        return EvalResult(list(found), ticks / TICKS_PER_SECOND, status)

    term = store.term

    def decode(tid: int) -> Term:
        return term(tid) if tid >= 0 else missing[tid]

    rows = [tuple(map(decode if missing else term, row)) for row in found]
    return EvalResult(rows, ticks / TICKS_PER_SECOND, status)
