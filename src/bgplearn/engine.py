"""Local evaluation of basic graph patterns: join planning, SELECT/ASK, timeouts.

Evaluation cost is metered in deterministic work ticks (one tick per candidate
triple touched) and converted to seconds at a fixed nominal rate, so that
reported query times and timeout behaviour are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .patterns import GraphPattern, TriplePattern, Variable, is_var
from .rdf import Term, TripleStore

COMPLETE = "complete"
SOFT_TIMEOUT = "soft_timeout"
HARD_TIMEOUT = "hard_timeout"

TICKS_PER_SECOND = 500_000

DEFAULT_SOFT_TIMEOUT = 2.0
DEFAULT_HARD_TIMEOUT = 10.0
DEFAULT_LIMIT = 1024


class DegenerateQueryError(ValueError):
    """Raised for a query with no triple patterns and no VALUES table."""


@dataclass
class EvalResult:
    variables: tuple[Variable, ...]
    rows: list[tuple[Term, ...]]
    elapsed: float
    status: str = COMPLETE

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE

    @property
    def timed_out(self) -> bool:
        return self.status != COMPLETE

    def row_set(self) -> frozenset[tuple[Term, ...]]:
        return frozenset(self.rows)

    def bindings(self) -> list[dict[Variable, Term]]:
        return [dict(zip(self.variables, row)) for row in self.rows]


class _SoftTimeout(Exception):
    pass


class _HardTimeout(Exception):
    pass


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


def _project_vars(gp: GraphPattern, projection, values_vars) -> None:
    known = gp.variables() | set(values_vars)
    missing = [v for v in projection if v not in known]
    if missing:
        raise ValueError("projection variables not in pattern or VALUES: %s"
                         % ", ".join(v.n3() for v in missing))


def select(store: TripleStore, gp: GraphPattern, projection: list[Variable],
           values: Optional[tuple[list[Variable], list[tuple]]] = None,
           limit: Optional[int] = None,
           soft_timeout: Optional[float] = DEFAULT_SOFT_TIMEOUT,
           hard_timeout: Optional[float] = DEFAULT_HARD_TIMEOUT) -> EvalResult:
    """DISTINCT solution mappings of the natural join of gp, VALUES-restricted."""
    if not gp.triples and values is None:
        raise DegenerateQueryError("pattern with zero triples and no VALUES")
    values_vars = values[0] if values else []
    _project_vars(gp, projection, values_vars)

    soft_budget = None if soft_timeout is None else int(soft_timeout * TICKS_PER_SECOND)
    hard_budget = None if hard_timeout is None else int(hard_timeout * TICKS_PER_SECOND)
    if hard_budget is not None and hard_budget <= 0:
        return EvalResult(tuple(projection), [], 0.0, HARD_TIMEOUT)

    plan = join_plan(store, gp, set(values_vars))
    # pre-resolve term ids per plan slot; a fixed term missing from the store
    # makes the whole pattern unmatchable
    slot_ids: list[list] = []
    unmatchable = False
    for tp in plan:
        slots = []
        for node in tp:
            if is_var(node):
                slots.append(node)
            else:
                tid = store.term_id(node)
                if tid is None:
                    unmatchable = True
                slots.append(tid)
        slot_ids.append(slots)

    ticks = 0
    rows: list[tuple[Term, ...]] = []
    seen: set[tuple[Term, ...]] = set()

    def charge(n: int) -> None:
        nonlocal ticks
        ticks += n
        if hard_budget is not None and ticks > hard_budget:
            raise _HardTimeout
        if soft_budget is not None and ticks > soft_budget:
            raise _SoftTimeout

    def emit(binding: dict) -> bool:
        row = tuple(binding.get(v) for v in projection)
        if row in seen:
            return False
        charge(1)
        seen.add(row)
        rows.append(row)
        return limit is not None and len(rows) >= limit

    def extend(depth: int, binding: dict) -> bool:
        if depth == len(plan):
            return emit(binding)
        tp = plan[depth]
        slots = slot_ids[depth]
        lookup = []
        for node, slot in zip(tp, slots):
            if isinstance(slot, Variable):
                term = binding.get(slot)
                if term is None:
                    lookup.append(None)
                else:
                    tid = store.term_id(term)
                    if tid is None:
                        return False
                    lookup.append(tid)
            else:
                lookup.append(slot)
        matches = store.match_ids(*lookup)
        charge(max(1, len(matches)))
        for trip in matches:
            new = binding
            ok = True
            for node, tid in zip(tp, trip):
                if not isinstance(node, Variable):
                    continue
                term = store.term(tid)
                cur = new.get(node)
                if cur is None:
                    if new is binding:
                        new = dict(binding)
                    new[node] = term
                elif cur != term:
                    ok = False
                    break
            if ok and extend(depth + 1, new):
                return True
        return False

    status = COMPLETE
    try:
        if unmatchable and gp.triples:
            pass  # no solutions; Complete with zero rows
        else:
            initial = ([dict(zip(values_vars, row)) for row in values[1]]
                       if values else [{}])
            for binding in initial:
                charge(1)
                if extend(0, dict(binding)):
                    break
    except _SoftTimeout:
        status = SOFT_TIMEOUT
    except _HardTimeout:
        return EvalResult(tuple(projection), [], ticks / TICKS_PER_SECOND, HARD_TIMEOUT)
    return EvalResult(tuple(projection), rows, ticks / TICKS_PER_SECOND, status)


def ask(store: TripleStore, gp: GraphPattern, binding: Optional[dict] = None,
        soft_timeout: Optional[float] = DEFAULT_SOFT_TIMEOUT,
        hard_timeout: Optional[float] = DEFAULT_HARD_TIMEOUT
        ) -> tuple[bool, str]:
    """True iff at least one solution exists for the bound pattern."""
    bound = gp.substitute(binding) if binding else gp
    if not bound.triples:
        raise DegenerateQueryError("ASK over empty pattern")
    free = sorted(bound.variables(), key=lambda v: v.name)
    if not free:
        ok = all(_ground_in_store(store, tp) for tp in bound.triples)
        return ok, COMPLETE
    res = select(store, bound, [free[0]], limit=1,
                 soft_timeout=soft_timeout, hard_timeout=hard_timeout)
    return bool(res.rows), res.status


def _ground_in_store(store: TripleStore, tp: TriplePattern) -> bool:
    ids = tuple(store.term_id(node) for node in tp)
    return None not in ids and store.count(*ids) > 0
