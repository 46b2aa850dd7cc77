"""Local evaluation of basic graph patterns: join planning, SELECT, timeouts.

Evaluation cost is metered in deterministic work ticks (one tick per candidate
triple touched) and converted to seconds at a fixed nominal rate, so that
reported query times and timeout behaviour are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    # bindings are lists of term ids indexed by a slot per variable; each plan
    # triple compiles to (is_var, slot or term id) entries. A fixed term
    # missing from the store makes the whole pattern unmatchable.
    slot_of: dict[Variable, int] = {}
    compiled: list[list[tuple[bool, Optional[int]]]] = []
    unmatchable = False
    for tp in plan:
        entries = []
        for node in tp:
            if is_var(node):
                entries.append((True, slot_of.setdefault(node, len(slot_of))))
            else:
                tid = store.term_id(node)
                unmatchable = unmatchable or tid is None
                entries.append((False, tid))
        compiled.append(entries)
    for v in (*values_vars, *projection):
        slot_of.setdefault(v, len(slot_of))
    projected = [slot_of[v] for v in projection]

    # VALUES terms missing from the store get negative ids, which match
    # nothing; a None entry leaves its variable unbound
    unknown: dict[Term, int] = {}
    value_slots = [slot_of[v] for v in values_vars]
    initial = []
    for row in (values[1] if values else [()]):
        binding = [None] * len(slot_of)
        for slot, term in zip(value_slots, row):
            tid = store.term_id(term)
            if tid is None and term is not None:
                tid = unknown.setdefault(term, ~len(unknown))
            binding[slot] = tid
        initial.append(binding)
    missing = list(unknown)

    def decode(tid: Optional[int]) -> Optional[Term]:
        if tid is None:
            return None
        return store.term(tid) if tid >= 0 else missing[~tid]

    ticks = 0
    rows: list[tuple[Term, ...]] = []
    seen: set[tuple] = set()

    def charge(n: int) -> None:
        nonlocal ticks
        ticks += n
        if hard_budget is not None and ticks > hard_budget:
            raise _HardTimeout
        if soft_budget is not None and ticks > soft_budget:
            raise _SoftTimeout

    def emit(binding: list) -> bool:
        key = tuple(binding[slot] for slot in projected)
        if key in seen:
            return False
        charge(1)
        seen.add(key)
        rows.append(tuple(map(decode, key)))
        return limit is not None and len(rows) >= limit

    def extend(depth: int, binding: list) -> bool:
        if depth == len(compiled):
            return emit(binding)
        entries = compiled[depth]
        lookup = [binding[x] if is_variable else x for is_variable, x in entries]
        if unknown and any(tid is not None and tid < 0 for tid in lookup):
            return False
        matches = store.match_ids(*lookup)
        charge(max(1, len(matches)))
        for trip in matches:
            new = binding
            for (is_variable, slot), tid in zip(entries, trip):
                if not is_variable:
                    continue
                cur = new[slot]
                if cur is None:
                    if new is binding:
                        new = list(binding)
                    new[slot] = tid
                elif cur != tid:
                    break
            else:
                if extend(depth + 1, new):
                    return True
        return False

    status = COMPLETE
    try:
        if unmatchable and gp.triples:
            pass  # no solutions; Complete with zero rows
        else:
            for binding in initial:
                charge(1)
                if extend(0, binding):
                    break
    except _SoftTimeout:
        status = SOFT_TIMEOUT
    except _HardTimeout:
        return EvalResult(tuple(projection), [], ticks / TICKS_PER_SECOND, HARD_TIMEOUT)
    return EvalResult(tuple(projection), rows, ticks / TICKS_PER_SECOND, status)
