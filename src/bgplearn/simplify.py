"""Pattern simplification: drop triples that cannot restrict the source/target projection.

Syntactic mode applies the rules alone (fast, used inside mutation). Verified
mode re-checks every single rule application against a projection oracle and
keeps the triple when the check fails; the leaf rule in particular is unsound
on graphs with sink nodes.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from .patterns import GraphPattern, SOURCE_VAR, TARGET_VAR, TriplePattern, is_var
from .rdf import Term

Checker = Callable[[GraphPattern, GraphPattern], bool]


def _var_occurrences(gp: GraphPattern) -> Counter:
    counts: Counter = Counter()
    for tp in gp.triples:
        for v in tp.variables():
            counts[v] += 1
    return counts


def _is_fresh(node, counts: Counter) -> bool:
    return is_var(node) and not node.is_reserved and counts[node] == 1


def _admissible(gp: GraphPattern) -> bool:
    return bool(gp.triples) and gp.is_complete and gp.is_connected


def _subsumed_drops(gp: GraphPattern) -> list[TriplePattern]:
    """Triples whose slots all equal, or freshly generalize, another triple's."""
    counts = _var_occurrences(gp)
    out = []
    for general in gp.sorted_triples():
        for specific in gp.sorted_triples():
            if general == specific:
                continue
            if all(g == s or _is_fresh(g, counts)
                   for g, s in zip(general, specific)):
                out.append(general)
                break
    return out


def _fixed_appendix_drops(gp: GraphPattern) -> list[TriplePattern]:
    """Triples between fixed nodes whose variables (if any) occur nowhere else."""
    counts = _var_occurrences(gp)
    return [tp for tp in gp.sorted_triples()
            if isinstance(tp.s, Term) and isinstance(tp.o, Term)
            and all(_is_fresh(v, counts) for v in tp.variables())]


def _loose_leaf_drops(gp: GraphPattern) -> list[TriplePattern]:
    """Leaf triples with a fresh variable endpoint and a fresh variable predicate."""
    counts = _var_occurrences(gp)
    return [tp for tp in gp.sorted_triples()
            if _is_fresh(tp.p, counts)
            and (_is_fresh(tp.s, counts) or _is_fresh(tp.o, counts))]


_RULES = (_subsumed_drops, _fixed_appendix_drops, _loose_leaf_drops)


def _apply_once(current: GraphPattern, checker: Optional[Checker],
                rejected: set) -> Optional[GraphPattern]:
    for rule in _RULES:
        for victim in rule(current):
            candidate = current.without_triple(victim)
            if not _admissible(candidate):
                continue
            if checker is not None:
                mark = (current, victim)
                if mark in rejected:
                    continue
                if not checker(current, candidate):
                    rejected.add(mark)
                    continue
            return candidate
    return None


def simplify(gp: GraphPattern, checker: Optional[Checker] = None) -> GraphPattern:
    """Rule fixpoint; a rule application is skipped if it would disconnect or
    incompletize the pattern, or (with a checker) change the projection."""
    if not _admissible(gp):
        return gp
    current = gp
    rejected: set = set()
    while True:
        reduced = _apply_once(current, checker, rejected)
        if reduced is None:
            return current
        current = reduced


def projection_checker(endpoint) -> Checker:
    """Equivalence oracle: same ?source/?target projection on the endpoint."""
    def check(before: GraphPattern, after: GraphPattern) -> bool:
        proj = [SOURCE_VAR, TARGET_VAR]
        r1 = endpoint.run_select(before, proj, limit=None)
        r2 = endpoint.run_select(after, proj, limit=None)
        if r1.timed_out or r2.timed_out:
            return False
        return r1.row_set() == r2.row_set()

    return check
