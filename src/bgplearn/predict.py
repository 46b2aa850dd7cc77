"""Target prediction: a greedy choice of the patterns to query, which caps
the query count, per-source pattern execution, and five rank-fusion
strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from .fitness import FitnessTuple
from .patterns import GraphPattern, SOURCE_VAR, TARGET_VAR
from .rdf import Term

FUSION_STRATEGIES = ("target_occs", "scores", "f_measures", "gp_precisions",
                     "precisions")


@dataclass
class PortfolioEntry:
    pattern: GraphPattern
    pv: list[float]
    fitness: FitnessTuple
    canonical_key: str = ""

    @property
    def score(self) -> float:
        return self.fitness.score

    @property
    def f1(self) -> float:
        return self.fitness.f1

    @property
    def gp_precision(self) -> float:
        # the pattern-level precision the fitness stores: inverse average length
        avg = self.fitness.avg_result_len
        return 1.0 / avg if avg > 0 else 0.0


@dataclass
class PatternPortfolio:
    entries: list[PortfolioEntry]
    representatives: list[int] = field(default_factory=list)
    clustering_variant: str = ""
    precision_loss: float = 0.0

    def selected(self) -> list[PortfolioEntry]:
        idx = self.representatives or range(len(self.entries))
        return [self.entries[i] for i in idx]


@dataclass
class RankedPrediction:
    source: Term
    rankings: dict[str, list[tuple[Term, float]]]


def precision_loss(entries: list[PortfolioEntry], selected: list[int]) -> float:
    if not entries:
        return 0.0
    n = len(entries[0].pv)
    loss = 0.0
    for i in range(n):
        all_best = max(e.pv[i] for e in entries)
        sel_best = max((entries[j].pv[i] for j in selected), default=0.0)
        loss += all_best - sel_best
    return loss


def reduce_queries(portfolio: PatternPortfolio, k: int) -> PatternPortfolio:
    """At most k representatives, picked greedily: each pick adds the most to
    the sum over pairs of the best pv among the picks, the sum whose shortfall
    `precision_loss` reports. That sum is a facility-location objective, so
    the picks reach at least 1 - 1/e of the best k patterns' sum (Nemhauser,
    Wolsey & Fisher 1978). A tie in gain goes to the higher (score, fitness
    key), then the lower index. The first pick is always made; the picks stop
    once no pattern adds to the sum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = portfolio.entries
    if not entries:
        raise ValueError("portfolio must be non-empty")
    if k >= len(entries):
        return PatternPortfolio(entries, list(range(len(entries))), "all", 0.0)

    rank = [(e.score, e.fitness.key(), -i) for i, e in enumerate(entries)]
    best = [0.0] * len(entries[0].pv)  # of each pair, among the picks
    reps: list[int] = []
    while len(reps) < k:
        gains = [sum(p - b for p, b in zip(e.pv, best) if p > b) for e in entries]
        pick = max(range(len(entries)), key=lambda i: (gains[i], rank[i]))
        if reps and gains[pick] <= 0:
            break
        reps.append(pick)
        best = list(map(max, best, entries[pick].pv))
    reps.sort()
    return PatternPortfolio(entries, reps, "greedy", precision_loss(entries, reps))


def predict_targets(endpoint, portfolio: PatternPortfolio, source: Term) -> list[set]:
    """Per-representative distinct ?target sets, empty for a timed-out
    pattern. They hold the endpoint's handles, whose terms `endpoint.terms`
    gives."""
    sets: list[set] = []
    values = ([SOURCE_VAR], (tuple(endpoint.handles([source])),))  # checked once
    for entry in portfolio.selected():
        res = endpoint.run_select(entry.pattern, [TARGET_VAR], values=values,
                                  limit=endpoint.config.default_limit, cache=False)
        sets.append(set() if res.timed_out else {row[0] for row in res.rows})
    return sets


def fuse(target_sets: list[set], portfolio: PatternPortfolio, source: Term,
         order_key: Callable = Term.sort_key,
         decode: Optional[Callable] = None) -> RankedPrediction:
    """Aggregate per-pattern target sets into the five ranked fusion lists.

    Targets of equal value rank in `order_key` order; `decode`, if given,
    maps the list of targets to the list of terms that the rankings hold."""
    selected = portfolio.selected()
    if len(target_sets) != len(selected):
        raise ValueError("one target set per selected pattern required")
    # the five sums of each target, one list per strategy in
    # FUSION_STRATEGIES order, each in order_key order of the targets
    targets = sorted(set().union(*target_sets), key=order_key)
    index = dict(zip(targets, range(len(targets))))
    sums = [[0.0] * len(targets) for _ in FUSION_STRATEGIES]
    occs, scores, f_measures, gp_precisions, precisions = sums
    for entry, tset in zip(selected, target_sets):
        if not tset:
            continue
        score, f1, gp_precision = entry.score, entry.f1, entry.gp_precision
        share = 1.0 / len(tset)
        for i in map(index.__getitem__, tset):
            occs[i] += 1.0
            scores[i] += score
            f_measures[i] += f1
            gp_precisions[i] += gp_precision
            precisions[i] += share
    terms = targets if decode is None else decode(targets)
    # stable sorts: by target first, then by value, give (-value, order_key) order
    rankings = {}
    for strategy, column in zip(FUSION_STRATEGIES, sums):
        ranked = list(zip(terms, column))
        ranked.sort(key=itemgetter(1), reverse=True)
        rankings[strategy] = ranked
    return RankedPrediction(source=source, rankings=rankings)


def predict(endpoint, portfolio: PatternPortfolio, source: Term) -> RankedPrediction:
    return fuse(predict_targets(endpoint, portfolio, source), portfolio, source,
                endpoint.order_key(), endpoint.terms)
