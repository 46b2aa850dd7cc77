"""Target prediction: precision-vector clustering to cap query count,
per-source pattern execution, and five rank-fusion strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

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


def _representatives_for(entries: list[PortfolioEntry],
                         labels: np.ndarray) -> list[int]:
    reps: dict[int, int] = {}
    for i, label in enumerate(labels):
        cur = reps.get(label)
        if cur is None:
            reps[label] = i
            continue
        a, b = entries[i], entries[cur]
        if (a.score, a.fitness.key(), -i) > (b.score, b.fitness.key(), -cur):
            reps[label] = i
    return sorted(reps.values())


def reduce_queries(portfolio: PatternPortfolio, k: int) -> PatternPortfolio:
    """Pick <=k representatives minimizing precision loss across Ward variants."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = portfolio.entries
    if not entries:
        raise ValueError("portfolio must be non-empty")
    if k >= len(entries):
        return PatternPortfolio(entries, list(range(len(entries))), "all", 0.0)

    matrix = np.array([e.pv for e in entries], dtype=float)
    variants: dict[str, np.ndarray] = {"ward_raw": matrix}
    col_max = matrix.max(axis=0)
    keep = col_max > 0
    if keep.any():
        variants["ward_scaled"] = matrix[:, keep] / col_max[keep]

    best: Optional[tuple[float, str, list[int]]] = None
    for name in sorted(variants):
        data = variants[name]
        tree = linkage(data, method="ward")
        labels = fcluster(tree, t=k, criterion="maxclust")
        reps = _representatives_for(entries, labels)
        loss = precision_loss(entries, reps)
        if best is None or loss < best[0]:
            best = (loss, name, reps)
    loss, name, reps = best
    return PatternPortfolio(entries, reps, name, loss)


def predict_targets(endpoint, portfolio: PatternPortfolio,
                    source: Term) -> list[set[Term]]:
    """Per-representative distinct ?target sets; timed-out patterns give empty sets."""
    sets: list[set[Term]] = []
    for entry in portfolio.selected():
        res = endpoint.run_select(entry.pattern, [TARGET_VAR],
                                  values=([SOURCE_VAR], [(source,)]),
                                  limit=endpoint.config.default_limit)
        if res.timed_out:
            sets.append(set())
        else:
            sets.append({row[0] for row in res.rows if row[0] is not None})
    return sets


def fuse(target_sets: list[set[Term]], portfolio: PatternPortfolio,
         source: Term) -> RankedPrediction:
    """Aggregate per-pattern target sets into the five ranked fusion lists."""
    selected = portfolio.selected()
    if len(target_sets) != len(selected):
        raise ValueError("one target set per selected pattern required")
    # the five sums of each target, one list per strategy in
    # FUSION_STRATEGIES order, each in sort_key order of the targets
    terms = sorted(set().union(*target_sets), key=Term.sort_key)
    index = dict(zip(terms, range(len(terms))))
    sums = [[0.0] * len(terms) for _ in FUSION_STRATEGIES]
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
    # stable sorts: by term first, then by value, give (-value, sort_key) order
    rankings = {}
    for strategy, column in zip(FUSION_STRATEGIES, sums):
        ranked = list(zip(terms, column))
        ranked.sort(key=itemgetter(1), reverse=True)
        rankings[strategy] = ranked
    return RankedPrediction(source=source, rankings=rankings)


def predict(endpoint, portfolio: PatternPortfolio, source: Term) -> RankedPrediction:
    return fuse(predict_targets(endpoint, portfolio, source), portfolio, source)
