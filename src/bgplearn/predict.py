"""Target prediction: precision-vector clustering to cap query count,
per-source pattern execution, and five rank-fusion strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .fitness import FitnessTuple
from .patterns import GraphPattern, SOURCE_VAR, TARGET_VAR
from .rdf import Term

FUSION_STRATEGIES = ("target_occs", "scores", "f_measures", "gp_precisions",
                     "precisions")
_ZERO_SUMS = (0.0,) * len(FUSION_STRATEGIES)


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
    # one row of the five sums per target, in FUSION_STRATEGIES order
    sums: dict[Term, list[float]] = {}
    for entry, tset in zip(selected, target_sets):
        if not tset:
            continue
        weights = (1.0, entry.score, entry.f1, entry.gp_precision, 1.0 / len(tset))
        for t in tset:
            sums[t] = [a + w for a, w in zip(sums.get(t, _ZERO_SUMS), weights)]
    # stable sorts: by term first, then by value, give (-value, sort_key) order
    by_term = sorted(sums.items(), key=lambda kv: kv[0].sort_key())
    rankings = {}
    for i, strategy in enumerate(FUSION_STRATEGIES):
        ranked = sorted(by_term, key=lambda kv: -kv[1][i])
        rankings[strategy] = [(t, row[i]) for t, row in ranked]
    return RankedPrediction(source=source, rankings=rankings)


def predict(endpoint, portfolio: PatternPortfolio, source: Term) -> RankedPrediction:
    return fuse(predict_targets(endpoint, portfolio, source), portfolio, source)
