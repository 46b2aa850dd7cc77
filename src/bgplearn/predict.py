"""Target prediction: precision-vector clustering to cap query count,
per-source pattern execution, and five rank-fusion strategies."""

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


def _representatives_for(entries: list[PortfolioEntry],
                         groups: list[tuple[int, ...]]) -> list[int]:
    """The best entry of each group by (score, fitness key), lowest index
    on a tie."""
    def rank(i):
        entry = entries[i]
        return (entry.score, entry.fitness.key(), -i)
    return sorted(max(group, key=rank) for group in groups)


def _ward_clusters(data, k: int) -> list[tuple[int, ...]]:
    """The partition of the rows of `data` (1 <= k < rows) that scipy's
    fcluster(linkage(data, "ward"), k, "maxclust") gives, as sorted tuples of
    row indices. Same nearest-neighbour chain (Muellner, arXiv:1109.2378), tie
    rules, float operations and cut as scipy, so its merge heights are
    bit-identical and a tie at the cut leaves fewer than k groups, as there."""
    import numpy as np
    m = len(data)
    # Euclidean distances, each sum in column order as scipy's, 64 rows at a
    # time; inf marks a row's own and merged-away clusters
    cols = data.T.copy()
    dist = np.empty((m, m))
    for i in range(0, m, 64):
        acc = np.zeros((min(64, m - i), m - i))
        for col in cols:
            diff = col[i:i + 64, None] - col[i:]
            diff *= diff
            acc += diff
        dist[i:i + 64, i:] = np.sqrt(acc)
        dist[i:, i:i + 64] = dist[i:i + 64, i:].T
    np.fill_diagonal(dist, np.inf)
    size = np.ones(m)
    chain, merges = [], []
    for _ in range(m - 1):
        if not chain:
            chain.append(int(size.nonzero()[0][0]))
        # grow the chain to two mutual nearest neighbours: the previous link
        # wins a tie, then the lowest index
        while True:
            x, row = chain[-1], dist[chain[-1]]
            y = int(row.argmin())
            if len(chain) > 1 and row[chain[-2]] <= row[y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        height = row[y]
        x, y = min(x, y), max(x, y)  # the merged cluster keeps index y
        nx, ny = size[x], size[y]
        merges.append((height, x, y))
        size[x], size[y] = 0.0, nx + ny
        live = size > 0
        live[y] = False
        # Lance-Williams update for Ward, in scipy's order of operations; a
        # square that rounds below 0 (NaN in scipy) is never a nearest neighbour
        ni, dxi, dyi = size[live], dist[x, live], dist[y, live]
        t = 1.0 / (nx + ny + ni)
        sq = ((ni + nx) * t * dxi * dxi + (ni + ny) * t * dyi * dyi
              - ni * t * height * height)
        dist[y, live] = dist[live, y] = np.sqrt(np.where(sq < 0, np.inf, sq))
        dist[x] = dist[:, x] = np.inf
    # cut at the (m - k)-th lowest height, merging every pair at or below it
    cut = sorted(h for h, _, _ in merges)[m - k - 1]
    label = np.arange(m)
    for height, x, y in merges:
        if height <= cut:
            label[label == label[x]] = label[y]
    groups: dict[int, list[int]] = {}
    for i, group in enumerate(label.tolist()):
        groups.setdefault(group, []).append(i)
    return sorted(map(tuple, groups.values()))


def reduce_queries(portfolio: PatternPortfolio, k: int) -> PatternPortfolio:
    """Pick <=k representatives minimizing precision loss across Ward variants."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = portfolio.entries
    if not entries:
        raise ValueError("portfolio must be non-empty")
    if k >= len(entries):
        return PatternPortfolio(entries, list(range(len(entries))), "all", 0.0)

    import numpy as np
    matrix = np.array([e.pv for e in entries], dtype=float)
    variants = {"ward_raw": matrix}
    col_max = matrix.max(axis=0)
    keep = col_max > 0
    if keep.any():
        variants["ward_scaled"] = matrix[:, keep] / col_max[keep]

    best: Optional[tuple[float, str, list[int]]] = None
    for name in sorted(variants):
        reps = _representatives_for(entries, _ward_clusters(variants[name], k))
        loss = precision_loss(entries, reps)
        if best is None or loss < best[0]:
            best = (loss, name, reps)
    loss, name, reps = best
    return PatternPortfolio(entries, reps, name, loss)


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
