"""Train/test splitting, ranking metrics, and graph baselines (PageRank, HITS, degree)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .fitness import GroundTruthPair
from .rdf import BIDI, IN, OUT, Term, TripleStore

PAGERANK = "pagerank"
HITS_AUTH = "hits_auth"
INDEG = "indeg"
OUTDEG = "outdeg"

RECALL_KS = range(1, 11)  # the cutoffs k of Recall@k

DAMPING = 0.85  # PageRank's
# PageRank and HITS iterate until the L1 change of a step is below EPS, at
# most MAX_ITER times
EPS = 1e-10
MAX_ITER = 200


@dataclass
class Split:
    train: list[GroundTruthPair]
    test: list[GroundTruthPair]
    seed: int


def split_pairs(pairs: list[GroundTruthPair], ratio: float = 0.1,
                seed: int = 0) -> Split:
    """Random disjoint split; |test| = floor(ratio * |pairs|), 0 <= ratio <= 1."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1], not %r" % (ratio,))
    rng = random.Random(seed)
    indices = list(range(len(pairs)))
    rng.shuffle(indices)
    n_test = int(len(pairs) * ratio)
    test_idx = set(indices[:n_test])
    train = [p for i, p in enumerate(pairs) if i not in test_idx]
    test = [p for i, p in enumerate(pairs) if i in test_idx]
    return Split(train=train, test=test, seed=seed)


def rank_of_truth(ranked, truth: Term) -> float:
    """1-based rank of the true target in (term, score) pairs, or infinity
    when absent."""
    for i, (target, _score) in enumerate(ranked):
        if target == truth:
            return i + 1
    return math.inf


@dataclass
class MetricReport:
    recall_at_k: dict[int, float] = field(default_factory=dict)
    map: float = 0.0
    ndcg: float = 0.0

    def as_dict(self) -> dict:
        return {"recall_at_k": {str(k): v for k, v in sorted(self.recall_at_k.items())},
                "map": self.map, "ndcg": self.ndcg}


def metrics(ranks: list[float]) -> MetricReport:
    """With one relevant target per pair: AP = 1/r, NDCG = 1/log2(r+1)."""
    n = len(ranks)
    report = MetricReport()
    if n == 0:
        report.recall_at_k = {k: 0.0 for k in RECALL_KS}
        return report
    for k in RECALL_KS:
        report.recall_at_k[k] = sum(1 for r in ranks if r <= k) / n
    report.map = sum((1.0 / r) if math.isfinite(r) else 0.0 for r in ranks) / n
    report.ndcg = sum((1.0 / math.log2(r + 1)) if math.isfinite(r) else 0.0
                      for r in ranks) / n
    return report


# ---------------------------------------------------------------------------
# Graph scores over the distinct (subject, object) edges of the store


def _node_graph(store: TripleStore):
    """The terms of the store's graph nodes (see `TripleStore.graph`), and
    each edge's source and destination as indices into them, in numpy arrays."""
    import numpy as np
    nodes, src, dst = store.graph
    return (list(map(store.term, nodes)), np.frombuffer(src, np.int64),
            np.frombuffer(dst, np.int64))


def pagerank(store: TripleStore) -> dict[Term, float]:
    """Power iteration with dangling-mass redistribution; scores sum to 1."""
    import numpy as np
    terms, src, dst = _node_graph(store)
    n = len(terms)
    if n == 0:
        return {}
    out_deg = np.bincount(src, minlength=n).astype(float)
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(MAX_ITER):
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_deg, 1.0))
        new = np.bincount(dst, weights=contrib[src], minlength=n)
        new = DAMPING * (new + rank[dangling].sum() / n) + (1.0 - DAMPING) / n
        if np.abs(new - rank).sum() < EPS:
            rank = new
            break
        rank = new
    return dict(zip(terms, rank.tolist()))


def _unit(v):
    """Numpy vector `v` scaled to L2 norm 1, or `v` itself when zero. No BLAS
    call: a BLAS norm's speed and last bits depend on its thread count."""
    import numpy as np
    norm = np.sqrt(np.sum(v * v))
    return v / norm if norm > 0 else v


def hits(store: TripleStore) -> tuple[dict[Term, float], dict[Term, float]]:
    """HITS with L2 normalization each step; returns (authority, hub) scores."""
    import numpy as np
    terms, src, dst = _node_graph(store)
    n = len(terms)
    if n == 0:
        return {}, {}
    auth = np.full(n, 1.0 / math.sqrt(n))
    hub = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(MAX_ITER):
        new_auth = _unit(np.bincount(dst, weights=hub[src], minlength=n))
        new_hub = _unit(np.bincount(src, weights=new_auth[dst], minlength=n))
        if (np.abs(new_auth - auth).sum() + np.abs(new_hub - hub).sum()) < EPS:
            auth, hub = new_auth, new_hub
            break
        auth, hub = new_auth, new_hub
    return dict(zip(terms, auth.tolist())), dict(zip(terms, hub.tolist()))


def neighbourhood(store: TripleStore, node: Term, direction: str) -> set[Term]:
    nid = store.term_id(node)
    if nid is None:
        return set()
    out = set()
    if direction in (OUT, BIDI):
        for _, _, o in store.match_ids(nid, None, None):
            out.add(store.term(o))
    if direction in (IN, BIDI):
        for s, _, _ in store.match_ids(None, None, nid):
            out.add(store.term(s))
    out.discard(node)
    return out


def baseline_predict(store: TripleStore, source: Term, direction: str,
                     scorer: str, k: int,
                     scores: dict[Term, float] | None = None
                     ) -> list[tuple[Term, float]]:
    """Rank 1-hop neighbours by a global score: `scores`, or with none given,
    the `INDEG` or `OUTDEG` degree of each candidate. Ties break by
    `Term.sort_key`: IRIs, then blank nodes, then literals, each by value,
    then datatype, then language tag."""
    if scores is None and scorer not in (INDEG, OUTDEG):
        raise ValueError("scorer %r needs its scores; only %r and %r score "
                         "without them" % (scorer, INDEG, OUTDEG))
    candidates = neighbourhood(store, source, direction)
    if not candidates:
        return []
    if scores is None:
        side = IN if scorer == INDEG else OUT
        scores = {c: float(store.degree(c, side)) for c in candidates}
    ranked = sorted(((c, scores.get(c, 0.0)) for c in candidates),
                    key=lambda cv: (-cv[1], cv[0].sort_key()))
    return ranked[:k]
