"""Fitness dimensions, the lexicographic fitness tuple, and the coverage ledger."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, groupby
from numbers import Real
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .engine import COMPLETE, HARD_TIMEOUT, SOFT_TIMEOUT
from .patterns import SOURCE_VAR, TARGET_VAR, GraphPattern
from .rdf import Term


class GroundTruthPair(NamedTuple):
    source: Term
    target: Term


class GroundTruth(tuple):
    """Ground-truth pairs encoded once as one endpoint's handles, for every
    query of a learning session: `sources` and `targets` hold each pair's
    source and target handle, `pairs_of` each source handle's pair indices
    in ascending order, and `rows` the VALUES rows of a fitness query, each
    distinct source once, in pair order. A term a local store lacks has a
    negative id, one for each distinct term, so each missing source stays a
    row of its own."""

    def __new__(cls, endpoint, pairs: Iterable[GroundTruthPair]):
        self = tuple.__new__(cls, pairs)
        handles = endpoint.handles(chain.from_iterable(self))
        self.endpoint = endpoint
        self.sources = handles[0::2]
        self.targets = handles[1::2]
        self.pairs_of = {}
        for i, s in enumerate(self.sources):
            self.pairs_of.setdefault(s, []).append(i)
        self.rows = tuple(zip(self.pairs_of))
        return self


def encode_gt(endpoint, gt: Sequence[GroundTruthPair]) -> GroundTruth:
    """`gt` itself if it is encoded for `endpoint`, else its encoding."""
    if isinstance(gt, GroundTruth) and gt.endpoint is endpoint:
        return gt
    return GroundTruth(endpoint, gt)


class CoverageLedger:
    """Per ground-truth-pair best precision achieved by any accepted pattern so far."""

    def __init__(self, values: Iterable[float]):
        values = tuple(values)
        # a bool or a string is not a precision; NaN fails the bounds too
        if not all(isinstance(v, Real) and not isinstance(v, bool) and 0 <= v <= 1
                   for v in values):
            raise ValueError("precision values must be real numbers in [0, 1]")
        self.values = tuple([float(v) for v in values])
        # a ledger never changes, and fitness and fix-var read these on
        # every query: each pair's fix-var weight, 1 - value, and their sum
        self.weights = tuple([1.0 - v for v in self.values])
        self._remains = sum(self.weights)

    @classmethod
    def zeros(cls, n: int) -> "CoverageLedger":
        return cls([0.0] * n)

    def __len__(self) -> int:
        return len(self.values)

    def remains(self) -> float:
        return self._remains

    def updated(self, pv_vectors: Iterable[list[float]]) -> "CoverageLedger":
        new = list(self.values)
        for pv in pv_vectors:
            if len(pv) != len(new):
                raise ValueError("a precision vector has %d entries but the ledger %d"
                                 % (len(pv), len(new)))
            for i, p in enumerate(pv):
                if p > new[i]:
                    new[i] = p
        return CoverageLedger(new)

    def to_json(self) -> str:
        return json.dumps(self.values)

    def __eq__(self, other):
        return isinstance(other, CoverageLedger) and self.values == other.values

    def __repr__(self):
        return "CoverageLedger(remains=%g, n=%d)" % (self.remains(), len(self.values))


@dataclass(frozen=True)
class FitnessTuple:
    """Ordered by `key()`: lexicographically, min-direction fields inverted."""

    remains: float
    score: float
    gain: float
    f1: float
    avg_result_len: float   # min
    gt_matches: int
    pattern_length: int     # min
    pattern_vars: int       # min
    timeout_penalty: float  # min, in {0, 0.5, 1.0}
    query_time_s: float     # min

    def key(self) -> tuple:
        """Built on first use and kept: a fitness never changes."""
        try:
            return self._key
        except AttributeError:
            key = (self.remains, self.score, self.gain, self.f1, -self.avg_result_len,
                   self.gt_matches, -self.pattern_length, -self.pattern_vars,
                   -self.timeout_penalty, -self.query_time_s)
            object.__setattr__(self, "_key", key)
            return key


@dataclass
class PatternEvaluation:
    """Per-pair precision vector; a pair is covered exactly when its
    precision is not 0, as 1 / len(targets) > 0 iff its target is one."""

    pv: list[float]

    @property
    def covered(self) -> list[bool]:
        return [p > 0 for p in self.pv]


# the factor of the score of a pattern that fits a single source or target
OVERFIT_FACTOR = 0.1


def score(gain: float, sources: set, targets: set) -> float:
    """Gain, times `OVERFIT_FACTOR` when the sets of the matched pairs'
    distinct `sources` or `targets` hold fewer than 2: a pattern fitting a
    single source/target."""
    if gain < 0:
        raise ValueError("gain must be non-negative")
    penalty = 1.0
    if len(sources) < 2 or len(targets) < 2:
        penalty = OVERFIT_FACTOR
    return gain * penalty


_STATUS_PENALTY = {COMPLETE: 0.0, SOFT_TIMEOUT: 0.5, HARD_TIMEOUT: 1.0}


def evaluate(endpoint, gp: GraphPattern, gt: Sequence[GroundTruthPair],
             ledger: CoverageLedger) -> tuple[PatternEvaluation, FitnessTuple]:
    """Fitness of one pattern via a single batched prediction query over GT
    sources; `gt` is encoded here unless `encode_gt` did so for `endpoint`."""
    n = len(gt)
    remains = ledger.remains()
    base = dict(remains=remains, pattern_length=gp.length, pattern_vars=gp.variable_count)

    if not gp.triples or not gp.is_complete:
        ev = PatternEvaluation(pv=[0.0] * n)
        ft = FitnessTuple(score=0.0, gain=0.0, f1=0.0, avg_result_len=0.0,
                          gt_matches=0, timeout_penalty=0.0, query_time_s=0.0, **base)
        return ev, ft

    gt = encode_gt(endpoint, gt)
    res = endpoint.run_select(gp, [SOURCE_VAR, TARGET_VAR],
                              values=([SOURCE_VAR], gt.rows), limit=None)
    penalty = _STATUS_PENALTY[res.status]

    # rows hold the endpoint's handles, so the GT is compared as handles;
    # a term the store lacks has a negative id, which no row holds
    targets_by_source: dict = {}
    for s, group in groupby(res.rows, itemgetter(0)):
        targets_by_source.setdefault(s, set()).update(map(itemgetter(1), group))

    # only the sources with rows take a step in Python; a row whose source
    # is no GT source, which a remote endpoint may send, is ignored
    targets = gt.targets
    pv = [0.0] * n
    matched: list[int] = []
    total_len = 0
    for s, tset in targets_by_source.items():
        pairs = gt.pairs_of.get(s)
        if pairs is None:
            continue
        total_len += len(tset) * len(pairs)
        p = 1.0 / len(tset)
        for i in pairs:
            if targets[i] in tset:
                pv[i] = p
                matched.append(i)
    matched.sort()

    gt_matches = len(matched)
    recall = gt_matches / n if n else 0.0
    avg_result_len = total_len / n if n else 0.0
    precision = 1.0 / avg_result_len if avg_result_len > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision > 0 and recall > 0 else 0.0)

    if penalty > 0:
        gain = 0.0
    else:
        # max(0.0, p - v) per matched pair, summed in pair order: each other
        # pair adds +0.0, which leaves a float sum as it is
        values = ledger.values
        gain = sum([max(0.0, pv[i] - values[i]) for i in matched], 0.0)

    ev = PatternEvaluation(pv=pv)
    sc = score(gain, {gt.sources[i] for i in matched},
               {targets[i] for i in matched})
    ft = FitnessTuple(score=sc, gain=gain, f1=f1, avg_result_len=avg_result_len,
                      gt_matches=gt_matches, timeout_penalty=penalty,
                      query_time_s=res.elapsed, **base)
    return ev, ft
