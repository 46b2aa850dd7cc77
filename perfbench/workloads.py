"""The benchmark's workloads: set-up, timed units, correctness gates.

Every workload drives the library functions that `bgplearn learn` and
`bgplearn evaluate --baselines` call, from one process and one thread, one
call at a time (a closed loop with a single client). Each run has phases:

  set-up   load the store, parse the GT files, build an endpoint (and, for
           evaluate-large, score the portfolio); done before the first unit
           and, untraced, again after each unit; median reported
  units    the timed operation, repeated: one `learn` call with a fixed GA
           seed (learn-*) or one evaluate pass over the held-out sources
           (evaluate-large); identical units must give identical outcomes,
           traced or not
  check    the other operation at a small size, so both correctness gates
           run on every workload: learn-* evaluate their learned portfolio
           on a few held-out pairs; evaluate-large runs a short learn on its
           training split

Library calls go through module attributes (`rdf.load_file`, not a bare
`load_file`) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from bgplearn import (canon, endpoint, engine, evalharness, evolution, fitness,
                      iojson, predict, rdf)
from bgplearn.patterns import (SOURCE_VAR, TARGET_VAR, GraphPattern,
                               TriplePattern, Variable)

from datagen import DECOY_PREDICATES, EX, DataSpec, generate

_clock = time.perf_counter

# Work-metered query budgets of every learn: 5k/20k ticks, a fifth of the
# acceptance suite's 0.05/0.2 s. With the larger budget, which few runaway
# queries time out, and after how much work, depends on the seed's decoy
# edges, and that lottery moved learn time by up to half between seeds.
LEARN_EP = dict(soft_timeout=0.01, hard_timeout=0.04)
PREDICT_K = 100       # `bgplearn evaluate --k` default
BASELINE_TOP = 100    # `bgplearn evaluate --top` default
GATE_SOURCES = 8      # held-out sources of the gate and of learn-*'s check pass
LEARN_SEED = 1        # GA seed of every learn; only the data follows --seed


@dataclass(frozen=True)
class Workload:
    """One BENCHMARK.json workload; its reason is stated there."""
    name: str
    kind: str            # "learn" or "evaluate": the timed operation
    data: DataSpec
    evo: dict            # EvolutionConfig fields of every learn in the run
    unit_s: float        # nominal seconds of one timed unit; sets units per run


# Every learn runs all max_runs runs (min_remains=0): a learn that stops early
# once its ledger is full would make learn time bimodal across seeds.
WORKLOADS = {w.name: w for w in (
    # 400 GT pairs > batch_size 384: fitness bookkeeping dominates
    Workload("learn-wide", "learn",
             DataSpec(n_pairs=480, n_heldout=80, n_train=0, decoy_factor=6),
             dict(population_size=40, max_generations=3, max_runs=2,
                  min_remains=0.0),
             unit_s=4.5),
    # 100 GT pairs, dense hub decoys: engine-bound, cache hits, no batching
    Workload("learn-narrow", "learn",
             DataSpec(n_pairs=180, n_heldout=80, n_train=0, decoy_factor=20),
             dict(population_size=60, max_generations=3, max_runs=2,
                  min_remains=0.0),
             unit_s=1.5),
    # single-source predict queries that always miss: join planning dominates
    Workload("evaluate-large", "evaluate",
             DataSpec(n_pairs=800, n_heldout=120, n_train=100, decoy_factor=6,
                      n_literals=8_000, gz=True),
             dict(population_size=24, max_generations=3, max_runs=1,
                  min_remains=0.0),
             unit_s=7.0),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds (self-test)."""
    data = dataclasses.replace(
        w.data, n_pairs=48, n_heldout=8, n_train=16 if w.data.n_train else 0,
        decoy_factor=4, n_literals=min(w.data.n_literals, 200))
    evo = dict(w.evo, population_size=8, max_generations=2, max_runs=1)
    return dataclasses.replace(w, data=data, evo=evo, unit_s=1.0)


# ---------------------------------------------------------------------------
# Operation accounting


class Ops:
    """Counts operations; one fails if it raises or its correctness gate fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        """Run one operation; on an exception, report it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def gate(self, ok: bool, what: str) -> None:
        """Record the gate of an operation already counted as attempted."""
        if not ok:
            self.failed += 1
            print("gate failed: " + what, file=sys.stderr)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Set-up


def _ex(name: str) -> rdf.Term:
    return rdf.iri(EX + name)


def fixed_portfolio(n_hubs: int) -> list[GraphPattern]:
    """The four generators, hub-constrained variants, decoy-predicate and
    hub-join patterns: a portfolio whose per-source queries stress planning."""
    S, T, m, x, h = SOURCE_VAR, TARGET_VAR, Variable("m"), Variable("x"), Variable("h")
    generators = [
        [TriplePattern(S, _ex("rel"), T)],
        [TriplePattern(S, _ex("relA"), m), TriplePattern(m, _ex("relB"), T)],
        [TriplePattern(T, _ex("inv"), S)],
        [TriplePattern(S, _ex("relC"), x), TriplePattern(T, _ex("relD"), x)],
    ]
    patterns = [GraphPattern(g) for g in generators]
    for i, g in enumerate(generators):
        for d in range(2):
            hub = _ex("hub%d" % ((i + d) % n_hubs))
            patterns.append(GraphPattern(
                g + [TriplePattern(S, _ex(DECOY_PREDICATES[d]), hub)]))
    for d in DECOY_PREDICATES[:3]:
        patterns.append(GraphPattern([TriplePattern(S, _ex(d), T)]))
    for d, e in zip(DECOY_PREDICATES[:3], DECOY_PREDICATES[1:4]):
        patterns.append(GraphPattern([TriplePattern(S, _ex(d), h),
                                      TriplePattern(T, _ex(e), h)]))
    patterns.append(GraphPattern([TriplePattern(S, _ex("relA"), m),
                                  TriplePattern(m, Variable("p"), T)]))
    patterns.append(GraphPattern([TriplePattern(S, _ex("rel"), T),
                                  TriplePattern(T, _ex("label"), Variable("l"))]))
    return patterns


@dataclass
class Setup:
    store: rdf.TripleStore
    train: list
    heldout: list
    portfolio: predict.PatternPortfolio | None = None


def _read_gt(path: str) -> list:
    with open(path) as fh:
        return iojson.parse_ground_truth(fh.read())


def score_portfolio(ep, patterns, train) -> predict.PatternPortfolio:
    zeros = fitness.CoverageLedger.zeros(len(train))
    entries = []
    for gp in patterns:
        ev, ft = fitness.evaluate(ep, gp, train, zeros)
        entries.append(predict.PortfolioEntry(gp, ev.pv, ft, canon.pattern_key(gp)))
    return predict.PatternPortfolio(entries)


def set_up(w: Workload, ds, ops: Ops) -> Setup:
    store = ops.call(rdf.load_file, ds.store_path)
    if store is None:
        raise RuntimeError("store did not load")
    ops.gate(len(store) == ds.n_triples, "store holds %d triples, generator wrote %d"
             % (len(store), ds.n_triples))
    setup = Setup(store, _read_gt(ds.gt_path), _read_gt(ds.heldout_path))
    ep = endpoint.local_endpoint(store)
    if w.kind == "evaluate":
        setup.portfolio = score_portfolio(ep, fixed_portfolio(w.data.n_hubs),
                                          setup.train)
    return setup


# ---------------------------------------------------------------------------
# Learn


@dataclass
class LearnOutcome:
    result: evolution.LearnResult
    seconds: float
    fingerprint: str
    coverage: float


def run_learn(setup: Setup, w: Workload, ga_seed: int, ops: Ops) -> LearnOutcome | None:
    ep = endpoint.local_endpoint(setup.store, **LEARN_EP)
    cfg = evolution.EvolutionConfig(seed=ga_seed, **w.evo)
    start = _clock()
    result = ops.call(evolution.learn, ep, setup.train, cfg)
    seconds = _clock() - start
    if result is None:
        return None
    keys = sorted(lp.canonical_key for lp in result.patterns)
    fp = _sha({"keys": keys, "ledger": result.ledger.to_json()})
    coverage = 1.0 - result.ledger.remains() / len(setup.train)
    return LearnOutcome(result, seconds, fp, coverage)


def learn_gate(setup: Setup, outcome: LearnOutcome, ops: Ops) -> None:
    """Accepted precision vectors recomputed on a fresh, uncached endpoint match
    the stored ones, and the ledger is their elementwise maximum."""
    fresh = endpoint.local_endpoint(setup.store, **LEARN_EP)
    zeros = fitness.CoverageLedger.zeros(len(setup.train))
    pvs = []
    for lp in outcome.result.patterns:
        ev, _ = fitness.evaluate(fresh, lp.pattern, setup.train, zeros)
        if ev.pv != lp.evaluation.pv:
            ops.gate(False, "precision vector of %s differs on a fresh endpoint"
                     % lp.canonical_key.replace("\n", " "))
            return
        pvs.append(ev.pv)
    ops.gate(zeros.updated(pvs) == outcome.result.ledger,
             "ledger is not the elementwise max of the accepted vectors")


def learned_portfolio(result: evolution.LearnResult) -> predict.PatternPortfolio:
    return predict.PatternPortfolio([
        predict.PortfolioEntry(lp.pattern, lp.evaluation.pv, lp.fitness,
                               lp.canonical_key) for lp in result.patterns])


# ---------------------------------------------------------------------------
# Evaluate


@dataclass
class EvaluateOutcome:
    seconds: float
    fingerprint: str
    maps: dict           # fusion strategy -> MAP over the held-out pairs
    reduced: predict.PatternPortfolio
    latencies: list      # seconds of each per-source predict


def gate_sample(pairs: list) -> list:
    step = max(1, len(pairs) // GATE_SOURCES)
    return pairs[::step][:GATE_SOURCES]


def run_evaluate(store: rdf.TripleStore, portfolio: predict.PatternPortfolio,
                 pairs: list, ops: Ops) -> EvaluateOutcome:
    """What `bgplearn evaluate --baselines` does after loading its inputs."""
    ep = endpoint.local_endpoint(store)
    start = _clock()
    reduced = predict.reduce_queries(portfolio, PREDICT_K)
    ranks = {s: [] for s in predict.FUSION_STRATEGIES}
    latencies = []
    # sha256 of the JSON list of every source's rankings, written one source
    # at a time and left out of the op's time: `bgplearn evaluate` keeps no
    # rankings and writes no n3
    digest = hashlib.sha256(b"[")
    hashing = 0.0
    for i, pair in enumerate(pairs):
        t0 = _clock()
        ranked = ops.call(predict.predict, ep, reduced, pair.source)
        latencies.append(_clock() - t0)
        for s in predict.FUSION_STRATEGIES:
            ranks[s].append(evalharness.rank_of_truth(ranked.rankings[s], pair.target)
                            if ranked else math.inf)
        t0 = _clock()
        item = ({s: [[t.n3(), v] for t, v in ranked.rankings[s]]
                 for s in predict.FUSION_STRATEGIES} if ranked else None)
        digest.update(((", " if i else "") + json.dumps(item, sort_keys=True))
                      .encode("utf-8"))
        hashing += _clock() - t0
    digest.update(b"]")
    maps = {s: evalharness.metrics(r).map for s, r in ranks.items()}

    pr = evalharness.pagerank(store)
    auth, _hub = evalharness.hits(store)
    indeg = {t: float(store.degree(t, "in")) for t in store.terms}
    outdeg = {t: float(store.degree(t, "out")) for t in store.terms}
    for scores in (pr, auth, indeg, outdeg):
        for direction in ("in", "out", "bidi"):
            base_ranks = []
            for pair in pairs:
                ranked = ops.call(evalharness.baseline_predict, store, pair.source,
                                  direction, "pagerank", k=BASELINE_TOP,
                                  scores=scores)
                base_ranks.append(evalharness.rank_of_truth(ranked or [], pair.target))
            evalharness.metrics(base_ranks)
    seconds = _clock() - start - hashing
    return EvaluateOutcome(seconds, digest.hexdigest(), maps, reduced, latencies)


def predict_gate(setup: Setup, reduced: predict.PatternPortfolio, ops: Ops) -> None:
    """`predict.predict` equals `predict.fuse` over `engine.select` run directly
    on the store, for a fixed sample of held-out sources."""
    ep = endpoint.local_endpoint(setup.store)
    cfg = ep.config
    for pair in gate_sample(setup.heldout):
        sets = []
        for entry in reduced.selected():
            res = engine.select(setup.store, entry.pattern, [TARGET_VAR],
                                values=([SOURCE_VAR], [(pair.source,)]),
                                limit=cfg.default_limit,
                                soft_timeout=cfg.soft_timeout,
                                hard_timeout=cfg.hard_timeout)
            sets.append(set() if res.timed_out
                        else {row[0] for row in res.rows if row[0] is not None})
        direct = predict.fuse(sets, reduced, pair.source)
        via_endpoint = predict.predict(ep, reduced, pair.source)
        ops.gate(direct.rankings == via_endpoint.rankings,
                 "predict differs from fuse over engine.select for %s"
                 % pair.source.value)


# ---------------------------------------------------------------------------
# A whole run


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    fingerprint: str
    info: dict


def run(w: Workload, seed: int, seconds: float, tracer, workdir: str) -> RunResult:
    """One benchmark run. Untraced, it repeats the workload's unit and reports
    medians. Traced, it runs pairs of the same unit, one without the tracer's
    wrappers and one recorded, alternating which goes first; the per-layer
    metrics come from the set-up, the first recorded unit and the check phase,
    and the tracing overhead is the median of the pairs' differences."""
    ops = Ops()
    ds = generate(w.data, seed, workdir)

    def recorded(label: str | None):
        if tracer is None or label is None:
            return contextlib.nullcontext()
        return tracer.recording(label)

    setup_times: list[float] = []
    setup = None

    def timed_setup() -> None:
        nonlocal setup
        setup = None  # drop the previous store before loading the next
        gc.collect()
        with recorded("setup"):
            start = _clock()
            setup = set_up(w, ds, ops)
            setup_times.append(_clock() - start)

    outcomes: list = []

    def unit(label: str | None) -> float | None:
        """One timed unit, recorded as `label` unless it is None; its time."""
        gc.collect()  # the previous unit's garbage is not this unit's cost
        with recorded(label):
            if w.kind == "learn":
                out = run_learn(setup, w, LEARN_SEED, ops)
            else:
                out = run_evaluate(setup.store, setup.portfolio, setup.heldout, ops)
        if out is None:
            return None
        if w.kind == "learn":
            learn_gate(setup, out, ops)
        outcomes.append(out)
        return out.seconds

    timed_setup()
    overheads: list[float] = []
    plain: list[float] = []
    if tracer is None:
        # set-up after every unit, so that set-up and units sample the
        # machine over the same stretch of time
        for _ in range(max(2, int(seconds / w.unit_s))):
            unit(None)
            timed_setup()
    else:
        for k in range(max(3, int(seconds / (2 * w.unit_s)))):
            order = (None, "traced%d" % k) if k % 2 == 0 else ("traced%d" % k, None)
            times = {label: unit(label) for label in order}
            if None not in times.values():
                overheads.append(times["traced%d" % k] - times[None])
                plain.append(times[None])
        if not overheads:
            raise RuntimeError("no pair of timed units succeeded")
    if not outcomes:
        raise RuntimeError("every timed unit failed")
    unit_s = [o.seconds for o in outcomes]
    fingerprints = [o.fingerprint for o in outcomes]
    consistent = len(set(fingerprints)) == 1
    if not consistent:
        print("outcome fingerprints differ between identical units: %s"
              % fingerprints, file=sys.stderr)
    info = {"units": len(unit_s), "unit_seconds": unit_s}

    # check phase: the other operation, small, and the gates that go with it
    if w.kind == "learn":
        with recorded("check"):
            check = run_evaluate(setup.store, learned_portfolio(outcomes[0].result),
                                 gate_sample(setup.heldout), ops)
        predict_gate(setup, check.reduced, ops)
        quality = outcomes[0].coverage
    else:
        with recorded("check"):
            check = run_learn(setup, w, LEARN_SEED, ops)
        if check is not None:
            learn_gate(setup, check, ops)
        predict_gate(setup, outcomes[0].reduced, ops)
        # the mean over strategies: the fixed portfolio holds the generators,
        # so the best strategy ranks every truth first on every seed
        quality = statistics.mean(outcomes[0].maps.values())
        info["fusion_map_best"] = max(outcomes[0].maps.values())
        lat = sorted(x for o in outcomes for x in o.latencies)
        info["predict_p50_ms"] = 1000 * statistics.median(lat)
        # the highest decile with at least ten samples beyond it
        info["predict_p90_ms"] = 1000 * statistics.quantiles(lat, n=10)[8]
        info["predict_samples"] = len(lat)
    fingerprint = _sha([fingerprints[0], check.fingerprint if check else None])

    if tracer is not None:
        info["trace_overheads_s"] = overheads
        overhead = statistics.median(overheads)
        metrics = tracer.per_layer({"setup", "traced0", "check"}, ds.n_triples,
                                   overhead, overhead / statistics.median(plain))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(unit_s),
            "quality": quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    correct = consistent and ops.failed == 0 and check is not None
    return RunResult(correct, ops.attempted, ops.failed, metrics, fingerprint, info)
