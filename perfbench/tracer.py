"""Outside-in tracing of bgplearn's layers for the traced benchmark run.

The tracer replaces each layer's public functions at the names their callers
look up (module attributes and `TripleStore` methods) with wrappers that
record a span per call: name, start, end, parent span and the benchmark unit
it belongs to. The wrappers are in place only inside `recording`, so code run
outside it pays nothing for them. Nothing inside the library changes. The two
hot index calls, `TripleStore.count` and `TripleStore.match_ids`, are
aggregated per parent span instead of recorded one by one; `match_ids` calls
made by `count` are part of the count.

Self time is a span's duration minus its child spans and aggregated index
calls. All spans stay in memory until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

from bgplearn import (canon, endpoint, engine, evalharness, evolution, fitness,
                      predict, rdf)

_clock = time.perf_counter

# span name -> [(owner, attribute)]: every place a caller looks the function up
_SPANS = {
    "rdf.load_file": [(rdf, "load_file")],
    "engine.join_plan": [(engine, "join_plan")],
    "canon.canonicalize": [(canon, "canonicalize"), (endpoint, "canonicalize")],
    "fitness.evaluate": [(fitness, "evaluate"), (evolution, "evaluate")],
    "evolution.learn": [(evolution, "learn")],
    "evolution.run_single": [(evolution, "run_single")],
    "evolution.mutate": [(evolution, "mutate")],
    "evolution.next_generation": [(evolution, "next_generation")],
    "simplify.simplify": [(evolution, "simplify")],
    "predict.reduce_queries": [(predict, "reduce_queries")],
    "predict.predict": [(predict, "predict")],
    "predict.predict_targets": [(predict, "predict_targets")],
    "predict.fuse": [(predict, "fuse")],
    "evalharness.pagerank": [(evalharness, "pagerank")],
    "evalharness.hits": [(evalharness, "hits")],
    "evalharness.baseline_predict": [(evalharness, "baseline_predict")],
    "evalharness.metrics": [(evalharness, "metrics")],
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Span recorder for the code run inside `recording`."""

    def __init__(self):
        self.unit = ""
        self.spans: list[tuple] = []  # (id, name, start, end, parent, unit)
        # (parent, name, unit) -> [calls, s, rows]
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0])
        self.counters: dict = defaultdict(lambda: defaultdict(float))  # by unit
        self._stack: list[int] = []
        self._in_count = False
        self._patched: list[tuple] = []

    # -- patching -----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, unit: str):
        """Record every call made inside the block as part of `unit`."""
        self.unit = unit
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        for name, sites in _SPANS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        self._patch(engine, "select", self._span("engine.select", engine.select,
                                                  self._observe_select))
        self._patch(evolution, "fix_var",
                    self._span("evolution.fix_var", evolution.fix_var,
                               self._observe_fix_var))
        self._patch(endpoint.Endpoint, "run_select",
                    self._span("endpoint.run_select", endpoint.Endpoint.run_select))
        self._patch(rdf.TripleStore, "count",
                    self._aggregate("rdf.count", rdf.TripleStore.count, leaf=True))
        self._patch(rdf.TripleStore, "match_ids",
                    self._aggregate("rdf.match_ids", rdf.TripleStore.match_ids))
        self._patch(endpoint, "_cache_key", self._observe_key(endpoint._cache_key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.unit))
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _aggregate(self, name, fn, leaf=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_count:
                return fn(*args, **kwargs)
            self._in_count = leaf
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._in_count = False
            entry = self.aggregates[(self._stack[-1] if self._stack else None,
                                     name, self.unit)]
            entry[0] += 1
            entry[1] += elapsed
            if not leaf:
                entry[2] += len(result)
            return result
        return wrapper

    def _observe_select(self, res) -> None:
        c = self.counters[self.unit]
        ticks = round(res.elapsed * engine.TICKS_PER_SECOND)
        c["engine.ticks"] += ticks
        c["engine.rows"] += len(res.rows)
        c["engine.status." + res.status] += 1
        if res.status == engine.SOFT_TIMEOUT:
            c["engine.soft_ticks"] += ticks

    def _observe_fix_var(self, children) -> None:
        self.counters[self.unit]["evolution.fix_var.children"] += len(children)

    def _observe_key(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = fn(*args, **kwargs)
            c = self.counters[self.unit]
            c["endpoint.keys"] += 1
            c["endpoint.key_bytes"] += len(key.encode("utf-8"))
            return key
        return wrapper

    # -- results ------------------------------------------------------------

    def per_layer(self, units: set, n_triples: int, overhead_s: float,
                  overhead_share: float) -> dict:
        """Every per-layer metric of BENCHMARK.json, from the spans, index
        calls and counters recorded as part of `units`."""
        spans = [span for span in self.spans if span[5] in units]
        c: dict = defaultdict(float)
        for unit in units:
            for key, value in self.counters[unit].items():
                c[key] += value
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        selects_under: dict = defaultdict(int)  # run_select span -> engine.select
        name_of = {}
        for sid, name, start, end, parent, _ in spans:
            calls[name] += 1
            total[name] += end - start
            name_of[sid] = name
            if parent is not None:
                child[parent] += end - start
                if name == "engine.select":
                    selects_under[parent] += 1
        agg_calls: dict = defaultdict(int)
        agg_s: dict = defaultdict(float)
        agg_rows: dict = defaultdict(int)
        for (parent, name, unit), (n, s, rows) in self.aggregates.items():
            if unit not in units:
                continue
            agg_calls[name] += n
            agg_s[name] += s
            agg_rows[name] += rows
            if parent is not None:
                child[parent] += s
        self_s: dict = defaultdict(float)
        hits = batched = under_predict = 0
        for sid, name, start, end, parent, _ in spans:
            self_s[name] += (end - start) - child[sid]
            if name == "endpoint.run_select":
                hits += selects_under[sid] == 0
                batched += selects_under[sid] > 1
                under_predict += name_of.get(parent) == "predict.predict_targets"

        loads = [end - start for _, name, start, end, _, _ in spans
                 if name == "rdf.load_file"]
        load_s = statistics.median(loads) if loads else 0.0
        ticks = c["engine.ticks"]
        run_selects = calls["endpoint.run_select"]
        return {
            "rdf.load_s": load_s,
            "rdf.triples_per_s": _share(n_triples, load_s),
            "rdf.count.calls": agg_calls["rdf.count"],
            "rdf.count.s": agg_s["rdf.count"],
            "rdf.match_ids.calls": agg_calls["rdf.match_ids"],
            "rdf.match_ids.s": agg_s["rdf.match_ids"],
            "rdf.match_ids.rows": agg_rows["rdf.match_ids"],
            "engine.select.calls": calls["engine.select"],
            "engine.select.self_s": self_s["engine.select"],
            "engine.join_plan.s": total["engine.join_plan"],
            "engine.ticks": int(ticks),
            "engine.rows": int(c["engine.rows"]),
            "engine.rows_per_ktick": _share(1000 * c["engine.rows"], ticks),
            "engine.status.complete": int(c["engine.status." + engine.COMPLETE]),
            "engine.status.soft_timeout":
                int(c["engine.status." + engine.SOFT_TIMEOUT]),
            "engine.status.hard_timeout":
                int(c["engine.status." + engine.HARD_TIMEOUT]),
            "engine.soft_timeout_tick_share": _share(c["engine.soft_ticks"], ticks),
            "canon.canonicalize.calls": calls["canon.canonicalize"],
            "canon.canonicalize.s": total["canon.canonicalize"],
            "endpoint.run_select.calls": run_selects,
            "endpoint.run_select.self_s": self_s["endpoint.run_select"],
            "endpoint.backend_calls": calls["engine.select"],
            "endpoint.cache_hit_rate": _share(hits, run_selects),
            "endpoint.cache_entries": run_selects - hits,
            "endpoint.cache_key_bytes": _share(c["endpoint.key_bytes"],
                                               c["endpoint.keys"]),
            "endpoint.batched_selects": batched,
            "fitness.evaluate.calls": calls["fitness.evaluate"],
            "fitness.evaluate.self_s": self_s["fitness.evaluate"],
            "evolution.run_single.self_s": self_s["evolution.run_single"],
            "evolution.mutate.calls": calls["evolution.mutate"],
            "evolution.mutate.self_s": self_s["evolution.mutate"],
            "evolution.fix_var.calls": calls["evolution.fix_var"],
            "evolution.fix_var.self_s": self_s["evolution.fix_var"],
            "evolution.fix_var.yield": _share(c["evolution.fix_var.children"],
                                              calls["evolution.fix_var"]),
            "evolution.next_generation.calls": calls["evolution.next_generation"],
            "simplify.simplify.calls": calls["simplify.simplify"],
            "simplify.simplify.s": total["simplify.simplify"],
            "predict.reduce_queries.s": total["predict.reduce_queries"],
            "predict.predict_targets.s": total["predict.predict_targets"],
            "predict.queries_per_source": _share(under_predict,
                                                 calls["predict.predict_targets"]),
            "predict.fuse.s": total["predict.fuse"],
            "evalharness.pagerank.s": total["evalharness.pagerank"],
            "evalharness.hits.s": total["evalharness.hits"],
            "evalharness.baseline_predict.s": total["evalharness.baseline_predict"],
            "evalharness.metrics.s": total["evalharness.metrics"],
            "trace.overhead_s": overhead_s,
            "trace.overhead_share": overhead_share,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": unit})
                         + "\n")
            for (parent, name, unit), (n, s, rows) in sorted(
                    self.aggregates.items(),
                    key=lambda kv: (kv[0][0] or -1, kv[0][1], kv[0][2])):
                fh.write(json.dumps({"aggregate": name, "parent": parent,
                                     "run": unit, "calls": n, "s": s,
                                     "rows": rows}) + "\n")
