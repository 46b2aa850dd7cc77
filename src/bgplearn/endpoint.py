"""Uniform query interface over a local store or a remote SPARQL endpoint.

Adds VALUES batching, retry with backoff, and an LRU cache keyed by the
pattern's canonical form, so renamed-variable twins hit, and by a number for
its VALUES table.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from . import engine
from .canon import canonicalize
from .engine import COMPLETE, HARD_TIMEOUT, SOFT_TIMEOUT, EvalResult
from .patterns import GraphPattern, Variable, long_row_error, to_select_sparql
from .rdf import Term, TripleStore, bnode, iri, literal

_STATUS_RANK = {COMPLETE: 0, SOFT_TIMEOUT: 1, HARD_TIMEOUT: 2}


# lowest accepted value of each numeric setting; 0 is valid where it means
# "nothing": no caching, no retry, no wait, a budget that is spent at once
_LOWER_BOUNDS = (("batch_size", 1), ("default_limit", 1), ("cache_capacity", 0),
                 ("cache_ttl", 0), ("retries", 0), ("backoff", 0),
                 ("soft_timeout", 0), ("hard_timeout", 0))


@dataclass
class EndpointConfig:
    soft_timeout: float = engine.DEFAULT_SOFT_TIMEOUT
    hard_timeout: float = engine.DEFAULT_HARD_TIMEOUT
    cache_capacity: int = 100_000
    cache_ttl: float = 3600.0  # seconds a remote answer stays cached
    batch_size: int = 384
    retries: int = 3
    backoff: float = 0.5
    default_limit: int = engine.DEFAULT_LIMIT

    def __post_init__(self):
        # None means no limit: an unmetered engine.select budget
        for name, low in _LOWER_BOUNDS:
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError("%s must be >= %s" % (name, low))


class EndpointUnreachable(RuntimeError):
    """Raised after exhausting retries against a remote endpoint."""


class _LRUCache:
    def __init__(self, capacity: int, ttl: Optional[float] = None):
        self.capacity = capacity
        self.ttl = ttl
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return None
            value, inserted_at = entry
            if self.ttl is not None and time.time() - inserted_at > self.ttl:
                del self._data[key]
                return None
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = (value, time.time())
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self):
        return len(self._data)


class _TableNumbers:
    """A number for each VALUES table, so that a cache key names a table in a
    few bytes. Numbers are never reused, so clearing the registry when it
    holds more than `capacity` tables can cause misses but never a stale hit.
    Two threads that miss on one table at once give it two numbers, which
    also costs only a miss, so the registry needs no lock."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._numbers: dict = {}
        self._next = itertools.count()

    def number(self, width: int, rows) -> int:
        """The number of `rows` padded with None (SPARQL's UNDEF) to `width`
        entries; ValueError for a longer row, as engine.select raises."""
        if set(map(len, rows)) <= {width}:
            table = tuple(rows)
        else:
            for row in rows:
                if len(row) > width:
                    raise long_row_error(row, width)
            table = tuple([row + (None,) * (width - len(row)) for row in rows])
        n = self._numbers.get(table)
        if n is None:
            if len(self._numbers) > self.capacity:
                self._numbers.clear()
            n = self._numbers[table] = next(self._next)
        return n


def _cache_key(gp: GraphPattern, projection, values, limit,
               tables: _TableNumbers) -> str:
    form = canonicalize(gp)
    mapping = form.variable_mapping

    def canon_var(v: Variable) -> str:
        return mapping.get(v, v).n3()

    parts = [form.key, "P:" + ",".join([canon_var(v) for v in projection])]
    if values is not None:
        vvars, rows = values
        parts.append("V:" + ",".join([canon_var(v) for v in vvars]))
        parts.append("T:%d" % tables.number(len(vvars), rows))
    parts.append("L:%s" % (limit,))
    return "\x1e".join(parts)


class Endpoint:
    """Facade sharing one cache across all callers, over a store or a URL."""

    def __init__(self, config: EndpointConfig, store: Optional[TripleStore] = None,
                 url: Optional[str] = None, http_post: Optional[Callable] = None):
        if (store is None) == (not url):
            raise ValueError("an endpoint needs either a store or a url, not both")
        self.config = config
        self.store = store
        self.url = url
        self._http_post = http_post
        # a store cannot change, so only a remote answer expires
        self._cache = _LRUCache(config.cache_capacity,
                                None if store is not None else config.cache_ttl)
        self._tables = _TableNumbers(config.cache_capacity)
        self._plans = engine.PlanMemo(config.cache_capacity)
        self.backend_calls = 0

    # -- public API ---------------------------------------------------------

    def run_select(self, gp: GraphPattern, projection: list[Variable],
                   values: Optional[tuple[list[Variable], list[tuple]]] = None,
                   limit: Optional[int] = None) -> EvalResult:
        key = _cache_key(gp, projection, values, limit, self._tables)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if values is not None and len(values[1]) > self.config.batch_size:
            result = self._batched_select(gp, projection, values, limit)
        else:
            result = self._backend_select(gp, projection, values, limit)
        # a remote HARD_TIMEOUT only comes from 5xx answers, which are
        # transient: caching it would keep a fitness penalty for the whole TTL
        if self.store is not None or result.status != HARD_TIMEOUT:
            self._cache.put(key, result)
        return result

    # -- batching -----------------------------------------------------------

    def _batched_select(self, gp, projection, values, limit) -> EvalResult:
        vvars, rows = values
        merged: list[tuple] = []
        seen: set = set()
        elapsed = 0.0
        worst = COMPLETE
        bs = self.config.batch_size
        for i in range(0, len(rows), bs):
            chunk = rows[i:i + bs]
            res = self._backend_select(gp, projection, (vvars, chunk), limit)
            elapsed += res.elapsed
            if _STATUS_RANK[res.status] > _STATUS_RANK[worst]:
                worst = res.status
            for row in res.rows:
                if row not in seen:
                    seen.add(row)
                    merged.append(row)
        if worst == HARD_TIMEOUT:
            return EvalResult(tuple(projection), [], elapsed, HARD_TIMEOUT)
        if limit is not None:
            merged = merged[:limit]
        return EvalResult(tuple(projection), merged, elapsed, worst)

    # -- backends -----------------------------------------------------------

    def _backend_select(self, gp, projection, values, limit) -> EvalResult:
        self.backend_calls += 1
        if self.store is not None:
            return engine.select(self.store, gp, projection, values, limit,
                                 self.config.soft_timeout,
                                 self.config.hard_timeout, plans=self._plans)
        return self._remote_select(gp, projection, values, limit)

    def _remote_select(self, gp, projection, values, limit) -> EvalResult:
        query = to_select_sparql(gp, projection, values, limit)
        post = self._http_post or _requests_post
        started = time.time()
        delay = self.config.backoff
        last_error = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                status_code, payload = post(
                    self.url, data={"query": query},
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=self.config.hard_timeout)
            except Exception as exc:  # network failure: retry with backoff
                last_error = exc
                continue
            if status_code >= 500:  # overload/timeout: retry with backoff
                last_error = None
                continue
            if status_code >= 400:
                raise RuntimeError("SPARQL endpoint rejected query: HTTP %d"
                                   % status_code)
            rows = _parse_sparql_json(payload, projection)
            return EvalResult(tuple(projection), rows, time.time() - started,
                              COMPLETE)
        if last_error is None:
            # the last attempt got a 5xx answer: fitness punishment, not a crash
            return EvalResult(tuple(projection), [],
                              time.time() - started, HARD_TIMEOUT)
        raise EndpointUnreachable("endpoint unreachable after %d retries: %s"
                                  % (self.config.retries, last_error))


def _requests_post(url, data, headers, timeout):
    import requests
    resp = requests.post(url, data=data, headers=headers, timeout=timeout)
    return resp.status_code, (resp.json() if resp.status_code < 400 else None)


def _json_term(obj: dict) -> Term:
    """The term of a SPARQL JSON value; ValueError if N-Triples cannot write it."""
    typ = obj.get("type")
    if typ == "uri":
        return iri(obj["value"])
    if typ == "bnode":
        return bnode(obj["value"])
    if typ in ("literal", "typed-literal"):
        return literal(obj["value"], datatype=obj.get("datatype"),
                       lang=obj.get("xml:lang"))
    raise ValueError("unknown SPARQL JSON term type: %r" % typ)


def _parse_sparql_json(payload: dict, projection: list[Variable]) -> list[tuple]:
    rows = []
    seen = set()
    for binding in payload.get("results", {}).get("bindings", []):
        row = tuple(_json_term(binding[v.name]) if v.name in binding else None
                    for v in projection)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def local_endpoint(store: TripleStore, **overrides) -> Endpoint:
    return Endpoint(EndpointConfig(**overrides), store=store)
