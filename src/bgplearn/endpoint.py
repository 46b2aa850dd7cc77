"""Uniform query interface over a local store or a remote SPARQL endpoint.

Adds VALUES batching, retry with backoff, and a result cache for the queries
a caller may ask again (fitness and `simplify.projection_checker`), keyed by
the pattern's canonical form, so renamed-variable twins hit, and by a number
for its VALUES table. Fix-var and predict queries skip it, and so does
every query whose rows are not decoded to terms. The results, the
table numbers and a local store's plans are three plain dicts; once any of
them holds `_MEMO_BOUND` entries, all three are cleared together, so a table
number is never read against results stored under an older table.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import engine
from .canon import canonicalize
from .engine import COMPLETE, HARD_TIMEOUT, SOFT_TIMEOUT, EvalResult
from .patterns import (GraphPattern, Variable, check_limit, check_pattern,
                       check_projection, to_select_sparql, values_table)
from .rdf import Term, TripleStore, bnode, iri, literal

_STATUS_RANK = {COMPLETE: 0, SOFT_TIMEOUT: 1, HARD_TIMEOUT: 2}

# entries any one memo of an Endpoint may hold before all three are cleared
_MEMO_BOUND = 100_000

# [low, high] of each setting; 0 is valid where it means "nothing": no
# retry, no wait, a budget that is spent at once
_BOUNDS = {"batch_size": (1, math.inf), "default_limit": (1, math.inf),
           "retries": (0, math.inf), "backoff": (0, math.inf),
           "soft_timeout": (0, math.inf), "hard_timeout": (0, math.inf)}


def check_settings(config, bounds: dict, unlimited=()) -> None:
    """ValueError unless every field of the dataclass `config` is a finite
    number, in [low, high] where `bounds` maps its name to them; a field
    named in `unlimited` may also be None, for "no limit"."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value is None and field.name in unlimited:
            continue
        low, high = bounds.get(field.name, (-math.inf, math.inf))
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and low <= value <= high):
            raise ValueError("%s must be a finite number in [%s, %s], not %r"
                             % (field.name, low, high, value))


@dataclass
class EndpointConfig:
    soft_timeout: float = engine.DEFAULT_SOFT_TIMEOUT
    hard_timeout: float = engine.DEFAULT_HARD_TIMEOUT
    batch_size: int = 384
    retries: int = 3
    backoff: float = 0.5
    default_limit: int = engine.DEFAULT_LIMIT

    def __post_init__(self):
        # a None timeout is an unmetered engine.select budget
        check_settings(self, _BOUNDS, unlimited=("soft_timeout", "hard_timeout"))


class EndpointError(RuntimeError):
    """A remote endpoint refused a query (HTTP 4xx) or could not be reached."""


class EndpointUnreachable(EndpointError):
    """Raised after exhausting retries against a remote endpoint."""


def _cache_key(gp: GraphPattern, projection, values, limit,
               tables: dict) -> str:
    form = canonicalize(gp)
    mapping = form.variable_mapping

    def canon_var(v: Variable) -> str:
        return mapping.get(v, v).n3()

    parts = [form.key, "P:" + ",".join([canon_var(v) for v in projection])]
    if values is not None:
        vvars, rows = values
        parts.append("V:" + ",".join([canon_var(v) for v in vvars]))
        table = values_table(len(vvars), rows)
        parts.append("T:%d" % tables.setdefault(table, len(tables)))
    parts.append("L:%s" % (limit,))
    return "\x1e".join(parts)


class Endpoint:
    """Facade over a store or a URL, with one result cache for the queries
    that ask for it. `http_post(url, data, headers, timeout)`, requests by
    default, returns an answer's status code and body, or raises OSError."""

    def __init__(self, config: EndpointConfig, store: Optional[TripleStore] = None,
                 url: Optional[str] = None, http_post: Optional[Callable] = None):
        if (store is None) == (not url):
            raise ValueError("an endpoint needs either a store or a url, not both")
        self.config = config
        self.store = store
        self.url = url
        self._http_post = http_post
        self._cache: dict = {}
        self._tables: dict = {}
        self._plans: dict = {}
        self.backend_calls = 0
        # the term of a handle in an undecoded row
        self.term: Callable = store.term if store is not None else _same

    # -- public API ---------------------------------------------------------

    def run_select(self, gp: GraphPattern, projection: list[Variable],
                   values: Optional[tuple[list[Variable], list[tuple]]] = None,
                   limit: Optional[int] = None, cache: bool = True,
                   decode: bool = True) -> EvalResult:
        """The rows of the query; `cache=False` neither reads nor stores the
        result cache, for a caller that never asks the same query twice.

        `decode=False` leaves each row as this endpoint's handles: a local
        store's term ids (see `engine.select`) or a remote endpoint's terms.
        `term` decodes a handle and `order_key` orders handles as their
        terms. Such a query neither reads nor stores the result cache, which
        holds decoded rows."""
        check_pattern(gp)  # before the cache key, which canonicalizes gp
        check_limit(limit)
        cache = cache and decode
        memos = (self._cache, self._tables, self._plans)
        if max(map(len, memos)) >= _MEMO_BOUND:
            for memo in memos:
                memo.clear()
        if cache:
            key = _cache_key(gp, projection, values, limit, self._tables)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        if values is not None and len(values[1]) > self.config.batch_size:
            result = self._batched_select(gp, projection, values, limit, decode)
        else:
            result = self._backend_select(gp, projection, values, limit, decode)
        # a remote HARD_TIMEOUT only comes from 5xx answers, which are
        # transient: caching it would keep a fitness penalty for the session
        if cache and (self.store is not None or result.status != HARD_TIMEOUT):
            self._cache[key] = result
        return result

    def order_key(self) -> Callable:
        """The sort key that orders handles as `Term.sort_key` orders their
        terms: a local store's rank of each id, or `Term.sort_key` itself."""
        return Term.sort_key if self.store is None else self.store.term_rank.__getitem__

    # -- batching -----------------------------------------------------------

    def _batched_select(self, gp, projection, values, limit, decode) -> EvalResult:
        vvars, rows = values
        merged: list[tuple] = []
        seen: set = set()
        elapsed = 0.0
        worst = COMPLETE
        bs = self.config.batch_size
        for i in range(0, len(rows), bs):
            chunk = rows[i:i + bs]
            res = self._backend_select(gp, projection, (vvars, chunk), limit, decode)
            elapsed += res.elapsed
            if _STATUS_RANK[res.status] > _STATUS_RANK[worst]:
                worst = res.status
            for row in res.rows:
                if row not in seen:
                    seen.add(row)
                    merged.append(row)
        if worst == HARD_TIMEOUT:
            return EvalResult([], elapsed, HARD_TIMEOUT)
        return EvalResult(merged[:limit], elapsed, worst)

    # -- backends -----------------------------------------------------------

    def _backend_select(self, gp, projection, values, limit, decode) -> EvalResult:
        self.backend_calls += 1
        if self.store is not None:
            return engine.select(self.store, gp, projection, values, limit,
                                 self.config.soft_timeout, self.config.hard_timeout,
                                 plans=self._plans, decode=decode)
        return self._remote_select(gp, projection, values, limit)

    def _remote_select(self, gp, projection, values, limit) -> EvalResult:
        check_projection(gp, projection, values[0] if values else ())
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
                status_code, body = post(
                    self.url, data={"query": query},
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=self.config.hard_timeout)
            except OSError as exc:  # transport failure: retry with backoff
                last_error = exc
                continue
            if status_code < 500:
                break
            last_error = None  # overload/timeout: retry with backoff
        else:
            if last_error is None:
                # the last attempt got a 5xx answer: fitness punishment, not a crash
                return EvalResult([], time.time() - started, HARD_TIMEOUT)
            raise EndpointUnreachable("no answer after %d retries: %s"
                                      % (self.config.retries, last_error))
        if status_code >= 400:
            raise EndpointError("SPARQL endpoint rejected query: HTTP %d" % status_code)
        return EvalResult(_parse_sparql_json(body, projection), time.time() - started,
                          COMPLETE)


def _same(handle):
    return handle


def _requests_post(url, data, headers, timeout):
    import requests  # its errors are OSErrors
    resp = requests.post(url, data=data, headers=headers, timeout=timeout)
    return resp.status_code, resp.content


def _json_term(obj: dict) -> Term:
    """The term of a SPARQL JSON value; `Term` refuses a field it cannot hold."""
    typ = obj.get("type") if isinstance(obj, dict) else None
    if typ == "uri":
        return iri(obj.get("value"))
    if typ == "bnode":
        return bnode(obj.get("value"))
    if typ in ("literal", "typed-literal"):
        return literal(obj.get("value"), obj.get("datatype"), obj.get("xml:lang"))
    raise ValueError("SPARQL JSON term of unknown type: %r" % (obj,))


def _parse_sparql_json(body, projection: list[Variable]) -> list[tuple]:
    """The distinct rows of a SPARQL JSON answer's body; ValueError unless it is
    JSON in the results format and each binding binds every projected variable."""
    try:
        payload = json.loads(body)
    except ValueError as exc:  # bad input, not a network failure to retry
        raise ValueError("SPARQL JSON answer that is not JSON: %s" % exc) from exc
    results = payload.get("results") if isinstance(payload, dict) else None
    bindings = results.get("bindings") if isinstance(results, dict) else None
    if not isinstance(bindings, list):
        raise ValueError("SPARQL JSON answer without a results.bindings list")
    rows = []
    seen = set()
    for binding in bindings:
        if not (isinstance(binding, dict)
                and all(v.name in binding for v in projection)):
            raise ValueError("SPARQL JSON binding that does not bind each of %s: %r"
                             % (" ".join(v.n3() for v in projection), binding))
        row = tuple([_json_term(binding[v.name]) for v in projection])
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def local_endpoint(store: TripleStore, **overrides) -> Endpoint:
    return Endpoint(EndpointConfig(**overrides), store=store)
