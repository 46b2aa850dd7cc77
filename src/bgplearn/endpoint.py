"""Uniform query interface over a local store or a remote SPARQL endpoint.

Adds VALUES batching, retry with backoff, and a result cache for the queries
a caller may ask again (fitness and `simplify.projection_checker`), keyed by
the pattern's canonical form, so renamed-variable twins hit, and by a
number for its VALUES table. Fix-var and predict queries skip it. The
results, the table numbers and a local store's plans are three plain dicts;
once any of them holds `_MEMO_BOUND` entries, all three are cleared
together, so a table number is never read against results stored under an
older table. Every query is in the endpoint's handles (see `run_select`).

An answer's rows are distinct: a local one-batch answer's as the engine gave
them, any other's once `run_select` merged its batches' rows, keeping each
row's first occurrence.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, get_type_hints

from . import engine
from .canon import canonicalize
from .engine import COMPLETE, HARD_TIMEOUT, SOFT_TIMEOUT, EvalResult
from .patterns import (GraphPattern, Variable, check_limit, check_pattern,
                       check_projection, check_values_entries, to_select_sparql,
                       values_table)
from .rdf import Term, TripleStore, bnode, iri, literal

# entries any one memo of an Endpoint may hold before all three are cleared
_MEMO_BOUND = 100_000

# [low, high] of each setting; 0 is valid where it means "nothing": no
# retry, no wait, a budget that is spent at once
_BOUNDS = {"batch_size": (1, math.inf), "default_limit": (1, math.inf),
           "retries": (0, math.inf), "backoff": (0, math.inf),
           "soft_timeout": (0, math.inf), "hard_timeout": (0, math.inf)}


_field_types = functools.cache(get_type_hints)  # it compiles annotations per call


def check_settings(config, bounds: dict, unlimited=()) -> None:
    """ValueError unless every field of the dataclass `config` is a finite
    number, an int for an int field and never a bool, in [low, high] where
    `bounds` maps its name to them; a field named in `unlimited` may also be
    None, for "no limit"."""
    types = _field_types(type(config))
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value is None and field.name in unlimited:
            continue
        low, high = bounds.get(field.name, (-math.inf, math.inf))
        kind = types[field.name]  # a float field takes an int too
        if not (isinstance(value, (kind, int)) and not isinstance(value, bool)
                and math.isfinite(value) and low <= value <= high):
            raise ValueError("%s must be a finite %s in [%s, %s], not %r"
                             % (field.name, kind.__name__, low, high, value))


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


def _cache_key(gp: GraphPattern, projection, values, limit, tables: dict) -> str:
    """The cache key of a query whose VALUES rows, if any, are a checked tuple."""
    form = canonicalize(gp)
    mapping = form.variable_mapping

    def canon_var(v: Variable) -> str:
        return mapping.get(v, v).n3()

    parts = [form.key, "P:" + ",".join([canon_var(v) for v in projection])]
    if values is not None:
        vvars, rows = values
        parts.append("V:" + ",".join([canon_var(v) for v in vvars]))
        parts.append("T:%d" % tables.setdefault(rows, len(tables)))
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
        # the type of a handle: a local store's term id, or a remote term
        self._kind = Term if store is None else int
        # the last VALUES table that passed the checks: (rows, width)
        self._checked: tuple = (None, 0)

    # -- public API ---------------------------------------------------------

    def run_select(self, gp: GraphPattern, projection: list[Variable],
                   values: Optional[tuple[list[Variable], list[tuple]]] = None,
                   limit: Optional[int] = None, cache: bool = True) -> EvalResult:
        """The rows of the query; `cache=False` neither reads nor stores the
        result cache, for a caller that never asks the same query twice.

        The query is in this endpoint's handles, both ways: each VALUES
        entry is a handle, as `handles` gives, and so is each entry of a
        row. A local store's handles are its term ids (see `engine.select`),
        a remote endpoint's its terms. `terms` decodes handles and
        `order_key` orders them as their terms.

        The whole VALUES table is checked, its row lengths and the type of
        each entry, before the cache is read or the first batch runs. A
        tuple of tuple rows that passed is not checked again while it is the
        last table checked, such as a learner's ground truth."""
        check_pattern(gp)  # before the cache key, which canonicalizes gp
        check_limit(limit)
        if values is not None:  # the whole table, before the cache and any batch
            rows, width = values[1], len(values[0])
            last = self._checked
            if last[0] is not rows or last[1] != width:
                table = values_table(width, rows)
                check_values_entries(table, self._kind)
                if table is rows and set(map(type, rows)) <= {tuple}:  # it cannot change
                    self._checked = (rows, width)
                rows = table
            values = (values[0], rows)
        memos = (self._cache, self._tables, self._plans)
        if max(map(len, memos)) >= _MEMO_BOUND:
            for memo in memos:
                memo.clear()
        if cache:
            key = _cache_key(gp, projection, values, limit, self._tables)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        bs = self.config.batch_size
        batches = [values]  # of at most batch_size VALUES rows each
        if values is not None and len(values[1]) > bs:
            vvars, rows = values
            batches = [(vvars, rows[i:i + bs]) for i in range(0, len(rows), bs)]
        results = []  # a loop, since before 3.12 a comprehension is a call
        for batch in batches:
            results.append(self._backend_select(gp, projection, batch, limit))
        if self.store is not None and len(results) == 1:
            result = results[0]  # as the engine gave it, its rows distinct
        else:
            result = _merged(results, limit)
        # a remote HARD_TIMEOUT comes from 5xx answers, which are transient,
        # or a budget of 0: caching it would keep a fitness penalty
        if cache and (self.store is not None or result.status != HARD_TIMEOUT):
            self._cache[key] = result
        return result

    def terms(self, handles: list) -> list:
        """The term of each of `handles`; IndexError for a local handle below
        0, which `handles` gives a term the store lacks."""
        if self.store is None:
            return list(handles)
        if handles and min(handles) < 0:
            raise IndexError("handle %d names no term of the store" % min(handles))
        return list(map(self.store.term, handles))

    def handles(self, terms) -> list:
        """The handle of each of `terms`, for the VALUES table of a query: a
        local store's `engine.term_ids`, where a term the store lacks has a
        negative id with no term, or a remote endpoint's terms themselves.
        An entry that is not a `Term` is a ValueError on either backend."""
        terms = list(terms)
        check_values_entries((terms,), Term)
        return terms if self.store is None else engine.term_ids(self.store, terms)

    def order_key(self) -> Callable:
        """The sort key that orders the handles that `terms` decodes as
        `Term.sort_key` orders their terms: a local store's rank of each id,
        or `Term.sort_key` itself. It checks nothing: a local handle below 0
        ranks as one of the store's terms, and `terms` refuses it."""
        return Term.sort_key if self.store is None else self.store.term_rank.__getitem__

    # -- backends -----------------------------------------------------------

    def _backend_select(self, gp, projection, values, limit) -> EvalResult:
        self.backend_calls += 1
        if self.store is not None:
            return engine.select(self.store, gp, projection, values, limit,
                                 self.config.soft_timeout, self.config.hard_timeout,
                                 plans=self._plans, decode=False)
        return self._remote_select(gp, projection, values, limit)

    def _remote_select(self, gp, projection, values, limit) -> EvalResult:
        check_projection(gp, projection, values[0] if values else ())
        if self.config.hard_timeout == 0:  # spent at once; no transport takes a 0
            return EvalResult([], 0.0, HARD_TIMEOUT)
        query = to_select_sparql(gp, projection, values, limit)
        post = self._http_post or _requests_post
        started = time.monotonic()
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
                return EvalResult([], time.monotonic() - started, HARD_TIMEOUT)
            raise EndpointUnreachable("no answer after %d retries: %s"
                                      % (self.config.retries, last_error))
        if status_code >= 400:
            raise EndpointError("SPARQL endpoint rejected query: HTTP %d" % status_code)
        return EvalResult(_parse_sparql_json(body, projection), time.monotonic() - started,
                          COMPLETE)


def _merged(results: list[EvalResult], limit) -> EvalResult:
    """The answer of a query's batches: their distinct rows in first-occurrence
    order, cut to `limit`, none after a HARD_TIMEOUT; the worst status; the
    elapsed times summed in batch order."""
    elapsed = 0.0
    for res in results:
        elapsed += res.elapsed
    status = max([res.status for res in results],
                 key=(COMPLETE, SOFT_TIMEOUT, HARD_TIMEOUT).index)
    if status == HARD_TIMEOUT:
        return EvalResult([], elapsed, status)
    rows = dict.fromkeys(itertools.chain.from_iterable([res.rows for res in results]))
    return EvalResult(list(rows)[:limit], elapsed, status)


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
    """The rows of a SPARQL JSON answer's body, one per binding, repeats kept
    (`Endpoint.run_select` makes them distinct); ValueError unless it is JSON
    in the results format and each binding binds every projected variable."""
    try:
        payload = json.loads(body)
    except ValueError as exc:  # bad input, not a network failure to retry
        raise ValueError("SPARQL JSON answer that is not JSON: %s" % exc) from exc
    results = payload.get("results") if isinstance(payload, dict) else None
    bindings = results.get("bindings") if isinstance(results, dict) else None
    if not isinstance(bindings, list):
        raise ValueError("SPARQL JSON answer without a results.bindings list")
    rows = []
    for binding in bindings:
        if not (isinstance(binding, dict)
                and all(v.name in binding for v in projection)):
            raise ValueError("SPARQL JSON binding that does not bind each of %s: %r"
                             % (" ".join(v.n3() for v in projection), binding))
        rows.append(tuple([_json_term(binding[v.name]) for v in projection]))
    return rows


def local_endpoint(store: TripleStore, **overrides) -> Endpoint:
    return Endpoint(EndpointConfig(**overrides), store=store)
