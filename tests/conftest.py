import dataclasses
import itertools
import random

import pytest

from bgplearn.fitness import GroundTruthPair
from bgplearn.patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR,
                               TriplePattern, Variable, check_values_entries,
                               is_var, values_table)
from bgplearn.rdf import (LITERAL, IRI, Term, Triple, TripleStore, bnode, iri,
                          literal)

EX = "http://example.org/"

# the keys of the paper's rates, which were settings and are constants of the
# search now: evolution's and fitness.OVERFIT_FACTOR
RATE_KEYS = ["mating_prob", "p_dominant", "p_recessive", "fragment_fraction",
             "init_fix_var_prob", "fix_var_children", "overfit_factor"]


def ex(name):
    return iri(EX + name)


CAPITALS_TTL = """
@prefix : <http://example.org/> .
:Berlin :capitalOf :Germany .
:Paris :capitalOf :France .
:Oslo :capitalOf :Norway .
:Germany a :Country .
:France a :Country .
:Norway a :Country .
:Berlin :locatedIn :Germany .
:Berlin :population :Paris .
"""


@pytest.fixture
def capitals_store():
    from bgplearn.rdf import load_ntriples
    return load_ntriples(CAPITALS_TTL)


@pytest.fixture
def capitals_gt():
    return [GroundTruthPair(ex("Berlin"), ex("Germany")),
            GroundTruthPair(ex("Paris"), ex("France")),
            GroundTruthPair(ex("Oslo"), ex("Norway"))]


@pytest.fixture
def missing_gt():
    """Pairs over the capitals store whose sources Atlantis (twice) and
    Lemuria and whose target Elsewhere the store lacks."""
    return [GroundTruthPair(ex("Berlin"), ex("Germany")),
            GroundTruthPair(ex("Atlantis"), ex("Germany")),
            GroundTruthPair(ex("Paris"), ex("Elsewhere")),
            GroundTruthPair(ex("Lemuria"), ex("France")),
            GroundTruthPair(ex("Atlantis"), ex("Norway")),
            GroundTruthPair(ex("Oslo"), ex("Norway"))]


def random_store(rng, n_triples=60, n_nodes=15, n_preds=4):
    nodes = [ex("n%d" % i) for i in range(n_nodes)]
    preds = [ex("p%d" % i) for i in range(n_preds)]
    n_triples = min(n_triples, n_nodes * n_nodes * n_preds)
    triples = set()
    while len(triples) < n_triples:
        triples.add(Triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes)))
    return TripleStore(triples)


def mixed_store(rng, n_triples=40):
    """A random store whose objects include blank nodes and literals, whose
    predicates are nodes too, with self-loops and node pairs that more than
    one predicate joins."""
    nodes = [ex("n%d" % i) for i in range(8)] + [bnode("b%d" % i) for i in range(3)]
    objects = nodes + [literal("l%d" % i) for i in range(3)] + [literal("l0", lang="en")]
    preds = nodes[:3] + [ex("p")]
    triples = set()
    while len(triples) < n_triples:
        s = rng.choice(nodes)
        o = s if rng.random() < 0.1 else rng.choice(objects)
        triples.add(Triple(s, rng.choice(preds), o))
    return TripleStore(triples)


def json_term(term: Term) -> dict:
    """The SPARQL JSON value of a term, as a remote endpoint answers it."""
    if term.kind == "iri":
        return {"type": "uri", "value": term.value}
    if term.kind == "bnode":
        return {"type": "bnode", "value": term.value}
    out = {"type": "literal", "value": term.value}
    if term.lang is not None:
        out["xml:lang"] = term.lang
    if term.datatype is not None:
        out["datatype"] = term.datatype
    return out


def select_terms(ep, gp, projection, values=None, limit=None, cache=True):
    """`ep.run_select` of a query in terms, read as `engine.select` reads
    one: its VALUES table is checked to hold terms and encoded with
    `ep.handles`, and its rows are decoded with `ep.terms`. A VALUES term
    that a local store lacks decodes back to itself."""
    missing = {}
    if values is not None:
        vvars, rows = values
        rows = values_table(len(vvars), rows)
        check_values_entries(rows, Term)
        flat = list(itertools.chain.from_iterable(rows))
        handles = ep.handles(flat)
        missing = {h: t for t, h in zip(flat, handles) if type(h) is int and h < 0}
        it = iter(handles)
        values = (vvars, [tuple(itertools.islice(it, len(vvars))) for _ in rows])
    res = ep.run_select(gp, projection, values, limit, cache)
    rows = [tuple(missing[h] if h in missing else ep.terms([h])[0] for h in row)
            for row in res.rows]
    return dataclasses.replace(res, rows=rows)


def sorted_set_graph(store):
    """The sorted node ids of the store's distinct (subject, object) edges,
    and each edge's source and destination as indices into them, edges in
    sorted order: the graph built from a sorted set of edge tuples."""
    edges = sorted({(s, o) for s, _, o in store.match_ids(None, None, None)})
    nodes = sorted({n for e in edges for n in e})
    index = {n: i for i, n in enumerate(nodes)}
    return nodes, [index[s] for s, _ in edges], [index[o] for _, o in edges]


def random_pattern(rng, n_triples=3, n_vars=4, store=None, with_reserved=True):
    """Random pattern over the store's vocabulary mixed with variables."""
    variables = [SOURCE_VAR, TARGET_VAR] if with_reserved else []
    variables += [Variable("v%d" % i) for i in range(n_vars)]
    terms = store.terms if store is not None else [ex("n%d" % i) for i in range(5)]
    nodes = [t for t in terms if t.kind != LITERAL]
    preds = [t for t in terms if t.kind == IRI]
    triples = []
    for _ in range(n_triples):
        s = rng.choice(variables + nodes)
        p = rng.choice(variables + preds)
        o = rng.choice(variables + nodes)
        triples.append(TriplePattern(s, p, o))
    return GraphPattern(triples)


def _values_bindings(values):
    if values is None:
        return [{}]
    return [dict(zip(values[0], row)) for row in values[1]]


def naive_select(store, gp, projection, values=None):
    """Independent oracle: per-pattern naive membership filtering, then a full
    cartesian product with a join consistency check. No indexes, no planning.
    VALUES bindings are substituted per row before filtering, which keeps the
    product tractable without changing the semantics."""
    all_triples = list(store.triples())

    def candidates(tp, base):
        out = []
        for tr in all_triples:
            ok = True
            for node, val in zip(tp, tr):
                if is_var(node):
                    if node in base and base[node] != val:
                        ok = False
                        break
                elif node != val:
                    ok = False
                    break
            if ok:
                out.append(tr)
        return out

    patterns = sorted(gp.triples, key=TriplePattern.sort_key)
    initial = _values_bindings(values)
    rows = set()
    for base in initial:
        cand_lists = [candidates(tp, base) for tp in patterns]
        for combo in itertools.product(*cand_lists):
            binding = dict(base)
            ok = True
            for tp, tr in zip(patterns, combo):
                for node, val in zip(tp, tr):
                    if is_var(node):
                        if node in binding and binding[node] != val:
                            ok = False
                            break
                        binding[node] = val
                    elif node != val:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                rows.add(tuple(binding[v] for v in projection))
    return rows


def naive_cost(store, gp, values=None):
    """Size of the cartesian product the naive oracle would enumerate."""
    all_triples = list(store.triples())
    initial = _values_bindings(values)
    total = 0
    for base in initial:
        product = 1
        for tp in sorted(gp.triples, key=TriplePattern.sort_key):
            n = 0
            for tr in all_triples:
                ok = True
                for node, val in zip(tp, tr):
                    if is_var(node):
                        if node in base and base[node] != val:
                            ok = False
                            break
                    elif node != val:
                        ok = False
                        break
                if ok:
                    n += 1
            product *= n
            if product == 0:
                break
        total += product
    return total


def variable_bijection_isomorphic(gp1, gp2):
    """Exhaustive check: some renaming of non-reserved variables maps gp1 to gp2."""
    v1 = sorted((v for v in gp1.variables() if not v.is_reserved),
                key=lambda v: v.name)
    v2 = sorted((v for v in gp2.variables() if not v.is_reserved),
                key=lambda v: v.name)
    if len(v1) != len(v2) or len(gp1) != len(gp2):
        return False
    for perm in itertools.permutations(v2):
        mapping = dict(zip(v1, perm))
        if gp1.substitute(mapping) == gp2:
            return True
    return False
