"""JSON (de)serialization for patterns, run logs, and ground-truth TSV parsing."""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Optional

from .evolution import LearnedPattern
from .fitness import CoverageLedger, FitnessTuple, GroundTruthPair, PatternEvaluation
from .patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR, TriplePattern, Variable,
                       is_var, to_select_sparql)
from .rdf import IRI, Term, iri, literal


class GroundTruthError(ValueError):
    """GT file rejected; carries offending row numbers."""

    def __init__(self, message: str, rows: Optional[list[int]] = None):
        super().__init__(message)
        self.rows = rows or []


def node_to_json(node) -> dict:
    if is_var(node):
        return {"type": "var", "name": node.name}
    if node.kind == IRI:
        return {"type": "iri", "value": node.value}
    out = {"type": "literal", "value": node.value}
    if node.datatype is not None:
        out["datatype"] = node.datatype
    if node.lang is not None:
        out["lang"] = node.lang
    return out


def node_from_json(obj: dict):
    typ = obj["type"]
    if typ == "var":
        return Variable(obj["name"])
    if typ == "iri":
        return iri(obj["value"])
    if typ == "literal":
        return literal(obj["value"], obj.get("datatype"), obj.get("lang"))
    raise ValueError("unknown node type: %r" % typ)


def pattern_to_json(gp: GraphPattern) -> list:
    return [[node_to_json(tp.s), node_to_json(tp.p), node_to_json(tp.o)]
            for tp in gp.sorted_triples()]


def pattern_from_json(obj: list) -> GraphPattern:
    return GraphPattern(TriplePattern(node_from_json(s), node_from_json(p),
                                      node_from_json(o))
                        for s, p, o in obj)


def learned_to_json(lp) -> dict:
    return {
        "pattern": pattern_to_json(lp.pattern),
        "sparql": to_select_sparql(lp.pattern, [SOURCE_VAR, TARGET_VAR]),
        "pattern_text": lp.pattern.text(),
        "canonical_key": lp.canonical_key,
        "fitness": dataclasses.asdict(lp.fitness),
        "pv": lp.evaluation.pv,
        "covered": lp.evaluation.covered,
        "run_index": lp.run_index,
    }


def learned_from_json(obj: dict):
    return LearnedPattern(
        pattern=pattern_from_json(obj["pattern"]),
        fitness=FitnessTuple(**obj["fitness"]),
        # the ledger's rule: each entry a number in [0, 1], NaN refused
        evaluation=PatternEvaluation(pv=list(CoverageLedger(obj["pv"]).values)),
        run_index=obj["run_index"],
    )


def run_record_to_json(rec, echo_config: dict) -> dict:
    return {
        "run_index": rec.run_index,
        "remains_before": rec.remains_before,
        "remains_after": rec.remains_after,
        "generations": rec.generations,
        "accepted": [learned_to_json(lp) for lp in rec.accepted],
        "config": echo_config,
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Ground-truth TSV: `source<TAB>target`, `#` comments, optional prefix header.


def _parse_gt_term(token: str, prefixes: dict[str, str], row: int) -> Term:
    """The IRI of a `<IRI>`, a prefixed name whose prefix is declared, or a
    bare absolute IRI; GroundTruthError naming `row` if it is none of them."""
    token = token.strip()
    if token.startswith("<") and token.endswith(">"):
        token = token[1:-1]
    else:
        pfx, colon, local = token.partition(":")
        if colon and pfx in prefixes:
            token = prefixes[pfx] + local
    try:
        return iri(token)
    except ValueError as exc:
        raise GroundTruthError("row %d: %s" % (row, exc), [row]) from None


_PREFIX_LINE = re.compile(
    r"^\s*(?:@prefix|PREFIX|prefix)\s+([A-Za-z_][\w\-]*)?:\s*<([^>]*)>\s*\.?\s*$")


def parse_ground_truth(text: str) -> list[GroundTruthPair]:
    prefixes: dict[str, str] = {}
    pairs: list[GroundTruthPair] = []
    seen: dict[GroundTruthPair, int] = {}
    dup_rows: list[int] = []
    for row, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _PREFIX_LINE.match(line)
        if m:
            prefixes[m.group(1) or ""] = m.group(2)
            continue
        fields = [f for f in re.split(r"\t+", stripped) if f]
        if len(fields) != 2:
            raise GroundTruthError(
                "expected two tab-separated IRIs at row %d" % row, [row])
        pair = GroundTruthPair(_parse_gt_term(fields[0], prefixes, row),
                               _parse_gt_term(fields[1], prefixes, row))
        if pair in seen:
            dup_rows.append(row)
        else:
            seen[pair] = row
            pairs.append(pair)
    if dup_rows:
        raise GroundTruthError("duplicate ground-truth rows: %s"
                               % ", ".join(map(str, dup_rows)), dup_rows)
    if not pairs:
        raise GroundTruthError("ground-truth file contains no pairs")
    return pairs


def parse_sources(text: str) -> list[Term]:
    """The IRIs of a sources file: one ground-truth cell per line, `#` comments."""
    return [_parse_gt_term(line, {}, row)
            for row, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("#")]
