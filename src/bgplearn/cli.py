"""Command-line entry points: learn, predict, evaluate, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Optional, get_type_hints

from . import evalharness, evolution, predict as predict_mod
from .endpoint import Endpoint, EndpointConfig, EndpointError, EndpointUnreachable
from .evolution import EvolutionConfig
from .fitness import CoverageLedger, GroundTruthPair
from .iojson import (GroundTruthError, check_run_index, dumps, learned_from_json,
                     learned_to_json, parse_ground_truth, parse_sources,
                     run_record_to_json)
from .rdf import load_file
from .report import build_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_ENDPOINT = 3


class UsageError(Exception):
    """A bad option or config, no backend, or an output that cannot be written."""


class RunLogError(Exception):
    """A run log that `report` cannot read."""


# every field is an int or a float, so its declared type converts its text
_EVO_TYPES = get_type_hints(EvolutionConfig)
_TYPES = {**_EVO_TYPES, **get_type_hints(EndpointConfig)}


def load_config(path: Optional[str], overrides: list[str]
                ) -> tuple[EvolutionConfig, EndpointConfig]:
    """Flat key=value file plus `--set key=value` overrides; every field
    addressable, the last setting of a key winning. An error names the key,
    and `--set` or the file and line of the setting at fault."""
    items: list[tuple[str, str]] = []  # (where it was set, key=value)
    if path:
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    items.append(("%s, line %d" % (path, number), line))
    items += [("--set", ov) for ov in overrides]
    settings: dict[str, tuple] = {}  # key -> (text, where) of its last setting
    for where, item in items:
        key, _, text = map(str.strip, item.partition("="))
        if key not in _TYPES:
            raise ValueError("unknown config key: %r (%s)" % (key, where))
        settings[key] = (text, where)
    # only the value that stands is converted, and it meets its config's
    # checks alone, as no check reads two fields, so a bad value is named
    # where it was set and one that a later setting overrides is no error
    values = {}
    for key, (text, where) in settings.items():
        try:
            values[key] = _TYPES[key](text)
        except ValueError as exc:
            raise ValueError("%s: %s (%s)" % (key, exc, where)) from exc
        try:
            (EvolutionConfig if key in _EVO_TYPES else EndpointConfig)(**{key: values[key]})
        except ValueError as exc:
            raise ValueError("%s (%s)" % (exc, where)) from exc
    return (EvolutionConfig(**{k: v for k, v in values.items() if k in _EVO_TYPES}),
            EndpointConfig(**{k: v for k, v in values.items() if k not in _EVO_TYPES}))


def _open_endpoint(args) -> tuple[EvolutionConfig, Endpoint]:
    """The configs from --config/--set and the endpoint they configure."""
    try:
        evo_cfg, ep_cfg = load_config(args.config, args.set or [])
    except (ValueError, OSError) as exc:
        raise UsageError(exc) from exc
    if args.store:
        # an explicit store is never overridden, by a URL or the environment
        if args.endpoint_url:
            raise UsageError("give either --store or --endpoint-url, not both")
        try:
            return evo_cfg, Endpoint(ep_cfg, store=load_file(args.store))
        except (ValueError, OSError) as exc:
            raise ValueError("store %s: %s" % (args.store, exc)) from exc
    url = args.endpoint_url or os.environ.get("BGPLEARN_ENDPOINT")
    if not url:
        raise UsageError("either --store or --endpoint-url is required")
    return evo_cfg, Endpoint(ep_cfg, url=url)


def _read_gt(path: str) -> list[GroundTruthPair]:
    try:
        with open(path) as fh:
            return parse_ground_truth(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise GroundTruthError(str(exc)) from exc


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_learned(path: str) -> tuple[list, list[evolution.LearnedPattern],
                                       Optional[int]]:
    """The ground truth, patterns and next run index of a `patterns.json`
    (None for a file without `next_run`); ValueError if malformed."""
    try:
        doc = _read_json(path)
        next_run = doc.get("next_run")
        if next_run is not None:
            check_run_index("next_run", next_run)
        return (doc.get("ground_truth"),
                [learned_from_json(obj) for obj in doc["patterns"]], next_run)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError("patterns %s: malformed (%s: %s)"
                         % (path, type(exc).__name__, exc)) from exc


def _write(path: Optional[str], text: str) -> None:
    """`text` to stdout, or into `path`: replaced whole if it is new or a regular file."""
    if path:
        tmp = path + ".tmp"
        if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
            tmp = path
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            if tmp != path:
                os.replace(tmp, path)
        except OSError as exc:
            raise UsageError("cannot write: %s" % exc) from exc
    else:
        sys.stdout.write(text)


def _write_report(run_docs: list[dict], gt_doc: list, html_path: str,
                  json_path: str) -> None:
    """The report of a session's run logs; ValueError if they do not fit `gt_doc`."""
    page, json_doc = build_report(run_docs, gt_doc)
    _write(html_path, page)
    _write(json_path, dumps(json_doc))


def cmd_learn(args) -> int:
    gt = _read_gt(args.gt)
    evo_cfg, endpoint = _open_endpoint(args)
    if args.seed is not None:
        evo_cfg.seed = args.seed

    gt_doc = [[p.source.value, p.target.value] for p in gt]
    ledger, next_run, learned = CoverageLedger.zeros(len(gt)), 1, []
    patterns_path = os.path.join(args.out, "patterns.json")
    if args.resume and os.path.exists(patterns_path):
        saved_gt, learned, next_run = _read_learned(patterns_path)
        try:
            if saved_gt != gt_doc:
                raise ValueError("learned on other GT pairs")
            if next_run is None:
                raise ValueError("no next_run to resume from")
            # max is exact: the ledger the session had after its last run
            ledger = ledger.updated(lp.evaluation.pv for lp in learned)
        except (TypeError, ValueError) as exc:
            raise ValueError("patterns %s: %s" % (patterns_path, exc)) from exc
    try:
        os.makedirs(args.out, exist_ok=True)
        # logs of runs this session does not keep: an earlier session's or uncommitted
        for name in os.listdir(args.out):
            run = re.fullmatch(r"run_(\d+)\.json", name)
            if run and int(run.group(1)) >= next_run:
                os.remove(os.path.join(args.out, name))
    except OSError as exc:
        raise UsageError("cannot write: %s" % exc) from exc

    def save() -> None:
        """patterns.json, replaced whole: the one file that commits the session."""
        _write(patterns_path, dumps({"ground_truth": gt_doc, "next_run": next_run,
                                     "patterns": [learned_to_json(lp) for lp in learned]}))

    save()  # a session that runs nothing still leaves its files
    for rec in evolution.learn_runs(endpoint, gt, evo_cfg, ledger, next_run,
                                    [lp.canonical_key for lp in learned]):
        _write(os.path.join(args.out, "run_%03d.json" % rec.run_index),
               dumps(run_record_to_json(rec, echo_config=dataclasses.asdict(evo_cfg))))
        learned += evolution.best_first(rec.accepted)
        ledger, next_run = rec.ledger, rec.run_index + 1
        save()
    run_docs = [_read_json(os.path.join(args.out, "run_%03d.json" % run_index))
                for run_index in range(1, next_run)]
    _write_report(run_docs, gt_doc, os.path.join(args.out, "report.html"),
                  os.path.join(args.out, "report.json"))
    print("learned %d patterns over %d runs; remains %.3f"
          % (len(learned), len(run_docs), ledger.remains()))
    return EXIT_OK


def _load_portfolio(path: str) -> predict_mod.PatternPortfolio:
    """The portfolio in a `patterns.json`; ValueError if it is malformed."""
    return predict_mod.PatternPortfolio([predict_mod.PortfolioEntry(
        lp.pattern, lp.evaluation.pv, lp.fitness) for lp in _read_learned(path)[1]])


def _predict_each(endpoint, portfolio: predict_mod.PatternPortfolio, k: int,
                  sources) -> tuple[Optional[predict_mod.PatternPortfolio], dict]:
    """The portfolio reduced to at most `k` queries, and the ranked prediction
    of each distinct source by it; (None, {}) for an empty portfolio."""
    if not portfolio.entries:
        return None, {}
    reduced = predict_mod.reduce_queries(portfolio, k)
    return reduced, {source: predict_mod.predict(endpoint, reduced, source)
                     for source in dict.fromkeys(sources)}


def cmd_predict(args) -> int:
    endpoint = _open_endpoint(args)[1]
    portfolio = _load_portfolio(args.patterns)
    with open(args.sources) as fh:
        try:
            sources = parse_sources(fh.read())
        except GroundTruthError as exc:  # a cell of the sources, not of a GT file
            raise ValueError("sources %s: %s" % (args.sources, exc)) from exc
    reduced, ranked = _predict_each(endpoint, portfolio, args.k, sources)
    if reduced is None:
        out = {"predictions": []}
    else:
        strategies = ([args.strategy] if args.strategy
                      else list(predict_mod.FUSION_STRATEGIES))
        predictions = [{
            "source": source.value,
            "rankings": {s: [[t.value if t.kind == "iri" else t.n3(), v]
                             for t, v in ranked[source].rankings[s]]
                         for s in strategies},
        } for source in sources]
        out = {"predictions": predictions,
               "clustering": {"variant": reduced.clustering_variant,
                              "k": args.k,
                              "precision_loss": reduced.precision_loss}}
    _write(args.out, dumps(out))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    endpoint = _open_endpoint(args)[1]
    if args.baselines and endpoint.store is None:
        raise UsageError("--baselines needs a local --store; the graph scores "
                         "cannot be computed over a remote endpoint")
    portfolio = _load_portfolio(args.patterns)
    gt = _read_gt(args.gt)

    split = evalharness.split_pairs(gt, ratio=args.ratio, seed=args.split_seed)
    test = split.test
    if not test:  # never score the pairs the patterns were trained on
        raise UsageError("--ratio %s leaves no test pair among %d ground-truth "
                         "pairs" % (args.ratio, len(gt)))
    reduced, ranked = _predict_each(endpoint, portfolio, args.k,
                                    [pair.source for pair in test])

    reports: dict[str, evalharness.MetricReport] = {}
    if reduced is not None:
        for s in predict_mod.FUSION_STRATEGIES:
            reports[s] = evalharness.metrics([
                evalharness.rank_of_truth(ranked[pair.source].rankings[s], pair.target)
                for pair in test])

    if args.baselines:
        store = endpoint.store
        # a degree scorer, given no scores, scores only each source's candidates
        scorers = (("pagerank", evalharness.PAGERANK, evalharness.pagerank(store)),
                   ("hits", evalharness.HITS_AUTH, evalharness.hits(store)[0]),
                   ("indeg", evalharness.INDEG, None),
                   ("outdeg", evalharness.OUTDEG, None))
        for scorer_name, scorer, scores in scorers:
            for direction in ("in", "out", "bidi"):
                ranks = []
                for pair in test:
                    ranked = evalharness.baseline_predict(
                        store, pair.source, direction, scorer, k=args.top,
                        scores=scores)
                    ranks.append(evalharness.rank_of_truth(ranked, pair.target))
                reports["%s %s" % (scorer_name, direction)] = evalharness.metrics(ranks)

    doc = {"test_pairs": len(test), "train_pairs": len(split.train),
           "split_seed": args.split_seed,
           "metrics": {name: rep.as_dict() for name, rep in sorted(reports.items())}}
    _write(args.out, dumps(doc))
    sys.stdout.write(format_metric_table(reports))
    return EXIT_OK


def format_metric_table(reports: dict[str, "evalharness.MetricReport"]) -> str:
    ks = evalharness.RECALL_KS
    header = "%-18s" % "" + "".join("%9s" % ("R@%d" % k) for k in ks) \
        + "%9s%9s" % ("MAP", "NDCG")
    lines = [header]
    for name, rep in sorted(reports.items()):
        cells = "".join("%9.3f" % rep.recall_at_k.get(k, 0.0) for k in ks)
        lines.append("%-18s%s%9.3f%9.3f" % (name, cells, rep.map, rep.ndcg))
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    try:
        dirs = sorted({os.path.dirname(os.path.abspath(path)) for path in args.runlogs})
        if len(dirs) > 1:
            raise ValueError("run logs from more than one directory: %s"
                             % ", ".join(dirs))
        gt_doc = _read_json(os.path.join(dirs[0], "patterns.json"))["ground_truth"]
        run_docs = [_read_json(path) for path in sorted(args.runlogs)]
        _write_report(run_docs, gt_doc, args.html, args.json)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # unreadable, not JSON, without a field that the report reads, not
        # beside the session's patterns.json, or not fitting its ground truth
        raise RunLogError("%s: %s" % (type(exc).__name__, exc)) from exc
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_USAGE, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, not %d" % value)
    return value


def ratio(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1], not %s" % raw)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bgplearn",
        description="Learn SPARQL basic graph patterns for source-target pairs "
                    "and predict targets with ranked fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--store", help="local N-Triples/Turtle file (optionally .gz)")
        p.add_argument("--endpoint-url", help="remote SPARQL endpoint URL")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")

    p = sub.add_parser("learn", help="run the evolutionary pattern learner")
    common(p)
    p.add_argument("--gt", required=True, help="ground-truth TSV file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", action="store_true",
                   help="continue the session saved in --out/patterns.json")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("predict", help="predict targets for new sources")
    common(p)
    p.add_argument("--patterns", required=True, help="patterns.json from learn")
    p.add_argument("--sources", required=True, help="file of source IRIs")
    p.add_argument("--k", type=positive_int, default=100,
                   help="max prediction queries")
    p.add_argument("--strategy", choices=predict_mod.FUSION_STRATEGIES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="rank-metric evaluation plus baselines")
    common(p)
    p.add_argument("--patterns", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--ratio", type=ratio, default=0.1)
    p.add_argument("--k", type=positive_int, default=100)
    p.add_argument("--top", type=positive_int, default=100)
    p.add_argument("--baselines", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a static HTML+JSON report from run logs")
    p.add_argument("runlogs", nargs="+")
    p.add_argument("--html", required=True)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # label and exit code of each failure a command raises; an exception takes
    # the row of the first class on its MRO, so the most specific class wins
    failures = {
        UsageError: ("configuration error", EXIT_USAGE),
        GroundTruthError: ("ground truth error", EXIT_BAD_INPUT),
        RunLogError: ("run log error", EXIT_BAD_INPUT),
        ValueError: ("input error", EXIT_BAD_INPUT),
        OSError: ("input error", EXIT_BAD_INPUT),
        EndpointUnreachable: ("endpoint unreachable", EXIT_ENDPOINT),
        EndpointError: ("endpoint error", EXIT_ENDPOINT),
    }
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(failures) as exc:
        label, code = next(failures[cls] for cls in type(exc).__mro__
                           if cls in failures)
        print("%s: %s" % (label, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
