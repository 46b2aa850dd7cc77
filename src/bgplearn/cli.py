"""Command-line entry points: learn, predict, evaluate, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Union, get_type_hints

from . import evalharness, evolution, predict as predict_mod
from .endpoint import Endpoint, EndpointConfig, EndpointUnreachable
from .evolution import EvolutionConfig
from .fitness import CoverageLedger, GroundTruthPair
from .iojson import (GroundTruthError, dumps, learned_from_json, learned_to_json,
                     ledger_from_json, ledger_to_json, parse_ground_truth,
                     parse_sources, run_record_to_json)
from .rdf import load_file
from .report import build_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_ENDPOINT = 3

# every field is an int or a float, so its declared type converts its text
_EVO_TYPES = get_type_hints(EvolutionConfig)
_EP_TYPES = get_type_hints(EndpointConfig)


def load_config(path: Optional[str], overrides: list[str]
                ) -> tuple[EvolutionConfig, EndpointConfig]:
    """Flat key=value file plus `--set key=value` overrides; every field addressable."""
    evo = EvolutionConfig()
    ep = EndpointConfig()
    items: list[tuple[str, str]] = []
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                items.append((key.strip(), value.strip()))
    for ov in overrides:
        key, _, value = ov.partition("=")
        items.append((key.strip(), value.strip()))
    for key, value in items:
        if key in _EVO_TYPES:
            setattr(evo, key, _EVO_TYPES[key](value))
        elif key in _EP_TYPES:
            setattr(ep, key, _EP_TYPES[key](value))
        else:
            raise ValueError("unknown config key: %r" % key)
    # rebuilt so that the configs' own checks see the values set above
    return dataclasses.replace(evo), dataclasses.replace(ep)


def _open_endpoint(args) -> Union[tuple[EvolutionConfig, Endpoint], int]:
    """The configs from --config/--set and the endpoint they configure, or
    the exit code after reporting why not."""
    try:
        evo_cfg, ep_cfg = load_config(args.config, args.set or [])
    except (ValueError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    url = args.endpoint_url or os.environ.get("BGPLEARN_ENDPOINT")
    if url:
        return evo_cfg, Endpoint(ep_cfg, url=url)
    if not args.store:
        print("configuration error: either --store or --endpoint-url is required",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return evo_cfg, Endpoint(ep_cfg, store=load_file(args.store))
    except (ValueError, OSError) as exc:
        print("input error: store %s: %s" % (args.store, exc), file=sys.stderr)
        return EXIT_BAD_INPUT


def _read_gt(path: str) -> list[GroundTruthPair]:
    with open(path) as fh:
        return parse_ground_truth(fh.read())


def _read_ledger(path: str) -> tuple[CoverageLedger, int]:
    """The coverage ledger and the next run index a session saved in `path`."""
    with open(path) as fh:
        doc = json.load(fh)
    ledger = ledger_from_json(doc)
    next_run = doc.get("next_run", 1)
    if type(next_run) is not int or next_run < 1:
        raise ValueError("next_run must be an integer >= 1, not %r" % (next_run,))
    return ledger, next_run


def _write(path: Optional[str], text: str) -> None:
    """`text` into the file `path`, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_learn(args) -> int:
    try:
        gt = _read_gt(args.gt)
    except (GroundTruthError, OSError) as exc:
        print("ground truth error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    opened = _open_endpoint(args)
    if isinstance(opened, int):
        return opened
    evo_cfg, endpoint = opened
    if args.seed is not None:
        evo_cfg.seed = args.seed

    os.makedirs(args.out, exist_ok=True)
    ledger = None
    start_run = 1
    ledger_path = os.path.join(args.out, "ledger.json")
    if args.resume and os.path.exists(ledger_path):
        try:
            ledger, start_run = _read_ledger(ledger_path)
        except (ValueError, OSError) as exc:
            print("input error: ledger %s: %s" % (ledger_path, exc), file=sys.stderr)
            return EXIT_BAD_INPUT

    result = evolution.learn(endpoint, gt, evo_cfg, ledger=ledger,
                             start_run=start_run)
    config_echo = dataclasses.asdict(evo_cfg)
    run_docs = []
    for rec in result.runs:
        doc = run_record_to_json(rec, echo_config=config_echo)
        run_docs.append(doc)
        _write(os.path.join(args.out, "run_%03d.json" % rec.run_index), dumps(doc))
    ledger_doc = ledger_to_json(result.ledger)
    ledger_doc["next_run"] = (result.runs[-1].run_index + 1) if result.runs else start_run
    _write(ledger_path, dumps(ledger_doc))
    patterns_doc = {
        "ground_truth": [[p.source.value, p.target.value] for p in gt],
        "patterns": [learned_to_json(lp) for lp in result.patterns],
    }
    _write(os.path.join(args.out, "patterns.json"), dumps(patterns_doc))
    page, json_doc = build_report(run_docs, patterns_doc["ground_truth"])
    _write(os.path.join(args.out, "report.html"), page)
    _write(os.path.join(args.out, "report.json"), dumps(json_doc))
    print("learned %d patterns over %d runs; remains %.3f"
          % (len(result.patterns), len(result.runs), result.ledger.remains()))
    return EXIT_OK


def _load_portfolio(path: str) -> predict_mod.PatternPortfolio:
    """The portfolio in a `patterns.json`; ValueError if it is malformed."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        learned = [learned_from_json(obj) for obj in doc["patterns"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("patterns %s: malformed (%s: %s)"
                         % (path, type(exc).__name__, exc)) from exc
    return predict_mod.PatternPortfolio([predict_mod.PortfolioEntry(
        pattern=lp.pattern, pv=lp.evaluation.pv, fitness=lp.fitness,
        canonical_key=lp.canonical_key) for lp in learned])


def cmd_predict(args) -> int:
    opened = _open_endpoint(args)
    if isinstance(opened, int):
        return opened
    endpoint = opened[1]
    try:
        portfolio = _load_portfolio(args.patterns)
        with open(args.sources) as fh:
            sources = parse_sources(fh.read())
    except (ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    if not portfolio.entries:
        out = {"predictions": []}
    else:
        reduced = predict_mod.reduce_queries(portfolio, args.k)
        predictions = []
        for source in sources:
            ranked = predict_mod.predict(endpoint, reduced, source)
            strategies = ([args.strategy] if args.strategy
                          else list(predict_mod.FUSION_STRATEGIES))
            predictions.append({
                "source": source.value,
                "rankings": {s: [[t.value if t.kind == "iri" else t.n3(), v]
                                 for t, v in ranked.rankings[s]]
                             for s in strategies},
            })
        out = {"predictions": predictions,
               "clustering": {"variant": reduced.clustering_variant,
                              "k": args.k,
                              "precision_loss": reduced.precision_loss}}
    _write(args.out, dumps(out))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    opened = _open_endpoint(args)
    if isinstance(opened, int):
        return opened
    endpoint = opened[1]
    try:
        portfolio = _load_portfolio(args.patterns)
        gt = _read_gt(args.gt)
    except (ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT

    split = evalharness.split_pairs(gt, ratio=args.ratio, seed=args.split_seed)
    test = split.test
    if not test:  # never score the pairs the patterns were trained on
        print("configuration error: --ratio %s leaves no test pair among %d "
              "ground-truth pairs" % (args.ratio, len(gt)), file=sys.stderr)
        return EXIT_USAGE
    reduced = (predict_mod.reduce_queries(portfolio, args.k)
               if portfolio.entries else None)

    reports: dict[str, evalharness.MetricReport] = {}
    ranks_by_strategy: dict[str, list[float]] = {
        s: [] for s in predict_mod.FUSION_STRATEGIES}
    if reduced is not None:
        for pair in test:
            ranked = predict_mod.predict(endpoint, reduced, pair.source)
            for s in predict_mod.FUSION_STRATEGIES:
                ranks_by_strategy[s].append(
                    evalharness.rank_of_truth(ranked.rankings[s], pair.target))
        for s, ranks in ranks_by_strategy.items():
            reports[s] = evalharness.metrics(ranks)

    if args.baselines and endpoint.store is not None:
        store = endpoint.store
        pr = evalharness.pagerank(store)
        auth, _hub = evalharness.hits(store)
        indeg = {t: float(store.degree(t, "in")) for t in store.terms}
        outdeg = {t: float(store.degree(t, "out")) for t in store.terms}
        for scorer_name, scores in (("pagerank", pr), ("hits", auth),
                                    ("indeg", indeg), ("outdeg", outdeg)):
            for direction in ("in", "out", "bidi"):
                ranks = []
                for pair in test:
                    ranked = evalharness.baseline_predict(
                        store, pair.source, direction, "pagerank", k=args.top,
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
    ks = list(range(1, 11))
    header = "%-18s" % "" + "".join("%9s" % ("R@%d" % k) for k in ks) \
        + "%9s%9s" % ("MAP", "NDCG")
    lines = [header]
    for name, rep in sorted(reports.items()):
        cells = "".join("%9.3f" % rep.recall_at_k.get(k, 0.0) for k in ks)
        lines.append("%-18s%s%9.3f%9.3f" % (name, cells, rep.map, rep.ndcg))
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    try:
        run_docs = []
        for path in sorted(args.runlogs):
            with open(path) as fh:
                run_docs.append(json.load(fh))
        n_pairs = max((len(pat["pv"]) for doc in run_docs
                       for pat in doc.get("accepted", [])), default=0)
        page, json_doc = build_report(run_docs, [["", ""]] * n_pairs)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # unreadable, not JSON, or without a field that the report reads
        print("run log error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.html, page)
    _write(args.json, dumps(json_doc))
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
                   help="continue from an existing ledger in --out")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # e.g. a remote answer that SPARQL cannot hold
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except EndpointUnreachable as exc:
        print("endpoint unreachable: %s" % exc, file=sys.stderr)
        return EXIT_ENDPOINT


if __name__ == "__main__":
    sys.exit(main())
