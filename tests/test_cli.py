import json
import os
import random
import re
import subprocess
import sys

import pytest

from bgplearn import endpoint
from bgplearn.cli import (EXIT_BAD_INPUT, EXIT_ENDPOINT, EXIT_OK, EXIT_USAGE,
                          load_config, main)
from bgplearn.report import build_report

from conftest import CAPITALS_TTL, ex, random_store

GT_TSV = """\
@prefix : <http://example.org/> .
:Berlin\t:Germany
:Paris\t:France
:Oslo\t:Norway
"""

FAST = ["--set", "population_size=20", "--set", "max_generations=2",
        "--set", "max_runs=2", "--set", "hall_of_fame_size=10",
        "--set", "reintro_fresh=2", "--set", "reintro_hof=2"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "store.ttl").write_text(CAPITALS_TTL)
    (tmp_path / "gt.tsv").write_text(GT_TSV)
    return tmp_path


def run_learn(workdir, out="out", extra=()):
    return main(["learn", "--store", str(workdir / "store.ttl"),
                 "--gt", str(workdir / "gt.tsv"),
                 "--out", str(workdir / out), "--seed", "11",
                 *FAST, *extra])


def command_inputs(workdir, command):
    """Arguments of `command` other than the backend and config; writes the
    input files they name."""
    (workdir / "patterns.json").write_text('{"patterns": []}')
    (workdir / "sources.txt").write_text("<http://example.org/Berlin>\n")
    return {"learn": ["--gt", str(workdir / "gt.tsv"), "--out", str(workdir / "out")],
            "predict": ["--patterns", str(workdir / "patterns.json"),
                        "--sources", str(workdir / "sources.txt")],
            "evaluate": ["--patterns", str(workdir / "patterns.json"),
                         "--gt", str(workdir / "gt.tsv"), "--ratio", "0.34"]}[command]


def _var(name):
    return {"type": "var", "name": name}


CAPITAL_OF = {"type": "iri", "value": "http://example.org/capitalOf"}
FITNESS = {"remains": 3.0, "score": 2.5, "gain": 2.5, "f1": 1.0,
           "avg_result_len": 1.0, "gt_matches": 3, "pattern_length": 1,
           "pattern_vars": 2, "timeout_penalty": 0.0, "query_time_s": 0.0}
ENTRY = {"pattern": [[_var("source"), CAPITAL_OF, _var("target")]],
         "fitness": FITNESS, "pv": [1.0, 1.0, 1.0], "covered": [1.0, 1.0, 1.0],
         "canonical_key": "k", "run_index": 1}


def remote_inputs(workdir, command):
    """`command_inputs` with a one-pattern portfolio, so that predict and
    evaluate send a query."""
    args = command_inputs(workdir, command)
    (workdir / "patterns.json").write_text(json.dumps({"patterns": [ENTRY]}))
    return ["--endpoint-url", "http://fake/sparql", *args, *FAST]


@pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
def test_refuses_unwritable_remote_term(workdir, capsys, monkeypatch, command):
    """An IRI in a remote answer that would change the text of later queries
    is an input error, exit 2, not something to learn or predict from."""
    bad = "http://e/a> . ?x ?y <http://e/z"

    def post(url, data, headers, timeout):
        return 200, {"results": {"bindings": [
            {"source": {"type": "uri", "value": "http://example.org/Berlin"},
             "target": {"type": "uri", "value": bad}}]}}

    monkeypatch.setattr(endpoint, "_requests_post", post)
    code = main([command, *remote_inputs(workdir, command)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "input error" in err and repr(bad) in err


@pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
def test_unreachable_endpoint_exits_3(workdir, capsys, monkeypatch, command):
    def post(url, data, headers, timeout):
        raise ConnectionError("connection refused")

    monkeypatch.setattr(endpoint, "_requests_post", post)
    code = main([command, *remote_inputs(workdir, command), "--set", "retries=0"])
    assert code == EXIT_ENDPOINT
    assert "endpoint unreachable" in capsys.readouterr().err


# file to write, its text, command, the refused value; each would rewrite a query
UNWRITABLE_INPUTS = {
    "gt_cell": ("gt.tsv", "<http://e/a> } ; DROP ?x <http://e/z>\t<http://e/b>\n"
                + GT_TSV, "learn", "http://e/a> } ; DROP ?x <http://e/z"),
    "sources_line": ("sources.txt", "<http://e/a> . ?x ?y <http://e/z>\n", "predict",
                     "http://e/a> . ?x ?y <http://e/z"),
    "patterns_iri": ("patterns.json", json.dumps({"patterns": [dict(ENTRY, pattern=[[
        _var("source"), {"type": "iri", "value": "http://e/p> ?target . } #"},
        _var("target")]])]}), "predict", "http://e/p> ?target . } #"),
    "patterns_variable": ("patterns.json", json.dumps({"patterns": [dict(ENTRY, pattern=[
        [_var("source"), CAPITAL_OF, _var("target")],
        [_var("x } LIMIT 1 #"), CAPITAL_OF, _var("target")]])]}), "predict",
        "x } LIMIT 1 #"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE_INPUTS))
def test_unwritable_input_exits_2(workdir, capsys, case):
    """Text that N-Triples cannot write is refused in every input file."""
    name, text, command, bad = UNWRITABLE_INPUTS[case]
    args = [command, "--store", str(workdir / "store.ttl"),
            *command_inputs(workdir, command), *FAST]
    (workdir / "patterns.json").write_text(json.dumps({"patterns": [ENTRY]}))
    (workdir / name).write_text(text)
    assert main(args) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "input error" in err or "ground truth error" in err
    assert repr(bad) in err


class TestConfig:
    def test_defaults(self):
        evo, ep = load_config(None, [])
        assert evo.population_size == 200 and ep.batch_size == 384

    def test_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# comment\npopulation_size = 30\nbatch_size = 10\n")
        evo, ep = load_config(str(cfg), ["population_size=40", "seed=3"])
        assert evo.population_size == 40  # override wins over file
        assert evo.seed == 3 and ep.batch_size == 10

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            load_config(None, ["no_such_key=1"])

    def test_every_field_addressable(self):
        import dataclasses
        from bgplearn.endpoint import EndpointConfig
        from bgplearn.evolution import EvolutionConfig
        for f in dataclasses.fields(EvolutionConfig):
            load_config(None, ["%s=%s" % (f.name, getattr(EvolutionConfig(), f.name))])
        for f in dataclasses.fields(EndpointConfig):
            load_config(None, ["%s=%s" % (f.name, getattr(EndpointConfig(), f.name))])

    def test_every_field_is_a_number(self):
        """`--set` converts a value with its field's type, which needs one
        that reads text: no bool, str or Optional fields."""
        import typing
        from bgplearn.endpoint import EndpointConfig
        from bgplearn.evolution import EvolutionConfig
        for cls in (EvolutionConfig, EndpointConfig):
            assert set(typing.get_type_hints(cls).values()) <= {int, float}

    def test_values_follow_declared_type(self):
        _evo, ep = load_config(None, ["cache_ttl=2"])
        assert ep.cache_ttl == 2.0 and isinstance(ep.cache_ttl, float)

    @pytest.mark.parametrize("setting", ["bogus=1", "batch_size=0", "cache_ttl=abc",
                                         "cache_capacity=-5", "soft_timeout=-1",
                                         "backend=local", "url=x"],
                             ids=["bogus", "batch_size", "cache_ttl",
                                  "cache_capacity", "soft_timeout", "backend", "url"])
    @pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
    def test_bad_config_key_exits_1(self, workdir, capsys, command, setting):
        code = main([command, "--store", str(workdir / "store.ttl"),
                     *command_inputs(workdir, command), "--set", setting])
        assert code == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, options", [
        ("learn", ["--seed", "x"]),
        ("predict", ["--k", "abc"]), ("predict", ["--k", "0"]),
        ("predict", ["--strategy", "bogus"]),
        ("evaluate", ["--k", "0"]), ("evaluate", ["--top", "0"]),
        ("evaluate", ["--top", "-3"]), ("evaluate", ["--ratio", "-0.5"]),
        ("evaluate", ["--ratio", "1.5"]), ("evaluate", ["--ratio", "nan"])],
        ids=["learn-seed", "predict-k_abc", "predict-k_0", "predict-strategy",
             "evaluate-k_0", "evaluate-top_0", "evaluate-top_negative",
             "evaluate-ratio_negative", "evaluate-ratio_above_1",
             "evaluate-ratio_nan"])
    def test_bad_option_exits_1(self, workdir, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--store", str(workdir / "store.ttl"),
                  *command_inputs(workdir, command), *options])
        assert exc.value.code == EXIT_USAGE
        assert "error: argument %s" % options[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command, missing", [
        ("learn", "--gt"), ("learn", "--out"), ("predict", "--patterns"),
        ("predict", "--sources"), ("evaluate", "--patterns"), ("evaluate", "--gt")])
    def test_missing_option_exits_1(self, workdir, capsys, command, missing):
        inputs = command_inputs(workdir, command)
        at = inputs.index(missing)
        with pytest.raises(SystemExit) as exc:
            main([command, "--store", str(workdir / "store.ttl"),
                  *inputs[:at], *inputs[at + 2:]])
        assert exc.value.code == EXIT_USAGE
        assert "required: %s" % missing in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
    def test_no_backend_exits_1(self, workdir, capsys, monkeypatch, command):
        monkeypatch.delenv("BGPLEARN_ENDPOINT", raising=False)
        code = main([command, *command_inputs(workdir, command)])
        assert code == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err


class TestLearnCommand:
    def test_learn_outputs(self, workdir, capsys):
        assert run_learn(workdir) == EXIT_OK
        out = workdir / "out"
        assert (out / "ledger.json").exists()
        assert (out / "patterns.json").exists()
        assert (out / "report.html").exists()
        assert (out / "report.json").exists()
        runs = sorted(p.name for p in out.glob("run_*.json"))
        assert runs and runs[0] == "run_001.json"
        doc = json.loads((out / "patterns.json").read_text())
        assert doc["patterns"]
        assert all("sparql" in p and "pv" in p for p in doc["patterns"])
        assert "learned" in capsys.readouterr().out

    def test_learn_deterministic(self, workdir):
        run_learn(workdir, out="a")
        run_learn(workdir, out="b")
        for name in ("patterns.json", "ledger.json", "report.json"):
            assert (workdir / "a" / name).read_bytes() == \
                   (workdir / "b" / name).read_bytes()

    def test_learn_deterministic_across_hash_seeds(self, tmp_path):
        """Two processes with different string hash seeds write the same bytes,
        so no output depends on the iteration order of a set or dict of terms.
        The random store has enough tied candidates for that order to show."""
        rng = random.Random(4)
        store = random_store(rng, n_triples=120, n_nodes=20, n_preds=3)
        edges = sorted({(t.s.value, t.o.value) for t in store.triples()
                        if t.p == ex("p0")})
        (tmp_path / "store.nt").write_text(store.serialize())
        (tmp_path / "gt.tsv").write_text(
            "".join("<%s>\t<%s>\n" % edge for edge in rng.sample(edges, 8)))
        import bgplearn
        src = os.path.dirname(os.path.dirname(bgplearn.__file__))
        for out, hash_seed in (("a", "1"), ("b", "2")):
            path = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(path))
            subprocess.run(
                [sys.executable, "-m", "bgplearn.cli", "learn",
                 "--store", str(tmp_path / "store.nt"), "--gt", str(tmp_path / "gt.tsv"),
                 "--out", str(tmp_path / out), "--seed", "11", *FAST],
                env=env, check=True, capture_output=True, timeout=120)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "patterns.json" in names and "run_001.json" in names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_resume_advances_run_counter(self, workdir):
        run_learn(workdir)
        ledger = json.loads((workdir / "out" / "ledger.json").read_text())
        next_run = ledger["next_run"]
        assert next_run >= 2
        code = run_learn(workdir, extra=["--resume"])
        assert code == EXIT_OK
        # fully covered ground truth: resuming adds no runs below min_remains
        ledger2 = json.loads((workdir / "out" / "ledger.json").read_text())
        assert ledger2["next_run"] >= next_run

    @pytest.mark.parametrize("n_ledger, n_gt", [(3, 2), (2, 3)],
                             ids=["longer_ledger", "shorter_ledger"])
    def test_resume_with_ledger_of_other_length_exits_2(self, workdir, capsys,
                                                         n_ledger, n_gt):
        lines = GT_TSV.splitlines(keepends=True)
        (workdir / "gt.tsv").write_text("".join(lines[:1 + n_gt]))
        (workdir / "out").mkdir()
        (workdir / "out" / "ledger.json").write_text(
            json.dumps({"values": [0.0] * n_ledger, "next_run": 1}))
        assert run_learn(workdir, extra=["--resume"]) == EXIT_BAD_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"next_run": 1}', "not json", '{"values": ["abc", 0, 0]}',
        '{"values": [2.0, 0, 0]}', '{"values": [NaN, 0, 0]}',
        '{"values": [0, 0, 0], "next_run": "x"}',
        '{"values": [0, 0, 0], "next_run": 0}', "[0, 0, 0]"],
        ids=["no_values", "not_json", "string_value", "value_above_1", "nan_value",
             "string_next_run", "zero_next_run", "bare_list"])
    def test_resume_with_malformed_ledger_exits_2(self, workdir, capsys, text):
        (workdir / "out").mkdir()
        (workdir / "out" / "ledger.json").write_text(text)
        assert run_learn(workdir, extra=["--resume"]) == EXIT_BAD_INPUT
        assert "input error" in capsys.readouterr().err

    def test_missing_gt_exits_2(self, workdir):
        code = main(["learn", "--store", str(workdir / "store.ttl"),
                     "--gt", str(workdir / "nope.tsv"),
                     "--out", str(workdir / "out")])
        assert code == EXIT_BAD_INPUT

    def test_duplicate_gt_exits_2(self, workdir, capsys):
        (workdir / "dup.tsv").write_text(
            "<http://x/a>\t<http://x/b>\n<http://x/a>\t<http://x/b>\n")
        code = main(["learn", "--store", str(workdir / "store.ttl"),
                     "--gt", str(workdir / "dup.tsv"),
                     "--out", str(workdir / "out")])
        assert code == EXIT_BAD_INPUT
        assert "2" in capsys.readouterr().err

    def test_empty_gt_exits_2(self, workdir):
        (workdir / "empty.tsv").write_text("# nothing\n")
        code = main(["learn", "--store", str(workdir / "store.ttl"),
                     "--gt", str(workdir / "empty.tsv"),
                     "--out", str(workdir / "out")])
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("content", ['<http://x/s> <http://x/p> "\\uZZZZ" .\n',
                                         None], ids=["malformed", "missing"])
    def test_bad_store_exits_2(self, workdir, capsys, content):
        store = workdir / "bad.nt"
        if content is not None:
            store.write_text(content)
        code = main(["learn", "--store", str(store),
                     "--gt", str(workdir / "gt.tsv"),
                     "--out", str(workdir / "out")])
        assert code == EXIT_BAD_INPUT
        assert "input error" in capsys.readouterr().err


class TestPredictCommand:
    def test_predict_round_trip(self, workdir, capsys):
        run_learn(workdir)
        capsys.readouterr()
        (workdir / "sources.txt").write_text("<http://example.org/Berlin>\n")
        code = main(["predict", "--store", str(workdir / "store.ttl"),
                     "--patterns", str(workdir / "out" / "patterns.json"),
                     "--sources", str(workdir / "sources.txt"),
                     "--k", "5"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        pred = doc["predictions"][0]
        assert pred["source"] == "http://example.org/Berlin"
        top = pred["rankings"]["target_occs"][0]
        assert top[0] == "http://example.org/Germany"

    def test_single_strategy_flag(self, workdir, capsys):
        run_learn(workdir)
        capsys.readouterr()
        (workdir / "sources.txt").write_text("http://example.org/Paris\n")
        code = main(["predict", "--store", str(workdir / "store.ttl"),
                     "--patterns", str(workdir / "out" / "patterns.json"),
                     "--sources", str(workdir / "sources.txt"),
                     "--strategy", "scores",
                     "--out", str(workdir / "pred.json")])
        assert code == EXIT_OK
        doc = json.loads((workdir / "pred.json").read_text())
        assert list(doc["predictions"][0]["rankings"]) == ["scores"]


@pytest.mark.parametrize("doc", [
    {},
    {"patterns": [{k: v for k, v in ENTRY.items() if k != "pattern"}]},
    {"patterns": [dict(ENTRY, fitness=dict(FITNESS, bogus=1.0))]}],
    ids=["no_patterns", "no_pattern", "unknown_fitness_key"])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_malformed_patterns_exits_2(workdir, capsys, command, doc):
    args = [command, "--store", str(workdir / "store.ttl"),
            *command_inputs(workdir, command)]
    (workdir / "patterns.json").write_text(json.dumps({"patterns": [ENTRY]}))
    assert main(args) == EXIT_OK  # the well-formed document is accepted
    capsys.readouterr()
    (workdir / "patterns.json").write_text(json.dumps(doc))
    assert main(args) == EXIT_BAD_INPUT
    assert "input error: patterns" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_with_baselines(self, workdir, capsys):
        run_learn(workdir)
        capsys.readouterr()
        code = main(["evaluate", "--store", str(workdir / "store.ttl"),
                     "--patterns", str(workdir / "out" / "patterns.json"),
                     "--gt", str(workdir / "gt.tsv"),
                     "--ratio", "0.34", "--baselines",
                     "--out", str(workdir / "eval.json")])
        assert code == EXIT_OK
        doc = json.loads((workdir / "eval.json").read_text())
        assert doc["test_pairs"] == 1 and doc["train_pairs"] == 2
        names = set(doc["metrics"])
        for strategy in ("target_occs", "scores", "f_measures",
                         "gp_precisions", "precisions"):
            assert strategy in names
        assert "pagerank in" in names and "outdeg bidi" in names
        table = capsys.readouterr().out
        assert "R@10" in table and "MAP" in table and "NDCG" in table

    def test_fusion_beats_baselines_on_fixture(self, workdir, capsys):
        run_learn(workdir)
        capsys.readouterr()
        main(["evaluate", "--store", str(workdir / "store.ttl"),
              "--patterns", str(workdir / "out" / "patterns.json"),
              "--gt", str(workdir / "gt.tsv"),
              "--ratio", "0.34", "--baselines",
              "--out", str(workdir / "eval.json")])
        doc = json.loads((workdir / "eval.json").read_text())
        fusion_map = doc["metrics"]["target_occs"]["map"]
        assert fusion_map == 1.0

    @pytest.mark.parametrize("extra", [["--ratio", "0"], []], ids=["ratio_0", "default"])
    def test_empty_test_split_exits_1(self, workdir, capsys, extra):
        """No pair is held out, so none can be scored without scoring the
        pairs the patterns were trained on."""
        (workdir / "patterns.json").write_text(json.dumps({"patterns": [ENTRY]}))
        code = main(["evaluate", "--store", str(workdir / "store.ttl"),
                     "--patterns", str(workdir / "patterns.json"),
                     "--gt", str(workdir / "gt.tsv"), *extra])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        ratio = extra[1] if extra else "0.1"
        assert "configuration error: --ratio %s" % ratio in err
        assert "among 3 ground-truth pairs" in err


class TestReportCommand:
    def test_report_round_trip(self, workdir):
        run_learn(workdir)
        out = workdir / "out"
        logs = sorted(str(p) for p in out.glob("run_*.json"))
        code = main(["report", *logs,
                     "--html", str(workdir / "r.html"),
                     "--json", str(workdir / "r.json")])
        assert code == EXIT_OK
        page = (workdir / "r.html").read_text()
        doc = json.loads((workdir / "r.json").read_text())
        assert "<html" in page and doc["runs"]

    def test_grid_values_match_json(self, capitals_gt):
        pvs = [[1.0, 0.5, 0.0], [0.25, 0.0, 1.0]]
        run_doc = {"run_index": 1, "remains_before": 3.0, "remains_after": 1.0,
                   "accepted": [
                       {"sparql": "SELECT 1", "pv": pv,
                        "fitness": {"remains": 3.0, "score": 2.5, "gain": 2.5,
                                    "f1": 1.0, "avg_result_len": 1.0,
                                    "gt_matches": 3, "pattern_length": 1,
                                    "pattern_vars": 2, "timeout_penalty": 0.0,
                                    "query_time_s": 0.0}}
                       for pv in pvs]}
        gt = [["s1", "t1"], ["s2", "t2"], ["s3", "t3"]]
        page, doc = build_report([run_doc], gt)
        # every pv value in the HTML grids must match the JSON byte for byte
        html_vals = re.findall(r'data-pv="([^"]+)"', page)
        json_vals = [json.dumps(v) for pv in pvs for v in pv]
        json_vals += [json.dumps(v) for v in doc["accumulated_pv"]]
        assert html_vals == json_vals
        assert doc["accumulated_pv"] == [1.0, 0.5, 1.0]

    def test_empty_report_notes_absence(self):
        page, doc = build_report([], [])
        assert "No patterns were learned" in page
        assert doc["accumulated_pv"] == []

    @pytest.mark.parametrize("field", ["run_index", "remains_before", "pv",
                                       "sparql", "fitness"])
    def test_runlog_missing_field_exits_2(self, tmp_path, capsys, field):
        pat = {"sparql": "SELECT 1", "pv": [1.0], "fitness": FITNESS}
        doc = {"run_index": 1, "remains_before": 1.0, "remains_after": 0.0,
               "accepted": [pat]}
        log = tmp_path / "run.json"
        args = ["report", str(log), "--html", str(tmp_path / "r.html"),
                "--json", str(tmp_path / "r.json")]
        log.write_text(json.dumps(doc))
        assert main(args) == EXIT_OK
        (pat if field in pat else doc).pop(field)
        log.write_text(json.dumps(doc))
        assert main(args) == EXIT_BAD_INPUT
        assert "run log error" in capsys.readouterr().err

    def test_bad_runlog_exits_2(self, tmp_path):
        bad = tmp_path / "run.json"
        bad.write_text("{not json")
        code = main(["report", str(bad),
                     "--html", str(tmp_path / "r.html"),
                     "--json", str(tmp_path / "r.json")])
        assert code == EXIT_BAD_INPUT
