import json
import os
import random
import re
import socket
import subprocess
import sys

import pytest
import requests

from bgplearn import canon, cli, endpoint, evalharness, evolution, iojson, predict
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


GT_PAIRS = [["http://example.org/" + name for name in pair] for pair in
            [("Berlin", "Germany"), ("Paris", "France"), ("Oslo", "Norway")]]


def _session(pv=(1.0, 1.0, 1.0), next_run=2) -> str:
    """The text of a patterns.json of a session on GT_TSV with one pattern."""
    return json.dumps({"ground_truth": GT_PAIRS, "next_run": next_run,
                       "patterns": [dict(ENTRY, pv=pv)]})


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
        return 200, json.dumps({"results": {"bindings": [
            {"source": {"type": "uri", "value": "http://example.org/Berlin"},
             "target": {"type": "uri", "value": bad}}]}})

    monkeypatch.setattr(endpoint, "_requests_post", post)
    code = main([command, *remote_inputs(workdir, command)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "input error" in err and repr(bad) in err


@pytest.mark.parametrize("term", [
    {"type": "uri"}, {"type": "literal", "value": 3},
    {"type": "literal", "value": "v", "datatype": 3},
    {"type": "literal", "value": "v", "xml:lang": 3}, "x"],
    ids=["missing", "not-string", "datatype", "lang", "not-object"])
def test_remote_term_without_string_value_exits_2(workdir, capsys, monkeypatch,
                                                   term):
    def post(url, data, headers, timeout):
        return 200, json.dumps({"results": {"bindings": [
            {"source": {"type": "uri", "value": "http://example.org/Berlin"},
             "target": term}]}})

    monkeypatch.setattr(endpoint, "_requests_post", post)
    assert main(["learn", *remote_inputs(workdir, "learn")]) == EXIT_BAD_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command,status", [
    pytest.param(command, status, id=command if status is None else
                 "%s-http%d" % (command, status))
    for status in (None, 400) for command in ("learn", "predict", "evaluate")])
def test_unreachable_endpoint_exits_3(workdir, capsys, monkeypatch, command, status):
    """An endpoint that cannot be reached, or that refuses a query with an
    HTTP 4xx answer, ends every command with exit 3."""
    def post(url, data, headers, timeout):
        if status is None:
            raise ConnectionError("connection refused")
        return status, None

    monkeypatch.setattr(endpoint, "_requests_post", post)
    code = main([command, *remote_inputs(workdir, command), "--set", "retries=0"])
    assert code == EXIT_ENDPOINT
    label = ("endpoint unreachable" if status is None else
             "endpoint error: SPARQL endpoint rejected query: HTTP %d" % status)
    assert capsys.readouterr().err.count(label) == 1


def test_real_http_client_unreachable_exits_3(workdir, capsys, monkeypatch):
    """The HTTP client itself, not a stand-in: a closed loopback port refuses
    the connection, and learn ends with exit 3."""
    for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)  # a proxy would take the request
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code = main(["learn", "--endpoint-url", "http://127.0.0.1:%d/sparql" % port,
                 *command_inputs(workdir, "learn"), *FAST,
                 "--set", "retries=0", "--set", "backoff=0"])
    assert code == EXIT_ENDPOINT
    assert "endpoint unreachable" in capsys.readouterr().err


def test_non_json_answer_exits_2_after_one_post(workdir, capsys, monkeypatch):
    """The HTTP client's own answer: a 200 whose body is not JSON is bad
    input, exit 2, after one post; it is not a network failure to retry."""
    posts = []

    def post(url, data, headers, timeout):
        posts.append(data["query"])
        answer = requests.Response()
        answer.status_code, answer._content = 200, b"<html>busy</html>"
        return answer

    monkeypatch.setattr(requests, "post", post)
    code = main(["learn", "--endpoint-url", "http://fake/sparql",
                 *command_inputs(workdir, "learn"), *FAST, "--set", "backoff=0"])
    assert code == EXIT_BAD_INPUT and len(posts) == 1
    assert "input error" in capsys.readouterr().err


RUN_LOG = {"run_index": 1, "remains_before": 1.0, "remains_after": 0.0,
           "accepted": []}


def write_run_log(directory, run_log, n_pairs=1):
    """`run_log` as `run.json` in `directory`, beside the `patterns.json` of a
    session on `n_pairs` ground-truth pairs, from which `report` reads them."""
    (directory / "patterns.json").write_text(json.dumps({
        "ground_truth": [["http://e/s%d" % i, "http://e/t%d" % i]
                         for i in range(n_pairs)],
        "patterns": []}))
    log = directory / "run.json"
    log.write_text(json.dumps(run_log))
    return log


@pytest.mark.parametrize("command", ["learn", "predict", "evaluate", "report"])
def test_unwritable_output_exits_1(workdir, capsys, command):
    """An output path that cannot be written is a usage error, exit 1: an
    existing file as learn's --out directory, a directory as predict's --out
    file, a file in a missing directory for evaluate and report."""
    (workdir / "afile").write_text("")
    args = {"learn": ["--gt", str(workdir / "gt.tsv"), "--out", str(workdir / "afile"),
                      *FAST],
            "predict": [*command_inputs(workdir, "predict"), "--out", str(workdir)],
            "evaluate": [*command_inputs(workdir, "evaluate"),
                         "--out", str(workdir / "missing" / "eval.json")],
            "report": [str(workdir / "run.json"), "--json", str(workdir / "r.json"),
                       "--html", str(workdir / "missing" / "r.html")]}[command]
    write_run_log(workdir, RUN_LOG)
    if command != "report":
        args = ["--store", str(workdir / "store.ttl"), *args]
    assert main([command, *args]) == EXIT_USAGE
    assert "configuration error: cannot write" in capsys.readouterr().err


def test_output_replaced_whole_and_link_written_through(workdir):
    """An output file is replaced by a new one, so a reader that holds the old
    file never sees it half written; an output that is a link (say
    /dev/stdout) is written through the link, which stays."""
    write_run_log(workdir, RUN_LOG)
    (workdir / "r.json").write_text("old")
    (workdir / "target.html").write_text("old")
    os.symlink(workdir / "target.html", workdir / "link.html")
    with open(workdir / "r.json") as held:
        assert main(["report", str(workdir / "run.json"),
                     "--json", str(workdir / "r.json"),
                     "--html", str(workdir / "link.html")]) == EXIT_OK
        assert held.read() == "old"
    assert json.loads((workdir / "r.json").read_text())["runs"]
    assert (workdir / "link.html").is_symlink()
    assert "<html" in (workdir / "target.html").read_text()
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize("command,case", [
    ("evaluate", "missing"), ("evaluate", "duplicate"), ("evaluate", "not_utf8"),
    ("learn", "not_utf8")])
def test_ground_truth_error_exits_2(workdir, capsys, command, case):
    """A ground-truth file that cannot be read or parsed is labelled alike in
    every command that reads one (learn's other cases are tested below)."""
    args = [command, "--store", str(workdir / "store.ttl"),
            *command_inputs(workdir, command)]
    gt = workdir / "gt.tsv"
    if case == "missing":
        gt.unlink()
    elif case == "duplicate":
        gt.write_text("<http://x/a>\t<http://x/b>\n<http://x/a>\t<http://x/b>\n")
    else:
        gt.write_bytes(b"<http://x/\xff>\t<http://x/b>\n")
    assert main(args) == EXIT_BAD_INPUT
    assert "ground truth error" in capsys.readouterr().err


# file to write, its text, command, the refused value, the start of the error;
# each value would rewrite a query
UNWRITABLE_INPUTS = {
    "gt_cell": ("gt.tsv", "<http://e/a> } ; DROP ?x <http://e/z>\t<http://e/b>\n"
                + GT_TSV, "learn", "http://e/a> } ; DROP ?x <http://e/z",
                "ground truth error: row 1"),
    "sources_line": ("sources.txt", "<http://e/a> . ?x ?y <http://e/z>\n", "predict",
                     "http://e/a> . ?x ?y <http://e/z", "input error: sources"),
    "patterns_iri": ("patterns.json", json.dumps({"patterns": [dict(ENTRY, pattern=[[
        _var("source"), {"type": "iri", "value": "http://e/p> ?target . } #"},
        _var("target")]])]}), "predict", "http://e/p> ?target . } #",
        "input error: patterns"),
    "patterns_variable": ("patterns.json", json.dumps({"patterns": [dict(ENTRY, pattern=[
        [_var("source"), CAPITAL_OF, _var("target")],
        [_var("x } LIMIT 1 #"), CAPITAL_OF, _var("target")]])]}), "predict",
        "x } LIMIT 1 #", "input error: patterns"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE_INPUTS))
def test_unwritable_input_exits_2(workdir, capsys, case):
    """Text that N-Triples cannot write is refused in every input file, and
    the error names the kind of file."""
    name, text, command, bad, start = UNWRITABLE_INPUTS[case]
    args = [command, "--store", str(workdir / "store.ttl"),
            *command_inputs(workdir, command), *FAST]
    (workdir / "patterns.json").write_text(json.dumps({"patterns": [ENTRY]}))
    (workdir / name).write_text(text)
    assert main(args) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(start)
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
        _evo, ep = load_config(None, ["backoff=2"])
        assert ep.backoff == 2.0 and isinstance(ep.backoff, float)

    @pytest.mark.parametrize("setting", ["bogus=1", "batch_size=0", "backoff=abc",
                                         "cache_capacity=100", "soft_timeout=-1",
                                         "backend=local", "url=x",
                                         "max_path_length=0", "tournament_size=0",
                                         "population_size=0", "max_runs=-1",
                                         "hard_timeout=inf", "soft_timeout=nan",
                                         "backoff=nan", "score_threshold=nan",
                                         "p_fix_var=1.5", "overfit_factor=-0.1"],
                             ids=["bogus", "batch_size", "backoff",
                                  "cache_capacity", "soft_timeout", "backend", "url",
                                  "max_path_length_0", "tournament_size_0",
                                  "population_size_0", "max_runs_negative",
                                  "hard_timeout_inf", "soft_timeout_nan",
                                  "backoff_nan", "score_threshold_nan",
                                  "probability_above_1", "overfit_factor_negative"])
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

    @pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
    def test_store_and_url_exit_1(self, workdir, capsys, monkeypatch, command):
        posts = []
        monkeypatch.setattr(endpoint, "_requests_post",
                            lambda *args, **kw: posts.append(args))
        code = main([command, "--store", str(workdir / "store.ttl"),
                     *remote_inputs(workdir, command)])
        assert code == EXIT_USAGE and posts == []
        err = capsys.readouterr().err
        assert "configuration error" in err and "not both" in err

    @pytest.mark.parametrize("command", ["learn", "predict", "evaluate"])
    def test_environment_never_overrides_store(self, workdir, monkeypatch,
                                               command):
        """BGPLEARN_ENDPOINT names the endpoint only when --store is not
        given; the store answers every query."""
        def post(url, data, headers, timeout):
            raise ConnectionError("the store was given")

        monkeypatch.setattr(endpoint, "_requests_post", post)
        monkeypatch.setenv("BGPLEARN_ENDPOINT", "http://fake/sparql")
        args = remote_inputs(workdir, command)
        assert args[0] == "--endpoint-url"
        code = main([command, "--store", str(workdir / "store.ttl"), *args[2:],
                     "--set", "retries=0", "--out", str(workdir / "result")])
        assert code == EXIT_OK


class TestLearnCommand:
    def test_learn_outputs(self, workdir, capsys):
        assert run_learn(workdir) == EXIT_OK
        out = workdir / "out"
        assert not (out / "ledger.json").exists()
        assert (out / "patterns.json").exists()
        assert (out / "report.html").exists()
        assert (out / "report.json").exists()
        runs = sorted(p.name for p in out.glob("run_*.json"))
        assert runs and runs[0] == "run_001.json"
        doc = json.loads((out / "patterns.json").read_text())
        assert doc["next_run"] == len(runs) + 1
        assert doc["patterns"]
        assert all("sparql" in p and "pv" in p for p in doc["patterns"])
        assert "learned" in capsys.readouterr().out

    def test_learn_deterministic(self, workdir):
        run_learn(workdir, out="a")
        run_learn(workdir, out="b")
        for name in ("patterns.json", "run_001.json", "report.json"):
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
        path = workdir / "out" / "patterns.json"
        patterns = path.read_bytes()
        assert json.loads(patterns)["next_run"] >= 2
        code = run_learn(workdir, extra=["--resume"])
        assert code == EXIT_OK
        # fully covered ground truth: resuming adds no runs below min_remains,
        # so next_run and every pattern stay as they were
        assert path.read_bytes() == patterns

    def test_fresh_session_removes_earlier_run_logs(self, workdir):
        out = workdir / "out"
        run_learn(workdir, extra=["--set", "max_runs=3", "--set", "min_remains=0",
                                  "--set", "score_threshold=-1"])
        assert (out / "run_003.json").exists()
        run_learn(workdir, extra=["--set", "max_runs=1", "--seed", "5"])
        assert sorted(p.name for p in out.glob("run_*.json")) == ["run_001.json"]
        assert json.loads((out / "run_001.json").read_text())["config"]["seed"] == 5

    def test_interrupted_session_resumes(self, workdir, capsys, monkeypatch):
        """A crash in run 2 leaves run 1 saved, and --resume goes on from it
        without losing or repeating a pattern."""
        real_run_single = evolution.run_single
        calls = []

        def crash_in_run_2(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real_run_single(*args)

        monkeypatch.setattr(evolution, "run_single", crash_in_run_2)
        every_run = ["--set", "min_remains=0", "--set", "score_threshold=-1"]
        with pytest.raises(RuntimeError):
            run_learn(workdir, extra=every_run)
        out = workdir / "out"
        assert sorted(p.name for p in out.iterdir()) == \
            ["patterns.json", "run_001.json"]
        doc = json.loads((out / "patterns.json").read_text())
        assert doc["next_run"] == 2
        run_1 = [p["canonical_key"] for p in
                 json.loads((out / "run_001.json").read_text())["accepted"]]
        saved = [p["canonical_key"] for p in doc["patterns"]]
        assert saved and sorted(saved) == sorted(run_1)

        monkeypatch.setattr(evolution, "run_single", real_run_single)
        assert run_learn(workdir, extra=[*every_run, "--resume"]) == EXIT_OK
        keys = [p["canonical_key"] for p in
                json.loads((out / "patterns.json").read_text())["patterns"]]
        assert keys[:len(saved)] == saved and len(keys) == len(set(keys))
        assert json.loads((out / "patterns.json").read_text())["next_run"] == 3
        assert len(json.loads((out / "report.json").read_text())["runs"]) == 2
        assert "learned %d patterns over 2 runs" % len(keys) in capsys.readouterr().out

    def test_crash_before_commit_reruns_the_run(self, workdir, monkeypatch):
        """A crash after run 2's log is written and before patterns.json is
        replaced leaves run 2 uncommitted: --resume deletes its log, runs it
        again and accepts no pattern twice."""
        out = workdir / "out"
        real_write = cli._write

        def crash_at_commit_of_run_2(path, text):
            if path == str(out / "patterns.json") and (out / "run_002.json").exists():
                raise RuntimeError("interrupted")
            real_write(path, text)

        monkeypatch.setattr(cli, "_write", crash_at_commit_of_run_2)
        every_run = ["--set", "min_remains=0", "--set", "score_threshold=-1"]
        with pytest.raises(RuntimeError):
            run_learn(workdir, extra=every_run)
        assert sorted(p.name for p in out.iterdir()) == \
            ["patterns.json", "run_001.json", "run_002.json"]
        committed = json.loads((out / "patterns.json").read_text())
        assert committed["next_run"] == 2
        saved = [p["canonical_key"] for p in committed["patterns"]]
        (out / "run_002.json").write_text("orphan")

        monkeypatch.setattr(cli, "_write", real_write)
        assert run_learn(workdir, extra=[*every_run, "--resume"]) == EXIT_OK
        doc = json.loads((out / "patterns.json").read_text())
        keys = [p["canonical_key"] for p in doc["patterns"]]
        assert doc["next_run"] == 3
        assert keys[:len(saved)] == saved and len(keys) == len(set(keys))
        run_2 = json.loads((out / "run_002.json").read_text())["accepted"]
        assert [p["canonical_key"] for p in run_2] == keys[len(saved):]

    def test_resume_reads_keys_from_patterns(self, workdir):
        """A saved canonical_key that does not match its pattern, edited by
        hand or written with other labels, neither lets --resume accept the
        pattern again nor is written back."""
        out = workdir / "out"
        every_run = ["--set", "min_remains=0", "--set", "score_threshold=-1"]
        assert run_learn(workdir, extra=[*every_run, "--set", "max_runs=1"]) == EXIT_OK
        doc = json.loads((out / "patterns.json").read_text())
        saved = [p["canonical_key"] for p in doc["patterns"]]
        for i, entry in enumerate(doc["patterns"]):
            entry["canonical_key"] = "k%d" % i
        (out / "patterns.json").write_text(json.dumps(doc))

        assert run_learn(workdir, extra=[*every_run, "--resume"]) == EXIT_OK
        doc = json.loads((out / "patterns.json").read_text())
        keys = [p["canonical_key"] for p in doc["patterns"]]
        assert doc["next_run"] == 3
        assert keys[:len(saved)] == saved and len(keys) == len(set(keys))
        assert keys == [canon.pattern_key(iojson.pattern_from_json(p["pattern"]))
                        for p in doc["patterns"]]

    @pytest.mark.parametrize("case", ["other_pairs", "older_session"])
    def test_resume_of_other_session_exits_2(self, workdir, capsys, case):
        """--resume refuses, before any run, a ground truth with as many pairs
        as the saved one but other pairs, and a patterns.json without
        next_run, as sessions saved before it carried one are."""
        run_learn(workdir)
        out = workdir / "out"
        if case == "other_pairs":
            (workdir / "gt.tsv").write_text(GT_TSV.replace(":Germany", ":Spain"))
        else:
            doc = json.loads((out / "patterns.json").read_text())
            del doc["next_run"]
            (out / "patterns.json").write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_learn(workdir, extra=["--resume"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error") and "patterns.json" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("n_ledger, n_gt", [(3, 2), (2, 3)],
                             ids=["longer_ledger", "shorter_ledger"])
    def test_resume_with_ledger_of_other_length_exits_2(self, workdir, capsys,
                                                         n_ledger, n_gt):
        """The ledger a session resumes from is rebuilt from the `pv` vectors
        in its patterns.json; one of another length than the GT is refused."""
        lines = GT_TSV.splitlines(keepends=True)
        (workdir / "gt.tsv").write_text("".join(lines[:1 + n_gt]))
        (workdir / "out").mkdir()
        (workdir / "out" / "patterns.json").write_text(json.dumps(
            {"ground_truth": GT_PAIRS[:n_gt], "next_run": 2,
             "patterns": [dict(ENTRY, pv=[1.0] * n_ledger)]}))
        assert run_learn(workdir, extra=["--resume"]) == EXIT_BAD_INPUT
        assert ("input error: patterns %s: a precision vector has %d entries "
                "but the ledger %d" % (workdir / "out" / "patterns.json",
                                       n_ledger, n_gt)) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        json.dumps({"ground_truth": GT_PAIRS, "next_run": 2}), "not json",
        _session(pv=["abc", 0, 0]), _session(pv=[2.0, 0, 0]),
        _session(pv=[float("nan"), 0, 0]), _session(next_run="x"),
        _session(next_run=0), "[0, 0, 0]",
        # as long as the ground truth, so that only the entries' type is wrong
        _session(pv="111"), _session(pv=["0.5", 0, 0]), _session(pv=[True, 0, 0])],
        ids=["no_values", "not_json", "string_value", "value_above_1", "nan_value",
             "string_next_run", "zero_next_run", "bare_list", "string_pv",
             "numeric_string_value", "bool_value"])
    def test_resume_with_malformed_ledger_exits_2(self, workdir, capsys, text):
        """The ledger a session resumes from is its patterns.json: no patterns
        list, a `pv` entry that is not a number in [0, 1], or a next_run that
        is not an integer >= 1 is refused."""
        (workdir / "out").mkdir()
        (workdir / "out" / "patterns.json").write_text(text)
        assert run_learn(workdir, extra=["--resume"]) == EXIT_BAD_INPUT
        assert "input error: patterns" in capsys.readouterr().err

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

    def test_non_utf8_store_exits_2_at_its_position(self, workdir, capsys):
        store = workdir / "latin1.nt"
        store.write_bytes(b'<http://x/s> <http://x/p> <http://x/o> .\n'
                          b'<http://x/s> <http://x/p> "caf\xff" .\n')
        code = main(["learn", "--store", str(store),
                     "--gt", str(workdir / "gt.tsv"),
                     "--out", str(workdir / "out")])
        assert code == EXIT_BAD_INPUT
        assert "invalid UTF-8 byte 0xff (line 2, column 31)" in capsys.readouterr().err


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
    {"patterns": [dict(ENTRY, fitness=dict(FITNESS, bogus=1.0))]},
    {"patterns": [dict(ENTRY, pv=[float("nan"), 1.0, 1.0])]},
    {"patterns": [dict(ENTRY, pv="1")]},
    {"next_run": 0, "patterns": [ENTRY]},
    {"patterns": [dict(ENTRY, pattern=[[_var("source"), CAPITAL_OF,
                                        {"type": "bnode", "value": "b1"}]])]},
    {"patterns": [dict(ENTRY, pattern=[[_var("source"), CAPITAL_OF,
                                        {"type": "literal", "value": 5}]])]}],
    ids=["no_patterns", "no_pattern", "unknown_fitness_key", "nan_pv", "string_pv",
         "zero_next_run", "bnode_node", "number_literal"])
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

    def test_baselines_on_remote_endpoint_exits_1(self, workdir, capsys,
                                                  monkeypatch):
        """The graph baselines read the whole store, which a remote endpoint
        does not give; refused before any query is sent."""
        posted = []
        monkeypatch.setattr(endpoint, "_requests_post",
                            lambda *args, **kwargs: posted.append(args))
        code = main(["evaluate", *remote_inputs(workdir, "evaluate"),
                     "--baselines", "--out", str(workdir / "eval.json")])
        assert code == EXIT_USAGE
        assert "configuration error: --baselines needs a local --store" in \
            capsys.readouterr().err
        assert posted == [] and not (workdir / "eval.json").exists()

    def test_shared_source_predicted_once(self, workdir, monkeypatch):
        """Test pairs that share a source take one prediction of it, and each
        pair is still ranked: Berlin's two targets come 1st and 2nd, Oslo's 1st."""
        (workdir / "gt.tsv").write_text(
            "@prefix : <http://example.org/> .\n"
            ":Berlin\t:Germany\n:Berlin\t:Paris\n:Oslo\t:Norway\n")
        population = dict(ENTRY, canonical_key="k2", pv=[0.0, 1.0, 0.0],
                          covered=[False, True, False], fitness=dict(FITNESS, score=1.0),
                          pattern=[[_var("source"), {"type": "iri", "value":
                                    "http://example.org/population"}, _var("target")]])
        (workdir / "patterns.json").write_text(json.dumps({"patterns": [
            dict(ENTRY, pv=[1.0, 0.0, 1.0], covered=[True, False, True]), population]}))
        sources = []
        real_predict = predict.predict

        def counting_predict(ep, portfolio, source):
            sources.append(source)
            return real_predict(ep, portfolio, source)

        monkeypatch.setattr(predict, "predict", counting_predict)
        assert main(["evaluate", "--store", str(workdir / "store.ttl"),
                     "--patterns", str(workdir / "patterns.json"),
                     "--gt", str(workdir / "gt.tsv"), "--ratio", "1",
                     "--out", str(workdir / "eval.json")]) == EXIT_OK
        assert sources == [ex("Berlin"), ex("Oslo")]
        doc = json.loads((workdir / "eval.json").read_text())
        assert doc["test_pairs"] == 3
        assert doc["metrics"] == {s: evalharness.metrics([1, 2, 1]).as_dict()
                                  for s in predict.FUSION_STRATEGIES}

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

    @pytest.mark.parametrize("target", ["Atlantis", "Germany"],
                             ids=["none_accepted", "accepted"])
    def test_report_reproduces_learn_report(self, workdir, target):
        """`report` over a session's run logs writes the report that `learn`
        wrote, byte for byte, ground truth included. No pattern reaches a
        target missing from the store, so none is accepted."""
        (workdir / "gt.tsv").write_text("<http://example.org/Berlin>\t"
                                        "<http://example.org/%s>\n" % target)
        assert run_learn(workdir, extra=["--set", "max_runs=1",
                                         "--set", "score_threshold=0"]) \
            == EXIT_OK
        out = workdir / "out"
        accepted = json.loads((out / "patterns.json").read_text())["patterns"]
        assert bool(accepted) == (target == "Germany")
        logs = sorted(str(p) for p in out.glob("run_*.json"))
        assert len(logs) == 1
        assert main(["report", *logs, "--html", str(workdir / "r.html"),
                     "--json", str(workdir / "r.json")]) == EXIT_OK
        assert (workdir / "r.json").read_bytes() == (out / "report.json").read_bytes()
        assert (workdir / "r.html").read_bytes() == (out / "report.html").read_bytes()

    @pytest.mark.parametrize("case", ["two_directories", "no_patterns_json",
                                      "ground_truth_length"])
    def test_runlog_outside_its_session_exits_2(self, tmp_path, capsys, case):
        """`report` needs the ground truth of the session its logs come from:
        logs of one directory, beside its `patterns.json`, on as many pairs."""
        log = write_run_log(tmp_path, dict(RUN_LOG, accepted=[
            {"sparql": "SELECT 1", "pv": [1.0], "fitness": FITNESS}]))
        logs = [str(log)]
        if case == "two_directories":
            (tmp_path / "other").mkdir()
            logs.append(str(write_run_log(tmp_path / "other", RUN_LOG)))
        elif case == "no_patterns_json":
            (tmp_path / "patterns.json").unlink()
        else:
            write_run_log(tmp_path, json.loads(log.read_text()), n_pairs=2)
        code = main(["report", *logs, "--html", str(tmp_path / "r.html"),
                     "--json", str(tmp_path / "r.json")])
        assert code == EXIT_BAD_INPUT
        assert "run log error" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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
        log = write_run_log(tmp_path, doc)
        args = ["report", str(log), "--html", str(tmp_path / "r.html"),
                "--json", str(tmp_path / "r.json")]
        assert main(args) == EXIT_OK
        (pat if field in pat else doc).pop(field)
        log.write_text(json.dumps(doc))
        assert main(args) == EXIT_BAD_INPUT
        assert "run log error" in capsys.readouterr().err

    @pytest.mark.parametrize("pvs", [[[5.0]], [[-2.0]], [[1.0], [1.0, 0.0]]],
                             ids=["above_1", "below_0", "unequal_lengths"])
    def test_runlog_bad_pv_exits_2(self, tmp_path, capsys, pvs):
        """Precision values outside [0, 1], or vectors of different lengths,
        cannot be drawn as a coverage grid."""
        log = write_run_log(tmp_path, dict(RUN_LOG, accepted=[
            {"sparql": "SELECT 1", "pv": pv, "fitness": FITNESS} for pv in pvs]))
        code = main(["report", str(log), "--html", str(tmp_path / "r.html"),
                     "--json", str(tmp_path / "r.json")])
        assert code == EXIT_BAD_INPUT
        assert "run log error: ValueError" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_bad_runlog_exits_2(self, tmp_path):
        bad = write_run_log(tmp_path, RUN_LOG)
        bad.write_text("{not json")
        code = main(["report", str(bad),
                     "--html", str(tmp_path / "r.html"),
                     "--json", str(tmp_path / "r.json")])
        assert code == EXIT_BAD_INPUT
