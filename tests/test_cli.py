import ast
import builtins
import codecs
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import narrfunc
from narrfunc import cli, paradigm, taxonomy

from conftest import DATA, load_seq_file

SRC = DATA.parents[1] / "src"
GOLDEN = DATA.parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegistry:
    def test_revised_registry(self, capsys):
        code, out, _ = run_cli(capsys, "registry")
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == cli.EXIT_OK
        assert len(lines) == 34
        assert lines[0]["symbol"] == "A"
        assert {l["status"] for l in lines} == {"original", "revised", "new"}

    def test_legacy_registry(self, capsys):
        code, out, _ = run_cli(capsys, "registry", "--legacy")
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == cli.EXIT_OK
        assert len(lines) == 31


class TestParse:
    def test_inline_passages(self, tmp_path, capsys):
        p = tmp_path / "passages.txt"
        p.write_text((DATA / "passage1.txt").read_text()
                     + "\n\n" + (DATA / "passage2.txt").read_text(),
                     encoding="utf-8")
        code, out, _ = run_cli(capsys, "parse", str(p),
                               "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["count"] == 2
        assert report["total_annotations"] == 11
        assert report["segments"][0]["sequence"] == "K-J-K-De-E-Fa-Lo"
        assert report["segments"][1]["sequence"] == "A-Re-G-F"

    def test_seq_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "parse", str(DATA / "episodes_doubao.seq"),
            "--format", "seq", "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["count"] == 5
        assert all(seq.startswith("A-") for seq in report["sequences"])

    def test_jsonl_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys, "parse", str(DATA / "recognition_corpus.jsonl"),
            "--format", "jsonl", "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert [s["id"] for s in report["segments"]] == ["passage1", "passage2"]

    def test_strict_unknown_marker_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("文本(Zz)", encoding="utf-8")
        code, _, err = run_cli(capsys, "parse", str(p), "--strict")
        assert code == cli.EXIT_INPUT
        assert err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "parse", "/no/such/file")
        assert code == cli.EXIT_INPUT


class TestStats:
    def test_profile_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", str(DATA / "recognition_corpus.jsonl"),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert sum(report["counts"].values()) == 11
        assert report["counts"]["K"] == 2
        assert set(report["common"]) | set(report["rare"]) == \
            set(report["counts"])

    def test_profile_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", str(DATA / "recognition_corpus.jsonl"),
            "--output-format", "csv")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "symbol,count,class"
        assert len(lines) == 35

    def test_empty_corpus_warns(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        code, out, err = run_cli(capsys, "stats", str(empty), "--output-format", "json")
        assert code == cli.EXIT_OK
        assert err == "warning: empty corpus\n"
        assert sum(json.loads(out)["counts"].values()) == 0

    def test_header_records_the_window_settings(self, capsys):
        # --groups moves the total, so two runs must differ in the header too.
        settings = []
        for groups in ("5", "4"):
            code, out, _ = run_cli(
                capsys, "stats", str(DATA / "annotator_a.jsonl"), "--windows",
                "--groups", groups, "--output-format", "json")
            assert code == cli.EXIT_OK
            settings.append(json.loads(out)["header"]["settings"])
        assert [s["total"] for s in settings] == [20, 16]
        assert [(s["groups"], s["per_group"]) for s in settings] == [(5, 4), (4, 4)]

    def test_windows_zero_groups_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "stats", str(DATA / "recognition_corpus.jsonl"),
            "--windows", "--groups", "0")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ")


class TestMatch:
    def test_builtin_supports(self, capsys):
        code, out, _ = run_cli(
            capsys, "match", str(DATA / "plots_battle.seq"),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["support"]["battle"]["support"] == "2/3"
        assert report["support"]["battle"]["support_decimal"] == 0.6667

    def test_explicit_pattern(self, capsys):
        code, out, _ = run_cli(
            capsys, "match", str(DATA / "plots_emotional.seq"),
            "--pattern", "(Em)~>(Ch)", "--output-format", "json")
        report = json.loads(out)
        assert code == cli.EXIT_OK
        assert report["support"]["pattern"]["support"] == "43/60"

    def test_bad_pattern_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "match", str(DATA / "plots_battle.seq"),
            "--pattern", "(A)->")
        assert code == cli.EXIT_INPUT

    def test_supports_agree_with_labels(self, capsys):
        path = DATA / "plots_daily_life.seq"
        code, out, _ = run_cli(capsys, "match", str(path), "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        seqs = load_seq_file(path.name)
        for p in paradigm.builtin_paradigms():
            hits = sum(p.plot_label in v["labels"] for v in report["matches"])
            assert Fraction(report["support"][p.plot_label]["support"]) == \
                Fraction(hits, len(seqs)) == paradigm.support(seqs, p)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("content, argv, message", [
        ("", [], "error: support over an empty corpus"),
        ("A-Q-S\nA-K-O\nA-Qx-S\n", [], "error: {path}: line 3: "
                                       "unknown function symbol 'Qx' at position 1"),
        ("A-Q-S\n", ["--pattern", "(A)->"], "error: pattern syntax error at 5: "),
        # A JSONL record read as one symbol: 8 characters of it are quoted.
        ('{"id": "a", "text": "%s"}\n' % ("x" * 900), [],
         "error: {path}: line 1: unknown function symbol "
         "'{\"id\": \"'... at position 0\n"),
    ], ids=["empty-file", "unknown-symbol-on-last-line", "malformed-pattern",
            "jsonl-record"])
    def test_failing_run_writes_nothing(self, tmp_path, capsys, content, argv,
                                        message, fmt):
        p = tmp_path / "seqs.seq"
        p.write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, "match", str(p), *argv,
                                 "--output-format", fmt)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith(message.replace("{path}", str(p)))

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("plots_*.seq")))
    def test_json_report_is_canonical(self, capsys, name):
        code, out, _ = run_cli(capsys, "match", str(DATA / name),
                               "--output-format", "json")
        assert code == cli.EXIT_OK
        assert out == _dumps(json.loads(out))

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # A report far larger than a pipe's buffer, so the writer is still
        # running when the reader goes away after one line, as ``| head -1``.
        p = tmp_path / "big.seq"
        p.write_text("A-K-Q-Em-Ch-O\n" * 30000, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "narrfunc.cli", "match", str(p),
             "--output-format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE
        assert err == b""

    def test_csv_output_rejected(self, capsys):
        # Only ``stats`` writes CSV; elsewhere argparse refuses the choice.
        with pytest.raises(SystemExit) as exc:
            cli.main(["match", str(DATA / "plots_battle.seq"),
                      "--output-format", "csv"])
        assert exc.value.code == 2


class TestMine:
    def test_battle_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "mine", str(DATA / "plots_battle.seq"),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["pattern"] == "(A)->(K)->(Q)->{O/S}"
        assert report["support"] == "2/3"

    def test_support_is_counted_once(self, capsys, monkeypatch):
        # mine hands back the support it counted; no second pass recounts it.
        def recount(*args):
            raise AssertionError("paradigm.support called")
        monkeypatch.setattr(paradigm, "support", recount)
        code, out, _ = run_cli(
            capsys, "mine", str(DATA / "plots_battle.seq"),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert (report["support"], report["support_decimal"]) == ("2/3", 0.6667)
        assert report["header"]["settings"]["min_support"] == "3/5"

    def test_unminable_exit_3(self, tmp_path, capsys):
        p = tmp_path / "seqs.seq"
        p.write_text("A-Z\nB-Z\nC-Z\nD-Z\n")
        code, _, err = run_cli(capsys, "mine", str(p),
                               "--support", "1.0", "--max-alt", "1")
        assert code == cli.EXIT_ANALYTIC
        assert "mining failed" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_support_exit_2(self, capsys, value):
        # "=" keeps argparse from reading "-inf" as an option.
        code, out, err = run_cli(capsys, "mine", str(DATA / "plots_battle.seq"),
                                 f"--support={value}")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == "error: min_support must be in (0, 1]\n"


class TestEmptySequenceFile:
    @pytest.mark.parametrize("content", ["", "# only a comment\n\n  # another\n"])
    @pytest.mark.parametrize("command, message", [
        ("match", "error: support over an empty corpus"),
        ("mine", "error: mining over an empty corpus")])
    def test_exit_2_without_traceback(self, tmp_path, capsys, content,
                                      command, message):
        p = tmp_path / "seqs.seq"
        p.write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(p))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == message + "\n"


class TestEval:
    def test_mock_byte_identical_runs(self, capsys):
        argv = ["eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
                "--backend", "mock", "--rounds", "3", "--preds", "2",
                "--seed", "11", "--output-format", "json"]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == cli.EXIT_OK
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["metrics"]["sum"]["accuracy"]["mean"] == 1.0
        assert report["errors"] == 0
        assert report["requests"] == 3 * 2 * 2

    def test_text_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--rounds", "1", "--preds", "1")
        assert code == cli.EXIT_OK
        assert "accuracy" in out and "1.000(±0.0)" in out

    def test_unreadable_replay_fixture_exit_2(self, tmp_path, capsys):
        # An unreadable fixture is an input error, as an unreadable corpus is:
        # a missing file and a directory alike.
        for path in (tmp_path / "missing.jsonl", tmp_path):
            code, out, err = run_cli(
                capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
                "--backend", "replay", "--replay-path", str(path))
            assert (code, out) == (cli.EXIT_INPUT, "")
            assert re.fullmatch(r"error: \[Errno \d+\] [^\n]+\n", err), err
            assert err.endswith(f": {str(path)!r}\n")

    def test_fail_on_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "replay", "--replay-path", str(empty),
            "--rounds", "1", "--preds", "1", "--fail-on-error")
        assert code == cli.EXIT_BACKEND
        assert "{'" not in err  # the ledger reads as text, not a dict repr
        lines = err.splitlines()
        assert lines and all(re.fullmatch(
            r"error: round \d+, prediction \d+, segment \S+: ReplayMiss: "
            r"no replay fixture for request digest [0-9a-f]{64}", line)
            for line in lines)

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, err = run_cli(capsys, "eval", "--corpus", str(empty))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == "error: recognition over an empty corpus\n"

    @pytest.mark.parametrize("fixture", [
        '{"response_text": "x"}', '{"request_digest": "d"}', '["d", "x"]',
        '{"request_digest": ["d"], "response_text": "x"}', '{"request_digest": '])
    def test_malformed_replay_fixture_exit_2(self, tmp_path, capsys, fixture):
        replay = tmp_path / "replay.jsonl"
        replay.write_text('{"request_digest": "d0", "response_text": "A"}\n\n'
                          + fixture + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "replay", "--replay-path", str(replay))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {replay}: line 3: ")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_parallel_below_1_exit_2(self, capsys, value):
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--rounds", "1", "--preds", "1", f"--max-parallel={value}")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == "error: max_parallel must be >= 1\n"

    def test_config_file_endpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NARR_ENDPOINT", raising=False)
        cfg = tmp_path / "narr.cfg"
        cfg.write_text("endpoint = http://cfg.test/v1\nmodel = demo\n")
        # mock backend ignores the endpoint; just verify config parses
        code, out, _ = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--rounds", "1", "--preds", "1", "--config", str(cfg),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        assert json.loads(out)["header"]["settings"]["model"] == "demo"

    def test_config_line_without_equals_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "narr.cfg"
        cfg.write_text("# settings\nmodel = demo\nendpoint http://cfg.test/v1\n")
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "http", "--config", str(cfg))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == f"error: {cfg}: line 3: expected key=value\n"

    def test_config_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "narr.cfg"
        cfg.write_text("endpoint = http://cfg.test/v1\nmodle = demo\n")
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--rounds", "1", "--preds", "1", "--config", str(cfg))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == (f"error: {cfg}: line 2: unknown key 'modle', "
                       "expected one of endpoint, model\n")

    def test_config_duplicate_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "narr.cfg"
        cfg.write_text("model = a\nendpoint = http://cfg.test/v1\nmodel = b\n")
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--rounds", "1", "--preds", "1", "--config", str(cfg))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err == f"error: {cfg}: line 3: key 'model' given twice\n"

    @pytest.mark.parametrize("argv, message", [
        (["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1"],
         "http backend needs endpoint and model_name"),
        (["--backend", "replay"], "replay backend needs replay_path"),
    ])
    def test_missing_backend_setting_exit_2(self, capsys, monkeypatch, argv,
                                            message):
        for var in ("NARR_ENDPOINT", "NARR_MODEL"):
            monkeypatch.delenv(var, raising=False)
        sent = []
        monkeypatch.setattr("urllib.request.urlopen",
                            lambda *a, **k: sent.append(a))
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            *argv)
        assert (code, out, sent) == (cli.EXIT_INPUT, "", [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_timeout_exit_2_before_any_request(self, capsys, monkeypatch,
                                                   value):
        sent = []
        monkeypatch.setattr("urllib.request.urlopen",
                            lambda *a, **k: sent.append(a))
        code, out, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "http", "--endpoint", "http://flag.test/v1",
            "--model", "m", "--rounds", "1", "--preds", "1",
            f"--timeout={value}")
        assert (code, out, sent) == (cli.EXIT_INPUT, "", [])
        assert err.startswith("error: timeout must be a positive finite number")
        assert err.count("\n") == 1


# Case -> (argv with "{}" for the input file, its lines, the stderr line):
# a bad record whose field is thousands of characters long.  The message
# shows 8 characters of the field and marks the cut with "...".
LONG_FIELDS = {
    "stats-genre": (["stats", "{}"], [json.dumps(
        {"id": "a", "genre": "G" * 5000, "text": "x(A)"})],
        "line 1: unknown genre 'GGGGGGGG'..."),
    "parse-offset": (["parse", "{}", "--format", "jsonl"], [
        '{"id": "a", "genre": "Urban", "clean_text": "ab", "annotations": '
        '[{"offset": %d, "symbol": "A"}]}' % 10**4000],
        "line 1: offset 10000000... outside clean text"),
    "stats-repeated-id": (["stats", "{}"], [json.dumps(
        {"id": "i" * 3000, "genre": "Urban", "text": "x(A)"})] * 2,
        "line 2: duplicate segment id 'iiiiiiii'..."),
    "eval-config-key": (
        ["eval", "--corpus", str(DATA / "recognition_corpus.jsonl"), "--config", "{}"],
        ["k" * 3000 + " = v"],
        "line 1: unknown key 'kkkkkkkk'..., expected one of endpoint, model"),
}


@pytest.mark.parametrize("case", sorted(LONG_FIELDS))
def test_long_field_is_cut_in_its_message(case, tmp_path, capsys):
    argv, lines, message = LONG_FIELDS[case]
    path = tmp_path / "input"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *[a.format(path) for a in argv])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: {path}: {message}\n"
    assert len(err.encode("utf-8")) - len(str(path).encode("utf-8")) < 200


class TestLoneSurrogate:
    # A JSON escape can spell a lone surrogate, which UTF-8 cannot encode:
    # the record is refused where it is read, before any output or request.
    @pytest.mark.parametrize("argv", [
        ["parse", "{c}", "--format", "jsonl"], ["stats", "{c}"],
        ["eval", "--corpus", "{c}"],
        ["eval", "--corpus", "{c}", "--backend", "replay", "--replay-path", "{e}"],
    ], ids=["parse", "stats", "eval-mock", "eval-replay"])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_refused_before_any_output(self, tmp_path, capsys, monkeypatch,
                                       argv, field):
        sent = []
        monkeypatch.setattr("narrfunc.harness.ReplayBackend.complete",
                            lambda self, payload: sent.append(payload))
        record = {"id": "a", "genre": "Urban", "text": "x(A)", field: "x\ud800"}
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (tmp_path / "e.jsonl").write_text("")  # a fixture that misses every request
        code, out, err = run_cli(capsys, *(
            a.replace("{c}", str(corpus)).replace("{e}", str(tmp_path / "e.jsonl"))
            for a in argv))
        assert (code, out, sent) == (cli.EXIT_INPUT, "", [])
        assert err == (f"error: {corpus}: line 1: {field} is not UTF-8: "
                       "surrogates not allowed\n")


class TestHomog:
    def test_doubao(self, capsys):
        code, out, _ = run_cli(
            capsys, "homog", str(DATA / "episodes_doubao.seq"),
            "--output-format", "json")
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["mean_similarity"] == pytest.approx(0.9143, abs=1e-4)
        assert report["first_marker_consistency"] == 1.0
        assert len(report["pairwise"]) == 5

    def test_lcs_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "homog", str(DATA / "episodes_qwen.seq"),
            "--method", "lcs", "--output-format", "json")
        assert code == cli.EXIT_OK
        assert json.loads(out)["header"]["settings"]["method"] == "lcs"


class TestEntryPoint:
    def test_console_script_installed(self):
        assert shutil.which("narrfunc") is not None

    def test_import_leaves_out_dataclasses_and_inspect(self):
        code = ("import sys, narrfunc.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60)
        assert result.stdout == "[]\n"

    def test_import_leaves_out_concurrent_futures(self):
        # The thread pool is imported only by a run with --max-parallel > 1.
        code = ("import sys, narrfunc.cli; "
                "print('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60)
        assert result.stdout == "False\n"

    @staticmethod
    def _loaded_by(argv, modules):
        """Which of *modules* a fresh interpreter holds after ``cli.main(argv)``
        in DATA: the report goes to stdout, the sorted names to stderr."""
        code = ("import sys; from narrfunc import cli; code = cli.main(sys.argv[2:]); "
                "print(sorted(set(sys.argv[1].split(',')) & set(sys.modules)), "
                "file=sys.stderr); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code, ",".join(modules), *argv], cwd=DATA,
            env=env, capture_output=True, text=True, check=True, timeout=60)
        return result.stderr

    def test_homog_leaves_out_unused_layers(self):
        assert self._loaded_by(["homog", "episodes_qwen.seq"], [
            "narrfunc.harness", "narrfunc.metrics", "narrfunc.paradigm",
            "fractions", "decimal",
            "narrfunc.homogenization"]) == "['narrfunc.homogenization']\n"

    def test_eval_leaves_out_unused_layers(self):
        assert self._loaded_by([
            "eval", "--corpus", "recognition_corpus.jsonl", "--rounds", "1",
            "--preds", "1"], [
            "narrfunc.homogenization", "narrfunc.paradigm", "fractions",
            "decimal", "narrfunc.harness"]) == "['narrfunc.harness']\n"

    def test_match_leaves_out_unused_layers(self):
        assert self._loaded_by(["match", "plots_battle.seq"], [
            "narrfunc.harness", "narrfunc.metrics", "narrfunc.homogenization",
            "statistics", "narrfunc.paradigm"]) == "['narrfunc.paradigm']\n"

    def test_package_loads_submodules_on_first_use(self):
        code = ("import sys, narrfunc; before = 'narrfunc.paradigm' in sys.modules; "
                "print(before, narrfunc.paradigm.mine.__name__)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=60)
        assert result.stdout == "False mine\n"
        with pytest.raises(AttributeError, match="nosuch"):
            narrfunc.nosuch

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert "narrfunc" in capsys.readouterr().out


# Golden case -> its argv, for the layouts main writes: JSONL, csv, the
# eval table, streamed json rows and text.
RETURNED = {
    "registry": ["registry"],
    "stats_csv": ["stats", "recognition_corpus.jsonl", "--output-format", "csv"],
    "eval_mock_text": ["eval", "--corpus", "recognition_corpus.jsonl",
                       "--output-format", "text"],
    "match_battle_json": ["match", "plots_battle.seq", "--output-format", "json"],
    "homog_edit_qwen_text": ["homog", "episodes_qwen.seq", "--method", "edit",
                             "--output-format", "text"],
}


@pytest.mark.parametrize("case", sorted(RETURNED))
def test_commands_return_reports_and_write_nothing(case, capsys, monkeypatch):
    # Only main writes: a command returns its report, and _emit renders it
    # as the golden case that runs the same argv through main.
    monkeypatch.chdir(DATA)
    for var in ("NARR_ENDPOINT", "NARR_MODEL"):
        monkeypatch.delenv(var, raising=False)
    args = cli.build_parser().parse_args(RETURNED[case])
    report = args.func(args)
    assert capsys.readouterr().out == ""
    out = io.StringIO()
    cli._emit(report, args.output_format, out)
    _assert_same(out.getvalue().encode("utf-8"), (GOLDEN / f"{case}.out").read_bytes())


# Strings that stress JSON escaping: quotes, backslashes, control and
# non-ASCII characters, and every registry symbol.
_text = st.one_of(st.text(alphabet=st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "故",
     "\U0001f600", "%", "s", "-", " "])), st.sampled_from(taxonomy.SYMBOLS))
_field_values = st.one_of(_text, st.lists(st.sampled_from(taxonomy.SYMBOLS)),
                          st.lists(_text, max_size=3))
_rows = st.lists(st.dictionaries(_text, _field_values, max_size=3))
_values = st.one_of(
    st.integers(), st.none(), _text, _rows,
    st.dictionaries(_text, st.one_of(_text, st.floats(allow_nan=False))),
    st.lists(st.one_of(_text, st.integers())))


def _dumps(report):
    return json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _emitted(report, fmt="json"):
    out = io.StringIO()
    cli._emit(report, fmt, out)
    return out.getvalue()


def _expected(report, fmt):
    """*report*, whose rows are plain dicts, as json.dumps writes it or as
    _emit writes it in text."""
    return _dumps(report) if fmt == "json" else _emitted(report, "text")


def _assert_same(got, expected):
    """Fail on the first differing offset with a short window around it,
    instead of diffing two reports of hundreds of KB."""
    if got != expected:
        at = next((i for i, pair in enumerate(zip(got, expected))
                   if pair[0] != pair[1]), min(len(got), len(expected)))
        window = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"first difference at offset {at} (lengths {len(got)}, "
                    f"{len(expected)}): got {got[window]!r}, expected "
                    f"{expected[window]!r}", pytrace=False)


@st.composite
def _row_lists(draw):
    """_Rows with two distinct keys, whose rows draw their shared items from
    a few values, each one object for every row that draws it."""
    own_key, shared_key = draw(st.lists(_text, min_size=2, max_size=2, unique=True))
    items = draw(st.lists(_field_values, min_size=1, max_size=3))
    return cli._Rows(own_key, shared_key, draw(
        st.lists(st.tuples(_text, st.sampled_from(items)), max_size=6)))


def _row_dicts(rows):
    return [{rows.own_key: own, rows.shared_key: item} for own, item in rows.pairs]


@given(st.dictionaries(_text, _values, max_size=4),
       st.dictionaries(_text, _row_lists(), max_size=2))
def test_emit_equals_json_dumps(plain, row_lists):
    report = {**plain, **{k: _row_dicts(rows) for k, rows in row_lists.items()}}
    expected = _dumps(report)
    _assert_same(_emitted(report), expected)
    # _Rows go through the row writer.
    _assert_same(_emitted({**plain, **row_lists}), expected)


@given(st.dictionaries(_text, _values, max_size=4),
       st.dictionaries(_text, _row_lists(), max_size=2))
@example({}, {"m": cli._Rows("s", "l", [])})
@example({"a": "x"}, {"m": cli._Rows("\0", "\n", []), " ": cli._Rows(" ", "", [])})
def test_emit_text_rows_equal_row_dicts(plain, row_lists):
    # Text rows, each rendered once per shared item, read as the same rows
    # given as plain dicts, whose every value goes through _text_lines.
    report = {**plain, **{k: _row_dicts(rows) for k, rows in row_lists.items()}}
    _assert_same(_emitted({**plain, **row_lists}, "text"), _emitted(report, "text"))


def _in_both_formats(values):
    """``(value, fmt)`` params: JSON under the value's own id, text under
    ``<id>-text``."""
    return [*(pytest.param(v, "json", id=str(v)) for v in values),
            *(pytest.param(v, "text", id=f"{v}-text") for v in values)]


@pytest.mark.parametrize("n,fmt", _in_both_formats(
    [0, 1, cli._ROWS_PER_WRITE, 2 * cli._ROWS_PER_WRITE + 1]))
def test_emit_rows_across_write_chunks(n, fmt):
    shared = [["battle"] * k for k in range(3)]
    pairs = [(f"A-{i}", shared[i % 3]) for i in range(n)]
    report = {"header": {"tool": "x"}, "matches": [
        {"sequence": own, "labels": labels} for own, labels in pairs], "support": {}}
    rows = cli._Rows("sequence", "labels", iter(pairs))
    _assert_same(_emitted({**report, "matches": rows}, fmt), _expected(report, fmt))


@pytest.mark.parametrize("text,fmt", _in_both_formats([
    "100%", "%s", "%%(x)s", 'say "hi"', "\\", "\u2028", "\u2029", "\x00", "\x1f",
    "\n\t\r", "\x7f", "故事", "\U0001f600"]))
def test_emit_rows_sharing_one_list(text, fmt):
    # Many rows share one list object; every string, key, own string or
    # label, goes through the same escaping as json.dumps, or in text
    # through the same lines as the rows given as dicts.
    labels = [text, "battle", text]
    pairs = [(f"{text}-{i}", labels) for i in range(100)]
    # The own key sorts before, then after, the shared one.
    for own_key, shared_key in (("a" + text, "b" + text), ("b" + text, "a" + text)):
        rows = cli._Rows(own_key, shared_key, pairs)
        _assert_same(_emitted({"m": rows}, fmt), _expected({"m": _row_dicts(rows)}, fmt))


def test_emit_rows_whose_list_ids_come_back(fmt="json"):
    # Each label list is new and dropped once its row is taken, so CPython
    # gives later lists the ids of freed ones.  The writer's cache holds every
    # list it keys by id, so no id can stand for two lists.
    def pairs():
        for i in range(50):
            yield f"s{i}", [f"l{i}"]
    assert len({id(labels) for _, labels in pairs()}) < 50
    expected = [{"sequence": f"s{i}", "labels": [f"l{i}"]} for i in range(50)]
    rows = cli._Rows("sequence", "labels", pairs())
    _assert_same(_emitted({"m": rows}, fmt), _expected({"m": expected}, fmt))


def test_emit_text_rows_whose_list_ids_come_back():
    test_emit_rows_whose_list_ids_come_back("text")


def test_emit_refuses_a_non_json_value():
    # A report value JSON cannot hold fails loudly instead of becoming its str().
    with pytest.raises(TypeError):
        _emitted({"x": object()})


# Command -> (argv with "{}" for the input file, that file's name in
# tests/data), one case per command that reads an input file.
CORPUS = "recognition_corpus.jsonl"
INPUT_CASES = {
    "parse_inline": (["parse", "{}"], "passage1.txt"),
    "parse_seq": (["parse", "{}", "--format", "seq"], "plots_battle.seq"),
    "parse_jsonl": (["parse", "{}", "--format", "jsonl"], CORPUS),
    "stats": (["stats", "{}"], CORPUS),
    "match": (["match", "{}"], "plots_battle.seq"),
    "mine": (["mine", "{}"], "plots_battle.seq"),
    "homog": (["homog", "{}"], "episodes_qwen.seq"),
    "eval": (["eval", "--corpus", "{}", "--rounds", "1", "--preds", "1"], CORPUS),
}


@pytest.mark.parametrize("case", sorted(INPUT_CASES))
def test_each_input_is_opened_once(case, capsys, monkeypatch):
    # One read both parses an input and digests it for the header.
    argv, name = INPUT_CASES[case]
    monkeypatch.chdir(DATA)
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, _ = run_cli(capsys, *[a.format(name) for a in argv],
                         "--output-format", "json")
    assert code == cli.EXIT_OK
    assert opened.count(name) == 1


def test_eval_header_lists_every_file_read(tmp_path, capsys, monkeypatch):
    # A replay run's numbers depend on the fixture's bytes, and --config can
    # set the model: the header digests both beside the corpus, each file
    # read once.
    for var in ("NARR_ENDPOINT", "NARR_MODEL"):
        monkeypatch.delenv(var, raising=False)
    files = {CORPUS: (DATA / CORPUS).read_bytes(), "narr.cfg": b"model = demo\n",
             "replay.jsonl": b'{"request_digest": "d0", "response_text": "A"}\n'}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run_cli(capsys, "eval", "--corpus", CORPUS, "--rounds", "1",
                           "--preds", "1", "--config", "narr.cfg", "--backend",
                           "replay", "--replay-path", "replay.jsonl",
                           "--output-format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["header"]["inputs"] == {
        name: hashlib.sha256(content).hexdigest()[:16]
        for name, content in files.items()}
    assert [opened.count(name) for name in files] == [1, 1, 1]


def _opens_a_file(node):
    """A call of the builtin open, by that name or as ``io.open``/``builtins.open``."""
    func = getattr(node, "func", None)
    return (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins"))


def test_one_reader_opens_every_file():
    # Command inputs, --config and replay fixtures are all read by
    # annotation.read_lines, so they share its newlines, BOM and UTF-8 errors.
    callers = []
    for path in sorted((SRC / "narrfunc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> innermost enclosing function (ast.walk goes outside in)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(node), node.name))
        callers += [f"{path.stem}.{scope.get(node, '<module>')}"
                    for node in ast.walk(tree) if _opens_a_file(node)]
    assert callers == ["annotation.read_lines"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_input_digest_is_of_its_bytes(capsys):
    data = (DATA / "plots_battle.seq").read_bytes()
    read_end, write_end = os.pipe()
    os.write(write_end, data)  # fits the pipe's buffer
    os.close(write_end)
    path = f"/dev/fd/{read_end}"
    try:
        code, out, _ = run_cli(capsys, "match", path, "--output-format", "json")
    finally:
        os.close(read_end)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["header"]["inputs"] == {path: hashlib.sha256(data).hexdigest()[:16]}
    assert report["support"]["battle"]["support"] == "2/3"


# Case -> (argv, file name, file content): each command input above, and
# the config file and replay fixture that eval reads beside its corpus.
_EVAL = ["eval", "--corpus", str(DATA / CORPUS), "--rounds", "1", "--preds", "1"]
BOM_CASES = {
    **{case: (argv, name, (DATA / name).read_bytes())
       for case, (argv, name) in INPUT_CASES.items()},
    "eval_config": ([*_EVAL, "--config", "{}"], "narr.cfg", b"model = demo\n"),
    "eval_replay": ([*_EVAL, "--backend", "replay", "--replay-path", "{}"],
                    "replay.jsonl", b'{"request_digest": "d0", "response_text": "A"}\n'),
}


@pytest.mark.parametrize("case", sorted(BOM_CASES))
def test_leading_bom_is_ignored(case, tmp_path, capsys, monkeypatch):
    # The same relative path in two directories, so only the digest differs.
    for var in ("NARR_ENDPOINT", "NARR_MODEL"):
        monkeypatch.delenv(var, raising=False)
    argv, name, content = BOM_CASES[case]
    reports = []
    for prefix in (b"", codecs.BOM_UTF8):
        directory = tmp_path / ("bom" if prefix else "plain")
        directory.mkdir()
        (directory / name).write_bytes(prefix + content)
        monkeypatch.chdir(directory)
        code, out, err = run_cli(capsys, *[a.format(name) for a in argv],
                                 "--output-format", "json")
        assert (code, err) == (cli.EXIT_OK, "")
        report = json.loads(out)
        report["header"].pop("inputs")
        reports.append(report)
    assert reports[0] == reports[1]


# Command -> (input lines with a bad byte on line 3, argv naming the input "{}").
UTF8_CASES = {
    "match": ([b"A-Q-S", b"A-K-Q-O", b"A-\xff-S"], ["match", "{}"]),
    "config": ([b"# settings", b"model = demo", b"endpoint = \xff"],
               ["eval", "--corpus", str(DATA / CORPUS), "--config", "{}"]),
    "replay": ([b'{"request_digest": "d0", "response_text": "A"}', b"",
                b'{"request_digest": "d1", "response_text": "\xff"}'],
               ["eval", "--corpus", str(DATA / CORPUS), "--backend", "replay",
                "--replay-path", "{}"]),
}


@pytest.mark.parametrize("prefix", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("command", sorted(UTF8_CASES))
def test_invalid_utf8_names_its_line(command, newline, prefix, tmp_path, capsys):
    lines, argv = UTF8_CASES[command]
    path = tmp_path / "input"
    path.write_bytes(prefix + newline.join(lines) + newline)
    code, out, err = run_cli(capsys, *[a.format(path) for a in argv])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: {path}: line 3: not UTF-8: invalid start byte\n"
