import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from narrfunc import cli, paradigm, taxonomy

from conftest import DATA, load_seq_file

SRC = DATA.parents[1] / "src"


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
        ("A-Q-S\nA-K-O\nA-Qx-S\n", [], "error: unknown function symbol 'Qx' at position 1"),
        ("A-Q-S\n", ["--pattern", "(A)->"], "error: pattern syntax error at 5: "),
    ], ids=["empty-file", "unknown-symbol-on-last-line", "malformed-pattern"])
    def test_failing_run_writes_nothing(self, tmp_path, capsys, content, argv,
                                        message, fmt):
        p = tmp_path / "seqs.seq"
        p.write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, "match", str(p), *argv,
                                 "--output-format", fmt)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith(message)

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

    def test_replay_without_fixtures_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "replay", "--replay-path", "/no/file")
        assert code == cli.EXIT_BACKEND

    def test_fail_on_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(
            capsys, "eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "replay", "--replay-path", str(empty),
            "--rounds", "1", "--preds", "1", "--fail-on-error")
        assert code == cli.EXIT_BACKEND
        assert "ReplayMiss" in err

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
        assert err.startswith("error: malformed record on line 3: ")

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert "narrfunc" in capsys.readouterr().out


# Strings that stress JSON escaping: quotes, backslashes, control and
# non-ASCII characters, and every registry symbol.
_text = st.one_of(st.text(alphabet=st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "故",
     "\U0001f600", "%", "s", "-", " "])), st.sampled_from(taxonomy.SYMBOLS))
_rows = st.lists(st.dictionaries(
    _text, st.one_of(_text, st.lists(st.sampled_from(taxonomy.SYMBOLS)),
                     st.lists(_text, max_size=3)), max_size=3))
_values = st.one_of(
    st.integers(), st.none(), _text, _rows,
    st.dictionaries(_text, st.one_of(_text, st.floats(allow_nan=False))),
    st.lists(st.one_of(_text, st.integers())))


def _dumps(report):
    return json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2,
                      default=str) + "\n"


def _emitted(report):
    out = io.StringIO()
    cli._emit(report, "json", out)
    return out.getvalue()


@given(st.dictionaries(_text, _values, max_size=4),
       st.dictionaries(_text, _rows, max_size=2))
def test_emit_equals_json_dumps(plain, row_lists):
    report = {**plain, **row_lists}
    expected = _dumps(report)
    assert _emitted(report) == expected
    # Rows handed over as an iterator go through the row writer.
    assert _emitted({**plain, **{k: iter(v) for k, v in row_lists.items()}}) == expected


@pytest.mark.parametrize("n", [0, 1, cli._ROWS_PER_WRITE, 2 * cli._ROWS_PER_WRITE + 1])
def test_emit_rows_across_write_chunks(n):
    rows = [{"sequence": f"A-{i}", "labels": ["battle"] * (i % 3)} for i in range(n)]
    report = {"header": {"tool": "x"}, "matches": rows, "support": {}}
    assert _emitted({**report, "matches": iter(rows)}) == _dumps(report)
