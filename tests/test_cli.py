import json
import shutil
from fractions import Fraction

import pytest

from narrfunc import cli, paradigm

from conftest import DATA, load_seq_file


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
