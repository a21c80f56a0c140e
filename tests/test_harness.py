import http.server
import json
import threading
import time

import pytest

from narrfunc import harness
from narrfunc.annotation import AnnotatedSegment, parse_inline, sequence_of
from narrfunc.errors import (
    BackendUnreachable,
    EmptyCorpus,
    MalformedRecord,
    ReplayMiss,
)
from narrfunc.harness import (
    BackendConfig,
    ContinuationRun,
    RecognitionRun,
    ReplayBackend,
    build_payload,
    make_backend,
    parse_model_output,
    request_digest,
    run_continuation,
    run_recognition,
)

from conftest import DATA


@pytest.fixture
def segments(passages):
    out = []
    for i, text in enumerate(passages, start=1):
        clean, anns = parse_inline(text)
        out.append(AnnotatedSegment(f"passage{i}", "Fantasy", clean, anns))
    return out


class TestParseModelOutput:
    def test_inline_markers(self):
        pred = parse_model_output("…way out. (K) … later (J)", 2)
        assert pred.per_instance == ["K", "J"]
        assert pred.extras == 0

    def test_trailing_hyphen_line(self):
        text = "Analysis follows.\n\nA-Lo-E-Q-P-S\n"
        pred = parse_model_output(text, 6)
        assert pred.per_instance == ["A", "Lo", "E", "Q", "P", "S"]

    def test_free_prose(self):
        pred = parse_model_output("no recognizable structure at all", 3)
        assert pred.per_instance == [None, None, None]
        assert pred.extras == 0

    def test_surplus_counts_as_extras(self):
        pred = parse_model_output("(A) (K) (Q) (S)", 2)
        assert pred.per_instance == ["A", "K"]
        assert pred.extras == 2

    def test_shortfall_padded_absent(self):
        pred = parse_model_output("(A)", 3)
        assert pred.per_instance == ["A", None, None]

    def test_empty_text(self):
        pred = parse_model_output("", 2)
        assert pred.per_instance == [None, None]


class TestMockRecognition:
    def test_echo_gold_scores_perfect(self, segments):
        cfg = BackendConfig(kind="mock")
        run = RecognitionRun(segments=segments, rounds=3, preds_per_round=2)
        result = run_recognition(cfg, run)
        assert result.errors == []
        assert result.requests == 3 * 2 * len(segments)
        for split in (result.report.common, result.report.rare,
                      result.report.sum):
            for summary in split.values():
                assert summary.mean == 1.0 and summary.std == 0.0

    def test_deterministic_across_runs(self, segments):
        cfg = BackendConfig(kind="mock", max_parallel=4)
        run = RecognitionRun(segments=segments, rounds=2, preds_per_round=3,
                             seed=7)
        a = run_recognition(cfg, run)
        b = run_recognition(cfg, run)
        assert a.report == b.report
        assert a.errors == b.errors

    def test_empty_corpus(self):
        run = RecognitionRun(segments=[], rounds=2, preds_per_round=2)
        with pytest.raises(EmptyCorpus):
            run_recognition(BackendConfig(kind="mock"), run)


class TestReplayRecognition:
    def _fixture_path(self, tmp_path, segments, responses):
        """Record one response per (round, pred, segment) request digest;
        *responses* maps a segment id to its reply, which a
        ``(round, pred, segment id)`` key overrides."""
        cfg = BackendConfig(kind="replay", replay_path="unused")
        system = harness.DEFAULT_RECOGNITION_TEMPLATE.format(
            functions=harness.functions_block())
        path = tmp_path / "replay.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for r in range(10):
                for p in range(5):
                    for seg in segments:
                        tag = (f"recognition:seed=0:round={r}:pred={p}"
                               f":seg={seg.id}")
                        payload = build_payload(cfg, system, seg.clean_text, tag)
                        fh.write(json.dumps({
                            "request_digest": request_digest(payload),
                            "response_text": responses.get(
                                (r, p, seg.id), responses[seg.id]),
                        }, ensure_ascii=False) + "\n")
        return str(path)

    def test_four_of_eleven_hits(self, tmp_path, segments):
        # correct on K,J,K,De of passage1; valid-but-wrong elsewhere
        responses = {
            "passage1": "K-J-K-De-B-B-B",
            "passage2": "B-C-D-H",
        }
        path = self._fixture_path(tmp_path, segments, responses)
        cfg = BackendConfig(kind="replay", replay_path=path)
        run = RecognitionRun(segments=segments, rounds=10, preds_per_round=5,
                             seed=0)
        result = run_recognition(cfg, run)
        assert result.errors == []
        assert result.report.sum["accuracy"].mean == pytest.approx(
            0.364, abs=5e-4)
        assert result.report.sum["accuracy"].std == pytest.approx(0.0, abs=1e-12)

    def test_each_prediction_scored_from_its_own_replies(self, tmp_path,
                                                          segments):
        # Both predictions of round 1 miss passage1's 7 instances and score
        # 4/11; round 0 is perfect, so the run scores 15/22 ± 7/22.
        responses = {seg.id: "-".join(sequence_of(seg)) for seg in segments}
        responses[1, 0, "passage1"] = responses[1, 1, "passage1"] = "B-B-B-B-B-B-B"
        path = self._fixture_path(tmp_path, segments, responses)
        cfg = BackendConfig(kind="replay", replay_path=path)
        run = RecognitionRun(segments=segments, rounds=2, preds_per_round=2)
        accuracy = run_recognition(cfg, run).report.sum["accuracy"]
        assert accuracy.mean == pytest.approx(15 / 22)
        assert accuracy.std == pytest.approx(7 / 22)

    def test_replay_miss_lands_in_ledger(self, tmp_path, segments):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        cfg = BackendConfig(kind="replay", replay_path=str(path))
        run = RecognitionRun(segments=segments, rounds=2, preds_per_round=2)
        result = run_recognition(cfg, run)
        assert len(result.errors) == result.requests
        assert all(e["error"] == "ReplayMiss" for e in result.errors)
        for summary in result.report.sum.values():
            assert summary.mean == 0.0

    def test_missing_fixture_file(self):
        with pytest.raises(BackendUnreachable):
            make_backend(BackendConfig(kind="replay", replay_path="/no/file"))

    def test_replay_miss_digest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        backend = ReplayBackend(str(path))
        with pytest.raises(ReplayMiss):
            backend.complete({"model": "m", "messages": [], "tag": "t"})

    @pytest.mark.parametrize("line, mentioned", [
        ('{"response_text": "x"}', "request_digest"),
        ('{"request_digest": "d1"}', "response_text"),
        ('"d1"', None),
        ('{"request_digest": {"d": 1}, "response_text": "x"}', None),
        ('{"request_digest": "d1", ', "JSONDecodeError")])
    def test_malformed_fixture_line(self, tmp_path, line, mentioned):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"request_digest": "d0", "response_text": "A"}\n'
                        + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            ReplayBackend(str(path))
        assert exc.value.line_no == 2
        if mentioned:
            assert mentioned in exc.value.reason


class TestContinuation:
    def test_mock_is_deterministic(self, segments):
        cfg = BackendConfig(kind="mock")
        run = ContinuationRun(preface=segments[0], n_episodes=2)
        episodes_a, seqs_a, _ = run_continuation(cfg, run)
        episodes_b, seqs_b, _ = run_continuation(cfg, run)
        assert episodes_a == episodes_b
        assert len(episodes_a) == 2
        assert seqs_a == seqs_b
        assert all(s == ["A", "Q", "S"] for s in seqs_a)

    def test_replay_hyphen_line_episodes(self, tmp_path, segments):
        # Each recorded episode ends in one doubao sequence, so the replayed
        # set is varied, unlike the mock's fixed A-Q-S.
        doubao_lines = [
            line for line in
            (DATA / "episodes_doubao.seq").read_text().splitlines()
            if line and not line.startswith("#")]
        replies = [f"Episode {i}: the hero returns.\n\n{line}\n"
                   for i, line in enumerate(doubao_lines)]
        cfg = self._replay_cfg(tmp_path, segments, replies)
        run = ContinuationRun(preface=segments[0], n_episodes=5)
        episodes, seqs, errors = run_continuation(cfg, run)
        assert errors == []
        assert episodes == replies
        assert ["-".join(s) for s in seqs] == doubao_lines
        assert len(set(doubao_lines)) > 1

    def _replay_cfg(self, tmp_path, segments, replies):
        """Replay fixture answering episode ``i`` with ``replies[i]``; a
        ``None`` reply leaves that episode unrecorded."""
        path = tmp_path / "episodes.jsonl"
        cfg = BackendConfig(kind="replay", replay_path=str(path))
        with open(path, "w", encoding="utf-8") as fh:
            for i, reply in enumerate(replies):
                if reply is None:
                    continue
                payload = build_payload(
                    cfg, harness.DEFAULT_CONTINUATION_TEMPLATE,
                    segments[0].clean_text, f"continuation:seed=0:episode={i}")
                fh.write(json.dumps({
                    "request_digest": request_digest(payload),
                    "response_text": reply,
                }) + "\n")
        return cfg

    def test_hyphen_line_reply(self, tmp_path, segments):
        cfg = self._replay_cfg(
            tmp_path, segments, ["The hero returns home.\n\nA-Lo-E-Q-P-S\n"])
        run = ContinuationRun(preface=segments[0], n_episodes=1)
        _, seqs, errors = run_continuation(cfg, run)
        assert errors == []
        assert seqs[0] == ["A", "Lo", "E", "Q", "P", "S"]

    def test_failed_episode_recorded_not_raised(self, tmp_path, segments):
        cfg = self._replay_cfg(
            tmp_path, segments, ["One. (A)", None, "Three. (S)"])
        run = ContinuationRun(preface=segments[0], n_episodes=3)
        episodes, seqs, errors = run_continuation(cfg, run)
        assert episodes == ["One. (A)", None, "Three. (S)"]
        assert seqs == [["A"], [], ["S"]]
        assert len(errors) == 1
        assert list(errors[0]) == ["episode", "error", "detail"]
        assert (errors[0]["episode"], errors[0]["error"]) == (1, "ReplayMiss")


class TestHttpConfig:
    def test_requires_endpoint_and_model(self):
        with pytest.raises(BackendUnreachable):
            make_backend(BackendConfig(kind="http"))

    def test_explicit_endpoint(self):
        backend = make_backend(BackendConfig(
            kind="http", endpoint="http://flag.test/v1", model_name="m"))
        assert backend.endpoint == "http://flag.test/v1"


class _ChatServer(http.server.ThreadingHTTPServer):
    """Loopback chat endpoint.  ``/status500`` fails, ``/slow`` stalls for
    ``slow_s``, ``/malformed`` returns broken JSON; any other path answers
    from ``answers`` (user text -> (delay, reply)), echoing the user text
    by default."""

    slow_s = 1.0

    def handle_error(self, request, client_address):
        pass  # a client that timed out closed the socket first


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, raw))
        if self.path == "/status500":
            self.send_error(500)
            return
        if self.path == "/slow":
            time.sleep(self.server.slow_s)
        if self.path == "/malformed":
            reply = b'{"choices": [{"message": '
        else:
            user = json.loads(raw)["messages"][1]["content"]
            delay, text = self.server.answers.get(user, (0, user))
            time.sleep(delay)
            self.server.done.append(user)
            reply = json.dumps({"choices": [{"message": {
                "role": "assistant", "content": text}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.delenv(harness.ENV_API_KEY, raising=False)
    server = _ChatServer(("127.0.0.1", 0), _ChatHandler)
    server.seen, server.done, server.answers = [], [], {}
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def _recognize(self, server, path, segments, **cfg_kw):
        cfg = BackendConfig(kind="http", endpoint=server.url + path,
                            model_name="m", **cfg_kw)
        run = RecognitionRun(segments=segments, rounds=1, preds_per_round=2)
        return run_recognition(cfg, run)

    def test_success_and_wire_body(self, chat_server, monkeypatch):
        monkeypatch.setenv(harness.ENV_API_KEY, "sk-test")
        cfg = BackendConfig(kind="http", endpoint=chat_server.url + "/chat",
                            model_name="m", decoding={"temperature": 0.7})
        payload = build_payload(cfg, "system", "他逃了出去。", "tag-1")
        chat_server.answers["他逃了出去。"] = (0, "A-K-S")
        assert make_backend(cfg).complete(payload) == "A-K-S"
        headers, raw = chat_server.seen[0]
        assert raw == json.dumps({
            "model": "m", "messages": payload["messages"],
            "temperature": 0.7}).encode("utf-8")
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer sk-test"

    def test_response_path(self, chat_server):
        cfg = BackendConfig(kind="http", endpoint=chat_server.url + "/chat",
                            model_name="m",
                            response_path="choices.0.message.role")
        payload = build_payload(cfg, "system", "text", "tag")
        assert make_backend(cfg).complete(payload) == "assistant"

    def test_status_500_lands_in_ledger(self, chat_server, segments):
        result = self._recognize(chat_server, "/status500", segments)
        assert len(result.errors) == result.requests == 4
        assert all(e["error"] == "BackendUnreachable" for e in result.errors)
        assert list(result.errors[0]) == [
            "round", "prediction", "segment", "error", "detail"]

    def test_timeout_lands_in_ledger(self, chat_server, segments):
        result = self._recognize(chat_server, "/slow", segments[:1],
                                 timeout=0.2)
        assert len(result.errors) == result.requests == 2
        assert all(e["error"] == "BackendUnreachable" for e in result.errors)

    def test_malformed_json_lands_in_ledger(self, chat_server, segments):
        result = self._recognize(chat_server, "/malformed", segments)
        assert len(result.errors) == result.requests == 4
        assert all(e["error"] == "JSONDecodeError" for e in result.errors)

    def test_parallel_results_keep_task_order(self, chat_server, segments):
        # The first segment answers slowly, so replies complete out of
        # request order; scoring is only perfect if results are realigned.
        for seg, delay in zip(segments, (0.3, 0.0)):
            chat_server.answers[seg.clean_text] = (
                delay, "-".join(sequence_of(seg)))
        result = self._recognize(chat_server, "/chat", segments,
                                 max_parallel=2)
        assert chat_server.done[0] == segments[1].clean_text
        assert result.errors == []
        for summary in result.report.sum.values():
            assert summary.mean == 1.0
