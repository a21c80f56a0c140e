import http.server
import json
import re
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from narrfunc import annotation, harness, metrics
from narrfunc.annotation import (
    AnnotatedSegment,
    Annotation,
    emit_inline,
    extract_symbols,
    parse_inline,
    sequence_of,
)
from narrfunc.errors import MalformedRecord, ReplayMiss
from narrfunc.harness import (
    BackendConfig,
    HttpBackend,
    ReplayBackend,
    build_payload,
    make_backend,
    parse_model_output,
    request_digest,
    run_continuation,
    run_recognition,
)

from conftest import DATA, exactly
from test_annotation import _JSON_VALUES, _MISSING, _utf8
from test_metrics import SMALL_ALPHABET, loop_aggregate, loop_score


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
        assert pred.per_instance == ("K", "J")
        assert pred.extras == 0

    def test_trailing_hyphen_line(self):
        text = "Analysis follows.\n\nA-Lo-E-Q-P-S\n"
        pred = parse_model_output(text, 6)
        assert pred.per_instance == ("A", "Lo", "E", "Q", "P", "S")

    def test_free_prose(self):
        pred = parse_model_output("no recognizable structure at all", 3)
        assert pred.per_instance == (None, None, None)
        assert pred.extras == 0

    def test_surplus_counts_as_extras(self):
        pred = parse_model_output("(A) (K) (Q) (S)", 2)
        assert pred.per_instance == ("A", "K")
        assert pred.extras == 2

    def test_shortfall_padded_absent(self):
        pred = parse_model_output("(A)", 3)
        assert pred.per_instance == ("A", None, None)

    def test_empty_text(self):
        pred = parse_model_output("", 2)
        assert pred.per_instance == (None, None)

    # Only the tuple extract_symbols returned: cut or padded once, else as it is.
    @pytest.mark.parametrize("expected, per_instance, extras", [
        (4, ("Em", "Lo", None, None), 0),
        (1, ("Em",), 1),
        (2, ("Em", "Lo"), 0),
    ], ids=["shorter", "longer", "exact"])
    def test_tuple_reply(self, monkeypatch, expected, per_instance, extras):
        reply = ("Em", "Lo")
        monkeypatch.setattr(annotation, "extract_symbols", lambda text: reply)
        pred = parse_model_output("(Em)(Lo)", expected)
        assert type(pred.per_instance) is tuple
        assert pred.per_instance == per_instance
        assert pred.extras == extras
        assert (pred.per_instance is reply) == (expected == len(reply))


class TestMockRecognition:
    def test_echo_gold_scores_perfect(self, segments):
        cfg = BackendConfig(kind="mock")
        result = run_recognition(cfg, segments, rounds=3, preds_per_round=2)
        assert result.errors == []
        assert result.requests == 3 * 2 * len(segments)
        for split in (result.report.common, result.report.rare,
                      result.report.sum):
            for summary in split.values():
                assert summary.mean == 1.0 and summary.std == 0.0

    def test_deterministic_across_runs(self, segments):
        cfg = BackendConfig(kind="mock", max_parallel=4)
        a = run_recognition(cfg, segments, rounds=2, preds_per_round=3, seed=7)
        b = run_recognition(cfg, segments, rounds=2, preds_per_round=3, seed=7)
        assert a.report == b.report
        assert a.errors == b.errors

    def test_library_defaults_send_10_rounds_of_5(self, segments, monkeypatch):
        tags = []
        complete = harness.MockBackend.complete

        def recording(backend, payload):
            tags.append(payload["tag"])
            return complete(backend, payload)

        monkeypatch.setattr(harness.MockBackend, "complete", recording)
        result = run_recognition(BackendConfig(kind="mock"), segments)
        assert result.requests == len(tags) == 10 * 5 * len(segments)
        assert tags[-1] == f"recognition:seed=0:round=9:pred=4:seg={segments[-1].id}"

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match=exactly(
                "recognition over an empty corpus")):
            run_recognition(BackendConfig(kind="mock"), [], rounds=2,
                            preds_per_round=2)


class TestMockEchoTable:
    @staticmethod
    def _payload(user, tag):
        return build_payload(BackendConfig(kind="mock"), "system", user, tag)

    def test_each_segment_echoes_its_inline_text(self, segments):
        backend = harness.MockBackend(segments)
        for seg in segments:
            reply = backend.complete(self._payload(seg.clean_text, "recognition:x"))
            assert reply == emit_inline(seg)

    def test_continuation_tag_gets_canned_episode(self, segments):
        # The text alone decides: a text in the table gets its echo whatever
        # the tag, and any other text the tagged canned A-Q-S episode.
        backend = harness.MockBackend(segments)
        tag = "continuation:seed=0:episode=0"
        assert backend.complete(self._payload(segments[0].clean_text, tag)) == \
            emit_inline(segments[0])
        reply = backend.complete(self._payload("not in the table", tag))
        assert reply.startswith(f"[{tag}] ")
        assert extract_symbols(reply) == ("A", "Q", "S")

    def test_last_segment_with_a_shared_text_answers(self):
        first = AnnotatedSegment("a", "Fantasy", "same text", [Annotation(4, "K")])
        last = AnnotatedSegment("b", "Fantasy", "same text", [Annotation(9, "Lo")])
        backend = harness.MockBackend([first, last])
        assert backend.complete(self._payload("same text", "recognition:x")) == \
            "same text(Lo)"


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
        result = run_recognition(cfg, segments, rounds=10, preds_per_round=5,
                                 seed=0)
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
        accuracy = run_recognition(cfg, segments, rounds=2,
                                   preds_per_round=2).report.sum["accuracy"]
        assert accuracy.mean == pytest.approx(15 / 22)
        assert accuracy.std == pytest.approx(7 / 22)

    def test_replay_miss_lands_in_ledger(self, tmp_path, segments):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        cfg = BackendConfig(kind="replay", replay_path=str(path))
        result = run_recognition(cfg, segments, rounds=2, preds_per_round=2)
        assert len(result.errors) == result.requests
        assert all(e["error"] == "ReplayMiss" for e in result.errors)
        for summary in result.report.sum.values():
            assert summary.mean == 0.0

    def test_missing_fixture_file(self):
        # An input file that cannot be read, as an unreadable corpus is.
        with pytest.raises(FileNotFoundError):
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
        ('{"request_digest": "d1", ', "invalid JSON"),
        ('{"request_digest": "d1", "response_text": 5}', "response_text is int"),
        ('{"request_digest": 5, "response_text": "x"}', "request_digest is int"),
        ('[1]', "record is not an object"),
        ('"x"', "record is not an object"),
        ('# a comment', "invalid JSON"),
        pytest.param('{"request_digest": "d1", "response_text": %s}' % ("1" * 5000),
                     "invalid JSON: Exceeds the limit", id="5000-digit-response_text")])
    def test_malformed_fixture_line(self, tmp_path, line, mentioned):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"request_digest": "d0", "response_text": "A"}\n'
                        + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            ReplayBackend(str(path))
        assert exc.value.line_no == 2
        assert "Error(" not in exc.value.reason
        if mentioned:
            assert mentioned in exc.value.reason

    def test_stripped_lines_and_a_later_line_wins(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('\x0c{"request_digest": "d0", "response_text": "A"}\n\n'
                        '{"request_digest": "d1", "response_text": null}\u2028\n'
                        '{"request_digest": "d0", "response_text": "B"}\n',
                        encoding="utf-8")
        backend = ReplayBackend(str(path))
        assert backend._responses == {"d0": "B", "d1": None}

    @given(st.sampled_from(["request_digest", "response_text"]),
           _JSON_VALUES | st.just(_MISSING))
    @example("request_digest", _MISSING)
    @example("request_digest", "d0")
    @example("response_text", None)
    @example("response_text", ["A"])
    @example("response_text", {"A": 1})
    @example("request_digest", "\ud800")
    @example("response_text", "x(A)\udfff")
    def test_each_field_of_each_json_type(self, field, value):
        # A field set to a value of any JSON type, or deleted, loads in the
        # documented form (a UTF-8 string digest; a UTF-8 string or null text;
        # a later line wins) or gives an error that names the field.
        record = {"request_digest": "d1", "response_text": "A"}
        if value is _MISSING:
            del record[field]
        else:
            record[field] = value
        lines = ['{"request_digest": "d0", "response_text": "A"}', json.dumps(record)]
        if (field, value) == ("response_text", None) or (
                type(value) is str and _utf8(value)):
            assert annotation.load_replay(lines) == {
                "d0": "A", record["request_digest"]: record["response_text"]}
            return
        with pytest.raises(MalformedRecord) as exc_info:
            annotation.load_replay(lines)
        reason = exc_info.value.reason
        assert exc_info.value.line_no == 2
        assert re.search(rf"\b{field}\b", reason), reason
        assert "Error(" not in reason and "object is not" not in reason


class TestContinuation:
    def test_mock_is_deterministic(self, segments):
        cfg = BackendConfig(kind="mock")
        episodes_a, seqs_a, _ = run_continuation(cfg, segments[0], n_episodes=2)
        episodes_b, seqs_b, _ = run_continuation(cfg, segments[0], n_episodes=2)
        assert episodes_a == episodes_b
        assert len(episodes_a) == 2
        assert seqs_a == seqs_b
        assert all(s == ("A", "Q", "S") for s in seqs_a)

    def test_library_default_is_5_episodes(self, segments):
        episodes, seqs, errors = run_continuation(BackendConfig(kind="mock"),
                                                  segments[0])
        assert len(episodes) == len(seqs) == 5
        assert errors == []
        assert episodes[-1].startswith("[continuation:seed=0:episode=4]")

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
        episodes, seqs, errors = run_continuation(cfg, segments[0], n_episodes=5)
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
        _, seqs, errors = run_continuation(cfg, segments[0], n_episodes=1)
        assert errors == []
        assert seqs[0] == ("A", "Lo", "E", "Q", "P", "S")

    def test_failed_episode_recorded_not_raised(self, tmp_path, segments):
        cfg = self._replay_cfg(
            tmp_path, segments, ["One. (A)", None, "Three. (S)"])
        episodes, seqs, errors = run_continuation(cfg, segments[0], n_episodes=3)
        assert episodes == ["One. (A)", None, "Three. (S)"]
        assert seqs == [("A",), (), ("S",)]
        assert len(errors) == 1
        assert list(errors[0]) == ["episode", "error", "detail"]
        assert (errors[0]["episode"], errors[0]["error"]) == (1, "ReplayMiss")


class TestHttpConfig:
    def test_requires_endpoint_and_model(self):
        # A missing setting is a config error, not an unreachable backend.
        with pytest.raises(ValueError, match="endpoint and model_name"):
            make_backend(BackendConfig(kind="http"))

    def test_replay_requires_path(self):
        with pytest.raises(ValueError, match="replay_path"):
            make_backend(BackendConfig(kind="replay"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown backend kind 'grpc'$"):
            make_backend(BackendConfig(kind="grpc"))

    def test_explicit_endpoint(self):
        backend = make_backend(BackendConfig(
            kind="http", endpoint="http://flag.test/v1", model_name="m"))
        assert backend.endpoint == "http://flag.test/v1"

    @pytest.mark.parametrize("endpoint", [
        "notaurl", "ftp://flag.test/v1", "file:///v1", "http:", "http:///v1"])
    def test_endpoint_must_be_an_http_url(self, endpoint):
        # A config error before any request, not a run whose requests all fail.
        with pytest.raises(ValueError, match="^endpoint must be an http:// or https:// URL"):
            make_backend(BackendConfig(kind="http", endpoint=endpoint, model_name="m"))

    def test_https_and_any_case_scheme_accepted(self):
        for endpoint in ("https://flag.test/v1", "HTTP://flag.test/v1"):
            assert make_backend(BackendConfig(
                kind="http", endpoint=endpoint, model_name="m")).endpoint == endpoint

    @pytest.mark.parametrize("timeout", [-1.0, 0, 0.0, float("nan"),
                                         float("inf"), float("-inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            HttpBackend(BackendConfig(kind="http", endpoint="http://flag.test/v1",
                                      model_name="m", timeout=timeout))


# Reply bodies of the loopback server's malformed-reply paths.
_RAW_REPLIES = {
    "/malformed": b'{"choices": [{"message": ',
    "/nochoices": b'{"error": "x"}',
    "/content-int": b'{"choices": [{"message": {"content": 123}}]}',
    "/content-parts": b'{"choices": [{"message": {"content": ["(A)"]}}]}',
    "/content-null": b'{"choices": [{"message": {"content": null}}]}',
}


class _ChatServer(http.server.ThreadingHTTPServer):
    """Loopback chat endpoint.  ``/status500`` fails, ``/slow`` stalls for
    ``slow_s``, the paths of ``_RAW_REPLIES`` return their body; any other
    path answers from ``answers`` (user text -> (delay, reply)), echoing
    the user text by default."""

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
        if self.path in _RAW_REPLIES:
            reply = _RAW_REPLIES[self.path]
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
        return run_recognition(cfg, segments, rounds=1, preds_per_round=2)

    def test_success_and_wire_body(self, chat_server, monkeypatch):
        monkeypatch.setenv(harness.ENV_API_KEY, "sk-test")
        cfg = BackendConfig(kind="http", endpoint=chat_server.url + "/chat",
                            model_name="m")
        payload = build_payload(cfg, "system", "他逃了出去。", "tag-1")
        chat_server.answers["他逃了出去。"] = (0, "A-K-S")
        assert make_backend(cfg).complete(payload) == "A-K-S"
        headers, raw = chat_server.seen[0]
        assert raw == json.dumps({
            "model": "m", "messages": payload["messages"]}).encode("utf-8")
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer sk-test"

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
        assert all(e["error"] == "MalformedReply" for e in result.errors)

    def test_reply_without_choices_lands_in_ledger(self, chat_server, segments):
        result = self._recognize(chat_server, "/nochoices", segments)
        assert result.requests == 1 * 2 * len(segments)
        assert len(result.errors) == result.requests
        assert all(e["error"] == "MalformedReply" for e in result.errors)

    @pytest.mark.parametrize("path", ["/content-int", "/content-parts",
                                      "/content-null"])
    def test_non_string_content_lands_in_ledger(self, chat_server, segments,
                                                path):
        # Only a string reaches symbol extraction; 123, a content-parts list
        # and null each fail their request instead of the run.
        result = self._recognize(chat_server, path, segments)
        assert len(result.errors) == result.requests == 4
        assert all(e["error"] == "MalformedReply" for e in result.errors)
        assert all(e["detail"].startswith("content is ") for e in result.errors)
        for summary in result.report.sum.values():
            assert summary.mean == 0.0

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


# Differential test of recognition scoring: each reply tallied against its
# own segment's gold, against the concatenated per-instance loop.

_marker = st.builds("{}{}{}".format, st.sampled_from("(（"),
                    st.sampled_from(SMALL_ALPHABET), st.sampled_from(")）"))
_inline_reply = st.lists(
    st.one_of(_marker, st.sampled_from(("(ok)", "（xq）", "文本。"))),
    max_size=12).map("".join)
_hyphen_reply = st.lists(st.sampled_from(SMALL_ALPHABET), min_size=1,
                         max_size=10).map(lambda s: "(ok)（xq）\n" + "-".join(s))
# None fails the request; "" and prose score all absent; inline replies
# come short, exact or with extras.
_reply = st.one_of(st.none(), st.sampled_from(("", "no idea")),
                   _inline_reply, _hyphen_reply)


@st.composite
def recognition_runs(draw):
    golds = draw(st.lists(st.lists(st.sampled_from(SMALL_ALPHABET), max_size=8),
                          min_size=1, max_size=4))
    segs = [AnnotatedSegment(f"s{i}", "Fantasy", f"text {i}",
                             [Annotation(k, sym) for k, sym in enumerate(gold)])
            for i, gold in enumerate(golds)]
    rounds, preds = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    replies = draw(st.lists(_reply, min_size=rounds * preds * len(segs),
                            max_size=rounds * preds * len(segs)))
    return segs, rounds, preds, replies


class _Scripted:
    """Answers requests in order from a list; a ``None`` reply fails."""

    def __init__(self, replies):
        self._replies = iter(replies)

    def complete(self, payload):
        reply = next(self._replies)
        if reply is None:
            raise ReplayMiss(payload["tag"])
        return reply


def oracle_report(segs, rounds, preds, replies):
    """Each (round, prediction) scored as one concatenation of its replies'
    aligned predictions against the concatenated gold, by the loops."""
    gold = metrics.gold_instances([s for seg in segs for s in sequence_of(seg)])
    parts = iter(parse_model_output(text, len(seg.annotations))
                 for text, seg in zip(replies, segs * (rounds * preds)))
    scores = []
    for _ in range(rounds):
        scores.append([])
        for _ in range(preds):
            block = [next(parts) for _ in segs]
            scores[-1].append(loop_score(gold, metrics.Prediction(
                [sym for part in block for sym in part.per_instance],
                sum(part.extras for part in block))))
    return loop_aggregate(scores)


@given(recognition_runs())
def test_recognition_report_equals_concatenated_loop_oracle(run):
    segs, rounds, preds, replies = run
    with mock.patch.object(harness, "make_backend",
                           lambda cfg, segments: _Scripted(replies)):
        result = run_recognition(BackendConfig(kind="mock"), segs,
                                 rounds=rounds, preds_per_round=preds)
    assert result.report == oracle_report(segs, rounds, preds, replies)
    assert len(result.errors) == replies.count(None)
