"""Experiment orchestration against pluggable model backends.

Three backend kinds share one request shape (a chat-style JSON payload):

* ``mock`` answers deterministically from local data, for tests and dry
  runs;
* ``replay`` answers from recorded fixtures keyed by a digest of the
  canonicalized request body, for reproducible runs without network;
* ``http`` POSTs the payload to a real endpoint.

Per-request faults never abort a run: each failed call lands in the
error ledger.  In recognition it scores as an all-absent prediction; in
continuation the episode is ``None`` and its sequence is empty.
"""

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import annotation, metrics, taxonomy
from .annotation import emit_inline, sequence_of
from .errors import BackendUnreachable, EmptyCorpus, MalformedRecord, ReplayMiss

ENV_API_KEY = "NARR_API_KEY"

DEFAULT_RECOGNITION_TEMPLATE = (
    "You are given a registry of 34 narrative functions:\n"
    "{functions}\n\n"
    "Identify the narrative functions present in the text below. Mark each "
    "one by appending its symbol in parentheses after the sentence that "
    "realizes it, or answer with a single hyphen-joined sequence such as "
    "A-K-Q-S.\n"
)

DEFAULT_CONTINUATION_TEMPLATE = (
    "Continue the following story with one further episode, keeping the "
    "established characters and setting.\n"
)


@dataclass
class BackendConfig:
    kind: str  # mock | replay | http
    endpoint: str = None
    model_name: str = None
    timeout: float = 30.0
    max_parallel: int = 1
    replay_path: str = None
    response_path: str = "choices.0.message.content"
    decoding: dict = field(default_factory=dict)  # passed through opaquely


@dataclass
class RecognitionRun:
    segments: list  # AnnotatedSegment, gold annotations included
    rounds: int = 10
    preds_per_round: int = 5
    seed: int = 0


@dataclass
class ContinuationRun:
    preface: object  # AnnotatedSegment
    n_episodes: int = 5
    seed: int = 0


@dataclass
class RecognitionResult:
    report: object  # metrics.EvaluationReport
    errors: list  # one dict per failed request
    requests: int


def functions_block():
    return "\n".join(
        f"{d.symbol}: {d.name} - {d.description}"
        for d in taxonomy.all_functions()
    )


def build_payload(cfg, system, user, tag):
    """Canonical request body; ``tag`` distinguishes repeated draws so
    replay fixtures can vary per round/sample."""
    payload = {
        "model": cfg.model_name or "default",
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
        "tag": tag,
    }
    if cfg.decoding:
        payload["decoding"] = dict(sorted(cfg.decoding.items()))
    return payload


def request_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class MockBackend:
    """Answers from local gold data: recognition requests echo the
    inline-annotated segment, continuation requests produce a canned
    annotated episode."""

    def __init__(self, segments=None):
        self._by_text = {}
        for seg in segments or []:
            self._by_text[seg.clean_text] = seg

    def complete(self, payload):
        user = payload["messages"][1]["content"]
        tag = payload.get("tag", "")
        segment = self._by_text.get(user)
        if segment is not None and not tag.startswith("continuation:"):
            return emit_inline(segment)
        # Continuation request: deterministic synthetic episode following
        # the stock battle shape, varied by tag for distinct digests.
        return (
            f"[{tag}] The scene opens on the aftermath. (A) "
            "The rivals clash once more. (Q) "
            "One of them finally prevails. (S)"
        )


class ReplayBackend:
    """Serves responses recorded as {request_digest, response_text} JSONL."""

    def __init__(self, path):
        self._responses = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                        self._responses[record["request_digest"]] = \
                            record["response_text"]
                    except (KeyError, TypeError, ValueError) as exc:
                        raise MalformedRecord(
                            line_no, "not a JSON object with request_digest and "
                            f"response_text: {exc!r}") from exc
        except OSError as exc:
            raise BackendUnreachable(f"cannot read replay fixtures: {exc}") from exc

    def complete(self, payload):
        digest = request_digest(payload)
        try:
            return self._responses[digest]
        except KeyError:
            raise ReplayMiss(digest) from None


class HttpBackend:
    """Single-POST chat backend; the response text is pulled out with a
    dotted path expression (keys and list indices)."""

    def __init__(self, cfg):
        if not cfg.endpoint or not cfg.model_name:
            raise BackendUnreachable("http backend needs endpoint and model_name")
        self.endpoint = cfg.endpoint
        self.cfg = cfg

    def complete(self, payload):
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {k: v for k, v in payload.items() if k != "tag"}
        body.update(body.pop("decoding", {}))
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"),
            headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=self.cfg.timeout) as resp:
                raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an error status still holds its response open
            raise BackendUnreachable(str(exc)) from exc
        return extract_path(json.loads(raw), self.cfg.response_path)


def extract_path(obj, path):
    for part in path.split("."):
        if isinstance(obj, list):
            obj = obj[int(part)]
        else:
            obj = obj[part]
    return obj


def make_backend(cfg, segments=None):
    if cfg.kind == "mock":
        return MockBackend(segments)
    if cfg.kind == "replay":
        if not cfg.replay_path:
            raise BackendUnreachable("replay backend needs replay_path")
        return ReplayBackend(cfg.replay_path)
    if cfg.kind == "http":
        return HttpBackend(cfg)
    raise ValueError(f"unknown backend kind {cfg.kind!r}")


def parse_model_output(text, expected_instances):
    """Turn raw model text into an aligned :class:`metrics.Prediction`.

    Symbols from :func:`annotation.extract_symbols` align to gold
    instances by order; missing positions become absent, surplus ones
    count as extras.
    """
    symbols = annotation.extract_symbols(text)
    per_instance = symbols[:expected_instances]
    per_instance += [metrics.ABSENT] * (expected_instances - len(per_instance))
    extras = max(0, len(symbols) - expected_instances)
    return metrics.Prediction(per_instance, extras)


def _error_entry(exc, **where):
    """One error-ledger record: where the request failed, then why."""
    return {**where, "error": type(exc).__name__, "detail": str(exc)}


def _collect(backend, payloads, max_parallel):
    """Run all requests, preserving task order in the results."""
    def call(payload):
        try:
            return backend.complete(payload), None
        except Exception as exc:  # captured, never dropped silently
            return None, exc

    if max_parallel < 1:
        raise ValueError("max_parallel must be >= 1")
    if max_parallel > 1:
        with ThreadPoolExecutor(max_workers=max_parallel) as pool:
            return list(pool.map(call, payloads))
    return [call(p) for p in payloads]


def run_recognition(cfg, run):
    """Score ``rounds x preds_per_round`` predictions over the run's
    segments and aggregate them per round."""
    if not run.segments:
        raise EmptyCorpus("recognition over an empty corpus")
    backend = make_backend(cfg, run.segments)
    system = DEFAULT_RECOGNITION_TEMPLATE.format(functions=functions_block())
    gold = metrics.gold_instances(
        [s for seg in run.segments for s in sequence_of(seg)])
    tasks = []  # (round, pred, segment, payload)
    for r in range(run.rounds):
        for p in range(run.preds_per_round):
            for seg in run.segments:
                tag = f"recognition:seed={run.seed}:round={r}:pred={p}:seg={seg.id}"
                tasks.append((r, p, seg, build_payload(
                    cfg, system, seg.clean_text, tag)))

    results = _collect(backend, [t[3] for t in tasks], cfg.max_parallel)

    errors = []
    parts = []
    for (r, p, seg, payload), (text, exc) in zip(tasks, results):
        n = len(seg.annotations)
        if exc is not None:
            errors.append(_error_entry(exc, round=r, prediction=p,
                                       segment=seg.id))
            parts.append(metrics.Prediction([metrics.ABSENT] * n, 0))
        else:
            parts.append(parse_model_output(text, n))

    def scored(k):
        """Score the k-th (round, prediction): tasks run in that order, so
        its segment results are one consecutive block, merged in segment
        order to mirror the concatenated gold instance list."""
        block = parts[k * len(run.segments):(k + 1) * len(run.segments)]
        return metrics.score_instances(gold, metrics.Prediction(
            [sym for part in block for sym in part.per_instance],
            sum(part.extras for part in block)))

    rounds = [[scored(r * run.preds_per_round + p) for p in range(run.preds_per_round)]
              for r in range(run.rounds)]
    report = metrics.aggregate(rounds)
    return RecognitionResult(report=report, errors=errors, requests=len(tasks))


def run_continuation(cfg, run):
    """Generate ``n_episodes`` continuations of the preface and recover a
    function sequence (a symbol list) from each episode's text with
    :func:`annotation.extract_symbols`.

    Returns ``(episodes, sequences, errors)``; a failed request leaves its
    episode ``None`` and adds one ledger entry instead of raising."""
    backend = make_backend(cfg, [run.preface])
    payloads = [
        build_payload(
            cfg, DEFAULT_CONTINUATION_TEMPLATE, run.preface.clean_text,
            f"continuation:seed={run.seed}:episode={i}")
        for i in range(run.n_episodes)
    ]
    results = _collect(backend, payloads, cfg.max_parallel)
    episodes = [text for text, _ in results]
    errors = [_error_entry(exc, episode=i)
              for i, (_, exc) in enumerate(results) if exc is not None]
    sequences = [annotation.extract_symbols(e) for e in episodes]
    return episodes, sequences, errors
