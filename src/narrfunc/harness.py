"""Experiment orchestration against pluggable model backends.

Three backend kinds share one request shape (a chat-style JSON payload):

* ``mock`` answers deterministically from local data, for tests and dry
  runs;
* ``replay`` answers from recorded fixtures keyed by a digest of the
  canonicalized request body, for reproducible runs without network;
* ``http`` POSTs the payload to a real endpoint.

A run is one call: ``run_recognition(cfg, segments, rounds=10,
preds_per_round=5, seed=0)`` or ``run_continuation(cfg, preface,
n_episodes=5, seed=0)``, with ``cfg`` a :class:`BackendConfig`.

Per-request faults never abort a run: each failed call lands in the
error ledger.  In recognition it scores as an all-absent prediction; in
continuation the episode is ``None`` and its sequence is empty.
"""

import hashlib
import json
import math
import os
from collections import namedtuple

from . import annotation, metrics, taxonomy
from .annotation import emit_inline, sequence_of
from .errors import BackendUnreachable, MalformedReply, ReplayMiss

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


# kind: mock | replay | http
BackendConfig = namedtuple(
    "BackendConfig", "kind endpoint model_name timeout max_parallel replay_path",
    defaults=(None, None, 30.0, 1, None))
# report: a metrics.EvaluationReport; errors: one dict per failed request;
# inputs: {path: digest} of the files the backend read (a replay fixture)
RecognitionResult = namedtuple("RecognitionResult", "report errors requests inputs")


def functions_block():
    return "\n".join(
        f"{d.symbol}: {d.name} - {d.description}"
        for d in taxonomy.all_functions()
    )


def build_payload(cfg, system, user, tag):
    """Canonical request body; ``tag`` distinguishes repeated draws so
    replay fixtures can vary per round/sample."""
    return {
        "model": cfg.model_name or "default",
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
        "tag": tag,
    }


def request_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class MockBackend:
    """Answers by the request text alone: a segment's clean text gets the
    segment's inline-annotated echo, and any other text a canned episode
    that opens with the request's tag and reads ``A-Q-S``."""

    def __init__(self, segments=None):
        # One echo per clean text, rendered once; a later segment wins.
        self._echo = {seg.clean_text: emit_inline(seg) for seg in segments or []}

    def complete(self, payload):
        echo = self._echo.get(payload["messages"][1]["content"])
        if echo is not None:
            return echo
        # Any other text: a synthetic episode of the stock battle shape,
        # varied by tag for distinct digests.
        return (
            f"[{payload.get('tag', '')}] The scene opens on the aftermath. (A) "
            "The rivals clash once more. (Q) "
            "One of them finally prevails. (S)"
        )


class ReplayBackend:
    """Serves a JSONL fixture read by :func:`annotation.load_replay`: a string
    ``request_digest`` and a string or null ``response_text``; a later line wins.
    A fixture that cannot be read or parsed raises here, as any input file does."""

    def __init__(self, path):
        lines, self.inputs = annotation.read_lines(path)
        self._responses = annotation.load_replay(lines)

    def complete(self, payload):
        digest = request_digest(payload)
        try:
            return self._responses[digest]
        except KeyError:
            raise ReplayMiss(digest) from None


class HttpBackend:
    """Single-POST OpenAI-style chat backend: the reply text is
    ``choices[0].message.content``, and a reply without a string there
    fails the request with :class:`MalformedReply`."""

    def __init__(self, cfg):
        from urllib.parse import urlsplit
        if not cfg.endpoint or not cfg.model_name:
            raise ValueError("http backend needs endpoint and model_name")
        url = urlsplit(cfg.endpoint)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(f"endpoint must be an http:// or https:// URL, "
                             f"not {cfg.endpoint!r}")
        if not 0 < cfg.timeout < math.inf:  # also rejects nan
            raise ValueError(f"timeout must be a positive finite number of "
                             f"seconds, not {cfg.timeout!r}")
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
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (LookupError, TypeError, ValueError) as exc:
            raise MalformedReply(f"no choices[0].message.content: {exc!r}") from exc
        if not isinstance(content, str):
            raise MalformedReply(f"content is {type(content).__name__}, not a string")
        return content


def make_backend(cfg, segments=None):
    if cfg.kind == "mock":
        return MockBackend(segments)
    if cfg.kind == "replay":
        if not cfg.replay_path:
            raise ValueError("replay backend needs replay_path")
        return ReplayBackend(cfg.replay_path)
    if cfg.kind == "http":
        return HttpBackend(cfg)
    raise ValueError(f"unknown backend kind {cfg.kind!r}")


def parse_model_output(text, expected_instances):
    """Turn raw model text into an aligned :class:`metrics.Prediction`.

    Symbols from :func:`annotation.extract_symbols` align to gold
    instances by order; missing positions become absent, surplus ones
    count as extras.  A failed request's ``None`` scores all absent.
    """
    symbols = annotation.extract_symbols(text)
    # One tuple at most: a slice or pad that changes nothing returns symbols.
    per_instance = (symbols[:expected_instances]
                    + (metrics.ABSENT,) * (expected_instances - len(symbols)))
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
        from concurrent.futures import ThreadPoolExecutor  # only when used
        with ThreadPoolExecutor(max_workers=max_parallel) as pool:
            return list(pool.map(call, payloads))
    return [call(p) for p in payloads]


def run_recognition(cfg, segments, rounds=10, preds_per_round=5, seed=0):
    """Score ``rounds x preds_per_round`` predictions over the gold-annotated
    segments and aggregate them per round."""
    if not segments:
        raise ValueError("recognition over an empty corpus")
    backend = make_backend(cfg, segments)
    system = DEFAULT_RECOGNITION_TEMPLATE.format(functions=functions_block())
    golds = [metrics.gold_splits(metrics.gold_instances(sequence_of(seg)))
             for seg in segments]  # prepared once per run
    tasks = []  # (round, pred, segment, its gold, payload)
    for r in range(rounds):
        for p in range(preds_per_round):
            for seg, gold in zip(segments, golds):
                tag = f"recognition:seed={seed}:round={r}:pred={p}:seg={seg.id}"
                tasks.append((r, p, seg, gold, build_payload(
                    cfg, system, seg.clean_text, tag)))

    results = _collect(backend, [t[4] for t in tasks], cfg.max_parallel)

    errors = []
    tallies = []  # one per reply, against its own segment's gold
    for (r, p, seg, gold, _), (text, exc) in zip(tasks, results):
        if exc is not None:
            errors.append(_error_entry(exc, round=r, prediction=p,
                                       segment=seg.id))
        tallies.append(metrics.tally(
            gold, parse_model_output(text, len(seg.annotations))))

    def scored(k):
        """Score the k-th (round, prediction): tasks run in that order, so
        its replies are one consecutive block, and their summed tallies
        are those of the concatenated segments."""
        block = tallies[k * len(segments):(k + 1) * len(segments)]
        return metrics.split_scores([sum(column) for column in zip(*block)])

    report = metrics.aggregate(
        [[scored(r * preds_per_round + p) for p in range(preds_per_round)]
         for r in range(rounds)])
    return RecognitionResult(report=report, errors=errors, requests=len(tasks),
                             inputs=getattr(backend, "inputs", {}))


def run_continuation(cfg, preface, n_episodes=5, seed=0):
    """Generate ``n_episodes`` continuations of the preface and recover a
    function sequence (a symbol tuple) from each episode's text with
    :func:`annotation.extract_symbols`.

    Returns ``(episodes, sequences, errors)``; a failed request leaves its
    episode ``None`` and adds one ledger entry instead of raising."""
    backend = make_backend(cfg)
    payloads = [
        build_payload(cfg, DEFAULT_CONTINUATION_TEMPLATE, preface.clean_text,
                      f"continuation:seed={seed}:episode={i}")
        for i in range(n_episodes)
    ]
    results = _collect(backend, payloads, cfg.max_parallel)
    episodes = [text for text, _ in results]
    errors = [_error_entry(exc, episode=i)
              for i, (_, exc) in enumerate(results) if exc is not None]
    sequences = [annotation.extract_symbols(e) for e in episodes]
    return episodes, sequences, errors
