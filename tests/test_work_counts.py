"""The work each fast path saves, pinned as call counts on the bench inputs.

Times are noisy; the number of calls a fast path makes is not.  Each test
runs one command in process on the seed-0 benchmark inputs that
``tests/test_golden.py``'s ``bench_inputs`` fixture writes, with counting
wrappers installed by ``monkeypatch`` at the bindings the program calls
through, and asserts each count.
"""

import contextlib
import io

import pytest

from narrfunc import annotation, cli, harness, metrics

from test_golden import bench_inputs  # noqa: F401 (a fixture)

# recognition-dense: 20 segments, each asked 10 rounds x 5 predictions.
SEGMENTS = 20
REPLIES = 10 * 5 * SEGMENTS


def _counter(mp, module, name):
    """A list that grows by one per call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    mp.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def eval_counts(bench_inputs):  # noqa: F811
    """Calls per counted name in one JSON ``eval`` of the seed-0 dense corpus."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        counts = {
            "parse_inline": _counter(mp, annotation, "parse_inline"),
            "emit_inline": _counter(mp, harness, "emit_inline"),
            "reply_codes": _counter(mp, annotation, "reply_codes"),
            "tally": _counter(mp, metrics, "tally"),
            "parse_model_output": _counter(mp, harness, "parse_model_output"),
        }
        mp.chdir(bench_inputs[0])
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--corpus", "dense.jsonl",
                             "--output-format", "json"])
    assert code == 0
    assert f'"requests": {REPLIES}\n' in out.getvalue()
    return {name: len(calls) for name, calls in counts.items()}


def test_eval_parses_each_segment_once(eval_counts):
    assert eval_counts["parse_inline"] == SEGMENTS


def test_eval_mock_renders_each_echo_once(eval_counts):
    assert eval_counts["emit_inline"] == SEGMENTS


def test_eval_reads_each_reply_once(eval_counts):
    assert eval_counts["reply_codes"] == REPLIES


def test_eval_tallies_each_reply_once(eval_counts):
    assert eval_counts["tally"] == REPLIES


def test_eval_scores_replies_as_codes(eval_counts):
    assert eval_counts["parse_model_output"] == 0
