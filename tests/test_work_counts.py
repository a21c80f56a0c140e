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

from narrfunc import annotation, cli, harness, homogenization, metrics, paradigm

from test_golden import bench_inputs  # noqa: F401 (a fixture)

# recognition-dense: 20 segments, each asked 10 rounds x 5 predictions.
SEGMENTS = 20
BLOCKS = 10 * 5
REPLIES = BLOCKS * SEGMENTS
# homog-episodes: 40 episodes; each but the longest is scanned once.
EPISODES = 40


def _counter(mp, module, name):
    """A list that grows by one per call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    mp.setattr(module, name, counted)
    return calls


def _run(directory, argv):
    """``cli.main(argv)`` in *directory*: its stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(directory)
            assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def eval_counts(bench_inputs):  # noqa: F811
    """Calls per counted name in one JSON ``eval`` of the seed-0 dense corpus."""
    with pytest.MonkeyPatch.context() as mp:
        counts = {
            "parse_inline": _counter(mp, annotation, "parse_inline"),
            "emit_inline": _counter(mp, harness, "emit_inline"),
            "reply_codes": _counter(mp, annotation, "reply_codes"),
            "tally": _counter(mp, metrics, "tally"),
            "gold_instances": _counter(mp, metrics, "gold_instances"),
            "gold_splits": _counter(mp, metrics, "gold_splits"),
            "parse_model_output": _counter(mp, harness, "parse_model_output"),
        }
        out = _run(bench_inputs[0], ["eval", "--corpus", "dense.jsonl",
                                     "--output-format", "json"])
    assert f'"requests": {REPLIES}\n' in out
    return {name: len(calls) for name, calls in counts.items()}


def test_eval_parses_each_segment_once(eval_counts):
    assert eval_counts["parse_inline"] == SEGMENTS


def test_eval_mock_renders_each_echo_once(eval_counts):
    assert eval_counts["emit_inline"] == SEGMENTS


def test_eval_reads_each_reply_once(eval_counts):
    assert eval_counts["reply_codes"] == REPLIES


def test_eval_tallies_each_block_once(eval_counts):
    # One tally per (round, prediction): its replies as one bytes object.
    assert eval_counts["tally"] == BLOCKS


def test_eval_prepares_the_gold_once(eval_counts):
    assert eval_counts["gold_instances"] == eval_counts["gold_splits"] == 1


def test_eval_scores_replies_as_codes(eval_counts):
    assert eval_counts["parse_model_output"] == 0


@pytest.fixture(scope="module", params=["json", "text"])
def match_counts(request, bench_inputs):  # noqa: F811
    """Calls in one ``match`` with the built-ins over the seed-0 ``plots.seq``,
    in each report format; ``around`` lists the label list of each call."""
    arounds = []
    row_texts = cli._row_texts

    def counted_row_texts(rows, around, escape):
        def counted_around(item):
            arounds.append(tuple(item))
            return around(item)
        return row_texts(rows, counted_around, escape)

    with pytest.MonkeyPatch.context() as mp:
        binds = _counter(mp, paradigm, "_bind")
        each_line = _counter(mp, annotation, "_each_line")
        mp.setattr(cli, "_row_texts", counted_row_texts)
        _run(bench_inputs[0], ["match", "plots.seq", "--output-format", request.param])
    return {"_bind": len(binds), "_each_line": len(each_line), "around": arounds}


def test_match_binds_no_sequence(match_counts):
    # The shape rule decides every built-in, none with two interior elements.
    assert match_counts["_bind"] == 0


def test_match_reads_the_seq_file_in_one_pass(match_counts):
    assert match_counts["_each_line"] == 0


def test_match_renders_each_label_list_once(match_counts):
    # The 100k rows share at most 2^6 label lists (six built-ins).
    arounds = match_counts["around"]
    assert 1 < len(arounds) == len(set(arounds)) <= 2 ** 6


def test_mine_binds_no_sequence(bench_inputs):  # noqa: F811
    # The seed-0 candidate has one interior symbol: its support comes from
    # the presence count.
    with pytest.MonkeyPatch.context() as mp:
        binds = _counter(mp, paradigm, "_bind")
        _run(bench_inputs[0], ["mine", "plots.seq", "--output-format", "json"])
    assert len(binds) == 0


@pytest.mark.parametrize("method, kernel", [("edit", "_edit_kernel"),
                                            ("lcs", "_lcs_kernel")])
def test_homog_scans_each_episode_but_the_longest_once(bench_inputs,  # noqa: F811
                                                       method, kernel):
    with pytest.MonkeyPatch.context() as mp:
        scans = _counter(mp, homogenization, kernel)
        _run(bench_inputs[0], ["homog", "episodes.seq", "--method", method,
                               "--output-format", "json"])
    assert len(scans) == EPISODES - 1
