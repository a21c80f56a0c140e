"""Golden CLI reports: byte identity of every command as a standing test.

Each case runs ``cli.main`` in process with the working directory in
``tests/data`` and relative paths, because report headers key input
digests by the path as given.  Files a case needs beyond ``tests/data``
(a replay fixture, config files, broken inputs) are written to a
temporary directory and named by absolute path, which reports and
messages spell ``{tmp}``.

``tests/golden/<case>.out`` holds the expected stdout and
``tests/golden/<case>.err`` the exit code (first line, ``exit: N``)
followed by the expected stderr.

``tests/golden/bench_digests.json`` holds, per benchmark seed and
command, the exit code and the SHA-256 of stdout and of stderr of runs
over the benchmark's own inputs (a 100k-sequence ``.seq`` file, a dense
recognition corpus, 40 episodes), built by ``perfbench/inputs.py``: the
reports there are megabytes, so only their digests are kept.

Regenerate all of them with::

    PYTHONPATH=src python tests/test_golden.py

which prints each file it changed, added or removed, and each changed
digest.  With ``--check`` it writes nothing: it prints each file and
digest that differs and exits 1 if any does.  The script needs the
standard library alone, so it runs under interpreters without pytest.

A change that alters a golden byte names each changed file and the
reason in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import random
import sys
import tempfile

from narrfunc import annotation, cli, harness

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
BENCH_DIGESTS = GOLDEN / "bench_digests.json"
BENCH_INPUTS_PY = DATA.parents[1] / "perfbench" / "inputs.py"

PLOTS = ("adventure", "battle", "daily_life", "difficult_task",
         "emotional", "pretending")
EPISODES = ("deepseek", "doubao", "qwen")
CORPUS = "recognition_corpus.jsonl"
REPLAY_ROUNDS, REPLAY_PREDS = 2, 2

def _matrix():
    """Case name -> argv; "{tmp}" names the directory of written files."""
    cases = {
        "registry": ["registry"],
        "registry_legacy": ["registry", "--legacy"],
        "stats_csv": ["stats", CORPUS, "--output-format", "csv"],
        "eval_replay_fail_on_error": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/replay.jsonl", "--rounds", str(REPLAY_ROUNDS),
            "--preds", str(REPLAY_PREDS), "--fail-on-error"],
        # Input errors: exit 2 with one message and no report.
        "error_empty_file": ["match", "{tmp}/empty.seq"],
        "error_unknown_last_symbol": ["match", "{tmp}/unknown_last.seq"],
        "error_seq_not_utf8": ["match", "{tmp}/not_utf8.seq"],
        "error_replay_not_utf8": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/not_utf8_replay.jsonl"],
        "error_corpus_strict_token": [
            "parse", "{tmp}/strict_token.jsonl", "--format", "jsonl", "--strict"],
        "error_corpus_unknown_symbol": ["stats", "{tmp}/unknown_symbol.jsonl"],
        "error_corpus_genre_list": ["stats", "{tmp}/genre_list.jsonl"],
        "error_bad_pattern": ["match", "plots_battle.seq", "--pattern", "(A)->"],
        "error_pattern_one_element": ["match", "plots_battle.seq", "--pattern", "(A)"],
        "error_bad_timeout": [
            "eval", "--corpus", CORPUS, "--backend", "http",
            "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--timeout=0"],
        "error_config_without_equals": [
            "eval", "--corpus", CORPUS, "--backend", "http",
            "--config", "{tmp}/no_equals.cfg"],
        "error_config_unknown_key": [
            "eval", "--corpus", CORPUS, "--rounds", "1", "--preds", "1",
            "--config", "{tmp}/unknown_key.cfg"],
        "error_config_duplicate_key": [
            "eval", "--corpus", CORPUS, "--rounds", "1", "--preds", "1",
            "--config", "{tmp}/duplicate_key.cfg"],
        "error_corpus_deep_nesting": ["parse", "{tmp}/deep.jsonl", "--format", "jsonl"],
        "error_replay_deep_nesting": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/deep_replay.jsonl"],
        "error_endpoint_not_http": [
            "eval", "--corpus", CORPUS, "--backend", "http",
            "--endpoint", "notaurl", "--model", "m"],
        "error_corpus_lone_surrogate": [
            "parse", "{tmp}/surrogate.jsonl", "--format", "jsonl"],
        "error_replay_unreadable": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/missing.jsonl"],
        "error_homog_one_episode": ["homog", "{tmp}/one_episode.seq"],
        "error_mine_empty": ["mine", "{tmp}/empty.seq"],
        "error_eval_empty_corpus": ["eval", "--corpus", "{tmp}/empty.jsonl"],
        "error_stats_windows_few_novels": ["stats", CORPUS, "--windows"],
        # Analytic failure: exit 3.
        "error_mine_support": ["mine", "plots_battle.seq", "--support", "1.0"],
    }
    runs = {
        "parse_inline": ["parse", "passage1.txt"],
        "parse_inline_strict": ["parse", "passage1.txt", "--strict"],
        "parse_seq": ["parse", "plots_battle.seq", "--format", "seq"],
        "parse_jsonl": ["parse", CORPUS, "--format", "jsonl"],
        "stats": ["stats", CORPUS],
        "stats_windows": ["stats", "annotator_a.jsonl", "--windows"],
        "match_pattern": ["match", "plots_battle.seq", "--pattern", "(A)~>{S/O}"],
        "match_pattern_two_interior": [
            "match", "plots_battle.seq", "--pattern", "(A)->(K)->(Q)->{O/S}"],
        "eval_mock": ["eval", "--corpus", CORPUS],
        "eval_replay": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/replay.jsonl", "--rounds",
            str(REPLAY_ROUNDS), "--preds", str(REPLAY_PREDS)],
        "eval_replay_mixed": [
            "eval", "--corpus", CORPUS, "--backend", "replay",
            "--replay-path", "{tmp}/replay_mixed.jsonl", "--rounds",
            str(REPLAY_ROUNDS), "--preds", str(REPLAY_PREDS)],
    }
    for plot in PLOTS:
        runs[f"match_{plot}"] = ["match", f"plots_{plot}.seq"]
        runs[f"mine_{plot}"] = ["mine", f"plots_{plot}.seq"]
    for model in EPISODES:
        for method in ("edit", "lcs"):
            runs[f"homog_{method}_{model}"] = [
                "homog", f"episodes_{model}.seq", "--method", method]
    for name, argv in runs.items():
        for fmt in ("json", "text"):
            cases[f"{name}_{fmt}"] = [*argv, "--output-format", fmt]
    return cases


CASES = _matrix()

BENCH_CASES = {
    **{name: [*argv, "--output-format", "json"] for name, argv in {
        "parse_seq": ["parse", "plots.seq", "--format", "seq"],
        "match": ["match", "plots.seq"],
        "mine": ["mine", "plots.seq"],
        "homog_edit": ["homog", "episodes.seq", "--method", "edit"],
        "homog_lcs": ["homog", "episodes.seq", "--method", "lcs"],
        "eval": ["eval", "--corpus", "dense.jsonl"],
        "stats": ["stats", "dense.jsonl"],
    }.items()},
    # match's default format: its 100k rows through the text renderer.
    "match_text": ["match", "plots.seq", "--output-format", "text"],
}
# Seed -> the bench cases run at it: all of them at the benchmark's default
# seed, and homog at a second one, which shuffles the same 40 episode
# lengths into another order (all cases there would double the test's 3 s).
BENCH_SEEDS = {0: sorted(BENCH_CASES), 11: ["homog_edit", "homog_lcs"]}

def _replay_fixture():
    """Replies for the replay cases, in one of three shapes by request
    index: the gold sequence rotated, the gold markers plus one extra, or
    prose with no symbols.  The last request has no reply (one miss)."""
    with open(DATA / CORPUS, encoding="utf-8") as fh:
        segments = annotation.load_corpus(fh)
    cfg = harness.BackendConfig(kind="replay")
    system = harness.DEFAULT_RECOGNITION_TEMPLATE.format(
        functions=harness.functions_block())
    lines = []
    for r in range(REPLAY_ROUNDS):
        for p in range(REPLAY_PREDS):
            for seg in segments:
                gold = annotation.sequence_of(seg)
                k = len(lines)
                reply = ("-".join(gold[k:] + gold[:k]),
                         "".join(f"({s})" for s in (*gold, "Q")),
                         "I cannot tell.")[k % 3]
                tag = f"recognition:seed=0:round={r}:pred={p}:seg={seg.id}"
                payload = harness.build_payload(cfg, system, seg.clean_text, tag)
                lines.append(json.dumps({
                    "request_digest": harness.request_digest(payload),
                    "response_text": reply}, ensure_ascii=False))
    return "\n".join(lines[:-1]) + "\n"


# Bracket spellings for the mixed-bracket replies: both kinds, and both
# kinds within one marker.
_MIXED = (("（", "）"), ("(", "）"), ("（", ")"), ("(", ")"))


def _mixed_fixture():
    """Replies for the mixed-bracket replay cases, in one of five shapes by
    request index, each on the gold sequence rotated by that index: all
    full-width markers; mixed-bracket markers between ``(ok)``/``（xq）``
    asides; the markers plus two extras; the first half of the markers
    only; asides with no marker over a hyphen line.  Every request has a
    reply."""
    with open(DATA / CORPUS, encoding="utf-8") as fh:
        segments = annotation.load_corpus(fh)
    cfg = harness.BackendConfig(kind="replay")
    system = harness.DEFAULT_RECOGNITION_TEMPLATE.format(
        functions=harness.functions_block())
    lines = []
    for r in range(REPLAY_ROUNDS):
        for p in range(REPLAY_PREDS):
            for seg in segments:
                gold = annotation.sequence_of(seg)
                k = len(lines)
                rotated = gold[k:] + gold[:k]
                mixed = ["文本{}{}{}".format(_MIXED[i % 4][0], s, _MIXED[i % 4][1])
                         for i, s in enumerate(rotated)]
                reply = ("".join(f"句（{s}）" for s in rotated),
                         "(ok)".join(mixed) + "（xq）",
                         "".join(mixed) + "（Fr）(Lo)",
                         "".join(mixed[:len(mixed) // 2]),
                         "(ok)（xq）(注)\n" + "-".join(rotated))[k % 5]
                tag = f"recognition:seed=0:round={r}:pred={p}:seg={seg.id}"
                payload = harness.build_payload(cfg, system, seg.clean_text, tag)
                lines.append(json.dumps({
                    "request_digest": harness.request_digest(payload),
                    "response_text": reply}, ensure_ascii=False))
    return "\n".join(lines) + "\n"


# A line nested deep enough that json.loads raises RecursionError on
# Python 3.10-3.13 (3.13.0 still parses 5,000 levels).
_DEEP = "[" * 100_000 + "]" * 100_000 + "\n"


def write_inputs(tmp):
    """Write the files that cases name under ``{tmp}``: text as UTF-8,
    bytes as given."""
    files = {
        "replay.jsonl": _replay_fixture(),
        "replay_mixed.jsonl": _mixed_fixture(),
        "empty.seq": "",
        "empty.jsonl": "",
        "one_episode.seq": "A-Q-S\n",
        "unknown_last.seq": "A-Q-S\nA-Q-Zz\n",
        "not_utf8.seq": b"A-Q-S\r\nA-\xff-S\r\nA-Q-O\r\n",
        "not_utf8_replay.jsonl": b'{"request_digest": "d0", "response_text": "A"}\n'
                                 b'{"request_digest": "d1", "response_text": "\xff"}\n',
        "strict_token.jsonl": '{"id": "a", "genre": "Urban", "text": "x(A)y(S)"}\n'
                              '{"id": "b", "genre": "Urban", "text": "x(ok)y(S)"}\n',
        "unknown_symbol.jsonl": '{"id": "a", "genre": "Urban", "clean_text": "xy", '
                                '"annotations": [{"offset": 1, "symbol": "Zz"}]}\n',
        "genre_list.jsonl": '{"id": "a", "genre": ["Urban"], "text": "x(A)"}\n',
        "no_equals.cfg": "# settings\nmodel = demo\nendpoint http://127.0.0.1:9/v1\n",
        "unknown_key.cfg": "modle = demo\n",
        "duplicate_key.cfg": "model = a\n# again\nmodel = b\n",
        "deep.jsonl": '{"id": "a", "genre": "Urban", "text": "x(A)"}\n' + _DEEP,
        "deep_replay.jsonl": '{"request_digest": "d0", "response_text": "A"}\n' + _DEEP,
        "surrogate.jsonl": '{"id": "\\ud800", "genre": "Urban", "text": "x(A)"}\n',
    }
    for name, content in files.items():
        pathlib.Path(tmp, name).write_bytes(
            content if isinstance(content, bytes) else content.encode("utf-8"))


def _run(argv):
    """(stdout, exit code, stderr) of one CLI run in process, the streams
    as UTF-8 bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue().encode("utf-8"), code, err.getvalue().encode("utf-8")


def run_case(name, tmp):
    """(stdout, exit line + stderr) of one case as UTF-8 bytes, run in
    process with the working directory in DATA, with ``{tmp}`` for *tmp*."""
    out, code, err = _run([a.replace("{tmp}", str(tmp)) for a in CASES[name]])
    out, err = (s.replace(str(tmp).encode("utf-8"), b"{tmp}") for s in (out, err))
    return out, f"exit: {code}\n".encode("utf-8") + err


def write_bench_inputs(directory, seed):
    """Write the benchmark's paradigm-corpus, recognition-dense and
    homog-episodes inputs at *seed*, drawn as ``perfbench/run.py`` draws
    them: one ``random.Random(seed)`` per workload."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS_PY)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(seed)
    dense = gen.segments(rng, gen.DENSE_SEGMENTS, gen.DENSE_MARKERS, "dense",
                         asides=True)
    gen.one_segment(rng)  # the set-up input, drawn before the corpus
    files = {
        "dense.jsonl": gen.corpus_jsonl(rng, dense, True),
        "plots.seq": gen.seq_file(gen.plot_sequences(random.Random(seed))),
        "episodes.seq": gen.seq_file(gen.episodes(random.Random(seed))),
    }
    for name, text in files.items():
        pathlib.Path(directory, name).write_text(text, encoding="utf-8")


def bench_digest(name):
    """Exit code and stream digests of one bench case, run in process with
    the working directory holding the bench inputs."""
    out, code, err = _run(BENCH_CASES[name])
    return {"exit": code, "stdout": hashlib.sha256(out).hexdigest(),
            "stderr": hashlib.sha256(err).hexdigest()}


def golden_changes():
    """Compute every golden file and bench digest afresh: ``(files, changes)``,
    the fresh bytes by file name and one line per file changed, added or
    removed and per bench digest changed or added."""
    for var in ("NARR_ENDPOINT", "NARR_MODEL"):
        os.environ.pop(var, None)
    os.chdir(DATA)
    fresh = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for name in sorted(CASES):
            fresh[f"{name}.out"], fresh[f"{name}.err"] = run_case(name, tmp)
    digests = {}
    for seed, names in BENCH_SEEDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            write_bench_inputs(tmp, seed)
            os.chdir(tmp)
            digests[str(seed)] = {name: bench_digest(name) for name in names}
            os.chdir(DATA)
    old_digests = (json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))
                   if BENCH_DIGESTS.is_file() else {})
    changes = [f"digest {seed}/{name}: {digest}"
               for seed, table in digests.items() for name, digest in table.items()
               if old_digests.get(seed, {}).get(name) != digest]
    fresh[BENCH_DIGESTS.name] = (json.dumps(digests, indent=2, sort_keys=True)
                                 + "\n").encode("utf-8")
    old = {p.name: p.read_bytes() for p in GOLDEN.iterdir()} if GOLDEN.is_dir() else {}
    for name in sorted(old.keys() | fresh.keys()):
        if name not in fresh:
            changes.append(f"removed {name}")
        elif old.get(name) != fresh[name]:
            changes.append(f"{'changed' if name in old else 'added'} {name}")
    return fresh, changes


def regenerate():
    """Rewrite ``tests/golden/`` and print each file changed, added or
    removed, and each bench digest changed or added."""
    fresh, changes = golden_changes()
    for line in changes:
        print(line)
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        if path.name not in fresh:
            path.unlink()
    for name, data in fresh.items():
        (GOLDEN / name).write_bytes(data)
    print(f"{len(fresh)} files in {GOLDEN}", file=sys.stderr)


def check():
    """Print each golden file and bench digest that differs from a fresh
    run, and return the exit code: 1 if any does, else 0."""
    fresh, changes = golden_changes()
    for line in changes:
        print(line)
    print(f"{len(changes)} differences from {GOLDEN}", file=sys.stderr)
    return 1 if changes else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py [--check]")
    sys.exit(check() if sys.argv[1:] else regenerate())

# Below the script's exit: the script runs without pytest.
import pytest  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, inputs, monkeypatch):
    monkeypatch.chdir(DATA)
    for var in ("NARR_ENDPOINT", "NARR_MODEL"):
        monkeypatch.delenv(var, raising=False)
    out, err = run_case(name, inputs)
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_bytes()


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """Seed -> directory holding that seed's bench inputs."""
    dirs = {seed: tmp_path_factory.mktemp(f"bench{seed}") for seed in BENCH_SEEDS}
    for seed, directory in dirs.items():
        write_bench_inputs(directory, seed)
    return dirs


@pytest.mark.parametrize("name,seed", [
    (name, seed) for seed, names in BENCH_SEEDS.items() for name in names])
def test_bench_digest(name, seed, bench_inputs, monkeypatch):
    expected = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))
    monkeypatch.chdir(bench_inputs[seed])
    assert bench_digest(name) == expected[str(seed)][name]


def test_no_stale_golden_files():
    expected = {f"{name}.{ext}" for name in CASES for ext in ("out", "err")}
    assert {p.name for p in GOLDEN.iterdir()} == expected | {BENCH_DIGESTS.name}
