"""The names that ``perfbench/traced.py`` wraps and reads still exist.

The traced runner patches functions by (module, attribute) and reads
fields of their results; a renamed or deleted name would only show as a
failing ``perfbench/run.py --trace 1``.  The runner is loaded by path and
used as it is.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

import pytest

from narrfunc import harness, homogenization
from narrfunc.annotation import AnnotatedSegment, parse_inline

from conftest import DATA

TRACED_PATH = DATA.parents[1] / "perfbench" / "traced.py"
SRC = DATA.parents[1] / "src"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_functions(traced):
    for module, attr in traced.TRACED:
        fn = getattr(importlib.import_module(f"narrfunc.{module}"), attr, None)
        assert isinstance(fn, types.FunctionType), f"narrfunc.{module}.{attr}"


def test_backends_have_complete(traced):
    for name in traced.BACKENDS:
        assert callable(getattr(getattr(harness, name), "complete", None)), name


def test_recognition_result_counts(traced, passages):
    segments = [AnnotatedSegment(f"p{i}", "Fantasy", *parse_inline(text))
                for i, text in enumerate(passages)]
    cfg = harness.BackendConfig(kind="mock")
    args = (cfg, segments)
    kwargs = {"rounds": 2, "preds_per_round": 1}
    result = harness.run_recognition(*args, **kwargs)
    _, count = traced.TRACED["harness", "run_recognition"]
    assert tuple(count(args, kwargs, result)) == (
        ("harness.requests", 2 * len(segments)),)


def test_episode_counts(traced):
    episode_set = homogenization.EpisodeSet(episodes=[["A", "Q", "S"], ["A", "S"]])
    span, count = traced.TRACED["homogenization", "analyze_episodes"]
    assert span((episode_set,), {"method": "lcs"}) == "homogenization.analyze_lcs"
    assert dict(count((episode_set,), {}, None)) == {
        "homogenization.pairs": 1, "homogenization.dp_cells": 6}


@pytest.mark.parametrize("argv, span", [
    (["homog", "episodes_qwen.seq", "--method", "lcs"], "homogenization.analyze_lcs"),
    (["match", "plots_battle.seq"], "paradigm.classify"),
    (["eval", "--corpus", "recognition_corpus.jsonl", "--rounds", "1", "--preds", "1"],
     "harness.run_recognition"),
], ids=["homog", "match", "eval"])
def test_runner_traces_layers_a_command_imports(traced, tmp_path, argv, span):
    # cli imports these layers inside its commands; the runner still wraps
    # the module bindings those commands call through.
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(TRACED_PATH), str(spans), *argv], cwd=DATA,
                   env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
    totals = traced.layer_totals(json.loads(spans.read_text(encoding="utf-8")))
    assert totals[f"{span}_calls"] == 1
