import pathlib

import pytest

from narrfunc import annotation

DATA = pathlib.Path(__file__).parent / "data"


def load_seq_file(name):
    with open(DATA / name, encoding="utf-8") as fh:
        return annotation.load_sequences(fh)


@pytest.fixture(scope="session")
def passages():
    p1 = (DATA / "passage1.txt").read_text(encoding="utf-8").strip()
    p2 = (DATA / "passage2.txt").read_text(encoding="utf-8").strip()
    return p1, p2


@pytest.fixture(scope="session")
def plot_corpora():
    return {
        name: load_seq_file(f"plots_{name}.seq")
        for name in ("battle", "emotional", "difficult_task",
                     "adventure", "pretending", "daily_life")
    }


@pytest.fixture(scope="session")
def episode_sets():
    return {
        model: load_seq_file(f"episodes_{model}.seq")
        for model in ("deepseek", "qwen", "doubao")
    }
