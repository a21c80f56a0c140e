"""The README as a contract: what it promises, checked against the code."""

import ast
import pathlib
import re
import shlex
from fractions import Fraction

from narrfunc import cli, paradigm

from conftest import DATA

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_exit_codes_match_cli():
    # The paragraph that opens "Exit codes:" lists each code once, in order,
    # as a backquoted number; cli.EXIT_* hold exactly those values.
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    [exit_codes] = [p for p in paragraphs if p.startswith("Exit codes:")]
    listed = [int(code) for code in re.findall(r"`(\d+)` ", exit_codes)]
    defined = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert listed == defined


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def _run_block(block, namespace):
    """Run *block* in *namespace* one statement at a time: the value of each
    expression statement, in order."""
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README.name, "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    return values


def test_python_blocks_give_the_commented_values():
    library, runs = _python_blocks()
    names = {}
    matched, mined = _run_block(library, names)
    assert names["seq"] == ("K", "J")
    assert matched == [0, 2, 3]
    assert (paradigm.emit_pattern(mined.pattern), mined.support) == (
        "(A)->(Q)->(S)", Fraction(2, 3))
    # Over the two-segment test corpus the mock backend echoes each segment's
    # gold annotation: f1 1.0 in 10 x 5 requests per segment, none failed.
    corpus = repr(str(DATA / "recognition_corpus.jsonl"))
    names = {}
    [summary] = _run_block(runs.replace('"corpus.jsonl"', corpus), names)
    assert summary == (1.0, 10 * 5 * 2, [])
    assert len(names["episodes"]) == 5


# The CLI block's example file names and the tests/data file each line runs
# on; rec.jsonl becomes an empty replay fixture.  recognition_corpus.jsonl
# holds too few novels for --windows, so corpus.jsonl is annotator_a.jsonl.
CLI_INPUTS = {"story.txt": "passage1.txt", "seqs.seq": "plots_battle.seq",
              "corpus.jsonl": "annotator_a.jsonl", "episodes.seq": "episodes_qwen.seq"}


def _cli_lines():
    """Each ``narrfunc ...`` line of the CLI block as argv, comments cut."""
    text = README.read_text(encoding="utf-8")
    [block] = [b for b in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
               if b.startswith("narrfunc registry")]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", "").splitlines() if line.strip()]


def test_cli_block_lines_exit_0(tmp_path, capsys):
    (tmp_path / "rec.jsonl").write_bytes(b"")
    paths = {name: str(DATA / data) for name, data in CLI_INPUTS.items()}
    paths["rec.jsonl"] = str(tmp_path / "rec.jsonl")
    used, left_out = set(), []
    for argv in _cli_lines():
        assert argv[0] == "narrfunc"
        if "http" in argv:  # the http backend needs a server to answer it
            left_out.append(argv[:5])
            continue
        used.update(a for a in argv if a in paths)
        code = cli.main([paths.get(a, a) for a in argv[1:]])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_OK, ""), argv
        assert out, argv
    assert used == set(paths)
    assert left_out == [["narrfunc", "eval", "--corpus", "corpus.jsonl", "--backend"]]
