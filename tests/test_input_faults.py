"""Every input fault takes one path, checked over generated inputs.

One hypothesis test drives ``cli.main`` in process over every command that
reads a file, with generated file contents (random bytes, deep nesting,
huge ints, NUL, lone surrogates as JSON escapes, CR-only line ends, a
missing file or a directory), edge flag values and generated ``--pattern``
values.  Each case gives a report with exit 0, or exit 2 (3 from ``mine``
alone) with no report and one stderr line, or exit 4 with no report and
the ledger (one line per failed request) under ``--fail-on-error``;
``main`` never raises.  ``stats``' ``warning: empty corpus`` is the one
other stderr line allowed.

Stdout is a strict UTF-8 stream, as a terminal's or a pipe's is, so a
string that cannot be encoded fails where the real one would.  Sizes stay
small, and no case starts a process or a thread: ``--max-parallel`` keeps
its default of 1 and no ``http`` backend is used.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from narrfunc import annotation, cli, taxonomy

from conftest import DATA

CORPUS = str(DATA / "recognition_corpus.jsonl")
F = "{f}"  # the generated input file in an argv
EMPTY = "{empty}"  # an empty file: a replay fixture that misses every request
MISSING, DIRECTORY = "missing", "directory"  # generated inputs that are no file

_SYMBOLS = st.sampled_from(taxonomy.SYMBOLS)
_TOKENS = _SYMBOLS | st.sampled_from(["Zz", "", " A ", "a", "#", "\x00", "Q" * 300])
# JSON values of every type, with the strings that have broken a report.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.just(10**4000), st.floats(),
    st.sampled_from(["", "s", "A", "Urban", "City", "x(A)y(Q)", "x(Zz)", "\x00",
                     "a\x00(S)", "\ud800", "x(A)\udfff", "\udc80Urban"]),
    st.text(max_size=6),
    st.lists(st.integers() | st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
# Raw lines: too deep to decode, an int past the digit limit, a lone surrogate
# spelt as a JSON escape, NUL, a stray BOM, a bare comment mark.
_RAW = st.sampled_from([
    "[" * 100_000 + "]" * 100_000,
    '{"id": %s, "genre": "Urban", "text": "x(A)"}' % ("1" * 5000),
    '{"request_digest": "d", "response_text": %s}' % ("9" * 5000),
    '{"id": "\\ud800", "genre": "Urban", "text": "x(A)"}',
    '{"request_digest": "\\udfff", "response_text": "A"}',
    "\x00", "{\x00}", "\ufeff", "#"])


@st.composite
def _objects(draw, fields, fault=False):
    """A JSON line of an object with *fields*; with *fault*, one field is set
    to another JSON value or deleted."""
    record = draw(st.fixed_dictionaries(fields))
    if fault:
        name = draw(st.sampled_from(sorted(fields)))
        if draw(st.booleans()):
            record[name] = draw(_VALUES)
        else:
            del record[name]
    return json.dumps(record, ensure_ascii=draw(st.booleans()))


_INLINE = st.builds("".join, st.lists(
    st.text(max_size=3) | _TOKENS.map("({})".format) | _TOKENS.map("（{}）".format),
    max_size=6))
_SEQ = st.builds("-".join, st.lists(_SYMBOLS, min_size=1, max_size=5))
_IDS = st.integers(0, 999) | st.text("abc", min_size=1, max_size=4)
_ANNOTATION = st.fixed_dictionaries({"offset": st.integers(0, 4), "symbol": _SYMBOLS})
_FIELDS = {
    "corpus": [{"id": _IDS, "genre": st.sampled_from(annotation.GENRES + ("City",)),
                "text": _INLINE},
               {"id": _IDS, "genre": st.sampled_from(annotation.GENRES),
                "clean_text": st.just("abcd"),
                "annotations": st.lists(_ANNOTATION, max_size=3)}],
    "replay": [{"request_digest": st.text(max_size=4),
                "response_text": st.none() | _INLINE}],
}
# Lines of each kind of file that its loader reads, and lines with a fault.
_LINES = {
    "inline": _INLINE,
    "seq": _SEQ | _SEQ.map("# {}".format),
    "corpus": st.one_of([_objects(f) for f in _FIELDS["corpus"]]),
    "replay": _objects(_FIELDS["replay"][0]),
    "config": st.sampled_from(["model = m", "endpoint = http://127.0.0.1:9/v1",
                               "# settings", ""]),
}
_FAULTS = {
    "inline": st.builds("{}({}){}".format, _INLINE, _TOKENS, _INLINE),
    "seq": st.builds("-".join, st.lists(_TOKENS, min_size=1, max_size=5)),
    "corpus": st.one_of([_objects(f, fault=True) for f in _FIELDS["corpus"]]),
    "replay": _objects(_FIELDS["replay"][0], fault=True),
    "config": st.sampled_from(["modle = m", "model", "model = a\nmodel = b",
                               "model = \x00", "=", "endpoint"]),
}


@st.composite
def _contents(draw, kind):
    """A file's bytes, or MISSING or DIRECTORY: random bytes, or lines of
    *kind* joined by LF, CR or CRLF, among them perhaps one with a fault of
    its kind, a raw line or random text."""
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return draw(st.binary(max_size=48))
    if shape == 1:
        return draw(st.sampled_from([MISSING, DIRECTORY]))
    lines = draw(st.lists(_LINES[kind], max_size=4))
    if shape < 4:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(_FAULTS[kind] if shape == 2 else _RAW | st.text(max_size=8)))
    sep = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return sep.join(lines).encode("utf-8", "surrogatepass")


# --pattern values: symbols and AltSets (options perhaps repeated), and
# junk for one element or connector.
_ELEMENTS = _SYMBOLS.map("({})".format) | st.lists(
    _SYMBOLS, min_size=2, max_size=3).map(lambda options: "{%s}" % "/".join(options))
_JUNK = st.one_of(_TOKENS.map("({})".format), _TOKENS.map("{{{}}}".format),
                  st.sampled_from(["", "A", "(", "{}", "(A", "{A/}", "(\n)", "(A)(S)",
                                   " ~> ", "-", ">", "->->"]))


@st.composite
def _patterns(draw):
    """A pattern of 2-5 elements (0-3 interior) joined by either connector,
    with one element or connector replaced by junk half the time."""
    parts = [draw(_ELEMENTS)]
    for _ in range(draw(st.integers(1, 4))):
        parts += [draw(st.sampled_from(["->", "~>"])), draw(_ELEMENTS)]
    if draw(st.booleans()):
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_JUNK)
    return "".join(parts)


_COUNT = st.integers(1, 2) | st.integers(-1, 3)  # rounds, predictions: few requests
_SIZE = st.integers(-1, 4) | st.just(10**18)
_SUPPORT = st.sampled_from([0.6, 1.0, 0.0, -1.0, 1.5, 1e-9, float("nan"),
                            float("inf")]) | st.floats()


@st.composite
def _runs(draw):
    """``(argv, contents)``: one command that reads the generated file *F*,
    with edge flag values, and that file's contents."""
    fmt = ["--output-format", draw(st.sampled_from(["text", "json"]))]
    command = draw(st.sampled_from(["parse", "stats", "match", "mine", "homog",
                                    "eval-corpus", "eval-replay", "eval-config"]))
    if command == "parse":
        kind = draw(st.sampled_from(["inline", "seq", "corpus"]))
        argv = ["parse", F, "--format", {"corpus": "jsonl"}.get(kind, kind), *fmt]
        if kind != "seq" and draw(st.booleans()):
            argv.append("--strict")
    elif command == "stats":
        kind, argv = "corpus", ["stats", F, "--output-format",
                                draw(st.sampled_from(["text", "json", "csv"]))]
        if draw(st.booleans()):
            argv += ["--windows", f"--groups={draw(_SIZE)}",
                     f"--per-group={draw(_SIZE)}", f"--chars={draw(_SIZE)}",
                     f"--seed={draw(st.integers(-1, 3))}"]
        if draw(st.booleans()):
            argv.append("--strict")
    elif command in ("match", "homog"):
        kind, argv = "seq", [command, F, *fmt]
        if command == "homog":
            argv += ["--method", draw(st.sampled_from(["edit", "lcs"]))]
        elif draw(st.booleans()):
            # One argv word: argparse reads a separate value that starts
            # with "-" as an option, before the program sees it.
            argv.append(f"--pattern={draw(_patterns())}")
    elif command == "mine":
        kind, argv = "seq", ["mine", F, f"--support={draw(_SUPPORT)!r}",
                             f"--max-alt={draw(_SIZE)}", *fmt]
    else:
        kind = command.removeprefix("eval-")
        argv = ["eval", "--corpus", F if kind == "corpus" else CORPUS,
                f"--rounds={draw(_COUNT)}", f"--preds={draw(_COUNT)}", *fmt]
        if kind == "config":
            argv += ["--config", F]
        elif kind == "replay" or draw(st.booleans()):
            argv += ["--backend", "replay", "--replay-path",
                     F if kind == "replay" else EMPTY]
        if draw(st.booleans()):
            argv.append("--fail-on-error")
    return argv, draw(_contents(kind))


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in process."""
    buffer, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8", errors="strict", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, buffer.getvalue().decode("utf-8"), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_runs())
@example((["parse", F, "--format", "jsonl"],
          b'{"id": "\\ud800", "genre": "Urban", "text": "x(A)"}\n'))
@example((["eval", "--corpus", F, "--backend", "replay", "--replay-path", EMPTY],
          b'{"id": "a", "genre": "Urban", "text": "x(A)\\udfff"}\n'))
@example((["eval", "--corpus", CORPUS, "--backend", "replay", "--replay-path", F],
          DIRECTORY))
def test_every_input_gives_a_report_or_one_error_line(run):
    argv, contents = run
    with tempfile.TemporaryDirectory() as tmp:
        path, empty = pathlib.Path(tmp, "input"), pathlib.Path(tmp, "empty")
        empty.write_bytes(b"")
        if contents == DIRECTORY:
            path.mkdir()
        elif contents != MISSING:
            path.write_bytes(contents)
        code, out, err = _run([a.replace(F, str(path)).replace(EMPTY, str(empty))
                               for a in argv])
    event(f"{argv[0]}: exit {code}")
    lines = err.splitlines()
    assert err.endswith("\n") or not err
    if argv[0] == "stats" and lines[:1] == ["warning: empty corpus"]:
        del lines[0]
    if code == cli.EXIT_OK:
        assert out and not lines, (out, err)
    elif code == cli.EXIT_BACKEND:  # failed requests: the ledger, one line each
        assert "--fail-on-error" in argv and out == "" and lines, (out, err)
        assert all(line.startswith("error: round ") for line in lines), err
    else:
        assert code in (cli.EXIT_INPUT, cli.EXIT_ANALYTIC), code
        assert out == "" and len(lines) == 1, (out, err)
        assert code == cli.EXIT_INPUT or argv[0] == "mine", (argv, err)
