import json
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from narrfunc import annotation, cli, harness, paradigm, taxonomy
from narrfunc.annotation import (
    AnnotatedSegment,
    Annotation,
    emit_inline,
    extract_symbols,
    load_corpus,
    parse_inline,
    parse_sequence_string,
    sequence_of,
)
from narrfunc.errors import (
    MalformedRecord,
    ParenthesizedUnknownToken,
    UnknownSymbol,
)
from narrfunc.homogenization import sample_windows

from conftest import DATA


class TestParseInline:
    def test_passage1(self, passages):
        clean, anns = parse_inline(passages[0])
        assert [a.symbol for a in anns] == ["K", "J", "K", "De", "E", "Fa", "Lo"]
        assert "(" not in clean and "（" not in clean
        assert "寻找出路" in clean

    def test_passage2_mixed_brackets(self, passages):
        clean, anns = parse_inline(passages[1])
        assert [a.symbol for a in anns] == ["A", "Re", "G", "F"]
        assert "人声鼎沸" in clean

    def test_ascii_marker(self):
        clean, anns = parse_inline("He clearly was no ordinary person. (E)")
        assert anns == [Annotation(35, "E")]
        assert clean == "He clearly was no ordinary person. "

    def test_fullwidth_marker(self):
        clean, anns = parse_inline("照亮了周围的环境（De）后续")
        assert [a.symbol for a in anns] == ["De"]
        assert clean == "照亮了周围的环境后续"
        assert anns[0].offset == 8

    def test_non_symbol_parenthetical_preserved(self):
        text = "no markers here (really)"
        clean, anns = parse_inline(text)
        assert clean == text and anns == []

    def test_strict_rejects_short_unknown_token(self):
        with pytest.raises(ParenthesizedUnknownToken):
            parse_inline("text (Zz) more", strict=True)

    def test_fullwidth_aside_kept_and_strict_offset(self):
        # A full-width aside stays full-width in the clean text, and strict
        # mode reports it at the same clean-text offset as its ASCII twin.
        text = "前（K）说（xq）后(A)"
        assert parse_inline(text) == ("前说（xq）后", [Annotation(1, "K"),
                                                     Annotation(7, "A")])
        for aside in ("（xq）", "(xq)", "（xq)"):
            with pytest.raises(ParenthesizedUnknownToken) as exc_info:
                parse_inline(text.replace("（xq）", aside), strict=True)
            assert (exc_info.value.offset, exc_info.value.token) == (2, "xq")

    def test_strict_ignores_long_parentheticals(self):
        clean, anns = parse_inline("text (really) more", strict=True)
        assert anns == []

    def test_offsets_sorted(self):
        _, anns = parse_inline("(A)一(K)二(Q)")
        offsets = [a.offset for a in anns]
        assert offsets == sorted(offsets)


class TestEmitInline:
    def test_single_marker_at_end(self):
        seg = AnnotatedSegment("x", "Fantasy", "escape at last. ",
                               [Annotation(16, "K")])
        assert emit_inline(seg) == "escape at last. (K)"

    def test_empty_annotations_identity(self):
        seg = AnnotatedSegment("x", "Urban", "plain text", [])
        assert emit_inline(seg) == "plain text"

    def test_round_trip_passage1(self, passages):
        clean, anns = parse_inline(passages[0])
        seg = AnnotatedSegment("p1", "Fantasy", clean, anns)
        assert parse_inline(emit_inline(seg)) == (clean, anns)

    def test_emit_normalizes_to_ascii(self, passages):
        emitted = emit_inline(
            AnnotatedSegment("p2", "Xianxia", *parse_inline(passages[1])))
        assert "（" not in emitted and "(A)" in emitted
        # second emission is byte-identical
        reparsed = AnnotatedSegment("p2", "Xianxia", *parse_inline(emitted))
        assert emit_inline(reparsed) == emitted


@st.composite
def segments(draw):
    text = draw(st.text(
        alphabet=st.characters(blacklist_characters="()（）"), max_size=40))
    n = draw(st.integers(min_value=0, max_value=6))
    offsets = sorted(
        draw(st.integers(min_value=0, max_value=len(text))) for _ in range(n))
    symbols = draw(st.lists(st.sampled_from(taxonomy.SYMBOLS),
                            min_size=n, max_size=n))
    anns = [Annotation(o, s) for o, s in zip(offsets, symbols)]
    return AnnotatedSegment("h", "Fantasy", text, anns)


@given(segments())
def test_emit_parse_round_trip_property(seg):
    assert parse_inline(emit_inline(seg)) == (seg.clean_text, seg.annotations)


@given(segments())
def test_sequence_length_equals_annotation_count(seg):
    assert len(sequence_of(seg)) == len(seg.annotations)


# Asides are parentheticals that stay in the clean text; strict mode
# rejects the short letter tokens among them.
_ASIDES = ("(ok)", "（xq）", "(注)", "(abc)")
_STRICT_REJECTED = ("(ok)", "（xq）")


@st.composite
def marked_texts(draw):
    """Marked text plus the clean text, annotations, ASCII re-emission and
    strict-mode error offset expected from it, built piece by piece."""
    plain = st.text(alphabet=st.characters(blacklist_characters="()（）"),
                    max_size=8)
    marker = st.tuples(st.sampled_from(taxonomy.SYMBOLS),
                       st.sampled_from("(（"), st.sampled_from(")）"))
    pieces = draw(st.lists(st.one_of(
        plain.map(lambda s: ("plain", s)),
        marker.map(lambda m: ("marker",) + m),
        st.sampled_from(_ASIDES).map(lambda s: ("aside", s))), max_size=30))
    text, clean, emitted, anns, strict_offset = "", "", "", [], None
    for kind, *rest in pieces:
        if kind == "marker":
            symbol, open_, close = rest
            text += f"{open_}{symbol}{close}"
            emitted += f"({symbol})"
            anns.append(Annotation(len(clean), symbol))
            continue
        if kind == "aside" and rest[0] in _STRICT_REJECTED \
                and strict_offset is None:
            strict_offset = len(clean)
        text += rest[0]
        clean += rest[0]
        emitted += rest[0]
    return text, clean, anns, emitted, strict_offset


@given(marked_texts())
def test_parse_inline_offsets_property(case):
    text, clean, anns, emitted, strict_offset = case
    assert parse_inline(text) == (clean, anns)
    if strict_offset is None:
        assert parse_inline(text, strict=True) == (clean, anns)
    else:
        with pytest.raises(ParenthesizedUnknownToken) as exc_info:
            parse_inline(text, strict=True)
        assert exc_info.value.offset == strict_offset
    assert emit_inline(AnnotatedSegment("h", "Fantasy", clean, anns)) == emitted


class TestSequenceOf:
    def test_passages(self, passages):
        for text, expected in zip(passages, (
                ("K", "J", "K", "De", "E", "Fa", "Lo"),
                ("A", "Re", "G", "F"))):
            seg = AnnotatedSegment("x", "Fantasy", *parse_inline(text))
            assert sequence_of(seg) == expected

    def test_empty(self):
        seg = AnnotatedSegment("x", "Fantasy", "text", [])
        assert sequence_of(seg) == ()


def _extract_via_parse_inline(text):
    """Oracle: the full inline parse keeping only the symbols, then the
    same hyphen-line fallback."""
    text = text or ""
    symbols = tuple(a.symbol for a in parse_inline(text)[1])
    if symbols:
        return symbols
    for line in reversed(text.splitlines()):
        if line.strip():
            try:
                return parse_sequence_string(line)
            except UnknownSymbol:
                return ()
    return ()


_OPEN, _CLOSE = ("(", "（"), (")", "）")
_TOKENS = (*taxonomy.SYMBOLS, "ok", "xq", "注", "Ab", "AB", "Cx", "Zz", "h", "")
_PIECES = ("(ok)", "（xq）", "(注)", "((K)", "(K))", "(C)", "(Ch)", "(Cx)",
           "(Ab)", "(AB)", "((A)x)", "(C(Ch)", "(Ch)(C)", "(C", "（De", "\n",
           "\n\n", "  \n", "文本。", "x ", "(", ")", "（", "）", "-", "C", "h")
_reply_text = st.lists(st.one_of(
    st.sampled_from(_PIECES),
    st.builds("".join, st.tuples(st.sampled_from(_OPEN), st.sampled_from(_TOKENS),
                                 st.sampled_from(_CLOSE))),
    st.lists(st.sampled_from((*taxonomy.SYMBOLS, "Qx", " Lo ")), min_size=1,
             max_size=5).map(lambda ts: "\n" + "-".join(ts) + "\n"),
    st.text(alphabet="()（）ACFLhox-注 \n", max_size=6),
), max_size=12).map("".join)


class TestExtractSymbols:
    def test_inline_markers_win(self):
        assert extract_symbols("found it (K)\nA-Q-S") == ("K",)

    def test_only_the_last_nonempty_line_is_read(self):
        assert extract_symbols("A-Q-S\nno structure here\n\n") == ()

    @pytest.mark.parametrize("text, expected", [
        ("(C)(Ch)（Cx）(C）", ("C", "Ch", "C")),
        ("((K)(K))(ok)（xq）(注)(Ab)", ("K", "K")),
        ("(C h)(Chh)(ok)\nA-Q-S", ("A", "Q", "S")),
        (None, ()),
    ])
    def test_only_bracketed_registry_symbols(self, text, expected):
        assert extract_symbols(text) == expected

    @given(_reply_text)
    def test_equals_parse_inline_oracle(self, text):
        symbols = extract_symbols(text)
        assert symbols == _extract_via_parse_inline(text)
        registry = {id(s) for s in taxonomy.SYMBOLS}
        assert all(id(s) in registry for s in symbols)
        # Both bracket kinds are one grammar: the all-full-width text reads
        # the same symbols.
        full_width = text.replace("(", "（").replace(")", "）")
        assert extract_symbols(full_width) == symbols
        assert _extract_via_parse_inline(full_width) == symbols


# The generic scan that the registry marker grammar replaced: any one- or
# two-letter token in brackets, kept only if the registry has it.
_GENERIC_MARKER_RE = re.compile(r"\(([A-Za-z]{1,2})[)）]")


def _finditer_parse_inline(text, strict=False):
    """Oracle: ``parse_inline`` as a loop over the generic scan, as it was."""
    clean = []
    annotations = []
    pos = 0
    offset = 0  # length of the clean text so far
    for m in _GENERIC_MARKER_RE.finditer(text.replace("（", "(")):
        token = m.group(1)
        symbol = taxonomy.CANONICAL.get(token)
        if symbol is not None:
            clean.append(text[pos:m.start()])
            offset += m.start() - pos
            annotations.append(Annotation(offset, symbol))
            pos = m.end()
        elif strict:
            raise ParenthesizedUnknownToken(offset + (m.start() - pos), token)
    clean.append(text[pos:])
    return "".join(clean), annotations


def _generic_reply_codes(text):
    """Oracle: the reply reader before the registry grammar, as it was: the
    generic scan, each token through ``CODES.get``, unknown ones dropped."""
    text = text or ""
    codes = bytes(filter(None, map(taxonomy.CODES.get, _GENERIC_MARKER_RE.findall(
        text.replace("（", "(")))))
    if codes:
        return codes
    for line in reversed(text.splitlines()):
        if line.strip():
            try:
                return bytes(map(taxonomy.CODES.get, parse_sequence_string(line)))
            except UnknownSymbol:
                return b""
    return b""


def _strict(parse, text):
    """``parse(text, strict=True)``, or the token and offset it refused."""
    try:
        return parse(text, strict=True)
    except ParenthesizedUnknownToken as exc:
        return exc.token, exc.offset


class TestMarkerGrammar:
    @given(_reply_text)
    @example("x(C")
    @example("((A)x)(AB)(Ab)（xq）(ok)")
    @example("(o(K)k)")
    @example("（ok）(C(Ch)（De")
    def test_parse_inline_equals_finditer_oracle(self, text):
        clean, anns = parse_inline(text)
        assert (clean, anns) == _finditer_parse_inline(text)
        assert all(type(a) is Annotation for a in anns)
        assert all(a.symbol is taxonomy.CANONICAL[a.symbol] for a in anns)
        assert _strict(parse_inline, text) == _strict(_finditer_parse_inline, text)

    @given(st.one_of(st.none(), _reply_text))
    @example("x(C")
    @example("((A)x)(AB)(Ab)（xq）(ok)\nEm-Lo")
    @example("(Ch)(C)(Fr)(F)(Fa)(Re)(R)(De)(D)(Em)(E)(Fi)(Lo)(L)")
    def test_reply_codes_equals_generic_reader_oracle(self, text):
        assert annotation.reply_codes(text) == _generic_reply_codes(text)


def _tuple_extract_symbols(text):
    """Oracle: the tuple reader that ``reply_codes`` replaced, as it was."""
    text = text or ""
    symbols = tuple(filter(None, map(taxonomy.CANONICAL.get,
                                     _GENERIC_MARKER_RE.findall(
                                         text.replace("（", "(")))))
    if symbols:
        return symbols
    for line in reversed(text.splitlines()):
        if line.strip():
            try:
                return parse_sequence_string(line)
            except UnknownSymbol:
                return ()
    return ()


class TestReplyCodes:
    @given(st.one_of(st.none(), st.just(""), _reply_text))
    @example("(ok)（xq）(注)\nEm-Lo-Ch")
    @example("(C)(Ch)（Cx）(C）\nA-Q-S")
    @example("A-Qx-S")
    def test_equals_tuple_reader_oracle(self, text):
        symbols = _tuple_extract_symbols(text)
        codes = annotation.reply_codes(text)
        assert type(codes) is bytes
        assert codes == bytes(taxonomy.CODES[s] for s in symbols)
        assert extract_symbols(text) == symbols

    def test_codes_are_registry_positions(self):
        assert [taxonomy.CODES[s] for s in taxonomy.SYMBOLS] == list(range(1, 35))
        assert annotation.reply_codes("(A)(Lo)（Ch）") == bytes([1, 34, 22])
        assert annotation.reply_codes("A - Lo") == bytes([1, 34])
        assert annotation.reply_codes(None) == annotation.reply_codes("") == b""


class TestParseSequenceString:
    def test_episodes_examples(self):
        assert parse_sequence_string("A-Lo-E-Q-P-S") == \
            ("A", "Lo", "E", "Q", "P", "S")
        assert len(parse_sequence_string("A-J-E-Lo-M-N-O")) == 7

    def test_whitespace_tolerated(self):
        assert parse_sequence_string(" A - Lo -E ") == ("A", "Lo", "E")

    def test_invalid_token(self):
        with pytest.raises(UnknownSymbol) as exc_info:
            parse_sequence_string("A-Qx-S")
        assert exc_info.value.token == "Qx"
        assert exc_info.value.position == 1

    def test_blank(self):
        assert parse_sequence_string("") == ()

    def test_round_trip(self):
        seq = parse_sequence_string("A-J-E-Q-M-N-O")
        assert parse_sequence_string("-".join(seq)) == seq

    @pytest.mark.parametrize("text", ["Em-Lo-Ch", " Em - Lo -Ch "])
    def test_symbols_are_the_registry_strings(self, text):
        # Every path hands out the registry's own objects, not the caller's
        # token.  The symbols have two letters: CPython caches one-letter
        # strings, so those would be the registry's objects anyway.
        registry = {id(s) for s in taxonomy.SYMBOLS}
        loaded = annotation.load_sequences(["# header", text, ""])
        for symbols in (parse_sequence_string(text), *loaded,
                        extract_symbols(f"Episode outline:\n{text}\n")):
            assert type(symbols) is tuple
            assert symbols == ("Em", "Lo", "Ch")
            assert all(id(s) in registry for s in symbols)

        inline = "".join(f"文本（{s}）" for s in ("Em", "Lo", "Ch"))
        segments = load_corpus([
            json.dumps({"id": "inline", "genre": "Urban", "text": inline},
                       ensure_ascii=False),
            json.dumps({"id": "offsets", "genre": "Urban", "clean_text": "abc",
                        "annotations": [{"offset": i, "symbol": s}
                                        for i, s in enumerate(("Em", "Lo", "Ch"))]}),
        ])
        windows = sample_windows({seg.id: seg for seg in segments}, seed=0,
                                 groups=1, novels_per_group=2)
        assert len(windows) == 2
        for anns in (parse_inline(inline)[1],
                     *(seg.annotations for seg in segments + windows)):
            assert [a.symbol for a in anns] == ["Em", "Lo", "Ch"]
            assert all(id(a.symbol) in registry for a in anns)

        patterns = [paradigm.parse_pattern("(Em)->{Lo/Fr}~>(Ch)"),
                    *paradigm.builtin_paradigms(), paradigm.mine(loaded * 3).pattern]
        assert patterns[0].elements[1].options == ("Lo", "Fr")
        assert patterns[-1].elements == ("Em", "Lo", "Ch")
        for pattern in patterns:
            for element in pattern.elements:
                options = getattr(element, "options", (element,))
                assert all(id(s) in registry for s in options)

    def test_load_sequences_names_the_line(self):
        with pytest.raises(MalformedRecord) as exc_info:
            annotation.load_sequences(["# header", "A-Q-S", "", "A-Qx-S\n"])
        assert exc_info.value.line_no == 4
        assert str(exc_info.value) == ("malformed record on line 4: "
                                       "unknown function symbol 'Qx' at position 1")
        assert isinstance(exc_info.value.__cause__, UnknownSymbol)


def _continuation_sequence(text, tmp_path):
    """run_continuation's sequence of one replayed episode that ends in *text*."""
    path = tmp_path / "episodes.jsonl"
    cfg = harness.BackendConfig(kind="replay", replay_path=str(path))
    payload = harness.build_payload(cfg, harness.DEFAULT_CONTINUATION_TEMPLATE,
                                    "preface", "continuation:seed=0:episode=0")
    path.write_text(json.dumps({"request_digest": harness.request_digest(payload),
                                "response_text": f"The end.\n{text}\n"}))
    preface = AnnotatedSegment("p", "Urban", "preface", [])
    return harness.run_continuation(cfg, preface, n_episodes=1)[1][0]


_PRODUCERS = {
    "load_sequences-one-pass": lambda text, _: annotation.load_sequences(
        ["# header", text])[0],
    "load_sequences-per-line": lambda text, _: annotation.load_sequences(
        [f" {text} "])[0],
    "parse_sequence_string": lambda text, _: parse_sequence_string(text),
    "sequence_of": lambda text, _: sequence_of(AnnotatedSegment(
        "s", "Urban", *parse_inline("".join(f"x({s})" for s in text.split("-"))))),
    "extract_symbols-markers": lambda text, _: extract_symbols(
        "".join(f"x（{s}）" for s in text.split("-"))),
    "extract_symbols-hyphen-line": lambda text, _: extract_symbols(f"Outline:\n{text}\n"),
    "run_continuation": _continuation_sequence,
}


@pytest.mark.parametrize("produce", _PRODUCERS.values(), ids=_PRODUCERS)
def test_every_producer_returns_a_tuple_of_registry_strings(produce, tmp_path):
    # Two-letter symbols, split out of a new string: CPython caches one-letter
    # strings, so those would be the registry's objects anyway.
    seq = produce("-".join(["Em", "Lo", "Ch"]), tmp_path)
    assert type(seq) is tuple
    assert seq == ("Em", "Lo", "Ch")
    assert all(s is taxonomy.CANONICAL[s] for s in seq)


def loop_load_sequences(lines):
    """Oracle: the per-line loop, which reads every line on its own."""
    seqs = []
    for line_no, line in enumerate(lines, start=1):
        s = line.strip()
        if s and not s.startswith("#"):
            try:
                seqs.append(parse_sequence_string(s))
            except UnknownSymbol as exc:
                raise MalformedRecord(line_no, str(exc)) from exc
    return seqs


def _loaded(load, *args):
    """The sequences *load* returns, or the line and message it raised."""
    try:
        return load(*args)
    except MalformedRecord as exc:
        return exc.line_no, str(exc)


# Padding that str.strip() removes; all but " " and "\t" are also line
# breaks to str.splitlines(), though not to a file's universal newlines.
_PADS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029")
_bare_line = st.lists(st.sampled_from(taxonomy.SYMBOLS), min_size=1,
                      max_size=6).map("-".join)
_seq_token = st.one_of(
    st.sampled_from(taxonomy.SYMBOLS),
    st.tuples(st.sampled_from(_PADS), st.sampled_from(taxonomy.SYMBOLS),
              st.sampled_from(("", *_PADS))).map("".join),
    st.sampled_from(("Zz", "a", "")))
_seq_line = st.one_of(
    _bare_line, _bare_line,
    st.lists(_seq_token, min_size=1, max_size=5).map("-".join),
    st.sampled_from(("", "  ", "# comment", " #A-Q-S", *_PADS)))


_bare_or_comment_line = st.one_of(
    _bare_line, st.sampled_from(("#", "# header", "#A-Q-S")))


@st.composite
def seq_file_text(draw):
    """A ``.seq`` file: bare lines only, or bare and ``#`` lines (both read
    in one pass), or any mix of bare, padded, unknown, blank and comment
    lines, with any line endings and an optional final one."""
    line = draw(st.sampled_from((_bare_line, _bare_or_comment_line, _seq_line)))
    lines = draw(st.lists(st.tuples(line, st.sampled_from(("\n", "\r\n", "\r"))),
                          max_size=8))
    text = "".join(body + end for body, end in lines)
    return text.rstrip("\r\n") if lines and draw(st.booleans()) else text


@pytest.fixture(scope="module")
def seq_path(tmp_path_factory):
    return tmp_path_factory.mktemp("seq") / "plots.seq"


class TestLoadSequences:
    @given(text=seq_file_text())
    def test_seq_file_equals_loop_oracle(self, seq_path, text):
        seq_path.write_bytes(text.encode("utf-8"))
        with open(seq_path, encoding="utf-8") as fh:
            expected = _loaded(loop_load_sequences, fh)
        if isinstance(expected, tuple):  # the same fault, and the file's name
            line_no, message = expected
            expected = line_no, message.replace(
                "malformed record on line", f"{seq_path}: line", 1)
        assert _loaded(lambda path: cli._load_seq_file(path)[0], seq_path) == expected
        if isinstance(expected, list):
            registry = {id(s) for s in taxonomy.SYMBOLS}
            loaded, _ = cli._load_seq_file(seq_path)
            assert all(type(s) is tuple for s in loaded)
            assert all(id(x) in registry for s in loaded for x in s)

    def test_shipped_files_are_read_in_one_pass(self, monkeypatch):
        # Every shipped file opens with a "# ..." header line.
        paths = sorted(DATA.glob("*.seq"))
        expected = {}
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                expected[path] = loop_load_sequences(fh)

        def per_line_loop(*args, **kwargs):
            raise AssertionError("the per-line loop ran")
        monkeypatch.setattr(annotation, "_each_line", per_line_loop)
        assert len(paths) == 9
        for path in paths:
            assert cli._load_seq_file(path)[0] == expected[path]

    def test_lines_break_at_newlines_only(self, tmp_path):
        path = tmp_path / "padded.seq"
        path.write_bytes("A-\x0cQ-S\nA-Q\x85-S\r\nA-\u2028Q-S\r".encode("utf-8"))
        assert cli._load_seq_file(path)[0] == [("A", "Q", "S")] * 3

    def test_file_handle_lines(self):
        # Lines that keep their "\n", as a file object yields them, take the
        # per-line loop and read the same.
        assert annotation.load_sequences(["A-Q-S\n", "\n", "Em-Ch"]) == [
            ("A", "Q", "S"), ("Em", "Ch")]

    # A list is read as it is; a one-shot iterator is copied once, so the
    # per-line loop still sees every line after the one-pass read gave up.
    @pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
    @pytest.mark.parametrize("lines", [["A-Q-S", "", "Em-Ch"],
                                       ["A-Q-S", "# comment", "", " Em-Ch "]],
                             ids=["bare", "comment-padding"])
    def test_list_or_iterator(self, make, lines):
        assert annotation.load_sequences(make(lines)) == [
            ("A", "Q", "S"), ("Em", "Ch")]


def _record(i, genre="Fantasy", text="开场(A)结尾(S)"):
    return json.dumps({"id": f"s{i}", "genre": genre, "text": text},
                      ensure_ascii=False)


_MISSING = object()  # a deleted field
_INLINE = {"id": "s", "genre": "Urban", "text": "x(A)y"}
_OFFSET = {"id": "s", "genre": "Urban", "clean_text": "xy",
           "annotations": [{"offset": 0, "symbol": "A"}]}
# Field -> a valid record holding it (offset and symbol in its one item).
_BASE_RECORDS = {"id": _INLINE, "genre": _INLINE, "text": _INLINE,
                 "clean_text": _OFFSET, "annotations": _OFFSET,
                 "offset": _OFFSET, "symbol": _OFFSET}
# Every JSON type: null, bool, int, float, string, list, object.  The strings
# include lone surrogates, which JSON escapes can spell but UTF-8 cannot.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.integers(), st.floats(),
    st.sampled_from(["", "s", "A", "Q", "Urban", "City", "x(K)y", "x(Zz)",
                     "\ud800", "x(A)\udfff", "\udc80Urban"]),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _utf8(s):
    """Whether *s* holds no lone surrogate, the one thing UTF-8 cannot spell."""
    return not re.search("[\ud800-\udfff]", s)


def _documented_segment(field, value):
    """The segment that the documented record rules give for the base record
    of *field* with *field* set to *value* (or deleted), or None if the
    rules reject it."""
    kind = type(value)
    if kind is str and not _utf8(value):  # I-JSON: every string is UTF-8
        return None
    if field == "id" and (kind is str and value or kind is int):
        return AnnotatedSegment(str(value), "Urban", "xy", [Annotation(1, "A")])
    if field == "genre" and kind is str:
        genre = {"City": "Urban", "Time travel": "TimeTravel",
                 "Time Travel": "TimeTravel"}.get(value, value)
        if genre in annotation.GENRES:
            return AnnotatedSegment("s", genre, "xy", [Annotation(1, "A")])
    if field == "text" and kind is str:
        return AnnotatedSegment("s", "Urban", *parse_inline(value))
    if field == "clean_text" and kind is str:
        return AnnotatedSegment("s", "Urban", value, [Annotation(0, "A")])
    if field == "annotations" and (value is _MISSING or value == []):
        return AnnotatedSegment("s", "Urban", "xy", [])
    if field == "symbol" and kind is str and value in taxonomy.SYMBOLS:
        return AnnotatedSegment("s", "Urban", "xy", [Annotation(0, value)])
    if field == "offset" and kind is int and 0 <= value <= 2:
        return AnnotatedSegment("s", "Urban", "xy", [Annotation(value, "A")])
    return None


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "c.jsonl"


class TestLoadCorpus:
    def test_well_formed(self):
        segs = load_corpus([_record(1), _record(2)])
        assert len(segs) == 2
        assert [a.symbol for a in segs[0].annotations] == ["A", "S"]

    def test_clean_text_plus_annotation_list(self):
        rec = json.dumps({"id": "s1", "genre": "Urban", "clean_text": "abcd",
                          "annotations": [{"offset": 2, "symbol": "Q"}]})
        seg = load_corpus([rec])[0]
        assert seg.annotations == [Annotation(2, "Q")]

    def test_annotations_load_in_offset_order(self):
        # sequence_of and emit_inline take the order the loader set; the
        # sort is stable, so two markers at one offset keep their listed order.
        rec = json.dumps({"id": "s1", "genre": "Urban", "clean_text": "abcd",
                          "annotations": [{"offset": 3, "symbol": "S"},
                                          {"offset": 2, "symbol": "Q"},
                                          {"offset": 0, "symbol": "A"},
                                          {"offset": 2, "symbol": "O"}]})
        seg = load_corpus([rec])[0]
        assert seg.annotations == [Annotation(0, "A"), Annotation(2, "Q"),
                                   Annotation(2, "O"), Annotation(3, "S")]
        assert sequence_of(seg) == ("A", "Q", "O", "S")
        assert emit_inline(seg) == "(A)ab(Q)(O)c(S)d"

    def test_invalid_genre(self):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), _record(2, genre="SciFi")])
        assert exc_info.value.line_no == 2
        assert type(exc_info.value.__cause__) is ValueError
        assert str(exc_info.value) == "malformed record on line 2: unknown genre 'SciFi'"

    def test_city_alias(self):
        seg = load_corpus([_record(1, genre="City")])[0]
        assert seg.genre == "Urban"

    def test_duplicate_id(self):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), _record(1)])
        assert exc_info.value.line_no == 2
        assert type(exc_info.value.__cause__) is ValueError
        assert str(exc_info.value) == "malformed record on line 2: duplicate segment id 's1'"

    def test_malformed_json(self):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), "{not json"])
        assert exc_info.value.line_no == 2

    def test_oversized_int_names_its_line(self):
        # json.loads raises a plain ValueError past the int digit limit.
        record = '{"id": %s, "genre": "Urban", "text": "x"}' % ("1" * 5000)
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), record])
        assert exc_info.value.line_no == 2
        assert exc_info.value.reason.startswith("invalid JSON: ")

    def test_missing_id(self):
        with pytest.raises(MalformedRecord):
            load_corpus(['{"genre": "Urban", "text": "x"}'])

    @pytest.mark.parametrize("seg_id", ["null", '""'])
    def test_null_or_empty_id(self, seg_id):
        with pytest.raises(MalformedRecord):
            load_corpus(['{"id": %s, "genre": "Urban", "text": "x"}' % seg_id])

    def test_zero_id(self):
        seg = load_corpus(['{"id": 0, "genre": "Urban", "text": "x"}'])[0]
        assert seg.id == "0"

    def test_strict_unknown_marker(self):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), "", _record(2, text="文本(Zz)")], strict=True)
        assert exc_info.value.line_no == 3
        assert isinstance(exc_info.value.__cause__, ParenthesizedUnknownToken)

    @pytest.mark.parametrize("record, reason", [
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": 5, "symbol": "Q"}]}',
         "offset 5 outside clean text"),
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": 1, "symbol": "Qx"}]}',
         "unknown function symbol 'Qx'"),
        ('["s", "Urban", "text"]', "record is not an object"),
        ('{"id": "s", "genre": ["Urban"], "text": "x(A)"}',
         "genre is list, not a string"),
        ('{"id": "s", "genre": null, "text": "x(A)"}',
         "genre is NoneType, not a string"),
        ('{"id": "s", "genre": "Urban", "text": 5}', "text is int, not a string"),
        ('{"id": "s", "genre": "Urban", "clean_text": ["ab"], "annotations": []}',
         "clean_text is list, not a string"),
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": 1, "symbol": ["Q"]}]}',
         "symbol is list, not a string"),
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": 2.9, "symbol": "Q"}]}',
         "offset is float, not an int"),
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": "3", "symbol": "Q"}]}',
         "offset is str, not an int"),
        ('{"id": "s", "genre": "Urban", "clean_text": "abcd", '
         '"annotations": [{"offset": true, "symbol": "Q"}]}',
         "offset is bool, not an int"),
        ('{"id": [], "genre": "Urban", "text": "x"}',
         "id is list, not a string or an int"),
        ('{"id": {"a": 1}, "genre": "Urban", "text": "x"}',
         "id is dict, not a string or an int"),
        ('{"id": true, "genre": "Urban", "text": "x"}',
         "id is bool, not a string or an int"),
        ('{"id": 2.5, "genre": "Urban", "text": "x"}',
         "id is float, not a string or an int"),
        ('{"id": null, "genre": "Urban", "text": "x"}',
         "id is NoneType, not a string or an int"),
        ('{"genre": "Urban", "text": "x"}', "id is missing"),
        ('{"id": "", "genre": "Urban", "text": "x"}', "id is empty"),
        ('{"id": "s", "text": "x"}', "genre is missing"),
        ('{"id": "s", "genre": "Urban"}', "clean_text is missing"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", "annotations": ""}',
         "annotations is str, not a list"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", "annotations": {}}',
         "annotations is dict, not a list"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", "annotations": 5}',
         "annotations is int, not a list"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", "annotations": [5]}',
         "annotations[0] is int, not an object"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", '
         '"annotations": [{"symbol": "Q"}]}', "offset is missing"),
        ('{"id": "s", "genre": "Urban", "clean_text": "ab", '
         '"annotations": [{"offset": 1}]}', "symbol is missing"),
    ], ids=["offset-past-clean-text", "offset-form-unknown-symbol", "not-an-object",
            "genre-list", "genre-null", "text-number", "clean-text-list",
            "offset-form-symbol-list", "offset-float", "offset-string", "offset-bool",
            "id-list", "id-object", "id-bool", "id-float", "id-null", "id-missing",
            "id-empty", "genre-missing", "clean-text-missing", "annotations-string",
            "annotations-object", "annotations-number", "annotation-item-number",
            "offset-missing", "symbol-missing"])
    def test_bad_record_names_its_line(self, record, reason):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), record])
        assert str(exc_info.value) == f"malformed record on line 2: {reason}"

    @given(st.sampled_from(sorted(_BASE_RECORDS)), _JSON_VALUES | st.just(_MISSING))
    @example("id", [])
    @example("id", True)
    @example("id", 2.5)
    @example("annotations", "")
    @example("annotations", {})
    @example("annotations", 5)
    @example("annotations", [5])
    @example("offset", _MISSING)
    @example("text", _MISSING)
    @example("id", "\ud800")
    @example("text", "x(A)\udfff")
    def test_each_field_of_each_json_type(self, corpus_path, field, value):
        # A field replaced by a value of any JSON type, or deleted, gives the
        # documented segment or an error that names the file, the line and
        # the field.
        record = json.loads(json.dumps(_BASE_RECORDS[field]))
        holder = record["annotations"][0] if field in ("offset", "symbol") else record
        if value is _MISSING:
            del holder[field]
        else:
            holder[field] = value
        corpus_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        expected = _documented_segment(field, value)
        if expected is not None:
            assert annotation.load_file(corpus_path, load_corpus)[0] == [expected]
            return
        with pytest.raises(MalformedRecord) as exc_info:
            annotation.load_file(corpus_path, load_corpus)
        reason = exc_info.value.reason
        assert str(exc_info.value) == f"{corpus_path}: line 1: {reason}"
        # A record without text is read in the offset form.
        named = "clean_text" if (field, value) == ("text", _MISSING) else field
        assert re.search(rf"\b{named}\b", reason), reason
        assert "object is not" not in reason
        assert not re.fullmatch(r"'[^']*'", reason)

    def test_thousand_entry_corpus(self):
        rng = random.Random(7)
        lines = []
        for i in range(1000):
            syms = [taxonomy.SYMBOLS[(3 * i + j) % 34] for j in range(3)]
            text = "".join(f"情节发展第{j}段({s})" for j, s in enumerate(syms))
            lines.append(json.dumps(
                {"id": f"seg{i:04d}",
                 "genre": annotation.GENRES[rng.randrange(5)],
                 "text": text}, ensure_ascii=False))
        segs = load_corpus(lines, strict=True)
        assert len(segs) == 1000
