import json
import random

import pytest
from hypothesis import given, strategies as st

from narrfunc import annotation, taxonomy
from narrfunc.annotation import (
    AnnotatedSegment,
    Annotation,
    emit_inline,
    extract_symbols,
    load_corpus,
    parse_inline,
    parse_sequence_string,
    sequence_of,
    validate_coverage,
)
from narrfunc.errors import (
    DuplicateId,
    InvalidGenre,
    MalformedRecord,
    ParenthesizedUnknownToken,
    UnknownSymbol,
)


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
                ["K", "J", "K", "De", "E", "Fa", "Lo"],
                ["A", "Re", "G", "F"])):
            seg = AnnotatedSegment("x", "Fantasy", *parse_inline(text))
            assert sequence_of(seg) == expected

    def test_empty(self):
        seg = AnnotatedSegment("x", "Fantasy", "text", [])
        assert sequence_of(seg) == []


class TestExtractSymbols:
    def test_inline_markers_win(self):
        assert extract_symbols("found it (K)\nA-Q-S") == ["K"]

    def test_only_the_last_nonempty_line_is_read(self):
        assert extract_symbols("A-Q-S\nno structure here\n\n") == []


class TestParseSequenceString:
    def test_episodes_examples(self):
        assert parse_sequence_string("A-Lo-E-Q-P-S") == \
            ["A", "Lo", "E", "Q", "P", "S"]
        assert len(parse_sequence_string("A-J-E-Lo-M-N-O")) == 7

    def test_whitespace_tolerated(self):
        assert parse_sequence_string(" A - Lo -E ") == ["A", "Lo", "E"]

    def test_invalid_token(self):
        with pytest.raises(UnknownSymbol) as exc_info:
            parse_sequence_string("A-Qx-S")
        assert exc_info.value.token == "Qx"
        assert exc_info.value.position == 1

    def test_blank(self):
        assert parse_sequence_string("") == []

    def test_round_trip(self):
        seq = parse_sequence_string("A-J-E-Q-M-N-O")
        assert parse_sequence_string("-".join(seq)) == seq

    @pytest.mark.parametrize("text", ["Em-Lo-Ch", " Em - Lo -Ch "])
    def test_symbols_are_the_registry_strings(self, text):
        # Both the fast and the padded path hand out the registry's objects,
        # as do the sequence loader and extraction's hyphen-line path.
        registry = {id(s) for s in taxonomy.SYMBOLS}
        for symbols in (parse_sequence_string(text),
                        *annotation.load_sequences(["# header", text, ""]),
                        extract_symbols(f"Episode outline:\n{text}\n")):
            assert type(symbols) is list
            assert symbols == ["Em", "Lo", "Ch"]
            assert all(id(s) in registry for s in symbols)


def _record(i, genre="Fantasy", text="开场(A)结尾(S)"):
    return json.dumps({"id": f"s{i}", "genre": genre, "text": text},
                      ensure_ascii=False)


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

    def test_invalid_genre(self):
        with pytest.raises(InvalidGenre):
            load_corpus([_record(1, genre="SciFi")])

    def test_city_alias(self):
        seg = load_corpus([_record(1, genre="City")])[0]
        assert seg.genre == "Urban"

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            load_corpus([_record(1), _record(1)])

    def test_malformed_json(self):
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus([_record(1), "{not json"])
        assert exc_info.value.line_no == 2

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
        with pytest.raises(ParenthesizedUnknownToken):
            load_corpus([_record(1, text="文本(Zz)")], strict=True)

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
        assert validate_coverage(segs).passed


class TestValidateCoverage:
    def _corpus(self, per_symbol=4):
        segs = []
        for r in range(per_symbol):
            for s in taxonomy.SYMBOLS:
                segs.append(AnnotatedSegment(
                    f"{s}-{r}", "Fantasy", "文", [Annotation(1, s)]))
        return segs

    def test_full_coverage_passes(self):
        report = validate_coverage(self._corpus())
        assert report.passed and not report.failing

    def test_missing_symbol_fails(self):
        segs = [s for s in self._corpus() if s.annotations[0].symbol != "Fi"]
        report = validate_coverage(segs)
        assert not report.passed
        assert report.counts["Fi"] == 0
        assert report.failing == ["Fi"]

    def test_empty_corpus(self):
        report = validate_coverage([])
        assert not report.passed
        assert all(c == 0 for c in report.counts.values())
