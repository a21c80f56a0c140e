import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from narrfunc import paradigm, taxonomy
from narrfunc.paradigm import (
    AltSet,
    LINEAR,
    NONLINEAR,
    builtin_paradigms,
    classify,
    emit_pattern,
    matches,
    mine,
    parse_pattern,
    support,
)
from narrfunc.errors import (
    EmptyCorpus,
    EmptySequence,
    MiningFailed,
    PatternSyntaxError,
    TooFewElements,
    UnknownSymbol,
)


def element_accepts(element, symbol):
    return symbol in (element.options if isinstance(element, AltSet) else (element,))


def oracle_bindings(symbols, pattern):
    """Independent matcher: enumerate every strictly increasing index
    assignment and check anchors plus element membership directly.
    Combinations come in lexicographic order, so the first hit is the
    greedy leftmost assignment."""
    n = len(symbols)
    if n < 2:
        return None
    k = len(pattern.elements)
    for combo in itertools.combinations(range(n), k):
        if combo[0] != 0 or combo[-1] != n - 1:
            continue
        if all(element_accepts(el, symbols[i])
               for el, i in zip(pattern.elements, combo)):
            return list(combo)
    return None


def oracle_matches(symbols, pattern):
    return oracle_bindings(symbols, pattern) is not None


class TestParsePattern:
    def test_battle(self):
        p = parse_pattern("(A)->(Q)->{O/S}")
        assert p.elements == ("A", "Q", AltSet(("O", "S")))
        assert p.connectors == (LINEAR, LINEAR)

    def test_nonlinear(self):
        p = parse_pattern("(Em)~>(Ch)")
        assert p.elements == ("Em", "Ch")
        assert p.connectors == (NONLINEAR,)

    def test_whitespace(self):
        p = parse_pattern(" (W) -> (De) ~> (S) ")
        assert p.connectors == (LINEAR, NONLINEAR)

    def test_dangling_connector(self):
        with pytest.raises((PatternSyntaxError, TooFewElements)):
            parse_pattern("(W)->")

    def test_single_element(self):
        with pytest.raises(TooFewElements):
            parse_pattern("(W)")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_pattern("(A)->(Qx)")

    def test_missing_connector(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("(A)(B)")

    def test_duplicate_alternation_option(self):
        with pytest.raises(PatternSyntaxError) as exc_info:
            parse_pattern("(A)->{O/O}")
        assert exc_info.value.position == 5
        with pytest.raises(ValueError):  # direct construction still checks
            AltSet(("O", "O"))

    def test_emit_round_trip(self):
        for text in ["(A)->(Q)->{O/S}", "(Em)~>(Ch)", "(W)->(De)~>(S)"]:
            p = parse_pattern(text)
            assert emit_pattern(p) == text
            assert parse_pattern(emit_pattern(p)) == p


class TestBuiltins:
    def test_six_patterns(self):
        pats = builtin_paradigms()
        assert [p.plot_label for p in pats] == [
            "battle", "emotional", "difficult_task",
            "adventure", "pretending", "daily_life"]

    def test_battle_shape(self):
        battle = builtin_paradigms()[0]
        assert battle.elements[-1] == AltSet(("O", "S"))

    def test_pretending_connectors(self):
        pretending = builtin_paradigms()[4]
        assert pretending.connectors == (LINEAR, NONLINEAR)


class TestMatches:
    @pytest.fixture
    def battle(self):
        return parse_pattern("(A)->(Q)->{O/S}", plot_label="battle")

    def test_conforming(self, battle):
        assert matches(["A", "F", "H", "K", "Q", "S"], battle) == [0, 4, 5]

    def test_wrong_terminal(self, battle):
        assert matches(["A", "E", "H", "Q"], battle) is None

    def test_emotional(self):
        emotional = parse_pattern("(Em)~>(Ch)")
        assert matches(["Em", "A", "K", "E", "Ch"], emotional) is not None

    def test_interior_must_be_strict(self, battle):
        # Q only at the anchor positions does not satisfy the interior slot
        assert matches(["A", "Q"], battle) is None
        assert matches(["Q", "A", "S"], battle) is None

    def test_length_one_never_matches(self):
        daily = parse_pattern("(A)~>(Ch)")
        assert matches(["A"], daily) is None

    def test_empty_sequence(self, battle):
        with pytest.raises(EmptySequence):
            matches([], battle)

    def test_bindings_strictly_increasing(self, battle):
        assert matches(["A", "Q", "Q", "S"], battle) == [0, 1, 3]


class TestClassify:
    def test_battle_only(self):
        assert classify(["A", "Q", "S"], builtin_paradigms()) == ["battle"]

    def test_minimal_emotional(self):
        assert classify(["Em", "Ch"], builtin_paradigms()) == ["emotional"]

    def test_no_match(self):
        assert classify(["K", "F"], builtin_paradigms()) == []

    def test_multiple_labels_possible(self):
        # daily_life and battle share the A anchor
        labels = classify(["A", "Q", "S", "Ch"], builtin_paradigms())
        assert "daily_life" in labels


SUPPORTS = {
    "battle": Fraction(40, 60),
    "emotional": Fraction(43, 60),
    "difficult_task": Fraction(51, 60),
    "adventure": Fraction(36, 60),
    "pretending": Fraction(42, 60),
    "daily_life": Fraction(53, 60),
}


class TestSupport:
    def test_own_column_thresholds(self, plot_corpora):
        pats = {p.plot_label: p for p in builtin_paradigms()}
        for name, seqs in plot_corpora.items():
            frac = support(seqs, pats[name])
            assert frac == SUPPORTS[name]
            assert frac >= Fraction(3, 5)

    def test_matches_against_oracle_on_fixtures(self, plot_corpora):
        pats = builtin_paradigms()
        for seqs in plot_corpora.values():
            for seq in seqs:
                for p in pats:
                    assert (matches(seq, p) is not None) == \
                        oracle_matches(seq, p)

    def test_all_matching(self):
        assert support([["Em", "Ch"]] * 3, parse_pattern("(Em)~>(Ch)")) == 1

    def test_cross_column(self, plot_corpora):
        emotional = builtin_paradigms()[1]
        expected = Fraction(
            sum(oracle_matches(s, emotional) for s in plot_corpora["battle"]), 60)
        assert support(plot_corpora["battle"], emotional) == expected

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            support([], builtin_paradigms()[0])


symbols_st = st.sampled_from(taxonomy.SYMBOLS)
sequences_st = st.lists(symbols_st, min_size=2, max_size=8)


@given(sequences_st)
def test_anchoring_property(seq):
    battle = parse_pattern("(A)->(Q)->{O/S}")
    if matches(seq, battle) is not None:
        assert seq[0] == "A" and seq[-1] in ("O", "S")


@given(sequences_st)
def test_interior_removal_monotonicity(seq):
    full = parse_pattern("(A)->(K)->(Q)->{O/S}")
    reduced = parse_pattern("(A)->(Q)->{O/S}")
    if matches(seq, full) is not None:
        assert matches(seq, reduced) is not None


@given(sequences_st)
def test_altset_widening(seq):
    narrow = parse_pattern("(A)->(Q)->(S)")
    wide = parse_pattern("(A)->(Q)->{S/O}")
    if matches(seq, narrow) is not None:
        assert matches(seq, wide) is not None


@st.composite
def corpus_and_patterns(draw):
    """Sequences of 0-12 symbols over a 3-5 symbol alphabet, and 1-3
    labelled patterns of 2-5 elements mixing symbols and AltSets."""
    alphabet = draw(st.lists(symbols_st, min_size=3, max_size=5, unique=True))
    letter = st.sampled_from(alphabet)
    element = st.one_of(
        letter,
        st.lists(letter, min_size=2, max_size=3, unique=True).map(
            lambda options: AltSet(tuple(options))))
    patterns = []
    for i in range(draw(st.integers(1, 3))):
        elements = draw(st.lists(element, min_size=2, max_size=5))
        connectors = draw(st.lists(st.sampled_from((LINEAR, NONLINEAR)),
                                   min_size=len(elements) - 1,
                                   max_size=len(elements) - 1))
        patterns.append(paradigm.ParadigmPattern(
            tuple(elements), tuple(connectors), plot_label=f"p{i}"))
    seqs = draw(st.lists(st.lists(letter, max_size=12), min_size=1, max_size=8))
    return seqs, patterns


@given(corpus_and_patterns())
def test_matchers_against_oracle(case):
    seqs, patterns = case
    for seq in seqs:
        if not seq:
            with pytest.raises(EmptySequence):
                matches(seq, patterns[0])
            with pytest.raises(EmptySequence):
                classify(seq, patterns)
            continue
        expected = []
        for p in patterns:
            bindings = oracle_bindings(seq, p)
            for form in (seq, tuple(seq)):
                assert matches(form, p) == bindings
            if len(seq) == 1:
                assert matches(seq, p) is None
            if bindings is not None:
                expected.append(p.plot_label)
        assert classify(seq, patterns) == expected
        assert classify(tuple(seq), patterns) == expected
    nonempty = [s for s in seqs if s]
    for p in patterns:
        if any(not s for s in seqs):
            with pytest.raises(EmptySequence):
                support(seqs, p)
        if nonempty:
            hits = sum(oracle_matches(s, p) for s in nonempty)
            assert support(nonempty, p) == Fraction(hits, len(nonempty))
            assert support(list(map(tuple, nonempty)), p) == \
                Fraction(hits, len(nonempty))


def test_compiled_sets_stay_out_of_eq_and_repr():
    a = parse_pattern("(A)->(Q)->{O/S}", plot_label="battle")
    b = paradigm.ParadigmPattern(("A", "Q", AltSet(("O", "S"))),
                                 (LINEAR, LINEAR), "battle")
    assert a == b
    assert repr(a) == repr(b)
    assert "frozenset" not in repr(a)
    assert a.elements[-1].options == ("O", "S")
    assert emit_pattern(a) == "(A)->(Q)->{O/S}"


class TestMine:
    def test_battle_column(self, plot_corpora):
        mined = mine(plot_corpora["battle"], Fraction(3, 5), 2)
        assert mined.elements[0] == "A"
        assert "Q" in mined.elements[1:-1]
        assert isinstance(mined.elements[-1], AltSet)
        assert set(mined.elements[-1].options) == {"S", "O"}
        assert support(plot_corpora["battle"], mined) >= Fraction(3, 5)

    def test_emotional_column(self, plot_corpora):
        mined = mine(plot_corpora["emotional"], Fraction(3, 5), 2)
        assert emit_pattern(mined) == "(Em)~>(Ch)"
        assert support(plot_corpora["emotional"], mined) >= Fraction(3, 5)

    def test_uniform_corpus(self):
        seqs = [["A", "B", "C"]] * 5
        mined = mine(seqs, Fraction(1), 1)
        assert emit_pattern(mined) == "(A)->(B)->(C)"
        assert support(seqs, mined) == 1

    def test_self_consistency_all_columns(self, plot_corpora):
        for seqs in plot_corpora.values():
            mined = mine(seqs, Fraction(3, 5), 2)
            assert support(seqs, mined) >= Fraction(3, 5)

    def test_anchor_frequencies_against_brute_force(self, plot_corpora):
        # start anchor of the battle column is its modal first symbol
        firsts = [s[0] for s in plot_corpora["battle"]]
        modal = max(set(firsts), key=firsts.count)
        mined = mine(plot_corpora["battle"], Fraction(3, 5), 2)
        assert mined.elements[0] == modal

    def test_interior_from_anchor_conforming_sequences_only(self):
        # Y is in 2 of the 3 sequences that end on S, but in only 2 of 5
        # overall; taking it makes the linear candidate fall short.
        seqs = [["A", "K", "Y", "S"]] * 2 + [["A", "K", "S"]] + [["A", "B"]] * 2
        assert emit_pattern(mine(seqs, Fraction(3, 5), 1)) == "(A)~>(S)"

    def test_mining_failed(self):
        # 4 distinct first symbols, max_alt 1, threshold 1.0
        seqs = [["A", "Z"], ["B", "Z"], ["C", "Z"], ["D", "Z"]]
        with pytest.raises(MiningFailed):
            mine(seqs, Fraction(1), 1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            mine([], Fraction(1, 2), 1)

    # 1e-9 is in (0, 1] but rounds to 0 at the 10**-6 resolution.
    @pytest.mark.parametrize("min_support", [
        float("inf"), float("-inf"), float("nan"), 0, 1.5, 1e-9])
    def test_support_out_of_range(self, min_support):
        with pytest.raises(ValueError, match=r"min_support must be in \(0, 1\]"):
            mine([["A", "S"]], min_support, 1)
