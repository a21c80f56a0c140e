import itertools
from fractions import Fraction
from statistics import median

import pytest
from hypothesis import given, strategies as st

from narrfunc import paradigm, taxonomy
from narrfunc.paradigm import (
    AltSet,
    LINEAR,
    NONLINEAR,
    ParadigmPattern,
    builtin_paradigms,
    classify,
    emit_pattern,
    matches,
    mine,
    parse_pattern,
    support,
)
from narrfunc.errors import MiningFailed, PatternSyntaxError

from conftest import exactly


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
        with pytest.raises(PatternSyntaxError, match=exactly(
                "pattern syntax error at 5: dangling connector")):
            parse_pattern("(W)->")

    def test_single_element(self):
        # The shape rule is ParadigmPattern's; the parser adds the position.
        with pytest.raises(PatternSyntaxError, match=exactly(
                "pattern syntax error at 3: pattern has 1 element(s), need >= 2")):
            parse_pattern("(W)")

    def test_unknown_symbol(self):
        # The symbol rule is taxonomy's; the parser adds the position.
        with pytest.raises(PatternSyntaxError) as exc_info:
            parse_pattern("(A)->(Qx)")
        assert exc_info.value.position == 5
        assert exc_info.value.reason == "unknown function symbol 'Qx'"

    def test_missing_connector(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("(A)(B)")

    @pytest.mark.parametrize("text, message", [
        ("(A)->x", "pattern syntax error at 5: unexpected input 'x'"),
        ("->(A)", "pattern syntax error at 0: connector without element"),
        ("(A)->{O}", "pattern syntax error at 5: alternation needs >= 2 symbols"),
        ("", "pattern syntax error at 0: empty pattern"),
        ("(A)->(Qx)", "pattern syntax error at 5: unknown function symbol 'Qx'"),
        ("(A)->{O/Qx}", "pattern syntax error at 5: unknown function symbol 'Qx'"),
        ("(Qx)~>(A)", "pattern syntax error at 0: unknown function symbol 'Qx'"),
    ])
    def test_syntax_error_message(self, text, message):
        with pytest.raises(PatternSyntaxError) as exc_info:
            parse_pattern(text)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("build, error, message", [
        (lambda: AltSet(("A",)), ValueError, "alternation needs >= 2 symbols"),
        (lambda: ParadigmPattern(("A",), ()), ValueError,
         "pattern has 1 element(s), need >= 2"),
        (lambda: ParadigmPattern(("A", "S"), ()), ValueError,
         "connector count must be element count - 1"),
    ], ids=["one-option", "one-element", "connector-count"])
    def test_direct_construction_checks(self, build, error, message):
        with pytest.raises(error) as exc_info:
            build()
        assert str(exc_info.value) == message

    def test_duplicate_alternation_option(self):
        with pytest.raises(PatternSyntaxError) as exc_info:
            parse_pattern("(A)->{O/O}")
        assert exc_info.value.position == 5
        assert exc_info.value.reason == "alternation options must be distinct"
        with pytest.raises(ValueError) as exc_info:  # AltSet owns the rule
            AltSet(("O", "O"))
        assert str(exc_info.value) == "alternation options must be distinct"

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
        with pytest.raises(ValueError, match=exactly("cannot match an empty sequence")):
            matches([], battle)

    def test_bindings_strictly_increasing(self, battle):
        assert matches(["A", "Q", "Q", "S"], battle) == [0, 1, 3]


class TestClassify:
    def test_battle_only(self):
        assert classify([["A", "Q", "S"]], builtin_paradigms()) == [["battle"]]

    def test_minimal_emotional(self):
        assert classify([["Em", "Ch"]], builtin_paradigms()) == [["emotional"]]

    def test_no_match(self):
        assert classify([["K", "F"]], builtin_paradigms()) == [[]]

    def test_multiple_labels_possible(self):
        # daily_life and battle share the A anchor
        [labels] = classify([["A", "Q", "S", "Ch"]], builtin_paradigms())
        assert "daily_life" in labels

    def test_equal_verdicts_share_one_list(self):
        verdicts = classify([["A", "Q", "S"], ["K", "F"], ["A", "K", "Q", "O"],
                             ["F", "K"]], builtin_paradigms())
        assert verdicts == [["battle"], [], ["battle"], []]
        assert verdicts[0] is verdicts[2] and verdicts[1] is verdicts[3]

    def test_empty_sequence_with_no_patterns(self):
        # No pattern reaches the kernel, so nothing raises, as before.
        assert classify([[], ["A"]], []) == [[], []]


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
        with pytest.raises(ValueError, match=exactly("support over an empty corpus")):
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


EMPTY_SEQUENCE = "cannot match an empty sequence"


@given(corpus_and_patterns())
def test_matchers_against_oracle(case):
    seqs, patterns = case
    for seq in seqs:
        if not seq:
            with pytest.raises(ValueError, match=exactly(EMPTY_SEQUENCE)):
                matches(seq, patterns[0])
            with pytest.raises(ValueError, match=exactly(EMPTY_SEQUENCE)):
                classify([seq], patterns)
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
        assert classify([seq], patterns) == [expected]
        assert classify([tuple(seq)], patterns) == [expected]
    nonempty = [s for s in seqs if s]
    for p in patterns:
        if any(not s for s in seqs):
            with pytest.raises(ValueError, match=exactly(EMPTY_SEQUENCE)):
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
        mined = mine(plot_corpora["battle"], Fraction(3, 5), 2).pattern
        assert mined.elements[0] == "A"
        assert "Q" in mined.elements[1:-1]
        assert isinstance(mined.elements[-1], AltSet)
        assert set(mined.elements[-1].options) == {"S", "O"}
        assert support(plot_corpora["battle"], mined) >= Fraction(3, 5)

    def test_emotional_column(self, plot_corpora):
        mined = mine(plot_corpora["emotional"], Fraction(3, 5), 2).pattern
        assert emit_pattern(mined) == "(Em)~>(Ch)"
        assert support(plot_corpora["emotional"], mined) >= Fraction(3, 5)

    def test_uniform_corpus(self):
        seqs = [["A", "B", "C"]] * 5
        mined = mine(seqs, Fraction(1), 1).pattern
        assert emit_pattern(mined) == "(A)->(B)->(C)"
        assert support(seqs, mined) == 1

    def test_self_consistency_all_columns(self, plot_corpora):
        for seqs in plot_corpora.values():
            mined = mine(seqs, Fraction(3, 5), 2).pattern
            assert support(seqs, mined) >= Fraction(3, 5)

    def test_anchor_frequencies_against_brute_force(self, plot_corpora):
        # start anchor of the battle column is its modal first symbol
        firsts = [s[0] for s in plot_corpora["battle"]]
        modal = max(set(firsts), key=firsts.count)
        mined = mine(plot_corpora["battle"], Fraction(3, 5), 2).pattern
        assert mined.elements[0] == modal

    def test_interior_from_anchor_conforming_sequences_only(self):
        # Y is in 2 of the 3 sequences that end on S, but in only 2 of 5
        # overall; taking it makes the linear candidate fall short.
        seqs = [["A", "K", "Y", "S"]] * 2 + [["A", "K", "S"]] + [["A", "B"]] * 2
        assert emit_pattern(mine(seqs, Fraction(3, 5), 1).pattern) == "(A)~>(S)"

    def test_mining_failed(self):
        # 4 distinct first symbols, max_alt 1, threshold 1.0
        seqs = [["A", "Z"], ["B", "Z"], ["C", "Z"], ["D", "Z"]]
        with pytest.raises(MiningFailed):
            mine(seqs, Fraction(1), 1)

    @pytest.mark.parametrize("seqs, max_alt, error, message", [
        ([["A", "S"]], 0, ValueError, "max_alt must be >= 1"),
        ([["A"], ["S"]], 1, MiningFailed, "no sequence long enough to carry two anchors"),
        # Each anchor alone covers 2 of 4 sequences; together they cover 1.
        ([["A", "E", "B"], ["A", "F", "C"], ["D", "G", "B"], ["D", "H", "C"]], 1,
         MiningFailed, "anchors reach support individually but not jointly"),
    ], ids=["max-alt-0", "all-length-1", "anchors-not-joint"])
    def test_mine_refuses(self, seqs, max_alt, error, message):
        with pytest.raises(error) as exc_info:
            mine(seqs, Fraction(1, 2), max_alt)
        assert str(exc_info.value) == message

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match=exactly("mining over an empty corpus")):
            mine([], Fraction(1, 2), 1)

    # 1e-9 is in (0, 1] but rounds to 0 at the 10**-6 resolution.
    @pytest.mark.parametrize("min_support", [
        float("inf"), float("-inf"), float("nan"), 0, 1.5, 1e-9])
    def test_support_out_of_range(self, min_support):
        with pytest.raises(ValueError, match=r"min_support must be in \(0, 1\]"):
            mine([["A", "S"]], min_support, 1)


# Oracles: the per-sequence classify, and the mine that counted each
# support over the whole corpus, which the anchor-pair index and the
# projected counts replaced.
def loop_classify(seq, patterns):
    return [p.plot_label for p in patterns if matches(seq, p) is not None]


def loop_support(seqs, pattern):
    seqs = list(seqs)
    if not seqs:
        raise ValueError("support over an empty corpus")
    hits = sum(matches(s, pattern) is not None for s in seqs)
    return Fraction(hits, len(seqs))


def loop_mine(seqs, min_support, max_alt):
    seqs = list(seqs)
    if not seqs:
        raise ValueError("mining over an empty corpus")
    min_support = 0 < min_support <= 1 and Fraction(min_support).limit_denominator(10**6)
    if not min_support:
        raise ValueError("min_support must be in (0, 1]")
    if max_alt < 1:
        raise ValueError("max_alt must be >= 1")
    n = len(seqs)
    usable = [s for s in seqs if len(s) >= 2]
    if not usable:
        raise MiningFailed("no sequence long enough to carry two anchors")
    start = paradigm._mine_anchor([s[0] for s in usable], n, min_support, max_alt)
    end = paradigm._mine_anchor([s[-1] for s in usable], n, min_support, max_alt)
    fallback = ParadigmPattern((start, end), (NONLINEAR,))
    conforming = [s for s in usable
                  if element_accepts(start, s[0]) and element_accepts(end, s[-1])]
    positions = {}
    for s in conforming:
        span = len(s) - 1
        seen = {}
        for i in range(1, span):
            seen.setdefault(s[i], i / span)
        for symbol, rel in seen.items():
            positions.setdefault(symbol, []).append(rel)
    interior = [symbol for symbol, rels in positions.items()
                if Fraction(len(rels), len(conforming)) >= min_support]
    interior.sort(key=lambda symbol: (median(positions[symbol]), symbol))
    if interior:
        candidate = ParadigmPattern((start, *interior, end),
                                    (LINEAR,) * (len(interior) + 1))
        if loop_support(seqs, candidate) >= min_support:
            return candidate
    if loop_support(seqs, fallback) >= min_support:
        return fallback
    raise MiningFailed("anchors reach support individually but not jointly")


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except (ValueError, MiningFailed) as exc:
        return type(exc), str(exc)


@given(corpus_and_patterns())
def test_classify_and_support_equal_loop_oracles(case):
    seqs, patterns = case
    for form in (seqs, [tuple(s) for s in seqs]):
        verdicts = _outcome(classify, form, patterns)
        assert verdicts == _outcome(
            lambda: [loop_classify(s, patterns) for s in form])
        if isinstance(verdicts, list):
            assert len(set(map(id, verdicts))) == len(set(map(tuple, verdicts)))
        for p in patterns:
            assert _outcome(support, form, p) == _outcome(loop_support, form, p)


def test_shared_anchor_symbol_needs_two_positions():
    # Both anchors accept A, yet one position cannot bind both.
    patterns = [parse_pattern("(A)->(A)", plot_label="aa"),
                parse_pattern("{A/B}~>{B/A}", plot_label="ab")]
    assert classify([["A"], ["A", "A"], ["B"], ["A", "B"]], patterns) == [
        [], ["aa", "ab"], [], ["ab"]]
    assert support([["A"], ["A", "A"]], patterns[0]) == Fraction(1, 2)


# classify decides two- and three-element patterns by their shape, without
# the kernel; these are the edges of that rule, against the loop oracle.
@pytest.mark.parametrize("pattern, seq, expected", [
    # The interior symbol occurs only at an anchor position.
    ("(A)->(A)->(A)", "A-A", False),
    ("(A)->(A)->(A)", "A-A-A", True),
    ("(A)->(A)->(A)", "A-B-A", False),
    ("(A)->(S)->(S)", "A-S", False),
    ("(A)->(S)->(S)", "A-K-S", False),
    ("(A)->(S)->(S)", "A-K-S-S", True),
    # An AltSet as the one interior element.
    ("(A)->{B/C}->(D)", "A-C-D", True),
    ("(A)->{B/C}->(D)", "A-K-B-K-D", True),
    ("(A)->{B/C}->(D)", "A-K-D", False),
    ("(A)->{B/C}->(D)", "A-D", False),
    ("(A)->{B/C}->(D)", "A-B-C", False),
    # Length 1 and 2, with anchors that accept the one symbol at both ends.
    ("(A)~>(A)", "A", False),
    ("(A)~>(A)", "A-A", True),
    ("{A/B}~>{B/A}", "B", False),
    ("(A)->(A)->(A)", "A", False),
    ("(A)->(B)->(C)->(A)", "A", False),
    ("(A)->(B)->(C)->(A)", "A-A", False),
    # Four elements still run the kernel, which keeps the interior order.
    ("(A)->(B)->(C)->(A)", "A-C-B-A", False),
    ("(A)->(B)->(C)->(A)", "A-B-C-A", True),
])
def test_shape_rule_edges(pattern, seq, expected):
    p = parse_pattern(pattern, plot_label="p")
    symbols = tuple(seq.split("-"))
    assert oracle_matches(symbols, p) is expected
    assert classify([symbols], [p]) == [loop_classify(symbols, [p])] == [
        ["p"] if expected else []]


def test_anchor_pair_no_pattern_accepts():
    seqs = [("K", "F"), ("K", "Q", "F"), ("F",)]
    assert classify(seqs, builtin_paradigms()) == [[], [], []]
    assert [loop_classify(s, builtin_paradigms()) for s in seqs] == [[], [], []]


# mine takes a one-interior candidate's hits from the position pass; the
# interior symbol here also sits at an anchor, where it must not count.
@pytest.mark.parametrize("seqs, emitted", [
    (["A-A-S", "A-A-S", "A-A-A-S", "A-B-S", "A-S"], "(A)->(A)->(S)"),
    (["A-S-S", "A-S-S", "A-K-S-S", "A-K-S", "A-S"], "(A)->(S)->(S)"),
    (["A-A", "A-A-A", "A-A-A", "A-B-A", "A-A-A-A", "A"], "(A)->(A)->(A)"),
], ids=["start-anchor", "end-anchor", "both-anchors"])
def test_mine_one_interior_at_an_anchor(seqs, emitted):
    seqs = [tuple(s.split("-")) for s in seqs]
    mined = mine(seqs, Fraction(1, 2), 1)
    assert emit_pattern(mined.pattern) == emitted
    assert mined.pattern == loop_mine(seqs, Fraction(1, 2), 1)
    assert mined.support == loop_support(seqs, mined.pattern)


@st.composite
def mining_corpus(draw):
    """1-12 sequences over a 3-4 symbol alphabet: copies of one template
    with 0-3 symbols inserted after its first, or free sequences of 0-7
    symbols (empty and length-1 ones included)."""
    alphabet = draw(st.lists(symbols_st, min_size=3, max_size=4, unique=True))
    letter = st.sampled_from(alphabet)
    template = draw(st.lists(letter, min_size=2, max_size=6))
    near = st.lists(letter, max_size=3).map(
        lambda extra: template[:1] + extra + template[1:])
    return draw(st.lists(st.one_of(near, st.lists(letter, max_size=7)),
                         min_size=1, max_size=12))


@given(mining_corpus(),
       st.sampled_from((Fraction(1, 5), Fraction(2, 5), Fraction(1, 2),
                        Fraction(3, 5), Fraction(4, 5), 1)),
       st.integers(1, 3))
def test_mine_equals_loop_oracle(seqs, min_support, max_alt):
    # mine hands back the support it counted and the threshold it applied.
    expected = _outcome(loop_mine, seqs, min_support, max_alt)
    for form in (seqs, [tuple(s) for s in seqs]):
        mined = _outcome(mine, form, min_support, max_alt)
        if not isinstance(mined, paradigm.Mined):
            assert mined == expected
            continue
        assert mined.pattern == expected
        assert mined.support == loop_support(seqs, expected)
        assert mined.min_support == Fraction(min_support).limit_denominator(10**6)
