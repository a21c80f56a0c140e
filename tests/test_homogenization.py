import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from narrfunc import taxonomy
from narrfunc.annotation import AnnotatedSegment, Annotation, parse_inline
from narrfunc.homogenization import (
    EpisodeSet,
    _edit_kernel,
    _layout,
    _lcs_kernel,
    _method,
    analyze_episodes,
    frequency_profile,
    sample_windows,
)

from conftest import exactly


def oracle_edit_distance(a, b):
    """Textbook full-matrix DP, kept independent of the library version."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def oracle_lcs_length(a, b):
    """Textbook full-matrix LCS DP, kept independent of the library version."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[len(a)][len(b)]


def oracle_similarity(a, b, method):
    longest = max(len(a), len(b))
    if method == "edit":
        return 1 - oracle_edit_distance(a, b) / longest
    return oracle_lcs_length(a, b) / longest


def one_block(a, b, method="edit"):
    """*method*'s production kernel and float expression on one pair: the
    longer of *a*, *b* as a one-block layout, the other one scanned.
    Returns the edit distance or LCS length, and the similarity (None if
    both are empty)."""
    kernel, similarity = _method(method)
    if len(a) < len(b):
        a, b = b, a
    [result] = kernel(*_layout([a]), b)
    return result, similarity(result, len(a)) if a else None


# Two- and three-symbol alphabets make matches dense; the full registry
# makes them sparse.
ALPHABETS = st.sampled_from(
    [taxonomy.SYMBOLS[:2], taxonomy.SYMBOLS[:3], taxonomy.SYMBOLS])


def symbol_lists(alphabet, min_size=0, max_size=200):
    return st.lists(st.sampled_from(alphabet), min_size=min_size,
                    max_size=max_size)


@st.composite
def sequence_pairs(draw, min_size=0):
    alphabet = draw(ALPHABETS)
    return (draw(symbol_lists(alphabet, min_size)),
            draw(symbol_lists(alphabet, min_size)))


@st.composite
def episode_lists(draw):
    alphabet = draw(ALPHABETS)
    return draw(st.lists(symbol_lists(alphabet, 1, 60), min_size=2,
                         max_size=6))


# Episode lengths at and around the edges of 64-bit words.
EDGE_LENGTHS = (1, 63, 64, 65, 127, 128, 129)


@st.composite
def packed_episode_sets(draw):
    """2-16 episodes over 1, 2 or 34 symbols, lengths short or at a word edge
    (often tied); sometimes all identical, sometimes one that shares no
    symbol with the others."""
    alphabet = draw(st.sampled_from(
        [taxonomy.SYMBOLS[:1], taxonomy.SYMBOLS[:2], taxonomy.SYMBOLS]))
    n = draw(st.integers(2, 16))
    loner = draw(st.booleans()) and len(alphabet) > 1
    shared = alphabet[:-1] if loner else alphabet
    lengths = draw(st.lists(st.one_of(st.integers(1, 8), st.sampled_from(EDGE_LENGTHS)),
                            min_size=n, max_size=n))
    episodes = [draw(symbol_lists(shared, m, m)) for m in lengths]
    if draw(st.booleans()):
        episodes = [episodes[0]] * n
    elif loner:
        episodes[draw(st.integers(0, n - 1))] = [alphabet[-1]] * lengths[0]
    return episodes


def edge_episodes(alphabet, seed=0):
    """One episode at each edge length, plus a tie at 64 and one at 1."""
    rng = random.Random(seed)
    return [[rng.choice(alphabet) for _ in range(m)] for m in (*EDGE_LENGTHS, 64, 1)]


def expected_matrix(episodes, similarity):
    """The pairwise matrix and mean of a per-pair loop in i < j order."""
    n = len(episodes)
    matrix = [[1.0] * n for _ in range(n)]
    upper = []
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = similarity(episodes[i], episodes[j])
            upper.append(matrix[i][j])
    return matrix, sum(upper) / len(upper)


class TestPackedKernels:
    @settings(deadline=None, max_examples=30)  # the DP oracle is slow
    @given(packed_episode_sets(), st.sampled_from(["edit", "lcs"]))
    @example(edge_episodes(taxonomy.SYMBOLS[:1]), "lcs")
    @example(edge_episodes(taxonomy.SYMBOLS[:2]), "edit")
    @example(edge_episodes(taxonomy.SYMBOLS), "lcs")
    @example([*edge_episodes(taxonomy.SYMBOLS[:2]), ["S"] * 65], "edit")
    @example([edge_episodes(taxonomy.SYMBOLS)[3]] * 4, "edit")
    def test_analyze_episodes_equals_pairwise_loop(self, episodes, method):
        # One scan per episode against a packed layout gives the floats of
        # one single-pair scan per pair, and of the full DP.
        report = analyze_episodes(EpisodeSet(episodes), method=method)
        for similarity in (lambda a, b: one_block(a, b, method)[1],
                           lambda a, b: oracle_similarity(a, b, method)):
            assert (report.pairwise, report.mean_similarity) == expected_matrix(
                episodes, similarity)


class TestKernelsAgainstOracles:
    @given(sequence_pairs())
    def test_edit_distance(self, pair):
        a, b = pair
        assert _method("edit")[0] is _edit_kernel
        assert one_block(a, b, "edit")[0] == oracle_edit_distance(a, b)

    @given(sequence_pairs())
    def test_lcs_length(self, pair):
        a, b = pair
        assert _method("lcs")[0] is _lcs_kernel
        assert one_block(a, b, "lcs")[0] == oracle_lcs_length(a, b)

    @given(sequence_pairs(min_size=1), st.sampled_from(["edit", "lcs"]))
    def test_seq_similarity(self, pair, method):
        a, b = pair
        assert one_block(a, b, method)[1] == oracle_similarity(a, b, method)

    @given(episode_lists(), st.sampled_from(["edit", "lcs"]))
    def test_analyze_episodes_matrix(self, episodes, method):
        report = analyze_episodes(EpisodeSet(episodes), method=method)
        assert (report.pairwise, report.mean_similarity) == expected_matrix(
            episodes, lambda a, b: oracle_similarity(a, b, method))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analyze_episodes(EpisodeSet([["A"], ["K"]]), method="hamming")


class TestSeqSimilarity:
    def test_identical(self):
        assert one_block(["A", "K"], ["A", "K"])[1] == 1.0

    def test_single_substitution(self):
        a = ["A", "J", "E", "Lo", "M", "N", "O"]
        b = ["A", "J", "E", "Q", "M", "N", "O"]
        assert oracle_edit_distance(a, b) == 1
        assert one_block(a, b)[1] == pytest.approx(6 / 7)

    def test_fully_disjoint(self):
        assert one_block(["A", "B", "C"], ["X", "Y", "Z"])[1] == 0.0

    def test_lcs_variant(self):
        assert one_block(["A", "B", "C"], ["A", "X", "C"],
                         "lcs")[1] == pytest.approx(2 / 3)
        assert one_block(["A", "B", "C", "D"], ["B", "D"], "lcs")[0] == 2

    @given(st.lists(st.sampled_from(taxonomy.SYMBOLS), min_size=1, max_size=8),
           st.lists(st.sampled_from(taxonomy.SYMBOLS), min_size=1, max_size=8))
    def test_symmetry_bounds_and_oracle(self, a, b):
        distance, sim = one_block(a, b)
        assert distance == oracle_edit_distance(a, b)
        assert sim == one_block(b, a)[1]
        assert 0.0 <= sim <= 1.0
        assert one_block(a, a)[1] == 1.0


class TestAnalyzeEpisodes:
    def test_doubao_fixture(self, episode_sets):
        report = analyze_episodes(EpisodeSet(episode_sets["doubao"]))
        assert report.first_marker_consistency == 1.0
        assert report.last_marker_consistency == 1.0
        # 10 pairs: 4 identical, 6 with one substitution out of 7
        assert report.mean_similarity == pytest.approx(32 / 35, abs=1e-3)

    def test_identical_episodes(self):
        episodes = [["A", "K", "Q", "S"]] * 5
        report = analyze_episodes(EpisodeSet(episodes))
        assert report.mean_similarity == 1.0
        assert report.entropy_bits == pytest.approx(2.0)  # 4 equiprobable symbols
        assert all(v == 1.0 for row in report.pairwise for v in row)

    def test_matrix_shape(self, episode_sets):
        report = analyze_episodes(EpisodeSet(episode_sets["deepseek"]))
        n = len(episode_sets["deepseek"])
        assert len(report.pairwise) == n
        for i in range(n):
            assert report.pairwise[i][i] == 1.0
            for j in range(n):
                assert report.pairwise[i][j] == report.pairwise[j][i]

    def test_entropy_bound(self, episode_sets):
        for seqs in episode_sets.values():
            report = analyze_episodes(EpisodeSet(seqs))
            assert report.entropy_bits <= math.log2(34) + 1e-9

    def test_reorder_invariance(self, episode_sets):
        seqs = episode_sets["qwen"]
        base = analyze_episodes(EpisodeSet(seqs))
        shuffled = analyze_episodes(EpisodeSet(list(reversed(seqs))))
        assert shuffled.mean_similarity == pytest.approx(base.mean_similarity)
        assert shuffled.entropy_bits == pytest.approx(base.entropy_bits)
        assert shuffled.first_marker_consistency == base.first_marker_consistency

    def test_random_baseline_scores_lower(self, episode_sets):
        doubao = analyze_episodes(EpisodeSet(episode_sets["doubao"])).mean_similarity
        wins = 0
        for trial in range(100):
            rng = random.Random(1000 + trial)
            episodes = [
                [taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(7)]
                for _ in range(5)]
            if analyze_episodes(EpisodeSet(episodes)).mean_similarity < doubao:
                wins += 1
        assert wins >= 99

    def test_too_few_episodes(self):
        with pytest.raises(ValueError, match=exactly("need at least 2 episodes")):
            analyze_episodes(EpisodeSet([["A", "K"]]))

    def test_empty_episode(self):
        with pytest.raises(ValueError, match=exactly("episodes must be nonempty")):
            analyze_episodes(EpisodeSet([["A", "K"], []]))


class TestFrequencyProfile:
    def test_total_332(self):
        # 332 occurrences spread over the registry
        seqs = []
        for i in range(332):
            seqs.append([taxonomy.SYMBOLS[i % 34]])
        extra = [taxonomy.SYMBOLS[i] for i in range(332 - 34 * 9)]
        profile = frequency_profile(seqs)
        assert profile.total == 332
        assert profile.mean == pytest.approx(332 / 34, abs=0.01)

    def test_threshold_rule(self):
        # one symbol dominates; mean is total/34
        seqs = [["K"] * 12, ["E"] * 5]
        profile = frequency_profile(seqs)
        assert profile.total == 17
        assert "K" in profile.common_set  # 12 > 17/34
        assert "E" in profile.common_set  # 5 > 0.5
        assert "A" in profile.rare_set

    def test_empty(self):
        profile = frequency_profile([])
        assert profile.total == 0
        assert profile.common_set == frozenset()
        assert len(profile.rare_set) == 34

    @given(st.lists(st.integers(0, 400), min_size=34, max_size=34))
    @example([5] * 34)  # every count equal to the mean: none is common
    def test_partition_property_random_profiles(self, weights):
        seqs = [[s] * w for s, w in zip(taxonomy.SYMBOLS, weights)]
        profile = frequency_profile(seqs)
        total = sum(weights)
        assert profile.total == total
        for symbol, count in profile.counts.items():
            expected_common = Fraction(count) > Fraction(total, 34)
            assert (symbol in profile.common_set) == expected_common
        assert profile.common_set | profile.rare_set == set(taxonomy.SYMBOLS)
        assert not profile.common_set & profile.rare_set


def _novel(novel_id, length=6000, rng=None):
    rng = rng or random.Random(hash(novel_id) % (2**32))
    text = "".join(rng.choice("甲乙丙丁戊己庚辛") for _ in range(length))
    anns = [Annotation(o, taxonomy.SYMBOLS[rng.randrange(34)])
            for o in sorted(rng.sample(range(length), 12))]
    return AnnotatedSegment(novel_id, "Fantasy", text, anns)


def _build_corpus():
    rng = random.Random(8)
    return {f"novel{i:03d}": _novel(f"novel{i:03d}", rng=rng)
            for i in range(100)}


# Built once per module: the novels draw from one seeded generator in id
# order, so the first n novels of the full corpus equal a fresh n-novel one.
_CORPUS = _build_corpus()


class TestSampleWindows:
    def _corpus(self, n=100):
        """A new dict over the shared novels; callers may add to it."""
        return dict(itertools.islice(_CORPUS.items(), n))

    def test_default_protocol_yields_20(self):
        windows = sample_windows(self._corpus(), seed=1)
        assert len(windows) == 20
        assert all(len(w.clean_text) == 2000 for w in windows)

    def test_determinism(self):
        corpus = self._corpus()
        a = sample_windows(corpus, seed=42)
        b = sample_windows(corpus, seed=42)
        assert [(w.id, w.clean_text, w.annotations) for w in a] == \
            [(w.id, w.clean_text, w.annotations) for w in b]

    def test_different_seed_differs(self):
        corpus = self._corpus()
        assert [w.id for w in sample_windows(corpus, seed=1)] != \
            [w.id for w in sample_windows(corpus, seed=2)]

    def test_short_novel_returned_whole(self):
        corpus = self._corpus(24)
        short = _novel("short", length=800)
        corpus["short"] = short
        windows = sample_windows(corpus, seed=3, groups=5, novels_per_group=5)
        by_id = {w.id: w for w in windows}
        key = "short[0:800]"
        if key in by_id:
            assert by_id[key].clean_text == short.clean_text

    def test_annotations_rebased_and_valid(self):
        for w in sample_windows(self._corpus(), seed=9):
            for a in w.annotations:
                assert 0 <= a.offset <= len(w.clean_text)

    def test_whole_novel_keeps_trailing_marker(self):
        clean, anns = parse_inline("甲乙丙(A)丁戊(K)")
        novel = AnnotatedSegment("n", "Fantasy", clean, anns)
        [window] = sample_windows({"n": novel}, seed=0, groups=1,
                                  novels_per_group=1)
        assert window.clean_text == clean
        assert window.annotations == anns

    def test_window_reaching_novel_end_keeps_trailing_marker(self):
        clean, anns = parse_inline("甲乙丙(A)丁戊(K)")
        novel = AnnotatedSegment("n", "Fantasy", clean, anns)
        windows = {w.id: w for seed in range(40)
                   for w in sample_windows({"n": novel}, seed=seed, groups=1,
                                           novels_per_group=1, chars=2)}
        assert windows["n[3:5]"].annotations == [Annotation(0, "A"),
                                                  Annotation(2, "K")]
        # A window ending mid-novel leaves out a marker at its end.
        assert windows["n[1:3]"].annotations == []

    @pytest.mark.parametrize("kwargs", [
        {"groups": 0}, {"novels_per_group": 0}, {"chars": 0}])
    def test_nonpositive_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sample_windows(self._corpus(20), seed=0, **kwargs)

    def test_insufficient_novels(self):
        with pytest.raises(ValueError, match=exactly(
                "10 novels cannot fill 5 groups of 4")):
            sample_windows(self._corpus(10), seed=0)
