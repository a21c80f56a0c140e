import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from narrfunc import metrics, taxonomy
from narrfunc.errors import UnknownSymbol
from narrfunc.metrics import (
    ABSENT,
    Prediction,
    SplitMetrics,
    aggregate,
    cohen_kappa,
    gold_instances,
    score_instances,
)

from conftest import exactly

PASSAGE_SYMBOLS = ["K", "J", "K", "De", "E", "Fa", "Lo", "A", "Re", "G", "F"]


def oracle_score(gold, pred):
    """Direct per-split counting, written independently of the library."""
    out = {}
    splits = {"common": [], "rare": []}
    for g, p in zip(gold, pred.per_instance):
        splits[g.split].append((g.symbol, p))
    all_pairs = splits["common"] + splits["rare"]
    for name, pairs, extras in [
            ("common", splits["common"], 0),
            ("rare", splits["rare"], 0),
            ("sum", all_pairs, pred.extras)]:
        matched = sum(1 for s, p in pairs if p == s)
        n_gold = len(pairs)
        n_pred = sum(1 for _, p in pairs if p is not None)
        recall = matched / n_gold if n_gold else 0.0
        precision = matched / (n_pred + extras) if n_pred + extras else 0.0
        accuracy = matched / (n_gold + extras) if n_gold + extras else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        out[name] = SplitMetrics(accuracy, precision, recall, f1)
    return out


def loop_score(gold, pred):
    """Reference scoring: one pass over the instances, tallying
    ``(matched, gold, predicted)`` per split, then the library's own
    ratios, so its floats are the ones :func:`score_instances` must give."""
    tallies = {"common": [0, 0, 0], "rare": [0, 0, 0]}
    for instance, predicted in zip(gold, pred.per_instance):
        t = tallies[instance.split]
        t[1] += 1
        if predicted is not ABSENT:
            t[2] += 1
            if predicted == instance.symbol:
                t[0] += 1
    c_matched, c_gold, c_pred = tallies["common"]
    r_matched, r_gold, r_pred = tallies["rare"]
    return (metrics._split_metrics(c_matched, c_gold, c_pred, 0),
            metrics._split_metrics(r_matched, r_gold, r_pred, 0),
            metrics._split_metrics(c_matched + r_matched, c_gold + r_gold,
                                   c_pred + r_pred, pred.extras))


def loop_aggregate(rounds):
    """Reference aggregation: per round and split, the mean of each field
    over the predictions; then per split and field, the mean and
    population std over the round means."""
    fields = SplitMetrics._fields

    def mean(values):
        return sum(values) / len(values)

    def std(values):
        m = mean(values)
        return (sum((v - m) ** 2 for v in values) / len(values)) ** 0.5

    round_means = [
        [SplitMetrics(**{f: mean([getattr(t[i], f) for t in preds])
                         for f in fields}) for i in range(3)]
        for preds in rounds]
    return metrics.EvaluationReport(*(
        {f: metrics.MetricSummary(mean([getattr(r[i], f) for r in round_means]),
                                  std([getattr(r[i], f) for r in round_means]))
         for f in fields}
        for i in range(3)))


def exact_split_metrics(matched, n_gold, n_predicted, extras):
    """Reference scoring in exact rationals: each ratio a Fraction (0 on a
    zero denominator), F1 = 2PR/(P+R), converted to float last."""
    def ratio(num, den):
        return Fraction(num, den) if den else Fraction(0)

    recall = ratio(matched, n_gold)
    precision = ratio(matched, n_predicted + extras)
    accuracy = ratio(matched, n_gold + extras)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else Fraction(0))
    return SplitMetrics(float(accuracy), float(precision),
                        float(recall), float(f1))


@st.composite
def tallies(draw):
    """(matched, gold, predicted, extras) as one split can tally them:
    predictions align to gold instances, and only a prediction can match."""
    n_gold = draw(st.integers(0, 10**9))
    n_predicted = draw(st.integers(0, n_gold))
    matched = draw(st.integers(0, n_predicted))
    return matched, n_gold, n_predicted, draw(st.integers(0, 10**9))


@given(tallies())
@example((0, 0, 0, 0))
@example((0, 0, 0, 3))  # no gold, extras only
@example((0, 5, 0, 0))  # nothing predicted
@example((0, 5, 0, 2))
@example((3, 7, 5, 2))
@example((1, 3, 3, 0))
def test_split_metrics_equal_exact_rationals(case):
    assert metrics._split_metrics(*case) == exact_split_metrics(*case)


class TestSplitAssignment:
    def test_attested_defaults(self):
        assert [g.split for g in gold_instances(["K", "De"])] == ["common", "rare"]

    def test_passage_split_sizes(self):
        gold = gold_instances(PASSAGE_SYMBOLS)
        assert sum(1 for g in gold if g.split == "common") == 5
        assert sum(1 for g in gold if g.split == "rare") == 6


class TestScoreInstances:
    def test_four_of_eleven(self):
        gold = gold_instances(PASSAGE_SYMBOLS)
        per_instance = [g.symbol if i < 4 else "X"
                        for i, g in enumerate(gold)]
        _, _, total = score_instances(gold, Prediction(per_instance, 0))
        assert total.accuracy == pytest.approx(4 / 11, abs=5e-4)
        assert total.accuracy == pytest.approx(0.364, abs=5e-4)

    def test_perfect_prediction(self):
        gold = gold_instances(PASSAGE_SYMBOLS)
        pred = Prediction([g.symbol for g in gold], 0)
        for split in score_instances(gold, pred):
            assert split == SplitMetrics(1.0, 1.0, 1.0, 1.0)

    def test_all_absent(self):
        gold = gold_instances(PASSAGE_SYMBOLS)
        pred = Prediction([ABSENT] * len(gold), 0)
        for split in score_instances(gold, pred):
            assert split.recall == 0.0
            assert split.precision == 0.0
            assert split.f1 == 0.0

    def test_extras_hit_sum_only(self):
        gold = gold_instances(["K", "De"])
        pred = Prediction(["K", "De"], extras=2)
        common, rare, total = score_instances(gold, pred)
        assert common == SplitMetrics(1.0, 1.0, 1.0, 1.0)
        assert rare == SplitMetrics(1.0, 1.0, 1.0, 1.0)
        assert total.accuracy == pytest.approx(0.5)
        assert total.precision == pytest.approx(0.5)
        assert total.recall == 1.0

    def test_length_mismatch(self):
        gold = gold_instances(["K", "E"])
        with pytest.raises(ValueError, match=exactly("1 predictions for 2 instances")):
            score_instances(gold, Prediction(["K"], 0))

    def test_negative_extras(self):
        with pytest.raises(ValueError, match="^extras must be >= 0$"):
            score_instances(gold_instances(["K"]), Prediction(["K"], -1))

    def test_random_against_oracle(self):
        rng = random.Random(12345)
        for _ in range(1000):
            n = rng.randint(1, 12)
            symbols = [taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(n)]
            gold = gold_instances(symbols)
            per_instance = [
                None if rng.random() < 0.2
                else taxonomy.SYMBOLS[rng.randrange(34)] if rng.random() < 0.5
                else symbols[i]
                for i in range(n)]
            pred = Prediction(per_instance, rng.randint(0, 3))
            common, rare, total = score_instances(gold, pred)
            expected = oracle_score(gold, pred)
            assert common._asdict() == pytest.approx(expected["common"]._asdict())
            assert rare._asdict() == pytest.approx(expected["rare"]._asdict())
            assert total._asdict() == pytest.approx(expected["sum"]._asdict())

    def test_accuracy_never_exceeds_recall(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 10)
            symbols = [taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(n)]
            gold = gold_instances(symbols)
            pred = Prediction(
                [symbols[i] if rng.random() < 0.5 else None for i in range(n)],
                rng.randint(0, 4))
            for split in score_instances(gold, pred):
                assert split.accuracy <= split.recall + 1e-12

    def test_joint_permutation_invariance(self):
        rng = random.Random(5)
        symbols = ["K", "J", "E", "De", "A", "F"]
        gold = gold_instances(symbols)
        pred_syms = ["K", "X", "E", "De", "B", "F"]
        base = score_instances(gold, Prediction(pred_syms, 1))
        order = list(range(6))
        rng.shuffle(order)
        gold_p = gold_instances([symbols[i] for i in order])
        pred_p = Prediction([pred_syms[i] for i in order], 1)
        assert score_instances(gold_p, pred_p) == base


# Gold and predictions over a small alphabet of common (A, K, E) and rare
# (Q, Ch, C) symbols, so that matches are frequent.
SMALL_ALPHABET = ("A", "K", "E", "Q", "Ch", "C")


@st.composite
def scored_predictions(draw):
    symbols = draw(st.lists(st.sampled_from(SMALL_ALPHABET), max_size=12))
    per_instance = draw(st.lists(st.one_of(st.none(), st.sampled_from(SMALL_ALPHABET)),
                                 min_size=len(symbols), max_size=len(symbols)))
    return gold_instances(symbols), Prediction(per_instance, draw(st.integers(0, 4)))


@given(scored_predictions())
@example((gold_instances([]), Prediction([], 0)))
@example((gold_instances([]), Prediction([], 3)))
@example((gold_instances(["K", "Q"]), Prediction([None, None], 0)))
def test_score_instances_equals_loop_oracle(case):
    gold, pred = case
    assert score_instances(gold, pred) == loop_score(gold, pred)


def reply_codes_of(pred):
    """A reply's codes that align to *pred*: its instances (0xFF for
    ABSENT), then one code per extra."""
    return (bytes([0xFF if p is ABSENT else taxonomy.CODES[p] for p in pred.per_instance])
            + bytes([taxonomy.CODES["A"]]) * pred.extras)


@given(st.lists(scored_predictions(), min_size=1, max_size=4))
def test_tallies_of_parts_add_up_to_the_whole(parts):
    whole_gold = [g for gold, _ in parts for g in gold]
    whole_pred = Prediction([p for _, pred in parts for p in pred.per_instance],
                            sum(pred.extras for _, pred in parts))
    summed = [sum(column) for column in zip(*(
        metrics.tally(metrics.gold_splits(gold), reply_codes_of(pred))
        for gold, pred in parts))]
    assert summed == list(metrics.tally(metrics.gold_splits(whole_gold),
                                        reply_codes_of(whole_pred)))
    assert metrics.split_scores(summed) == loop_score(whole_gold, whole_pred)


@st.composite
def gold_and_replies(draw):
    """Gold symbols (0-40) and a reply of symbols or ABSENT, anywhere, from
    empty to four longer than the gold."""
    symbols = draw(st.lists(st.sampled_from(taxonomy.SYMBOLS), max_size=40))
    reply = draw(st.lists(st.one_of(st.none(), st.sampled_from(taxonomy.SYMBOLS)),
                          max_size=len(symbols) + 4))
    return symbols, reply


@given(gold_and_replies())
@example((["K", "Ch"], []))
@example((["K", "Ch"], [None, None, None, "A"]))
@example(([], ["A", None]))
def test_code_tally_equals_loop_oracle(case):
    symbols, reply = case
    gold, n = gold_instances(symbols), len(symbols)
    aligned = Prediction(reply[:n] + [ABSENT] * (n - len(reply)),
                         max(0, len(reply) - n))
    codes = bytes([0xFF if p is ABSENT else taxonomy.CODES[p] for p in reply])
    tallies = metrics.tally(metrics.gold_splits(gold), codes)
    assert tallies[-1] == aligned.extras
    assert metrics.split_scores(tallies) == loop_score(gold, aligned)


@given(scored_predictions(), st.data())
def test_prediction_outside_the_registry_scores_as_wrong(case, data):
    gold, pred = case
    # Each predicted symbol may turn into a value that no gold symbol equals.
    stray = [data.draw(st.sampled_from((p, "Qx", "", "k", 0, [p])))
             if p is not ABSENT else p for p in pred.per_instance]
    pred = pred._replace(per_instance=stray)
    assert score_instances(gold, pred) == loop_score(gold, pred)


@pytest.mark.parametrize("symbols", [["Qx"], ["K", "A", "Zz"], ["k"]])
def test_gold_symbol_outside_the_registry_raises(symbols):
    gold = gold_instances(symbols)
    with pytest.raises(UnknownSymbol) as exc_info:
        metrics.gold_splits(gold)
    assert exc_info.value.token == symbols[-1]
    with pytest.raises(UnknownSymbol):
        score_instances(gold, Prediction([ABSENT] * len(gold), 0))


_unit = st.floats(0, 1)
_triples = st.builds(lambda *v: tuple(SplitMetrics(*v[i:i + 4]) for i in (0, 4, 8)),
                     *[_unit] * 12)


@given(st.lists(st.lists(_triples, min_size=1, max_size=4), min_size=1, max_size=4))
def test_aggregate_equals_loop_oracle(rounds):
    assert aggregate(rounds) == loop_aggregate(rounds)


class TestAggregate:
    def _triple(self, value):
        m = SplitMetrics(value, value, value, value)
        return (m, m, m)

    def test_identical_perfect_rounds(self):
        rounds = [[self._triple(1.0)] * 5 for _ in range(10)]
        report = aggregate(rounds)
        for split in (report.common, report.rare, report.sum):
            for summary in split.values():
                assert summary.mean == 1.0 and summary.std == 0.0

    def test_two_round_population_std(self):
        report = aggregate([[self._triple(0.2)], [self._triple(0.4)]])
        assert report.sum["accuracy"].mean == pytest.approx(0.3)
        assert report.sum["accuracy"].std == pytest.approx(0.1)

    def test_single_round_std_zero(self):
        report = aggregate([[self._triple(0.5), self._triple(0.7)]])
        assert report.sum["f1"].mean == pytest.approx(0.6)
        assert report.sum["f1"].std == 0.0

    def test_empty_input(self):
        message = exactly("need at least one round with at least one prediction")
        with pytest.raises(ValueError, match=message):
            aggregate([])
        with pytest.raises(ValueError, match=message):
            aggregate([[]])


def oracle_cohen_kappa(labels_a, labels_b):
    """Kappa in exact rationals, as (p_o - p_e) / (1 - p_e)."""
    n = len(labels_a)
    p_o = Fraction(sum(a == b for a, b in zip(labels_a, labels_b)), n)
    p_e = sum(Fraction(labels_a.count(label), n) * Fraction(labels_b.count(label), n)
              for label in set(labels_a))
    if p_e == 1:
        return 1.0 if p_o == 1 else 0.0
    return float((p_o - p_e) / (1 - p_e))


@st.composite
def label_pairs(draw):
    labels = draw(st.sampled_from(["AB", "ABC", "ABCDEFGH"]))
    n = draw(st.integers(1, 300))
    return (draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))


class TestCohenKappa:
    @given(label_pairs())
    @example((["A", "A"], ["A", "A"]))
    @example((["A", "B"], ["B", "A"]))
    def test_equals_exact_rational(self, pair):
        # The same float as the exact rational, not merely a close one.
        assert cohen_kappa(*pair) == oracle_cohen_kappa(*pair)

    def test_identical_lists(self):
        assert cohen_kappa(["A", "B", "C", "A"], ["A", "B", "C", "A"]) == 1.0

    def test_worked_example(self):
        a = ["A", "A", "B", "B", "C", "C", "A", "B", "C", "A"]
        b = ["A", "A", "B", "B", "C", "C", "A", "B", "A", "B"]
        # direct formula: p_o = 0.8, p_e = 0.34
        assert cohen_kappa(a, b) == pytest.approx(0.697, abs=1e-3)
        assert cohen_kappa(a, b) == pytest.approx((0.8 - 0.34) / 0.66, abs=1e-6)

    def test_dual_annotated_corpus(self):
        from narrfunc import annotation
        from conftest import DATA
        pairs = {}
        for name in ("annotator_a.jsonl", "annotator_b.jsonl"):
            with open(DATA / name, encoding="utf-8") as fh:
                for seg in annotation.load_corpus(fh):
                    pairs.setdefault(seg.id, []).append(
                        annotation.sequence_of(seg))
        labels_a, labels_b = [], []
        for seq_a, seq_b in pairs.values():
            labels_a.extend(seq_a)
            labels_b.extend(seq_b)
        kappa = cohen_kappa(labels_a, labels_b)
        assert 0.78 <= kappa <= 0.88

    def test_relabel_invariance(self):
        a = ["A", "B", "A", "C", "B", "A"]
        b = ["A", "B", "B", "C", "B", "C"]
        mapping = {"A": "x", "B": "y", "C": "z"}
        assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(
            [mapping[s] for s in a], [mapping[s] for s in b]))

    def test_self_agreement_non_constant(self):
        x = ["A", "B", "A", "C"]
        assert cohen_kappa(x, x) == 1.0

    def test_constant_lists(self):
        # p_e = 1: degenerate chance agreement
        assert cohen_kappa(["A", "A"], ["A", "A"]) == 1.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match=exactly("1 vs 2 labels")):
            cohen_kappa(["A"], ["A", "B"])
        with pytest.raises(ValueError, match=exactly("empty label lists")):
            cohen_kappa([], [])
