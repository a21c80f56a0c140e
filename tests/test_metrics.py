import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from narrfunc import metrics, taxonomy
from narrfunc.metrics import (
    ABSENT,
    Prediction,
    SplitMetrics,
    aggregate,
    classify_split,
    cohen_kappa,
    gold_instances,
    score_instances,
)
from narrfunc.errors import EmptyInput, LengthMismatch

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
        assert classify_split("K") == "common"
        assert classify_split("De") == "rare"

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
        with pytest.raises(LengthMismatch):
            score_instances(gold, Prediction(["K"], 0))

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
            assert common.as_dict() == pytest.approx(expected["common"].as_dict())
            assert rare.as_dict() == pytest.approx(expected["rare"].as_dict())
            assert total.as_dict() == pytest.approx(expected["sum"].as_dict())

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
        with pytest.raises(EmptyInput):
            aggregate([])
        with pytest.raises(EmptyInput):
            aggregate([[]])


class TestCohenKappa:
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
        with pytest.raises(LengthMismatch):
            cohen_kappa(["A"], ["A", "B"])
        with pytest.raises(EmptyInput):
            cohen_kappa([], [])
