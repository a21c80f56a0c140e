"""Instance-level recognition scoring and annotator agreement.

Scoring is per annotated occurrence, not per unique label: each gold
instance is one marker position, predictions are aligned to instances by
order, and spurious predicted markers count as extras.  Extras cannot be
assigned a common/rare split (they match no gold symbol), so they affect
the overall ("sum") accuracy and precision only.
"""

from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import EmptyInput, LengthMismatch

COMMON = "common"
RARE = "rare"

#: Split attested for the recognition experiment's two fixture passages.
DEFAULT_COMMON = frozenset({"K", "E", "F", "A"})

#: Marks a gold instance the model produced no symbol for.
ABSENT = None


@dataclass(frozen=True)
class GoldInstance:
    index: int
    symbol: str
    split: str  # COMMON | RARE


@dataclass
class Prediction:
    per_instance: list  # predicted symbol or ABSENT, one per gold instance
    extras: int = 0


@dataclass(frozen=True)
class SplitMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float


@dataclass
class EvaluationReport:
    common: dict  # metric name -> MetricSummary
    rare: dict
    sum: dict


def classify_split(symbol, common_set=DEFAULT_COMMON):
    """Common/rare assignment; anything outside the common set is rare."""
    return COMMON if symbol in common_set else RARE


def gold_instances(symbols, common_set=DEFAULT_COMMON):
    """Build gold instances from an ordered symbol list."""
    return [
        GoldInstance(i, s, classify_split(s, common_set))
        for i, s in enumerate(symbols)
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def _split_metrics(matched, n_gold, n_predicted, extras):
    """Ratios of int tallies; int true division is correctly rounded, so
    each float equals the exact rational's.  F1 = 2PR/(P+R) reduces to
    2·matched/(gold + predicted + extras), and is 0 with no match."""
    return SplitMetrics(
        accuracy=_ratio(matched, n_gold + extras),
        precision=_ratio(matched, n_predicted + extras),
        recall=_ratio(matched, n_gold),
        f1=_ratio(2 * matched, n_gold + n_predicted + extras),
    )


def score_instances(gold, pred):
    """Score one prediction against gold instances.

    Returns ``(common, rare, sum)`` :class:`SplitMetrics`.  The sum split
    covers all instances and absorbs the extras; per-split accuracy and
    precision see no extras because an unmatched prediction has no split.
    """
    if len(pred.per_instance) != len(gold):
        raise LengthMismatch(
            f"{len(pred.per_instance)} predictions for {len(gold)} instances")
    if pred.extras < 0:
        raise ValueError("extras must be >= 0")
    tallies = {COMMON: [0, 0, 0], RARE: [0, 0, 0]}  # matched, gold, predicted
    for instance, predicted in zip(gold, pred.per_instance):
        t = tallies[instance.split]
        t[1] += 1
        if predicted is not ABSENT:
            t[2] += 1
            if predicted == instance.symbol:
                t[0] += 1
    c_matched, c_gold, c_pred = tallies[COMMON]
    r_matched, r_gold, r_pred = tallies[RARE]
    common = _split_metrics(c_matched, c_gold, c_pred, 0)
    rare = _split_metrics(r_matched, r_gold, r_pred, 0)
    total = _split_metrics(c_matched + r_matched, c_gold + r_gold,
                           c_pred + r_pred, pred.extras)
    return common, rare, total


def _population_std(values):
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def aggregate(rounds):
    """Average metrics within each round, then report the mean and
    population standard deviation across round means."""
    rounds = list(rounds)
    if not rounds or any(not r for r in rounds):
        raise EmptyInput("need at least one round with at least one prediction")

    fields = ("accuracy", "precision", "recall", "f1")
    round_means = []
    for preds in rounds:
        split_means = []
        for split_idx in range(3):
            values = {
                f: _mean([getattr(triple[split_idx], f) for triple in preds])
                for f in fields
            }
            split_means.append(SplitMetrics(**values))
        round_means.append(tuple(split_means))

    def summarize(split_idx):
        return {
            f: MetricSummary(
                mean=_mean([getattr(r[split_idx], f) for r in round_means]),
                std=_population_std([getattr(r[split_idx], f) for r in round_means]),
            )
            for f in fields
        }

    return EvaluationReport(
        common=summarize(0),
        rare=summarize(1),
        sum=summarize(2),
    )


def _mean(values):
    return sum(values) / len(values)


def cohen_kappa(labels_a, labels_b):
    """Cohen's kappa over two aligned label lists."""
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(f"{len(labels_a)} vs {len(labels_b)} labels")
    n = len(labels_a)
    if n == 0:
        raise EmptyInput("empty label lists")
    agree = sum(1 for a, b in zip(labels_a, labels_b) if a == b)
    counts_a, counts_b = {}, {}
    for a, b in zip(labels_a, labels_b):
        counts_a[a] = counts_a.get(a, 0) + 1
        counts_b[b] = counts_b.get(b, 0) + 1
    p_o = Fraction(agree, n)
    p_e = sum(
        Fraction(counts_a[label], n) * Fraction(counts_b.get(label, 0), n)
        for label in counts_a
    )
    if p_e == 1:
        return 1.0 if p_o == 1 else 0.0
    return float((p_o - p_e) / (1 - p_e))
