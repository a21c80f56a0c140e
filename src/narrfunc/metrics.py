"""Instance-level recognition scoring and annotator agreement.

Scoring is per annotated occurrence, not per unique label: each gold
instance is one marker position, predictions are aligned to instances by
order, and spurious predicted markers count as extras.  Extras cannot be
assigned a common/rare split (they match no gold symbol), so they affect
the overall ("sum") accuracy and precision only.

Scores are ratios of int tallies, which add up over segments: a run tallies
each reply against its own segment's gold, as if scoring the concatenation.
"""

from collections import Counter, namedtuple
from itertools import compress
from operator import eq

COMMON = "common"
RARE = "rare"

#: Split attested for the recognition experiment's two fixture passages.
DEFAULT_COMMON = frozenset({"K", "E", "F", "A"})

#: Marks a gold instance the model produced no symbol for.
ABSENT = None


# split: COMMON | RARE
GoldInstance = namedtuple("GoldInstance", "symbol split")
# per_instance: predicted symbol or ABSENT, one per gold instance
Prediction = namedtuple("Prediction", "per_instance extras", defaults=(0,))
SplitMetrics = namedtuple("SplitMetrics", "accuracy precision recall f1")
MetricSummary = namedtuple("MetricSummary", "mean std")
# each split: metric name -> MetricSummary
EvaluationReport = namedtuple("EvaluationReport", "common rare sum")


def gold_instances(symbols):
    """Gold instances of an ordered symbol list; outside DEFAULT_COMMON is rare."""
    return [GoldInstance(s, COMMON if s in DEFAULT_COMMON else RARE) for s in symbols]


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


def gold_splits(gold):
    """Gold instances prepared for :func:`tally`: per split (common, then
    rare), its symbols and the mask of its positions."""
    common = [g.split == COMMON for g in gold]
    symbols = [g.symbol for g in gold]
    return [(list(compress(symbols, mask)), mask)
            for mask in (common, [not c for c in common])]


def tally(splits, pred):
    """Int tallies of one prediction against :func:`gold_splits`:
    ``(matched, gold, predicted)`` per split, then the extras."""
    out = []
    for symbols, mask in splits:
        aligned = list(compress(pred.per_instance, mask))
        out += (sum(map(eq, symbols, aligned)), len(symbols),
                len(aligned) - aligned.count(ABSENT))
    return (*out, pred.extras)


def split_scores(tallies):
    """``(common, rare, sum)`` :class:`SplitMetrics` of (summed) tallies; only
    the sum sees extras, because an unmatched prediction has no split."""
    c_matched, c_gold, c_pred, r_matched, r_gold, r_pred, extras = tallies
    return (_split_metrics(c_matched, c_gold, c_pred, 0),
            _split_metrics(r_matched, r_gold, r_pred, 0),
            _split_metrics(c_matched + r_matched, c_gold + r_gold,
                           c_pred + r_pred, extras))


def score_instances(gold, pred):
    """Score one prediction against gold instances: ``(common, rare,
    sum)`` :class:`SplitMetrics`."""
    if len(pred.per_instance) != len(gold):
        raise ValueError(
            f"{len(pred.per_instance)} predictions for {len(gold)} instances")
    if pred.extras < 0:
        raise ValueError("extras must be >= 0")
    return split_scores(tally(gold_splits(gold), pred))


def _population_std(values):
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def aggregate(rounds):
    """Average metrics within each round, then report the mean and
    population standard deviation across round means."""
    rounds = list(rounds)
    if not rounds or any(not r for r in rounds):
        raise ValueError("need at least one round with at least one prediction")

    # zip(*...) turns predictions (or rounds) of splits into splits of
    # them, and a split's metrics into one tuple per field.
    round_means = [[SplitMetrics(*map(_mean, zip(*split))) for split in zip(*preds)]
                   for preds in rounds]
    return EvaluationReport(*(
        {f: MetricSummary(_mean(v), _population_std(v))
         for f, v in zip(SplitMetrics._fields, zip(*split))}
        for split in zip(*round_means)))


def _mean(values):
    return sum(values) / len(values)


def cohen_kappa(labels_a, labels_b):
    """Cohen's kappa over two aligned label lists.  With p_o = agree/n and
    p_e = chance/n², kappa is (agree·n - chance) / (n·n - chance) in ints;
    int true division is correctly rounded, so the float is the exact
    rational's."""
    if len(labels_a) != len(labels_b):
        raise ValueError(f"{len(labels_a)} vs {len(labels_b)} labels")
    n = len(labels_a)
    if n == 0:
        raise ValueError("empty label lists")
    agree = sum(1 for a, b in zip(labels_a, labels_b) if a == b)
    counts_a, counts_b = Counter(labels_a), Counter(labels_b)
    chance = sum(counts_a[label] * counts_b[label] for label in counts_a)
    if chance == n * n:
        return 1.0 if agree == n else 0.0
    return (agree * n - chance) / (n * n - chance)
