"""Instance-level recognition scoring and annotator agreement.

Scoring is per annotated occurrence, not per unique label: each gold
instance is one marker position, predictions are aligned to instances by
order, and spurious predicted markers count as extras.  Extras cannot be
assigned a common/rare split (they match no gold symbol), so they affect
the overall ("sum") accuracy and precision only.

Scores are ratios of int tallies, which add up over segments, so a run
scores each (round, prediction) as the concatenation of its replies: one
tally of their codes, each reply cut or padded to its own segment's gold,
against the gold of all segments, prepared once.  Replies are tallied as
``bytes`` of registry codes (:data:`taxonomy.CODES`), with whole-int
operations and no step per instance.
"""

from collections import Counter, namedtuple
from itertools import repeat

from . import taxonomy
from .errors import UnknownSymbol

COMMON = "common"
RARE = "rare"

#: Split attested for the recognition experiment's two fixture passages.
DEFAULT_COMMON = frozenset({"K", "E", "F", "A"})

#: Marks a gold instance the model produced no symbol for.
ABSENT = None

_COMMON_SPLIT = dict.fromkeys(DEFAULT_COMMON, COMMON)


# split: COMMON | RARE
GoldInstance = namedtuple("GoldInstance", "symbol split")
# per_instance: predicted symbol or ABSENT, one per gold instance
Prediction = namedtuple("Prediction", "per_instance extras", defaults=(0,))
SplitMetrics = namedtuple("SplitMetrics", "accuracy precision recall f1")
MetricSummary = namedtuple("MetricSummary", "mean std")
# each split: metric name -> MetricSummary
EvaluationReport = namedtuple("EvaluationReport", "common rare sum")


def gold_instances(symbols):
    """Gold instances of an ordered symbol list; outside DEFAULT_COMMON is rare.
    ``tuple.__new__`` builds each one in C, not through the namedtuple's
    Python-level constructor."""
    symbols = list(symbols)
    splits = map(_COMMON_SPLIT.get, symbols, repeat(RARE))
    return list(map(tuple.__new__, repeat(GoldInstance), zip(symbols, splits)))


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
    """Gold instances prepared once for :func:`tally`, as big-endian ints: their
    codes and a 0xFF mask over the rare positions; then the instance and rare
    counts.  A symbol outside the registry raises :class:`UnknownSymbol`."""
    try:
        codes = bytes([taxonomy.CODES[g.symbol] for g in gold])
    except KeyError as exc:
        raise UnknownSymbol(exc.args[0]) from None
    rare = bytes([0 if g.split == COMMON else 0xFF for g in gold])
    return (int.from_bytes(codes, "big"), int.from_bytes(rare, "big"),
            len(codes), rare.count(0xFF))


def tally(gold, codes):
    """Int tallies of one reply's ``bytes`` of codes against :func:`gold_splits`:
    ``(matched, gold, predicted)`` per split, then the extras.  The reply, cut
    or padded with 0xFF (absent; no symbol's code) to the gold's length, is one
    int: a zero byte of ``reply ^ gold`` is a match and one of ``reply ^ all_ff``
    an absence, and or-ing in one split's mask hides that split's bytes.
    Replies each cut or padded to their own golds, then joined, tally against
    the joined golds as the sum of their own tallies, save the extras."""
    symbols, rare, n, n_rare = gold
    all_ff = (1 << 8 * n) - 1
    reply = int.from_bytes(codes[:n].ljust(n, b"\xff"), "big")
    miss, absent = reply ^ symbols, reply ^ all_ff
    out = []
    for hide, n_split in ((rare, n - n_rare), (rare ^ all_ff, n_rare)):
        out += ((miss | hide).to_bytes(n, "big").count(0), n_split,
                n_split - (absent | hide).to_bytes(n, "big").count(0))
    return (*out, max(0, len(codes) - n))


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
    # ABSENT is 0xFF; any other value outside the registry, a non-string
    # too, gets code 0, which matches no gold code.
    codes = bytes([0xFF if p is ABSENT else taxonomy.CODES.get(p, 0)
                   if isinstance(p, str) else 0 for p in pred.per_instance])
    return split_scores((*tally(gold_splits(gold), codes)[:-1], pred.extras))


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
