"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data; sizes
are fixed constants so that two seeds differ in content, not in the
amount of work.  The symbol alphabet is copied here rather than
imported from the program, so a change to the program cannot change the
benchmark's inputs.
"""

import json

SYMBOLS = ('A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M',
           'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'Ch', 'V', 'W', 'Fr', 'X',
           'Fa', 'Z', 'Re', 'De', 'Y', 'Em', 'Fi', 'Lo')
GENRES = ("Fantasy", "Xianxia", "Romance", "TimeTravel", "Urban")

# Filler characters for narrative sentences; none of them is a bracket.
_HANZI = ("他她我们你的是了在有人不这个上来到时大地为子中说生国年着就那和要"
          "出也得里后自以会家可下而过天去能对小多然于心学么之都好看起发当没成"
          "只如事把还用第样道想作种开美总从无情己面最女但现前些所同日手又行意动")
# Mixed bracket spellings seen in source texts: ASCII, full-width, and both.
_BRACKETS = (("(", ")"), ("（", "）"), ("(", "）"), ("（", ")"))
# Short parentheticals that are not registry symbols; they stay in the text.
_NON_SYMBOL_TOKENS = ("(ok)", "（xq）", "(注)")

DENSE_SEGMENTS = 20
DENSE_MARKERS = 300
HTTP_SEGMENTS = 200
HTTP_MARKERS = 3
HTTP_ROUNDS = 2
HTTP_PREDS = 2
PARADIGM_SEQUENCES = 100_000
BATTLE_SHARE = 0.65
# 40 episode lengths spaced geometrically from 6 to 341 symbols: 780 pairs
# and 5.5M DP cells, mixing long pairs (kernel cost) with short pairs
# (per-call overhead).
EPISODE_LENGTHS = tuple(round(6 * (341 / 6) ** (k / 39)) for k in range(40))


class Segment:
    """One generated corpus segment: sentences, each followed by a marker."""

    def __init__(self, seg_id, genre, sentences, symbols):
        self.id = seg_id
        self.genre = genre
        self.sentences = sentences  # clean text of each sentence, without "。"
        self.symbols = symbols  # gold symbol after each sentence

    @property
    def clean_text(self):
        return "".join(s + "。" for s in self.sentences)

    def inline(self, brackets=None):
        """Inline-annotated text; ``brackets`` picks one pair per marker."""
        pieces = []
        for i, (sentence, symbol) in enumerate(zip(self.sentences, self.symbols)):
            left, right = brackets[i] if brackets else ("(", ")")
            pieces.append(f"{sentence}{left}{symbol}{right}。")
        return "".join(pieces)


def _sentence(rng, with_aside):
    text = "".join(rng.choice(_HANZI) for _ in range(rng.randint(8, 30)))
    if with_aside:
        cut = rng.randint(1, len(text) - 1)
        text = text[:cut] + rng.choice(_NON_SYMBOL_TOKENS) + text[cut:]
    return text


def segments(rng, count, markers, prefix, asides=False):
    """``count`` segments of ``markers`` marked sentences each; with
    ``asides``, about 5% of sentences also carry a non-symbol parenthetical."""
    out = []
    for i in range(count):
        sentences = [_sentence(rng, asides and rng.random() < 0.05)
                     for _ in range(markers)]
        symbols = [rng.choice(SYMBOLS) for _ in range(markers)]
        out.append(Segment(f"{prefix}-{i:04d}", rng.choice(GENRES),
                           sentences, symbols))
    return out


def one_segment(rng):
    """A three-marker segment with both common and rare gold symbols, so
    that every split of a gold-echo score is defined."""
    return Segment("one-0000", rng.choice(GENRES),
                   [_sentence(rng, False) for _ in range(3)], ["A", "K", "De"])


def corpus_jsonl(rng, segs, mixed_brackets):
    lines = []
    for seg in segs:
        brackets = ([rng.choice(_BRACKETS) for _ in seg.symbols]
                    if mixed_brackets else None)
        record = {"id": seg.id, "genre": seg.genre, "text": seg.inline(brackets)}
        lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def _battle_sequence(rng):
    interior = [rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6))]
    interior.insert(rng.randint(0, len(interior)), "Q")
    return ["A", *interior, rng.choice(("O", "S"))]


def plot_sequences(rng, count=PARADIGM_SEQUENCES):
    """Plot-like sequences; about ``BATTLE_SHARE`` carry the battle anchors
    ``(A) ... (Q) ... {O/S}``, the rest are random."""
    seqs = []
    for _ in range(count):
        if rng.random() < BATTLE_SHARE:
            seqs.append(_battle_sequence(rng))
        else:
            seqs.append([rng.choice(SYMBOLS) for _ in range(rng.randint(3, 9))])
    return seqs


# Episodes lean on a few stock functions, as model continuations do.
_EPISODE_WEIGHTS = tuple(6 if s in ("A", "K", "Q", "S", "F", "E") else 1
                         for s in SYMBOLS)


def episodes(rng, lengths=EPISODE_LENGTHS):
    order = list(lengths)
    rng.shuffle(order)
    return [rng.choices(SYMBOLS, weights=_EPISODE_WEIGHTS, k=n) for n in order]


def seq_file(seqs):
    return "".join("-".join(s) + "\n" for s in seqs)
