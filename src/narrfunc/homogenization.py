"""Structural homogenization of continuation episodes and corpus
frequency profiles.

Similarity between two episodes is symbol-level normalized edit
distance: substituting one narrative function for another is exactly the
kind of structural change we want to penalize.  An LCS-based variant is
available for sensitivity checks.

Both measures run on bit-parallel kernels over Python ints: edit
distance is Myers' bit-vector algorithm (JACM 1999) in Hyyrö's 2001
global-distance form, and LCS length is the Allison–Dix (IPL 1986)
recurrence as given by Hyyrö (2004).  The longer sequence is the bit
pattern, held as one position mask per symbol, and the shorter one is
scanned, so a pair of lengths m >= n costs O(⌈m/w⌉·n) word operations
for a machine word of w bits.  :func:`analyze_episodes` builds each
episode's masks once and reuses them for every pair.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import taxonomy
from .annotation import AnnotatedSegment, Annotation
from .errors import EmptySequence, InsufficientNovels, TooFewEpisodes

EDIT = "edit"
LCS = "lcs"


@dataclass
class EpisodeSet:
    episodes: list  # symbol lists, all nonempty, >= 2 of them


@dataclass
class HomogeneityReport:
    pairwise: list  # symmetric matrix, diagonal 1.0
    mean_similarity: float
    first_marker_consistency: float
    last_marker_consistency: float
    distinct_ratio: float
    entropy_bits: float


@dataclass
class FrequencyProfile:
    counts: dict  # all 34 symbols -> count
    total: int
    common_set: frozenset
    rare_set: frozenset

    @property
    def mean(self):
        return self.total / len(self.counts)


def _position_masks(seq):
    """Map each symbol to an int whose bit i is set iff ``seq[i]`` is it."""
    masks = {}
    for i, symbol in enumerate(seq):
        masks[symbol] = masks.get(symbol, 0) | (1 << i)
    return masks


def _edit_kernel(m, masks, text):
    """Levenshtein distance between an m-symbol pattern and ``text``.

    ``masks`` is the pattern's :func:`_position_masks`.  ``pv``/``mv``
    hold the +1/-1 vertical deltas of the current DP column, one bit per
    pattern position.  The top row of the global DP grows by one per
    column, hence the 1 shifted into ``ph``; the final distance is the
    top-row value ``len(text)`` plus the column's deltas.
    """
    full = (1 << m) - 1
    pv, mv = full, 0
    get = masks.get
    for symbol in text:
        eq = get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return len(text) + pv.bit_count() - mv.bit_count()


def _lcs_kernel(m, masks, text):
    """LCS length of an m-symbol pattern and ``text``.

    ``masks`` is the pattern's :func:`_position_masks`.  The zero bits
    of ``v`` mark the pattern positions where the current DP column
    steps up by one, so their count is the LCS length.
    """
    full = (1 << m) - 1
    v = full
    get = masks.get
    for symbol in text:
        u = v & get(symbol, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


def _run(kernel, a, b, masks_a=None, masks_b=None):
    """Apply a kernel with the longer of ``a``/``b`` as the bit pattern.

    ``masks_a``/``masks_b`` are the sequences' position masks when the
    caller already has them; missing ones are built on demand.
    """
    if len(a) < len(b):
        a, b, masks_a = b, a, masks_b
    if masks_a is None:
        masks_a = _position_masks(a)
    return kernel(len(a), masks_a, b)


def edit_distance(a, b):
    """Unit-cost Levenshtein distance over symbol lists."""
    return _run(_edit_kernel, a, b)


def lcs_length(a, b):
    """Length of a longest common subsequence of two symbol lists."""
    return _run(_lcs_kernel, a, b)


def _similarity(method, a, b, masks_a=None, masks_b=None):
    longest = max(len(a), len(b))
    if method == EDIT:
        return 1 - _run(_edit_kernel, a, b, masks_a, masks_b) / longest
    if method == LCS:
        return _run(_lcs_kernel, a, b, masks_a, masks_b) / longest
    raise ValueError(f"unknown similarity method {method!r}")


def seq_similarity(a, b, method=EDIT):
    """Similarity in [0, 1]; 1.0 iff the symbol lists are identical."""
    a, b = list(a), list(b)
    if not a or not b:
        raise EmptySequence("similarity needs two nonempty sequences")
    return _similarity(method, a, b)


def _modal_fraction(symbols):
    counts = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return max(counts.values()) / len(symbols)


def analyze_episodes(episode_set, method=EDIT):
    """Pairwise similarity plus marker-consistency and diversity summaries."""
    episodes = [list(e) for e in episode_set.episodes]
    if len(episodes) < 2:
        raise TooFewEpisodes("need at least 2 episodes")
    if any(not e for e in episodes):
        raise EmptySequence("episodes must be nonempty")
    n = len(episodes)
    masks = [_position_masks(e) for e in episodes]
    matrix = [[1.0] * n for _ in range(n)]
    upper = []
    for i in range(n):
        for j in range(i + 1, n):
            sim = _similarity(method, episodes[i], episodes[j],
                              masks[i], masks[j])
            matrix[i][j] = matrix[j][i] = sim
            upper.append(sim)
    pooled = [s for e in episodes for s in e]
    counts = {}
    for s in pooled:
        counts[s] = counts.get(s, 0) + 1
    entropy = -sum(
        (c / len(pooled)) * math.log2(c / len(pooled)) for c in counts.values()
    )
    return HomogeneityReport(
        pairwise=matrix,
        mean_similarity=sum(upper) / len(upper),
        first_marker_consistency=_modal_fraction([e[0] for e in episodes]),
        last_marker_consistency=_modal_fraction([e[-1] for e in episodes]),
        distinct_ratio=len(counts) / len(pooled),
        entropy_bits=entropy,
    )


def frequency_profile(seqs):
    """Pool symbol counts and split them at the mean frequency.

    A symbol is common iff its count strictly exceeds total/34; the
    comparison is exact rational arithmetic, never rounded floats.
    """
    counts = {s: 0 for s in taxonomy.SYMBOLS}
    for seq in seqs:
        for symbol in seq:
            counts[symbol] += 1
    total = sum(counts.values())
    threshold = Fraction(total, len(counts))
    common = frozenset(s for s, c in counts.items() if c > threshold)
    rare = frozenset(taxonomy.SYMBOLS) - common
    return FrequencyProfile(counts=counts, total=total,
                            common_set=common, rare_set=rare)


def sample_windows(novels, seed, groups=5, novels_per_group=4, chars=2000):
    """Draw annotated sampling windows from full-novel segments.

    ``novels`` maps a novel id to its :class:`AnnotatedSegment`.  Novels
    are shuffled into ``groups`` groups, ``novels_per_group`` picked from
    each, and one contiguous ``chars``-character window cut per pick
    (whole novel when shorter).  Annotations inside a window are kept
    with offsets rebased to the window start; a window that reaches the
    end of its novel also keeps a marker at that end.  Deterministic per
    seed.  Raises ``ValueError`` when a count or ``chars`` is below 1.
    """
    if min(groups, novels_per_group, chars) < 1:
        raise ValueError("groups, novels_per_group and chars must be >= 1")
    ids = sorted(novels)
    if len(ids) < groups * novels_per_group:
        raise InsufficientNovels(
            f"{len(ids)} novels cannot fill {groups} groups of {novels_per_group}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    group_size = len(ids) // groups
    windows = []
    for g in range(groups):
        group = ids[g * group_size:(g + 1) * group_size] if g < groups - 1 \
            else ids[(groups - 1) * group_size:]
        picked = rng.sample(group, novels_per_group)
        for novel_id in picked:
            segment = novels[novel_id]
            text = segment.clean_text
            if len(text) <= chars:
                start, end = 0, len(text)
            else:
                start = rng.randrange(len(text) - chars + 1)
                end = start + chars
            kept = [
                Annotation(a.offset - start, a.symbol)
                for a in segment.annotations
                if start <= a.offset < end or a.offset == end == len(text)
            ]
            windows.append(AnnotatedSegment(
                id=f"{novel_id}[{start}:{end}]",
                genre=segment.genre,
                clean_text=text[start:end],
                annotations=kept,
                annotator=segment.annotator,
            ))
    return windows
