"""Structural homogenization of continuation episodes and corpus
frequency profiles.

Similarity between two episodes is symbol-level normalized edit
distance: substituting one narrative function for another is exactly the
kind of structural change we want to penalize.  An LCS-based variant is
available for sensitivity checks.

Both measures run on bit-parallel kernels over Python ints: edit distance
is Myers' bit-vector algorithm (JACM 1999) in Hyyrö's 2001 global-distance
form, and LCS length is the Allison–Dix (IPL 1986) recurrence as given by
Hyyrö (2004).  The longer sequence is the bit pattern, one int per symbol
whose bit i is set iff the pattern's i-th symbol is that one, and the
shorter one is scanned.  As in Hyyrö, Fredriksson & Navarro (ACM JEA 10,
2005), one int can hold many patterns: :func:`analyze_episodes` packs
every episode into one layout of blocks, each followed by a zero guard bit
that stops carries and shifts at the block's edge, and scans each episode
once against all longer ones.  That is one interpreter step per symbol of
each scanned episode, plus Σ m·n / w word operations over all pairs of
lengths m, n for a machine word of w bits.
"""

import math
import random
from collections import Counter, namedtuple

from . import taxonomy
from .annotation import AnnotatedSegment, Annotation

EDIT = "edit"
LCS = "lcs"


# episodes: symbol sequences (tuples), all nonempty, >= 2 of them; read as given
EpisodeSet = namedtuple("EpisodeSet", "episodes")
# pairwise: symmetric matrix, diagonal 1.0
HomogeneityReport = namedtuple("HomogeneityReport", (
    "pairwise mean_similarity first_marker_consistency last_marker_consistency "
    "distinct_ratio entropy_bits"))


# counts: all 34 symbols -> count
class FrequencyProfile(namedtuple("FrequencyProfile",
                                  "counts total common_set rare_set")):
    __slots__ = ()

    @property
    def mean(self):
        return self.total / len(self.counts)


def _layout(seqs):
    """Pack *seqs* into one pattern: bit ``start + i`` of ``masks[symbol]``
    is set iff ``seq[i]`` is *symbol*, for the seq whose block begins at
    ``start``; a zero guard bit follows each block, ``full`` marks block
    bits, ``low`` each block's lowest bit, and ``blocks`` lists each
    ``(start, m)``."""
    masks, full, low, blocks, start = {}, 0, 0, [], 0
    for seq in seqs:
        for i, symbol in enumerate(seq, start):
            masks[symbol] = masks.get(symbol, 0) | 1 << i
        full |= ((1 << len(seq)) - 1) << start
        low |= 1 << start
        blocks.append((start, len(seq)))
        start += len(seq) + 1
    return masks, full, low, blocks


def _bits(x, start, m):
    """Number of set bits of *x* in the m-bit block at *start*."""
    return ((x >> start) & ((1 << m) - 1)).bit_count()


def _edit_kernel(masks, full, low, blocks, text):
    """Levenshtein distance between ``text`` and each block of a :func:`_layout`.

    ``pv``/``mv`` hold the +1/-1 vertical deltas of the current DP column.
    The global DP's top row grows by one per column, hence ``| low``, which
    also overwrites the bit a shift moves into a block from below; a block's
    distance is ``len(text)`` plus its deltas.  Guard bits take carries and
    bits shifted out, and ``^ full`` complements without negative ints.
    """
    pv, mv = full, 0
    get = masks.get
    for symbol in text:
        eq = get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ((xh | pv) ^ full)) << 1) | low
        mh = (pv & xh) << 1
        pv = (mh | ((xv | ph) ^ full)) & full
        mv = ph & xv
    return [len(text) + _bits(pv, s, m) - _bits(mv, s, m) for s, m in blocks]


def _lcs_kernel(masks, full, low, blocks, text):
    """LCS length of ``text`` and each block of a :func:`_layout`.

    The zero bits of ``v`` mark where the current DP column steps up by
    one, so a block's count of them is its LCS length.  Guard bits take
    the carries of ``+``; ``u`` lies inside ``v``, so ``v - u`` never
    borrows.  ``low`` is unused: the LCS DP's top row is all zeros.
    """
    v = full
    get = masks.get
    for symbol in text:
        u = v & get(symbol, 0)
        v = ((v + u) | (v - u)) & full
    return [m - _bits(v, s, m) for s, m in blocks]


def _method(method):
    """*method*'s kernel, and its similarity of (result, longer length)."""
    if method == EDIT:
        return _edit_kernel, lambda distance, longest: 1 - distance / longest
    if method == LCS:
        return _lcs_kernel, lambda lcs, longest: lcs / longest
    raise ValueError(f"unknown similarity method {method!r}")


def _modal_fraction(symbols):
    return max(Counter(symbols).values()) / len(symbols)


def analyze_episodes(episode_set, method=EDIT):
    """Pairwise similarity plus marker-consistency and diversity summaries;
    one scan per episode covers all later ones of a shortest-first layout."""
    episodes = episode_set.episodes
    if len(episodes) < 2:
        raise ValueError("need at least 2 episodes")
    if any(not e for e in episodes):
        raise ValueError("episodes must be nonempty")
    kernel, similarity = _method(method)
    n = len(episodes)
    order = sorted(range(n), key=lambda k: len(episodes[k]))
    masks, full, low, blocks = _layout([episodes[k] for k in order])
    matrix = [[1.0] * n for _ in range(n)]
    for t, i in enumerate(order[:-1]):
        base = blocks[t + 1][0]
        later = [(s - base, m) for s, m in blocks[t + 1:]]
        results = kernel({s: x >> base for s, x in masks.items()}, full >> base,
                         low >> base, later, episodes[i])
        for j, (_, m), result in zip(order[t + 1:], later, results):
            matrix[i][j] = matrix[j][i] = similarity(result, m)
    upper = [matrix[i][j] for i in range(n) for j in range(i + 1, n)]
    pooled = [s for e in episodes for s in e]
    counts = Counter(pooled)
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

    A symbol is common iff its count strictly exceeds total/34, compared
    exactly in ints as ``count * 34 > total``, never as rounded floats.
    """
    counts = {s: 0 for s in taxonomy.SYMBOLS}
    for seq in seqs:
        for symbol in seq:
            counts[symbol] += 1
    total = sum(counts.values())
    common = frozenset(s for s, c in counts.items() if c * len(counts) > total)
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
        raise ValueError(
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
            ))
    return windows
