"""Storyline paradigms: anchored patterns over function sequences.

A paradigm is a short template like ``(A)->(Q)->{O/S}``: the first and
last elements anchor the sequence's first and last symbols, interior
elements must occur in order strictly between them.  ``->`` marks linear
development and ``~>`` nonlinear development; the distinction matters
for mining and reporting, not for matching, because nonlinear plots
share only their initial and terminal markers.  ``AltSet`` and
``ParadigmPattern`` check a pattern's shape and ``taxonomy`` its symbols;
``parse_pattern`` adds the position.  Each pattern is compiled to one
accepted-symbol set per element; every matcher runs one greedy anchored
kernel over them, failing fast on the anchors.  ``classify`` runs it only
on the patterns whose anchors accept a sequence's (first, last) pair, found
once per distinct pair; ``mine`` counts supports in the anchor-conforming
sequences.  A sequence is a symbol tuple as loaded (a list is read alike).
"""

import re
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction

from . import taxonomy
from .errors import (
    EmptyCorpus,
    EmptySequence,
    MiningFailed,
    PatternSyntaxError,
    TooFewElements,
    UnknownSymbol,
)

LINEAR = "linear"
NONLINEAR = "nonlinear"

_CONNECTOR_TOKENS = {"->": LINEAR, "~>": NONLINEAR}


class AltSet(namedtuple("AltSet", "options")):
    """Alternatives for one slot, e.g. ``{O/S}``."""

    __slots__ = ()

    def __new__(cls, options):
        if len(options) < 2:
            raise ValueError("alternation needs >= 2 symbols")
        if len(set(options)) != len(options):
            raise ValueError("alternation options must be distinct")
        return super().__new__(cls, options)

    def __str__(self):
        return "{" + "/".join(self.options) + "}"


# elements: symbols and AltSets, length >= 2; connectors: LINEAR/NONLINEAR,
# length len(elements) - 1
class ParadigmPattern(namedtuple("ParadigmPattern", "elements connectors plot_label",
                                 defaults=(None,))):
    """An anchored pattern.  ``_accepts``, one accepted-symbol set per
    element, is an attribute outside the tuple, so ``==`` and ``repr``
    never see it."""

    def __new__(cls, elements, connectors, plot_label=None):
        if len(elements) < 2:
            raise TooFewElements(f"pattern has {len(elements)} element(s), need >= 2")
        if len(connectors) != len(elements) - 1:
            raise ValueError("connector count must be element count - 1")
        self = super().__new__(cls, elements, connectors, plot_label)
        self._accepts = tuple(frozenset(e.options if isinstance(e, AltSet) else (e,))
                              for e in elements)
        return self


def _emit_element(element):
    if isinstance(element, AltSet):
        return str(element)
    return f"({element})"


def emit_pattern(pattern):
    """Canonical ASCII form; re-parses to an equal pattern."""
    parts = [_emit_element(pattern.elements[0])]
    for connector, element in zip(pattern.connectors, pattern.elements[1:]):
        parts.append("->" if connector == LINEAR else "~>")
        parts.append(_emit_element(element))
    return "".join(parts)


_TOKEN_RE = re.compile(
    r"\(\s*([A-Za-z]{1,2})\s*\)"          # (A)
    r"|\{\s*([A-Za-z/ ]+?)\s*\}"          # {O/S}
    r"|(->|~>)"
    r"|(\s+)"
)


def parse_pattern(s, plot_label=None):
    """Parse the ASCII pattern grammar, e.g. ``(A)->(Q)->{O/S}``."""
    elements = []
    connectors = []
    expect_element = True
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise PatternSyntaxError(pos, f"unexpected input {s[pos:pos+8]!r}")
        pos = m.end()
        if m.group(4):  # whitespace
            continue
        if m.group(3):  # connector
            if expect_element:
                raise PatternSyntaxError(m.start(), "connector without element")
            connectors.append(_CONNECTOR_TOKENS[m.group(3)])
            expect_element = True
            continue
        if not expect_element:
            raise PatternSyntaxError(m.start(), "missing connector")
        try:  # the symbol and shape rules are not ours; the position is
            elements.append(taxonomy.parse_symbol(m.group(1)) if m.group(1) else
                            AltSet(tuple(taxonomy.parse_symbol(t.strip())
                                         for t in m.group(2).split("/"))))
        except (UnknownSymbol, ValueError) as exc:
            raise PatternSyntaxError(m.start(), str(exc)) from None
        expect_element = False
    if expect_element:
        raise PatternSyntaxError(len(s), "dangling connector" if elements
                                 else "empty pattern")
    return ParadigmPattern(tuple(elements), tuple(connectors), plot_label)


def builtin_paradigms():
    """The six stock plot paradigms."""
    specs = [
        ("battle", "(A)->(Q)->{O/S}"),
        ("emotional", "(Em)~>(Ch)"),
        ("difficult_task", "(Y)~>(Z)"),
        ("adventure", "(P)~>{M/O}"),
        ("pretending", "(W)->(De)~>(S)"),
        ("daily_life", "(A)~>(Ch)"),
    ]
    return [parse_pattern(text, plot_label=label) for label, text in specs]


def _bind(symbols, accepts):
    """Greedy anchored kernel: each element's bound index, or None.  A
    length-1 sequence never matches: one position cannot bind both anchors."""
    if not symbols:
        raise EmptySequence("cannot match an empty sequence")
    last = len(symbols) - 1
    if last < 1 or symbols[0] not in accepts[0] or symbols[last] not in accepts[-1]:
        return None
    bindings = [0]
    i = 0
    for accepted in accepts[1:-1]:
        i += 1
        while i < last and symbols[i] not in accepted:
            i += 1
        if i == last:
            return None
        bindings.append(i)
    bindings.append(last)
    return bindings


def matches(seq, pattern):
    """Anchored match: first/last symbols hit the anchors, interior
    elements occur in order strictly between them (greedy leftmost).

    Returns the sequence index bound to each element, strictly
    increasing, or ``None`` when *seq* does not match."""
    return _bind(seq, pattern._accepts)


def classify(seqs, patterns):
    """Each sequence's matching labels in pattern order; equal lists are shared."""
    by_anchors = {}  # (first, last) -> patterns whose anchors accept the pair
    shared = {}  # label combination -> the one list its sequences share
    verdicts = []
    for s in seqs:
        key = (s[0], s[-1]) if s else None  # None: all patterns, so _bind raises
        if (candidates := by_anchors.get(key)) is None:
            candidates = by_anchors[key] = [p for p in patterns if key is None or (
                key[0] in p._accepts[0] and key[1] in p._accepts[-1])]
        labels = [p.plot_label for p in candidates if _bind(s, p._accepts) is not None]
        verdicts.append(shared.setdefault(tuple(labels), labels))
    return verdicts


def support(seqs, pattern):
    """Fraction of sequences matched, as an exact rational."""
    seqs = list(seqs)
    if not seqs:
        raise EmptyCorpus("support over an empty corpus")
    hits = sum(_bind(s, pattern._accepts) is not None for s in seqs)
    return Fraction(hits, len(seqs))


def _mine_anchor(position_symbols, n_total, min_support, max_alt):
    """Pick the most frequent symbol(s) at one end, widening to an
    alternation set until the combined frequency reaches min_support."""
    counts = Counter(position_symbols)
    ranked = sorted(counts, key=lambda s: (-counts[s], s))
    chosen = []
    covered = 0
    for symbol in ranked[:max_alt]:
        chosen.append(symbol)
        covered += counts[symbol]
        if Fraction(covered, n_total) >= min_support:
            if len(chosen) == 1:
                return chosen[0]
            return AltSet(tuple(chosen))
    raise MiningFailed(
        f"no anchor reaches support {min_support} within {max_alt} alternatives")


Mined = namedtuple("Mined", "pattern support min_support")


def mine(seqs, min_support=Fraction(3, 5), max_alt=2):
    """Induce a paradigm from a sequence corpus.

    Anchors come from first/last symbol frequencies.  Interior elements
    are symbols present strictly between the anchors in at least
    min_support of the anchor-conforming sequences, ordered by their
    median relative position.  If the resulting linear pattern does not
    itself reach min_support on the corpus (the interiors' relative
    order is not stable enough), the interiors are dropped and the
    anchors-only nonlinear pattern is returned.

    Returns ``Mined(pattern, support, min_support)``: the pattern, its exact
    support over the whole corpus, and min_support as applied (at 10**-6).
    """
    from statistics import median  # only mining reads it
    seqs = list(seqs)
    if not seqs:
        raise EmptyCorpus("mining over an empty corpus")
    # Range-checked before Fraction(), which raises on inf and nan; a value
    # that rounds to 0 at the 10**-6 resolution is out of range too.
    min_support = 0 < min_support <= 1 and Fraction(min_support).limit_denominator(10**6)
    if not min_support:
        raise ValueError("min_support must be in (0, 1]")
    if max_alt < 1:
        raise ValueError("max_alt must be >= 1")
    n = len(seqs)
    usable = [s for s in seqs if len(s) >= 2]
    if not usable:
        raise MiningFailed("no sequence long enough to carry two anchors")
    start = _mine_anchor([s[0] for s in usable], n, min_support, max_alt)
    end = _mine_anchor([s[-1] for s in usable], n, min_support, max_alt)

    fallback = ParadigmPattern((start, end), (NONLINEAR,))
    first, last = fallback._accepts
    # Every match of a pattern with these anchors lies in this projection.
    conforming = [s for s in usable if s[0] in first and s[-1] in last]
    positions = defaultdict(list)  # symbol -> relative positions, one per sequence
    for s in conforming:
        span, seen = len(s) - 1, set()
        for i in range(1, span):
            if s[i] not in seen:
                seen.add(s[i])
                positions[s[i]].append(i / span)
    interior = [symbol for symbol, rels in positions.items()
                if Fraction(len(rels), len(conforming)) >= min_support]
    interior.sort(key=lambda symbol: (median(positions[symbol]), symbol))

    if not all(seqs):  # an empty sequence in the corpus is an error, as in support()
        raise EmptySequence("cannot match an empty sequence")
    if interior:
        candidate = ParadigmPattern((start, *interior, end),
                                    (LINEAR,) * (len(interior) + 1))
        hits = sum(_bind(s, candidate._accepts) is not None for s in conforming)
        if (share := Fraction(hits, n)) >= min_support:
            return Mined(candidate, share, min_support)
    if (share := Fraction(len(conforming), n)) >= min_support:
        return Mined(fallback, share, min_support)
    raise MiningFailed("anchors reach support individually but not jointly")
