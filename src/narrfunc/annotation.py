"""Inline annotation parsing and corpus loading.

The annotation convention marks each narrative function with its symbol
in brackets directly after the text realizing it, e.g. ``...寻找出路(K)。``.
Both ASCII ``(K)`` and full-width ``（K）`` brackets occur in the wild
(source texts freely mix the two, even within one marker), so parsing
accepts any combination while emission normalizes to ASCII.

Offsets are counted in Unicode code points of the *clean* text, i.e. the
text with every recognized marker removed.

A function sequence is a plain ``list`` of symbols, each one the
registry's own string object: no sequence owns a string per token.
"""

import json
import re
from dataclasses import dataclass, field

from . import taxonomy
from .errors import (
    DuplicateId,
    InvalidGenre,
    MalformedRecord,
    ParenthesizedUnknownToken,
    UnknownSymbol,
)

GENRES = ("Fantasy", "Xianxia", "Romance", "TimeTravel", "Urban")

# Spellings seen in catalog metadata, mapped onto the canonical five.
_GENRE_ALIASES = {
    "City": "Urban",
    "Time travel": "TimeTravel",
    "Time Travel": "TimeTravel",
}

_MARKER_RE = re.compile(r"[（(]([A-Za-z]{1,2})[)）]")
# Each symbol onto itself: a lookup yields the registry's own string.
_CANON = {s: s for s in taxonomy.SYMBOLS}


@dataclass(frozen=True, order=True)
class Annotation:
    offset: int  # code-point index into the clean text
    symbol: str


@dataclass
class AnnotatedSegment:
    id: str
    genre: str
    clean_text: str
    annotations: list
    rationale: str = None
    annotator: str = None


@dataclass
class CoverageReport:
    counts: dict  # symbol -> number of segments containing it
    min_segments: int
    passed: bool
    failing: list = field(default_factory=list)


def parse_inline(text, strict=False):
    """Split inline-annotated text into clean text plus annotations.

    Only bracketed tokens that exactly match a registry symbol become
    annotations; every other parenthetical stays in the clean text.  In
    strict mode a short bracketed token outside the registry raises
    :class:`ParenthesizedUnknownToken` (useful for corpus QA).
    """
    clean = []
    annotations = []
    pos = 0
    offset = 0  # length of the clean text so far
    for m in _MARKER_RE.finditer(text):
        token = m.group(1)
        if taxonomy.is_symbol(token):
            clean.append(text[pos:m.start()])
            offset += m.start() - pos
            annotations.append(Annotation(offset, token))
            pos = m.end()
        elif strict:
            raise ParenthesizedUnknownToken(offset + (m.start() - pos), token)
    clean.append(text[pos:])
    return "".join(clean), annotations


def emit_inline(segment):
    """Render a segment back to inline-annotated text with ASCII brackets."""
    text = segment.clean_text
    pieces = []
    pos = 0
    for ann in segment.annotations:
        pieces.append(text[pos:ann.offset])
        pieces.append(f"({ann.symbol})")
        pos = ann.offset
    pieces.append(text[pos:])
    return "".join(pieces)


def sequence_of(segment):
    """The segment's symbols in marker order, duplicates preserved."""
    return [a.symbol for a in sorted(segment.annotations, key=lambda a: a.offset)]


def parse_sequence_string(s):
    """Parse hyphen-joined notation such as ``A-Lo-E-Q-P-S`` into a list
    of registry-interned symbols."""
    if not s.strip():
        return []
    try:
        return list(map(_CANON.__getitem__, s.split("-")))
    except KeyError:  # slow path: strip padding, report the first unknown token
        tokens = [raw.strip() for raw in s.split("-")]
    for i, token in enumerate(tokens):
        if token not in _CANON:
            raise UnknownSymbol(token, position=i)
    return list(map(_CANON.__getitem__, tokens))


def extract_symbols(text):
    """Function symbols in free-form model text.

    Inline markers win; with none present, the last nonempty line is
    read as a hyphen sequence.  An unparsable line yields ``[]``.
    """
    text = text or ""
    symbols = [a.symbol for a in parse_inline(text)[1]]
    if symbols:
        return symbols
    for line in reversed(text.splitlines()):
        if line.strip():
            try:
                return parse_sequence_string(line)
            except UnknownSymbol:
                return []
    return []


def load_sequences(lines):
    """Read one hyphen sequence per line into a list of symbol lists; blank
    lines and # comments are skipped."""
    stripped = (line.strip() for line in lines)
    return [parse_sequence_string(s) for s in stripped if s and not s.startswith("#")]


def _normalize_genre(raw):
    genre = _GENRE_ALIASES.get(raw, raw)
    if genre not in GENRES:
        raise InvalidGenre(f"unknown genre {raw!r}")
    return genre


def segment_from_record(record, strict=False):
    """Build a validated segment from one decoded corpus record."""
    seg_id = record.get("id")
    if seg_id is None or seg_id == "":
        raise KeyError("id")
    genre = _normalize_genre(record["genre"])
    if "text" in record:
        clean_text, annotations = parse_inline(record["text"], strict=strict)
    else:
        clean_text = record["clean_text"]
        annotations = []
        for item in record.get("annotations", []):
            symbol = taxonomy.parse_symbol(item["symbol"])
            offset = int(item["offset"])
            if not 0 <= offset <= len(clean_text):
                raise ValueError(f"offset {offset} outside clean text")
            annotations.append(Annotation(offset, symbol))
        annotations.sort(key=lambda a: a.offset)
    return AnnotatedSegment(
        id=str(seg_id),
        genre=genre,
        clean_text=clean_text,
        annotations=annotations,
        rationale=record.get("rationale"),
        annotator=record.get("annotator"),
    )


def load_corpus(lines, strict=False):
    """Load segments from a line-delimited JSON stream.

    Each line carries ``id``, ``genre`` and either inline-annotated
    ``text`` or ``clean_text`` plus an ``annotations`` list.
    """
    segments = []
    seen = set()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        try:
            segment = segment_from_record(record, strict=strict)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        if segment.id in seen:
            raise DuplicateId(f"duplicate segment id {segment.id!r} "
                              f"on line {line_no}")
        seen.add(segment.id)
        segments.append(segment)
    return segments


def validate_coverage(corpus, min_segments=4):
    """Check that every symbol occurs in at least *min_segments* segments."""
    counts = {s: 0 for s in taxonomy.SYMBOLS}
    for segment in corpus:
        for symbol in {a.symbol for a in segment.annotations}:
            counts[symbol] += 1
    failing = [s for s in taxonomy.SYMBOLS if counts[s] < min_segments]
    return CoverageReport(
        counts=counts,
        min_segments=min_segments,
        passed=not failing,
        failing=failing,
    )
