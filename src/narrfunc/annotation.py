"""Inline annotation parsing, and the loaders of every line file.

The annotation convention marks each narrative function with its symbol
in brackets directly after the text realizing it, e.g. ``...寻找出路(K)。``.
Both ASCII ``(K)`` and full-width ``（K）`` brackets occur in the wild
(source texts freely mix the two, even within one marker), so parsing
accepts any combination while emission normalizes to ASCII.  One regex
finds the markers of annotated text and model replies alike.  Offsets
are counted in Unicode code points of the *clean* text, i.e. the text
with every recognized marker removed.  Every builder of a segment puts its
annotations in offset order, and every reader takes them as they are.

A function sequence is a ``tuple`` of the registry's own strings on every
path: it owns no string per token, and the cyclic collector soon untracks it.
One loop reads every line file (corpus, ``.seq``, replay, config): blank
lines are skipped everywhere, ``#`` comments only in ``.seq`` and config.
"""

import hashlib
import json
import re
from collections import namedtuple

from . import taxonomy
from .errors import (
    MalformedRecord, NarrfuncError, ParenthesizedUnknownToken, UnknownSymbol, excerpt)

GENRES = ("Fantasy", "Xianxia", "Romance", "TimeTravel", "Urban")

# Spellings seen in catalog metadata, mapped onto the canonical five.
_GENRE_ALIASES = {
    "City": "Urban",
    "Time travel": "TimeTravel",
    "Time Travel": "TimeTravel",
}

# The one bracket grammar: any short token, kept only if the registry has it.
# The required closing bracket keeps (C) out of (Ch) and matches apart.
# It opens with a literal "(", which re finds by a fast literal search, and
# runs over the text with each "（" read as "(": one code point for one, so
# match positions and tokens stay as they are.
_MARKER_RE = re.compile(r"\(([A-Za-z]{1,2})[)）]")


# offset: code-point index into the clean text
Annotation = namedtuple("Annotation", "offset symbol")
# annotations: in offset order, as every builder yields them; readers rely on it
AnnotatedSegment = namedtuple("AnnotatedSegment", "id genre clean_text annotations")


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
    for m in _MARKER_RE.finditer(text.replace("（", "(")):
        token = m.group(1)
        symbol = taxonomy.CANONICAL.get(token)
        if symbol is not None:
            clean.append(text[pos:m.start()])
            offset += m.start() - pos
            annotations.append(Annotation(offset, symbol))
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
    return tuple(a.symbol for a in segment.annotations)


def parse_sequence_string(s):
    """Parse hyphen-joined notation such as ``A-Lo-E-Q-P-S`` into a tuple
    of registry-interned symbols; padding around a token is stripped."""
    if not s.strip():
        return ()
    return tuple(taxonomy.parse_symbol(t.strip(), i) for i, t in enumerate(s.split("-")))


def extract_symbols(text):
    """Registry-interned function symbols in free-form model text.

    Only bracketed registry symbols are markers, and they win; with none,
    the last nonempty line is read as a hyphen sequence (``()`` if bad).
    """
    text = text or ""
    symbols = tuple(filter(None, map(taxonomy.CANONICAL.get,
                                     _MARKER_RE.findall(text.replace("（", "(")))))
    if symbols:
        return symbols
    for line in reversed(text.splitlines()):
        if line.strip():
            try:
                return parse_sequence_string(line)
            except UnknownSymbol:
                return ()
    return ()


def read_lines(path):
    """One read: the lines of *path* and ``{path: digest}`` of its bytes.
    ``\\r\\n`` and ``\\r`` become ``\\n`` (no UTF-8 sequence holds either byte), a
    leading BOM goes, and lines split at ``\\n`` alone, not at ``\\x0c`` padding."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs = {path: hashlib.sha256(data).hexdigest()[:16]}
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line_no = data[:exc.start].count(b"\n") + 1
        raise MalformedRecord(line_no, f"not UTF-8: {exc.reason}") from exc
    del data  # not held while the text is split
    return text.split("\n"), inputs


def _each_line(lines, parse, comments=False):
    """``parse`` of each stripped line read, in a list; a bad line names itself."""
    parsed = []
    for line_no, line in enumerate(lines, start=1):
        if (s := line.strip()) and not (comments and s.startswith("#")):
            try:
                parsed.append(parse(s))
            except (TypeError, ValueError, NarrfuncError) as exc:
                raise MalformedRecord(line_no, str(exc)) from exc
    return parsed


def load_sequences(lines):
    """Read one hyphen sequence per line into a list of symbol tuples; blank
    lines and # comments are skipped, and an unknown symbol names its line.
    A file of bare symbol lines and ``#`` comments is read in one pass."""
    lines = lines if isinstance(lines, list) else list(lines)  # read twice
    try:
        return [tuple(map(taxonomy.CANONICAL.__getitem__, line.split("-")))
                for line in lines if line and line[0] != "#"]
    except KeyError:  # per-line loop: padding or an unknown symbol
        return _each_line(lines, parse_sequence_string, comments=True)


_KINDS = {str: "a string", int: "an int", list: "a list", type(None): "null"}


def _json_object(line):
    try:
        record = json.loads(line)
    except (RecursionError, ValueError) as exc:  # too deep; an int past the digit limit
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TypeError("record is not an object")
    return record


def _field(record, name, *kinds):
    """*record*'s *name*, present and of exactly one of the JSON *kinds*; a
    string that is not UTF-8 (a lone surrogate escape; I-JSON, RFC 7493 §2.1)
    is refused here, before any output."""
    if name not in record:
        raise ValueError(f"{name} is missing")
    if type(value := record[name]) not in kinds:
        raise TypeError(f"{name} is {type(value).__name__}, not "
                        + " or ".join(map(_KINDS.get, kinds)))
    if type(value) is str:
        try:
            value.encode()
        except UnicodeEncodeError as exc:
            raise ValueError(f"{name} is not UTF-8: {exc.reason}") from None
    return value


def load_corpus(lines, strict=False):
    """Load segments from JSONL objects: ``id`` (a nonempty string, or an int
    read as its decimal string), ``genre``, and inline-annotated ``text`` or
    ``clean_text`` plus an optional list of ``annotations``, ``{"offset": int,
    "symbol": str}`` objects.  A bad field or a repeated id names its line."""
    seen = set()
    def segment(line):
        record = _json_object(line)
        if not (seg_id := str(_field(record, "id", str, int))):
            raise ValueError("id is empty")
        raw_genre = _field(record, "genre", str)
        genre = _GENRE_ALIASES.get(raw_genre, raw_genre)
        if genre not in GENRES:
            raise ValueError(f"unknown genre {excerpt(raw_genre)}")
        if "text" in record:
            clean_text, annotations = parse_inline(_field(record, "text", str),
                                                   strict=strict)
        else:
            clean_text = _field(record, "clean_text", str)
            annotations = []
            for i, item in enumerate(_field(record, "annotations", list)
                                     if "annotations" in record else []):
                if type(item) is not dict:
                    raise TypeError(f"annotations[{i}] is {type(item).__name__}, "
                                    "not an object")
                symbol = taxonomy.parse_symbol(_field(item, "symbol", str))
                offset = _field(item, "offset", int)
                if not 0 <= offset <= len(clean_text):
                    raise ValueError(f"offset {excerpt(offset)} outside clean text")
                annotations.append(Annotation(offset, symbol))
            annotations.sort(key=lambda a: a.offset)
        if seg_id in seen:
            raise ValueError(f"duplicate segment id {excerpt(seg_id)}")
        seen.add(seg_id)
        return AnnotatedSegment(seg_id, genre, clean_text, annotations)
    return _each_line(lines, segment)


def load_replay(lines):
    """``{request_digest: response_text}`` from JSONL objects: a string
    ``request_digest``, a string or null ``response_text``; a later line wins."""
    def entry(line):
        record = _json_object(line)
        return (_field(record, "request_digest", str),
                _field(record, "response_text", str, type(None)))
    return dict(_each_line(lines, entry))


def load_config(lines, keys):
    """``{key: value}`` from ``key=value`` lines; a key outside *keys* or
    given twice is malformed."""
    settings = {}
    def setting(line):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError("expected key=value")
        if (key := key.strip()) not in keys:
            raise ValueError(f"unknown key {excerpt(key)}, "
                             f"expected one of {', '.join(keys)}")
        if key in settings:
            raise ValueError(f"key {excerpt(key)} given twice")
        settings[key] = value.strip()
    _each_line(lines, setting, comments=True)
    return settings
