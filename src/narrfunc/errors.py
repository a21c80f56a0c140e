"""Exceptions that a caller tells apart; a bad value raises ``ValueError``."""


def excerpt(value):
    """*value* for a message: quoted if a string, cut at 8 characters with ``...``."""
    text, quote = str(value), repr if isinstance(value, str) else str
    return quote(text[:8]) + "..." if len(text) > 8 else quote(text)


class NarrfuncError(Exception):
    """A fault that a caller tells apart by its class, attributes or name; a
    bad argument value or input field raises ``ValueError`` instead."""


class UnknownSymbol(NarrfuncError):
    """A token outside the registry; the message quotes at most 8 characters."""

    def __init__(self, token, position=None):
        self.token = token
        self.position = position
        loc = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown function symbol {excerpt(token)}{loc}")


class ParenthesizedUnknownToken(NarrfuncError):
    """Strict inline parsing hit a short parenthesized token outside the registry."""

    def __init__(self, offset, token):
        self.offset = offset
        self.token = token
        super().__init__(f"unknown parenthesized token {token!r} at offset {offset}")


class MalformedRecord(NarrfuncError):
    """A line of an input file that cannot be read; the message names the
    file too when *path* is given, as in ``c.jsonl: line 1: ...``."""

    def __init__(self, line_no, reason, path=None):
        self.line_no = line_no
        self.reason = reason
        self.path = path
        super().__init__(f"malformed record on line {line_no}: {reason}" if path is None
                         else f"{path}: line {line_no}: {reason}")


class PatternSyntaxError(NarrfuncError):
    def __init__(self, position, reason):
        self.position = position
        self.reason = reason
        super().__init__(f"pattern syntax error at {position}: {reason}")


class MiningFailed(NarrfuncError):
    pass


class BackendUnreachable(NarrfuncError):
    pass


class MalformedReply(NarrfuncError):
    """A backend reply holds no reply text."""


class ReplayMiss(NarrfuncError):
    def __init__(self, digest):
        self.digest = digest
        super().__init__(f"no replay fixture for request digest {digest}")
