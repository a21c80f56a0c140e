"""Exception types shared across the toolkit."""


class NarrfuncError(Exception):
    """Base class for all toolkit errors."""


class UnknownSymbol(NarrfuncError):
    """A token does not name any registered narrative function."""

    def __init__(self, token, position=None):
        self.token = token
        self.position = position
        loc = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown function symbol {token!r}{loc}")


class ParenthesizedUnknownToken(NarrfuncError):
    """Strict inline parsing hit a short parenthesized token outside the registry."""

    def __init__(self, offset, token):
        self.offset = offset
        self.token = token
        super().__init__(f"unknown parenthesized token {token!r} at offset {offset}")


class EmptyInput(NarrfuncError):
    pass


class DuplicateId(NarrfuncError):
    pass


class InvalidGenre(NarrfuncError):
    pass


class MalformedRecord(NarrfuncError):
    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"malformed record on line {line_no}: {reason}")


class PatternSyntaxError(NarrfuncError):
    def __init__(self, position, reason):
        self.position = position
        self.reason = reason
        super().__init__(f"pattern syntax error at {position}: {reason}")


class TooFewElements(NarrfuncError):
    pass


class EmptySequence(NarrfuncError):
    pass


class EmptyCorpus(NarrfuncError):
    pass


class MiningFailed(NarrfuncError):
    pass


class LengthMismatch(NarrfuncError):
    pass


class TooFewEpisodes(NarrfuncError):
    pass


class InsufficientNovels(NarrfuncError):
    pass


class BackendUnreachable(NarrfuncError):
    pass


class ReplayMiss(NarrfuncError):
    def __init__(self, digest):
        self.digest = digest
        super().__init__(f"no replay fixture for request digest {digest}")
