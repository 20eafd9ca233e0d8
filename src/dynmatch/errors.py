"""Exception hierarchy shared across the solver."""


class DynmatchError(Exception):
    """Base class for all library errors."""


class UnknownAgent(DynmatchError):
    """An agent name does not belong to the economy."""


class NotAvailable(DynmatchError):
    """The agent is not available to match at the requested period."""


class SizeLimitExceeded(DynmatchError):
    """More matchings than the configured cap were stitched in one economy,
    which the message names: possibly a continuation or deferred economy met
    inside a conjecture computation."""

    def __init__(self, cap: int, horizon: int, agents: int):
        super().__init__(
            f"enumeration exceeded the cap of {cap} matchings in an economy "
            f"with horizon {horizon} and {agents} agents"
        )


class HorizonTooLong(DynmatchError):
    """The solver recurses a few frames per period, so a horizon of a few
    hundred periods exhausts Python's recursion limit."""

    def __init__(self, message: str = "horizon too long for the recursive solver"):
        super().__init__(message)


class TiesPresent(DynmatchError):
    """Deferred acceptance requires strict preferences after truncation."""


class LoneWolfViolation(DynmatchError):
    """Two stable matchings of one static economy leave different agents unmatched."""


class NotACandidate(DynmatchError):
    """Consistency was queried at a matching outside the candidate set."""


class EmptyFixedPoint(DynmatchError):
    """The continuation-value iteration converged to an empty conjecture set.

    The underlying theory guarantees nonemptiness, so this signals an
    implementation bug rather than a property of the input.
    """


class EmptyContinuationSolutions(DynmatchError):
    """A continuation economy has no solutions while building candidates."""


class BadMatchingSpec(DynmatchError):
    """A textual matching description could not be parsed or validated."""


class DslError(DynmatchError):
    """Base class for economy-file errors; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DslSyntaxError(DslError):
    pass


class DuplicateAgent(DslError):
    pass


class UnknownPartner(DslError):
    pass


class BadRational(DslError):
    pass


class ArrivalOutOfRange(DslError):
    pass


class OrdinalViolation(DynmatchError):
    """An ordinal annotation is not honored by the cardinal utilities."""

    def __init__(self, owner: str, first, second, lhs, rhs):
        super().__init__(
            f"ordinal list of {owner}: entry {first} (value {lhs}) does not "
            f"strictly beat entry {second} (value {rhs})"
        )
