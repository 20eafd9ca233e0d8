"""Every library error survives pickling, as it must to cross a process
boundary: the same type, message and, for an economy-file error, line."""

import pickle
from fractions import Fraction

from dynmatch.errors import DslError, DynmatchError, OrdinalViolation, SizeLimitExceeded

# Constructor arguments of the errors that do not take a single message.
ARGUMENTS = {
    SizeLimitExceeded: (5, 1, 6),
    OrdinalViolation: ("a1", ("b1", 0), ("b2", 1), Fraction(1, 2), Fraction(1)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_round_trips_through_pickle():
    classes = set(_subclasses(DynmatchError))
    assert {SizeLimitExceeded, OrdinalViolation, DslError} <= classes
    for cls in classes:
        if issubclass(cls, DslError):
            error = cls("bad entry", line=3)
        else:
            error = cls(*ARGUMENTS.get(cls, ("bad entry",)))
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls
        assert str(back) == str(error)
        if isinstance(error, DslError):
            assert back.line == error.line == 3
