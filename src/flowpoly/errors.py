"""Exception hierarchy shared by all flowpoly modules, and its two number
rules: `_integers` for integer arguments (integral numbers such as 2.0 are
read as ints), with `_nonnegative` for sizes and counts, and `_exact` for
coordinates (finite numbers are made exact).  Both refuse nan, inf and
strings with InputError."""

from fractions import Fraction


class FlowpolyError(Exception):
    """Base class for all errors raised by flowpoly."""


class InputError(FlowpolyError):
    """Malformed or inconsistent user-supplied data."""


class ContractError(FlowpolyError):
    """A documented precondition of an operation was violated."""


class InternalCheckError(FlowpolyError):
    """A runtime self-check failed; indicates a bug, not bad input."""


class NotPlanarError(InputError):
    """An arc diagram cannot be drawn without crossings in the given order.

    edge_pair holds the ids, ascending, of two arcs that cross: the first
    conflict met sweeping the vertices from left to right.
    """

    def __init__(self, message, edge_pair=None):
        super().__init__(message)
        self.edge_pair = edge_pair


def _integers(values, message):
    """values as a tuple of ints, each equal to the value given; else
    InputError(message).  "3" is refused though int("3") parses it."""
    try:
        given = tuple(values)
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):  # not iterable, nan, inf
        raise InputError(message) from None
    if ints != given:
        raise InputError(message)
    return ints


def _nonnegative(x, name):
    """x as an int by the _integers rule, refused when negative; the
    messages read "<name> must be an integer" and "... nonnegative"."""
    (x,) = _integers((x,), f"{name} must be an integer")
    if x < 0:
        raise InputError(f"{name} must be nonnegative")
    return x


def _exact(x):
    """x itself if an int or a Fraction, else x, a finite number that is not
    a string, converted exactly to a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    if not isinstance(x, str):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"{x!r} is not a finite number")
