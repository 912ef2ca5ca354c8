"""Exception hierarchy shared by all flowpoly modules."""


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
