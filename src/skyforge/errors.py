"""Exception hierarchy for the skyforge engine."""


class SkyforgeError(Exception):
    """Base class for all engine errors."""


class ArgumentError(SkyforgeError):
    """A caller passed an argument violating a precondition."""


class SchemaConflictError(SkyforgeError):
    """Two sources share an attribute name without a join key for it."""


class InapplicableOperatorError(SkyforgeError):
    """An operator was applied to a state whose bitmap does not admit it."""


class DegenerateStateError(SkyforgeError):
    """An operator produced a state with an empty dataset."""


class EstimatorFailure(SkyforgeError):
    """The estimator timed out, crashed, or violated the protocol.

    Carries the bitmap of the state being valuated so a partial run can
    report exactly where it stopped.
    """

    def __init__(self, message, bitmap=None):
        super().__init__(message)
        self.bitmap = bitmap


class EnumerationCapError(SkyforgeError):
    """Exhaustive enumeration was refused because the instance is too large.

    ``required`` is the number of states a full enumeration would valuate.
    """

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required
