"""Exception hierarchy for the skyforge engine."""


class SkyforgeError(Exception):
    """Base class for all engine errors."""


class ArgumentError(SkyforgeError):
    """A caller passed an argument violating a precondition."""


class EstimatorFailure(SkyforgeError):
    """The estimator timed out, crashed, or violated the protocol.

    Carries the bitmap of the state being valuated, which
    ``measures.valuate`` attaches, so a partial run can report exactly where
    it stopped: the message names it once it is set.
    """

    def __init__(self, message, bitmap=None):
        super().__init__(message)
        self.bitmap = bitmap

    def __str__(self):
        message = super().__str__()
        return message if self.bitmap is None else f"{message} (bitmap {self.bitmap.to_hex()})"


class EnumerationCapError(SkyforgeError):
    """Exhaustive enumeration was refused because the instance is too large.

    ``required`` is the number of states a full enumeration would valuate.
    """

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required
