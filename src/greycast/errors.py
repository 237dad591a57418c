"""Exception types shared across the toolkit."""


class GreycastError(Exception):
    """Base class for every error raised by this package."""


class DatasetError(GreycastError):
    """Input CSV is malformed; the message names the offending line."""


class ModelFileError(GreycastError):
    """Persisted model document is missing fields or carries bad values."""


class TooFewSamples(GreycastError):
    """Grey modelling needs at least four samples."""


class SingularDesign(GreycastError):
    """The design is numerically rank deficient (degenerate data)."""


class DevelopmentCoefficientOutOfRange(GreycastError):
    """|a| >= 2, so the optimised-parameter log transform is undefined."""


class ZeroDevelopmentCoefficient(GreycastError):
    """|a| < models.A_FLOOR: a is 0 to roundoff, so the optimised-parameter
    transform divides by zero or amplifies noise without bound."""


class VariantOrderConflict(GreycastError):
    """A fractional order other than 1 was supplied to an order-locked variant."""


class ZeroObserved(GreycastError):
    """Percentage metrics are undefined when an observed value is exactly 0."""


class LengthMismatch(GreycastError):
    """Observed and predicted series differ in length."""


class NoFeasibleOrder(GreycastError):
    """Every candidate order in the search grid failed to fit."""


class NonFiniteResult(GreycastError):
    """A series, parameter or forecast value is NaN or infinite."""
