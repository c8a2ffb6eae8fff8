"""Exception types shared across the package."""


class DataValidationError(ValueError):
    """Raised when input data violate the record-sequence contract.

    Carries a short machine-readable ``code`` and, for tabular input,
    the offending 1-based data row (header excluded). The codes are
    ``missing-file``, ``bad-encoding``, ``bad-header``, ``malformed-row``
    and ``malformed-number`` from CSV parsing; ``empty``, ``nonpositive``,
    ``duplicate`` (a tie) and ``non-increasing`` (a decrease) from
    ``RecordSequence`` (``nonpositive`` also from a KS sample, where
    near-tied records round a rescaled gap to 0); ``insufficient-data``; ``fit-data-mismatch``
    (records and fit disagree); and the default ``invalid-data``.
    """

    def __init__(self, message, code="invalid-data", row=None):
        super().__init__(message)
        self.code = code
        self.row = row


class InsufficientDataError(DataValidationError):
    """Raised when an operation needs more records than were supplied."""

    def __init__(self, message, row=None):
        super().__init__(message, code="insufficient-data", row=row)


class NumericError(ArithmeticError):
    """Raised when a numeric routine fails to converge or leaves the float
    range: near-tied records push a fitted beta out of it, a simulated
    position leaves it or ties, or a rate curve overflows.

    ``last_estimate`` and ``previous_estimate`` hold the final two
    iterates of a failed quadrature so callers can judge how bad the
    failure was.
    """

    def __init__(self, message, last_estimate=None, previous_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate
