"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ConfigurationError (and its subclass
QueryError) -> 1, NumericError -> 2.
"""


class ConfigurationError(ValueError):
    """Invalid configuration, dimension mismatch, or precondition violation."""


class QueryError(ConfigurationError):
    """A query that the guard zone cannot answer exactly: a negative or NaN
    radius, or a ball outside the observation window."""


class NumericError(ArithmeticError):
    """A non-finite value was encountered during a numerical computation."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
