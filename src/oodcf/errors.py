"""Exception hierarchy and exit codes.

Three failure families map onto distinct CLI exit codes: configuration
problems (bad flags, caps), data problems (malformed files, degenerate
datasets), and numerical problems (singular fits, diverged optimizations).
"""

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class OodcfError(Exception):
    """Base class for all package errors."""


class ConfigError(OodcfError):
    exit_code = EXIT_CONFIG


class DataError(OodcfError):
    exit_code = EXIT_DATA


class NumericError(OodcfError):
    exit_code = EXIT_NUMERIC


# -- data ------------------------------------------------------------------

class MalformedFile(DataError):
    """CSV row has wrong length, an unparseable numeral, or a missing or non-finite value."""


class MissingColumn(DataError):
    """A named column does not exist in the table."""


class EmptyPartition(DataError):
    """An OOD rule flagged all rows, or none, as out-of-distribution."""


class DegenerateSplit(DataError):
    """A class has too few rows to split."""


class TooFewRows(DataError):
    """Not enough rows to fit the requested model."""


class TooFewDims(DataError):
    """Features, rows or rank give fewer latent dims than the partition search needs."""


class DimensionMismatch(DataError):
    """Input vector/matrix dimension does not match the fitted model."""


class UnknownClass(DataError):
    """A class id is not present in the fitted model."""


class EmptyInput(DataError):
    """An operation received an empty collection where one or more items are required."""


# -- config ----------------------------------------------------------------

class OutOfRange(ConfigError):
    """A scalar argument lies outside its documented domain."""


class IndexOutOfRange(ConfigError):
    """A latent-dimension index set refers to dimensions outside [0, k)."""


class CapExceeded(ConfigError):
    """Requested latent dimensionality exceeds the exhaustive-search cap."""


# -- numeric ---------------------------------------------------------------

class SingularCovariance(NumericError):
    """Covariance stayed non-positive-definite after regularization escalation."""


class NonFiniteLoss(NumericError):
    """Optimization produced a non-finite loss."""


# -- warnings (recoverable conditions; operation proceeds) -----------------

class RankDeficientWarning(UserWarning):
    """Requested PCA dimensionality exceeded the numerical rank; k was shrunk."""


class DegenerateNormalizationWarning(UserWarning):
    """All per-cardinality partition losses equal; fell back to smallest cardinality."""
