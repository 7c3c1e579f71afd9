"""Exception types shared across the library.

Each class carries the process exit code the CLI maps it to, so failure
paths stay machine-greppable (``error[<code>]: ...`` on stderr).
"""


class XLinearError(Exception):
    """Base class for all library errors."""

    exit_code = 1
    code = "error"


class ConfigError(XLinearError):
    """Invalid configuration value, unknown key, or unknown enum kind."""

    exit_code = 2
    code = "config"


class UsageError(XLinearError):
    """API misuse: non-scalar backward, scaler not fitted, empty input."""

    exit_code = 2
    code = "usage"


class DataError(XLinearError):
    """Unusable input data: a missing or non-UTF-8 file, ragged or
    non-numeric rows, constant columns, too-short series."""

    exit_code = 3
    code = "data"


class DimensionError(DataError):
    """Shape mismatch between tensors, or between checkpoint and dataset."""

    code = "dimension"


class NumericFault(XLinearError):
    """NaN/Inf surfaced during computation; message names the stage."""

    exit_code = 4
    code = "numeric"


class MetricUndefinedError(XLinearError):
    """A metric's denominator degenerates (constant series, zero mean)."""

    exit_code = 1
    code = "metric"


class IOFault(XLinearError):
    """Unwritable output or a corrupt/truncated checkpoint file."""

    exit_code = 5
    code = "io"
