"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or internally inconsistent experiment configuration."""


class SchemaMismatch(ValueError):
    """A state does not fit the schema of the model it is used with."""


class DimensionMismatch(ValueError):
    """Vector arguments disagree on the internal-state dimension."""


class EmptyDataset(ValueError):
    """An estimator was asked to run on zero transitions."""


class NonFiniteValue(ArithmeticError):
    """A computation produced NaN or infinity where a finite value is required."""


class StreamMisuse(RuntimeError):
    """A block stream was asked for a draw other than the one it is locked to."""


class RuntimeFailure(RuntimeError):
    """An experiment run failed; message carries the step index when known."""
