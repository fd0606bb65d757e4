"""Exception types shared across the package, and the finite-value check."""

import math


class ConfigError(ValueError):
    """Invalid or internally inconsistent experiment configuration."""


def require_finite(obj, *names: str) -> None:
    """Raise ConfigError if any named field of `obj` is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


class SchemaMismatch(ValueError):
    """A state does not fit the schema of the model it is used with."""


class DimensionMismatch(ValueError):
    """Vector arguments disagree on the internal-state dimension."""


class EmptyDataset(ValueError):
    """An estimator was asked to run on zero transitions."""


class NegativeWeight(ValueError):
    """An estimator was given a negative count or probability weight."""


class NonFiniteValue(ArithmeticError):
    """A computation produced NaN or infinity where a finite value is required."""


class StreamMisuse(RuntimeError):
    """A block stream was asked for a draw other than the one it is locked to."""


class RuntimeFailure(RuntimeError):
    """An experiment run failed; message carries the step index when known."""
