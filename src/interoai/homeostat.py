"""Set points, drive, homeostatic reward, and survival semantics.

The drive is a weighted power distance between the internal state and a
designer-chosen set point:

    d(h) = ( sum_i w_i * |h*_i - h_i|^n ) ** (1/m)

with n = m = 2 by default (a weighted Euclidean norm).  Reward is pure drive
reduction, r_t = d(h_t) - d(h_{t+1}), so the summed reward of any trajectory
telescopes to d(h_0) - d(h_T) exactly.  Survival is a per-dimension closed
interval (the viability zone); staying outside it for more than a grace
window of consecutive steps ends the episode.

All functions here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InternalState
from .errors import ConfigError, DimensionMismatch


@dataclass(frozen=True)
class DriveModel:
    """Set point, weights, exponents, viability zone, grace window."""

    set_point: tuple[float, ...]
    weights: tuple[float, ...]
    n: float = 2.0
    m: float = 2.0
    viability: tuple[tuple[float, float], ...] = ()
    grace_steps: int = 0

    def __post_init__(self) -> None:
        k = len(self.set_point)
        values = (*self.set_point, *self.weights, self.n, self.m)
        values += tuple(v for zone in self.viability for v in zone)
        if not all(map(math.isfinite, values)):
            raise ConfigError("set point, weights, exponents and viability bounds must be finite")
        if len(self.weights) != k:
            raise ConfigError("weights and set_point dimensions differ")
        if self.viability and len(self.viability) != k:
            raise ConfigError("viability and set_point dimensions differ")
        if any(w <= 0.0 for w in self.weights):
            raise ConfigError("weights must be positive")
        if self.n < 1.0 or self.m < 1.0:
            raise ConfigError("exponents must be >= 1")
        if self.grace_steps < 0:
            raise ConfigError("grace_steps must be non-negative")
        for (lo, hi), target in zip(self.viability, self.set_point):
            if not (lo <= target <= hi):
                raise ConfigError(f"set point {target} outside viability [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.set_point)


def _check_dim(dm: DriveModel, h: InternalState) -> None:
    if len(h.values) != len(dm.set_point):
        raise DimensionMismatch(f"internal dim {len(h)} != drive model dim {dm.dim}")


def drive_and_deficit(dm: DriveModel, h: InternalState) -> tuple[float, int]:
    """The drive of `h` and its dominant deficit, from one pass over the dimensions.

    The deficit is the index of the largest weighted deviation (ties: the
    lowest index).  The deviations are added left to right with `+=`: `sum`
    of floats is compensated from Python 3.12 on, which would change the bits.
    """
    _check_dim(dm, h)
    n = dm.n
    total = 0.0
    best = -1.0
    deficit = i = 0
    for w, target, v in zip(dm.weights, dm.set_point, h.values):
        deviation = w * abs(target - v) ** n
        total += deviation
        if deviation > best:
            best = deviation
            deficit = i
        i += 1
    return total ** (1.0 / dm.m), deficit


def drive(dm: DriveModel, h: InternalState) -> float:
    """Distance of `h` from the set point; zero exactly at the set point."""
    return drive_and_deficit(dm, h)[0]


def homeostatic_reward(dm: DriveModel, h_t: InternalState, h_next: InternalState) -> float:
    """Reward of the step h_t -> h_next: positive iff drive decreased."""
    return drive(dm, h_t) - drive(dm, h_next)


def in_viability(dm: DriveModel, h: InternalState) -> bool:
    """True iff every component lies inside its closed viability interval."""
    _check_dim(dm, h)
    for (lo, hi), v in zip(dm.viability, h.values):
        if not lo <= v <= hi:
            return False
    return True


def dominant_deficit(dm: DriveModel, h: InternalState) -> int:
    """Index of the largest weighted deviation; ties break to the lowest index."""
    return drive_and_deficit(dm, h)[1]
