"""Per-step logs and per-seed metrics.

Definitions used throughout:

* viability_fraction: fraction of evaluated steps whose resulting internal
  state lies in the viability zone.
* survival_steps: evaluated steps until the first death, or the window
  length if the agent never died.
* recovery_time: steps after the last season switch in the window until the
  50-step moving average of drive returns within 10% of its pre-switch
  average; censored at the window end when it never returns.
* retention: viability fraction on the second visit of the schedule's first
  season divided by the fraction on its first visit; NaN with fewer than
  two visits.
* entropy_satiated / entropy_deficit: empirical action entropy of the
  trained policy probed at every grid cell with a satiated body (at the set
  point) versus a depleted one (energy and hydration at their viability
  floor), averaged over cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import mean, median, pstdev
from typing import Optional, Sequence

RECOVERY_WINDOW = 50
RECOVERY_FRACTION = 0.1


@dataclass(frozen=True)
class StepRecord:
    """One evaluated step; state fields describe the post-step state."""

    t: int
    episode: int
    row: int
    col: int
    season: int
    tag: str
    energy: float
    hydration: float
    core_temp: float
    action: str
    reward: float
    drive: float
    in_viability: bool
    tau: Optional[float]
    context_id: Optional[int]


@dataclass
class EpisodeLog:
    """The evaluated window of one run."""

    seed: int
    agent_kind: str
    steps: list[StepRecord]
    terminal: str  # Alive or Dead at the end of the window


@dataclass(frozen=True)
class MetricsRow:
    seed: int
    survival_steps: int
    viability_fraction: float
    mean_drive: float
    entropy_satiated: float
    entropy_deficit: float
    recovery_time: float
    retention: float
    visits_food: int
    visits_water: int
    visits_shade: int


# The metrics.csv columns are the fields of `MetricsRow`, in order.
METRICS_FIELDS = tuple(f.name for f in fields(MetricsRow))
METRICS_HEADER = ",".join(METRICS_FIELDS)
METRIC_COLUMNS = METRICS_FIELDS[1:]  # the summary rows put their label under "seed"


@dataclass
class MetricsTable:
    """Per-seed rows in seed order, plus mean/sd/median summary rows."""

    rows: list[MetricsRow]

    def summary(self) -> list[tuple]:
        out = []
        for label, fn in (("mean", mean), ("sd", pstdev), ("median", median)):
            values = []
            for name in METRIC_COLUMNS:
                column = [getattr(r, name) for r in self.rows]
                finite = [v for v in column if not math.isnan(v)]
                values.append(fn(finite) if finite else float("nan"))
            out.append((label, *values))
        return out


def season_runs(seasons: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal constant-season segments as (season, start, end_exclusive)."""
    runs = []
    start = 0
    for i in range(1, len(seasons) + 1):
        if i == len(seasons) or seasons[i] != seasons[start]:
            runs.append((seasons[start], start, i))
            start = i
    return runs


def viability_fraction(flags: Sequence[bool]) -> float:
    return sum(flags) / len(flags) if flags else float("nan")


def survival_steps(records: Sequence[StepRecord]) -> int:
    if not records:
        return 0
    first = records[0].episode
    for i, rec in enumerate(records):
        if rec.episode != first:
            return i
    return len(records)


def retention_score(records: Sequence[StepRecord], first_season: int) -> float:
    runs = [r for r in season_runs([rec.season for rec in records]) if r[0] == first_season]
    if len(runs) < 2:
        return float("nan")
    _, a_start, a_end = runs[0]
    _, b_start, b_end = runs[1]
    first_vf = viability_fraction([r.in_viability for r in records[a_start:a_end]])
    second_vf = viability_fraction([r.in_viability for r in records[b_start:b_end]])
    if first_vf == 0.0:
        return float("nan")
    return second_vf / first_vf


def recovery_time(drives: Sequence[float], switch_idx: int) -> float:
    """Steps after `switch_idx` until the moving average of drive settles back."""
    window = RECOVERY_WINDOW
    pre_slice = drives[max(0, switch_idx - window) : switch_idx]
    if not pre_slice:
        return float("nan")
    pre = mean(pre_slice)
    tol = RECOVERY_FRACTION * abs(pre) + 1e-12
    remaining = len(drives) - switch_idx
    if remaining < window:
        return float(remaining)
    acc = sum(drives[switch_idx : switch_idx + window])
    j = window
    while True:
        if abs(acc / window - pre) <= tol:
            return float(j)
        if switch_idx + j >= len(drives):
            return float(remaining)
        acc += drives[switch_idx + j] - drives[switch_idx + j - window]
        j += 1


def last_switch_recovery(records: Sequence[StepRecord], first_season: int) -> float:
    """Recovery after the most recent return to the schedule's first season.

    Return switches are the interesting ones for retention experiments; a
    stray one-step segment at the window edge never qualifies because a
    recovery needs room for at least one full moving-average window.
    """
    runs = season_runs([rec.season for rec in records])
    candidates = [
        r for r in runs[1:] if r[0] == first_season and len(records) - r[1] >= RECOVERY_WINDOW
    ]
    if not candidates:
        return float("nan")
    switch_idx = candidates[-1][1]
    return recovery_time([rec.drive for rec in records], switch_idx)


def build_metrics_row(
    seed: int,
    records: Sequence[StepRecord],
    first_season: int,
    entropy_satiated: float,
    entropy_deficit: float,
) -> MetricsRow:
    flags = [r.in_viability for r in records]
    return MetricsRow(
        seed=seed,
        survival_steps=survival_steps(records),
        viability_fraction=viability_fraction(flags),
        mean_drive=mean([r.drive for r in records]) if records else float("nan"),
        entropy_satiated=entropy_satiated,
        entropy_deficit=entropy_deficit,
        recovery_time=last_switch_recovery(records, first_season),
        retention=retention_score(records, first_season),
        visits_food=sum(1 for r in records if r.tag == "Food"),
        visits_water=sum(1 for r in records if r.tag == "Water"),
        visits_shade=sum(1 for r in records if r.tag == "Shade"),
    )
