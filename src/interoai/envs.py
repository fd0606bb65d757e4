"""HomeoGrid: a survival gridworld with seasons, plus a broken control twin.

The world is a small grid of cells tagged Empty, Food, Water, or Shade.
Energy and hydration decay every step and are restored by consuming on the
matching cell; core temperature relaxes toward the ambient temperature the
skin senses.  Shade cells are cooler than the season baseline, so shading is
the only lever on temperature.  Seasons swap the ambient baseline (and, if
configured, the resource layout) on a fixed period, which makes the external
dynamics non-stationary while the internal dynamics stay the same.
The external map reads only the agent's position from the current state:
the next state carries its season's resource map and ambient field (a
fresh noisy draw of it in a noisy world), so a hand-built world steps into
the env's own.

`body_at` puts a body at rest on a cell for `reset`, `respawn` and the
runner's entropy probe; a respawned body lands on the start cell of its
season's own world, under the dead body's ambient field.

Internal dimension order is fixed: 0 energy, 1 hydration, 2 core_temp.

`make_coupled_variant` returns an environment whose internal temperature
update additionally reads the raw ambient value at the agent's position,
bypassing the boundary.  It exists as a negative control: the blanket
verifier must flag it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    ACTIONS,
    Action,
    BoundaryState,
    ExternalState,
    FactoredState,
    InternalState,
    Tag,
    TransitionModel,
)
from .errors import ConfigError, SchemaMismatch, require_finite
from .homeostat import DriveModel
from .rng import BlockStream, stream

ENERGY, HYDRATION, CORE_TEMP = 0, 1, 2
INTERNAL_DIM = 3

_MOVES = {
    Action.MoveN: (-1, 0),
    Action.MoveS: (1, 0),
    Action.MoveE: (0, 1),
    Action.MoveW: (0, -1),
}


@dataclass(frozen=True)
class SeasonSpec:
    """Ambient baseline and resource placements for one season."""

    baseline: float
    placements: tuple[tuple[int, int, Tag], ...]


class SeasonGrids(NamedTuple):
    """One season's resource map, noise-free ambient field, and the external
    state of every cell over those grids."""

    tags: tuple[tuple[Tag, ...], ...]
    field: tuple[tuple[float, ...], ...]
    states: tuple[tuple[ExternalState, ...], ...]


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry and per-season content.  Walls block movement."""

    rows: int
    cols: int
    start: tuple[int, int]
    seasons: tuple[SeasonSpec, ...]
    noise_std: float = 0.0
    shade_delta: float = 8.0

    @cached_property
    def table(self) -> tuple[SeasonGrids, ...]:
        """Every season's grids and cell states, built once per spec object."""
        table = []
        for s_idx, season in enumerate(self.seasons):
            cells = [[Tag.Empty] * self.cols for _ in range(self.rows)]
            for r, c, tag in season.placements:
                cells[r][c] = tag
            tags = tuple(tuple(row) for row in cells)
            shaded = season.baseline - self.shade_delta
            field = tuple(
                tuple(shaded if tag == Tag.Shade else season.baseline for tag in row) for row in tags
            )
            states = tuple(
                tuple(ExternalState((r, c), tags, field, s_idx) for c in range(self.cols))
                for r in range(self.rows)
            )
            table.append(SeasonGrids(tags, field, states))
        return tuple(table)

    def __getstate__(self) -> dict:
        """The fields without `table`, so a copy or another process builds its own."""
        state = dict(self.__dict__)
        state.pop("table", None)
        return state


@dataclass(frozen=True)
class SeasonSchedule:
    """Cyclic season order; the active index flips every `period` steps."""

    period: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class HomeoGridEnv:
    """A fully specified environment instance.

    `leak` is zero in the factored build; the coupled control variant sets
    it positive, which routes the raw ambient temperature straight into the
    internal update.
    """

    grid: GridSpec
    schedule: SeasonSchedule
    drive_model: DriveModel
    c_e: float
    c_h: float
    e_gain: float
    w_gain: float
    kappa: float
    leak: float = 0.0

    def __post_init__(self) -> None:
        validate_env(self)


def validate_env(env: HomeoGridEnv) -> None:
    g = env.grid
    require_finite(g, "noise_std", "shade_delta")
    for i, season in enumerate(g.seasons):
        if not math.isfinite(season.baseline):
            raise ConfigError(f"season {i} baseline must be finite, got {season.baseline!r}")
    require_finite(env, "c_e", "c_h", "e_gain", "w_gain", "kappa", "leak")
    if g.rows < 1 or g.cols < 1:
        raise ConfigError("grid must have positive dimensions")
    if not (0 <= g.start[0] < g.rows and 0 <= g.start[1] < g.cols):
        raise ConfigError(f"start cell {g.start} out of bounds")
    if not g.seasons:
        raise ConfigError("at least one season is required")
    for s_idx, season in enumerate(g.seasons):
        tags = [t for _, _, t in season.placements]
        if Tag.Food not in tags or Tag.Water not in tags:
            raise ConfigError(f"season {s_idx} needs at least one Food and one Water cell")
        placed = set()
        for r, c, _ in season.placements:
            if not (0 <= r < g.rows and 0 <= c < g.cols):
                raise ConfigError(f"placement ({r}, {c}) out of bounds in season {s_idx}")
            if (r, c) in placed:  # the table would keep only the later tag
                raise ConfigError(f"season {s_idx} places cell ({r}, {c}) twice")
            placed.add((r, c))
    if g.noise_std < 0.0:
        raise ConfigError("noise_std must be >= 0")
    if env.schedule.period < 1 or not env.schedule.order:
        raise ConfigError("schedule needs period >= 1 and a non-empty order")
    for idx in env.schedule.order:
        if not (0 <= idx < len(g.seasons)):
            raise ConfigError(f"schedule references unknown season {idx}")
    if env.c_e < 0.0 or env.c_h < 0.0:
        raise ConfigError("decay rates must be >= 0")
    if env.e_gain <= 0.0 or env.w_gain <= 0.0:
        raise ConfigError("consumption gains must be > 0")
    if not (0.0 < env.kappa <= 1.0):
        raise ConfigError("kappa must lie in (0, 1]")
    if env.leak < 0.0:
        raise ConfigError("leak must be >= 0")
    if env.drive_model.dim != INTERNAL_DIM:
        raise ConfigError("drive model must be 3-dimensional (energy, hydration, core_temp)")


def _noisy_fields(base: np.ndarray, noise: np.ndarray, noise_std: float) -> np.ndarray:
    """`base` plus the normal draws `noise`, broadcast against each other.

    The draws are clipped once, so a pathological draw cannot push a field
    to +-inf downstream; then one IEEE double add per cell, exactly as a
    per-cell Python add would do, so each field is bitwise the one built
    from its own draw alone.
    """
    bound = 6.0 * noise_std
    return base + noise.clip(-bound, bound)


def _noisy_field(
    base: np.ndarray, noise_std: float, rng: np.random.Generator | BlockStream
) -> tuple[tuple[float, ...], ...]:
    """`base` plus one clipped normal draw per cell."""
    noise = rng.normal(0.0, noise_std, size=base.shape)
    return tuple(map(tuple, _noisy_fields(base, noise, noise_std).tolist()))


def advance_season(schedule: SeasonSchedule, t: int) -> int:
    """Season index active at step t."""
    return schedule.order[(t // schedule.period) % len(schedule.order)]


def body_at(
    env: HomeoGridEnv, internal: InternalState, cell: tuple[int, int], season: int, field, t: int
) -> FactoredState:
    """`internal` at rest on `cell` of `season`'s world under the ambient `field`, at clock `t`.

    At rest: no ingestion flux, sensing `field` at the cell.  Under the
    season's own field the external state is the table's; under any other
    (a noisy draw) it is a new one over the season's resource map.
    """
    table = env.grid.table
    if not 0 <= season < len(table):
        raise SchemaMismatch(f"season {season} outside [0, {len(table)})")
    grids = table[season]
    r, c = cell
    if field is grids.field:
        external = grids.states[r][c]
    else:
        external = ExternalState(cell, grids.tags, field, season)
    return FactoredState(internal, BoundaryState(field[r][c], 0.0, 0.0), external, t)


def reset(env: HomeoGridEnv, seed: int) -> FactoredState:
    """Initial state: internal at the set point, agent at the start cell, season 0 phase."""
    season = advance_season(env.schedule, 0)
    grids = env.grid.table[season]
    field = grids.field
    if env.grid.noise_std > 0.0:
        field = _noisy_field(np.array(field), env.grid.noise_std, stream(seed, 0, "env-reset"))
    internal = InternalState(tuple(env.drive_model.set_point))
    return body_at(env, internal, env.grid.start, season, field, 0)


def respawn(env: HomeoGridEnv, state: FactoredState) -> FactoredState:
    """Re-embody after death: a fresh body at the start cell of its season's
    own world, under the dead body's ambient field, world clock intact.

    Seasons keep their phase so a mid-run death cannot shift the schedule
    that later steps (and metrics windows) depend on.
    """
    ext = state.external
    internal = InternalState(tuple(env.drive_model.set_point))
    return body_at(env, internal, env.grid.start, ext.season, ext.ambient_field, state.t)


def transition_maps(env: HomeoGridEnv) -> TransitionModel:
    """The (f_b, f_i, f_e) triple for this environment."""
    grid = env.grid
    e_gain, w_gain = env.e_gain, env.w_gain
    c_e, c_h, kappa, lam = env.c_e, env.c_h, env.kappa, env.leak
    schedule = env.schedule

    season_grids = grid.table
    noise_std = grid.noise_std
    bases = np.array([g.field for g in season_grids])
    shape = bases.shape[1:]
    consume, food, water = Action.Consume, Tag.Food, Tag.Water
    # The block stream's current block and its fields `[row, season]`: one slot,
    # read once per call, so threads sharing the model never mix two blocks.
    held = (None, None)

    def moved(pos: tuple[int, int], action: Action) -> tuple[int, int]:
        step = _MOVES.get(action)
        if step is not None:
            r, c = pos[0] + step[0], pos[1] + step[1]
            if 0 <= r < grid.rows and 0 <= c < grid.cols:
                return r, c
        return pos  # no move, or a wall in the way

    def sense(external: ExternalState, consuming: bool) -> BoundaryState:
        pos = external.agent_pos
        tag = external.tag_at(pos)
        return BoundaryState(
            sensed_ambient=external.ambient_at(pos),
            flux_food=e_gain if consuming and tag == food else 0.0,
            flux_water=w_gain if consuming and tag == water else 0.0,
        )

    # Every table state `[season][row][col]`, its boundary without and with
    # consumption, and the cell each action moves to `[row][col][action]`.
    states = tuple(g.states for g in season_grids)
    senses = tuple(
        tuple(tuple((sense(ext, False), sense(ext, True)) for ext in row) for row in table)
        for table in states
    )
    targets = tuple(
        tuple(tuple(moved((r, c), a) for a in ACTIONS) for c in range(grid.cols))
        for r in range(grid.rows)
    )

    def f_b(internal: InternalState, external: ExternalState, action: Action) -> BoundaryState:
        s = external.season
        r, c = external.agent_pos
        if states[s][r][c] is external:
            return senses[s][r][c][action == consume]
        return sense(external, action == consume)

    def f_i(internal: InternalState, boundary: BoundaryState, action: Action) -> InternalState:
        energy, hydration, temp = internal.values
        return InternalState(
            (
                energy - c_e + boundary.flux_food,
                hydration - c_h + boundary.flux_water,
                temp + kappa * (boundary.sensed_ambient - temp),
            )
        )

    def f_i_leak(
        internal: InternalState,
        boundary: BoundaryState,
        external: ExternalState,
        action: Action,
    ) -> InternalState:
        # f_i's update plus the leak term, added last: the same operations in
        # the same order as writing the leak into f_i's temperature sum.
        energy, hydration, temp_next = f_i(internal, boundary, action).values
        raw = external.ambient_at(external.agent_pos)
        temp = internal.values[CORE_TEMP]
        return InternalState((energy, hydration, temp_next + lam * (raw - temp)))

    def f_e(
        external: ExternalState,
        boundary: BoundaryState,
        action: Action,
        rng: np.random.Generator | BlockStream,
        t_next: int,
    ) -> ExternalState:
        # Only e_t's position is read: the successor's grids are its season's,
        # the table state itself in a noise-free world.
        nonlocal held
        season = advance_season(schedule, t_next)
        r, c = external.agent_pos
        pos = targets[r][c][action]
        if noise_std > 0.0:
            grids = season_grids[season]
            if isinstance(rng, BlockStream):
                block, row = rng.normal_block(0.0, noise_std, shape)
                block_held, fields = held
                if block is not block_held:
                    held, fields = (None, None), None  # free the used-up block's fields first
                    fields = _noisy_fields(bases, block[:, np.newaxis], noise_std)
                    held = (block, fields)
                field = tuple(map(tuple, fields[row, season].tolist()))
            else:
                field = _noisy_field(bases[season], noise_std, rng)
            return ExternalState(pos, grids.tags, field, season)
        return states[season][pos[0]][pos[1]]

    return TransitionModel(
        f_b=f_b,
        f_i=f_i,
        f_e=f_e,
        internal_dim=INTERNAL_DIM,
        states=states,
        internal_leak=f_i_leak if lam > 0.0 else None,
    )


def make_coupled_variant(env: HomeoGridEnv, lam: float) -> HomeoGridEnv:
    """The same environment with the boundary-bypassing temperature leak enabled."""
    if lam <= 0.0:
        raise ConfigError("coupling leak must be > 0")
    return dc_replace(env, leak=lam)


class SurvivalTracker:
    """The survival rule, fed one in-zone flag per step.

    `update` returns True (dead) once the trailing run of out-of-zone steps
    exceeds the grace window; `reset` starts the count again for a fresh body.
    """

    __slots__ = ("grace", "streak")

    def __init__(self, grace_steps: int):
        self.grace = grace_steps
        self.streak = 0

    def update(self, ok: bool) -> bool:
        self.streak = 0 if ok else self.streak + 1
        return self.streak > self.grace

    def reset(self) -> None:
        self.streak = 0
