"""Factored state space and the one-step transition engine.

A state is split three ways: an internal part (the physiological variables
the agent must keep in range), a boundary part (what the body senses and
ingests), and an external part (the world).  The three update maps are wired
so that the internal map never receives the external state and the external
map never receives the internal state.  Decoupling is therefore a property
of call signatures, not of tuned coefficients, and can be checked bitwise.

Update order within one step, with a_t the chosen action:

    b_{t+1} = f_b(i_t, e_t, a_t)
    i_{t+1} = f_i(i_t, b_t, a_t)
    e_{t+1} = f_e(e_t, b_t, a_t, rng, t+1)

The internal update reads the boundary of the *current* state, so i_{t+1}
is a deterministic function of (i_t, b_t, a_t) alone.  That makes the
conditional independence of i_{t+1} and e_t given (i_t, b_t, a_t) exact
rather than approximate, which is what the blanket verifier tests.

Only f_e consumes randomness; f_b and f_i are deterministic.  All state
types are immutable values, so stepping never mutates its inputs, and a
model swaps what it keeps between calls as one value: stepping is safe to
run from many threads as long as each run owns its generator.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .errors import SchemaMismatch


class Action(IntEnum):
    """The six primitive actions."""

    MoveN = 0
    MoveS = 1
    MoveE = 2
    MoveW = 3
    Consume = 4
    Rest = 5


ACTIONS: tuple[Action, ...] = tuple(Action)


class Tag(IntEnum):
    """Cell contents."""

    Empty = 0
    Food = 1
    Water = 2
    Shade = 3


def _slot_init(cls: type) -> type:
    """Give a frozen slots dataclass an `__init__` that fills each slot through
    its member descriptor.

    The dataclass's own frozen `__init__` calls `object.__setattr__` once per
    field; the generated one takes the same parameters, in field order, and
    calls each slot's `__set__` instead, which is the same store for less
    lookup.  Equality, hashing, `repr`, `replace`, pickling and the frozen
    `__setattr__` are the dataclass's own.  A class with a field default, a
    field left out of `__init__` or a `__post_init__` is refused, so nothing
    the dataclass's `__init__` would do is skipped.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that _slot_init would skip")
    names = []
    for f in fields(cls):
        if f.default is not MISSING or f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name} has a default or no parameter: _slot_init refuses it")
        names.append(f.name)
    setters = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", setters, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class InternalState:
    """Physiological variables, e.g. (energy, hydration, core_temp)."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


@_slot_init
@dataclass(frozen=True, slots=True)
class BoundaryState:
    """What crosses the body surface: sensed ambient heat and ingestion flux."""

    sensed_ambient: float
    flux_food: float
    flux_water: float


@_slot_init
@dataclass(frozen=True, slots=True)
class ExternalState:
    """World state: agent position, per-cell resources and temperatures, season."""

    agent_pos: tuple[int, int]
    resource_map: tuple[tuple[Tag, ...], ...]
    ambient_field: tuple[tuple[float, ...], ...]
    season: int

    def tag_at(self, pos: tuple[int, int]) -> Tag:
        return self.resource_map[pos[0]][pos[1]]

    def ambient_at(self, pos: tuple[int, int]) -> float:
        return self.ambient_field[pos[0]][pos[1]]


@_slot_init
@dataclass(frozen=True, slots=True)
class FactoredState:
    """The full simulator state at one time step."""

    internal: InternalState
    boundary: BoundaryState
    external: ExternalState
    t: int


# Update-map signatures.  f_i admits no external argument and f_e admits no
# internal argument; a leak map exists only so that a deliberately broken
# control variant can be built and then caught by the verifier.
FBoundary = Callable[[InternalState, ExternalState, Action], BoundaryState]
FInternal = Callable[[InternalState, BoundaryState, Action], InternalState]
FExternal = Callable[
    [ExternalState, BoundaryState, Action, np.random.Generator, int], ExternalState
]
FInternalLeak = Callable[
    [InternalState, BoundaryState, ExternalState, Action], InternalState
]


@dataclass(frozen=True)
class TransitionModel:
    """The three update maps, the world they step, and an optional blanket-violating leak.

    `internal_leak` replaces `f_i` when set.  The factored build keeps it
    None so the internal update cannot read the external state at all.

    `states[season][row][col]` is the external state the env built for
    each cell in each season, over that season's grids.  It is the world's
    one description.  Its shape is checked once, here: a table with no
    season, row or column, or whose seasons differ in shape, raises
    SchemaMismatch, and `shape` keeps the (seasons, rows, cols) that
    `check_schema` reads.  `check_schema` trusts a state whole when it is
    its own table entry, and skips a grid that is that entry's grid.
    """

    f_b: FBoundary
    f_i: FInternal
    f_e: FExternal
    internal_dim: int
    states: tuple = field(repr=False, compare=False)
    internal_leak: Optional[FInternalLeak] = None
    shape: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = self.states
        rows = len(table[0]) if table else 0
        cols = len(table[0][0]) if rows else 0
        if not cols:
            raise SchemaMismatch("states need at least one season, row and column")
        for season in table:
            _check_grid(season, rows, cols, "season")
        object.__setattr__(self, "shape", (len(table), rows, cols))


def _check_grid(grid, rows: int, cols: int, what: str) -> None:
    """Raise SchemaMismatch unless `grid` has `rows` rows of `cols` cells each."""
    if len(grid) != rows:
        raise SchemaMismatch(f"{what} shape disagrees with {rows}x{cols}")
    for row in grid:
        if len(row) != cols:
            raise SchemaMismatch(f"{what} shape disagrees with {rows}x{cols}")


def _check_pos(pos: tuple[int, int], rows: int, cols: int, what: str) -> None:
    r, c = pos
    if not (0 <= r < rows and 0 <= c < cols):
        raise SchemaMismatch(f"{what} {pos} out of bounds")


def check_schema(model: TransitionModel, state: FactoredState) -> None:
    """Raise SchemaMismatch unless the state fits the model's world.

    The internal dimension is `model.internal_dim`; the season count, rows
    and columns are `model.shape`, checked when the model was built.  After
    the internal dimension, the cell and the season are checked, a state
    that is `model.states[season][row][col]` passes, and a grid of it is not
    scanned.
    """
    if len(state.internal.values) != model.internal_dim:
        raise SchemaMismatch(
            f"internal dimension {len(state.internal)} != schema {model.internal_dim}"
        )
    table = model.states
    seasons, rows, cols = model.shape
    ext = state.external
    _check_pos(ext.agent_pos, rows, cols, "agent_pos")
    if not 0 <= ext.season < seasons:
        raise SchemaMismatch(f"season {ext.season} outside [0, {seasons})")
    r, c = ext.agent_pos
    own = table[ext.season][r][c]
    if own is ext:
        return
    if ext.resource_map is not own.resource_map:
        _check_grid(ext.resource_map, rows, cols, "resource_map")
    if ext.ambient_field is not own.ambient_field:
        _check_grid(ext.ambient_field, rows, cols, "ambient_field")


def internal_update(
    model: TransitionModel,
    internal: InternalState,
    boundary: BoundaryState,
    external: ExternalState,
    action: Action,
) -> InternalState:
    """Apply the internal map, routing through the leak when present."""
    if model.internal_leak is not None:
        return model.internal_leak(internal, boundary, external, action)
    return model.f_i(internal, boundary, action)


def step_factored(
    model: TransitionModel,
    state: FactoredState,
    action: Action,
    rng: np.random.Generator,
) -> FactoredState:
    """Advance one step under the fixed blanket-respecting update order."""
    check_schema(model, state)
    i, b, e = state.internal, state.boundary, state.external
    t = state.t + 1
    b_next = model.f_b(i, e, action)
    i_next = internal_update(model, i, b, e, action)
    return FactoredState(i_next, b_next, model.f_e(e, b, action, rng, t), t)


def perturb_external(state: FactoredState, replacement: ExternalState) -> FactoredState:
    """Return a copy of `state` with the external component swapped.

    Internal and boundary components are untouched; used to probe that the
    internal update cannot see the swap.  The replacement must have the grid
    shape of the external state it replaces.
    """
    current = state.external.resource_map
    rows, cols = len(current), len(current[0])
    _check_grid(replacement.resource_map, rows, cols, "replacement resource_map")
    _check_grid(replacement.ambient_field, rows, cols, "replacement ambient_field")
    _check_pos(replacement.agent_pos, rows, cols, "replacement agent_pos")
    return replace(state, external=replacement)
