"""Shared builders for small test environments."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from interoai.core import BoundaryState, ExternalState, FactoredState, InternalState, Tag
from interoai.envs import GridSpec, HomeoGridEnv, SeasonSchedule, SeasonSpec
from interoai.homeostat import DriveModel

TINY_DRIVE = DriveModel(
    set_point=(0.6, 0.6, 37.0),
    weights=(4.0, 4.0, 0.06),
    viability=((0.1, 1.1), (0.1, 1.1), (33.0, 41.0)),
    grace_steps=5,
)


def make_tiny_env(**overrides) -> HomeoGridEnv:
    """A 3x3 two-season world with per-season layouts and a shade cell each."""
    grid = GridSpec(
        rows=3,
        cols=3,
        start=(1, 1),
        seasons=(
            SeasonSpec(
                baseline=37.0,
                placements=((0, 0, Tag.Food), (2, 2, Tag.Water), (0, 2, Tag.Shade)),
            ),
            SeasonSpec(
                baseline=45.0,
                placements=((2, 0, Tag.Food), (0, 1, Tag.Water), (1, 2, Tag.Shade)),
            ),
        ),
        noise_std=0.0,
        shade_delta=8.0,
    )
    fields = dict(
        grid=grid,
        schedule=SeasonSchedule(period=50, order=(0, 1)),
        drive_model=TINY_DRIVE,
        c_e=0.01,
        c_h=0.012,
        e_gain=0.1,
        w_gain=0.1,
        kappa=0.1,
    )
    fields.update(overrides)
    return HomeoGridEnv(**fields)


def all_external_states(env: HomeoGridEnv):
    """Every schema-valid external state of `env`: season layouts x positions."""
    out = []
    for season, grids in enumerate(env.grid.table):
        tags, field = grids.tags, grids.field
        for r in range(env.grid.rows):
            for c in range(env.grid.cols):
                out.append(
                    ExternalState(
                        agent_pos=(r, c), resource_map=tags, ambient_field=field, season=season
                    )
                )
    return out


# Bin edge sets, and values on, between and beyond their edges and at either infinity.
EDGE_SETS = st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True).map(
    lambda ks: tuple(float(k) for k in sorted(ks))
)
VALUES = st.one_of(st.integers(-44, 44).map(lambda k: k / 2), st.sampled_from((-math.inf, math.inf)))


def draw_states(data, dims: int, rows: int, cols: int, n_seasons: int, count: int = 30) -> list:
    """`count` states on one drawn tag map: any cell and season, `VALUES`, fluxes 0 or 0.25."""
    tag_rows = st.lists(st.sampled_from(list(Tag)), min_size=cols, max_size=cols).map(tuple)
    tags = data.draw(st.lists(tag_rows, min_size=rows, max_size=rows).map(tuple))
    flux = st.sampled_from((0.0, 0.25))
    states = []
    for _ in range(count):
        values = tuple(data.draw(VALUES) for _ in range(dims))
        boundary = BoundaryState(data.draw(VALUES), data.draw(flux), data.draw(flux))
        external = ExternalState(
            agent_pos=(data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))),
            resource_map=tags,
            ambient_field=(),
            season=data.draw(st.integers(0, n_seasons - 1)),
        )
        states.append(FactoredState(InternalState(values), boundary, external, t=0))
    return states
