"""HomeoGrid dynamics: reset, maps, seasons, survival, coupled control."""

import dataclasses
import math

import pytest

from interoai.core import (
    ACTIONS,
    Action,
    BoundaryState,
    FactoredState,
    InternalState,
    Tag,
    check_schema,
    step_factored,
)
from interoai.envs import (
    SeasonSchedule,
    SurvivalTracker,
    advance_season,
    body_at,
    make_coupled_variant,
    reset,
    respawn,
    transition_maps,
)
from interoai.errors import ConfigError, SchemaMismatch
from interoai.harness.config import default_config, parse_config
from interoai.homeostat import drive
from interoai.rng import BLOCK, BlockStream, stream

from helpers import make_tiny_env


def test_reset_deterministic_and_at_set_point():
    env = make_tiny_env()
    a = reset(env, 42)
    b = reset(env, 42)
    assert a == b
    assert drive(env.drive_model, a.internal) == 0.0
    assert a.external.agent_pos == env.grid.start
    assert a.external.season == env.schedule.order[0]


def test_reset_resources_match_season_zero():
    env = make_tiny_env()
    state = reset(env, 0)
    tags = env.grid.table[env.schedule.order[0]].tags
    assert state.external.resource_map == tags
    placements = {(r, c): tag for r, c, tag in env.grid.seasons[0].placements}
    for (r, c), tag in placements.items():
        assert state.external.resource_map[r][c] == tag


def test_rest_on_empty_cell_drains_energy_only():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)  # start cell is Empty
    b = model.f_b(state.internal, state.external, Action.Rest)
    assert (b.flux_food, b.flux_water) == (0.0, 0.0)
    nxt_internal = model.f_i(state.internal, b, Action.Rest)
    assert nxt_internal.values[0] == pytest.approx(state.internal.values[0] - env.c_e, abs=1e-15)


def test_consume_on_food_gains_energy():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    on_food = dataclasses.replace(
        state, external=dataclasses.replace(state.external, agent_pos=(0, 0))
    )
    b = model.f_b(on_food.internal, on_food.external, Action.Consume)
    assert b.flux_food == env.e_gain
    nxt_internal = model.f_i(on_food.internal, b, Action.Consume)
    delta = nxt_internal.values[0] - on_food.internal.values[0]
    assert delta == pytest.approx(env.e_gain - env.c_e, abs=1e-15)


def test_consume_on_water_gains_hydration():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    on_water = dataclasses.replace(
        state, external=dataclasses.replace(state.external, agent_pos=(2, 2))
    )
    b = model.f_b(on_water.internal, on_water.external, Action.Consume)
    assert (b.flux_food, b.flux_water) == (0.0, env.w_gain)


def test_shade_cell_is_cooler():
    env = make_tiny_env()
    tags, field = env.grid.table[0].tags, env.grid.table[0].field
    assert tags[0][2] == Tag.Shade
    assert field[0][2] == env.grid.seasons[0].baseline - env.grid.shade_delta


def test_advance_season_formula():
    schedule = SeasonSchedule(period=100, order=(0, 1))
    assert advance_season(schedule, 0) == 0
    assert advance_season(schedule, 100) == 1
    assert advance_season(schedule, 250) == 0


def test_season_periodicity_of_resources():
    env = make_tiny_env()
    model = transition_maps(env)
    cycle = env.schedule.period * len(env.schedule.order)
    state = reset(env, 5)
    rng = stream(5, 0, "env")
    maps = {}
    for step in range(2 * cycle):
        if step % cycle == 7:  # same phase, consecutive cycles
            maps.setdefault("probe", []).append(state.external.resource_map)
        state = step_factored(model, state, Action.Rest, rng)
    assert maps["probe"][0] == maps["probe"][1]


def test_energy_conserved_without_decay_or_consumption():
    env = make_tiny_env(c_e=0.0)
    model = transition_maps(env)
    state = reset(env, 9)
    rng = stream(9, 0, "env")
    rng_act = stream(9, 0, "agent")
    moves = [a for a in Action if a != Action.Consume]
    for _ in range(300):
        action = moves[int(rng_act.integers(0, len(moves)))]
        state = step_factored(model, state, action, rng)
        assert state.internal.values[0] == 0.6


def test_terminal_check_rules():
    env = make_tiny_env()  # grace_steps = 5

    def dead_after(flags):
        tracker = SurvivalTracker(env.drive_model.grace_steps)
        dead = False
        for ok in flags:
            dead = tracker.update(ok)
        return dead

    assert dead_after([True] * 50) is False
    assert dead_after([True] * 10 + [False] * 6) is True
    assert dead_after([False] * 5 + [True]) is False
    assert dead_after([False] * 5) is False  # exactly grace, not beyond


def test_respawn_keeps_world_clock():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    rng = stream(0, 0, "env")
    for _ in range(60):  # crosses the period-50 season switch
        state = step_factored(model, state, Action.Rest, rng)
    reborn = respawn(env, state)
    assert reborn.t == state.t
    assert reborn.external.season == state.external.season
    assert reborn.internal.values == tuple(env.drive_model.set_point)
    assert reborn.external.agent_pos == env.grid.start


def test_coupled_variant_leak_example():
    # With sensed == core_temp the relaxation term vanishes and only the
    # leak acts: 30 + 0.2 * (40 - 30) = 32.
    env = make_tiny_env()
    coupled = make_coupled_variant(env, 0.2)
    model = transition_maps(coupled)
    state = reset(coupled, 0)
    hot_field = tuple(tuple(40.0 for _ in range(3)) for _ in range(3))
    probe = dataclasses.replace(
        state,
        internal=InternalState((0.6, 0.6, 30.0)),
        boundary=dataclasses.replace(state.boundary, sensed_ambient=30.0),
        external=dataclasses.replace(state.external, ambient_field=hot_field),
    )
    nxt = step_factored(model, probe, Action.Rest, stream(0, 0, "env"))
    assert nxt.internal.values[2] == pytest.approx(32.0, abs=1e-12)


def test_leak_map_equals_the_single_expression_bitwise():
    # The leak map reuses f_i and adds the leak term last; each value must be
    # the very double of the update written as one expression.
    env = make_tiny_env()
    lam = 0.2
    model = transition_maps(make_coupled_variant(env, lam))
    rng = stream(3, 0, "leak")
    external = reset(env, 0).external
    for _ in range(200):
        e, h, temp, sensed, ff, fw = rng.uniform(-50.0, 50.0, size=6).tolist()
        boundary = BoundaryState(sensed_ambient=sensed, flux_food=ff, flux_water=fw)
        raw = external.ambient_at(external.agent_pos)
        expected = (
            e - env.c_e + ff,
            h - env.c_h + fw,
            temp + env.kappa * (sensed - temp) + lam * (raw - temp),
        )
        got = model.internal_leak(InternalState((e, h, temp)), boundary, external, Action.Rest)
        assert got.values == expected


def test_coupled_variant_zero_lambda_rejected():
    env = make_tiny_env()
    with pytest.raises(ConfigError):
        make_coupled_variant(env, 0.0)
    with pytest.raises(ConfigError):
        make_coupled_variant(env, -0.5)


def test_factored_model_has_no_leak():
    env = make_tiny_env()
    assert transition_maps(env).internal_leak is None
    assert transition_maps(make_coupled_variant(env, 0.1)).internal_leak is not None


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        make_tiny_env(kappa=0.0)
    with pytest.raises(ConfigError):
        make_tiny_env(kappa=1.5)
    with pytest.raises(ConfigError):
        make_tiny_env(e_gain=0.0)
    with pytest.raises(ConfigError):
        make_tiny_env(c_e=-0.1)


@pytest.mark.parametrize("field", ["c_e", "e_gain", "leak"])
def test_non_finite_env_floats_rejected(field):
    with pytest.raises(ConfigError, match=field):
        make_tiny_env(**{field: math.nan})


@pytest.mark.parametrize("noise", [math.nan, math.inf])
def test_non_finite_noise_std_rejected(noise):
    # A NaN noise_std used to pass: f_e read it as noise-free (nan > 0 is
    # false) while reset drew NaN noise.
    env = make_tiny_env()
    with pytest.raises(ConfigError, match="noise_std"):
        dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=noise))


def test_noisy_ambient_field_equals_per_cell_sums_bitwise():
    # The field is built with one numpy add; each cell must be the very
    # double a per-cell Python add of base and clipped noise gives.
    import numpy as np

    from interoai.envs import _noisy_field

    env = make_tiny_env()
    grid = dataclasses.replace(env.grid, noise_std=3.0)
    for season in range(len(grid.seasons)):
        base = grid.table[season].field
        table_base = np.array(base)
        for seed in range(20):
            field = _noisy_field(table_base, 3.0, stream(seed, 0, "field"))
            noise = stream(seed, 0, "field").normal(0.0, 3.0, size=(grid.rows, grid.cols))
            noise = np.clip(noise, -18.0, 18.0)
            expected = tuple(
                tuple(base[r][c] + float(noise[r, c]) for c in range(grid.cols))
                for r in range(grid.rows)
            )
            assert all(type(v) is float for row in field for v in row)
            assert [[v.hex() for v in row] for row in field] == [
                [v.hex() for v in row] for row in expected
            ]


def test_noisy_fields_built_per_block_equal_per_step_fields_bitwise():
    # f_e fed by a block stream builds a block's fields at once; each must be
    # the very field `_noisy_field` builds from the same draw of a plain
    # stream.  A period of 300 switches season inside the blocks.
    import numpy as np

    from interoai.envs import _noisy_field
    from interoai.rng import BLOCK, BlockStream

    env = make_tiny_env(schedule=SeasonSchedule(period=300, order=(0, 1)))
    env = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=3.0))
    bases = [np.array(g.field) for g in env.grid.table]
    model = transition_maps(env)
    blocked, plain = BlockStream(5, 0, "blanket-env"), stream(5, 0, "blanket-env")
    state = reset(env, 0)
    external = state.external
    seasons_per_block = {}
    for t in range(1, 2 * BLOCK + 100):
        external = model.f_e(external, state.boundary, Action.MoveE if t % 2 else Action.MoveW, blocked, t)
        assert external.season == advance_season(env.schedule, t)
        seasons_per_block.setdefault((t - 1) // BLOCK, set()).add(external.season)
        expected = _noisy_field(bases[external.season], 3.0, plain)
        assert all(type(v) is float for row in external.ambient_field for v in row)
        assert [[v.hex() for v in row] for row in external.ambient_field] == [
            [v.hex() for v in row] for row in expected
        ]
    assert len(seasons_per_block) == 3
    assert all(seasons == {0, 1} for seasons in seasons_per_block.values())


def test_respawn_does_not_hash_the_grid_spec(monkeypatch):
    from interoai.envs import GridSpec

    env = make_tiny_env()
    noisy = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    for world in (env, noisy):
        state = step_factored(transition_maps(world), reset(world, 0), Action.MoveN, stream(0, 0, "env"))
        respawn(world, state)
        hashed = []
        grid_hash = GridSpec.__hash__
        monkeypatch.setattr(GridSpec, "__hash__", lambda self: hashed.append(self) or grid_hash(self))
        for _ in range(20):
            respawn(world, state)
        monkeypatch.undo()
        assert hashed == []


def test_a_copied_grid_spec_builds_its_own_read_only_table():
    # The table is built per spec object and stays out of pickles and
    # copies: a copy equals its original and builds its table when asked.
    import copy
    import pickle

    env = make_tiny_env()
    unused = dataclasses.replace(env.grid)
    transition_maps(env)
    assert "table" in vars(env.grid)
    assert pickle.dumps(env.grid) == pickle.dumps(unused)
    for clone in (pickle.loads(pickle.dumps(env.grid)), copy.deepcopy(env.grid)):
        assert clone == env.grid
        assert "table" not in vars(clone)
        assert [g.tags for g in clone.table] == [g.tags for g in env.grid.table]


def test_noise_free_step_in_place_returns_the_same_external_state():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    rng = stream(0, 0, "env")
    rested = step_factored(model, state, Action.Rest, rng)
    assert rested.external is state.external
    moved = step_factored(model, state, Action.MoveN, rng)
    assert moved.external is not state.external
    assert moved.external.agent_pos == (0, 1)
    # Crossing into the next season builds a new world even in place.
    late = dataclasses.replace(state, t=env.schedule.period - 1)
    switched = step_factored(model, late, Action.Rest, rng)
    assert switched.external.season != state.external.season


def _table_states(env):
    return [g.states for g in env.grid.table]


def test_noise_free_world_hands_out_its_table_states():
    # reset, moves, a consumption, a season switch and a respawn all return
    # the objects the env built once, not fresh equal-valued copies.
    env = make_tiny_env(schedule=SeasonSchedule(period=3, order=(0, 1)))
    states = _table_states(env)
    model = transition_maps(env)
    rng = stream(0, 0, "env")
    state = reset(env, 0)
    assert state.external is states[0][1][1]
    west = step_factored(model, state, Action.MoveW, rng)
    assert west.external is states[0][1][0]
    north = step_factored(model, west, Action.MoveN, rng)
    assert north.external is states[0][0][0]  # the season-0 food cell
    assert north.boundary is model.f_b(west.internal, west.external, Action.Rest)
    eaten = step_factored(model, north, Action.Consume, rng)  # t = 3: season 1 begins
    assert eaten.boundary is model.f_b(north.internal, north.external, Action.Consume)
    assert eaten.boundary == BoundaryState(37.0, env.e_gain, 0.0)
    assert eaten.external is states[1][0][0]
    assert respawn(env, eaten).external is states[1][1][1]


def test_an_equal_valued_copy_of_a_table_state_takes_the_general_path():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    table_state = state.external
    tags = tuple(tuple(list(row)) for row in table_state.resource_map)
    field = tuple(tuple(list(row)) for row in table_state.ambient_field)
    rng = stream(0, 0, "env")
    for copy in (
        dataclasses.replace(table_state),
        dataclasses.replace(table_state, resource_map=tags, ambient_field=field),
    ):
        assert copy == table_state and copy is not table_state
        for action in Action:
            expected = model.f_b(state.internal, table_state, action)
            got = model.f_b(state.internal, copy, action)
            assert got == expected and got is not expected
        # f_e reads only the position, so the copy steps where the table state does.
        moved = model.f_e(copy, state.boundary, Action.MoveN, rng, 1)
        assert moved == model.f_e(table_state, state.boundary, Action.MoveN, rng, 1)
        assert moved is model.states[0][0][1]


def test_a_state_with_a_foreign_resource_map_steps_into_the_envs_world():
    # f_e reads only e_t's position: a hand-built map is not carried forward.
    env = make_tiny_env()
    state = reset(env, 0)
    foreign = tuple(tuple(Tag.Food for _ in row) for row in state.external.resource_map)
    external = dataclasses.replace(state.external, resource_map=foreign)
    rng = stream(0, 0, "env")
    model = transition_maps(env)
    for t_next, season in ((1, 0), (env.schedule.period, 1)):
        moved = model.f_e(external, state.boundary, Action.MoveN, rng, t_next)
        assert moved is model.states[season][0][1]
    noisy = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    noisy_model = transition_maps(noisy)
    for t_next, season in ((1, 0), (env.schedule.period, 1)):
        moved = noisy_model.f_e(external, state.boundary, Action.MoveN, rng, t_next)
        assert (moved.agent_pos, moved.season) == ((0, 1), season)
        assert moved.resource_map is noisy.grid.table[season].tags


def test_a_state_with_a_foreign_resource_map_respawns_into_its_seasons_world():
    # respawn keeps the dead body's season, field and clock, not its resource map.
    env = make_tiny_env()
    noisy = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    foreign = tuple(tuple(Tag.Food for _ in row) for row in env.grid.table[0].tags)
    r, c = env.grid.start
    for world in (env, noisy):
        model = transition_maps(world)
        start = reset(world, 0)
        for t, season in ((0, 0), (env.schedule.period - 1, 1)):
            stepped = step_factored(model, dataclasses.replace(start, t=t), Action.MoveN, stream(0, 0, "env"))
            dead = dataclasses.replace(
                stepped, external=dataclasses.replace(stepped.external, resource_map=foreign)
            )
            reborn = respawn(world, dead)
            grids = world.grid.table[season]
            assert reborn.external.resource_map is grids.tags
            assert reborn.external.ambient_field is stepped.external.ambient_field
            assert (reborn.external.agent_pos, reborn.external.season, reborn.t) == ((r, c), season, t + 1)
            if world is env:
                assert reborn.external is grids.states[r][c]


def test_respawning_a_state_of_a_season_the_world_lacks_raises():
    env = make_tiny_env()
    noisy = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    for world in (env, noisy):
        state = reset(world, 0)
        for season in (-1, len(world.grid.seasons)):
            stray = dataclasses.replace(state, external=dataclasses.replace(state.external, season=season))
            with pytest.raises(SchemaMismatch, match=f"season {season} outside"):
                respawn(world, stray)


def test_body_at_rests_a_body_on_a_cell():
    env = make_tiny_env()
    internal = InternalState((0.2, 0.3, 36.0))
    grids = env.grid.table[1]
    own = body_at(env, internal, (0, 2), 1, grids.field, 7)
    assert own.external is grids.states[0][2]
    assert (own.internal, own.t) == (internal, 7)
    assert own.boundary == BoundaryState(grids.field[0][2], 0.0, 0.0)
    field = tuple(tuple(v + 0.5 for v in row) for row in grids.field)
    drawn = body_at(env, internal, (0, 2), 1, field, 7)
    assert drawn.external == dataclasses.replace(grids.states[0][2], ambient_field=field)
    assert drawn.external.resource_map is grids.tags
    assert drawn.boundary == BoundaryState(field[0][2], 0.0, 0.0)


def test_a_noisy_world_never_hands_out_a_table_state():
    env = make_tiny_env(schedule=SeasonSchedule(period=4, order=(0, 1)))
    env = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    table_ids = {id(s) for season in _table_states(env) for row in season for s in row}
    model = transition_maps(env)
    rng = stream(0, 0, "env")
    state = reset(env, 0)
    seen = [state.external]
    for action in [Action.MoveN, Action.Consume, Action.MoveE, Action.Rest, Action.MoveS] * 3:
        state = step_factored(model, state, action, rng)
        seen.append(state.external)
    seen.append(respawn(env, state).external)
    assert {s.season for s in seen} == {0, 1}
    assert not any(id(s) in table_ids for s in seen)


@pytest.mark.parametrize(
    "env",
    [make_tiny_env(schedule=SeasonSchedule(period=3, order=(0, 1))), parse_config(default_config()).env],
    ids=["tiny", "default"],
)
def test_every_table_step_fits_the_schema_and_lands_on_a_table_state(env):
    # Every table state of every season under every action, stepped once
    # inside its season and once across the switch out of it.
    model = transition_maps(env)
    internal = reset(env, 0).internal
    period, order = env.schedule.period, env.schedule.order
    rng = stream(0, 0, "env")
    for season, table in enumerate(model.states):
        first = order.index(season) * period
        for t_next in (first + 1, first + period):
            for row in table:
                for external in row:
                    for action in ACTIONS:
                        boundary = model.f_b(internal, external, action)
                        nxt = model.f_e(external, boundary, action, rng, t_next)
                        check_schema(model, FactoredState(internal, boundary, nxt, t_next))
                        assert nxt.season == advance_season(env.schedule, t_next)
                        assert nxt is model.states[nxt.season][nxt.agent_pos[0]][nxt.agent_pos[1]]


def test_a_noisy_worlds_draws_fit_the_schema_across_a_block_boundary():
    env = parse_config(default_config()).blanket.env
    model = transition_maps(env)
    state = reset(env, 0)
    internal, external = state.internal, state.external
    rng = BlockStream(0, 0, "blanket-env")
    for t in range(1, BLOCK + 50):  # one draw per step: the last 49 come from the second block
        action = ACTIONS[t % len(ACTIONS)]
        boundary = model.f_b(internal, external, action)
        external = model.f_e(external, boundary, action, rng, t)
        check_schema(model, FactoredState(internal, boundary, external, t))


def test_threads_sharing_one_noisy_model_each_see_their_own_fields():
    # Two runs step one model, each with its own block stream, while the
    # interpreter switches threads as often as it can; each must see the
    # very fields a serial run of its stream sees.
    import sys
    import threading

    env = parse_config(default_config()).blanket.env
    model = transition_maps(env)
    start = reset(env, 0)

    def run(seed, out):
        rng = BlockStream(seed, 0, "blanket-env")
        external = start.external
        for t in range(1, 2 * BLOCK + 100):
            external = model.f_e(external, start.boundary, ACTIONS[t % len(ACTIONS)], rng, t)
            out.append(external.ambient_field)

    serial = {seed: [] for seed in (1, 2)}
    for seed, out in serial.items():
        run(seed, out)
    threaded = {seed: [] for seed in serial}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=item) for item in threaded.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
