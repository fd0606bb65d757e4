"""Step engine: update order, purity, determinism, and the structural blanket."""

import copy
import dataclasses
import pickle

import pytest

from interoai import core
from interoai.core import (
    Action,
    BoundaryState,
    ExternalState,
    FactoredState,
    InternalState,
    Tag,
    TransitionModel,
    perturb_external,
    step_factored,
)
from interoai.envs import SeasonSchedule, reset, respawn, transition_maps
from interoai.errors import SchemaMismatch
from interoai.harness.config import default_config, parse_config
from interoai.rng import stream

from helpers import all_external_states, make_tiny_env


def test_identity_model_increments_time_only():
    env = make_tiny_env()
    state = reset(env, 0)
    model = TransitionModel(
        f_b=lambda i, e, a: state.boundary,
        f_i=lambda i, b, a: i,
        f_e=lambda e, b, a, rng, t: e,
        internal_dim=3,
        states=transition_maps(env).states,
    )
    nxt = step_factored(model, state, Action.Rest, stream(0, "env"))
    assert nxt.internal == state.internal
    assert nxt.boundary == state.boundary
    assert nxt.external == state.external
    assert nxt.t == state.t + 1


def _model_over(states) -> TransitionModel:
    return TransitionModel(
        f_b=lambda i, e, a: None, f_i=lambda i, b, a: i, f_e=lambda e, b, a, rng, t: e, internal_dim=3, states=states
    )


@pytest.mark.parametrize("states", [(), ((),), (((),),)], ids=["no-season", "no-row", "no-column"])
def test_model_rejects_an_empty_table_when_it_is_built(states):
    with pytest.raises(SchemaMismatch, match="at least one season, row and column"):
        _model_over(states)


def test_model_rejects_a_season_of_another_shape_when_it_is_built():
    table = transition_maps(make_tiny_env()).states
    narrow = tuple(row[:-1] for row in table[1])
    for bad in ((table[0], narrow), (table[0], table[1][:-1]), (table[0], table[1] + table[1][:1])):
        with pytest.raises(SchemaMismatch, match="season shape"):
            _model_over(bad)


def test_model_shape_is_its_tables_and_replace_checks_it_again():
    model = transition_maps(make_tiny_env())
    assert model.shape == (2, 3, 3)
    assert dataclasses.replace(model, states=model.states[:1]).shape == (1, 3, 3)
    with pytest.raises(SchemaMismatch):
        dataclasses.replace(model, states=())


def test_step_reads_current_boundary_not_new_one():
    # The internal update must consume b_t, so a sensed temperature planted
    # in the current boundary is what drives core_temp at t+1.
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    hot = dataclasses.replace(state, boundary=BoundaryState(40.0, 0.0, 0.0))
    nxt = step_factored(model, hot, Action.Rest, stream(0, "env"))
    # kappa = 0.1, core 37, sensed 40 -> 37 + 0.1 * 3 = 37.3
    assert nxt.internal.values[2] == pytest.approx(37.3, abs=1e-12)


def test_newton_relaxation_example():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    probe = dataclasses.replace(
        state,
        internal=InternalState((0.6, 0.6, 30.0)),
        boundary=BoundaryState(40.0, 0.0, 0.0),
    )
    nxt = step_factored(model, probe, Action.Rest, stream(0, "env"))
    assert nxt.internal.values[2] == 31.0


def test_determinism_bitwise():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 3)
    a = step_factored(model, state, Action.MoveE, stream(7, "env"))
    b = step_factored(model, state, Action.MoveE, stream(7, "env"))
    assert a == b


def test_purity_input_unmodified():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 1)
    snapshot = dataclasses.replace(state)
    step_factored(model, state, Action.MoveN, stream(0, "env"))
    assert state == snapshot


def test_wall_blocks_movement():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    # Walk north twice from the center of the 3x3 grid: second move hits the wall.
    rng = stream(0, "env")
    one = step_factored(model, state, Action.MoveN, rng)
    assert one.external.agent_pos == (0, 1)
    two = step_factored(model, one, Action.MoveN, rng)
    assert two.external.agent_pos == (0, 1)
    assert two.t == one.t + 1


def test_schema_mismatch_rejected():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    bad = dataclasses.replace(state, internal=InternalState((0.5, 0.5)))
    with pytest.raises(SchemaMismatch):
        step_factored(model, bad, Action.Rest, stream(0, "env"))


def _with_external(state, **changes):
    return dataclasses.replace(state, external=dataclasses.replace(state.external, **changes))


def test_schema_rejects_short_resource_map():
    env = make_tiny_env()
    state = reset(env, 0)
    bad = _with_external(state, resource_map=state.external.resource_map[:2])
    with pytest.raises(SchemaMismatch, match="resource_map"):
        step_factored(transition_maps(env), bad, Action.Rest, stream(0, "env"))


def test_schema_rejects_ragged_ambient_field():
    env = make_tiny_env()
    state = reset(env, 0)
    field = state.external.ambient_field
    bad = _with_external(state, ambient_field=(field[0], field[1][:2], field[2]))
    with pytest.raises(SchemaMismatch, match="ambient_field"):
        step_factored(transition_maps(env), bad, Action.Rest, stream(0, "env"))


def test_schema_rejects_out_of_bounds_agent_pos():
    env = make_tiny_env()
    state = reset(env, 0)
    model = transition_maps(env)
    for pos in ((3, 1), (1, 3), (-1, 0)):
        bad = _with_external(state, agent_pos=pos)
        with pytest.raises(SchemaMismatch, match="agent_pos"):
            step_factored(model, bad, Action.Rest, stream(0, "env"))


def test_schema_check_not_fooled_by_an_earlier_valid_step():
    # A valid step first, so any shape memo is warm; then a different,
    # mis-shaped grid must still be scanned and rejected.
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    rng = stream(0, "env")
    step_factored(model, state, Action.Rest, rng)
    tags = state.external.resource_map
    ragged = (tags[0], tags[1], tags[2][:1])
    with pytest.raises(SchemaMismatch, match="resource_map"):
        step_factored(model, _with_external(state, resource_map=ragged), Action.Rest, rng)
    field = state.external.ambient_field
    long_field = field + (field[0],)
    with pytest.raises(SchemaMismatch, match="ambient_field"):
        step_factored(model, _with_external(state, ambient_field=long_field), Action.Rest, rng)


def _record_grid_scans(monkeypatch) -> list[str]:
    scanned = []
    real = core._check_grid

    def spy(grid, rows, cols, what, *rest):
        scanned.append(what)
        return real(grid, rows, cols, what, *rest)

    monkeypatch.setattr(core, "_check_grid", spy)
    return scanned


def test_noise_free_world_scans_no_grid_it_built(monkeypatch):
    # Every grid of a noise-free world comes from the env's season table,
    # across steps, season switches and a respawn; none needs a scan.
    env = make_tiny_env(schedule=SeasonSchedule(period=2, order=(0, 1)))
    model = transition_maps(env)
    state = reset(env, 0)
    scanned = _record_grid_scans(monkeypatch)
    rng = stream(0, "env")
    state = step_factored(model, state, Action.Rest, rng)
    assert scanned == []  # the first step too
    for action in (Action.MoveN, Action.Consume, Action.MoveE, Action.Rest, Action.MoveS):
        state = step_factored(model, state, action, rng)
    state = step_factored(model, respawn(env, state), Action.MoveW, rng)
    assert state.t == 7
    assert scanned == []


def test_noisy_world_scans_only_the_ambient_field_on_each_step(monkeypatch):
    env = make_tiny_env()
    env = dataclasses.replace(env, grid=dataclasses.replace(env.grid, noise_std=1.0))
    model = transition_maps(env)
    state = reset(env, 0)
    scanned = _record_grid_scans(monkeypatch)
    rng = stream(0, "env")
    for _ in range(12):
        state = step_factored(model, state, Action.Rest, rng)
    assert scanned == ["ambient_field"] * 12


def test_perturb_external_swaps_only_external():
    env = make_tiny_env()
    state = reset(env, 0)
    for replacement in all_external_states(env):
        swapped = perturb_external(state, replacement)
        assert swapped.internal == state.internal
        assert swapped.boundary == state.boundary
        assert swapped.external == replacement
        assert swapped.t == state.t
    same = perturb_external(state, state.external)
    assert same == state


def test_perturb_external_rejects_out_of_bounds():
    env = make_tiny_env()
    state = reset(env, 0)
    bad = dataclasses.replace(state.external, agent_pos=(5, 5))
    with pytest.raises(SchemaMismatch):
        perturb_external(state, bad)


def test_perturb_external_rejects_a_world_of_another_shape():
    # A self-consistent 3x3 world swapped into a 7x7 state: the step engine
    # would reject the result, so the swap must be rejected up front.
    big = parse_config(default_config()).env
    state = reset(big, 0)
    small = reset(make_tiny_env(), 0).external
    with pytest.raises(SchemaMismatch):
        perturb_external(state, small)


def test_blanket_invariance_under_external_swap():
    # Bitwise-equal internal successors for every valid external replacement.
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    externals = all_external_states(env)
    for action in Action:
        references = None
        for replacement in externals:
            nxt = step_factored(model, perturb_external(state, replacement), action, stream(0, "env"))
            if references is None:
                references = nxt.internal
            else:
                assert nxt.internal == references


def test_a_table_state_is_trusted_whole_and_a_copy_is_checked(monkeypatch):
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    checked = []
    real = core._check_pos

    def spy(pos, *rest):
        checked.append(pos)
        return real(pos, *rest)

    monkeypatch.setattr(core, "_check_pos", spy)
    scanned = _record_grid_scans(monkeypatch)
    core.check_schema(model, state)
    assert state.external is model.states[0][1][1]
    assert checked == [(1, 1)] and scanned == []  # its cell is found by its bounds-checked position
    core.check_schema(model, _with_external(state))  # equal values, not the table's object
    assert checked == [(1, 1)] * 2 and scanned == []  # its grids are still the table state's


def test_a_table_state_of_another_world_is_checked():
    # The 3x3 world's own start state, stepped in a 7x7 model.
    small = reset(make_tiny_env(), 0)
    big_model = transition_maps(parse_config(default_config()).env)
    with pytest.raises(SchemaMismatch, match="resource_map"):
        step_factored(big_model, small, Action.Rest, stream(0, "env"))


@pytest.mark.parametrize("season", [7, -1, 2])
def test_schema_rejects_a_season_the_world_does_not_have(season):
    # The tiny world has two seasons; -1 must not index the last one.
    env = make_tiny_env()
    state = reset(env, 0)
    bad = _with_external(state, season=season)
    with pytest.raises(SchemaMismatch, match="season"):
        step_factored(transition_maps(env), bad, Action.Rest, stream(0, "env"))


# One value of each state type, built by keyword, and its expected repr.
_INTERNAL = InternalState(values=(0.5, 0.75, 37.0))
_BOUNDARY = BoundaryState(sensed_ambient=20.0, flux_food=0.25, flux_water=0.0)
_EXTERNAL = ExternalState(
    agent_pos=(0, 1), resource_map=((Tag.Empty, Tag.Food),), ambient_field=((20.0, 12.0),), season=1
)
STATE_FIELDS = {
    InternalState: {"values": (0.5, 0.75, 37.0)},
    BoundaryState: {"sensed_ambient": 20.0, "flux_food": 0.25, "flux_water": 0.0},
    ExternalState: {
        "agent_pos": (0, 1),
        "resource_map": ((Tag.Empty, Tag.Food),),
        "ambient_field": ((20.0, 12.0),),
        "season": 1,
    },
    FactoredState: {"internal": _INTERNAL, "boundary": _BOUNDARY, "external": _EXTERNAL, "t": 3},
}
_REPRS = {
    InternalState: "InternalState(values=(0.5, 0.75, 37.0))",
    BoundaryState: "BoundaryState(sensed_ambient=20.0, flux_food=0.25, flux_water=0.0)",
    ExternalState: (
        "ExternalState(agent_pos=(0, 1), resource_map=((<Tag.Empty: 0>, <Tag.Food: 1>),), "
        "ambient_field=((20.0, 12.0),), season=1)"
    ),
}
_REPRS[FactoredState] = (
    f"FactoredState(internal={_REPRS[InternalState]}, boundary={_REPRS[BoundaryState]}, "
    f"external={_REPRS[ExternalState]}, t=3)"
)
STATE_TYPES = pytest.mark.parametrize("cls", list(STATE_FIELDS), ids=lambda cls: cls.__name__)


@STATE_TYPES
def test_state_constructor_fills_every_field_by_position_or_keyword(cls):
    values = STATE_FIELDS[cls]
    by_position = cls(*values.values())
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    assert {name: getattr(by_position, name) for name in values} == values
    assert cls(**values) == by_position
    with pytest.raises(TypeError):
        cls(*list(values.values())[:-1])  # a field left out
    with pytest.raises(TypeError):
        cls(*values.values(), None)  # one too many


@STATE_TYPES
def test_state_is_frozen(cls):
    state = cls(**STATE_FIELDS[cls])
    for name in STATE_FIELDS[cls]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(state, name)
    assert state == cls(**STATE_FIELDS[cls])


@STATE_TYPES
def test_equal_states_are_equal_and_hash_equal(cls):
    a, b = cls(**STATE_FIELDS[cls]), cls(**STATE_FIELDS[cls])
    assert a is not b and a == b and hash(a) == hash(b)
    last = list(STATE_FIELDS[cls])[-1]
    other = dataclasses.replace(a, **{last: None})
    assert other != a and getattr(other, last) is None


@STATE_TYPES
def test_state_repr_is_the_dataclass_repr(cls):
    assert repr(cls(**STATE_FIELDS[cls])) == _REPRS[cls]


@STATE_TYPES
def test_state_replace_pickle_and_deepcopy_round_trip(cls):
    state = cls(**STATE_FIELDS[cls])
    assert dataclasses.replace(state) == state
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert type(copied) is cls and copied == state and hash(copied) == hash(state)


@pytest.mark.parametrize("spoiler", ["default", "factory", "no-init", "post-init"])
def test_slot_init_refuses_a_class_whose_init_does_more(spoiler):
    # The generated `__init__` only fills slots, so it must never replace one
    # that also fills in a default or runs a validation.
    namespace = {"__annotations__": {"a": int, "b": int}}
    if spoiler == "default":
        namespace["b"] = 0
    elif spoiler == "factory":
        namespace["b"] = dataclasses.field(default_factory=int)
    elif spoiler == "no-init":
        namespace["b"] = dataclasses.field(init=False)
    else:
        namespace["__post_init__"] = lambda self: None
    cls = dataclasses.dataclass(frozen=True, slots=True)(type("Spoiled", (), namespace))
    with pytest.raises(TypeError, match="_slot_init"):
        core._slot_init(cls)
