"""Drive function, reward telescoping, viability, dominant deficit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interoai.core import ACTIONS, InternalState
from interoai.envs import reset, transition_maps
from interoai.errors import ConfigError, DimensionMismatch
from interoai.homeostat import (
    DriveModel,
    dominant_deficit,
    drive,
    drive_and_deficit,
    homeostatic_reward,
    in_viability,
)
from interoai.core import step_factored
from interoai.rng import stream

from helpers import make_tiny_env
from oracles import two_pass_dominant_deficit, two_pass_drive

DM2 = DriveModel(set_point=(0.0, 0.0), weights=(1.0, 1.0), viability=((-10.0, 10.0),) * 2)


def test_drive_zero_at_set_point():
    assert drive(DM2, InternalState((0.0, 0.0))) == 0.0


def test_drive_euclidean_345():
    assert drive(DM2, InternalState((3.0, 4.0))) == pytest.approx(5.0, abs=1e-12)


def test_drive_weighted_sqrt3():
    dm = DriveModel(set_point=(0.0, 0.0), weights=(2.0, 1.0))
    assert drive(dm, InternalState((1.0, 1.0))) == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_drive_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        drive(DM2, InternalState((1.0, 2.0, 3.0)))


def test_reward_is_drive_reduction():
    h0 = InternalState((3.0, 4.0))
    h1 = InternalState((0.0, 3.0))
    r = homeostatic_reward(DM2, h0, h1)
    assert type(r) is float
    assert r == pytest.approx(5.0 - 3.0, abs=1e-12)
    assert homeostatic_reward(DM2, h0, h0) == 0.0


@given(
    st.lists(
        st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)),
        min_size=2,
        max_size=30,
    )
)
def test_reward_telescopes_over_any_trajectory(points):
    states = [InternalState(p) for p in points]
    total = sum(homeostatic_reward(DM2, a, b) for a, b in zip(states, states[1:]))
    expected = drive(DM2, states[0]) - drive(DM2, states[-1])
    assert abs(total - expected) < 1e-9


def test_telescoping_on_simulated_trajectory():
    env = make_tiny_env()
    dm = env.drive_model
    model = transition_maps(env)
    rng_env = stream(11, "env")
    rng_act = stream(11, "agent")
    state = reset(env, 11)
    h0 = state.internal
    total = 0.0
    for _ in range(500):
        action = ACTIONS[int(rng_act.integers(0, len(ACTIONS)))]
        nxt = step_factored(model, state, action, rng_env)
        total += homeostatic_reward(dm, state.internal, nxt.internal)
        state = nxt
    assert abs(total - (drive(dm, h0) - drive(dm, state.internal))) < 1e-9


@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
@settings(max_examples=50)
def test_ray_monotonicity(t1_raw, gap):
    # Along any ray from the set point, drive strictly increases with radius.
    dm = DriveModel(set_point=(1.0, -2.0, 0.5), weights=(1.0, 3.0, 0.2))
    direction = (0.6, -0.64, 0.48)
    t1, t2 = t1_raw, t1_raw + gap
    h = lambda t: InternalState(tuple(s + t * u for s, u in zip(dm.set_point, direction)))
    assert drive(dm, h(t1)) < drive(dm, h(t2))


def test_reward_positive_when_all_components_approach():
    dm = DriveModel(set_point=(0.0, 0.0), weights=(1.0, 2.0))
    h0 = InternalState((4.0, -3.0))
    h1 = InternalState((2.0, -1.0))
    assert homeostatic_reward(dm, h0, h1) > 0.0


def test_viability_closed_intervals():
    dm = DriveModel(
        set_point=(0.5, 0.5), weights=(1.0, 1.0), viability=((0.0, 1.0), (0.0, 1.0))
    )
    assert in_viability(dm, InternalState((0.0, 0.5)))  # exactly on the lower edge
    assert in_viability(dm, InternalState((0.5, 0.5)))
    assert not in_viability(dm, InternalState((0.5, 1.0 + 1e-9)))


def test_dominant_deficit_examples():
    dm3 = DriveModel(set_point=(0.0, 0.0, 0.0), weights=(1.0, 1.0, 1.0))
    assert dominant_deficit(dm3, InternalState((0.0, 5.0, 0.0))) == 1
    assert dominant_deficit(dm3, InternalState((2.0, 2.0, 2.0))) == 0  # tie -> lowest
    dm2 = DriveModel(set_point=(0.0, 0.0), weights=(4.0, 1.0))
    assert dominant_deficit(dm2, InternalState((1.0, 1.5))) == 0  # 4*1 > 1*2.25


COMPONENTS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dims=st.integers(1, 5))
def test_one_pass_equals_the_two_pass_drive_and_deficit(data, dims):
    # Values drawn from a few sampled ones tie often: the lowest index wins.
    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=dims, max_size=dims)))

    exponent = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.0, 4.0))
    weights = vector(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    dm = DriveModel(vector(COMPONENTS), weights, data.draw(exponent), data.draw(exponent))
    values = vector(COMPONENTS)
    h = InternalState(values)
    d, deficit = drive_and_deficit(dm, h)
    assert d.hex() == drive(dm, h).hex() == two_pass_drive(dm, values).hex()
    assert deficit == dominant_deficit(dm, h) == two_pass_dominant_deficit(dm, values)
    with pytest.raises(DimensionMismatch):
        drive_and_deficit(dm, InternalState(values + (0.0,)))


@given(st.lists(st.floats(allow_nan=True), min_size=2, max_size=2))
def test_in_viability_is_every_component_inside(values):
    assert in_viability(DM2, InternalState(tuple(values))) == all(-10.0 <= v <= 10.0 for v in values)


@given(st.floats(0.1, 100.0))
def test_dominant_deficit_scale_invariant(scale):
    dm = DriveModel(set_point=(0.0, 0.0, 0.0), weights=(2.0, 1.0, 0.5))
    scaled = DriveModel(set_point=(0.0, 0.0, 0.0), weights=(2.0 * scale, scale, 0.5 * scale))
    h = InternalState((1.0, 1.4, 2.0))
    assert dominant_deficit(dm, h) == dominant_deficit(scaled, h)


@pytest.mark.parametrize(
    "fields",
    [
        dict(weights=(math.nan, 1.0)),
        dict(set_point=(0.5, math.inf)),
        dict(n=math.nan),
        dict(viability=((0.0, 1.0), (-math.inf, 1.0))),
    ],
)
def test_drive_model_rejects_non_finite_values(fields):
    spec = dict(set_point=(0.5, 0.5), weights=(1.0, 1.0), viability=((0.0, 1.0), (0.0, 1.0)))
    spec.update(fields)
    with pytest.raises(ConfigError, match="finite"):
        DriveModel(**spec)
