"""Discretization, softmax selection, TD updates, neuromodulation, gating."""

import dataclasses
import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interoai.agents import (
    AgentConfig,
    Discretizer,
    NeuromodConfig,
    QTable,
    external_reward,
    make_agent,
    modulate,
    q_select,
    q_update,
)
from interoai.core import ACTIONS, Action, InternalState, Tag
from interoai.envs import reset
from interoai.errors import ConfigError, NonFiniteValue
from interoai.homeostat import DriveModel, drive, drive_and_deficit
from interoai.rng import stream

from helpers import EDGE_SETS, TINY_DRIVE, draw_states, make_tiny_env
from oracles import get_max_set_update, mixed_radix_code, observation_tuple, softmax_probs, softmax_walk

DISC = Discretizer(internal_edges=((0.3, 0.5), (0.3, 0.5), (36.0, 38.5, 40.0)))


def internal_bins(disc: Discretizer, values: tuple[float, ...]) -> tuple:
    """The oracle's internal bins of a state with these internal values.

    They must also be the lowest digits of `disc.key`.
    """
    state = dataclasses.replace(reset(make_tiny_env(), 0), internal=InternalState(values))
    bins = observation_tuple(disc, state)[-len(values):]
    radices = tuple(len(edges) + 1 for edges in disc.internal_edges)
    assert disc.key(state) % math.prod(radices) == mixed_radix_code(bins, radices)
    return bins


def test_discretize_deterministic_and_binned():
    env = make_tiny_env()
    state = reset(env, 0)
    assert DISC.key(state) == DISC.key(state)
    shifted = dataclasses.replace(state, internal=InternalState((0.55, 0.59, 37.2)))
    assert DISC.key(shifted) == DISC.key(state)  # same bins
    low = dataclasses.replace(state, internal=InternalState((0.1, 0.6, 37.0)))
    assert DISC.key(low) != DISC.key(state)


def test_bin_edge_maps_to_upper_bin():
    assert internal_bins(DISC, (0.3, 0.0, 35.0)) == (1, 0, 0)
    assert internal_bins(DISC, (0.5, 0.5, 40.0)) == (2, 2, 3)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_real_maps_to_exactly_one_bin(v):
    edges = (-1.0, 0.0, 2.5)
    d = Discretizer(internal_edges=(edges,))
    (b,) = internal_bins(d, (v,))
    assert 0 <= b <= len(edges)


def test_discretizer_rejects_no_edge_sets():
    # The ambient bin reads the last edge set, so there must be one.
    with pytest.raises(ConfigError, match="edge set"):
        Discretizer(internal_edges=())


def test_discretizer_rejects_unsorted_edges():
    with pytest.raises(ConfigError):
        Discretizer(internal_edges=((0.5, 0.3),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_discretizer_rejects_non_finite_edges(bad):
    with pytest.raises(ConfigError, match="finite"):
        Discretizer(internal_edges=((bad, 1.0),))
    with pytest.raises(ConfigError, match="finite"):
        Discretizer(internal_edges=((0.0, 1.0), (0.0, bad)))


def test_ambient_bin_is_the_key_and_blanket_ambient_feature():
    env = make_tiny_env()
    state = reset(env, 0)
    b = state.boundary
    assert b.flux_food == b.flux_water == 0.0
    radices = tuple(len(edges) + 1 for edges in DISC.internal_edges)
    for sensed in (30.0, 36.0, 38.0, 38.5, 45.0):
        probe = dataclasses.replace(state, boundary=dataclasses.replace(b, sensed_ambient=sensed))
        expected = observation_tuple(DISC, probe)[5]  # after row, col, tag and the two flux bits
        assert expected == internal_bins(DISC, (0.0, 0.0, sensed))[-1]  # core temperature's edges
        # In the key, the ambient bin sits above the two flux bits and the internal bins.
        assert DISC.key(probe) // (4 * math.prod(radices)) % radices[-1] == expected
        # It is the boundary code's leading digit, above the two flux bits.
        code = DISC.boundary_codes(np.array([sensed]), np.array([b.flux_food]), np.array([b.flux_water]))
        assert code.tolist() == [expected * 4]


def _lowest_in_bin(edges, v):
    """The lowest value of `v`'s bin: the edge at its bottom, or -inf below the first edge."""
    k = bisect_right(edges, v)
    return edges[k - 1] if k else -math.inf


def _same_observation(disc, state, n_seasons):
    """Another state the agent must not tell apart from `state`.

    Every binned value moves to the lowest value of its bin, each flux to
    twice itself, and what the key does not see (the season, or the sensed
    ambient) changes.
    """
    b, ext = state.boundary, state.external
    edges = disc.internal_edges
    sensed = _lowest_in_bin(edges[-1], b.sensed_ambient) if disc.sense_ambient else -b.sensed_ambient
    season = ext.season if disc.season_visible else (ext.season + 1) % n_seasons
    return dataclasses.replace(
        state,
        internal=InternalState(tuple(map(_lowest_in_bin, edges, state.internal.values))),
        boundary=dataclasses.replace(b, sensed_ambient=sensed, flux_food=2 * b.flux_food, flux_water=2 * b.flux_water),
        external=dataclasses.replace(ext, season=season),
    )


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(EDGE_SETS, min_size=1, max_size=4),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    n_seasons=st.integers(1, 3),
    season_visible=st.booleans(),
    sense_ambient=st.booleans(),
    data=st.data(),
)
def test_key_is_the_observation_tuple_as_an_int(edges, rows, cols, n_seasons, season_visible, sense_ambient, data):
    disc = Discretizer(internal_edges=tuple(edges), season_visible=season_visible, sense_ambient=sense_ambient)
    drawn = draw_states(data, len(edges), rows, cols, n_seasons)
    twins = [_same_observation(disc, s, n_seasons) for s in drawn]
    for state, twin in zip(drawn, twins):
        assert observation_tuple(disc, twin) == observation_tuple(disc, state)
    pairs = []  # (key, oracle tuple)
    for state in drawn + twins:
        key = disc.key(state)
        assert type(key) is int and key >= 0
        pairs.append((key, observation_tuple(disc, state)))
    keys = {key for key, _ in pairs}
    tuples = {symbols for _, symbols in pairs}
    assert len(keys) == len(tuples) == len(set(pairs))  # same key <=> same tuple

    # external_features is a bijection of (row, col, tag[, season]): over
    # every cell, tag and season, on grids of one tag.
    features = set()  # (symbols, code)
    for tag in Tag:
        tags = ((tag,) * cols,) * rows
        ext = dataclasses.replace(drawn[0].external, resource_map=tags)
        for r, c, season in itertools.product(range(rows), range(cols), range(n_seasons)):
            probe = dataclasses.replace(drawn[0], external=dataclasses.replace(ext, agent_pos=(r, c), season=season))
            code = disc.external_features(probe)
            assert type(code) is int and code >= 0
            features.add(((r, c, int(tag)) + ((season,) if season_visible else ()), code))
    assert len({s for s, _ in features}) == len({code for _, code in features}) == len(features)


def test_softmax_symmetric_and_argmax_limit():
    assert softmax_probs((0.0, 0.0), 1.0) == (0.5, 0.5)
    p_hot = softmax_probs((1.0, 0.0), 1e-4)
    assert p_hot[0] > 1.0 - 1e-12
    p1 = softmax_probs((1.0, 0.0), 1.0)
    assert p1[0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)


def test_softmax_max_subtraction_handles_huge_logits():
    probs = softmax_probs((1e6, 0.0), 1.0)
    assert probs[0] == 1.0 and probs[1] == 0.0


def test_q_select_frequencies_match_probabilities():
    # 3-sigma binomial band at 1e5 samples.
    q = QTable(actions=(Action.MoveN, Action.MoveS, Action.MoveE))
    q.set("s", Action.MoveN, 1.0)
    q.set("s", Action.MoveS, 0.5)
    rng = stream(123, "agent")
    n = 100_000
    counts = {a: 0 for a in q.actions}
    for _ in range(n):
        counts[q_select(q, "s", 1.0, rng)] += 1
    probs = softmax_probs(q.row("s"), 1.0)
    for a, p in zip(q.actions, probs):
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts[a] - n * p) < 3.0 * sigma


def test_q_update_bellman_example():
    q = QTable()
    q.set("s2", Action.MoveN, 2.0)
    q_update(q, ("s1", Action.Rest, 1.0, "s2"), alpha=0.5, gamma=0.9, g=1.0)
    assert q.get("s1", Action.Rest) == pytest.approx(1.4, abs=1e-12)


def test_q_update_zero_td_error_changes_nothing():
    q = QTable()
    q_update(q, ("s", Action.Rest, 0.0, "s"), alpha=0.5, gamma=0.9, g=1.0)
    assert q.values == {("s", Action.Rest): 0.0} or q.get("s", Action.Rest) == 0.0


def test_q_update_touches_exactly_one_entry():
    q = QTable()
    q.set("a", Action.MoveN, 3.0)
    q.set("b", Action.MoveS, -1.0)
    # Entries are read through q.get: the table stores one mutable row per
    # observation, so a shallow copy of q.values would share the rows.
    def entries():
        return {(obs, a): q.get(obs, a) for obs in q.values for a in q.actions}

    before = entries()
    q_update(q, ("a", Action.MoveE, 2.0, "b"), alpha=1.0, gamma=0.0, g=1.0)
    after = entries()
    changed = {k for k in after if after.get(k) != before.get(k, 0.0)}
    assert changed == {("a", Action.MoveE)}
    assert q.get("a", Action.MoveE) == 2.0  # alpha*g = 1, gamma = 0 writes r


def test_q_update_gain_doubles_increment():
    q1, q2 = QTable(), QTable()
    q_update(q1, ("s", Action.Rest, 1.0, "s2"), alpha=0.25, gamma=0.9, g=1.0)
    q_update(q2, ("s", Action.Rest, 1.0, "s2"), alpha=0.25, gamma=0.9, g=2.0)
    assert q2.get("s", Action.Rest) == pytest.approx(2.0 * q1.get("s", Action.Rest), abs=1e-12)


def test_q_update_rejects_non_finite():
    q = QTable()
    with pytest.raises(NonFiniteValue):
        q_update(q, ("s", Action.Rest, float("inf"), "s"), alpha=0.5, gamma=0.9, g=1.0)


class FixedDraw:
    """A generator stand-in whose `random()` always returns `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


LAST_DRAW = 1.0 - 2.0**-53  # the largest value `random()` returns
Q_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-50.0, 50.0))


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(Q_VALUES, min_size=len(ACTIONS), max_size=len(ACTIONS)),
    tau=st.one_of(st.sampled_from([1e-3, 0.05, 1.0]), st.floats(1e-4, 10.0)),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_q_select_is_the_reference_softmax_walk(row, tau, u):
    # Ties among the values, a draw on every cumulative total and just below
    # it, and draws in the last slot's rounding slack all pick what the
    # probability tuple walked in a second loop picks.
    q = QTable()
    for a, v in zip(ACTIONS, row):
        q.set(7, a, v)
    draws = [u, 0.0, LAST_DRAW]
    acc = 0.0
    for p in softmax_probs(row, tau):
        acc += p
        draws += [acc, math.nextafter(acc, 0.0)]
    for draw in draws:
        if draw < 1.0:
            assert q_select(q, 7, tau, FixedDraw(draw)) is softmax_walk(ACTIONS, row, tau, draw)


def test_q_select_ties_and_the_rounding_slack():
    # Six equal values: the lowest index wins a draw inside its slot, and
    # the six probabilities add up to LAST_DRAW, not 1, so the largest draw
    # lies in no slot and goes to the last action.
    q = QTable()
    assert q_select(q, "fresh", 0.2, FixedDraw(0.0)) is ACTIONS[0]
    acc = 0.0
    for p in softmax_probs(q.row("fresh"), 0.2):
        acc += p
    assert acc == LAST_DRAW
    assert q_select(q, "fresh", 0.2, FixedDraw(LAST_DRAW)) is ACTIONS[-1]
    q.set("s", Action.MoveS, 3.0)
    q.set("s", Action.Consume, 3.0)
    assert q_select(q, "s", 1e-3, FixedDraw(0.25)) is Action.MoveS
    assert q_select(q, "s", 1e-3, FixedDraw(0.75)) is Action.Consume


@pytest.mark.parametrize("tau", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_q_select_rejects_a_temperature_that_is_not_positive(tau):
    q = QTable()
    with pytest.raises(ConfigError, match="temperature"):
        q_select(q, "s", tau, FixedDraw(0.5))


REWARDS = st.one_of(st.floats(-5.0, 5.0), st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(
    prior=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(ACTIONS), st.floats(-5.0, 5.0)), max_size=6),
    updates=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(ACTIONS), REWARDS, st.integers(0, 3)), max_size=25
    ),
    alpha=st.floats(0.01, 1.0),
    gamma=st.floats(0.0, 0.99),
    g=st.floats(1.0, 2.0),
)
def test_q_update_is_get_max_set(prior, updates, alpha, gamma, g):
    # Observations are drawn from four, so obs == obs_next is common and so
    # are first visits of both; a rejected update must leave no new row.
    q, ref = QTable(), QTable()
    for obs, a, v in prior:
        q.set(obs, a, v)
        ref.set(obs, a, v)
    for transition in updates:
        seen = transition[0] in ref.values
        try:
            get_max_set_update(ref, transition, alpha, gamma, g)
        except ArithmeticError:
            with pytest.raises(NonFiniteValue):
                q_update(q, transition, alpha, gamma, g)
            assert (transition[0] in q.values) == seen
        else:
            q_update(q, transition, alpha, gamma, g)
        assert list(q.values) == list(ref.values)  # rows in first-write order
        for obs, row in ref.values.items():
            assert [v.hex() for v in q.values[obs]] == [v.hex() for v in row]


def test_greedy_tie_breaks_to_lowest_index_and_shift_invariant():
    q = QTable()
    assert q.greedy("fresh") == ACTIONS[0]
    q.set("s", Action.MoveS, 2.0)
    q.set("s", Action.Consume, 2.0)
    assert q.greedy("s") == Action.MoveS
    shifted = QTable()
    for a in ACTIONS:
        shifted.set("s", a, q.get("s", a) + 17.5)
    assert shifted.greedy("s") == q.greedy("s")


NM = NeuromodConfig(tau_min=0.05, tau_max=1.0, beta_tau=1.0, beta_g=1.0, context_gating=True)
DM1 = DriveModel(set_point=(0.0,), weights=(1.0,))


def test_modulate_boundary_cases():
    sig = modulate(NM, *drive_and_deficit(DM1, InternalState((0.0,))))
    assert sig.temperature == pytest.approx(NM.tau_max, abs=1e-12)
    assert sig.td_gain == pytest.approx(1.0, abs=1e-12)
    far = modulate(NM, *drive_and_deficit(DM1, InternalState((1e9,))))
    assert far.temperature == pytest.approx(NM.tau_min, abs=1e-9)
    assert far.td_gain == pytest.approx(1.0 + NM.beta_g, rel=1e-6)


def test_modulate_example_value():
    sig = modulate(NM, *drive_and_deficit(DM1, InternalState((1.0,))))
    assert sig.temperature == pytest.approx(0.05 + 0.95 * math.exp(-1.0), abs=1e-12)
    assert sig.temperature == pytest.approx(0.3995, abs=5e-5)


def test_modulate_monotonicity_grid():
    taus, gains = [], []
    for d in [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0]:
        sig = modulate(NM, *drive_and_deficit(DM1, InternalState((d,))))
        taus.append(sig.temperature)
        gains.append(sig.td_gain)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert all(a <= b for a, b in zip(gains, gains[1:]))


def test_modulate_context_is_dominant_deficit():
    dm = DriveModel(set_point=(0.0, 0.0, 0.0), weights=(1.0, 1.0, 1.0))
    d, deficit = drive_and_deficit(dm, InternalState((0.0, 3.0, 0.0)))
    sig = modulate(NM, d, deficit)
    assert sig.context_id == deficit == 1
    ungated = NeuromodConfig(context_gating=False)
    assert modulate(ungated, d, deficit).context_id == 0


def test_context_isolation_replay():
    # Interleaved updates across contexts equal replaying each context alone.
    env = make_tiny_env()
    nm = NeuromodConfig()
    agent = make_agent(AgentConfig(kind="Neuromod", alpha=0.5, gamma=0.9), TINY_DRIVE, DISC, nm)
    rng = stream(3, "agent")
    state = reset(env, 3)
    per_context_updates: dict[int, list] = {}
    import interoai.agents as agents_mod

    for step in range(200):
        internal = InternalState(
            (
                0.6 - 0.002 * step,
                0.6 - 0.003 * ((step * 7) % 100),
                37.0 + 0.05 * ((step * 3) % 40),
            )
        )
        probe = dataclasses.replace(state, internal=internal)
        action = agent.act(probe, rng)
        nxt = dataclasses.replace(
            probe, internal=InternalState((0.55, 0.55, 37.5)), t=probe.t + 1
        )
        obs, _, sig = agent._facts(probe)
        per_context_updates.setdefault(sig.context_id, []).append(
            (
                obs,
                action,
                drive(TINY_DRIVE, probe.internal) - drive(TINY_DRIVE, nxt.internal),
                agent._facts(nxt)[0],
                sig.td_gain,
            )
        )
        agent.learn(probe, action, nxt)

    assert len(agent.tables) >= 2  # the schedule above hits several contexts
    for ctx, updates in per_context_updates.items():
        replay = agents_mod.QTable()
        for obs, action, reward, obs2, gain in updates:
            agents_mod.q_update(replay, (obs, action, reward, obs2), 0.5, 0.9, gain)
        assert replay.values == agent.tables[ctx].values


def test_update_in_one_context_leaves_others_bitwise_unchanged():
    env = make_tiny_env()
    agent = make_agent(AgentConfig(kind="Neuromod"), TINY_DRIVE, DISC, NeuromodConfig())
    state = reset(env, 0)
    hungry = dataclasses.replace(state, internal=InternalState((0.2, 0.6, 37.0)))
    thirsty = dataclasses.replace(state, internal=InternalState((0.6, 0.2, 37.0)))
    rng = stream(0, "agent")
    a = agent.act(thirsty, rng)
    agent.learn(thirsty, a, dataclasses.replace(thirsty, t=1))
    snapshot = {obs: list(row) for obs, row in agent.tables[1].values.items()}
    for _ in range(20):
        a = agent.act(hungry, rng)
        agent.learn(hungry, a, dataclasses.replace(hungry, t=1))
    assert agent.tables[1].values == snapshot


def test_neuromod_without_gating_reduces_to_homeostatic_with_tau_of_d():
    # beta_g = 0 and gating off: identical tables after identical experience,
    # provided the fixed tau equals tau(d) of the (constant) probe drive.
    env = make_tiny_env()
    model_state = reset(env, 0)
    internal = InternalState((0.45, 0.6, 37.0))  # fixed drive all through
    probe = dataclasses.replace(model_state, internal=internal)
    nm = NeuromodConfig(beta_g=0.0, context_gating=False)
    d = drive(TINY_DRIVE, internal)
    tau_of_d = nm.tau_min + (nm.tau_max - nm.tau_min) * math.exp(-nm.beta_tau * d)
    neuromod = make_agent(AgentConfig(kind="Neuromod", alpha=0.5, gamma=0.9), TINY_DRIVE, DISC, nm)
    homeo = make_agent(
        AgentConfig(kind="HomeostaticQ", alpha=0.5, gamma=0.9, tau=tau_of_d), TINY_DRIVE, DISC
    )
    rng_a = stream(5, "agent")
    rng_b = stream(5, "agent")
    nxt = dataclasses.replace(probe, internal=InternalState((0.5, 0.58, 37.1)), t=1)
    for _ in range(50):
        act_a = neuromod.act(probe, rng_a)
        act_b = homeo.act(probe, rng_b)
        assert act_a == act_b
        neuromod.learn(probe, act_a, nxt)
        homeo.learn(probe, act_b, nxt)
    assert neuromod.tables[0].values == homeo.tables[0].values


def test_external_reward_agent_sees_no_internal_state():
    env = make_tiny_env()
    agent = make_agent(AgentConfig(kind="ExternalRewardQ"), TINY_DRIVE, DISC)
    state = reset(env, 0)
    depleted = dataclasses.replace(state, internal=InternalState((0.15, 0.15, 39.0)))
    assert agent._facts(state)[0] == agent._facts(depleted)[0]
    on_food = dataclasses.replace(
        state, external=dataclasses.replace(state.external, agent_pos=(0, 0))
    )
    assert external_reward(on_food, Action.Consume) == 1.0
    assert external_reward(on_food, Action.Rest) == 0.0
    assert external_reward(state, Action.Consume) == 0.0  # empty cell


def test_random_agent_uniform_and_learn_free():
    env = make_tiny_env()
    agent = make_agent(AgentConfig(kind="Random"), TINY_DRIVE, DISC)
    state = reset(env, 0)
    rng = stream(1, "agent")
    counts = {a: 0 for a in ACTIONS}
    n = 60_000
    for _ in range(n):
        counts[agent.act(state, rng)] += 1
    p = 1.0 / len(ACTIONS)
    sigma = math.sqrt(n * p * (1.0 - p))
    for a in ACTIONS:
        assert abs(counts[a] - n * p) < 4.0 * sigma
    agent.learn(state, Action.Rest, state)  # no-op, no tables
    assert not hasattr(agent, "tables")


@pytest.mark.parametrize("field", ["tau_min", "tau_max", "beta_tau", "beta_g"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_neuromod_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        NeuromodConfig(**{field: bad})


@pytest.mark.parametrize("field", ["alpha", "gamma", "tau"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_agent_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        AgentConfig(**{field: bad})


def test_agent_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(kind="Mystery")
    with pytest.raises(ConfigError):
        AgentConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        NeuromodConfig(tau_min=0.5, tau_max=0.5)


@pytest.mark.parametrize("kind", ["Random", "ExternalRewardQ", "HomeostaticQ", "Neuromod"])
def test_key_and_drive_computed_at_most_once_per_state(kind, monkeypatch):
    # Every state a run touches -- reset, stepped, respawned and probe
    # states -- gets its observation key and its drive computed at most once.
    import interoai.agents as agents_mod
    import interoai.blanket as blanket_mod
    import interoai.harness.runner as runner_mod
    from conftest import quick_config_doc
    from interoai.harness.config import parse_config

    doc = quick_config_doc(train_steps=2500, eval_steps=500, seeds=[0])
    doc["agent"]["kind"] = kind
    cfg = parse_config(doc)
    made = {"states": 0, "respawns": 0}
    keyed = []
    drives = {"agent": 0, "runner": 0}  # the agent's drive_and_deficit calls, the runner's drive calls

    def counting(fn, counter):
        def wrapper(*args, **kwargs):
            made[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_drive(dm, h):
        drives["runner"] += 1
        return drive(dm, h)

    def counted_drive_and_deficit(dm, h):
        drives["agent"] += 1
        return drive_and_deficit(dm, h)

    key = agents_mod.Discretizer.key

    def recorded_key(self, state):
        keyed.append(state)  # holds the state, so ids stay unique
        return key(self, state)

    # The run steps through `blanket.rollout`, which calls these.
    monkeypatch.setattr(blanket_mod, "step_factored", counting(blanket_mod.step_factored, "states"))
    monkeypatch.setattr(blanket_mod, "reset", counting(blanket_mod.reset, "states"))
    monkeypatch.setattr(blanket_mod, "respawn", counting(blanket_mod.respawn, "respawns"))
    monkeypatch.setattr(runner_mod, "drive", counted_drive)
    monkeypatch.setattr(agents_mod, "drive_and_deficit", counted_drive_and_deficit)
    monkeypatch.setattr(agents_mod.Discretizer, "key", recorded_key)

    runner_mod.execute_run(cfg, 0)

    assert made["respawns"] > 0  # the run covers deaths
    probes = 2 * cfg.env.grid.rows * cfg.env.grid.cols
    distinct = made["states"] + made["respawns"] + probes
    keyed_once = len({id(s) for s in keyed})
    assert keyed_once == len(keyed)
    assert len(keyed) <= distinct
    assert drives["agent"] <= distinct
    assert drives["runner"] <= distinct
    if kind in ("HomeostaticQ", "Neuromod"):
        assert len(keyed) >= made["states"]
        assert drives["agent"] >= made["states"]
    if kind == "ExternalRewardQ":
        # It learns from the external reward: only the logged steps need a drive.
        assert drives["agent"] == 0
        assert drives["agent"] + drives["runner"] <= 2 * cfg.run.eval_steps


@pytest.mark.parametrize("kind", ["ExternalRewardQ", "HomeostaticQ", "Neuromod"])
def test_memoized_agent_matches_a_fresh_one_on_states_out_of_order(kind):
    # Agent `memo` sees the same state objects again and again, in shuffled
    # order; agent `fresh` gets a new, equal object every time, so it never
    # reuses anything.  Actions, signals and Q-rows must agree throughout.
    env = make_tiny_env()
    states = [reset(env, 0)]
    for i in range(11):
        internal = InternalState((0.6 - 0.04 * i, 0.2 + 0.03 * i, 36.0 + 0.4 * i))
        external = dataclasses.replace(states[0].external, agent_pos=(i % 3, (i * 2) % 3))
        states.append(dataclasses.replace(states[0], internal=internal, external=external, t=i))
    nm = NeuromodConfig()
    memo = make_agent(AgentConfig(kind=kind, alpha=0.5, gamma=0.9), TINY_DRIVE, DISC, nm)
    fresh = make_agent(AgentConfig(kind=kind, alpha=0.5, gamma=0.9), TINY_DRIVE, DISC, nm)
    rng_memo, rng_fresh = stream(9, "agent"), stream(9, "agent")
    order = stream(9, "order")

    def copy_of(state):
        return dataclasses.replace(state)

    def policy(agent, state):
        obs, _, sig = agent._facts(state)
        return softmax_probs(agent.table_for(sig.context_id).row(obs), sig.temperature)

    for _ in range(400):
        i, j = (int(v) for v in order.integers(0, len(states), size=2))
        s, nxt = states[i], states[j]
        a = memo.act(s, rng_memo)
        assert fresh.act(copy_of(s), rng_fresh) == a
        assert memo.last_signals == fresh.last_signals
        assert memo._facts(nxt)[1] == fresh._facts(copy_of(nxt))[1]
        memo.learn(s, a, nxt)
        fresh.learn(copy_of(s), a, copy_of(nxt))
        assert policy(memo, s) == policy(fresh, copy_of(s))
    assert memo.tables.keys() == fresh.tables.keys()
    for ctx, table in memo.tables.items():
        assert table.values == fresh.tables[ctx].values
        for obs in table.values:
            assert table.row(obs) == fresh.tables[ctx].row(obs)
