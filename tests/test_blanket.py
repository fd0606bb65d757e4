"""CMI estimator against the enumeration oracle; Jacobian block checks."""

import math
import statistics

import pytest

from interoai.agents import Discretizer
from interoai.blanket import (
    CmiVerdict,
    cmi_from_counts,
    collect_transitions,
    conditional_mi,
    jacobian_sparsity,
    uniform_random_policy,
)
from interoai.core import Action, Tag
from interoai.envs import (
    CORE_TEMP,
    GridSpec,
    SeasonSchedule,
    SeasonSpec,
    HomeoGridEnv,
    make_coupled_variant,
    reset,
    transition_maps,
)
from interoai.errors import ConfigError, EmptyDataset
from interoai.homeostat import DriveModel

from helpers import make_tiny_env
from oracles import brute_force_cmi, entropy_from_counts, two_cell_joint


def ci_env(**overrides) -> HomeoGridEnv:
    """The lattice-quantized verification world (see harness defaults)."""
    grid = GridSpec(
        rows=5,
        cols=5,
        start=(2, 2),
        seasons=(
            SeasonSpec(
                baseline=40.0,
                placements=(
                    (0, 0, Tag.Food),
                    (4, 4, Tag.Water),
                    (0, 4, Tag.Shade),
                    (4, 0, Tag.Shade),
                ),
            ),
        ),
        noise_std=0.5,
        shade_delta=8.0,
    )
    dm = DriveModel(
        set_point=(0.6, 0.6, 37.0),
        weights=(4.0, 4.0, 0.06),
        viability=((0.05, 1.15), (0.05, 1.15), (20.0, 52.0)),
        grace_steps=5,
    )
    fields = dict(
        grid=grid,
        schedule=SeasonSchedule(period=1, order=(0,)),
        drive_model=dm,
        c_e=0.05,
        c_h=0.0,
        e_gain=0.25,
        w_gain=0.25,
        kappa=1.0,
    )
    fields.update(overrides)
    return HomeoGridEnv(**fields)


def ci_discretizer() -> Discretizer:
    store_edges = tuple(round(-0.525 + 0.05 * i, 3) for i in range(62))
    temp_edges = tuple(19.5 + 1.0 * i for i in range(34))
    return Discretizer(internal_edges=(store_edges, store_edges, temp_edges))


# ---------------------------------------------------------------------------
# Estimator correctness
# ---------------------------------------------------------------------------


def test_mi_of_identical_binary_variables_is_ln2():
    counts = {(0, 0, "z"): 1.0, (1, 1, "z"): 1.0}
    assert cmi_from_counts(counts) == pytest.approx(math.log(2.0), abs=1e-12)


def test_cmi_zero_for_conditionally_independent_synthetic_data():
    # x depends on z only; y varies freely within each z cell.
    counts = {}
    for z in range(4):
        x = z % 2
        for y in range(3):
            counts[(x, y, z)] = 1.0 + 0.5 * y
    assert cmi_from_counts(counts) == 0.0


def test_cmi_matches_enumeration_oracle_exactly():
    for leak in (0.0, 0.15, 0.3, 0.7):
        joint = two_cell_joint(leak)
        plug_in = cmi_from_counts(joint)
        oracle = brute_force_cmi(joint)
        assert plug_in == pytest.approx(oracle, abs=1e-12)
    assert cmi_from_counts(two_cell_joint(0.0)) <= 1e-15
    assert cmi_from_counts(two_cell_joint(0.3)) > 0.01


def test_cmi_bounded_by_marginal_entropies():
    joint = two_cell_joint(0.4)
    cmi = cmi_from_counts(joint)
    assert 0.0 <= cmi <= min(entropy_from_counts(joint, 0), entropy_from_counts(joint, 1)) + 1e-12


def test_empty_counts_rejected():
    with pytest.raises(EmptyDataset):
        cmi_from_counts({})


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def test_collect_rejects_zero_steps():
    with pytest.raises(ConfigError):
        collect_transitions(ci_env(), uniform_random_policy, 0, 0, ci_discretizer())


def test_collect_deterministic_and_counted():
    env = ci_env()
    disc = ci_discretizer()
    a = collect_transitions(env, uniform_random_policy, 500, 7, disc)
    b = collect_transitions(env, uniform_random_policy, 500, 7, disc)
    assert a.transitions == b.transitions
    assert len(a) == 500
    assert sum(a.counts.values()) == 500.0


def test_factored_env_cmi_exactly_zero():
    # Lattice store dynamics and identity heat transfer make the next
    # internal symbol a function of the conditioning symbols, so the
    # plug-in estimate vanishes identically, noise and all.
    ds = collect_transitions(ci_env(), uniform_random_policy, 20_000, 1, ci_discretizer())
    report = conditional_mi(ds, tol_lo=1e-9, tol_hi=0.02)
    assert report.cmi_nats == 0.0
    assert report.verdict is CmiVerdict.Factored
    assert report.sample_count == 20_000


def test_coupled_env_cmi_positive_and_flagged():
    env = make_coupled_variant(ci_env(), 0.2)
    ds = collect_transitions(env, uniform_random_policy, 20_000, 1, ci_discretizer())
    report = conditional_mi(ds, tol_lo=1e-9, tol_hi=0.02)
    assert report.cmi_nats > 0.02
    assert report.verdict is CmiVerdict.Coupled


def test_coupled_cmi_increases_with_lambda():
    # Median over seeds, strictly increasing across the three leak sizes.
    lams = (0.05, 0.1, 0.2)
    medians = []
    for lam in lams:
        env = make_coupled_variant(ci_env(), lam)
        values = []
        for seed in range(10):
            ds = collect_transitions(env, uniform_random_policy, 8_000, seed, ci_discretizer())
            values.append(conditional_mi(ds).cmi_nats)
        medians.append(statistics.median(values))
    assert medians[0] < medians[1] < medians[2]


# ---------------------------------------------------------------------------
# Jacobian blocks
# ---------------------------------------------------------------------------


def test_factored_jacobian_blocks_exactly_zero():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    for action in Action:
        report = jacobian_sparsity(model, state, action, 1e-3)
        assert report.forbidden_internal_max == 0.0
        assert report.forbidden_external_max == 0.0


def test_coupled_jacobian_recovers_lambda():
    env = make_coupled_variant(make_tiny_env(), 0.2)
    model = transition_maps(env)
    state = reset(env, 0)
    report = jacobian_sparsity(model, state, Action.Rest, 1e-3)
    pos = state.external.agent_pos
    assert report.internal_wrt_external[(CORE_TEMP, pos)] == pytest.approx(0.2, abs=1e-6)
    # Only the occupied cell leaks, and only into the temperature dim.
    for (dim, cell), value in report.internal_wrt_external.items():
        if (dim, cell) != (CORE_TEMP, pos):
            assert value == 0.0
    assert report.forbidden_external_max == 0.0


def test_coupled_jacobian_estimate_stable_under_epsilon_halving():
    # The leak is linear, so the central difference is epsilon-independent.
    env = make_coupled_variant(make_tiny_env(), 0.2)
    model = transition_maps(env)
    state = reset(env, 0)
    pos = state.external.agent_pos
    coarse = jacobian_sparsity(model, state, Action.Rest, 1e-3)
    fine = jacobian_sparsity(model, state, Action.Rest, 5e-4)
    delta = abs(
        coarse.internal_wrt_external[(CORE_TEMP, pos)]
        - fine.internal_wrt_external[(CORE_TEMP, pos)]
    )
    assert delta < 1e-9


def test_jacobian_rejects_bad_epsilon():
    env = make_tiny_env()
    model = transition_maps(env)
    state = reset(env, 0)
    with pytest.raises(ConfigError):
        jacobian_sparsity(model, state, Action.Rest, 0.0)


def _collect_symbolizing_every_state_twice(env, steps, seed, disc):
    """The transition collector as first written: every state symbolized afresh."""
    from interoai.blanket import BlanketSymbolizer
    from interoai.core import step_factored
    from interoai.envs import Status, SurvivalTracker, respawn
    from interoai.homeostat import in_viability
    from interoai.rng import stream

    model = transition_maps(env)
    sym = BlanketSymbolizer(disc)
    rng_env = stream(seed, 0, "blanket-env")
    rng_policy = stream(seed, 0, "blanket-policy")
    state = reset(env, seed)
    tracker = SurvivalTracker(env.drive_model.grace_steps)
    transitions, counts = [], {}
    for _ in range(steps):
        action = uniform_random_policy(state, rng_policy)
        nxt = step_factored(model, state, action, rng_env)
        record = (
            sym.internal_symbol(state.internal),
            sym.boundary_symbol(state.boundary),
            sym.external_symbol(state.external),
            int(action),
            sym.internal_symbol(nxt.internal),
        )
        transitions.append(record)
        key = (record[4], record[2], (record[0], record[1], record[3]))
        counts[key] = counts.get(key, 0.0) + 1.0
        if tracker.update(in_viability(env.drive_model, nxt.internal)) is Status.Dead:
            nxt = respawn(env, nxt)
            tracker.reset()
        state = nxt
    return transitions, counts


@pytest.mark.parametrize("coupled", [False, True])
def test_collect_symbolizes_each_internal_state_once(monkeypatch, coupled):
    import interoai.blanket as blanket_mod

    env = make_coupled_variant(ci_env(), 0.2) if coupled else ci_env()
    disc = ci_discretizer()
    steps = 600
    expected = _collect_symbolizing_every_state_twice(env, steps, 3, disc)

    calls = {"bins": 0, "respawn": 0}
    bins, respawn = Discretizer.internal_bins, blanket_mod.respawn

    def counted_bins(self, values):
        calls["bins"] += 1
        return bins(self, values)

    def counted_respawn(*args):
        calls["respawn"] += 1
        return respawn(*args)

    monkeypatch.setattr(Discretizer, "internal_bins", counted_bins)
    monkeypatch.setattr(blanket_mod, "respawn", counted_respawn)
    ds = collect_transitions(env, uniform_random_policy, steps, 3, disc)
    assert calls["respawn"] > 0
    assert calls["bins"] <= steps + 1 + calls["respawn"]
    assert ds.transitions == expected[0]
    assert ds.counts == expected[1]
