"""CMI estimator against the enumeration oracle; Jacobian block checks."""

import dataclasses
import math
import re
import statistics
import tracemalloc
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interoai.agents import Discretizer, RandomAgent
from interoai.blanket import (
    CmiVerdict,
    TransitionDataset,
    _table_cmi,
    blanket_codes,
    cmi_from_counts,
    collect_transitions,
    conditional_mi,
    jacobian_sparsity,
)
from interoai.core import ACTIONS, Action, Tag
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
from interoai.errors import ConfigError, EmptyDataset, NegativeWeight, NonFiniteValue
from interoai.harness.config import default_config, parse_config
from interoai.homeostat import DriveModel
from interoai.rng import BLOCK

from helpers import EDGE_SETS, draw_states, make_tiny_env
from oracles import BlanketTupleEncoder, brute_force_cmi, dict_cmi_from_counts, entropy_from_counts, two_cell_joint


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


def wide_seasonal_env() -> HomeoGridEnv:
    """`ci_env` on a 4 x 6 grid whose two seasons alternate every 37 steps."""
    seasons = (
        SeasonSpec(baseline=40.0, placements=((0, 0, Tag.Food), (3, 5, Tag.Water), (0, 5, Tag.Shade))),
        SeasonSpec(baseline=30.0, placements=((3, 1, Tag.Food), (0, 4, Tag.Water), (2, 3, Tag.Shade))),
    )
    grid = dataclasses.replace(ci_env().grid, rows=4, cols=6, start=(1, 2), seasons=seasons)
    return ci_env(grid=grid, schedule=SeasonSchedule(period=37, order=(0, 1)))


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
    # A dataset of no transitions is rejected before its joint table is built.
    none = np.zeros(0, dtype=np.int64)
    ds = TransitionDataset(none, none, none)
    with pytest.raises(EmptyDataset):
        conditional_mi(ds, 1e-9, 0.02)
    assert "_table" not in vars(ds)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_rejected(bad):
    counts = {(0, 0, 0): 1.0, (1, 1, 0): bad}
    with pytest.raises(NonFiniteValue):
        cmi_from_counts(counts)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        cmi_from_counts({(0, 0, 0): 1.0, (1, 1, 0): -1.0})


@pytest.mark.parametrize(
    "counts, named",
    [
        # Dropping the fourth symbol would read as the 3-symbol table's CMI.
        ({(0, 0, 0, 1): 1.0, (1, 1, 0, 2): 1.0, (0, 1, 0, 3): 1.0, (1, 0, 0, 4): 2.0}, "(0, 0, 0, 1)"),
        ({(0, 0, 0): 1.0, (1, 1): 1.0}, "(1, 1)"),
    ],
    ids=["four-symbols", "two-symbols"],
)
def test_a_key_that_is_not_a_triple_is_rejected_by_name(counts, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        cmi_from_counts(counts)


# Codes as large as the collector's next to small ones, so ranks, not the codes, must pair them.
CODES = st.sampled_from([0, 1, 5, 2**40, 2**63 - 1])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(CODES, CODES, CODES), min_size=1, max_size=80))
def test_integer_tables_give_the_reference_bits(rows):
    counts = Counter(rows)
    expected = dict_cmi_from_counts(counts).hex()
    assert cmi_from_counts(counts).hex() == expected
    x, y, z = (np.array(column, dtype=np.int64) for column in zip(*rows))
    ds = TransitionDataset(x, y, z)
    assert list(zip(map(tuple, ds.keys.tolist()), ds.counts.tolist())) == list(counts.items())
    report = conditional_mi(ds, 1e-9, 0.02)
    assert report.cmi_nats.hex() == expected
    assert report.alphabet_sizes == tuple(len(set(column)) for column in zip(*rows))


WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(
        st.tuples(
            st.sampled_from(["lo", "mid", "hi"]),
            st.tuples(st.integers(0, 2), st.sampled_from("ab")),
            st.tuples(st.integers(0, 1), st.sampled_from(["rest", "move"])),
        ),
        WEIGHTS,
        min_size=1,
        max_size=40,
    )
)
def test_float_weighted_symbol_tables_give_the_reference_bits(counts):
    # Strings and tuples as symbols, zero weights among them; numpy warnings are errors here.
    if not any(w > 0.0 for w in counts.values()):
        with pytest.raises(EmptyDataset):
            cmi_from_counts(counts)
        return
    assert cmi_from_counts(counts).hex() == dict_cmi_from_counts(counts).hex()


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def test_collect_rejects_zero_steps():
    with pytest.raises(ConfigError):
        collect_transitions(ci_env(), 0, 0, ci_discretizer())


def test_collect_deterministic_and_counted():
    env = ci_env()
    disc = ci_discretizer()
    a = collect_transitions(env, 500, 7, disc)
    b = collect_transitions(env, 500, 7, disc)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)
    assert len(a) == 500
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.sum() == 500


def test_factored_env_cmi_exactly_zero():
    # Lattice store dynamics and identity heat transfer make the next
    # internal symbol a function of the conditioning symbols, so the
    # plug-in estimate vanishes identically, noise and all.
    ds = collect_transitions(ci_env(), 20_000, 1, ci_discretizer())
    report = conditional_mi(ds, tol_lo=1e-9, tol_hi=0.02)
    assert report.cmi_nats == 0.0
    assert report.verdict is CmiVerdict.Factored
    assert report.sample_count == 20_000
    assert report.alphabet_sizes == tuple(len(set(codes.tolist())) for codes in (ds.x, ds.y, ds.z))


def test_coupled_env_cmi_positive_and_flagged():
    env = make_coupled_variant(ci_env(), 0.2)
    ds = collect_transitions(env, 20_000, 1, ci_discretizer())
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
            ds = collect_transitions(env, 8_000, seed, ci_discretizer())
            values.append(conditional_mi(ds, 1e-9, 0.02).cmi_nats)
        medians.append(statistics.median(values))
    assert medians[0] < medians[1] < medians[2]


@pytest.mark.parametrize(
    "make_env, lam",
    [
        pytest.param(ci_env, None, id="factored"),
        pytest.param(ci_env, 0.01, id="coupled-0.01"),
        pytest.param(ci_env, 0.05, id="coupled-0.05"),
        pytest.param(ci_env, 0.2, id="coupled-0.2"),
        pytest.param(wide_seasonal_env, None, id="two-season-noisy"),
    ],
)
def test_collected_cmi_is_the_reference_on_the_counted_rows(make_env, lam):
    env = make_env() if lam is None else make_coupled_variant(make_env(), lam)
    ds = collect_transitions(env, 20_000, 2, ci_discretizer())
    counts = Counter(zip(ds.x.tolist(), ds.y.tolist(), ds.z.tolist()))
    assert conditional_mi(ds, 1e-9, 0.02).cmi_nats.hex() == dict_cmi_from_counts(counts).hex()
    for table in (ds.keys, ds.counts):
        assert table.dtype == np.int64 and not table.flags.writeable
    assert ds.keys.shape == (len(counts), 3)


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
    for bad in (math.nan, math.inf):  # a step of NaN or inf differences nothing
        with pytest.raises(ConfigError, match="epsilon"):
            jacobian_sparsity(model, state, Action.Rest, bad)


def _symbols(disc, state):
    """The (i, b, e) symbol tuples of a state, binned here with `bisect_right`."""
    edges = disc.internal_edges
    b, e = state.boundary, state.external
    r, c = e.agent_pos
    return (
        tuple(bisect_right(es, v) for es, v in zip(edges, state.internal.values)),
        (bisect_right(edges[-1], b.sensed_ambient), int(b.flux_food != 0.0), int(b.flux_water != 0.0)),
        (r, c, int(e.resource_map[r][c]), e.season),
    )


def _collect_symbolizing_every_state_twice(env, steps, seed, disc):
    """The transition collector as first written: every state symbolized afresh.

    Records are (i, b, e, a, i_next) symbol tuples, counts are keyed by the
    tuples (i_next, e, (i, b, a)) in first-seen order.
    """
    from interoai.core import step_factored
    from interoai.envs import SurvivalTracker, respawn
    from interoai.homeostat import in_viability
    from interoai.rng import stream

    model = transition_maps(env)
    rng_env = stream(seed, "blanket-env")
    rng_policy = stream(seed, "blanket-policy")
    policy = RandomAgent().act
    state = reset(env, seed)
    tracker = SurvivalTracker(env.drive_model.grace_steps)
    transitions, counts = [], {}
    for _ in range(steps):
        action = policy(state, rng_policy)
        nxt = step_factored(model, state, action, rng_env)
        i_sym, b_sym, e_sym = _symbols(disc, state)
        record = (i_sym, b_sym, e_sym, int(action), _symbols(disc, nxt)[0])
        transitions.append(record)
        key = (record[4], record[2], (record[0], record[1], record[3]))
        counts[key] = counts.get(key, 0.0) + 1.0
        if tracker.update(in_viability(env.drive_model, nxt.internal)):
            nxt = respawn(env, nxt)
            tracker.reset()
        state = nxt
    return transitions, counts


def _encoder(env, disc) -> BlanketTupleEncoder:
    g = env.grid
    return BlanketTupleEncoder(disc.internal_edges, g.rows, g.cols, len(Tag), len(g.seasons), len(ACTIONS))


def _reference_dataset(env, steps, seed, disc):
    """x, y, z and the counts in first-seen order, coded from the reference tuples."""
    transitions, tuple_counts = _collect_symbolizing_every_state_twice(env, steps, seed, disc)
    enc = _encoder(env, disc)
    return (
        [enc.internal(t[4]) for t in transitions],
        [enc.external(t[2]) for t in transitions],
        [enc.conditioner(t[0], t[1], t[3]) for t in transitions],
        [((enc.internal(x), enc.external(y), enc.conditioner(*z)), c) for (x, y, z), c in tuple_counts.items()],
    )


def _collect_counted(monkeypatch, env, steps, seed, disc):
    """Collect, counting the internal-state rows the array coder bins and
    recording the clock of every respawned state."""
    import interoai.blanket as blanket_mod

    calls = {"binned": 0, "respawned_at": []}
    internal_codes, respawn = Discretizer.internal_codes, blanket_mod.respawn

    def counted_internal_codes(self, values):
        calls["binned"] += len(values)
        return internal_codes(self, values)

    def counted_respawn(env_, state):
        calls["respawned_at"].append(state.t)
        return respawn(env_, state)

    monkeypatch.setattr(Discretizer, "internal_codes", counted_internal_codes)
    monkeypatch.setattr(blanket_mod, "respawn", counted_respawn)
    return collect_transitions(env, steps, seed, disc), calls


def _assert_reference(ds, env, steps, seed, disc):
    x, y, z, counts = _reference_dataset(env, steps, seed, disc)
    assert ds.x.tolist() == x
    assert ds.y.tolist() == y
    assert ds.z.tolist() == z
    assert list(zip(map(tuple, ds.keys.tolist()), ds.counts.tolist())) == counts  # first-seen order too


@pytest.mark.parametrize(
    "make_env, coupled",
    [
        pytest.param(ci_env, False, id="False"),
        pytest.param(ci_env, True, id="True"),
        # rows != cols and two seasons: y's column radix and season digit show.
        pytest.param(wide_seasonal_env, False, id="wide-False"),
        pytest.param(wide_seasonal_env, True, id="wide-True"),
    ],
)
def test_collect_symbolizes_both_internal_states_of_every_step(monkeypatch, make_env, coupled):
    # Past two blocks, ending inside a third.
    env = make_coupled_variant(make_env(), 0.2) if coupled else make_env()
    disc = ci_discretizer()
    steps = 2 * BLOCK + 37
    ds, calls = _collect_counted(monkeypatch, env, steps, 3, disc)
    respawns = len(calls["respawned_at"])
    assert respawns > 0
    assert calls["binned"] == 2 * steps
    g = env.grid
    assert set((ds.y // (g.rows * g.cols * len(Tag))).tolist()) == set(range(len(g.seasons)))  # y's top digit
    _assert_reference(ds, env, steps, 3, disc)


@pytest.mark.parametrize("coupled", [False, True])
def test_collect_equals_the_reference_over_small_blocks(monkeypatch, coupled):
    # Blocks of 7 steps, in the streams' draws as in the symbolization, put
    # block edges everywhere: between a step and its successor, and between
    # a respawn and the fresh body's first step.  Each step's i_t and i_{t+1}
    # are binned from that step alone.
    import interoai.rng as rng_mod

    monkeypatch.setattr(rng_mod, "BLOCK", 7)
    env = make_coupled_variant(ci_env(), 0.2) if coupled else ci_env()
    disc = ci_discretizer()
    steps = 600
    ds, calls = _collect_counted(monkeypatch, env, steps, 3, disc)
    assert any(t % 7 == 0 for t in calls["respawned_at"])  # on a block's last step
    assert calls["binned"] == 2 * steps
    _assert_reference(ds, env, steps, 3, disc)


def test_dataset_codes_are_int32_unless_the_code_space_needs_int64():
    # The CI and shipped discretizers code every transition below 2**31.
    shipped = parse_config(default_config()).blanket
    # Three edge sets of 1,300 edges code z up to about 5.7e13: past 2**31, within 2**63.
    fine_edges = tuple(round(-1.0 + 0.05 * k, 2) for k in range(1_300))
    fine = Discretizer(internal_edges=(fine_edges,) * 3)
    for env, disc, dtype in (
        (ci_env(), ci_discretizer(), np.int32),
        (shipped.env, shipped.discretizer, np.int32),
        (ci_env(), fine, np.int64),
    ):
        ds = collect_transitions(env, 50, 0, disc)
        for codes in (ds.x, ds.y, ds.z):
            assert codes.dtype == dtype and codes.shape == (50,)
            with pytest.raises(ValueError):
                codes[0] = 0
        for table in (ds.keys, ds.counts):
            assert table.dtype == np.int64


@pytest.mark.parametrize("shipped_variant", ["factored", "coupled"])
def test_int32_and_int64_codes_give_the_same_table_and_bits(shipped_variant):
    settings_ = parse_config(default_config()).blanket
    env = settings_.env if shipped_variant == "factored" else make_coupled_variant(settings_.env, settings_.lam)
    narrow = collect_transitions(env, 20_000, settings_.seed, settings_.discretizer)
    assert narrow.x.dtype == np.int32
    wide = TransitionDataset(*(codes.astype(np.int64) for codes in (narrow.x, narrow.y, narrow.z)))
    assert np.array_equal(narrow.keys, wide.keys)
    assert np.array_equal(narrow.counts, wide.counts)
    expected = conditional_mi(wide, settings_.tol_lo, settings_.tol_hi).cmi_nats.hex()
    assert conditional_mi(narrow, settings_.tol_lo, settings_.tol_hi).cmi_nats.hex() == expected


TWO_INT64, TWO_INT32 = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int32)


@pytest.mark.parametrize(
    "columns, named",
    [
        # Float codes would be merged: 0.2 and 0.7 read as one key counted twice.
        ((np.array([0.2, 0.7]), TWO_INT64, TWO_INT64), "column x holds float64"),
        ((TWO_INT64, np.zeros(3, dtype=np.int64), TWO_INT64), "column y holds 3"),
        ((TWO_INT64, TWO_INT64, TWO_INT64.reshape(2, 1)), "column z has shape"),
        ((TWO_INT32, TWO_INT32, TWO_INT64), "column z is int64"),
    ],
    ids=["float", "unequal-length", "2-D", "mixed-int32-int64"],
)
def test_dataset_rejects_malformed_columns_by_name(columns, named):
    with pytest.raises(ConfigError, match=named):
        TransitionDataset(*columns)


def test_collect_rejects_discretizer_of_other_dimension():
    disc = Discretizer(internal_edges=ci_discretizer().internal_edges[:2])
    with pytest.raises(ConfigError, match="edge sets"):
        collect_transitions(ci_env(), 10, 0, disc)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_collect_rejects_a_negative_seed_before_any_step(monkeypatch, seed):
    import interoai.blanket as blanket_mod

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(blanket_mod, "step_factored", no_step)
    with pytest.raises(ConfigError, match="seed"):
        collect_transitions(ci_env(), 10, seed, ci_discretizer())


def test_symbolizer_rejects_code_spaces_beyond_int64(monkeypatch):
    # The code space is checked before the env's maps are built, so a grid
    # far too large to build still reaches the check, and passing it ends
    # at the maps.
    import interoai.blanket as blanket_mod

    class ChecksPassed(Exception):
        pass

    def maps_after_the_checks(env):
        raise ChecksPassed

    monkeypatch.setattr(blanket_mod, "transition_maps", maps_after_the_checks)

    def collect(rows, cols, disc):
        env = ci_env(grid=dataclasses.replace(ci_env().grid, rows=rows, cols=cols))
        collect_transitions(env, 10, 0, disc)

    disc = Discretizer(internal_edges=((0.0,),) * 3)
    # rows * cols * 4 tags * 1 season = 2**63 codes: the largest, 2**63 - 1, fits.
    with pytest.raises(ChecksPassed):
        collect(2**30, 2**31, disc)
    with pytest.raises(ConfigError, match="int64"):
        collect(2**30 + 1, 2**31, disc)
    many_bins = Discretizer(internal_edges=(tuple(float(k) for k in range(8)),) * 30)
    with pytest.raises(ConfigError, match="int64"):
        collect(5, 5, many_bins)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(EDGE_SETS, min_size=1, max_size=4),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    n_seasons=st.integers(1, 3),
    data=st.data(),
)
def test_codes_are_the_tuple_encoding_and_injective(edges, rows, cols, n_seasons, data):
    disc = Discretizer(internal_edges=tuple(edges))
    enc = BlanketTupleEncoder(disc.internal_edges, rows, cols, len(Tag), n_seasons, len(ACTIONS))
    states = draw_states(data, len(edges), rows, cols, n_seasons)
    actions = [data.draw(st.sampled_from(ACTIONS)) for _ in states]

    # The array forms, fed one column per fact, composed by the collector's `blanket_codes`.
    grid = GridSpec(rows, cols, (0, 0), (SeasonSpec(baseline=40.0, placements=()),) * n_seasons)
    i_codes = disc.internal_codes(np.array([s.internal.values for s in states]))
    b_codes = disc.boundary_codes(
        *np.array([(s.boundary.sensed_ambient, s.boundary.flux_food, s.boundary.flux_water) for s in states]).T
    )
    e_parts = [(*s.external.agent_pos, s.external.tag_at(s.external.agent_pos), s.external.season) for s in states]
    facts = np.array([(*e, a) for e, a in zip(e_parts, actions)], dtype=np.int64).T
    e_codes, z_codes = blanket_codes(disc, grid, i_codes, b_codes, *facts)
    for codes in (i_codes, b_codes, e_codes, z_codes):
        assert codes.dtype == np.int64 and codes.shape == (len(states),)

    pairs = []  # (symbol tuple, code) of every kind, tagged by kind
    for state, action, i_code, b_code, e_code, z_code in zip(
        states, actions, i_codes.tolist(), b_codes.tolist(), e_codes.tolist(), z_codes.tolist()
    ):
        i_sym, b_sym, e_sym = _symbols(disc, state)
        assert i_code == enc.internal(i_sym)
        assert b_code == enc.boundary(b_sym)
        assert e_code == enc.external(e_sym)
        assert z_code == enc.conditioner(i_sym, b_sym, int(action))
        pairs += [
            (("i", i_sym), i_code),
            (("b", b_sym), b_code),
            (("e", e_sym), e_code),
            (("z", i_sym, b_sym, int(action)), z_code),
        ]
    for kind in "ibez":
        same_kind = [(sym_, code) for sym_, code in pairs if sym_[0] == kind]
        symbols = {sym_ for sym_, _ in same_kind}
        codes = {code for _, code in same_kind}
        assert len(symbols) == len(codes) == len(set(same_kind))  # distinct symbols <=> distinct codes


def test_collect_retains_under_3_mib_at_20k_steps():
    # A tuple record per transition retains about 7.2 MiB here; three int32
    # code arrays retain about 0.38 MiB in all (0.60 MiB as int64).
    settings_ = parse_config(default_config()).blanket
    env, disc = settings_.env, settings_.discretizer
    collect_transitions(env, 100, 0, disc)  # fill the env's caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = collect_transitions(env, 20_000, settings_.seed, disc)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == 20_000
    assert retained < 3 * 2**20


def test_collect_retains_only_its_codes_at_20k_steps():
    # Three int32 code arrays retain about 0.23 MiB (0.46 MiB as int64);
    # nothing is kept per joint key until the table is first read.
    settings_ = parse_config(default_config()).blanket
    env, disc = settings_.env, settings_.discretizer
    collect_transitions(env, 100, 0, disc)  # fill the env's caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = collect_transitions(env, 20_000, settings_.seed, disc)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == 20_000
    assert "_table" not in vars(ds)
    assert retained < 2**20


def test_table_build_holds_under_half_a_mib_beyond_its_table_at_20k_steps():
    # Each column is gathered into sorted order in one reused buffer, and
    # the sort order and the run flags are freed before the first-seen sort:
    # about 0.28 MiB beyond the table with int32 codes (0.36 MiB with int64),
    # against 0.68 MiB with a sorted int64 copy per column and the order held
    # to the end.
    settings_ = parse_config(default_config()).blanket
    env, disc = settings_.env, settings_.discretizer
    collect_transitions(env, 100, 0, disc).keys  # fill the env's caches first
    ds = collect_transitions(env, 20_000, settings_.seed, disc)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        keys, counts = ds.keys, ds.counts
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == 20_000 and len(keys) == len(counts)
    assert peak - retained < 2**19


def test_estimator_holds_under_0_9_mib_beyond_its_table_at_20k_steps():
    # Each rank and marginal array is freed after its last use, and the logs
    # are taken from the ratios' buffer, not from a list of Python floats:
    # 0.73 MiB beyond the table's 9,292 keys, against 1.07 MiB with every
    # array held to the end and the ratios listed.
    settings_ = parse_config(default_config()).blanket
    ds = collect_transitions(settings_.env, 20_000, settings_.seed, settings_.discretizer)
    keys, weights = ds.keys, ds.counts.astype(np.float64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cmi, _ = _table_cmi(keys, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cmi == 0.0 and len(keys) == 9_292
    assert peak - before < 0.9 * 2**20


@pytest.mark.parametrize("steps", [20_000, 100_000])
def test_collect_transient_memory_stays_under_1_mib(steps):
    # Raw facts are buffered and symbolized a block at a time, and a block's
    # noisy fields are freed when the next block is drawn, so what a
    # collection holds beyond its result does not grow with `steps`.
    settings_ = parse_config(default_config()).blanket
    env, disc = settings_.env, settings_.discretizer
    collect_transitions(env, 100, 0, disc)  # fill the env's caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = collect_transitions(env, steps, settings_.seed, disc)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == steps
    assert peak - retained < 2**20
