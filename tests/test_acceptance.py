"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The behavioral criteria (6-9) train tabular agents for minutes; heavy runs
are shared between criteria and spread over two worker processes.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import mean, median

from scipy.stats import binomtest

from interoai.agents import QTable, q_select, q_update
from interoai.blanket import (
    cmi_from_counts,
    collect_transitions,
    conditional_mi,
    jacobian_sparsity,
    uniform_random_policy,
)
from interoai.core import ACTIONS, Action, InternalState, Tag, perturb_external, step_factored
from interoai.envs import CORE_TEMP, make_coupled_variant, reset, transition_maps
from interoai.harness.config import default_config, parse_config
from interoai.harness.export import metrics_csv_text
from interoai.harness.runner import execute_run, probe_entropies, sweep
from interoai.homeostat import DriveModel, drive, homeostatic_reward
from interoai.rng import stream

from helpers import all_external_states, make_tiny_env
from oracles import brute_force_cmi, two_cell_joint, value_iteration

SEEDS = tuple(range(20))
TRAIN_STEPS = 150_000
EVAL_STEPS = 4_000
JOBS = 2


def _report(n: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPT-{n:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {n} failed: {detail}"


def _config_for(kind: str):
    doc = copy.deepcopy(default_config())
    doc["agent"]["kind"] = kind
    # The random baseline is stationary; a short warm-up keeps the eval
    # window on the same season phase without burning dead compute.
    doc["run"]["train_steps"] = 2_000 if kind == "Random" else TRAIN_STEPS
    doc["run"]["eval_steps"] = EVAL_STEPS
    return parse_config(doc)


GOAL_STARTS = ((2, 3), (4, 3), (3, 3))
ENERGY_PROBE = (0.12, 0.75, 37.0)
HYDRATION_PROBE = (0.75, 0.12, 37.0)


def _first_resource(agent, env, model, internal, start, cap=40) -> str:
    state = reset(env, 0)
    state = dataclasses.replace(
        state,
        internal=InternalState(internal),
        external=dataclasses.replace(state.external, agent_pos=start),
    )
    rng = stream(999, 0, "goal-probe")
    for _ in range(cap):
        tag = state.external.tag_at(state.external.agent_pos)
        if tag in (Tag.Food, Tag.Water):
            return tag.name
        obs, _, sig = agent._facts(state)
        state = step_factored(model, state, agent.table_for(sig.context_id).greedy(obs), rng)
    return "none"


def _survival_worker(args: tuple[str, int]) -> dict:
    kind, seed = args
    cfg = _config_for(kind)
    result = execute_run(cfg, seed)
    out = {"seed": seed, "vf": result.metrics.viability_fraction}
    if kind == "HomeostaticQ":
        env = cfg.env
        model = transition_maps(env)
        first = lambda probe: [
            _first_resource(result.agent, env, model, probe, s) for s in GOAL_STARTS
        ]
        hits_food = first(ENERGY_PROBE).count("Food")
        hits_water = first(HYDRATION_PROBE).count("Water")
        out["energy_to_food"] = hits_food > len(GOAL_STARTS) / 2
        out["hydration_to_water"] = hits_water > len(GOAL_STARTS) / 2
    return out


@functools.lru_cache(maxsize=None)
def _survival_results(kind: str) -> tuple:
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return tuple(pool.map(_survival_worker, [(kind, s) for s in SEEDS]))


def _entropy_worker(seed: int) -> list:
    cfg = _config_for("Neuromod")
    result = execute_run(cfg, seed)
    return probe_entropies(result.agent, cfg.env, seed)


# Stability-plasticity protocol: long pure-A pre-training, then the first
# hot season and the return, with seasonal knowledge forced onto shared
# keys (no temperature bins, no ambient sensing) and the hot season also
# relocating the resources.  This is the regime context gating targets:
# season A lives in the store-deficit tables while the hot season routes
# almost entirely through the temperature context.
PLASTICITY_RES_B = [[1, 3, "Food"], [5, 3, "Water"], [3, 3, "Shade"]]


def _plasticity_doc(gating: bool) -> dict:
    doc = copy.deepcopy(default_config())
    doc["env"]["seasons"][1]["resources"] = PLASTICITY_RES_B
    doc["env"]["order"] = [0] * 80 + [1, 0]
    doc["agent"]["kind"] = "Neuromod"
    doc["agent"]["sense_ambient"] = False
    doc["agent"]["bins"][2] = [60.0]
    doc["neuromod"]["context_gating"] = gating
    doc["run"]["train_steps"] = 39_500  # eval starts on the last pre-switch A block
    doc["run"]["eval_steps"] = 1_500
    return doc


def _plasticity_worker(args: tuple[bool, int]) -> tuple[float, float]:
    gating, seed = args
    result = execute_run(parse_config(_plasticity_doc(gating)), seed)
    return result.metrics.retention, result.metrics.recovery_time


@functools.lru_cache(maxsize=None)
def _plasticity_results(gating: bool) -> tuple:
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return tuple(pool.map(_plasticity_worker, [(gating, s) for s in SEEDS]))


# ---------------------------------------------------------------------------
# 1. Telescoping reward identity
# ---------------------------------------------------------------------------


def test_accept_01_telescoping():
    cfg = parse_config(default_config())
    env = cfg.env
    dm = env.drive_model
    model = transition_maps(env)
    started = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng_env = stream(seed, 0, "env")
        rng_policy = stream(seed, 0, "agent")
        state = reset(env, seed)
        d0 = drive(dm, state.internal)
        total = 0.0
        for _ in range(1000):
            action = ACTIONS[int(rng_policy.integers(0, len(ACTIONS)))]
            nxt = step_factored(model, state, action, rng_env)
            total += homeostatic_reward(dm, state.internal, nxt.internal)
            state = nxt
        err = abs(total - (d0 - drive(dm, state.internal)))
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    _report(
        1,
        "telescoping reward",
        worst < 1e-9 and elapsed < 10.0,
        f"max |error|={worst:.3g} over 100x1000 steps, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Structural blanket invariance
# ---------------------------------------------------------------------------


def test_accept_02_structural_invariance():
    env = make_tiny_env()
    started = time.monotonic()
    externals = all_external_states(env)
    base = reset(env, 0)
    internals = [InternalState(v) for v in ((0.6, 0.6, 37.0), (0.25, 0.9, 35.0))]
    boundaries = [
        dataclasses.replace(base.boundary, sensed_ambient=s, flux_food=f)
        for s in (29.0, 37.0, 45.0)
        for f in (0.0, env.e_gain)
    ]
    model = transition_maps(env)
    checked = 0
    for internal in internals:
        for boundary in boundaries:
            probe = dataclasses.replace(base, internal=internal, boundary=boundary)
            for action in Action:
                outcomes = {
                    step_factored(
                        model, perturb_external(probe, ext), action, stream(0, 0, "env")
                    ).internal
                    for ext in externals
                }
                checked += len(externals)
                assert len(outcomes) == 1  # bitwise identical internal successor

    coupled_model = transition_maps(make_coupled_variant(env, 0.2))
    violated = False
    for action in Action:
        outcomes = {
            step_factored(
                coupled_model, perturb_external(base, ext), action, stream(0, 0, "env")
            ).internal
            for ext in externals
        }
        if len(outcomes) > 1:
            violated = True
            break
    elapsed = time.monotonic() - started
    _report(
        2,
        "structural invariance",
        violated and elapsed < 5.0,
        f"{checked} factored perturbations identical; coupled variant violated; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. CMI oracle equivalence and sampled separation
# ---------------------------------------------------------------------------


def test_accept_03_cmi():
    started = time.monotonic()
    oracle_gap = max(
        abs(cmi_from_counts(two_cell_joint(leak)) - brute_force_cmi(two_cell_joint(leak)))
        for leak in (0.0, 0.15, 0.3, 0.7)
    )

    cfg = parse_config(default_config())
    settings = cfg.blanket
    ds_f = collect_transitions(
        settings.env, uniform_random_policy, settings.steps, settings.seed, settings.discretizer
    )
    ds_c = collect_transitions(
        make_coupled_variant(settings.env, 0.2),
        uniform_random_policy,
        settings.steps,
        settings.seed,
        settings.discretizer,
    )
    rep_f = conditional_mi(ds_f, settings.tol_lo, settings.tol_hi)
    rep_c = conditional_mi(ds_c, settings.tol_lo, settings.tol_hi)
    elapsed = time.monotonic() - started
    ok = (
        oracle_gap < 1e-12
        and rep_f.cmi_nats < settings.tol_lo
        and rep_c.cmi_nats > settings.tol_hi
        and rep_c.cmi_nats >= 5.0 * rep_f.cmi_nats
        and elapsed < 60.0
    )
    _report(
        3,
        "conditional mutual information",
        ok,
        f"oracle gap={oracle_gap:.2g}; factored={rep_f.cmi_nats:.3g} < {settings.tol_lo}; "
        f"coupled={rep_c.cmi_nats:.4f} > {settings.tol_hi}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Jacobian zero blocks
# ---------------------------------------------------------------------------


def test_accept_04_jacobian():
    cfg = parse_config(default_config())
    env = cfg.env
    state = reset(env, 0)
    factored_max = 0.0
    model = transition_maps(env)
    for action in Action:
        report = jacobian_sparsity(model, state, action, cfg.blanket.epsilon)
        factored_max = max(
            factored_max, report.forbidden_internal_max, report.forbidden_external_max
        )
    coupled = transition_maps(make_coupled_variant(env, 0.2))
    report = jacobian_sparsity(coupled, state, Action.Rest, cfg.blanket.epsilon)
    sensitivity = report.internal_wrt_external[(CORE_TEMP, state.external.agent_pos)]
    ok = factored_max == 0.0 and abs(sensitivity - 0.2) < 1e-6
    _report(
        4,
        "jacobian zero blocks",
        ok,
        f"factored forbidden max={factored_max}; coupled dT'/dambient={sensitivity:.8f}",
    )


# ---------------------------------------------------------------------------
# 5. Small-MDP oracle
# ---------------------------------------------------------------------------


def test_accept_05_chain_oracle():
    started = time.monotonic()
    n_states = 5
    chain_actions = (Action.MoveW, Action.MoveE)
    dm = DriveModel(set_point=(4.0,), weights=(1.0,))

    def next_state(s: int, a_idx: int) -> int:
        return max(s - 1, 0) if a_idx == 0 else min(s + 1, n_states - 1)

    def reward(s: int, a_idx: int) -> float:
        h = InternalState((float(s),))
        h2 = InternalState((float(next_state(s, a_idx)),))
        return homeostatic_reward(dm, h, h2)

    optimal = value_iteration(n_states, 2, next_state, reward, gamma=0.9)

    table = QTable(actions=chain_actions)
    rng = stream(5, 0, "agent")
    s = 0
    for t in range(10_000):
        if t % 10 == 0:
            # Exploring start: softmax alone starves far-behind actions.
            s = int(rng.integers(0, n_states))
            action = chain_actions[int(rng.integers(0, 2))]
        else:
            tau = max(0.2, math.exp(-t / 1500.0))  # annealed temperature
            action = q_select(table, s, tau, rng)
        a_idx = chain_actions.index(action)
        s2 = next_state(s, a_idx)
        q_update(table, (s, action, reward(s, a_idx), s2), alpha=0.5, gamma=0.9, g=1.0)
        s = s2

    max_err = max(
        abs(table.get(s, chain_actions[a]) - optimal[(s, a)])
        for s in range(n_states)
        for a in range(2)
    )
    policy_match = all(
        chain_actions.index(table.greedy(s))
        == max(range(2), key=lambda a: (optimal[(s, a)], -a))
        for s in range(n_states)
    )
    elapsed = time.monotonic() - started
    _report(
        5,
        "value-iteration oracle",
        max_err < 1e-3 and policy_match and elapsed < 5.0,
        f"max-norm Q error={max_err:.2g}; greedy policy matches; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Homeostasis: internal reward beats the baselines
# ---------------------------------------------------------------------------


def test_accept_06_homeostasis():
    homeo = _survival_results("HomeostaticQ")
    rand = _survival_results("Random")
    ext = _survival_results("ExternalRewardQ")
    med_h = median(r["vf"] for r in homeo)
    med_r = median(r["vf"] for r in rand)
    wins = sum(1 for h, e in zip(homeo, ext) if h["vf"] > e["vf"])
    ties = sum(1 for h, e in zip(homeo, ext) if h["vf"] == e["vf"])
    n_effective = len(SEEDS) - ties
    p = binomtest(wins, n_effective, 0.5, alternative="greater").pvalue if n_effective else 1.0
    ok = med_h >= 2.0 * med_r and p < 0.05
    _report(
        6,
        "homeostatic autonomy",
        ok,
        f"median vf: homeo={med_h:.3f}, random={med_r:.3f} (x{med_h / med_r:.2f}); "
        f"homeo>external in {wins}/{n_effective}, sign test p={p:.2g}",
    )


# ---------------------------------------------------------------------------
# 7. Goal switching follows the dominant deficit
# ---------------------------------------------------------------------------


def test_accept_07_goal_switching():
    homeo = _survival_results("HomeostaticQ")
    food_hits = sum(1 for r in homeo if r["energy_to_food"])
    water_hits = sum(1 for r in homeo if r["hydration_to_water"])
    p_food = binomtest(food_hits, len(SEEDS), 0.5, alternative="greater").pvalue
    p_water = binomtest(water_hits, len(SEEDS), 0.5, alternative="greater").pvalue
    ok = p_food < 0.05 and p_water < 0.05
    _report(
        7,
        "goal switching",
        ok,
        f"energy deficit -> food first in {food_hits}/{len(SEEDS)} (p={p_food:.2g}); "
        f"hydration deficit -> water first in {water_hits}/{len(SEEDS)} (p={p_water:.2g})",
    )


# ---------------------------------------------------------------------------
# 8. Satiated agents explore more than needy ones
# ---------------------------------------------------------------------------


def test_accept_08_exploration_modulation():
    cfg = parse_config(default_config())
    dm = cfg.env.drive_model
    satiated = InternalState(tuple(dm.set_point))
    lows = list(dm.set_point)
    lows[0] = dm.viability[0][0]
    lows[1] = dm.viability[1][0]
    deficit = InternalState(tuple(lows))
    assert drive(dm, satiated) < 0.1 and drive(dm, deficit) > 1.0

    entropy_seeds = tuple(range(5))
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        all_entropies = list(pool.map(_entropy_worker, entropy_seeds))
    # Average the per-cell entropies across seeds, then pair by grid cell.
    per_cell: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for cells in all_entropies:
        for pos, e_sat, e_def in cells:
            per_cell.setdefault(pos, []).append((e_sat, e_def))
    wins = ties = 0
    for values in per_cell.values():
        sat = mean(v[0] for v in values)
        def_ = mean(v[1] for v in values)
        if sat > def_:
            wins += 1
        elif sat == def_:
            ties += 1
    n_effective = len(per_cell) - ties
    p = binomtest(wins, n_effective, 0.5, alternative="greater").pvalue if n_effective else 1.0
    _report(
        8,
        "exploration modulation",
        p < 0.05,
        f"satiated entropy > deficit entropy at {wins}/{n_effective} cells, sign test p={p:.2g}",
    )


# ---------------------------------------------------------------------------
# 9. Stability-plasticity: context gating retains and recovers
# ---------------------------------------------------------------------------


def test_accept_09_stability_plasticity():
    gated = _plasticity_results(True)
    ungated = _plasticity_results(False)
    retention_wins = sum(1 for g, u in zip(gated, ungated) if g[0] >= u[0])
    med_rec_gated = median(g[1] for g in gated)
    med_rec_ungated = median(u[1] for u in ungated)
    ok = retention_wins > len(SEEDS) / 2 and med_rec_gated <= med_rec_ungated
    _report(
        9,
        "stability-plasticity",
        ok,
        f"retention gated>=ungated in {retention_wins}/{len(SEEDS)} seeds "
        f"(medians {median(g[0] for g in gated):.3f} vs {median(u[0] for u in ungated):.3f}); "
        f"median recovery {med_rec_gated} <= {med_rec_ungated}",
    )


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------


def test_accept_10_determinism(tmp_path):
    doc = copy.deepcopy(default_config())
    doc["run"].update({"train_steps": 300, "eval_steps": 200, "seeds": [0, 1, 2]})
    cfg = parse_config(doc)
    t1 = sweep(cfg, str(tmp_path / "serial"), jobs=1)
    t2 = sweep(cfg, str(tmp_path / "parallel"), jobs=2)
    same_tables = metrics_csv_text(t1) == metrics_csv_text(t2)
    same_bytes = all(
        (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()
        for name in ("metrics.csv", "log_seed0.csv", "log_seed1.csv", "log_seed2.csv")
    )
    _report(
        10,
        "determinism",
        same_tables and same_bytes,
        "serial and parallel sweeps byte-identical (metrics + logs)",
    )
