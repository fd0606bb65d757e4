"""Experiment execution: single runs, seed sweeps, and blanket verification.

A run is one continuous trajectory: the agent learns online for
``train_steps`` warm-up steps, then keeps learning while the following
``eval_steps`` steps are recorded.  Death re-embodies the agent (fresh body
at the start cell) without touching the world clock, so the season schedule
stays aligned across seeds and deaths merely split the log into episodes.

Everything downstream of a (config, seed) pair is deterministic, and each
run draws from its own random streams, so sweeps may execute their runs in
any order or in parallel without changing a byte of output.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent import futures
from dataclasses import asdict, dataclass
from functools import partial
from math import log as ln
from pathlib import Path
from statistics import mean

from ..agents import make_agent
from ..blanket import (
    CmiReport,
    CmiVerdict,
    collect_transitions,
    conditional_mi,
    jacobian_sparsity,
    rollout,
)
# Uncalled here, `step_factored`, `respawn` and `in_viability` are names bench/bench_trace.py wraps.
from ..core import ACTIONS, InternalState, step_factored  # noqa: F401
from ..envs import (  # noqa: F401
    ENERGY,
    HYDRATION,
    HomeoGridEnv,
    body_at,
    make_coupled_variant,
    reset,
    respawn,
    transition_maps,
)
from ..errors import ConfigError, RuntimeFailure
from ..homeostat import drive, in_viability  # noqa: F401
from ..rng import BlockStream
from .config import ExperimentConfig
from .export import export
from .metrics import EpisodeLog, MetricsRow, MetricsTable, StepRecord, build_metrics_row

log = logging.getLogger("interoai")

PROBE_SAMPLES = 256


@dataclass
class RunResult:
    log: EpisodeLog
    metrics: MetricsRow
    agent: object


def execute_run(config: ExperimentConfig, seed: int) -> RunResult:
    """Train and evaluate one agent; pure function of (config, seed)."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    env = config.env
    dm = env.drive_model
    agent = make_agent(config.agent, dm, config.discretizer, config.neuromod)
    walk = rollout(env, agent.act, seed, "agent", "env")

    records: list[StepRecord] = []
    episode = 0
    record_from = config.run.train_steps
    total = record_from + config.run.eval_steps
    dead = False
    d_next = None  # the drive of the last logged `nxt`, while it is the next step's state
    step = -1
    try:
        for step in range(total):
            state, action, nxt, ok, dead = next(walk)
            agent.learn(state, action, nxt)
            if step >= record_from:
                sig = agent.last_signals
                d = drive(dm, state.internal) if d_next is None else d_next
                d_next = drive(dm, nxt.internal)
                pos = nxt.external.agent_pos
                energy, hydration, core_temp = nxt.internal.values
                records.append(
                    StepRecord(
                        t=step,
                        episode=episode,
                        row=pos[0],
                        col=pos[1],
                        season=nxt.external.season,
                        tag=nxt.external.tag_at(pos).name,
                        energy=energy,
                        hydration=hydration,
                        core_temp=core_temp,
                        action=action.name,
                        reward=d - d_next,
                        drive=d_next,
                        in_viability=ok,
                        tau=sig.temperature if sig is not None else None,
                        context_id=sig.context_id if sig is not None else None,
                    )
                )
                if dead:  # the next step starts from a respawned body, not from `nxt`
                    d_next = None
            episode += dead
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeFailure(f"run seed={seed} failed at step {step}: {exc}") from exc

    entropies = probe_entropies(agent, env, seed)
    ent_sat = mean(e for _, e, _ in entropies) if entropies else float("nan")
    ent_def = mean(e for _, _, e in entropies) if entropies else float("nan")
    row = build_metrics_row(seed, records, env.schedule.order[0], ent_sat, ent_def)
    terminal = "Dead" if dead else "Alive"
    episode_log = EpisodeLog(seed=seed, steps=records, terminal=terminal)
    return RunResult(log=episode_log, metrics=row, agent=agent)


def probe_internal_states(env: HomeoGridEnv) -> tuple[InternalState, InternalState]:
    """A satiated body (at the set point) and a depleted one (floor energy/water)."""
    dm = env.drive_model
    satiated = InternalState(tuple(dm.set_point))
    lows = list(dm.set_point)
    lows[ENERGY] = dm.viability[ENERGY][0]
    lows[HYDRATION] = dm.viability[HYDRATION][0]
    return satiated, InternalState(tuple(lows))


def probe_entropies(agent, env: HomeoGridEnv, seed: int) -> list[tuple[tuple[int, int], float, float]]:
    """Empirical action entropy per grid cell, satiated versus depleted.

    The trained policy is sampled (no learning) at every cell under both
    probe bodies; sampling noise is tiny against the temperature gap the
    neuromodulator induces.
    """
    dm = env.drive_model
    if not dm.viability:
        return []
    satiated, deficit = probe_internal_states(env)
    season = env.schedule.order[0]
    field = env.grid.table[season].field
    rng = BlockStream(seed, 0, "probe")
    out = []
    for r in range(env.grid.rows):
        for c in range(env.grid.cols):
            cell_entropy = []
            for internal in (satiated, deficit):
                probe = body_at(env, internal, (r, c), season, field, 0)
                counts = Counter(agent.act(probe, rng) for _ in range(PROBE_SAMPLES))
                acc = 0.0  # added left to right, never by `sum()` (compensated from Python 3.12)
                for n in counts.values():
                    acc += (n / PROBE_SAMPLES) * ln(n / PROBE_SAMPLES)
                cell_entropy.append(-acc)
            out.append(((r, c), cell_entropy[0], cell_entropy[1]))
    return out


def run(config: ExperimentConfig, seed: int, out_dir: str | None = None) -> RunResult:
    """Execute one run, write its per-step log as CSV, and return the result."""
    result = execute_run(config, seed)
    directory = Path(out_dir if out_dir is not None else config.run.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    export(result.log, directory / f"log_seed{seed}.csv")
    log.info("run seed=%d finished: %d steps, terminal=%s", seed, len(result.log.steps), result.log.terminal)
    return result


def _run_metrics(config: ExperimentConfig, out_dir: str, seed: int) -> MetricsRow:
    """`run` one seed and keep only its metrics row, the part a sweep needs.

    A top-level function, so a worker process can be handed it and send the
    small row back instead of the whole `RunResult`.
    """
    return run(config, seed, out_dir=out_dir).metrics


def sweep(config: ExperimentConfig, out_dir: str | None = None, jobs: int = 1) -> MetricsTable:
    """One run per seed; logs and a metrics table written to the output directory."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    directory = Path(out_dir if out_dir is not None else config.run.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    seeds = sorted(config.run.seeds)
    run_seed = partial(_run_metrics, config, str(directory))
    jobs = min(jobs, len(seeds))  # a worker beyond one per seed would sit idle
    if jobs > 1:  # the pool's module, and multiprocessing, load on this first read
        with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_seed, seeds))
    else:
        rows = list(map(run_seed, seeds))
    table = MetricsTable(rows=rows)
    export(table, directory / "metrics.csv")
    return table


@dataclass
class BlanketReport:
    """Verdicts and measurements for the factored env and its coupled control."""

    factored: CmiReport
    coupled: CmiReport
    factored_jacobian_max: tuple[float, float]  # (internal<-external, external<-internal)
    coupled_jacobian_max: tuple[float, float]
    gap_ratio: float
    lam: float
    tol_lo: float
    tol_hi: float
    passed: bool

    def to_dict(self) -> dict:
        """The fields as plain JSON values; `lam` is written as "lambda"."""
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        for rep in (d["factored"], d["coupled"]):
            rep["verdict"] = rep["verdict"].value
        return d


def _jacobian_maxima(env: HomeoGridEnv, epsilon: float) -> tuple[float, float]:
    """Forbidden-block maxima over the reset state and every action."""
    model = transition_maps(env)
    state = reset(env, 0)
    int_max = 0.0
    ext_max = 0.0
    for action in ACTIONS:
        report = jacobian_sparsity(model, state, action, epsilon)
        int_max = max(int_max, report.forbidden_internal_max)
        ext_max = max(ext_max, report.forbidden_external_max)
    return int_max, ext_max


def verify_blanket(config: ExperimentConfig, out_dir: str | None = None) -> BlanketReport:
    """Run the CI estimate and the Jacobian check on both env variants."""
    settings = config.blanket
    factored_env = settings.env
    coupled_env = make_coupled_variant(factored_env, settings.lam)

    def measure(env: HomeoGridEnv) -> tuple[CmiReport, tuple[float, float]]:
        # Handed straight in, unnamed, a variant's dataset is freed once its
        # table is built: its codes are gone before its estimate runs.
        rep = conditional_mi(
            collect_transitions(env, settings.steps, settings.seed, settings.discretizer),
            settings.tol_lo,
            settings.tol_hi,
        )
        return rep, _jacobian_maxima(env, settings.epsilon)

    rep_factored, jac_factored = measure(factored_env)
    rep_coupled, jac_coupled = measure(coupled_env)

    gap = rep_coupled.cmi_nats / max(rep_factored.cmi_nats, settings.tol_lo)
    passed = (
        rep_factored.verdict is CmiVerdict.Factored
        and rep_coupled.verdict is CmiVerdict.Coupled
        and jac_factored[0] == 0.0
        and jac_factored[1] == 0.0
    )
    report = BlanketReport(
        factored=rep_factored,
        coupled=rep_coupled,
        factored_jacobian_max=jac_factored,
        coupled_jacobian_max=jac_coupled,
        gap_ratio=gap,
        lam=settings.lam,
        tol_lo=settings.tol_lo,
        tol_hi=settings.tol_hi,
        passed=passed,
    )
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        export(report, directory / "blanket.json")
    return report
