"""Config validation, run/sweep determinism, metrics, export, CLI."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import interoai
from interoai.agents import AgentConfig
from interoai.blanket import CmiVerdict
from interoai.envs import GridSpec, HomeoGridEnv
from interoai.errors import ConfigError, RuntimeFailure
from interoai.harness.cli import main
from interoai.harness.config import (
    BlanketSettings,
    RunSettings,
    default_config,
    load_config,
    parse_config,
)
from interoai.homeostat import DriveModel
from interoai.harness.export import (
    LOG_HEADER,
    drive_svg_text,
    export,
    log_csv_text,
    metrics_csv_text,
    read_log_csv,
    write_text,
)
from interoai.harness.metrics import (
    METRICS_HEADER,
    MetricsRow,
    MetricsTable,
    StepRecord,
    recovery_time,
    retention_score,
    season_runs,
    survival_steps,
    viability_fraction,
)
from interoai.harness.runner import execute_run, run, sweep, verify_blanket

from conftest import quick_config_doc


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_default_config_parses():
    parse_config(default_config())


def test_shipped_config_file_is_the_default_config():
    path = Path(__file__).resolve().parents[1] / "configs" / "homeogrid_s.json"
    assert path.read_text(encoding="utf-8") == json.dumps(default_config(), indent=2) + "\n"


def test_omitted_env_keys_take_the_dataclass_defaults(quick_doc):
    for env in (quick_doc["env"], quick_doc["blanket"]["env"]):
        for key in ("noise_std", "shade_delta", "leak"):
            env.pop(key, None)
    cfg = parse_config(quick_doc)
    for env in (cfg.env, cfg.blanket.env):
        assert env.grid.noise_std == GridSpec.noise_std
        assert env.grid.shade_delta == GridSpec.shade_delta
        assert env.leak == HomeoGridEnv.leak


@pytest.mark.parametrize("field", ["lam", "epsilon", "tol_lo", "tol_hi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_blanket_settings_reject_non_finite_values(quick_cfg, field, bad):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        dataclasses.replace(quick_cfg.blanket, **{field: bad})


def test_unknown_top_level_key_rejected(quick_doc):
    quick_doc["simulation"] = {}
    with pytest.raises(ConfigError, match="simulation"):
        parse_config(quick_doc)


def test_unknown_nested_key_rejected(quick_doc):
    quick_doc["env"]["wind"] = 3
    with pytest.raises(ConfigError, match="wind"):
        parse_config(quick_doc)
    doc = quick_config_doc()
    doc["agent"]["epsilon"] = 0.1
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(doc)


def test_dimension_mismatch_rejected(quick_doc):
    quick_doc["drive"]["weights"] = [1.0, 1.0]
    with pytest.raises(ConfigError):
        parse_config(quick_doc)


def test_bad_resource_tag_rejected(quick_doc):
    quick_doc["env"]["seasons"][0]["resources"][0][2] = "Gold"
    with pytest.raises(ConfigError, match="Gold"):
        parse_config(quick_doc)


def test_empty_seed_list_rejected(quick_doc):
    quick_doc["run"]["seeds"] = []
    with pytest.raises(ConfigError):
        parse_config(quick_doc)


def test_empty_neuromod_section_takes_the_dataclass_defaults(quick_doc):
    from interoai.agents import NeuromodConfig

    quick_doc["neuromod"] = {}
    assert parse_config(quick_doc).neuromod == NeuromodConfig()
    assert NeuromodConfig().tau_max == 0.3 and NeuromodConfig().beta_tau == 2.5


def test_duplicate_seeds_rejected(quick_doc):
    quick_doc["run"]["seeds"] = [0, 0, 1]
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(quick_doc)


@pytest.mark.parametrize(
    "section, key",
    [("agent", "season_visible"), ("agent", "sense_ambient"), ("neuromod", "context_gating")],
)
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_flags_must_be_json_bools(quick_doc, section, key, value):
    quick_doc[section][key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(quick_doc)


def test_flags_accept_json_bools(quick_doc):
    quick_doc["agent"]["season_visible"] = True
    quick_doc["neuromod"]["context_gating"] = False
    cfg = parse_config(quick_doc)
    assert cfg.discretizer.season_visible is True
    assert cfg.neuromod.context_gating is False


@pytest.mark.parametrize(
    "path",
    [
        ("env", "rows"),
        ("env", "cols"),
        ("env", "period"),
        ("drive", "grace_steps"),
        ("run", "train_steps"),
        ("run", "eval_steps"),
        ("blanket", "steps"),
    ],
)
@pytest.mark.parametrize("value", [7.9, True, "7"])
def test_counts_must_be_integral(quick_doc, path, value):
    section, key = path
    quick_doc[section][key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(quick_doc)


def test_integral_floats_and_nested_ints_checked(quick_doc):
    quick_doc["env"]["rows"] = 7.0
    assert parse_config(quick_doc).env.grid.rows == 7
    for where, bad in (("seeds", [0, 1.5]), ("start", [3, 3.5]), ("order", [0, 0.5])):
        doc = quick_config_doc()
        (doc["run"] if where == "seeds" else doc["env"])[where] = bad
        with pytest.raises(ConfigError, match=where):
            parse_config(doc)


def test_sweep_rejects_jobs_below_one_before_any_work(tmp_path, monkeypatch):
    import interoai.harness.runner as runner_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("no run or pool may start")

    monkeypatch.setattr(runner_mod.futures, "ProcessPoolExecutor", must_not_run)
    monkeypatch.setattr(runner_mod, "execute_run", must_not_run)
    cfg = parse_config(quick_config_doc())
    for jobs in (0, -2):
        with pytest.raises(ConfigError, match="jobs"):
            sweep(cfg, str(tmp_path / "out"), jobs=jobs)
    cfg_path = _write_config(tmp_path, quick_config_doc())
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out"), "--jobs", "0"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path, value",
    [
        (("drive", "weights", 0), math.nan),
        (("env", "c_e"), math.nan),
        (("env", "noise_std"), math.nan),
        (("blanket", "env", "noise_std"), math.inf),
        (("blanket", "drive", "set_point", 2), -math.inf),
        (("agent", "tau"), "0.2"),
        (("agent", "alpha"), True),
    ],
)
def test_config_floats_must_be_finite_numbers(quick_doc, path, value):
    *outer, key = path
    section = quick_doc
    for part in outer:
        section = section[part]
    section[key] = value
    name = key if isinstance(key, str) else outer[-1]
    with pytest.raises(ConfigError, match=name):
        parse_config(quick_doc)


def test_nan_literal_in_config_file_rejected(tmp_path):
    # Python's json module reads the non-standard NaN and Infinity literals.
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(quick_config_doc()).replace('"c_e": 0.02', '"c_e": NaN'))
    with pytest.raises(ConfigError, match="c_e"):
        load_config(path)


def _set(doc: dict, path: tuple, value) -> None:
    *outer, key = path
    for part in outer:
        doc = doc[part]
    doc[key] = value


_PLACED_TWICE = [[3, 2, "Food"], [3, 2, "Water"], [3, 3, "Shade"]]


def test_a_season_that_places_one_cell_twice_is_rejected(quick_doc):
    # The season table keeps only the later tag of a cell, so this season
    # would have no Food cell although its list names one.
    quick_doc["env"]["seasons"][0]["resources"] = _PLACED_TWICE
    with pytest.raises(ConfigError, match=r"season 0 places cell \(3, 2\) twice"):
        parse_config(quick_doc)


def test_cli_rejects_a_season_that_places_one_cell_twice(tmp_path, capsys):
    doc = quick_config_doc()
    doc["env"]["seasons"][0]["resources"] = _PLACED_TWICE
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--seed", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(3, 2) twice" in err
    assert not (tmp_path / "out").exists()


def test_omitted_optional_keys_take_the_dataclass_defaults(quick_doc):
    del quick_doc["agent"]["kind"]
    for key in ("exponents", "viability", "grace_steps"):
        del quick_doc["drive"][key]
    for key in ("seed", "epsilon"):
        del quick_doc["blanket"][key]
    del quick_doc["run"]["out_dir"]
    cfg = parse_config(quick_doc)
    assert cfg.agent.kind == AgentConfig.kind
    dm = cfg.env.drive_model
    assert (dm.n, dm.m) == (DriveModel.n, DriveModel.m)
    assert (dm.viability, dm.grace_steps) == (DriveModel.viability, DriveModel.grace_steps)
    assert (cfg.blanket.seed, cfg.blanket.epsilon) == (BlanketSettings.seed, BlanketSettings.epsilon)
    assert cfg.run.out_dir == RunSettings.out_dir


@pytest.mark.parametrize(
    "path", [("blanket", "lambda"), ("agent", "bins"), ("env", "seasons", 0, "resources")]
)
def test_required_keys_are_named_as_the_document_spells_them(quick_doc, path):
    *outer, key = path
    section = quick_doc
    for part in outer:
        section = section[part]
    del section[key]
    with pytest.raises(ConfigError, match=f"missing key '{key}'"):
        parse_config(quick_doc)


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("agent", "bins"), 5, id="bins-number"),
        pytest.param(("env", "seasons"), 5, id="seasons-number"),
        pytest.param(("drive", "exponents"), 5, id="exponents-number"),
        pytest.param(("drive", "exponents"), [2.0], id="exponents-short"),
        pytest.param(("env", "seasons", 0, "resources", 0), [3, 2], id="resource-short"),
        pytest.param(("env", "start"), [3, 3, 3], id="start-long"),
        pytest.param(("drive", "viability", 0), [0.1, 0.5, 1.1], id="viability-long"),
        pytest.param(("run", "out_dir"), None, id="out_dir-null"),
        pytest.param(("agent", "kind"), 5, id="kind-number"),
    ],
)
def test_list_shapes_and_strings_checked(quick_doc, path, value):
    _set(quick_doc, path, value)
    key = next(part for part in reversed(path) if isinstance(part, str))
    with pytest.raises(ConfigError, match=key):
        parse_config(quick_doc)


@pytest.mark.parametrize(
    "path, value",
    [pytest.param(("run", "seeds"), [-1], id="run"), pytest.param(("blanket", "seed"), -3, id="blanket")],
)
def test_negative_seeds_rejected(quick_doc, path, value):
    _set(quick_doc, path, value)
    with pytest.raises(ConfigError, match="seed"):
        parse_config(quick_doc)


def test_negative_run_seed_rejected_before_any_step(quick_cfg, tmp_path, monkeypatch):
    import interoai.harness.runner as runner_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("no reset or step may run")

    monkeypatch.setattr(runner_mod, "reset", must_not_run)
    monkeypatch.setattr(runner_mod, "step_factored", must_not_run)
    with pytest.raises(ConfigError, match="seed"):
        execute_run(quick_cfg, -1)
    cfg_path = _write_config(tmp_path, quick_config_doc())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(out)]) == 1
    assert not out.exists()


def test_sweep_caps_workers_at_the_seed_count(tmp_path, monkeypatch):
    import interoai.harness.runner as runner_mod

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(runner_mod.futures, "ProcessPoolExecutor", InlinePool)
    cfg = parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1]))
    sweep(cfg, str(tmp_path / "two"), jobs=8)
    assert pools == [2]
    cfg = parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[5]))
    sweep(cfg, str(tmp_path / "one"), jobs=4)
    assert pools == [2]  # one seed runs in this process, without a pool


def test_sweep_workers_send_back_only_the_metrics_row(tmp_path, monkeypatch):
    import pickle

    import interoai.harness.runner as runner_mod

    returned = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            pickle.dumps(fn)  # a worker process is sent the callable by pickle
            for item in items:
                returned.append(fn(item))
                yield returned[-1]

    monkeypatch.setattr(runner_mod.futures, "ProcessPoolExecutor", InlinePool)
    cfg = parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1]))
    table = sweep(cfg, str(tmp_path / "pool"), jobs=2)
    assert [type(row) for row in returned] == [MetricsRow, MetricsRow]
    assert table.rows == returned
    sweep(cfg, str(tmp_path / "serial"), jobs=1)
    for name in ("metrics.csv", "log_seed0.csv", "log_seed1.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def test_run_log_length_matches_eval_steps(quick_cfg, tmp_path):
    log = run(quick_cfg, 0, str(tmp_path)).log
    assert len(log.steps) == quick_cfg.run.eval_steps
    assert (tmp_path / "log_seed0.csv").exists()


def test_run_byte_identical_across_repeats(quick_cfg, tmp_path):
    run(quick_cfg, 3, str(tmp_path / "a"))
    run(quick_cfg, 3, str(tmp_path / "b"))
    a = (tmp_path / "a" / "log_seed3.csv").read_bytes()
    b = (tmp_path / "b" / "log_seed3.csv").read_bytes()
    assert a == b


def test_random_agent_log_has_no_q_fields(tmp_path):
    doc = quick_config_doc()
    doc["agent"]["kind"] = "Random"
    log = run(parse_config(doc), 0, str(tmp_path)).log
    assert all(r.tau is None and r.context_id is None for r in log.steps)
    text = (tmp_path / "log_seed0.csv").read_text(encoding="utf-8")
    assert text.splitlines()[1].endswith(",,")  # empty tau and context columns
    assert read_log_csv(tmp_path / "log_seed0.csv").steps == log.steps


def test_learning_agent_log_carries_signals(quick_cfg):
    result = execute_run(quick_cfg, 0)
    assert all(r.tau is not None for r in result.log.steps)


def test_rewards_telescope_within_episodes(quick_cfg):
    log = execute_run(quick_cfg, 1).log
    by_episode: dict[int, list] = {}
    for r in log.steps:
        by_episode.setdefault(r.episode, []).append(r)
    for records in by_episode.values():
        total = sum(r.reward for r in records)
        # Pre-step drive of the first record equals its post drive + reward.
        expected = (records[0].drive + records[0].reward) - records[-1].drive
        assert abs(total - expected) < 1e-9


def test_random_run_computes_the_drive_only_for_recorded_steps(monkeypatch):
    import interoai.harness.runner as runner_mod

    doc = quick_config_doc(train_steps=600, eval_steps=50, seeds=[0])
    doc["agent"]["kind"] = "Random"
    calls = [0]
    real = runner_mod.drive

    def counted(dm, h):
        calls[0] += 1
        return real(dm, h)

    monkeypatch.setattr(runner_mod, "drive", counted)
    log = execute_run(parse_config(doc), 0).log
    assert len(log.steps) == 50
    assert 0 < calls[0] <= 2 * 50


@pytest.mark.parametrize("kind", ["Random", "ExternalRewardQ", "HomeostaticQ", "Neuromod"])
def test_each_logged_drive_is_computed_once(kind, monkeypatch):
    # A logged step starts from the last logged step's `nxt`, whose drive is
    # already known, unless that step died and a respawn replaced the body.
    import interoai.harness.runner as runner_mod

    doc = quick_config_doc(seeds=[0])
    doc["agent"]["kind"] = kind
    calls = [0]
    real = runner_mod.drive

    def counted(dm, h):
        calls[0] += 1
        return real(dm, h)

    monkeypatch.setattr(runner_mod, "drive", counted)
    log = execute_run(parse_config(doc), 0).log
    steps = log.steps
    deaths = steps[-1].episode - steps[0].episode + (log.terminal == "Dead")
    assert len(steps) == doc["run"]["eval_steps"]
    assert len(steps) <= calls[0] <= len(steps) + 1 + deaths


@pytest.mark.parametrize("method", ["act", "learn"])
@pytest.mark.parametrize("failing_step", [0, 7, 499])
def test_a_failing_step_is_named_by_the_runtime_failure(quick_cfg, monkeypatch, method, failing_step):
    # `act` runs inside the step loop's policy call, `learn` after the step.
    from interoai.agents import TabularQAgent

    real = getattr(TabularQAgent, method)
    calls = [0]

    def failing(self, *args):
        if calls[0] == failing_step:
            raise ValueError("broken on purpose")
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(TabularQAgent, method, failing)
    assert quick_cfg.run.train_steps + quick_cfg.run.eval_steps == 500
    with pytest.raises(RuntimeFailure, match=rf"^run seed=0 failed at step {failing_step}: broken on purpose$"):
        execute_run(quick_cfg, 0)


def _reference_deaths(cfg, seed: int, steps: int) -> list[bool]:
    """Whether the body dies at each step of a Random run, from a hand-rolled loop.

    The survival rule is spelled out here: a death is a trailing run of
    out-of-zone bodies longer than the grace window, and it respawns a
    fresh body without touching the world clock.
    """
    from interoai.core import ACTIONS, step_factored
    from interoai.envs import reset, respawn, transition_maps
    from interoai.homeostat import in_viability
    from interoai.rng import BlockStream

    env, dm = cfg.env, cfg.env.drive_model
    model = transition_maps(env)
    rng_env, rng_agent = BlockStream(seed, 0, "env"), BlockStream(seed, 0, "agent")
    state = reset(env, seed)
    out_of_zone = 0
    deaths = []
    for _ in range(steps):
        action = ACTIONS[int(rng_agent.integers(0, len(ACTIONS)))]
        state = step_factored(model, state, action, rng_env)
        out_of_zone = 0 if in_viability(dm, state.internal) else out_of_zone + 1
        deaths.append(out_of_zone > dm.grace_steps)
        if deaths[-1]:
            state = respawn(env, state)
            out_of_zone = 0
    return deaths


def test_terminal_and_episodes_follow_the_reference_deaths():
    doc = quick_config_doc(seeds=[0])
    doc["agent"]["kind"] = "Random"
    eval_steps = 50
    deaths = _reference_deaths(parse_config(quick_config_doc(seeds=[0])), 0, 800)
    last_dead = next(t for t in range(eval_steps, len(deaths)) if deaths[t])
    last_alive = next(t for t in range(eval_steps, len(deaths)) if not deaths[t])
    for last, terminal in ((last_dead, "Dead"), (last_alive, "Alive")):
        doc["run"].update(train_steps=last + 1 - eval_steps, eval_steps=eval_steps)
        log = execute_run(parse_config(doc), 0).log
        assert log.terminal == terminal
        first = last + 1 - eval_steps
        assert [r.t for r in log.steps] == list(range(first, last + 1))
        assert [r.episode for r in log.steps] == [sum(deaths[:t]) for t in range(first, last + 1)]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_rows_plus_summary(quick_cfg, tmp_path):
    table = sweep(quick_cfg, str(tmp_path))
    assert [r.seed for r in table.rows] == [0, 1, 2]
    text = (tmp_path / "metrics.csv").read_text(encoding="utf-8")
    lines = text.strip("\n").split("\n")
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 3 + 3  # header, data rows, mean/sd/median
    assert lines[4].startswith("mean,")
    assert lines[5].startswith("sd,")
    assert lines[6].startswith("median,")


def test_interrupted_sweep_leaves_no_stale_metrics_table(tmp_path, monkeypatch, capsys):
    import interoai.harness.runner as runner_mod

    """The earlier sweep's table stays, so `report` refuses the mixed logs it no longer describes."""
    first = parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1]))
    sweep(first, str(tmp_path))
    table = (tmp_path / "metrics.csv").read_bytes()
    real = runner_mod.execute_run

    def interrupted_at_seed_1(config, seed):
        if seed == 1:
            raise KeyboardInterrupt
        return real(config, seed)

    monkeypatch.setattr(runner_mod, "execute_run", interrupted_at_seed_1)
    other = parse_config(quick_config_doc(train_steps=0, eval_steps=30, seeds=[0, 1]))
    with pytest.raises(KeyboardInterrupt):
        sweep(other, str(tmp_path))
    assert len(read_log_csv(tmp_path / "log_seed0.csv").steps) == 30
    assert (tmp_path / "metrics.csv").read_bytes() == table
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_line_runtime_failure(captured.err, "log_seed0.csv disagrees with its row")
    assert captured.out == ""


def test_run_after_a_sweep_leaves_no_stale_metrics_table(tmp_path, capsys):
    """`run` leaves the sweep's table byte-identical, and `report` refuses the log it no longer describes."""
    sweep(parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1])), str(tmp_path))
    table = (tmp_path / "metrics.csv").read_bytes()
    run(parse_config(quick_config_doc(train_steps=0, eval_steps=50, seeds=[0])), 0, str(tmp_path))
    assert len(read_log_csv(tmp_path / "log_seed0.csv").steps) == 50
    assert (tmp_path / "metrics.csv").read_bytes() == table
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_line_runtime_failure(captured.err, "log_seed0.csv disagrees with its row")
    assert captured.out == ""


def test_metrics_header_contract():
    assert METRICS_HEADER == (
        "seed,survival_steps,viability_fraction,mean_drive,entropy_satiated,"
        "entropy_deficit,recovery_time,retention,visits_food,visits_water,visits_shade"
    )


def test_summary_mean_of_constant_column():
    row = lambda seed: MetricsRow(
        seed=seed,
        survival_steps=100,
        viability_fraction=0.5,
        mean_drive=1.25,
        entropy_satiated=1.0,
        entropy_deficit=0.5,
        recovery_time=float("nan"),
        retention=float("nan"),
        visits_food=3,
        visits_water=4,
        visits_shade=5,
    )
    table = MetricsTable(rows=[row(0), row(1), row(2)])
    summary = {s[0]: s[1:] for s in table.summary()}
    assert summary["mean"][1] == 0.5
    assert summary["median"][1] == 0.5
    assert summary["sd"][1] == 0.0
    assert math.isnan(summary["mean"][6])  # all-NaN column stays NaN


def test_sweep_serial_equals_parallel(tmp_path):
    cfg = parse_config(quick_config_doc())
    sweep(cfg, str(tmp_path / "serial"), jobs=1)
    sweep(cfg, str(tmp_path / "parallel"), jobs=2)
    for name in ["metrics.csv", "log_seed0.csv", "log_seed1.csv", "log_seed2.csv"]:
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes(), name


# ---------------------------------------------------------------------------
# Metric definitions
# ---------------------------------------------------------------------------


def _rec(i, season=0, ok=True, drive=1.0, episode=0):
    return StepRecord(
        t=i, episode=episode, row=0, col=0, season=season, tag="Empty",
        energy=0.5, hydration=0.5, core_temp=37.0, action="Rest", reward=0.0,
        drive=drive, in_viability=ok, tau=None, context_id=None,
    )


def test_season_runs_segmentation():
    assert season_runs([0, 0, 1, 1, 1, 0]) == [(0, 0, 2), (1, 2, 5), (0, 5, 6)]
    assert season_runs([]) == []


def test_viability_fraction_and_survival():
    records = [_rec(i, ok=(i < 6), episode=0 if i < 8 else 1) for i in range(10)]
    assert viability_fraction([r.in_viability for r in records]) == 0.6
    assert survival_steps(records) == 8
    assert survival_steps([_rec(i) for i in range(5)]) == 5


def test_retention_score_ratio():
    records = (
        [_rec(i, season=0, ok=True) for i in range(10)]
        + [_rec(10 + i, season=1) for i in range(10)]
        + [_rec(20 + i, season=0, ok=(i % 2 == 0)) for i in range(10)]
    )
    assert retention_score(records, 0) == pytest.approx(0.5 / 1.0)
    assert math.isnan(retention_score(records[:15], 0))  # one visit only


def test_recovery_time_moving_average():
    # Drive sits at 1.0, jumps to 2.0 at the switch, decays back to 1.0.
    drives = [1.0] * 100 + [2.0] * 30 + [1.0] * 200
    t = recovery_time(drives, 100)
    assert 50 <= t < 130
    flat = [1.0] * 200
    assert recovery_time(flat, 100) == 50.0  # immediately within band


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_export_reexport_identical(quick_cfg, tmp_path):
    result = execute_run(quick_cfg, 0)
    p1 = export(result.log, tmp_path / "one.csv")
    p2 = export(result.log, tmp_path / "two.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_table_exports_header_only(tmp_path):
    path = export(MetricsTable(rows=[]), tmp_path / "empty.csv")
    assert path.read_text(encoding="utf-8") == METRICS_HEADER + "\n"


def _fail_midway(error):
    """An `open` whose files write half of what they are given, then raise."""

    class HalfWriter:
        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise error

    return HalfWriter


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_write_leaves_previous_artifact_and_no_partial_file(tmp_path, monkeypatch, error):
    import interoai.harness.export as export_mod

    path = tmp_path / "metrics.csv"
    write_text(path, "old contents\n")
    monkeypatch.setattr(export_mod, "open", _fail_midway(error), raising=False)
    with pytest.raises(type(error)):
        write_text(path, "new contents that never land\n")
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_failed_replace_leaves_previous_artifact_and_no_partial_file(tmp_path, monkeypatch):
    import interoai.harness.export as export_mod

    def refuse(src, dst):
        raise PermissionError("replace refused")

    path = tmp_path / "blanket.json"
    write_text(path, "{}\n")
    monkeypatch.setattr(export_mod.os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_text(path, '{"passed": true}\n')
    assert path.read_text(encoding="utf-8") == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blanket.json"]


def test_atomic_write_keeps_bytes_and_file_mode(tmp_path):
    text = "a,b\n1,2.5\n\u00e9\n"
    path = write_text(tmp_path / "new.csv", text)
    write_text(path, text)  # over an existing file as well
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    assert path.read_bytes() == plain.read_bytes()
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "plain.csv"]


def test_log_roundtrip(quick_cfg, tmp_path):
    result = execute_run(quick_cfg, 2)
    path = export(result.log, tmp_path / "log_seed2.csv")
    loaded = read_log_csv(path)
    assert loaded.seed == 2
    assert len(loaded.steps) == len(result.log.steps)
    assert loaded.steps[0] == result.log.steps[0]
    assert loaded.steps[-1] == result.log.steps[-1]
    assert loaded.steps == result.log.steps


def test_log_csv_header_stable(quick_cfg):
    assert LOG_HEADER == (
        "t,episode,row,col,season,tag,energy,hydration,core_temp,action,reward,"
        "drive,in_viability,tau,context_id"
    )
    text = log_csv_text(execute_run(quick_cfg, 0).log)
    assert text.splitlines()[0] == LOG_HEADER


def test_svg_plot_written_and_deterministic(quick_cfg, tmp_path):
    log = execute_run(quick_cfg, 0).log
    svg = drive_svg_text(log)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    p1 = export(log, tmp_path / "a.svg")
    p2 = export(log, tmp_path / "b.svg")
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# Blanket verification through the harness
# ---------------------------------------------------------------------------


def test_verify_blanket_report(quick_cfg, tmp_path):
    report = verify_blanket(quick_cfg, str(tmp_path))
    assert report.factored.verdict is CmiVerdict.Factored
    assert report.coupled.verdict is CmiVerdict.Coupled
    assert report.factored_jacobian_max == (0.0, 0.0)
    assert report.coupled_jacobian_max[0] == pytest.approx(quick_cfg.blanket.lam, abs=1e-6)
    assert report.passed
    payload = json.loads((tmp_path / "blanket.json").read_text(encoding="utf-8"))
    assert payload["factored"]["cmi_nats"] == 0.0
    assert payload["coupled"]["cmi_nats"] > payload["tol_hi"]


def test_verify_blanket_frees_the_factored_dataset_before_it_collects_the_coupled_one(
    quick_cfg, monkeypatch
):
    import interoai.harness.runner as runner_mod

    collect = runner_mod.collect_transitions
    collected = []  # a weak reference to each dataset handed out
    alive_at_call = []  # whether an earlier dataset was still held when the next was asked for

    def spy(*args, **kwargs):
        alive_at_call.append(any(ref() is not None for ref in collected))
        ds = collect(*args, **kwargs)
        collected.append(weakref.ref(ds))
        return ds

    monkeypatch.setattr(runner_mod, "collect_transitions", spy)
    assert verify_blanket(quick_cfg).passed
    assert alive_at_call == [False, False]
    assert all(ref() is None for ref in collected)


def test_verify_blanket_frees_each_variants_codes_before_its_estimate(quick_cfg, monkeypatch):
    import interoai.blanket as blanket_mod
    import interoai.harness.runner as runner_mod

    collect, estimate = runner_mod.collect_transitions, blanket_mod._table_cmi
    codes = []  # a weak reference to each collected dataset's `x`
    alive_at_estimate = []  # per estimate, whether each dataset's codes were still held

    def spy_collect(*args, **kwargs):
        ds = collect(*args, **kwargs)
        codes.append(weakref.ref(ds.x))
        return ds

    def spy_estimate(*args):
        alive_at_estimate.append([ref() is not None for ref in codes])
        return estimate(*args)

    monkeypatch.setattr(runner_mod, "collect_transitions", spy_collect)
    monkeypatch.setattr(blanket_mod, "_table_cmi", spy_estimate)
    assert verify_blanket(quick_cfg).passed
    assert alive_at_estimate == [[False], [False, False]]


_POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

_IMPORT_GUARD = """
import json, sys
loaded = []

def note():
    loaded.append([m for m in json.loads(sys.argv[3]) if m in sys.modules])

import interoai
import interoai.harness.cli
from interoai.harness.config import parse_config
from interoai.harness.runner import sweep, verify_blanket
note()
doc = json.loads(sys.argv[1])
assert verify_blanket(parse_config(doc)).passed
note()
doc["run"].update(seeds=[0], train_steps=0, eval_steps=20)
sweep(parse_config(doc), sys.argv[2], jobs=1)
note()
print(json.dumps(loaded))
"""


def test_only_a_parallel_sweep_loads_a_process_pool(tmp_path):
    # A fresh interpreter, since this one may have loaded the pool already.
    src = Path(interoai.__file__).resolve().parents[1]
    argv = [json.dumps(quick_config_doc()), str(tmp_path / "out"), json.dumps(_POOL_MODULES)]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], []]  # after the imports, verify_blanket, a serial sweep
    assert (tmp_path / "out" / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, quick_config_doc())
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--seed", "1", "--out", out]) == 0
    assert main(["report", "--in", out, "--plots"]) == 0
    captured = capsys.readouterr().out
    assert "log_seed1" in captured or "no metrics.csv" in captured
    assert (tmp_path / "out" / "log_seed1.svg").exists()


def test_cli_sweep(tmp_path):
    cfg_path = _write_config(tmp_path, quick_config_doc())
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg_path, "--out", out, "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    doc = quick_config_doc()
    doc["env"]["rows"] = -1
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--seed", "0", "--out", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--seed", "0", "--out", str(tmp_path)]) == 1


def test_cli_reports_a_misshapen_list_as_a_config_error(tmp_path, capsys):
    doc = quick_config_doc()
    doc["env"]["start"] = [3, 3, 3]
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--seed", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "env.start" in err


def test_cli_verify_blanket_pass_and_fail(tmp_path):
    cfg_path = _write_config(tmp_path, quick_config_doc())
    assert main(["verify-blanket", "--config", cfg_path, "--out", str(tmp_path / "v1")]) == 0
    rigged = quick_config_doc()
    rigged["blanket"]["tol_hi"] = 50.0  # nothing can exceed this; coupled verdict fails
    cfg_path = _write_config(tmp_path, rigged)
    assert main(["verify-blanket", "--config", cfg_path, "--out", str(tmp_path / "v2")]) == 3


def _assert_one_line_runtime_failure(err: str, *needles: str) -> None:
    assert err.startswith("runtime failure:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert all(needle in err for needle in needles)


@pytest.mark.parametrize(
    "text",
    [
        "step,episode\n1,0\n",
        LOG_HEADER + "\n1,2,3\n",
        LOG_HEADER + "\n" + ",".join(["x"] * (LOG_HEADER.count(",") + 1)) + "\n",
    ],
    ids=["foreign-header", "short-row", "non-numeric-cell"],
)
def test_cli_report_rejects_a_malformed_log(tmp_path, capsys, text):
    (tmp_path / "log_seed0.csv").write_text(text, encoding="utf-8")
    assert main(["report", "--in", str(tmp_path)]) == 2
    _assert_one_line_runtime_failure(capsys.readouterr().err, "log_seed0.csv")


def test_cli_report_rejects_a_missing_directory(tmp_path, capsys):
    absent = tmp_path / "absent"
    assert main(["report", "--in", str(absent)]) == 2
    _assert_one_line_runtime_failure(capsys.readouterr().err, str(absent))


def test_cli_report_names_the_logs_another_sweep_left(tmp_path, capsys):
    # A one-seed Random sweep into the directory of a three-seed HomeostaticQ
    # sweep: the older sweep's seeds 1 and 2 logs have no row in metrics.csv.
    sweep(parse_config(quick_config_doc(seeds=[0, 1, 2])), str(tmp_path))
    doc = quick_config_doc(seeds=[0])
    doc["agent"]["kind"] = "Random"
    sweep(parse_config(doc), str(tmp_path))
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_line_runtime_failure(captured.err, "metrics.csv", "log_seed1.csv", "log_seed2.csv")
    assert "log_seed0.csv" not in captured.err
    assert "mean drive" not in captured.out


def test_cli_report_names_a_row_whose_log_is_gone(tmp_path, capsys):
    sweep(parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1])), str(tmp_path))
    assert main(["report", "--in", str(tmp_path)]) == 0
    (tmp_path / "log_seed1.csv").unlink()
    assert main(["report", "--in", str(tmp_path)]) == 2
    _assert_one_line_runtime_failure(capsys.readouterr().err, "rows with no log: seed 1")


def test_cli_report_names_a_seed_with_two_rows(tmp_path, capsys):
    # A stale copy of seed 0's row above the real one: the table no longer
    # says which row the log stands for, so report prints nothing and exits 2.
    sweep(parse_config(quick_config_doc(train_steps=0, eval_steps=20, seeds=[0, 1])), str(tmp_path))
    path = tmp_path / "metrics.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    assert cells[0] == "0"
    cells[header.split(",").index("mean_drive")] = "9.99"
    path.write_text("\n".join([header, ",".join(cells), *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_line_runtime_failure(captured.err, "metrics.csv", "seed 0")
    assert captured.out == ""


def test_cli_report_rejects_a_log_cut_short_at_a_row_boundary(tmp_path, capsys):
    # A log cut after whole rows still parses; its recomputed columns differ
    # from the row the sweep wrote, so report prints nothing and exits 2.
    sweep(parse_config(quick_config_doc(train_steps=0, eval_steps=40, seeds=[0, 1])), str(tmp_path))
    path = tmp_path / "log_seed1.csv"
    path.write_text("\n".join(path.read_text(encoding="utf-8").split("\n")[:21]) + "\n", encoding="utf-8")
    assert len(read_log_csv(path).steps) == 20
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    _assert_one_line_runtime_failure(captured.err, "log_seed1.csv", "mean_drive")
    assert "log_seed0.csv" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["Random", "ExternalRewardQ", "HomeostaticQ", "Neuromod"])
def test_cli_report_accepts_what_sweep_writes(tmp_path, capsys, kind):
    doc = quick_config_doc(seeds=[0])
    doc["agent"]["kind"] = kind
    sweep(parse_config(doc), str(tmp_path))
    assert main(["report", "--in", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("1 logs, mean drive across seeds: ")


def test_iai_log_reaches_the_package_logger_when_the_root_has_a_handler(tmp_path, monkeypatch, caplog):
    # caplog's handler on the root logger makes logging.basicConfig a no-op.
    monkeypatch.setenv("IAI_LOG", "info")
    logger = logging.getLogger("interoai")
    level = logger.level
    cfg_path = _write_config(tmp_path, quick_config_doc(seeds=[0]))
    try:
        assert main(["run", "--config", cfg_path, "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    finally:
        logger.setLevel(level)
    assert any(r.getMessage().startswith("run seed=0 finished") for r in caplog.records)


def test_cli_runtime_failure_exit_code(tmp_path, monkeypatch):
    from interoai.errors import RuntimeFailure
    import interoai.harness.cli as cli

    def boom(config, seed, out_dir=None):
        raise RuntimeFailure("step 7: synthetic failure")

    monkeypatch.setattr(cli, "run", boom)
    cfg_path = _write_config(tmp_path, quick_config_doc())
    assert main(["run", "--config", cfg_path, "--seed", "0", "--out", str(tmp_path)]) == 2
