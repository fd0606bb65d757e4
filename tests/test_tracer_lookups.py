"""The benchmark's span tracer still finds every callable it wraps.

`bench/bench_trace.py` patches layer callables by name in the modules that
call them.  A refactor that renames one, or routes the step loop around the
name the tracer patches, would otherwise break only traced benchmark runs.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import quick_config_doc
from interoai import core, envs
from interoai.harness import cli, config, runner

BENCH_TRACE = Path(__file__).resolve().parents[1] / "bench" / "bench_trace.py"


def _load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_step_of_a_run_and_a_verification(quick_cfg, monkeypatch):
    deaths = [0]
    update = envs.SurvivalTracker.update

    def counted_update(self, ok):
        dead = update(self, ok)
        deaths[0] += dead
        return dead

    monkeypatch.setattr(envs.SurvivalTracker, "update", counted_update)
    bench_trace = _load_bench_trace()
    rec = bench_trace.SpanRecorder()
    uninstall = bench_trace.install(rec)
    try:
        runner.execute_run(quick_cfg, 0)
        runner.verify_blanket(quick_cfg)
    finally:
        uninstall()
    steps = quick_cfg.run.train_steps + quick_cfg.run.eval_steps + 2 * quick_cfg.blanket.steps
    calls = {name: 0 for name in rec.names}
    for name_id in rec.name_id:
        calls[rec.names[name_id]] += 1
    assert calls["core.step_factored"] == steps
    assert calls["envs.SurvivalTracker.update"] == steps
    assert calls["homeostat.in_viability"] == steps
    assert deaths[0] > 0
    assert calls["envs.respawn"] == deaths[0]
    assert calls["harness.runner.execute_run"] == 1
    assert calls["harness.runner.verify_blanket"] == 1
    assert runner.step_factored is core.step_factored  # uninstalled again


def test_tracer_sees_one_span_per_config_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.default_config()), encoding="utf-8")
    bench_trace = _load_bench_trace()
    rec = bench_trace.SpanRecorder()
    original = config.load_config
    uninstall = bench_trace.install(rec)
    try:
        loaded = config.load_config(path)
    finally:
        uninstall()
    assert [rec.names[i] for i in rec.name_id] == ["harness.config.load_config"]
    assert loaded == config.parse_config(config.default_config())
    assert config.load_config is original  # uninstalled again


def test_tracer_sees_the_cli_load_its_config(tmp_path, quick_doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(quick_doc), encoding="utf-8")
    bench_trace = _load_bench_trace()
    rec = bench_trace.SpanRecorder()
    uninstall = bench_trace.install(rec)
    try:
        code = cli.main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path)])
    finally:
        uninstall()
    assert code == 0
    names = [rec.names[i] for i in rec.name_id]
    assert names.count("harness.config.load_config") == 1
    assert names.count("harness.cli.main") == 1


@pytest.mark.parametrize("traced_run", ["execute_run", "verify_blanket"])
def test_tracer_sees_the_maps_of_every_step(traced_run, quick_cfg, monkeypatch):
    # A step must reach f_b and f_e through the traced model, even when the
    # state it steps is one the env built in advance.  The traced model keeps
    # the env's table states, so no step scans a resource map the env built.
    scanned = []
    check_grid = core._check_grid

    def spy(grid, rows, cols, what):
        scanned.append(what)
        return check_grid(grid, rows, cols, what)

    monkeypatch.setattr(core, "_check_grid", spy)
    bench_trace = _load_bench_trace()
    rec = bench_trace.SpanRecorder()
    uninstall = bench_trace.install(rec)
    try:
        if traced_run == "execute_run":
            runner.execute_run(quick_cfg, 0)
        else:
            runner.verify_blanket(quick_cfg)
    finally:
        uninstall()
    names = [rec.names[i] for i in rec.name_id]
    assert "resource_map" not in scanned
    if traced_run == "verify_blanket":
        # Both collections' steps; the Jacobian probe also calls f_e, outside a step.
        steps = 2 * quick_cfg.blanket.steps
        step = rec.names.index("core.step_factored")
        in_steps = Counter(
            rec.names[n] for n, p in zip(rec.name_id, rec.parent) if p >= 0 and rec.name_id[p] == step
        )
        assert names.count("core.step_factored") == steps
        for name in ("core.check_schema", "envs.f_b", "envs.f_e"):
            assert in_steps[name] == steps
        return
    steps = quick_cfg.run.train_steps + quick_cfg.run.eval_steps
    assert names.count("core.step_factored") == steps
    assert names.count("envs.f_b") == steps
    assert names.count("envs.f_i") == steps
    assert names.count("envs.f_e") == steps
    # A learner keys every state it steps from through the traced name.
    assert quick_cfg.agent.kind == "HomeostaticQ"
    assert names.count("agents.Discretizer.key") >= steps


@pytest.mark.parametrize("kind", ["HomeostaticQ", "Neuromod"])
def test_tracer_sees_every_logged_drive_of_a_drive_learner(kind, monkeypatch):
    # The runner computes the drive of the steps it logs through the name
    # the tracer wraps as `homeostat.drive`.
    doc = quick_config_doc(seeds=[0])
    doc["agent"]["kind"] = kind
    cfg = config.parse_config(doc)
    drives = [0]
    drive = runner.drive

    def counted_drive(dm, h):
        drives[0] += 1
        return drive(dm, h)

    monkeypatch.setattr(runner, "drive", counted_drive)
    bench_trace = _load_bench_trace()
    rec = bench_trace.SpanRecorder()
    uninstall = bench_trace.install(rec)
    try:
        runner.execute_run(cfg, 0)
    finally:
        uninstall()
    names = [rec.names[i] for i in rec.name_id]
    assert drives[0] > 0
    assert names.count("homeostat.drive") == drives[0]
