"""Tests for the benchmark's own arithmetic and checks (no simulation runs)."""

from __future__ import annotations

import pytest

import bench_lib
import bench_trace

LOG_HEADER = (
    "t,episode,row,col,season,tag,energy,hydration,core_temp,action,reward,"
    "drive,in_viability,tau,context_id"
)


def test_self_time_nested_and_sibling_children():
    #   0 root [0, 100)
    #   ├─ 1 a [10, 30)        nested child 3 c [15, 20)
    #   └─ 2 b [40, 70)        sibling of a
    #   4 second root [200, 210)
    name_id = [0, 1, 2, 3, 0]
    start = [0, 10, 40, 15, 200]
    end = [100, 30, 70, 20, 210]
    parent = [-1, 0, 0, 1, -1]
    calls, self_ns, root_ns = bench_lib.self_times(name_id, start, end, parent, 5)
    assert calls.tolist() == [2, 1, 1, 1, 0]
    # root: 100 - 20 - 30 = 50, plus the second root's 10
    assert self_ns.tolist() == [60, 15, 30, 5, 0]
    assert root_ns == 110 == self_ns.sum()


def test_self_time_rejects_negative_span():
    with pytest.raises(ValueError):
        bench_lib.self_times([0], [5], [4], [-1], 1)


def test_recorder_spans_parents_and_ops(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(bench_trace, "perf_counter_ns", lambda: next(ticks))
    rec = bench_trace.SpanRecorder()
    leaf = rec.wrap("core.check_schema", lambda x: x + 1)
    mid = rec.wrap("core.step_factored", lambda x: leaf(x) + leaf(x))
    op = rec.wrap("harness.runner.execute_run", lambda x: mid(x), new_op=True)
    assert op(1) == 4
    assert op(2) == 6
    assert rec.names == ["core.check_schema", "core.step_factored", "harness.runner.execute_run"]
    assert list(rec.parent[:4]) == [-1, 0, 1, 1]
    assert list(rec.op) == [1, 1, 1, 1, 2, 2, 2, 2]
    calls, self_ns, root_ns = bench_lib.self_times(
        rec.name_id, rec.start, rec.end, rec.parent, len(rec.names)
    )
    assert calls.tolist() == [4, 2, 2]
    # Each tick is 10 ns: a leaf spans one tick, step_factored spans 5 ticks
    # around two leaves, execute_run spans 7 ticks around one step.
    assert self_ns.tolist() == [40, 60, 40]
    assert root_ns == 140


def test_percentile_rule_picks_highest_with_ten_beyond():
    s = bench_lib.percentile_rule(list(range(1, 1001)))
    assert (s["n"], s["median"], s["p"], s["value"], s["beyond"]) == (1000, 500.5, 99.0, 990.0, 10)

    s = bench_lib.percentile_rule(list(range(999, 0, -1)))  # order must not matter
    assert (s["n"], s["median"], s["p"], s["value"], s["beyond"]) == (999, 500.0, 90.0, 900.0, 99)

    s = bench_lib.percentile_rule(list(range(100)))
    assert (s["p"], s["beyond"]) == (90.0, 10)

    s = bench_lib.percentile_rule([3.0, 1.0, 2.0])
    assert (s["n"], s["median"], s["p"], s["value"]) == (3, 2.0, None, None)


def _write_sweep(directory, seeds):
    directory.mkdir(parents=True)
    for seed in seeds:
        rows = [
            "1000,0,3,3,0,Shade,0.6,0.6,37.0,Rest,0.1,0.4,1,,",
            "1001,1,3,3,0,Shade,0.5,0.6,37.0,Rest,-0.5,0.5,1,,",
            "1002,1,3,2,0,Food,0.6,0.6,37.0,Consume,0.3,0.2,1,,",
        ]
        (directory / f"log_seed{seed}.csv").write_text("\n".join([LOG_HEADER] + rows) + "\n")
    lines = ["seed,survival_steps"] + [f"{s},1" for s in seeds] + ["mean,1", "sd,0", "median,1"]
    (directory / "metrics.csv").write_text("\n".join(lines) + "\n")


def test_ops_failed_frac_with_one_corrupted_digest(tmp_path):
    _write_sweep(tmp_path / "Random", [4, 5])
    golden = {f"Random/{k}": v for k, v in bench_lib.artifact_digests(tmp_path / "Random").items()}
    assert bench_lib.failed_sweep_seeds(tmp_path / "Random", [4, 5], golden, "Random/") == {}

    corrupted = dict(golden, **{"Random/log_seed5.csv": "0" * 64})
    failures = bench_lib.failed_sweep_seeds(tmp_path / "Random", [4, 5], corrupted, "Random/")
    assert list(failures) == [5]
    assert bench_lib.failed_fraction(attempted=2, failed=len(failures)) == 0.5

    # The metrics table is shared, so a bad digest there fails every seed.
    corrupted = dict(golden, **{"Random/metrics.csv": "0" * 64})
    failures = bench_lib.failed_sweep_seeds(tmp_path / "Random", [4, 5], corrupted, "Random/")
    assert sorted(failures) == [4, 5]
    assert bench_lib.failed_fraction(attempted=2, failed=len(failures)) == 1.0


def test_failed_fraction_rejects_impossible_counts():
    assert bench_lib.failed_fraction(4, 0) == 0.0
    with pytest.raises(ValueError):
        bench_lib.failed_fraction(0, 0)
    with pytest.raises(ValueError):
        bench_lib.failed_fraction(2, 3)


def test_telescoping_check_skips_first_episode_and_flags_a_broken_one(tmp_path):
    _write_sweep(tmp_path / "s", [0])
    log = tmp_path / "s" / "log_seed0.csv"
    assert bench_lib.telescoping_violations(log) == []
    log.write_text(log.read_text().replace("Consume,0.3,0.2", "Consume,0.3,0.25"))
    assert len(bench_lib.telescoping_violations(log)) == 1


def test_blanket_check(tmp_path):
    path = tmp_path / "blanket.json"
    ok = '{"passed": true, "factored": {"cmi_nats": 0.0}, "factored_jacobian_max": [0.0, 0.0]}'
    path.write_text(ok)
    assert bench_lib.blanket_violations(path) == []
    path.write_text(ok.replace('"cmi_nats": 0.0', '"cmi_nats": 1e-12'))
    assert len(bench_lib.blanket_violations(path)) == 1


def test_every_traced_callable_belongs_to_a_layer():
    assert len(set(bench_trace.TRACED)) == len(bench_trace.TRACED)
    assert {bench_lib.layer_of(name) for name in bench_trace.TRACED} == set(bench_lib.LAYERS)
