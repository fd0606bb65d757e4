"""Span tracing for the benchmark's traced run.

Each layer's public callable is replaced, in the namespace where its caller
looks it up, by a wrapper that records one span per call: name, start, end,
parent span and op id.  Spans stay in flat arrays in memory and are written
out once the run ends.  Nothing inside the package is edited; the wrappers
return what the callable returned, so a traced run must reproduce the same
artifact bytes as an untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np


class SpanRecorder:
    """In-memory spans plus the counters gathered at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("I")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._op = [0]
        self._ops_started = 0

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        new_op: bool = False,
        observe: Callable[["SpanRecorder", object], None] | None = None,
    ) -> Callable:
        """Return `fn` wrapped in a span named `name`.

        With `new_op` every call starts an operation of its own (one seed run
        or one verifier call); spans below it carry its id.  `observe` sees
        the result after the span has closed.
        """
        nid = self.name_index(name)
        names, starts, ends = self.name_id, self.start, self.end
        parents, ops, stack, op_stack = self.parent, self.op, self._stack, self._op

        def span(*args, **kwargs):
            i = len(starts)
            if new_op:
                self._ops_started += 1
                op_stack.append(self._ops_started)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op_stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
                if new_op:
                    op_stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return functools.wraps(fn)(span)

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.uint32),
        )


def _qtable_entries(rec: SpanRecorder, result) -> None:
    tables = getattr(result.agent, "tables", {})
    rec.add_count("agents.qtable_entries", sum(len(t.values) for t in tables.values()))


def _joint_keys(rec: SpanRecorder, dataset) -> None:
    rec.add_count("blanket.joint_keys", len(dataset.counts))


def _export_bytes(rec: SpanRecorder, path) -> None:
    rec.add_count("harness.export.bytes", Path(path).stat().st_size)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced callable; returns a function that undoes it."""
    from interoai import agents, blanket, core, envs
    from interoai.harness import cli, config, runner

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **options) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, **options))

    def traced_maps(original):
        @functools.wraps(original)
        def transition_maps(env):
            model = original(env)
            leak = model.internal_leak
            return dataclasses.replace(
                model,
                f_b=rec.wrap("envs.f_b", model.f_b),
                f_i=rec.wrap("envs.f_i", model.f_i),
                f_e=rec.wrap("envs.f_e", model.f_e),
                internal_leak=None if leak is None else rec.wrap("envs.f_i_leak", leak),
            )

        return transition_maps

    for owner in (runner, blanket):
        original = owner.transition_maps
        undo.append((owner, "transition_maps", original))
        owner.transition_maps = traced_maps(original)
        patch(owner, "step_factored", "core.step_factored")
        patch(owner, "reset", "envs.reset")
        patch(owner, "respawn", "envs.respawn")
        patch(owner, "in_viability", "homeostat.in_viability")
    patch(core, "check_schema", "core.check_schema")
    patch(envs.SurvivalTracker, "update", "envs.SurvivalTracker.update")

    for owner in (runner, agents):
        patch(owner, "drive", "homeostat.drive")
    patch(agents, "dominant_deficit", "homeostat.dominant_deficit")

    for cls in (agents.TabularQAgent, agents.RandomAgent):
        patch(cls, "act", "agents.act")
        patch(cls, "learn", "agents.learn")
    patch(agents.Discretizer, "key", "agents.Discretizer.key")
    patch(agents.Discretizer, "external_features", "agents.Discretizer.external_features")
    for attr in ("q_select", "q_update", "modulate"):
        patch(agents, attr, f"agents.{attr}")

    patch(runner, "collect_transitions", "blanket.collect_transitions", observe=_joint_keys)
    patch(runner, "conditional_mi", "blanket.conditional_mi")
    patch(runner, "jacobian_sparsity", "blanket.jacobian_sparsity")
    patch(blanket, "cmi_from_counts", "blanket.cmi_from_counts")

    patch(runner, "execute_run", "harness.runner.execute_run", new_op=True, observe=_qtable_entries)
    patch(runner, "probe_entropies", "harness.runner.probe_entropies")
    patch(runner, "sweep", "harness.runner.sweep")
    patch(runner, "verify_blanket", "harness.runner.verify_blanket", new_op=True)
    patch(runner, "build_metrics_row", "harness.metrics.build_metrics_row")
    patch(runner, "export", "harness.export.export", observe=_export_bytes)
    patch(cli, "read_log_csv", "harness.export.read_log_csv")
    patch(cli, "main", "harness.cli.main")
    patch(config, "load_config", "harness.config.load_config")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# Every callable `install` wraps, in a fixed order for reporting.
TRACED = (
    "core.step_factored",
    "core.check_schema",
    "envs.f_b",
    "envs.f_i",
    "envs.f_i_leak",
    "envs.f_e",
    "envs.reset",
    "envs.respawn",
    "envs.SurvivalTracker.update",
    "homeostat.drive",
    "homeostat.in_viability",
    "homeostat.dominant_deficit",
    "agents.act",
    "agents.learn",
    "agents.Discretizer.key",
    "agents.Discretizer.external_features",
    "agents.q_select",
    "agents.q_update",
    "agents.modulate",
    "blanket.collect_transitions",
    "blanket.cmi_from_counts",
    "blanket.conditional_mi",
    "blanket.jacobian_sparsity",
    "harness.runner.execute_run",
    "harness.runner.probe_entropies",
    "harness.runner.sweep",
    "harness.runner.verify_blanket",
    "harness.metrics.build_metrics_row",
    "harness.export.export",
    "harness.export.read_log_csv",
    "harness.config.load_config",
    "harness.cli.main",
)

COUNTS = ("agents.qtable_entries", "blanket.joint_keys", "harness.export.bytes")
