"""One benchmark process: builds inputs, sets up, runs a workload, checks it.

`run.py` starts this file in a fresh interpreter for every measurement, so
each process's start-up cost and peak memory belong to one measurement.
The process prints ``ready`` once set-up is done, and a final line
``result <json>`` when it ends.

Modes:
  prepare  write the workload's config files from ``default_config()``
  setup    set up and exit (timed from outside by ``run.py``)
  timed    set up, then repeat the workload for ``--seconds`` seconds
  traced   set up with every layer wrapped in spans, run the workload once
  record   prepare, run the workload once at the default seed and store
           its artifact digests in golden.json.  Only for a change that is
           meant to alter the artifacts:

    python3 bench/bench_worker.py --mode record --workload W --seed 0 --work .bench_run/golden
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"

import bench_lib  # noqa: E402  (sits next to this file)
from bench_lib import DEFAULT_SEED, WORKLOADS  # noqa: E402


def import_program():
    """Import interoai from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import interoai

    if Path(interoai.__file__).resolve().parent != src / "interoai":
        raise ImportError(f"interoai imported from {interoai.__file__}, not from {src}")
    return interoai


def config_labels(workload: str) -> tuple[str, ...]:
    return WORKLOADS[workload] or ("blanket",)


def prepare(work: Path, workload: str, seed: int) -> dict:
    interoai = import_program()
    import numpy
    from interoai.harness.config import default_config

    hashes = {}
    for label in config_labels(workload):
        doc = copy.deepcopy(default_config())
        if label == "blanket":
            doc["blanket"]["seed"] = seed
        else:
            doc["agent"]["kind"] = label
            doc["run"]["seeds"] = [seed]
        path = work / "configs" / f"{label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        hashes[label] = bench_lib.sha256_file(path)
    return {
        "config_sha256": hashes,
        "interoai_version": interoai.__version__,
        "numpy_version": numpy.__version__,
    }


class Workload:
    """A workload's loaded configs and one repetition of its operation."""

    def __init__(self, work: Path, name: str, seed: int):
        import_program()
        from interoai.envs import transition_maps
        from interoai.harness import cli, config, runner

        self.cli, self.runner = cli, runner
        self.name, self.seed = name, seed
        self.out = work / "out"
        self.configs = {
            label: config.load_config(work / "configs" / f"{label}.json")
            for label in config_labels(name)
        }
        for cfg in self.configs.values():
            transition_maps(cfg.blanket.env if name == "verify-blanket" else cfg.env)
        self.seeds = [seed] if name == "verify-blanket" else sorted(cfg.run.seeds)

    def steps(self) -> int:
        """Simulated env transitions in one repetition."""
        if self.name == "verify-blanket":
            return 2 * self.configs["blanket"].blanket.steps
        return len(self.seeds) * sum(c.run.train_steps + c.run.eval_steps for c in self.configs.values())

    def attempted(self) -> int:
        return len(self.configs) * len(self.seeds)

    def repeat(self, golden: dict | None) -> dict:
        """Run the operation once, timed, then check what it wrote."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        errors: dict[str, str] = {}
        reports: dict[str, tuple[int, str]] = {}
        t0 = perf_counter()
        for label, cfg in self.configs.items():
            try:
                if label == "blanket":
                    self.runner.verify_blanket(cfg, str(self.out))
                else:
                    directory = self.out / label
                    self.runner.sweep(cfg, str(directory), jobs=1)
                    text = io.StringIO()
                    with contextlib.redirect_stdout(text):
                        code = self.cli.main(["report", "--in", str(directory)])
                    reports[label] = (code, text.getvalue())
            except Exception:  # an op that raises is a failed op; keep measuring
                errors[label] = traceback.format_exc()
        wall = perf_counter() - t0
        reasons = self.check(golden, errors, reports)
        return {"wall_s": wall, "failed": len(reasons), "reasons": reasons}

    def check(self, golden: dict | None, errors: dict, reports: dict) -> dict[str, list[str]]:
        """Failed ops keyed ``<label>/<seed>``, each with its reasons."""
        failed: dict[str, list[str]] = {}
        for label in self.configs:
            if label in errors:
                for seed in self.seeds:
                    failed[f"{label}/{seed}"] = [errors[label]]
                continue
            if label == "blanket":
                reasons = bench_lib.blanket_violations(self.out / "blanket.json")
                if golden is not None:
                    reasons += [f"{n}: digest mismatch" for n in bench_lib.digest_mismatches(self.out, golden)]
                if reasons:
                    failed[f"{label}/{self.seed}"] = reasons
                continue
            per_seed = bench_lib.failed_sweep_seeds(self.out / label, self.seeds, golden, f"{label}/")
            code, text = reports[label]
            expected = f"{len(self.seeds)} logs, mean drive across seeds: "
            if code != 0 or not text.rstrip("\n").split("\n")[-1].startswith(expected):
                for seed in self.seeds:
                    per_seed.setdefault(seed, []).append(f"report exited {code}: {text[-200:]!r}")
            for seed, reasons in per_seed.items():
                failed[f"{label}/{seed}"] = reasons
        return failed


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"][workload]["artifacts"]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(wl: Workload, seconds: float) -> dict:
    golden = load_golden(wl.name, wl.seed)
    reps = []
    begin = perf_counter()
    while True:
        reps.append(wl.repeat(golden))
        # Start another repetition only if a typical one still ends in time.
        elapsed = perf_counter() - begin
        if elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            break
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "steps": wl.steps(),
        "attempted": wl.attempted() * len(reps),
        "failed": sum(r["failed"] for r in reps),
        "reasons": [r["reasons"] for r in reps if r["reasons"]],
        "peak_rss_mib": peak_rss_mib(),
    }


def traced(wl: Workload, rec, work: Path) -> dict:
    import numpy as np
    from bench_trace import COUNTS, TRACED

    first = len(rec.start)
    rep = wl.repeat(load_golden(wl.name, wl.seed))
    calls, self_ns, root_ns = bench_lib.self_times(
        rec.name_id, rec.start, rec.end, rec.parent, len(rec.names)
    )
    rec.write(work / "spans.npz")
    errors = []
    if int(self_ns.sum()) != root_ns:
        errors.append(f"self times add up to {int(self_ns.sum())} ns, root spans to {root_ns} ns")
    # Root spans of the repetition alone; set-up spans (config loading) precede it.
    rep_dur = np.frombuffer(rec.end, dtype=np.int64)[first:] - np.frombuffer(rec.start, dtype=np.int64)[first:]
    rep_root_ns = int(rep_dur[np.frombuffer(rec.parent, dtype=np.int32)[first:] < 0].sum())

    by_name = {name: (int(calls[i]), int(self_ns[i])) for i, name in enumerate(rec.names)}
    metrics: dict[str, float] = {}
    layer_ns = dict.fromkeys(bench_lib.LAYERS, 0)
    for name in TRACED:
        n, ns = by_name.get(name, (0, 0))
        metrics[f"{name}.calls"] = n
        metrics[f"{name}.self_s"] = ns / 1e9
        layer_ns[bench_lib.layer_of(name)] += ns
    for layer, ns in layer_ns.items():
        metrics[f"{layer}.self_s"] = ns / 1e9
    steps = metrics["core.step_factored.calls"]
    metrics["env.steps"] = steps
    for name in COUNTS:
        metrics[name] = rec.counts.get(name, 0)
    for name in ("agents.Discretizer.key", "homeostat.drive", "core.check_schema"):
        metrics[f"{name}.per_step"] = metrics[f"{name}.calls"] / steps
    metrics["trace.wall_s"] = rep["wall_s"]
    metrics["trace.self_sum_s"] = rep_root_ns / 1e9
    metrics["trace.unattributed_s"] = rep["wall_s"] - rep_root_ns / 1e9
    metrics["trace.spans"] = len(rec.start)
    if steps != wl.steps():
        errors.append(f"env.steps {steps} != stated {wl.steps()}")
    return {
        "metrics": metrics,
        "latency": latency_summaries(rec),
        "attempted": wl.attempted(),
        "failed": rep["failed"],
        "reasons": [rep["reasons"]] if rep["reasons"] else [],
        "errors": errors,
    }


def latency_summaries(rec) -> dict[str, dict]:
    """Per-call duration of each traced callable, by the percentile rule."""
    import numpy as np

    names = np.frombuffer(rec.name_id, dtype=np.uint16)
    dur = np.frombuffer(rec.end, dtype=np.int64) - np.frombuffer(rec.start, dtype=np.int64)
    return {
        name: bench_lib.percentile_rule(dur[names == i] / 1e3)
        for i, name in enumerate(rec.names)
        if np.any(names == i)
    }


def record(wl: Workload) -> dict:
    rep = wl.repeat(None)
    if rep["reasons"]:
        raise RuntimeError(f"refusing to record failing artifacts: {rep['reasons']}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden.setdefault("seed", DEFAULT_SEED)
    entry = golden.setdefault("workloads", {}).setdefault(wl.name, {})
    entry["config_sha256"] = {
        label: bench_lib.sha256_file(wl.out.parent / "configs" / f"{label}.json")
        for label in wl.configs
    }
    entry["artifacts"] = bench_lib.artifact_digests(wl.out)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True, choices=("prepare", "setup", "timed", "traced", "record"))
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "record" and args.seed != DEFAULT_SEED:
        parser.error(f"golden digests are recorded at seed {DEFAULT_SEED}")

    if args.mode == "prepare":
        result = prepare(args.work, args.workload, args.seed)
    else:
        rec = None
        if args.mode == "record":
            prepare(args.work, args.workload, args.seed)
        if args.mode == "traced":
            import_program()
            from bench_trace import SpanRecorder, install

            rec = SpanRecorder()
            install(rec)
        wl = Workload(args.work, args.workload, args.seed)
        print("ready", flush=True)
        if args.mode == "setup":
            return
        if args.mode == "timed":
            result = timed(wl, args.seconds)
        elif args.mode == "traced":
            result = traced(wl, rec, args.work)
        else:
            result = record(wl)
    print("result " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
