"""interoai benchmark: sweep and verifier throughput, gated on golden artifacts.

    python3 bench/run.py --workload learners-sweep --seed 0 --seconds 30 --trace 0

Workloads (all serial, built from ``default_config()``; the workload seed
is the sweep's one seed, or the verifier's seed):

  learners-sweep   sweep of HomeostaticQ and Neuromod, 150k train + 4k eval
  baselines-sweep  sweep of Random and ExternalRewardQ on the same world
  verify-blanket   verify_blanket: 100k steps on the factored and coupled env

Every measurement runs in a fresh interpreter (bench_worker.py).  A run
first times several set-ups, then repeats the workload for ``--seconds``
seconds; each repetition is one sweep per agent kind plus its ``report``
read, or one ``verify_blanket`` call.  An op is one seed run or one verifier
call.  It fails on an exception, on an artifact whose sha256 differs from
golden.json (at the default seed 0), or on a broken invariant (any seed):
reward telescoping per episode in each log, and an exactly factored
``blanket.json``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of one further repetition
with every layer wrapped in spans.  Spans are written to
``.bench_run/<workload>/spans.npz``, the full result to ``result.json``
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "bench_worker.py"

sys.path.insert(0, str(BENCH_DIR))
import bench_lib  # noqa: E402

SETUP_SAMPLES = 5
# Every child must end by then, so the whole run ends within 180 s.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, mode: str, work: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns seconds from spawn to ``ready`` and its result."""
    cmd = [
        sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready_s = None
        if mode != "prepare":
            if not select.select([proc.stdout], [], [], max(deadline - monotonic(), 0.0))[0]:
                raise BenchError(f"{mode} worker not ready in time")
            line = proc.stdout.readline()
            ready_s = perf_counter() - t0
            if line != "ready\n":
                raise BenchError(f"{mode} worker failed during set-up")
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.splitlines()
    result = json.loads(lines[-1][len("result "):]) if lines and lines[-1].startswith("result ") else None
    if mode != "setup" and result is None:
        raise BenchError(f"{mode} worker printed no result")
    return ready_s, result


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def workload_why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), None)


def provenance(args: argparse.Namespace, prepared: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "program_numpy": prepared["numpy_version"],
        "interoai": prepared["interoai_version"],
        "config_sha256": prepared["config_sha256"],
    }


def describe(label: str, summary: dict, unit: str) -> str:
    text = f"{label}: median {summary['median']:.6g} {unit} over n={summary['n']}"
    if summary["p"] is None:
        return text + " (too few samples for a percentile beyond the median)"
    return text + f", p{summary['p']:g} {summary['value']:.6g} {unit} ({summary['beyond']} beyond)"


def run(args: argparse.Namespace) -> dict:
    deadline = monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "interoai" / "__init__.py").is_file():
        raise BenchError(f"no interoai sources under {ROOT / 'src'}")
    work = ROOT / ".bench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    _, prepared = spawn(args, "prepare", work, deadline)
    spawn(args, "setup", work, deadline)  # warm-up: bytecode caches, file cache
    setup_samples = [spawn(args, "setup", work, deadline)[0] for _ in range(SETUP_SAMPLES)]
    _, timed = spawn(args, "timed", work, deadline)
    attempted, failed = timed["attempted"], timed["failed"]
    reasons, errors = list(timed["reasons"]), []

    wall = statistics.median(timed["wall_s"])
    print(describe("setup_s", bench_lib.percentile_rule(setup_samples), "s"))
    print(describe("wall_s", bench_lib.percentile_rule(timed["wall_s"]), "s"))
    metrics = {
        "wall_s": (wall, "s"),
        "steps_per_s": (timed["steps"] / wall, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mib": (timed["peak_rss_mib"], "MiB"),
    }

    traced = None
    if args.trace:
        _, traced = spawn(args, "traced", work, deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        reasons += traced["reasons"]
        errors += traced["errors"]
        layer = traced["metrics"]
        layer["trace.untraced_wall_s"] = wall
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall
        for name, summary in traced["latency"].items():
            print(describe(f"{name} per call", summary, "us"))
        metrics = {name: (value, per_layer_unit(name)) for name, value in layer.items()}

    failed_frac = bench_lib.failed_fraction(attempted, failed)
    if not args.trace:
        metrics["ops_ok_frac"] = (1.0 - failed_frac, "frac")
    print(f"ops: {attempted} attempted, {failed} failed, ops_failed_frac {failed_frac:.6g}")
    for reason in reasons:
        print(f"failed ops: {json.dumps(reason)[:2000]}", file=sys.stderr)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = {
        "provenance": provenance(args, prepared),
        "setup_s_samples": setup_samples,
        "wall_s_samples": timed["wall_s"],
        "ops_failed_frac": failed_frac,
        "failures": reasons,
        "errors": errors,
        "latency_us": traced["latency"] if traced else None,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(full["provenance"]))
    return result


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".per_step"):
        return "calls/step"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(bench_lib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
