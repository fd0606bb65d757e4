"""The benchmark's own arithmetic and output checks.

Nothing here imports interoai: the checks read artifacts from disk, so
they judge the program's output independently of the code that wrote it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Agent kinds swept by each sweep workload; verify-blanket sweeps none.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "learners-sweep": ("HomeostaticQ", "Neuromod"),
    "baselines-sweep": ("Random", "ExternalRewardQ"),
    "verify-blanket": (),
}

# The workload seed whose artifacts are pinned by sha256 in golden.json.
DEFAULT_SEED = 0

# Layers are the package modules; a callable belongs to the longest prefix.
LAYERS = (
    "core",
    "envs",
    "homeostat",
    "agents",
    "blanket",
    "harness.runner",
    "harness.metrics",
    "harness.export",
    "harness.config",
    "harness.cli",
)

# Percentiles tried, lowest first, by the reporting rule in `percentile_rule`.
PERCENTILES = (90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10

TELESCOPING_TOL = 1e-9


def layer_of(name: str) -> str:
    matches = [layer for layer in LAYERS if name.startswith(layer + ".")]
    if not matches:
        raise ValueError(f"{name!r} belongs to no layer")
    return max(matches, key=len)


# -- statistics -------------------------------------------------------------


def percentile_rule(values: Sequence[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    The p-th percentile is the nearest-rank value: the ceil(p/100 * n)-th
    smallest sample.  Samples beyond it are those ranked after it, so
    n - ceil(p/100 * n) of them.  `p` is None when no percentile qualifies
    (fewer than 100 samples).
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "median": float(np.median(ordered)), "p": None, "value": None, "beyond": None}
    for p in PERCENTILES:
        rank = max(math.ceil(Fraction(str(p)) * n / 100), 1)
        if n - rank >= MIN_BEYOND:
            out.update(p=p, value=float(ordered[rank - 1]), beyond=n - rank)
    return out


def failed_fraction(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


# -- spans ------------------------------------------------------------------


def self_times(
    name_id: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    parent: Sequence[int],
    n_names: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-name call counts and self time, and the total root-span time.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread never overlap, so that is the part of its
    interval no child covers.  `parent` is the index of the enclosing span,
    or -1 for a root.  Times are integers (nanoseconds), so the sums are
    exact and the self times of all spans add up to the root-span total.
    """
    names = np.asarray(name_id)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parents = np.asarray(parent)
    if np.any(dur < 0):
        raise ValueError("a span ends before it starts")
    nested = parents >= 0
    child_ns = np.zeros(len(dur), dtype=np.int64)
    np.add.at(child_ns, parents[nested], dur[nested])
    own = dur - child_ns
    calls = np.bincount(names, minlength=n_names)
    self_ns = np.zeros(n_names, dtype=np.int64)
    np.add.at(self_ns, names, own)
    return calls, self_ns, int(dur[~nested].sum())


# -- artifact checks --------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under `out_dir`, keyed by its relative path."""
    out_dir = Path(out_dir)
    return {
        p.relative_to(out_dir).as_posix(): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def digest_mismatches(out_dir: Path, golden: Mapping[str, str]) -> list[str]:
    """Relative paths whose bytes differ from `golden`, or that are missing or extra."""
    found = artifact_digests(out_dir)
    bad = [name for name, digest in golden.items() if found.get(name) != digest]
    bad += [name for name in found if name not in golden]
    return sorted(bad)


def telescoping_violations(log_path: Path) -> list[str]:
    """Episodes of a run log whose rewards do not telescope.

    Every episode that begins inside the log began with a respawn, whose
    body sits at the set point (drive exactly 0), so its rewards sum to
    minus the drive of its last row.  The first episode may have begun
    before the recorded window and is skipped.
    """
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    episodes: dict[int, list[dict]] = {}
    for row in rows:
        episodes.setdefault(int(row["episode"]), []).append(row)
    bad = []
    for number, ep in list(episodes.items())[1:]:
        total = math.fsum(float(r["reward"]) for r in ep)
        expected = -float(ep[-1]["drive"])
        if not abs(total - expected) <= TELESCOPING_TOL:
            bad.append(f"{log_path.name} episode {number}: sum {total!r} != {expected!r}")
    return bad


def metrics_violations(metrics_path: Path, seeds: Iterable[int]) -> list[str]:
    """A metrics table must hold one row per seed, in order, then mean/sd/median."""
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        labels = [row[0] for row in csv.reader(fh)][1:]
    expected = [str(s) for s in sorted(seeds)] + ["mean", "sd", "median"]
    if labels != expected:
        return [f"{metrics_path.name}: rows {labels} != {expected}"]
    return []


def blanket_violations(blanket_path: Path) -> list[str]:
    """The verifier must pass with an exactly zero factored CMI and Jacobian."""
    report = json.loads(Path(blanket_path).read_text(encoding="utf-8"))
    bad = []
    if report.get("passed") is not True:
        bad.append("blanket.json: passed is not true")
    if report["factored"]["cmi_nats"] != 0.0:
        bad.append(f"blanket.json: factored cmi_nats {report['factored']['cmi_nats']!r} != 0")
    if report["factored_jacobian_max"] != [0.0, 0.0]:
        bad.append(f"blanket.json: factored Jacobian maxima {report['factored_jacobian_max']}")
    return bad


def failed_sweep_seeds(
    out_dir: Path, seeds: Sequence[int], golden: Mapping[str, str] | None, prefix: str = ""
) -> dict[int, list[str]]:
    """Check one sweep's artifacts; returns the failing seeds with reasons.

    Each seed run is one operation and owns its log.  The metrics table is
    shared, so a fault there fails every seed of the sweep.  With `golden`
    given, bytes must match it (keys carry `prefix`); the invariants are
    checked either way.
    """
    out_dir = Path(out_dir)
    failures: dict[int, list[str]] = {}
    shared: list[str] = []
    metrics = out_dir / "metrics.csv"
    if metrics.is_file():
        shared += metrics_violations(metrics, seeds)
    else:
        shared.append("metrics.csv missing")
    for seed in seeds:
        log = out_dir / f"log_seed{seed}.csv"
        reasons = telescoping_violations(log) if log.is_file() else [f"{log.name} missing"]
        if reasons:
            failures[seed] = reasons
    if golden is not None:
        local = {k[len(prefix):]: v for k, v in golden.items() if k.startswith(prefix)}
        for name in digest_mismatches(out_dir, local):
            reason = f"{prefix}{name}: digest mismatch"
            stem = Path(name).stem
            if stem.startswith("log_seed") and stem[8:].isdigit() and int(stem[8:]) in seeds:
                failures.setdefault(int(stem[8:]), []).append(reason)
            else:
                shared.append(reason)
    if shared:
        for seed in seeds:
            failures.setdefault(seed, []).extend(shared)
    return failures
