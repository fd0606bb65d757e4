"""Command-line interface.

Subcommands: run, sweep, verify-blanket, report.  Exit codes: 0 success,
1 configuration error, 2 runtime failure, 3 blanket verification failed.
Verbosity follows the IAI_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from statistics import mean, median

from ..errors import ConfigError, RuntimeFailure
from . import config
from .export import export, format_value, read_log_csv
from .metrics import log_metrics
from .runner import run, sweep, verify_blanket

log = logging.getLogger("interoai")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_BLANKET = 3


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("IAI_LOG", "error").lower(), logging.ERROR
    )
    # basicConfig gives the standalone CLI its handler but does nothing once the
    # root logger has one, so the level is set on the package's own logger.
    logging.basicConfig(level=level, format="[%(levelname)s] %(name)s: %(message)s")
    log.setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interoai", description="Homeostatic gridworld experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and evaluate a single seed")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="one run per configured seed")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify-blanket", help="CI estimate and Jacobian block check")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="summarize a results directory")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--plots", action="store_true")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config.load_config(args.config)
    episode_log = run(cfg, args.seed, args.out).log
    print(
        f"run seed={args.seed}: {len(episode_log.steps)} steps recorded, "
        f"terminal={episode_log.terminal}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = config.load_config(args.config)
    table = sweep(cfg, args.out, jobs=args.jobs)
    vf = [r.viability_fraction for r in table.rows]
    print(f"sweep: {len(table.rows)} seeds, median viability_fraction={median(vf):.4f}")
    print(f"metrics written to {Path(args.out) / 'metrics.csv'}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = config.load_config(args.config)
    report = verify_blanket(cfg, args.out)
    print(
        f"factored: cmi={report.factored.cmi_nats:.6g} nats "
        f"({report.factored.verdict.value}), jacobian max={report.factored_jacobian_max}"
    )
    print(
        f"coupled(lambda={report.lam}): cmi={report.coupled.cmi_nats:.6g} nats "
        f"({report.coupled.verdict.value}), jacobian max={report.coupled_jacobian_max}"
    )
    print(f"gap ratio: {report.gap_ratio:.6g}")
    if not report.passed:
        print("blanket verification FAILED", file=sys.stderr)
        return EXIT_BLANKET
    print("blanket verification passed")
    return EXIT_OK


def _seed_rows(metrics_path: Path, text: str) -> dict[str, dict[str, str]]:
    """The per-seed rows of a metrics table: each row's cells by column, keyed
    by its seed cell.  The summary rows carry a label, not a seed, under `seed`.
    A sweep writes one row per seed, so a seed with two rows raises RuntimeFailure."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0].isdecimal():
            if cells[0] in rows:
                raise RuntimeFailure(f"{metrics_path} holds two rows for seed {cells[0]}")
            rows[cells[0]] = dict(zip(header, cells))
    return rows


def _check_logs_match_rows(metrics_path: Path, rows: dict, logs: list[Path]) -> None:
    """Raise RuntimeFailure unless the logs are exactly one per seed row.

    A sweep writes one log per seed and then the metrics table, so a log with
    no row, or a row with no log, was left by another run or sweep.
    """
    log_seeds = {path.name: path.stem.removeprefix("log_seed") for path in logs}
    stray = [name for name, seed in log_seeds.items() if seed not in rows]
    missing = sorted(set(rows).difference(log_seeds.values()), key=int)
    problems = []
    if stray:
        problems.append(f"logs with no row: {', '.join(stray)}")
    if missing:
        problems.append(f"rows with no log: seed {', '.join(missing)}")
    if problems:
        raise RuntimeFailure(f"{metrics_path} does not match its logs; {'; '.join(problems)}")


def _cmd_report(args: argparse.Namespace) -> int:
    """Check every log against its metrics row, then print the table and the drive summary.

    A log whose recomputed `log_metrics` columns differ from its row (a log cut
    short, or rewritten since the sweep) fails the report before anything is printed.
    """
    directory = Path(args.in_dir)
    if not directory.is_dir():
        raise RuntimeFailure(f"no results directory {directory}")
    metrics_path = directory / "metrics.csv"
    logs = sorted(directory.glob("log_seed*.csv"))
    text = metrics_path.read_text(encoding="utf-8") if metrics_path.exists() else None
    rows = None if text is None else _seed_rows(metrics_path, text)
    if rows is not None:
        _check_logs_match_rows(metrics_path, rows, logs)
    drives, plotted = [], []
    for path in logs:
        try:
            episode_log = read_log_csv(path)
        except ValueError as exc:
            raise RuntimeFailure(f"malformed log {path}: {exc}") from exc
        values = log_metrics(episode_log.steps)
        if rows is not None:
            row = rows[path.stem.removeprefix("log_seed")]
            wrong = [name for name, value in values.items() if format_value(value) != row.get(name)]
            if wrong:
                raise RuntimeFailure(f"{path} disagrees with its row in {metrics_path}: {', '.join(wrong)}")
        if episode_log.steps:
            drives.append(values["mean_drive"])
        if args.plots:
            plotted.append((path, episode_log))
    print(text.rstrip("\n") if text is not None else f"no metrics.csv in {directory}")
    for path, episode_log in plotted:
        print(f"wrote {export(episode_log, path.with_suffix('.svg'))}")
    if drives:
        print(f"{len(logs)} logs, mean drive across seeds: {mean(drives):.6g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-blanket": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
