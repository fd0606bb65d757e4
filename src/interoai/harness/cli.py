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
from .export import export, read_log_csv
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
    logging.basicConfig(level=level, format="[%(levelname)s] %(name)s: %(message)s")


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


def _cmd_report(args: argparse.Namespace) -> int:
    directory = Path(args.in_dir)
    if not directory.is_dir():
        raise RuntimeFailure(f"no results directory {directory}")
    metrics_path = directory / "metrics.csv"
    if metrics_path.exists():
        print(metrics_path.read_text(encoding="utf-8").rstrip("\n"))
    else:
        print(f"no metrics.csv in {directory}")
    logs = sorted(directory.glob("log_seed*.csv"))
    if logs:
        drives = []
        for path in logs:
            try:
                episode_log = read_log_csv(path)
            except ValueError as exc:
                raise RuntimeFailure(f"malformed log {path}: {exc}") from exc
            if episode_log.steps:
                drives.append(mean(r.drive for r in episode_log.steps))
            if args.plots:
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
