"""Deterministic persistence: CSV tables, JSON reports, SVG charts.

Floats are written with ``repr`` (shortest round-trip form) and files end
with a single newline, so re-exporting the same object reproduces the same
bytes.  Charts are self-contained SVG assembled by hand; no display server
or plotting backend is involved.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .metrics import METRICS_FIELDS, METRICS_HEADER, EpisodeLog, MetricsTable, StepRecord

# A log row is a `StepRecord`: its fields, in order, are the columns.
LOG_FIELDS = tuple(f.name for f in fields(StepRecord))
LOG_HEADER = ",".join(LOG_FIELDS)
_log_values = attrgetter(*LOG_FIELDS)
_metrics_values = attrgetter(*METRICS_FIELDS)

# How `read_log_csv` turns a cell back into a field value, by annotated type.
_PARSERS = {
    "int": int,
    "str": str,
    "float": float,
    "bool": lambda cell: cell == "1",
    "Optional[int]": lambda cell: int(cell) if cell else None,
    "Optional[float]": lambda cell: float(cell) if cell else None,
}
_LOG_PARSERS = tuple(_PARSERS[f.type] for f in fields(StepRecord))


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_line(values: Iterable) -> str:
    return ",".join(format_value(v) for v in values)


def log_csv_text(log: EpisodeLog) -> str:
    lines = [LOG_HEADER]
    lines.extend(_csv_line(_log_values(r)) for r in log.steps)
    return "\n".join(lines) + "\n"


def metrics_csv_text(table: MetricsTable) -> str:
    lines = [METRICS_HEADER]
    lines.extend(_csv_line(_metrics_values(r)) for r in table.rows)
    if table.rows:
        for summary_row in table.summary():
            lines.append(_csv_line(summary_row))
    return "\n".join(lines) + "\n"


def read_log_csv(path: str | Path) -> EpisodeLog:
    """Parse a log written by `log_csv_text`; terminal status is not stored."""
    lines = Path(path).read_text(encoding="utf-8").strip("\n").split("\n")
    if lines[0] != LOG_HEADER:
        raise ValueError(f"{path} is not a run log (unexpected header)")
    steps = []
    for line in lines[1:]:
        cells = zip(_LOG_PARSERS, line.split(","), strict=True)
        steps.append(StepRecord(*(parse(cell) for parse, cell in cells)))
    seed_token = Path(path).stem.rsplit("seed", 1)
    seed = int(seed_token[1]) if len(seed_token) == 2 and seed_token[1].isdigit() else -1
    return EpisodeLog(seed=seed, steps=steps, terminal="")


def drive_svg_text(log: EpisodeLog) -> str:
    """Line chart of drive over the window; out-of-zone steps shaded."""
    width, height, pad = 900, 260, 34
    steps = log.steps
    if not steps:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            "<text x='10' y='20'>empty log</text></svg>"
        )
    drives = [r.drive for r in steps]
    d_max = max(max(drives), 1e-9)
    x_span = width - 2 * pad
    y_span = height - 2 * pad

    def x_at(i: int) -> float:
        return pad + x_span * i / max(len(steps) - 1, 1)

    def y_at(d: float) -> float:
        return height - pad - y_span * d / d_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    # Shade contiguous out-of-zone stretches.
    start = None
    for i, r in enumerate(steps + [None]):
        out = r is not None and not r.in_viability
        if out and start is None:
            start = i
        elif not out and start is not None:
            parts.append(
                f'<rect x="{x_at(start):.2f}" y="{pad}" '
                f'width="{max(x_at(i - 1) - x_at(start), 1.0):.2f}" height="{y_span}" '
                'fill="#f4c7c3"/>'
            )
            start = None
    points = " ".join(f"{x_at(i):.2f},{y_at(d):.2f}" for i, d in enumerate(drives))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#2953a6" stroke-width="1"/>')
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad}" y="{pad - 10}" font-size="12">drive (max {d_max:.4g}); '
        'shaded = outside viability zone</text>'
    )
    parts.append(f'<text x="{width - pad - 60}" y="{height - pad + 24}" font-size="12">step</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    """Write `text` as UTF-8, atomically: readers see the old file or the new one.

    The bytes go to a temporary file beside `path`, which then replaces it,
    so an interrupted or failed write never leaves a truncated artifact.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "xb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def export(obj, path: str | Path) -> Path:
    """Write a log, metrics table, or blanket report to `path` by suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if isinstance(obj, EpisodeLog):
        if suffix == ".svg":
            return write_text(path, drive_svg_text(obj))
        return write_text(path, log_csv_text(obj))
    if isinstance(obj, MetricsTable):
        return write_text(path, metrics_csv_text(obj))
    if hasattr(obj, "to_dict"):
        return write_text(path, json.dumps(obj.to_dict(), indent=2, sort_keys=True) + "\n")
    raise TypeError(f"cannot export object of type {type(obj).__name__}")
