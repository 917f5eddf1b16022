"""Trace and report persistence.

``trace.csv`` carries the run's configuration echo in ``#``-prefixed header
lines followed by one row per evaluation:

    step,kind,x1..xn,value,acquisition,flagged,distance

Floats are written with ``repr`` so that parsing a written trace reproduces
it exactly. Reports share the comment-header convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .optimizer import RunTrace, StepRecord

TRACE_FORMAT = "multibo trace v1"
REPORT_FORMAT = "multibo report v1"


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path, header, columns, rows) -> None:
    """One ``# `` line per entry of ``header``, the column row, then one line
    per row of string fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _config_line(config_echo: dict) -> str:
    return f"config {json.dumps(config_echo, sort_keys=True)}"


def write_trace(path, trace: RunTrace, config_echo: dict) -> None:
    header = [TRACE_FORMAT, _config_line(config_echo), f"termination {trace.termination}",
              f"n_samples {trace.n_samples}", f"jitter {_fmt(trace.jitter)}"]
    coords = [f"x{i + 1}" for i in range(trace.config.dim)]
    columns = ["step", "kind"] + coords + ["value", "acquisition", "flagged", "distance"]
    rows = ([str(rec.step), rec.kind] + [_fmt(c) for c in rec.point]
            + [_fmt(rec.value), _fmt(rec.acquisition), str(int(rec.flagged)), _fmt(rec.distance)]
            for rec in trace.steps)
    _write_csv(path, header, columns, rows)


def write_plot_data(path, trace: RunTrace, config_echo: dict) -> None:
    """``plot_data.csv``: the trace's rows without the kind and flag columns."""
    coords = [f"x{i + 1}" for i in range(trace.config.dim)]
    columns = ["step"] + coords + ["value", "acquisition", "distance"]
    rows = ([str(rec.step)] + [_fmt(c) for c in rec.point]
            + [_fmt(rec.value), _fmt(rec.acquisition), _fmt(rec.distance)]
            for rec in trace.steps)
    _write_csv(path, [_config_line(config_echo)], columns, rows)


@dataclass(frozen=True)
class TraceFile:
    """Parsed trace: records plus the embedded configuration echo."""

    steps: tuple[StepRecord, ...]
    config_echo: dict
    termination: str
    n_samples: int
    jitter: float


def read_trace(path) -> TraceFile:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = {}
    body = []
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("# "):
            key, _, rest = line[2:].partition(" ")
            meta[key] = rest
        elif line.strip():
            body.append((lineno, line))
    if not body:
        raise ParseError("trace has no header row", line=1)
    if meta.get("multibo", "").strip() != "trace v1":
        raise ParseError("missing trace format marker", line=1)
    header = body[0][1].split(",")
    dim = sum(1 for c in header if c.startswith("x"))
    steps = []
    for lineno, line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(parts)}", line=lineno)
        try:
            point = np.array([float(parts[2 + i]) for i in range(dim)])
            steps.append(StepRecord(
                step=int(parts[0]),
                kind=parts[1],
                point=point,
                value=float(parts[2 + dim]),
                acquisition=None if parts[3 + dim] == "" else float(parts[3 + dim]),
                flagged=bool(int(parts[4 + dim])),
                distance=None if parts[5 + dim] == "" else float(parts[5 + dim]),
            ))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return TraceFile(
        steps=tuple(steps),
        config_echo=json.loads(meta.get("config", "{}")),
        termination=meta.get("termination", ""),
        n_samples=int(meta.get("n_samples", len(steps))),
        jitter=float(meta.get("jitter", "0") or 0.0),
    )


def write_report(path, columns, rows, config_echo: dict, kind: str) -> None:
    """Comparison report: one row per run/method, comment header with the echo."""
    _write_csv(path, [REPORT_FORMAT, f"kind {kind}", _config_line(config_echo)], columns,
               (["" if v is None else str(v) for v in row] for row in rows))


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
