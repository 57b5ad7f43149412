"""Trace-driven workloads: record, store, and replay request streams.

The paper's motivating workloads are OLTP traces; real evaluations
replay captured traces rather than synthetic arrivals.  This module
provides a minimal trace format (CSV: ``time_ms,op,lba``), a
synthesizer that freezes a :class:`WorkloadConfig` stream into a trace,
and a replayer that drives any :class:`ArrayController` — so the same
request stream can be replayed against different layouts for an
apples-to-apples comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .compile import compile_trace, generate_request_stream, schedule_compiled
from .controller import ArrayController
from .workload import WorkloadConfig

__all__ = [
    "TraceRecord",
    "synthesize_trace",
    "save_trace",
    "load_trace",
    "replay_trace",
]


@dataclass(frozen=True)
class TraceRecord:
    """One request: arrival time (ms), operation, logical address."""

    time_ms: float
    op: str  # "r" or "w"
    lba: int

    def __post_init__(self) -> None:
        if self.op not in ("r", "w"):
            raise ValueError(f"op must be 'r' or 'w', got {self.op!r}")
        if self.time_ms < 0 or self.lba < 0:
            raise ValueError(f"negative time or lba in {self}")


def synthesize_trace(
    config: WorkloadConfig, duration_ms: float, capacity: int
) -> list[TraceRecord]:
    """Freeze a synthetic workload into an explicit trace.

    Uses the canonical vectorized generator
    (:func:`repro.sim.compile.generate_request_stream`) — the same one
    :func:`drive_workload` consumes — so a synthesized trace replayed on
    a controller reproduces the equivalent live workload exactly.
    """
    times, is_read, lbas = generate_request_stream(config, duration_ms, capacity)
    return [
        TraceRecord(time_ms=t, op="r" if r else "w", lba=lba)
        for t, r, lba in zip(times.tolist(), is_read.tolist(), lbas.tolist())
    ]


def save_trace(records: Iterable[TraceRecord], path: str | Path) -> None:
    """Write a trace as ``time_ms,op,lba`` CSV (with header)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", "op", "lba"])
        for rec in records:
            writer.writerow([f"{rec.time_ms:.6f}", rec.op, rec.lba])


def load_trace(path: str | Path) -> list[TraceRecord]:
    """Read a CSV trace.

    Raises:
        ValueError: on malformed rows (bad op, negative values, wrong
            column count).
    """
    records: list[TraceRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time_ms", "op", "lba"]:
            raise ValueError(f"unexpected trace header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
            records.append(
                TraceRecord(time_ms=float(row[0]), op=row[1], lba=int(row[2]))
            )
    return records


def replay_trace(
    controller: ArrayController, records: Sequence[TraceRecord]
) -> int:
    """Schedule every trace record on the controller's simulator.

    Arrival times are relative to the current simulated time.  Records
    whose ``lba`` exceeds the layout's capacity are wrapped modulo
    capacity (so one trace can drive arrays of different sizes).

    The trace is compiled (one ``map_batch`` for every address) and
    pumped through the compiled executor.

    Returns the number of requests scheduled; run
    ``controller.sim.run()`` to execute.
    """
    return schedule_compiled(
        controller, compile_trace(controller.mapper, records)
    )
