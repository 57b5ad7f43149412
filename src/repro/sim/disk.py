"""Disk service model: seek + rotational latency + transfer, FIFO queue.

Parameters default to an early-1990s 3.5" drive of the kind the paper's
feasibility arithmetic assumes (≈10 ms average seek, 5400 RPM).  The
simulator reasons in *stripe units* — the layout's allocation grain —
so the transfer time is per unit.

The model is deliberately simple (no elevator scheduling, no zoned
geometry): the quantities the paper studies are *relative* read volumes
and queue contention induced by the layout, which survive any monotone
service model.  A short-seek discount for sequential access is included
because rebuild sweeps are sequential on the replacement disk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .events import Simulator

__all__ = ["DiskParameters", "DiskIO", "Disk", "DiskFailedError"]


class DiskFailedError(RuntimeError):
    """IO submitted to a failed disk."""


@dataclass(frozen=True)
class DiskParameters:
    """Service-time model knobs (milliseconds)."""

    average_seek_ms: float = 10.0
    #: Half-rotation at 5400 RPM = 60_000 / 5400 / 2.
    rotational_latency_ms: float = 5.56
    transfer_ms_per_unit: float = 2.0
    #: Seek charged when the head is already adjacent (sequential I/O).
    sequential_seek_ms: float = 0.5

    # Every engine charges one of these two sums, always associated as
    # ``(seek + rotation) + transfer`` — computed here once so their
    # floats agree bit for bit.

    @property
    def sequential_service_ms(self) -> float:
        """Service time of an IO adjacent to the previous head position."""
        return (
            self.sequential_seek_ms
            + self.rotational_latency_ms
            + self.transfer_ms_per_unit
        )

    @property
    def average_service_ms(self) -> float:
        """Service time of an IO that needs a full average seek."""
        return (
            self.average_seek_ms
            + self.rotational_latency_ms
            + self.transfer_ms_per_unit
        )

    @property
    def min_service_ms(self) -> float:
        """The shorter of the two service times (a non-positive value
        disables the batch-stepped and windowed-eager engines)."""
        return min(self.sequential_service_ms, self.average_service_ms)

    def service_time(self, last_offset: int | None, offset: int) -> float:
        """Time to serve one unit-sized IO at ``offset`` given the
        previous head position."""
        if last_offset is not None and abs(offset - last_offset) <= 1:
            return self.sequential_service_ms
        return self.average_service_ms


@dataclass(slots=True)
class DiskIO:
    """One unit-sized disk request.

    Attributes:
        offset: unit index on the disk.
        is_write: write vs read.
        on_complete: callback fired at completion time.
        issue_time: set by the disk at submission (for queueing stats).
    """

    offset: int
    is_write: bool
    on_complete: Callable[[float], None] | None = None
    issue_time: float = field(default=0.0, compare=False)
    #: Closure-free latency recording: when set, the disk appends
    #: ``completion - issue_time`` here at completion.  Only sound for
    #: single-IO requests submitted at their arrival time (the request
    #: latency IS the IO latency) — the compiled executor's read path.
    latency_sink: list[float] | None = None


class Disk:
    """A single disk: FIFO queue, one IO in service at a time.

    The service chain is allocation-light: the in-service IO sits in a
    slot and one pre-bound completion method is reused for every event,
    so a simulated IO costs one heap entry and zero closures (the fleet
    service multiplies disk counts by array counts, so this is the
    per-IO floor of the whole simulator).
    """

    def __init__(self, sim: Simulator, disk_id: int, params: DiskParameters):
        self.sim = sim
        self.disk_id = disk_id
        self.params = params
        self.failed = False
        self._queue: deque[DiskIO] = deque()
        self._busy = False
        self._last_offset: int | None = None
        self._in_service: DiskIO | None = None
        # One bound method reused for every completion event (heap
        # entries carry no per-IO closure).
        self._on_service_done = self._service_done
        self._seq_service = params.sequential_service_ms
        self._avg_service = params.average_service_ms
        # Statistics
        self.busy_time = 0.0
        self.completed_reads = 0
        self.completed_writes = 0
        self.total_queue_delay = 0.0

    @property
    def queue_length(self) -> int:
        """Requests waiting or in service."""
        return len(self._queue) + (1 if self._busy else 0)

    def fail(self) -> None:
        """Fail the disk: queued IOs are dropped, new IOs rejected."""
        self.failed = True
        self._queue.clear()

    def submit(self, io: DiskIO) -> None:
        """Enqueue an IO.

        An idle disk starts service inline (no deque round-trip); a busy
        one queues FIFO.  Both paths charge the same statistics.

        Raises:
            DiskFailedError: if the disk has failed.
        """
        if self.failed:
            raise DiskFailedError(f"disk {self.disk_id} has failed")
        io.issue_time = self.sim.now
        if self._busy:
            self._queue.append(io)
            return
        self._busy = True
        last = self._last_offset
        offset = io.offset
        if last is not None and -1 <= offset - last <= 1:
            service = self._seq_service
        else:
            service = self._avg_service
        self._last_offset = offset
        self.busy_time += service
        self._in_service = io
        self.sim.schedule(service, self._on_service_done)

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        io = self._queue.popleft()
        last = self._last_offset
        offset = io.offset
        if last is not None and -1 <= offset - last <= 1:
            service = self._seq_service
        else:
            service = self._avg_service
        self._last_offset = offset
        self.busy_time += service
        self.total_queue_delay += self.sim.now - io.issue_time
        self._in_service = io
        self.sim.schedule(service, self._on_service_done)

    def _service_done(self) -> None:
        io = self._in_service
        self._in_service = None
        if self.failed:
            # The disk died while this IO was in service: it never
            # completes (no callback, no counter).
            self._busy = False
            return
        if io.is_write:
            self.completed_writes += 1
        else:
            self.completed_reads += 1
        if io.latency_sink is not None:
            io.latency_sink.append(self.sim.now - io.issue_time)
        if io.on_complete is not None:
            io.on_complete(self.sim.now)
        self._start_next()

    @property
    def completed_ios(self) -> int:
        """Total IOs completed."""
        return self.completed_reads + self.completed_writes

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent servicing IOs."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0
