"""Fleet failure orchestration: injection, admission-controlled
rebuilds, and fleet-level recovery reporting.

A :class:`FailureOrchestrator` arms a schedule of
:class:`FailureEvent`s on the fleet's shared clock.  When a failure
fires, the array flips to degraded mode (foreground traffic re-plans
live — the compiled executor was built for exactly this) and a rebuild
is *requested*.  At most ``admission`` recovery jobs run concurrently
across the whole fleet; excess requests queue FIFO and start the
moment a slot frees.  That knob is the classic recovery/foreground
trade-off: admission 1 serializes rebuild IO (least interference,
longest window of reduced redundancy), admission K rebuilds everything
at once (fastest redundancy restoration, most contention).

The slot gate itself is a standalone :class:`AdmissionController`, so
*all* background data movement can share one budget: the scenario
runner hands the same controller to the orchestrator and to
:class:`repro.service.MigrationCoordinator`, making volume copies and
rebuilds compete for the same fleet-wide concurrency slots instead of
stacking on top of each other.

Every completed rebuild carries the :class:`RebuildReport` of the
underlying sweep, so with data planes attached the fleet-level verdict
("every recovered array matches bit for bit") is just a conjunction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..sim.reconstruction import RebuildProcess, RebuildReport
from .fleet import Fleet

__all__ = [
    "AdmissionController",
    "FailureEvent",
    "RebuildOutcome",
    "FailureOrchestrator",
    "max_concurrent_rebuilds",
    "validate_failure_schedule",
]


def validate_failure_schedule(
    failures: Sequence["FailureEvent"], shards: int, v: int
) -> None:
    """Validate a failure schedule against a fleet's geometry — the
    single source of the schedule checks, shared by
    :class:`FailureOrchestrator` and the parallel scenario runner
    (:mod:`repro.service.parallel`) so both paths reject the same
    scenarios with the same errors.

    Raises:
        ValueError: on an out-of-range array/disk target, a negative
            or non-finite failure time, or two failures on one
            (single-parity) array.
    """
    seen_arrays: set[int] = set()
    for ev in failures:
        if not 0 <= ev.array < shards:
            raise ValueError(
                f"failure targets array {ev.array} in a "
                f"{shards}-shard fleet"
            )
        if not 0 <= ev.disk < v:
            raise ValueError(
                f"failure targets disk {ev.disk} in a {v}-disk array"
            )
        if not (math.isfinite(ev.time_ms) and ev.time_ms >= 0):
            raise ValueError(
                f"failure time {ev.time_ms} must be finite and non-negative"
            )
        if ev.array in seen_arrays:
            raise ValueError(
                f"two failures target array {ev.array}; the "
                "single-parity arrays tolerate one each"
            )
        seen_arrays.add(ev.array)


def max_concurrent_rebuilds(outcomes: Sequence[RebuildOutcome]) -> int:
    """Upper bound on rebuild overlap actually achieved, from outcome
    intervals (sanity check for the admission knob).  Order-independent,
    so serial and group-merged outcome lists give the same answer."""
    intervals = [
        (o.started_at_ms, o.started_at_ms + o.report.duration_ms)
        for o in outcomes
    ]
    peak = 0
    for start, _ in intervals:
        overlap = sum(1 for s, e in intervals if s <= start < e)
        peak = max(peak, overlap)
    return peak


class AdmissionController:
    """FIFO gate on concurrent background data movement.

    ``submit(start)`` queues a job; at most ``slots`` started jobs are
    outstanding at any time, and each must call :meth:`release` exactly
    once when it finishes.  Rebuilds and volume migrations share one
    instance, so "at most K recovery/migration streams at once" is a
    single fleet-wide invariant rather than two independent caps.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError(f"admission slots must be >= 1, got {slots}")
        self.slots = slots
        self.active = 0
        self._queue: deque[Callable[[], None]] = deque()

    def submit(self, start: Callable[[], None]) -> None:
        """Queue a job; ``start`` fires as soon as a slot is free
        (possibly immediately, inline)."""
        self._queue.append(start)
        self._pump()

    def release(self) -> None:
        """Return a slot (called by a finished job) and start the next
        queued one, if any.

        Raises:
            RuntimeError: on a release without a matching start.
        """
        if self.active < 1:
            raise RuntimeError("release() without an active admission slot")
        self.active -= 1
        self._pump()

    def _pump(self) -> None:
        while self.active < self.slots and self._queue:
            self.active += 1
            self._queue.popleft()()

    @property
    def queued(self) -> int:
        """Jobs waiting for a slot."""
        return len(self._queue)


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled disk failure.

    Attributes:
        time_ms: simulated time of the failure.
        array: fleet shard index.
        disk: disk index within that array.
    """

    time_ms: float
    array: int
    disk: int


@dataclass(frozen=True)
class RebuildOutcome:
    """One array's completed recovery.

    Attributes:
        array: fleet shard index.
        failed_disk: the disk that was lost.
        failed_at_ms: when the failure fired.
        started_at_ms: when admission control released the rebuild.
        report: the sweep's :class:`RebuildReport` (duration, per-disk
            reads, bit-for-bit verdict when a data plane is attached).
    """

    array: int
    failed_disk: int
    failed_at_ms: float
    started_at_ms: float
    report: RebuildReport

    @property
    def admission_delay_ms(self) -> float:
        """Time the rebuild waited for a concurrency slot."""
        return self.started_at_ms - self.failed_at_ms


@dataclass
class FailureOrchestrator:
    """Drives a failure schedule against a fleet.

    Call :meth:`arm` before running the fleet's simulator; outcomes
    accumulate in :attr:`outcomes` as rebuilds finish.

    Attributes:
        fleet: the fleet under test.
        failures: the schedule (any order; at most one per array — the
            arrays are single-parity).
        admission: max recovery jobs running concurrently fleet-wide
            (ignored when ``admission_controller`` is given).
        parallelism: stripes rebuilt concurrently within one array.
        admission_controller: optional shared slot gate — pass the same
            instance to a :class:`repro.service.MigrationCoordinator`
            to make rebuilds and volume copies share one budget.
    """

    fleet: Fleet
    failures: tuple[FailureEvent, ...]
    admission: int = 2
    parallelism: int = 4
    admission_controller: AdmissionController | None = None

    outcomes: list[RebuildOutcome] = field(default_factory=list, init=False)
    _armed: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.admission_controller is None:
            self.admission_controller = AdmissionController(self.admission)
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        validate_failure_schedule(
            self.failures, self.fleet.shards, self.fleet.layout.v
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every failure on the fleet's shared clock, each
        claiming its array (:meth:`repro.sim.events.Simulator.arm`).  A
        failure holds that claim through its admission wait and its
        rebuild, and releases it in the rebuild's ``on_done``; a
        failure, its wait and its rebuild touch only arrays with
        failures of their own, so the engine gates keep the rest of the
        fleet off the event heap, and a failed array's pump leaves the
        heap once its claim has lapsed.

        Raises:
            RuntimeError: if armed twice.
        """
        if self._armed:
            raise RuntimeError("orchestrator already armed")
        self._armed = True
        for ev in self.failures:
            self.fleet.sim.arm(
                ev.time_ms,
                self._make_failure(ev),
                (self.fleet.controllers[ev.array],),
            )

    def _make_failure(self, ev: FailureEvent):
        def fire() -> None:
            sim = self.fleet.sim
            ctrl = self.fleet.controllers[ev.array]
            ctrl.fail_disk(ev.disk)
            claim = sim.claim((ctrl,))
            failed_at = sim.now
            self.admission_controller.submit(
                lambda: self._start_rebuild(ev, failed_at, claim)
            )

        return fire

    def _start_rebuild(
        self, ev: FailureEvent, failed_at: float, claim: int
    ) -> None:
        ctrl = self.fleet.controllers[ev.array]
        started_at = self.fleet.sim.now

        def on_done(report: RebuildReport) -> None:
            self.fleet.sim.release(claim)
            self.outcomes.append(
                RebuildOutcome(
                    array=ev.array,
                    failed_disk=ev.disk,
                    failed_at_ms=failed_at,
                    started_at_ms=started_at,
                    report=report,
                )
            )
            self.admission_controller.release()

        RebuildProcess(
            ctrl, parallelism=self.parallelism, on_complete=on_done
        ).start()

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every scheduled failure has been rebuilt."""
        return len(self.outcomes) == len(self.failures)

    @property
    def all_verified(self) -> bool:
        """True when every rebuild completed and (with data planes
        attached) every recovered image matched bit for bit."""
        return self.done and all(
            o.report.data_verified is not False for o in self.outcomes
        )

    def max_concurrent_observed(self) -> int:
        """Upper bound on rebuild overlap actually achieved (see
        :func:`max_concurrent_rebuilds`)."""
        return max_concurrent_rebuilds(self.outcomes)
