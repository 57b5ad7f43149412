"""Array controller: executes logical reads/writes against a layout.

Timing semantics:

* normal read — one disk IO;
* small write — read-modify-write: read old data and old parity in
  parallel, then write new data and new parity in parallel (the classic
  4-IO RAID small write; parity-disk contention is exactly what the
  paper's Condition 2 is about);
* degraded read (failed data disk) — read every surviving unit of the
  stripe and XOR (the Condition 3 reconstruction path);
* degraded write — if the *data* disk failed, read the other data units
  and write parity only; if the *parity* disk failed, write data only.

Address translation goes through the mapping engine's flat tables.
Scalar submissions take the one-lookup path; bulk traffic with timing
(workload replay, trace-driven runs) is *compiled* instead:
:mod:`repro.sim.compile` pre-maps a whole trace with one
:meth:`AddressMapper.map_batch` call and feeds the controller
pre-planned requests (via :meth:`request_plan`) with no per-event
translation at all.

Content semantics are delegated to an optional :class:`DataPlane` and
applied atomically per request, keeping the timing engine and the
correctness oracle independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.registry import get_mapper
from ..layouts import Layout
from ..obs.nullrec import NULL_RECORDER
from .dataplane import DataPlane
from .disk import Disk, DiskIO, DiskParameters
from .events import Simulator
from .stats import LatencyStats

__all__ = ["ArrayController", "RequestKind"]


RequestKind = str  # "read" | "write" | "degraded_read" | "degraded_write"


@dataclass(slots=True)
class _Request:
    """In-flight logical request (possibly multiple phases of disk IOs).

    Slotted and cursor-based (no ``phases.pop(0)`` list churn): the
    mixed read/write executor allocates one of these per request, so its
    footprint is on the compiled hot path.
    """

    kind: RequestKind
    start: float
    on_done: Callable[[float], None] | None
    remaining: int = 0
    phases: list[list[tuple[int, int, bool]]] = field(default_factory=list)
    phase_idx: int = 0


class ArrayController:
    """Maps logical unit requests onto disk IOs through a layout.

    Args:
        layout: the data layout to execute.
        sim: event engine (a fresh one is created if omitted).
        disk_params: service-time model for all disks.
        dataplane: attach a byte-level data plane (enables content
            verification at simulation cost).
        seed: data-plane fill seed.
        write_policy: ``"rmw"`` (default) issues the classic 4-IO
            read-modify-write small write; ``"write_through"`` models a
            controller that computes new parity from cached context and
            writes data + parity directly — every request becomes
            single-phase, which unlocks the analytic queue solver for
            mixed traces.
    """

    WRITE_POLICIES = ("rmw", "write_through")

    #: Observability sink + this controller's shard id within it.
    #: Class-level defaults keep the uninstrumented path free: engines
    #: test ``ctrl.obs.enabled`` once per batch and skip all recording.
    #: A fleet (or ``simulate_workload(recorder=...)``) overrides both
    #: per instance when metrics are requested.
    obs = NULL_RECORDER
    obs_shard = 0
    #: Label of the execution engine that last ran this controller's
    #: compiled traffic ("solver" / "eager" / "calendar" / "heap" /
    #: "windowed-*"), set by every engine through :meth:`set_engine`.
    #: Not a dataclass field anywhere — reports surface it as a plain
    #: attribute so cross-engine report-equality comparisons stay
    #: byte-identical.
    last_engine: str | None = None
    #: The executor that actually ran that traffic ("event-heap" /
    #: "exact-native" / "exact-core" / "eager" / "solver").  ``heap``,
    #: ``windowed-pump`` and ``calendar`` name a serialization that the
    #: event heap or the exact core (compiled ``exact-native``, or the
    #: Python ``exact-core``) replays; this says which one did.
    #: Volatile: never in a canonical report or the metrics.
    last_executor: str | None = None

    def __init__(
        self,
        layout: Layout,
        *,
        sim: Simulator | None = None,
        disk_params: DiskParameters | None = None,
        dataplane: bool = False,
        seed: int = 0,
        write_policy: str = "rmw",
    ):
        layout.validate()
        if write_policy not in self.WRITE_POLICIES:
            raise ValueError(
                f"write_policy must be one of {self.WRITE_POLICIES}, "
                f"got {write_policy!r}"
            )
        self.write_policy = write_policy
        self.layout = layout
        self.sim = sim if sim is not None else Simulator()
        self.params = disk_params if disk_params is not None else DiskParameters()
        self.disks = [Disk(self.sim, d, self.params) for d in range(layout.v)]
        # Registry-shared mapping tables: a fleet of controllers over
        # equal layouts builds the flat tables once.
        self.mapper = get_mapper(layout)
        self.data = DataPlane(layout, seed=seed) if dataplane else None
        self.failed_disk: int | None = None
        self.latency: dict[RequestKind, LatencyStats] = {}
        # Per-kind bound record methods: completions are recorded with
        # one dict probe + one list append, no setdefault per request.
        self._lat_record: dict[RequestKind, Callable[[float], None]] = {}
        self.rejected_requests = 0
        # Content listeners for degraded writes that land on the failed
        # disk — an in-flight rebuild registers here so units it has
        # already recovered stay coherent with later foreground writes
        # (a real array directs those writes to the replacement disk).
        self._degraded_write_hooks: list[Callable[[int, np.ndarray], None]] = []
        # Content listeners for *every* data-unit write applied through
        # the per-request path — an in-flight volume migration registers
        # here so units it has already copied stay coherent on the
        # destination (a real array mirrors those writes during the
        # copy window).
        self._content_write_hooks: list[
            Callable[[int, int, int, np.ndarray], None]
        ] = []

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Fail one disk (single-fault model, like the paper's arrays).

        Raises:
            ValueError: if a disk has already failed or ``disk`` invalid.
        """
        if self.failed_disk is not None:
            raise ValueError("the single-parity array tolerates one failure")
        if not 0 <= disk < self.layout.v:
            raise ValueError(f"no disk {disk} in a {self.layout.v}-disk array")
        self.failed_disk = disk
        self.disks[disk].fail()

    def add_degraded_write_hook(
        self, hook: Callable[[int, np.ndarray], None]
    ) -> None:
        """Register ``hook(offset, new_contents)`` to observe every
        degraded write that changes what the failed disk should hold at
        ``offset`` — its data unit, or its parity unit when the stripe's
        parity sat on the failed disk (content semantics only; timing
        is unaffected)."""
        self._degraded_write_hooks.append(hook)

    def remove_degraded_write_hook(
        self, hook: Callable[[int, np.ndarray], None]
    ) -> None:
        """Unregister a degraded-write hook (no-op if absent)."""
        try:
            self._degraded_write_hooks.remove(hook)
        except ValueError:
            pass

    def add_content_write_hook(
        self, hook: Callable[[int, int, int, np.ndarray], None]
    ) -> None:
        """Register ``hook(stripe_id, disk, offset, payload)`` to
        observe every data-unit write applied through the per-request
        content path (content semantics only; timing is unaffected)."""
        self._content_write_hooks.append(hook)

    def remove_content_write_hook(
        self, hook: Callable[[int, int, int, np.ndarray], None]
    ) -> None:
        """Unregister a content-write hook (no-op if absent)."""
        try:
            self._content_write_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _record(self, req: _Request, when: float) -> None:
        rec = self._lat_record.get(req.kind)
        if rec is None:
            rec = self._lat_record[req.kind] = self.latency.setdefault(
                req.kind, LatencyStats()
            ).record
        lat = when - req.start
        rec(lat)
        obs = self.obs
        if obs.enabled:
            # Heap-path completions arrive one event at a time in
            # completion order (the event loop runs in time order), so
            # scalar recording preserves the recorder's fold contract.
            obs.record(self.obs_shard, req.kind, when, lat)
        if req.on_done is not None:
            req.on_done(when)

    def _issue_phase(self, req: _Request) -> None:
        i = req.phase_idx
        if i >= len(req.phases):
            self._record(req, self.sim.now)
            return
        phase = req.phases[i]
        failed = self.failed_disk
        if failed is not None and any(d == failed for d, _, _ in phase):
            # The disk died while this request was in flight (its plan
            # predates the failure).  The request is lost — the same
            # fate as one whose queued IO the failing disk dropped; a
            # real controller would retry it through the degraded path.
            return
        req.phase_idx = i + 1
        req.remaining = len(phase)

        def one_done(_when: float) -> None:
            req.remaining -= 1
            if req.remaining == 0:
                self._issue_phase(req)

        for disk, offset, is_write in phase:
            self.disks[disk].submit(
                DiskIO(offset=offset, is_write=is_write, on_complete=one_done)
            )

    # ------------------------------------------------------------------
    # Request planning (shared by the scalar and batch paths)
    # ------------------------------------------------------------------

    def _plan_read(
        self, disk: int, offset: int, stripe_id: int
    ) -> tuple[RequestKind, list[list[tuple[int, int, bool]]]]:
        if disk != self.failed_disk:
            return "read", [[(disk, offset, False)]]
        stripe = self.layout.stripes[stripe_id]
        return "degraded_read", [
            [(d, off, False) for d, off in stripe.units if d != self.failed_disk]
        ]

    def _write_mode(self, disk: int, parity_disk: int) -> str:
        """Classify a write against the failure state — the single
        source of truth for both IO-phase planning and data-plane
        content semantics: ``"normal"`` | ``"data_failed"`` |
        ``"parity_failed"``."""
        if self.failed_disk is None or (
            disk != self.failed_disk and parity_disk != self.failed_disk
        ):
            return "normal"
        return "data_failed" if disk == self.failed_disk else "parity_failed"

    @staticmethod
    def normal_write_phases(
        disk: int, offset: int, parity_disk: int, parity_off: int
    ) -> list[list[tuple[int, int, bool]]]:
        """The healthy small-write plan (read-modify-write: read old
        data and parity, then write both) — shared with the compiled
        executor, which builds it from batch-mapped parity arrays."""
        return [
            [(disk, offset, False), (parity_disk, parity_off, False)],
            [(disk, offset, True), (parity_disk, parity_off, True)],
        ]

    def _plan_write(
        self, disk: int, offset: int, stripe_id: int
    ) -> tuple[RequestKind, list[list[tuple[int, int, bool]]]]:
        stripe = self.layout.stripes[stripe_id]
        parity_disk, parity_off = stripe.parity_unit
        mode = self._write_mode(disk, parity_disk)
        write_through = self.write_policy == "write_through"
        if mode == "normal":
            if write_through:
                return "write", [
                    [(disk, offset, True), (parity_disk, parity_off, True)]
                ]
            return "write", self.normal_write_phases(
                disk, offset, parity_disk, parity_off
            )
        if mode == "data_failed":
            if write_through:
                # New parity comes from cached context: the surviving
                # data units need not be read back.
                return "degraded_write", [[(parity_disk, parity_off, True)]]
            other_data = [
                (d, off, False)
                for d, off in stripe.data_units()
                if d != self.failed_disk
            ]
            phases = (
                [other_data, [(parity_disk, parity_off, True)]]
                if other_data
                else [[(parity_disk, parity_off, True)]]
            )
            return "degraded_write", phases
        # Parity disk failed: no parity to maintain.
        return "degraded_write", [[(disk, offset, True)]]

    def _apply_write_dataplane(
        self, stripe_id: int, disk: int, offset: int, payload: np.ndarray
    ) -> None:
        assert self.data is not None
        stripe = self.layout.stripes[stripe_id]
        parity_disk, parity_off = stripe.parity_unit
        mode = self._write_mode(disk, parity_disk)
        if mode == "normal":
            self.data.small_write(stripe_id, disk, offset, payload)
        elif mode == "parity_failed":
            self.data.write_unit(disk, offset, payload)
            # No parity IO is issued (the parity disk is gone), but the
            # failed disk's *stored* parity is the rebuild oracle — keep
            # it current so a concurrent rebuild recovers the stripe's
            # true parity, not a pre-write snapshot.
            new_parity = self.data.stripe_parity(stripe_id)
            self.data.write_unit(parity_disk, parity_off, new_parity)
            for hook in self._degraded_write_hooks:
                hook(parity_off, new_parity)
        else:
            # Data disk failed: fold the new value into parity so a
            # later rebuild recovers it.
            self.data.write_unit(disk, offset, payload)
            self.data.write_unit(
                parity_disk, parity_off, self.data.stripe_parity(stripe_id)
            )
            for hook in self._degraded_write_hooks:
                hook(offset, payload)
        for hook in self._content_write_hooks:
            hook(stripe_id, disk, offset, payload)

    def _default_payload(self, lba: int) -> np.ndarray:
        assert self.data is not None
        return np.full(self.data.unit_words, lba + 1, dtype=np.uint64)

    def _folds_writes(self) -> bool:
        """Whether :meth:`_fold_write_dataplane` accepts a trace in the
        current state: no content or degraded-write hook observes the
        store."""
        return not self._degraded_write_hooks and not self._content_write_hooks

    def _fold_write_dataplane(self, compiled) -> bool:
        """Apply every write of a compiled trace (default payloads) to
        the data plane in one :meth:`DataPlane.fold_small_writes` — for
        an engine that owns the whole timeline, where no rebuild or
        copy reads the store mid-run.  Degraded writes fold too: every
        write path (:meth:`_apply_write_dataplane`) leaves each
        stripe's parity equal to the XOR of its data units, so a
        data-failed or parity-failed write ends the store where a
        healthy small write of the same unit would.  With a registered
        content / degraded-write hook the fold declines (returns False,
        nothing applied) and the caller keeps the per-write path."""
        assert self.data is not None
        if not self._folds_writes():
            return False
        w = ~compiled.is_read
        if w.any():
            self.data.fold_small_writes(
                compiled.stripes[w] % self.layout.b,
                compiled.disks[w],
                compiled.offsets[w],
                (compiled.lbas[w] + 1).astype(np.uint64)[:, None],
            )
        return True

    def request_plan(
        self, is_read: bool, disk: int, offset: int, stripe_id: int
    ) -> tuple[RequestKind, list[list[tuple[int, int, bool]]]]:
        """Plan one pre-mapped request against the current failure state.

        The entry point for compiled traces: the caller already holds
        the ``map_batch`` translation, so planning is pure phase
        construction.  Returns ``(kind, phases)`` exactly as the scalar
        submission path would execute them.
        """
        if is_read:
            return self._plan_read(disk, offset, stripe_id)
        return self._plan_write(disk, offset, stripe_id)

    # ------------------------------------------------------------------
    # Scalar submission
    # ------------------------------------------------------------------

    def submit_read(
        self, lba: int, on_done: Callable[[float], None] | None = None
    ) -> RequestKind:
        """Issue a logical read; returns the request kind used."""
        pu = self.mapper.logical_to_physical(lba)
        kind, phases = self._plan_read(pu.disk, pu.offset, pu.stripe % self.layout.b)
        req = _Request(kind=kind, start=self.sim.now, on_done=on_done, phases=phases)
        self._issue_phase(req)
        return kind

    def submit_write(
        self,
        lba: int,
        data: np.ndarray | None = None,
        on_done: Callable[[float], None] | None = None,
    ) -> RequestKind:
        """Issue a logical write (read-modify-write); returns the kind."""
        pu = self.mapper.logical_to_physical(lba)
        sid = pu.stripe % self.layout.b
        kind, phases = self._plan_write(pu.disk, pu.offset, sid)
        if self.data is not None:
            payload = data if data is not None else self._default_payload(lba)
            self._apply_write_dataplane(sid, pu.disk, pu.offset, payload)
        req = _Request(kind=kind, start=self.sim.now, on_done=on_done, phases=phases)
        self._issue_phase(req)
        return kind

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def set_engine(self, label: str, executor: str) -> None:
        """Record ``label`` as the engine that ran this controller's
        traffic: :attr:`last_engine`, and the metrics recorder's label
        for this shard; ``executor`` goes to :attr:`last_executor`
        only."""
        self.last_engine = label
        self.last_executor = executor
        self.obs.set_engine(self.obs_shard, label)

    def per_disk_completed(self) -> list[int]:
        """Completed IOs per disk."""
        return [d.completed_ios for d in self.disks]

    def utilizations(self, elapsed: float | None = None) -> list[float]:
        """Per-disk busy fraction over ``elapsed`` (default: now)."""
        t = elapsed if elapsed is not None else self.sim.now
        return [d.utilization(t) for d in self.disks]
