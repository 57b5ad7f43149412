"""A fleet of parity-declustered arrays served from one process.

The :class:`Fleet` owns N :class:`ArrayController` shards over one
registry-cached layout, all driven by a **single shared event clock**:
disk IOs, foreground traffic, failure injections, and rebuilds across
every array interleave on one simulator, which is what makes
fleet-level statements ("two arrays rebuild concurrently while traffic
continues") meaningful.

Routing is batched end to end.  An incoming request stream (arrival
times, read flags, fleet-global LBAs) is split per shard with one
vectorized consistent-hash pass (:class:`ShardMap`), each shard's
sub-stream is compiled with one ``map_batch`` call
(:func:`repro.sim.compile.compile_stream`), and the shard-set engine
gate of ``repro.sim`` runs them
(:func:`repro.sim.compile._execute_shards`; windowed serves,
:func:`repro.sim.stream._execute_shard_windows`): on an idle clock
each shard takes its cheapest engine — the analytic queue solver for
single-phase traces, the batch-stepped executor for mixed ones — and
the shared event heap runs the shards that armed timers name (a
failure injection names its array), while the rest replay the heap's
order on the exact core.  Only windowed serves that must route live
(a migration, a pending event naming no shard) take the window
router, which keeps every shard on the heap.  The multi-process shard
groups call the same gates.  No per-request Python happens between the
socket (here: the stream vectors) and the disk queues.

Routing is also *mutable* per volume: the fleet routes through a
volume→shard table seeded from the :class:`ShardMap` and updated one
volume at a time as a live migration
(:class:`repro.service.MigrationCoordinator`) cuts volumes over to new
shards.  While a migration is active, requests to moving volumes are
diverted out of the batched per-shard compile and dispatched
request-by-request on the shared clock, so each one follows the
volume's *current* owner (source before cutover, destination after)
and can be drained and counted exactly — the seam that makes "grow the
fleet under load with zero lost requests" a checkable property.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.registry import get_layout, get_plan
from ..layouts import Layout
from ..obs.nullrec import NULL_RECORDER
from ..sim.compile import (
    CompiledTrace,
    StreamWindows,
    _compile_ordered,
    _CompiledRun,
    _execute_shards,
    _in_arrival_order,
    generate_request_stream,
)
from ..sim.controller import ArrayController
from ..sim.disk import DiskParameters
from ..sim.events import Simulator
from ..sim.stats import LatencyDigest, LatencyState, LatencyStats, merge_states
from ..sim.stream import (
    _carry_label,
    _execute_shard_windows,
    _in_order,
    _ShardRoute,
    _slice_window,
    _sweep,
    _volumes,
)
from ..sim.workload import WorkloadConfig
from .sharding import ShardMap

__all__ = ["Fleet", "FleetReport", "ShardTally"]


@dataclass(frozen=True)
class ShardTally:
    """One shard's share of a served stream: the record every fleet
    executor (the serial :class:`Fleet`, plain and migration shard
    groups, across processes too) hands the report fold.

    Attributes:
        scheduled: requests routed to the shard (a migration's diverted
            requests count where its coordinator dispatched them).
        latency: per request kind, the stream's samples reduced to a
            :class:`~repro.sim.stats.LatencyState`.
        per_disk_ios: IOs each of the shard's disks completed.
        engine: the engine label its execution used (``None`` if none).
        executor: what ran that engine's serialization.
    """

    scheduled: int
    latency: dict[str, LatencyState]
    per_disk_ios: list[int]
    engine: str | None
    executor: str | None


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of serving one stream through the fleet.

    Attributes:
        shards: number of arrays.
        scheduled: total requests routed into the fleet.
        completed: requests that finished (one latency sample each).
            Requests in flight when a disk fails are lost — a real
            controller would retry them degraded — so ``completed``
            can trail ``scheduled`` in failure scenarios.
        duration_ms: simulated time from stream start to last
            completion (the makespan).
        throughput_rps: *completed* requests per simulated second over
            the makespan — the fleet's achieved service rate (lost
            requests don't inflate it).
        latency: fleet-level latency summaries keyed by request kind
            (samples merged across shards).
        per_shard_scheduled: requests routed to each shard.
        per_shard_latency: per-shard latency summaries.
        per_disk_ios: completed IOs per disk, per shard.

    The fold keeps the :class:`ShardTally` records it read as the plain
    attribute ``tallies``, not a field, so ``asdict()`` and equality
    never see engine labels (windowed and materialized serves pick
    differently-labelled engines for identical reports).
    """

    shards: int
    scheduled: int
    completed: int
    duration_ms: float
    throughput_rps: float
    latency: dict[str, dict[str, float]]
    per_shard_scheduled: list[int]
    per_shard_latency: list[dict[str, dict[str, float]]]
    per_disk_ios: list[list[int]]

    @property
    def lost(self) -> int:
        """Requests dropped by mid-flight disk failures."""
        return self.scheduled - self.completed

    @property
    def shard_balance(self) -> float:
        """Busiest over least-busy shard by routed requests (1.0 is
        perfect balance)."""
        active = [c for c in self.per_shard_scheduled if c > 0]
        return max(active) / min(active) if active else 1.0

    @property
    def engines(self) -> list[str | None]:
        """The engine label each shard's execution used."""
        return [t.engine for t in self.tallies]

    @property
    def executors(self) -> list[str | None]:
        """The executor that ran each shard's engine."""
        return [t.executor for t in self.tallies]


class Fleet:
    """N array shards, one shared clock, batched request routing.

    Args:
        shards: number of arrays.
        v: disks per array.
        k: stripe size.
        volumes: logical-volume count (routing granularity; default
            ``16 * shards``).
        disk_params: service-time model shared by every disk.
        dataplane: attach byte-level data planes (enables bit-for-bit
            rebuild and migration verification at simulation cost).
        seed: shard-ring seed and per-array data-plane fill seed base.
        placement: :class:`ShardMap` placement policy — ``"ring"``
            (baseline), ``"p2c"``, or ``"weighted"``.  The non-ring
            policies balance per-volume *traffic weights* (each
            volume's addressable extent), which is what tightens
            request-level shard balance from ~2x to <= 1.3x max/min.
        write_policy: small-write handling for every shard —
            ``"rmw"`` (read-modify-write, the paper's model) or
            ``"write_through"`` (single-phase, analytically solvable).

    Raises:
        ValueError: on a non-positive shard count, unknown placement,
            or unknown write policy.
        NoFeasiblePlanError: if no layout construction fits ``(v, k)``.
    """

    def __init__(
        self,
        shards: int,
        v: int,
        k: int,
        *,
        volumes: int | None = None,
        disk_params: DiskParameters | None = None,
        dataplane: bool = False,
        seed: int = 0,
        placement: str = "ring",
        write_policy: str = "rmw",
    ):
        if shards < 1:
            raise ValueError(f"a fleet needs >= 1 shard, got {shards}")
        if volumes is not None and volumes < 1:
            raise ValueError(f"a fleet needs >= 1 volume, got {volumes}")
        self.sim = Simulator()
        # The planner's pick for (v, k), and the layout it builds.
        self.plan = get_plan(v, k)
        self.layout: Layout = get_layout(v, k)
        self.seed = seed
        self.placement = placement
        self._disk_params = disk_params
        self._dataplane = dataplane
        self.write_policy = write_policy
        # Metrics recording: the null default makes uninstrumented
        # serves free; attach_recorder swaps in a real recorder.  Every
        # controller carries its fleet-global shard id.
        self._obs = NULL_RECORDER
        self.controllers: list[ArrayController] = []
        self.ensure_shards(shards)
        self.shard_capacity = self.controllers[0].mapper.capacity
        # The logical address space is fixed at creation: growing the
        # fleet adds serving capacity for the *same* volumes (the
        # migration story), it does not extend the LBA range.
        self.capacity = self.shard_capacity * shards
        n_volumes = volumes if volumes is not None else 16 * shards
        # Volume extent: ceil so every global LBA falls in a volume.
        self.volume_units = -(-self.capacity // n_volumes)
        self.shard_map = ShardMap(
            shards,
            n_volumes,
            seed=seed,
            policy=placement,
            weights=self.volume_weights(n_volumes),
        )
        # Mutable routing: starts as the map's placement, updated one
        # volume at a time by a live migration's cutovers.
        self._volume_route = self.shard_map.assignment()
        self._migration = None  # attached by MigrationCoordinator
        # Every coordinator ever attached, in order — serve accounting
        # sums dispatch counts across all of them, so migrations fired
        # mid-serve (the autoscale loop can run several sequentially)
        # still land in the per-shard scheduled totals.
        self._migrations: list = []

    @property
    def shards(self) -> int:
        """Number of arrays in the fleet (including any shards a shrink
        migration has drained — they idle but stay on the clock)."""
        return len(self.controllers)

    def failed_arrays(self) -> list[int]:
        """Indices of arrays currently running degraded."""
        return [
            i
            for i, c in enumerate(self.controllers)
            if c.failed_disk is not None
        ]

    def volume_weights(self, n_volumes: int | None = None) -> np.ndarray:
        """Per-volume traffic weights: each volume's *addressable
        extent* in units.  Tail volumes past the capacity edge weigh 0
        (they receive no traffic), a partial last volume weighs its
        real extent — what the ``p2c``/``weighted`` policies balance.
        """
        n = n_volumes if n_volumes is not None else self.shard_map.volumes
        starts = np.arange(n, dtype=np.int64) * self.volume_units
        return np.clip(
            self.capacity - starts, 0, self.volume_units
        ).astype(np.float64)

    def volume_route(self) -> np.ndarray:
        """The live volume→shard routing table (a copy) — equals
        :meth:`ShardMap.assignment` except mid-migration, where cut-over
        volumes already point at their destination."""
        return self._volume_route.copy()

    def static_route(self) -> _ShardRoute:
        """The live routing table (a copy) and the fleet's address
        geometry as one record — what the windowed engines route each
        window through while no migration re-routes volumes."""
        return _ShardRoute(
            self.volume_route(),
            self.volume_units,
            self.shard_capacity,
            self.capacity,
        )

    def routing_fingerprint(self) -> int:
        """Deterministic digest of the live routing table (the
        :meth:`ShardMap.fingerprint` analogue for mid-migration
        states)."""
        from .sharding import fingerprint_assignment

        return fingerprint_assignment(self._volume_route, self.seed)

    # ------------------------------------------------------------------
    # Reconfiguration plumbing (driven by MigrationCoordinator)
    # ------------------------------------------------------------------

    def ensure_shards(self, target: int) -> None:
        """Grow the controller set to ``target`` arrays on the shared
        clock (no-op when already that large), as the fleet builds its
        first ones.  Arrays added later serve no volumes until a
        migration cuts some over to them."""
        while len(self.controllers) < target:
            i = len(self.controllers)
            ctrl = ArrayController(
                self.layout,
                sim=self.sim,
                disk_params=self._disk_params,
                dataplane=self._dataplane,
                seed=self.seed + i,
                write_policy=self.write_policy,
            )
            ctrl.obs_shard = i
            ctrl.obs = self._obs
            self.controllers.append(ctrl)

    def attach_recorder(self, recorder) -> None:
        """Route every shard's instrumentation into ``recorder`` (a
        :class:`repro.obs.MetricsRecorder`); shards added later by
        :meth:`ensure_shards` inherit it."""
        self._obs = recorder
        for ctrl in self.controllers:
            ctrl.obs = recorder

    def attach_migration(self, coordinator) -> None:
        """Register the live migration that diverts moving-volume
        traffic (one at a time).

        Raises:
            RuntimeError: if an unfinished migration is already
                attached.
        """
        if self._migration is not None and not self._migration.done:
            raise RuntimeError("a migration is already in progress")
        self._migration = coordinator
        self._migrations.append(coordinator)

    def migration_dispatch_totals(self) -> list[int]:
        """Requests dispatched per shard by every migration ever
        attached (diverted traffic counts where the coordinator sent
        it).  Serve paths snapshot this before and after a stream so
        scheduled counts cover coordinators created mid-serve too."""
        totals = [0] * self.shards
        for co in self._migrations:
            for s, n in enumerate(co.dispatched_per_shard):
                totals[s] += n
        return totals

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route_stream(
        self,
        times: np.ndarray,
        is_read: np.ndarray,
        lbas: np.ndarray,
    ) -> tuple[list[CompiledTrace], np.ndarray]:
        """Split and compile a fleet-global stream per shard.

        The stream is checked and stable-sorted into arrival order once
        (ties keep stream order), routed through the live volume table
        (:meth:`_route_live`), and each shard's sub-stream compiled with
        one ``map_batch`` call (global LBAs fold onto the shard's
        address space) and no second check.

        While a migration is active, requests to moving volumes are
        *diverted*: they carry shard id ``-1`` here and are handed to
        the coordinator, which dispatches each one at its arrival time
        to the volume's current owner (so cutovers mid-stream take
        effect) — see :class:`repro.service.MigrationCoordinator`.

        Returns:
            ``(compiled, shard_ids)`` — one :class:`CompiledTrace` per
            shard plus each request's routed shard (``-1`` = diverted),
            in input order.

        Raises:
            IndexError: if any LBA falls outside the fleet capacity.
            ValueError: on columns of unequal length, or a NaN,
                infinite or negative arrival time.
        """
        times, is_read, lbas, order = _in_arrival_order(times, is_read, lbas)
        shard_ids = self._route_live(times, is_read, lbas, self.sim.now)
        compiled = []
        for s, ctrl in enumerate(self.controllers):
            # One index gather per shard: each column is read once, not
            # once per boolean mask.
            idx = np.flatnonzero(shard_ids == s)
            compiled.append(
                _compile_ordered(
                    ctrl.mapper,
                    times[idx],
                    is_read[idx],
                    lbas[idx] % self.shard_capacity,
                )
            )
        if order is not None:
            unsorted = np.empty_like(shard_ids)
            unsorted[order] = shard_ids
            shard_ids = unsorted
        return compiled, shard_ids

    def _route_live(self, times, is_read, lbas, base: float) -> np.ndarray:
        """Each request's shard through the live volume table (LBA →
        volume → shard) — the one live-routing step of
        :meth:`route_stream` and the window router.  Requests a live
        migration claims get shard ``-1`` and go to its coordinator, in
        arrival order, at absolute times ``base + times``."""
        vols = _volumes(
            lbas, self.volume_units, self.shard_map.volumes, self.capacity
        )
        shard_ids = self._volume_route[vols]
        mig = self._migration
        if mig is not None and not mig.done:
            moving = mig.claims(vols)
            if moving.any():
                mig.register_stream(
                    base + times[moving],
                    is_read[moving],
                    lbas[moving],
                    vols[moving],
                )
                shard_ids = np.where(moving, np.int64(-1), shard_ids)
        return shard_ids

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve_stream(
        self,
        times: np.ndarray,
        is_read: np.ndarray,
        lbas: np.ndarray,
    ) -> FleetReport:
        """Serve one fleet-global stream to completion.

        Routes, compiles, executes (per-shard solver/batch-stepped
        engines on an idle clock, the shared event heap otherwise), and
        aggregates per-shard reports.  Failure injections armed on the
        shared clock (see :class:`repro.service.FailureOrchestrator`)
        fire mid-stream.
        """
        compiled, _ = self.route_stream(times, is_read, lbas)
        return self.serve_compiled(compiled)

    def serve_compiled(self, compiled: list[CompiledTrace]) -> FleetReport:
        """Execute pre-routed per-shard traces (the
        :meth:`route_stream` output) and report.

        The traces run through the shard-set engine gate
        (:func:`repro.sim.compile._execute_shards`): on an idle clock
        each shard takes its cheapest exact engine.  With events armed,
        only the shards they name run on the shared event heap — a
        failure names its array, a migration every shard — and each
        other shard replays its trace on the exact core from the
        stream's start, keeping the heap's label and bits.

        Raises:
            ValueError: if the trace count does not match the fleet.
        """
        if len(compiled) != self.shards:
            raise ValueError(
                f"expected {self.shards} per-shard traces, got {len(compiled)}"
            )
        start = self.sim.now
        # Snapshot cumulative controller state so the report covers this
        # stream only — a long-lived fleet serves many streams and each
        # report must stand alone.
        lat_base = [
            {kind: st.count for kind, st in ctrl.latency.items()}
            for ctrl in self.controllers
        ]
        ios_base = [ctrl.per_disk_completed() for ctrl in self.controllers]
        mig_base = self.migration_dispatch_totals()
        # Each shard picks its cheapest engine on an idle clock; armed
        # events put the shards they name on the heap.
        _execute_shards(self.controllers, compiled)
        # This stream's samples as per-shard exact accumulators over
        # array slices (shards a reshape bore mid-run have no earlier
        # samples).
        accs: list[dict[str, LatencyStats]] = []
        for i, ctrl in enumerate(self.controllers):
            base = lat_base[i] if i < len(lat_base) else {}
            shard: dict[str, LatencyStats] = {}
            for kind, st in ctrl.latency.items():
                b = base.get(kind, 0)
                if st.count > b:
                    shard[kind] = LatencyStats(st.since(b))
            accs.append(shard)
        return self._report(
            [t.n for t in compiled], start, accs, ios_base, mig_base
        )

    def serve_workload(
        self,
        config: WorkloadConfig,
        duration_ms: float,
        *,
        window_size: int | None = None,
    ) -> FleetReport:
        """Generate a fleet-level synthetic stream and serve it.

        ``config.interarrival_ms`` is the *aggregate* fleet interarrival
        — the offered load the shards split between them.  Addresses
        are drawn over the whole fleet capacity.

        With ``window_size`` set, the stream is never materialized: it
        is generated, routed, and executed one window at a time
        (:meth:`serve_windows`) with latency reduced to constant-memory
        digests, so peak memory is one window at any horizon and the
        report is byte-identical to the materialized serve.
        """
        if window_size is not None:
            return self.serve_windows(
                StreamWindows(
                    config, duration_ms, self.capacity, window_size=window_size
                )
            )
        times, is_read, lbas = generate_request_stream(
            config, duration_ms, self.capacity
        )
        return self.serve_stream(times, is_read, lbas)

    def serve_windows(
        self,
        windows,
        *,
        read_only_hint: bool = False,
    ) -> FleetReport:
        """Serve a windowed fleet-global stream in constant memory.

        ``windows`` yields ``(times, is_read, lbas)`` slices in arrival
        order (times relative to the stream start, LBAs fleet-global) —
        :class:`repro.sim.compile.StreamWindows` over the fleet
        capacity, typically.  Two modes mirror :meth:`serve_compiled`:

        * **shard-set gate** (static routing): ``repro.sim``'s windowed
          gate (:func:`repro.sim.stream._execute_shard_windows`) over
          every shard.  On an idle clock each shard carries its queue
          state across window boundaries — the analytic solver when
          every request is single-phase (the source's ``read_only``
          attribute, or a write-through fleet), the eager core on its
          eligible shards (healthy, read-modify-write, no data plane)
          for mixed streams.  Only the shards an armed event names (a
          failure names its array) run on the shared heap; every other
          shard, and every eager tie abort, replays on the exact core
          in the heap pump's order and under its ``windowed-pump``
          label.
        * **window router** (live routing — a live migration, a pending
          event naming no shard such as a reshape or an autoscale tick,
          or a one-shot source the carry engines do not take, since the
          gate gives each heap shard a pass of its own): one
          self-rescheduling event loads each window onto the shared
          heap for every shard, routed through the *live* volume table
          (:meth:`_route_live`, as :meth:`route_stream` routes a
          materialized stream), so cutovers mid-stream take effect.

        Any source without ``read_only`` counts as mixed.
        ``read_only_hint`` is ignored, kept for the end-to-end harness
        (``benchmarks/e2e/workloads.py``), which still passes it.  A
        window that starts before the previous window's last arrival
        raises ``ValueError`` in either mode — when it is pulled, so the
        fleet is left mid-serve and is discarded
        (:func:`repro.sim.stream._in_order`).
        Reports are byte-identical to the materialized serve of the
        same stream, engine labels aside.  The scenario runners, not
        this serve, count its windows as ``window_boundaries``.
        """
        start = self.sim.now
        ios_base = [ctrl.per_disk_completed() for ctrl in self.controllers]
        mig = self._migration
        mig_base = self.migration_dispatch_totals()
        digests: list[dict[str, LatencyDigest]] = [
            {} for _ in self.controllers
        ]
        if (
            (mig is not None and not mig.done)
            or self.sim.armed_shards() is None
            or (
                iter(windows) is windows
                and _carry_label(self.controllers, windows) is None
            )
        ):
            scheduled = [0] * len(self.controllers)
            router = _WindowRouter(self, iter(windows), digests, scheduled)
            self.sim.run()
            router.finish()
        else:
            scheduled, _ = _execute_shard_windows(
                self.controllers, self.static_route(), windows, digests
            )
        return self._report(scheduled, start, digests, ios_base, mig_base)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(
        self,
        scheduled: list[int],
        start: float,
        accs: list[dict[str, LatencyStats | LatencyDigest]],
        ios_base: list[list[int]],
        mig_base: Sequence[int] = (),
    ) -> FleetReport:
        """Fold one stream's per-shard accumulators into its report, one
        :class:`ShardTally` per controller.  Shards born mid-stream (a
        reshape grows the controller set) count from zero, and requests
        the migration coordinators dispatched count where they ran
        (source pre-cutover, destination after): the dispatch totals
        now, less ``mig_base``, the totals before the stream.  ``accs``
        covers every controller."""
        n = len(self.controllers)
        scheduled = list(scheduled) + [0] * (n - len(scheduled))
        for s, total in enumerate(self.migration_dispatch_totals()):
            scheduled[s] += total - (mig_base[s] if s < len(mig_base) else 0)
        return _fold_report(
            [
                _tally(
                    ctrl,
                    scheduled[s],
                    accs[s],
                    ios_base[s] if s < len(ios_base) else None,
                )
                for s, ctrl in enumerate(self.controllers)
            ],
            self.sim.now - start,
        )


def _tally(
    ctrl: ArrayController,
    scheduled: int,
    accs: dict[str, LatencyStats | LatencyDigest],
    ios_base: list[int] | None = None,
) -> ShardTally:
    """``ctrl``'s tally of one stream: each kind's accumulator (exact
    samples or a digest) reduced once to its state, and the IOs its
    disks completed since ``ios_base`` (ever, when None)."""
    ios = ctrl.per_disk_completed()
    if ios_base is not None:
        ios = [now - then for now, then in zip(ios, ios_base)]
    return ShardTally(
        scheduled,
        {kind: acc.state() for kind, acc in accs.items()},
        ios,
        ctrl.last_engine,
        ctrl.last_executor,
    )


def _fold_report(tallies: list[ShardTally], duration_ms: float) -> FleetReport:
    """Fold per-shard tallies (indexed by shard id) into one
    :class:`FleetReport` — the one fold behind the serial fleet's
    reports and the merged multi-process ones.

    Kind keys iterate sorted so every latency dict in the report has a
    canonical key order — report equality (serial vs merged
    multi-process runs) must not hinge on which request kind happened
    to complete first.  Each (shard, kind)
    :class:`~repro.sim.stats.LatencyState` feeds both its
    ``per_shard_latency`` row and the fleet-level fold in shard order
    (:func:`~repro.sim.stats.merge_states`) — the same fold whether
    the states came from exact samples (materialized serves),
    streaming digests (windowed serves), or worker processes: the
    byte-identity seam.
    """
    kinds = sorted({kind for t in tallies for kind in t.latency})
    # One sample per finished request; lost requests have none.
    completed = int(
        sum(st.count for t in tallies for st in t.latency.values())
    )
    report = FleetReport(
        shards=len(tallies),
        scheduled=int(sum(t.scheduled for t in tallies)),
        completed=completed,
        duration_ms=duration_ms,
        throughput_rps=(
            completed / (duration_ms / 1000.0) if duration_ms > 0 else 0.0
        ),
        latency={
            kind: merge_states(
                [t.latency[kind] for t in tallies if kind in t.latency]
            )
            for kind in kinds
        },
        per_shard_scheduled=[t.scheduled for t in tallies],
        per_shard_latency=[
            {kind: t.latency[kind].summary() for kind in sorted(t.latency)}
            for t in tallies
        ],
        per_disk_ios=[t.per_disk_ios for t in tallies],
    )
    object.__setattr__(report, "tallies", tuple(tallies))
    return report


class _WindowRouter:
    """Streams a windowed fleet workload onto the shared event heap for
    the serves that must route live (see :meth:`Fleet.serve_windows`).

    One self-rescheduling event per window: at the first arrival time
    of window *W* (checked and in arrival order,
    :func:`repro.sim.stream._in_order`), the router sweeps completed
    latency samples into the per-shard digests, routes *W* through the
    fleet's live-routing step (:meth:`Fleet._route_live`: migration
    cutovers that happened since the last window take effect, and a
    live migration's share goes to its coordinator), compiles each
    shard's slice (:func:`repro.sim.stream._slice_window`), and arms one
    :class:`repro.sim.compile._CompiledRun` pump per non-empty slice —
    all of whose arrivals fire before the next window is due (windows
    partition the stream by time).  Exactly one window is ever
    buffered, so heap pressure and sample memory stay constant at any
    horizon while failures, rebuilds, and migration copies interleave
    on the shared clock.

    Known gap: a window's first arrival epoch takes its heap sequence
    number when the router delivers the window, where the chained pump
    (and so the materialized serve) numbers it at the end of the
    previous epoch.  At exact time ties across a window boundary the
    schedules can differ.

    Construction arms the first window; run the clock, then call
    :meth:`finish`.
    """

    __slots__ = (
        "fleet", "it", "digests", "scheduled", "base", "_next", "_lat_base",
    )

    def __init__(
        self,
        fleet: Fleet,
        it,
        digests: list[dict[str, LatencyDigest]],
        scheduled: list[int],
    ):
        self.fleet = fleet
        self.it = _in_order(it)
        self.digests = digests
        self.scheduled = scheduled
        self.base = fleet.sim.now
        # A long-lived fleet's controllers may carry samples from
        # earlier streams; the sweep must only claim this stream's tail.
        self._lat_base = [
            {kind: st.count for kind, st in ctrl.latency.items()}
            for ctrl in fleet.controllers
        ]
        self._pull()

    def _pull(self) -> None:
        """Buffer the next non-empty window and arm its delivery at its
        first arrival (nothing at the end of the stream)."""
        self._next = next(self.it, None)
        if self._next is not None:
            at = self.base + float(self._next[0][0])
            self.fleet.sim.at(at, self._deliver)

    def _deliver(self) -> None:
        self.drain()
        fleet = self.fleet
        window = self._next
        shard_ids = fleet._route_live(*window, self.base)
        scheduled = self.scheduled
        # Shards a reshape bore mid-run route from here on.
        scheduled.extend([0] * (len(fleet.controllers) - len(scheduled)))
        for s, w in _slice_window(
            enumerate(fleet.controllers), shard_ids, window,
            fleet.shard_capacity, self.base, scheduled,
        ):
            # The explicit base keeps arrival times bit-equal to a
            # stream-start schedule even though the pump is built
            # mid-run.
            _CompiledRun(fleet.controllers[s], w, base=self.base).schedule()
        self._pull()

    def drain(self) -> None:
        """Sweep each controller's fresh latency samples (in recording
        order) into the per-shard digests and trim the lists back, so
        sample memory never exceeds one window's completions."""
        fleet = self.fleet
        digests = self.digests
        lat_base = self._lat_base
        while len(digests) < len(fleet.controllers):
            digests.append({})
            lat_base.append({})
        for s, ctrl in enumerate(fleet.controllers):
            _sweep(ctrl.latency, lat_base[s], digests[s])

    def finish(self) -> None:
        """Close the stream once the clock has drained: sweep the last
        samples and label every controller — router mode runs every
        shard on the chained heap pump, so all of them, including
        shards born after the last window or that saw no traffic, carry
        its label and serial and multi-process serves agree at every
        window size."""
        self.drain()
        for ctrl in self.fleet.controllers:
            ctrl.set_engine("windowed-pump", "event-heap")
