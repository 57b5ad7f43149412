"""Multi-core fleet execution: process-parallel shard groups with a
deterministic report merge.

A :class:`repro.service.Fleet` interleaves every shard on ONE Python
event loop, so an 8-shard scenario burns one core no matter how many
the host has.  But most shards never interact: an array's disks, its
foreground traffic, and its rebuild IOs are invisible to every other
array.  The only cross-shard couplings a scenario can introduce are

* the **failure schedule + shared admission budget** — rebuilds queue
  FIFO on one fleet-wide :class:`AdmissionController`, so when more
  rebuilds are scheduled than there are slots, every failed array's
  timing depends on every other failed array's completion;
* the **migration plan** — a reshape copies volumes between arrays,
  mutates the fleet-global routing table, and shares the admission
  budget with rebuilds, coupling the whole fleet.

:func:`partition_scenario` turns that observation into **independent
execution groups** (connected components of the coupling relation):

* no failures → every shard is its own group;
* ``len(failures) <= admission`` → every rebuild is admitted the
  moment its failure fires in the serial run too, so the budget can be
  **statically partitioned** — each failed array becomes its own group
  carrying one dedicated slot (the partition is recorded in the
  report);
* ``len(failures) > admission`` → admission queueing orders rebuilds
  globally, so all failed arrays collapse into one group that carries
  the whole budget (healthy arrays still split off);
* a reshape (``scenario.reshape_to``) without failures whose copy
  destinations fit the admission budget → the move graph's **connected
  components** (union-find over each move's ``(source, dest)`` edge)
  become migration groups: a component's arrays share disk queues,
  mirror hooks, and per-destination copy serialization, but two
  components touch disjoint arrays and — because every destination
  holds at most one admission slot and the destinations fit the budget
  fleet-wide — the shared admission gate never queues in the serial
  run either, so the copy budget partitions statically per component
  (each carries its destination count in slots).  Arrays no move
  touches stay singleton groups.  A reshape whose components collapse
  into one fleet-wide group, whose destinations exceed the budget, or
  that runs alongside failures still **falls back to the serial path**
  (recorded in the execution metadata).

This module holds the worker side of grouped execution: each group
becomes one :class:`GroupTask` record, executed by
:func:`_execute_group` (pre-routed compiled slices or stream windows)
or :func:`_execute_migration_group` (a reshape component), each
returning a :class:`GroupResult`.  The runner that builds the tasks
and drives them lives in :class:`repro.service.runtime.WarmRuntime`;
:func:`run_fleet_scenario_parallel` is that runner run once, cold: it
opens a runtime, serves the scenario through the grouped path, and
closes it.  The parent generates the fleet stream **once**, routes and
compiles it per shard through the real :class:`Fleet` (one vectorized
pass), and packs the slices into one shared-memory segment that every
worker maps read-only — workers never regenerate or re-route the full
stream.  Everything crossing the process boundary is spawn-safe:
workers receive a picklable :class:`GroupTask`, rebuild
layouts/mappers through their own local registry, and simulate only
their own arrays on a fresh clock.  Per-group results are merged
**deterministically** — each shard's
:class:`~repro.service.fleet.ShardTally` (the record the serial fleet
builds too) placed by global shard id and folded in shard order
(exactly the serial report's float-summation order), rebuild outcomes
re-sorted — so the merged report is equal to the serial shared-clock
report field for field,
and ``workers=N`` output is byte-identical to ``workers=1`` after
:func:`canonical_payload` strips the wall-clock and
execution-metadata fields that legitimately differ run to run.

Why the decomposition is *exact* (not approximate): within one shard,
event order on the shared clock is decided by ``(time, seq)`` with a
monotonic sequence number, so removing another shard's events never
reorders this shard's; shards share no state except through the
couplings the partition keys on; and each group runs the serial
fleet's own engine gate (:func:`repro.sim.compile._execute_shards`,
:func:`repro.sim.stream._execute_shard_windows`), allowing the fast
engines only when the scenario arms no failure and no reshape —
exactly when the serial fleet's clock is idle at serve time.  Past
that, the gate picks per shard on both sides: only shards an armed
event names run on the event heap, and the rest replay the heap's
serialization on the exact core.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.registry import get_layout
from ..obs.recorder import MetricsRecorder
from ..sim.compile import (
    StreamWindows,
    _execute_shards,
    generate_request_stream,
)
from ..sim.controller import ArrayController
from ..sim.events import Simulator
from ..sim.stream import _execute_shard_windows, _ShardRoute
from .fleet import FleetReport, ShardTally, _fold_report, _tally
from .migration import (
    MigrationCoordinator,
    VolumeMigrationOutcome,
    plan_migration,
)
from .orchestrator import (
    AdmissionController,
    FailureEvent,
    FailureOrchestrator,
    RebuildOutcome,
    validate_failure_schedule,
)
from .scenario import FleetScenario, FleetScenarioReport, scenario_fleet

__all__ = [
    "ShardGroup",
    "GroupPartition",
    "partition_scenario",
    "GroupTask",
    "GroupResult",
    "ParallelExecution",
    "ParallelScenarioRun",
    "run_fleet_scenario_parallel",
    "canonical_payload",
    "available_cpus",
]


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where the
    platform exposes it) — what ``workers=None`` auto-sizes to and what
    the report's ``parallel`` section records as ``cpu_count``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Group partitioning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardGroup:
    """One independent execution group.

    Attributes:
        arrays: global shard ids in this group (ascending).
        failures: the failure-schedule slice targeting those arrays
            (global ids preserved).
        admission_slots: this group's share of the fleet admission
            budget (0 for groups with no background jobs).
        migration_volumes: volume ids of the reshape moves this group
            executes (one connected component of the move graph; empty
            for non-migration groups).
    """

    arrays: tuple[int, ...]
    failures: tuple[FailureEvent, ...] = ()
    admission_slots: int = 0
    migration_volumes: tuple[int, ...] = ()


@dataclass(frozen=True)
class GroupPartition:
    """A scenario's full group decomposition.

    Attributes:
        groups: disjoint groups covering every shard (ascending by
            first array).
        serial_fallback: True when coupling collapsed everything into
            one group, so process parallelism cannot help and the
            runner uses the serial path.
        reason: human-readable explanation of the partition shape.
    """

    groups: tuple[ShardGroup, ...]
    serial_fallback: bool
    reason: str

    def admission_partition(self) -> dict[int, int]:
        """Recorded budget split: group index → admission slots (only
        groups holding slots appear)."""
        return {
            i: g.admission_slots
            for i, g in enumerate(self.groups)
            if g.admission_slots
        }


def _validate_scenario(scenario: FleetScenario) -> None:
    """The serial runner's parameter checks, run up front so the
    parallel path rejects a bad scenario with the same errors *before*
    spinning up workers (the schedule checks are the orchestrator's
    own, shared)."""
    if scenario.admission < 1:
        raise ValueError(
            f"admission slots must be >= 1, got {scenario.admission}"
        )
    validate_failure_schedule(
        scenario.failures, scenario.shards, scenario.v
    )


def partition_scenario(scenario: FleetScenario) -> GroupPartition:
    """Partition a scenario's shards into independent execution groups
    (see the module docstring for the coupling rules).

    Raises:
        ValueError: on inconsistent scenario parameters (same checks as
            the serial runner).
    """
    _validate_scenario(scenario)
    n = scenario.shards
    if scenario.autoscale is not None:
        # The control loop watches fleet-wide metrics and can fire a
        # reshape at any tick — every shard is coupled to every other
        # through the decisions, so the whole fleet is one group.
        return _serial_reshape(
            scenario,
            "the autoscale control loop watches fleet-wide metrics and "
            "can reshape at any tick — the whole fleet is one execution "
            "group",
        )
    if scenario.reshape_to is not None:
        return _partition_reshape(scenario)
    by_array: dict[int, FailureEvent] = {
        ev.array: ev for ev in scenario.failures
    }
    failed = sorted(by_array)
    groups: list[ShardGroup] = []
    if len(failed) <= scenario.admission:
        # Every rebuild is admitted immediately in the serial run, so
        # the budget splits statically: one dedicated slot per failed
        # array, zero cross-array timing dependence.
        reason = (
            f"{len(failed)} rebuild job(s) fit the admission budget "
            f"({scenario.admission}) — one slot per failed array, every "
            "shard its own group"
        )
        coupled: set[int] = set()
    else:
        reason = (
            f"{len(failed)} rebuild jobs exceed the admission budget "
            f"({scenario.admission}) — FIFO queueing couples all failed "
            "arrays into one group"
        )
        coupled = set(failed)
        groups.append(
            ShardGroup(
                arrays=tuple(failed),
                failures=tuple(by_array[a] for a in failed),
                admission_slots=scenario.admission,
            )
        )
    for a in range(n):
        if a in coupled:
            continue
        ev = by_array.get(a)
        groups.append(
            ShardGroup(
                arrays=(a,),
                failures=(ev,) if ev is not None else (),
                admission_slots=1 if ev is not None else 0,
            )
        )
    groups.sort(key=lambda g: g.arrays[0])
    fallback = len(groups) == 1
    if fallback and not coupled:
        # One group without coupling = a one-shard fleet; the
        # decoupling rationale above would read nonsensically here.
        reason = (
            "a single-shard fleet is one execution group — nothing to "
            "run in parallel"
        )
    return GroupPartition(
        groups=tuple(groups),
        serial_fallback=fallback,
        reason=reason,
    )


def _serial_reshape(scenario: FleetScenario, reason: str) -> GroupPartition:
    return GroupPartition(
        groups=(
            ShardGroup(
                arrays=tuple(range(scenario.shards)),
                failures=tuple(scenario.failures),
                admission_slots=scenario.admission,
                migration_volumes=tuple(),
            ),
        ),
        serial_fallback=True,
        reason=reason,
    )


def _partition_reshape(scenario: FleetScenario) -> GroupPartition:
    """Decompose a reshape scenario into migration components plus
    singleton healthy groups (see the module docstring for why the
    components are exact)."""
    if scenario.failures:
        return _serial_reshape(
            scenario,
            "a reshape alongside failures shares the admission budget "
            "with rebuilds — the whole fleet is one group",
        )
    # The move graph is a pure function of the shard map (same seed /
    # placement / volume count), so the partition can plan it on a
    # throwaway routing-only fleet.
    plan = plan_migration(scenario_fleet(scenario), scenario.reshape_to)
    if not plan.moves:
        # Nothing moves: the reshape is a no-op at serve time, but a
        # coordinator must still exist to report convergence — keep the
        # serial path for this degenerate case.
        return _serial_reshape(
            scenario, "the reshape moves no volumes — nothing to split"
        )
    dests = {m.dest for m in plan.data_moves}
    if len(dests) > scenario.admission:
        return _serial_reshape(
            scenario,
            f"{len(dests)} copy destinations exceed the admission "
            f"budget ({scenario.admission}) — FIFO queueing couples "
            "every component",
        )
    # Union-find over each move's (source, dest) edge — copies sharing
    # an array share disk queues and mirror hooks, so they must run in
    # one worker.
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in plan.moves:
        parent[find(m.source)] = find(m.dest)
    comps: dict[int, list] = {}
    for m in plan.moves:
        comps.setdefault(find(m.source), []).append(m)
    involved: set[int] = set()
    groups: list[ShardGroup] = []
    for moves in comps.values():
        arrays = sorted({a for m in moves for a in (m.source, m.dest)})
        involved.update(arrays)
        groups.append(
            ShardGroup(
                arrays=tuple(arrays),
                failures=(),
                admission_slots=len(
                    {m.dest for m in moves if len(m.lbas)}
                ),
                migration_volumes=tuple(
                    sorted(m.volume for m in moves)
                ),
            )
        )
    for a in range(scenario.shards):
        if a not in involved:
            groups.append(ShardGroup(arrays=(a,)))
    groups.sort(key=lambda g: g.arrays[0])
    if len(groups) == 1:
        return _serial_reshape(
            scenario,
            "the reshape's move graph couples every array into one "
            "component — nothing to run in parallel",
        )
    return GroupPartition(
        groups=tuple(groups),
        serial_fallback=False,
        reason=(
            f"the reshape's move graph splits into "
            f"{len(comps)} independent component(s) "
            f"({len(dests)} copy destination(s) fit the admission "
            f"budget {scenario.admission}, so the shared gate never "
            "queues and the copy budget partitions statically)"
        ),
    )


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GroupTask:
    """One shard group's work order — the single record the grouped
    runner hands an executor, in-process or through the worker pool
    (it pickles, so spawn workers need nothing else).

    The trace source is exactly one of three:

    * a **migration component** (``group.migration_volumes`` set): the
      worker regenerates the synthetic stream and keeps the traffic the
      static routing table sends to its arrays;
    * **windows** (``route`` set): each window is filtered to the
      group's arrays through the static table — the scenario's own
      :class:`StreamWindows`, or, with ``segment`` set, a submitted
      stream packed into shared memory (``specs`` = its times /
      is_read / lbas array specs);
    * **compiled slices** (otherwise): the group's pre-routed
      :class:`CompiledTrace` slices packed into shared memory
      (``specs`` = one six-array spec tuple per shard).

    Attributes:
        scenario: the scenario the group belongs to.
        group: the group's arrays, failures and admission share.
        interval_ms: metrics bucket width when the run is instrumented.
        segment: shared-memory segment holding the trace source.
        specs: array specs inside ``segment`` (see above).
        route: the parent fleet's static routing table and address
            geometry (windowed groups only).
    """

    scenario: FleetScenario
    group: ShardGroup
    interval_ms: float | None = None
    segment: str | None = None
    specs: tuple = ()
    route: _ShardRoute | None = None

    def recorder(self) -> MetricsRecorder | None:
        """A fresh worker-local recorder when the run is instrumented."""
        if self.interval_ms is None:
            return None
        return MetricsRecorder(self.interval_ms)


@dataclass
class GroupResult:
    """One group's simulation outcome — everything the merge needs.
    Each shard crosses back as one :class:`~repro.service.fleet.ShardTally`
    whose latency is already reduced to constant-size states, never raw
    samples; the merge folds them as the serial report folds its own,
    so summaries match it bit for bit.

    Attributes:
        arrays: global shard ids (ascending, mirrors the group spec).
        tallies: one tally per array (group order): routed requests,
            latency states, per-disk IOs, engine label and executor
            (the engine is ``None`` for a shard that never ran one).
        duration_ms: this group's makespan on its own clock.
        outcomes: completed rebuilds (global array ids, completion
            order).
        wall_s: worker wall-clock for the group (build + simulate).
        migrations: completed volume moves this group's coordinator
            executed (global ids, completion order).
        obs: the worker's :class:`repro.obs.MetricsRecorder` when the
            run is instrumented (the parent absorbs it), else ``None``.
    """

    arrays: tuple[int, ...]
    tallies: list[ShardTally]
    duration_ms: float
    outcomes: list[RebuildOutcome]
    wall_s: float
    migrations: list[VolumeMigrationOutcome] = field(default_factory=list)
    obs: MetricsRecorder | None = None


@dataclass
class _LocalFleet:
    """Duck-typed stand-in for :class:`Fleet` inside a worker — just
    the surface :class:`FailureOrchestrator` drives (controllers on one
    clock, the served layout, the shard count)."""

    controllers: list[ArrayController]
    sim: Simulator
    layout: object

    @property
    def shards(self) -> int:
        return len(self.controllers)


def _group_result(
    task: GroupTask,
    t0: float,
    controllers: list[ArrayController],
    rec: MetricsRecorder | None,
    duration: float,
    tallies: list[ShardTally],
    *,
    outcomes: list[RebuildOutcome],
    migrations: list[VolumeMigrationOutcome] | None = None,
) -> GroupResult:
    """Package a finished group (``controllers`` and ``tallies`` in
    group order), recording each shard's queue-delay stat when
    instrumented."""
    arrays = task.group.arrays
    if rec is not None:
        for gid, ctrl in zip(arrays, controllers):
            rec.set_stat(
                gid,
                "queue_delay_ms",
                sum(d.total_queue_delay for d in ctrl.disks),
            )
    return GroupResult(
        arrays=arrays,
        tallies=tallies,
        duration_ms=duration,
        outcomes=outcomes,
        wall_s=time.perf_counter() - t0,
        migrations=migrations or [],
        obs=rec,
    )


def _execute_group(task: GroupTask, source) -> GroupResult:
    """Run one plain group's sub-fleet over its trace source: the
    group's pre-routed :class:`CompiledTrace` slices (compiled once in
    the parent — workers never regenerate the fleet stream), or, when
    ``task.route`` is set, a re-iterable window source filtered to the
    group's arrays through that static table (the scenario's
    :class:`StreamWindows` regenerated worker-side, or
    :class:`repro.sim.compile.ArrayWindows` over shared-memory views of
    a submitted stream), so peak memory stays one window per shard.

    The group's controllers sit on a fresh clock, seeded by *global*
    shard id exactly as the serial fleet seeds them; a local recorder
    keyed by global shard id makes the parent's absorb a pure placement
    merge; and the group's failure orchestrator is armed with its
    admission share.  The shard-set engine gate of ``repro.sim``
    (:func:`repro.sim.compile._execute_shards`,
    :func:`repro.sim.stream._execute_shard_windows`) then runs the
    traffic.  The serial fleet takes the fastest engines only when its
    shared clock is idle at serve time — when the scenario arms no
    failure and no reshape — so every group of a scenario that arms
    either passes ``fleet_busy``: a group's own clock may be idle while
    another group rebuilds.  The gate then decides per shard, exactly
    as on the serial clock: a shard whose failure this group armed runs
    on the event heap, every other shard replays the heap's
    serialization on the exact core under the heap's labels.  The gate
    drains the clock itself (failures past the last completion
    included), so the merged report equals the serial one exactly.
    """
    t0 = time.perf_counter()
    sc, arrays = task.scenario, task.group.arrays
    sim = Simulator()
    layout = get_layout(sc.v, sc.k)
    controllers = [
        ArrayController(
            layout,
            sim=sim,
            dataplane=sc.verify_data,
            seed=sc.seed + gid,
            write_policy=sc.write_policy,
        )
        for gid in arrays
    ]
    rec = task.recorder()
    for gid, ctrl in zip(arrays, controllers):
        ctrl.obs_shard = gid
        if rec is not None:
            ctrl.obs = rec
    orchestrator = None
    if task.group.failures:
        local_index = {gid: i for i, gid in enumerate(arrays)}
        shim = _LocalFleet(controllers=controllers, sim=sim, layout=layout)
        orchestrator = FailureOrchestrator(
            shim,  # type: ignore[arg-type] - duck-typed Fleet surface
            tuple(
                replace(ev, array=local_index[ev.array])
                for ev in task.group.failures
            ),
            admission=task.group.admission_slots,
            parallelism=sc.rebuild_parallelism,
        )
        orchestrator.arm()
    fleet_busy = bool(sc.failures) or sc.reshape_to is not None
    if task.route is None:
        _execute_shards(controllers, source, fleet_busy=fleet_busy)
        scheduled = [t.n for t in source]
        # Fresh controllers: every sample is this serve's.
        accs = [
            {kind: st for kind, st in ctrl.latency.items() if st.count}
            for ctrl in controllers
        ]
    else:
        accs = [{} for _ in arrays]  # one kind -> digest map per shard
        scheduled, _ = _execute_shard_windows(
            controllers, task.route, source, accs, fleet_busy=fleet_busy
        )
    outcomes = []
    if orchestrator is not None:
        outcomes = [
            replace(o, array=arrays[o.array]) for o in orchestrator.outcomes
        ]
    return _group_result(
        task,
        t0,
        controllers,
        rec,
        sim.now,
        [_tally(*shard) for shard in zip(controllers, scheduled, accs)],
        outcomes=outcomes,
    )


def _execute_migration_group(task: GroupTask) -> GroupResult:
    """Run one migration component to completion (worker side).

    The worker builds a full-size fleet (controller construction is
    deterministic per global shard id, and arrays outside the
    component stay idle — zero events), attaches a coordinator
    filtered to the component's moves with its static share of the
    copy budget, and serves only the traffic the static routing table
    sends to the component's arrays, through the fleet's own serve
    (:meth:`Fleet.serve_stream`, or :meth:`Fleet.serve_windows`, whose
    window router the live migration selects).  Because the component
    is closed under the move graph, every diverted request, mirror
    write, and copy IO lands inside it — the same events the serial
    run produces on these arrays, in the same per-shard order — and
    the report's tallies for the component's arrays are the serial
    run's.
    """
    t0 = time.perf_counter()
    scenario, group = task.scenario, task.group
    fleet = scenario_fleet(scenario, dataplane=scenario.verify_data)
    coordinator = MigrationCoordinator(
        fleet,
        scenario.reshape_to,
        at_ms=scenario.reshape_time(),
        admission_controller=AdmissionController(
            max(1, group.admission_slots)
        ),
        copy_parallelism=scenario.copy_parallelism,
        volumes=group.migration_volumes,
    )
    rec = task.recorder()
    if rec is not None:
        # The worker's fleet is full-size, so shard ids are already
        # global; only the group's arrays see traffic (the keep filter
        # below), so the recorder state stays disjoint across workers.
        fleet.attach_recorder(rec)
    coordinator.arm()
    # The static routing table's share of the component: moving volumes
    # route to their source array until cutover, and the source is in
    # the component, so this keeps every request the worker must see.
    keep = np.isin(fleet.volume_route(), group.arrays)

    def kept(times, is_read, lbas):
        mask = keep[lbas // fleet.volume_units]
        return times[mask], is_read[mask], lbas[mask]

    workload, horizon = scenario.workload(), scenario.duration_ms
    if scenario.window_size is None:
        stream = generate_request_stream(workload, horizon, fleet.capacity)
        report = fleet.serve_stream(*kept(*stream))
    else:
        windows = StreamWindows(
            workload, horizon, fleet.capacity, window_size=scenario.window_size
        )
        report = fleet.serve_windows(kept(*window) for window in windows)
    return _group_result(
        task,
        t0,
        [fleet.controllers[a] for a in group.arrays],
        rec,
        fleet.sim.now,
        [report.tallies[a] for a in group.arrays],
        outcomes=[],
        migrations=list(coordinator.outcomes),
    )


# ----------------------------------------------------------------------
# Merge + runner
# ----------------------------------------------------------------------


def _merge_results(
    scenario: FleetScenario,
    results: list[GroupResult],
) -> tuple[
    FleetReport,
    tuple[RebuildOutcome, ...],
    tuple[VolumeMigrationOutcome, ...],
]:
    """Fold per-group results into one fleet report.

    Each :class:`~repro.service.fleet.ShardTally` is placed by global
    shard id and the tallies go through the serial fleet's own fold,
    so float reductions (means) agree bit for bit.  A reshape
    scenario's report covers ``reshape_to`` shards (reshape-born shards
    a group didn't touch stay zero rows, matching the serial pads);
    migration outcomes merge sorted by volume id — the canonical order
    the report serializes them in.
    """
    n = max(scenario.shards, scenario.reshape_to or 0)
    tallies = [
        ShardTally(0, {}, [0] * scenario.v, None, None) for _ in range(n)
    ]
    duration = 0.0
    outcomes: list[RebuildOutcome] = []
    migrations: list[VolumeMigrationOutcome] = []
    for res in results:
        duration = max(duration, res.duration_ms)
        outcomes.extend(res.outcomes)
        migrations.extend(res.migrations)
        for gid, tally in zip(res.arrays, res.tallies):
            tallies[gid] = tally
    return (
        _fold_report(tallies, duration),
        tuple(sorted(outcomes, key=lambda o: o.array)),
        tuple(sorted(migrations, key=lambda m: m.volume)),
    )


@dataclass(frozen=True)
class ParallelExecution:
    """How a parallel run actually executed (metadata only — everything
    here may differ between two equal-report runs, which is why
    :func:`canonical_payload` drops it before equality checks).

    Attributes:
        requested_workers: the ``workers`` argument (``None`` = auto).
        workers: processes actually used (1 = in-process).
        cpu_count: :func:`available_cpus` at run time.
        mp_context: multiprocessing start method (``None`` in-process).
        serial_fallback: True when the run used the serial path.
        fallback_reason: partition reason when it did.
        groups: per-group execution rows (arrays, slots, failure count,
            group makespan, worker wall time).
        admission_partition: recorded budget split (group index →
            slots).
    """

    requested_workers: int | None
    workers: int
    cpu_count: int
    mp_context: str | None
    serial_fallback: bool
    fallback_reason: str | None
    groups: tuple[dict, ...]
    admission_partition: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready execution metadata."""
        return {
            "requested_workers": self.requested_workers,
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "mp_context": self.mp_context,
            "serial_fallback": self.serial_fallback,
            "fallback_reason": self.fallback_reason,
            "groups": [dict(g) for g in self.groups],
            "admission_partition": {
                str(k): v for k, v in sorted(self.admission_partition.items())
            },
        }


@dataclass(frozen=True)
class ParallelScenarioRun:
    """A parallel run's outcome: the scenario report (identical in
    content to the serial runner's) plus execution metadata."""

    report: FleetScenarioReport
    execution: ParallelExecution

    def to_dict(self) -> dict:
        """The serial report payload plus a ``parallel`` section.

        ``serial_fallback``/``fallback_reason`` are ALSO surfaced at the
        payload's top level: a ``--workers N`` run that silently
        downgraded to serial used to be discoverable only by digging
        into the ``parallel`` metadata, so dashboards (and the CLI
        smoke gate) never noticed.  Top-level placement makes the
        downgrade part of the report summary itself.
        """
        payload = self.report.to_dict()
        payload["serial_fallback"] = self.execution.serial_fallback
        payload["fallback_reason"] = self.execution.fallback_reason
        payload["parallel"] = self.execution.to_dict()
        return payload


_VOLATILE_KEYS = frozenset(
    {
        "wall_s",
        "parallel",
        "serial_fallback",
        "fallback_reason",
        "runtime",
        "executor_per_shard",
    }
)


def canonical_payload(payload: dict) -> dict:
    """A report payload with run-to-run-volatile fields removed: wall
    clock times (``wall_s`` at any depth), the ``parallel``
    execution-metadata section, the warm runtime's ``runtime`` stats
    section (cache hits and pool reuse are properties of the serving
    session, not of the report), and ``executor_per_shard`` (which
    executor replayed each shard's engine serialization).  Two runs of
    the same scenario — serial, ``workers=1``, ``workers=N``, cold or
    warm — must produce *identical* canonical payloads; this is the
    merge-equality gate the tests and ``make smoke-parallel`` check
    with ``json.dumps(..., sort_keys=True)`` string comparison.
    """

    def strip(node):
        if isinstance(node, dict):
            return {
                k: strip(v)
                for k, v in node.items()
                if k not in _VOLATILE_KEYS
            }
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def run_fleet_scenario_parallel(
    scenario: FleetScenario,
    workers: int | None = None,
    *,
    mp_context: str = "auto",
    recorder=None,
) -> ParallelScenarioRun:
    """Run a scenario across worker processes, one per shard group.

    This is the grouped runner of :class:`repro.service.WarmRuntime`
    run once, cold: a runtime is opened for the call, serves the
    scenario through its grouped path, and is closed before returning
    (no ``runtime`` stats section, no volatile warm-runtime counters).

    Args:
        scenario: the scenario to run (must be failure/migration
            consistent, exactly as :func:`run_fleet_scenario` requires).
        recorder: optional :class:`repro.obs.MetricsRecorder`.  Workers
            record into local recorders on their own simulated clocks
            (keyed by global shard id) and the parent absorbs them —
            per-shard state is disjoint across groups, so the merged
            recorder renders snapshot rows byte-identical to a serial
            instrumented run's.
        workers: process budget.  ``None`` auto-sizes to
            ``min(groups, available_cpus())``; ``1`` runs the grouped
            pipeline in-process (useful for testing the merge without
            process overhead) — the CLI maps ``--workers 1`` to the
            plain serial runner instead.
        mp_context: multiprocessing start method — ``"auto"`` picks
            ``fork`` where available (cheap) and falls back to
            ``spawn``; pass ``"spawn"``/``"forkserver"`` explicitly to
            exercise those paths (everything shipped to workers is
            spawn-safe).

    Returns:
        A :class:`ParallelScenarioRun` whose report content matches the
        serial runner's for the same scenario.

    Raises:
        ValueError: on inconsistent scenario parameters or a
            non-positive ``workers``.
    """
    from .runtime import WarmRuntime  # the runtime builds on this module

    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # One-shot and cold: the runtime's pool is sized to the groups it
    # runs and shut down, and its segments unlinked, before returning.
    with WarmRuntime(
        scenario, workers=workers or available_cpus(), mp_context=mp_context
    ) as runtime:
        run = runtime._run_grouped(None, recorder)
    return replace(
        run, execution=replace(run.execution, requested_workers=workers)
    )
