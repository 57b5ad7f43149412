"""Scripted fleet scenarios: fleet size + workload mix + failure
schedule + reconfiguration steps → one JSON-ready report.

This is the ``python -m repro serve`` engine.  A
:class:`FleetScenario` pins everything — shard count, layout pair,
offered load, failure schedule, admission knob, grow/shrink step,
placement policy, seeds — so a scenario is a pure function of its
parameters: run it twice, get the same report (the
routing-determinism property the service tests pin).

The run order is the production story end to end:

1. build the fleet (shared clock, registry-cached layout/mapper);
2. conformance-gate the served layouts (Conditions 1-4, for free);
3. generate + route + compile the whole request stream (requests to
   volumes a reshape will move are diverted to the live dispatcher);
4. arm the failure schedule, admission-controlled rebuilds, and the
   grow/shrink migration — rebuilds and volume copies share one
   admission budget;
5. drain the shared event loop;
6. aggregate per-array reports, rebuild outcomes, and migration
   outcomes into the fleet report.

``docs/SCENARIOS.md`` is the cookbook: every field, the JSON report
schema, and worked failure-storm / growth / mixed examples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..sim.compile import ArrayWindows, _check_horizon
from ..sim.disk import DiskParameters
from ..sim.workload import WorkloadConfig
from .autoscale import (
    DEFAULT_AUTOSCALE_WINDOW,
    AutoscaleController,
    AutoscalePolicy,
    AutoscaleSummary,
)
from .conformance import FleetConformance, check_fleet
from .fleet import Fleet, FleetReport
from .migration import MigrationCoordinator, VolumeMigrationOutcome
from .orchestrator import (
    AdmissionController,
    FailureEvent,
    FailureOrchestrator,
    RebuildOutcome,
)

__all__ = [
    "FleetScenario",
    "FleetScenarioReport",
    "default_failure_schedule",
    "run_fleet_scenario",
    "scenario_fleet",
]


def default_failure_schedule(
    shards: int,
    v: int,
    count: int,
    at_ms: float,
    *,
    stagger_ms: float = 0.0,
) -> tuple[FailureEvent, ...]:
    """A ``count``-failure schedule over distinct arrays.

    Failures land on different arrays (the single-parity fault model)
    and different disk indices, at ``at_ms`` (simultaneous — the
    concurrent-rebuild stress case) or staggered by ``stagger_ms``.

    Raises:
        ValueError: if ``count`` exceeds the shard count.
    """
    if count > shards:
        raise ValueError(
            f"cannot schedule {count} single-array failures over "
            f"{shards} shards"
        )
    return tuple(
        FailureEvent(
            time_ms=at_ms + i * stagger_ms, array=i, disk=i % v
        )
        for i in range(count)
    )


@dataclass(frozen=True)
class FleetScenario:
    """Everything that defines one serving scenario.

    Attributes:
        shards: arrays in the fleet at scenario start.
        v / k: layout pair served by every shard.
        duration_ms: workload horizon.
        interarrival_ms: *aggregate* fleet mean interarrival.
        read_fraction / zipf_theta / workload_seed: the synthetic mix.
        failures: the failure schedule (empty = healthy run).
        admission: max concurrent background recovery/migration jobs
            fleet-wide (rebuilds and volume copies share the budget).
        rebuild_parallelism: concurrent stripes per rebuilding array.
        verify_data: attach data planes and verify rebuilds *and*
            migrated volumes bit-for-bit.
        check_conformance: gate the run on Conditions 1-4.
        volumes: logical volumes (default ``16 * shards``).
        placement: :class:`ShardMap` policy (``ring``/``p2c``/
            ``weighted``).
        reshape_to: grow/shrink step — target shard count to migrate
            to mid-run (``None`` = no reconfiguration).
        reshape_at_ms: when the reshape fires (default: a quarter into
            the horizon; refused past the horizon, where the migration
            would run alone after the traffic and stretch the makespan).
        copy_parallelism: concurrent unit copies per migrating volume.
        write_policy: small-write handling on every shard — ``"rmw"``
            (read-modify-write) or ``"write_through"`` (single-phase).
        window_size: requests per streaming window (``None`` =
            materialize the whole stream).  When set, the workload is
            generated, routed, and executed one window at a time
            (:meth:`repro.service.Fleet.serve_windows`) so peak memory
            stays flat at any horizon; the report is byte-identical to
            the materialized run.
        seed: shard-ring / data-plane seed.
        autoscale: optional :class:`AutoscalePolicy` — a control loop
            polls the live metrics on a sim-clock cadence and fires
            grow/shrink migrations on sustained load or imbalance
            (mutually exclusive with ``reshape_to``).  Autoscaled runs
            always serve windowed (``window_size`` or
            :data:`~repro.service.autoscale.DEFAULT_AUTOSCALE_WINDOW`)
            so mid-stream cutovers take effect.
    """

    shards: int = 8
    v: int = 9
    k: int = 3
    duration_ms: float = 1500.0
    interarrival_ms: float = 0.5
    read_fraction: float = 0.7
    zipf_theta: float = 0.0
    workload_seed: int = 42
    failures: tuple[FailureEvent, ...] = ()
    admission: int = 2
    rebuild_parallelism: int = 4
    verify_data: bool = True
    check_conformance: bool = True
    volumes: int | None = None
    placement: str = "ring"
    reshape_to: int | None = None
    reshape_at_ms: float | None = None
    copy_parallelism: int = 4
    write_policy: str = "rmw"
    window_size: int | None = None
    seed: int = 0
    autoscale: AutoscalePolicy | None = None

    def __post_init__(self) -> None:
        # Up front: the default reshape time (and a caller's default
        # failure times) derive from the horizon, and their checks
        # would name the wrong field.
        _check_horizon(self.duration_ms)
        at = self.reshape_at_ms
        if self.reshape_to is not None and at is not None and at > self.duration_ms:
            raise ValueError(
                f"reshape time {at:g} ms is past the {self.duration_ms:g} ms "
                "workload horizon"
            )

    def workload(self) -> WorkloadConfig:
        """The scenario's synthetic workload config."""
        return WorkloadConfig(
            interarrival_ms=self.interarrival_ms,
            read_fraction=self.read_fraction,
            zipf_theta=self.zipf_theta,
            seed=self.workload_seed,
        )

    def reshape_time(self) -> float:
        """Resolved reshape time (default: a quarter in)."""
        return (
            self.reshape_at_ms
            if self.reshape_at_ms is not None
            else self.duration_ms * 0.25
        )


@dataclass(frozen=True)
class FleetScenarioReport:
    """One scenario's full outcome."""

    scenario: FleetScenario
    conformance: FleetConformance | None
    fleet: FleetReport
    rebuilds: tuple[RebuildOutcome, ...]
    migrations: tuple[VolumeMigrationOutcome, ...]
    planned_moves: int
    routing_fingerprint: int
    wall_s: float
    max_concurrent_rebuilds: int = field(default=0)
    autoscale: AutoscaleSummary | None = field(default=None)

    @property
    def all_rebuilt_verified(self) -> bool:
        """Every scheduled failure rebuilt; every rebuilt image
        bit-for-bit correct (vacuously true with no failures)."""
        if len(self.rebuilds) != len(self.scenario.failures):
            return False
        if self.scenario.verify_data:
            return all(o.report.data_verified is True for o in self.rebuilds)
        return all(o.report.data_verified is not False for o in self.rebuilds)

    @property
    def all_migrated_verified(self) -> bool:
        """Every planned volume move completed with zero lost requests
        on the arrays the moves copy between, and (with data planes) a
        bit-for-bit verified copy (vacuously true without a reshape
        step).  Failures never target those arrays (the clash check in
        :func:`run_fleet_scenario`), so a loss there is the
        migration's; a loss elsewhere is the failure's."""
        if self.scenario.reshape_to is None:
            return True
        if len(self.migrations) != self.planned_moves:
            return False
        fleet = self.fleet
        copied = [o for o in self.migrations if o.units_copied]
        for a in {a for o in copied for a in (o.source, o.dest)}:
            done = sum(
                int(s["count"]) for s in fleet.per_shard_latency[a].values()
            )
            if done != fleet.per_shard_scheduled[a]:
                return False
        if self.scenario.verify_data:
            return all(
                o.data_verified is True
                for o in self.migrations
                if o.units_copied
            )
        return all(o.data_verified is not False for o in self.migrations)

    @property
    def all_autoscale_ok(self) -> bool:
        """Every fired autoscale event converged fully verified with
        nothing lost, and the decision log replayed byte-identically
        (vacuously true without an autoscale policy)."""
        return self.autoscale is None or self.autoscale.ok

    @property
    def passed(self) -> bool:
        """Conformance (when checked), full verified recovery, a fully
        verified reconfiguration, and a clean autoscale log."""
        conf_ok = self.conformance is None or self.conformance.passed
        return (
            conf_ok
            and self.all_rebuilt_verified
            and self.all_migrated_verified
            and self.all_autoscale_ok
        )

    def engine_per_shard(self) -> list[str | None]:
        """The execution engine each shard actually used (``None`` for
        shards that never ran an engine, e.g. reshape-born arrays that
        only received dispatched requests)."""
        return list(getattr(self.fleet, "engines", None) or [])

    def executor_per_shard(self) -> list[str | None]:
        """The executor that ran each shard (``event-heap`` /
        ``exact-native`` / ``exact-core`` / ``eager`` / ``solver``) —
        the engine label names a serialization, which ``heap`` and
        ``windowed-pump`` shards may get from either the event heap or
        the exact core (compiled, or the Python reference)."""
        return list(getattr(self.fleet, "executors", None) or [])

    def engine_label(self) -> str | None:
        """One label for the whole run: the common engine when every
        shard agrees, ``"mixed"`` otherwise, ``None`` when no shard ran
        an engine at all."""
        distinct = sorted({e for e in self.engine_per_shard() if e})
        if not distinct:
            return None
        return distinct[0] if len(distinct) == 1 else "mixed"

    def to_dict(self) -> dict:
        """JSON-ready report (the ``repro serve`` output; schema
        documented in ``docs/SCENARIOS.md``)."""
        sc = self.scenario
        return {
            "scenario": {
                "shards": sc.shards,
                "v": sc.v,
                "k": sc.k,
                "duration_ms": sc.duration_ms,
                "interarrival_ms": sc.interarrival_ms,
                "read_fraction": sc.read_fraction,
                "zipf_theta": sc.zipf_theta,
                "workload_seed": sc.workload_seed,
                "admission": sc.admission,
                "rebuild_parallelism": sc.rebuild_parallelism,
                "verify_data": sc.verify_data,
                "volumes": sc.volumes,
                "placement": sc.placement,
                "reshape_to": sc.reshape_to,
                "reshape_at_ms": (
                    sc.reshape_time() if sc.reshape_to is not None else None
                ),
                "copy_parallelism": sc.copy_parallelism,
                "write_policy": sc.write_policy,
                "window_size": sc.window_size,
                "seed": sc.seed,
                "autoscale": (
                    sc.autoscale.to_dict() if sc.autoscale is not None else None
                ),
                "failures": [
                    {"time_ms": f.time_ms, "array": f.array, "disk": f.disk}
                    for f in sc.failures
                ],
            },
            "conformance": (
                self.conformance.to_dict() if self.conformance else None
            ),
            # Engine labels are part of the canonical payload: the
            # parallel runner's groups must pick the exact engines the
            # serial gate picks, and these keys make any divergence a
            # loud report diff instead of a silent perf drift.  (The
            # labels legitimately differ between windowed and
            # materialized serves of the same scenario — the byte
            # identity holds per execution mode.)
            "engine": self.engine_label(),
            "engine_per_shard": self.engine_per_shard(),
            # Volatile (stripped by canonical_payload): a serial and a
            # grouped serve may replay a shard on different executors.
            "executor_per_shard": self.executor_per_shard(),
            "fleet": {
                "shards": self.fleet.shards,
                "scheduled": self.fleet.scheduled,
                "completed": self.fleet.completed,
                "lost_to_failures": self.fleet.lost,
                "duration_ms": self.fleet.duration_ms,
                "throughput_rps": self.fleet.throughput_rps,
                "shard_balance": self.fleet.shard_balance,
                "per_shard_scheduled": self.fleet.per_shard_scheduled,
                "latency": self.fleet.latency,
            },
            # Sorted by array (one rebuild per array) so the section has
            # one canonical order regardless of completion interleaving
            # — the report-equality contract the multi-process runner
            # (`repro.service.parallel`) merges against.
            "rebuilds": [
                {
                    "array": o.array,
                    "failed_disk": o.failed_disk,
                    "failed_at_ms": o.failed_at_ms,
                    "started_at_ms": o.started_at_ms,
                    "admission_delay_ms": o.admission_delay_ms,
                    "duration_ms": o.report.duration_ms,
                    "stripes_rebuilt": o.report.stripes_rebuilt,
                    "data_verified": o.report.data_verified,
                }
                for o in sorted(self.rebuilds, key=lambda o: o.array)
            ],
            "migration": (
                {
                    "target_shards": sc.reshape_to,
                    "planned_moves": self.planned_moves,
                    "completed_moves": len(self.migrations),
                    "units_copied": sum(
                        o.units_copied for o in self.migrations
                    ),
                    "held_requests": sum(
                        o.held_requests for o in self.migrations
                    ),
                    "forwarded_writes": sum(
                        o.forwarded_writes for o in self.migrations
                    ),
                    "zero_lost": self.fleet.lost == 0,
                    "all_verified": self.all_migrated_verified,
                    # Sorted by volume id — canonical order, same
                    # rationale as the rebuilds section.
                    "volumes": [
                        o.to_dict()
                        for o in sorted(self.migrations, key=lambda o: o.volume)
                    ],
                }
                if sc.reshape_to is not None
                else None
            ),
            "autoscale": (
                self.autoscale.to_dict() if self.autoscale is not None else None
            ),
            "max_concurrent_rebuilds": self.max_concurrent_rebuilds,
            "routing_fingerprint": self.routing_fingerprint,
            "all_rebuilt_verified": self.all_rebuilt_verified,
            "all_migrated_verified": self.all_migrated_verified,
            "passed": self.passed,
            "wall_s": self.wall_s,
        }


def _count_windows(recorder, requests: int, window_size: int) -> None:
    """Count a windowed serve's ``window_boundaries`` once, in its
    runner: every window but the last is full, so there are
    ``ceil(requests / window_size)``, however many passes read them."""
    n = -(-requests // window_size)
    if n:
        recorder.count("window_boundaries", n, volatile=True)


def scenario_fleet(
    scenario: FleetScenario, *, dataplane: bool = False
) -> Fleet:
    """The scenario's fleet, built as :func:`run_fleet_scenario` builds
    it — routing-only (no data planes) unless ``dataplane`` is set."""
    return Fleet(
        scenario.shards,
        scenario.v,
        scenario.k,
        volumes=scenario.volumes,
        dataplane=dataplane,
        seed=scenario.seed,
        placement=scenario.placement,
        write_policy=scenario.write_policy,
    )


def run_fleet_scenario(
    scenario: FleetScenario, *, recorder=None, stream=None, precompiled=None
) -> FleetScenarioReport:
    """Run one scenario end to end (see the module docstring for the
    exact order).

    With ``recorder`` (a :class:`repro.obs.MetricsRecorder`), the run
    is instrumented on the simulated clock — the report itself is
    byte-identical either way; the recorder fills with per-shard
    completion-bucketed latency, arrivals, engine labels, rebuild
    progress, and end-of-run queue-delay stats.

    With ``stream`` (a ``(times, is_read, lbas)`` triple of arrays),
    the scenario serves *that* stream instead of generating its own —
    the service front-end's path.  A stream equal to the scenario's
    synthetic workload produces a report canonically identical to the
    batch run.

    With ``precompiled`` (per-shard :class:`repro.sim.CompiledTrace`
    slices, e.g. the warm runtime's cached ``route_stream`` output),
    stream generation and routing are skipped and the traces serve
    directly through :meth:`Fleet.serve_compiled`.  Because routing is
    a pure function of the fleet shape and the stream, the report is
    byte-identical to serving the originating stream — valid only for
    materialized serves (no ``window_size``, no ``reshape_to``, no
    ``autoscale``, whose paths re-route live).

    An ``autoscale`` policy always serves windowed (the window router
    re-routes each window through the live volume table, so cutovers
    the control loop fires mid-stream take effect) and instruments the
    run even without a caller recorder — the loop needs live arrival
    buckets to decide from.

    Raises:
        ValueError: on inconsistent scenario parameters (bad failure
            targets, admission < 1, a failure schedule overlapping the
            arrays a reshape copies between, autoscale combined with a
            static reshape, ...).
    """
    t0 = time.perf_counter()
    policy = scenario.autoscale
    if precompiled is not None:
        if stream is not None:
            raise ValueError(
                "stream and precompiled are mutually exclusive — "
                "precompiled IS the routed stream"
            )
        if (
            scenario.window_size is not None
            or scenario.reshape_to is not None
            or policy is not None
        ):
            raise ValueError(
                "precompiled applies only to materialized serves "
                "without a reshape or autoscale policy — windowed and "
                "reshaping serves route live"
            )
    if policy is not None and scenario.reshape_to is not None:
        raise ValueError(
            "autoscale and a static reshape_to are mutually exclusive — "
            "the control loop owns grow/shrink decisions"
        )
    fleet = scenario_fleet(scenario, dataplane=scenario.verify_data)
    if recorder is None and policy is not None:
        # The loop decides from live arrival buckets; give it a grid
        # exactly one cadence wide when the caller brought no recorder.
        from ..obs import MetricsRecorder

        recorder = MetricsRecorder(policy.cadence_ms, shards=scenario.shards)
    if recorder is not None:
        fleet.attach_recorder(recorder)
    conformance = check_fleet(fleet) if scenario.check_conformance else None

    admission = AdmissionController(scenario.admission)
    orchestrator = FailureOrchestrator(
        fleet,
        scenario.failures,
        admission=scenario.admission,
        parallelism=scenario.rebuild_parallelism,
        admission_controller=admission,
    )
    coordinator = None
    if scenario.reshape_to is not None:
        coordinator = MigrationCoordinator(
            fleet,
            scenario.reshape_to,
            at_ms=scenario.reshape_time(),
            admission_controller=admission,
            copy_parallelism=scenario.copy_parallelism,
        )
        involved = coordinator.plan.arrays_involved()
        clash = sorted(
            {f.array for f in scenario.failures} & involved
        )
        if clash:
            raise ValueError(
                f"failure schedule targets arrays {clash}, which the "
                f"reshape to {scenario.reshape_to} shards copies "
                "between; failures and migrations must touch disjoint "
                "arrays"
            )
        coordinator.arm()
    orchestrator.arm()
    autoscaler = None
    window_size = scenario.window_size
    if policy is not None:
        if window_size is None:
            window_size = DEFAULT_AUTOSCALE_WINDOW
        autoscaler = AutoscaleController(
            fleet,
            policy,
            recorder,
            admission=admission,
            horizon_ms=scenario.duration_ms,
            copy_parallelism=scenario.copy_parallelism,
        )
        autoscaler.arm()
    if precompiled is not None:
        report = fleet.serve_compiled(list(precompiled))
    elif stream is not None:
        times, is_read, lbas = stream
        if window_size is not None:
            report = fleet.serve_windows(
                ArrayWindows(times, is_read, lbas, window_size)
            )
        else:
            report = fleet.serve_stream(
                np.asarray(times, dtype=np.float64),
                np.asarray(is_read, dtype=bool),
                np.asarray(lbas, dtype=np.int64),
            )
    else:
        report = fleet.serve_workload(
            scenario.workload(),
            scenario.duration_ms,
            window_size=window_size,
        )
    # Failures scheduled beyond the last request completion have fired
    # by now (serve drains the shared loop), but guard the empty-stream
    # edge where arming happened with nothing else pending.
    fleet.sim.run()
    if recorder is not None:
        if window_size is not None:
            _count_windows(recorder, report.scheduled, window_size)
        # Cumulative queue delay is a scalar left-fold in per-disk
        # arrival order on every engine path, so this sum is bit-exact
        # across engines, window sizes, and worker counts.
        for s, ctrl in enumerate(fleet.controllers):
            recorder.set_stat(
                s,
                "queue_delay_ms",
                sum(d.total_queue_delay for d in ctrl.disks),
            )

    autoscale_summary = None
    if autoscaler is not None:
        autoscale_summary = autoscaler.summary(
            verify_data=scenario.verify_data,
            # With failures scheduled, lost requests have a legitimate
            # cause outside the autoscaler — don't gate on them.
            lost=report.lost if not scenario.failures else None,
        )
    return FleetScenarioReport(
        scenario=scenario,
        conformance=conformance,
        fleet=report,
        rebuilds=tuple(orchestrator.outcomes),
        migrations=(
            tuple(coordinator.outcomes) if coordinator is not None else ()
        ),
        planned_moves=(
            len(coordinator.plan.moves) if coordinator is not None else 0
        ),
        routing_fingerprint=fleet.shard_map.fingerprint(),
        wall_s=time.perf_counter() - t0,
        max_concurrent_rebuilds=orchestrator.max_concurrent_observed(),
        autoscale=autoscale_summary,
    )
