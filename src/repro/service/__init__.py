"""Sharded multi-array fleet service.

The serving layer over the simulator: a :class:`Fleet` shards logical
volumes across N :class:`repro.sim.ArrayController` arrays on one
shared event clock, routes request streams per shard with a
consistent-hash :class:`ShardMap` (``ring``/``p2c``/``weighted``
placement) and batched compilation, a :class:`FailureOrchestrator`
injects disk failures and schedules admission-controlled concurrent
rebuilds, and a :class:`MigrationCoordinator` grows or shrinks the
fleet live — copying volumes bit-for-bit between arrays under load
with zero lost requests.  :mod:`repro.service.scenario` scripts whole
runs (``python -m repro serve``), and :func:`check_fleet` gates every
scenario on the paper's Conditions 1-4.

Serve a stream through a small fleet:

>>> from repro.service import Fleet, check_fleet
>>> from repro.sim import WorkloadConfig
>>> fleet = Fleet(4, 9, 3, seed=0)
>>> check_fleet(fleet).passed
True
>>> report = fleet.serve_workload(
...     WorkloadConfig(interarrival_ms=2.0, seed=1), duration_ms=100.0)
>>> report.scheduled == report.completed    # healthy fleet: no loss
True

Placement is deterministic and resizable — the migration work list of
a grow is a pure function of the seed:

>>> from repro.service import ShardMap
>>> m = ShardMap(4, 64, seed=0)
>>> grown = m.reshaped(8)
>>> moved = m.moved_volumes(grown)
>>> 0 < len(moved) < 64                     # some volumes move, not all
True

Grow a fleet live, with every moved volume verified:

>>> from repro.service import MigrationCoordinator
>>> fleet = Fleet(2, 9, 3, seed=0, dataplane=True)
>>> co = MigrationCoordinator(fleet, 4, at_ms=20.0)
>>> co.arm()
>>> rep = fleet.serve_workload(
...     WorkloadConfig(interarrival_ms=2.0, seed=1), duration_ms=120.0)
>>> fleet.sim.run()                         # drain any trailing copies
>>> co.done and co.all_verified and rep.lost == 0
True

These doctests run in ``make check`` (``make doctest``).
"""

from .autoscale import (
    AutoscaleController,
    AutoscaleDecision,
    AutoscalePolicy,
    AutoscaleSummary,
    MetricSnapshot,
    PolicyState,
    decide,
    parse_decision_jsonl,
    render_decision_jsonl,
    replay_decisions,
)
from .conformance import FleetConformance, check_fleet
from .fleet import Fleet, FleetReport
from .frontend import ServiceFrontend, run_frontend
from .migration import (
    MigrationCoordinator,
    MigrationPlan,
    VolumeMigrationOutcome,
    VolumeMove,
    plan_migration,
)
from .orchestrator import (
    AdmissionController,
    FailureEvent,
    FailureOrchestrator,
    RebuildOutcome,
)
from .parallel import (
    GroupPartition,
    ParallelScenarioRun,
    ShardGroup,
    canonical_payload,
    partition_scenario,
    run_fleet_scenario_parallel,
)
from .runtime import RuntimeStats, WarmRuntime, WorkerPool, leaked_segments
from .scenario import (
    FleetScenario,
    FleetScenarioReport,
    default_failure_schedule,
    run_fleet_scenario,
)
from .sharding import PLACEMENT_POLICIES, ShardMap, splitmix64

__all__ = [
    "AutoscaleController",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "AutoscaleSummary",
    "MetricSnapshot",
    "PolicyState",
    "decide",
    "parse_decision_jsonl",
    "render_decision_jsonl",
    "replay_decisions",
    "ServiceFrontend",
    "run_frontend",
    "FleetConformance",
    "check_fleet",
    "Fleet",
    "FleetReport",
    "MigrationCoordinator",
    "MigrationPlan",
    "VolumeMigrationOutcome",
    "VolumeMove",
    "plan_migration",
    "AdmissionController",
    "FailureEvent",
    "FailureOrchestrator",
    "RebuildOutcome",
    "GroupPartition",
    "ParallelScenarioRun",
    "ShardGroup",
    "canonical_payload",
    "partition_scenario",
    "run_fleet_scenario_parallel",
    "RuntimeStats",
    "WarmRuntime",
    "WorkerPool",
    "leaked_segments",
    "FleetScenario",
    "FleetScenarioReport",
    "default_failure_schedule",
    "run_fleet_scenario",
    "PLACEMENT_POLICIES",
    "ShardMap",
    "splitmix64",
]
