"""Multi-core fleet execution: group partitioning, process workers,
and the deterministic report merge.

The contract under test: for any scenario, ``workers=N`` produces a
report byte-identical to ``workers=1`` (and to the plain serial
runner) once :func:`canonical_payload` strips the wall-clock and
execution-metadata fields — checked as ``json.dumps(...,
sort_keys=True)`` string equality, the strongest form short of
comparing raw bytes on disk.
"""

import json
import pickle
import random

import pytest

from repro.obs import MetricsRecorder, build_rows, prometheus_text
from repro.obs import render_metrics_jsonl
from repro.service import (
    FailureEvent,
    FleetScenario,
    canonical_payload,
    default_failure_schedule,
    partition_scenario,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.service.parallel import _VOLATILE_KEYS, ShardGroup
from repro.sim.events import Simulator


def _canon(payload: dict) -> str:
    return json.dumps(canonical_payload(payload), sort_keys=True)


def replace_scenario(sc: FleetScenario, **overrides) -> FleetScenario:
    from dataclasses import replace

    return replace(sc, **overrides)


def _scenario(**overrides) -> FleetScenario:
    base = dict(
        shards=4,
        v=9,
        k=3,
        duration_ms=300.0,
        interarrival_ms=1.0,
        read_fraction=0.7,
        failures=(),
        admission=2,
        verify_data=True,
    )
    base.update(overrides)
    return FleetScenario(**base)


HEALTHY = _scenario()
FAILURES = _scenario(failures=default_failure_schedule(4, 9, 2, 80.0))
COUPLED = _scenario(
    shards=5, failures=default_failure_schedule(5, 9, 3, 80.0)
)
MIGRATION = _scenario(duration_ms=400.0, reshape_to=8)


class TestPartition:
    def test_healthy_fleet_fully_decouples(self):
        part = partition_scenario(HEALTHY)
        assert not part.serial_fallback
        assert [g.arrays for g in part.groups] == [(0,), (1,), (2,), (3,)]
        assert all(g.failures == () for g in part.groups)
        assert part.admission_partition() == {}

    def test_admitted_failures_get_dedicated_slots(self):
        """failures <= admission: every rebuild starts instantly in the
        serial run too, so the budget splits one slot per failed array
        and the partition records the split."""
        part = partition_scenario(FAILURES)
        assert not part.serial_fallback
        by_arrays = {g.arrays: g for g in part.groups}
        assert by_arrays[(0,)].admission_slots == 1
        assert by_arrays[(1,)].admission_slots == 1
        assert by_arrays[(2,)].admission_slots == 0
        assert len(by_arrays[(0,)].failures) == 1
        assert sum(part.admission_partition().values()) == 2

    def test_admission_pressure_couples_failed_arrays(self):
        """failures > admission: FIFO queueing orders rebuilds globally,
        so all failed arrays must co-locate in one group carrying the
        whole budget."""
        part = partition_scenario(COUPLED)
        assert not part.serial_fallback
        groups = {g.arrays: g for g in part.groups}
        assert (0, 1, 2) in groups
        assert groups[(0, 1, 2)].admission_slots == 2
        assert len(groups[(0, 1, 2)].failures) == 3
        assert groups[(3,)].failures == ()
        assert groups[(4,)].failures == ()

    def test_migration_collapses_to_serial_fallback(self):
        part = partition_scenario(MIGRATION)
        assert part.serial_fallback
        assert len(part.groups) == 1
        assert part.groups[0].arrays == (0, 1, 2, 3)

    def test_single_shard_is_serial(self):
        part = partition_scenario(_scenario(shards=1))
        assert part.serial_fallback

    def test_groups_cover_every_shard_exactly_once(self):
        for sc in (HEALTHY, FAILURES, COUPLED):
            part = partition_scenario(sc)
            seen = [a for g in part.groups for a in g.arrays]
            assert sorted(seen) == list(range(sc.shards))
            assert len(seen) == len(set(seen))

    def test_validation_matches_serial_runner(self):
        from repro.service import FailureEvent

        with pytest.raises(ValueError, match="targets array"):
            partition_scenario(
                _scenario(failures=(FailureEvent(10.0, 9, 0),))
            )
        with pytest.raises(ValueError, match="targets disk"):
            partition_scenario(
                _scenario(failures=(FailureEvent(10.0, 0, 99),))
            )
        with pytest.raises(ValueError, match="negative"):
            partition_scenario(
                _scenario(failures=(FailureEvent(-1.0, 0, 0),))
            )
        with pytest.raises(ValueError, match="two failures"):
            partition_scenario(
                _scenario(
                    failures=(
                        FailureEvent(10.0, 0, 0),
                        FailureEvent(20.0, 0, 1),
                    )
                )
            )
        with pytest.raises(ValueError, match="admission"):
            partition_scenario(_scenario(admission=0))


class TestReportEquality:
    """workers=N == workers=1 == serial, byte for byte (canonical)."""

    @pytest.mark.parametrize(
        "scenario", [HEALTHY, FAILURES, COUPLED], ids=["healthy", "failures", "coupled"]
    )
    def test_grouped_in_process_matches_serial(self, scenario):
        serial = run_fleet_scenario(scenario).to_dict()
        grouped = run_fleet_scenario_parallel(scenario, workers=1).to_dict()
        assert _canon(serial) == _canon(grouped)

    @pytest.mark.parametrize(
        "scenario", [HEALTHY, FAILURES], ids=["healthy", "failures"]
    )
    def test_process_workers_match_serial(self, scenario):
        serial = run_fleet_scenario(scenario).to_dict()
        par = run_fleet_scenario_parallel(scenario, workers=2).to_dict()
        assert _canon(serial) == _canon(par)

    def test_coupled_admission_delay_reproduced(self):
        """The third rebuild queues behind the admission budget; the
        grouped run must reproduce the exact queueing delay."""
        serial = run_fleet_scenario(COUPLED)
        par = run_fleet_scenario_parallel(COUPLED, workers=2)
        assert _canon(serial.to_dict()) == _canon(par.to_dict())
        delays = sorted(
            o.admission_delay_ms for o in par.report.rebuilds
        )
        assert delays[-1] > 0.0  # queueing actually happened

    def test_read_only_solver_path_matches(self):
        sc = _scenario(read_fraction=1.0)
        serial = run_fleet_scenario(sc).to_dict()
        par = run_fleet_scenario_parallel(sc, workers=2).to_dict()
        assert _canon(serial) == _canon(par)

    def test_migration_scenario_falls_back_and_matches(self):
        serial = run_fleet_scenario(MIGRATION).to_dict()
        run = run_fleet_scenario_parallel(MIGRATION, workers=4)
        assert run.execution.serial_fallback
        assert run.execution.fallback_reason
        assert _canon(serial) == _canon(run.to_dict())
        assert run.report.all_migrated_verified

    def test_spawn_context_is_safe(self):
        """The spawn start method re-imports everything in the worker —
        the strictest serialization test (no inherited state at all)."""
        sc = _scenario(
            shards=3,
            duration_ms=200.0,
            interarrival_ms=2.0,
            failures=default_failure_schedule(3, 9, 1, 50.0),
        )
        serial = run_fleet_scenario(sc).to_dict()
        par = run_fleet_scenario_parallel(
            sc, workers=2, mp_context="spawn"
        ).to_dict()
        assert _canon(serial) == _canon(par)

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            run_fleet_scenario_parallel(HEALTHY, workers=0)

    def test_stream_generated_once_in_parent(self, monkeypatch):
        """Workers receive pre-routed compiled slices — the fleet
        stream is generated exactly once, in the parent.  (This was the
        bug: every worker regenerated and re-routed the FULL stream,
        making the parallel path do O(groups x stream) redundant
        work.)"""
        import repro.service.runtime as runtime_mod

        calls = []
        real = runtime_mod.generate_request_stream

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "generate_request_stream", counting)
        serial = run_fleet_scenario(FAILURES).to_dict()
        grouped = run_fleet_scenario_parallel(
            FAILURES, workers=1
        ).to_dict()
        assert len(calls) == 1
        assert _canon(serial) == _canon(grouped)


#: The reshape whose move graph splits: 12 volumes over 4 shards grown
#: to 6 decomposes into two migration components plus one idle array —
#: the config the parallel-reshape acceptance gate pins.
RESHAPE_SPLIT = _scenario(
    duration_ms=400.0, reshape_to=6, volumes=12, seed=9
)


class TestReshapeComponents:
    """Reshape scenarios split into connected components of the move
    graph — each component a worker-runnable group with a static slice
    of the copy budget — instead of always collapsing to serial."""

    def test_move_graph_components_partition(self):
        part = partition_scenario(RESHAPE_SPLIT)
        assert not part.serial_fallback
        by_arrays = {g.arrays: g for g in part.groups}
        # Two components (each closed under its copy edges) plus the
        # one array no move touches.
        assert set(by_arrays) == {(0, 3, 4), (1,), (2, 5)}
        assert by_arrays[(0, 3, 4)].migration_volumes == (6, 11)
        assert by_arrays[(2, 5)].migration_volumes == (7,)
        assert by_arrays[(1,)].migration_volumes == ()
        # One copy destination per component -> one admission slot each.
        assert by_arrays[(0, 3, 4)].admission_slots == 1
        assert by_arrays[(2, 5)].admission_slots == 1
        assert by_arrays[(1,)].admission_slots == 0

    def test_admission_pressure_falls_back(self):
        """More copy destinations than admission slots: FIFO queueing
        at the shared gate couples every component."""
        part = partition_scenario(replace_scenario(RESHAPE_SPLIT, admission=1))
        assert part.serial_fallback
        assert "admission" in part.reason

    def test_single_component_falls_back(self):
        """The default 4->6 grow (64 volumes) couples every array into
        one component — the documented serial collapse."""
        part = partition_scenario(
            _scenario(duration_ms=400.0, reshape_to=6)
        )
        assert part.serial_fallback
        assert "one" in part.reason and "component" in part.reason

    def test_failures_alongside_reshape_fall_back(self):
        from repro.service import FailureEvent

        part = partition_scenario(
            replace_scenario(
                RESHAPE_SPLIT, failures=(FailureEvent(10.0, 1, 0),)
            )
        )
        assert part.serial_fallback
        assert "rebuild" in part.reason

    def test_coordinator_volume_filter_validated(self):
        from repro.service import Fleet
        from repro.service.migration import MigrationCoordinator

        fleet = Fleet(4, 9, 3, volumes=12, dataplane=False, seed=9)
        with pytest.raises(ValueError, match="unmoved"):
            MigrationCoordinator(fleet, 6, at_ms=10.0, volumes=(0,))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_reshape_matches_serial(self, workers):
        serial = run_fleet_scenario(RESHAPE_SPLIT)
        run = run_fleet_scenario_parallel(RESHAPE_SPLIT, workers=workers)
        assert not run.execution.serial_fallback
        assert _canon(serial.to_dict()) == _canon(run.to_dict())
        assert run.report.all_migrated_verified
        assert len(run.report.migrations) == run.report.planned_moves

    @pytest.mark.parametrize("window", [64, 512])
    def test_parallel_reshape_windowed_matches_serial(self, window):
        """Windowed workers regenerate and filter the stream per
        component; the merged report must still match the serial
        windowed run byte for byte.  Shards 4 and 5, which the reshape
        bears, run no pump at any window (one window may cover the
        whole 396-request stream): no engine label, but the requests
        the migration dispatches there."""
        sc = replace_scenario(RESHAPE_SPLIT, window_size=window)
        serial = run_fleet_scenario(sc)
        assert serial.engine_per_shard() == ["windowed-pump"] * 4 + [None] * 2
        assert all(n > 0 for n in serial.fleet.per_shard_scheduled[4:])
        for workers in (1, 2):
            run = run_fleet_scenario_parallel(sc, workers=workers)
            assert not run.execution.serial_fallback
            assert run.report.engine_per_shard() == serial.engine_per_shard()
            assert _canon(serial.to_dict()) == _canon(run.to_dict())
            assert run.report.all_migrated_verified

    @pytest.mark.parametrize("window", [None, 64, 512])
    def test_migration_groups_record_as_serial(self, window):
        """Migration groups with a recorder: on 1 and 2 workers the
        metrics JSONL and Prometheus text equal the serial run's byte
        for byte, and each window of the stream counts once."""
        sc = replace_scenario(RESHAPE_SPLIT, window_size=window)
        outputs = []
        for workers in (None, 1, 2):
            rec = MetricsRecorder(50.0, shards=sc.shards)
            if workers is None:
                report = run_fleet_scenario(sc, recorder=rec)
            else:
                run = run_fleet_scenario_parallel(
                    sc, workers=workers, recorder=rec
                )
                assert not run.execution.serial_fallback
                assert len(run.execution.groups) == 3
                report = run.report
            boundaries = rec.counters(volatile=True).get("window_boundaries")
            if window is None:
                assert boundaries is None
            else:
                assert boundaries == -(-report.fleet.scheduled // window)
            outputs.append(
                (render_metrics_jsonl(build_rows(rec)), prometheus_text(rec))
            )
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestWindowedParallel:
    """Windowed scenarios ship a window *iterator* to workers (never a
    materialized stream) and must merge to the serial windowed report."""

    @pytest.mark.parametrize(
        "scenario",
        [
            _scenario(window_size=128),
            _scenario(
                window_size=128,
                failures=default_failure_schedule(4, 9, 2, 80.0),
            ),
        ],
        ids=["healthy", "failures"],
    )
    def test_windowed_workers_match_serial(self, scenario):
        serial = run_fleet_scenario(scenario).to_dict()
        par = run_fleet_scenario_parallel(scenario, workers=2).to_dict()
        assert _canon(serial) == _canon(par)

    def test_windowed_read_only_solver_path(self):
        sc = _scenario(window_size=64, read_fraction=1.0)
        serial = run_fleet_scenario(sc).to_dict()
        par = run_fleet_scenario_parallel(sc, workers=2).to_dict()
        assert _canon(serial) == _canon(par)

    @pytest.mark.parametrize("verify_data", [False, True], ids=["carry", "pump"])
    @pytest.mark.parametrize("failures", [0, 2])
    def test_window_boundaries_counted_once_per_window(
        self, failures, verify_data
    ):
        """Every runner counts each window of the stream once: serial
        (carry engines, heap pumps or exact-core replays), and 4 groups
        on 1 or 2 workers (carry engines, or one heap pump per shard when data
        planes or failures rule the carry engines out)."""
        from repro.obs import MetricsRecorder

        sc = _scenario(
            duration_ms=500.0,
            window_size=64,
            verify_data=verify_data,
            failures=default_failure_schedule(4, 9, failures, 80.0),
        )
        counts = []
        for workers in (None, 1, 2):
            rec = MetricsRecorder(50.0, shards=sc.shards)
            if workers is None:
                report = run_fleet_scenario(sc, recorder=rec)
            else:
                run = run_fleet_scenario_parallel(
                    sc, workers=workers, recorder=rec
                )
                assert len(run.execution.groups) == 4
                report = run.report
            counts.append(rec.counters(volatile=True)["window_boundaries"])
        assert counts == [-(-report.fleet.scheduled // 64)] * 3
        assert counts[0] == 8

    def test_no_stream_materialized_in_parent(self, monkeypatch):
        """The windowed parallel path never calls the whole-stream
        generator — not in the parent, not per group."""
        import repro.service.runtime as runtime_mod

        calls = []
        real = runtime_mod.generate_request_stream

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "generate_request_stream", counting)
        sc = _scenario(window_size=128)
        serial = run_fleet_scenario(sc).to_dict()
        grouped = run_fleet_scenario_parallel(sc, workers=1).to_dict()
        assert calls == []
        assert _canon(serial) == _canon(grouped)


class TestExecutionMetadata:
    def test_parallel_section_shape(self):
        run = run_fleet_scenario_parallel(FAILURES, workers=2)
        payload = run.to_dict()
        # The downgrade flag is part of the top-level summary, not
        # buried in the execution metadata.
        assert payload["serial_fallback"] is False
        assert payload["fallback_reason"] is None
        ex = payload["parallel"]
        assert ex["workers"] == 2
        assert ex["cpu_count"] >= 1
        assert ex["serial_fallback"] is False
        assert len(ex["groups"]) == 4
        for g in ex["groups"]:
            assert set(g) == {
                "arrays",
                "admission_slots",
                "failures",
                "migration_volumes",
                "duration_ms",
                "wall_s",
            }
        assert ex["admission_partition"]  # the recorded budget split

    def test_auto_workers_bounded_by_groups(self):
        run = run_fleet_scenario_parallel(
            _scenario(shards=2, duration_ms=150.0)
        )
        assert 1 <= run.execution.workers <= 2


class TestOneShotRuntime:
    """The batch runner is a one-shot cold warm runtime: it owns
    shared-memory segments for the duration of the call only, and
    leaks none of the warm runtime's session state into its output."""

    @pytest.mark.parametrize(
        "scenario,mp_context",
        [
            (FAILURES, "auto"),
            (_scenario(window_size=128), "auto"),
            (_scenario(shards=3, duration_ms=150.0), "spawn"),
        ],
        ids=["materialized", "windowed", "spawn"],
    )
    def test_no_segments_outlive_the_call(self, scenario, mp_context):
        import os

        from repro.service import leaked_segments

        serial = run_fleet_scenario(scenario).to_dict()
        run = run_fleet_scenario_parallel(
            scenario, workers=2, mp_context=mp_context
        )
        assert run.execution.workers == 2
        assert _canon(serial) == _canon(run.to_dict())
        assert leaked_segments(os.getpid()) == []

    def test_no_runtime_stats_or_volatile_counters(self):
        from repro.obs import MetricsRecorder

        rec = MetricsRecorder(50.0, shards=FAILURES.shards)
        run = run_fleet_scenario_parallel(FAILURES, workers=2, recorder=rec)
        assert "runtime" not in run.to_dict()
        volatile = rec.counters(volatile=True)
        for name in (
            "pool_warm_hits",
            "compile_cache_hits",
            "shm_bytes",
            "ipc_bytes_avoided",
        ):
            assert name not in volatile

    def test_requested_workers_recorded_as_given(self):
        run = run_fleet_scenario_parallel(_scenario(shards=2))
        assert run.execution.requested_workers is None


class TestSpawnSafety:
    def test_scenario_pickle_round_trip(self):
        for sc in (HEALTHY, FAILURES, COUPLED, MIGRATION):
            clone = pickle.loads(pickle.dumps(sc))
            assert clone == sc

    def test_group_and_compiled_trace_pickle(self):
        from repro.service import Fleet
        from repro.sim.compile import generate_request_stream

        part = partition_scenario(COUPLED)
        for g in part.groups:
            assert pickle.loads(pickle.dumps(g)) == g
        fleet = Fleet(2, 9, 3, seed=0)
        times, is_read, lbas = generate_request_stream(
            HEALTHY.workload(), 100.0, fleet.capacity
        )
        compiled, _ = fleet.route_stream(times, is_read, lbas)
        for trace in compiled:
            clone = pickle.loads(pickle.dumps(trace))
            assert clone.n == trace.n
            assert (clone.times == trace.times).all()
            assert (clone.is_read == trace.is_read).all()
            assert (clone.lbas == trace.lbas).all()


#: Failure-placement cells for the per-shard gate: (v, k) planner pair,
#: shards, failures, admission.  Cells with more failures than
#: admission slots couple the failed arrays into one group.
GATE_CELLS = [
    (9, 3, 2, 1, 1),
    (13, 4, 3, 2, 1),
    (10, 4, 4, 3, 2),
    (16, 4, 6, 2, 2),
]


def _gate_scenario(cell, verify_data, window) -> FleetScenario:
    """A cell's scenario: failures on seeded random arrays and disks,
    at seeded times — some before the first arrival, some past the
    horizon."""
    v, k, shards, count, admission = cell
    rng = random.Random(repr(cell))
    failures = tuple(
        FailureEvent(
            time_ms=round(rng.uniform(0.0, 320.0), 3),
            array=a,
            disk=rng.randrange(v),
        )
        for a in sorted(rng.sample(range(shards), count))
    )
    return FleetScenario(
        shards=shards,
        v=v,
        k=k,
        duration_ms=250.0,
        interarrival_ms=0.5,
        failures=failures,
        admission=admission,
        verify_data=verify_data,
        window_size=window,
        check_conformance=False,
    )


class TestPerShardGate:
    """Only shards a failure names run on the event heap; the rest
    replay the heap's serialization on the exact core.  Every output
    must equal the all-heap serialization, where every shard counts as
    armed."""

    @pytest.mark.parametrize("window", [None, 64], ids=["whole", "windowed"])
    @pytest.mark.parametrize("verify_data", [False, True], ids=["plain", "data"])
    @pytest.mark.parametrize(
        "cell", GATE_CELLS, ids=["-".join(map(str, c)) for c in GATE_CELLS]
    )
    def test_gate_equals_all_heap(self, cell, verify_data, window, monkeypatch):
        sc = _gate_scenario(cell, verify_data, window)

        def serve(workers):
            rec = MetricsRecorder(25.0, shards=sc.shards)
            if workers is None:
                payload = run_fleet_scenario(sc, recorder=rec).to_dict()
            else:
                payload = run_fleet_scenario_parallel(
                    sc, workers=workers, recorder=rec
                ).to_dict()
            outputs = (
                _canon(payload),
                render_metrics_jsonl(build_rows(rec)),
                prometheus_text(rec),
            )
            return outputs, payload["executor_per_shard"]

        with monkeypatch.context() as m:
            m.setattr(Simulator, "armed_shards", lambda self: None)
            all_heap, heap_executors = serve(None)
        assert set(heap_executors) == {"event-heap"}
        serial, serial_executors = serve(None)
        grouped, grouped_executors = serve(2)
        assert serial == all_heap
        assert grouped == all_heap
        failed = {ev.array for ev in sc.failures}
        for s, executor in enumerate(grouped_executors):
            assert executor == ("event-heap" if s in failed else "exact-native")
        # Serial windowed serves take the same shard-set gate.
        assert serial_executors == grouped_executors

    @pytest.mark.parametrize("write_policy", ["rmw", "write_through"])
    def test_quiet_shards_match_all_heap_state(self, write_policy, monkeypatch):
        """Beyond the report: every shard's data-plane bytes, disk
        accumulators, latency samples in recording order and the clock
        equal the all-heap serve's — the exact core and the small-write
        fold replay the heap bit for bit."""
        from repro.service import FailureOrchestrator, Fleet
        from repro.sim import WorkloadConfig, generate_request_stream

        cfg = WorkloadConfig(interarrival_ms=0.5, read_fraction=0.5, seed=8)

        def serve():
            fleet = Fleet(
                3, 13, 4, dataplane=True, seed=4, write_policy=write_policy
            )
            FailureOrchestrator(
                fleet, (FailureEvent(120.0, 1, 5),), admission=1
            ).arm()
            fleet.serve_stream(
                *generate_request_stream(cfg, 400.0, fleet.capacity)
            )
            fleet.sim.run()
            return fleet.sim.now, [
                (
                    c.data.store.tobytes(),
                    [(d.busy_time, d.total_queue_delay, d.completed_ios,
                      d._last_offset) for d in c.disks],
                    {k: st.samples for k, st in sorted(c.latency.items())},
                    c.last_engine,
                )
                for c in fleet.controllers
            ], [c.last_executor for c in fleet.controllers]

        with monkeypatch.context() as m:
            m.setattr(Simulator, "armed_shards", lambda self: None)
            heap_now, heap_state, heap_executors = serve()
        now, state, executors = serve()
        assert heap_executors == ["event-heap"] * 3
        # The kernel takes every plan, write-through ones included.
        assert executors == ["exact-native", "event-heap", "exact-native"]
        assert (now, state) == (heap_now, heap_state)

    def test_quiet_shard_adds_no_heap_events(self):
        """A 2-shard serve through the gate processes exactly the heap
        events of its failed shard served alone."""
        from repro.service import FailureOrchestrator, Fleet
        from repro.sim import WorkloadConfig, generate_request_stream
        from repro.sim.compile import _execute_shards, _tail

        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.6, seed=5)
        router = Fleet(2, 13, 4, seed=3)
        traces, _ = router.route_stream(
            *generate_request_stream(cfg, 600.0, router.capacity)
        )

        def serve(shard_traces):
            fleet = Fleet(2, 13, 4, dataplane=True, seed=3)
            FailureOrchestrator(
                fleet, (FailureEvent(150.0, 0, 2),), admission=1
            ).arm()
            _execute_shards(fleet.controllers, shard_traces)
            return fleet

        both = serve(traces)
        alone = serve([traces[0], _tail(traces[1], traces[1].n)])
        assert traces[1].n > 0
        assert both.sim.events_processed == alone.sim.events_processed > 0
        assert [c.last_engine for c in both.controllers] == ["heap", "heap"]
        assert [c.last_executor for c in both.controllers] == [
            "event-heap",
            "exact-native",
        ]


class TestExecutorList:
    def test_executor_per_shard_is_volatile(self):
        payload = run_fleet_scenario_parallel(FAILURES, workers=1).to_dict()
        # The failed arrays name each stretch's executor in order:
        # array 0 has no idle arrival before its failure, and array 1
        # keeps its claim past its last idle arrival.
        assert payload["executor_per_shard"] == [
            "event-heap|exact-native",
            "exact-native|event-heap",
            "exact-native",
            "exact-native",
        ]
        assert payload["engine_per_shard"] == ["heap"] * 4
        assert "executor_per_shard" not in canonical_payload(payload)

    def test_no_canonical_field_uses_the_executor_key(self):
        """canonical_payload strips volatile keys at any depth, so the
        executor list's key must name nothing else in the report."""
        payload = run_fleet_scenario(
            _scenario(failures=default_failure_schedule(4, 9, 1, 80.0))
        ).to_dict()

        def count(node):
            if isinstance(node, dict):
                return sum(
                    (k == "executor_per_shard") + count(v)
                    for k, v in node.items()
                )
            if isinstance(node, list):
                return sum(count(v) for v in node)
            return 0

        assert "executor_per_shard" in _VOLATILE_KEYS
        assert "executor_per_shard" in payload and count(payload) == 1


class TestCanonicalPayload:
    def test_strips_wall_clock_everywhere(self):
        payload = {
            "wall_s": 1.0,
            "serial_fallback": True,
            "fallback_reason": "reshape",
            "fleet": {"wall_s": 2.0, "throughput_rps": 3.0},
            "rows": [{"wall_s": 4.0, "x": 1}],
            "parallel": {"workers": 8},
        }
        out = canonical_payload(payload)
        assert out == {
            "fleet": {"throughput_rps": 3.0},
            "rows": [{"x": 1}],
        }

    def test_does_not_mutate_input(self):
        payload = {"wall_s": 1.0, "keep": {"wall_s": 2.0}}
        canonical_payload(payload)
        assert payload == {"wall_s": 1.0, "keep": {"wall_s": 2.0}}


class TestServeCLIWorkers:
    def test_smoke_with_workers_matches_serial(self, tmp_path):
        from repro.__main__ import main

        a = tmp_path / "serial.json"
        b = tmp_path / "parallel.json"
        assert main(["serve", "--smoke", "--json", str(a)]) == 0
        assert (
            main(["serve", "--smoke", "--workers", "2", "--json", str(b)])
            == 0
        )
        serial = json.loads(a.read_text())
        par = json.loads(b.read_text())
        assert "parallel" not in serial  # default path untouched
        assert par["parallel"]["workers"] == 2
        assert _canon(serial) == _canon(par)

    def test_bad_worker_count_is_an_error(self):
        from repro.__main__ import main

        assert main(["serve", "--smoke", "--workers", "0"]) == 2

    def test_smoke_flags_unexpected_serial_fallback(self):
        """--workers 2 on a single-shard fleet silently downgrades to
        serial; under --smoke that downgrade must fail the run."""
        from repro.__main__ import main

        args = [
            "serve",
            "--smoke",
            "--workers",
            "2",
            "--shards",
            "1",
            "--failures",
            "0",
        ]
        assert main(args) == 1

    def test_reshape_fallback_stays_legitimate_under_smoke(self, tmp_path):
        """A reshape is the documented serial collapse — --smoke must
        not flag it."""
        from repro.__main__ import main

        out = tmp_path / "grow.json"
        args = [
            "serve",
            "--smoke",
            "--workers",
            "2",
            "--grow",
            "4:6",
            "--json",
            str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["serial_fallback"] is True
        assert payload["fallback_reason"]

    def test_volumes_flag_splits_reshape_across_workers(self, tmp_path):
        """--volumes can shrink the move graph until it splits into
        components — then --grow + --workers genuinely parallelizes
        (no serial fallback, so --smoke's downgrade gate stays green)."""
        from repro.__main__ import main

        out = tmp_path / "grow_split.json"
        args = [
            "serve",
            "--smoke",
            "--workers",
            "2",
            "--grow",
            "4:6",
            "--volumes",
            "12",
            "--seed",
            "9",
            "--json",
            str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["serial_fallback"] is False
        assert payload["scenario"]["volumes"] == 12
        groups = payload["parallel"]["groups"]
        assert [g["arrays"] for g in groups] == [[0, 3, 4], [1], [2, 5]]
        assert [g["migration_volumes"] for g in groups] == [[6, 11], [], [7]]
        assert payload["passed"] is True

    def test_write_policy_flag_reaches_scenario(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "wt.json"
        args = [
            "serve",
            "--smoke",
            "--write-policy",
            "write_through",
            "--json",
            str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"]["write_policy"] == "write_through"
