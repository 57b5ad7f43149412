"""Live volume migration: planning, zero-lost serving through a
grow/shrink, bit-for-bit verification, drain/cutover bookkeeping, and
the shared admission budget."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.service import (
    AdmissionController,
    Fleet,
    FleetScenario,
    MigrationCoordinator,
    VolumeMigrationOutcome,
    plan_migration,
    run_fleet_scenario,
)
from repro.sim import WorkloadConfig
from repro.sim.compile import generate_request_stream


def _grown_fleet(
    start=4,
    target=8,
    *,
    placement="weighted",
    read_fraction=0.7,
    duration=600.0,
    at_ms=150.0,
    dataplane=True,
    seed=0,
    admission=2,
):
    fleet = Fleet(
        start, 9, 3, seed=seed, dataplane=dataplane, placement=placement
    )
    co = MigrationCoordinator(fleet, target, at_ms=at_ms, admission=admission)
    co.arm()
    cfg = WorkloadConfig(
        interarrival_ms=0.5, read_fraction=read_fraction, seed=11
    )
    stream = generate_request_stream(cfg, duration, fleet.capacity)
    report = fleet.serve_stream(*stream)
    return fleet, co, report


class TestAdmissionController:
    def test_caps_concurrency_and_runs_fifo(self):
        gate = AdmissionController(2)
        started = []
        for i in range(4):
            gate.submit(lambda i=i: started.append(i))
        assert started == [0, 1]
        assert gate.queued == 2
        gate.release()
        assert started == [0, 1, 2]
        gate.release()
        gate.release()
        assert started == [0, 1, 2, 3]

    def test_invalid_slots_and_release(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        gate = AdmissionController(1)
        with pytest.raises(RuntimeError):
            gate.release()


class TestMigrationPlan:
    def test_plan_matches_shard_map_moved_set(self):
        fleet = Fleet(4, 9, 3, seed=0)
        plan = plan_migration(fleet, 8)
        moved = fleet.shard_map.moved_volumes(plan.target_map)
        assert [m.volume for m in plan.moves] == moved.tolist()
        assert plan.current_shards == 4 and plan.target_shards == 8
        for m in plan.moves:
            assert m.source != m.dest
            assert 0 <= m.dest < 8

    def test_plan_deterministic(self):
        a = plan_migration(Fleet(4, 9, 3, seed=3), 6)
        b = plan_migration(Fleet(4, 9, 3, seed=3), 6)
        assert [(m.volume, m.source, m.dest) for m in a.moves] == [
            (m.volume, m.source, m.dest) for m in b.moves
        ]

    def test_tail_volumes_move_without_data(self):
        # Default geometry has tail volumes past the capacity edge;
        # their moves copy zero units (routing-only cutover).
        fleet = Fleet(4, 9, 3, seed=0)
        plan = plan_migration(fleet, 8)
        extents = fleet.volume_weights()
        for m in plan.moves:
            assert len(m.lbas) == int(extents[m.volume])

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            plan_migration(Fleet(4, 9, 3), 0)


class TestLiveGrow:
    def test_zero_lost_and_verified(self):
        fleet, co, report = _grown_fleet()
        assert report.lost == 0
        assert report.scheduled == report.completed
        assert co.done
        assert co.all_verified
        assert len(co.outcomes) == len(co.plan.moves)
        assert all(
            o.data_verified is True for o in co.outcomes if o.units_copied
        )

    def test_fleet_converges_to_target_map(self):
        fleet, co, _ = _grown_fleet()
        assert fleet.shards == 8
        assert fleet.shard_map.shards == 8
        assert (
            fleet.volume_route() == fleet.shard_map.assignment()
        ).all()
        assert fleet.routing_fingerprint() == fleet.shard_map.fingerprint()

    def test_deterministic_under_fixed_seed(self):
        _, co1, r1 = _grown_fleet()
        _, co2, r2 = _grown_fleet()
        assert r1.duration_ms == r2.duration_ms
        assert r1.latency == r2.latency
        assert [o.cutover_at_ms for o in co1.outcomes] == [
            o.cutover_at_ms for o in co2.outcomes
        ]

    def test_drain_and_mirror_bookkeeping(self):
        # A write-heavy stream must exercise the mirror (forwarded
        # writes) and the cutover hold queue.
        _, co, report = _grown_fleet(read_fraction=0.5)
        assert report.lost == 0
        assert sum(o.forwarded_writes for o in co.outcomes) > 0
        assert sum(o.drained_requests for o in co.outcomes) > 0
        assert all(o.copy_ms >= 0 and o.drain_ms >= 0 for o in co.outcomes)

    def test_destination_parity_consistent_after_migration(self):
        fleet, co, _ = _grown_fleet(read_fraction=0.5)
        assert co.all_verified
        for ctrl in fleet.controllers:
            assert ctrl.data.all_parity_consistent()

    def test_held_requests_complete_with_queueing_latency(self):
        _, co, report = _grown_fleet(read_fraction=0.5)
        held = sum(o.held_requests for o in co.outcomes)
        assert held > 0
        assert report.lost == 0

    def test_post_migration_serves_batched_and_balanced(self):
        fleet, co, _ = _grown_fleet(placement="weighted")
        cfg = WorkloadConfig(interarrival_ms=0.5, read_fraction=1.0, seed=9)
        stream = generate_request_stream(cfg, 2000.0, fleet.capacity)
        before = fleet.sim.events_processed
        rep = fleet.serve_stream(*stream)
        # Migration finished: reads take the analytic fast path again.
        assert fleet.sim.events_processed == before
        assert rep.lost == 0
        assert rep.shard_balance <= 1.3

    def test_no_dataplane_migrates_unverified(self):
        _, co, report = _grown_fleet(dataplane=False)
        assert report.lost == 0
        assert co.done
        assert all(o.data_verified is None for o in co.outcomes)
        assert co.all_verified  # not False = unrefuted


class TestLiveShrink:
    def test_shrink_drains_removed_shards(self):
        fleet, co, report = _grown_fleet(start=8, target=4)
        assert report.lost == 0
        assert co.done and co.all_verified
        route = fleet.volume_route()
        assert route.max() < 4
        # Drained arrays stay on the clock but receive no traffic.
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=1.0, seed=5)
        stream = generate_request_stream(cfg, 500.0, fleet.capacity)
        rep = fleet.serve_stream(*stream)
        assert all(n == 0 for n in rep.per_shard_scheduled[4:])

    def test_converging_shrink_stays_verified_under_writes(self):
        # Regression: many volumes converging on few destinations make
        # aliased foreground writes land on a destination mid-copy;
        # the coordinator's bidirectional cell mirroring must keep the
        # bit-for-bit verification true anyway.
        fleet = Fleet(8, 9, 3, seed=0, dataplane=True, placement="p2c")
        co = MigrationCoordinator(fleet, 3, at_ms=125.0, admission=2)
        co.arm()
        cfg = WorkloadConfig(interarrival_ms=0.4, read_fraction=0.3, seed=7)
        stream = generate_request_stream(cfg, 500.0, fleet.capacity)
        report = fleet.serve_stream(*stream)
        fleet.sim.run()
        assert report.lost == 0
        assert co.done and co.all_verified
        assert all(
            o.data_verified is True for o in co.outcomes if o.units_copied
        )
        for ctrl in fleet.controllers:
            assert ctrl.data.all_parity_consistent()

    def test_shrink_to_single_shard(self):
        fleet, co, report = _grown_fleet(start=3, target=1, duration=400.0)
        assert report.lost == 0
        assert co.done and co.all_verified
        assert (fleet.volume_route() == 0).all()


class TestCoordinatorEdges:
    def test_same_size_reshape_is_trivially_done(self):
        fleet = Fleet(4, 9, 3, seed=0)
        co = MigrationCoordinator(fleet, 4, at_ms=10.0)
        assert co.done
        co.arm()
        fleet.sim.run()
        assert co.outcomes == []

    def test_second_active_migration_rejected(self):
        fleet = Fleet(4, 9, 3, seed=0)
        MigrationCoordinator(fleet, 8, at_ms=10.0)
        with pytest.raises(RuntimeError):
            MigrationCoordinator(fleet, 6, at_ms=20.0)

    def test_arm_twice_raises(self):
        fleet = Fleet(4, 9, 3, seed=0)
        co = MigrationCoordinator(fleet, 8, at_ms=10.0)
        co.arm()
        with pytest.raises(RuntimeError):
            co.arm()

    def test_bad_parameters_raise(self):
        fleet = Fleet(4, 9, 3, seed=0)
        with pytest.raises(ValueError):
            MigrationCoordinator(fleet, 8, at_ms=-1.0)
        with pytest.raises(ValueError):
            MigrationCoordinator(fleet, 8, at_ms=1.0, copy_parallelism=0)
        for at_ms in (math.nan, math.inf):
            with pytest.raises(ValueError, match="reshape time"):
                MigrationCoordinator(fleet, 8, at_ms=at_ms)

    def test_outcome_row(self):
        """One serializer for a move: the report's ``migration.volumes``
        rows and each autoscale event's ``volumes`` — 14 keys, in this
        order (the report JSON is not key-sorted)."""
        o = VolumeMigrationOutcome(
            volume=5, source=1, dest=3, units_copied=8,
            requested_at_ms=10.0, started_at_ms=12.5, copied_at_ms=20.0,
            cutover_at_ms=21.0, drained_requests=4, held_requests=2,
            forwarded_writes=6, data_verified=True,
        )
        assert list(o.to_dict().items()) == [
            ("volume", 5), ("source", 1), ("dest", 3), ("units_copied", 8),
            ("requested_at_ms", 10.0), ("started_at_ms", 12.5),
            ("copied_at_ms", 20.0), ("cutover_at_ms", 21.0),
            ("admission_delay_ms", 2.5), ("copy_ms", 7.5), ("drain_ms", 1.0),
            ("held_requests", 2), ("forwarded_writes", 6),
            ("data_verified", True),
        ]

    def test_reshape_after_the_traffic_accepted(self):
        """The coordinator knows no horizon: a library caller may arm a
        reshape after a stream on purpose (the scenario bounds its own
        reshape time by its horizon)."""
        fleet = Fleet(4, 9, 3, seed=0)
        MigrationCoordinator(fleet, 8, at_ms=1e300).arm()
        assert fleet.sim.pending()


def _moving_fleet(dataplane=False):
    """The 12-volume fleet that grows 4 -> 6 at 5 ms (volumes 6, 7 and
    11 move)."""
    fleet = Fleet(4, 9, 3, volumes=12, seed=9, dataplane=dataplane)
    co = MigrationCoordinator(fleet, 6, at_ms=5.0)
    co.arm()
    return fleet, co


def _stable_sorted(times, is_read, lbas):
    order = np.argsort(times, kind="stable")
    return times[order], is_read[order], lbas[order]


def _shuffled_stream(capacity, n=600, seed=3):
    """``n`` requests on a 1 ms grid (so arrival times tie) over the
    whole address space, in a seeded random order."""
    rng = np.random.default_rng(seed)
    times = np.floor(rng.uniform(0.0, 300.0, n))
    return times, rng.random(n) < 0.6, rng.integers(0, capacity, n)


class TestOutOfOrderStreams:
    """A stream (or a window) out of arrival order serves as its stable
    sort does, also while a live migration diverts part of it: the
    router checks and sorts each stream and window once, before the
    coordinator takes its share (a diverted sub-stream used to keep the
    input order and fail mid-serve with "cannot schedule into the
    past")."""

    @staticmethod
    def _serve(mode, stream, dataplane=False):
        fleet, co = _moving_fleet(dataplane)
        if mode == "stream":
            report = fleet.serve_stream(*stream)
        else:
            report = fleet.serve_windows(stream)
        assert co.done and co.all_verified
        return asdict(report)

    @pytest.mark.parametrize("mode", ["stream", "window"])
    def test_diverted_requests_out_of_order(self, mode):
        fleet, co = _moving_fleet()
        vu = fleet.volume_units
        assert co.claims(np.array([6, 0])).tolist() == [True, False]
        times = np.array([0.0, 50.0, 20.0, 60.0])
        is_read = np.array([True, False, True, True])
        lbas = np.array([0, 6 * vu + 1, 6 * vu + 2, 3], dtype=np.int64)
        stream = (times, is_read, lbas)
        wrap = (lambda s: s) if mode == "stream" else (lambda s: [s])
        got = self._serve(mode, wrap(stream))
        assert got["completed"] == 4
        assert got == self._serve(mode, wrap(_stable_sorted(*stream)))

    @pytest.mark.parametrize("dataplane", [False, True])
    def test_shuffled_stream(self, dataplane):
        stream = _shuffled_stream(_moving_fleet()[0].capacity)
        got = self._serve("stream", stream, dataplane)
        assert got["scheduled"] == got["completed"] == 600
        assert got == self._serve("stream", _stable_sorted(*stream), dataplane)

    @pytest.mark.parametrize("dataplane", [False, True])
    def test_windows_shuffled_within(self, dataplane):
        """Windows in order whose requests are not: each serves as its
        stable sort, on the window router."""
        times, is_read, lbas = _stable_sorted(
            *_shuffled_stream(_moving_fleet()[0].capacity)
        )
        rng = np.random.default_rng(4)
        windows = []
        for i in range(0, len(times), 64):
            perm = i + rng.permutation(min(64, len(times) - i))
            windows.append((times[perm], is_read[perm], lbas[perm]))
        got = self._serve("window", windows, dataplane)
        assert got["completed"] == 600
        assert got == self._serve(
            "window", [_stable_sorted(*w) for w in windows], dataplane
        )


class TestScenarioIntegration:
    def test_grow_scenario_passes_and_reports(self):
        report = run_fleet_scenario(
            FleetScenario(
                shards=4,
                duration_ms=500.0,
                interarrival_ms=1.0,
                placement="weighted",
                reshape_to=8,
                failures=(),
            )
        )
        assert report.passed
        assert report.all_migrated_verified
        assert report.fleet.lost == 0
        assert len(report.migrations) == report.planned_moves > 0
        payload = report.to_dict()
        assert payload["migration"]["zero_lost"] is True
        assert payload["migration"]["all_verified"] is True
        assert payload["migration"]["target_shards"] == 8
        assert payload["fleet"]["shards"] == 8

    def test_failures_on_migrating_arrays_rejected(self):
        from repro.service import FailureEvent

        with pytest.raises(ValueError):
            run_fleet_scenario(
                FleetScenario(
                    shards=4,
                    duration_ms=400.0,
                    reshape_to=8,
                    failures=(FailureEvent(time_ms=50.0, array=0, disk=1),),
                )
            )

    def test_rebuilds_and_copies_share_admission(self):
        # Rebuild on array 0 (not involved in the 8 -> 7 shrink under
        # this seed) while volumes migrate, through one shared 1-slot
        # gate: no copy interval may overlap the rebuild.
        from repro.service import FailureOrchestrator, FailureEvent

        fleet = Fleet(8, 9, 3, seed=0, dataplane=True)
        gate = AdmissionController(1)
        orch = FailureOrchestrator(
            fleet,
            (FailureEvent(time_ms=10.0, array=0, disk=0),),
            admission_controller=gate,
        )
        co = MigrationCoordinator(
            fleet, 7, at_ms=10.0, admission_controller=gate
        )
        assert 0 not in co.plan.arrays_involved()
        orch.arm()
        co.arm()
        fleet.sim.run()
        assert orch.done and co.done
        assert gate.active == 0
        # With one slot, no copy interval may overlap the rebuild.
        rb = orch.outcomes[0]
        rb_span = (rb.started_at_ms, rb.started_at_ms + rb.report.duration_ms)
        for o in co.outcomes:
            if not o.units_copied:
                continue
            assert (
                o.cutover_at_ms <= rb_span[0]
                or o.started_at_ms >= rb_span[1]
            )


class TestServeCLIGrow:
    def test_grow_smoke_exit_zero(self, tmp_path):
        import json

        from repro.__main__ import main

        out = tmp_path / "grow.json"
        code = main(
            [
                "serve",
                "--grow",
                "4:8",
                "--placement",
                "weighted",
                "--duration",
                "400",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        mig = payload["migration"]
        assert mig["zero_lost"] is True
        assert mig["all_verified"] is True
        assert mig["completed_moves"] == mig["planned_moves"] > 0
        assert payload["fleet"]["lost_to_failures"] == 0

    def test_shrink_smoke_exit_zero(self, tmp_path):
        import json

        from repro.__main__ import main

        out = tmp_path / "shrink.json"
        code = main(
            ["serve", "--shrink", "8:5", "--duration", "400", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["migration"]["zero_lost"] is True

    def test_bad_reshape_spec_rejected(self):
        from repro.__main__ import main

        assert main(["serve", "--grow", "8:4", "--duration", "200"]) == 2
        assert main(["serve", "--grow", "nonsense", "--duration", "200"]) == 2
