"""Property tests for the compiled simulation pipeline.

The batched paths (compiled executor, analytic queue solver, vectorized
rebuild scan) must produce *identical* reports to the scalar per-event
pipeline — same stream, same submission order, same float arithmetic.
These tests sweep seeded random traces across construction families and
compare the two paths field by field.
"""

import numpy as np
import pytest

from repro.core import get_layout
from repro.layouts import raid5_layout, random_layout, ring_layout
from repro.layouts.sparing import with_distributed_sparing
from repro.obs import MetricsRecorder
from repro.sim import (
    ArrayController,
    RebuildProcess,
    TraceRecord,
    WorkloadConfig,
    compile_trace,
    compile_workload,
    drive_workload,
    execute_compiled,
    replay_trace,
    schedule_compiled,
    schedule_compiled_scalar,
    simulate_rebuild,
    simulate_workload,
    solve_compiled,
    spare_map_for_failure,
    spare_plan_for_failure,
)
from repro.sim.events import Simulator

# One representative layout per construction family the planner can
# emit: ring (exact), Holland-Gibson over a design, stairway, RAID5
# baseline, and the randomized Merchant-Yu baseline.
FAMILIES = {
    "ring": lambda: ring_layout(9, 4),
    "holland_gibson": lambda: get_layout(13, 4),
    "stairway": lambda: get_layout(33, 5),
    "raid5": lambda: raid5_layout(6, rotations=4),
    "randomized": lambda: random_layout(10, 4, stripes_per_disk=6, seed=2),
}


def _schedule(ctrl, compiled, batched):
    """Schedule ``compiled`` on the compiled executor, or (``batched``
    False) on the scalar per-event oracle."""
    if batched:
        return schedule_compiled(ctrl, compiled)
    return schedule_compiled_scalar(ctrl, compiled)


def assert_workload_reports_equal(a, b):
    """Field-by-field equality; the latency mean tolerates tie-order
    float association, everything else must match exactly."""
    assert a.scheduled == b.scheduled
    assert a.duration_ms == b.duration_ms
    assert a.per_disk_ios == b.per_disk_ios
    assert a.utilizations == b.utilizations
    assert set(a.latency) == set(b.latency)
    for kind in a.latency:
        for field in ("count", "p50", "p95", "max"):
            assert a.latency[kind][field] == b.latency[kind][field], (kind, field)
        assert a.latency[kind]["mean"] == pytest.approx(
            b.latency[kind]["mean"], rel=1e-12
        )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("read_fraction", [1.0, 0.6])
class TestWorkloadEquivalence:
    def test_healthy(self, family, read_fraction):
        lay = FAMILIES[family]()
        cfg = WorkloadConfig(
            interarrival_ms=3.0, read_fraction=read_fraction, seed=11
        )
        a = simulate_workload(lay, duration_ms=1500.0, config=cfg, batched=True)
        b = simulate_workload(lay, duration_ms=1500.0, config=cfg, batched=False)
        assert a.scheduled > 0
        assert_workload_reports_equal(a, b)

    def test_degraded(self, family, read_fraction):
        lay = FAMILIES[family]()
        cfg = WorkloadConfig(
            interarrival_ms=3.0, read_fraction=read_fraction, seed=13
        )
        a = simulate_workload(
            lay, duration_ms=1500.0, config=cfg, failed_disk=1, batched=True
        )
        b = simulate_workload(
            lay, duration_ms=1500.0, config=cfg, failed_disk=1, batched=False
        )
        assert_workload_reports_equal(a, b)


class TestWorkloadEquivalenceVariants:
    def test_zipf_skewed_stream(self):
        lay = ring_layout(9, 4)
        cfg = WorkloadConfig(
            interarrival_ms=2.0, read_fraction=0.5, zipf_theta=1.5, seed=7
        )
        a = simulate_workload(lay, duration_ms=2000.0, config=cfg, batched=True)
        b = simulate_workload(lay, duration_ms=2000.0, config=cfg, batched=False)
        assert_workload_reports_equal(a, b)

    def test_with_dataplane_contents_match(self):
        lay = ring_layout(7, 3)
        cfg = WorkloadConfig(interarrival_ms=4.0, read_fraction=0.3, seed=3)
        ctrls = []
        for batched in (True, False):
            ctrl = ArrayController(lay, dataplane=True, seed=5)
            _schedule(ctrl, compile_workload(ctrl.mapper, cfg, 1200.0), batched)
            ctrl.sim.run()
            ctrls.append(ctrl)
        assert np.array_equal(ctrls[0].data.store, ctrls[1].data.store)
        assert ctrls[0].data.all_parity_consistent()

    def test_drive_workload_paths_schedule_same_stream(self):
        lay = ring_layout(5, 3)
        cfg = WorkloadConfig(interarrival_ms=6.0, seed=21)
        c1, c2 = ArrayController(lay), ArrayController(lay)
        n1 = drive_workload(c1, cfg, 2500.0)
        n2 = schedule_compiled_scalar(
            c2, compile_workload(c2.mapper, cfg, 2500.0)
        )
        c1.sim.run()
        c2.sim.run()
        assert n1 == n2
        assert c1.per_disk_completed() == c2.per_disk_completed()
        assert c1.sim.now == c2.sim.now


class TestTraceReplayEquivalence:
    def _random_trace(self, rng, n=300, tick=None):
        times = np.cumsum(rng.exponential(2.0, size=n))
        if tick is not None:
            # Quantized arrivals: duplicate timestamps exercise the
            # executor's epoch batching.
            times = np.floor(times / tick) * tick
        ops = rng.random(n) < 0.7
        lbas = rng.integers(0, 10_000, size=n)
        return [
            TraceRecord(time_ms=float(t), op="r" if r else "w", lba=int(l))
            for t, r, l in zip(times, ops, lbas)
        ]

    @pytest.mark.parametrize("tick", [None, 5.0])
    def test_replay_batched_matches_scalar(self, tick):
        rng = np.random.default_rng(17)
        records = self._random_trace(rng, tick=tick)
        results = []
        for batched in (True, False):
            ctrl = ArrayController(ring_layout(9, 4))
            if batched:
                n = replay_trace(ctrl, records)
            else:
                n = schedule_compiled_scalar(
                    ctrl, compile_trace(ctrl.mapper, records)
                )
            ctrl.sim.run()
            results.append((n, ctrl.per_disk_completed(), ctrl.sim.now,
                            {k: s.count for k, s in ctrl.latency.items()}))
        assert results[0] == results[1]

    def test_unsorted_trace_normalized(self):
        records = [
            TraceRecord(time_ms=t, op="r", lba=i)
            for i, t in enumerate([9.0, 1.0, 5.0, 1.0])
        ]
        results = []
        for batched in (True, False):
            ctrl = ArrayController(ring_layout(5, 3))
            _schedule(ctrl, compile_trace(ctrl.mapper, records), batched)
            ctrl.sim.run()
            results.append((ctrl.per_disk_completed(), ctrl.sim.now))
        assert results[0] == results[1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestRebuildEquivalence:
    def test_plain_rebuild(self, family):
        lay = FAMILIES[family]()
        a = simulate_rebuild(lay, failed_disk=0, batched=True)
        b = simulate_rebuild(lay, failed_disk=0, batched=False)
        assert a == b

    def test_rebuild_under_load_with_dataplane(self, family):
        lay = FAMILIES[family]()
        cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.5, seed=23)
        a = simulate_rebuild(
            lay, failed_disk=2, workload=cfg, workload_duration_ms=800.0,
            verify_data=True, batched=True,
        )
        b = simulate_rebuild(
            lay, failed_disk=2, workload=cfg, workload_duration_ms=800.0,
            verify_data=True, batched=False,
        )
        assert a == b
        assert a.data_verified is True


class TestSparePlan:
    def test_plan_matches_scalar_map(self):
        lay = ring_layout(9, 4)
        sp = with_distributed_sparing(lay)
        for failed in range(lay.v):
            plan = spare_plan_for_failure(sp, failed)
            assert plan.as_dict() == spare_map_for_failure(sp, failed)
            # Every target avoids the failed disk and the scan covers
            # exactly the crossing stripes, ascending.
            assert not (np.asarray(plan.disks) == failed).any()
            expected = [
                sid for sid, s in enumerate(lay.stripes) if failed in s.disks
            ]
            assert plan.stripe_ids.tolist() == expected

    def test_sparing_rebuild_equivalence(self):
        lay = ring_layout(9, 4)
        sp = with_distributed_sparing(lay)
        a = simulate_rebuild(
            lay, failed_disk=3, sparing=sp, verify_data=True, batched=True
        )
        b = simulate_rebuild(
            lay, failed_disk=3, sparing=sp, verify_data=True, batched=False
        )
        assert a == b
        assert a.data_verified is True


class TestCompiledTrace:
    def test_compiled_mapping_matches_scalar(self):
        lay = ring_layout(9, 4)
        ctrl = ArrayController(lay)
        cfg = WorkloadConfig(interarrival_ms=2.0, seed=5)
        compiled = compile_workload(ctrl.mapper, cfg, 800.0)
        for i in range(compiled.n):
            pu = ctrl.mapper.logical_to_physical(int(compiled.lbas[i]))
            assert (pu.disk, pu.offset, pu.stripe) == (
                int(compiled.disks[i]),
                int(compiled.offsets[i]),
                int(compiled.stripes[i]),
            )

    def test_stream_is_deterministic(self):
        lay = ring_layout(5, 3)
        m = ArrayController(lay).mapper
        cfg = WorkloadConfig(seed=9)
        c1 = compile_workload(m, cfg, 2000.0)
        c2 = compile_workload(m, cfg, 2000.0)
        assert np.array_equal(c1.times, c2.times)
        assert np.array_equal(c1.lbas, c2.lbas)
        assert np.array_equal(c1.is_read, c2.is_read)

    def test_trace_lba_wrapped(self):
        lay = ring_layout(5, 3)
        ctrl = ArrayController(lay)
        cap = ctrl.mapper.capacity
        compiled = compile_trace(
            ctrl.mapper, [TraceRecord(time_ms=1.0, op="r", lba=cap * 2 + 3)]
        )
        assert compiled.lbas[0] == 3

    def test_zero_duration_empty(self):
        lay = ring_layout(5, 3)
        m = ArrayController(lay).mapper
        assert compile_workload(m, WorkloadConfig(seed=0), 0.0).n == 0


def _reference_plan(ctrl, compiled):
    """Healthy request planning, one request at a time through the
    scalar mapper — the reference the vectorized planner must equal."""
    n = compiled.n
    b = ctrl.layout.b
    single, wfast, plans, writes = ([None] * n for _ in range(4))
    for i in range(n):
        lba = int(compiled.lbas[i])
        pu = ctrl.mapper.logical_to_physical(lba)
        if compiled.is_read[i]:
            single[i] = (pu.disk, pu.offset)
            continue
        pd, po = ctrl.mapper.parity_unit_of_stripe(pu.stripe)
        if ctrl.write_policy == "rmw":
            wfast[i] = (pu.disk, pu.offset, pd, po)
        else:
            plans[i] = ("write", [[(pu.disk, pu.offset, True), (pd, po, True)]])
        if ctrl.data is not None:
            writes[i] = (pu.stripe % b, pu.disk, pu.offset, lba)
    return single, wfast, plans, writes


class TestHealthyPlanning:
    """``_CompiledRun`` plans healthy traces with one batch mapping and
    ``tolist()`` columns; every slot must equal the per-element
    reference — same tuples, plain Python ints throughout."""

    @pytest.mark.parametrize(
        "policy,dataplane",
        [("rmw", False), ("write_through", False), ("rmw", True)],
        ids=["rmw", "write_through", "dataplane"],
    )
    @pytest.mark.parametrize("read_fraction", [1.0, 0.7, 0.0])
    def test_slots_match_per_element_reference(
        self, policy, dataplane, read_fraction
    ):
        from repro.sim.compile import _CompiledRun

        ctrl = ArrayController(
            get_layout(13, 4), write_policy=policy, dataplane=dataplane
        )
        cfg = WorkloadConfig(
            interarrival_ms=2.0, read_fraction=read_fraction, seed=17
        )
        compiled = compile_workload(ctrl.mapper, cfg, 1500.0)
        run = _CompiledRun(ctrl, compiled)
        planned = (run.single, run.wfast, run.plans, run.writes)
        assert planned == _reference_plan(ctrl, compiled)
        for slots in planned:
            assert len(slots) == compiled.n
        for slot in run.single + run.wfast + run.writes:
            if slot is not None:
                assert all(type(x) is int for x in slot)


class TestSolverGuards:
    def test_rejects_writes(self):
        lay = ring_layout(5, 3)
        ctrl = ArrayController(lay)
        cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.0, seed=1)
        compiled = compile_workload(ctrl.mapper, cfg, 500.0)
        with pytest.raises(ValueError, match="read-only"):
            solve_compiled(ctrl, compiled)

    def test_rejects_busy_simulator(self):
        lay = ring_layout(5, 3)
        ctrl = ArrayController(lay)
        ctrl.sim.schedule(1.0, lambda: None)
        cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=1)
        compiled = compile_workload(ctrl.mapper, cfg, 500.0)
        with pytest.raises(RuntimeError, match="idle"):
            solve_compiled(ctrl, compiled)

    def test_solver_label_set(self):
        lay = ring_layout(5, 3)
        ctrl = ArrayController(lay)
        cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=1)
        compiled = compile_workload(ctrl.mapper, cfg, 500.0)
        solve_compiled(ctrl, compiled)
        assert ctrl.last_engine == "solver"


def _mid_run_state(ctrl):
    """Everything a failure re-plan could get wrong: per-disk counters
    and float accumulators, the clock, every latency sample in
    recording order, and the data plane's bytes."""
    return (
        ctrl.per_disk_completed(),
        [(d.busy_time, d.total_queue_delay) for d in ctrl.disks],
        ctrl.sim.now,
        {k: list(st.samples) for k, st in sorted(ctrl.latency.items())},
        None if ctrl.data is None else ctrl.data.store.tobytes(),
    )


class TestMidRunFailure:
    def test_disk_failure_after_scheduling_replans_live(self):
        # A disk failing between drive_workload() and sim.run() must not
        # crash the compiled executor or diverge from the scalar path.
        lay = ring_layout(9, 4)
        cfg = WorkloadConfig(interarrival_ms=4.0, read_fraction=0.6, seed=31)
        results = []
        for batched in (True, False):
            ctrl = ArrayController(lay)
            _schedule(ctrl, compile_workload(ctrl.mapper, cfg, 1500.0), batched)
            ctrl.fail_disk(0)
            ctrl.sim.run()
            results.append(_mid_run_state(ctrl))
        assert results[0] == results[1]
        assert "degraded_read" in results[0][3] or "degraded_write" in results[0][3]

    @pytest.mark.parametrize("dataplane", [False, True])
    @pytest.mark.parametrize("fail_at", [700.0, 1499.0])
    def test_failure_event_mid_run_replans_once(self, fail_at, dataplane):
        """A failure timer firing mid-stream: the compiled pump re-plans
        the rest of its window once and must still match the scalar
        path's per-request fire-time planning, sample for sample."""
        lay = ring_layout(9, 4)
        cfg = WorkloadConfig(interarrival_ms=4.0, read_fraction=0.6, seed=31)
        results = []
        for batched in (True, False):
            ctrl = ArrayController(lay, dataplane=dataplane, seed=3)
            _schedule(ctrl, compile_workload(ctrl.mapper, cfg, 1500.0), batched)
            ctrl.sim.at(fail_at, lambda ctrl=ctrl: ctrl.fail_disk(2))
            ctrl.sim.run()
            results.append(_mid_run_state(ctrl))
        assert results[0] == results[1]
        assert {"read", "write"} <= set(results[0][3])
        assert "degraded_read" in results[0][3] or "degraded_write" in results[0][3]


class TestSingleArrayGate:
    """``execute_compiled`` is the shard-set gate on one array: the same
    busy-clock rule as a fleet shard, and the gate records arrivals."""

    @pytest.mark.parametrize("failed", [None, 0], ids=["healthy", "degraded"])
    @pytest.mark.parametrize("names", ["other", "this", "none"])
    def test_busy_clock_matches_the_heap(self, names, failed):
        """One event armed on a clock shared with another array.  When
        it names only the other array, the trace replays on the exact
        core — no heap event of its own, under the heap's label — else
        it runs on the heap; either way the array ends bit-equal to the
        heap run of the same trace."""
        layout = ring_layout(9, 4)
        cfg = WorkloadConfig(interarrival_ms=4.0, read_fraction=0.6, seed=31)

        def run(gate: bool) -> ArrayController:
            sim = Simulator()
            ctrl, other = (
                ArrayController(layout, sim=sim, seed=i) for i in range(2)
            )
            if failed is not None:
                ctrl.fail_disk(failed)
            fired = []

            def event():
                fired.append(sim.now)

            if names == "none":
                sim.at(50.0, event)
            else:
                sim.arm(50.0, event, (other if names == "other" else ctrl,))
            trace = compile_workload(ctrl.mapper, cfg, 1500.0)
            if gate:
                assert execute_compiled(ctrl, trace) == trace.n
            else:
                schedule_compiled(ctrl, trace)
                sim.run()
            assert fired == [50.0]
            return ctrl

        gated, heap = run(True), run(False)
        assert _mid_run_state(gated) == _mid_run_state(heap)
        assert gated.last_engine == "heap"
        if names == "other":
            assert gated.sim.events_processed == 1
            assert gated.last_executor in ("exact-native", "exact-core")
        else:
            assert gated.sim.events_processed == heap.sim.events_processed
            assert gated.last_executor == "event-heap"

    @pytest.mark.parametrize("read_fraction", [1.0, 0.6])
    @pytest.mark.parametrize(
        "mode",
        [dict(), dict(batched=False), dict(window_size=64)],
        ids=["gate", "scalar", "windowed"],
    )
    def test_simulate_workload_records_each_arrival_once(
        self, mode, read_fraction
    ):
        rec = MetricsRecorder(50.0)
        report = simulate_workload(
            ring_layout(9, 4),
            duration_ms=500.0,
            config=WorkloadConfig(
                interarrival_ms=2.0, read_fraction=read_fraction, seed=5
            ),
            recorder=rec,
            **mode,
        )
        assert report.scheduled > 0
        assert sum(rec.arrival_buckets(0).values()) == report.scheduled
