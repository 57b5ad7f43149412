"""Fleet routing and serving: partition exactness, determinism,
aggregation, and the analytic fast path."""

import numpy as np
import pytest

from repro.service import Fleet
from repro.sim import (
    LatencyStats,
    WorkloadConfig,
    merge_summaries,
    simulate_workload,
    summarize,
)
from repro.sim.compile import generate_request_stream


def _stream(fleet, n=500, read_fraction=0.7, seed=11):
    cfg = WorkloadConfig(
        interarrival_ms=1.0, read_fraction=read_fraction, seed=seed
    )
    return generate_request_stream(cfg, float(n), fleet.capacity)


class TestRouting:
    def test_partition_covers_stream_exactly(self):
        fleet = Fleet(4, 9, 3, seed=0)
        times, is_read, lbas = _stream(fleet)
        compiled, shard_ids = fleet.route_stream(times, is_read, lbas)
        assert sum(t.n for t in compiled) == len(times)
        counts = np.bincount(shard_ids, minlength=4)
        assert [t.n for t in compiled] == counts.tolist()

    def test_routing_deterministic_under_fixed_seed(self):
        f1 = Fleet(8, 9, 3, seed=5)
        f2 = Fleet(8, 9, 3, seed=5)
        times, is_read, lbas = _stream(f1)
        _, ids1 = f1.route_stream(times, is_read, lbas)
        _, ids2 = f2.route_stream(times, is_read, lbas)
        assert (ids1 == ids2).all()
        assert f1.shard_map.fingerprint() == f2.shard_map.fingerprint()

    def test_same_volume_routes_to_same_shard(self):
        fleet = Fleet(4, 9, 3, seed=0)
        vu = fleet.volume_units
        lbas = np.array([3 * vu, 3 * vu + 1, 3 * vu + vu - 1], dtype=np.int64)
        n = len(lbas)
        _, ids = fleet.route_stream(
            np.arange(n, dtype=np.float64), np.ones(n, dtype=bool), lbas
        )
        assert len(set(ids.tolist())) == 1

    def test_relative_order_preserved_within_shard(self):
        fleet = Fleet(4, 9, 3, seed=0)
        times, is_read, lbas = _stream(fleet, n=300)
        compiled, shard_ids = fleet.route_stream(times, is_read, lbas)
        for s, trace in enumerate(compiled):
            mask = shard_ids == s
            assert (trace.times == times[mask]).all()
            assert (trace.lbas == lbas[mask] % fleet.shard_capacity).all()

    def test_out_of_order_stream_routes_as_its_stable_sort(self):
        """A stream out of arrival order compiles as its stable sort
        (ties keep stream order), and its shard ids come back in input
        order."""
        fleet = Fleet(4, 9, 3, seed=0)
        times, is_read, lbas = _stream(fleet, n=300)
        perm = np.random.default_rng(2).permutation(len(times))
        stream = (np.floor(times)[perm], is_read[perm], lbas[perm])
        compiled, ids = fleet.route_stream(*stream)
        order = np.argsort(stream[0], kind="stable")
        ref, ref_ids = fleet.route_stream(*(col[order] for col in stream))
        assert (ids[order] == ref_ids).all()
        fields = ("times", "is_read", "lbas", "disks", "offsets", "stripes")
        for got, want in zip(compiled, ref):
            for name in fields:
                assert (getattr(got, name) == getattr(want, name)).all()


class TestServing:
    def test_single_shard_fleet_matches_simulate_workload(self):
        """A 1-shard fleet is just an array: its report must agree with
        the single-array pipeline on the same compiled stream."""
        fleet = Fleet(1, 9, 3, seed=0)
        cfg = WorkloadConfig(interarrival_ms=2.0, read_fraction=1.0, seed=3)
        rep = fleet.serve_workload(cfg, 400.0)
        solo = simulate_workload(
            fleet.layout, duration_ms=400.0, config=cfg, batched=True
        )
        assert rep.scheduled == solo.scheduled
        assert rep.duration_ms == solo.duration_ms
        assert rep.per_disk_ios[0] == solo.per_disk_ios
        assert rep.latency == solo.latency

    def test_fleet_report_deterministic(self):
        reports = []
        for _ in range(2):
            fleet = Fleet(4, 9, 3, seed=2)
            cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.6, seed=9)
            reports.append(fleet.serve_workload(cfg, 300.0))
        a, b = reports
        assert a.scheduled == b.scheduled
        assert a.duration_ms == b.duration_ms
        assert a.per_shard_scheduled == b.per_shard_scheduled
        assert a.latency == b.latency
        assert a.per_disk_ios == b.per_disk_ios

    def test_read_only_healthy_uses_analytic_solver(self):
        fleet = Fleet(3, 9, 3, seed=0)
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=1.0, seed=4)
        rep = fleet.serve_workload(cfg, 300.0)
        # The solver never runs the event loop.
        assert fleet.sim.events_processed == 0
        assert rep.scheduled > 0
        assert rep.duration_ms > 0

    def test_mixed_serves_through_batch_stepped_executor(self):
        """With an idle clock, mixed traffic executes per shard on the
        batch-stepped executor — the shared event heap never runs."""
        fleet = Fleet(3, 9, 3, seed=0)
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.5, seed=4)
        rep = fleet.serve_workload(cfg, 300.0)
        assert fleet.sim.events_processed == 0
        assert rep.scheduled > 0
        kinds = set(rep.latency)
        assert {"read", "write"} <= kinds

    def test_mixed_serves_through_heap_when_timers_armed(self):
        """Anything pending on the shared clock (here: a scheduled
        failure injection) forces the general event-heap path."""
        fleet = Fleet(3, 9, 3, seed=0)
        fleet.sim.schedule(150.0, lambda: fleet.controllers[0].fail_disk(0))
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.5, seed=4)
        rep = fleet.serve_workload(cfg, 300.0)
        assert fleet.sim.events_processed > 0
        assert rep.scheduled > 0
        assert fleet.controllers[0].failed_disk == 0

    def test_solver_and_event_path_agree_on_read_only(self):
        """The per-shard analytic fast path must match event-driven
        execution of the same routed traces."""
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=1.0, seed=8)

        fast = Fleet(3, 9, 3, seed=1)
        times, is_read, lbas = generate_request_stream(cfg, 400.0, fast.capacity)
        fast_rep = fast.serve_stream(times, is_read, lbas)

        slow = Fleet(3, 9, 3, seed=1)
        compiled, _ = slow.route_stream(times, is_read, lbas)
        from repro.sim.compile import schedule_compiled

        for ctrl, trace in zip(slow.controllers, compiled):
            schedule_compiled(ctrl, trace)
        slow.sim.run()
        slow_rep = slow._report(
            [t.n for t in compiled],
            start=0.0,
            accs=[
                {kind: st for kind, st in ctrl.latency.items() if st.count}
                for ctrl in slow.controllers
            ],
            ios_base=[[0] * slow.layout.v for _ in slow.controllers],
        )

        assert fast_rep.scheduled == slow_rep.scheduled
        assert fast_rep.duration_ms == slow_rep.duration_ms
        assert fast_rep.per_disk_ios == slow_rep.per_disk_ios
        for kind in fast_rep.latency:
            assert fast_rep.latency[kind]["count"] == (
                slow_rep.latency[kind]["count"]
            )
            assert fast_rep.latency[kind]["mean"] == pytest.approx(
                slow_rep.latency[kind]["mean"]
            )

    def test_throughput_improves_with_shards(self):
        cfg = WorkloadConfig(interarrival_ms=0.3, read_fraction=0.9, seed=7)
        one = Fleet(1, 9, 3, seed=0).serve_workload(cfg, 1000.0)
        eight = Fleet(8, 9, 3, seed=0).serve_workload(cfg, 1000.0)
        assert eight.scheduled == one.scheduled
        assert eight.throughput_rps > 1.5 * one.throughput_rps

    @pytest.mark.parametrize(
        "order", [("heap", "off"), ("off", "heap")], ids=["heap-first", "off-first"]
    )
    def test_repeated_serves_report_independently(self, order):
        """A long-lived fleet serves many streams; each report must
        cover its own stream only, not cumulative controller state —
        also when the samples before it sit in a different storage:
        heap-appended floats beside off-heap engine arrays."""
        fleet = Fleet(2, 9, 3, seed=0)
        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.8, seed=6)
        reports = []
        for path in order:
            if path == "heap":
                # A pending event naming no shard sends every shard to
                # the event heap.
                fleet.sim.at(fleet.sim.now, lambda: None)
            before = [
                {kind: st.samples for kind, st in c.latency.items()}
                for c in fleet.controllers
            ]
            rep = fleet.serve_workload(cfg, 200.0)
            on_heap = [e == "event-heap" for e in rep.executors]
            assert on_heap == [path == "heap"] * 2
            # Exactly the samples this serve added, shard by shard.
            added = [
                {
                    kind: LatencyStats(st.samples[len(prior.get(kind, [])):])
                    for kind, st in sorted(c.latency.items())
                }
                for c, prior in zip(fleet.controllers, before)
            ]
            assert rep.per_shard_latency == [
                {kind: summarize(st) for kind, st in shard.items()}
                for shard in added
            ]
            assert rep.latency == {
                kind: merge_summaries(
                    [shard[kind] for shard in added if kind in shard]
                )
                for kind in sorted({k for shard in added for k in shard})
            }
            reports.append(rep)
        first, second = reports
        assert second.scheduled == first.scheduled
        for kind, summary in second.latency.items():
            assert summary["count"] == first.latency[kind]["count"]
        total_first = sum(sum(d) for d in first.per_disk_ios)
        total_second = sum(sum(d) for d in second.per_disk_ios)
        assert total_second == total_first

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Fleet(0, 9, 3)
        fleet = Fleet(2, 9, 3)
        with pytest.raises(ValueError):
            fleet.serve_compiled([])
