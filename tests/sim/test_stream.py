"""Streaming compiled execution: window generation and the
constant-memory executors.

The contract under test: for every engine the selection gate can pick
(analytic solver, eager core, chained heap pump) and every failure
state, a windowed run produces a report equal — field for field,
including every float — to the materialized run of the same config,
at any window size.  Window boundaries are adversarial by
construction: ``window_size=1`` puts a boundary between every pair of
requests (so every multi-phase read-modify-write spans one), a prime
size keeps boundaries sliding relative to any internal periodicity,
and a size beyond the stream length degenerates to one window.
"""

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import get_layout
from repro.obs import (
    MetricsRecorder,
    build_rows,
    prometheus_text,
    render_metrics_jsonl,
)
from repro.layouts import ring_layout
from repro.sim import (
    WorkloadConfig,
    compile_workload,
    runner,
    schedule_compiled,
    simulate_workload,
)
from repro.sim.batchstep import (
    _eager_core,
    _EagerCore,
    _exact_core,
    _ExactCore,
)
from repro.sim.compile import (
    ArrayWindows,
    StreamWindows,
    _WindowedSolver,
    compile_stream,
    generate_request_stream,
)
from repro.sim.controller import ArrayController
from repro.sim.events import Simulator
from repro.sim.native import NativeEagerCore
from repro.sim.stats import LatencyStats, summarize
from repro.sim.stream import (
    _digest_sink,
    _execute_shard_windows,
    _ShardRoute,
    execute_windows,
)

LAYOUT = get_layout(9, 3)
DURATION = 600.0
#: One of each shape: a boundary everywhere, a sliding prime, a
#: power of two, and larger than the whole stream.
WINDOW_SIZES = (1, 13, 64, 10**6)


def _cfg(**overrides) -> WorkloadConfig:
    base = dict(interarrival_ms=2.0, read_fraction=0.6, seed=5)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestStreamWindows:
    def test_concatenation_matches_whole_stream_at_every_size(self):
        cfg = _cfg()
        whole = generate_request_stream(cfg, DURATION, 100)
        for ws in (1, 7, 64, 10**6):
            chunks = list(StreamWindows(cfg, DURATION, 100, window_size=ws))
            for i in range(3):
                got = np.concatenate([c[i] for c in chunks])
                assert np.array_equal(got, whole[i]), (ws, i)

    def test_zipf_addresses_chunk_identically(self):
        cfg = _cfg(zipf_theta=0.9)
        whole = generate_request_stream(cfg, DURATION, 100)
        chunks = list(StreamWindows(cfg, DURATION, 100, window_size=7))
        got = np.concatenate([c[2] for c in chunks])
        assert np.array_equal(got, whole[2])

    def test_reiterable_and_deterministic(self):
        """Each ``iter()`` builds fresh generators: two full iterations
        (and two interleaved iterators) yield identical windows."""
        w = StreamWindows(_cfg(), DURATION, 100, window_size=16)
        first = [tuple(map(np.copy, c)) for c in w]
        second = list(w)
        assert len(first) == len(second) and len(first) > 1
        for a, b in zip(first, second):
            for i in range(3):
                assert np.array_equal(a[i], b[i])
        it1, it2 = iter(w), iter(w)
        a, _ = next(it1), next(it1)
        b = next(it2)
        assert np.array_equal(a[0], b[0])

    def test_times_strictly_ordered_across_boundaries(self):
        last = float("-inf")
        for times, _, _ in StreamWindows(_cfg(), DURATION, 100, window_size=9):
            assert float(times[0]) > last
            assert np.all(np.diff(times) >= 0)
            assert float(times[-1]) < DURATION
            last = float(times[-1])

    def test_oversized_window_is_one_window(self):
        chunks = list(StreamWindows(_cfg(), DURATION, 100, window_size=10**6))
        assert len(chunks) == 1

    def test_window_size_validated(self):
        with pytest.raises(ValueError, match="window_size"):
            StreamWindows(_cfg(), DURATION, 100, window_size=0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_horizon_validated(self, duration):
        """A NaN or infinite horizon would never end the windows."""
        with pytest.raises(ValueError, match="duration_ms"):
            StreamWindows(_cfg(), duration, 100)
        with pytest.raises(ValueError, match="duration_ms"):
            generate_request_stream(_cfg(), duration, 100)


#: (id, simulate_workload overrides) — one per engine/failure state
#: the selection gate distinguishes.
CASES = [
    ("read_only_solver", dict(config=_cfg(read_fraction=1.0))),
    ("write_through_solver", dict(config=_cfg(), write_policy="write_through")),
    ("mixed_rmw_eager", dict(config=_cfg())),
    ("degraded_mixed", dict(config=_cfg(), failed_disk=1)),
    ("degraded_read_only", dict(config=_cfg(read_fraction=1.0), failed_disk=1)),
    ("dataplane_pump", dict(config=_cfg(read_fraction=0.5), verify_data=True)),
    ("zipf_mixed", dict(config=_cfg(zipf_theta=0.9))),
]


class TestWindowedReportEquality:
    """Windowed == materialized, per engine, per failure state, per
    window size — the report dataclass compared whole (latency floats,
    per-disk counters, utilizations, final clock)."""

    @pytest.mark.parametrize(
        "overrides", [c[1] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_matches_materialized_at_every_window_size(self, overrides):
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=DURATION, **overrides)
        )
        for ws in WINDOW_SIZES:
            windowed = asdict(
                simulate_workload(
                    LAYOUT, duration_ms=DURATION, window_size=ws, **overrides
                )
            )
            assert windowed == materialized, ws

    def test_window_boundary_mid_rmw(self):
        """``window_size=1`` places a boundary after *every* request —
        each write's read and write phases straddle one.  The eager
        core must carry its pending-phase heap across all of them."""
        overrides = dict(config=_cfg(read_fraction=0.0))
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=DURATION, **overrides)
        )
        windowed = asdict(
            simulate_workload(
                LAYOUT, duration_ms=DURATION, window_size=1, **overrides
            )
        )
        assert windowed == materialized


#: (id, simulate_workload overrides, engine the windowed run lands on,
#: whether it runs on the event heap).  The pump case ties exactly on a
#: disk, so the eager core aborts and the stream replays on the exact
#: core: the heap pump's serialization and label, without the heap.
#: The degraded and data-plane cases rule the eager tier out; nothing
#: foreign is scheduled on their one shard, so they replay on the exact
#: core too.
METRICS_CASES = [
    ("solver", dict(config=_cfg(read_fraction=1.0)), "windowed-solver", False),
    ("eager", dict(config=_cfg()), "windowed-eager", False),
    (
        "degraded_eager",
        dict(config=_cfg(), failed_disk=1),
        "windowed-pump",
        False,
    ),
    (
        "pump",
        dict(config=_cfg(interarrival_ms=0.5, seed=0)),
        "windowed-pump",
        False,
    ),
    (
        "dataplane",
        dict(config=_cfg(read_fraction=0.5), verify_data=True),
        "windowed-pump",
        False,
    ),
]


class TestWindowedMetricsIdentity:
    """A recorder attached to a single-array windowed run fills the same
    snapshot rows — and the report serializes to the same bytes — at
    every window size, whichever engine runs."""

    @pytest.mark.parametrize(
        "overrides,engine,on_heap",
        [c[1:] for c in METRICS_CASES],
        ids=[c[0] for c in METRICS_CASES],
    )
    def test_rows_and_report_identical_at_every_window_size(
        self, overrides, engine, on_heap, monkeypatch
    ):
        built = []

        class Spy(ArrayController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "ArrayController", Spy)
        outputs = set()
        for ws in (1, 7, 64, 10**6):
            rec = MetricsRecorder(50.0)
            report = simulate_workload(
                LAYOUT,
                duration_ms=DURATION,
                window_size=ws,
                recorder=rec,
                **overrides,
            )
            assert report.engine == engine, ws
            assert rec.engines == {0: engine}
            assert (built[-1].sim.events_processed > 0) == on_heap, ws
            assert 'event="window_boundaries"' in prometheus_text(rec), ws
            outputs.add(
                (
                    json.dumps(asdict(report)),
                    render_metrics_jsonl(build_rows(rec)),
                )
            )
        assert len(outputs) == 1
        ((_, rows),) = outputs
        final = json.loads(rows.splitlines()[-1])
        assert final["totals"]["arrived"] == report.scheduled


def _all_heap(sim):
    """Arm a no-op naming no shard: every shard on the clock then counts
    as armed, so the gates run the all-heap serialization."""
    sim.at(sim.now, lambda: None)


def _disk_state(ctrl):
    return [
        (
            d.busy_time,
            d.total_queue_delay,
            d.completed_reads,
            d.completed_writes,
            d._last_offset,
        )
        for d in ctrl.disks
    ]


def _rows(rec):
    """Metrics JSONL without the final row's engine labels and run
    counters (the only fields that name the path taken)."""
    rows = build_rows(rec)
    final = dict(rows[-1])
    del final["engine"], final["counters"]
    return render_metrics_jsonl(rows[:-1] + [final])


def _split(times, is_read, lbas, ws):
    return [
        (times[i : i + ws], is_read[i : i + ws], lbas[i : i + ws])
        for i in range(0, len(times), ws)
    ]


class _Passes(list):
    """Re-iterable windows that count the passes begun over them (an
    ``iter()`` probe that reads nothing is not a pass)."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        yield from super().__iter__()


class TestWindowedExactReplay:
    """A shard whose windowed eager attempt tie-aborts, or a degraded
    shard, which makes no eager attempt, replays on the exact core, one
    window at a time, on an idle clock: the heap pump's serialization
    (and ``windowed-pump`` label) without the event heap."""

    @pytest.mark.parametrize("failed", [None, 1])
    @pytest.mark.parametrize("tick", [8.0, 5.0])
    def test_quantized_replay_matches_pump_and_heap(self, tick, failed):
        """Grid-quantized arrivals mass-produce tied epochs, and window
        sizes 1, 7 and 64 split them across boundaries: the replay, the
        windowed gate's chained heap pump and the materialized heap run
        agree on clock, per-disk state, summaries and metrics rows."""
        layout = ring_layout(9, 4)
        cfg = WorkloadConfig(interarrival_ms=2.0, read_fraction=0.6, seed=3)
        trace = compile_workload(ArrayController(layout).mapper, cfg, 900.0)
        times = np.floor(trace.times / tick) * tick
        order = np.argsort(times, kind="stable")
        times = times[order]
        is_read, lbas = trace.is_read[order], trace.lbas[order]

        def array():
            ctrl = ArrayController(layout)
            if failed is not None:
                ctrl.fail_disk(failed)
            ctrl.obs = MetricsRecorder(50.0)
            return ctrl

        heap = array()
        heap.obs.arrivals(0, times)
        schedule_compiled(
            heap, compile_stream(heap.mapper, times, is_read, lbas)
        )
        heap.sim.run()
        expected = (
            heap.sim.now,
            _disk_state(heap),
            {k: summarize(st) for k, st in heap.latency.items()},
            _rows(heap.obs),
        )
        cap = heap.mapper.capacity
        route = _ShardRoute(np.zeros(1, dtype=np.int64), cap, cap, cap)
        for ws in (1, 7, 64):
            windows = _split(times, is_read, lbas, ws)
            replay, pump = array(), array()
            _, digests = execute_windows(replay, windows)
            pump_digests = {}
            _all_heap(pump.sim)
            _execute_shard_windows([pump], route, windows, [pump_digests])
            assert replay.last_engine == pump.last_engine == "windowed-pump"
            assert replay.sim.events_processed == 0
            assert pump.sim.events_processed > 0
            aborts = {"tie_abort_replays": 1} if failed is None else {}
            assert replay.obs.counters() == aborts
            for ctrl, dg in ((replay, digests), (pump, pump_digests)):
                got = (
                    ctrl.sim.now,
                    _disk_state(ctrl),
                    {k: summarize(d) for k, d in dg.items()},
                    _rows(ctrl.obs),
                )
                assert got == expected, (ws, ctrl.sim.events_processed)

    def test_shards_demoting_in_different_windows(self, monkeypatch):
        """Four shards on one clock, each crafted to tie-abort its eager
        core at a different point: shards 0 and 2 on an arrival tied
        with a pending write phase, shard 1 on two tied pending phases
        mid-stream, shard 3 on two tied pending phases after its last
        arrival — late, in ``finish()``.  The carry replays all four, in
        one pass over the windows after the carry pass, and matches the
        all-heap pump run."""
        mapper = ArrayController(LAYOUT).mapper
        cap = mapper.capacity
        d, o, _s, pd, po = mapper.map_batch_parity(np.arange(cap))

        def first(mask):
            return int(np.flatnonzero(mask)[0])

        # Writes w1 = (X, parity Y) and w2 = (Z, parity X), reads ry on
        # Y, rz on Z, rx on X, with every queued IO on a non-adjacent
        # offset so each one takes the average service time.
        for x, y, z in itertools.permutations(range(LAYOUT.v), 3):
            w1, w2 = (d == x) & (pd == y), (d == z) & (pd == x)
            ry, rz = d == y, d == z
            if not (w1.any() and w2.any() and ry.any() and rz.any()):
                continue
            w1, w2, ry, rz = first(w1), first(w2), first(ry), first(rz)
            if min(
                abs(o[w1] - po[w2]), abs(o[ry] - po[w1]), abs(o[rz] - o[w2])
            ) > 1:
                break
        else:
            raise AssertionError("no disk triple fits the crafted ties")
        rx = first(d == x)
        # Filler requests keep off the three disks, so they stay idle
        # (no last offset) until the crafted requests arrive.
        fill = np.flatnonzero(~np.isin(d, (x, y, z)) & ~np.isin(pd, (x, y, z)))
        avg = ArrayController(LAYOUT).params.average_service_ms
        arrival_tie = [(0.0, False, w1), (avg, True, rx)]
        pending_tie = [(0.0, True, ry), (0.0, True, rz), (0.0, False, w1),
                       (0.0, False, w2)]
        reqs = []
        for shard, (at, crafted) in enumerate(
            [(1100.0, arrival_tie), (3100.0, pending_tie),
             (5100.0, arrival_tie), (8100.0, pending_tie)]
        ):
            reqs += [
                (200.0 * j + 7.0 * shard + 0.25, j % 2 == 0,
                 shard * cap + int(fill[j % len(fill)]))
                for j in range(40)
            ]
            reqs += [(at + dt, r, shard * cap + int(lba))
                     for dt, r, lba in crafted]
        reqs.sort(key=lambda req: req[0])
        times = np.array([req[0] for req in reqs])
        is_read = np.array([req[1] for req in reqs])
        lbas = np.array([req[2] for req in reqs], dtype=np.int64)
        route = _ShardRoute(np.arange(4, dtype=np.int64), cap, cap, 4 * cap)

        aborts = {}

        def spy_feed(feed):
            def spied(core, plan, sink):
                ok = feed(core, plan, sink)
                if not ok:
                    aborts[core.ctrl.obs_shard] = plan.times[-1]
                return ok

            return spied

        def spy_finish(finish):
            def spied(core, sink):
                ok = finish(core, sink)
                if not ok:
                    aborts[core.ctrl.obs_shard] = "finish"
                return ok

            return spied

        # Whichever eager core runs: the compiled one, or the Python
        # one on a host without the kernel.
        for cls in (_EagerCore, NativeEagerCore):
            monkeypatch.setattr(cls, "feed", spy_feed(cls.feed))
            monkeypatch.setattr(cls, "finish", spy_finish(cls.finish))

        def serve(all_heap):
            sim = Simulator()
            rec = MetricsRecorder(500.0)
            ctrls = [ArrayController(LAYOUT, sim=sim) for _ in range(4)]
            for shard, ctrl in enumerate(ctrls):
                ctrl.obs, ctrl.obs_shard = rec, shard
            digests = [{} for _ in ctrls]
            if all_heap:
                _all_heap(sim)
            windows = _Passes(_split(times, is_read, lbas, 16))
            scheduled, _ = _execute_shard_windows(
                ctrls, route, windows, digests
            )
            return sim, rec, windows.passes, (
                sim.now,
                scheduled,
                [_disk_state(c) for c in ctrls],
                [{k: summarize(v) for k, v in dg.items()} for dg in digests],
                [c.last_engine for c in ctrls],
                _rows(rec),
            )

        sim, rec, passes, carry = serve(False)
        late = [aborts[shard] for shard in range(3)]
        assert late == sorted(set(late)) and aborts[3] == "finish", aborts
        assert sim.events_processed == 0
        assert rec.counters() == {"tie_abort_replays": 4}
        # The carry pass, then one replay pass for all four shards.
        assert passes == 2
        sim, rec, passes, pump = serve(True)
        assert sim.events_processed > 0 and rec.counters() == {}
        assert passes == 4  # one chained pump per shard
        assert carry == pump
        assert carry[4] == ["windowed-pump"] * 4


class TestWindowedPerShardGate:
    @pytest.mark.parametrize("ws", [1, 16, 10**6])
    def test_named_shard_pumps_beside_quiet_replay(self, ws):
        """Two data-plane shards on one clock, a failure armed naming
        shard 0: shard 0 streams through the heap pump, shard 1 replays
        on the exact core, and both match the all-heap serialization —
        clock, disk state, summaries, metrics rows and store bytes."""
        cap = ArrayController(LAYOUT).mapper.capacity
        route = _ShardRoute(np.arange(2, dtype=np.int64), cap, cap, 2 * cap)
        times, is_read, lbas = generate_request_stream(
            _cfg(interarrival_ms=0.5), DURATION, 2 * cap
        )
        windows = _split(times, is_read, lbas, ws)

        def serve(all_heap):
            sim = Simulator()
            rec = MetricsRecorder(50.0)
            ctrls = [
                ArrayController(LAYOUT, sim=sim, dataplane=True, seed=s)
                for s in range(2)
            ]
            for shard, ctrl in enumerate(ctrls):
                ctrl.obs, ctrl.obs_shard = rec, shard
            sim.arm(DURATION / 3, lambda: ctrls[0].fail_disk(4), ctrls[:1])
            if all_heap:
                _all_heap(sim)
            digests = [{} for _ in ctrls]
            scheduled, n_windows = _execute_shard_windows(
                ctrls, route, windows, digests
            )
            state = (
                sim.now,
                scheduled,
                n_windows,
                [_disk_state(c) for c in ctrls],
                [{k: summarize(d) for k, d in dg.items()} for dg in digests],
                [c.last_engine for c in ctrls],
                [c.data.store.tobytes() for c in ctrls],
                render_metrics_jsonl(build_rows(rec)),
            )
            return state, [c.last_executor for c in ctrls]

        heap, heap_executors = serve(True)
        gated, executors = serve(False)
        assert heap_executors == ["event-heap"] * 2
        assert executors == ["event-heap", "exact-native"]
        assert gated == heap
        assert "degraded_read" in gated[4][0] and gated[5] == ["windowed-pump"] * 2


class TestExecuteWindowsGate:
    def test_unbatched_windowed_rejected(self):
        with pytest.raises(ValueError, match="batched"):
            simulate_workload(
                LAYOUT, duration_ms=50.0, window_size=8, batched=False
            )

    @pytest.mark.parametrize(
        "source, engine",
        [
            ("stream", "windowed-solver"),
            ("arrays", "windowed-solver"),
            ("list", "windowed-eager"),
        ],
    )
    def test_source_says_whether_it_is_all_reads(self, source, engine):
        """``StreamWindows`` and ``ArrayWindows`` carry ``read_only``,
        true for an all-read stream only, which then takes the analytic
        solver; any other iterable counts as mixed, and the same reads
        run on the eager core — the same report either way."""
        cap = ArrayController(LAYOUT).mapper.capacity

        def windows(cfg):
            if source == "arrays":
                stream = generate_request_stream(cfg, DURATION, cap)
                return ArrayWindows(*stream, 16)
            w = StreamWindows(cfg, DURATION, cap, 16)
            return list(w) if source == "list" else w

        assert not getattr(windows(_cfg()), "read_only", False)
        cfg = _cfg(read_fraction=1.0)
        ctrl = ArrayController(LAYOUT)
        scheduled, digests = execute_windows(ctrl, windows(cfg))
        assert ctrl.last_engine == engine
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=DURATION, config=cfg)
        )
        assert scheduled == materialized["scheduled"]
        latency = {kind: summarize(d) for kind, d in digests.items()}
        assert latency == materialized["latency"]

    def test_one_shot_generator_streams_through_pump(self):
        """A non-re-iterable window source skips the eager tier (an
        abort could not replay) and still reproduces the materialized
        report, replaying the heap pump's serialization on the exact
        core in its one pass (the id predates the replay)."""
        cfg = _cfg()
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=400.0, config=cfg)
        )
        ctrl = ArrayController(LAYOUT)
        one_shot = iter(
            StreamWindows(cfg, 400.0, ctrl.mapper.capacity, window_size=32)
        )
        scheduled, digests = execute_windows(ctrl, one_shot)
        assert ctrl.last_engine == "windowed-pump"
        assert ctrl.last_executor == "exact-native"
        assert ctrl.sim.events_processed == 0
        assert scheduled == materialized["scheduled"]
        latency = {kind: summarize(d) for kind, d in digests.items()}
        assert latency == materialized["latency"]
        assert ctrl.per_disk_completed() == materialized["per_disk_ios"]

    def test_one_shot_source_refused_when_passes_split(self):
        """Two shards on one clock, a failure naming shard 0: the gate
        needs a pump pass for shard 0 and a replay pass for shard 1, so
        a one-shot source is refused before anything is read or
        touched, never split between the passes."""
        cap = ArrayController(LAYOUT).mapper.capacity
        route = _ShardRoute(np.arange(2, dtype=np.int64), cap, cap, 2 * cap)
        windows = StreamWindows(_cfg(), DURATION, 2 * cap, window_size=32)
        sim = Simulator()
        ctrls = [ArrayController(LAYOUT, sim=sim, seed=s) for s in range(2)]
        for shard, ctrl in enumerate(ctrls):
            ctrl.obs_shard = shard
        sim.arm(DURATION / 3, lambda: ctrls[0].fail_disk(4), ctrls[:1])
        one_shot = iter(windows)
        with pytest.raises(ValueError, match="one-shot"):
            _execute_shard_windows(ctrls, route, one_shot, [{}, {}])
        assert len(list(one_shot)) == len(list(windows))
        assert [c.last_engine for c in ctrls] == [None, None]
        assert sim.pending()

    @pytest.mark.parametrize("lba", [-1, 10**6])
    @pytest.mark.parametrize("one_shot", [False, True], ids=["carry", "pump"])
    def test_lbas_outside_capacity_refused(self, lba, one_shot):
        windows = [
            (np.array([1.0, 2.0]), np.array([True, False]), np.array([0, lba]))
        ]
        ctrl = ArrayController(LAYOUT)
        with pytest.raises(IndexError, match="outside the capacity"):
            execute_windows(ctrl, iter(windows) if one_shot else windows)

    def test_empty_stream(self):
        """A horizon shorter than the first arrival yields no windows
        and a zero report on both paths."""
        overrides = dict(config=_cfg(seed=11))
        materialized = simulate_workload(
            LAYOUT, duration_ms=1e-9, **overrides
        )
        windowed = simulate_workload(
            LAYOUT, duration_ms=1e-9, window_size=4, **overrides
        )
        assert materialized.scheduled == windowed.scheduled == 0
        assert asdict(windowed) == asdict(materialized)


def _native_core(ctrl):
    core = _exact_core(ctrl, "windowed-pump")
    assert ctrl.last_executor == "exact-native"
    return core


def _native_eager(ctrl):
    core = _eager_core(ctrl, "windowed-eager")
    assert ctrl.last_executor == "eager-native"
    return core


#: (id, engine factory, layout, failed disk, mean interarrival ms, read
#: fraction, seed, arrival grid ms) — one case per off-heap engine: the
#: analytic solver on reads, both eager cores on a tie-free mix, and
#: both exact cores on a grid-snapped mix full of ties (the Python core
#: on a degraded array too).
PROTOCOL_CASES = [
    ("solver", _WindowedSolver, get_layout(13, 4), None, 1.0, 1.0, 5, None),
    ("eager", _EagerCore, get_layout(13, 4), None, 5.0, 0.7, 7, None),
    ("eager-kernel", _native_eager, get_layout(13, 4), None, 5.0, 0.7, 7,
     None),
    ("python-exact", _ExactCore, ring_layout(9, 4), None, 2.0, 0.6, 3, 5.0),
    ("kernel", _native_core, ring_layout(9, 4), None, 2.0, 0.6, 3, 5.0),
    ("python-degraded", _ExactCore, ring_layout(9, 4), 1, 2.0, 0.6, 3, 5.0),
]
EXACT_CASES = ("python-exact", "kernel", "python-degraded")


class TestSinkProtocol:
    """Every off-heap engine runs one protocol: ``feed(trace, sink)``
    and ``finish(sink)``, emitting ``sink(kind, lats, comps)`` batches
    of float64 arrays.  Fed whole or in 1-, 7- or 64-request windows,
    each kind's batches concatenate into the same arrays, the exact
    cores' into the heap's own sample lists, and the controller's
    sample lists stay untouched: the sink is the only way out."""

    @staticmethod
    def _stream(case):
        _id, _engine, layout, failed, gap, read_fraction, seed, tick = case
        cap = ArrayController(layout).mapper.capacity
        cfg = WorkloadConfig(
            interarrival_ms=gap, read_fraction=read_fraction, seed=seed
        )
        times, is_read, lbas = generate_request_stream(cfg, 500.0 * gap, cap)
        if tick is not None:
            times = np.floor(times / tick) * tick
        return times, is_read, lbas

    @staticmethod
    def _controller(case):
        ctrl = ArrayController(case[2])
        if case[3] is not None:
            ctrl.fail_disk(case[3])
        return ctrl

    def _feed(self, case, window, make_sink=None):
        """Feed the case's stream in ``window``-request windows (None:
        whole) into the sink ``make_sink(ctrl)`` builds (None: one
        recording every batch); returns the controller and the
        recorded ``(kind, lats, comps)`` batches."""
        times, is_read, lbas = self._stream(case)
        ctrl = self._controller(case)
        engine = case[1](ctrl)
        batches = []

        def record(*batch):
            batches.append(batch)

        sink = record if make_sink is None else make_sink(ctrl)
        step = window or len(times)
        for i in range(0, len(times), step):
            j = i + step
            trace = compile_stream(
                ctrl.mapper, times[i:j], is_read[i:j], lbas[i:j]
            )
            assert engine.feed(trace, sink) is True
        assert engine.finish(sink) is True
        assert ctrl.sim.events_processed == 0
        return ctrl, batches

    @staticmethod
    def _joined(batches):
        kinds = {}
        for kind, lats, comps in batches:
            for arr in (lats, comps):
                assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert len(lats) == len(comps) and len(lats)
            assert (np.diff(comps) >= 0).all()  # completion-sorted
            kinds.setdefault(kind, []).append((lats, comps))
        return {
            kind: tuple(np.concatenate(col).tobytes() for col in zip(*parts))
            for kind, parts in kinds.items()
        }

    @pytest.mark.parametrize(
        "case", PROTOCOL_CASES, ids=[c[0] for c in PROTOCOL_CASES]
    )
    def test_batches_concatenate_identically(self, case):
        whole_ctrl, whole = self._feed(case, None)
        assert whole_ctrl.latency == {}
        ref = self._joined(whole)
        assert sum(len(b[1]) for b in whole) == len(self._stream(case)[0])
        for window in (1, 7, 64):
            ctrl, batches = self._feed(case, window)
            assert ctrl.latency == {}
            assert self._joined(batches) == ref, window
            assert _disk_state(ctrl) == _disk_state(whole_ctrl), window
            assert ctrl.sim.now == whole_ctrl.sim.now
        if case[0] in EXACT_CASES:
            times, is_read, lbas = self._stream(case)
            heap = self._controller(case)
            schedule_compiled(
                heap, compile_stream(heap.mapper, times, is_read, lbas)
            )
            heap.sim.run()
            assert {
                kind: np.array(st.samples).tobytes()
                for kind, st in heap.latency.items()
            } == {kind: lats for kind, (lats, _c) in ref.items()}
            assert _disk_state(heap) == _disk_state(whole_ctrl)
            assert heap.sim.now == whole_ctrl.sim.now

    @pytest.mark.parametrize(
        "case", PROTOCOL_CASES, ids=[c[0] for c in PROTOCOL_CASES]
    )
    def test_digest_sink_leaves_controller_lists_alone(self, case):
        digests = {}
        rec = MetricsRecorder(50.0)

        def make_sink(ctrl):
            ctrl.obs = rec
            return _digest_sink(ctrl, digests)

        ctrl, _ = self._feed(case, 64, make_sink)
        assert ctrl.latency == {}
        _, batches = self._feed(case, None)
        expected = {
            kind: summarize(LatencyStats(np.frombuffer(lats).tolist()))
            for kind, (lats, _c) in self._joined(batches).items()
        }
        assert {k: summarize(d) for k, d in digests.items()} == expected
        assert sum(
            d.count
            for kinds in rec._lat.values()
            for buckets in kinds.values()
            for d in buckets.values()
        ) == sum(int(s["count"]) for s in expected.values())

