"""Fleet-level streaming: ``serve_windows`` / ``serve_workload(
window_size=...)`` / the scenario ``window_size`` knob, serial and
multi-process.

The contract: a windowed serve is byte-identical to the materialized
serve of the same stream — through the shard-set gate (carry engines
on an idle clock; heap pumps for shards an armed rebuild timer names
and exact-core replays for the rest, data planes included; heap pumps
that hand requests off by volume on every shard of a reshape or
autoscale serve), and the parallel runner's per-group gates.  Scenario
payloads are compared in canonical JSON form; the windowed scenario
echoes its ``window_size``, so scenario-vs-scenario comparisons strip
that one field (everything below the echo must match byte for byte).
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core import get_layout
from repro.obs import MetricsRecorder
from repro.service import (
    FailureEvent,
    FailureOrchestrator,
    Fleet,
    FleetScenario,
    MigrationCoordinator,
    WarmRuntime,
    canonical_payload,
    default_failure_schedule,
    run_fleet_scenario,
)
from repro.sim import ArrayController, WorkloadConfig, generate_request_stream
from repro.sim.compile import ArrayWindows, StreamWindows, _CompiledRun
from repro.sim.stream import execute_windows
from repro.sim.disk import DiskParameters

DURATION = 400.0
WINDOW_SIZES = (1, 13, 64, 10**6)


def _canon(payload: dict, *, ignore_window: bool = False) -> str:
    canon = canonical_payload(payload)
    if ignore_window:
        canon["scenario"] = {
            k: v for k, v in canon["scenario"].items() if k != "window_size"
        }
        # Engine labels legitimately differ between windowed and
        # materialized serves of the same scenario ("windowed-solver"
        # vs "solver", ...); the byte-identity contract covers them
        # only within one execution mode.
        canon.pop("engine", None)
        canon.pop("engine_per_shard", None)
    return json.dumps(canon, sort_keys=True)


def _workload(**overrides) -> WorkloadConfig:
    base = dict(interarrival_ms=1.0, read_fraction=0.7, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


#: (id, Fleet kwargs, workload) — one per serve_windows engine: the
#: two carry engines (eager / solver), the exact-core replay a data
#: plane forces (the id predates the gate, when data planes took a
#: live router of their own), the single-phase write-through fleet, and
#: a non-ring placement.
FLEET_CASES = [
    ("mixed_carry_eager", dict(dataplane=False), _workload()),
    ("read_only_solver", dict(dataplane=False), _workload(read_fraction=1.0)),
    ("dataplane_router", dict(dataplane=True), _workload()),
    (
        "write_through_solver",
        dict(dataplane=False, write_policy="write_through"),
        _workload(),
    ),
    ("p2c_placement", dict(dataplane=False, placement="p2c"), _workload()),
]


class TestServeWindowEquality:
    @pytest.mark.parametrize(
        "kwargs,config",
        [(c[1], c[2]) for c in FLEET_CASES],
        ids=[c[0] for c in FLEET_CASES],
    )
    def test_matches_materialized_at_every_window_size(self, kwargs, config):
        materialized = asdict(
            Fleet(3, 9, 3, seed=0, **kwargs).serve_workload(config, DURATION)
        )
        for ws in WINDOW_SIZES:
            windowed = asdict(
                Fleet(3, 9, 3, seed=0, **kwargs).serve_workload(
                    config, DURATION, window_size=ws
                )
            )
            assert windowed == materialized, ws


#: Integer service times (8 ms average, 4 ms sequential): with arrivals
#: floored to a 4 ms grid, exact time ties land everywhere, across
#: window boundaries too.
TIE_PARAMS = DiskParameters(
    average_seek_ms=5,
    rotational_latency_ms=2,
    transfer_ms_per_unit=1,
    sequential_seek_ms=1,
)


class TestTieHeavyWindows:
    @pytest.mark.parametrize("ws", [1, 64])
    @pytest.mark.parametrize("dataplane", [False, True], ids=["plain", "data"])
    @pytest.mark.parametrize(
        "failures", [False, True], ids=["healthy", "failures"]
    )
    def test_windowed_equals_materialized_at_ties(
        self, failures, dataplane, ws
    ):
        """At exact time ties across window boundaries, a windowed serve
        with failure timers or data planes equals the materialized one:
        the shard-set gate's pumps and replays number each window's
        first arrival epoch as the materialized heap does (a router
        that numbered it on delivery would not)."""

        def serve(windowed: bool) -> dict:
            fleet = Fleet(
                4, 9, 3, disk_params=TIE_PARAMS, dataplane=dataplane, seed=0
            )
            if failures:
                FailureOrchestrator(
                    fleet, default_failure_schedule(4, 9, 2, 100.0),
                    admission=2,
                ).arm()
            times, is_read, lbas = generate_request_stream(
                _workload(interarrival_ms=0.6, read_fraction=0.6, seed=0),
                300.0,
                fleet.capacity,
            )
            times = np.floor(times / 4.0) * 4.0
            if windowed:
                report = fleet.serve_windows(
                    ArrayWindows(times, is_read, lbas, ws)
                )
            else:
                report = fleet.serve_stream(times, is_read, lbas)
            fleet.sim.run()
            return asdict(report)

        assert serve(True) == serve(False)


class TestServeAgainAfterFailure:
    """A fleet that served through a failure keeps the failed array
    degraded: its rebuild restores the data to a spare, not the array's
    failure state.  Served again on an idle clock, the windowed gate
    decides per shard: the healthy arrays keep their eager carry, the
    degraded one replays on the exact core with no eager attempt — and
    the report equals the materialized serve of the same stream."""

    @pytest.mark.parametrize("ws", [1, 64, 10**6])
    @pytest.mark.parametrize("failed", [0, 2], ids=["lead", "inner"])
    def test_degraded_array_replays_beside_healthy_carry(self, failed, ws):
        def serve(window_size):
            fleet = Fleet(4, 9, 3, seed=0)
            FailureOrchestrator(
                fleet, (FailureEvent(100.0, failed, 1),), admission=2
            ).arm()
            fleet.serve_workload(_workload(), DURATION)
            fleet.sim.run()
            assert not fleet.sim.pending()
            assert [c.failed_disk for c in fleet.controllers] == [
                1 if i == failed else None for i in range(4)
            ]
            rec = MetricsRecorder(50.0)
            fleet.attach_recorder(rec)
            report = fleet.serve_workload(
                _workload(seed=4), DURATION, window_size=window_size
            )
            assert rec.counters().get("tie_abort_replays", 0) == 0
            return report

        materialized, windowed = serve(None), serve(ws)
        assert asdict(windowed) == asdict(materialized)
        healthy = ["eager", "eager-native"]
        for i, (m, w, x) in enumerate(
            zip(materialized.engines, windowed.engines, windowed.executors)
        ):
            if i == failed:
                assert (m, w, x) == (
                    "calendar", "windowed-pump", "exact-native"
                )
            else:
                assert m == "eager" and w == "windowed-eager", i
                assert x in healthy, i


class TestOneShotSource:
    @pytest.mark.parametrize(
        "failures", [False, True], ids=["healthy", "failures"]
    )
    def test_one_shot_generator_schedules_every_request(self, failures):
        """A one-shot window generator on a 4-shard fleet takes the
        shard-set gate like any other source.  On an idle clock the gate
        serves it in its one pass (the exact-core replay) and reports
        what the materialized serve does.  With failures armed, the
        failed arrays' heap pumps would each need a pass of their own,
        which such a source cannot give: the gate refuses it before it
        reads a window or moves the clock."""

        def fleet() -> Fleet:
            f = Fleet(4, 9, 3, seed=0)
            if failures:
                FailureOrchestrator(
                    f, default_failure_schedule(4, 9, 2, 100.0), admission=2
                ).arm()
            return f

        config = _workload()
        windowed = fleet()
        source = StreamWindows(
            config, DURATION, windowed.capacity, window_size=32
        )
        one_shot = iter(source)
        if failures:
            with pytest.raises(ValueError, match="one-shot window source"):
                windowed.serve_windows(one_shot)
            assert windowed.sim.now == 0.0 and windowed.sim.pending()
            assert all(not c.latency for c in windowed.controllers)
            unread, first = next(one_shot), next(iter(source))
            assert all(np.array_equal(a, b) for a, b in zip(unread, first))
            return
        expected = asdict(fleet().serve_workload(config, DURATION))
        assert asdict(windowed.serve_windows(one_shot)) == expected


class TestOneGateForEverySource:
    """Tie stress on the one-gate contract: a 4-shard (9,3) fleet over
    12 volumes, integer service times and arrivals floored to a 2 ms
    grid, so exact time ties land across window boundaries.  A list of
    windows and a one-shot iterator over the same list both take the
    shard-set gate.  On an idle clock both equal the materialized
    serve; with failures armed the list still does, and the iterator
    is refused before the clock moves."""

    @pytest.mark.parametrize("ws", [1, 5, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "failures", [False, True], ids=["idle", "failures"]
    )
    def test_list_and_one_shot_match_materialized(self, failures, seed, ws):
        def fleet() -> Fleet:
            f = Fleet(4, 9, 3, volumes=12, disk_params=TIE_PARAMS, seed=seed)
            if failures:
                FailureOrchestrator(
                    f, default_failure_schedule(4, 9, 2, 100.0), admission=2
                ).arm()
            return f

        capacity = fleet().capacity
        times, is_read, lbas = generate_request_stream(
            _workload(interarrival_ms=0.6, read_fraction=0.6, seed=seed),
            300.0,
            capacity,
        )
        times = np.floor(times / 2.0) * 2.0
        windows = list(ArrayWindows(times, is_read, lbas, ws))

        def serve(source) -> dict:
            f = fleet()
            if source is None:
                report = f.serve_stream(times, is_read, lbas)
            else:
                report = f.serve_windows(source)
            f.sim.run()
            return asdict(report)

        materialized = serve(None)
        assert serve(windows) == materialized
        if not failures:
            assert serve(iter(windows)) == materialized
            return
        refused = fleet()
        with pytest.raises(ValueError, match="one-shot window source"):
            refused.serve_windows(iter(windows))
        assert refused.sim.now == 0.0
        assert all(not c.latency for c in refused.controllers)


class TestReshapeAtTies:
    """The one routing step under the tie stress: a 4-shard (9,3) fleet
    over 12 volumes, integer service times, arrivals on a 2 ms grid,
    reshaped to 6 shards mid-stream (100 ms) or after the stream ends
    (10 s; pending throughout, so the coordinator takes every request
    of a moving volume).  Each starting shard's heap pump hands those
    requests off as they arrive, in its own epoch, whether it reads the
    whole trace or one window at a time — so every windowed serve,
    report and migration outcomes alike, equals the materialized one."""

    @pytest.mark.parametrize("at", [100.0, 10_000.0], ids=["mid", "after"])
    @pytest.mark.parametrize("dataplane", [False, True], ids=["plain", "data"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_windowed_equals_materialized(self, seed, dataplane, at):
        def serve(ws):
            fleet = Fleet(
                4, 9, 3, volumes=12, disk_params=TIE_PARAMS,
                dataplane=dataplane, seed=seed,
            )
            co = MigrationCoordinator(fleet, 6, at_ms=at, admission=2)
            co.arm()
            times, is_read, lbas = generate_request_stream(
                _workload(interarrival_ms=0.6, read_fraction=0.6, seed=seed),
                300.0,
                fleet.capacity,
            )
            times = np.floor(times / 2.0) * 2.0
            if ws is None:
                report = fleet.serve_stream(times, is_read, lbas)
            else:
                report = fleet.serve_windows(
                    ArrayWindows(times, is_read, lbas, ws)
                )
            fleet.sim.run()
            return asdict(report), [asdict(o) for o in co.outcomes]

        materialized = serve(None)
        for ws in (1, 5, 64):
            assert serve(ws) == materialized, ws


class TestHandOffOffers:
    """A live pump offers ``Fleet._hand_off`` only the requests of
    volumes an attached migration moves: one offer per such request,
    none for the rest, and the same serve as when every request is
    offered."""

    @pytest.mark.parametrize("ws", [None, 5], ids=["materialized", "windowed"])
    @pytest.mark.parametrize("at", [100.0, 10_000.0], ids=["mid", "after"])
    def test_offers_are_the_moved_volumes_requests(self, monkeypatch, at, ws):
        offered = []
        hand_off = Fleet._hand_off

        def counting(fleet, shard, t, vol, is_read, lba):
            offered.append(vol)
            return hand_off(fleet, shard, t, vol, is_read, lba)

        monkeypatch.setattr(Fleet, "_hand_off", counting)

        def serve(offer_all: bool):
            offered.clear()
            fleet = Fleet(
                4, 9, 3, volumes=12, disk_params=TIE_PARAMS,
                dataplane=True, seed=0,
            )
            co = MigrationCoordinator(fleet, 6, at_ms=at, admission=2)
            co.arm()
            if offer_all:
                fleet._moving.update(range(12))
            times, is_read, lbas = generate_request_stream(
                _workload(interarrival_ms=0.6, read_fraction=0.6, seed=0),
                300.0,
                fleet.capacity,
            )
            times = np.floor(times / 2.0) * 2.0
            if ws is None:
                report = fleet.serve_stream(times, is_read, lbas)
            else:
                report = fleet.serve_windows(
                    ArrayWindows(times, is_read, lbas, ws)
                )
            fleet.sim.run()
            vols = lbas // fleet.volume_units
            moved = {m.volume for m in co.plan.moves}
            served = asdict(report), [asdict(o) for o in co.outcomes]
            return served, list(offered), vols, moved

        served, offers, vols, moved = serve(False)
        assert 0 < len(moved) < 12
        assert set(offers) == moved
        assert len(offers) == int(np.isin(vols, list(moved)).sum())
        every, offers_all, _, _ = serve(True)
        assert len(offers_all) == vols.size
        assert served == every


class _Watched:
    """Re-iterable windows that, at every pull, assert the arrays past
    the first ``born`` of ``fleet`` hold no undrained latency samples."""

    def __init__(self, windows, fleet: Fleet, born: int):
        self.windows, self.fleet, self.born = windows, fleet, born

    def __iter__(self):
        for window in self.windows:
            for ctrl in self.fleet.controllers[self.born:]:
                assert not any(st.count for st in ctrl.latency.values())
            yield window


class TestLiveServeBoundaries:
    """What a serve that can reroute mid-serve keeps, and what a serve
    that cannot never builds."""

    @pytest.mark.parametrize("ws", [16, 10**6])
    def test_born_arrays_drain_at_every_window(self, ws):
        """The arrays a reshape bears run no pump and carry no engine
        label, yet the requests handed to them are served and their
        samples are swept into digests as windows pass: no window is
        ever pulled over an undrained sample."""
        fleet = Fleet(4, 9, 3, volumes=12, dataplane=True, seed=9)
        MigrationCoordinator(fleet, 6, at_ms=100.0).arm()
        source = StreamWindows(
            _workload(), DURATION, fleet.capacity, window_size=ws
        )
        report = fleet.serve_windows(_Watched(source, fleet, 4))
        assert report.engines[4:] == [None, None]
        assert all(n > 0 for n in report.per_shard_scheduled[4:])
        assert report.lost == 0

    def test_one_shot_source_refused_under_pending_reshape(self):
        """A pending reshape puts every shard on a pump of its own, so
        a one-shot source is refused before a window is read."""
        fleet = Fleet(4, 9, 3, volumes=12, seed=9)
        MigrationCoordinator(fleet, 6, at_ms=100.0).arm()
        source = StreamWindows(
            _workload(), DURATION, fleet.capacity, window_size=32
        )
        one_shot = iter(source)
        with pytest.raises(ValueError, match="one-shot window source"):
            fleet.serve_windows(one_shot)
        assert fleet.sim.now == 0.0 and fleet.shards == 4
        assert all(not c.latency for c in fleet.controllers)
        unread, first = next(one_shot), next(iter(source))
        assert all(np.array_equal(a, b) for a, b in zip(unread, first))

    def test_serve_that_cannot_reroute_builds_no_volume_column(
        self, monkeypatch
    ):
        """Heap pumps beside a failure, materialized and windowed, and
        an idle fleet's routing carry no per-request volume column:
        only a serve that can reroute pays for one."""
        seen = []
        load = _CompiledRun._load

        def spy(run, compiled):
            seen.append(getattr(compiled, "volumes", None))
            load(run, compiled)

        monkeypatch.setattr(_CompiledRun, "_load", spy)
        for ws in (None, 64):
            fleet = Fleet(4, 9, 3, dataplane=True, seed=0)
            FailureOrchestrator(
                fleet, default_failure_schedule(4, 9, 1, 80.0), admission=1
            ).arm()
            fleet.serve_workload(_workload(), DURATION, window_size=ws)
        assert seen and all(v is None for v in seen)
        idle = Fleet(4, 9, 3, seed=0)
        stream = generate_request_stream(_workload(), DURATION, idle.capacity)
        traces, _ = idle.route_stream(*stream)
        assert all(getattr(t, "volumes", None) is None for t in traces)


class TestTieAbortKeepsEarlierStreams:
    def test_recorder_keeps_the_first_stream_through_a_demote(self):
        """A windowed eager shard that tie-aborts is demoted to the
        exact core; the demote drops what its pass recorded and keeps
        what a long-lived recorder held from earlier streams."""
        fleet = Fleet(4, 9, 3, seed=7)
        recorder = MetricsRecorder(5000.0, shards=4)
        fleet.attach_recorder(recorder)
        reports = [
            fleet.serve_windows(
                StreamWindows(
                    _workload(interarrival_ms=1.5, seed=seed),
                    60_000.0,
                    fleet.capacity,
                    window_size=4096,
                )
            )
            for seed in (7, 8)
        ]
        assert recorder.counters()["tie_abort_replays"] > 0
        for s in range(4):
            served = sum(r.per_shard_scheduled[s] for r in reports)
            samples = sum(
                d.count
                for by_bucket in recorder.latency_buckets(s).values()
                for d in by_bucket.values()
            )
            assert samples == sum(recorder.arrival_buckets(s).values())
            assert samples == served


def _scenario(**overrides) -> FleetScenario:
    base = dict(
        shards=4,
        v=9,
        k=3,
        duration_ms=300.0,
        interarrival_ms=1.0,
        read_fraction=0.7,
        admission=2,
        verify_data=True,
    )
    base.update(overrides)
    return FleetScenario(**base)


#: (id, scenario overrides) — healthy carry, rebuilds interleaving
#: with the heap pumps mid-stream, and a reshape cutting volumes over
#: mid-stream (window boundaries land mid-rebuild and mid-copy).
SCENARIO_CASES = [
    ("healthy", {}),
    ("rebuilds_mid_stream", dict(failures=default_failure_schedule(4, 9, 2, 80.0))),
    (
        "reshape_mid_stream",
        dict(duration_ms=DURATION, reshape_to=6, volumes=12, seed=9),
    ),
]


class TestScenarioWindowed:
    @pytest.mark.parametrize(
        "overrides",
        [c[1] for c in SCENARIO_CASES],
        ids=[c[0] for c in SCENARIO_CASES],
    )
    def test_windowed_scenario_matches_materialized(self, overrides):
        materialized = _canon(
            run_fleet_scenario(_scenario(**overrides)).to_dict(),
            ignore_window=True,
        )
        for ws in (64, 1024):
            windowed = _canon(
                run_fleet_scenario(
                    _scenario(window_size=ws, **overrides)
                ).to_dict(),
                ignore_window=True,
            )
            assert windowed == materialized, ws

    def test_reshape_pumps_every_starting_shard(self):
        """A reshape moves volumes mid-stream, so its windowed serve
        runs every starting shard on a heap pump that hands requests
        off by volume; the two arrays it bears run no pump."""
        reshape = dict(SCENARIO_CASES)["reshape_mid_stream"]
        report = run_fleet_scenario(_scenario(window_size=64, **reshape))
        assert report.fleet.executors == ["event-heap"] * 4 + [None] * 2
        assert all(n > 0 for n in report.fleet.per_shard_scheduled)

    def test_windowed_scenario_still_passes_gates(self):
        report = run_fleet_scenario(
            _scenario(
                window_size=128,
                failures=default_failure_schedule(4, 9, 2, 80.0),
            )
        )
        assert report.passed
        assert report.all_rebuilt_verified
        assert len(report.rebuilds) == 2


def _submitted(n: int, seed: int, capacity: int, horizon: float):
    """A seeded mixed stream of ``n`` requests, as a client submits it."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, horizon, n))
    return times, rng.random(n) < 0.6, rng.integers(0, capacity, n)


class TestSubmittedStreamUnderReadOnlyMix:
    """A scenario's ``read_fraction`` describes its synthetic stream
    only: a submitted stream with writes serves in windows under a
    read-only mix — serially and on warm worker groups — and equals its
    materialized serve."""

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "warm2"])
    def test_windowed_serve_takes_the_writes(self, workers):
        scenario = _scenario(shards=2, read_fraction=1.0, seed=3)
        stream = _submitted(200, 11, Fleet(2, 9, 3, seed=3).capacity, 300.0)
        materialized = run_fleet_scenario(scenario, stream=stream)
        windowed = replace(scenario, window_size=64)
        if workers is None:
            payload = run_fleet_scenario(windowed, stream=stream).to_dict()
        else:
            with WarmRuntime(windowed, workers=workers) as runtime:
                payload = runtime.run(stream=stream)
        assert payload["fleet"]["completed"] == 200
        assert _canon(payload, ignore_window=True) == _canon(
            materialized.to_dict(), ignore_window=True
        )


class TestBadArrivalTimes:
    """NaN, infinite and negative arrival times — the ones the
    front-end's ``submit`` refuses — are refused by the library too,
    materialized and windowed, before anything is scheduled."""

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
            (-1.0, ">= 0"),
        ],
        ids=["nan", "inf", "-inf", "negative"],
    )
    def test_refused(self, bad, match):
        scenario = _scenario(shards=2, seed=3)
        fleet = Fleet(2, 9, 3, seed=3)
        times, is_read, lbas = _submitted(50, 5, fleet.capacity, 100.0)
        times[-1] = bad
        for window_size in (None, 16):
            with pytest.raises(ValueError, match=match):
                run_fleet_scenario(
                    replace(scenario, window_size=window_size),
                    stream=(times, is_read, lbas),
                )
        with pytest.raises(ValueError, match=match):
            fleet.serve_stream(times, is_read, lbas)
        assert fleet.sim.now == 0.0 and not fleet.sim.pending()
        assert all(not c.latency for c in fleet.controllers)



class _Windows(list):
    """Re-iterable windows that say whether they are all reads."""

    read_only = False


def _going_back(capacity: int, reads: bool) -> _Windows:
    """Two windows whose arrivals go back across the boundary: 10
    requests at 10-19 ms, then 10 at 0-9 ms (every third a write unless
    ``reads``, which the windows then say)."""
    lbas = np.random.default_rng(0).integers(0, capacity, 20)
    is_read = np.ones(20, dtype=bool) if reads else np.arange(20) % 3 != 0
    times = np.arange(20.0)
    windows = _Windows(
        [
            (times[10:], is_read[:10], lbas[:10]),
            (times[:10], is_read[10:], lbas[10:]),
        ]
    )
    windows.read_only = reads
    return windows


class TestWindowsGoingBack:
    """A window that starts before the previous window's last arrival
    is refused wherever windows are routed — every engine of the
    shard-set gate, the live serve's heap pumps included — with the
    error ``ArrayWindows`` and the front-end's ``submit`` raise.  (The
    idle clock's engines used to serve such a stream, with later
    latencies than the same requests sorted.)  Equal times across a
    boundary stay legal.

    Windows stream, so the refusal comes when the offending window is
    pulled, after the windows before it were routed: the tests pin that
    partial serve — the first window's 10 arrivals in the recorder,
    and, on a live serve, the clock where the first pump ran out of its
    first window, with events still on the heap."""

    @pytest.mark.parametrize(
        "dataplane, reads, label",
        [
            (False, True, "windowed-solver"),
            (False, False, "windowed-eager"),
            (True, False, "windowed-pump"),
        ],
        ids=["solver", "eager", "exact-replay"],
    )
    def test_execute_windows_refuses(self, dataplane, reads, label):
        ctrl = ArrayController(get_layout(9, 3), dataplane=dataplane, seed=1)
        ctrl.obs = MetricsRecorder(5.0)
        windows = _going_back(ctrl.mapper.capacity, reads)
        with pytest.raises(ValueError, match="non-decreasing"):
            execute_windows(ctrl, windows)
        assert ctrl.last_engine == label
        assert ctrl.obs.arrival_buckets(0) == {2: 5, 3: 5}
        assert ctrl.sim.now == 0.0 and not ctrl.sim.pending()

    @pytest.mark.parametrize("live", [False, True], ids=["gate", "live"])
    def test_serve_windows_refuses(self, live):
        fleet = Fleet(2, 9, 3, seed=1)
        if live:
            # A pending event that names no shard makes the serve live.
            fleet.sim.at(0.0, lambda: None)
        recorder = MetricsRecorder(5.0)
        fleet.attach_recorder(recorder)
        windows = _going_back(fleet.capacity, False)
        with pytest.raises(ValueError, match="non-decreasing"):
            fleet.serve_windows(windows)
        arrived = [recorder.arrival_buckets(s) for s in range(2)]
        assert sum(sum(a.values()) for a in arrived) == 10
        assert max(b for a in arrived for b in a) == 3
        # The gate refuses before it schedules anything.  A live serve
        # dies inside its heap: each pump pulls the next window once
        # its last arrival of the first one is due, and the first pump
        # to get there meets the refusal.
        times, _, lbas = windows[0]
        shards = fleet.static_route().locate(lbas)[0]
        due = min(times[shards == s].max() for s in range(2))
        assert fleet.sim.now == (due if live else 0.0)
        assert bool(fleet.sim.pending()) == live

    @pytest.mark.parametrize("source", ["gate", "live", "one_shot"])
    def test_equal_times_across_a_boundary(self, source):
        """Windows sharing an arrival time across their boundary serve
        as the one window of the same stream does — on the gate, as a
        list or a one-shot iterator, and on a live serve's pumps."""
        capacity = Fleet(2, 9, 3, seed=1).capacity
        times = np.repeat(np.arange(10.0), 2)
        is_read = np.arange(20) % 3 != 0
        lbas = np.random.default_rng(1).integers(0, capacity, 20)
        split = [
            (times[:11], is_read[:11], lbas[:11]),
            (times[11:], is_read[11:], lbas[11:]),
        ]
        whole = Fleet(2, 9, 3, seed=1).serve_windows(
            [(times, is_read, lbas)]
        )
        fleet = Fleet(2, 9, 3, seed=1)
        if source == "live":
            fleet.sim.at(0.0, lambda: None)
        windowed = fleet.serve_windows(
            iter(split) if source == "one_shot" else split
        )
        assert asdict(windowed)["latency"] == asdict(whole)["latency"]
        assert windowed.duration_ms == whole.duration_ms
        if source == "live":
            assert windowed.executors == ["event-heap"] * 2
