"""Fleet-level streaming: ``serve_windows`` / ``serve_workload(
window_size=...)`` / the scenario ``window_size`` knob, serial and
multi-process.

The contract: a windowed serve is byte-identical to the materialized
serve of the same stream — through the shard-set gate (carry engines
on an idle clock; heap pumps for shards an armed rebuild timer names
and exact-core replays for the rest, data planes included), the
window router (live migration), and the parallel runner's per-group
gates.  Scenario payloads are compared in canonical JSON form; the
windowed scenario echoes its ``window_size``, so scenario-vs-scenario
comparisons strip that one field (everything below the echo must
match byte for byte).
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
    WarmRuntime,
    canonical_payload,
    default_failure_schedule,
    run_fleet_scenario,
)
from repro.sim import ArrayController, WorkloadConfig, generate_request_stream
from repro.sim.compile import ArrayWindows, StreamWindows
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
#: plane forces (the id predates the gate, when data planes took the
#: window router), the single-phase write-through fleet, and a non-ring
#: placement.
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
        first arrival epoch as the materialized heap does (the window
        router, which numbers it on delivery, would not)."""

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
                assert (m, w, x) == ("calendar", "windowed-pump", "exact-core")
            else:
                assert m == "eager" and w == "windowed-eager", i
                assert x in healthy, i


class TestOneShotSource:
    @pytest.mark.parametrize(
        "failures", [False, True], ids=["healthy", "failures"]
    )
    def test_one_shot_generator_schedules_every_request(self, failures):
        """A one-shot window generator on a 4-shard fleet: the gate
        would need one pass per heap shard, which such a source cannot
        give, so the serve keeps it on one pass and schedules (and
        reports) exactly what the materialized serve does."""

        def fleet() -> Fleet:
            f = Fleet(4, 9, 3, seed=0)
            if failures:
                FailureOrchestrator(
                    f, default_failure_schedule(4, 9, 2, 100.0), admission=2
                ).arm()
            return f

        config = _workload()
        materialized = fleet()
        expected = asdict(materialized.serve_workload(config, DURATION))
        windowed = fleet()
        one_shot = iter(
            StreamWindows(config, DURATION, windowed.capacity, window_size=32)
        )
        assert asdict(windowed.serve_windows(one_shot)) == expected


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
#: with the router mid-stream, and a reshape cutting volumes over
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

    def test_reshape_stays_on_the_router(self):
        """A reshape moves volumes mid-stream, so its windowed serve
        routes live: every shard on the heap."""
        reshape = dict(SCENARIO_CASES)["reshape_mid_stream"]
        report = run_fleet_scenario(_scenario(window_size=64, **reshape))
        assert report.fleet.executors == ["event-heap"] * 6

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
    shard-set gate and the fleet's window router — with the error
    ``ArrayWindows`` and the front-end's ``submit`` raise.  (The idle
    clock's engines used to serve such a stream, with later latencies
    than the same requests sorted.)  Equal times across a boundary stay
    legal.

    Windows stream, so the refusal comes when the offending window is
    pulled, after the windows before it were routed: the tests pin that
    partial serve — the first window's 10 arrivals in the recorder,
    and, on the window router, the clock at its first arrival with
    events still on the heap."""

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

    @pytest.mark.parametrize("one_shot", [False, True], ids=["gate", "router"])
    def test_serve_windows_refuses(self, one_shot):
        fleet = Fleet(2, 9, 3, seed=1)
        recorder = MetricsRecorder(5.0)
        fleet.attach_recorder(recorder)
        windows = _going_back(fleet.capacity, False)
        with pytest.raises(ValueError, match="non-decreasing"):
            fleet.serve_windows(iter(windows) if one_shot else windows)
        arrived = [recorder.arrival_buckets(s) for s in range(2)]
        assert sum(sum(a.values()) for a in arrived) == 10
        assert max(b for a in arrived for b in a) == 3
        # The gate refuses before it schedules anything; the router
        # dies inside its heap, mid-serve.
        assert fleet.sim.now == (10.0 if one_shot else 0.0)
        assert bool(fleet.sim.pending()) == one_shot

    @pytest.mark.parametrize("one_shot", [False, True], ids=["gate", "router"])
    def test_equal_times_across_a_boundary(self, one_shot):
        """Windows sharing an arrival time across their boundary serve
        as the one window of the same stream does."""
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
        windowed = Fleet(2, 9, 3, seed=1).serve_windows(
            iter(split) if one_shot else split
        )
        assert asdict(windowed)["latency"] == asdict(whole)["latency"]
        assert windowed.duration_ms == whole.duration_ms
