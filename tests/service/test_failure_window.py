"""A failed shard runs on the event heap only across its failure window.

The shard-set gate (``repro.sim.compile._execute_shards``) replays a
claimed shard's arrivals before its claim on the exact core, runs it on
the heap from the last idle arrival before its failure to the first
idle arrival after its rebuild, and replays the rest on the exact core
again.  These tests hold every stretch to the all-heap reference —
``schedule_compiled`` on every shard, then one ``sim.run()`` — bit for
bit, and pin the cases that must keep a whole trace on the heap.
"""

from dataclasses import asdict, dataclass

import numpy as np
import pytest

from repro.obs import MetricsRecorder, build_rows, render_metrics_jsonl
from repro.service import FailureEvent, FailureOrchestrator, Fleet
from repro.sim import (
    ArrayWindows,
    DiskParameters,
    WorkloadConfig,
    generate_request_stream,
)
from repro.sim.compile import (
    _CompiledRun,
    _execute_shards,
    compile_stream,
    schedule_compiled,
)
from repro.sim.events import Simulator

SHAPE = (3, 13, 4)
HORIZON = 2400.0


def _stream(seed: int, burst: bool = False):
    """A light fleet stream (idle arrivals are common); with ``burst``,
    400 more requests in its first 120 ms keep every array busy."""
    cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.6, seed=seed)
    capacity = Fleet(*SHAPE).capacity
    times, is_read, lbas = generate_request_stream(cfg, HORIZON, capacity)
    if burst:
        rng = np.random.default_rng(seed)
        times = np.concatenate([np.sort(rng.uniform(0.0, 120.0, 400)), times])
        is_read = np.concatenate([rng.random(400) < 0.6, is_read])
        lbas = np.concatenate([rng.integers(0, capacity, 400), lbas])
        order = np.argsort(times, kind="stable")
        times, is_read, lbas = times[order], is_read[order], lbas[order]
    return times, is_read, lbas


def _arrival(stream, array: int, index: int) -> float:
    """The ``index``-th arrival time of ``array``'s slice of ``stream``."""
    traces, _ = Fleet(*SHAPE, seed=4).route_stream(*stream)
    return float(traces[array].times[index])


@dataclass
class Served:
    fleet: Fleet
    orchestrator: FailureOrchestrator
    recorder: MetricsRecorder | None
    report: object
    #: shard -> the clock when its pump left the heap.
    stops: dict

    def state(self, samples: bool = True):
        """Everything the serve left behind, as comparable values:
        the clock, per-disk counters, data-plane stores, per-kind
        samples in recording order (materialized serves only: windowed
        ones move them into digests), rebuild outcomes and recorder
        rows — without the final row's engine labels when ``samples``
        is off, since a windowed serve's say ``windowed-pump``."""
        fleet, rec = self.fleet, self.recorder
        rows = None
        if rec is not None:
            rows = build_rows(rec)
            if not samples:
                rows = [{k: v for k, v in r.items() if k != "engine"} for r in rows]
        return (
            fleet.sim.now,
            [
                (
                    [
                        (d.busy_time, d.total_queue_delay, d.completed_reads,
                         d.completed_writes, d._last_offset)
                        for d in c.disks
                    ],
                    None if c.data is None else c.data.store.tobytes(),
                    {k: st.samples for k, st in sorted(c.latency.items())}
                    if samples else None,
                )
                for c in fleet.controllers
            ],
            [repr(o) for o in self.orchestrator.outcomes],
            None if rows is None else render_metrics_jsonl(rows),
        )

    def executors(self) -> list:
        return [c.last_executor for c in self.fleet.controllers]


def _serve(mode, stream, failures, *, admission=2, dataplane=True,
           metrics=False, disk_params=None, extra=None, handoff=None):
    """Serve ``stream`` with ``failures`` armed, by ``mode``: ``heap``
    (every shard on the heap), ``gate`` (the materialized shard-set
    gate, through ``Fleet.serve_compiled`` or, with ``handoff``,
    directly) or ``windowed`` (``Fleet.serve_windows`` in 37-request
    windows); ``extra(fleet)`` arms more events first."""
    fleet = Fleet(*SHAPE, dataplane=dataplane, seed=4, disk_params=disk_params)
    rec = MetricsRecorder(50.0, shards=SHAPE[0]) if metrics else None
    if rec is not None:
        fleet.attach_recorder(rec)
    orch = FailureOrchestrator(fleet, failures, admission=admission)
    orch.arm()
    if extra is not None:
        extra(fleet)
    stops = {}
    fire = _CompiledRun._fire

    def spy(run):
        fire(run)
        if run.stopped:
            stops.setdefault(run.ctrl.obs_shard, run.ctrl.sim.now)

    report = None
    _CompiledRun._fire = spy
    try:
        if mode == "windowed":
            report = fleet.serve_windows(ArrayWindows(*stream, 37))
        else:
            traces, _ = fleet.route_stream(*stream)
            if mode == "heap":
                for ctrl, trace in zip(fleet.controllers, traces):
                    if rec is not None:
                        rec.arrivals(ctrl.obs_shard, trace.times)
                    schedule_compiled(ctrl, trace)
                fleet.sim.run()
            elif handoff is not None:
                _execute_shards(fleet.controllers, traces, handoff=handoff)
            else:
                report = fleet.serve_compiled(traces)
    finally:
        _CompiledRun._fire = fire
    fleet.sim.run()
    return Served(fleet, orch, rec, report, stops)


def _lost(served: Served, stream) -> int:
    completed = sum(
        st.count for c in served.fleet.controllers for st in c.latency.values()
    )
    return len(stream[0]) - completed


#: name -> (failures of a stream, admission slots, burst)
CASES = {
    "before_first": (lambda s: (FailureEvent(0.0, 1, 3),), 2, False),
    "at_arrival": (
        lambda s: (FailureEvent(_arrival(s, 1, 60), 1, 3),), 2, False,
    ),
    "after_last": (lambda s: (FailureEvent(HORIZON + 40.0, 1, 3),), 2, False),
    "in_burst": (lambda s: (FailureEvent(60.0, 0, 5),), 2, True),
    "two_queued": (
        lambda s: (FailureEvent(700.0, 0, 2), FailureEvent(705.0, 1, 7)),
        1,
        False,
    ),
}


def _case(case, seed, **kw):
    make, admission, burst = CASES[case]
    stream = _stream(seed, burst)
    failures = make(stream)
    return stream, failures, dict(kw, admission=admission)


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("dataplane", [False, True], ids=["nodata", "data"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_equals_all_heap(case, seed, dataplane, metrics):
    """The gated serve leaves exactly the all-heap serve's state and
    loses the same requests, the windowed serve leaves the materialized
    one's state and report, and no pump leaves the heap before its
    array's rebuild has ended."""
    stream, failures, kw = _case(
        case, seed, dataplane=dataplane, metrics=metrics
    )
    heap = _serve("heap", stream, failures, **kw)
    gate = _serve("gate", stream, failures, **kw)
    assert gate.state() == heap.state()
    assert _lost(gate, stream) == _lost(heap, stream)
    windowed = _serve("windowed", stream, failures, **kw)
    assert windowed.state(samples=False) == gate.state(samples=False)
    assert asdict(windowed.report) == asdict(gate.report)
    assert gate.fleet.sim.events_processed < heap.fleet.sim.events_processed
    ends = {
        o.array: o.started_at_ms + o.report.duration_ms
        for o in gate.orchestrator.outcomes
    }
    for served in (gate, windowed):
        for shard, at in served.stops.items():
            assert at > ends[shard]
    for s, executor in enumerate(gate.executors()):
        stretches = executor.split("|")
        if s in ends:
            assert stretches.count("event-heap") == 1
            assert (stretches[-1] != "event-heap") == (s in gate.stops)
        else:
            assert "event-heap" not in stretches


def test_each_case_takes_its_stretches():
    """What each case exercises: a prefix before a later failure, none
    inside a burst or before the first arrival, no heap stretch after
    the heap's rebuild past the last arrival, and a queued array on the
    heap until its rebuild ends."""

    def gate(case):
        stream, failures, kw = _case(case, 0)
        return _serve("gate", stream, failures, **kw)

    # A degraded array's suffix replays on the compiled exact core.
    assert gate("before_first").executors()[1] == "event-heap|exact-native"
    assert gate("at_arrival").executors()[1] == (
        "exact-native|event-heap|exact-native"
    )
    late = gate("after_last")
    assert late.executors()[1] == "exact-native|event-heap"
    assert not late.stops
    assert gate("in_burst").executors()[0].startswith("event-heap|")
    queued = gate("two_queued")
    assert queued.executors()[:2] == [
        "exact-native|event-heap|exact-native"
    ] * 2
    first, second = sorted(
        queued.orchestrator.outcomes, key=lambda o: o.started_at_ms
    )
    # The second rebuild waited for the first's slot, and its array
    # stayed on the heap past the wait and its own rebuild.
    assert second.admission_delay_ms > 0
    assert queued.stops[second.array] > (
        second.started_at_ms + second.report.duration_ms
    )


def test_stopped_pump_rest_is_one_feed(monkeypatch):
    """A stopped materialized pump's rest replays in one exact-core
    feed, however many pump chunks it spans, and the serve still
    leaves the all-heap serve's state."""
    from repro.sim import batchstep
    from repro.sim import compile as compile_mod

    monkeypatch.setattr(compile_mod, "PUMP_CHUNK", 16)
    stream, failures, kw = _case("at_arrival", 0)
    heap = _serve("heap", stream, failures, **kw)
    exact_core = batchstep._exact_core
    feeds = []  # (controller, label, requests per feed), one per core

    class Counting:
        def __init__(self, ctrl, label):
            self.core = exact_core(ctrl, label)
            feeds.append((ctrl, label, []))
            self.sizes = feeds[-1][2]

        def feed(self, plan, sink):
            self.sizes.append(plan.n)
            return self.core.feed(plan, sink)

        def finish(self, sink):
            return self.core.finish(sink)

    monkeypatch.setattr(batchstep, "_exact_core", Counting)
    gate = _serve("gate", stream, failures, **kw)
    assert gate.state() == heap.state()
    assert gate.executors()[1] == "exact-native|event-heap|exact-native"
    failed = gate.fleet.controllers[1]
    *_, (ctrl, label, sizes) = [f for f in feeds if f[0] is failed]
    assert label == "heap" and len(sizes) == 1
    assert sizes[0] > 2 * compile_mod.PUMP_CHUNK


def test_queued_rebuild_starts_at_a_pump_arrival():
    """Array 0's rebuild ends at 57 ms, exactly when array 1 has an
    arrival; array 1 failed at 56 ms and waits for the one admission
    slot, so its rebuild starts inside array 0's last rebuild event.
    Array 1's prefix (0-53 ms) replays off the heap, and its pump's
    first event must still come after that rebuild event, as on the
    all-heap clock (``compile._chain``)."""
    params = DiskParameters(
        average_seek_ms=5.0,
        rotational_latency_ms=2.0,
        transfer_ms_per_unit=1.0,
        sequential_seek_ms=1.0,
    )
    failures = (FailureEvent(5.0, 0, 7), FailureEvent(56.0, 1, 7))
    times = np.array([0.0, 43.0, 48.0, 53.0, 57.0, 58.0, 60.0])
    lbas = np.array([2, 16, 2, 19, 7, 5, 14])
    out = []
    for mode in ("heap", "gate"):
        fleet = Fleet(2, 9, 3, seed=1, disk_params=params)
        orch = FailureOrchestrator(fleet, failures, admission=1, parallelism=1)
        orch.arm()
        a, b = fleet.controllers
        traces = [
            compile_stream(a.mapper, np.zeros(0), np.zeros(0, bool), lbas[:0]),
            compile_stream(b.mapper, times, np.ones(times.size, bool), lbas),
        ]
        if mode == "heap":
            for ctrl, trace in zip(fleet.controllers, traces):
                schedule_compiled(ctrl, trace)
            fleet.sim.run()
        else:
            _execute_shards(fleet.controllers, traces)
        first = orch.outcomes[0]
        assert first.started_at_ms + first.report.duration_ms == 57.0
        served = Served(fleet, orch, None, None, {})
        out.append((served.state(), served.executors()))
    (heap, _), (gate, executors) = out
    assert gate == heap
    # A replayed prefix, then the heap.
    assert executors[1].split("|")[1:2] == ["event-heap"]


class TestWholeTraceOnHeap:
    """A failed shard keeps its whole trace on the heap — the all-heap
    serve's events and state, one stretch — on a live serve, beside a
    pending event that names no shard, with a zero-service model, and
    when its claim never lapses."""

    FAILURE = (FailureEvent(300.0, 1, 3),)

    def _same(self, failures, **kw):
        stream = _stream(0)
        heap = _serve("heap", stream, failures, **kw)
        gate = _serve("gate", stream, failures, **kw)
        assert gate.state() == heap.state()
        return gate, heap

    def test_live_serve(self):
        gate, heap = self._same(self.FAILURE, handoff=(set(), lambda *a: False))
        assert gate.fleet.sim.events_processed == heap.fleet.sim.events_processed
        assert gate.executors() == ["event-heap"] * 3

    def test_pending_event_naming_no_shard(self):
        gate, heap = self._same(
            self.FAILURE, extra=lambda fleet: fleet.sim.at(150.0, lambda: None)
        )
        assert gate.fleet.sim.events_processed == heap.fleet.sim.events_processed
        assert gate.executors() == ["event-heap"] * 3

    def test_zero_service_model(self):
        zero = DiskParameters(
            average_seek_ms=0.0,
            rotational_latency_ms=0.0,
            transfer_ms_per_unit=0.0,
            sequential_seek_ms=0.0,
        )
        gate, heap = self._same(self.FAILURE, disk_params=zero)
        assert gate.fleet.sim.events_processed == heap.fleet.sim.events_processed
        assert gate.executors()[1] == "event-heap"

    def test_claim_that_never_lapses(self):
        """Array 1 fails before its first arrival and waits for the one
        admission slot, which array 0's slow rebuild holds past the
        horizon, so its claim outlasts its trace."""
        slow = DiskParameters(average_seek_ms=400.0)
        failures = (FailureEvent(0.0, 0, 1), FailureEvent(0.0, 1, 2))
        gate, _ = self._same(failures, admission=1, disk_params=slow)
        second = max(gate.orchestrator.outcomes, key=lambda o: o.started_at_ms)
        assert second.array == 1 and second.started_at_ms > HORIZON
        assert gate.executors()[1] == "event-heap"
        assert 1 not in gate.stops


class TestClaims:
    """A failure claims its array from its timer to the end of its
    rebuild, admission wait included."""

    def test_claim_lasts_until_the_rebuild_ends(self):
        fleet = Fleet(2, 13, 4, seed=1)
        sim = fleet.sim
        a, b = fleet.controllers
        orch = FailureOrchestrator(
            fleet, (FailureEvent(5.0, 0, 1), FailureEvent(6.0, 1, 2)),
            admission=1,
        )
        orch.arm()
        assert sim.armed_shards() == {a, b}
        assert sim.claim_start(a) == 5.0 and sim.claim_start(b) == 6.0
        seen = []

        def probe():
            seen.append((sim.now, sim.claimed(a), sim.claimed(b)))
            if sim.pending():
                sim.schedule(1.0, probe)

        sim.at(0.0, probe)
        sim.run()
        first, second = orch.outcomes
        end_a = first.started_at_ms + first.report.duration_ms
        end_b = second.started_at_ms + second.report.duration_ms
        assert second.started_at_ms == end_a  # b waited for a's slot
        assert len(seen) > 10
        for now, claimed_a, claimed_b in seen:
            assert claimed_a == (now < end_a)
            assert claimed_b == (now < end_b)
        assert sim.armed_shards() == frozenset()

    def test_held_claim_and_release(self):
        sim = Simulator()
        a = object()
        key = sim.claim((a,))
        assert sim.claimed(a) and sim.claim_start(a) == 0.0
        # A held claim has no event of its own: the clock is idle.
        assert sim.armed_shards() == {a} and not sim.pending()
        sim.release(key)
        assert not sim.claimed(a) and sim.claim_start(a) is None
        with pytest.raises(KeyError):
            sim.release(key)
