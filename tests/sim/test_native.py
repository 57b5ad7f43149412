"""The compiled cores against their Python references.

:class:`repro.sim.native.NativeExactCore` must leave a controller in
exactly the state :class:`repro.sim.batchstep._ExactCore` leaves it in —
sample lists (compared by ``repr``, so every bit and the kind order
count), disk accumulators, last offsets, the clock, data-plane bytes and
metrics rows — whether a trace is fed once or window by window.
:class:`repro.sim.native.NativeEagerCore` must match
:class:`repro.sim.batchstep._EagerCore` the same way, down to the feed
or finish where a tie aborts it and every sink batch before that.  The
loader's fallbacks (no compiler, a compile error, a failed ``dlopen``)
must leave every serve's canonical report unchanged.
"""

import itertools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import get_layout
from repro.layouts import ring_layout
from repro.obs import MetricsRecorder, build_rows, render_metrics_jsonl
from repro.service import (
    FleetScenario,
    canonical_payload,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.service.scenario import default_failure_schedule
from repro.sim import (
    ArrayController,
    DiskParameters,
    WorkloadConfig,
    compile_stream,
    compile_workload,
    native,
)
from repro.sim.batchstep import (
    _eager_core,
    _EagerCore,
    _exact_core,
    _ExactCore,
)
from repro.sim.compile import _controller_sink, generate_request_stream

def _fail_load(path):
    raise native.KernelUnavailable("dlopen failed: forced by the test")


@pytest.fixture
def no_kernel(monkeypatch):
    """Make the kernel's loader fail, so exact replays fall back to the
    Python core (with one RuntimeWarning) for the rest of the test."""
    native.kernel.cache_clear()
    monkeypatch.setattr(native, "_load", _fail_load)
    yield
    native.kernel.cache_clear()


MIXES = {
    # (layout, mean interarrival ms, read fraction, seed, arrival grid)
    "ring-mixed": (lambda: ring_layout(9, 4), 2.0, 0.6, 3, None),
    "ring-quantized": (lambda: ring_layout(9, 4), 2.0, 0.6, 3, 5.0),
    "hg-writes": (lambda: get_layout(13, 4), 1.5, 0.0, 11, None),
    "hg-reads-quantized": (lambda: get_layout(13, 4), 1.0, 1.0, 5, 4.0),
    "fleet-shard": (lambda: get_layout(9, 3), 8.0, 0.7, 7, 8.0),
    # 2-unit stripes: a data-failed read-modify-write has no other data
    # unit to read, so its plan is the parity write alone.
    "pairs-quantized": (lambda: get_layout(7, 2), 2.0, 0.5, 9, 4.0),
}


def _stream(mix):
    layout, gap, read_fraction, seed, tick = MIXES[mix]
    cap = ArrayController(layout()).mapper.capacity
    cfg = WorkloadConfig(
        interarrival_ms=gap, read_fraction=read_fraction, seed=seed
    )
    times, is_read, lbas = generate_request_stream(cfg, 1200.0 * gap, cap)
    if tick is not None:
        # Grid-snapped arrivals: tied epochs, and epochs tied with
        # completions, split across window boundaries.
        times = np.floor(times / tick) * tick
        order = np.argsort(times, kind="stable")
        times, is_read, lbas = times[order], is_read[order], lbas[order]
    return layout, times, is_read, lbas


def _state(ctrl, metrics):
    """The controller's disk state, clock and metrics rows, by repr."""
    return {
        "clock": repr(ctrl.sim.now),
        "disks": repr(
            [
                (
                    d.busy_time,
                    d.total_queue_delay,
                    d.completed_reads,
                    d.completed_writes,
                    d._last_offset,
                )
                for d in ctrl.disks
            ]
        ),
        "metrics": (
            render_metrics_jsonl(build_rows(ctrl.obs)) if metrics else None
        ),
    }


def _replay(
    core_kind, mix, window, dataplane, metrics, policy="rmw", fail=None
):
    """Two back-to-back replays on one controller (the second starts
    from the first's disk state, kinds and a non-zero clock), each fed
    in ``window``-request windows (None: one feed), under write
    ``policy``; ``fail`` is ``(disk, part)``: that disk fails before
    that replay (0 or 1)."""
    layout, times, is_read, lbas = _stream(mix)
    ctrl = ArrayController(
        layout(), dataplane=dataplane, seed=4, write_policy=policy
    )
    if metrics:
        ctrl.obs = MetricsRecorder(40.0)
    half = len(times) // 2
    for part, (lo, hi) in enumerate(((0, half), (half, len(times)))):
        if fail is not None and fail[1] == part:
            ctrl.fail_disk(fail[0])
        if core_kind == "python":
            ctrl.set_engine("calendar", "exact-core")
            core = _ExactCore(ctrl)
        else:
            core = _exact_core(ctrl, "calendar")
            assert ctrl.last_executor == "exact-native"
        sink = _controller_sink(ctrl)
        step = window or hi - lo
        t0 = times[lo]
        for i in range(lo, hi, step):
            j = min(i + step, hi)
            core.feed(
                compile_stream(
                    ctrl.mapper, times[i:j] - t0, is_read[i:j], lbas[i:j]
                ),
                sink,
            )
        core.finish(sink)
    return {
        "samples": repr([(k, st.samples) for k, st in ctrl.latency.items()]),
        "store": None if ctrl.data is None else ctrl.data.store.tobytes(),
        **_state(ctrl, metrics),
    }


#: (mix, window) cases: every mix one-shot and in 7- and 64-request
#: windows; single-request windows on the tie-heavy mixes.
WINDOWED = [(mix, w) for mix in sorted(MIXES) for w in (None, 7, 64)] + [
    ("fleet-shard", 1),
    ("ring-quantized", 1),
]


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("dataplane", [False, True], ids=["nodata", "data"])
@pytest.mark.parametrize("mix, window", WINDOWED, ids=str)
def test_kernel_matches_python_core(mix, window, dataplane, metrics):
    ref = _replay("python", mix, window, dataplane, metrics)
    got = _replay("native", mix, window, dataplane, metrics)
    assert got == ref


#: Controllers whose plans include generic ones: name -> (write policy,
#: failed disk as an index into the layout's disks, or None; the replay
#: it fails before).
GENERIC = {
    "degraded": ("rmw", 0, 0),
    "degraded-between": ("rmw", -1, 1),
    "write-through": ("write_through", None, 0),
    "write-through-degraded": ("write_through", 1, 0),
}


@pytest.mark.parametrize(
    "dataplane, metrics", [(False, False), (True, True)], ids=["plain", "full"]
)
@pytest.mark.parametrize(
    # Single-request windows on one tie-heavy mix: they cost the most.
    "mix, window", [c for c in WINDOWED if c != ("ring-quantized", 1)], ids=str
)
@pytest.mark.parametrize("controller", sorted(GENERIC))
def test_kernel_matches_python_core_on_generic_plans(
    controller, mix, window, dataplane, metrics
):
    """Degraded reads and writes and write-through writes — the
    kernel's generic plans — replay bit for bit as on the Python core,
    sample kinds in the same order, with a disk failed from the start
    or between the two replays."""
    policy, disk, part = GENERIC[controller]
    fail = None if disk is None else (range(MIXES[mix][0]().v)[disk], part)
    ref = _replay("python", mix, window, dataplane, metrics, policy, fail)
    got = _replay("native", mix, window, dataplane, metrics, policy, fail)
    assert got == ref
    if fail is not None and fail[1] == 0:
        assert "degraded_" in got["samples"]


def _phases(cols, i):
    """Generic plan ``i`` of ``_columns``' generic columns, as
    ``(kind, phases)`` in ``request_plan``'s form."""
    kinds, sizes, disks, offsets, writes, _gmax = cols
    start = int(sizes[: 2 * i].sum())
    ios = list(
        zip(disks.tolist(), offsets.tolist(), map(bool, writes.tolist()))
    )
    phases = []
    for size in sizes[2 * i : 2 * i + 2].tolist():
        if size:
            phases.append(ios[start : start + size])
            start += size
    return native._KINDS[kinds[i]], phases


@pytest.mark.parametrize("policy", ["rmw", "write_through"])
@pytest.mark.parametrize(
    "make", [lambda: get_layout(9, 3), lambda: get_layout(7, 2),
             lambda: get_layout(12, 4)],
    ids=["9-3", "7-2", "12-4-mixed-sizes"],
)
def test_generic_columns_equal_request_plans(make, policy):
    """Every unit of every stripe, read and written, against every
    failed disk (and none): a request the kernel runs on a fast path
    is a single-IO read or a healthy read-modify-write, and every other
    request's generic columns decode to ``request_plan``'s phases."""
    layout = make()
    for failed in [None, *range(layout.v)]:
        ctrl = ArrayController(layout, write_policy=policy)
        if failed is not None:
            ctrl.fail_disk(failed)
        cap = ctrl.mapper.capacity
        trace = compile_stream(
            ctrl.mapper,
            np.arange(2.0 * cap),
            np.arange(2 * cap) < cap,
            np.concatenate([np.arange(cap), np.arange(cap)]),
        )
        _at, cls, _d, _o, wcols, gcols = native._columns(ctrl, trace, 0.0)
        fast_writes = iter(zip(*(c.tolist() for c in wcols)))
        generic = 0
        for r in range(trace.n):
            read = bool(trace.is_read[r])
            d, o = int(trace.disks[r]), int(trace.offsets[r])
            sid = int(trace.stripes[r]) % layout.b
            kind, phases = ctrl.request_plan(read, d, o, sid)
            if cls[r] == native._READ:
                assert (kind, phases) == ("read", [[(d, o, False)]])
            elif cls[r] == native._RMW:
                pd, po = layout.stripes[sid].parity_unit
                assert policy == "rmw" and kind == "write"
                assert phases == ctrl.normal_write_phases(d, o, pd, po)
                assert next(fast_writes) == (d, o, pd, po)
            else:
                assert cls[r] == native._GENERIC
                assert _phases(gcols, generic) == (kind, phases)
                generic += 1
        assert generic == gcols[0].size
        assert next(fast_writes, None) is None
        # No plan starts with an empty phase, and none outgrows gmax.
        assert (gcols[1][0::2] >= 1).all()
        assert (gcols[1] <= gcols[5]).all()


def _eager_run(core_kind, layout, parts, window, metrics, params=None):
    """Eager runs on one controller, one per ``(times, is_read, lbas)``
    part (each from the clock the last one left), fed in
    ``window``-request windows (None: one feed) into a recording sink.
    Returns the verdict — where the first False came, ``("feed", part,
    first request)`` or ``("finish", part)``, else None — every sink
    batch by ``repr``, and after a completed run the controller state
    (:func:`_state`)."""
    ctrl = ArrayController(layout, disk_params=params)
    if metrics:
        ctrl.obs = MetricsRecorder(40.0)
    batches = []
    verdict = None
    for part, (times, is_read, lbas) in enumerate(parts):
        if core_kind == "python":
            ctrl.set_engine("eager", "eager")
            core = _EagerCore(ctrl)
        else:
            core = _eager_core(ctrl, "eager")
            assert ctrl.last_executor == "eager-native"
        sink = _controller_sink(ctrl)

        def record(kind, lats, comps):
            batches.append((kind, lats.tolist(), comps.tolist()))
            sink(kind, lats, comps)

        step = window or len(times)
        for i in range(0, len(times), step):
            w = compile_stream(
                ctrl.mapper, times[i : i + step], is_read[i : i + step],
                lbas[i : i + step],
            )
            if not core.feed(w, record):
                verdict = ("feed", part, i)
                break
        else:
            if not core.finish(record):
                verdict = ("finish", part)
        if verdict is not None:
            break
    out = {"verdict": verdict, "batches": repr(batches)}
    if verdict is None:
        out.update(_state(ctrl, metrics))
    return out


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("window", [None, 1, 7, 64], ids=str)
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_eager_kernel_matches_python_core(mix, window, metrics):
    """Two back-to-back runs (the second from the first's disk state
    and a non-zero clock): the same verdict at the same feed or
    finish, the same sink batches, and after a completed run the same
    disk state, clock and metrics rows."""
    layout, times, is_read, lbas = _stream(mix)
    half = len(times) // 2
    parts = [
        (times[lo:hi] - times[lo], is_read[lo:hi], lbas[lo:hi])
        for lo, hi in ((0, half), (half, len(times)))
    ]
    ref = _eager_run("python", layout(), parts, window, metrics)
    got = _eager_run("native", layout(), parts, window, metrics)
    assert got == ref


def test_eager_twin_covers_both_verdicts():
    """The mixes exercise completed runs and tie aborts alike."""
    verdicts = set()
    for mix in sorted(MIXES):
        layout, times, is_read, lbas = _stream(mix)
        parts = [(times, is_read, lbas)]
        run = _eager_run("native", layout(), parts, None, False)
        verdicts.add(run["verdict"] is None)
    assert verdicts == {False, True}


class TestEagerAbortRules:
    """Hand-built traces pin each of the eager core's tie-abort rules on
    both cores.  Writes ``w1`` = (X, parity Y) and ``w2`` = (Z, parity
    X), reads on X, Y and Z and one read on a fourth disk Q, every
    queued IO on a non-adjacent offset, so each one takes the average
    service time ``avg``."""

    LAYOUT = get_layout(9, 3)
    AVG = DiskParameters().average_service_ms

    @classmethod
    def _lbas(cls):
        mapper = ArrayController(cls.LAYOUT).mapper
        d, o, _s, pd, po = mapper.map_batch_parity(np.arange(mapper.capacity))

        def first(mask):
            return int(np.flatnonzero(mask)[0])

        for x, y, z in itertools.permutations(range(cls.LAYOUT.v), 3):
            w1, w2 = (d == x) & (pd == y), (d == z) & (pd == x)
            if not (w1.any() and w2.any()):
                continue
            w1, w2 = first(w1), first(w2)
            ry, rz = first(d == y), first(d == z)
            if min(
                abs(o[w1] - po[w2]), abs(o[ry] - po[w1]), abs(o[rz] - o[w2])
            ) > 1:
                break
        else:
            raise AssertionError("no disk triple fits the crafted ties")
        rq = first(~np.isin(d, (x, y, z)))
        return dict(w1=w1, w2=w2, rx=first(d == x), ry=ry, rz=rz, rq=rq)

    def _verdicts(self, reqs, lbas=None, params=None):
        """Both cores' runs of ``reqs`` (``(time, is_read, name)``, names
        looked up in ``lbas``), one feed and a finish; they must agree,
        and the verdict is returned."""
        lbas = self._lbas() if lbas is None else lbas
        times = np.array([t for t, _r, _n in reqs])
        is_read = np.array([r for _t, r, _n in reqs])
        lba = np.array([lbas[n] for _t, _r, n in reqs], dtype=np.int64)
        parts = [(times, is_read, lba)]
        ref = _eager_run("python", self.LAYOUT, parts, None, True, params)
        got = _eager_run("native", self.LAYOUT, parts, None, True, params)
        assert got == ref
        return got["verdict"]

    def test_arrival_tied_with_phase_two_on_a_shared_disk(self):
        # w1's phase 2 is due at avg on X and Y; a read of X arrives then.
        assert self._verdicts(
            [(0.0, False, "w1"), (self.AVG, True, "rx")]
        ) == ("feed", 0, 0)

    def test_write_arrival_tied_on_its_parity_disk(self):
        # w2 writes Z, its parity on X: it shares X with w1's phase 2.
        assert self._verdicts(
            [(0.0, False, "w1"), (self.AVG, False, "w2")]
        ) == ("feed", 0, 0)

    def test_arrival_tied_with_phase_two_on_disjoint_disks(self):
        assert self._verdicts(
            [(0.0, False, "w1"), (self.AVG, True, "rq")]
        ) is None

    def test_phase_twos_tied_on_time_and_start(self):
        # w1 and w2 both finish phase 1 at 2 avg, their last reads having
        # started at avg, and both write X; a later arrival retires them
        # inside the feed.
        tied = [(0.0, True, "ry"), (0.0, True, "rz"), (0.0, False, "w1"),
                (0.0, False, "w2")]
        assert self._verdicts(tied + [(10 * self.AVG, True, "rq")]) == (
            "feed", 0, 0,
        )

    def test_tie_that_fires_in_finish(self):
        tied = [(0.0, True, "ry"), (0.0, True, "rz"), (0.0, False, "w1"),
                (0.0, False, "w2")]
        assert self._verdicts(tied) == ("finish", 0)

    #: Service times of 8 ms (average) and 4 ms (sequential), exact in
    #: binary, so sequential and average reads can end on one instant.
    SHORT = DiskParameters(
        average_seek_ms=5.0,
        rotational_latency_ms=2.0,
        transfer_ms_per_unit=1.0,
        sequential_seek_ms=1.0,
    )

    @classmethod
    def _gating_lbas(cls):
        """LBAs for phase 2s tied on time: reads ``rz1``, ``rz2`` at
        adjacent offsets of a disk Z; write ``w2`` = (Z next to ``rz2``,
        parity X); write ``w1`` = (X away from ``w2``'s parity, parity
        Y); read ``ry`` on Y next to ``w1``'s parity."""
        mapper = ArrayController(cls.LAYOUT).mapper
        d, o, _s, pd, po = mapper.map_batch_parity(np.arange(mapper.capacity))
        unit = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(d, o))}
        for rz1 in range(mapper.capacity):
            z, o1 = int(d[rz1]), int(o[rz1])
            for step, w_off in itertools.product((1, -1), (0, 2)):
                rz2 = unit.get((z, o1 + step))
                w2 = unit.get((z, o1 + w_off * step))
                if rz2 is None or w2 in (None, rz1, rz2):
                    continue
                x, px = int(pd[w2]), int(po[w2])
                w1s = (d == x) & (abs(o - px) > 1) & ~np.isin(pd, (x, z))
                for w1 in np.flatnonzero(w1s).tolist():
                    y, py = int(pd[w1]), int(po[w1])
                    for ry in (unit.get((y, py + k)) for k in (-1, 0, 1)):
                        if ry is not None:
                            return dict(rz1=rz1, rz2=rz2, w2=w2, w1=w1, ry=ry)
        raise AssertionError("no units fit the crafted gating ties")

    def _gating(self, with_ry):
        # w2 (arrival 0) reads X over [0, 8] and Z over [12, 16], behind
        # rz1 and rz2 (its Z read is sequential): phase 2 at 16, gating
        # start 12.  w1 (arrival 8) reads X over [8, 16] and Y over
        # [8, 16] — or, behind ry, sequentially over [12, 16].
        reqs = [(0.0, True, "rz1"), (0.0, True, "rz2"), (0.0, False, "w2")]
        if with_ry:
            reqs.append((4.0, True, "ry"))
        reqs.append((8.0, False, "w1"))
        return self._verdicts(reqs, self._gating_lbas(), self.SHORT)

    def test_phase_twos_tied_on_time_order_by_gating_start(self):
        """w1's phase 2 (gating start 8) goes before w2's (12) although
        w2's was pushed first: tied on time only, they share X and do
        not abort."""
        assert self._gating(with_ry=False) is None

    def test_gating_start_of_tied_reads_is_the_later_start(self):
        """w1's two reads end together at 16, started at 8 and 12: its
        gating start is 12, which ties w2's, and they share X."""
        assert self._gating(with_ry=True) == ("finish", 0)


class TestEligibility:
    """The factory gives the kernel only plans it can take."""

    @pytest.mark.parametrize(
        "setup, executor",
        [
            (lambda c: None, "exact-native"),
            (lambda c: c.fail_disk(1), "exact-native"),
            (lambda c: c.add_content_write_hook(lambda *a: None), "exact-core"),
            (lambda c: c.add_degraded_write_hook(lambda *a: None), "exact-core"),
        ],
        ids=["healthy", "degraded", "hooked", "rebuilding"],
    )
    def test_executor(self, setup, executor):
        ctrl = ArrayController(get_layout(9, 3), dataplane=True)
        setup(ctrl)
        core = _exact_core(ctrl, "heap")
        assert ctrl.last_executor == executor
        assert isinstance(core, _ExactCore) == (executor == "exact-core")

    @pytest.mark.parametrize(
        "controller", ["healthy", "degraded", "write-through"]
    )
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("disks", 9, "disk id out of range"),
            ("disks", -1, "disk id out of range"),
            ("offsets", -1, "negative offset"),
            ("times", np.nan, "non-finite arrival"),
            ("is_read", None, "ragged"),
            ("stripes", None, "ragged"),
        ],
    )
    def test_kernel_refuses_bad_columns(self, field, value, match, controller):
        """No column a ``CompiledTrace`` can carry reaches the kernel
        unchecked, on a controller with generic plans too: a disk id
        outside ``[0, v)``, a negative offset, a NaN arrival time or a
        ragged column raises before the call."""
        ctrl = ArrayController(
            get_layout(9, 3),
            write_policy="write_through" if controller == "write-through"
            else "rmw",
        )
        if controller == "degraded":
            ctrl.fail_disk(1)
        trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=2), 200.0)
        reads = np.flatnonzero(trace.is_read & (trace.disks != 1))
        if value is None:
            bad = replace(trace, **{field: getattr(trace, field)[:-1]})
        else:
            col = getattr(trace, field).copy()
            col[reads[0]] = value
            bad = replace(trace, **{field: col})
        core = _exact_core(ctrl, "calendar")
        with pytest.raises(ValueError, match=match):
            core.feed(bad, _controller_sink(ctrl))

    @pytest.mark.parametrize(
        "table, value, match",
        [
            (0, 9, "disk id out of range"),
            (1, -1, "negative offset"),
        ],
    )
    def test_kernel_refuses_bad_generic_columns(
        self, monkeypatch, table, value, match
    ):
        """The generic plans' IO columns pass the same disk and offset
        checks: a unit table holding a bad unit raises before the
        call."""
        ctrl = ArrayController(get_layout(9, 3))
        ctrl.fail_disk(1)
        units = [t.copy() for t in native._unit_table(ctrl.mapper)]
        units[table][units[0] == 0] = value
        monkeypatch.setattr(native, "_unit_table", lambda mapper: units)
        trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=2), 200.0)
        core = _exact_core(ctrl, "calendar")
        with pytest.raises(ValueError, match=match):
            core.feed(trace, _controller_sink(ctrl))

    @pytest.mark.parametrize(
        "sizes", [[0, 0], [4, 0], [1, 4], [1, -1], [3, 2]],
        ids=["empty", "past-gmax", "second-past-gmax", "negative", "short"],
    )
    def test_kernel_refuses_bad_phase_sizes(self, sizes):
        """A generic plan whose phases are empty, outgrow ``gmax`` or
        run past its IO columns fails the feed in the kernel itself."""
        ctrl = ArrayController(get_layout(9, 3))
        ctrl.fail_disk(1)
        core = _exact_core(ctrl, "calendar")
        i64 = np.zeros(1, dtype=np.int64)
        gcols = (
            np.zeros(1, dtype=np.uint8),
            np.array(sizes, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.uint8),
            3,
        )
        cols = (
            np.zeros(1), np.full(1, native._GENERIC, dtype=np.uint8), i64,
            i64, [np.zeros(0, dtype=np.int64)] * 4, gcols,
        )
        with pytest.raises(RuntimeError, match="code -2"):
            core._run(cols)

    def test_core_is_spent_after_finish(self):
        ctrl = ArrayController(get_layout(9, 3))
        trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=2), 200.0)
        core = _exact_core(ctrl, "calendar")
        sink = _controller_sink(ctrl)
        core.feed(trace, sink)
        core.finish(sink)
        with pytest.raises(RuntimeError, match="after finish"):
            core.feed(trace, sink)

    def test_write_through_takes_the_kernel(self):
        ctrl = ArrayController(get_layout(9, 3), write_policy="write_through")
        assert isinstance(_exact_core(ctrl, "calendar"), native.NativeExactCore)
        assert ctrl.last_executor == "exact-native"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _failed(ArrayController(get_layout(9, 3))),
            lambda: ArrayController(get_layout(9, 3), dataplane=True),
            lambda: ArrayController(
                get_layout(9, 3), write_policy="write_through"
            ),
            lambda: ArrayController(
                get_layout(9, 3),
                disk_params=DiskParameters(
                    average_seek_ms=0.0,
                    rotational_latency_ms=0.0,
                    transfer_ms_per_unit=0.0,
                    sequential_seek_ms=0.0,
                ),
            ),
        ],
        ids=["degraded", "dataplane", "write-through", "zero-service"],
    )
    def test_eager_factory_refuses_outside_its_domain(self, make):
        """Both eager cores cover healthy rmw plans only: the factory
        refuses any other controller loudly, before it labels it, so a
        gate that slips cannot run a degraded trace on the eager
        tier."""
        ctrl = make()
        with pytest.raises(ValueError, match="eager tier takes"):
            _eager_core(ctrl, "eager")
        assert ctrl.last_engine is None


def _failed(ctrl):
    ctrl.fail_disk(1)
    return ctrl


def _serves():
    """A healthy serve whose shards tie-abort onto the exact tier (once
    materialized, once in windows), a serve with failures whose quiet
    shards replay beside them (once materialized, once in windows
    through the in-process grouped runner), a healthy serve with
    one shard that stays on the eager tier and one that tie-aborts
    (once materialized, once in windows), and the serve with failures
    on a write-through fleet."""
    mixed = FleetScenario(
        shards=2,
        v=9,
        k=3,
        duration_ms=120_000.0,
        interarrival_ms=4.0,
        read_fraction=0.7,
        verify_data=False,
        check_conformance=False,
        seed=3,
    )
    failing = FleetScenario(
        shards=4,
        v=9,
        k=3,
        duration_ms=300.0,
        interarrival_ms=1.0,
        read_fraction=0.7,
        failures=default_failure_schedule(4, 9, 2, 80.0),
        admission=2,
        verify_data=True,
    )
    eager = replace(mixed, duration_ms=20_000.0, seed=4)
    return [
        run_fleet_scenario(mixed).to_dict(),
        run_fleet_scenario(replace(mixed, window_size=4096)).to_dict(),
        run_fleet_scenario(failing).to_dict(),
        run_fleet_scenario_parallel(
            replace(failing, window_size=64), workers=1
        ).to_dict(),
        run_fleet_scenario(eager).to_dict(),
        run_fleet_scenario(replace(eager, window_size=512)).to_dict(),
        run_fleet_scenario(
            replace(failing, write_policy="write_through")
        ).to_dict(),
    ]


#: Each compiled executor and the Python one it falls back to.
FALLBACK = {"exact-native": "exact-core", "eager-native": "eager"}


def test_forced_fallback_serves_the_same_report(request):
    """With the loader failing, every eager and exact run goes to the
    Python cores: canonical reports are unchanged, the executors read
    ``eager`` and ``exact-core`` where the kernel ran, and one warning
    names why."""
    kernel_payloads = _serves()
    assert [p["engine_per_shard"] for p in kernel_payloads] == [
        ["calendar"] * 2,
        ["windowed-pump"] * 2,
        ["heap"] * 4,
        ["windowed-pump"] * 4,
        ["eager", "calendar"],
        ["windowed-eager", "windowed-pump"],
        ["heap"] * 4,
    ]
    request.getfixturevalue("no_kernel")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback_payloads = _serves()
    for got, ref in zip(fallback_payloads, kernel_payloads):
        assert canonical_payload(got) == canonical_payload(ref)
        # A split shard names each stretch's executor ("a|b|c").
        assert got["executor_per_shard"] == [
            "|".join(FALLBACK.get(x, x) for x in e.split("|"))
            for e in ref["executor_per_shard"]
        ]
    for payload in kernel_payloads[:2]:
        assert payload["executor_per_shard"] == ["exact-native"] * 2
    for payload in kernel_payloads[2:4] + kernel_payloads[6:]:
        assert payload["executor_per_shard"].count("exact-native") == 2
    for payload in kernel_payloads[4:6]:
        assert payload["executor_per_shard"] == [
            "eager-native", "exact-native"
        ]
    messages = [
        str(w.message) for w in caught if w.category is RuntimeWarning
    ]
    assert len(messages) == 1
    assert "dlopen failed: forced by the test" in messages[0]


class TestBuild:
    """The loader's failure reasons, and its cache directory rules."""

    def test_concurrent_first_compile(self, tmp_path):
        """Two processes compile into one empty cache directory at once:
        both load, and no temporary file is left behind."""
        src = str(Path(native.__file__).parents[2])
        code = (
            "import sys; from pathlib import Path; "
            "from repro.sim import native; "
            "native._load(native._build(Path(sys.argv[1]))); print('ok')"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path)],
                env=dict(os.environ, PYTHONPATH=src),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0 and out.strip() == "ok", err
        assert [f.name for f in tmp_path.iterdir()] == [
            native._build(tmp_path).name
        ]

    def test_import_loads_nothing(self):
        """``import repro`` neither builds nor imports the loader: the
        first eligible replay does."""
        code = (
            "import sys, repro, repro.service; "
            "assert 'repro.sim.native' not in sys.modules; print('ok')"
        )
        src = str(Path(native.__file__).parents[2])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.stdout.strip() == "ok", out.stderr

    def test_compile_error_names_its_first_line(self, tmp_path, monkeypatch):
        bad = tmp_path / "exactcore.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", bad)
        with pytest.raises(native.KernelUnavailable, match="failed: .*error"):
            native._build(tmp_path)
        assert list(tmp_path.iterdir()) == [bad]

    def test_os_error_falls_back_with_a_warning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "gone")
        native.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="No such file"):
                assert native.kernel() is None
        finally:
            native.kernel.cache_clear()

    def test_missing_compiler(self, monkeypatch):
        monkeypatch.setattr(
            native.sysconfig, "get_config_var", lambda name: "no-such-cc -O"
        )
        with pytest.raises(
            native.KernelUnavailable, match="'no-such-cc' not found"
        ):
            native._compiler()

    def test_private_cache_dir_when_pycache_unusable(self, tmp_path, monkeypatch):
        """A module directory that cannot hold ``__pycache__`` sends the
        build to a 0700 per-user directory under the tempdir, and a
        directory there that others can open is refused."""
        blocker = tmp_path / "pkg"
        blocker.write_text("")  # a file: its __pycache__ cannot exist
        monkeypatch.setattr(native, "SOURCE", blocker / "exactcore.c")
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        private = native._cache_dir()
        assert private.parent == tmp_path
        assert private.stat().st_mode & 0o777 == 0o700
        private.chmod(0o755)
        with pytest.raises(native.KernelUnavailable, match="not private"):
            native._cache_dir()
