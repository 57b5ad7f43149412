"""Compiled-path throughput regression guard (``make bench-guard``).

Every case is self-relative: both sides of each ratio run on the same
host, in interleaved pairs, so host speed cancels out and no committed
``BENCH_*.json`` row is involved.  A change that quietly knocks an
engine back onto a slow path (the solver onto the heap, the eager tier
into its fallback, a degraded trace from the exact core onto per-event
stepping, the warm runtime into a cold boot) shows up as a ratio far
below its floor, while the same code on a slower host reads the same
ratio.

Engine cases
------------
Each compiled trace runs through ``execute_compiled`` — the engine
gate ``serve`` uses — and through the event heap
(``schedule_compiled`` + ``sim.run()``), in interleaved pairs.
Adjacent runs sample the same host-load drift, and a true regression
suppresses *every* pair while noise cannot, so the verdict is the best
per-pair heap/engine wall-time ratio:

* ``read_only_solver`` — (13,4), 5 ms mean interarrival, reads only,
  seed 7, 30k requests: the analytic solver;
* ``mixed_rw_executor`` — the same at read fraction 0.7: the eager
  tier, on the compiled eager core (executor ``eager-native``);
* ``degraded_mixed_executor`` — that mix with disk 1 failed: a
  degraded trace never tries the eager tier, so the exact tier (label
  ``calendar``) replays it on the Python exact core (executor
  ``exact-core``), the one core that takes degraded plans;
* ``exact_tier`` — one shard of the serve-shaped mixed fleet ((9,3),
  8 ms, read fraction 0.7, seed 7, 30k requests), whose eager attempt
  tie-aborts, so the exact tier (label ``calendar``) replays it on the
  compiled exact core (executor ``exact-native``).

Each of these names its label and its executor: a host where the
kernel did not build, a gate that sends healthy plans back to a
Python core, or one that lets a degraded trace into the eager tier,
reads as a wrong engine.

``windowed_exact`` streams the ``exact_tier`` shard in 4096-request
windows (``StreamWindows``) through ``execute_windows`` — whose first
off-heap pass feeds the windowed eager core until it tie-aborts, so a
second off-heap pass replays the shard on the compiled exact core one
window at a time, into a digest sink — and through the chained heap
pump on the same windows, in interleaved pairs.

``native_exact`` replays the ``exact_tier`` shard's plan (one
``_CompiledRun``) through the exact tier's factory — the compiled
kernel, ``repro.sim.native.NativeExactCore`` — and on the Python
``repro.sim.batchstep._ExactCore``, one feed and a finish each into
the controller's sample sink, in interleaved pairs; its ratio is
Python/kernel, not heap/engine.  It must land on
the executor ``exact-native``: a host where the kernel did not build
or load falls back to the Python core silently in ``serve`` (one
warning), and here reads as a wrong engine.

``native_eager`` is its eager twin: ``mixed_rw_executor``'s trace
through the eager tier's factory — the compiled kernel,
``repro.sim.native.NativeEagerCore`` — and on the Python
``repro.sim.batchstep._EagerCore``, one feed of the compiled trace and
a finish each into the controller's sample sink, in interleaved pairs
(the Python side plans its ``_CompiledRun`` inside the feed, as
``serve`` did before the kernel took the tier).  Its ratio is
Python/kernel, and it must land on the executor ``eager-native``.

Each case also names the engine it must land on, and must leave
``sim.events_processed`` at 0 (every guarded engine runs off the event
heap).  A run on any other engine, or on the heap, fails the guard,
and the JSON line lists such cases under ``wrong_engine``.  For
``windowed_exact`` the event count is the only tell: both sides carry
the label ``windowed-pump``.

``quiet_beside_failure`` is a 2-shard fleet in the ``fleet_rebuild``
shard shape ((31,6), data planes on, 4 ms aggregate interarrival, read
fraction 0.7, seed 7, 30k requests) with one failure armed on shard 0:
the shard-set gate (``repro.sim.compile._execute_shards``) against the
all-heap schedule of the same traces, in interleaved pairs.  The gate
must keep shard 1 off the heap (it replays on the exact core, its
small writes folded into the data plane in one pass).  Both sides
carry the label ``heap``, so the tell is the heap's event count: the
gated run must process exactly as many events as the same run with
shard 1's trace empty, or the case is a wrong engine.

``quiet_windowed`` is its windowed twin: the same fleet, failure and
stream served through ``Fleet.serve_windows`` in ``WINDOW``-request
windows (the serial fleet's windowed shard-set gate) against the
fleet's window router, which keeps every shard on the heap.  Shard 1
must replay on the compiled exact core (executor ``exact-native``) and
add no heap events (against the same windows with shard 1's requests
removed); the window router, a host without the kernel, or a gate
that sends the serve back to the router reads as a wrong engine.

Mapping case
------------
``map_batch`` translates 100k random addresses of the (33,5) layout at
4 iterations through ``AddressMapper.map_batch`` and through the
scalar ``logical_to_physical`` loop, in interleaved pairs: the best
per-pair scalar/batch ratio must reach ``MAP_BATCH_FLOOR``, and the two
paths must agree address for address.

Runtime cases
-------------
``warm_serve`` serves ``warm_serve_scenario()`` (a healthy 4-shard
fleet) through one ``repro.service.runtime.WarmRuntime`` (persistent
pool + shared-memory transport + compiled-artifact cache): the cold
first serve's wall time over the best warm serve's must reach
``WARM_SERVE_SPEEDUP_BAR``.  A regression that silently reboots the
pool, misses the artifact cache, or re-pickles traces per serve drags
the ratio toward 1.

``obs_overhead``: the mixed path with a live ``MetricsRecorder``
attached must reach 0.95x of its own metrics-off throughput.
``BENCH_GUARD_OBS_RATIO`` overrides that floor; ``<= 0`` skips just
this case.

The final stdout line is machine-readable JSON (prefixed
``bench-guard-json:``) with per-case ratios and floors.

Exit codes: 0 = every case at or above its floor on its expected
engine, 1 = regression or wrong engine, 2 = invalid
``BENCH_GUARD_OBS_RATIO``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Requests per timed trace — enough to amortize per-run overhead while
#: keeping the whole guard within a few tens of seconds.
REQUESTS = 30_000
#: Interleaved engine/heap run pairs per engine case.
PAIRS = 5

#: The guarded engine cases: name -> ((v, k), mean interarrival ms,
#: read fraction, failed disk, expected ``label/executor``, floor on
#: the best per-pair heap/engine wall-time ratio).  Each floor sits
#: below the best-pair ratios three runs measured on a 2-CPU host
#: (Python 3.11.7, NumPy 2.4.6, gcc 12.2) — solver 9.9-18.5, eager
#: 65.5-73.1 on the compiled eager core, degraded 2.18-2.33 on the
#: Python exact core (2.43-2.69 in six more runs; the Python eager core,
#: which took degraded plans before they left the eager tier, read
#: 3.79-5.88 in six runs interleaved with those), exact tier 26.7-30.4
#: on the compiled eager and exact cores — and well above the ~1x of a
#: run pinned to the heap.
#: The eager and exact-tier floors also sit above what the Python cores
#: read there (eager 4.4-5.9, exact tier 4.2, the eager attempt in
#: Python), so a gate that sends healthy plans back to Python fails on
#: speed as well as on its executor.  The host runs at two speeds, so
#: one run can read well above these (the solver case alone read
#: 11.4-18.8 in six runs).
CASES = {
    "read_only_solver": ((13, 4), 5.0, 1.0, None, "solver/solver", 8.0),
    "mixed_rw_executor": (
        (13, 4), 5.0, 0.7, None, "eager/eager-native", 15.0,
    ),
    "degraded_mixed_executor": (
        (13, 4), 5.0, 0.7, 1, "calendar/exact-core", 1.7,
    ),
    "exact_tier": ((9, 3), 8.0, 0.7, None, "calendar/exact-native", 8.0),
}

#: The windowed replay case: the exact_tier shard in windows of this
#: many requests, and the floor on its best per-pair pump/exact ratio.
#: Three runs on that host measured 12.3-14.7 — the execute_windows
#: side includes the compiled eager pass the tie aborts, then the
#: compiled exact core's replay pass (3.9-4.1 with the eager pass in
#: Python) — against about 1x for a replay pinned to the pump.
WINDOW = 4096
WINDOWED_EXACT_FLOOR = 6.0

#: The quiet-shard case: aggregate mean interarrival of its 2-shard
#: stream, the failure time as a fraction of the horizon, and the floor
#: on its best per-pair all-heap/gated ratio.  The failed shard runs on
#: the heap on both sides, so the ratio tops out well below the quiet
#: shard's own gain: three runs on that host measured 2.10-3.09 (an
#: earlier run read 1.16 with the quiet shard on the heap).
QUIET_INTERARRIVAL_MS = 4.0
QUIET_FAIL_AT = 0.25
QUIET_FLOOR = 1.3

#: The floor on ``quiet_windowed``'s best per-pair router/gated ratio
#: (the same stream in ``WINDOW``-request windows).  Three runs on that
#: host measured 2.05-2.24, against about 1x for a serve left on the
#: router.
QUIET_WINDOWED_FLOOR = 1.6

#: The compiled exact core's floor on its best per-pair Python/kernel
#: ratio (see ``native_exact`` in the module docstring).  Three runs on
#: that host measured 11.8-14.1.
NATIVE_EXACT_FLOOR = 6.0

#: The compiled eager core's floor on its best per-pair Python/kernel
#: ratio (see ``native_eager`` in the module docstring).  Three runs on
#: that host measured 13.1-15.3.
NATIVE_EAGER_FLOOR = 6.0

#: The mapping case's address count, and the floor on its best
#: per-pair scalar/batch ratio.  Three runs on that host measured
#: 254-337x; a batch path that fell back to per-address Python would
#: read about 1x.
MAP_ADDRESSES = 100_000
MAP_BATCH_FLOOR = 5.0

#: The warm-serve case's worker pool.  Spawn is deliberate: the cold
#: first serve pays the full cold path (pool boot with interpreter
#: start and registry priming, stream generation, routing) while warm
#: serves reuse all of it, so the ratio measures exactly what the
#: runtime amortizes and does not depend on the host's core count.
WARM_SERVE_WORKERS = 2
WARM_SERVE_MP_CONTEXT = "spawn"
WARM_SERVE_DURATION_MS = 4_000.0
#: Warm serves timed after the cold one; the best is compared.
WARM_RUNS = 3
#: The floor on the cold/warm wall-time ratio.  Cold and warm run on
#: the same host, so the ratio holds on one core too.
WARM_SERVE_SPEEDUP_BAR = 2.0

#: Observability overhead gate: the mixed path with a live
#: MetricsRecorder attached must reach this fraction of its own
#: metrics-off throughput.  Override with BENCH_GUARD_OBS_RATIO; <= 0
#: skips just this case.
OBS_RATIO = 0.95
#: Interleaved off/on run pairs for the overhead case; the verdict is
#: the best per-pair on/off ratio.
OBS_RUNS = 5


def engine_case(
    vk: tuple[int, int],
    interarrival_ms: float,
    read_fraction: float,
    failed_disk: int | None,
) -> dict:
    """Time one compiled trace through ``execute_compiled`` and through
    the event heap in interleaved pairs; report the best heap/engine
    ratio and the ``label/executor`` ``execute_compiled`` landed on."""
    from repro.core import get_layout
    from repro.sim import (
        ArrayController,
        WorkloadConfig,
        compile_workload,
        execute_compiled,
        schedule_compiled,
    )

    layout = get_layout(*vk)
    cfg = WorkloadConfig(
        interarrival_ms=interarrival_ms, read_fraction=read_fraction, seed=7
    )
    trace = compile_workload(
        ArrayController(layout).mapper, cfg, interarrival_ms * REQUESTS
    )

    def timed(engine: bool) -> tuple[float, "ArrayController"]:
        ctrl = ArrayController(layout)
        if failed_disk is not None:
            ctrl.fail_disk(failed_disk)
        t0 = time.perf_counter()
        if engine:
            execute_compiled(ctrl, trace)
        else:
            schedule_compiled(ctrl, trace)
            ctrl.sim.run()
        return time.perf_counter() - t0, ctrl

    timed(True)  # warm caches outside the timed pairs
    engine_best = heap_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, ctrl = timed(True)
        h, _ = timed(False)
        engine_best = min(engine_best, e)
        heap_best = min(heap_best, h)
        ratio = max(ratio, h / e)
    return {
        "requests": trace.n,
        "engine": f"{ctrl.last_engine}/{ctrl.last_executor}",
        "events_processed": ctrl.sim.events_processed,
        "engine_requests_per_s": trace.n / engine_best,
        "heap_requests_per_s": trace.n / heap_best,
        "ratio_heap_vs_engine": ratio,
    }


def windowed_exact_case() -> dict:
    """Stream the ``exact_tier`` shard through ``execute_windows`` and
    through the chained heap pump, in interleaved pairs; report the
    best pump/exact ratio, the engine label and the heap events the
    ``execute_windows`` side processed."""
    import numpy as np

    from repro.core import get_layout
    from repro.sim import ArrayController, StreamWindows, WorkloadConfig
    from repro.sim.stream import _arm_shard_pump, _ShardRoute, execute_windows

    layout = get_layout(9, 3)
    cfg = WorkloadConfig(interarrival_ms=8.0, read_fraction=0.7, seed=7)
    cap = ArrayController(layout).mapper.capacity
    windows = StreamWindows(cfg, 8.0 * REQUESTS, cap, window_size=WINDOW)
    route = _ShardRoute(np.zeros(1, dtype=np.int64), cap, cap, cap)

    def timed(exact: bool) -> tuple[float, int, "ArrayController"]:
        ctrl = ArrayController(layout)
        t0 = time.perf_counter()
        if exact:
            n, _ = execute_windows(ctrl, windows)
        else:
            count, drain = _arm_shard_pump(ctrl, route, windows, {})
            ctrl.sim.run()
            drain()
            n = count[0]
        return time.perf_counter() - t0, n, ctrl

    timed(True)  # warm caches outside the timed pairs
    engine_best = heap_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, n, ctrl = timed(True)
        h, _, _ = timed(False)
        engine_best = min(engine_best, e)
        heap_best = min(heap_best, h)
        ratio = max(ratio, h / e)
    return {
        "requests": n,
        "engine": ctrl.last_engine,
        "events_processed": ctrl.sim.events_processed,
        "engine_requests_per_s": n / engine_best,
        "heap_requests_per_s": n / heap_best,
        "ratio_heap_vs_engine": ratio,
    }


def quiet_stream() -> tuple:
    """The quiet-shard cases' 2-shard (31,6) stream: ``(router,
    stream)`` — a fleet to route with, and the fleet-global columns."""
    from repro.service import Fleet
    from repro.sim import WorkloadConfig, generate_request_stream

    cfg = WorkloadConfig(
        interarrival_ms=QUIET_INTERARRIVAL_MS, read_fraction=0.7, seed=7
    )
    router = Fleet(2, 31, 6, seed=7)
    stream = generate_request_stream(
        cfg, QUIET_INTERARRIVAL_MS * REQUESTS, router.capacity
    )
    return router, stream


def quiet_fleet() -> "Fleet":
    """A fresh quiet-shard fleet: data planes on, one failure armed on
    shard 0 a quarter into the horizon."""
    from repro.service import FailureEvent, FailureOrchestrator, Fleet

    fleet = Fleet(2, 31, 6, dataplane=True, seed=7)
    at = QUIET_INTERARRIVAL_MS * REQUESTS * QUIET_FAIL_AT
    FailureOrchestrator(fleet, (FailureEvent(at, 0, 0),), admission=1).arm()
    return fleet


def quiet_beside_failure_case() -> dict:
    """Serve a 2-shard (31,6) fleet with data planes and a failure
    armed on shard 0 through the shard-set gate and through the
    all-heap schedule, in interleaved pairs; report the best
    heap/gated ratio, shard 1's engine label, and the heap events shard
    1 added (the gated run against the same run with shard 1's trace
    emptied)."""
    from repro.sim.compile import _execute_shards, _tail, schedule_compiled

    router, stream = quiet_stream()
    traces, _ = router.route_stream(*stream)

    def timed(gated: bool, shard_traces) -> tuple[float, "Fleet"]:
        fleet = quiet_fleet()
        t0 = time.perf_counter()
        if gated:
            _execute_shards(fleet.controllers, shard_traces)
        else:
            for ctrl, trace in zip(fleet.controllers, shard_traces):
                schedule_compiled(ctrl, trace)
            fleet.sim.run()
        return time.perf_counter() - t0, fleet

    timed(True, traces)  # warm caches outside the timed pairs
    engine_best = heap_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, fleet = timed(True, traces)
        h, _ = timed(False, traces)
        engine_best = min(engine_best, e)
        heap_best = min(heap_best, h)
        ratio = max(ratio, h / e)
    _, alone = timed(True, [traces[0], _tail(traces[1], traces[1].n)])
    n = sum(t.n for t in traces)
    return {
        "requests": n,
        "engine": fleet.controllers[1].last_engine,
        "executor": fleet.controllers[1].last_executor,
        "events_processed": (
            fleet.sim.events_processed - alone.sim.events_processed
        ),
        "engine_requests_per_s": n / engine_best,
        "heap_requests_per_s": n / heap_best,
        "ratio_heap_vs_engine": ratio,
    }


def quiet_windowed_case() -> dict:
    """The windowed twin of ``quiet_beside_failure``: the same fleet,
    failure and stream served through ``Fleet.serve_windows`` in
    ``WINDOW``-request windows (the shard-set gate) and through the
    fleet's window router (every shard on the heap), in interleaved
    pairs; report the best router/gated ratio, shard 1's executor, and
    the heap events shard 1 added (the gated run against the same
    windows with shard 1's requests removed)."""
    from repro.service.fleet import _WindowRouter
    from repro.sim.compile import ArrayWindows

    router, stream = quiet_stream()
    windows = list(ArrayWindows(*stream, WINDOW))
    alone_windows = [
        (times[ids == 0], is_read[ids == 0], lbas[ids == 0])
        for (times, is_read, lbas), ids in router.static_route().routed(windows)
    ]

    def timed(gated: bool, source) -> tuple[float, "Fleet"]:
        fleet = quiet_fleet()
        t0 = time.perf_counter()
        if gated:
            fleet.serve_windows(source)
        else:
            heap = _WindowRouter(fleet, iter(source), [{}, {}], [0, 0])
            fleet.sim.run()
            heap.finish()
        return time.perf_counter() - t0, fleet

    timed(True, windows)  # warm caches outside the timed pairs
    engine_best = heap_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, fleet = timed(True, windows)
        h, _ = timed(False, windows)
        engine_best = min(engine_best, e)
        heap_best = min(heap_best, h)
        ratio = max(ratio, h / e)
    _, alone = timed(True, alone_windows)
    n = len(stream[0])
    return {
        "requests": n,
        "engine": fleet.controllers[1].last_executor,
        "reference": "window router",
        "events_processed": (
            fleet.sim.events_processed - alone.sim.events_processed
        ),
        "engine_requests_per_s": n / engine_best,
        "heap_requests_per_s": n / heap_best,
        "ratio_heap_vs_engine": ratio,
    }


def native_exact_case() -> dict:
    """Replay the ``exact_tier`` shard's plan (one ``_CompiledRun``) on
    the exact tier's factory — the compiled kernel — and on the Python
    ``_ExactCore``, one feed and a finish each into the controller's
    sample sink, in interleaved pairs; report the best Python/kernel
    ratio and the executor the factory picked."""
    from repro.core import get_layout
    from repro.sim import ArrayController, WorkloadConfig, compile_workload
    from repro.sim.batchstep import _ExactCore, _step_exact
    from repro.sim.compile import _CompiledRun, _controller_sink

    layout = get_layout(9, 3)
    cfg = WorkloadConfig(interarrival_ms=8.0, read_fraction=0.7, seed=7)
    trace = compile_workload(
        ArrayController(layout).mapper, cfg, 8.0 * REQUESTS
    )

    def timed(kernel: bool) -> tuple[float, "ArrayController"]:
        ctrl = ArrayController(layout)
        run = _CompiledRun(ctrl, trace)
        t0 = time.perf_counter()
        if kernel:
            _step_exact(ctrl, run)
        else:
            core = _ExactCore(ctrl)
            sink = _controller_sink(ctrl)
            core.feed(run, sink)
            core.finish(sink)
        return time.perf_counter() - t0, ctrl

    timed(True)  # build or load the kernel outside the timed pairs
    engine_best = ref_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, ctrl = timed(True)
        p, _ = timed(False)
        engine_best = min(engine_best, e)
        ref_best = min(ref_best, p)
        ratio = max(ratio, p / e)
    return {
        "requests": trace.n,
        "engine": ctrl.last_executor,
        "reference": "exact-core",
        "events_processed": ctrl.sim.events_processed,
        "engine_requests_per_s": trace.n / engine_best,
        "heap_requests_per_s": trace.n / ref_best,
        "ratio_heap_vs_engine": ratio,
    }


def native_eager_case() -> dict:
    """Run ``mixed_rw_executor``'s trace on the eager tier's factory —
    the compiled kernel — and on the Python ``_EagerCore``, one feed of
    the compiled trace and a finish each into the controller's sample
    sink, in interleaved pairs; report the best Python/kernel ratio and
    the executor the factory picked."""
    from repro.core import get_layout
    from repro.sim import ArrayController, WorkloadConfig, compile_workload
    from repro.sim.batchstep import _eager_core, _EagerCore
    from repro.sim.compile import _controller_sink

    vk, gap, read_fraction, *_ = CASES["mixed_rw_executor"]
    layout = get_layout(*vk)
    cfg = WorkloadConfig(
        interarrival_ms=gap, read_fraction=read_fraction, seed=7
    )
    mapper = ArrayController(layout).mapper
    trace = compile_workload(mapper, cfg, gap * REQUESTS)

    def timed(kernel: bool) -> tuple[float, "ArrayController"]:
        ctrl = ArrayController(layout)
        t0 = time.perf_counter()
        core = _eager_core(ctrl, "eager") if kernel else _EagerCore(ctrl)
        sink = _controller_sink(ctrl)
        if not (core.feed(trace, sink) and core.finish(sink)):
            raise RuntimeError("native_eager: the eager tier tie-aborted")
        return time.perf_counter() - t0, ctrl

    timed(True)  # build or load the kernel outside the timed pairs
    engine_best = ref_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        e, ctrl = timed(True)
        p, _ = timed(False)
        engine_best = min(engine_best, e)
        ref_best = min(ref_best, p)
        ratio = max(ratio, p / e)
    return {
        "requests": trace.n,
        "engine": ctrl.last_executor,
        "reference": "eager",
        "events_processed": ctrl.sim.events_processed,
        "engine_requests_per_s": trace.n / engine_best,
        "heap_requests_per_s": trace.n / ref_best,
        "ratio_heap_vs_engine": ratio,
    }


def map_batch_case() -> dict:
    """Translate one random address vector through ``map_batch`` and
    through the scalar ``logical_to_physical`` loop in interleaved
    pairs; report the best per-pair scalar/batch ratio and whether the
    two paths agree."""
    import numpy as np

    from repro.core import get_layout, get_mapper

    mapper = get_mapper(get_layout(33, 5), iterations=4)
    lbas = np.random.default_rng(7).integers(
        0, mapper.capacity, size=MAP_ADDRESSES, dtype=np.int64
    )
    lba_list = lbas.tolist()
    to_phys = mapper.logical_to_physical

    def timed(batch: bool) -> tuple[float, object]:
        t0 = time.perf_counter()
        if batch:
            out = mapper.map_batch(lbas)
        else:
            out = [(pu.disk, pu.offset) for pu in map(to_phys, lba_list)]
        return time.perf_counter() - t0, out

    timed(True)  # warm caches outside the timed pairs
    batch_best = scalar_best = float("inf")
    ratio = 0.0
    for _ in range(PAIRS):
        b, (disks, offsets) = timed(True)
        a, scalar = timed(False)
        batch_best = min(batch_best, b)
        scalar_best = min(scalar_best, a)
        ratio = max(ratio, a / b)
    agree = list(zip(disks.tolist(), offsets.tolist())) == scalar
    return {
        "addresses": MAP_ADDRESSES,
        "batch_maps_per_s": MAP_ADDRESSES / batch_best,
        "scalar_maps_per_s": MAP_ADDRESSES / scalar_best,
        "ratio_scalar_vs_batch": ratio,
        "agree": agree,
        "floor_ratio": MAP_BATCH_FLOOR,
        "ok": agree and ratio >= MAP_BATCH_FLOOR,
    }


def warm_serve_scenario():
    """The healthy 4-shard (9,3) fleet ``warm_serve`` serves
    repeatedly: 0.2 ms aggregate interarrival, read fraction 0.9,
    workload seed 7, data planes on."""
    from repro.service import FleetScenario

    return FleetScenario(
        shards=4,
        v=9,
        k=3,
        duration_ms=WARM_SERVE_DURATION_MS,
        interarrival_ms=0.2,
        read_fraction=0.9,
        workload_seed=7,
        failures=(),
        admission=2,
        verify_data=True,
        seed=0,
    )


def warm_serve_case() -> dict:
    """Serve ``warm_serve_scenario()`` through one warm runtime: the
    cold first serve (pool boot, artifact build and pack) against the
    best of the warm serves that follow."""
    from repro.service.runtime import WarmRuntime

    runtime = WarmRuntime(
        warm_serve_scenario(),
        workers=WARM_SERVE_WORKERS,
        mp_context=WARM_SERVE_MP_CONTEXT,
    )
    try:
        t0 = time.perf_counter()
        runtime.run()
        cold = time.perf_counter() - t0
        warm = float("inf")
        for _ in range(WARM_RUNS):
            t0 = time.perf_counter()
            runtime.run()
            warm = min(warm, time.perf_counter() - t0)
    finally:
        runtime.close()
    ratio = cold / warm
    return {
        "cold_wall_s": cold,
        "warm_wall_s": warm,
        "ratio_cold_vs_warm": ratio,
        "floor_ratio": WARM_SERVE_SPEEDUP_BAR,
        "ok": ratio >= WARM_SERVE_SPEEDUP_BAR,
    }


def obs_overhead_case(obs_ratio: float) -> dict:
    """Time the mixed path metrics-off vs metrics-on (a fresh recorder
    per run, 20-bucket grid) in interleaved pairs and report the best
    per-pair ``on/off`` ratio (see the engine cases for why pairs)."""
    from repro.core import get_layout
    from repro.obs import MetricsRecorder
    from repro.sim import WorkloadConfig, simulate_workload

    interval = 5.0 * REQUESTS / 20.0
    layout = get_layout(13, 4)
    cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7)
    duration = 5.0 * REQUESTS

    def timed(recorder) -> float:
        t0 = time.perf_counter()
        rep = simulate_workload(
            layout,
            duration_ms=duration,
            config=cfg,
            batched=True,
            recorder=recorder,
        )
        return rep.scheduled / (time.perf_counter() - t0)

    timed(None)  # warm compile caches outside the timed pairs
    off = on = ratio = 0.0
    for _ in range(OBS_RUNS):
        o = timed(None)
        m = timed(MetricsRecorder(interval))
        off = max(off, o)
        on = max(on, m)
        if o:
            ratio = max(ratio, m / o)
    return {
        "metrics_off_events_per_s": off,
        "metrics_on_events_per_s": on,
        "ratio_on_vs_off": ratio,
        "floor_ratio": obs_ratio,
        "ok": ratio >= obs_ratio,
    }


def main() -> int:
    try:
        obs_ratio = float(
            os.environ.get("BENCH_GUARD_OBS_RATIO", OBS_RATIO)
        )
    except ValueError:
        print("bench-guard: BENCH_GUARD_OBS_RATIO must be a number")
        return 2

    summary: dict = {"cases": {}}
    regressed = []
    wrong_engine = []
    runs = [
        (name, lambda c=c: engine_case(*c[:4]), c[4], c[5])
        for name, c in CASES.items()
    ]
    runs.append(
        ("windowed_exact", windowed_exact_case, "windowed-pump",
         WINDOWED_EXACT_FLOOR)
    )
    runs.append(
        ("quiet_beside_failure", quiet_beside_failure_case, "heap",
         QUIET_FLOOR)
    )
    runs.append(
        ("quiet_windowed", quiet_windowed_case, "exact-native",
         QUIET_WINDOWED_FLOOR)
    )
    runs.append(
        ("native_exact", native_exact_case, "exact-native",
         NATIVE_EXACT_FLOOR)
    )
    runs.append(
        ("native_eager", native_eager_case, "eager-native",
         NATIVE_EAGER_FLOOR)
    )
    for name, run, expected, floor in runs:
        case = run()
        case.update(
            expected_engine=expected,
            engine_ok=case["engine"] == expected
            and case["events_processed"] == 0,
            floor_ratio=floor,
            ok=case["ratio_heap_vs_engine"] >= floor,
        )
        summary["cases"][name] = case
        verdict = "OK" if case["ok"] else "REGRESSION"
        print(
            f"bench-guard: {name:<24} "
            f"{case['engine_requests_per_s']:>10,.0f} rq/s "
            f"{case['engine']} vs "
            f"{case['heap_requests_per_s']:>10,.0f} rq/s "
            f"{case.get('reference', 'heap')} "
            f"({case['ratio_heap_vs_engine']:.2f}x, floor {floor:.2f}x) "
            f"-> {verdict}"
        )
        if not case["ok"]:
            regressed.append(name)
        if not case["engine_ok"]:
            wrong_engine.append(name)
            print(
                f"bench-guard: {name:<24} ran on engine "
                f"{case['engine']!r} with {case['events_processed']} heap "
                f"events, expected {expected!r} off the heap -> WRONG ENGINE"
            )

    warm = warm_serve_case()
    summary["cases"]["warm_serve"] = warm
    verdict = "OK" if warm["ok"] else "REGRESSION"
    print(
        f"bench-guard: {'warm_serve':<24} "
        f"{warm['cold_wall_s']:>9.3f} s cold vs "
        f"{warm['warm_wall_s']:>9.3f} s warm "
        f"({warm['ratio_cold_vs_warm']:.2f}x, "
        f"floor {warm['floor_ratio']:.2f}x) -> {verdict}"
    )
    if not warm["ok"]:
        regressed.append("warm_serve")

    if obs_ratio > 0:
        obs = obs_overhead_case(obs_ratio)
        summary["cases"]["obs_overhead"] = obs
        verdict = "OK" if obs["ok"] else "REGRESSION"
        print(
            f"bench-guard: {'obs_overhead':<24} "
            f"{obs['metrics_on_events_per_s']:>10,.0f} ev/s on vs "
            f"{obs['metrics_off_events_per_s']:>10,.0f} ev/s off "
            f"({obs['ratio_on_vs_off']:.2f}x, floor {obs_ratio:.2f}x) "
            f"-> {verdict}"
        )
        if not obs["ok"]:
            regressed.append("obs_overhead")
    else:
        summary["cases"]["obs_overhead"] = {
            "skipped": True,
            "skip_reason": "BENCH_GUARD_OBS_RATIO<=0",
        }
        print("bench-guard: obs_overhead          skipped (BENCH_GUARD_OBS_RATIO<=0)")

    # Last, so that the scalar loops' million short-lived objects do
    # not churn the allocator just before the obs_overhead timings,
    # which sit close to their floor.
    mapping = map_batch_case()
    summary["cases"]["map_batch"] = mapping
    verdict = "OK" if mapping["ok"] else "REGRESSION"
    print(
        f"bench-guard: {'map_batch':<24} "
        f"{mapping['batch_maps_per_s']:>10,.0f} maps/s batch vs "
        f"{mapping['scalar_maps_per_s']:>10,.0f} maps/s scalar "
        f"({mapping['ratio_scalar_vs_batch']:.2f}x, "
        f"floor {MAP_BATCH_FLOOR:.2f}x, agree {mapping['agree']}) "
        f"-> {verdict}"
    )
    if not mapping["ok"]:
        regressed.append("map_batch")

    if regressed:
        print(
            f"bench-guard: {', '.join(regressed)} fell below the floor — "
            "check the engine-selection gate in "
            "repro.sim.compile.execute_compiled, the eager tier's "
            "fallback rate in repro.sim.batchstep, (for exact_tier, "
            "windowed_exact and native_exact) repro.sim.native's "
            "compiled exact core, (for mixed_rw_executor and "
            "native_eager) its compiled eager core, (for "
            "quiet_beside_failure and quiet_windowed) the per-shard rule "
            "of repro.sim.compile._execute_shards / "
            "repro.sim.stream._execute_shard_windows and the data-plane "
            "fold, "
            "(for map_batch) AddressMapper.map_batch in "
            "repro.layouts.mapping, "
            "and (for warm_serve) "
            "the pool/cache reuse counters in "
            "repro.service.runtime.WarmRuntime"
        )
    if wrong_engine:
        print(
            f"bench-guard: {', '.join(wrong_engine)} fell off the fast "
            "path — check the engine-selection gate in "
            "repro.sim.compile.execute_compiled, the eager tier's "
            "tie-abort fallback in repro.sim.batchstep, (for "
            "windowed_exact) the replay pass in "
            "repro.sim.stream._execute_shard_windows, "
            "(for quiet_beside_failure and quiet_windowed) the shard "
            "attribution of repro.sim.events.Simulator.armed_shards, (for "
            "quiet_windowed) the router choice in "
            "repro.service.Fleet.serve_windows and (for "
            "mixed_rw_executor, exact_tier, native_exact and "
            "native_eager) the kernel build warning of "
            "repro.sim.native.kernel"
        )
    summary["regressed"] = regressed
    summary["wrong_engine"] = wrong_engine
    print("bench-guard-json: " + json.dumps(summary, sort_keys=True))
    return 1 if regressed or wrong_engine else 0


if __name__ == "__main__":
    sys.exit(main())
