"""The fleet runner: grouped execution over a worker pool, with
shared-memory transport and compiled-artifact caching.

:class:`WarmRuntime` is the one grouped runner in ``repro.service``.
Each grouped run partitions the scenario
(:func:`repro.service.parallel.partition_scenario`), routes and
compiles the stream once in the parent, hands every shard group one
:class:`repro.service.parallel.GroupTask` — in-process when one worker
suffices, else through the pool's single entry point — and merges the
results into a report canonically identical to the serial runner's.
The batch :func:`repro.service.run_fleet_scenario_parallel` is this
runner used once and closed; a long-lived front-end keeps it open, and
because the paper's declustered layouts are static per fleet shape,
everything derived from them (flat mapping tables, CSR incidence,
routed compiled slices) is reusable across serves until the fleet
reshapes.  What a runtime keeps warm:

* **Persistent worker pool** (:class:`WorkerPool`): workers boot on
  the first grouped run, one per group up to ``workers`` — the pool
  initializer primes the layout / mapper / incidence registries for
  ``(v, k)`` and loads the compiled kernel (a fork pool's workers
  inherit it from the parent) — and are reused across repeated
  scenario runs, stream windows, and socket submits.  The pool is
  spawn-safe (everything crossing the boundary pickles), reboots when
  the fleet shape or its group count changes, reboots and reruns a
  serve's group tasks once when a dead worker broke it mid-serve, and
  drains gracefully on :meth:`WarmRuntime.close`.
* **Zero-copy trace transport**: compiled per-shard traces are packed
  once into a ``multiprocessing.shared_memory`` segment (parent writes
  once; workers attach and build *read-only* ndarray views), so a
  task ships a segment name and array specs instead of pickled
  arrays; in-process groups view the runtime's own mapping of the
  same segment.  Segment lifecycle is owned by the runtime — every
  segment is unlinked on eviction, invalidation,
  :meth:`~WarmRuntime.close`,
  SIGTERM (the front-end installs handlers) and interpreter exit (an
  ``atexit`` safety net), so no ``/dev/shm`` orphans and no
  ``resource_tracker`` warnings survive a session.
* **Compiled-artifact cache** (:class:`ArtifactCache` semantics,
  bounded LRU): artifacts are keyed by (fleet shape, stream
  fingerprint, seed), so a repeated socket submit — or a repeated
  synthetic run — skips stream generation *and* ``route_stream``
  entirely and reuses the packed slices.  The cache applies only to
  materialized serves without a reshape or autoscale policy (windowed
  serves never materialize by design; a reshape's pumps hand traffic
  to the live coordinator), and a run that executed a reshape/autoscale
  event invalidates it.

The canonical byte-identity contract is non-negotiable and holds by
construction: cached slices are exactly the ``route_stream`` output
the serial runner would compute (routing is a pure function of the
fleet shape and the stream), shared-memory views are bit-equal to the
arrays they pack, and workers return one
:class:`repro.service.fleet.ShardTally` per shard, whose constant-size
latency states fold exactly as the exact samples' do (see
``repro.sim.stats``).  ``canonical_payload`` strips the volatile
``runtime`` stats section, so warm-pool, shared-memory, tally-IPC
reports compare equal to cold serial reports at every window size and
worker count — the matrix
``tests/service/test_runtime.py`` pins.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from hashlib import blake2b
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from ..core.registry import get_incidence, get_layout, get_mapper
from ..sim.compile import (
    ArrayWindows,
    CompiledTrace,
    StreamWindows,
    generate_request_stream,
)
from .conformance import FleetConformance, check_fleet
from .fleet import Fleet
from .migration import plan_migration
from .orchestrator import max_concurrent_rebuilds
from .parallel import (
    GroupPartition,
    GroupResult,
    GroupTask,
    ParallelExecution,
    ParallelScenarioRun,
    _execute_group,
    _execute_migration_group,
    _merge_results,
    available_cpus,
    partition_scenario,
)
from .scenario import (
    FleetScenario,
    FleetScenarioReport,
    _count_windows,
    run_fleet_scenario,
    scenario_fleet,
)

__all__ = [
    "SEGMENT_PREFIX",
    "RuntimeStats",
    "WorkerPool",
    "WarmRuntime",
    "leaked_segments",
]

#: Every shared-memory segment the runtime creates is named
#: ``repro_wrt_<creator pid hex>_<token>`` — teardown tests and the
#: front-end smoke can assert zero leftovers by prefix (and by pid,
#: so concurrent test runs never see each other's segments).
SEGMENT_PREFIX = "repro_wrt_"

#: The six :class:`CompiledTrace` arrays, in constructor order — the
#: packed-segment layout is one contiguous run of these per shard.
_TRACE_FIELDS = ("times", "is_read", "lbas", "disks", "offsets", "stripes")

#: Compiled artifacts a :class:`WarmRuntime` keeps resident, evicted
#: least recently used first.
ARTIFACT_CACHE_SIZE = 4


# ----------------------------------------------------------------------
# Segment lifecycle (parent side)
# ----------------------------------------------------------------------

#: Live segments this process created: name -> (SharedMemory, creator
#: pid).  The pid guards the ``atexit`` sweep against fork — a pool
#: worker forked after a segment was created inherits this dict, and
#: its interpreter exit must never unlink the parent's segments.
_LIVE_SEGMENTS: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
_ATEXIT_ARMED = False


def _sweep_segments() -> None:
    pid = os.getpid()
    for name in list(_LIVE_SEGMENTS):
        if _LIVE_SEGMENTS[name][1] == pid:
            _release_segment(name)


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a uniquely named segment and register it for guaranteed
    unlink (close / SIGTERM path / atexit safety net)."""
    global _ATEXIT_ARMED
    for _ in range(16):
        name = f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, size)
            )
        except FileExistsError:  # pragma: no cover - token collision
            continue
        _LIVE_SEGMENTS[shm.name] = (shm, os.getpid())
        if not _ATEXIT_ARMED:
            atexit.register(_sweep_segments)
            _ATEXIT_ARMED = True
        return shm
    raise RuntimeError(
        "could not allocate a uniquely named shared-memory segment"
    )  # pragma: no cover - 16 collisions in a row


def _release_segment(name: str) -> None:
    """Close + unlink one owned segment (idempotent, error-tolerant:
    teardown must never raise).  ``close`` can refuse while ndarray
    views of the buffer are still alive (exported pointers); the
    unlink still proceeds — the file is gone from ``/dev/shm`` and the
    mapping dies with its last reference."""
    entry = _LIVE_SEGMENTS.pop(name, None)
    if entry is None:
        return
    shm = entry[0]
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def leaked_segments(pid: int | None = None) -> list[str]:
    """Runtime-owned segments still present in ``/dev/shm`` (the
    teardown regression oracle).  With ``pid``, only segments created
    by that process are counted — concurrent runs stay invisible."""
    prefix = SEGMENT_PREFIX if pid is None else f"{SEGMENT_PREFIX}{pid:x}_"
    root = Path("/dev/shm")
    if root.is_dir():
        return sorted(p.name for p in root.glob(prefix + "*"))
    return sorted(n for n in _LIVE_SEGMENTS if n.startswith(prefix))


# ----------------------------------------------------------------------
# Packing / views
# ----------------------------------------------------------------------


def _pack_arrays(
    arrays: list[np.ndarray],
) -> tuple[shared_memory.SharedMemory, tuple, int]:
    """Copy 1-D arrays back-to-back (16-byte aligned) into one fresh
    segment.  Returns ``(segment, specs, nbytes)`` where each spec is
    ``(offset, dtype string, length)`` — everything a worker needs to
    rebuild a read-only view, and nothing else crosses the pickle
    boundary."""
    offsets: list[int] = []
    total = 0
    for arr in arrays:
        total = (total + 15) & ~15
        offsets.append(total)
        total += arr.nbytes
    shm = _create_segment(total)
    specs = []
    for arr, off in zip(arrays, offsets):
        if arr.size:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[...] = arr
        specs.append((off, arr.dtype.str, int(arr.size)))
    return shm, tuple(specs), total


def _view(shm: shared_memory.SharedMemory, spec: tuple) -> np.ndarray:
    """A read-only ndarray view over one packed array.  Read-only is
    load-bearing twice: it proves the transport is zero-copy (no
    engine may mutate a shared trace — any write raises), and it makes
    one segment safe to share across every worker simultaneously."""
    off, dtype, n = spec
    arr = np.ndarray((n,), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
    arr.setflags(write=False)
    return arr


def _pack_traces(
    traces: list[CompiledTrace],
) -> tuple[shared_memory.SharedMemory, tuple, int]:
    """Pack every shard's compiled trace into ONE segment; the per-shard
    spec is a tuple of six array specs in :data:`_TRACE_FIELDS` order."""
    flat: list[np.ndarray] = []
    for t in traces:
        flat.extend(
            np.ascontiguousarray(getattr(t, f)) for f in _TRACE_FIELDS
        )
    shm, specs, total = _pack_arrays(flat)
    per_trace = tuple(
        specs[i * len(_TRACE_FIELDS):(i + 1) * len(_TRACE_FIELDS)]
        for i in range(len(traces))
    )
    return shm, per_trace, total


def _trace_from(shm: shared_memory.SharedMemory, spec: tuple) -> CompiledTrace:
    return CompiledTrace(*(_view(shm, s) for s in spec))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Worker-side attachment cache: segment name -> SharedMemory, bounded
#: LRU.  Attachments are reused across tasks (attaching is a syscall +
#: mmap, cheap but not free at high serve rates) and evicted oldest
#: first — eviction happens only between tasks, so no live view ever
#: loses its mapping.  Workers never unlink: the parent owns lifecycle,
#: and the whole process tree shares one resource_tracker, so the
#: parent's single unlink also clears the tracker entry (a worker-side
#: unregister would race it into a tracker KeyError on stderr).
_ATTACHED: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_ATTACHED_CAP = 8


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is not None:
        _ATTACHED.move_to_end(name)
        return shm
    shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = shm
    while len(_ATTACHED) > _ATTACHED_CAP:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    return shm


def _prime_worker(v: int, k: int) -> None:
    """Pool initializer: build the layout / mapper / incidence registry
    entries for the fleet shape and load the compiled kernel once per
    worker boot, so the first task a worker runs is as warm as the
    hundredth (a forked worker inherits the kernel its parent loaded
    in :meth:`WorkerPool.ensure`, so the load is a no-op there).

    A forked worker first drops the front-end's signal wiring it
    inherits (the event loop's wakeup fd and a no-op SIGTERM handler).
    When a worker dies, the executor SIGTERMs the survivors; through
    that wiring the signal would reach the parent's loop and shut the
    front-end down instead of ending the worker."""
    from ..sim import native

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    layout = get_layout(v, k)
    get_mapper(layout)
    get_incidence(layout)
    native.kernel()


def _run_group_task(
    task: GroupTask, shm: shared_memory.SharedMemory | None = None
) -> GroupResult:
    """The one entry point every group task runs through (top-level so
    it pickles under spawn): resolve the task's trace source into
    read-only views and hand it to its executor.  Pool workers attach
    to ``task.segment``; an in-process run passes the runtime's own
    mapping of that segment as ``shm`` instead of attaching again."""
    if task.group.migration_volumes:
        return _execute_migration_group(task)
    if shm is None and task.segment is not None:
        shm = _attach(task.segment)
    sc = task.scenario
    if task.route is None:
        source = [_trace_from(shm, spec) for spec in task.specs]
    elif shm is None:
        source = StreamWindows(
            sc.workload(),
            sc.duration_ms,
            task.route.capacity,
            window_size=sc.window_size,
        )
    else:
        source = ArrayWindows(
            *(_view(shm, spec) for spec in task.specs), sc.window_size
        )
    return _execute_group(task, source)


# ----------------------------------------------------------------------
# Stats / cache / pool
# ----------------------------------------------------------------------


@dataclass
class RuntimeStats:
    """Warm-runtime counters (volatile by contract — surfaced under the
    report's ``runtime`` key, which :func:`canonical_payload` strips,
    and as volatile obs counters excluded from snapshot byte-identity).

    Attributes:
        runs: serves executed through this runtime.
        pool_warm_hits: runs that reused an already-booted worker pool.
        pool_cold_boots: pool (re)boots — first run, shape change.
        pool_reboots: pools a dead worker broke mid-serve, rebooted so
            the serve's group tasks could rerun.
        compile_cache_hits: runs that reused a cached compiled artifact
            (stream generation + ``route_stream`` skipped entirely).
        compile_cache_misses: artifact builds.
        shm_bytes: bytes currently resident in runtime-owned segments.
        ipc_bytes_avoided: cumulative estimate of bytes kept off the
            pickle channel — trace bytes shipped as segment handles
            instead of arrays, plus ~8 bytes per completed request
            returned inside a shard tally's latency states instead of
            as a raw sample.
    """

    runs: int = 0
    pool_warm_hits: int = 0
    pool_cold_boots: int = 0
    pool_reboots: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    shm_bytes: int = 0
    ipc_bytes_avoided: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Artifact:
    """One cached compiled stream: the owning segment plus parent-side
    read-only trace views (rebuilt from the same buffer workers map)."""

    shm: shared_memory.SharedMemory
    specs: tuple
    traces: list[CompiledTrace]
    nbytes: int


class WorkerPool:
    """A persistent ``ProcessPoolExecutor`` primed for one fleet shape.

    Workers boot lazily on the first mapped task batch and stay alive
    across runs; :meth:`ensure` reboots them only when the served
    ``(v, k)`` shape changes (the registry priming would be stale).
    :meth:`close` drains gracefully — in-flight tasks finish before
    the processes exit.
    """

    def __init__(self, workers: int, *, mp_context: str = "auto") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.mp_context = mp_context
        self.context_name: str | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._shape: tuple[int, int] | None = None

    def ensure(self, shape: tuple[int, int]) -> bool:
        """Boot (or reboot) the pool for ``shape``; True on a cold
        boot, False when the warm pool was reused.  A fork pool's
        workers inherit the compiled kernel, loaded here first."""
        if self._pool is not None and self._shape == shape:
            return False
        self.close()
        import multiprocessing

        from ..sim import native

        if self.mp_context == "auto":
            methods = multiprocessing.get_all_start_methods()
            self.context_name = "fork" if "fork" in methods else "spawn"
        else:
            self.context_name = self.mp_context
        if self.context_name == "fork":
            native.kernel()
        ctx = multiprocessing.get_context(self.context_name)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_prime_worker,
            initargs=shape,
        )
        self._shape = shape
        return True

    def map(self, tasks: list[GroupTask]) -> list[GroupResult]:
        return list(self._pool.map(_run_group_task, tasks))

    def close(self) -> None:
        """Graceful drain: wait for in-flight tasks, then reap the
        worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._shape = None


# ----------------------------------------------------------------------
# The warm runtime
# ----------------------------------------------------------------------


def _shape_key(sc: FleetScenario) -> tuple:
    """Everything routing + compilation depend on: the fleet shape."""
    return (
        sc.shards,
        sc.v,
        sc.k,
        sc.volumes,
        sc.placement,
        sc.seed,
        sc.write_policy,
    )


def _stream_key(sc: FleetScenario, stream) -> tuple:
    if stream is None:
        return (
            "workload",
            sc.duration_ms,
            sc.interarrival_ms,
            sc.read_fraction,
            sc.zipf_theta,
            sc.workload_seed,
        )
    h = blake2b(digest_size=16)
    for arr in stream:
        h.update(arr.tobytes())
    return ("stream", h.hexdigest(), int(stream[0].size))


class WarmRuntime:
    """The serving path's amortizing runtime: one scenario, a warm
    worker pool, shared-memory trace transport, and a compiled-artifact
    cache — with reports canonically byte-identical to the cold serial
    runner's at every window size and worker count.

    Args:
        scenario: the :class:`FleetScenario` every :meth:`run` serves.
        workers: worker processes (1 = in-process; the cache still
            applies).
        mp_context: start method — ``"auto"`` (fork where available),
            ``"spawn"``, or ``"forkserver"``.

    The compiled-artifact cache keeps the :data:`ARTIFACT_CACHE_SIZE`
    most recently used artifacts resident.  Beside it, the fleet
    conformance verdict (:func:`check_fleet`, a function of the fleet
    shape alone) is kept per :func:`_shape_key`, so warm serves of an
    unchanged shape, serial or grouped, check their layouts once.

    Use as a context manager or call :meth:`close`; segments are also
    unlinked by the ``atexit`` safety net if neither happens.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        workers: int = 1,
        mp_context: str = "auto",
    ) -> None:
        self.scenario = scenario
        self.workers = max(1, int(workers))
        self.stats = RuntimeStats()
        self._mp_context = mp_context
        self._pool: WorkerPool | None = None
        self._cache: OrderedDict[tuple, _Artifact] = OrderedDict()
        self._verdicts: dict[tuple, FleetConformance] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WarmRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def invalidate(self) -> None:
        """Drop every cached artifact and unlink its segment, and every
        kept conformance verdict — called on fleet-shape changes and
        after runs that executed a reshape/autoscale event (stale
        slices must never serve)."""
        self._verdicts.clear()
        while self._cache:
            _, art = self._cache.popitem(last=False)
            self._drop(art)

    def close(self) -> None:
        """Graceful teardown: drain the pool (in-flight tasks finish),
        then unlink every owned segment.  Idempotent — the front-end's
        shutdown, SIGTERM, and ``finally`` paths may all land here."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        self.invalidate()

    def update_scenario(self, scenario: FleetScenario) -> None:
        """Swap the served scenario.  A fleet-shape change (e.g. a grow
        decided between serves) invalidates the artifact cache — the
        shape is part of every cache key too, but the explicit unlink
        releases the dead segments immediately rather than by LRU
        pressure."""
        if _shape_key(scenario) != _shape_key(self.scenario):
            self.invalidate()
        self.scenario = scenario

    def _drop(self, art: _Artifact) -> None:
        art.traces.clear()
        self.stats.shm_bytes -= art.nbytes
        _release_segment(art.shm.name)

    # -- cache -------------------------------------------------------------

    def _cacheable(self) -> bool:
        sc = self.scenario
        return (
            sc.reshape_to is None
            and sc.autoscale is None
            and sc.window_size is None
        )

    def _artifact(self, stream, fleet: Fleet | None = None) -> _Artifact:
        """The compiled artifact for this scenario + stream — cached,
        so a repeated submit skips generation and routing entirely."""
        key = _shape_key(self.scenario) + _stream_key(self.scenario, stream)
        art = self._cache.get(key)
        if art is not None:
            self.stats.compile_cache_hits += 1
            self._cache.move_to_end(key)
            return art
        self.stats.compile_cache_misses += 1
        if fleet is None:
            fleet = scenario_fleet(self.scenario)
        if stream is None:
            times, is_read, lbas = generate_request_stream(
                self.scenario.workload(),
                self.scenario.duration_ms,
                fleet.capacity,
            )
        else:
            times, is_read, lbas = stream
        compiled, _ = fleet.route_stream(times, is_read, lbas)
        shm, specs, nbytes = _pack_traces(compiled)
        art = _Artifact(
            shm=shm,
            specs=specs,
            traces=[_trace_from(shm, spec) for spec in specs],
            nbytes=nbytes,
        )
        self._cache[key] = art
        self.stats.shm_bytes += nbytes
        while len(self._cache) > ARTIFACT_CACHE_SIZE:
            _, old = self._cache.popitem(last=False)
            self._drop(old)
        return art

    # -- running -----------------------------------------------------------

    def run(self, *, stream=None, recorder=None) -> dict:
        """Serve the scenario once and return the JSON-ready report
        payload (plus the volatile ``runtime`` stats section).

        With ``stream`` (a ``(times, is_read, lbas)`` triple), that
        stream is served instead of the synthetic workload — the
        front-end's path.  The payload is canonically identical to the
        cold serial runner's for the same scenario and stream.

        Raises:
            RuntimeError: after :meth:`close`.
            ValueError: on inconsistent scenario parameters (the
                serial runner's own checks).
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        sc = self.scenario
        self.stats.runs += 1
        before = self.stats.to_dict()
        if stream is not None:
            stream = (
                np.ascontiguousarray(stream[0], dtype=np.float64),
                np.ascontiguousarray(stream[1], dtype=bool),
                np.ascontiguousarray(stream[2], dtype=np.int64),
            )
        if self.workers > 1:
            payload = self._run_grouped(stream, recorder).to_dict()
        else:
            payload = self._run_serial(stream, recorder)
        if sc.reshape_to is not None or sc.autoscale is not None:
            # The run reshaped the (per-run) fleet; cached slices keyed
            # on the pre-reshape shape must not outlive the event.
            self.invalidate()
        payload["runtime"] = self.stats.to_dict()
        if recorder is not None:
            after = payload["runtime"]
            for name in (
                "pool_warm_hits",
                "pool_reboots",
                "compile_cache_hits",
                "shm_bytes",
                "ipc_bytes_avoided",
            ):
                delta = after[name] - before[name]
                if delta:
                    recorder.count(name, delta, volatile=True)
        return payload

    def _run_serial(self, stream, recorder) -> dict:
        key = _shape_key(self.scenario)
        kept = self._verdicts.get(key)
        if self._cacheable():
            art = self._artifact(stream)
            report = run_fleet_scenario(
                self.scenario,
                recorder=recorder,
                precompiled=art.traces,
                conformance=kept,
            )
        else:
            report = run_fleet_scenario(
                self.scenario,
                recorder=recorder,
                stream=stream,
                conformance=kept,
            )
        if report.conformance is not None:
            self._verdicts[key] = report.conformance
        return report.to_dict()

    def _map_on_pool(
        self, size: int, tasks: list[GroupTask]
    ) -> tuple[list[GroupResult], str | None]:
        """Run ``tasks`` on the worker pool for ``size`` concurrent
        groups — reused while the size and the fleet shape hold,
        rebooted when either changes.  Returns the results and the
        pool's start method.

        A worker that dies (an OOM kill, a SIGKILL) breaks the whole
        executor.  Group tasks are deterministic, so the pool is
        rebooted and the tasks rerun once — the report is unchanged; a
        second break fails the serve.  Only a serve that ran on the
        reused pool counts as a warm hit."""
        if self._pool is not None and self._pool.workers != size:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(size, mp_context=self._mp_context)
        pool = self._pool
        shape = (self.scenario.v, self.scenario.k)
        warm = not pool.ensure(shape)
        if not warm:
            self.stats.pool_cold_boots += 1
        try:
            results = pool.map(tasks)
        except BrokenProcessPool:
            pool.close()
            pool.ensure(shape)
            self.stats.pool_reboots += 1
            return pool.map(tasks), pool.context_name
        if warm:
            self.stats.pool_warm_hits += 1
        return results, pool.context_name

    def _run_grouped(self, stream, recorder) -> ParallelScenarioRun:
        """Serve the scenario once through the grouped pipeline — the
        one grouped runner: partition, run every group (or fall back to
        the serial runner when the partition or a submitted stream
        cannot split), and record how the run executed."""
        sc = self.scenario
        t0 = time.perf_counter()
        partition = partition_scenario(sc)
        reason = partition.reason if partition.serial_fallback else None
        if reason is None and stream is not None and any(
            g.migration_volumes for g in partition.groups
        ):
            # Migration workers regenerate the synthetic stream; a
            # submitted stream has no worker-side regeneration, so a
            # live reshape serves it on the serial path.
            reason = (
                "a submitted stream with a live reshape serves serially "
                "— migration workers regenerate synthetic streams only"
            )
        if reason is None:
            report, results, workers, context = self._run_groups(
                partition, stream, recorder, t0
            )
            rows = [
                (g, r.duration_ms, r.wall_s)
                for g, r in zip(partition.groups, results)
            ]
        else:
            report = run_fleet_scenario(sc, recorder=recorder, stream=stream)
            rows = [
                (partition.groups[0], report.fleet.duration_ms, report.wall_s)
            ]
            workers, context = 1, None
        execution = ParallelExecution(
            requested_workers=self.workers,
            workers=workers,
            cpu_count=available_cpus(),
            mp_context=context,
            serial_fallback=reason is not None,
            fallback_reason=reason,
            groups=tuple(
                {
                    "arrays": list(g.arrays),
                    "admission_slots": g.admission_slots,
                    "failures": len(g.failures),
                    "migration_volumes": list(g.migration_volumes),
                    "duration_ms": duration_ms,
                    "wall_s": wall_s,
                }
                for g, duration_ms, wall_s in rows
            ),
            admission_partition=partition.admission_partition(),
        )
        return ParallelScenarioRun(report=report, execution=execution)

    def _run_groups(
        self, partition: GroupPartition, stream, recorder, t0: float
    ) -> tuple[FleetScenarioReport, list[GroupResult], int, str | None]:
        """Build one :class:`GroupTask` per group, run them, and merge.
        Returns ``(report, results, workers used, start method)``."""
        sc = self.scenario
        # Parent-side work that must not be duplicated per group: the
        # conformance gate, the routing fingerprint, and — for
        # materialized plain groups — generating, routing and compiling
        # the stream ONCE (or reusing the cached artifact).  Windowed
        # groups get the static routing table instead and filter
        # windows themselves, so nothing holds the full stream.  Data
        # planes stay off — the parent never simulates.
        fleet = scenario_fleet(sc)
        conformance = None
        if sc.check_conformance:
            key = _shape_key(sc)
            conformance = self._verdicts.get(key)
            if conformance is None:
                conformance = self._verdicts[key] = check_fleet(fleet)
        planned_moves = 0
        fingerprint = fleet.shard_map.fingerprint()
        if sc.reshape_to is not None:
            # The serial runner reports the post-reshape table (scenarios
            # always run their migration to convergence) — compute it
            # from the plan without simulating.
            plan = plan_migration(fleet, sc.reshape_to)
            planned_moves = len(plan.moves)
            fingerprint = plan.target_map.fingerprint()
        interval = recorder.interval_ms if recorder is not None else None
        plain = [g for g in partition.groups if not g.migration_volumes]

        artifact = None
        shm = None  # the segment plain groups read their traces from
        packed_bytes = None  # set when shm is a per-serve stream segment
        stream_specs: tuple = ()
        route = None
        if plain and sc.window_size is None:
            artifact = self._artifact(stream, fleet)
            shm = artifact.shm
        elif plain:
            route = fleet.static_route()
            if stream is not None:
                # Windowed serves never materialize compiled slices,
                # but a submitted stream still rides shared memory:
                # pack the raw arrays once, every group views them.
                shm, stream_specs, packed_bytes = _pack_arrays(list(stream))
                self.stats.shm_bytes += packed_bytes

        def task(g) -> GroupTask:
            if g.migration_volumes:
                return GroupTask(sc, g, interval)
            if artifact is not None:
                specs = tuple(artifact.specs[a] for a in g.arrays)
            else:
                specs = stream_specs
            return GroupTask(
                sc,
                g,
                interval,
                segment=shm.name if shm is not None else None,
                specs=specs,
                route=route,
            )

        tasks = [task(g) for g in partition.groups]
        workers = min(self.workers, len(tasks))
        context = None
        try:
            if workers <= 1:
                results = [_run_group_task(t, shm) for t in tasks]
            else:
                results, context = self._map_on_pool(workers, tasks)
        finally:
            if packed_bytes is not None:
                # Per-serve raw-stream segments are not cached; release
                # as soon as every group has returned.
                self.stats.shm_bytes -= packed_bytes
                _release_segment(shm.name)

        if artifact is not None:
            # What a pickle transport would have shipped: every group's
            # trace slice, once per run.
            self.stats.ipc_bytes_avoided += sum(
                spec[2] * np.dtype(spec[1]).itemsize
                for g in plain
                for a in g.arrays
                for spec in artifact.specs[a]
            )
        if recorder is not None:
            for res in results:
                if res.obs is not None:
                    recorder.absorb(res.obs)

        fleet_report, outcomes, migrations = _merge_results(sc, results)
        if recorder is not None and sc.window_size is not None:
            _count_windows(recorder, fleet_report.scheduled, sc.window_size)
        # Tally-IPC savings: ~one float per completed request that no
        # longer rides the result pickle as a raw sample.
        self.stats.ipc_bytes_avoided += 8 * fleet_report.completed
        report = FleetScenarioReport(
            scenario=sc,
            conformance=conformance,
            fleet=fleet_report,
            rebuilds=outcomes,
            migrations=migrations,
            planned_moves=planned_moves,
            routing_fingerprint=fingerprint,
            wall_s=time.perf_counter() - t0,
            max_concurrent_rebuilds=max_concurrent_rebuilds(outcomes),
        )
        return report, results, workers, context
