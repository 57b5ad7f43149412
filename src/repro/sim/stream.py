"""Streaming compiled execution: constant-memory windows.

The materialized pipeline (:func:`repro.sim.compile.execute_compiled`)
holds the whole stream — generated vectors, one big
:class:`CompiledTrace`, every latency sample — so memory, not CPU, caps
the horizon.  :func:`execute_windows` runs the same simulation from a
window iterator (:class:`repro.sim.compile.StreamWindows`, or anything
yielding ``(times, is_read, lbas)`` slices in arrival order): each
window is translated with one ``map_batch`` call, executed by an engine
that carries its queue state across window boundaries, and reduced to
constant-memory :class:`repro.sim.stats.LatencyDigest` accumulators —
peak memory is one window, at any horizon.

Reports stay **byte-identical** to the materialized path.  The engine
gate for a set of shards on one clock lives here, once:
:func:`_execute_shard_windows` reads the windows once per class of
shard: one off-heap pass (:func:`_off_heap_pass`) on the carry engines
on an idle clock, ONE off-heap pass on the exact core for the shards
replayed exactly, and a chained heap pump (:func:`_arm_shard_pump`)
per shard an armed event names, armed before one ``sim.run()``; one
slicer (:func:`_slice_window`) serves them all.  :func:`execute_windows`
is that gate on one array, shard groups call it for their slice, and
:meth:`repro.service.Fleet.serve_windows` for the fleet unless it must
route live (its window router).  Every caller passes the stream's
routing geometry as one :class:`_ShardRoute`.  Three engines mirror
:func:`execute_compiled`'s selection gate:

* single-phase streams (a source whose ``read_only`` attribute says
  it is all reads, or any mix under ``write_policy="write_through"``)
  run on :class:`~repro.sim.compile._WindowedSolver` — the engine of
  :func:`~repro.sim.compile.solve_compiled` — with the per-disk
  recurrence state (previous completion, last offset, busy/delay
  accumulators) carried between windows.  Partitioning a disk's IO
  sequence does not change the float left-fold, so every completion is
  bit-equal to the whole-trace solve;
* mixed streams on the shards the eager tier takes
  (:func:`repro.sim.batchstep._eager_eligible`: healthy
  read-modify-write arrays without a data plane) run on the eager core
  fed window by window, its pending-phase heap and per-disk state
  persisting across feeds.  On the core's ambiguity abort (an exact
  submission-time tie) nothing has touched the controller, so the pass
  demotes that shard — its digests, counts and recorder samples
  cleared — to the replay pass: the exact core
  (:func:`repro.sim.batchstep._exact_core`), again one window at a
  time — the heap pump's exact serialization without the event heap,
  keeping the pump's ``windowed-pump`` label;
* a shard with foreign events scheduled on it (a failure timer, a
  migration copy) or a degenerate service model streams through the
  chained heap pump — :class:`~repro.sim.compile._CompiledRun` with a
  window ``source``, which loads one window at a time into the real
  event engine.  Every other shard the carry engines decline (a
  degraded array, a data plane, a one-shot mixed stream) or a busy
  clock rules out replays on the exact core, under the pump's label.
  A one-shot source has one pass to give, so the gate refuses one that
  would need more.

All three off-heap engines run one protocol, ``feed(trace, sink)`` and
``finish(sink)`` (see :mod:`repro.sim.batchstep`), and emit into a
digest sink (:func:`_digest_sink`) that folds each float64 batch
straight into the shard's digests and the metrics recorder.  Sample
*emission* is the part windowing could reorder, so every engine emits
a sample only once no later request can complete before it (a
window's last arrival bounds all future completions) and in
completion order with the engine's own tie-break — concatenated window
emissions reproduce the materialized emission order exactly, which
makes the digest's running total bit-equal to the left fold of the
materialized samples (:func:`repro.sim.stats.left_fold`) and every
summary byte-identical (see :mod:`repro.sim.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .batchstep import _eager_core, _eager_eligible, _exact_core
from .compile import (
    CompiledTrace,
    _compile_ordered,
    _in_arrival_order,
    _CompiledRun,
    _WindowedSolver,
    _on_heap,
)
from .controller import ArrayController
from .stats import LatencyDigest, LatencyStats

__all__ = ["execute_windows"]

#: A raw stream window, as yielded by StreamWindows.
_Window = tuple[np.ndarray, np.ndarray, np.ndarray]


def _digest_sink(ctrl: ArrayController, digests: dict[str, LatencyDigest]):
    """The windowed sample sink: fold each batch into the per-kind
    ``digests`` and, when metrics are on, into the recorder's
    completion-time buckets.  The engines' emission contract
    (completion-sorted per kind, windowed batches concatenating into
    the one-shot order) is exactly what keeps every digest fold and
    every per-bucket fold byte-identical across window sizes."""
    obs = ctrl.obs if ctrl.obs.enabled else None
    shard = ctrl.obs_shard

    def sink(kind: str, lats: np.ndarray, comps: np.ndarray) -> None:
        d = digests.get(kind)
        if d is None:
            d = digests[kind] = LatencyDigest()
        d.extend_array(lats)
        if obs is not None:
            obs.feed(shard, kind, comps, lats)

    return sink


def _volumes(
    lbas: np.ndarray, volume_units: int, n_volumes: int, capacity: int
) -> np.ndarray:
    """Each request's volume, ``lba // volume_units``.

    Raises:
        IndexError: if any LBA falls outside the ``capacity`` that the
            ``n_volumes`` volumes cover.
    """
    vols = lbas // volume_units
    if vols.size and (vols.min() < 0 or vols.max() >= n_volumes):
        raise IndexError(
            f"LBAs outside the capacity {capacity}: "
            f"volume range [{vols.min()}, {vols.max()}]"
        )
    return vols


@dataclass(frozen=True)
class _ShardRoute:
    """A fleet stream's routing geometry, as one record: LBA ``x`` is
    on volume ``x // volume_units``, which ``table`` assigns to a shard,
    at local address ``x % shard_capacity``; ``capacity`` bounds the
    fleet's address space.  A single array is the one-volume route
    ``table = [ctrl.obs_shard]``."""

    table: np.ndarray
    volume_units: int
    shard_capacity: int
    capacity: int

    def routed(self, windows) -> Iterator[tuple[_Window, np.ndarray]]:
        """One pass over ``windows``: each non-empty window
        (:func:`_in_order`) with its requests' shards.

        Raises:
            IndexError: on an LBA outside ``[0, capacity)``.
            ValueError: on a window that starts before the previous
                one's last arrival.
        """
        units, n, cap = self.volume_units, len(self.table), self.capacity
        for window in _in_order(windows):
            yield window, self.table[_volumes(window[2], units, n, cap)]


def _in_order(windows) -> Iterator[_Window]:
    """``windows``' non-empty windows, each checked and stable-sorted
    into arrival order (:func:`~repro.sim.compile._in_arrival_order`)
    and refused unless it starts at or after the previous one's last
    arrival — the check of every pass that routes windows, made once
    per window, so each shard's slice compiles without another (equal
    times across a boundary stay legal).

    Windows stream, so the check runs as each window is pulled: a
    refusal comes after the windows before it were routed, and leaves
    that partial serve behind — their arrivals in an attached recorder,
    and on the fleet's window router, their events on the heap.  The
    caller discards the controllers (the fleet) it was serving on.

    Raises:
        ValueError: on a window with columns of unequal length or a
            NaN, infinite or negative arrival time, or on arrival times
            that go back across a boundary.
    """
    last = -np.inf
    for window in windows:
        if len(window[0]):
            times, is_read, lbas, _ = _in_arrival_order(*window)
            if times[0] < last:
                raise ValueError("arrival times must be non-decreasing")
            last = times[-1]
            yield times, is_read, lbas


def _slice_window(
    shards: Iterable[tuple[int, ArrayController]],
    shard_ids: np.ndarray,
    window: _Window,
    shard_capacity: int,
    base: float,
    scheduled: list[int],
) -> Iterator[tuple[int, CompiledTrace]]:
    """Compile each shard's slice of one routed window, already checked
    and in arrival order (:func:`_in_order`) — the slicing loop of
    every windowed engine and of the fleet's window router.  For each
    ``(index, ctrl)`` of ``shards`` whose shard ``ctrl.obs_shard`` the
    window reaches (``shard_ids``), record its arrivals (stream start
    ``base``), add its size to ``scheduled[index]`` and yield ``(index,
    slice)``.  Each slice's columns are gathered through one index
    array of its requests."""
    times, is_read, lbas = window
    for i, ctrl in shards:
        idx = np.flatnonzero(shard_ids == ctrl.obs_shard)
        if not idx.size:
            continue
        at = times[idx]
        if ctrl.obs.enabled:
            ctrl.obs.arrivals(ctrl.obs_shard, base + at)
        local = lbas[idx] % shard_capacity
        w = _compile_ordered(ctrl.mapper, at, is_read[idx], local)
        scheduled[i] += w.n
        yield i, w


def _carry_label(
    controllers: list[ArrayController],
    windows,
    fleet_busy: bool = False,
) -> str | None:
    """The label of the carry engine a shard set runs on an idle clock:
    ``windowed-solver`` for single-phase streams (a source whose
    ``read_only`` attribute says so — any other iterable counts as
    mixed — or a write-through fleet), ``windowed-eager`` for mixed
    streams in re-iterable windows (an abort replays from the top) when
    some shard is eager-eligible (the gate carries only those).  None
    on a busy clock, with ``fleet_busy``, or when neither applies."""
    lead = controllers[0]
    if fleet_busy or lead.sim.pending():
        return None
    read_only = getattr(windows, "read_only", False)
    if read_only or lead.write_policy == "write_through":
        return "windowed-solver"
    if iter(windows) is windows or not any(map(_eager_eligible, controllers)):
        return None
    return "windowed-eager"


def _engine(ctrl: ArrayController, label: str):
    """A fresh off-heap engine for ``ctrl``, labelled ``label``: the
    analytic solver (``windowed-solver``) or the eager core
    :func:`repro.sim.batchstep._eager_core` picks (``windowed-eager``)
    of a carry pass, or the exact core
    :func:`repro.sim.batchstep._exact_core` picks (``windowed-pump``:
    the heap pump's serialization, without the heap)."""
    if label == "windowed-pump":
        return _exact_core(ctrl, label)
    if label == "windowed-eager":
        return _eager_core(ctrl, label)
    ctrl.set_engine(label, "solver")
    return _WindowedSolver(ctrl)


def _off_heap_pass(
    controllers: list[ArrayController],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    scheduled: list[int],
    shards: Iterable[int],
    label: str,
) -> tuple[int, float, list[int]]:
    """One pass over ``windows`` for ``shards`` (indices into
    ``controllers``), each on a fresh off-heap engine labelled
    ``label`` (:func:`_engine`): feed every engine its slice of each
    window, then finish each from the common start time, every sample
    draining into the shard's digests (:func:`_digest_sink`).

    A shard whose feed or finish returns False — the eager core's
    ambiguous-tie abort — is demoted: its digests, request count and
    recorder samples are cleared and ``tie_abort_replays`` counted; it
    skips the rest of the pass.  Returns the non-empty window count,
    the latest finish, and the demoted shards, for the caller to replay
    on the exact core in a second pass — the per-shard granularity of
    :func:`~repro.sim.batchstep.step_compiled`'s eager → exact
    fallback."""
    sim = controllers[0].sim
    base = end = sim.now
    engines = {i: _engine(controllers[i], label) for i in shards}
    sinks = {i: _digest_sink(controllers[i], digests[i]) for i in engines}
    demoted: list[int] = []

    def demote(i: int) -> None:
        del engines[i]
        demoted.append(i)
        digests[i].clear()
        scheduled[i] = 0
        ctrl = controllers[i]
        ctrl.obs.reset_shard(ctrl.obs_shard)
        ctrl.obs.count("tie_abort_replays")

    n_windows = 0
    for window, ids in route.routed(windows):
        n_windows += 1
        live = [(i, controllers[i]) for i in engines]
        for i, w in _slice_window(
            live, ids, window, route.shard_capacity, base, scheduled
        ):
            if not engines[i].feed(w, sinks[i]):
                demote(i)
    for i, engine in list(engines.items()):
        sim.now = base
        if not engine.finish(sinks[i]):
            demote(i)
        end = max(end, sim.now)
    sim.now = base
    return n_windows, end, sorted(demoted)


def _arm_shard_pump(
    ctrl: ArrayController,
    route: _ShardRoute,
    windows,
    digest: dict[str, LatencyDigest],
) -> tuple[list[int], Callable[[], None]]:
    """Arm a chained heap pump for the shard ``ctrl.obs_shard`` over its
    slice of a windowed stream, in a pass of its own.  This is the
    general engine, able to interleave with foreign events (rebuilds,
    timers, other shards' pumps).

    Returns ``(count, drain)``: as windows are pulled, ``count[0]``
    accumulates the shard's request count and ``count[1]`` the
    stream's non-empty windows; ``drain()`` sweeps fresh latency
    samples into ``digest`` (the pump calls it at each window boundary;
    call it once more after the clock drains).  The caller runs the
    simulator — so a shard set arms every pump before one shared
    ``sim.run()`` when failure timers interleave.

    Metrics recording rides the event-level hooks (the controller's
    ``_record``, the compiled run's inlined sinks), which see every
    completion at its event time — the drain moves samples the
    recorder has already bucketed, so it does not feed the recorder
    again."""
    ctrl.set_engine("windowed-pump", "event-heap")
    count = [0, 0]
    base = ctrl.sim.now

    def slices() -> Iterator[CompiledTrace]:
        for window, ids in route.routed(windows):
            count[1] += 1
            for _, w in _slice_window(
                ((0, ctrl),), ids, window, route.shard_capacity, base, count
            ):
                yield w

    gen = slices()
    first = next(gen, None)
    lat_base = {kind: st.count for kind, st in ctrl.latency.items()}
    drain = partial(_sweep, ctrl.latency, lat_base, digest)
    if first is not None:
        _CompiledRun(
            ctrl, first, source=partial(next, gen, None), on_window=drain
        ).schedule()
    return count, drain


def _sweep(
    latency: dict[str, LatencyStats],
    lat_base: dict[str, int],
    digest: dict[str, LatencyDigest],
) -> None:
    """Move each kind's samples past ``lat_base[kind]`` (a long-lived
    controller may hold earlier streams' samples) into ``digest``, in
    recording order, as one array slice (:meth:`LatencyStats.take`).
    The heap's sample tails empty in place: the pump and the controller
    cache them as their recording sinks."""
    for kind, st in latency.items():
        b = lat_base.get(kind, 0)
        if st.count > b:
            d = digest.get(kind)
            if d is None:
                d = digest[kind] = LatencyDigest()
            d.extend_array(st.take(b))


def _execute_shard_windows(
    controllers: list[ArrayController],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    *,
    fleet_busy: bool = False,
) -> tuple[list[int], int]:
    """Serve a windowed fleet stream on a set of shards sharing one
    clock — the windowed engine gate of every serve whose routing is
    static, the streaming twin of
    :func:`repro.sim.compile._execute_shards`.  Each shard falls in one
    class, and each class reads ``windows`` once:

    * **carry** — idle clock, no ``fleet_busy``, a carry engine applies
      (:func:`_carry_label`) and takes the shard (the eager core only
      eager-eligible ones): one off-heap pass (:func:`_off_heap_pass`)
      on the analytic solver or the eager core;
    * **heap** — an armed event names the shard (or a pending event
      names none, or its service model is degenerate): a chained pump
      (:func:`_arm_shard_pump`) each, all armed before one
      ``sim.run()``, so armed events interleave as on an all-heap clock;
    * **exact replay** — every other shard (a degraded one beside an
      eager carry, say), and carry shards whose eager core tie-aborts:
      ONE off-heap pass for all, on the exact core (label
      ``windowed-pump``).

    The clock ends at the set's makespan.  Latency lands in ``digests``
    (indexed like ``controllers``).  Returns ``(scheduled, windows)``:
    the per-shard request counts and the non-empty window count.
    Raises ``ValueError``, touching nothing, when a one-shot source
    (its own iterator) would need more than one pass: splitting it
    between passes would drop requests.
    """
    scheduled = [0] * len(controllers)
    sim = controllers[0].sim
    end = sim.now
    off_heap = partial(
        _off_heap_pass, controllers, route, windows, digests, scheduled
    )
    label = _carry_label(controllers, windows, fleet_busy)
    heap: list[int] = []
    replay: list[int] = []
    n_windows = 0
    if label is not None:
        carry = []
        eager = label == "windowed-eager"
        for i, ctrl in enumerate(controllers):
            (replay if eager and not _eager_eligible(ctrl) else carry).append(i)
        n_windows, end, demoted = off_heap(carry, label)
        replay = sorted(replay + demoted)
    else:
        armed = sim.armed_shards()
        for i, ctrl in enumerate(controllers):
            (heap if _on_heap(ctrl, armed) else replay).append(i)
        passes = len(heap) + bool(replay)
        if passes > 1 and iter(windows) is windows:
            raise ValueError(
                f"a one-shot window source has one pass to give, and "
                f"this shard set needs {passes}: pass re-iterable windows"
            )
    if replay:
        n_windows, replayed, _ = off_heap(replay, "windowed-pump")
        end = max(end, replayed)
    pumps = [
        (i, *_arm_shard_pump(controllers[i], route, windows, digests[i]))
        for i in heap
    ]
    sim.run()
    for i, count, drain in pumps:
        drain()
        scheduled[i], n_windows = count
    sim.now = max(end, sim.now)
    return scheduled, n_windows


def execute_windows(
    ctrl: ArrayController,
    windows: Iterable[_Window],
    *,
    digests: dict[str, LatencyDigest] | None = None,
) -> tuple[int, dict[str, LatencyDigest]]:
    """Run a windowed request stream through the fastest exact engine.

    The streaming counterpart of
    :func:`repro.sim.compile.execute_compiled`: same simulation, same
    per-disk counters and clock, and latency summaries byte-identical
    to the materialized run — but peak memory is one window.  It is
    the shard-set gate (:func:`_execute_shard_windows`) on one array
    (one volume, routed to ``ctrl.obs_shard``), so the selection is the
    fleet's:

    1. a busy simulator → the chained heap pump (window source) when
       a pending event names this array or names none; events naming
       only other arrays leave it to the exact-core replay of 4;
    2. a source whose ``read_only`` attribute says every request is a
       read (:class:`~repro.sim.compile.StreamWindows` and
       :class:`~repro.sim.compile.ArrayWindows` carry one) or
       write-through policy → one off-heap pass on the windowed
       analytic solver;
    3. a mixed stream on an eager-eligible array
       (:func:`~repro.sim.batchstep._eager_eligible`: healthy,
       read-modify-write, no data plane) → one off-heap pass on the
       windowed eager core; an exact-tie abort demotes the array, and
       a second off-heap pass replays the stream bit-exactly on the
       exact core, with the heap pump's serialization and
       ``windowed-pump`` label but no heap events (``windows`` must be
       re-iterable for the replay; one-shot generators skip the eager
       tier);
    4. otherwise (a degraded array, a data plane, a one-shot mixed
       stream) → the same exact-core pass, in the stream's one pass,
       when the service model is positive; else the chained heap pump.

    Any other iterable counts as mixed: its all-read stream runs on the
    eager core, whose read recurrence performs the identical float
    operations — the same report, at another speed and label.

    Raises ``IndexError`` on an LBA outside the array's capacity, and
    ``ValueError`` on a window that starts before the previous window's
    last arrival — when that window is reached, with the windows before
    it already routed (:func:`_in_order`).
    Latency goes to constant-memory digests, not the controller's
    exact samples (the off-heap engines emit into the digests; the heap
    pump sweeps ``ctrl.latency`` into them at window boundaries).  With a
    metrics recorder attached, every window's arrivals are recorded as
    it is routed, and the stream's non-empty windows count as
    ``window_boundaries``.  Returns ``(scheduled, digests)``.
    """
    if digests is None:
        digests = {}
    cap = ctrl.mapper.capacity
    route = _ShardRoute(
        np.full(1, ctrl.obs_shard, dtype=np.int64), cap, cap, cap
    )
    (scheduled,), n_windows = _execute_shard_windows(
        [ctrl], route, windows, [digests]
    )
    if n_windows:
        ctrl.obs.count("window_boundaries", n_windows, volatile=True)
    return scheduled, digests
