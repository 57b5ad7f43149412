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
per shard an armed event names — every shard of a serve that can
reroute mid-serve, each pump handing requests off as they arrive —
armed before one ``sim.run()``; one slicer (:func:`_slice_window`)
serves them all.  :func:`execute_windows` is that gate on one array,
shard groups call it for their slice, and
:meth:`repro.service.Fleet.serve_windows` for the fleet — every
source, one-shot iterators included.  Every caller passes the
stream's routing geometry as one :class:`_ShardRoute`.  Three engines
mirror the materialized gate (:func:`repro.sim.compile._execute_shards`):

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
  demotes that shard — its digests and counts cleared, its recorder
  state put back as it was before the pass — to the replay pass: the
  exact core
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
    _splits,
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

    def locate(self, lbas: np.ndarray, volumes: bool = False) -> tuple:
        """Each request's shard, and its volume when ``volumes`` asks
        (else ``None``: only a live serve's pumps read volumes, and a
        column nobody reads is not held).  ``IndexError`` on an LBA
        outside ``[0, capacity)``."""
        vols = _volumes(lbas, self.volume_units, len(self.table), self.capacity)
        return self.table[vols], vols if volumes else None

    def routed(self, windows, volumes: bool = False) -> Iterator[tuple]:
        """One pass over ``windows``: each non-empty window
        (:func:`_in_order`) with its requests' shards and volumes
        (:meth:`locate`).

        Raises:
            IndexError: on an LBA outside ``[0, capacity)``.
            ValueError: on a window that starts before the previous
                one's last arrival.
        """
        for window in _in_order(windows):
            yield window, *self.locate(window[2], volumes)


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
    and on a busy clock, their events on the heap.  The caller discards
    the controllers (the fleet) it was serving on.

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
    volumes: np.ndarray | None = None,
) -> Iterator[tuple[int, CompiledTrace]]:
    """Compile each shard's slice of one routed window, already checked
    and in arrival order (:func:`_in_order`) — the slicing loop of
    every windowed engine.  For each ``(index, ctrl)`` of ``shards``
    whose shard ``ctrl.obs_shard`` the window reaches (``shard_ids``),
    record its arrivals (stream start ``base``), add its size to
    ``scheduled[index]`` and yield ``(index, slice)``.  Each slice's
    columns are gathered through one index array of its requests; a
    live serve's slices carry their requests' ``volumes`` too."""
    times, is_read, lbas = window
    for i, ctrl in shards:
        idx = np.flatnonzero(shard_ids == ctrl.obs_shard)
        if not idx.size:
            continue
        at = times[idx]
        if ctrl.obs.enabled:
            ctrl.obs.arrivals(ctrl.obs_shard, base + at)
        local = lbas[idx] % shard_capacity
        vols = None if volumes is None else volumes[idx]
        w = _compile_ordered(ctrl.mapper, at, is_read[idx], local, vols)
        scheduled[i] += w.n
        yield i, w


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
    ambiguous-tie abort — is demoted: its digests and request count are
    cleared, its recorder samples and arrivals put back as they were
    before the pass (a long-lived recorder keeps earlier streams'), and
    ``tie_abort_replays`` counted; it skips the rest of the pass.
    Returns the non-empty window count, the latest finish, and the
    demoted shards, for the caller to replay on the exact core in a
    second pass — the per-shard granularity of
    :func:`~repro.sim.batchstep.step_compiled`'s eager → exact
    fallback."""
    sim = controllers[0].sim
    base = end = sim.now
    engines = {i: _engine(controllers[i], label) for i in shards}
    sinks = {i: _digest_sink(controllers[i], digests[i]) for i in engines}
    saved = {
        i: controllers[i].obs.shard_state(controllers[i].obs_shard) for i in engines
    }
    demoted: list[int] = []

    def demote(i: int) -> None:
        del engines[i]
        demoted.append(i)
        digests[i].clear()
        scheduled[i] = 0
        ctrl = controllers[i]
        ctrl.obs.restore_shard(ctrl.obs_shard, saved[i])
        ctrl.obs.count("tie_abort_replays")

    n_windows = 0
    for window, ids, _ in route.routed(windows):
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
    handoff=None,
    also: Callable[[], None] | None = None,
    stop: bool = False,
) -> tuple[list[int], Callable[[], None]]:
    """Arm a chained heap pump for the shard ``ctrl.obs_shard`` over its
    slice of a windowed stream, in a pass of its own.  This is the
    general engine, able to interleave with foreign events (rebuilds,
    timers, other shards' pumps); a live serve's ``handoff`` goes to
    the pump (:class:`~repro.sim.compile._CompiledRun`).  With
    ``stop`` the pump leaves the heap once no claim names the shard and
    its disks are idle.

    Returns ``(count, drain)``: as windows are pulled, ``count[0]``
    accumulates the shard's request count and ``count[1]`` the
    stream's non-empty windows; ``drain()`` sweeps fresh latency
    samples into ``digest`` (the pump calls it, then ``also``, at each
    window boundary; call it once more after the clock drains, and it
    then also replays what a stopped pump left on the exact core into
    ``digest``, reading the rest of the shard's windows in the pump's
    own pass — the clock then stands at that replay's end).  The
    caller runs the simulator — so a shard set arms every pump before
    one shared ``sim.run()`` when failure timers interleave.

    Metrics recording rides the event-level hooks (the controller's
    ``_record``, the compiled run's inlined sinks), which see every
    completion at its event time — the drain moves samples the
    recorder has already bucketed, so it does not feed the recorder
    again; the replay feeds it through the digest sink."""
    ctrl.set_engine("windowed-pump", "event-heap")
    count = [0, 0]
    base = ctrl.sim.now

    def slices() -> Iterator[CompiledTrace]:
        for window, ids, vols in route.routed(windows, handoff is not None):
            count[1] += 1
            for _, w in _slice_window(
                ((0, ctrl),), ids, window, route.shard_capacity, base, count, vols
            ):
                yield w

    gen = slices()
    first = next(gen, None)
    lat_base = {kind: st.count for kind, st in ctrl.latency.items()}
    drain = partial(_sweep, ctrl.latency, lat_base, digest)
    if first is None:
        return count, drain
    run = _CompiledRun(
        ctrl,
        first,
        source=partial(next, gen, None),
        on_window=drain if also is None else lambda: (drain(), also()),
        handoff=handoff,
        stop=stop,
    )
    run.schedule()

    def finish() -> None:
        drain()
        if run.stopped:
            run.replay_rest("windowed-pump", _digest_sink(ctrl, digest))

    return count, finish


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
    handoff=None,
) -> tuple[list[int], int]:
    """Serve a windowed fleet stream on a set of shards sharing one
    clock — the windowed engine gate of every serve, the streaming twin
    of :func:`repro.sim.compile._execute_shards`.  Each shard falls in
    one class, and each class reads ``windows`` once:

    * **carry** — idle clock, no ``fleet_busy``, and a carry engine
      applies: the analytic solver (``windowed-solver``) for a
      single-phase stream — a source whose ``read_only`` attribute says
      so (any other iterable counts as mixed) or a write-through fleet —
      or the eager core (``windowed-eager``) for a mixed stream in
      re-iterable windows (an abort replays from the top), taking the
      eager-eligible shards: one off-heap pass (:func:`_off_heap_pass`);
    * **heap** — an armed event names the shard (or a pending event
      names none, or its service model is degenerate; every shard of a
      live serve, which passes its arrival ``handoff``): a chained pump
      (:func:`_arm_shard_pump`) each, all armed before one
      ``sim.run()``, so armed events interleave as on an all-heap clock;
    * **exact replay** — every other shard (a degraded one beside an
      eager carry, say), and carry shards whose eager core tie-aborts:
      ONE off-heap pass for all, on the exact core (label
      ``windowed-pump``).

    The clock ends at the set's makespan.  Latency lands in ``digests``
    (indexed like ``controllers``, and extended for the arrays a reshape
    appends mid-serve, which run no pump: their samples are swept at
    every window boundary).  Returns ``(scheduled, windows)``: the
    per-shard request counts and the non-empty window count.  Raises
    ``ValueError``, touching nothing, when a one-shot source (its own
    iterator) would need more than one pass: splitting it between
    passes would drop requests.
    """
    n = len(controllers)
    scheduled = [0] * n
    sim = controllers[0].sim
    end = sim.now
    off_heap = partial(
        _off_heap_pass, controllers, route, windows, digests, scheduled
    )
    label = None
    if handoff is None and not (fleet_busy or sim.pending()):
        if getattr(windows, "read_only", False) or (
            controllers[0].write_policy == "write_through"
        ):
            label = "windowed-solver"
        elif iter(windows) is not windows and any(
            map(_eager_eligible, controllers)
        ):
            label = "windowed-eager"
    heap: list[int] = []
    replay: list[int] = []
    n_windows = 0
    armed = None
    if label is not None:
        carry = []
        eager = label == "windowed-eager"
        for i, ctrl in enumerate(controllers):
            (replay if eager and not _eager_eligible(ctrl) else carry).append(i)
        n_windows, end, demoted = off_heap(carry, label)
        replay = sorted(replay + demoted)
    else:
        armed = None if handoff is not None else sim.armed_shards()
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

    def sweep_born() -> None:
        for s in range(n, len(controllers)):
            if s == len(digests):
                digests.append({})
            _sweep(controllers[s].latency, {}, digests[s])

    arm = partial(_arm_shard_pump, route=route, windows=windows, handoff=handoff)
    pumps = [
        (
            i,
            arm(
                controllers[i],
                digest=digests[i],
                also=sweep_born,
                stop=_splits(controllers[i], armed),
            ),
        )
        for i in heap
    ]
    sim.run()
    end = max(end, sim.now)
    for i, (count, drain) in pumps:
        drain()
        end = max(end, sim.now)
        scheduled[i], n_windows = count
    sweep_born()
    sim.now = end
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
    fleet's: on an idle clock the windowed analytic solver for a source
    whose ``read_only`` attribute says every request is a read
    (:class:`~repro.sim.compile.StreamWindows` and
    :class:`~repro.sim.compile.ArrayWindows` carry one; any other
    iterable counts as mixed) or a write-through array, the windowed
    eager core for re-iterable mixed windows on an eager-eligible
    array (an exact-tie abort replays them on the exact core), and
    otherwise the exact core (label ``windowed-pump``), a one-shot
    source included.  On a busy clock the chained heap pump runs the
    stream when a pending event names this array or names none, else
    the exact core replays it; a zero-service model never replays (the
    pump runs it).

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
