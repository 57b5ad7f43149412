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
shard: one carry pass (:func:`_windows_carry`) on an idle clock, ONE
exact-core replay pass (:func:`_replay_exact`), and a chained heap
pump (:func:`_arm_shard_pump`) per shard an armed event names, armed
before one ``sim.run()``; one slicer (:func:`_slice_window`) serves
them all.  :func:`execute_windows` is that gate on one array, shard
groups call it for their slice, and
:meth:`repro.service.Fleet.serve_windows` for the fleet unless it must
route live (its window router).  Every caller passes the stream's
routing geometry as one :class:`_ShardRoute`.  Three engines mirror
:func:`execute_compiled`'s selection gate:

* single-phase streams (read-only by construction, or any mix under
  ``write_policy="write_through"``) run on :class:`_WindowedSolver` —
  the FIFO kernel of :func:`~repro.sim.compile.solve_compiled`
  (:func:`~repro.sim.compile._solve_fifo`) with the per-disk
  recurrence state (previous completion, last offset, busy/delay
  accumulators) carried between windows.  Partitioning a disk's IO
  sequence does not change the float left-fold, so every completion is
  bit-equal to the whole-trace solve;
* mixed read-modify-write streams on a hookless array run on
  :class:`repro.sim.batchstep._EagerCore` fed window by window, its
  pending-phase heap and per-disk state persisting across feeds.  On
  the core's ambiguity abort (an exact submission-time tie) nothing has
  touched the controller, so that shard joins the replay pass: the
  exact core (:func:`repro.sim.batchstep._exact_core`: the compiled
  kernel for these healthy read-modify-write plans), again one window
  at a time — the heap pump's exact serialization without the event
  heap, keeping the pump's ``windowed-pump`` label;
* a shard with foreign events scheduled on it (a failure timer, a
  migration copy) or a degenerate service model streams through the
  chained heap pump — :class:`~repro.sim.compile._CompiledRun` with a
  window ``source``, which loads one window at a time into the real
  event engine.  Every other shard the carry engines decline (a data
  plane, a one-shot mixed stream) or a busy clock rules out replays on
  the exact core, under the pump's label.  A one-shot source has one
  pass to give, so the gate refuses one that would need more.

Sample *emission* is the part windowing could reorder, so every engine
defers a sample until no later request can complete before it (a
window's last arrival bounds all future completions) and emits in
completion order with the engine's own tie-break — concatenated window
emissions reproduce the materialized emission order exactly, which
makes the digest's running mean bit-equal to ``sum(samples)`` and every
summary byte-identical (see :mod:`repro.sim.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .batchstep import _drain_pools, _EagerCore, _exact_core
from .compile import (
    CompiledTrace,
    _CompiledRun,
    _KIND_NAMES,
    _on_heap,
    _solve_fifo,
    compile_stream,
)
from .controller import ArrayController
from .stats import LatencyDigest, LatencyStats

__all__ = ["execute_windows"]

#: A raw stream window, as yielded by StreamWindows.
_Window = tuple[np.ndarray, np.ndarray, np.ndarray]


def _digest_sink(digests: dict[str, LatencyDigest], obs=None, shard: int = 0):
    """Build a drain sink folding samples into per-kind digests.

    When a metrics recorder ``obs`` is supplied, each drained batch is
    also folded into its completion-time buckets — the drain contract
    (completion-sorted emission, windowed prefixes of the one-shot
    order) is exactly what keeps the recorder's per-bucket folds
    byte-identical across window sizes.
    """

    def sink(kind: str, lats: list[float], comps=None) -> None:
        d = digests.get(kind)
        if d is None:
            d = digests[kind] = LatencyDigest()
        d.extend(lats)
        if obs is not None:
            obs.feed(shard, kind, comps, lats)

    return sink


class _WindowedSolver:
    """The analytic single-phase solver, fed one window at a time.

    Each feed runs the shared FIFO kernel
    (:func:`repro.sim.compile._solve_fifo`) with the per-disk previous
    completions carried in ``prev``, while last offset / busy time /
    queue delay round-trip through the disk objects between windows
    (the same additions in the same order as one whole-trace solve, so
    every float is bit-equal).  Request completions pool per kind in
    request order and drain (:func:`repro.sim.batchstep._drain_pools`)
    once no later request can land among them — a stable completion
    sort then breaks ties by request order, exactly the one-shot
    solver's ``done_order``.
    """

    __slots__ = ("ctrl", "base", "prev", "maxc", "_kinds")

    def __init__(self, ctrl: ArrayController):
        if ctrl.sim.pending():
            raise RuntimeError("the windowed solver requires an idle simulator")
        self.ctrl = ctrl
        self.base = ctrl.sim.now
        self.prev = [float("-inf")] * len(ctrl.disks)
        self.maxc = float("-inf")
        # kind -> (completions, latencies), in request order.
        self._kinds: dict[str, tuple[list[float], list[float]]] = {}

    def feed(self, compiled: CompiledTrace, sink) -> int:
        """Solve one compiled window and emit every pooled sample that
        can no longer be preceded (completion <= this window's last
        arrival).  Returns the window's request count.

        Raises:
            ValueError: on a write under the read-modify-write policy
                (multi-phase; not a single-phase stream).
        """
        ctrl = self.ctrl
        n = compiled.n
        if n == 0:
            return 0
        if not compiled.read_only() and ctrl.write_policy != "write_through":
            raise ValueError(
                "the windowed solver handles read-only streams under the "
                "read-modify-write policy (write-through streams are "
                "single-phase and always solvable)"
            )
        times = self.base + compiled.times
        comps, kind_code = _solve_fifo(ctrl, compiled, times, self.prev)
        top = float(comps.max())
        if top > self.maxc:
            self.maxc = top
        lats = comps - times
        if kind_code is None:
            parts = [("read", comps, lats)]
        else:
            parts = [
                (name, comps[mask], lats[mask])
                for code, name in enumerate(_KIND_NAMES)
                if (mask := kind_code == code).any()
            ]
        for name, c, lat in parts:
            cs, ls = self._kinds.setdefault(name, ([], []))
            cs.extend(c.tolist())
            ls.extend(lat.tolist())
        _drain_pools(self._kinds, float(times[-1]), sink)
        return n

    def finish(self, sink) -> None:
        """Emit everything still pooled and advance the clock to the
        last completion (the one-shot solver's final ``sim.now``)."""
        _drain_pools(self._kinds, float("inf"), sink)
        if self.maxc > float("-inf"):
            self.ctrl.sim.now = self.maxc


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
        """One pass over ``windows``: each non-empty window with its
        requests' shards.

        Raises:
            IndexError: on an LBA outside ``[0, capacity)``.
        """
        units, n, cap = self.volume_units, len(self.table), self.capacity
        for window in windows:
            if len(window[0]):
                yield window, self.table[_volumes(window[2], units, n, cap)]


def _slice_window(
    shards: Iterable[tuple[int, ArrayController]],
    shard_ids: np.ndarray,
    window: _Window,
    shard_capacity: int,
    base: float,
    scheduled: list[int],
) -> Iterator[tuple[int, CompiledTrace]]:
    """Compile each shard's slice of one routed window — the slicing
    loop of every windowed engine and of the fleet's window router.  For
    each ``(index, ctrl)`` of ``shards`` whose shard ``ctrl.obs_shard``
    the window reaches (``shard_ids``), record its arrivals (stream
    start ``base``), add its size to ``scheduled[index]`` and yield
    ``(index, slice)``."""
    times, is_read, lbas = window
    for i, ctrl in shards:
        mask = shard_ids == ctrl.obs_shard
        if not mask.any():
            continue
        if ctrl.obs.enabled:
            ctrl.obs.arrivals(ctrl.obs_shard, base + times[mask])
        local = lbas[mask] % shard_capacity
        w = compile_stream(ctrl.mapper, times[mask], is_read[mask], local)
        scheduled[i] += w.n
        yield i, w


def _carry_label(
    controllers: list[ArrayController],
    windows,
    read_only_hint: bool,
    fleet_busy: bool = False,
) -> str | None:
    """The label of the carry engine a shard set runs on an idle clock:
    ``windowed-solver`` for single-phase streams, ``windowed-eager`` for
    mixed read-modify-write on hookless arrays with a positive service
    model and re-iterable windows (an abort replays from the top).  None
    on a busy clock, with ``fleet_busy``, or when neither applies."""
    lead = controllers[0]
    if fleet_busy or lead.sim.pending():
        return None
    if read_only_hint or lead.write_policy == "write_through":
        return "windowed-solver"
    eager = lead.data is None and lead.params.min_service_ms > 0.0
    return "windowed-eager" if eager and iter(windows) is not windows else None


def _windows_carry(
    controllers: list[ArrayController],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    scheduled: list[int],
    label: str,
) -> tuple[int, float, list[int]]:
    """The carry pass: feed every shard's carry engine (``label``) one
    window at a time, then finish each from the common start time.
    Returns the non-empty window count, the latest finish, and the
    shards whose eager core hit an ambiguous tie — cleared, for the
    caller to replay (:func:`_replay_exact`): the per-shard granularity
    of ``execute_compiled``'s eager → exact fallback."""
    sim = controllers[0].sim
    base = end = sim.now
    sinks = [
        _digest_sink(d, c.obs if c.obs.enabled else None, c.obs_shard)
        for d, c in zip(digests, controllers)
    ]
    solver = label == "windowed-solver"
    engine = _WindowedSolver if solver else _EagerCore
    engines = [engine(c) for c in controllers]
    for c in controllers:
        c.set_engine(label, label.removeprefix("windowed-"))
    fallback: set[int] = set()

    def demote(i: int) -> None:
        fallback.add(i)
        digests[i].clear()
        scheduled[i] = 0
        ctrl = controllers[i]
        ctrl.obs.reset_shard(ctrl.obs_shard)
        ctrl.obs.count("tie_abort_replays")

    n_windows = 0
    for window, ids in route.routed(windows):
        n_windows += 1
        live = [(i, c) for i, c in enumerate(controllers) if i not in fallback]
        for i, w in _slice_window(
            live, ids, window, route.shard_capacity, base, scheduled
        ):
            if solver:
                engines[i].feed(w, sinks[i])
                continue
            run = _CompiledRun(controllers[i], w)
            if engines[i].feed(run):
                engines[i].drain(run.times[-1], sinks[i])
            else:
                demote(i)
    if not solver:
        # Settle every surviving shard before the first write-back
        # so a late abort still demotes cleanly.
        for i, eng in enumerate(engines):
            if i not in fallback and not eng.settle():
                demote(i)
    for i, eng in enumerate(engines):
        if i not in fallback:
            sim.now = base
            eng.finish(sinks[i])
            end = max(end, sim.now)
    sim.now = base
    return n_windows, end, sorted(fallback)


def _replay_exact(
    controllers: list[ArrayController],
    shards: list[int],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    scheduled: list[int],
) -> tuple[int, float]:
    """Replay ``shards`` (indices into ``controllers``) on the exact
    core :func:`repro.sim.batchstep._exact_core` picks for each, all in
    one pass over ``windows``, each core from the common start time;
    return the non-empty window count and the latest finish.  This is
    the heap pump's serialization without the event heap, so it keeps
    the pump's ``windowed-pump`` label; nothing foreign may be
    scheduled on these shards.  Samples are swept into ``digests`` after
    every window; the recorder buckets completions as on the pump."""
    sim = controllers[0].sim
    base = end = sim.now
    pairs = [(i, controllers[i]) for i in shards]
    lat_base = {
        i: {kind: len(st.samples) for kind, st in c.latency.items()}
        for i, c in pairs
    }
    cores = {i: _exact_core(c, "windowed-pump") for i, c in pairs}
    n_windows = 0
    for window, ids in route.routed(windows):
        n_windows += 1
        for i, w in _slice_window(
            pairs, ids, window, route.shard_capacity, base, scheduled
        ):
            cores[i].feed(w)
            _sweep(controllers[i].latency, lat_base[i], digests[i])
    for i, ctrl in pairs:
        sim.now = base
        cores[i].finish()
        _sweep(ctrl.latency, lat_base[i], digests[i])
        end = max(end, sim.now)
    sim.now = base
    return n_windows, end


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
    lat_base = {kind: len(st.samples) for kind, st in ctrl.latency.items()}
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
    recording order.  The lists are trimmed in place: the pump and the
    controller cache them as their recording sinks."""
    for kind, st in latency.items():
        lst = st.samples
        b = lat_base.get(kind, 0)
        if len(lst) > b:
            d = digest.get(kind)
            if d is None:
                d = digest[kind] = LatencyDigest()
            d.extend(lst[b:])
            del lst[b:]


def _execute_shard_windows(
    controllers: list[ArrayController],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    *,
    read_only_hint: bool = False,
    fleet_busy: bool = False,
) -> tuple[list[int], int]:
    """Serve a windowed fleet stream on a set of shards sharing one
    clock — the windowed engine gate of every serve whose routing is
    static, the streaming twin of
    :func:`repro.sim.compile._execute_shards`.  Each shard falls in one
    class, and each class reads ``windows`` once:

    * **carry** — idle clock, no ``fleet_busy``, a carry engine applies
      (:func:`_carry_label`): one carry pass (:func:`_windows_carry`);
    * **heap** — an armed event names the shard (or a pending event
      names none, or its service model is degenerate): a chained pump
      (:func:`_arm_shard_pump`) each, all armed before one
      ``sim.run()``, so armed events interleave as on an all-heap clock;
    * **exact replay** — every other shard, and carry shards whose
      eager core tie-aborts: ONE pass for all (:func:`_replay_exact`).

    The clock ends at the set's makespan.  Latency lands in ``digests``
    (indexed like ``controllers``).  Returns ``(scheduled, windows)``:
    the per-shard request counts and the non-empty window count.
    Raises ``ValueError``, touching nothing, when a one-shot source
    (its own iterator) would need more than one pass: splitting it
    between passes would drop requests.
    """
    scheduled = [0] * len(controllers)
    sim = controllers[0].sim
    base = end = sim.now
    label = _carry_label(controllers, windows, read_only_hint, fleet_busy)
    heap: list[int] = []
    n_windows = 0
    if label is not None:
        n_windows, end, replay = _windows_carry(
            controllers, route, windows, digests, scheduled, label
        )
    else:
        armed = sim.armed_shards()
        replay = []
        for i, ctrl in enumerate(controllers):
            (heap if _on_heap(ctrl, armed) else replay).append(i)
        passes = len(heap) + bool(replay)
        if passes > 1 and iter(windows) is windows:
            raise ValueError(
                f"a one-shot window source has one pass to give, and "
                f"this shard set needs {passes}: pass re-iterable windows"
            )
    if replay:
        n_windows, replayed = _replay_exact(
            controllers, replay, route, windows, digests, scheduled
        )
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
    read_only_hint: bool = False,
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
    2. ``read_only_hint`` (the caller knows every request is a read —
       e.g. ``read_fraction >= 1``) or write-through policy → the
       windowed analytic solver;
    3. mixed read-modify-write on a hookless array (no data plane) →
       the windowed eager core; an exact-tie abort replays the stream
       bit-exactly on the exact core, with the heap pump's
       serialization and ``windowed-pump`` label but no heap events
       (``windows`` must be re-iterable for the replay —
       :class:`~repro.sim.compile.StreamWindows` is; one-shot
       generators skip the eager tier);
    4. otherwise (a data plane, a one-shot mixed stream) → the same
       exact-core replay, in the stream's one pass, when the service
       model is positive; else the chained heap pump.

    The hint is advisory: an all-read stream without it simply runs on
    the eager core, whose read recurrence performs the identical float
    operations, so the report does not change — only the speed.

    Raises ``IndexError`` on an LBA outside the array's capacity.
    Latency goes to constant-memory digests, not the controller's
    sample lists (the heap pump and the exact replay sweep
    ``ctrl.latency`` into the digests at window boundaries).  With a
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
        [ctrl], route, windows, [digests], read_only_hint=read_only_hint
    )
    if n_windows:
        ctrl.obs.count("window_boundaries", n_windows, volatile=True)
    return scheduled, digests
