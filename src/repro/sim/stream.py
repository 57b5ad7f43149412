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
:func:`_execute_shard_windows` runs the carry driver
(:func:`_windows_carry`) on an idle clock; otherwise it arms a chained
heap pump (:func:`_arm_shard_pump`) for each shard an armed event
names before one ``sim.run()``, and replays every other shard on the
exact core (:func:`_replay_exact`) — the heap runs only for shards
that carry foreign events, or for one-shot window generators.
:func:`execute_windows` is that gate on one array — one volume routed
to ``ctrl.obs_shard`` — and multi-process shard groups call it for
their slice of the fleet;
:meth:`repro.service.Fleet.serve_windows` runs the same carry driver
and falls back to its window router, which re-routes windows through
the live volume table when a reshape moves volumes mid-stream.  Every
caller passes the stream's routing geometry as one
:class:`_ShardRoute`.  Three engines mirror :func:`execute_compiled`'s
selection gate:

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
  touched the controller, so that shard's stream is replayed on the
  exact core (:func:`repro.sim.batchstep._exact_core`: the compiled
  kernel for these healthy read-modify-write plans), again one window
  at a time: the heap pump's exact serialization without the event
  heap, keeping the pump's ``windowed-pump`` label
  (:func:`_replay_exact`);
* a shard with foreign events scheduled on it (a failure timer, a
  migration copy), a degenerate service model, or a mixed stream from
  a one-shot window generator streams through the chained heap pump —
  :class:`~repro.sim.compile._CompiledRun` with a window ``source``,
  which loads one window at a time into the real event engine.  Every
  other shard the carry engines decline (data plane attached) or a
  busy clock rules out replays on the exact core, under the pump's
  label.

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

    def shard_ids(self, lbas: np.ndarray) -> np.ndarray:
        """Each request's shard.

        Raises:
            IndexError: on an LBA outside ``[0, capacity)``.
        """
        return self.table[
            _volumes(lbas, self.volume_units, len(self.table), self.capacity)
        ]


def _windows_carry(
    controllers: list[ArrayController],
    route: _ShardRoute,
    windows,
    digests: list[dict[str, LatencyDigest]],
    scheduled: list[int],
    read_only_hint: bool,
) -> int | None:
    """Carry-engine windowed execution over ``controllers`` on their one
    idle clock, each serving the shard its ``obs_shard`` names in
    ``route.table`` — one array for :func:`execute_windows`, the whole
    fleet for a serial serve, one group's slice for a multi-process
    worker.  ``digests`` and ``scheduled`` are indexed like
    ``controllers``.  Returns the number of non-empty windows routed, or
    None when the engines don't apply, with the controllers untouched;
    shards whose eager core hits an ambiguous tie replay on the exact
    core (:func:`_replay_exact`), one shard per fresh pass over the
    windows, before this returns — never on the event heap."""
    lead = controllers[0]
    sim = lead.sim
    base = sim.now
    sinks = [
        _digest_sink(d, c.obs if c.obs.enabled else None, c.obs_shard)
        for d, c in zip(digests, controllers)
    ]
    solver = read_only_hint or lead.write_policy == "write_through"
    if solver:
        engines = [_WindowedSolver(c) for c in controllers]
        label, executor = "windowed-solver", "solver"
    else:
        # The eager tier needs re-iterable windows: an abort replays
        # the whole stream from the top.
        if (
            lead.data is not None
            or iter(windows) is windows
            or lead.params.min_service_ms <= 0.0
        ):
            return None
        engines = [_EagerCore(c) for c in controllers]
        label, executor = "windowed-eager", "eager"
    for c in controllers:
        c.set_engine(label, executor)
    # Shards whose eager core hit an ambiguous tie: their core is
    # dropped (it wrote nothing back) and their whole sub-stream
    # replays on the exact core at the end — the same per-shard
    # granularity as execute_compiled's eager → exact fallback, so
    # reports stay byte-identical.
    fallback: set[int] = set()

    def demote(i: int) -> None:
        fallback.add(i)
        digests[i].clear()
        scheduled[i] = 0
        ctrl = controllers[i]
        ctrl.obs.reset_shard(ctrl.obs_shard)
        ctrl.obs.count("tie_abort_replays")

    n_windows = 0
    for times, is_read, lbas in windows:
        if not len(times):
            continue
        n_windows += 1
        shard_ids = route.shard_ids(lbas)
        for i, ctrl in enumerate(controllers):
            if i in fallback:
                continue
            mask = shard_ids == ctrl.obs_shard
            if not mask.any():
                continue
            if ctrl.obs.enabled:
                ctrl.obs.arrivals(ctrl.obs_shard, base + times[mask])
            w = compile_stream(
                ctrl.mapper,
                times[mask],
                is_read[mask],
                lbas[mask] % route.shard_capacity,
            )
            scheduled[i] += w.n
            if solver:
                engines[i].feed(w, sinks[i])
            else:
                run = _CompiledRun(ctrl, w)
                if not engines[i].feed(run):
                    demote(i)
                    continue
                engines[i].drain(run.times[-1], sinks[i])
    if not solver:
        # Settle every surviving shard before the first write-back
        # so a late abort still demotes cleanly.
        for i, eng in enumerate(engines):
            if i not in fallback and not eng.settle():
                demote(i)
    # Finish each shard from the common start time and advance the
    # shared clock to the set's makespan.
    end = base
    for i, eng in enumerate(engines):
        sim.now = base
        if i in fallback:
            scheduled[i], _ = _replay_exact(
                controllers[i], route, windows, digests[i]
            )
        else:
            eng.finish(sinks[i])
        if sim.now > end:
            end = sim.now
    sim.now = end
    return n_windows


def _shard_slices(
    ctrl: ArrayController, route: _ShardRoute, windows, count: list[int]
) -> Iterator[CompiledTrace]:
    """Compile the shard ``ctrl.obs_shard``'s slice of each window (a
    fresh filtered pass — one window buffered at a time), recording its
    arrivals as it is routed.  ``count[0]`` accumulates the shard's
    request count and ``count[1]`` the stream's non-empty windows."""
    obs = ctrl.obs
    gid = ctrl.obs_shard
    base = ctrl.sim.now
    for times, is_read, lbas in windows:
        if not len(times):
            continue
        count[1] += 1
        mask = route.shard_ids(lbas) == gid
        if not mask.any():
            continue
        if obs.enabled:
            obs.arrivals(gid, base + times[mask])
        w = compile_stream(
            ctrl.mapper,
            times[mask],
            is_read[mask],
            lbas[mask] % route.shard_capacity,
        )
        count[0] += w.n
        yield w


def _replay_exact(
    ctrl: ArrayController,
    route: _ShardRoute,
    windows,
    digest: dict[str, LatencyDigest],
) -> tuple[int, int]:
    """Replay the shard ``ctrl.obs_shard``'s slice of a windowed stream
    on the exact core :func:`repro.sim.batchstep._exact_core` picks,
    one window at a time, and return its request count and the
    stream's non-empty window count.  This is the heap pump's
    serialization without the event heap, so it keeps the pump's
    ``windowed-pump`` label (a canonical report field); nothing foreign
    may be scheduled on the shard.  Samples are swept into ``digest``
    after every window, and the metrics recorder folds each completion
    into its event time's bucket, as on the pump."""
    count = [0, 0]
    lat_base = {kind: len(st.samples) for kind, st in ctrl.latency.items()}
    core = _exact_core(ctrl, "windowed-pump")
    for w in _shard_slices(ctrl, route, windows, count):
        core.feed(w)
        _sweep(ctrl.latency, lat_base, digest)
    core.finish()
    _sweep(ctrl.latency, lat_base, digest)
    return count[0], count[1]


def _arm_shard_pump(
    ctrl: ArrayController,
    route: _ShardRoute,
    windows,
    digest: dict[str, LatencyDigest],
) -> tuple[list[int], Callable[[], None]]:
    """Arm a chained heap pump for the shard ``ctrl.obs_shard`` over its
    slice of a windowed stream (:func:`_shard_slices`).  This is the
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
    gen = _shard_slices(ctrl, route, windows, count)
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
    clock — the windowed engine gate, the streaming twin of
    :func:`repro.sim.compile._execute_shards`.

    On an idle clock (and without ``fleet_busy``) the carry engines run
    (:func:`_windows_carry`).  Otherwise, or when they decline (data
    planes, a degenerate service model, one-shot windows), the gate
    decides per shard, as the materialized one does: a shard that an
    armed event names (or every shard, when a pending event names
    none) gets a chained heap pump, and every pump is armed before one
    ``sim.run()``, so the armed events interleave with them exactly as
    on the serial window router's heap (other shards' events never
    reorder a shard's own).  Every other shard replays on the exact
    core (:func:`_replay_exact`) from the common start time, under the
    pump's label — when the windows are re-iterable; a one-shot window
    source has one pass to give, so it streams through the pump.  The
    clock ends at the later of the heap's drain and the replays' ends.
    Latency lands in ``digests`` (indexed like ``controllers``).
    Returns ``(scheduled, windows)``: the per-shard request counts and
    the stream's non-empty window count.
    """
    scheduled = [0] * len(controllers)
    sim = controllers[0].sim
    if not fleet_busy and not sim.pending():
        n_windows = _windows_carry(
            controllers, route, windows, digests, scheduled, read_only_hint
        )
        if n_windows is not None:
            return scheduled, n_windows
    base = end = sim.now
    armed = sim.armed_shards()
    replayable = iter(windows) is not windows
    n_windows = 0
    pumped = []
    for i, ctrl in enumerate(controllers):
        if not replayable or _on_heap(ctrl, armed):
            pumped.append(i)
            continue
        sim.now = base
        scheduled[i], n_windows = _replay_exact(
            ctrl, route, windows, digests[i]
        )
        end = max(end, sim.now)
    sim.now = base
    pumps = [
        (i, *_arm_shard_pump(controllers[i], route, windows, digests[i]))
        for i in pumped
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
    4. otherwise (a data plane) → the same exact-core replay, when
       the windows are re-iterable and the service model positive;
       else the chained heap pump.

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
