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

Reports stay **byte-identical** to the materialized path.
:func:`execute_windows` is the fleet's windowed carry path run on one
array — one volume routed to ``ctrl.obs_shard`` — so one driver
(:func:`_windows_carry`) and one per-shard pump
(:func:`_arm_shard_pump`) serve single arrays,
:meth:`repro.service.Fleet.serve_windows`, and multi-process shard
groups alike.  Three engines mirror :func:`execute_compiled`'s
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
  touched the controller, so that shard's stream is replayed exactly on
  the heap pump;
* everything else (busy simulator, data plane attached, degenerate
  service model) streams through the chained heap pump —
  :class:`~repro.sim.compile._CompiledRun` with a window ``source``,
  which loads one window at a time into the real event engine.

Sample *emission* is the part windowing could reorder, so every engine
defers a sample until no later request can complete before it (a
window's last arrival bounds all future completions) and emits in
completion order with the engine's own tie-break — concatenated window
emissions reproduce the materialized emission order exactly, which
makes the digest's running mean bit-equal to ``sum(samples)`` and every
summary byte-identical (see :mod:`repro.sim.stats`).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

import numpy as np

from .batchstep import _drain_pools, _EagerCore
from .compile import (
    CompiledTrace,
    _CompiledRun,
    _KIND_NAMES,
    _solve_fifo,
    compile_stream,
)
from .controller import ArrayController
from .events import Simulator
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


def _windows_carry(
    sim: Simulator,
    controllers: list[ArrayController],
    gids,
    *,
    route: np.ndarray,
    volume_units: int,
    shard_capacity: int,
    capacity: int,
    write_policy: str,
    dataplane: bool,
    windows,
    digests: list[dict[str, LatencyDigest]],
    scheduled: list[int],
    read_only_hint: bool,
) -> bool:
    """Carry-engine windowed execution over ``controllers`` serving the
    global shard ids ``gids`` (``gids[i]`` is what the routing table
    calls ``controllers[i]``) — one array for :func:`execute_windows`,
    the whole fleet for a serial serve, one group's slice for a
    multi-process worker.  ``digests`` and ``scheduled`` are indexed
    like ``controllers``.  Returns False when the engines don't apply,
    with the controllers untouched; shards whose eager core hits an
    ambiguous tie replay on a per-shard chained heap pump before this
    returns True."""
    base = sim.now
    sinks = [
        _digest_sink(d, c.obs if c.obs.enabled else None, g)
        for d, c, g in zip(digests, controllers, gids)
    ]
    solver = read_only_hint or write_policy == "write_through"
    if solver:
        engines = [_WindowedSolver(c) for c in controllers]
        label = "windowed-solver"
    else:
        # The eager tier needs re-iterable windows: an abort replays
        # the whole stream from the top.
        if (
            dataplane
            or write_policy != "rmw"
            or iter(windows) is windows
            or controllers[0].params.min_service_ms <= 0.0
        ):
            return False
        engines = [_EagerCore(c) for c in controllers]
        label = "windowed-eager"
    for c, g in zip(controllers, gids):
        c.last_engine = label
        c.obs.set_engine(g, label)
    # Shards whose eager core hit an ambiguous tie: their core is
    # dropped (it wrote nothing back) and their whole sub-stream
    # replays on a per-shard chained heap pump at the end — the
    # same per-shard granularity as execute_compiled's eager →
    # event-engine fallback, so reports stay byte-identical.
    fallback: set[int] = set()

    def demote(i: int) -> None:
        fallback.add(i)
        digests[i].clear()
        scheduled[i] = 0
        obs_i = controllers[i].obs
        obs_i.reset_shard(gids[i])
        obs_i.count("tie_abort_replays")

    for times, is_read, lbas in windows:
        if not len(times):
            continue
        controllers[0].obs.count("window_boundaries", volatile=True)
        shard_ids = route[_volumes(lbas, volume_units, len(route), capacity)]
        for i, ctrl in enumerate(controllers):
            if i in fallback:
                continue
            mask = shard_ids == gids[i]
            if not mask.any():
                continue
            if ctrl.obs.enabled:
                ctrl.obs.arrivals(gids[i], base + times[mask])
            w = compile_stream(
                ctrl.mapper,
                times[mask],
                is_read[mask],
                lbas[mask] % shard_capacity,
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
    # shared clock to the fleet-wide makespan.
    end = base
    for i, eng in enumerate(engines):
        sim.now = base
        if i in fallback:
            count, drain = _arm_shard_pump(
                controllers[i],
                gids[i],
                windows,
                digests[i],
                route,
                volume_units,
                shard_capacity,
            )
            sim.run()
            drain()
            scheduled[i] = count[0]
        else:
            eng.finish(sinks[i])
        if sim.now > end:
            end = sim.now
    sim.now = end
    return True


def _arm_shard_pump(
    ctrl: ArrayController,
    gid: int,
    windows,
    digest: dict[str, LatencyDigest],
    route: np.ndarray,
    volume_units: int,
    shard_capacity: int,
) -> tuple[list[int], object]:
    """Arm a chained heap pump for the shard the routing table calls
    ``gid`` over its slice of a windowed stream (a fresh filtered pass
    — one window buffered at a time).  This is the general engine,
    able to interleave with foreign events (rebuilds, timers, other
    shards' pumps).

    Returns ``(count, drain)``: ``count[0]`` accumulates the shard's
    request count as windows are pulled, and ``drain()`` sweeps fresh
    latency samples into ``digest`` (the pump calls it at each window
    boundary; call it once more after the clock drains).  The caller
    runs the simulator — so a worker can arm every shard's pump before
    one shared ``sim.run()`` when failure timers interleave.

    Metrics recording rides the event-level hooks (the controller's
    ``_record``, the compiled run's inlined sinks), which see every
    completion at its event time — the drain moves samples the
    recorder has already bucketed, so it does not feed the recorder
    again."""
    ctrl.last_engine = "windowed-pump"
    obs = ctrl.obs
    obs.set_engine(gid, "windowed-pump")
    base = ctrl.sim.now

    def slices():
        for times, is_read, lbas in windows:
            if not len(times):
                continue
            mask = route[lbas // volume_units] == gid
            if not mask.any():
                continue
            if obs.enabled:
                obs.arrivals(gid, base + times[mask])
            yield compile_stream(
                ctrl.mapper,
                times[mask],
                is_read[mask],
                lbas[mask] % shard_capacity,
            )

    gen = slices()
    first = next(gen, None)
    count = [0]
    lat_base = {kind: len(st.samples) for kind, st in ctrl.latency.items()}
    drain = partial(_sweep, ctrl.latency, lat_base, digest)
    if first is None:
        return count, drain
    count[0] = first.n

    def source():
        w = next(gen, None)
        if w is not None:
            count[0] += w.n
        return w

    _CompiledRun(ctrl, first, source=source, on_window=drain).schedule()
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


def _checked(windows, obs, capacity: int):
    """Yield ``windows`` unchanged, refusing LBAs outside ``[0,
    capacity)`` (the carry path's check) and counting each non-empty
    window as a window boundary."""
    for window in windows:
        if len(window[0]):
            _volumes(window[2], capacity, 1, capacity)
            obs.count("window_boundaries", volatile=True)
        yield window


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
    the fleet's carry path on one array (one volume, routed to
    ``ctrl.obs_shard``), so the selection gate is the fleet's:

    1. a busy simulator → the chained heap pump (window source);
    2. ``read_only_hint`` (the caller knows every request is a read —
       e.g. ``read_fraction >= 1``) or write-through policy → the
       windowed analytic solver;
    3. mixed read-modify-write on a hookless array (no data plane) →
       the windowed eager core; an exact-tie abort replays the stream
       bit-exactly on the heap pump (``windows`` must be re-iterable
       for the replay — :class:`~repro.sim.compile.StreamWindows` is;
       one-shot generators skip the eager tier);
    4. otherwise → the chained heap pump.

    The hint is advisory: an all-read stream without it simply runs on
    the eager core, whose read recurrence performs the identical float
    operations, so the report does not change — only the speed.

    Raises ``IndexError`` on an LBA outside the array's capacity.
    Latency goes to constant-memory digests, not the controller's
    sample lists (the heap pump sweeps ``ctrl.latency`` into the
    digests at window boundaries).  With a metrics recorder attached,
    every window's arrivals are recorded as it is routed.  Returns
    ``(scheduled, digests)``.
    """
    if digests is None:
        digests = {}
    gid = ctrl.obs_shard
    cap = ctrl.mapper.capacity
    route = np.full(1, gid, dtype=np.int64)
    scheduled = [0]
    if not ctrl.sim.pending() and _windows_carry(
        ctrl.sim,
        [ctrl],
        [gid],
        route=route,
        volume_units=cap,
        shard_capacity=cap,
        capacity=cap,
        write_policy=ctrl.write_policy,
        dataplane=ctrl.data is not None,
        windows=windows,
        digests=[digests],
        scheduled=scheduled,
        read_only_hint=read_only_hint,
    ):
        return scheduled[0], digests
    count, drain = _arm_shard_pump(
        ctrl, gid, _checked(windows, ctrl.obs, cap), digests, route, cap, cap
    )
    ctrl.sim.run()
    drain()
    return count[0], digests
