"""Trace compilation: turn a whole request stream into pre-mapped arrays.

The scalar pipeline pays Python overhead per request three times —
generating it, scheduling a closure for it, and translating its address
when the closure fires.  This layer moves all of that ahead of the
event loop:

* :func:`generate_request_stream` draws a whole synthetic workload
  (arrival times, read/write flags, addresses) as NumPy vectors — the
  canonical generator shared by ``drive_workload`` and
  ``synthesize_trace``, so live and replayed streams stay identical;
* :func:`compile_workload` / :func:`compile_trace` translate the whole
  stream through :meth:`AddressMapper.map_batch` into a
  :class:`CompiledTrace` of physical coordinates;
* :func:`schedule_compiled` executes a compiled trace with one *chained*
  arrival event (requests sharing an arrival time submit as one epoch
  batch) and per-request plans precomputed from the batch-mapped
  arrays;
* :func:`solve_compiled` skips the event engine entirely for
  single-phase traces (read-only, or any mix under the write-through
  policy): each disk's FIFO queue is solved analytically with the
  exact same float arithmetic the event engine would perform, so the
  resulting report is identical to the scalar simulation at a fraction
  of the cost.  The fan-out and the recurrence are one kernel,
  ``_solve_fifo``, which the windowed solver
  (:mod:`repro.sim.stream`) shares by carrying each disk's previous
  completion between windows;
* :func:`execute_compiled` is the engine-selection seam: analytic
  solver for single-phase traces, the batch-stepped executor
  (:mod:`repro.sim.batchstep`) for mixed traces on an idle array, and
  the general heap otherwise — all bit-identical;
* :func:`_execute_shards` is the same gate for a set of shards on one
  clock — the serial fleet, every shard group and the warm runtime run
  their traces through it.  On a busy clock it picks per shard: the
  event heap for shards an armed event names, the exact core for the
  rest.

:func:`schedule_compiled_scalar` is the thin wrapper that keeps the old
per-event path alive: the same compiled stream, submitted through the
controller's scalar entry points — the equivalence oracle for tests.

The whole pipeline in four lines (doctests here run in ``make
check``):

>>> from repro.core import get_layout
>>> from repro.sim import ArrayController, WorkloadConfig
>>> from repro.sim.compile import compile_workload, schedule_compiled
>>> ctrl = ArrayController(get_layout(9, 3))
>>> trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=1), 200.0)
>>> n = schedule_compiled(ctrl, trace)
>>> ctrl.sim.run(); n == trace.n
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.registry import get_incidence
from ..layouts import AddressMapper
from .controller import ArrayController, _Request
from .disk import DiskIO
from .stats import LatencyStats

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from .trace import TraceRecord
    from .workload import WorkloadConfig

__all__ = [
    "CompiledTrace",
    "StreamWindows",
    "ArrayWindows",
    "generate_request_stream",
    "compile_stream",
    "compile_workload",
    "compile_trace",
    "schedule_compiled",
    "schedule_compiled_scalar",
    "solve_compiled",
    "execute_compiled",
]


# ----------------------------------------------------------------------
# Stream generation (the canonical synthetic-workload sampler)
# ----------------------------------------------------------------------


#: Default streaming window (requests per compiled slice).  Large
#: enough to amortize per-window ``map_batch`` overhead, small enough
#: that a window's arrays are a few MB regardless of the horizon.
DEFAULT_WINDOW_SIZE = 65536


class StreamWindows:
    """Seed-deterministic fixed-size windows of a Poisson request stream.

    Iterating yields ``(times, is_read, lbas)`` triples of at most
    ``window_size`` requests each, in arrival order, ending strictly
    below ``duration_ms``.  Concatenating the windows reproduces
    :func:`generate_request_stream` for the same config **bit-for-bit
    at every window size**, which is what lets the streaming executors
    promise byte-identical reports.  That invariance rests on three
    properties:

    * each stream component (interarrival gaps, read flags, addresses)
      draws from its **own** generator, spawned from
      ``SeedSequence(config.seed)`` — so over-drawing gaps near the
      horizon never shifts the flag or address draws;
    * NumPy generators fill arrays element-sequentially from the bit
      stream, so chunked draws of any size concatenate identically;
    * arrival times are a left-fold prefix sum carried across windows
      (``gaps[0] += carry`` before the window-local ``cumsum``), the
      exact float-add association of one whole-stream ``cumsum``.

    Each ``iter()`` builds fresh generators, so one ``StreamWindows``
    can be iterated independently many times (the fleet's per-shard
    pumps each own an iterator).  ``read_only`` (``read_fraction >=
    1``) tells the windowed gate to pick the analytic solver.

    Example:
        >>> from repro.sim import WorkloadConfig
        >>> cfg = WorkloadConfig(interarrival_ms=1.0, seed=7)
        >>> whole = generate_request_stream(cfg, 50.0, 24)
        >>> import numpy as np
        >>> chunks = list(StreamWindows(cfg, 50.0, 24, window_size=7))
        >>> all(
        ...     np.array_equal(np.concatenate([c[i] for c in chunks]), whole[i])
        ...     for i in range(3)
        ... )
        True
    """

    def __init__(
        self,
        config: "WorkloadConfig",
        duration_ms: float,
        capacity: int,
        window_size: int = DEFAULT_WINDOW_SIZE,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.config = config
        self.read_only = config.read_fraction >= 1.0
        self.duration_ms = _check_horizon(duration_ms)
        self.capacity = int(capacity)
        self.window_size = int(window_size)
        ss = np.random.SeedSequence(config.seed)
        self._gaps_ss, self._flags_ss, self._addrs_ss, self._tables_ss = ss.spawn(4)
        self._cdf: np.ndarray | None = None
        self._perm: np.ndarray | None = None
        if config.zipf_theta > 0.0:
            weights = 1.0 / np.power(
                np.arange(1, capacity + 1, dtype=np.float64), config.zipf_theta
            )
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._cdf = cdf
            # Deterministic rank->address shuffle so the hot set is
            # spread over stripes rather than clustered at low
            # addresses.  Drawn from the dedicated tables stream so it
            # is identical no matter how the other streams are chunked.
            self._perm = np.random.default_rng(self._tables_ss).permutation(
                self.capacity
            )

    def __iter__(self):
        cfg = self.config
        rng_gaps = np.random.default_rng(self._gaps_ss)
        rng_flags = np.random.default_rng(self._flags_ss)
        rng_addrs = np.random.default_rng(self._addrs_ss)
        w = self.window_size
        horizon = self.duration_ms
        carry = 0.0
        while True:
            gaps = rng_gaps.exponential(cfg.interarrival_ms, size=w)
            gaps[0] += carry
            times = np.cumsum(gaps)
            carry = float(times[-1])
            m = w
            last = carry >= horizon
            if last:
                m = int(np.searchsorted(times, horizon, side="left"))
                if m == 0:
                    return
                times = times[:m]
            is_read = rng_flags.random(m) < cfg.read_fraction
            if self._cdf is None:
                lbas = rng_addrs.integers(0, self.capacity, size=m, dtype=np.int64)
            else:
                lbas = self._perm[
                    np.searchsorted(self._cdf, rng_addrs.random(m))
                ].astype(np.int64)
            yield times, is_read, lbas
            if last:
                return


class ArrayWindows:
    """Re-iterable fixed-size windows over a materialized stream.

    The explicit-array analogue of :class:`StreamWindows`: iterating
    yields ``(times, is_read, lbas)`` slices of at most ``window_size``
    requests, in order, whose concatenation is the input arrays
    themselves — so serving a materialized stream through the windowed
    executors is byte-identical to :func:`generate_request_stream`'s
    windows when the arrays came from the same config.  This is how
    externally submitted request streams (the service front-end's
    socket chunks) ride the same constant-memory serving path as
    synthetic workloads.  ``read_only`` (all flags reads) tells the
    windowed gate to pick the analytic solver.

    Raises:
        ValueError: on a non-positive window size, mismatched array
            lengths, or arrival times that are not finite, are negative
            or are not non-decreasing.
    """

    __slots__ = ("times", "is_read", "lbas", "window_size", "read_only")

    def __init__(self, times, is_read, lbas, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.times, self.is_read, self.lbas, order = _in_arrival_order(
            times, is_read, lbas
        )
        if order is not None:
            raise ValueError("arrival times must be non-decreasing")
        self.window_size = int(window_size)
        self.read_only = bool(self.is_read.all())

    def __iter__(self):
        n = self.times.size
        w = self.window_size
        for i in range(0, n, w):
            yield (
                self.times[i : i + w],
                self.is_read[i : i + w],
                self.lbas[i : i + w],
            )


def _check_horizon(duration_ms: float) -> float:
    """A workload horizon as a float, refused when it is NaN, infinite
    or negative: no stream of arrivals ends there (a NaN or infinite
    horizon would never end a windowed one)."""
    duration_ms = float(duration_ms)
    if not (math.isfinite(duration_ms) and duration_ms >= 0):
        raise ValueError(
            f"duration_ms must be finite and non-negative, got {duration_ms}"
        )
    return duration_ms


def _check_times(times: np.ndarray) -> None:
    """Refuse arrival times no engine can schedule: NaN, infinite or
    negative — for the library entry points and the service
    front-end's ``submit`` alike."""
    if times.size:
        if not np.isfinite(times).all():
            raise ValueError("arrival times must be finite")
        if times.min() < 0.0:
            raise ValueError(
                f"arrival times must be >= 0, got {float(times.min())}"
            )


def _in_arrival_order(times, is_read, lbas):
    """A stream's columns as float64 / bool / int64 arrays, checked
    (:func:`_check_times`) and stable-sorted into arrival order (ties
    keep stream order: the event engine's tie-break), plus that sort —
    None when they were in order already.

    Raises:
        ValueError: on columns of unequal length, or a NaN, infinite or
            negative arrival time.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    is_read = np.ascontiguousarray(is_read, dtype=bool)
    lbas = np.ascontiguousarray(lbas, dtype=np.int64)
    if not (len(times) == len(is_read) == len(lbas)):
        raise ValueError(
            "times/is_read/lbas must be the same length, got "
            f"{len(times)}/{len(is_read)}/{len(lbas)}"
        )
    _check_times(times)
    order = None
    if len(times) > 1 and bool((times[1:] < times[:-1]).any()):
        order = np.argsort(times, kind="stable")
        times, is_read, lbas = times[order], is_read[order], lbas[order]
    return times, is_read, lbas, order


def generate_request_stream(
    config: "WorkloadConfig", duration_ms: float, capacity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a whole Poisson request stream as vectors.

    Returns ``(times, is_read, lbas)``: arrival times (ms, ascending,
    strictly below ``duration_ms``), read flags, and logical addresses.
    The stream is the concatenation of :class:`StreamWindows` slices —
    per-component generators spawned from the seed, so the draws are
    identical at every window size and the materialized and streaming
    paths see the same requests.  (The per-component split replaced a
    single shared generator — as with the earlier vectorization, a
    seed's stream differs from prior versions while the distributions
    are unchanged.)

    Example:
        >>> from repro.sim import WorkloadConfig
        >>> cfg = WorkloadConfig(interarrival_ms=1.0, seed=7)
        >>> times, is_read, lbas = generate_request_stream(cfg, 50.0, 24)
        >>> bool((times[:-1] <= times[1:]).all())   # ascending arrivals
        True
        >>> bool(times[-1] < 50.0 and lbas.max() < 24)
        True
    """
    duration_ms = _check_horizon(duration_ms)
    window = max(64, int(duration_ms / config.interarrival_ms * 1.25) + 16)
    parts = list(StreamWindows(config, duration_ms, capacity, window_size=window))
    if not parts:
        return (
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=np.int64),
        )
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


# ----------------------------------------------------------------------
# Compilation (one map_batch for the whole stream)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledTrace:
    """A whole request stream, pre-mapped to physical coordinates.

    Attributes:
        times: arrival times (ms, ascending; ties keep stream order).
        is_read: per-request read flag.
        lbas: logical addresses (already wrapped to capacity).
        disks / offsets / stripes: the ``map_batch`` translation —
            ``stripes`` are *global* stripe ids (across iterations).

    Example:
        >>> from repro.core import get_layout, get_mapper
        >>> from repro.sim import WorkloadConfig
        >>> mapper = get_mapper(get_layout(9, 3))
        >>> cfg = WorkloadConfig(read_fraction=1.0, seed=1)
        >>> trace = compile_workload(mapper, cfg, 40.0)
        >>> trace.read_only() and trace.n == len(trace.disks)
        True
    """

    times: np.ndarray
    is_read: np.ndarray
    lbas: np.ndarray
    disks: np.ndarray
    offsets: np.ndarray
    stripes: np.ndarray

    @property
    def n(self) -> int:
        """Number of requests."""
        return len(self.times)

    def read_only(self) -> bool:
        """True when every request is a read (single-phase trace)."""
        return bool(self.is_read.all())


def compile_stream(
    mapper: AddressMapper,
    times: np.ndarray,
    is_read: np.ndarray,
    lbas: np.ndarray,
) -> CompiledTrace:
    """Compile an explicit ``(times, is_read, lbas)`` stream.

    Arrival order is normalized with a stable sort (ties keep stream
    order — exactly the event engine's tie-breaking), and the whole
    address vector is translated with one :meth:`AddressMapper.map_batch`
    call.  A NaN, infinite or negative arrival time raises
    ``ValueError``: no engine can schedule it.

    Example:
        >>> import numpy as np
        >>> from repro.core import get_layout, get_mapper
        >>> mapper = get_mapper(get_layout(9, 3))
        >>> trace = compile_stream(
        ...     mapper,
        ...     np.array([0.0, 1.5, 3.0]),
        ...     np.array([True, False, True]),
        ...     np.array([0, 7, 23]),
        ... )
        >>> trace.n, trace.read_only()
        (3, False)
        >>> trace.disks.shape                     # pre-mapped coordinates
        (3,)
    """
    times, is_read, lbas, _ = _in_arrival_order(times, is_read, lbas)
    return _compile_ordered(mapper, times, is_read, lbas)


def _compile_ordered(
    mapper: AddressMapper, times, is_read, lbas
) -> CompiledTrace:
    """:func:`compile_stream` for columns already checked and in arrival
    order (:func:`_in_arrival_order`) — a shard's slice of a routed
    stream or window — so nothing is checked or sorted twice."""
    disks, offsets, stripes = mapper.map_batch(lbas, with_stripes=True)
    return CompiledTrace(times, is_read, lbas, disks, offsets, stripes)


def compile_workload(
    mapper: AddressMapper, config: "WorkloadConfig", duration_ms: float
) -> CompiledTrace:
    """Generate and compile a synthetic workload in one pass.

    Example:
        >>> from repro.core import get_layout, get_mapper
        >>> from repro.sim import WorkloadConfig
        >>> mapper = get_mapper(get_layout(9, 3))
        >>> trace = compile_workload(mapper, WorkloadConfig(seed=3), 100.0)
        >>> trace.n > 0 and len(trace.stripes) == trace.n
        True
    """
    times, is_read, lbas = generate_request_stream(
        config, duration_ms, mapper.capacity
    )
    return compile_stream(mapper, times, is_read, lbas)


def compile_trace(
    mapper: AddressMapper, records: Sequence["TraceRecord"]
) -> CompiledTrace:
    """Compile an explicit trace (addresses wrapped modulo capacity, as
    in :func:`repro.sim.trace.replay_trace`).

    Example:
        >>> from repro.core import get_layout, get_mapper
        >>> from repro.sim import TraceRecord
        >>> mapper = get_mapper(get_layout(9, 3))
        >>> trace = compile_trace(mapper, [
        ...     TraceRecord(time_ms=0.0, op="r", lba=5),
        ...     TraceRecord(time_ms=2.0, op="w", lba=99),  # wraps % capacity
        ... ])
        >>> trace.n, int(trace.lbas[1]) == 99 % mapper.capacity
        (2, True)
    """
    n = len(records)
    times = np.fromiter((r.time_ms for r in records), dtype=np.float64, count=n)
    is_read = np.fromiter((r.op == "r" for r in records), dtype=bool, count=n)
    lbas = np.fromiter((r.lba for r in records), dtype=np.int64, count=n)
    if n:
        lbas %= mapper.capacity
    return compile_stream(mapper, times, is_read, lbas)


# ----------------------------------------------------------------------
# Event-driven execution of a compiled trace
# ----------------------------------------------------------------------


class _ObsSink:
    """Latency-sink adapter for the heap engine's inlined read path:
    appends to the controller's sample tail (the raw-list fast path,
    :attr:`LatencyStats.tail`) and folds the sample into the metrics
    recorder at the completion event, where ``sim.now`` is the
    completion time."""

    __slots__ = ("tail", "obs", "shard", "kind", "sim")

    def __init__(self, tail, obs, shard, kind, sim):
        self.tail = tail
        self.obs = obs
        self.shard = shard
        self.kind = kind
        self.sim = sim

    def append(self, lat: float) -> None:
        self.tail.append(lat)
        self.obs.record(self.shard, self.kind, self.sim.now, lat)


def _tail(compiled: CompiledTrace, start: int) -> CompiledTrace:
    """The requests of ``compiled`` from ``start`` on."""
    return CompiledTrace(
        times=compiled.times[start:],
        is_read=compiled.is_read[start:],
        lbas=compiled.lbas[start:],
        disks=compiled.disks[start:],
        offsets=compiled.offsets[start:],
        stripes=compiled.stripes[start:],
    )


class _CompiledRun:
    """Chained-arrival pump: one pending event drives the whole trace.

    Requests are pre-planned from the batch-mapped arrays; at each
    distinct arrival time the pump submits every request of that epoch,
    then re-arms itself for the next epoch.  Submission order and times
    are identical to scheduling one closure per request — the heap just
    never holds more than one arrival event.

    With a ``source`` callable the pump *streams*: whenever the current
    window's arrivals are exhausted it pulls the next
    :class:`CompiledTrace` (``None`` ends the stream) and re-plans it in
    place, so only one window's arrays are live at a time.  Window times
    are stream-relative and monotone across windows, and every window is
    offset by the base clock captured at construction — the same
    ``base + t`` float op as the materialized pump, so absolute times
    agree bit-exactly no matter how the stream is chunked.  An optional
    ``on_window`` callback fires between windows (the streaming runners
    drain the controller's latency samples into constant-memory
    digests there).
    """

    __slots__ = (
        "ctrl",
        "times",
        "single",
        "wfast",
        "plans",
        "writes",
        "n",
        "_i",
        "_read_sink",
        "_write_rec",
        "_planned_failed",
        "_compiled",
        "_base",
        "_source",
        "_on_window",
    )

    def __init__(
        self,
        ctrl: ArrayController,
        compiled: CompiledTrace,
        *,
        source=None,
        on_window=None,
        base: float | None = None,
    ):
        self.ctrl = ctrl
        # Elementwise base + t is the same float op the scalar path's
        # schedule(delay=t) performs, so absolute times agree bit-exactly.
        # Captured once: windows loaded mid-run keep the stream's origin.
        # ``base`` overrides the capture for pumps constructed mid-run
        # whose window times are still relative to the stream's start
        # (the fleet window router).
        self._base = ctrl.sim.now if base is None else base
        self._source = source
        self._on_window = on_window
        self._read_sink: list[float] | None = None
        self._write_rec = None
        self._load(compiled)

    def _load(self, compiled: CompiledTrace) -> None:
        """(Re)plan one compiled window against the *current* failure
        state — for the first window this is construction-time planning;
        for streamed windows it matches the scalar path's fire-time
        planning, since the load happens when the window's first arrival
        is due."""
        ctrl = self.ctrl
        self.times = (self._base + compiled.times).tolist()
        self.n = compiled.n
        self._i = 0
        # Plans are valid for this failure state; if a disk fails after
        # scheduling, the next arrival event re-plans the rest of the
        # window (matching the scalar path's fire-time planning).
        self._planned_failed = ctrl.failed_disk
        self._compiled = compiled

        b = ctrl.layout.b
        disks = compiled.disks.tolist()
        offsets = compiled.offsets.tolist()
        is_read = compiled.is_read.tolist()
        # Fast paths: single-IO reads carry just (disk, offset) and
        # read-modify-writes that touch no failed disk a flat (d, o,
        # pd, po) — no request object, no phase lists.  Everything
        # degraded carries a full (kind, phases) plan.
        self.single: list[tuple[int, int] | None]
        self.wfast: list[tuple[int, int, int, int] | None] = [None] * self.n
        self.plans: list[tuple[str, list[list[tuple[int, int, bool]]]] | None] = (
            [None] * self.n
        )
        # Per-write dataplane context: (sid_local, disk, offset, lba).
        self.writes: list[tuple[int, int, int, int] | None] = [None] * self.n

        failed = ctrl.failed_disk
        if failed is None:
            self.single = [
                pos if r else None
                for pos, r in zip(zip(disks, offsets), is_read)
            ]
        else:
            # Reads on a surviving disk stay single-IO; reads of the
            # failed disk reconstruct from the rest of the stripe.
            self.single = [
                pos if r and pos[0] != failed else None
                for pos, r in zip(zip(disks, offsets), is_read)
            ]
            plans = self.plans
            lost = np.flatnonzero(compiled.is_read & (compiled.disks == failed))
            sids = (compiled.stripes[lost] % b).tolist()
            for i, sid in zip(lost.tolist(), sids):
                plans[i] = ctrl.request_plan(True, disks[i], offsets[i], sid)
        widx = np.flatnonzero(~compiled.is_read)
        if not widx.size:
            return
        # One map_batch_parity over the writes; every slot is filled
        # from tolist() columns, so it holds plain Python ints.
        wlbas = compiled.lbas[widx]
        wd, wo, ws, wpd, wpo = ctrl.mapper.map_batch_parity(wlbas)
        slots = widx.tolist()
        wd, wo = wd.tolist(), wo.tolist()
        ios = zip(wd, wo, wpd.tolist(), wpo.tolist())
        plans = self.plans
        if failed is not None:
            for i, w, sid in zip(slots, ios, (ws % b).tolist()):
                d, o, pd, po = w
                if d == failed or pd == failed:
                    plans[i] = ctrl.request_plan(False, d, o, sid)
                elif ctrl.write_policy == "rmw":
                    self.wfast[i] = w
                else:
                    plans[i] = ("write", [[(d, o, True), (pd, po, True)]])
        elif ctrl.write_policy == "rmw":
            wfast = self.wfast
            for i, w in zip(slots, ios):
                wfast[i] = w
        else:
            # Write-through: new data + parity in one phase.
            for i, (d, o, pd, po) in zip(slots, ios):
                plans[i] = ("write", [[(d, o, True), (pd, po, True)]])
        if ctrl.data is not None:
            writes = self.writes
            ctx = zip((ws % b).tolist(), wd, wo, wlbas.tolist())
            for i, w in zip(slots, ctx):
                writes[i] = w

    def schedule(self) -> None:
        """Arm the pump (no-op for an empty trace)."""
        if self.n:
            self.ctrl.sim.at(self.times[0], self._fire)

    def _fire(self) -> None:
        ctrl = self.ctrl
        sim = ctrl.sim
        now = sim.now
        # The outer loop only repeats in the streamed case, when a
        # window boundary splits an arrival epoch (a zero interarrival
        # gap straddling the chunk edge): the next window is pulled and
        # the epoch continues in the same event, preserving the heap's
        # one-pump-event-per-epoch serialization.
        while True:
            if ctrl.failed_disk != self._planned_failed:
                # A disk failed since the window was planned.  Plans are
                # a pure function of the failure state, which cannot
                # change while this event runs (fail injections are
                # events of their own), so the rest of the window
                # re-plans once — what fire-time planning would give
                # each request — and stays on the inlined paths.
                self._load(_tail(self._compiled, self._i))
            times = self.times
            i = self._i
            n = self.n
            # The healthy-read fast path inlines submission: one DiskIO,
            # no per-request dispatch.
            single = self.single
            disks = ctrl.disks
            sink = self._read_sink
            while i < n and times[i] == now:
                pos = single[i]
                if pos is not None:
                    if sink is None:
                        sink = ctrl.latency.setdefault(
                            "read", LatencyStats()
                        ).tail
                        if ctrl.obs.enabled:
                            sink = _ObsSink(
                                sink, ctrl.obs, ctrl.obs_shard, "read", sim
                            )
                        self._read_sink = sink
                    disks[pos[0]].submit(
                        DiskIO(offset=pos[1], is_write=False, latency_sink=sink)
                    )
                else:
                    self._submit(i, now)
                i += 1
            self._i = i
            if i < n:
                sim.at(times[i], self._fire)
                return
            if not self._advance():
                return

    def _advance(self) -> bool:
        """Pull the next non-empty window from the source, if any."""
        source = self._source
        if source is None:
            return False
        while True:
            if self._on_window is not None:
                self._on_window()
            nxt = source()
            if nxt is None:
                self._source = None
                return False
            if nxt.n:
                self._load(nxt)
                return True

    def _submit(self, i: int, now: float) -> None:
        """Submit a non-single-IO request (writes and degraded plans);
        healthy single-IO reads are inlined in :meth:`_fire`."""
        ctrl = self.ctrl
        winfo = self.writes[i]
        if winfo is not None:
            sid, d, off, lba = winfo
            ctrl._apply_write_dataplane(
                sid, d, off, ctrl._default_payload(lba)
            )
        w = self.wfast[i]
        if w is not None:
            self._submit_write_fast(w, now)
            return
        kind, phases = self.plans[i]
        req = _Request(kind=kind, start=now, on_done=None, phases=phases)
        ctrl._issue_phase(req)

    def _submit_write_fast(
        self, w: tuple[int, int, int, int], start: float
    ) -> None:
        """The healthy read-modify-write, inlined: read old data and
        parity, then write both — identical IO order and timing to the
        generic ``_Request`` two-phase plan, one closure per request
        instead of a request object plus one closure per phase."""
        d, o, pd, po = w
        disks = self.ctrl.disks
        data_disk = disks[d]
        parity_disk = disks[pd]
        rec = self._write_rec
        if rec is None:
            ctrl = self.ctrl
            rec = ctrl.latency.setdefault("write", LatencyStats()).record
            if ctrl.obs.enabled:
                base, obs, shard, sim = rec, ctrl.obs, ctrl.obs_shard, ctrl.sim

                def rec(lat, _b=base, _o=obs, _s=shard, _sim=sim):
                    _b(lat)
                    _o.record(_s, "write", _sim.now, lat)

            self._write_rec = rec
        remaining = 2
        writing = False

        def done(when: float) -> None:
            nonlocal remaining, writing
            remaining -= 1
            if remaining:
                return
            if not writing:
                if data_disk.failed or parity_disk.failed:
                    # Failure landed between the read and write phases:
                    # the request is lost, exactly like the generic
                    # path's stale-plan drop in _issue_phase.
                    return
                writing = True
                remaining = 2
                data_disk.submit(DiskIO(offset=o, is_write=True, on_complete=done))
                parity_disk.submit(
                    DiskIO(offset=po, is_write=True, on_complete=done)
                )
            else:
                rec(when - start)

        data_disk.submit(DiskIO(offset=o, is_write=False, on_complete=done))
        parity_disk.submit(DiskIO(offset=po, is_write=False, on_complete=done))


def schedule_compiled(ctrl: ArrayController, compiled: CompiledTrace) -> int:
    """Schedule a compiled trace for event-driven execution (batched
    path).  Returns the request count; run ``ctrl.sim.run()`` to
    execute.

    Example:
        >>> from repro.core import get_layout
        >>> from repro.sim import ArrayController, WorkloadConfig
        >>> ctrl = ArrayController(get_layout(9, 3))
        >>> trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=2), 50.0)
        >>> schedule_compiled(ctrl, trace) == trace.n
        True
        >>> ctrl.sim.run()
        >>> sum(st.count for st in ctrl.latency.values()) == trace.n
        True
    """
    ctrl.set_engine("heap", "event-heap")
    _CompiledRun(ctrl, compiled).schedule()
    return compiled.n


def schedule_compiled_scalar(
    ctrl: ArrayController, compiled: CompiledTrace
) -> int:
    """Schedule a compiled trace through the scalar per-event path.

    One closure per request, translated and planned when it fires —
    the pre-PR pipeline, kept as the equivalence baseline.  Returns the
    request count.

    Example:
        >>> from repro.core import get_layout
        >>> from repro.sim import ArrayController, WorkloadConfig
        >>> cfg = WorkloadConfig(seed=2)
        >>> a, b = (ArrayController(get_layout(9, 3)) for _ in range(2))
        >>> trace = compile_workload(a.mapper, cfg, 50.0)
        >>> _ = schedule_compiled(a, trace); a.sim.run()
        >>> _ = schedule_compiled_scalar(b, trace); b.sim.run()
        >>> a.sim.now == b.sim.now          # identical simulations
        True
    """
    sim = ctrl.sim
    for t, r, lba in zip(
        compiled.times.tolist(), compiled.is_read.tolist(), compiled.lbas.tolist()
    ):
        if r:
            sim.schedule(t, lambda lba=lba: ctrl.submit_read(lba))
        else:
            sim.schedule(t, lambda lba=lba: ctrl.submit_write(lba))
    return compiled.n


# ----------------------------------------------------------------------
# Analytic execution (single-phase traces, no event engine)
# ----------------------------------------------------------------------


#: Request-kind names indexed by the solver's per-request kind codes.
_KIND_NAMES = ("read", "degraded_read", "write", "degraded_write")


def solve_compiled(ctrl: ArrayController, compiled: CompiledTrace) -> int:
    """Execute a single-phase compiled trace analytically.

    Single-phase requests never feed back into the arrival process
    (open loop) and fan all their IOs out at arrival time, so each
    disk's FIFO queue is an independent recurrence ``completion =
    max(arrival, prev_completion) + service`` over a service vector
    that is computable up front.  This routine evaluates that
    recurrence directly — same float operations, same order as the
    event engine — then back-fills the controller's disk counters,
    latency samples, and clock, so reports built on top are
    indistinguishable from an event-driven run.  It is one feed and
    the finish of :class:`_WindowedSolver`, the engine the windowed
    executor feeds one window at a time.

    Three trace shapes are single-phase: read-only traces (healthy or
    degraded), and — under ``write_policy="write_through"`` — any mixed
    trace, healthy or single-failure degraded (a write-through write is
    one parallel data+parity write phase; its degraded variants are one
    IO).  The classic read-modify-write policy makes writes two-phase
    and genuinely needs an event engine
    (:func:`repro.sim.batchstep.step_compiled`).

    Example:
        >>> from repro.core import get_layout
        >>> from repro.sim import ArrayController, WorkloadConfig
        >>> ctrl = ArrayController(get_layout(9, 3))
        >>> cfg = WorkloadConfig(read_fraction=1.0, seed=5)  # reads only
        >>> trace = compile_workload(ctrl.mapper, cfg, 50.0)
        >>> solve_compiled(ctrl, trace) == trace.n
        True
        >>> ctrl.sim.events_processed                # no event loop at all
        0

    Raises:
        ValueError: if the trace contains writes under the default
            read-modify-write policy (multi-phase requests genuinely
            need an event engine).
        RuntimeError: if the simulator already has pending events (the
            solver models a dedicated, otherwise-idle array).
    """
    solver = _WindowedSolver(ctrl)
    sink = _controller_sink(ctrl)
    solver.feed(compiled, sink)
    ctrl.set_engine("solver", "solver")
    solver.finish(sink)
    return compiled.n


def _controller_sink(ctrl: ArrayController):
    """The one-shot sample sink: append each batch's float64 array to
    the controller's :class:`LatencyStats` as it is (no Python floats)
    and, when metrics are on, fold the batch into the recorder.  Every
    off-heap engine emits ``sink(kind, lats, comps)`` with float64
    arrays, per kind in its emission order, and never writes to an
    emitted array again."""
    latency = ctrl.latency
    obs = ctrl.obs if ctrl.obs.enabled else None

    def sink(kind: str, lats: np.ndarray, comps: np.ndarray) -> None:
        st = latency.get(kind)
        if st is None:
            st = latency[kind] = LatencyStats()
        st.extend_array(lats)
        if obs is not None:
            obs.feed(ctrl.obs_shard, kind, comps, lats)

    return sink


def _drain_pools(
    pools: dict[str, tuple[np.ndarray, np.ndarray]],
    fresh,
    threshold: float,
    sink,
) -> None:
    """Pool ``fresh`` ``(kind, comps, lats)`` arrays (submission order)
    behind each kind's held samples, then emit every pooled sample with
    completion <= ``threshold`` — the drain of the analytic solver and
    the eager core.  Every later request arrives at or after the
    threshold, so its completion cannot sort before the emitted prefix,
    and emitted prefixes concatenate into exactly the one-shot
    completion-sorted order.  ``sink(kind, lats, comps)`` receives each
    kind's ready latencies completion-sorted, ties by submission order,
    with the matching completion times.  The held rest stays sorted the
    same way, which is all the next stable sort needs."""
    for kind, comps, lats in fresh:
        held = pools.get(kind)
        if held is not None and held[0].size:
            comps = np.concatenate((held[0], comps))
            lats = np.concatenate((held[1], lats))
        pools[kind] = (comps, lats)
    for kind, (comps, lats) in pools.items():
        if not comps.size:
            continue
        order = np.argsort(comps, kind="stable")
        comps, lats = comps[order], lats[order]
        ready = int(np.searchsorted(comps, threshold, side="right"))
        if ready:
            sink(kind, lats[:ready], comps[:ready])
        pools[kind] = (comps[ready:], lats[ready:])


class _WindowedSolver:
    """The analytic single-phase solver, fed one trace or window at a
    time.

    Each feed runs the FIFO kernel (:func:`_solve_fifo`) with the
    per-disk previous completions carried in ``prev``, while last
    offset / busy time / queue delay round-trip through the disk
    objects between windows (the same additions in the same order as
    one whole-trace solve, so every float is bit-equal).  Request
    completions pool per kind as arrays, in request order, and drain
    (:func:`_drain_pools`) once no later request can land among them —
    a stable completion sort then breaks ties by request order, as the
    heap's completion events do.  It runs the off-heap engines'
    protocol: ``feed(trace, sink)`` and ``finish(sink)``, both True.
    """

    __slots__ = ("ctrl", "base", "prev", "maxc", "_pools")

    def __init__(self, ctrl: ArrayController):
        if ctrl.sim.pending():
            raise RuntimeError("the analytic solver requires an idle simulator")
        self.ctrl = ctrl
        self.base = ctrl.sim.now
        self.prev = [float("-inf")] * len(ctrl.disks)
        self.maxc = float("-inf")
        # kind -> (completions, latencies) not yet emitted.
        self._pools: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def feed(self, compiled: CompiledTrace, sink) -> bool:
        """Solve one compiled trace or window and emit every pooled
        sample that can no longer be preceded (completion <= its last
        arrival).

        Raises:
            ValueError: on a write under the read-modify-write policy
                (multi-phase; not a single-phase stream).
        """
        ctrl = self.ctrl
        if not compiled.n:
            return True
        if not compiled.read_only() and ctrl.write_policy != "write_through":
            raise ValueError(
                "the analytic solver handles read-only traces under the "
                "read-modify-write policy (write-through traces are "
                "single-phase and always solvable)"
            )
        times = self.base + compiled.times
        comps, kind_code = _solve_fifo(ctrl, compiled, times, self.prev)
        self.maxc = max(self.maxc, float(comps.max()))
        lats = comps - times
        if kind_code is None:
            fresh = [("read", comps, lats)]
        else:
            fresh = [
                (name, comps[mask], lats[mask])
                for code, name in enumerate(_KIND_NAMES)
                if (mask := kind_code == code).any()
            ]
        _drain_pools(self._pools, fresh, float(times[-1]), sink)
        return True

    def finish(self, sink) -> bool:
        """Emit everything still pooled and advance the clock to the
        last completion."""
        _drain_pools(self._pools, (), float("inf"), sink)
        if self.maxc > float("-inf"):
            self.ctrl.sim.now = self.maxc
        return True


def _solve_fifo(
    ctrl: ArrayController,
    compiled: CompiledTrace,
    times: np.ndarray,
    carry: list[float],
) -> tuple[np.ndarray, np.ndarray | None]:
    """The single-phase FIFO kernel shared by the one-shot and windowed
    solvers: fan every request out to its disk IOs, then solve each
    disk's queue as ``completion = max(arrival, prev_completion) +
    service`` — same float operations, same order as the event engine.

    ``times`` are the absolute arrival times; ``carry`` holds each
    disk's previous completion (``-inf`` for an idle disk) and is
    updated in place, while last offset, busy time, queue delay, and
    IO counters accumulate on the disk objects.  Partitioning a disk's
    IO sequence across calls therefore does not change the float
    left-fold.  Returns ``(req_completion, kind_code)``: per-request
    completion (fan-in = max over the request's IOs) and the
    :data:`_KIND_NAMES` code per request, or ``None`` when every request
    is a plain read.
    """
    n = compiled.n
    has_writes = not compiled.read_only()
    failed = ctrl.failed_disk
    disks = compiled.disks
    offsets = compiled.offsets

    # --- fan each logical request out to its disk IOs (request order;
    # data before parity within a write, unit order within a degraded
    # stripe — the submission order of the event-driven path).  The
    # per-request kind codes drive latency bucketing at emission.
    kind_code = None  # None = every request is a plain read
    if not has_writes and failed is None:
        io_req = np.arange(n, dtype=np.int64)
        io_disk = disks
        io_off = offsets
        io_write = None
        block_start = io_req  # request i's IOs start at position i
    else:
        counts = np.ones(n, dtype=np.int64)
        kind_code = np.zeros(n, dtype=np.int8)  # 0 read / 1 degraded_read
        #                                         2 write / 3 degraded_write
        if has_writes:
            widx = np.flatnonzero(~compiled.is_read)
            wd, wo, ws, wpd, wpo = ctrl.mapper.map_batch_parity(
                compiled.lbas[widx]
            )
            if failed is None:
                wnormal = np.ones(len(widx), dtype=bool)
                wdataf = wparityf = np.zeros(len(widx), dtype=bool)
            else:
                wdataf = wd == failed
                wparityf = wpd == failed
                wnormal = ~(wdataf | wparityf)
            counts[widx[wnormal]] = 2
            kind_code[widx[wnormal]] = 2
            kind_code[widx[~wnormal]] = 3
            if ctrl.data is not None and not ctrl._fold_write_dataplane(
                compiled
            ):
                # Content semantics in request order, exactly as the
                # event engine applies them at each write's arrival
                # (a healthy, hookless array folds them in one pass).
                b = ctrl.layout.b
                wlbas = compiled.lbas[widx].tolist()
                for j in range(len(widx)):
                    ctrl._apply_write_dataplane(
                        int(ws[j]) % b,
                        int(wd[j]),
                        int(wo[j]),
                        ctrl._default_payload(wlbas[j]),
                    )
        deg = None
        if failed is not None:
            layout = ctrl.layout
            inc = get_incidence(layout)
            lengths = inc.stripe_lengths()
            sids = compiled.stripes % layout.b
            deg = compiled.is_read & (disks == failed)
            counts[deg] = lengths[sids[deg]] - 1
            kind_code[deg] = 1
        block_start = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=block_start[1:])
        total = int(counts.sum())
        io_req = np.repeat(np.arange(n, dtype=np.int64), counts)
        io_disk = np.empty(total, dtype=np.int64)
        io_off = np.empty(total, dtype=np.int64)
        io_write = np.zeros(total, dtype=bool)
        # Healthy (or surviving-disk) reads: one IO in place.
        hr = compiled.is_read if deg is None else compiled.is_read & ~deg
        io_disk[block_start[hr]] = disks[hr]
        io_off[block_start[hr]] = offsets[hr]
        if has_writes:
            bs = block_start[widx[wnormal]]
            io_disk[bs] = wd[wnormal]
            io_off[bs] = wo[wnormal]
            io_disk[bs + 1] = wpd[wnormal]
            io_off[bs + 1] = wpo[wnormal]
            io_write[bs] = True
            io_write[bs + 1] = True
            bs = block_start[widx[wdataf]]
            io_disk[bs] = wpd[wdataf]
            io_off[bs] = wpo[wdataf]
            io_write[bs] = True
            bs = block_start[widx[wparityf]]
            io_disk[bs] = wd[wparityf]
            io_off[bs] = wo[wparityf]
            io_write[bs] = True
        if deg is not None and deg.any():
            dsids = sids[deg]
            row_start = inc.indptr[dsids]
            row_len = lengths[dsids]
            m = int(row_len.sum())
            run_end = np.cumsum(row_len)
            intra = np.arange(m, dtype=np.int64) - np.repeat(
                run_end - row_len, row_len
            )
            upos = np.repeat(row_start, row_len) + intra
            udisks = inc.disks[upos]
            uoffs = inc.offsets[upos]
            keep = udisks != failed
            klen = row_len - 1
            kept = int(klen.sum())
            kend = np.cumsum(klen)
            kintra = np.arange(kept, dtype=np.int64) - np.repeat(
                kend - klen, klen
            )
            kpos = np.repeat(block_start[deg], klen) + kintra
            io_disk[kpos] = udisks[keep]
            io_off[kpos] = uoffs[keep]

    # --- solve each disk's FIFO queue, continuing from ``carry``.
    io_time = times[io_req]
    completion = np.empty(len(io_disk), dtype=np.float64)
    p = ctrl.params
    seq_s, avg_s = p.sequential_service_ms, p.average_service_ms
    order = np.argsort(io_disk, kind="stable")
    sorted_disk = io_disk[order]
    group_bounds = np.flatnonzero(np.diff(sorted_disk)) + 1
    for grp in np.split(order, group_bounds):
        di = int(io_disk[grp[0]])
        disk_obj = ctrl.disks[di]
        offs = io_off[grp]
        # Per-IO service time, DiskParameters.service_time element for
        # element.
        adjacent = np.empty(len(grp), dtype=bool)
        last = disk_obj._last_offset
        adjacent[0] = last is not None and abs(int(offs[0]) - last) <= 1
        adjacent[1:] = np.abs(np.diff(offs)) <= 1
        service = np.where(adjacent, seq_s, avg_s)
        comp = []
        busy = disk_obj.busy_time
        delay = disk_obj.total_queue_delay
        prev = carry[di]
        for a, s in zip(io_time[grp].tolist(), service.tolist()):
            start = a if a > prev else prev
            delay += start - a
            busy += s
            prev = start + s
            comp.append(prev)
        completion[grp] = comp
        carry[di] = prev
        disk_obj.busy_time = busy
        disk_obj.total_queue_delay = delay
        if io_write is None:
            disk_obj.completed_reads += len(grp)
        else:
            nw = int(io_write[grp].sum())
            disk_obj.completed_writes += nw
            disk_obj.completed_reads += len(grp) - nw
        disk_obj._last_offset = int(offs[-1])

    # --- per-request completion: fan-in = max over the request's IOs.
    if len(io_disk) == n:
        return completion, kind_code
    return np.maximum.reduceat(completion, block_start), kind_code


# ----------------------------------------------------------------------
# Engine selection (the compile-then-execute seam)
# ----------------------------------------------------------------------


def execute_compiled(ctrl: ArrayController, compiled: CompiledTrace) -> int:
    """Run a compiled trace through the fastest engine that is exact.

    The selection gate, in order:

    1. a busy simulator (timers armed, rebuild in flight, another
       stream scheduled) → the general event heap, which is the only
       engine that can interleave with foreign events;
    2. a single-phase trace — read-only, or any mix under
       ``write_policy="write_through"`` → the analytic queue solver
       (:func:`solve_compiled`, no event stepping at all);
    3. otherwise → the batch-stepped executor
       (:func:`repro.sim.batchstep.step_compiled`): its eager tier on
       a healthy array, else (or on an order-ambiguous tie) its exact
       tier (label ``calendar``), which replays the heap's event order.

    All three engines produce report-identical results — same clock,
    same per-disk counters and float accumulators, same latency-sample
    multisets and summaries (the batch-stepped executor's eager tier,
    healthy traces only, may order samples at *exact* completion-time
    ties by submission instead of event-seq, which leaves every summary
    statistic equal and the mean within float re-association; see
    :mod:`repro.sim.batchstep`) — so callers choose purely on speed.
    Returns the request count; the trace is fully executed on return.

    Example:
        >>> from repro.core import get_layout
        >>> from repro.sim import ArrayController, WorkloadConfig
        >>> ctrl = ArrayController(get_layout(9, 3))
        >>> trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=4), 80.0)
        >>> execute_compiled(ctrl, trace) == trace.n
        True
        >>> ctrl.sim.events_processed       # mixed trace, batch-stepped
        0
    """
    sim = ctrl.sim
    if sim.pending():
        n = schedule_compiled(ctrl, compiled)
        sim.run()
        return n
    if compiled.read_only() or ctrl.write_policy == "write_through":
        return solve_compiled(ctrl, compiled)
    if ctrl.params.min_service_ms <= 0.0:
        # step_compiled refuses a degenerate zero-service model; the
        # heap handles it.
        n = schedule_compiled(ctrl, compiled)
        sim.run()
        return n
    from .batchstep import step_compiled

    return step_compiled(ctrl, compiled)


def _on_heap(ctrl: ArrayController, armed: frozenset | None) -> bool:
    """Whether a shard of a set on a busy clock must run on the event
    heap: something foreign is scheduled on it (``armed`` names it, or
    is ``None`` — a pending event that names no shard may touch any),
    or its degenerate service model rules the exact core out."""
    return armed is None or ctrl in armed or ctrl.params.min_service_ms <= 0.0


def _execute_shards(
    controllers: Sequence[ArrayController],
    traces: Sequence[CompiledTrace],
    *,
    fleet_busy: bool = False,
) -> None:
    """Run one compiled trace per controller, all on the controllers'
    one shared clock — the engine gate for a set of shards.

    On an idle clock the shards share no events, so each runs
    :func:`execute_compiled` (its fastest exact engine) from the common
    start time and the clock then advances to the set's makespan.

    When the clock carries foreign events (failure timers, rebuild IO,
    migration copies) — or, with ``fleet_busy``, the serial fleet's
    clock would although this one is idle (a shard group of a scenario
    that arms failures elsewhere) — the gate decides per shard.  A shard
    goes to the event heap only if something foreign is scheduled on
    it (:meth:`repro.sim.events.Simulator.armed_shards` names it; a
    pending event naming no shard puts every shard there): its trace is
    scheduled, and the clock drains once so the armed events interleave
    with it.  Every other shard replays its trace on the exact core
    (:func:`repro.sim.batchstep._exact_core`), off the clock, from the
    common start time — the heap's own ``(time, seq)`` serialization,
    so it keeps the heap's label ``heap`` and its bits; only
    ``last_executor`` says ``exact-native`` (the compiled kernel) or
    ``exact-core`` (the Python core).  The clock then advances to
    the later of the heap's drain and the replays' ends.  With a
    metrics recorder attached, each shard's arrivals are recorded
    first.
    """
    sim = controllers[0].sim
    base = sim.now
    for ctrl, trace in zip(controllers, traces):
        if ctrl.obs.enabled and trace.n:
            ctrl.obs.arrivals(ctrl.obs_shard, base + trace.times)
    end = base
    if not fleet_busy and not sim.pending():
        for ctrl, trace in zip(controllers, traces):
            sim.now = base
            execute_compiled(ctrl, trace)
            end = max(end, sim.now)
        sim.now = end
        return
    from .batchstep import _step_exact

    armed = sim.armed_shards()
    heap = []
    for ctrl, trace in zip(controllers, traces):
        if _on_heap(ctrl, armed):
            heap.append((ctrl, trace))
            continue
        sim.now = base
        _step_exact(ctrl, trace, "heap")
        end = max(end, sim.now)
    sim.now = base
    for ctrl, trace in heap:
        schedule_compiled(ctrl, trace)
    sim.run()
    sim.now = max(end, sim.now)
