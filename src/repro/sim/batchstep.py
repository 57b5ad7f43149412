"""Batch-stepped executor for compiled mixed traces.

The binary heap in :class:`repro.sim.events.Simulator` pays one
``heappush`` + ``heappop`` of a callback (plus a ``DiskIO`` object and,
for writes, a closure) per disk event.  For a compiled trace on an
otherwise-idle array none of that generality is needed: every event is
either a request arrival (known up front, sorted) or a disk completion
(created while stepping).  :func:`step_compiled` runs such a trace on
one of two tiers, each a Python core with a compiled twin
(:mod:`repro.sim.native`): the eager tier's for its healthy domain, the
exact tier's for every plan.  A trace is planned once,
for the core that runs it: a Python core runs a
:class:`repro.sim.compile._CompiledRun` — the plan the heap pump
executes — and a compiled core the trace's validated columns
(:class:`repro.sim.native.KernelRun`).

Eager tier
----------
The eager tier takes one domain, decided per controller by
:func:`_eager_eligible`: healthy read-modify-write arrays without a
data plane, whose plans are single-IO reads and healthy
read-modify-writes.  :class:`_EagerCore` resolves their disk queues
without an event loop.  Because each disk
queue is FIFO, an IO's completion time is fully determined the moment
it is submitted: ``max(submit_time, previous completion on that disk)
+ service``.  The only submissions whose *times* are not known up
front are small writes' phase 2s (gated on the max of their two
phase-1 read completions), so the core walks the arrival stream merged
with a small min-heap of pending phase 2s — two orders of magnitude
fewer heap operations than one per disk event.  Whenever two
submissions from different sources collide on the exact same float
timestamp the serialization is ambiguous; the core detects that
before mutating any controller state and reports failure, and
:func:`step_compiled` hands the trace to the exact tier.  The one
relaxation: latency samples are emitted per kind in completion-time
order with ties broken by the core's retire order (the heap breaks
them by event sequence number), which leaves every report field
identical except that ``mean`` may differ by float-association error
well inside the documented 1e-12 contract — for healthy traces only,
since a degraded one never enters the eager tier.  The same core runs
the windowed executor (:mod:`repro.sim.stream`), fed one window at a
time; a one-shot run is a single feed.

Every eager run gets its core from one factory, :func:`_eager_core`,
which refuses a controller outside the domain.  Its compiled twin,
:class:`repro.sim.native.NativeEagerCore` (volatile executor
``eager-native``), runs the same pending-phase heap, the same two
tie-abort rules and the same per-disk float operations in the same
order, fed columns, its samples pooled and drained exactly as the
Python core's.  Hosts where the kernel did not build run
:class:`_EagerCore` (executor ``eager``), the kernel's reference.

Exact tier
----------
:class:`_ExactCore` keeps the heap but strips it to plain tuples.  A
disk serves one IO at a time, so only in-flight completions
``(time, seq, action, disk, request)`` are heaped — never more than
``v`` — while queued IOs wait in per-disk FIFOs.  Arrivals are not
heaped at all: the next arrival epoch is merged against the heap's
head by ``(time, pump_seq)``.  The RMW chained-arrival dependency (a
small write's phase-2 IOs exist only once both phase-1 reads finish)
is handled naturally: the follow-on IOs are submitted inside their
parent's completion.  Every IO starts through one step, the core's
twin of :meth:`repro.sim.disk.Disk.submit` — a read at its arrival,
either phase of a read-modify-write, a generic plan's phase — and a
queued IO starts at its predecessor's completion, as in
``Disk._start_next``.  It is one resumable core with the eager tier's
protocol: :func:`step_compiled` feeds it a whole trace once
(label ``calendar`` — the name of the calendar-queue engine it
replaced, kept because it is a canonical report field), the shard-set
gates feed it a quiet shard beside armed ones (labels ``heap`` and
``windowed-pump``, the serializations it reproduces) and a failed
shard's stretches off the heap — the arrivals before its failure that
end idle, and the rest after its pump stops once the rebuild has
ended and its disks are idle — and the windowed executor feeds a
tie-aborted or degraded shard one window plan at a time (label
``windowed-pump``).  The core owns the timeline of what it is fed (a
stretch off the heap starts and ends on an idle, unclaimed shard), so
a controller without content or degraded-write hooks, failed disk
included, takes each plan's data-plane writes as one fold
(:meth:`repro.sim.dataplane.DataPlane.fold_small_writes`) instead of
one numpy write per arrival.  A feed holds its last arrival epoch open
until the next window shows whether the epoch continues, as the
chained pump does.

Every exact replay gets its core from one factory, :func:`_exact_core`.
Every plan a controller makes — healthy or degraded, ``rmw`` or
write-through, on a controller whose data plane, if any, folds its
writes — replays on a compiled twin,
:class:`repro.sim.native.NativeExactCore`: a C kernel built on first
use that runs the same protocol and the same float operations and
sequence numbers in the same order, from columns instead of
per-request tuples, the plans off the two fast paths as generic ones
(volatile executor ``exact-native``).  The Python :class:`_ExactCore`
(executor ``exact-core``) runs only where the kernel cannot: data
planes a hook observes, and hosts where the kernel did not build; it
stays the reference the kernel is tested against.

One protocol
------------
Both tiers' cores, Python and compiled, and the analytic solver
(:class:`repro.sim.compile._WindowedSolver`) are the off-heap engines,
and they share one protocol: ``feed(trace_or_plan, sink) -> bool`` and
``finish(sink) -> bool``.  ``sink(kind, lats, comps)`` takes one kind's
latencies and completion times as float64 arrays, in the engine's
emission order; the exact cores buffer each feed's completions and
emit them at its end, the eager cores only the completions no later
request can precede.  A feed returns False only on the eager core's
tie abort, before it emits anything; ``finish`` emits what is left
and writes the disk state and clock back through one helper,
:func:`_write_back`.  The sink decides where samples go —
:func:`repro.sim.compile._controller_sink` keeps each array as the
controller's exact samples and feeds the metrics recorder, the
windowed executor's digest sink folds constant-memory digests — so no
engine touches ``ctrl.latency`` or the recorder itself.

Equality contract
-----------------
The exact tier replays the heap's exact serialization.  Each event
that the heap *would* have pushed is assigned the same tie-breaking
sequence number, in the same order (submission order within an epoch,
the arrival pump re-armed after each epoch; a queued IO takes its
number when its service starts), and events retire in ``(time, seq)``
order — so equal-time events fire in schedule order, float
accumulation per disk happens in the same order with the same
operations, and the resulting report is bit-identical to
``schedule_compiled`` + ``sim.run()`` (property-tested in
``tests/sim/test_batchstep.py``).

Like :func:`repro.sim.compile.solve_compiled`, both tiers bypass
``Simulator`` entirely: ``sim.events_processed`` stays untouched, which
the tests use to prove which engine ran — the only way to tell an
exact replay from the heap pump whose label it keeps.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from .compile import _CompiledRun, _controller_sink, _drain_pools

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from .compile import CompiledTrace
    from .controller import ArrayController
    from .native import KernelRun, NativeEagerCore, NativeExactCore

__all__ = ["step_compiled"]

# Completion-event action codes (element 2 of an event tuple
# ``(time, seq, action, disk, request)``).
_READ_FAST = 0  # healthy/degraded single-IO read: append to the sink
_RMW_PHASE1 = 1  # RMW old-data/old-parity read: gate the write phase
_RMW_WRITE = 2  # RMW new-data/new-parity write: gate the record
_GENERIC_READ = 3  # phase IO of a generic (kind, phases) plan
_GENERIC_WRITE = 4

# Sentinel standing in for Disk._last_offset is None inside the eager
# tier's int-only adjacency test (real offsets are small non-negatives,
# so the difference can never land in [-1, 1]).
_NO_OFFSET = -(1 << 60)


def _eager_eligible(ctrl: "ArrayController") -> bool:
    """Whether ``ctrl``'s traces may take the eager tier — the one
    domain both eager cores cover: healthy ``rmw`` plans, no data
    plane, a positive service model.  Both engine gates
    (:func:`step_compiled`, :func:`repro.sim.stream._execute_shard_windows`)
    ask it per shard; every other trace replays on the exact tier."""
    return (
        ctrl.failed_disk is None
        and ctrl.write_policy == "rmw"
        and ctrl.data is None
        and ctrl.params.min_service_ms > 0.0
    )


class _EagerCore:
    """The eager tier: FIFO queue resolution with window carry-over.

    Requests come from :class:`repro.sim.compile._CompiledRun` plans —
    the ones the heap pump and the exact tier execute — on an
    eager-eligible controller (:func:`_eager_eligible`; the factory
    :func:`_eager_core` checks): single-IO reads, resolved at arrival,
    and healthy read-modify-writes, whose phase 1 resolves at arrival
    and whose phase 2 waits in the pending heap.

    It runs the off-heap engines' **feed/finish protocol**: the
    per-disk accumulators, the pending-phase heap and the undrained
    samples persist *across* feeds, each feed emits the samples no
    later request can precede into its sink, and nothing is written
    back to the controller until :meth:`finish` — so the streaming
    executor can feed one compiled window at a time in constant memory,
    :func:`step_compiled` feeds a whole trace once, and a tie abort
    anywhere leaves the controller untouched for an exact replay.

    Heap entries are self-contained ``(time, g, cnt, arrival, io)``
    tuples, one per pending phase 2, ``io`` being the write's ``wfast``
    ``(d, off, pd, po)`` tuple (window plans are replaced between feeds,
    so entries cannot index into them).  ``g`` is the service start of
    the last-finishing phase-1 read, which recovers the heap's
    event-sequence order between same-time submissions, and ``cnt`` is
    a monotone push counter replaying the heap's final tiebreak.  An
    arrival tied with a pending phase 2, or two phase 2s tied on
    ``(time, g)``, abort unless their disk sets are disjoint (disjoint
    submissions commute).

    :class:`repro.sim.native.NativeEagerCore` is its compiled twin on
    the same domain (:func:`_eager_core` picks).
    After a failed :meth:`feed` or :meth:`finish` the core is spent:
    the caller drops it, and what it emitted, and replays exactly.
    """

    __slots__ = (
        "ctrl",
        "seq_s",
        "avg_s",
        "prevc",
        "dlast",
        "dbusyt",
        "ddelay",
        "dreads",
        "dwrites",
        "pq",
        "maxc",
        "_cnt",
        "_kinds",
        "_pools",
    )

    def __init__(self, ctrl: "ArrayController"):
        disks = ctrl.disks
        v = len(disks)
        self.ctrl = ctrl
        self.seq_s = ctrl.params.sequential_service_ms
        self.avg_s = ctrl.params.average_service_ms
        self.prevc = [float("-inf")] * v
        self.dlast = [
            _NO_OFFSET if d._last_offset is None else d._last_offset
            for d in disks
        ]
        self.dbusyt = [d.busy_time for d in disks]
        self.ddelay = [d.total_queue_delay for d in disks]
        self.dreads = [0] * v
        self.dwrites = [0] * v
        self.pq: list[tuple] = []
        self.maxc = float("-inf")
        self._cnt = 0
        # kind -> (completions, latencies) since the last drain, in
        # retire order; the pools hold the undrained rest.
        self._kinds: dict[str, tuple[list[float], list[float]]] = {
            "read": ([], []),
            "write": ([], []),
        }
        self._pools: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def plan(self, compiled: "CompiledTrace") -> _CompiledRun:
        """The plan this core runs ``compiled`` as: one
        :class:`~repro.sim.compile._CompiledRun`."""
        return _CompiledRun(self.ctrl, compiled)

    def feed(self, plan: "_CompiledRun | CompiledTrace", sink) -> bool:
        """Consume one trace or window (planned here unless it comes as
        a :class:`~repro.sim.compile._CompiledRun`), then emit every
        buffered sample with completion <= its last arrival (everything
        still pending completes strictly later).  Returns False on an
        ambiguous tie, before emitting anything."""
        run = plan if isinstance(plan, _CompiledRun) else _CompiledRun(
            self.ctrl, plan
        )
        if not self._step(run):
            return False
        if run.n:
            self._drain(run.times[-1], sink)
        return True

    def finish(self, sink) -> bool:
        """Retire everything still pending, emit the remaining samples,
        and write the accumulated disk/clock state back.  Returns False
        on a late ambiguous tie (controller still untouched)."""
        if not self._step(None):
            return False
        self._drain(float("inf"), sink)
        last = [None if lo == _NO_OFFSET else lo for lo in self.dlast]
        now = self.maxc if self.maxc > float("-inf") else self.ctrl.sim.now
        state = self.dbusyt, self.ddelay, self.dreads, self.dwrites, last
        _write_back(self.ctrl, *state, now)
        return True

    def _drain(self, threshold: float, sink) -> None:
        """Move the samples buffered since the last drain into the
        pools, as arrays, and emit those with completion <=
        ``threshold`` (:func:`~repro.sim.compile._drain_pools`)."""
        fresh = [
            (kind, np.array(cs), np.array(ls))
            for kind, (cs, ls) in self._kinds.items()
            if cs
        ]
        for cs, ls in self._kinds.values():
            del cs[:], ls[:]
        _drain_pools(self._pools, fresh, threshold, sink)

    def _step(self, run: _CompiledRun | None) -> bool:
        """Consume one planned trace or window, interleaving its
        arrivals with pending phase-2 submissions.  Phase 2s whose time
        lands past the last arrival stay queued for the next feed;
        ``run=None`` ends the stream and retires all of them.  Returns
        False on an ambiguous tie (controller state untouched; the
        caller replays exactly)."""
        if run is None:
            atimes = single = wfast = ()
            n = 0
        else:
            atimes = run.times
            single = run.single
            wfast = run.wfast
            n = run.n
        pq = self.pq
        inf = float("inf")
        prevc = self.prevc
        dlast = self.dlast
        dbusyt = self.dbusyt
        ddelay = self.ddelay
        dreads = self.dreads
        dwrites = self.dwrites
        seq_s = self.seq_s
        avg_s = self.avg_s
        rc, rl = self._kinds["read"]
        rc_app, rl_app = rc.append, rl.append
        wc, wl = self._kinds["write"]
        wc_app, wl_app = wc.append, wl.append
        maxc = self.maxc
        cnt = self._cnt
        ai = 0
        while True:
            limit = pq[0][0] if pq else inf
            while ai < n:
                t = atimes[ai]
                if t >= limit:
                    if t > limit:
                        break
                    # Arrival and pending phase 2 at the same instant:
                    # the heap's order is ambiguous, but it only
                    # matters if they touch a common disk — disjoint
                    # submissions commute, so process the arrival first.
                    pos = single[ai]
                    if pos is not None:
                        aset = (pos[0],)
                    else:
                        w = wfast[ai]
                        aset = (w[0], w[2])
                    for item in pq:
                        if item[0] == limit and (
                            item[4][0] in aset or item[4][2] in aset
                        ):
                            return False
                r = ai
                ai += 1
                pos = single[r]
                if pos is not None:
                    # Single-IO read: resolves entirely at arrival.
                    d, off = pos
                    p = prevc[d]
                    if p > t:
                        ddelay[d] += p - t
                    else:
                        p = t
                    s = seq_s if -1 <= off - dlast[d] <= 1 else avg_s
                    dlast[d] = off
                    dbusyt[d] += s
                    c = p + s
                    prevc[d] = c
                    dreads[d] += 1
                    if c > maxc:
                        maxc = c
                    rc_app(c)
                    rl_app(c - t)
                    continue
                # Healthy RMW phase 1: read old data, then parity.
                w = wfast[r]
                d, off, pd, po = w
                p = prevc[d]
                if p > t:
                    ddelay[d] += p - t
                else:
                    p = t
                s = seq_s if -1 <= off - dlast[d] <= 1 else avg_s
                dlast[d] = off
                dbusyt[d] += s
                g1 = p
                c1 = p + s
                prevc[d] = c1
                dreads[d] += 1
                p = prevc[pd]
                if p > t:
                    ddelay[pd] += p - t
                else:
                    p = t
                s = seq_s if -1 <= po - dlast[pd] <= 1 else avg_s
                dlast[pd] = po
                dbusyt[pd] += s
                c2 = p + s
                prevc[pd] = c2
                dreads[pd] += 1
                # Phase 2 fires inside the completion event of whichever
                # read finishes last; that event's heap sequence number
                # was assigned when the read's *service started* (seqs
                # grow chronologically), so the start time `g` recovers
                # the heap's order between phase-2 submissions tied on
                # time.
                if c1 > c2:
                    tw = c1
                    g = g1
                elif c2 > c1:
                    tw = c2
                    g = p
                else:
                    tw = c1
                    g = g1 if g1 > p else p
                cnt += 1
                heappush(pq, (tw, g, cnt, t, w))
                if tw < limit:
                    limit = tw
            if ai < n:
                # The drain broke on t > limit: retire pending phase 2s
                # up to the next arrival (ties at the arrival re-enter
                # the drain, which settles them with the disjointness
                # check).
                na = atimes[ai]
            elif run is None:
                na = inf
            else:
                break
            while pq and pq[0][0] < na:
                tw, g, _c, at, x = heappop(pq)
                d, off, pd, po = x
                if pq and pq[0][0] == tw:
                    # Same-instant phase 2s: distinct gating starts
                    # order them exactly (g tracks event-seq order);
                    # ties on both are fine only while they touch
                    # pairwise disjoint disks.
                    used = {d, pd}
                    for other in pq:
                        if other[0] == tw and other[1] == g:
                            for od in (other[4][0], other[4][2]):
                                if od in used:
                                    return False
                                used.add(od)
                # Phase 2: write new data, then new parity.
                p = prevc[d]
                if p > tw:
                    ddelay[d] += p - tw
                else:
                    p = tw
                s = seq_s if -1 <= off - dlast[d] <= 1 else avg_s
                dlast[d] = off
                dbusyt[d] += s
                c = p + s
                prevc[d] = c
                dwrites[d] += 1
                p = prevc[pd]
                if p > tw:
                    ddelay[pd] += p - tw
                else:
                    p = tw
                s = seq_s if -1 <= po - dlast[pd] <= 1 else avg_s
                dlast[pd] = po
                dbusyt[pd] += s
                c4 = p + s
                prevc[pd] = c4
                dwrites[pd] += 1
                if c4 > c:
                    c = c4
                if c > maxc:
                    maxc = c
                wc_app(c)
                wl_app(c - at)
            if ai >= n:
                break
        self.maxc = maxc
        self._cnt = cnt
        return True


def step_compiled(ctrl: "ArrayController", compiled: "CompiledTrace") -> int:
    """Execute a compiled trace with the batch-stepped executor.

    Produces the identical report (clock, per-disk counters and float
    accumulators, latency samples per kind) to scheduling the trace on
    the event heap and running it, at a fraction of the per-event cost.
    Requires a dedicated, otherwise-idle array — the executor owns the
    whole timeline, so mid-run fault injection (which needs a live
    event queue) stays on the heap engine.

    The gate, in order: refuse a busy simulator or a non-positive
    service model; on an eager-eligible controller
    (:func:`_eager_eligible`: healthy, ``rmw``, no data plane), feed
    the trace to the eager tier (:func:`_eager_core`: the compiled
    kernel, else :class:`_EagerCore`); on an ambiguous tie, or for any
    other controller — a degraded one included, with no eager attempt
    — feed it to the exact tier (:func:`_exact_core`: the compiled
    kernel, else :class:`_ExactCore`; labelled ``calendar``), which
    folds a hookless data plane's writes into one vectorized pass.  The
    trace is planned once, for the core that runs it first — a
    :class:`repro.sim.compile._CompiledRun` for a Python core, the
    validated columns (:class:`repro.sim.native.KernelRun`) for a
    compiled one — and the exact replay after a tie abort reuses that
    plan.  (The shard-set gate :func:`repro.sim.compile._execute_shards`
    replays a quiet shard beside armed ones on the same exact tier,
    labelled ``heap``.)

    Args:
        ctrl: the array controller (any failure state, any write
            policy — the failure state is simply frozen for the run).
        compiled: the pre-mapped trace.

    Returns:
        The number of requests executed.

    Raises:
        RuntimeError: if the simulator already has pending events.
        ValueError: if the disk service model is not positive.
    """
    sim = ctrl.sim
    if sim.pending():
        raise RuntimeError("step_compiled requires an idle simulator")
    params = ctrl.params
    if not params.min_service_ms > 0.0:
        raise ValueError(
            "step_compiled requires a positive service model, got "
            f"min_service_ms={params.min_service_ms}"
        )
    if compiled.n == 0:
        return 0
    plan: "CompiledTrace | _CompiledRun | KernelRun" = compiled
    if _eager_eligible(ctrl):
        core = _eager_core(ctrl, "eager")
        # One plan, built once: the exact replay after a tie abort runs
        # what the eager attempt ran — a _CompiledRun for the Python
        # cores, validated columns for the compiled ones (_kernel_core
        # gives both tiers the kernel or neither).
        plan = core.plan(compiled)
        # The batches reach the controller only once the finish stands:
        # a late tie abort must leave it untouched.
        batches: list[tuple] = []

        def keep(*batch) -> None:
            batches.append(batch)

        if core.feed(plan, keep) and core.finish(keep):
            sink = _controller_sink(ctrl)
            for batch in batches:
                sink(*batch)
            return compiled.n
        # An exact timestamp tie (order-ambiguous) left the controller
        # untouched: free the core's buffers, replay the same plan.
        del core, batches
        ctrl.obs.count("tie_abort_replays")
    return _step_exact(ctrl, plan)


def _write_back(
    ctrl: "ArrayController", busy, delay, reads, writes, last, now: float
) -> None:
    """Write an off-heap engine's per-disk state — busy time, queue
    delay, IO counts, last offsets (None: no IO yet) — and its clock
    ``now`` back into ``ctrl``: the one write-back of every
    ``finish``."""
    for disk, bt, dl, nr, nw, lo in zip(
        ctrl.disks, busy, delay, reads, writes, last
    ):
        disk.busy_time = bt
        disk.total_queue_delay = dl
        disk.completed_reads += nr
        disk.completed_writes += nw
        disk._last_offset = lo
    ctrl.sim.now = now


class _ExactCore:
    """The exact tier: the event heap's serialization over a private
    heap of in-flight completions, with window carry-over.

    A disk serves one IO at a time, so the heap holds at most ``v``
    ``(time, seq, action, disk, request)`` entries; every IO goes
    through one ``submit`` step, and queued IOs wait in per-disk FIFOs
    and take their seq when their service starts, as on
    :class:`repro.sim.disk.Disk`.  Arrivals are not pushed: the next
    epoch merges against the heap's head by ``(time, pump_seq)``.  Plans
    are :class:`repro.sim.compile._CompiledRun` objects, shared verbatim
    with the heap pump and the eager tier — same arrays, same fast-path
    classification, same dataplane contexts.

    It runs :class:`_EagerCore`'s feed/finish protocol: the per-disk
    FIFOs, the in-flight heap, the sequence counters and the in-flight
    requests persist across :meth:`feed` calls, and :meth:`finish`
    writes the disk state and clock back — :func:`step_compiled` feeds
    a whole plan once, the streaming executor one window at a time.  A feed
    stops right after its last arrival epoch, because the chained pump
    pulls the next window from inside that epoch's event: a next window
    whose first arrival shares the instant continues the epoch before
    the pump re-arms (``pump_seq`` is -1 while the epoch is held open).
    Each feed re-indexes the previous window's in-flight requests past
    its own arrivals, so one window plan is alive at a time.

    Each feed buffers its completions per kind in completion-event
    order — the order the heap appends them — and emits them into its
    sink at the end (read, write, then the generic kinds); it never
    aborts, so both calls return True.
    """

    __slots__ = (
        "ctrl",
        "dqueue",
        "dbusy",
        "dlast",
        "dbusyt",
        "ddelay",
        "dreads",
        "dwrites",
        "heap",
        "now",
        "seqc",
        "pump_seq",
        "_cols",
    )

    def __init__(self, ctrl: "ArrayController"):
        disks = ctrl.disks
        v = len(disks)
        self.ctrl = ctrl
        # Per-disk state, mirroring Disk but in parallel lists.
        self.dqueue: list[deque] = [deque() for _ in range(v)]
        self.dbusy = [False] * v
        self.dlast: list[int | None] = [d._last_offset for d in disks]
        self.dbusyt = [d.busy_time for d in disks]
        self.ddelay = [d.total_queue_delay for d in disks]
        self.dreads = [0] * v
        self.dwrites = [0] * v
        self.heap: list[tuple] = []
        self.now = ctrl.sim.now
        # Sequence numbers replay the heap's: the arrival pump is armed
        # first, then every submission takes the next number.
        self.seqc = 0
        self.pump_seq = -1
        # The last fed window's per-request columns: arrival times,
        # wfast, plans, then the progress counters wrem (RMW fast path:
        # IOs outstanding in the current phase), grem (generic plans:
        # the same) and gidx (generic plans: next phase index).
        self._cols: tuple = ((), (), (), (), (), ())

    def _columns(self, run: _CompiledRun) -> tuple:
        """``run``'s per-request columns, with the previous window's
        in-flight requests (the ones a heap or queue entry still names)
        moved to indices past its arrivals."""
        n = run.n
        cols = [run.times, run.wfast, run.plans, [0] * n, [0] * n, [0] * n]
        moved: dict[int, int] = {}

        def move(r: int) -> int:
            j = moved.get(r)
            if j is None:
                j = moved[r] = n + len(moved)
            return j

        heap = self.heap
        # Same (time, seq) keys, so the list stays a valid heap.
        heap[:] = [(t, s, a, d, move(r)) for t, s, a, d, r in heap]
        for q in self.dqueue:
            if q:
                entries = [(t, off, a, move(r)) for t, off, a, r in q]
                q.clear()
                q.extend(entries)
        if moved:
            # Copies, not in-place extends: run's own lists stay as
            # planned.
            for i, old in enumerate(self._cols):
                cols[i] = cols[i] + [old[r] for r in moved]
        return tuple(cols)

    def feed(self, run: "_CompiledRun | CompiledTrace | None", sink) -> bool:
        """Replay one trace or window (planned here unless it comes as a
        :class:`~repro.sim.compile._CompiledRun`) up to and including
        its last arrival epoch, then emit its completions into
        ``sink``; ``run=None`` ends the stream and retires everything
        still in flight."""
        ctrl = self.ctrl
        if run is not None and not isinstance(run, _CompiledRun):
            run = _CompiledRun(ctrl, run)
        if run is None:
            n = 0
            single = writes = ()
        else:
            n = run.n
            single = run.single
            writes = run.writes
            if ctrl.data is not None and ctrl._fold_write_dataplane(
                run._compiled
            ):
                # The core owns the timeline: the plan's healthy small
                # writes land in one fold, not one numpy write each.
                writes = (None,) * n
            self._cols = self._columns(run)
        atimes, wfast, plans, wrem, grem, gidx = self._cols
        params = ctrl.params
        seq_s = params.sequential_service_ms
        avg_s = params.average_service_ms
        dqueue = self.dqueue
        dbusy = self.dbusy
        dlast = self.dlast
        dbusyt = self.dbusyt
        ddelay = self.ddelay
        dreads = self.dreads
        dwrites = self.dwrites

        # This feed's completions per kind: (latencies, completion times).
        rl, rc, wl, wc = [], [], [], []
        rl_app, rc_app, wl_app, wc_app = rl.append, rc.append, wl.append, wc.append
        generic: dict[str, tuple[list[float], list[float]]] = {}

        heap = self.heap
        now = self.now
        seqc = self.seqc
        pump_seq = self.pump_seq
        if pump_seq < 0 and n and atimes[0] != now:
            # The held-open epoch does not continue here: the pump
            # re-arms after its submissions.
            pump_seq = seqc
            seqc += 1
        ai = 0  # next arrival index

        def submit(d: int, off: int, action: int, req: int) -> None:
            """Disk.submit at ``now``, for every IO a request issues:
            queue on a busy disk, start service on an idle one."""
            nonlocal seqc
            if dbusy[d]:
                dqueue[d].append((now, off, action, req))
                return
            dbusy[d] = True
            last = dlast[d]
            s = seq_s if last is not None and -1 <= off - last <= 1 else avg_s
            dlast[d] = off
            dbusyt[d] += s
            heappush(heap, (now + s, seqc, action, d, req))
            seqc += 1

        def start_phase(req: int, i: int) -> None:
            """Submit phase ``i`` of request ``req``'s generic plan."""
            phase = plans[req][1][i]
            gidx[req] = i + 1
            grem[req] = len(phase)
            for d, off, is_w in phase:
                submit(d, off, _GENERIC_WRITE if is_w else _GENERIC_READ, req)

        while True:
            if heap:
                top = heap[0]
                if ai < n:
                    at = atimes[ai]
                    arrival = at < top[0] or (
                        at == top[0] and pump_seq < top[1]
                    )
                else:
                    arrival = False
            elif ai < n:
                at = atimes[ai]
                arrival = True
            else:
                break
            if arrival:
                # Arrival epoch: submit every request sharing this arrival
                # time, in stream order (the heap pump).
                now = at
                while ai < n and atimes[ai] == at:
                    r = ai
                    ai += 1
                    pos = single[r]
                    if pos is not None:
                        # Healthy/degraded single-IO read.
                        d, off = pos
                        submit(d, off, _READ_FAST, r)
                        continue
                    winfo = writes[r]
                    if winfo is not None:
                        sid, wd, woff, lba = winfo
                        ctrl._apply_write_dataplane(
                            sid, wd, woff, ctrl._default_payload(lba)
                        )
                    w = wfast[r]
                    if w is not None:
                        # RMW phase 1: read old data + parity.
                        wrem[r] = 2
                        d, off, pd, poff = w
                        submit(d, off, _RMW_PHASE1, r)
                        submit(pd, poff, _RMW_PHASE1, r)
                        continue
                    start_phase(r, 0)
                if ai < n:
                    # The pump re-arms for the next epoch *after* this
                    # epoch's submissions (heap order).
                    pump_seq = seqc
                    seqc += 1
                    continue
                # The plan's last epoch: hold it open for the next feed.
                pump_seq = -1
                break

            t, _seq, action, d, req = heappop(heap)
            now = t
            # --- the completion itself (Disk._service_done).
            if action == _READ_FAST:
                dreads[d] += 1
                rl_app(t - atimes[req])
                rc_app(t)
            elif action == _RMW_PHASE1:
                dreads[d] += 1
                left = wrem[req] - 1
                wrem[req] = left
                if not left:
                    # Phase 2: write new data, then new parity.
                    wrem[req] = 2
                    d2, off, pd, poff = wfast[req]
                    submit(d2, off, _RMW_WRITE, req)
                    submit(pd, poff, _RMW_WRITE, req)
            elif action == _RMW_WRITE:
                dwrites[d] += 1
                left = wrem[req] - 1
                wrem[req] = left
                if not left:
                    wl_app(t - atimes[req])
                    wc_app(t)
            else:
                if action == _GENERIC_WRITE:
                    dwrites[d] += 1
                else:
                    dreads[d] += 1
                left = grem[req] - 1
                grem[req] = left
                if not left:
                    kind, phases = plans[req]
                    if gidx[req] < len(phases):
                        start_phase(req, gidx[req])
                    else:
                        buf = generic.get(kind)
                        if buf is None:
                            buf = generic[kind] = ([], [])
                        buf[0].append(t - atimes[req])
                        buf[1].append(t)
            # --- start the disk's next queued IO (Disk._start_next).
            q = dqueue[d]
            if q:
                t_issue, off, a2, r2 = q.popleft()
                s = seq_s if -1 <= off - dlast[d] <= 1 else avg_s
                dlast[d] = off
                dbusyt[d] += s
                ddelay[d] += t - t_issue
                heappush(heap, (t + s, seqc, a2, d, r2))
                seqc += 1
            else:
                dbusy[d] = False

        self.now = now
        self.seqc = seqc
        self.pump_seq = pump_seq
        for kind, (lats, comps) in (
            ("read", (rl, rc)),
            ("write", (wl, wc)),
            *generic.items(),
        ):
            if lats:
                sink(kind, np.array(lats), np.array(comps))
        return True

    def finish(self, sink) -> bool:
        """Retire everything still in flight into ``sink``, then write
        the accumulated disk state and the clock back into the
        controller."""
        self.feed(None, sink)
        state = self.dbusyt, self.ddelay, self.dreads, self.dwrites, self.dlast
        _write_back(self.ctrl, *state, self.now)
        return True


def _kernel_core(ctrl: "ArrayController", name: str):
    """The compiled kernel's core class ``name`` (from
    :mod:`repro.sim.native`) on ``ctrl``, when its data plane, if
    attached, folds its writes
    (:meth:`~repro.sim.controller.ArrayController._folds_writes`) and
    the kernel loaded on this host; else None.  (The eager factory asks
    only inside the eager domain.)"""
    if ctrl.data is not None and not ctrl._folds_writes():
        return None
    # Imported here, not at module level: `import repro` stays free of
    # the loader's ctypes/subprocess imports.
    from . import native

    lib = native.kernel()
    return None if lib is None else getattr(native, name)(lib, ctrl)


def _eager_core(
    ctrl: "ArrayController", label: str
) -> "_EagerCore | NativeEagerCore":
    """The eager tier's core for one run on ``ctrl``, labelled
    ``label`` — the twin of :func:`_exact_core`.

    The compiled kernel (:class:`repro.sim.native.NativeEagerCore`,
    executor ``eager-native``) runs when it loaded on this host, the
    Python :class:`_EagerCore` (executor ``eager``) where it did not.

    Raises:
        ValueError: if ``ctrl`` is not eager-eligible
            (:func:`_eager_eligible`), a degraded controller say: the
            gates send those to :func:`_exact_core`, so a gate slipped.
    """
    if not _eager_eligible(ctrl):
        raise ValueError(
            "the eager tier takes healthy rmw controllers without a data "
            f"plane only, got failed_disk={ctrl.failed_disk}, "
            f"write_policy={ctrl.write_policy!r}, data plane "
            f"{ctrl.data is not None}, params {ctrl.params}"
        )
    core = _kernel_core(ctrl, "NativeEagerCore")
    ctrl.set_engine(label, "eager" if core is None else "eager-native")
    return _EagerCore(ctrl) if core is None else core


def _exact_core(
    ctrl: "ArrayController", label: str
) -> "_ExactCore | NativeExactCore":
    """The exact tier's core for one replay on ``ctrl``, labelled
    ``label`` — the factory every exact replay goes through.

    The compiled kernel (:class:`repro.sim.native.NativeExactCore`,
    executor ``exact-native``) takes every plan a controller makes —
    healthy or degraded, ``rmw`` or write-through — when a data plane,
    if attached, folds its writes and the kernel loaded on this host.
    The Python :class:`_ExactCore` (executor ``exact-core``) replays
    the rest: a data plane observed by hooks, and hosts where the
    kernel did not build."""
    core = _kernel_core(ctrl, "NativeExactCore")
    ctrl.set_engine(label, "exact-core" if core is None else "exact-native")
    return _ExactCore(ctrl) if core is None else core


def _step_exact(
    ctrl: "ArrayController",
    plan: "CompiledTrace | _CompiledRun | KernelRun",
    label: str = "calendar",
) -> int:
    """The exact tier on one whole plan: a single feed of the core
    :func:`_exact_core` picks, labelled ``calendar`` (a canonical report
    field) — or, for a quiet shard the fleet gate replays beside armed
    ones, ``heap``: the serialization it reproduces."""
    core = _exact_core(ctrl, label)
    sink = _controller_sink(ctrl)
    core.feed(plan, sink)
    core.finish(sink)
    return plan.n
