"""The compiled off-heap cores: build, load and drive ``exactcore.c``.

One C library carries twins of both of :mod:`repro.sim.batchstep`'s
Python cores — the same feed/finish protocol, the same float
operations in the same order, so the same bits:

* :class:`NativeEagerCore` twins :class:`~repro.sim.batchstep._EagerCore`
  (executor ``eager-native``) on the eager tier's domain, healthy
  single-IO reads and read-modify-writes: FIFO resolution at
  submission, the same pending-phase heap and the same two tie-abort
  rules; a feed returns False on a tie abort before it emits anything;
* :class:`NativeExactCore` twins :class:`~repro.sim.batchstep._ExactCore`
  (executor ``exact-native``) on every plan
  :meth:`~repro.sim.controller.ArrayController.request_plan` makes —
  degraded and write-through ones as generic plans, a kind and one or
  two phases of IOs: the event heap's ``(time, seq)`` serialization.

The factories :func:`repro.sim.batchstep._eager_core` and
:func:`~repro.sim.batchstep._exact_core` hand them every run they can
take — the exact core's, any controller whose data plane, if attached,
folds its writes — and keep the Python cores for hooked data planes
and hosts where the kernel did not build; those stay the references
the tests compare against.  The eager tier takes nothing else (its
factory refuses a degraded controller), so both eager cores cover one
domain.

The kernel reads columns, not per-request tuples, prepared and
validated for both cores by one helper (:func:`_columns`): arrival
times as ``base + compiled.times`` (the float op
:class:`repro.sim.compile._CompiledRun` uses), request classes (a
read-modify-write, a read, a generic plan; for a healthy ``rmw`` trace
its read flags), data units, one
:meth:`~repro.layouts.AddressMapper.map_batch_parity` pass for the
writes' units, and the generic plans' kinds, phase sizes and IOs, cut
in numpy from a padded per-stripe unit table (:func:`_unit_table`) —
one :class:`KernelRun` per trace, which
:func:`repro.sim.batchstep.step_compiled` hands the exact core after an
eager tie abort.  Each feed returns each kind's latencies and
completion times as float64 arrays: the exact core's in
completion-event order, handed to the sink as they are (read, then
write, then the generic kinds in first-completion order, as the Python
core emits them); the eager core's in retire order, pooled and drained
by :func:`repro.sim.compile._drain_pools` exactly as the Python eager
core's are.

Build and load
--------------
:func:`kernel` compiles ``exactcore.c`` on first use with the C
compiler ``sysconfig`` names, ``-O2 -shared -fPIC -ffp-contract=off``
(never ``-ffast-math``: a contracted multiply-add or a reassociated sum
would change the bits).  The library lands in this module's
``__pycache__`` — or, when that is not writable, in a per-user 0700
directory under the tempdir whose owner is checked — named by a hash
of the source, the compiler command, the flags and the platform.  Each
compile writes a temporary name that ``os.replace`` then moves into
place, so concurrent processes (pool workers) never load a
half-written file.
Nothing happens at import: the first eligible run builds or loads the
kernel.  When anything fails — no compiler, a compile error, no
writable directory, a failed ``dlopen`` — :func:`kernel` returns None,
one ``RuntimeWarning`` per process names the reason, and the Python
cores run instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import warnings
import weakref
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .batchstep import _write_back
from .compile import _CompiledRun, _drain_pools

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from .compile import CompiledTrace
    from .controller import ArrayController

__all__ = ["NativeEagerCore", "NativeExactCore", "kernel"]

#: The kernel's source, shipped beside this module.
SOURCE = Path(__file__).with_name("exactcore.c")
#: Compile flags: optimized, position-independent, and no floating-point
#: contraction, so every operation rounds as the Python core's does.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double

#: ``xe_feed``'s return code for a tie abort (errors are negative).
_TIE = 1

#: Request classes (``xc_feed``'s ``cls`` column): a read-modify-write
#: and a read are the fast paths; the generic plan comes last.
_RMW, _READ, _GENERIC = 0, 1, 2
#: Generic plans' kinds, by the code the kernel hands back.
_KINDS = ("write", "degraded_read", "degraded_write")


class KernelUnavailable(RuntimeError):
    """The kernel could not be built or loaded here (the message says
    why)."""


def _compiler() -> list[str]:
    """The C compiler command ``sysconfig`` names, split into argv."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise KernelUnavailable("sysconfig names no C compiler")
    cmd = shlex.split(cc)
    if shutil.which(cmd[0]) is None:
        raise KernelUnavailable(f"C compiler {cmd[0]!r} not found")
    return cmd


def _cache_dir() -> Path:
    """This module's ``__pycache__`` when writable, else a private
    per-user directory under the tempdir (created 0700; refused unless
    it is a directory owned by this user that nobody else can open)."""
    here = SOURCE.with_name("__pycache__")
    try:
        here.mkdir(exist_ok=True)
    except OSError:
        pass
    else:
        if os.access(here, os.W_OK | os.X_OK):
            return here
    if not hasattr(os, "getuid"):
        raise KernelUnavailable(f"cache directory {here} is not writable")
    uid = os.getuid()
    private = Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    try:
        private.mkdir(mode=0o700, exist_ok=True)
        st = private.lstat()
    except OSError as exc:
        raise KernelUnavailable(f"no writable cache directory ({exc})") from None
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != uid
        or stat.S_IMODE(st.st_mode) & 0o077
    ):
        raise KernelUnavailable(f"cache directory {private} is not private")
    return private


def _build(cache: Path) -> Path:
    """The kernel library in ``cache`` for this source, compiler, flags
    and platform, compiled there first when missing."""
    cc = _compiler()
    key = hashlib.sha256(
        b"\0".join(
            [SOURCE.read_bytes()]
            + [a.encode() for a in (*cc, *FLAGS, sysconfig.get_platform())]
        )
    ).hexdigest()[:16]
    lib = cache / f"exactcore-{key}.so"
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(prefix=f".{lib.name}.", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            first = lines[0] if lines else f"exit status {proc.returncode}"
            raise KernelUnavailable(f"{cc[0]} failed: {first}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load(path: Path) -> ctypes.CDLL:
    """``dlopen`` the kernel and declare its signatures."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelUnavailable(f"dlopen failed: {exc}") from None
    feed = [
        _P, _I64, _P, _P, _P, _P,  # core, n, at, isr, d, off
        _I64, _P, _P, _P, _P,  # nw, wd, wo, wpd, wpo
        _P, _P, _I64,  # rlat, rcomp, rcap
        _P, _P, _I64, _P,  # wlat, wcomp, wcap, counts
    ]
    for core in ("xc", "xe"):  # the exact core, the eager core
        new, free, step = (
            getattr(lib, f"{core}_{f}") for f in ("new", "free", "feed")
        )
        new.argtypes = [_I64, _F64, _F64, _F64, _P, _P, _P, _P]
        new.restype = _P
        free.argtypes = [_P]
        free.restype = None
        step.argtypes = feed
        step.restype = ctypes.c_int
    lib.xc_feed.argtypes = feed + [
        _I64, _P, _P, _I64, _P, _P, _P, _I64,  # ng, kind, sizes, nio, IOs, gmax
        _P, _P, _P, _I64,  # glat, gcomp, gk, gcap
    ]
    lib.xd_state.argtypes = [_P] * 8
    lib.xd_state.restype = None
    return lib


@functools.cache
def kernel() -> ctypes.CDLL | None:
    """The loaded kernel, built on first use; None when it cannot be
    built or loaded on this host (an ``OSError`` — an unreadable source,
    an unwritable cache, a compiler that would not start — counts too).
    The first failure in a process raises one ``RuntimeWarning``
    naming the reason."""
    try:
        return _load(_build(_cache_dir()))
    except (KernelUnavailable, OSError) as exc:
        warnings.warn(
            f"compiled cores unavailable: {exc}; the eager and exact "
            "tiers run on their Python cores",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


#: Each layout's padded unit table (:func:`_unit_table`), keyed by its
#: registry-shared mapper.
_UNIT_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _unit_table(mapper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stripes of ``mapper``'s layout as ``(b, k_max)`` tables —
    unit disks (-1 past a stripe's last unit), unit offsets and parity
    flags — in ``Stripe.units`` order, the order
    :meth:`~repro.sim.controller.ArrayController.request_plan` lists
    them in; built once per layout."""
    table = _UNIT_TABLES.get(mapper)
    if table is None:
        stripes = mapper.layout.stripes
        sizes = np.array([s.size for s in stripes], dtype=np.int64)
        row = np.repeat(np.arange(len(stripes)), sizes)
        col = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        units = np.array([u for s in stripes for u in s.units], dtype=np.int64)
        disks = np.full((len(stripes), sizes.max()), -1, dtype=np.int64)
        offsets = np.zeros_like(disks)
        parity = np.zeros(disks.shape, dtype=bool)
        disks[row, col], offsets[row, col] = units.T
        pidx = [s.parity_index for s in stripes]
        parity[np.arange(len(stripes)), pidx] = True
        table = _UNIT_TABLES[mapper] = (disks, offsets, parity)
    return table


def _generic(ctrl, compiled, is_read, widx, w) -> tuple:
    """The generic plans of ``compiled`` on ``ctrl`` (degraded reads,
    degraded writes, write-through writes), as ``(rows, gcols, fast)``:
    their request indices in arrival order; their columns — kind codes,
    phase sizes (two per plan), the IOs' disks, offsets and write flags
    phase by phase, and the largest phase there can be; and the mask of
    the writes ``w`` (``map_batch_parity``'s columns) that stay fast
    read-modify-writes.  Every plan equals ``request_plan``'s, built
    the way :class:`~repro.sim.compile._CompiledRun` plans it: a
    write's units from ``w``, a read's from ``compiled``."""
    wd, wo, ws, wpd = w[:4]
    fail = -1 if ctrl.failed_disk is None else ctrl.failed_disk
    rmw = ctrl.write_policy == "rmw"
    fast = (wd != fail) & (wpd != fail) & rmw
    generic = is_read & (compiled.disks == fail)
    generic[widx[~fast]] = True
    rows = np.flatnonzero(generic)
    read = is_read[rows]
    d = _int64(compiled.disks[rows])
    o = _int64(compiled.offsets[rows])
    sid = _int64(compiled.stripes[rows])
    k = np.searchsorted(widx, rows[~read])
    d[~read], o[~read], sid[~read] = wd[k], wo[k], ws[k]
    sid %= ctrl.layout.b
    udisk, uoff, upar = (t[sid] for t in _unit_table(ctrl.mapper))
    pdisk, poff = udisk[upar], uoff[upar]
    dfail = ~read & (d == fail)
    pfail = ~read & (pdisk == fail)
    healthy = ~read & ~dfail & ~pfail
    # Columns: the stripe's units (read), the data unit, then parity
    # (written); a data-failed read-modify-write reads the other data
    # units and writes parity after them.
    take = np.column_stack(
        [
            (udisk >= 0)
            & (udisk != fail)
            & (read | (dfail & rmw))[:, None]
            & (read[:, None] | ~upar),
            pfail | healthy,
            dfail | healthy,
        ]
    )
    second = (dfail & rmw) & take[:, :-2].any(axis=1)
    writes = np.zeros(take.shape, dtype=np.uint8)
    writes[:, -2:] = 1
    sizes = take.sum(axis=1)
    gcols = (  # kind codes index _KINDS
        np.where(read, 1, np.where(healthy, 0, 2)).astype(np.uint8),
        np.column_stack([sizes - second, second]).ravel(),
        np.column_stack([udisk, d, pdisk])[take],
        np.column_stack([uoff, o, poff])[take],
        writes[take],
        udisk.shape[1],
    )
    return rows, gcols, fast


def _columns(
    ctrl: "ArrayController", compiled: "CompiledTrace", base: float
) -> tuple:
    """``compiled``'s kernel columns for either core: arrival times
    ``base + compiled.times`` (the float op
    :class:`~repro.sim.compile._CompiledRun` uses), request classes as
    bytes, data units, the fast writes' data and parity units, ``(wd,
    wo, wpd, wpo)``, from one ``map_batch_parity`` pass, and the
    generic plans' columns (:func:`_generic`; empty on a healthy
    ``rmw`` controller, whose classes are its read flags) — every
    column validated before the kernel sees it.

    Raises:
        ValueError: on ragged columns, a non-finite arrival time, a disk
            id outside ``[0, v)`` or a negative offset.
    """
    n = compiled.n
    at = np.ascontiguousarray(base + compiled.times, dtype=np.float64)
    is_read = np.ascontiguousarray(compiled.is_read, dtype=np.bool_)
    disks = _int64(compiled.disks)
    offsets = _int64(compiled.offsets)
    if any(len(c) != n for c in (is_read, disks, offsets, compiled.stripes)):
        raise ValueError("compiled kernel: ragged input columns")
    if not np.isfinite(at).all():
        # A NaN never compares equal, so the exact core's epoch loop
        # would never end.
        raise ValueError("compiled kernel: non-finite arrival time")
    widx = np.flatnonzero(~is_read)
    w = ctrl.mapper.map_batch_parity(compiled.lbas[widx])
    if any(len(c) != widx.size for c in w):
        raise ValueError("compiled kernel: ragged write columns")
    cls = is_read.view(np.uint8)
    gcols = _NO_PLANS
    if ctrl.failed_disk is not None or ctrl.write_policy != "rmw":
        rows, gcols, fast = _generic(ctrl, compiled, is_read, widx, w)
        cls = cls.copy()
        cls[rows] = _GENERIC
        w = [c[fast] for c in w]
    wcols = [_int64(c) for c in (w[0], w[1], w[3], w[4])]
    # The kernel indexes per-disk arrays with these ids and trusts its
    # adjacency arithmetic to non-negative offsets.
    v = len(ctrl.disks)
    for col in (disks, wcols[0], wcols[2], gcols[2]):
        if col.size and not (0 <= col.min() and col.max() < v):
            raise ValueError("compiled kernel: disk id out of range")
    for col in (offsets, wcols[1], wcols[3], gcols[3]):
        if col.size and col.min() < 0:
            raise ValueError("compiled kernel: negative offset")
    return at, cls, disks, offsets, wcols, gcols


_NO_U8, _NO_I64 = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
#: The generic columns of a trace without generic plans.
_NO_PLANS = (_NO_U8, _NO_I64, _NO_I64, _NO_I64, _NO_U8, 0)
#: The columns of the feed that ends a stream.
_END = (np.empty(0), _NO_U8, _NO_I64, _NO_I64, [_NO_I64] * 4, _NO_PLANS)


def _ptrs(*arrays: np.ndarray) -> list[int]:
    return [a.ctypes.data for a in arrays]


class KernelRun:
    """A trace's kernel columns (:func:`_columns`), built and
    validated once for either compiled core — the kernel's counterpart
    of :class:`~repro.sim.compile._CompiledRun`: the exact replay after
    an eager tie abort runs the columns the eager attempt ran."""

    __slots__ = ("compiled", "n", "cols")

    def __init__(
        self, ctrl: "ArrayController", compiled: "CompiledTrace", base: float
    ):
        self.compiled = compiled
        self.n = compiled.n
        self.cols = _columns(ctrl, compiled, base)


class _KernelCore:
    """What both compiled cores share: a kernel-side core built from
    the controller's disk state, fed validated columns, and read back
    and freed by ``finish`` (a ``weakref.finalize`` frees an abandoned
    core's memory).  Arrival times are ``base + times`` from the clock
    at construction: the core owns the timeline, so the base stays put
    across feeds."""

    __slots__ = ("ctrl", "_lib", "_core", "_free", "_feed", "_base",
                 "_pending", "__weakref__")
    #: The kernel's entry-point prefix: ``xc`` exact, ``xe`` eager.
    _PREFIX = ""
    #: The name errors carry.
    _NAME = ""

    def __init__(
        self, lib: ctypes.CDLL, ctrl: "ArrayController", clock: float
    ):
        disks = ctrl.disks
        params = ctrl.params
        last = [d._last_offset for d in disks]
        offsets = _int64([0 if o is None else o for o in last])
        has_last = np.array([o is not None for o in last], dtype=np.uint8)
        busyt = np.array([d.busy_time for d in disks], dtype=np.float64)
        delay = np.array([d.total_queue_delay for d in disks], dtype=np.float64)
        core = getattr(lib, f"{self._PREFIX}_new")(
            len(disks),
            params.sequential_service_ms,
            params.average_service_ms,
            clock,
            offsets.ctypes.data,
            has_last.ctypes.data,
            busyt.ctypes.data,
            delay.ctypes.data,
        )
        if not core:
            raise MemoryError(f"{self._NAME}: allocation failed")
        self.ctrl = ctrl
        self._lib = lib
        self._core = core
        self._free = weakref.finalize(
            self, getattr(lib, f"{self._PREFIX}_free"), core
        )
        self._feed = getattr(lib, f"{self._PREFIX}_feed")
        self._base = ctrl.sim.now
        # Requests fed but not yet completed, per class (read, fast
        # write, generic plan): they bound the next call's buffers.
        self._pending = [0, 0, 0]

    def plan(self, compiled: "CompiledTrace") -> KernelRun:
        """The plan this core runs ``compiled`` as: its validated
        columns, from the stream base."""
        return KernelRun(self.ctrl, compiled, self._base)

    def _columns_of(self, plan) -> KernelRun | None:
        """``plan`` (a trace, a :class:`KernelRun`, or a
        :class:`~repro.sim.compile._CompiledRun`, read for its trace and
        base only — the kernel needs no per-request tuples) as columns;
        None when it is empty."""
        if not plan.n:
            return None
        if isinstance(plan, KernelRun):
            return plan
        if isinstance(plan, _CompiledRun):
            return KernelRun(self.ctrl, plan._compiled, plan._base)
        return self.plan(plan)

    def _run(self, cols: tuple | None) -> list | None:
        """One kernel feed of ``cols`` (None ends the stream).  Returns
        the completed requests' ``(kind, lats, comps)`` arrays — read,
        write, then the generic plans' kinds in first-completion order
        — or None on a tie abort, which frees the core."""
        if not self._free.alive:
            raise RuntimeError(
                f"{self._NAME}: fed after finish() or a tie abort"
            )
        at, cls, disks, offsets, wcols, gcols = _END if cols is None else cols
        n, nw, ng = at.size, wcols[0].size, gcols[0].size
        caps = [p + c for p, c in zip(self._pending, (n - nw - ng, nw, ng))]
        rlat, rcomp, wlat, wcomp, glat, gcomp = np.split(
            np.empty(2 * sum(caps)), np.cumsum(np.repeat(caps, 2))[:-1]
        )
        gk = np.empty(caps[2], dtype=np.uint8)
        counts = np.zeros(3, dtype=np.int64)
        args = [
            self._core, n, *_ptrs(at, cls, disks, offsets), nw,
            *_ptrs(*wcols, rlat, rcomp), caps[0], *_ptrs(wlat, wcomp), caps[1],
            counts.ctypes.data,
        ]
        if self._PREFIX == "xc":  # the exact core takes generic plans
            kind, sizes, gd, go, gw, gmax = gcols
            args += [
                ng, *_ptrs(kind, sizes), gd.size, *_ptrs(gd, go, gw), gmax,
                *_ptrs(glat, gcomp, gk), caps[2],
            ]
        rc = self._feed(*args)
        if rc == _TIE:
            self._free()
            return None
        if rc:
            raise (MemoryError if rc == -1 else RuntimeError)(
                f"{self._NAME}: feed failed (code {rc})"
            )
        k_read, k_write, k_gen = got = counts.tolist()
        self._pending = [c - k for c, k in zip(caps, got)]
        batches = [
            ("read", rlat[:k_read], rcomp[:k_read]),
            ("write", wlat[:k_write], wcomp[:k_write]),
        ]
        if k_gen:
            gk, glat, gcomp = gk[:k_gen], glat[:k_gen], gcomp[:k_gen]
            codes, first = np.unique(gk, return_index=True)
            for code in codes[np.argsort(first)]:
                mine = gk == code
                batches.append((_KINDS[code], glat[mine], gcomp[mine]))
        return batches

    def _state(self) -> tuple:
        """Read the kernel's per-disk state back and free its memory:
        ``(busy, delay, reads, writes, last offsets, clock)``, with None
        for a disk that served no IO yet."""
        v = len(self.ctrl.disks)
        busyt = np.empty(v)
        delay = np.empty(v)
        reads = np.empty(v, dtype=np.int64)
        writes = np.empty(v, dtype=np.int64)
        last = np.empty(v, dtype=np.int64)
        has_last = np.empty(v, dtype=np.uint8)
        clock = ctypes.c_double()
        self._lib.xd_state(
            self._core,
            busyt.ctypes.data,
            delay.ctypes.data,
            reads.ctypes.data,
            writes.ctypes.data,
            last.ctypes.data,
            has_last.ctypes.data,
            ctypes.byref(clock),
        )
        self._free()
        offsets = [
            lo if has else None
            for lo, has in zip(last.tolist(), has_last.tolist())
        ]
        return (
            *(a.tolist() for a in (busyt, delay, reads, writes)),
            offsets,
            clock.value,
        )


class NativeExactCore(_KernelCore):
    """:class:`repro.sim.batchstep._ExactCore`'s feed/finish protocol on
    the compiled kernel, for any failure state and write policy (the
    factory checks that a data plane, if attached, folds its writes).

    The kernel's state — per-disk FIFOs, the in-flight heap, the
    sequence counters and the in-flight requests — persists across
    :meth:`feed` calls; :meth:`finish` retires everything in flight,
    writes the disk state and the clock back, and frees the kernel's
    memory."""

    __slots__ = ()
    _PREFIX = "xc"
    _NAME = "compiled exact core"

    def __init__(self, lib: ctypes.CDLL, ctrl: "ArrayController"):
        super().__init__(lib, ctrl, ctrl.sim.now)

    def feed(
        self, plan: "CompiledTrace | KernelRun | _CompiledRun", sink
    ) -> bool:
        """Replay one trace or window up to and including its last
        arrival epoch (held open for the next feed), emitting its
        completions into ``sink``."""
        run = self._columns_of(plan)
        if run is None:
            return True
        ctrl = self.ctrl
        if ctrl.data is not None and not ctrl._fold_write_dataplane(
            run.compiled
        ):
            raise RuntimeError("compiled exact core: data-plane fold declined")
        self._emit(self._run(run.cols), sink)
        return True

    def finish(self, sink) -> bool:
        """Retire everything still in flight into ``sink``, then write
        the disk state and the clock back into the controller and free
        the kernel's memory."""
        self._emit(self._run(None), sink)
        _write_back(self.ctrl, *self._state())
        return True

    @staticmethod
    def _emit(batches, sink) -> None:
        for kind, lats, comps in batches:
            if lats.size:
                sink(kind, lats, comps)


class NativeEagerCore(_KernelCore):
    """:class:`repro.sim.batchstep._EagerCore`'s feed/finish protocol on
    the compiled kernel, for the eager tier's whole domain — a healthy
    ``rmw`` controller without a data plane (the factory checks).

    The per-disk accumulators and the pending phase-2 heap persist in
    the kernel across :meth:`feed` calls, and the undrained samples in
    :func:`~repro.sim.compile._drain_pools` pools here, as in the Python
    core: each feed emits every sample no later request can precede.
    A tie abort — :meth:`feed` or :meth:`finish` returning False —
    emits nothing, leaves the controller untouched and frees the
    kernel's memory: the core is spent, and the caller replays
    exactly."""

    __slots__ = ("_pools",)
    _PREFIX = "xe"
    _NAME = "compiled eager core"

    def __init__(self, lib: ctypes.CDLL, ctrl: "ArrayController"):
        # The kernel's clock is the latest completion so far.
        super().__init__(lib, ctrl, float("-inf"))
        self._pools: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def feed(
        self, plan: "CompiledTrace | KernelRun | _CompiledRun", sink
    ) -> bool:
        """Consume one trace or window, then emit every sample with
        completion <= its last arrival.  Returns False on an ambiguous
        tie, before emitting anything."""
        run = self._columns_of(plan)
        if run is None:
            return True
        return self._drain(self._run(run.cols), float(run.cols[0][-1]), sink)

    def finish(self, sink) -> bool:
        """Retire every pending phase 2, emit the remaining samples, and
        write the disk state and clock back.  Returns False on a late
        ambiguous tie (controller still untouched)."""
        if not self._drain(self._run(None), float("inf"), sink):
            return False
        *state, maxc = self._state()
        now = maxc if maxc > float("-inf") else self.ctrl.sim.now
        _write_back(self.ctrl, *state, now)
        return True

    def _drain(self, batches, threshold: float, sink) -> bool:
        """Pool one feed's samples and emit those with completion <=
        ``threshold`` (False, emitting nothing, after a tie abort)."""
        if batches is None:
            return False
        fresh = [(k, comps, lats) for k, lats, comps in batches if lats.size]
        _drain_pools(self._pools, fresh, threshold, sink)
        return True
