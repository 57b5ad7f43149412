"""The exact tier's compiled core: build, load and drive ``exactcore.c``.

:class:`NativeExactCore` is a C twin of
:class:`repro.sim.batchstep._ExactCore` for plans made only of healthy
single-IO reads and healthy read-modify-writes: the same feed/finish
protocol, the same ``(time, seq)`` serialization, the same float
operations in the same order — so the same bits.  The factory
:func:`repro.sim.batchstep._exact_core` hands it every replay it can
take (a healthy ``rmw`` controller whose data plane, if any, folds its
writes) and keeps the Python core for everything else, which stays the
reference the tests compare against.

The kernel reads columns, not per-request tuples: arrival times as
``base + compiled.times`` (the float op
:class:`repro.sim.compile._CompiledRun` uses), read flags, data units,
and one :meth:`~repro.layouts.AddressMapper.map_batch_parity` pass for
the writes' units.  It returns each kind's latencies and completion
times in completion-event order, as float64 arrays, and
:class:`NativeExactCore` hands them to the feed's sink as they are —
read, then write, as the Python core emits them.

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
Nothing happens at import: the first eligible replay builds or loads
the kernel.  When anything fails — no compiler, a compile error, no
writable directory, a failed ``dlopen`` — :func:`kernel` returns None,
one ``RuntimeWarning`` per process names the reason, and the Python
core runs instead.
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
from .compile import _CompiledRun

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from .compile import CompiledTrace
    from .controller import ArrayController

__all__ = ["NativeExactCore", "kernel"]

#: The kernel's source, shipped beside this module.
SOURCE = Path(__file__).with_name("exactcore.c")
#: Compile flags: optimized, position-independent, and no floating-point
#: contraction, so every operation rounds as the Python core's does.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double


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
    lib.xc_new.argtypes = [_I64, _F64, _F64, _F64, _P, _P, _P, _P]
    lib.xc_new.restype = _P
    lib.xc_free.argtypes = [_P]
    lib.xc_free.restype = None
    lib.xc_feed.argtypes = [
        _P, _I64, _P, _P, _P, _P,  # core, n, at, isr, d, off
        _I64, _P, _P, _P, _P,  # nw, wd, wo, wpd, wpo
        _P, _P, _I64,  # rlat, rcomp, rcap
        _P, _P, _I64, _P,  # wlat, wcomp, wcap, counts
    ]
    lib.xc_feed.restype = ctypes.c_int
    lib.xc_state.argtypes = [_P] * 8
    lib.xc_state.restype = None
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
            f"compiled exact core unavailable: {exc}; exact replays run "
            "on the Python exact core",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


class NativeExactCore:
    """:class:`repro.sim.batchstep._ExactCore`'s feed/finish protocol on
    the compiled kernel, for a healthy ``rmw`` controller (the factory
    checks; a data plane must fold its writes).

    The kernel's state — per-disk FIFOs, the in-flight heap, the
    sequence counters and the in-flight requests — persists across
    :meth:`feed` calls; :meth:`finish` retires everything in flight,
    writes the disk state and the clock back, and frees the kernel's
    memory (a ``weakref.finalize`` frees an abandoned core's)."""

    __slots__ = ("ctrl", "_lib", "_core", "_free", "_base", "_pending",
                 "__weakref__")

    def __init__(self, lib: ctypes.CDLL, ctrl: "ArrayController"):
        disks = ctrl.disks
        params = ctrl.params
        last = [d._last_offset for d in disks]
        offsets = _int64([0 if o is None else o for o in last])
        has_last = np.array([o is not None for o in last], dtype=np.uint8)
        busyt = np.array([d.busy_time for d in disks], dtype=np.float64)
        delay = np.array([d.total_queue_delay for d in disks], dtype=np.float64)
        core = lib.xc_new(
            len(disks),
            params.sequential_service_ms,
            params.average_service_ms,
            ctrl.sim.now,
            offsets.ctypes.data,
            has_last.ctypes.data,
            busyt.ctypes.data,
            delay.ctypes.data,
        )
        if not core:
            raise MemoryError("compiled exact core: allocation failed")
        self.ctrl = ctrl
        self._lib = lib
        self._core = core
        self._free = weakref.finalize(self, lib.xc_free, core)
        # Arrival times are base + times, as _CompiledRun computes them;
        # the replay owns the clock, so the base stays put across feeds.
        self._base = ctrl.sim.now
        # Requests fed but not yet completed, per kind (read, write):
        # they bound the next call's sample buffers.
        self._pending = [0, 0]

    def feed(self, plan: "CompiledTrace | _CompiledRun", sink) -> bool:
        """Replay one trace or window up to and including its last
        arrival epoch (held open for the next feed), emitting its
        completions into ``sink``.  A
        :class:`~repro.sim.compile._CompiledRun` is read for its trace
        and base only — the kernel needs no per-request tuples."""
        ctrl = self.ctrl
        if isinstance(plan, _CompiledRun):
            compiled, base = plan._compiled, plan._base
        else:
            compiled, base = plan, self._base
        n = compiled.n
        if not n:
            return True
        at = np.ascontiguousarray(base + compiled.times, dtype=np.float64)
        is_read = np.ascontiguousarray(compiled.is_read, dtype=np.bool_)
        disks = _int64(compiled.disks)
        offsets = _int64(compiled.offsets)
        if any(len(c) != n for c in (is_read, disks, offsets)):
            raise ValueError("compiled exact core: ragged input columns")
        if not np.isfinite(at).all():
            # A NaN never compares equal, so the kernel's epoch loop
            # would never end.
            raise ValueError("compiled exact core: non-finite arrival time")
        widx = np.flatnonzero(~is_read)
        wd, wo, _ws, wpd, wpo = ctrl.mapper.map_batch_parity(compiled.lbas[widx])
        wcols = [_int64(c) for c in (wd, wo, wpd, wpo)]
        nw = widx.size
        if any(len(c) != nw for c in wcols):
            raise ValueError("compiled exact core: ragged write columns")
        # The kernel indexes per-disk arrays with these ids and trusts
        # its adjacency arithmetic to non-negative offsets.
        v = len(ctrl.disks)
        for col in (disks, wcols[0], wcols[2]):
            if col.size and not (0 <= col.min() and col.max() < v):
                raise ValueError("compiled exact core: disk id out of range")
        for col in (offsets, wcols[1], wcols[3]):
            if col.size and col.min() < 0:
                raise ValueError("compiled exact core: negative offset")
        if ctrl.data is not None and not ctrl._fold_write_dataplane(compiled):
            raise RuntimeError("compiled exact core: data-plane fold declined")
        self._run(n, nw, at, is_read.view(np.uint8), disks, offsets, wcols, sink)
        return True

    def finish(self, sink) -> bool:
        """Retire everything still in flight into ``sink``, then write
        the disk state and the clock back into the controller and free
        the kernel's memory."""
        self._run(0, 0, None, None, None, None, [None] * 4, sink)
        v = len(self.ctrl.disks)
        busyt = np.empty(v)
        delay = np.empty(v)
        reads = np.empty(v, dtype=np.int64)
        writes = np.empty(v, dtype=np.int64)
        last = np.empty(v, dtype=np.int64)
        has_last = np.empty(v, dtype=np.uint8)
        now = ctypes.c_double()
        self._lib.xc_state(
            self._core,
            busyt.ctypes.data,
            delay.ctypes.data,
            reads.ctypes.data,
            writes.ctypes.data,
            last.ctypes.data,
            has_last.ctypes.data,
            ctypes.byref(now),
        )
        self._free()
        offsets = [
            lo if has else None
            for lo, has in zip(last.tolist(), has_last.tolist())
        ]
        state = (a.tolist() for a in (busyt, delay, reads, writes))
        _write_back(self.ctrl, *state, offsets, now.value)
        return True

    def _run(self, n, nw, at, is_read, disks, offsets, wcols, sink) -> None:
        """One kernel call (``n == 0`` ends the stream), then emit the
        completed requests' samples into ``sink``."""
        if not self._free.alive:
            raise RuntimeError("compiled exact core: fed after finish()")
        rcap = self._pending[0] + n - nw
        wcap = self._pending[1] + nw
        out = np.empty(2 * (rcap + wcap))
        rlat, rcomp = out[:rcap], out[rcap : 2 * rcap]
        wlat, wcomp = out[2 * rcap : 2 * rcap + wcap], out[2 * rcap + wcap :]
        counts = np.zeros(2, dtype=np.int64)

        def ptr(a):
            return None if a is None else a.ctypes.data

        rc = self._lib.xc_feed(
            self._core,
            n,
            ptr(at),
            ptr(is_read),
            ptr(disks),
            ptr(offsets),
            nw,
            *map(ptr, wcols),
            ptr(rlat),
            ptr(rcomp),
            rcap,
            ptr(wlat),
            ptr(wcomp),
            wcap,
            ptr(counts),
        )
        if rc:
            raise (MemoryError if rc == -1 else RuntimeError)(
                f"compiled exact core: feed failed (code {rc})"
            )
        k_read, k_write = counts.tolist()
        self._pending = [rcap - k_read, wcap - k_write]
        if k_read:
            sink("read", rlat[:k_read], rcomp[:k_read])
        if k_write:
            sink("write", wlat[:k_write], wcomp[:k_write])
