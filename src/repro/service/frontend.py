"""Long-lived serving front-end: request streams over a local socket.

A :class:`ServiceFrontend` owns one :class:`FleetScenario` (optionally
with an :class:`~repro.service.autoscale.AutoscalePolicy`) and listens
on a local TCP socket for line-delimited JSON requests.  Clients submit
request-stream chunks and ask the front-end to serve them; each serve
runs through a :class:`~repro.service.runtime.WarmRuntime` in a worker
thread — the persistent worker pool, shared-memory trace transport,
and compiled-artifact cache amortize the cold batch path across
repeated serves, and a submitted stream still produces a report
**canonically identical** to the equivalent batch scenario — the
front-end adds transport and warmth, never semantics.

The front-end owns the runtime's lifecycle: :meth:`ServiceFrontend.
close` drains the pool and unlinks every shared-memory segment, and
:func:`run_frontend` guarantees that teardown on the ``shutdown`` op,
SIGTERM, and KeyboardInterrupt — no ``/dev/shm`` orphans, no
``resource_tracker`` warnings.

Protocol — one JSON object per line, one JSON reply per line:

========  ====================================================
op        behaviour
========  ====================================================
ping      liveness + scenario shape + buffered request count
submit    append a stream chunk: ``{"op": "submit", "times":
          [...], "is_read": [...], "lbas": [...]}`` — flat arrays
          of numbers, booleans, and integers; arrival times must
          be finite, non-negative and non-decreasing across
          chunks, LBAs within ``[0, capacity)`` of the scenario's
          fleet; at most :data:`BUFFER_LIMIT` requests buffered
reset     drop the buffered stream
serve     run the scenario over the buffered stream (clears
          the buffer); reply carries the full report payload
run       run the scenario's own synthetic workload
shutdown  close the listener after replying
========  ====================================================

Every reply carries ``"ok"``; errors reply ``{"ok": false, "error":
...}`` without killing the connection — except a request line over
:data:`LINE_LIMIT` bytes, which is refused and ends its connection
(the reader has dropped part of it, so the stream is mid-request).
The simulation itself is
blocking CPU work, so serves run under an :class:`asyncio.Lock` in the
default executor — one scenario at a time, results in request order.

``python -m repro serve --listen HOST:PORT`` wraps this in a process
(:func:`run_frontend`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import signal

import numpy as np

from ..sim.compile import _check_times
from .runtime import WarmRuntime
from .scenario import FleetScenario, scenario_fleet

__all__ = ["BUFFER_LIMIT", "LINE_LIMIT", "ServiceFrontend", "run_frontend"]

#: Longest request line, in bytes (asyncio's default stream limit).
LINE_LIMIT = 2**16
#: Most requests one front-end holds between serves.  A buffered
#: request costs 17 bytes (float64 time, bool flag, int64 LBA), so a
#: full buffer is 68 MiB, and ``serve`` briefly holds it twice while
#: concatenating the chunks: ~136 MiB per front-end at worst.
BUFFER_LIMIT = 2**22

_log = logging.getLogger(__name__)


class ServiceFrontend:
    """One scenario behind a local line-delimited-JSON TCP listener.

    Args:
        scenario: the :class:`FleetScenario` every serve runs (its
            ``autoscale`` policy, placement, verification, and window
            settings all apply).
        host / port: bind address (port 0 = ephemeral; read the bound
            address from :attr:`address` after :meth:`start`).
        workers: worker processes for each serve (1 = in-process; the
            warm runtime's artifact cache still applies).
        mp_context: multiprocessing start method for the worker pool
            (``"auto"`` / ``"fork"`` / ``"spawn"`` / ``"forkserver"``).
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        mp_context: str = "auto",
    ) -> None:
        self.scenario = scenario
        self.host = host
        self.port = port
        self.runs = 0
        self.runtime = WarmRuntime(
            scenario, workers=workers, mp_context=mp_context
        )
        self._capacity = scenario_fleet(scenario).capacity
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._lock = asyncio.Lock()
        self._closed = asyncio.Event()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=LINE_LIMIT
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting connections, release the socket, and tear
        down the warm runtime — the pool drains gracefully and every
        shared-memory segment is unlinked (idempotent; the ``shutdown``
        op, SIGTERM, and ``finally`` paths all land here)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle connection handlers sit in readline() forever; cancel
        # and await them so loop shutdown never sees a pending task
        # (which asyncio.streams would log as a callback traceback).
        # The shutdown op lands here from inside a handler — that task
        # must not cancel or await itself.
        current = asyncio.current_task()
        pending = [t for t in self._conn_tasks if t is not current]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self.runtime.close()
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) lands."""
        await self._closed.wait()

    # -- connection handling ----------------------------------------------

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the line limit: the reader has dropped what
                    # it buffered, so the stream is mid-request.  Reply,
                    # half-close, and discard input until the client
                    # hangs up, so the close never resets the reply.
                    await _send(writer, {
                        "ok": False,
                        "error": f"request line exceeds {LINE_LIMIT} "
                        "bytes — closing the connection",
                    })
                    writer.write_eof()
                    while await reader.read(LINE_LIMIT):
                        pass
                    break
                if not line:
                    break
                reply = await self._answer(line)
                await _send(writer, reply)
                if reply.get("op") == "shutdown" and reply.get("ok"):
                    await self.close()
                    break
        except (asyncio.CancelledError, ConnectionError):
            pass  # front-end teardown, or the client went away
        finally:
            self._conn_tasks.discard(task)
            writer.close()

    async def _answer(self, line: bytes) -> dict:
        """One request line's reply; every failure stays contained to
        the request, so the connection survives it."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            return await self._dispatch(request)
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:
            _log.exception("front-end request failed")
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            sc = self.scenario
            return {
                "ok": True,
                "op": "ping",
                "scenario": {
                    "shards": sc.shards,
                    "v": sc.v,
                    "k": sc.k,
                    "duration_ms": sc.duration_ms,
                    "autoscale": sc.autoscale is not None,
                },
                "buffered": self._buffered,
                "runs": self.runs,
                "workers": self.runtime.workers,
                "runtime": self.runtime.stats.to_dict(),
            }
        if op == "submit":
            return self._submit(request)
        if op == "reset":
            self._chunks.clear()
            self._buffered = 0
            return {"ok": True, "op": "reset", "buffered": 0}
        if op == "serve":
            if not self._buffered:
                raise ValueError("serve with no buffered requests")
            times = np.concatenate([c[0] for c in self._chunks])
            is_read = np.concatenate([c[1] for c in self._chunks])
            lbas = np.concatenate([c[2] for c in self._chunks])
            self._chunks.clear()
            self._buffered = 0
            payload = await self._run(stream=(times, is_read, lbas))
            return {"ok": True, "op": "serve", "report": payload}
        if op == "run":
            payload = await self._run(stream=None)
            return {"ok": True, "op": "run", "report": payload}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        raise ValueError(f"unknown op {op!r}")

    def _submit(self, request: dict) -> dict:
        times = np.asarray(
            _column(request, "times", _NUMBER, "numbers"), dtype=np.float64
        )
        is_read = np.asarray(
            _column(request, "is_read", _BOOL, "booleans"), dtype=bool
        )
        try:
            lbas = np.asarray(
                _column(request, "lbas", _INT, "integers"), dtype=np.int64
            )
        except OverflowError:
            raise ValueError(f"LBAs must lie in [0, {self._capacity})") from None
        if not (times.size == is_read.size == lbas.size):
            raise ValueError(
                "times/is_read/lbas must be the same length, got "
                f"{times.size}/{is_read.size}/{lbas.size}"
            )
        if self._buffered + times.size > BUFFER_LIMIT:
            raise ValueError(
                f"submit would buffer {self._buffered + times.size} "
                f"requests, over the limit of {BUFFER_LIMIT} — serve or "
                "reset first"
            )
        if times.size:
            _check_times(times)
            if lbas.min() < 0 or lbas.max() >= self._capacity:
                raise ValueError(
                    f"LBAs must lie in [0, {self._capacity}), got "
                    f"[{lbas.min()}, {lbas.max()}]"
                )
            if (times[1:] < times[:-1]).any():
                raise ValueError("arrival times must be non-decreasing")
            if self._chunks and times[0] < self._chunks[-1][0][-1]:
                raise ValueError(
                    "chunk starts before the previously submitted chunk "
                    "ends — submit chunks in arrival order"
                )
            self._chunks.append((times, is_read, lbas))
            self._buffered += times.size
        return {"ok": True, "op": "submit", "buffered": self._buffered}

    async def _run(self, stream) -> dict:
        async with self._lock:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                None,
                functools.partial(self.runtime.run, stream=stream),
            )
        self.runs += 1
        return payload


# Element types a submit column accepts, as ``json.loads`` produces
# them (``bool`` is its own type there, never an ``int``).
_NUMBER = frozenset((int, float))
_BOOL = frozenset((bool,))
_INT = frozenset((int,))


def _column(request: dict, name: str, types: frozenset, what: str) -> list:
    """A submit column, refused unless it is a flat JSON array whose
    every element has one of ``types`` — NumPy would otherwise coerce
    ``"no"`` to True, ``1.7`` to 1 and ``"5"`` to 5.0."""
    values = request[name]
    if not isinstance(values, list) or not set(map(type, values)) <= types:
        raise ValueError(f"{name} must be a flat JSON array of {what}")
    return values


async def _send(writer, reply: dict) -> None:
    writer.write(json.dumps(reply, sort_keys=True).encode() + b"\n")
    await writer.drain()


def run_frontend(
    scenario: FleetScenario,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    workers: int = 1,
    mp_context: str = "auto",
) -> int:
    """Run a front-end until a client sends ``shutdown`` (the
    ``serve --listen`` entry point).

    ``ready`` (optional) is called with the bound ``(host, port)`` once
    the listener is up.  Returns a process exit code.

    Teardown is guaranteed on every exit path — the ``shutdown`` op,
    SIGTERM/SIGINT (handlers close the front-end so the pool drains
    and segments unlink before the loop exits), and any exception —
    leaving no orphaned ``/dev/shm`` segments and no
    ``resource_tracker`` warnings.
    """

    async def main() -> int:
        frontend = ServiceFrontend(
            scenario,
            host=host,
            port=port,
            workers=workers,
            mp_context=mp_context,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(frontend.close())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without signal support in the loop
        try:
            await frontend.start()
            if ready is not None:
                ready(frontend.address)
            await frontend.wait_closed()
            return 0
        finally:
            await frontend.close()

    return asyncio.run(main())
