"""Discrete-event simulation core.

A minimal but real event engine: a time-ordered heap of callbacks with
a monotonic tie-breaking sequence number (equal-time events fire in
schedule order, which keeps runs deterministic).  The exact tier of
:mod:`repro.sim.batchstep` replays this ``(time, seq)`` serialization
without callbacks, over a private heap of in-flight disk completions.

Events armed with :meth:`Simulator.arm` name the shards (array
controllers) they touch; :meth:`Simulator.armed_shards` reports them,
which is how the shard-set engine gates keep a shard off the heap when
nothing foreign is scheduled on it.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Simulator"]


class Simulator:
    """Event queue + simulation clock.

    Time is in milliseconds throughout the simulator (matching the
    disk-model parameters).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._processed = 0
        # seq -> the shards an armed event names (see arm()); entries of
        # fired events are pruned by armed_shards().
        self._claims: dict[int, frozenset] = {}

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``now + delay``.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute time ``time`` (``>= now``).

        The absolute time is pushed exactly (not via ``now + (time -
        now)``, which can round), so precomputed timestamps — e.g. a
        compiled trace's arrival vector — fire at bit-exact times.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time} < now={self.now})"
            )
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def arm(self, time: float, fn: Callable[[], None], shards) -> None:
        """Run ``fn`` at absolute time ``time``, like :meth:`at`, naming
        the ``shards`` (array controllers) the event and everything it
        sets off touch — a failure timer names its array, whose rebuild
        IO it starts.  An event scheduled without names (:meth:`at`,
        :meth:`schedule`) may touch any shard.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        seq = self._seq
        self.at(time, fn)
        self._claims[seq] = frozenset(shards)

    def armed_shards(self) -> frozenset | None:
        """The shards that pending events name, or ``None`` when some
        pending event names none (so it may touch every shard)."""
        claims = self._claims
        live: dict[int, frozenset] = {}
        for _time, seq, _fn in self._heap:
            names = claims.get(seq)
            if names is None:
                return None
            live[seq] = names
        self._claims = live
        return frozenset().union(*live.values())

    def step(self) -> bool:
        """Fire the next event; return False if the queue is empty."""
        if not self._heap:
            return False
        time, _, fn = heapq.heappop(self._heap)
        self.now = time
        self._processed += 1
        fn()
        return True

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Drain the queue, optionally stopping at simulated time
        ``until`` (the clock is left at ``until`` if events remain).

        Raises:
            RuntimeError: if ``max_events`` fire without draining
                (runaway-simulation guard).  The error reports how many
                events this run processed, the lifetime total, and the
                backlog, so a stuck simulation is diagnosable instead of
                looking like a silent stop.
        """
        # The pop/fire sequence is inlined (not delegated to step()):
        # one method call per event is measurable on multi-million-event
        # fleet runs.
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            if fired >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}: processed "
                    f"{fired} events this run ({self._processed} in total), "
                    f"{len(heap)} still pending at t={self.now:.3f} ms "
                    "— likely a runaway event loop or an undersized budget"
                )
            time, _, fn = pop(heap)
            self.now = time
            self._processed += 1
            fn()
            fired += 1

    @property
    def events_processed(self) -> int:
        """Total events fired so far."""
        return self._processed

    def pending(self) -> int:
        """Events currently queued."""
        return len(self._heap)
