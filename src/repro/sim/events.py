"""Discrete-event simulation core.

A minimal but real event engine: a time-ordered heap of callbacks with
a monotonic tie-breaking sequence number (equal-time events fire in
schedule order, which keeps runs deterministic).  The exact tier of
:mod:`repro.sim.batchstep` replays this ``(time, seq)`` serialization
without callbacks, over a private heap of in-flight disk completions.

Shards (array controllers) carry *claims*: what says that something
foreign may still touch them.  An event armed with :meth:`Simulator.arm`
claims the shards it names until it fires, and whatever it sets off
can hold them longer with :meth:`Simulator.claim` until it calls
:meth:`Simulator.release` — a failure claims its array from its timer
to the end of its rebuild, admission wait included.  Two queries read
them.  :meth:`Simulator.armed_shards`, at the start of a serve, names
the claimed shards, or says that some pending event names none; the
shard-set engine gates keep every shard it does not name off the heap.
:meth:`Simulator.claimed` holds mid-run too, so the heap pump of a
claimed shard can stop once the claim has lapsed and its disks are
idle, and hand the rest of its trace back to the exact core.
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
        # Live claims (see arm() and claim()): key -> (start, shards),
        # the start being an armed event's time or the time a claim was
        # taken; how many live claims name each shard; and how many
        # armed events are still pending.
        self._claims: dict[int, tuple[float, frozenset]] = {}
        self._claimed: dict[object, int] = {}
        self._keys = 0
        self._armed = 0

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
        """Run ``fn`` at absolute time ``time``, like :meth:`at`, with a
        claim on the ``shards`` (array controllers) that the event
        touches until it fires; what it sets off past that takes a claim
        of its own (:meth:`claim`) — a failure timer claims its array,
        and the failure holds it until its rebuild ends.  An event
        scheduled without names (:meth:`at`, :meth:`schedule`) may
        touch any shard.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        self.at(time, lambda: self._fire_armed(key, fn))
        key = self._hold(time, shards)
        self._armed += 1

    def _fire_armed(self, key: int, fn: Callable[[], None]) -> None:
        self._armed -= 1
        self.release(key)
        fn()

    def claim(self, shards) -> int:
        """Claim ``shards`` from now until :meth:`release` is called
        with the returned key: something foreign may touch them while
        no event of it is pending (a rebuild waiting for an admission
        slot, say)."""
        return self._hold(self.now, shards)

    def _hold(self, start: float, shards) -> int:
        key = self._keys
        self._keys += 1
        names = frozenset(shards)
        self._claims[key] = (start, names)
        counts = self._claimed
        for shard in names:
            counts[shard] = counts.get(shard, 0) + 1
        return key

    def release(self, key: int) -> None:
        """End the claim :meth:`claim` returned ``key`` for.

        Raises:
            KeyError: if that claim has ended already.
        """
        _, names = self._claims.pop(key)
        counts = self._claimed
        for shard in names:
            left = counts[shard] - 1
            if left:
                counts[shard] = left
            else:
                del counts[shard]

    def claimed(self, shard) -> bool:
        """Whether a live claim names ``shard``: a pending armed event,
        or a claim taken and not yet released."""
        return shard in self._claimed

    def claim_start(self, shard) -> float | None:
        """When the earliest live claim on ``shard`` starts (an armed
        event's time, or when a held claim was taken), or ``None`` when
        no claim names it."""
        starts = [t for t, names in self._claims.values() if shard in names]
        return min(starts) if starts else None

    def armed_shards(self) -> frozenset | None:
        """The shards that live claims name, or ``None`` when some
        pending event names none (so it may touch every shard)."""
        if len(self._heap) > self._armed:
            return None
        return frozenset(self._claimed)

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
