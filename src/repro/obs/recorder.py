"""Sim-clock metrics recording: the instrumentation half of ``repro.obs``.

Two recorders share one interface:

* :data:`NULL_RECORDER` — the default on every
  :class:`repro.sim.ArrayController`.  Every method is a no-op and
  ``enabled`` is False, so uninstrumented runs pay a single attribute
  test per *batch* (the engines check ``ctrl.obs.enabled`` once before
  their vectorized emission, never per request).
* :class:`MetricsRecorder` — folds instrumentation events onto a fixed
  sim-time grid of ``interval_ms`` buckets.  Everything it stores is a
  pure function of per-(shard, kind) event streams that the engines
  already emit deterministically, so its contents — and the snapshot
  rows rendered from them — are byte-identical across window sizes and
  worker counts.

Why bucketing (not raw event logs) keeps the byte-identity invariant:

* **Latency samples** arrive through the same drain contract the
  digests use: per (shard, kind), every engine emits samples in
  completion-sorted order, and windowed feeds emit prefixes of exactly
  the one-shot order.  Folding each sample into the
  :class:`~repro.sim.stats.LatencyDigest` of its completion-time
  bucket therefore performs the identical left-to-right float fold per
  (shard, kind, bucket) no matter how the stream was chunked.
* **Arrivals** are a pure function of the workload stream, counted
  per bucket with one vectorized search per routed slice.
* **Gauges** (rebuild progress) are recorded at simulated event times
  that the parallel runner's decomposition proves identical to the
  serial run's.
* **Run counters** are whole-run totals.  Counters marked *volatile*
  (window boundaries — their count depends on ``--window`` by
  definition) are excluded from the snapshot JSONL and surfaced only
  in the Prometheus exposition.

Worker processes record into their own ``MetricsRecorder`` and the
parent merges them with :meth:`MetricsRecorder.absorb`: per-shard state
is disjoint across workers (placement merge), fleet-scope counters
add.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..sim.stats import LatencyDigest, bucket_keys_array
from .nullrec import NULL_RECORDER, NullRecorder

__all__ = ["MetricsRecorder", "NullRecorder", "NULL_RECORDER"]


def _bucket_runs(q: np.ndarray) -> list[tuple[int, int, int]]:
    """``(bucket, start, stop)`` for each run of equal ``floor(q)`` in
    a non-empty, non-decreasing ``q`` — times over the bucket interval,
    the grid function of the scalar paths (record/arrive)."""
    n = len(q)
    lo, hi = math.floor(q[0]), math.floor(q[-1])
    if hi - lo < n:
        # Bucket b starts at the first q >= b: one search per bucket
        # edge instead of a floor per sample.
        buckets = range(lo, hi + 1)
        edges = np.arange(lo + 1, hi + 1, dtype=np.float64)
        cuts = np.searchsorted(q, edges).tolist()
    else:
        # More buckets than samples: one floor per sample.
        floors = np.floor(q)
        cuts = (np.flatnonzero(floors[1:] != floors[:-1]) + 1).tolist()
        buckets = [math.floor(q[c]) for c in (0, *cuts)]
    bounds = [0, *cuts, n]
    return [
        (b, start, stop)
        for b, start, stop in zip(buckets, bounds, bounds[1:])
        if stop > start
    ]


class MetricsRecorder:
    """Grid-bucketed metrics accumulator on the simulated clock.

    Args:
        interval_ms: snapshot grid width (sim milliseconds).  Bucket
            ``b`` covers ``[b * interval_ms, (b + 1) * interval_ms)``.
        shards: minimum shard count the snapshot rows cover (rows grow
            to the highest shard id actually observed, e.g. when a
            reshape adds arrays mid-run).
    """

    enabled = True

    def __init__(self, interval_ms: float, shards: int = 1) -> None:
        if not (math.isfinite(interval_ms) and interval_ms > 0):
            raise ValueError(
                f"metrics interval must be finite and > 0 ms, got "
                f"{interval_ms}"
            )
        self.interval_ms = float(interval_ms)
        self.shards = int(shards)
        #: shard -> kind -> bucket -> LatencyDigest (completion-time
        #: bucketed latency samples, completion order per bucket).
        self._lat: dict[int, dict[str, dict[int, LatencyDigest]]] = {}
        #: shard -> bucket -> arrival count.
        self._arrived: dict[int, dict[int, int]] = {}
        #: name -> key -> [(sim_time, value), ...] in record order.
        self._gauges: dict[str, dict[int, list[tuple[float, float]]]] = {}
        #: run-scope counters (reported in the final snapshot row).
        self._counters: dict[str, int] = {}
        #: run-scope counters excluded from the snapshot JSONL (their
        #: values legitimately depend on the window size).
        self._volatile: dict[str, int] = {}
        #: shard -> engine label actually used for its execution.
        self.engines: dict[int, str] = {}
        #: shard -> name -> end-of-run scalar stats (e.g. cumulative
        #: disk queue delay, which the engines accumulate bit-exactly).
        self._stats: dict[int, dict[str, float]] = {}

    # -- sample ingestion ------------------------------------------------

    def feed(self, shard: int, kind: str, comps, lats) -> None:
        """Fold a batch of completed requests into completion-time
        buckets.

        ``comps`` must be non-decreasing (the engines' drain contract:
        samples are emitted completion-sorted), so each bucket's
        samples form one contiguous slice and the per-bucket digest
        fold order equals the one-shot completion order.
        """
        n = len(lats)
        if not n:
            return
        comps = np.asarray(comps, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        # One whole-batch histogram-key pass: the per-bucket slices
        # below reuse views of it instead of paying ~n_buckets small
        # vectorized calls.
        keys = bucket_keys_array(lats)
        per_kind = self._lat.setdefault(shard, {}).setdefault(kind, {})
        runs = _bucket_runs(comps / self.interval_ms)
        # Every run's maximum in one pass.
        peaks = np.maximum.reduceat(lats, [start for _b, start, _s in runs])
        for (b, start, stop), peak in zip(runs, peaks.tolist()):
            digest = per_kind.get(b)
            if digest is None:
                digest = per_kind[b] = LatencyDigest()
            digest.extend_keyed(lats[start:stop], keys[start:stop], peak)

    def record(self, shard: int, kind: str, t: float, lat: float) -> None:
        """Fold one completed request (heap/calendar engines, which see
        completions one event at a time)."""
        per_kind = self._lat.setdefault(shard, {}).setdefault(kind, {})
        b = math.floor(t / self.interval_ms)
        digest = per_kind.get(b)
        if digest is None:
            digest = per_kind[b] = LatencyDigest()
        digest.record(lat)

    def arrivals(self, shard: int, times) -> None:
        """Bucket a routed slice's arrival times (vectorized)."""
        if not len(times):
            return
        q = np.asarray(times, dtype=np.float64) / self.interval_ms
        if (q[1:] < q[:-1]).any():
            # Routers hand over slices in arrival order, but counts do
            # not depend on it.
            q.sort()
        d = self._arrived.setdefault(shard, {})
        for b, start, stop in _bucket_runs(q):
            d[b] = d.get(b, 0) + stop - start

    def arrive(self, shard: int, t: float, n: int = 1) -> None:
        """Bucket one arrival (per-request dispatch paths, e.g. traffic
        a migration coordinator dispatches); ``n=-1`` takes one back (a
        request it took from the shard's pump), dropping an emptied
        bucket."""
        d = self._arrived.setdefault(shard, {})
        b = math.floor(t / self.interval_ms)
        d[b] = d.get(b, 0) + n
        if not d[b]:
            del d[b]

    # -- gauges / counters / engine labels -------------------------------

    def gauge(self, name: str, key: int, t: float, value: float) -> None:
        """Record a gauge observation at sim time ``t`` (last value at
        or before a bucket's end wins in the snapshot; earlier values
        carry forward)."""
        self._gauges.setdefault(name, {}).setdefault(key, []).append(
            (float(t), float(value))
        )

    def count(self, name: str, n: int = 1, volatile: bool = False) -> None:
        """Bump a run-scope counter.  ``volatile`` counters (window
        boundaries) appear only in the Prometheus exposition — their
        values depend on the window size, which the snapshot JSONL's
        byte-identity contract forbids."""
        d = self._volatile if volatile else self._counters
        d[name] = d.get(name, 0) + n

    def set_engine(self, shard: int, engine: str) -> None:
        """Label the engine a shard's execution actually used."""
        self.engines[shard] = engine

    def set_stat(self, shard: int, name: str, value: float) -> None:
        """Record an end-of-run per-shard scalar (reported in the final
        snapshot row).  Only use values the execution engines pin
        bit-exactly (disk accumulators), or byte-identity breaks."""
        self._stats.setdefault(shard, {})[name] = float(value)

    def shard_state(self, shard: int) -> tuple:
        """A copy of a shard's samples and arrivals."""
        return copy.deepcopy((self._lat.get(shard), self._arrived.get(shard)))

    def restore_shard(self, shard: int, state: tuple) -> None:
        """Put back what :meth:`shard_state` copied — the windowed eager
        tier drops its pass's samples and arrivals, and nothing earlier,
        when a tie abort hands the shard's stream to the exact core."""
        for store, kept in zip((self._lat, self._arrived), state):
            store.pop(shard, None)
            if kept is not None:
                store[shard] = kept

    # -- merge (parallel workers) ----------------------------------------

    def absorb(self, other: "MetricsRecorder") -> None:
        """Merge a worker recorder into this one.

        Per-shard state (samples, arrivals, engines) is disjoint across
        workers — each shard executes in exactly one group — so it
        merges by placement; run counters and gauges add/extend.
        """
        for shard, kinds in other._lat.items():
            self._lat[shard] = kinds
        for shard, arr in other._arrived.items():
            self._arrived[shard] = arr
        for name, keys in other._gauges.items():
            mine = self._gauges.setdefault(name, {})
            for key, series in keys.items():
                mine.setdefault(key, []).extend(series)
        for name, n in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + n
        for name, n in other._volatile.items():
            self._volatile[name] = self._volatile.get(name, 0) + n
        self.engines.update(other.engines)
        for shard, stats in other._stats.items():
            self._stats.setdefault(shard, {}).update(stats)
        self.shards = max(self.shards, other.shards)

    # -- render helpers (used by repro.obs.snapshot) ----------------------

    def shard_count(self) -> int:
        """Shards the snapshot rows must cover: the configured floor or
        the highest shard id observed, whichever is larger."""
        seen = [self.shards - 1]
        seen.extend(self._lat)
        seen.extend(self._arrived)
        seen.extend(self.engines)
        seen.extend(self._stats)
        return max(seen) + 1

    def last_bucket(self) -> int:
        """Highest grid bucket holding any observation (-1 if none)."""
        last = -1
        for kinds in self._lat.values():
            for buckets in kinds.values():
                if buckets:
                    last = max(last, max(buckets))
        for arr in self._arrived.values():
            if arr:
                last = max(last, max(arr))
        for keys in self._gauges.values():
            for series in keys.values():
                for t, _ in series:
                    last = max(last, math.floor(t / self.interval_ms))
        return last

    def counters(self, volatile: bool = False) -> dict[str, int]:
        """Run-scope counters (sorted); ``volatile=True`` returns the
        exposition-only set."""
        d = self._volatile if volatile else self._counters
        return dict(sorted(d.items()))

    def latency_buckets(
        self, shard: int
    ) -> dict[str, dict[int, LatencyDigest]]:
        """A shard's per-kind completion-bucketed digests."""
        return self._lat.get(shard, {})

    def arrival_buckets(self, shard: int) -> dict[int, int]:
        """A shard's per-bucket arrival counts."""
        return self._arrived.get(shard, {})

    def stats(self, shard: int) -> dict[str, float]:
        """A shard's end-of-run scalar stats (sorted by name)."""
        return dict(sorted(self._stats.get(shard, {}).items()))

    def gauge_series(self, name: str) -> dict[int, list[tuple[float, float]]]:
        """A gauge's per-key observation series, in record order."""
        return self._gauges.get(name, {})
