"""Simulation statistics helpers.

Two latency accumulators share one summary contract:

* :class:`LatencyStats` keeps every raw sample (exact, O(n) memory) as
  float64 arrays — the default for materialized runs, where tests
  compare sample sequences bit-for-bit;
* :class:`LatencyDigest` keeps only a running count/sum/max plus a
  log-bucketed histogram (constant memory) — what the streaming
  windowed executors feed, so a 10^8-request horizon does not hold
  10^8 floats.

Each accumulator reduces, in one pass, to a :class:`LatencyState`:
count, total, max and the sorted bucket histogram.  Every summary is a
function of states alone, and for the two accumulators to be
byte-identical in summaries, their states must be computable with the
same float operations:

* ``count`` and ``max`` are trivially exact in both;
* ``total`` is the strict left-to-right fold ``((0.0 + x0) + x1) + ...``
  of the samples in emission order (:func:`left_fold`, shared by both
  accumulators) — not the builtin ``sum``, which Python 3.12 made
  compensated.  The windowed executors emit samples in the order the
  materialized engines append them, so the digest's running total and
  the exact fold are bit-identical, and ``mean`` is ``total / count``;
* percentiles are **quantized**: every sample is snapped to the lower
  bound of a base-2 logarithmic bucket (:func:`quantize_latency`,
  relative resolution 2^-12 ≈ 0.02%) before the nearest-rank pick.
  Quantization makes the percentile a pure function of the bucket
  *counts* — order-independent and mergeable — so the digest's
  histogram and the exact samples' agree bit-for-bit.  A rank is one
  ``np.cumsum`` and one ``np.searchsorted`` over the histogram.

Fleet reports merge per-shard states with :func:`merge_states`
(:func:`merge_summaries` over accumulators): counts add, maxes max,
the merged mean folds per-part totals left-to-right in part order, and
percentiles rank over the parts' histograms joined with one
concatenate and one sort — the same fold whether the parts are exact
samples or digests, so serial, windowed, and process-parallel fleet
reports stay byte-identical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "LatencyStats",
    "LatencyDigest",
    "LatencyState",
    "left_fold",
    "quantize_latency",
    "summarize",
    "merge_states",
    "merge_summaries",
    "percentile_of_parts",
]

#: Sub-buckets per power-of-two octave (as a bit count): latencies are
#: quantized to a relative resolution of 2^-12 before percentile ranks
#: are taken.  Occupied buckets per octave are bounded by 2^12 and a
#: realistic latency distribution spans a few dozen octaves, so a
#: digest's histogram stays a few thousand entries at any horizon.
_QUANT_BITS = 12
_QUANT_SCALE = float(1 << (_QUANT_BITS + 1))
_QUANT_MASK = (1 << _QUANT_BITS) - 1
#: Bucket key reserved for non-positive samples (sorts before all real
#: keys, whose exponent part dominates).
_ZERO_KEY = -(1 << 62)


def _bucket_key(x: float) -> int:
    """Map a positive latency to its log-bucket key (monotone in x)."""
    m, e = math.frexp(x)  # x = m * 2**e with m in [0.5, 1)
    return (e << _QUANT_BITS) | int((m - 0.5) * _QUANT_SCALE)


def _bucket_value(key: int) -> float:
    """The bucket's lower bound — the representative every member of
    the bucket quantizes to."""
    if key == _ZERO_KEY:
        return 0.0
    return math.ldexp(0.5 + (key & _QUANT_MASK) / _QUANT_SCALE, key >> _QUANT_BITS)


#: The smallest positive normal double: at and above it (below
#: infinity) a sample's key reads straight off its bits.
_MIN_NORMAL = float(np.finfo(np.float64).tiny)


def bucket_keys_array(arr):
    """Vectorized :func:`_bucket_key` over a float64 ndarray.

    Reproduces the scalar path bit for bit.  For positive normal
    finite samples — every latency in practice — the key is read off
    the IEEE bits: ``math.frexp``'s exponent is the biased exponent
    less 1022, and ``(m - 0.5) * 2**13`` truncated is the top
    ``_QUANT_BITS`` fraction bits (``m - 0.5`` and the power-of-two
    scaling are exact).  Anything else takes ``np.frexp``, which
    matches ``math.frexp``, with the same double arithmetic and an
    ``astype(int64)`` that truncates like ``int()``.  Non-positive
    samples map to :data:`_ZERO_KEY` as in :meth:`LatencyDigest.record`.
    """
    lo = arr.min()
    if lo >= _MIN_NORMAL and arr.max() < np.inf:
        # The sign bit is clear, so the bits above the top fraction
        # bits are the biased exponent: subtracting 1022 there leaves
        # the low _QUANT_BITS (the sub-bucket) as they are.
        bits = arr.view(np.int64) >> (52 - _QUANT_BITS)
        return bits - (1022 << _QUANT_BITS)
    m, e = np.frexp(arr)
    keys = (e.astype(np.int64) << _QUANT_BITS) | (
        (m - 0.5) * _QUANT_SCALE
    ).astype(np.int64)
    if lo <= 0.0:
        keys = np.where(arr > 0.0, keys, _ZERO_KEY)
    return keys


def quantize_latency(x: float) -> float:
    """Snap a latency to its log-bucket lower bound (monotone; relative
    error < 2^-12).  Non-positive values collapse to 0.0."""
    if x <= 0.0:
        return 0.0
    return _bucket_value(_bucket_key(x))


def _rank(p: float, count: int) -> int:
    """Nearest-rank index for percentile ``p`` over ``count`` samples."""
    return max(0, math.ceil(p / 100.0 * count) - 1)


def left_fold(arr: np.ndarray, start: float = 0.0) -> float:
    """The strict left-to-right float sum ``((start + x0) + x1) + ...``
    of a float64 ndarray — the running total of both accumulators.

    ``np.add.accumulate`` is a sequential accumulation (each partial
    carries a loop dependency, so no reassociation, unlike the pairwise
    ``np.sum`` and the compensated builtin ``sum`` of Python 3.12), and
    seeding the buffer with ``start`` continues an earlier fold bit for
    bit."""
    n = arr.size
    if not n:
        return start
    buf = np.empty(n + 1)
    buf[0] = start
    buf[1:] = arr
    np.add.accumulate(buf, out=buf)
    return float(buf[-1])


def _histogram(keys: np.ndarray, counts: np.ndarray):
    """Sort a ``(keys, counts)`` histogram by key, summing the counts
    of repeated keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    idx = np.flatnonzero(first)
    return keys[idx], np.add.reduceat(counts, idx)


def _ranked(keys: np.ndarray, counts: np.ndarray, count: int, ps) -> list[float]:
    """Quantized nearest-rank percentiles ``ps`` over a key-sorted
    histogram of ``count`` samples (a key may repeat: it ranks the
    same).  The rank-``r`` sample sits in the first bucket whose
    running count exceeds ``r``."""
    idx = np.searchsorted(
        np.cumsum(counts), [_rank(p, count) for p in ps], side="right"
    )
    return [_bucket_value(key) for key in keys[idx].tolist()]


_NO_KEYS = np.empty(0, dtype=np.int64)


class LatencyState(NamedTuple):
    """One accumulator's samples, reduced: how many, their left-fold
    ``total`` (:func:`left_fold`), their ``max`` (0.0 when empty) and
    their bucket histogram — ``keys`` ascending and unique, ``counts``
    beside them."""

    count: int
    total: float
    max: float
    keys: np.ndarray
    counts: np.ndarray

    def percentile(self, p: float) -> float:
        """Quantized nearest-rank percentile, ``p`` in [0, 100] (0.0
        when empty)."""
        if not self.count:
            return 0.0
        return _ranked(self.keys, self.counts, self.count, (p,))[0]

    def summary(self) -> dict[str, float]:
        """Mean / p50 / p95 / max summary dict (``max`` is the exact raw
        maximum; percentiles are quantized — see the module docstring)."""
        count = self.count
        if not count:
            return dict(_EMPTY_SUMMARY)
        p50, p95 = _ranked(self.keys, self.counts, count, (50, 95))
        return {
            "count": float(count),
            "mean": self.total / count,
            "p50": p50,
            "p95": p95,
            "max": self.max,
        }

    def bucket_counts(self) -> dict[int, int]:
        """The histogram as a ``{key: count}`` dict, keys ascending."""
        return dict(zip(self.keys.tolist(), self.counts.tolist()))


_EMPTY_SUMMARY = {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
_EMPTY_STATE = LatencyState(0, 0.0, 0.0, _NO_KEYS, _NO_KEYS)


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """``chunks`` as one float64 array (the chunk itself when alone)."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0)


class LatencyStats:
    """Exact collection of request latencies (milliseconds), in order.

    Samples live in float64 chunks: the arrays the off-heap engines
    emit (:meth:`extend_array`, kept as they are) and, behind them,
    ``tail`` — the list the event heap appends Python floats to, one
    completion at a time (:meth:`record`; the heap pump and the
    controller cache the list or its ``record``).  Every array read
    seals ``tail`` into a chunk *in place*, so a cached list stays the
    live one.  ``samples`` is the whole ordered sequence as a list.

    Args:
        samples: initial samples — a float64 ndarray (kept as a
            chunk) or any sequence of floats.
    """

    __slots__ = ("tail", "_chunks")

    def __init__(self, samples=()) -> None:
        self._chunks: list[np.ndarray] = []
        self.tail: list[float] = []
        if isinstance(samples, np.ndarray):
            self.extend_array(samples)
        else:
            self.tail.extend(samples)

    def record(self, latency: float) -> None:
        """Add one sample."""
        self.tail.append(latency)

    def extend_array(self, arr: np.ndarray) -> None:
        """Add a float64 ndarray of samples in order.  The array is
        kept, not copied: the caller must not write to it again."""
        if arr.size:
            self._seal()
            self._chunks.append(arr)

    def _seal(self) -> None:
        """Move ``tail``'s floats into a chunk, emptying the list in
        place."""
        tail = self.tail
        if tail:
            self._chunks.append(np.array(tail, dtype=np.float64))
            tail.clear()

    def _split(self, start: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Seal the tail, then part the chunks at sample ``start``: the
        chunks before it (views, never copied) and the samples from it
        on as one array."""
        self._seal()
        kept: list[np.ndarray] = []
        fresh: list[np.ndarray] = []
        for chunk in self._chunks:
            cut = min(max(start, 0), chunk.size)
            if cut:
                kept.append(chunk[:cut])
            if cut < chunk.size:
                fresh.append(chunk[cut:])
            start -= chunk.size
        return kept, _joined(fresh)

    def since(self, start: int) -> np.ndarray:
        """The samples from index ``start`` on, in order, as one float64
        array (do not write to it).  A long-lived prefix before
        ``start`` is never copied."""
        kept, fresh = self._split(start)
        self._chunks = kept + [fresh] if fresh.size else kept
        return fresh

    def array(self) -> np.ndarray:
        """Every sample in order as one float64 array (do not write to
        it)."""
        return self.since(0)

    def take(self, start: int) -> np.ndarray:
        """Remove the samples from index ``start`` on and return them
        (:meth:`since`)."""
        kept, fresh = self._split(start)
        self._chunks = kept
        return fresh

    @property
    def samples(self) -> list[float]:
        """Every sample in order, as a list of floats (a copy)."""
        return self.array().tolist()

    @property
    def count(self) -> int:
        return sum(chunk.size for chunk in self._chunks) + len(self.tail)

    @property
    def total(self) -> float:
        """Left-to-right sum of the samples (0.0 when empty)."""
        return left_fold(self.array())

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        n = self.count
        return self.total / n if n else 0.0

    @property
    def max(self) -> float:
        arr = self.array()
        return float(arr.max()) if arr.size else 0.0

    def state(self) -> LatencyState:
        """The samples reduced to a :class:`LatencyState` in one pass:
        the left fold, the max, and the histogram of their keys
        (:func:`bucket_keys_array`)."""
        arr = self.array()
        if not arr.size:
            return _EMPTY_STATE
        keys, counts = np.unique(bucket_keys_array(arr), return_counts=True)
        return LatencyState(
            arr.size, left_fold(arr), float(arr.max()), keys, counts
        )

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over quantized samples, ``p`` in
        [0, 100] (see :func:`quantize_latency`)."""
        return self.state().percentile(p)

    def bucket_counts(self) -> dict[int, int]:
        """Quantization-bucket histogram of the samples (keys ascending;
        :func:`bucket_keys_array` reproduces :func:`_bucket_key`)."""
        return self.state().bucket_counts()


#: extend_array defers histogram counting into pending key arrays and
#: consolidates them vectorized once this many keys are queued —
#: bounding per-digest staging memory while amortizing the sort.
_CONSOLIDATE_AT = 4096


class LatencyDigest:
    """Constant-memory latency accumulator, summary-identical to
    :class:`LatencyStats` when fed the same samples in the same order."""

    __slots__ = (
        "count",
        "total",
        "max",
        "_buckets",
        "_pending",
        "_pending_n",
        "_hkeys",
        "_hcounts",
        "_cache",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        #: scalar-path histogram (record()).
        self._buckets: dict[int, int] = {}
        #: vector-path staging: raw key arrays queued by extend_array,
        #: consolidated into the sorted (keys, counts) pair below.
        self._pending: list = []
        self._pending_n = 0
        self._hkeys = None
        self._hcounts = None
        self._cache: LatencyState | None = None

    def record(self, latency: float) -> None:
        """Add one sample (order matters for the bit-exact mean)."""
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency
        key = _bucket_key(latency) if latency > 0.0 else _ZERO_KEY
        b = self._buckets
        b[key] = b.get(key, 0) + 1
        self._cache = None

    def extend(self, latencies) -> None:
        """Add a sequence of samples in order — folded through
        :meth:`extend_array`, state-identical to :meth:`record` per
        element."""
        self.extend_array(np.asarray(latencies, dtype=np.float64))

    def extend_array(self, arr) -> None:
        """Add a float64 ndarray of samples in order — vectorized, but
        state-identical to :meth:`record` per element (see
        :meth:`extend_keyed` for the fold and
        :func:`bucket_keys_array` for the keys)."""
        n = arr.size
        if not n:
            return
        self.extend_keyed(arr, bucket_keys_array(arr))

    def extend_keyed(self, arr, keys, peak: float | None = None) -> None:
        """Add a float64 ndarray of samples whose histogram keys were
        already computed (:func:`bucket_keys_array`), in order;
        ``peak`` is their maximum, when the caller has it.

        State-identical to :meth:`record` per element: the running
        total continues the same left-to-right float fold
        (:func:`left_fold` seeded with the prior total).  Histogram
        counting is deferred: key arrays queue in ``_pending`` and
        consolidate vectorized, so no per-sample Python object is
        ever built."""
        n = arr.size
        if not n:
            return
        self.count += n
        self.total = left_fold(arr, self.total)
        if peak is None:
            peak = float(arr.max())
        if peak > self.max:
            self.max = peak
        self._pending.append(keys)
        self._pending_n += n
        self._cache = None
        if self._pending_n >= _CONSOLIDATE_AT:
            self._consolidate()

    def _consolidate(self) -> None:
        """Fold pending key arrays into the sorted (keys, counts)
        histogram pair — pure counting, so order is irrelevant."""
        if not self._pending:
            return
        batch = _joined(self._pending)
        self._pending = []
        self._pending_n = 0
        uk, uc = np.unique(batch, return_counts=True)
        if self._hkeys is None:
            self._hkeys, self._hcounts = uk, uc
            return
        self._hkeys, self._hcounts = _histogram(
            np.concatenate([self._hkeys, uk]),
            np.concatenate([self._hcounts, uc]),
        )

    def state(self) -> LatencyState:
        """The digest as a :class:`LatencyState`: its running tallies
        and the combined histogram of both ingestion paths, cached
        until the next sample."""
        state = self._cache
        if state is None:
            self._consolidate()
            keys, counts = self._hkeys, self._hcounts
            if self._buckets:
                n = len(self._buckets)
                bkeys = np.fromiter(self._buckets, np.int64, n)
                bcounts = np.fromiter(self._buckets.values(), np.int64, n)
                if keys is not None:
                    bkeys = np.concatenate([keys, bkeys])
                    bcounts = np.concatenate([counts, bcounts])
                keys, counts = _histogram(bkeys, bcounts)
            elif keys is None:
                keys = counts = _NO_KEYS
            state = self._cache = LatencyState(
                self.count, self.total, self.max, keys, counts
            )
        return state

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        return self.state().percentile(p)

    def bucket_counts(self) -> dict[int, int]:
        return self.state().bucket_counts()


def summarize(stats: LatencyStats | LatencyDigest) -> dict[str, float]:
    """Mean / p50 / p95 / max summary dict of one accumulator (see
    :meth:`LatencyState.summary`)."""
    return stats.state().summary()


def _pooled(states: list[LatencyState]) -> tuple[int, np.ndarray, np.ndarray]:
    """The non-empty ``states``' sample count and their histograms
    joined into one key-sorted histogram (one concatenate, one sort;
    keys may repeat across parts)."""
    live = [st for st in states if st.count]
    count = sum(st.count for st in live)
    if len(live) == 1:
        return count, live[0].keys, live[0].counts
    if not live:
        return 0, _NO_KEYS, _NO_KEYS
    keys = np.concatenate([st.keys for st in live])
    order = np.argsort(keys, kind="stable")
    return count, keys[order], np.concatenate([st.counts for st in live])[order]


def percentile_of_parts(
    parts: list[LatencyStats | LatencyDigest], p: float
) -> float:
    """Quantized nearest-rank percentile over the union of several
    accumulators (0.0 when all are empty).

    Like :func:`merge_summaries`, the rank is taken over the joined
    bucket histograms, so the result is a pure order-independent
    function of the per-part state — exact samples and streaming
    digests agree bit for bit.  This is how service-level objectives
    query percentiles the summary dict does not carry (e.g. p99 over
    the buckets of one time window) without changing the report schema.
    """
    count, keys, counts = _pooled([part.state() for part in parts])
    if not count:
        return 0.0
    return _ranked(keys, counts, count, (p,))[0]


def merge_states(states: list[LatencyState]) -> dict[str, float]:
    """Summarize the union of several accumulators' states.

    The merged mean folds per-part totals left-to-right in part order;
    the max is the largest part max (0.0 floor); percentiles rank over
    the joined bucket histograms.  All are pure functions of the
    (ordered) per-part states, so the result is identical whether the
    parts are exact samples or streaming digests — the byte-identity
    seam between materialized, windowed, and process-parallel fleet
    reports.
    """
    total = 0.0
    peak = 0.0
    for st in states:
        if st.count:
            total += st.total
            if st.max > peak:
                peak = st.max
    count, keys, counts = _pooled(states)
    if not count:
        return dict(_EMPTY_SUMMARY)
    p50, p95 = _ranked(keys, counts, count, (50, 95))
    return {
        "count": float(count),
        "mean": total / count,
        "p50": p50,
        "p95": p95,
        "max": peak,
    }


def merge_summaries(parts: list[LatencyStats | LatencyDigest]) -> dict[str, float]:
    """Summarize the union of several accumulators
    (:func:`merge_states` over their states)."""
    return merge_states([part.state() for part in parts])
