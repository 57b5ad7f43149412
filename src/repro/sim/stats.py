"""Simulation statistics helpers.

Two latency accumulators share one summary contract:

* :class:`LatencyStats` keeps every raw sample (exact, O(n) memory) —
  the default for materialized runs, where tests compare sample lists
  bit-for-bit;
* :class:`LatencyDigest` keeps only a running count/sum/max plus a
  log-bucketed histogram (constant memory) — what the streaming
  windowed executors feed, so a 10^8-request horizon does not hold
  10^8 floats.

For the two to be byte-identical in summaries, the summary statistics
must be computable from either representation with the same float
operations:

* ``count`` and ``max`` are trivially exact in both;
* ``mean`` is the left-to-right running sum divided by the count — the
  digest accumulates its sum in the exact order samples are emitted,
  which the windowed executors arrange to match the order the
  materialized engines append them, so ``sum(samples)`` and the running
  sum are bit-identical;
* percentiles are **quantized**: every sample is snapped to the lower
  bound of a base-2 logarithmic bucket (:func:`quantize_latency`,
  relative resolution 2^-12 ≈ 0.02%) before the nearest-rank pick.
  Quantization makes the percentile a pure function of the bucket
  *counts* — order-independent and mergeable — so the digest's
  histogram and the exact sample list agree bit-for-bit.

Fleet reports merge per-shard accumulators with
:func:`merge_summaries`: counts and histograms add, maxes max, and the
merged mean folds per-part sums left-to-right in part order — the same
fold whether the parts are lists or digests, so serial, windowed, and
process-parallel fleet reports stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatencyStats",
    "LatencyDigest",
    "quantize_latency",
    "summarize",
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


def _bucket_percentile(buckets: dict[int, int], count: int, p: float) -> float:
    target = _rank(p, count)
    seen = 0
    for key in sorted(buckets):
        seen += buckets[key]
        if seen > target:
            return _bucket_value(key)
    return 0.0  # pragma: no cover - counts always sum to count


@dataclass
class LatencyStats:
    """Exact collection of request latencies (milliseconds)."""

    samples: list[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        """Add one sample."""
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        """Left-to-right sum of the samples (0.0 when empty)."""
        return sum(self.samples) if self.samples else 0.0

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over quantized samples, ``p`` in
        [0, 100] (see :func:`quantize_latency`).  The rank-th order
        statistic is picked with ``np.partition`` — the same value a
        full sort puts there, without the sort."""
        if not self.samples:
            return 0.0
        k = _rank(p, len(self.samples))
        return quantize_latency(float(np.partition(self.samples, k)[k]))

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def bucket_counts(self) -> dict[int, int]:
        """Quantization-bucket histogram of the samples (keys ascending;
        :func:`bucket_keys_array` reproduces :func:`_bucket_key`)."""
        if not self.samples:
            return {}
        keys = bucket_keys_array(np.asarray(self.samples, dtype=np.float64))
        uk, uc = np.unique(keys, return_counts=True)
        return dict(zip(uk.tolist(), uc.tolist()))


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
        self._cache: dict[int, int] | None = None

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
        total performs the same left-to-right float fold
        (``np.add.accumulate`` is a strict sequential accumulation —
        each partial carries a loop dependency, so no reassociation —
        and seeding the buffer with the prior total reproduces
        ``((total + x0) + x1) + ...`` bit for bit).  Histogram
        counting is deferred: key arrays queue in ``_pending`` and
        consolidate vectorized, so no per-sample Python object is
        ever built."""
        n = arr.size
        if not n:
            return
        self.count += n
        buf = np.empty(n + 1)
        buf[0] = self.total
        buf[1:] = arr
        np.add.accumulate(buf, out=buf)
        self.total = float(buf[-1])
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
        batch = (
            np.concatenate(self._pending)
            if len(self._pending) > 1
            else self._pending[0]
        )
        self._pending = []
        self._pending_n = 0
        uk, uc = np.unique(batch, return_counts=True)
        if self._hkeys is None:
            self._hkeys, self._hcounts = uk, uc
            return
        allk = np.concatenate([self._hkeys, uk])
        allc = np.concatenate([self._hcounts, uc])
        order = np.argsort(allk, kind="stable")
        allk = allk[order]
        allc = allc[order]
        first = np.empty(len(allk), dtype=bool)
        first[0] = True
        np.not_equal(allk[1:], allk[:-1], out=first[1:])
        idx = np.flatnonzero(first)
        self._hkeys = allk[idx]
        self._hcounts = np.add.reduceat(allc, idx)

    def _counts(self) -> dict[int, int]:
        """The combined histogram (scalar + vector paths), cached
        until the next ingestion."""
        cache = self._cache
        if cache is None:
            self._consolidate()
            cache = dict(self._buckets)
            if self._hkeys is not None:
                if cache:
                    for key, k in zip(
                        self._hkeys.tolist(), self._hcounts.tolist()
                    ):
                        cache[key] = cache.get(key, 0) + k
                else:
                    cache = dict(
                        zip(self._hkeys.tolist(), self._hcounts.tolist())
                    )
            self._cache = cache
        return cache

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not self.count:
            return 0.0
        return _bucket_percentile(self._counts(), self.count, p)

    def bucket_counts(self) -> dict[int, int]:
        return dict(self._counts())


def summarize(stats: LatencyStats | LatencyDigest) -> dict[str, float]:
    """Mean / p50 / p95 / max summary dict (``max`` is the exact raw
    maximum; percentiles are quantized — see the module docstring)."""
    return {
        "count": float(stats.count),
        "mean": stats.mean,
        "p50": stats.percentile(50),
        "p95": stats.percentile(95),
        "max": stats.max,
    }


def percentile_of_parts(
    parts: list[LatencyStats | LatencyDigest], p: float
) -> float:
    """Quantized nearest-rank percentile over the union of several
    accumulators (0.0 when all are empty).

    Like :func:`merge_summaries`, the rank is taken over the summed
    bucket histograms, so the result is a pure order-independent
    function of the per-part state — exact lists and streaming digests
    agree bit for bit.  This is how service-level objectives query
    percentiles the summary dict does not carry (e.g. p99 over the
    buckets of one time window) without changing the report schema.
    """
    count = 0
    buckets: dict[int, int] = {}
    for part in parts:
        c = part.count
        if not c:
            continue
        count += c
        for key, k in part.bucket_counts().items():
            buckets[key] = buckets.get(key, 0) + k
    if not count:
        return 0.0
    return _bucket_percentile(buckets, count, p)


def merge_summaries(parts: list[LatencyStats | LatencyDigest]) -> dict[str, float]:
    """Summarize the union of several accumulators.

    The merged mean folds per-part sums left-to-right in part order;
    percentiles rank over the summed bucket histograms.  Both are pure
    functions of the (ordered) per-part state, so the result is
    identical whether the parts are exact lists or streaming digests —
    the byte-identity seam between materialized, windowed, and
    process-parallel fleet reports.
    """
    count = 0
    total = 0.0
    peak = 0.0
    buckets: dict[int, int] = {}
    for part in parts:
        c = part.count
        if not c:
            continue
        count += c
        total += part.total
        if part.max > peak:
            peak = part.max
        for key, k in part.bucket_counts().items():
            buckets[key] = buckets.get(key, 0) + k
    if not count:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": float(count),
        "mean": total / count,
        "p50": _bucket_percentile(buckets, count, 50),
        "p95": _bucket_percentile(buckets, count, 95),
        "max": peak,
    }
