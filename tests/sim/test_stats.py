"""Latency accumulator edge cases: empty and single-sample digests,
mid-window stability of polled values, multi-part percentiles, the
left-fold total, and the array fold against the dict-fold reference."""

import math
import sys

import numpy as np
import pytest

from repro.sim.stats import (
    _CONSOLIDATE_AT,
    _ZERO_KEY,
    LatencyDigest,
    LatencyStats,
    _bucket_key,
    _bucket_value,
    bucket_keys_array,
    left_fold,
    merge_summaries,
    percentile_of_parts,
    quantize_latency,
    summarize,
)


def _edge_samples() -> list[float]:
    """Random latencies plus the values where a vectorized histogram or
    rank pick could drift from the scalar loop: zeros, negatives, a
    subnormal, exact powers of two, and bucket lower bounds with their
    ``nextafter`` neighbours on both sides."""
    rng = np.random.default_rng(2024)
    xs = rng.exponential(6.0, size=3000).tolist()
    xs += [0.0, -0.0, 0.0, -1.5, -1e-300, 5e-324]
    xs += [2.0**e for e in range(-40, 40)]
    for x in rng.exponential(6.0, size=300).tolist():
        lo = quantize_latency(x)
        xs += [lo, math.nextafter(lo, 0.0), math.nextafter(lo, math.inf)]
    order = rng.permutation(len(xs))
    return [xs[i] for i in order]


def _loop_bucket_counts(xs) -> dict[int, int]:
    counts: dict[int, int] = {}
    for x in xs:
        key = _bucket_key(x) if x > 0.0 else _ZERO_KEY
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestEmpty:
    @pytest.mark.parametrize("make", [LatencyStats, LatencyDigest])
    @pytest.mark.parametrize("p", [0, 50, 95, 99, 100])
    def test_empty_percentile_is_zero(self, make, p):
        assert make().percentile(p) == 0.0

    @pytest.mark.parametrize("make", [LatencyStats, LatencyDigest])
    def test_empty_summary(self, make):
        s = summarize(make())
        assert s == {
            "count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0
        }

    @pytest.mark.parametrize("make", [LatencyStats, LatencyDigest])
    def test_empty_bucket_counts(self, make):
        assert make().bucket_counts() == {}

    def test_empty_extend_array_is_a_no_op(self):
        d = LatencyDigest()
        d.extend_array(np.array([], dtype=np.float64))
        assert d.count == 0 and d.percentile(99) == 0.0

    def test_percentile_of_no_parts_is_zero(self):
        assert percentile_of_parts([], 99.0) == 0.0
        assert percentile_of_parts(
            [LatencyStats(), LatencyDigest()], 99.0
        ) == 0.0


class TestSingleSample:
    @pytest.mark.parametrize("make", [LatencyStats, LatencyDigest])
    @pytest.mark.parametrize("value", [0.0, 0.25, 7.3, 1e6])
    def test_every_percentile_is_the_quantized_sample(self, make, value):
        acc = make()
        acc.record(value)
        expected = quantize_latency(value)
        for p in (0, 1, 50, 99, 100):
            assert acc.percentile(p) == expected
        assert acc.max == value
        assert acc.mean == value

    @pytest.mark.parametrize("make", [LatencyStats, LatencyDigest])
    def test_single_sample_bucket(self, make):
        acc = make()
        acc.record(3.7)
        counts = acc.bucket_counts()
        assert len(counts) == 1
        assert sum(counts.values()) == 1

    def test_zero_latency_gets_its_own_bucket(self):
        acc = LatencyDigest()
        acc.record(0.0)
        acc.record(1.0)
        assert len(acc.bucket_counts()) == 2
        assert acc.percentile(0) == 0.0


class TestMidWindowStability:
    """The snapshot-poll path: values read from a digest mid-window
    must be stable — identical before and after unrelated churn, and
    identical between scalar and vectorized ingestion."""

    def test_polling_does_not_perturb_state(self):
        d = LatencyDigest()
        d.extend([5.0, 1.0, 9.0])
        first = (d.count, d.total, d.percentile(50), d.bucket_counts())
        # Poll repeatedly (the controller does this every tick).
        for _ in range(3):
            assert d.percentile(50) == first[2]
            assert d.bucket_counts() == first[3]
        assert (d.count, d.total) == first[:2]

    def test_scalar_and_vector_paths_agree_mid_window(self):
        rng = np.random.default_rng(11)
        samples = rng.exponential(4.0, size=500)
        scalar = LatencyDigest()
        vector = LatencyDigest()
        # Interleave ingestion with polling: values must agree at every
        # cut point, not just at the end.
        for lo in range(0, 500, 100):
            chunk = samples[lo:lo + 100]
            for x in chunk.tolist():
                scalar.record(x)
            vector.extend_array(chunk)
            assert vector.count == scalar.count
            assert vector.total == scalar.total
            assert vector.max == scalar.max
            for p in (50, 95, 99):
                assert vector.percentile(p) == scalar.percentile(p)
            assert vector.bucket_counts() == scalar.bucket_counts()

    def test_digest_matches_exact_stats(self):
        rng = np.random.default_rng(5)
        samples = rng.exponential(2.0, size=1000).tolist()
        exact = LatencyStats()
        digest = LatencyDigest()
        for x in samples:
            exact.record(x)
            digest.record(x)
        assert summarize(digest) == summarize(exact)


class TestPercentileOfParts:
    def test_union_equals_single_accumulator(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(4.0, size=900)
        whole = LatencyDigest()
        whole.extend_array(samples)
        parts = []
        for lo in range(0, 900, 300):
            part = LatencyDigest()
            part.extend_array(samples[lo:lo + 300])
            parts.append(part)
        for p in (1, 50, 95, 99, 100):
            assert percentile_of_parts(parts, p) == whole.percentile(p)

    def test_mixed_part_types(self):
        a = LatencyStats()
        a.record(1.0)
        b = LatencyDigest()
        b.record(100.0)
        # 2 samples: p50 hits the first bucket, p100 the second.
        assert percentile_of_parts([a, b], 50) == quantize_latency(1.0)
        assert percentile_of_parts([a, b], 100) == quantize_latency(100.0)

    def test_empty_parts_are_skipped(self):
        a = LatencyDigest()
        a.record(2.0)
        assert (
            percentile_of_parts([LatencyDigest(), a, LatencyStats()], 99)
            == quantize_latency(2.0)
        )


class TestVectorizedSummaries:
    """``LatencyStats`` counts buckets with ``np.unique`` and ranks
    percentiles over that histogram; both must equal the scalar loops
    they replace on every sample, edge values included."""

    @pytest.mark.parametrize(
        "p", [0, 0.1, 1, 25, 50, 75, 95, 99, 99.9, 100]
    )
    def test_percentile_matches_sorted_reference(self, p):
        xs = _edge_samples()
        rank = max(0, math.ceil(p / 100.0 * len(xs)) - 1)
        expected = quantize_latency(sorted(xs)[rank])
        assert LatencyStats(list(xs)).percentile(p) == expected

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 101])
    def test_percentile_on_small_lists(self, size):
        xs = _edge_samples()[:size]
        for p in (0, 50, 95, 100):
            rank = max(0, math.ceil(p / 100.0 * size) - 1)
            assert LatencyStats(list(xs)).percentile(p) == quantize_latency(
                sorted(xs)[rank]
            )

    def test_bucket_counts_match_scalar_keys(self):
        xs = _edge_samples()
        assert LatencyStats(list(xs)).bucket_counts() == _loop_bucket_counts(xs)


class TestDigestExtend:
    """``LatencyDigest.extend`` folds through ``extend_array``; the
    reference is one ``record`` call per sample, in order."""

    @pytest.mark.parametrize("chunk", [1, 7, 256, 4095, 4096, 5000, 100_000])
    def test_matches_record_loop_across_chunkings(self, chunk):
        xs = _edge_samples()
        ref = LatencyDigest()
        for x in xs:
            ref.record(x)
        d = LatencyDigest()
        for lo in range(0, len(xs), chunk):
            d.extend(xs[lo:lo + chunk])
            d.extend([])  # an empty batch is a no-op
        assert d.count == ref.count
        assert d.total.hex() == ref.total.hex()  # bit-equal left fold
        assert d.max == ref.max
        assert d.bucket_counts() == ref.bucket_counts()
        assert d.bucket_counts() == _loop_bucket_counts(xs)
        assert summarize(d) == summarize(ref)

    def test_keys_of_normal_samples_read_off_the_bits(self):
        """All-normal, finite batches take the bit-level key path; it
        must match the scalar ``_bucket_key`` down to the octave ends
        and the smallest and largest normal doubles."""
        xs = [x for x in _edge_samples() if x >= sys.float_info.min]
        xs += [sys.float_info.min, sys.float_info.max, 0.5, 1.0]
        xs += [math.nextafter(2.0**e, 0.0) for e in range(-30, 30)]
        keys = bucket_keys_array(np.array(xs))
        assert keys.tolist() == [_bucket_key(x) for x in xs]

    def test_non_positive_only(self):
        ref = LatencyDigest()
        d = LatencyDigest()
        xs = [0.0, -2.0, -0.0, -1e-9]
        for x in xs:
            ref.record(x)
        d.extend(xs)
        assert (d.count, d.total, d.max) == (ref.count, ref.total, ref.max)
        assert d.bucket_counts() == ref.bucket_counts() == {_ZERO_KEY: 4}


def _loop_total(xs) -> float:
    """The left fold, one float addition at a time."""
    total = 0.0
    for x in xs:
        total += x
    return total


class TestLeftFold:
    """Both accumulators total their samples with the strict left fold
    — never the builtin ``sum``, which Python 3.12 made compensated, so
    a materialized mean would drift from a windowed or grouped one."""

    @pytest.mark.parametrize("source", ["edge", "exponential"])
    def test_totals_match_the_for_loop(self, source):
        if source == "edge":
            xs = _edge_samples()
        else:
            xs = np.random.default_rng(30).exponential(6.0, 30_000).tolist()
        ref = _loop_total(xs)
        mean = ref / len(xs)
        exact = LatencyStats(xs)
        digest = LatencyDigest()
        digest.extend(xs)
        assert left_fold(np.array(xs)).hex() == ref.hex()
        assert exact.total.hex() == digest.total.hex() == ref.hex()
        assert exact.mean.hex() == digest.mean.hex() == mean.hex()
        for acc in (exact, digest):
            assert summarize(acc)["mean"].hex() == mean.hex()
        # A fold seeded with the prefix's total continues it bit for bit.
        half = len(xs) // 2
        rest = left_fold(np.array(xs[half:]), _loop_total(xs[:half]))
        assert rest.hex() == ref.hex()


def _bucket_walk(buckets: dict[int, int], count: int, p: float) -> float:
    """The dict fold's rank: walk the sorted keys until the running
    count passes the nearest rank."""
    target = max(0, math.ceil(p / 100.0 * count) - 1)
    seen = 0
    for key in sorted(buckets):
        seen += buckets[key]
        if seen > target:
            return _bucket_value(key)
    raise AssertionError("bucket counts must sum to the count")


def _dict_part(kind: str, xs: list[float]) -> tuple:
    """What one part fed ``xs`` holds, computed sample by sample:
    count, left-fold total, max (the builtin ``max`` for exact samples,
    a running max from 0.0 for a digest) and the scalar-key
    histogram."""
    if kind == "stats":
        peak = max(xs) if xs else 0.0
    else:
        peak = 0.0
        for x in xs:
            if x > peak:
                peak = x
    return len(xs), _loop_total(xs), peak, _loop_bucket_counts(xs)


def _dict_merge(parts: list[tuple]) -> tuple:
    """The per-key dict merge of several parts: counts and histograms
    add key by key, totals fold in part order, maxes max from 0.0."""
    count, total, peak = 0, 0.0, 0.0
    buckets: dict[int, int] = {}
    for c, t, m, b in parts:
        if not c:
            continue
        count += c
        total += t
        if m > peak:
            peak = m
        for key, k in b.items():
            buckets[key] = buckets.get(key, 0) + k
    return count, total, peak, buckets


def _dict_summary(part: tuple) -> dict[str, float]:
    count, total, peak, buckets = part
    if not count:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": float(count),
        "mean": total / count,
        "p50": _bucket_walk(buckets, count, 50),
        "p95": _bucket_walk(buckets, count, 95),
        "max": peak,
    }


def _bits(summary: dict[str, float]) -> dict[str, str]:
    return {key: value.hex() for key, value in summary.items()}


def _fed(kind: str, xs: list[float], rng) -> LatencyStats | LatencyDigest:
    """An accumulator fed ``xs`` in order through all of its paths:
    exact samples by ``record``, then ``extend_array``, then
    ``record``; a digest by ``record`` (scalar-path buckets), then
    ``extend_array`` consolidated by a poll, then a staged
    ``extend_array``, then ``record`` again."""
    a, b, c = sorted(rng.integers(0, len(xs) + 1, size=3).tolist())
    if kind == "stats":
        acc = LatencyStats()
        for x in xs[:a]:
            acc.record(x)
        acc.extend_array(np.array(xs[a:c]))
    else:
        acc = LatencyDigest()
        for x in xs[:a]:
            acc.record(x)
        acc.extend_array(np.array(xs[a:b]))
        acc.state()  # consolidates the staged keys into sorted arrays
        acc.extend_array(np.array(xs[b:c]))
    for x in xs[c:]:
        acc.record(x)
    return acc


#: Percentiles the multi-part rank is checked at.
PARTS_PERCENTILES = (0, 0.1, 1, 25, 50, 95, 99, 99.9, 100)


class TestArrayFoldMatchesDictFold:
    """``summarize``, ``merge_summaries`` and ``percentile_of_parts``
    rank with ``np.cumsum`` + ``np.searchsorted`` over array
    histograms joined by one sort; the reference is the dict fold —
    a sorted-key walk over histograms merged key by key — computed
    from the raw samples, and the two must agree bit for bit."""

    def _check(self, kinds, samples, rng):
        parts = [_fed(kind, xs, rng) for kind, xs in zip(kinds, samples)]
        refs = [_dict_part(kind, xs) for kind, xs in zip(kinds, samples)]
        for part, ref in zip(parts, refs):
            assert _bits(summarize(part)) == _bits(_dict_summary(ref))
        merged = _dict_merge(refs)
        assert _bits(merge_summaries(parts)) == _bits(_dict_summary(merged))
        count, _t, _m, buckets = merged
        for p in PARTS_PERCENTILES:
            expected = _bucket_walk(buckets, count, p) if count else 0.0
            assert percentile_of_parts(parts, p).hex() == expected.hex()

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_mixes(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(_edge_samples())
        kinds, samples = [], []
        for _ in range(int(rng.integers(1, 7))):
            kinds.append("stats" if rng.random() < 0.5 else "digest")
            n = int(rng.choice([0, 1, 2, 7, 300, _CONSOLIDATE_AT + 5]))
            samples.append(rng.choice(pool, size=n).tolist())
        self._check(kinds, samples, rng)

    def test_edge_samples_in_every_part_kind(self):
        xs = _edge_samples()
        self._check(
            ["stats", "digest", "stats", "digest", "digest"],
            [xs, xs, [], [], xs[::-1]],
            np.random.default_rng(1),
        )
