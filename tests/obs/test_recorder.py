"""Unit coverage for :class:`repro.obs.MetricsRecorder` and the null
recorder default."""

import math

import numpy as np
import pytest

from repro.obs import NULL_RECORDER, MetricsRecorder, NullRecorder


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        # Every hook is a no-op — the engines call these unconditionally
        # on uninstrumented controllers.
        rec.feed(0, "read", np.array([1.0]), np.array([0.5]))
        rec.record(0, "read", 1.0, 0.5)
        rec.arrivals(0, np.array([1.0]))
        rec.arrive(0, 1.0)
        rec.gauge("g", 0, 1.0, 0.5)
        rec.count("c")
        rec.set_engine(0, "solver")
        rec.set_stat(0, "s", 1.0)
        rec.restore_shard(0, rec.shard_state(0))

    def test_singleton_exported(self):
        assert isinstance(NULL_RECORDER, NullRecorder)


class TestRecorderIngestion:
    def test_interval_must_be_positive(self):
        for interval in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="interval"):
                MetricsRecorder(interval)

    def test_feed_buckets_by_completion_time(self):
        rec = MetricsRecorder(10.0)
        comps = np.array([1.0, 9.9, 10.0, 25.0])
        lats = np.array([1.0, 2.0, 3.0, 4.0])
        rec.feed(0, "read", comps, lats)
        buckets = rec.latency_buckets(0)["read"]
        assert sorted(buckets) == [0, 1, 2]
        assert buckets[0].count == 2
        assert buckets[1].count == 1
        assert buckets[2].count == 1
        assert rec.last_bucket() == 2

    def test_feed_single_bucket_fast_path(self):
        rec = MetricsRecorder(100.0)
        rec.feed(1, "write", np.array([5.0, 6.0, 7.0]), np.array([1.0, 1.0, 2.0]))
        assert rec.latency_buckets(1)["write"][0].count == 3

    def test_feed_chunking_invariance(self):
        """Windowed feeds emit prefixes of the one-shot order — the
        per-bucket digests must not depend on the chunking."""
        comps = np.sort(np.random.default_rng(0).uniform(0, 50, 200))
        lats = np.random.default_rng(1).uniform(0.1, 9.0, 200)
        one = MetricsRecorder(7.0)
        one.feed(0, "read", comps, lats)
        many = MetricsRecorder(7.0)
        for lo in range(0, 200, 13):
            many.feed(0, "read", comps[lo:lo + 13], lats[lo:lo + 13])
        a = one.latency_buckets(0)["read"]
        b = many.latency_buckets(0)["read"]
        assert sorted(a) == sorted(b)
        from repro.sim.stats import summarize

        for k in a:
            assert summarize(a[k]) == summarize(b[k])

    def test_record_scalar_matches_feed(self):
        a = MetricsRecorder(10.0)
        a.feed(0, "read", np.array([3.0, 14.0]), np.array([1.0, 2.0]))
        b = MetricsRecorder(10.0)
        b.record(0, "read", 3.0, 1.0)
        b.record(0, "read", 14.0, 2.0)
        from repro.sim.stats import summarize

        for k in a.latency_buckets(0)["read"]:
            assert summarize(a.latency_buckets(0)["read"][k]) == summarize(
                b.latency_buckets(0)["read"][k]
            )

    def test_arrivals_bucketed_and_summed(self):
        rec = MetricsRecorder(10.0)
        rec.arrivals(2, np.array([0.0, 5.0, 15.0]))
        rec.arrive(2, 15.5)
        assert rec.arrival_buckets(2) == {0: 2, 1: 2}

    @pytest.mark.parametrize("interval", [0.3, 1.0, 7.0])
    def test_batch_buckets_match_the_scalar_grid(self, interval):
        """``feed`` and ``arrivals`` find a sorted batch's buckets with
        one search per bucket edge (or one floor per sample when the
        batch spans more buckets than it has samples), ``arrivals``
        after sorting an out-of-order slice; either way every sample
        lands where ``record`` / ``arrive`` put it — times sitting
        exactly on bucket edges, gaps of empty buckets and out-of-order
        arrivals included."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 9, 40, 300):
            times = np.sort(rng.uniform(0.0, 60.0, n))
            times[: n // 3] = np.floor(times[: n // 3])  # on the edges
            times.sort()
            lats = rng.uniform(0.5, 9.0, n)
            batch = MetricsRecorder(interval)
            scalar = MetricsRecorder(interval)
            batch.feed(0, "read", times, lats)
            batch.arrivals(0, times[::-1])  # out of order
            batch.arrivals(1, times)
            for t, lat in zip(times.tolist(), lats.tolist()):
                scalar.record(0, "read", t, lat)
                scalar.arrive(0, t)
                scalar.arrive(1, t)
            got = batch.latency_buckets(0)["read"]
            ref = scalar.latency_buckets(0)["read"]
            assert sorted(got) == sorted(ref)
            assert [got[b].count for b in sorted(got)] == [
                ref[b].count for b in sorted(ref)
            ]
            for shard in (0, 1):
                assert batch.arrival_buckets(shard) == scalar.arrival_buckets(
                    shard
                )

    def test_empty_feeds_are_noops(self):
        rec = MetricsRecorder(10.0)
        rec.feed(0, "read", np.array([]), np.array([]))
        rec.arrivals(0, np.array([]))
        assert rec.last_bucket() == -1


class TestRecorderScopes:
    def test_counters_split_volatile(self):
        rec = MetricsRecorder(10.0)
        rec.count("tie_abort_replays")
        rec.count("window_boundaries", 3, volatile=True)
        assert rec.counters() == {"tie_abort_replays": 1}
        assert rec.counters(volatile=True) == {"window_boundaries": 3}

    def test_engines_and_stats(self):
        rec = MetricsRecorder(10.0)
        rec.set_engine(1, "solver")
        rec.set_stat(1, "queue_delay_ms", 12.5)
        assert rec.engines == {1: "solver"}
        assert rec.stats(1) == {"queue_delay_ms": 12.5}
        assert rec.stats(0) == {}

    def test_gauge_series_in_record_order(self):
        rec = MetricsRecorder(10.0)
        rec.gauge("rebuild_progress", 0, 5.0, 0.1)
        rec.gauge("rebuild_progress", 0, 9.0, 0.5)
        assert rec.gauge_series("rebuild_progress")[0] == [(5.0, 0.1), (9.0, 0.5)]

    def test_restore_shard_puts_back_samples_and_arrivals_only(self):
        rec = MetricsRecorder(10.0)
        rec.feed(0, "read", np.array([1.0]), np.array([2.0]))
        rec.arrivals(0, np.array([1.0]))
        empty, kept = rec.shard_state(1), rec.shard_state(0)
        rec.feed(0, "read", np.array([15.0]), np.array([3.0]))
        rec.arrivals(0, np.array([15.0]))
        rec.arrivals(1, np.array([4.0]))
        rec.count("tie_abort_replays")
        rec.set_engine(0, "windowed-eager")
        rec.restore_shard(0, kept)
        rec.restore_shard(1, empty)
        assert list(rec.latency_buckets(0)["read"]) == [0]
        assert rec.latency_buckets(0)["read"][0].state().total == 2.0
        assert rec.arrival_buckets(0) == {0: 1}
        assert rec.arrival_buckets(1) == {}
        assert rec.counters() == {"tie_abort_replays": 1}
        assert rec.engines == {0: "windowed-eager"}

    def test_arrive_takes_back_and_drops_an_emptied_bucket(self):
        rec = MetricsRecorder(10.0)
        rec.arrivals(0, np.array([1.0, 2.0, 12.0]))
        rec.arrive(0, 2.0, -1)
        rec.arrive(0, 12.0, -1)
        assert rec.arrival_buckets(0) == {0: 1}

    def test_shard_count_covers_everything_observed(self):
        rec = MetricsRecorder(10.0, shards=2)
        assert rec.shard_count() == 2
        rec.set_engine(5, "heap")
        assert rec.shard_count() == 6


class TestAbsorb:
    def test_placement_merge(self):
        parent = MetricsRecorder(10.0, shards=2)
        parent.feed(0, "read", np.array([1.0]), np.array([1.0]))
        parent.count("tie_abort_replays")
        worker = MetricsRecorder(10.0, shards=4)
        worker.feed(3, "write", np.array([2.0]), np.array([0.5]))
        worker.arrivals(3, np.array([0.5]))
        worker.set_engine(3, "eager")
        worker.set_stat(3, "queue_delay_ms", 1.0)
        worker.count("tie_abort_replays", 2)
        worker.gauge("rebuild_progress", 3, 4.0, 1.0)
        parent.absorb(worker)
        assert parent.latency_buckets(0)["read"][0].count == 1
        assert parent.latency_buckets(3)["write"][0].count == 1
        assert parent.arrival_buckets(3) == {0: 1}
        assert parent.engines == {3: "eager"}
        assert parent.stats(3) == {"queue_delay_ms": 1.0}
        assert parent.counters() == {"tie_abort_replays": 3}
        assert parent.gauge_series("rebuild_progress")[3] == [(4.0, 1.0)]
        assert parent.shard_count() == 4
