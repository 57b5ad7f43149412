"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_equal_times_fifo(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        assert sim.pending() == 1
        sim.run()
        assert log == [1, 10]

    def test_at_absolute(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        hit = []
        sim.at(7.0, lambda: hit.append(sim.now))
        sim.run()
        assert hit == [7.0]

    def test_armed_shards_names_pending_claims(self):
        sim = Simulator()
        a, b = object(), object()
        assert sim.armed_shards() == frozenset()
        sim.arm(5.0, lambda: None, (a,))
        sim.arm(8.0, lambda: None, (a, b))
        assert sim.armed_shards() == {a, b}
        sim.run(until=6.0)
        assert sim.armed_shards() == {b, a}
        sim.run()
        assert sim.armed_shards() == frozenset()

    def test_unnamed_pending_event_arms_every_shard(self):
        sim = Simulator()
        sim.arm(5.0, lambda: None, (object(),))
        sim.at(7.0, lambda: None)
        assert sim.armed_shards() is None
        sim.run(until=6.0)
        assert sim.armed_shards() is None
        sim.run()
        assert sim.armed_shards() == frozenset()

    def test_arm_fires_like_at(self):
        sim = Simulator()
        log = []
        sim.at(3.0, lambda: log.append("at"))
        sim.arm(3.0, lambda: log.append("arm"), ())
        sim.run()
        assert log == ["at", "arm"]
        with pytest.raises(ValueError, match="past"):
            sim.arm(1.0, lambda: None, ())

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.001, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=1000)

    def test_step_and_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()
        assert sim.events_processed == 1

    def test_runaway_guard_reports_progress(self):
        # The budget error must be diagnosable: events processed this
        # run, lifetime total, and the remaining backlog.
        sim = Simulator()

        def rearm():
            sim.schedule(0.5, rearm)
            sim.schedule(0.5, lambda: None)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError) as exc:
            sim.run(max_events=100)
        msg = str(exc.value)
        assert "max_events=100" in msg
        assert "processed 100 events this run" in msg
        assert "still pending" in msg
        # The guard stops *at* the budget, not one event past it.
        assert sim.events_processed == 100

    def test_at_exact_times_chain(self):
        # at() must fire at the exact absolute float pushed, even when
        # armed from a prior event at an "awkward" time.
        sim = Simulator()
        target = 0.1 + 0.2 + 7.3  # not exactly representable sums
        hits = []
        sim.schedule(0.1, lambda: sim.at(target, lambda: hits.append(sim.now)))
        sim.run()
        assert hits == [target]
        with pytest.raises(ValueError):
            sim.at(target - 1.0, lambda: None)
