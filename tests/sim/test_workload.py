"""Tests for synthetic workload generation."""

import math

import pytest

from repro.layouts import ring_layout
from repro.sim import ArrayController, WorkloadConfig, drive_workload


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(interarrival_ms=0)
        with pytest.raises(ValueError):
            WorkloadConfig(read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_theta=-1)
        for name in ("interarrival_ms", "zipf_theta"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    WorkloadConfig(**{name: value})


class TestDriveWorkload:
    def test_scheduled_count_matches_rate(self):
        ctrl = ArrayController(ring_layout(5, 3))
        n = drive_workload(ctrl, WorkloadConfig(interarrival_ms=10.0, seed=0), 10_000.0)
        # Poisson with mean 1000 arrivals; allow wide slack.
        assert 800 <= n <= 1200

    def test_deterministic_given_seed(self):
        c1 = ArrayController(ring_layout(5, 3))
        c2 = ArrayController(ring_layout(5, 3))
        cfg = WorkloadConfig(seed=7)
        n1 = drive_workload(c1, cfg, 2000.0)
        n2 = drive_workload(c2, cfg, 2000.0)
        c1.sim.run()
        c2.sim.run()
        assert n1 == n2
        assert c1.per_disk_completed() == c2.per_disk_completed()

    def test_read_fraction_respected(self):
        ctrl = ArrayController(ring_layout(5, 3))
        drive_workload(ctrl, WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=1), 3000.0)
        ctrl.sim.run()
        assert "write" not in ctrl.latency
        assert ctrl.latency["read"].count > 0

    def test_all_writes(self):
        ctrl = ArrayController(ring_layout(5, 3))
        drive_workload(ctrl, WorkloadConfig(interarrival_ms=5.0, read_fraction=0.0, seed=1), 2000.0)
        ctrl.sim.run()
        assert "read" not in ctrl.latency

    def test_zipf_skews_load(self):
        # With heavy skew, a few units absorb most accesses; per-disk
        # spread should exceed the uniform case.
        import numpy as np

        def spread(theta):
            ctrl = ArrayController(ring_layout(5, 3))
            drive_workload(
                ctrl,
                WorkloadConfig(interarrival_ms=2.0, read_fraction=1.0, zipf_theta=theta, seed=3),
                5000.0,
            )
            ctrl.sim.run()
            per = np.array(ctrl.per_disk_completed(), dtype=float)
            return per.std() / per.mean()

        assert spread(3.0) > spread(0.0)

    def test_zero_duration(self):
        ctrl = ArrayController(ring_layout(5, 3))
        assert drive_workload(ctrl, WorkloadConfig(seed=0), 0.0) == 0
