"""Failure orchestration: concurrent multi-array rebuilds, bit-for-bit
verification, and the admission-control knob."""

import math

import pytest

from repro.service import (
    FailureEvent,
    FailureOrchestrator,
    Fleet,
    default_failure_schedule,
)
from repro.sim import WorkloadConfig


def _run(fleet, failures, admission=2, duration_ms=600.0, read_fraction=0.7):
    orch = FailureOrchestrator(fleet, failures, admission=admission)
    orch.arm()
    cfg = WorkloadConfig(
        interarrival_ms=1.0, read_fraction=read_fraction, seed=13
    )
    fleet.serve_workload(cfg, duration_ms)
    fleet.sim.run()
    return orch


class TestConcurrentFailures:
    @pytest.mark.parametrize("k_failures", [2, 3, 5])
    def test_simultaneous_failures_all_rebuild_bit_for_bit(self, k_failures):
        """The satellite property: K simultaneous single-disk failures
        in different arrays, under live traffic, all rebuild and every
        rebuilt image matches the data plane bit for bit."""
        fleet = Fleet(8, 9, 3, dataplane=True, seed=0)
        failures = default_failure_schedule(8, 9, k_failures, 150.0)
        orch = _run(fleet, failures, admission=k_failures)
        assert orch.done
        assert len(orch.outcomes) == k_failures
        assert all(o.report.data_verified is True for o in orch.outcomes)
        assert orch.all_verified
        rebuilt_arrays = {o.array for o in orch.outcomes}
        assert len(rebuilt_arrays) == k_failures

    def test_rebuild_reads_only_survivors(self):
        fleet = Fleet(4, 9, 3, dataplane=True, seed=0)
        orch = _run(fleet, (FailureEvent(100.0, 2, 5),))
        (outcome,) = orch.outcomes
        assert outcome.array == 2
        assert outcome.report.failed_disk == 5
        assert outcome.report.units_read_per_disk[5] == 0
        assert outcome.report.stripes_rebuilt > 0

    def test_outcomes_deterministic(self):
        runs = []
        for _ in range(2):
            fleet = Fleet(6, 9, 3, dataplane=True, seed=4)
            orch = _run(fleet, default_failure_schedule(6, 9, 3, 120.0))
            runs.append(
                [
                    (o.array, o.failed_disk, o.started_at_ms,
                     o.report.duration_ms, o.report.stripes_rebuilt)
                    for o in orch.outcomes
                ]
            )
        assert runs[0] == runs[1]


class TestAdmissionControl:
    def test_admission_one_serializes_rebuilds(self):
        fleet = Fleet(6, 9, 3, dataplane=True, seed=0)
        failures = default_failure_schedule(6, 9, 3, 100.0)
        orch = _run(fleet, failures, admission=1)
        assert orch.done and orch.all_verified
        assert orch.max_concurrent_observed() == 1
        # Later rebuilds waited for the slot.
        delays = sorted(o.admission_delay_ms for o in orch.outcomes)
        assert delays[0] == 0.0
        assert delays[-1] > 0.0
        # No two rebuild intervals overlap.
        intervals = sorted(
            (o.started_at_ms, o.started_at_ms + o.report.duration_ms)
            for o in orch.outcomes
        )
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end

    def test_admission_k_runs_concurrently(self):
        fleet = Fleet(6, 9, 3, dataplane=True, seed=0)
        failures = default_failure_schedule(6, 9, 3, 100.0)
        orch = _run(fleet, failures, admission=3)
        assert orch.done and orch.all_verified
        assert orch.max_concurrent_observed() == 3
        assert all(o.admission_delay_ms == 0.0 for o in orch.outcomes)

    def test_admission_limits_peak_concurrency(self):
        fleet = Fleet(8, 9, 3, dataplane=True, seed=0)
        failures = default_failure_schedule(8, 9, 4, 100.0)
        orch = _run(fleet, failures, admission=2)
        assert orch.done and orch.all_verified
        assert orch.max_concurrent_observed() <= 2


class TestValidation:
    def test_rejects_bad_targets(self):
        fleet = Fleet(2, 9, 3)
        with pytest.raises(ValueError):
            FailureOrchestrator(fleet, (FailureEvent(0.0, 2, 0),))
        with pytest.raises(ValueError):
            FailureOrchestrator(fleet, (FailureEvent(0.0, 0, 9),))
        with pytest.raises(ValueError):
            FailureOrchestrator(fleet, (FailureEvent(-1.0, 0, 0),))
        for time_ms in (math.nan, math.inf):
            with pytest.raises(ValueError, match="failure time"):
                FailureOrchestrator(fleet, (FailureEvent(time_ms, 0, 0),))
        with pytest.raises(ValueError):
            FailureOrchestrator(
                fleet, (FailureEvent(0.0, 1, 0), FailureEvent(5.0, 1, 1))
            )
        with pytest.raises(ValueError):
            FailureOrchestrator(fleet, (), admission=0)

    def test_double_arm_rejected(self):
        fleet = Fleet(2, 9, 3)
        orch = FailureOrchestrator(fleet, ())
        orch.arm()
        with pytest.raises(RuntimeError):
            orch.arm()

    def test_schedule_overflow_rejected(self):
        with pytest.raises(ValueError):
            default_failure_schedule(2, 9, 3, 100.0)
