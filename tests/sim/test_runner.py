"""Tests for the high-level simulation runners."""

import json
from dataclasses import asdict

import pytest

from repro.core import get_layout
from repro.layouts import raid5_layout, ring_layout
from repro.sim import WorkloadConfig, simulate_rebuild, simulate_workload


class TestSimulateRebuild:
    def test_basic(self):
        lay = ring_layout(7, 3)
        rep = simulate_rebuild(lay, failed_disk=0)
        assert rep.duration_ms > 0
        assert rep.spare_units_written == lay.size

    def test_verified(self):
        rep = simulate_rebuild(ring_layout(5, 3), failed_disk=1, verify_data=True)
        assert rep.data_verified is True

    def test_with_foreground_workload_slower(self):
        lay = ring_layout(9, 3)
        quiet = simulate_rebuild(lay, failed_disk=0)
        busy = simulate_rebuild(
            lay,
            failed_disk=0,
            workload=WorkloadConfig(interarrival_ms=3.0, seed=5),
            workload_duration_ms=10_000.0,
        )
        assert busy.duration_ms > quiet.duration_ms

    def test_declustering_reduces_survivor_reads(self):
        # The paper's core claim: smaller k reads a smaller fraction.
        v = 9
        small_k = simulate_rebuild(ring_layout(v, 3), failed_disk=0)
        raid5 = simulate_rebuild(raid5_layout(v, rotations=6), failed_disk=0)
        f_small = max(small_k.read_fractions(ring_layout(v, 3).size))
        f_raid5 = max(raid5.read_fractions(raid5_layout(v, rotations=6).size))
        assert f_small == pytest.approx(2 / 8)
        assert f_raid5 == pytest.approx(1.0)


class TestSimulateWorkload:
    def test_report_fields(self):
        rep = simulate_workload(
            ring_layout(5, 3),
            duration_ms=3000.0,
            config=WorkloadConfig(interarrival_ms=6.0, seed=2),
        )
        assert rep.scheduled > 0
        assert "read" in rep.latency
        assert len(rep.per_disk_ios) == 5
        assert rep.max_min_io_ratio >= 1.0

    def test_degraded_mode(self):
        rep = simulate_workload(
            ring_layout(5, 3),
            duration_ms=3000.0,
            config=WorkloadConfig(interarrival_ms=6.0, seed=2),
            failed_disk=0,
        )
        assert rep.per_disk_ios[0] == 0
        assert "degraded_read" in rep.latency or "degraded_write" in rep.latency

    def test_engine_label_surfaced(self):
        """The report carries the engine the run actually used, for
        every gate outcome: analytic solver (single-phase), batch
        stepper (mixed), windowed variants, and the unlabeled scalar
        baseline."""
        lay = ring_layout(5, 3)
        common = dict(duration_ms=400.0, config=WorkloadConfig(seed=2))
        mixed = simulate_workload(lay, **common)
        assert mixed.engine == "eager"
        solver = simulate_workload(
            lay,
            duration_ms=400.0,
            config=WorkloadConfig(read_fraction=1.0, seed=2),
        )
        assert solver.engine == "solver"
        windowed = simulate_workload(lay, window_size=16, **common)
        assert windowed.engine in ("windowed-eager", "windowed-pump")
        windowed_ro = simulate_workload(
            lay,
            duration_ms=400.0,
            window_size=16,
            config=WorkloadConfig(read_fraction=1.0, seed=2),
        )
        assert windowed_ro.engine == "windowed-solver"
        scalar = simulate_workload(lay, batched=False, **common)
        assert scalar.engine is None

    def test_saturation_raises_latency(self):
        lay = ring_layout(5, 3)
        light = simulate_workload(
            lay, duration_ms=3000.0, config=WorkloadConfig(interarrival_ms=30.0, seed=3)
        )
        heavy = simulate_workload(
            lay, duration_ms=3000.0, config=WorkloadConfig(interarrival_ms=4.0, seed=3)
        )
        assert heavy.latency["read"]["mean"] > light.latency["read"]["mean"]


class TestReportBytesEngineIndependent:
    """The report's latency kinds come out sorted, so its serialized
    bytes do not depend on which engine ran (each engine first
    completes request kinds in its own order)."""

    @pytest.mark.parametrize("failed_disk", [None, 1], ids=["healthy", "degraded"])
    def test_same_bytes_across_engines(self, failed_disk):
        cfg = WorkloadConfig(read_fraction=0.3, seed=0)
        reports = [
            simulate_workload(
                get_layout(13, 4),
                duration_ms=2000.0,
                config=cfg,
                failed_disk=failed_disk,
                **kw,
            )
            for kw in (
                dict(batched=True),
                dict(batched=False),
                dict(window_size=16),
            )
        ]
        kinds = [list(r.latency) for r in reports]
        assert kinds[0] == sorted(kinds[0])
        assert kinds[1] == kinds[0] and kinds[2] == kinds[0]
        blobs = {json.dumps(asdict(r)) for r in reports}
        assert len(blobs) == 1
