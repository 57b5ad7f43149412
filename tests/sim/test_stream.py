"""Streaming compiled execution: window generation and the
constant-memory executors.

The contract under test: for every engine the selection gate can pick
(analytic solver, eager core, chained heap pump) and every failure
state, a windowed run produces a report equal — field for field,
including every float — to the materialized run of the same config,
at any window size.  Window boundaries are adversarial by
construction: ``window_size=1`` puts a boundary between every pair of
requests (so every multi-phase read-modify-write spans one), a prime
size keeps boundaries sliding relative to any internal periodicity,
and a size beyond the stream length degenerates to one window.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import get_layout
from repro.obs import (
    MetricsRecorder,
    build_rows,
    prometheus_text,
    render_metrics_jsonl,
)
from repro.sim import WorkloadConfig, simulate_workload
from repro.sim.compile import StreamWindows, generate_request_stream
from repro.sim.controller import ArrayController
from repro.sim.stats import summarize
from repro.sim.stream import execute_windows

LAYOUT = get_layout(9, 3)
DURATION = 600.0
#: One of each shape: a boundary everywhere, a sliding prime, a
#: power of two, and larger than the whole stream.
WINDOW_SIZES = (1, 13, 64, 10**6)


def _cfg(**overrides) -> WorkloadConfig:
    base = dict(interarrival_ms=2.0, read_fraction=0.6, seed=5)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestStreamWindows:
    def test_concatenation_matches_whole_stream_at_every_size(self):
        cfg = _cfg()
        whole = generate_request_stream(cfg, DURATION, 100)
        for ws in (1, 7, 64, 10**6):
            chunks = list(StreamWindows(cfg, DURATION, 100, window_size=ws))
            for i in range(3):
                got = np.concatenate([c[i] for c in chunks])
                assert np.array_equal(got, whole[i]), (ws, i)

    def test_zipf_addresses_chunk_identically(self):
        cfg = _cfg(zipf_theta=0.9)
        whole = generate_request_stream(cfg, DURATION, 100)
        chunks = list(StreamWindows(cfg, DURATION, 100, window_size=7))
        got = np.concatenate([c[2] for c in chunks])
        assert np.array_equal(got, whole[2])

    def test_reiterable_and_deterministic(self):
        """Each ``iter()`` builds fresh generators: two full iterations
        (and two interleaved iterators) yield identical windows."""
        w = StreamWindows(_cfg(), DURATION, 100, window_size=16)
        first = [tuple(map(np.copy, c)) for c in w]
        second = list(w)
        assert len(first) == len(second) and len(first) > 1
        for a, b in zip(first, second):
            for i in range(3):
                assert np.array_equal(a[i], b[i])
        it1, it2 = iter(w), iter(w)
        a, _ = next(it1), next(it1)
        b = next(it2)
        assert np.array_equal(a[0], b[0])

    def test_times_strictly_ordered_across_boundaries(self):
        last = float("-inf")
        for times, _, _ in StreamWindows(_cfg(), DURATION, 100, window_size=9):
            assert float(times[0]) > last
            assert np.all(np.diff(times) >= 0)
            assert float(times[-1]) < DURATION
            last = float(times[-1])

    def test_oversized_window_is_one_window(self):
        chunks = list(StreamWindows(_cfg(), DURATION, 100, window_size=10**6))
        assert len(chunks) == 1

    def test_window_size_validated(self):
        with pytest.raises(ValueError, match="window_size"):
            StreamWindows(_cfg(), DURATION, 100, window_size=0)


#: (id, simulate_workload overrides) — one per engine/failure state
#: the selection gate distinguishes.
CASES = [
    ("read_only_solver", dict(config=_cfg(read_fraction=1.0))),
    ("write_through_solver", dict(config=_cfg(), write_policy="write_through")),
    ("mixed_rmw_eager", dict(config=_cfg())),
    ("degraded_mixed", dict(config=_cfg(), failed_disk=1)),
    ("degraded_read_only", dict(config=_cfg(read_fraction=1.0), failed_disk=1)),
    ("dataplane_pump", dict(config=_cfg(read_fraction=0.5), verify_data=True)),
    ("zipf_mixed", dict(config=_cfg(zipf_theta=0.9))),
]


class TestWindowedReportEquality:
    """Windowed == materialized, per engine, per failure state, per
    window size — the report dataclass compared whole (latency floats,
    per-disk counters, utilizations, final clock)."""

    @pytest.mark.parametrize(
        "overrides", [c[1] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_matches_materialized_at_every_window_size(self, overrides):
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=DURATION, **overrides)
        )
        for ws in WINDOW_SIZES:
            windowed = asdict(
                simulate_workload(
                    LAYOUT, duration_ms=DURATION, window_size=ws, **overrides
                )
            )
            assert windowed == materialized, ws

    def test_window_boundary_mid_rmw(self):
        """``window_size=1`` places a boundary after *every* request —
        each write's read and write phases straddle one.  The eager
        core must carry its pending-phase heap across all of them."""
        overrides = dict(config=_cfg(read_fraction=0.0))
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=DURATION, **overrides)
        )
        windowed = asdict(
            simulate_workload(
                LAYOUT, duration_ms=DURATION, window_size=1, **overrides
            )
        )
        assert windowed == materialized


#: (id, simulate_workload overrides, engine the windowed run lands on).
#: The pump case ties exactly on a disk, so the eager core aborts and
#: the stream replays on the chained heap pump.
METRICS_CASES = [
    ("solver", dict(config=_cfg(read_fraction=1.0)), "windowed-solver"),
    ("eager", dict(config=_cfg()), "windowed-eager"),
    ("degraded_eager", dict(config=_cfg(), failed_disk=1), "windowed-eager"),
    ("pump", dict(config=_cfg(interarrival_ms=0.5, seed=0)), "windowed-pump"),
    (
        "dataplane",
        dict(config=_cfg(read_fraction=0.5), verify_data=True),
        "windowed-pump",
    ),
]


class TestWindowedMetricsIdentity:
    """A recorder attached to a single-array windowed run fills the same
    snapshot rows — and the report serializes to the same bytes — at
    every window size, whichever engine runs."""

    @pytest.mark.parametrize(
        "overrides,engine",
        [c[1:] for c in METRICS_CASES],
        ids=[c[0] for c in METRICS_CASES],
    )
    def test_rows_and_report_identical_at_every_window_size(
        self, overrides, engine
    ):
        outputs = set()
        for ws in (1, 7, 64, 10**6):
            rec = MetricsRecorder(50.0)
            report = simulate_workload(
                LAYOUT,
                duration_ms=DURATION,
                window_size=ws,
                recorder=rec,
                **overrides,
            )
            assert report.engine == engine, ws
            assert rec.engines == {0: engine}
            assert 'event="window_boundaries"' in prometheus_text(rec), ws
            outputs.add(
                (
                    json.dumps(asdict(report)),
                    render_metrics_jsonl(build_rows(rec)),
                )
            )
        assert len(outputs) == 1
        ((_, rows),) = outputs
        final = json.loads(rows.splitlines()[-1])
        assert final["totals"]["arrived"] == report.scheduled


class TestExecuteWindowsGate:
    def test_unbatched_windowed_rejected(self):
        with pytest.raises(ValueError, match="batched"):
            simulate_workload(
                LAYOUT, duration_ms=50.0, window_size=8, batched=False
            )

    def test_lying_read_only_hint_raises(self):
        """The hint is a caller promise; a mixed stream under it must
        fail loudly in the solver, not silently mis-simulate."""
        ctrl = ArrayController(LAYOUT)
        windows = StreamWindows(
            _cfg(read_fraction=0.5), 100.0, ctrl.mapper.capacity, window_size=16
        )
        with pytest.raises(ValueError, match="read-only"):
            execute_windows(ctrl, windows, read_only_hint=True)

    def test_one_shot_generator_streams_through_pump(self):
        """A non-re-iterable window source skips the eager tier (no
        replay possible) and still reproduces the materialized report
        through the chained heap pump."""
        cfg = _cfg()
        materialized = asdict(
            simulate_workload(LAYOUT, duration_ms=400.0, config=cfg)
        )
        ctrl = ArrayController(LAYOUT)
        one_shot = iter(
            StreamWindows(cfg, 400.0, ctrl.mapper.capacity, window_size=32)
        )
        scheduled, digests = execute_windows(ctrl, one_shot)
        assert ctrl.last_engine == "windowed-pump"
        assert scheduled == materialized["scheduled"]
        latency = {kind: summarize(d) for kind, d in digests.items()}
        assert latency == materialized["latency"]
        assert ctrl.per_disk_completed() == materialized["per_disk_ios"]

    @pytest.mark.parametrize("lba", [-1, 10**6])
    @pytest.mark.parametrize("one_shot", [False, True], ids=["carry", "pump"])
    def test_lbas_outside_capacity_refused(self, lba, one_shot):
        windows = [
            (np.array([1.0, 2.0]), np.array([True, False]), np.array([0, lba]))
        ]
        ctrl = ArrayController(LAYOUT)
        with pytest.raises(IndexError, match="outside the capacity"):
            execute_windows(ctrl, iter(windows) if one_shot else windows)

    def test_empty_stream(self):
        """A horizon shorter than the first arrival yields no windows
        and a zero report on both paths."""
        overrides = dict(config=_cfg(seed=11))
        materialized = simulate_workload(
            LAYOUT, duration_ms=1e-9, **overrides
        )
        windowed = simulate_workload(
            LAYOUT, duration_ms=1e-9, window_size=4, **overrides
        )
        assert materialized.scheduled == windowed.scheduled == 0
        assert asdict(windowed) == asdict(materialized)
