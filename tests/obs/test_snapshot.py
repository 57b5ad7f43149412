"""Snapshot rendering: recorder state -> JSONL rows / Prometheus text."""

import json

import numpy as np
import pytest

from repro.obs import MetricsRecorder, build_rows, prometheus_text, render_metrics_jsonl
from repro.obs.snapshot import (
    MAX_SNAPSHOT_ROWS,
    _admission_intervals,
    _carry_forward,
    _occupancy,
)


def _loaded_recorder() -> MetricsRecorder:
    rec = MetricsRecorder(10.0, shards=2)
    rec.arrivals(0, np.array([1.0, 2.0, 15.0]))
    rec.arrivals(1, np.array([3.0]))
    rec.feed(0, "read", np.array([2.0, 12.0]), np.array([1.0, 2.0]))
    rec.feed(1, "write", np.array([5.0]), np.array([3.0]))
    rec.set_engine(0, "solver")
    rec.set_engine(1, "solver")
    rec.set_stat(0, "queue_delay_ms", 4.0)
    rec.count("tie_abort_replays")
    rec.count("window_boundaries", 7, volatile=True)
    rec.gauge("rebuild_progress", 0, 12.0, 0.5)
    return rec


class TestBuildRows:
    def test_row_grid_and_final(self):
        rows = build_rows(_loaded_recorder())
        assert [r["type"] for r in rows] == ["snapshot", "snapshot", "final"]
        first, second, final = rows
        assert first["t_ms"] == 10.0 and second["t_ms"] == 20.0
        assert first["fleet"]["arrived"] == 3
        assert first["fleet"]["completed"] == 2
        # shard 1 has completed nothing in bucket 0? it has: the write
        # at t=5 — so min cumulative completed is 1 and balance is 1.0.
        assert first["fleet"]["balance"] == 1.0
        assert first["shards"][0]["kinds"] == {"read": 1}
        assert second["fleet"]["rebuild_progress"] == {"0": 0.5}
        assert final["engine"] == {"0": "solver", "1": "solver"}
        assert final["counters"] == {"tie_abort_replays": 1}
        assert final["totals"]["completed"] == 3
        shard0 = final["totals"]["shards"][0]
        assert shard0["stats"] == {"queue_delay_ms": 4.0}
        assert "stats" not in final["totals"]["shards"][1]

    def test_inflight_is_cumulative_arrived_minus_completed(self):
        rows = build_rows(_loaded_recorder())
        assert rows[0]["shards"][0]["inflight"] == 1  # 2 arrived, 1 done
        assert rows[1]["shards"][0]["inflight"] == 1  # 3 arrived, 2 done

    def test_balance_none_when_a_shard_is_idle(self):
        rec = MetricsRecorder(10.0, shards=2)
        rec.feed(0, "read", np.array([1.0]), np.array([1.0]))
        rows = build_rows(rec)
        assert rows[0]["fleet"]["balance"] is None

    def test_autoscale_shards_gauge_carries_forward(self):
        rec = _loaded_recorder()
        rec.gauge("autoscale_shards", 0, 12.0, 2)
        rec.gauge("autoscale_shards", 0, 18.0, 4)
        rows = build_rows(rec)
        # No sample in the first window -> key absent; latest value
        # carries into each later snapshot.
        assert "autoscale_shards" not in rows[0]["fleet"]
        assert rows[1]["fleet"]["autoscale_shards"] == 4

    def test_volatile_counters_stay_out_of_jsonl(self):
        text = render_metrics_jsonl(build_rows(_loaded_recorder()))
        assert "window_boundaries" not in text
        assert "tie_abort_replays" in text

    def test_jsonl_rows_parse_and_sort_keys(self):
        text = render_metrics_jsonl(build_rows(_loaded_recorder()))
        lines = text.splitlines()
        for line in lines:
            row = json.loads(line)
            assert line == json.dumps(row, sort_keys=True)

    def test_empty_recorder_renders_final_only(self):
        rows = build_rows(MetricsRecorder(10.0))
        assert [r["type"] for r in rows] == ["final"]

    def test_grid_at_the_row_cap_renders(self):
        rec = MetricsRecorder(0.1)
        rec.arrivals(0, np.array([(MAX_SNAPSHOT_ROWS - 0.5) * 0.1]))
        assert len(build_rows(rec)) == MAX_SNAPSHOT_ROWS + 1

    @pytest.mark.parametrize("observe", ["arrival", "completion", "gauge"])
    def test_grid_past_the_row_cap_refused(self, observe):
        """One observation past the cap's last bucket is refused before
        any row is built, whatever recorded it."""
        rec = MetricsRecorder(0.1)
        t = (MAX_SNAPSHOT_ROWS + 0.5) * 0.1
        if observe == "arrival":
            rec.arrivals(0, np.array([t]))
        elif observe == "completion":
            rec.feed(0, "read", np.array([t]), np.array([1.0]))
        else:
            rec.gauge("rebuild_progress", 0, t, 0.5)
        with pytest.raises(ValueError, match="metrics interval 0.1 ms"):
            build_rows(rec)


class TestAdmissionOccupancy:
    PAYLOAD = {
        "rebuilds": [
            {"failed_at_ms": 10.0, "started_at_ms": 10.0, "duration_ms": 30.0},
            {"failed_at_ms": 10.0, "started_at_ms": 40.0, "duration_ms": 20.0},
        ],
        "migration": {
            "volumes": [
                {
                    "started_at_ms": 50.0,
                    "copied_at_ms": 70.0,
                    "admission_delay_ms": 5.0,
                },
                {"started_at_ms": None},
            ]
        },
    }

    def test_intervals_from_payload(self):
        active, queued = _admission_intervals(self.PAYLOAD)
        assert (10.0, 40.0) in active and (40.0, 60.0) in active
        assert (50.0, 70.0) in active
        assert (10.0, 40.0) in queued and (45.0, 50.0) in queued

    def test_occupancy_counts_half_open_intervals(self):
        active, queued = _admission_intervals(self.PAYLOAD)
        assert _occupancy(active, 15.0) == 1
        assert _occupancy(active, 55.0) == 2
        assert _occupancy(active, 40.0) == 1  # [10,40) closed, [40,60) open
        assert _occupancy(queued, 20.0) == 1

    def test_carry_forward(self):
        series = [(5.0, 0.1), (25.0, 0.9)]
        assert _carry_forward(series, 4.0) is None
        assert _carry_forward(series, 10.0) == 0.1
        assert _carry_forward(series, 30.0) == 0.9


class TestPrometheus:
    def test_families_present(self):
        rec = _loaded_recorder()
        payload = {"fleet": {"throughput_rps": 123.0, "shard_balance": 1.5}}
        text = prometheus_text(rec, payload)
        assert 'repro_requests_completed_total{shard="0",kind="read"} 2' in text
        assert 'repro_engine_info{shard="0",engine="solver"} 1' in text
        assert 'repro_events_total{event="window_boundaries"} 7' in text
        assert "repro_fleet_throughput_rps 123.0" in text
        assert "repro_fleet_shard_balance 1.5" in text
        assert 'stat="p95"' in text

    def test_renders_without_payload(self):
        text = prometheus_text(_loaded_recorder())
        assert "repro_fleet_throughput_rps" not in text
        assert "repro_requests_arrived_total" in text
