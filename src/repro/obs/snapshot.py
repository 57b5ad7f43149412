"""Snapshot rendering and export: recorder state -> JSONL / Prometheus.

A metrics file is a sequence of JSON rows (one per line):

* one ``{"type": "snapshot", ...}`` row per grid bucket, in bucket
  order — per-shard arrivals, completions, in-bucket latency
  summaries, in-flight depth, plus fleet-level rollups (events/s,
  balance ratio, admission occupancy, rebuild progress);
* one trailing ``{"type": "final", ...}`` row — cumulative per-shard
  latency summaries, the engine each shard's execution used, and the
  run-scope counters.

Every value is a pure function of (a) the recorder's grid-bucketed
state, whose per-bucket fold order the engines pin (see
``repro.obs.recorder``), and (b) the scenario report payload, which
the project's existing invariants already pin byte-identical across
engines, window sizes, and worker counts.  Rows are serialized with
``json.dumps(..., sort_keys=True)``, so the whole file inherits the
byte-identity contract.

The Prometheus exposition (:func:`prometheus_text`) is a point-in-time
export of the same state for scraping pipelines; it additionally
includes the *volatile* counters (window boundaries) that the JSONL
must exclude, so it is **not** covered by the cross-window-size
byte-identity contract.
"""

from __future__ import annotations

import json

from ..sim.stats import merge_summaries, summarize
from .recorder import MetricsRecorder

__all__ = [
    "build_rows",
    "render_metrics_jsonl",
    "prometheus_text",
]

#: The most snapshot rows one metrics file may hold (about 10 MB of
#: JSONL on an 8-shard fleet): a finer grid is refused up front.
MAX_SNAPSHOT_ROWS = 10_000


def check_snapshot_grid(rows: float, interval_ms: float) -> None:
    """Raise ``ValueError``, naming the metrics interval, when a grid of
    ``interval_ms`` buckets needs ``rows`` snapshot rows, more than
    :data:`MAX_SNAPSHOT_ROWS`."""
    if rows > MAX_SNAPSHOT_ROWS:
        raise ValueError(
            f"metrics interval {interval_ms:g} ms is too fine: its grid "
            f"needs {rows:,.0f} snapshot rows, more than the "
            f"{MAX_SNAPSHOT_ROWS:,} a metrics file may hold"
        )


def _admission_intervals(payload: dict) -> tuple[list, list]:
    """(active, queued) occupancy intervals of the shared admission
    budget, read off the report payload.

    Rebuilds hold a slot from ``started_at_ms`` for ``duration_ms`` and
    queue from ``failed_at_ms`` until admitted; migration copies hold a
    slot from ``started_at_ms`` to ``copied_at_ms`` and queue from
    ``requested_at_ms``.  Deriving occupancy from the (already
    byte-identical) report sidesteps instrumenting the admission gate's
    hot path entirely.
    """
    active: list[tuple[float, float]] = []
    queued: list[tuple[float, float]] = []
    for r in payload.get("rebuilds", ()):
        start = r["started_at_ms"]
        active.append((start, start + r["duration_ms"]))
        queued.append((r["failed_at_ms"], start))
    migration = payload.get("migration") or {}
    for m in migration.get("volumes", ()):
        if m.get("started_at_ms") is None:
            continue
        active.append((m["started_at_ms"], m["copied_at_ms"]))
        queued.append(
            (m["started_at_ms"] - m["admission_delay_ms"], m["started_at_ms"])
        )
    return active, queued


def _occupancy(intervals: list, t: float) -> int:
    """How many intervals ``[s, e)`` contain time ``t``."""
    return sum(1 for s, e in intervals if s <= t < e)


def _carry_forward(series: list, t: float):
    """Last gauge value recorded at or before ``t`` (None if none)."""
    value = None
    for when, v in series:
        if when <= t:
            value = v
    return value


def build_rows(
    recorder: MetricsRecorder, payload: dict | None = None
) -> list[dict]:
    """Render a recorder (plus an optional scenario report payload)
    into snapshot rows ready for JSONL serialization — refused before
    any row is built when its grid needs more than
    :data:`MAX_SNAPSHOT_ROWS` (:func:`check_snapshot_grid`)."""
    iv = recorder.interval_ms
    last = recorder.last_bucket()
    check_snapshot_grid(last + 1, iv)
    n_shards = recorder.shard_count()
    progress = recorder.gauge_series("rebuild_progress")
    scale = recorder.gauge_series("autoscale_shards")
    active_iv: list = []
    queued_iv: list = []
    if payload is not None:
        active_iv, queued_iv = _admission_intervals(payload)

    per_shard_lat = [recorder.latency_buckets(s) for s in range(n_shards)]
    per_shard_arr = [recorder.arrival_buckets(s) for s in range(n_shards)]
    cum_arrived = [0] * n_shards
    cum_completed = [0] * n_shards

    rows: list[dict] = []
    for b in range(last + 1):
        t_end = (b + 1) * iv
        shard_rows = []
        bucket_completed = 0
        bucket_arrived = 0
        for s in range(n_shards):
            arrived = per_shard_arr[s].get(b, 0)
            cum_arrived[s] += arrived
            bucket_arrived += arrived
            kinds = {}
            latency = {}
            completed = 0
            for kind in sorted(per_shard_lat[s]):
                digest = per_shard_lat[s][kind].get(b)
                if digest is None or not digest.count:
                    continue
                kinds[kind] = digest.count
                latency[kind] = summarize(digest)
                completed += digest.count
            cum_completed[s] += completed
            bucket_completed += completed
            shard_rows.append(
                {
                    "shard": s,
                    "arrived": arrived,
                    "completed": completed,
                    "inflight": cum_arrived[s] - cum_completed[s],
                    "kinds": kinds,
                    "latency": latency,
                }
            )
        low = min(cum_completed)
        fleet = {
            "arrived": bucket_arrived,
            "completed": bucket_completed,
            "events_per_s": bucket_completed / (iv / 1000.0),
            "inflight": sum(cum_arrived) - sum(cum_completed),
            "balance": (max(cum_completed) / low) if low else None,
            "admission_active": _occupancy(active_iv, t_end),
            "admission_queued": _occupancy(queued_iv, t_end),
        }
        frac = {
            str(key): value
            for key in sorted(progress)
            if (value := _carry_forward(progress[key], t_end)) is not None
        }
        if frac:
            fleet["rebuild_progress"] = frac
        shards_now = _carry_forward(scale.get(0, []), t_end)
        if shards_now is not None:
            fleet["autoscale_shards"] = int(shards_now)
        rows.append(
            {
                "type": "snapshot",
                "seq": b,
                "t_ms": t_end,
                "interval_ms": iv,
                "fleet": fleet,
                "shards": shard_rows,
            }
        )

    totals = []
    for s in range(n_shards):
        latency = {}
        for kind in sorted(per_shard_lat[s]):
            buckets = per_shard_lat[s][kind]
            parts = [buckets[b] for b in sorted(buckets)]
            if parts:
                latency[kind] = merge_summaries(parts)
        row = {
            "shard": s,
            "arrived": sum(per_shard_arr[s].values()),
            "completed": sum(
                d.count
                for buckets in per_shard_lat[s].values()
                for d in buckets.values()
            ),
            "latency": latency,
        }
        stats = recorder.stats(s)
        if stats:
            row["stats"] = stats
        totals.append(row)
    rows.append(
        {
            "type": "final",
            "t_ms": (last + 1) * iv,
            "interval_ms": iv,
            "engine": {
                str(s): recorder.engines[s]
                for s in sorted(recorder.engines)
            },
            "counters": recorder.counters(),
            "totals": {
                "arrived": sum(t["arrived"] for t in totals),
                "completed": sum(t["completed"] for t in totals),
                "shards": totals,
            },
        }
    )
    return rows


def render_metrics_jsonl(rows: list[dict]) -> str:
    """Serialize snapshot rows as sorted-key JSONL (the byte-identity
    form the determinism tests compare)."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def prometheus_text(
    recorder: MetricsRecorder, payload: dict | None = None
) -> str:
    """Prometheus text exposition of the recorder's cumulative state.

    Families (all prefixed ``repro_``): per-shard/kind completion
    counts and latency summary stats, per-shard arrivals, run-scope
    counters (including the volatile window-boundary counts), engine
    labels as an info metric, and — when a payload is given — the
    report's end-state throughput and shard balance.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str, samples: list) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            label_str = ",".join(
                f'{k}="{_prom_escape(str(v))}"' for k, v in labels
            )
            rendered = f"{{{label_str}}}" if label_str else ""
            lines.append(f"{name}{rendered} {value}")

    n_shards = recorder.shard_count()
    completed = []
    latency = []
    for s in range(n_shards):
        for kind in sorted(recorder.latency_buckets(s)):
            buckets = recorder.latency_buckets(s)[kind]
            parts = [buckets[b] for b in sorted(buckets)]
            if not parts:
                continue
            summary = merge_summaries(parts)
            labels = (("shard", s), ("kind", kind))
            completed.append((labels, int(summary["count"])))
            for stat in ("mean", "p50", "p95", "max"):
                latency.append(
                    (labels + (("stat", stat),), summary[stat])
                )
    family(
        "repro_requests_completed_total",
        "counter",
        "Requests completed, by shard and kind.",
        completed,
    )
    family(
        "repro_latency_ms",
        "gauge",
        "End-to-end latency summary statistics (sim milliseconds).",
        latency,
    )
    family(
        "repro_requests_arrived_total",
        "counter",
        "Requests routed to each shard.",
        [
            ((("shard", s),), sum(recorder.arrival_buckets(s).values()))
            for s in range(n_shards)
            if recorder.arrival_buckets(s)
        ],
    )
    counters = dict(recorder.counters())
    counters.update(recorder.counters(volatile=True))
    family(
        "repro_events_total",
        "counter",
        "Run-scope instrumentation counters, by event name.",
        [((("event", k),), v) for k, v in sorted(counters.items())],
    )
    family(
        "repro_engine_info",
        "gauge",
        "Execution engine selected per shard (value is always 1).",
        [
            ((("shard", s), ("engine", recorder.engines[s])), 1)
            for s in sorted(recorder.engines)
        ],
    )
    if payload is not None:
        fleet = payload["fleet"]
        family(
            "repro_fleet_throughput_rps",
            "gauge",
            "Completed requests per simulated second, whole run.",
            [((), fleet["throughput_rps"])],
        )
        if fleet.get("shard_balance") is not None:
            family(
                "repro_fleet_shard_balance",
                "gauge",
                "Max/min per-shard scheduled-request ratio.",
                [((), fleet["shard_balance"])],
            )
    return "\n".join(lines) + "\n"
