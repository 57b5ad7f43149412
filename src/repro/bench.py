"""Benchmark suites behind ``python -m repro bench``.

Three artifact-writing suites pin the scale story:

* **mapping** (``BENCH_mapping.json``) — batched address translation
  (:meth:`AddressMapper.map_batch`) vs the scalar per-address loop,
  with the ``int32`` flat tables timed against an ``int64``-forced
  table set (the narrowing's before/after);
* **sim** (``BENCH_sim.json``) — the compiled simulation pipeline:
  workload events/sec (analytic solver and compiled executor vs the
  scalar per-event path), vectorized vs scalar rebuild-scan planning at
  10^4/10^5/10^6 stripes, sparse-incidence ``evaluate_layout`` at the
  same scales, and the **streaming memory case**: a mixed 4-shard
  fleet served through fixed-size compiled windows at 10^5 and 10^7
  requests, each in its own subprocess so ``ru_maxrss`` is a clean
  per-run high-water mark — peak RSS at the 100x horizon must stay
  within 1.5x of the small run (constant-memory claim), and the
  windowed report at 10^5 must equal the materialized one field for
  field;
* **service** (``BENCH_service.json``) — the fleet service: achieved
  throughput vs shard count at fixed offered load (the single-array
  row is the baseline), degraded-mode throughput while two arrays
  fail and rebuild concurrently under admission control, request-level
  shard balance per placement policy (the uniform-routing ``ring``
  baseline is ~2x max/min; ``p2c``/``weighted`` must hold <= 1.3x),
  a live grow migration (4 -> 8 shards under mixed traffic) that
  must finish with zero lost requests, every moved volume verified
  bit-for-bit, and post-migration balance <= 1.3x, and a
  **multi-core case**: the 8-shard healthy scenario executed as
  process-parallel shard groups (``workers=8``), whose report must be
  byte-identical to the serial run and whose wall-clock speedup must
  reach 2.5x on hosts with >= 8 usable cores (a smaller host is marked
  ``host_inadequate`` and its speedup is informational only; worker
  count, CPU count, and per-group wall times are recorded either way).

Each run cross-checks that the fast and scalar paths agree before
timing is trusted, and each payload carries a ``passed`` verdict
against its acceptance bar (mapping >= 5x, sim workload >= 10x, fleet
scaling >= 2.5x at 8 shards with verified degraded-mode rebuilds and
the balance/migration bars above); the mixed executor's before/after
speedup is reported alongside.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import clear_registry, get_layout, get_mapper
from .layouts import (
    AddressMapper,
    Layout,
    evaluate_layout,
    ring_layout,
    stripe_incidence,
)
from .layouts.layout import Stripe
from .sim import WorkloadConfig, simulate_rebuild, simulate_workload

__all__ = [
    "peak_rss_mb",
    "run_mapping_bench",
    "run_sim_bench",
    "run_service_bench",
    "run_bench_suite",
    "tiled_layout",
]


def _vm_hwm_mb(status_path: str = "/proc/self/status") -> float | None:
    """Peak RSS from procfs ``VmHWM`` in MiB, or None when the file is
    unreadable or carries no high-water-mark line (non-Linux)."""
    try:
        with open(status_path) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _rusage_mb(ru_maxrss: int, platform: str) -> float:
    """Normalize a ``getrusage`` peak to MiB: the BSD interface leaves
    the unit to the platform — KiB everywhere that matters except
    macOS, which reports bytes."""
    if platform == "darwin":
        ru_maxrss //= 1024
    return ru_maxrss / 1024.0


def peak_rss_mb() -> float | None:
    """Peak RSS of this process in MiB, or None when unavailable.

    Prefers ``/proc/self/status`` ``VmHWM`` (per-mm, so it resets
    across ``exec`` — ``ru_maxrss`` is inherited by subprocesses on
    Linux, which would make a child's reading reflect the parent's
    high-water mark); falls back to ``getrusage`` elsewhere.
    """
    hwm = _vm_hwm_mb()
    if hwm is not None:
        return hwm
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    return _rusage_mb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sys.platform
    )

MAPPING_BATCH = 100_000
MAPPING_CASES = [(9, 3), (13, 4), (33, 5)]

WORKLOAD_REQUESTS = 100_000
MIXED_REQUESTS = 30_000
#: The mixed executor's speedup over the scalar path before the heap
#: churn work of the service PR (the committed BENCH_sim.json figure) —
#: the "before" in the before/after comparison the suite reports.
PRE_SERVICE_MIXED_SPEEDUP = 1.81
#: Mixed-path throughput before the batch-stepped executor replaced the
#: event heap on the compiled mixed path (the committed BENCH_sim.json
#: figure from the heap engine) — the "before" the batch-stepped
#: engines are gated against.
PRE_BATCHSTEP_MIXED_EVENTS_PER_S = 190_103
#: The batch-stepped mixed path must clear this multiple of the heap
#: baseline above (measured over the whole ``simulate_workload`` call,
#: compile included).
MIXED_EVENTS_GAIN_BAR = 3.0
#: Degraded mixed-path throughput before the eager tier learned the
#: degraded fast cases (the committed BENCH_sim.json figure from the
#: heap engine) — the "before" the planned-eager path is gated against.
PRE_EAGER_DEGRADED_MIXED_EVENTS_PER_S = 213_002
#: The planned-eager degraded mixed path must clear this multiple of
#: the heap baseline above (best runs reach ~1.7x; the bar leaves
#: room for suite-order timing noise).
DEGRADED_MIXED_GAIN_BAR = 1.4
REBUILD_STRIPES = [10_000, 100_000, 1_000_000]

#: Streaming memory case: a mixed fleet served through compiled
#: windows at a small and a 100x horizon, each probed in a fresh
#: subprocess (``ru_maxrss`` is a process-lifetime high-water mark, so
#: in-process before/after readings would be confounded).
STREAMING_SHARDS = 4
STREAMING_WINDOW = 65_536
#: Aggregate fleet interarrival — ~5 ms per shard, utilization < 1.
#: Constant-memory streaming only holds in the stable regime: an
#: overloaded open-loop queue's in-flight backlog is O(n) and
#: irreducible no matter how the stream is fed.
STREAMING_INTERARRIVAL_MS = 1.25
STREAMING_SMALL_REQUESTS = 100_000
STREAMING_LARGE_REQUESTS = 10_000_000
#: Peak RSS at the 100x horizon must stay within this multiple of the
#: small run's peak.
STREAMING_RSS_RATIO_BAR = 1.5

SERVICE_SHARD_COUNTS = [1, 2, 4, 8]
SERVICE_OFFERED_INTERARRIVAL_MS = 0.2  # aggregate: ~5000 req/s offered
SERVICE_DURATION_MS = 8_000.0
SERVICE_READ_FRACTION = 0.9
#: Request-level max/min shard balance the non-ring placement policies
#: must hold on uniform traffic (the ring baseline sits around 2x).
BALANCE_BAR = 1.3
#: Long enough (~40k requests) that p2c's randomized choices settle
#: inside the bar — at half this horizon the sample noise alone sits
#: right on it.
BALANCE_DURATION_MS = 8_000.0
MIGRATION_GROW = (4, 8)
MIGRATION_DURATION_MS = 3_000.0
#: Autoscale SLO case: a 2-shard fleet under quiet load, then a
#: scripted spike at this time pushes the per-shard arrival rate past
#: the policy threshold — the control loop must grow the fleet live.
AUTOSCALE_START_SHARDS = 2
AUTOSCALE_SPIKE_AT_MS = 500.0
AUTOSCALE_DURATION_MS = 2_000.0
#: p99 completion latency during the autoscale event (decision tick to
#: full convergence) must stay under this.  The spike saturates the
#: 2-shard fleet and volume copies contend with serving on the loaded
#: sources, so the during-event tail is seconds, not healthy-fleet
#: milliseconds — the bar pins that the backlog stays bounded and
#: drains (the deterministic case measures ~2.1 s; a cutover-hold or
#: drain regression pushes it past 4 s long before anything is lost).
AUTOSCALE_P99_BAR_MS = 4_000.0
#: Multi-core case: workers for the 8-shard healthy scenario.
PARALLEL_WORKERS = 8
#: Longer horizon than the scaling rows so process startup amortizes
#: and the wall-clock comparison measures simulation, not forking.
PARALLEL_DURATION_MS = 60_000.0
#: Wall-clock speedup the 8-worker run must achieve over the serial
#: run on a host with >= PARALLEL_WORKERS usable cores.  A host with
#: fewer cores than workers cannot produce a meaningful multi-core
#: measurement at all — the case is marked ``host_inadequate`` and the
#: speedup is excluded from the pass/fail verdict rather than gated on
#: a made-up proportional floor (a 1-core container once "passed" a
#: 0.25x bar, publishing a misleading scaling bar chart).  The
#: merge-equality check still binds everywhere.
PARALLEL_SPEEDUP_BAR = 2.5
#: Warm-serve case: repeated serves of one scenario through the warm
#: runtime (persistent pool + shared-memory transport + compiled-
#: artifact cache) at this worker count.  Spawn is deliberate: the
#: cold first serve pays the full cold path — pool boot (interpreter
#: start + registry priming), stream generation, routing — while warm
#: serves reuse all of it, so the warm-over-cold ratio measures
#: exactly what the runtime amortizes and does not depend on host
#: core count (both sides run on the same machine).
WARM_SERVE_WORKERS = 2
WARM_SERVE_MP_CONTEXT = "spawn"
WARM_SERVE_DURATION_MS = 4_000.0
#: Warm serves timed after the cold one; the steady-state wall is
#: their median.
WARM_SERVE_RUNS = 3
#: Warm steady-state must be at least this much faster than the cold
#: first serve.  Unlike the multi-core case there is no
#: host-inadequate escape: cold and warm run on the same host, so the
#: ratio is meaningful even on one core.
WARM_SERVE_SPEEDUP_BAR = 2.0


def warm_serve_scenario():
    """The scenario the ``warm_serve`` bench case (and the bench-guard
    regression case) serve repeatedly — one definition so the guard
    gates the same ratio the bench case records."""
    from .service import FleetScenario

    return FleetScenario(
        shards=4,
        v=9,
        k=3,
        duration_ms=WARM_SERVE_DURATION_MS,
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=SERVICE_READ_FRACTION,
        workload_seed=7,
        failures=(),
        admission=2,
        verify_data=True,
        seed=0,
    )


#: Full event-driven rebuilds are timed up to this stripe count; above
#: it only the scan planning is compared (the event engine itself is
#: identical between modes, so simulating 10^6 stripes twice would just
#: burn minutes re-measuring the same queue arithmetic).
FULL_REBUILD_LIMIT = 100_000


# ----------------------------------------------------------------------
# Mapping suite (PR-1 artifact, kept runnable from the CLI)
# ----------------------------------------------------------------------


def _mapping_case(v: int, k: int) -> dict:
    """Time both translation paths once and cross-check element-wise.

    Also times the same batch against an ``int64``-forced table set —
    the before/after for the ``int32`` narrowing of the flat tables
    (half the memory traffic on the hot mapping path).
    """
    layout = get_layout(v, k)
    mapper = get_mapper(layout, iterations=4)
    wide = AddressMapper(layout, iterations=4, index_dtype=np.int64)
    rng = np.random.default_rng(7)
    lbas = rng.integers(0, mapper.capacity, size=MAPPING_BATCH, dtype=np.int64)
    lba_list = lbas.tolist()

    t0 = time.perf_counter()
    to_phys = mapper.logical_to_physical
    scalar = [(pu.disk, pu.offset) for pu in map(to_phys, lba_list)]
    t_scalar = time.perf_counter() - t0

    # The batch paths run in ~1 ms, where single-shot timings are
    # allocator/cache noise: warm each once, then keep the best of a
    # few repetitions.
    def _best_of(fn, reps: int = 5) -> float:
        fn()
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_batch = _best_of(lambda: mapper.map_batch(lbas))
    t_batch64 = _best_of(lambda: wide.map_batch(lbas))
    disks, offsets = mapper.map_batch(lbas)
    disks64, offsets64 = wide.map_batch(lbas)

    assert scalar == list(zip(disks.tolist(), offsets.tolist()))
    assert (disks == disks64).all() and (offsets == offsets64).all()
    return {
        "v": v,
        "k": k,
        "layout_size": mapper.layout.size,
        "addresses": MAPPING_BATCH,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "scalar_maps_per_s": MAPPING_BATCH / t_scalar,
        "batch_maps_per_s": MAPPING_BATCH / t_batch,
        "speedup": t_scalar / t_batch,
        "index_dtype": str(mapper.index_dtype),
        "table_bytes": mapper.table_nbytes(),
        "table_bytes_int64": wide.table_nbytes(),
        "batch_int64_s": t_batch64,
        "int32_vs_int64_speedup": t_batch64 / t_batch,
    }


def run_mapping_bench(out_dir: str | Path = ".") -> dict:
    """Run the mapping suite and write ``BENCH_mapping.json``."""
    rows = [_mapping_case(v, k) for v, k in MAPPING_CASES]
    worst = min(r["speedup"] for r in rows)
    payload = {
        "benchmark": "mapping",
        "batch_addresses": MAPPING_BATCH,
        "cases": rows,
        "min_speedup": worst,
        "passed": worst >= 5.0,
    }
    out = Path(out_dir) / "BENCH_mapping.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for r in rows:
        print(
            f"build({r['v']},{r['k']}) size={r['layout_size']:>4}: "
            f"scalar {r['scalar_s'] * 1e3:7.1f} ms, "
            f"batch {r['batch_s'] * 1e3:6.2f} ms  -> {r['speedup']:6.1f}x "
            f"({r['index_dtype']} tables {r['table_bytes'] / 1e3:.0f} kB, "
            f"int64 batch {r['batch_int64_s'] * 1e3:6.2f} ms)"
        )
    print(f"min speedup {worst:.1f}x (bar: 5x)  -> wrote {out}")
    return payload


# ----------------------------------------------------------------------
# Simulation suite
# ----------------------------------------------------------------------


def _check_workload_agreement(a, b) -> None:
    if (
        a.scheduled != b.scheduled
        or a.per_disk_ios != b.per_disk_ios
        or a.duration_ms != b.duration_ms
    ):
        raise AssertionError("batched and scalar workload runs disagree")


def _workload_case(
    label: str,
    layout: Layout,
    cfg: WorkloadConfig,
    requests: int,
    failed_disk: int | None = None,
    write_policy: str = "rmw",
) -> dict:
    duration = cfg.interarrival_ms * requests
    # The batched engines finish 30k-100k requests in well under 100 ms,
    # where single-shot timings carry allocator/cache noise large enough
    # to flip the gain gates run to run: warm once, keep the best of
    # three (the scalar baseline runs for seconds — one shot is stable).
    batched = simulate_workload(
        layout, duration_ms=duration, config=cfg, failed_disk=failed_disk,
        batched=True, write_policy=write_policy,
    )
    t_batch = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        batched = simulate_workload(
            layout, duration_ms=duration, config=cfg,
            failed_disk=failed_disk, batched=True,
            write_policy=write_policy,
        )
        t_batch = min(t_batch, time.perf_counter() - t0)
    t0 = time.perf_counter()
    scalar = simulate_workload(
        layout, duration_ms=duration, config=cfg, failed_disk=failed_disk,
        batched=False, write_policy=write_policy,
    )
    t_scalar = time.perf_counter() - t0
    _check_workload_agreement(batched, scalar)
    return {
        "case": label,
        "read_fraction": cfg.read_fraction,
        "failed_disk": failed_disk,
        "write_policy": write_policy,
        "requests": batched.scheduled,
        "scalar_s": t_scalar,
        "batched_s": t_batch,
        "scalar_events_per_s": batched.scheduled / t_scalar,
        "batched_events_per_s": batched.scheduled / t_batch,
        "speedup": t_scalar / t_batch,
    }


def tiled_layout(base: Layout, target_stripes: int) -> Layout:
    """Tile a base layout vertically until it holds ``target_stripes``
    stripes — the cheap way to make benchmark-scale stripe sets with
    real declustering structure."""
    reps = max(1, -(-target_stripes // base.b))
    stripes: list[Stripe] = []
    for r in range(reps):
        shift = r * base.size
        for s in base.stripes:
            stripes.append(
                Stripe(
                    units=tuple((d, off + shift) for d, off in s.units),
                    parity_index=s.parity_index,
                )
            )
    return Layout(
        v=base.v,
        size=base.size * reps,
        stripes=tuple(stripes),
        name=f"tiled({base.name or 'base'}x{reps})",
    )


def _scalar_scan_walk(layout: Layout, failed: int):
    """The pre-compile scan plan: stripe-by-stripe Python (baseline)."""
    queue = []
    survivors = []
    for sid, stripe in enumerate(layout.stripes):
        if not any(d == failed for d, _ in stripe.units):
            continue
        queue.append(sid)
        survivors.append([(d, off) for d, off in stripe.units if d != failed])
    return queue, survivors


def _rebuild_case(layout: Layout) -> dict:
    row: dict = {"stripes": layout.b, "v": layout.v, "size": layout.size}

    # Scan planning: vectorized CSR pass vs the Python stripe walk.
    # "Cold" pays the one-time incidence build; "warm" is the
    # steady-state cost once the registry has the CSR cached (it is
    # shared with the metrics and conformance paths, and with every
    # subsequent rebuild of any disk).
    stripe_incidence.cache_clear()
    t0 = time.perf_counter()
    inc = stripe_incidence(layout)
    sids, _, surv_indptr, _, _ = inc.rebuild_scan(0)
    row["batched_plan_cold_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    inc = stripe_incidence(layout)
    sids, _, surv_indptr, _, _ = inc.rebuild_scan(0)
    row["batched_plan_warm_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    queue, survivors = _scalar_scan_walk(layout, 0)
    row["scalar_plan_s"] = time.perf_counter() - t0
    assert queue == sids.tolist()
    assert [len(s) for s in survivors] == np.diff(surv_indptr).tolist()
    row["plan_speedup_warm"] = row["scalar_plan_s"] / row["batched_plan_warm_s"]
    row["crossing_stripes"] = len(queue)

    if layout.b <= FULL_REBUILD_LIMIT:
        # Warm allocator/caches once; the event-driven part is identical
        # between modes, so what this row pins is "no regression".
        simulate_rebuild(layout, failed_disk=0, parallelism=8, batched=True)
        t0 = time.perf_counter()
        a = simulate_rebuild(layout, failed_disk=0, parallelism=8, batched=True)
        row["batched_rebuild_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = simulate_rebuild(layout, failed_disk=0, parallelism=8, batched=False)
        row["scalar_rebuild_s"] = time.perf_counter() - t0
        if a != b:
            raise AssertionError("batched and scalar rebuilds disagree")
        row["rebuild_speedup"] = row["scalar_rebuild_s"] / row["batched_rebuild_s"]
        row["rebuild_sim_ms"] = a.duration_ms
    return row


def _metrics_case(layout: Layout) -> dict:
    t0 = time.perf_counter()
    m = evaluate_layout(layout)
    elapsed = time.perf_counter() - t0
    return {
        "stripes": layout.b,
        "evaluate_s": elapsed,
        "workload_max": m.workload_max,
        "parity_spread": m.parity_spread,
        # What the old dense (b, v) incidence would have allocated.
        "dense_incidence_bytes_avoided": layout.b * layout.v * 8,
    }


_RSS_PROBE = """\
import json, sys
from repro.bench import peak_rss_mb
from repro.service import Fleet
from repro.sim import WorkloadConfig

shards, ia, window, requests = (
    int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
cfg = WorkloadConfig(interarrival_ms=ia, read_fraction=0.7, seed=7)
fleet = Fleet(shards, 9, 3, dataplane=False, seed=0)
rep = fleet.serve_workload(cfg, ia * requests, window_size=window)
print(json.dumps({
    "scheduled": rep.scheduled,
    "completed": rep.completed,
    "peak_rss_mb": peak_rss_mb(),
}))
"""


def _rss_probe(requests: int) -> dict:
    """Serve the streaming fleet config for ``requests`` arrivals in a
    fresh subprocess and return its scheduled count and peak RSS."""
    src_dir = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_dir
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_PROBE,
            str(STREAMING_SHARDS),
            str(STREAMING_INTERARRIVAL_MS),
            str(STREAMING_WINDOW),
            str(requests),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(proc.stdout)
    out["wall_s"] = time.perf_counter() - t0
    return out


def _streaming_case() -> dict:
    """The constant-memory acceptance case: windowed report equality at
    the small horizon (in-process) plus subprocess peak-RSS probes at
    10^5 and 10^7 requests.

    The probes need the ``resource`` module (POSIX); elsewhere the row
    is marked skipped with a machine-readable reason and the RSS gate
    does not bind (the equality gate still does).
    """
    from .service import Fleet

    cfg = WorkloadConfig(
        interarrival_ms=STREAMING_INTERARRIVAL_MS,
        read_fraction=0.7,
        seed=7,
    )
    duration = STREAMING_INTERARRIVAL_MS * STREAMING_SMALL_REQUESTS
    materialized = Fleet(
        STREAMING_SHARDS, 9, 3, dataplane=False, seed=0
    ).serve_workload(cfg, duration)
    windowed = Fleet(
        STREAMING_SHARDS, 9, 3, dataplane=False, seed=0
    ).serve_workload(cfg, duration, window_size=STREAMING_WINDOW)
    identical = asdict(materialized) == asdict(windowed)

    row: dict = {
        "shards": STREAMING_SHARDS,
        "window_size": STREAMING_WINDOW,
        "interarrival_ms": STREAMING_INTERARRIVAL_MS,
        "requests_small": STREAMING_SMALL_REQUESTS,
        "requests_large": STREAMING_LARGE_REQUESTS,
        "windowed_report_identical": identical,
        "rss_ratio_bar": STREAMING_RSS_RATIO_BAR,
    }
    try:
        import resource  # noqa: F401 - probe feasibility check
    except ImportError:  # pragma: no cover - non-POSIX platforms
        row["skipped"] = True
        row["skip_reason"] = "resource module unavailable (non-POSIX)"
        return row
    small = _rss_probe(STREAMING_SMALL_REQUESTS)
    large = _rss_probe(STREAMING_LARGE_REQUESTS)
    if small["peak_rss_mb"] is None or large["peak_rss_mb"] is None:
        # pragma: no cover - platform without any RSS source
        row["skipped"] = True
        row["skip_reason"] = "no peak-RSS source on this platform"
        return row
    row.update(
        {
            "skipped": False,
            "scheduled_small": small["scheduled"],
            "scheduled_large": large["scheduled"],
            "peak_rss_small_mb": small["peak_rss_mb"],
            "peak_rss_large_mb": large["peak_rss_mb"],
            "probe_wall_small_s": small["wall_s"],
            "probe_wall_large_s": large["wall_s"],
            "rss_ratio": (
                large["peak_rss_mb"] / small["peak_rss_mb"]
                if small["peak_rss_mb"]
                else 0.0
            ),
        }
    )
    return row


def run_sim_bench(out_dir: str | Path = ".") -> dict:
    """Run the simulation suite and write ``BENCH_sim.json``."""
    layout = get_layout(13, 4)
    workload_rows = [
        _workload_case(
            "read_only_solver",
            layout,
            WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=7),
            WORKLOAD_REQUESTS,
        ),
        _workload_case(
            "degraded_read_only",
            layout,
            WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=7),
            WORKLOAD_REQUESTS,
            failed_disk=1,
        ),
        _workload_case(
            "mixed_rw_executor",
            layout,
            WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7),
            MIXED_REQUESTS,
        ),
        _workload_case(
            "degraded_mixed_executor",
            layout,
            WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7),
            MIXED_REQUESTS,
            failed_disk=1,
        ),
        _workload_case(
            "mixed_write_through_solver",
            layout,
            WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7),
            MIXED_REQUESTS,
            write_policy="write_through",
        ),
    ]

    base = ring_layout(9, 3)
    rebuild_rows = []
    metrics_rows = []
    for target in REBUILD_STRIPES:
        layout = tiled_layout(base, target)
        rebuild_rows.append(_rebuild_case(layout))
        metrics_rows.append(_metrics_case(layout))
        # Tiled benchmark layouts are single-use: drop them from the
        # incidence/mapper caches so the suite's footprint stays flat.
        clear_registry()

    streaming = _streaming_case()

    headline = max(
        r["speedup"] for r in workload_rows if r["read_fraction"] == 1.0
    )
    mixed_row = next(
        r for r in workload_rows if r["case"] == "mixed_rw_executor"
    )
    mixed_gain = (
        mixed_row["batched_events_per_s"] / PRE_BATCHSTEP_MIXED_EVENTS_PER_S
    )
    degraded_row = next(
        r for r in workload_rows if r["case"] == "degraded_mixed_executor"
    )
    degraded_gain = (
        degraded_row["batched_events_per_s"]
        / PRE_EAGER_DEGRADED_MIXED_EVENTS_PER_S
    )
    rss_ok = streaming["skipped"] or (
        streaming["rss_ratio"] <= STREAMING_RSS_RATIO_BAR
    )
    payload = {
        "benchmark": "sim",
        "workload": {
            "requests": WORKLOAD_REQUESTS,
            "cases": workload_rows,
        },
        "rebuild": rebuild_rows,
        "metrics": metrics_rows,
        "streaming": streaming,
        "peak_rss_mb": peak_rss_mb(),
        "workload_speedup": headline,
        # Mixed read/write path, before/after history: the heap-churn
        # work of the service PR (slotted requests, reusable completion
        # callbacks) took the executor to 1.81x over scalar; the
        # batch-stepped engines (exact tier + eager FIFO tier)
        # replace heap stepping entirely, gated as a multiple of the
        # committed heap-engine events/s.
        "mixed_speedup": mixed_row["speedup"],
        "mixed_speedup_pre_service_pr": PRE_SERVICE_MIXED_SPEEDUP,
        "mixed_events_per_s": mixed_row["batched_events_per_s"],
        "mixed_events_per_s_pre_batchstep": PRE_BATCHSTEP_MIXED_EVENTS_PER_S,
        "mixed_events_gain_vs_pre_batchstep": mixed_gain,
        "mixed_events_gain_bar": MIXED_EVENTS_GAIN_BAR,
        # Degraded mixed path, before/after: the heap engine's committed
        # figure vs the eager tier's planned degraded fast cases.
        "degraded_mixed_events_per_s": degraded_row["batched_events_per_s"],
        "degraded_mixed_events_per_s_pre_eager": (
            PRE_EAGER_DEGRADED_MIXED_EVENTS_PER_S
        ),
        "degraded_mixed_events_gain": degraded_gain,
        "degraded_mixed_events_gain_bar": DEGRADED_MIXED_GAIN_BAR,
        "passed": (
            headline >= 10.0
            and mixed_gain >= MIXED_EVENTS_GAIN_BAR
            and degraded_gain >= DEGRADED_MIXED_GAIN_BAR
            and streaming["windowed_report_identical"]
            and rss_ok
        ),
    }
    out = Path(out_dir) / "BENCH_sim.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for r in workload_rows:
        print(
            f"workload {r['case']:<20} n={r['requests']:>6}: "
            f"scalar {r['scalar_s']:6.2f} s, batched {r['batched_s']:6.2f} s "
            f"-> {r['speedup']:5.1f}x ({r['batched_events_per_s']:,.0f} ev/s)"
        )
    for r in rebuild_rows:
        line = (
            f"rebuild b={r['stripes']:>8}: plan {r['scalar_plan_s']:6.2f} s -> "
            f"{r['batched_plan_warm_s']:6.3f} s warm "
            f"({r['plan_speedup_warm']:5.1f}x; cold {r['batched_plan_cold_s']:.2f} s)"
        )
        if "rebuild_speedup" in r:
            line += (
                f", full sim {r['scalar_rebuild_s']:5.2f} s -> "
                f"{r['batched_rebuild_s']:5.2f} s ({r['rebuild_speedup']:4.1f}x)"
            )
        print(line)
    for r in metrics_rows:
        print(
            f"metrics b={r['stripes']:>8}: evaluate_layout {r['evaluate_s']:5.2f} s "
            f"(sparse; skips {r['dense_incidence_bytes_avoided'] / 1e6:.0f} MB dense)"
        )
    if streaming["skipped"]:
        print(
            f"streaming: windowed report identical "
            f"{streaming['windowed_report_identical']}; RSS probes "
            f"SKIPPED ({streaming['skip_reason']})"
        )
    else:
        print(
            f"streaming {streaming['shards']}-shard mixed fleet, window "
            f"{streaming['window_size']}: peak RSS "
            f"{streaming['peak_rss_small_mb']:.1f} MB at "
            f"{streaming['requests_small']:,} reqs -> "
            f"{streaming['peak_rss_large_mb']:.1f} MB at "
            f"{streaming['requests_large']:,} reqs "
            f"(ratio {streaming['rss_ratio']:.3f}, bar "
            f"{STREAMING_RSS_RATIO_BAR}x); windowed report identical "
            f"{streaming['windowed_report_identical']}"
        )
    print(
        f"workload speedup {headline:.1f}x (bar: 10x), mixed path "
        f"{mixed_row['batched_events_per_s']:,.0f} ev/s = "
        f"{mixed_gain:.1f}x the pre-batchstep heap engine "
        f"({PRE_BATCHSTEP_MIXED_EVENTS_PER_S:,} ev/s; bar "
        f"{MIXED_EVENTS_GAIN_BAR:.0f}x), degraded mixed "
        f"{degraded_row['batched_events_per_s']:,.0f} ev/s = "
        f"{degraded_gain:.2f}x the pre-eager heap engine "
        f"({PRE_EAGER_DEGRADED_MIXED_EVENTS_PER_S:,} ev/s; bar "
        f"{DEGRADED_MIXED_GAIN_BAR}x)  -> wrote {out}"
    )
    return payload


# ----------------------------------------------------------------------
# Service suite (fleet throughput scaling + degraded mode)
# ----------------------------------------------------------------------


def _fleet_case(shards: int) -> dict:
    """Serve the fixed offered load with ``shards`` arrays; report the
    achieved throughput (the makespan includes the post-horizon queue
    drain, so an overloaded fleet shows its true service rate)."""
    from .service import Fleet

    cfg = WorkloadConfig(
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=SERVICE_READ_FRACTION,
        seed=7,
    )
    fleet = Fleet(shards, 9, 3, seed=0)
    t0 = time.perf_counter()
    rep = fleet.serve_workload(cfg, SERVICE_DURATION_MS)
    wall = time.perf_counter() - t0
    read_lat = rep.latency.get("read", {})
    return {
        "shards": shards,
        "requests": rep.scheduled,
        "completed": rep.completed,
        "makespan_ms": rep.duration_ms,
        "throughput_rps": rep.throughput_rps,
        "shard_balance": rep.shard_balance,
        "read_p95_ms": read_lat.get("p95", 0.0),
        "wall_s": wall,
        "requests_per_wall_s": rep.scheduled / wall if wall > 0 else 0.0,
    }


def _degraded_case(healthy_rps: float) -> dict:
    """Eight shards, two simultaneous failures, admission-controlled
    concurrent rebuilds, bit-for-bit verification — the degraded-mode
    throughput relative to the healthy 8-shard fleet."""
    from .service import (
        FleetScenario,
        default_failure_schedule,
        run_fleet_scenario,
    )

    scenario = FleetScenario(
        shards=8,
        v=9,
        k=3,
        duration_ms=SERVICE_DURATION_MS,
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=SERVICE_READ_FRACTION,
        workload_seed=7,
        failures=default_failure_schedule(8, 9, 2, SERVICE_DURATION_MS * 0.25),
        admission=2,
        verify_data=True,
        seed=0,
    )
    report = run_fleet_scenario(scenario)
    # Verification or conformance failures surface through the payload
    # (and flip the suite's "passed"), so the artifact always lands.
    return {
        "shards": 8,
        "concurrent_failures": len(scenario.failures),
        "admission": scenario.admission,
        "requests": report.fleet.scheduled,
        "completed": report.fleet.completed,
        "lost_to_failures": report.fleet.lost,
        "makespan_ms": report.fleet.duration_ms,
        "throughput_rps": report.fleet.throughput_rps,
        "throughput_vs_healthy": (
            report.fleet.throughput_rps / healthy_rps if healthy_rps else 0.0
        ),
        "max_concurrent_rebuilds": report.max_concurrent_rebuilds,
        "rebuild_admission_delays_ms": [
            o.admission_delay_ms for o in report.rebuilds
        ],
        "all_rebuilt_verified": report.all_rebuilt_verified,
        "conformance_passed": (
            report.conformance is None or report.conformance.passed
        ),
        "wall_s": report.wall_s,
    }


def _balance_case(placement: str) -> dict:
    """Serve a uniform read-only stream through an 8-shard fleet under
    ``placement`` and report the request-level max/min shard balance."""
    from .service import Fleet
    from .sim.compile import generate_request_stream

    fleet = Fleet(8, 9, 3, seed=0, placement=placement)
    cfg = WorkloadConfig(
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=1.0,
        seed=7,
    )
    times, is_read, lbas = generate_request_stream(
        cfg, BALANCE_DURATION_MS, fleet.capacity
    )
    rep = fleet.serve_stream(times, is_read, lbas)
    return {
        "placement": placement,
        "requests": rep.scheduled,
        "per_shard_scheduled": rep.per_shard_scheduled,
        "request_balance": rep.shard_balance,
    }


def _migration_case() -> dict:
    """Grow a fleet live under mixed traffic (the tentpole scenario):
    zero lost requests, every moved volume verified bit-for-bit, and a
    fresh post-migration stream whose request balance holds the
    non-ring bar."""
    from .service import Fleet, MigrationCoordinator
    from .sim.compile import generate_request_stream

    start, target = MIGRATION_GROW
    fleet = Fleet(
        start, 9, 3, seed=0, dataplane=True, placement="weighted"
    )
    coordinator = MigrationCoordinator(
        fleet, target, at_ms=MIGRATION_DURATION_MS * 0.25, admission=2
    )
    coordinator.arm()
    cfg = WorkloadConfig(
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=SERVICE_READ_FRACTION,
        seed=7,
    )
    times, is_read, lbas = generate_request_stream(
        cfg, MIGRATION_DURATION_MS, fleet.capacity
    )
    t0 = time.perf_counter()
    during = fleet.serve_stream(times, is_read, lbas)
    wall = time.perf_counter() - t0
    # Post-migration: a fresh uniform stream over the grown fleet must
    # hit the tightened balance bar.
    post_cfg = WorkloadConfig(
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=1.0,
        seed=8,
    )
    times, is_read, lbas = generate_request_stream(
        post_cfg, BALANCE_DURATION_MS, fleet.capacity
    )
    post = fleet.serve_stream(times, is_read, lbas)
    return {
        "grow_from": start,
        "grow_to": target,
        "volumes_moved": len(coordinator.outcomes),
        "planned_moves": len(coordinator.plan.moves),
        "units_copied": coordinator.total_units_copied(),
        "held_requests": sum(o.held_requests for o in coordinator.outcomes),
        "forwarded_writes": sum(
            o.forwarded_writes for o in coordinator.outcomes
        ),
        "requests_during": during.scheduled,
        "lost_during": during.lost,
        "zero_lost": during.lost == 0,
        "all_verified": coordinator.all_verified,
        "throughput_during_rps": during.throughput_rps,
        "post_request_balance": post.shard_balance,
        "post_per_shard_scheduled": post.per_shard_scheduled,
        "wall_s": wall,
    }


def _autoscale_slo_case() -> dict:
    """Scripted load spike against the autoscaling control loop: a
    2-shard fleet under quiet traffic gets hit at
    ``AUTOSCALE_SPIKE_AT_MS`` with a rate past the policy threshold.
    The loop must fire a grow through the live-migration path with zero
    lost requests and verified cutovers, the decision log must replay
    byte-identically, p99 completion latency during the event (decision
    to convergence) must hold the SLO bar, and a fresh post-event
    stream over the grown fleet must hit the balance bar."""
    import numpy as np

    from .obs import MetricsRecorder
    from .service import AutoscaleController, AutoscalePolicy, Fleet
    from .service.orchestrator import AdmissionController
    from .sim.compile import ArrayWindows, generate_request_stream
    from .sim.stats import percentile_of_parts

    policy = AutoscalePolicy(
        cadence_ms=100.0,
        high_rate=0.6,
        sustain_ticks=2,
        cooldown_ms=500.0,
        grow_step=2,
        max_shards=8,
    )
    fleet = Fleet(
        AUTOSCALE_START_SHARDS,
        9,
        3,
        seed=0,
        dataplane=True,
        placement="weighted",
    )
    recorder = MetricsRecorder(policy.cadence_ms, shards=fleet.shards)
    fleet.attach_recorder(recorder)
    admission = AdmissionController(2)
    controller = AutoscaleController(
        fleet,
        policy,
        recorder,
        admission=admission,
        horizon_ms=AUTOSCALE_DURATION_MS,
    )
    controller.arm()
    quiet = WorkloadConfig(
        interarrival_ms=2.0, read_fraction=SERVICE_READ_FRACTION, seed=7
    )
    # ~1400 req/s: past what 2 shards sustain (~1250 req/s at this
    # service-time model) so the grow signal is real, but mild enough
    # that migration drains are not stuck behind a deep backlog —
    # keeping the during-event tail about the scaling event, not about
    # serving an unbounded queue.
    hot = WorkloadConfig(
        interarrival_ms=0.7, read_fraction=SERVICE_READ_FRACTION, seed=8
    )
    qt, qr, ql = generate_request_stream(
        quiet, AUTOSCALE_SPIKE_AT_MS, fleet.capacity
    )
    ht, hr, hl = generate_request_stream(
        hot, AUTOSCALE_DURATION_MS - AUTOSCALE_SPIKE_AT_MS, fleet.capacity
    )
    times = np.concatenate([qt, ht + AUTOSCALE_SPIKE_AT_MS])
    is_read = np.concatenate([qr, hr])
    lbas = np.concatenate([ql, hl])
    t0 = time.perf_counter()
    during = fleet.serve_windows(ArrayWindows(times, is_read, lbas, 256))
    fleet.sim.run()  # drain any copies still trailing the stream
    wall = time.perf_counter() - t0
    summary = controller.summary(verify_data=True, lost=during.lost)
    events = list(summary.events)
    grew = any(e["action"] == "grow" for e in events)
    # p99 over completions that land inside any event window (decision
    # tick to convergence) — the latency cost of scaling up while the
    # spike is in flight.
    iv = recorder.interval_ms
    windows = [(e["t_ms"], e["converged_at_ms"]) for e in events]
    parts = [
        digest
        for s in range(fleet.shards)
        for by_bucket in recorder.latency_buckets(s).values()
        for b, digest in by_bucket.items()
        if any(b * iv < hi and (b + 1) * iv > lo for lo, hi in windows)
    ]
    p99_event_ms = percentile_of_parts(parts, 99.0)
    post_cfg = WorkloadConfig(
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=1.0,
        seed=8,
    )
    pt, pr, pl = generate_request_stream(
        post_cfg, BALANCE_DURATION_MS, fleet.capacity
    )
    post = fleet.serve_stream(pt, pr, pl)
    return {
        "start_shards": AUTOSCALE_START_SHARDS,
        "final_shards": summary.final_shards,
        "policy": policy.to_dict(),
        "spike_at_ms": AUTOSCALE_SPIKE_AT_MS,
        "duration_ms": AUTOSCALE_DURATION_MS,
        "requests_during": during.scheduled,
        "lost_during": during.lost,
        "zero_lost": during.lost == 0,
        "grow_fired": grew,
        "decisions": len(summary.decisions),
        "events": events,
        "all_verified": all(e["all_verified"] for e in events),
        "replay_identical": summary.replay_identical,
        "p99_event_ms": p99_event_ms,
        "p99_bar_ms": AUTOSCALE_P99_BAR_MS,
        "post_request_balance": post.shard_balance,
        "post_per_shard_scheduled": post.per_shard_scheduled,
        "autoscale_ok": summary.ok,
        "wall_s": wall,
    }


def _parallel_case() -> dict:
    """Multi-core execution of the 8-shard healthy scenario: serial
    wall clock vs ``workers=8`` process-parallel shard groups, plus the
    merge-equality gate (the parallel report must be byte-identical to
    the serial one after volatile fields are stripped).

    The 2.5x speedup bar binds only on hosts with a core per worker;
    below that the row is marked ``host_inadequate`` and its speedup is
    informational, not gated.  The payload always records worker count,
    usable CPU count, start method, and per-group wall times so numbers
    are interpretable across machines.
    """
    import json as _json

    from .service import (
        FleetScenario,
        canonical_payload,
        run_fleet_scenario,
        run_fleet_scenario_parallel,
    )
    from .service.parallel import available_cpus

    scenario = FleetScenario(
        shards=8,
        v=9,
        k=3,
        duration_ms=PARALLEL_DURATION_MS,
        interarrival_ms=SERVICE_OFFERED_INTERARRIVAL_MS,
        read_fraction=SERVICE_READ_FRACTION,
        workload_seed=7,
        failures=(),
        admission=2,
        verify_data=True,
        seed=0,
    )
    serial = run_fleet_scenario(scenario)
    run = run_fleet_scenario_parallel(scenario, workers=PARALLEL_WORKERS)
    merge_equal = _json.dumps(
        canonical_payload(serial.to_dict()), sort_keys=True
    ) == _json.dumps(canonical_payload(run.to_dict()), sort_keys=True)
    cpus = available_cpus()
    speedup = serial.wall_s / run.report.wall_s if run.report.wall_s else 0.0
    host_inadequate = cpus < PARALLEL_WORKERS
    return {
        "shards": scenario.shards,
        "duration_ms": PARALLEL_DURATION_MS,
        "requests": serial.fleet.scheduled,
        "workers": run.execution.workers,
        "cpu_count": cpus,
        "mp_context": run.execution.mp_context,
        "shard_groups": len(run.execution.groups),
        "group_wall_s": [g["wall_s"] for g in run.execution.groups],
        "group_duration_ms": [g["duration_ms"] for g in run.execution.groups],
        "serial_wall_s": serial.wall_s,
        "parallel_wall_s": run.report.wall_s,
        "requests_per_wall_s_serial": (
            serial.fleet.scheduled / serial.wall_s if serial.wall_s else 0.0
        ),
        "requests_per_wall_s_parallel": (
            serial.fleet.scheduled / run.report.wall_s
            if run.report.wall_s
            else 0.0
        ),
        "speedup": speedup,
        "speedup_bar": PARALLEL_SPEEDUP_BAR,
        "speedup_bar_applies": not host_inadequate,
        "host_inadequate": host_inadequate,
        "merge_equal": merge_equal,
    }


def _warm_serve_case() -> dict:
    """Repeated serves through the warm runtime: the cold first serve
    (pool boot + stream generation + routing + shm packing) vs the
    median warm serve (pool, artifact, and segments all reused).

    Gates three things at once: the >= 2x warm-over-cold bar, canonical
    byte-identity of every warm report against the cold serial runner,
    and zero leaked ``/dev/shm`` segments after :meth:`WarmRuntime.
    close` — the acceptance criteria of the warm-runtime work.
    ``tools/bench_guard.py`` gates the same warm-over-cold bar.
    """
    import json as _json
    import os
    import statistics

    from .service import (
        canonical_payload,
        leaked_segments,
        run_fleet_scenario,
    )
    from .service.runtime import WarmRuntime

    scenario = warm_serve_scenario()
    serial = run_fleet_scenario(scenario)
    canon = _json.dumps(canonical_payload(serial.to_dict()), sort_keys=True)

    runtime = WarmRuntime(
        scenario, workers=WARM_SERVE_WORKERS, mp_context=WARM_SERVE_MP_CONTEXT
    )
    try:
        t0 = time.perf_counter()
        first = runtime.run()
        cold_wall = time.perf_counter() - t0
        merge_equal = (
            _json.dumps(canonical_payload(first), sort_keys=True) == canon
        )
        warm_walls = []
        for _ in range(WARM_SERVE_RUNS):
            t0 = time.perf_counter()
            payload = runtime.run()
            warm_walls.append(time.perf_counter() - t0)
            merge_equal = merge_equal and (
                _json.dumps(canonical_payload(payload), sort_keys=True)
                == canon
            )
        stats = runtime.stats.to_dict()
    finally:
        runtime.close()
    leaked = len(leaked_segments(os.getpid()))
    warm_wall = statistics.median(warm_walls)
    speedup = cold_wall / warm_wall if warm_wall else 0.0
    return {
        "shards": scenario.shards,
        "duration_ms": WARM_SERVE_DURATION_MS,
        "requests": serial.fleet.scheduled,
        "workers": WARM_SERVE_WORKERS,
        "mp_context": WARM_SERVE_MP_CONTEXT,
        "runs_timed": WARM_SERVE_RUNS,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_walls_s": warm_walls,
        "warm_requests_per_s": (
            serial.fleet.scheduled / warm_wall if warm_wall else 0.0
        ),
        "speedup": speedup,
        "speedup_bar": WARM_SERVE_SPEEDUP_BAR,
        "merge_equal": merge_equal,
        "pool_warm_hits": stats["pool_warm_hits"],
        "compile_cache_hits": stats["compile_cache_hits"],
        "shm_bytes": stats["shm_bytes"],
        "pickled_bytes_avoided": stats["ipc_bytes_avoided"],
        "leaked_segments": leaked,
    }


def run_service_bench(out_dir: str | Path = ".") -> dict:
    """Run the fleet service suite and write ``BENCH_service.json``."""
    clear_registry()
    rows = [_fleet_case(n) for n in SERVICE_SHARD_COUNTS]
    baseline = rows[0]["throughput_rps"]
    top = rows[-1]
    scaling = top["throughput_rps"] / baseline if baseline else 0.0
    degraded = _degraded_case(top["throughput_rps"])
    balance_rows = [_balance_case(p) for p in ("ring", "p2c", "weighted")]
    tightened = max(
        r["request_balance"]
        for r in balance_rows
        if r["placement"] != "ring"
    )
    migration = _migration_case()
    autoscale = _autoscale_slo_case()
    parallel = _parallel_case()
    warm = _warm_serve_case()
    payload = {
        "benchmark": "service",
        "offered_interarrival_ms": SERVICE_OFFERED_INTERARRIVAL_MS,
        "duration_ms": SERVICE_DURATION_MS,
        "read_fraction": SERVICE_READ_FRACTION,
        "scaling": rows,
        "degraded": degraded,
        "balance": {
            "bar": BALANCE_BAR,
            "cases": balance_rows,
            "ring_baseline": balance_rows[0]["request_balance"],
            "tightened_worst": tightened,
        },
        "migration": migration,
        "autoscale_slo": autoscale,
        "parallel_scaling": parallel,
        "warm_serve": warm,
        "peak_rss_mb": peak_rss_mb(),
        "single_array_rps": baseline,
        "fleet_rps": top["throughput_rps"],
        "throughput_scaling": scaling,
        "passed": (
            scaling >= 2.5
            and degraded["all_rebuilt_verified"]
            and degraded["conformance_passed"]
            and tightened <= BALANCE_BAR
            and migration["zero_lost"]
            and migration["all_verified"]
            and migration["post_request_balance"] <= BALANCE_BAR
            and autoscale["grow_fired"]
            and autoscale["zero_lost"]
            and autoscale["all_verified"]
            and autoscale["replay_identical"]
            and autoscale["p99_event_ms"] <= AUTOSCALE_P99_BAR_MS
            and autoscale["post_request_balance"] <= BALANCE_BAR
            and parallel["merge_equal"]
            and (
                parallel["host_inadequate"]
                or parallel["speedup"] >= PARALLEL_SPEEDUP_BAR
            )
            and warm["merge_equal"]
            and warm["speedup"] >= WARM_SERVE_SPEEDUP_BAR
            and warm["leaked_segments"] == 0
        ),
    }
    out = Path(out_dir) / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for r in rows:
        print(
            f"fleet shards={r['shards']}: {r['requests']:>6} reqs, "
            f"throughput {r['throughput_rps']:7,.0f} req/s, "
            f"read p95 {r['read_p95_ms']:8.1f} ms, wall {r['wall_s']:.2f} s"
        )
    print(
        f"degraded 8-shard (2 concurrent rebuilds, admission 2): "
        f"{degraded['throughput_rps']:,.0f} req/s "
        f"({degraded['throughput_vs_healthy']:.2f}x of healthy), "
        f"verified={degraded['all_rebuilt_verified']}"
    )
    for r in balance_rows:
        print(
            f"balance placement={r['placement']:<9} request max/min "
            f"{r['request_balance']:.2f}x over {r['requests']} requests"
        )
    print(
        f"migration {migration['grow_from']} -> {migration['grow_to']} "
        f"shards: {migration['volumes_moved']} volumes, "
        f"{migration['units_copied']} units copied, lost "
        f"{migration['lost_during']}, verified "
        f"{migration['all_verified']}, post balance "
        f"{migration['post_request_balance']:.2f}x (bar {BALANCE_BAR}x)"
    )
    print(
        f"autoscale {autoscale['start_shards']} -> "
        f"{autoscale['final_shards']} shards under spike: grow fired "
        f"{autoscale['grow_fired']}, lost {autoscale['lost_during']}, "
        f"verified {autoscale['all_verified']}, replay identical "
        f"{autoscale['replay_identical']}, p99 during event "
        f"{autoscale['p99_event_ms']:.1f} ms "
        f"(bar {AUTOSCALE_P99_BAR_MS:.0f} ms), post balance "
        f"{autoscale['post_request_balance']:.2f}x (bar {BALANCE_BAR}x)"
    )
    bar_note = (
        f"bar {PARALLEL_SPEEDUP_BAR}x"
        if parallel["speedup_bar_applies"]
        else f"HOST INADEQUATE: {parallel['cpu_count']} core(s) for "
        f"{parallel['workers']} workers — speedup informational only"
    )
    print(
        f"parallel {parallel['shards']}-shard healthy x "
        f"{parallel['workers']} workers ({parallel['mp_context']}, "
        f"{parallel['cpu_count']} CPUs): serial "
        f"{parallel['serial_wall_s']:.2f} s -> "
        f"{parallel['parallel_wall_s']:.2f} s "
        f"({parallel['speedup']:.2f}x, {bar_note}), merge identical: "
        f"{parallel['merge_equal']}"
    )
    print(
        f"warm serve {warm['shards']}-shard x {warm['workers']} workers "
        f"({warm['mp_context']}): cold {warm['cold_wall_s']:.2f} s -> "
        f"warm {warm['warm_wall_s']:.2f} s ({warm['speedup']:.1f}x, bar "
        f"{WARM_SERVE_SPEEDUP_BAR}x), identical: {warm['merge_equal']}, "
        f"pickled bytes avoided {warm['pickled_bytes_avoided']:,}, "
        f"leaked segments {warm['leaked_segments']}"
    )
    print(
        f"throughput scaling {scaling:.1f}x over single array "
        f"(bar: 2.5x)  -> wrote {out}"
    )
    return payload


def run_bench_suite(suite: str = "all", out_dir: str | Path = ".") -> bool:
    """Run the requested suite(s); returns True when every acceptance
    bar passed.

    Raises:
        ValueError: on an unknown suite name.
    """
    if suite not in ("all", "mapping", "sim", "service"):
        raise ValueError(f"unknown benchmark suite {suite!r}")
    ok = True
    if suite in ("all", "mapping"):
        ok = run_mapping_bench(out_dir)["passed"] and ok
    if suite in ("all", "sim"):
        ok = run_sim_bench(out_dir)["passed"] and ok
    if suite in ("all", "service"):
        ok = run_service_bench(out_dir)["passed"] and ok
    return ok
