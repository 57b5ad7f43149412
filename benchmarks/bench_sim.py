"""BATCH-SIM: the compiled simulation pipeline vs the scalar event loop.

The compile-then-execute model moves generation, address translation,
and request planning out of the event loop: single-phase traces
(read-only, or any mix under write-through) skip the event engine
entirely (per-disk FIFO queues solve analytically), and mixed RMW
traces run through the batch-stepped executor (eager FIFO tier + exact
tier) — no event heap at all.  The acceptance bars are >= 10x
events/sec over the scalar per-event pipeline on a 100k-request
read-only workload and >= 3x the committed pre-batchstep heap-engine
throughput on the 30k-request mixed workload; rebuild scans and the
sparse metrics path are pinned at 10^4/10^5/10^6 stripes.

Runnable two ways:

* ``pytest benchmarks/bench_sim.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_sim.py`` — standalone run that writes
  ``BENCH_sim.json`` next to the repo root (also available as
  ``python -m repro bench --suite sim``).
"""

import sys
import time
from pathlib import Path

from repro.bench import run_sim_bench, tiled_layout
from repro.core import get_layout
from repro.layouts import evaluate_layout, ring_layout, stripe_incidence
from repro.sim import WorkloadConfig, simulate_rebuild, simulate_workload


def test_workload_solver_speedup(benchmark):
    layout = get_layout(13, 4)
    cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=1.0, seed=7)
    duration = 5.0 * 100_000

    benchmark.pedantic(
        lambda: simulate_workload(
            layout, duration_ms=duration, config=cfg, batched=True
        ),
        rounds=1,
        iterations=1,
    )

    t0 = time.perf_counter()
    a = simulate_workload(layout, duration_ms=duration, config=cfg, batched=True)
    t_batch = time.perf_counter() - t0
    t0 = time.perf_counter()
    b = simulate_workload(layout, duration_ms=duration, config=cfg, batched=False)
    t_scalar = time.perf_counter() - t0
    assert a.per_disk_ios == b.per_disk_ios and a.duration_ms == b.duration_ms
    speedup = t_scalar / t_batch
    assert speedup >= 10.0, f"batched workload only {speedup:.1f}x over scalar"
    print(
        f"\n[BATCH-SIM] {a.scheduled} read requests on build(13,4): scalar "
        f"{t_scalar:.2f} s, batched {t_batch:.3f} s ({speedup:.0f}x, "
        f"{a.scheduled / t_batch:,.0f} events/s)"
    )


def test_mixed_batchstep_executor_gain(benchmark):
    """The mixed RMW path on the batch-stepped engines vs the committed
    heap-engine baseline (the tentpole's before/after)."""
    from repro.bench import (
        MIXED_EVENTS_GAIN_BAR,
        PRE_BATCHSTEP_MIXED_EVENTS_PER_S,
    )

    layout = get_layout(13, 4)
    cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7)
    duration = 5.0 * 30_000

    benchmark.pedantic(
        lambda: simulate_workload(
            layout, duration_ms=duration, config=cfg, batched=True
        ),
        rounds=1,
        iterations=1,
    )

    t0 = time.perf_counter()
    a = simulate_workload(layout, duration_ms=duration, config=cfg, batched=True)
    t_batch = time.perf_counter() - t0
    events = a.scheduled / t_batch
    gain = events / PRE_BATCHSTEP_MIXED_EVENTS_PER_S
    assert gain >= MIXED_EVENTS_GAIN_BAR, (
        f"mixed path {events:,.0f} ev/s is only {gain:.2f}x the "
        f"pre-batchstep baseline ({PRE_BATCHSTEP_MIXED_EVENTS_PER_S:,} ev/s)"
    )
    print(
        f"\n[BATCH-SIM] {a.scheduled} mixed requests on build(13,4): "
        f"{t_batch * 1e3:.1f} ms ({events:,.0f} events/s, {gain:.1f}x the "
        f"pre-batchstep heap engine)"
    )


def test_rebuild_scan_planning_speedup(benchmark):
    layout = tiled_layout(ring_layout(9, 3), 100_000)

    def batched_plan():
        stripe_incidence.cache_clear()
        return stripe_incidence(layout).rebuild_scan(0)

    sids, _, _, _, _ = benchmark.pedantic(batched_plan, rounds=1, iterations=1)
    expected = sum(1 for s in layout.stripes if 0 in s.disks)
    assert len(sids) == expected


def test_rebuild_reports_identical_at_scale(benchmark):
    layout = tiled_layout(ring_layout(9, 3), 10_000)

    def run_both():
        a = simulate_rebuild(layout, failed_disk=0, parallelism=8, batched=True)
        b = simulate_rebuild(layout, failed_disk=0, parallelism=8, batched=False)
        return a, b

    a, b = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert a == b
    assert a.stripes_rebuilt == sum(1 for s in layout.stripes if 0 in s.disks)


def test_sparse_metrics_at_million_stripes(benchmark):
    layout = tiled_layout(ring_layout(9, 3), 1_000_000)

    def evaluate():
        stripe_incidence.cache_clear()
        return evaluate_layout(layout)

    m = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert layout.b >= 1_000_000
    assert m.workload_max <= (3 - 1) / (9 - 1) + 1e-9
    stripe_incidence.cache_clear()
    print(
        f"\n[BATCH-SIM] evaluate_layout on b={layout.b} stripes via sparse "
        f"incidence (dense (b,v) would be {layout.b * layout.v * 8 / 1e6:.0f} MB)"
    )


def main() -> int:
    payload = run_sim_bench(Path(__file__).resolve().parent.parent)
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
