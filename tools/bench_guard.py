"""Compiled-path throughput regression guard (``make bench-guard``).

Re-times the sim suite's compiled-executor cases — the read-only
solver, the healthy mixed read/write path, and the degraded mixed
path — and fails when any fresh events/s figure falls below a fraction
of the committed ``BENCH_sim.json`` row.  This is the cheap tripwire
between full benchmark runs: a change that quietly knocks an engine
back onto a slow path (the solver onto the heap, the eager tier into
its fallback, the degraded planner onto per-event stepping) shows up
as a large per-case drop, far outside normal run-to-run noise.

The committed artifact is the reference, so the guard is relative to
the machine that produced it.  On a host materially slower than that
machine the threshold can be loosened (or the check skipped) with::

    BENCH_GUARD_RATIO=0.5 python tools/bench_guard.py
    BENCH_GUARD_RATIO=0 python tools/bench_guard.py   # record only

A fourth, self-relative case gates observability overhead: the mixed
path with a live ``MetricsRecorder`` attached must reach 0.95x of its
own metrics-off throughput (host speed cancels out, so no committed
row is involved).  ``BENCH_GUARD_OBS_RATIO`` overrides that floor;
``<= 0`` skips just this case.

A fifth case guards the warm serving path: repeated serves through
``repro.service.runtime.WarmRuntime`` (persistent pool + shared-memory
transport + compiled-artifact cache) must reach ``BENCH_GUARD_RATIO``
of the committed ``BENCH_service.json`` ``warm_serve`` row's warm
steady-state requests/s — a regression that silently reboots the pool,
misses the artifact cache, or re-pickles traces per serve shows up as
a large drop in exactly this figure.

The final stdout line is machine-readable JSON (prefixed
``bench-guard-json:``) with per-case ratios and, when the guard is
skipped (ratio 0), an explicit ``skip_reason`` — hosted runners can
log why no verdict bound instead of silently passing.

A sixth, self-relative case guards the exact tier — the engine
``serve`` lands on when the eager tier tie-aborts.  One shard of the
serve-shaped mixed fleet ((9,3), 8 ms mean interarrival, read fraction
0.7, seed 7, 30k requests) tie-aborts, so ``step_compiled`` replays it
on the exact tier (label ``calendar``).  It is timed through
``step_compiled`` and through ``schedule_compiled`` + ``sim.run()`` in
interleaved pairs; the best heap/step wall-time ratio must reach a
constant floor (host speed cancels out).

Every sim case also names the engine it must land on (``solver``,
``eager``, ``eager``, and ``calendar`` for the exact tier); a run on
any other engine fails the guard even with ``BENCH_GUARD_RATIO=0``,
and the JSON line lists such cases under ``wrong_engine``.

Exit codes: 0 = within threshold (or skipped), 1 = regression or wrong
engine, 2 = missing/invalid committed artifact.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Fresh throughput must reach this fraction of the committed figure
#: (>20% regression fails).  Override with BENCH_GUARD_RATIO.
DEFAULT_RATIO = 0.8
#: Timed runs per case; the best run is compared (the guard hunts
#: regressions, not noise — the best of three is stable to a few
#: percent).
RUNS = 3
#: Requests per timed run — enough to amortize compile overhead while
#: keeping the three-case guard under a few seconds.
REQUESTS = 30_000

#: The guarded cases: (BENCH_sim.json case name, read_fraction,
#: failed_disk, expected engine).  Each mirrors the sim suite's config
#: so the committed row is directly comparable.  A run that lands on
#: any other engine fell off its fast path: that fails the guard even
#: in record-only mode, where the throughput floor does not bind.
CASES = (
    ("read_only_solver", 1.0, None, "solver"),
    ("mixed_rw_executor", 0.7, None, "eager"),
    ("degraded_mixed_executor", 0.7, 1, "eager"),
)

#: Observability overhead gate: the mixed path with a live
#: MetricsRecorder attached must reach this fraction of its own
#: metrics-off throughput (self-relative, so no committed row is
#: needed and host speed cancels out).  Override with
#: BENCH_GUARD_OBS_RATIO; <= 0 skips just this case.
OBS_RATIO = 0.95
#: Interleaved off/on run pairs for the overhead case; the verdict is
#: the best per-pair on/off ratio.
OBS_RUNS = 5

#: Exact-tier gate: the best per-pair heap/step wall-time ratio on the
#: serve-shaped shard must reach this floor.  On a 2-CPU host the
#: earlier calendar-bucket tier measured 1.37-1.50 and the heap-backed
#: tier 1.99-2.77.
EXACT_RATIO = 1.6
#: The engine the serve-shaped shard must land on: its eager attempt
#: tie-aborts and the exact tier replays it.
EXACT_ENGINE = "calendar"
#: Interleaved step/heap run pairs for the exact-tier case.
EXACT_RUNS = 5


def committed_events_per_s(path: Path) -> dict[str, float]:
    payload = json.loads(path.read_text())
    rows = {
        row["case"]: float(row["batched_events_per_s"])
        for row in payload["workload"]["cases"]
    }
    missing = [case[0] for case in CASES if case[0] not in rows]
    if missing:
        raise KeyError(f"cases missing from artifact: {missing}")
    return rows


def fresh_events_per_s(
    read_fraction: float, failed_disk: int | None
) -> tuple[float, str]:
    """Best-of-RUNS events/s and the engine the runs landed on."""
    from repro.core import get_layout
    from repro.sim import WorkloadConfig, simulate_workload

    layout = get_layout(13, 4)
    cfg = WorkloadConfig(
        interarrival_ms=5.0, read_fraction=read_fraction, seed=7
    )
    duration = 5.0 * REQUESTS

    best = 0.0
    for _ in range(RUNS):
        t0 = time.perf_counter()
        rep = simulate_workload(
            layout,
            duration_ms=duration,
            config=cfg,
            failed_disk=failed_disk,
            batched=True,
        )
        elapsed = time.perf_counter() - t0
        best = max(best, rep.scheduled / elapsed)
    return best, rep.engine


def committed_warm_requests_per_s(path: Path) -> float:
    payload = json.loads(path.read_text())
    return float(payload["warm_serve"]["warm_requests_per_s"])


def warm_serve_case(ratio: float, committed: float) -> dict:
    """Serve the bench suite's warm-serve scenario repeatedly through a
    warm runtime and compare the best warm requests/s against the
    committed figure (cold boot excluded — the guard times the steady
    state the runtime exists to provide)."""
    from repro.bench import (
        WARM_SERVE_MP_CONTEXT,
        WARM_SERVE_WORKERS,
        warm_serve_scenario,
    )
    from repro.service.runtime import WarmRuntime

    runtime = WarmRuntime(
        warm_serve_scenario(),
        workers=WARM_SERVE_WORKERS,
        mp_context=WARM_SERVE_MP_CONTEXT,
    )
    try:
        runtime.run()  # cold: boot the pool, build + pack the artifact
        best = 0.0
        for _ in range(RUNS):
            t0 = time.perf_counter()
            payload = runtime.run()
            elapsed = time.perf_counter() - t0
            best = max(best, payload["fleet"]["scheduled"] / elapsed)
    finally:
        runtime.close()
    floor = ratio * committed
    return {
        "fresh_requests_per_s": best,
        "committed_requests_per_s": committed,
        "ratio_vs_committed": best / committed if committed else 0.0,
        "floor_requests_per_s": floor,
        "ok": best >= floor,
    }


def obs_overhead_case(obs_ratio: float) -> dict:
    """Time the mixed path metrics-off vs metrics-on (a fresh recorder
    per run, 20-bucket grid) and compare best-of-OBS_RUNS figures.

    Off/on runs are interleaved in pairs and the verdict ratio is the
    best per-pair ``on/off`` — adjacent runs sample the same host-load
    drift, and a true regression suppresses *every* pair while noise
    cannot, so the max pair ratio is stable where the ratio of
    series bests flaps a few hundredths around the floor even when
    the true overhead is well inside it."""
    from repro.core import get_layout
    from repro.obs import MetricsRecorder
    from repro.sim import WorkloadConfig, simulate_workload

    interval = 5.0 * REQUESTS / 20.0
    layout = get_layout(13, 4)
    cfg = WorkloadConfig(interarrival_ms=5.0, read_fraction=0.7, seed=7)
    duration = 5.0 * REQUESTS

    def timed(recorder) -> float:
        t0 = time.perf_counter()
        rep = simulate_workload(
            layout,
            duration_ms=duration,
            config=cfg,
            batched=True,
            recorder=recorder,
        )
        return rep.scheduled / (time.perf_counter() - t0)

    timed(None)  # warm compile caches outside the timed pairs
    off = on = ratio = 0.0
    for _ in range(OBS_RUNS):
        o = timed(None)
        m = timed(MetricsRecorder(interval))
        off = max(off, o)
        on = max(on, m)
        if o:
            ratio = max(ratio, m / o)
    return {
        "metrics_off_events_per_s": off,
        "metrics_on_events_per_s": on,
        "ratio_on_vs_off": ratio,
        "floor_ratio": obs_ratio,
        "ok": ratio >= obs_ratio,
    }


def exact_tier_case() -> dict:
    """Time one serve-shaped mixed shard through ``step_compiled`` and
    through the event heap, in interleaved pairs (adjacent runs share
    the host's load drift, as in :func:`obs_overhead_case`), and report
    the best heap/step ratio and the engine ``step_compiled`` used."""
    from repro.core import get_layout
    from repro.sim import (
        ArrayController,
        WorkloadConfig,
        compile_workload,
        schedule_compiled,
        step_compiled,
    )

    layout = get_layout(9, 3)
    cfg = WorkloadConfig(interarrival_ms=8.0, read_fraction=0.7, seed=7)
    trace = compile_workload(
        ArrayController(layout).mapper, cfg, 8.0 * REQUESTS
    )

    def timed(step: bool) -> tuple[float, str]:
        ctrl = ArrayController(layout)
        t0 = time.perf_counter()
        if step:
            step_compiled(ctrl, trace)
        else:
            schedule_compiled(ctrl, trace)
            ctrl.sim.run()
        return time.perf_counter() - t0, ctrl.last_engine

    _, engine = timed(True)  # warm caches outside the timed pairs
    step_best = heap_best = float("inf")
    ratio = 0.0
    for _ in range(EXACT_RUNS):
        s, engine = timed(True)
        h, _ = timed(False)
        step_best = min(step_best, s)
        heap_best = min(heap_best, h)
        ratio = max(ratio, h / s)
    return {
        "requests": trace.n,
        "engine": engine,
        "expected_engine": EXACT_ENGINE,
        "engine_ok": engine == EXACT_ENGINE,
        "step_requests_per_s": trace.n / step_best,
        "heap_requests_per_s": trace.n / heap_best,
        "ratio_heap_vs_step": ratio,
        "floor_ratio": EXACT_RATIO,
        "ok": ratio >= EXACT_RATIO,
    }


def main() -> int:
    artifact = REPO_ROOT / "BENCH_sim.json"
    try:
        committed = committed_events_per_s(artifact)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print(f"bench-guard: cannot read committed baseline: {exc}")
        print("bench-guard: run `python -m repro bench --suite sim` first")
        return 2
    service_artifact = REPO_ROOT / "BENCH_service.json"
    try:
        committed_warm = committed_warm_requests_per_s(service_artifact)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print(f"bench-guard: cannot read committed warm-serve row: {exc}")
        print(
            "bench-guard: run `python -m repro bench --suite service` first"
        )
        return 2

    try:
        ratio = float(os.environ.get("BENCH_GUARD_RATIO", DEFAULT_RATIO))
    except ValueError:
        print("bench-guard: BENCH_GUARD_RATIO must be a number")
        return 2

    summary: dict = {
        "floor_ratio": ratio,
        "skipped": ratio <= 0,
        "skip_reason": (
            "BENCH_GUARD_RATIO=0 — record-only run, no verdict bound "
            "(hosted/slow runner)"
            if ratio <= 0
            else None
        ),
        "cases": {},
    }
    regressed = []
    wrong_engine = []
    for name, read_fraction, failed_disk, expected in CASES:
        fresh, engine = fresh_events_per_s(read_fraction, failed_disk)
        floor = ratio * committed[name]
        ok = fresh >= floor
        engine_ok = engine == expected
        summary["cases"][name] = {
            "engine": engine,
            "expected_engine": expected,
            "engine_ok": engine_ok,
            "fresh_events_per_s": fresh,
            "committed_events_per_s": committed[name],
            "ratio_vs_committed": (
                fresh / committed[name] if committed[name] else 0.0
            ),
            "floor_events_per_s": floor,
            "ok": ok,
        }
        verdict = "OK" if ok else "REGRESSION"
        print(
            f"bench-guard: {name:<24} {fresh:>10,.0f} ev/s vs committed "
            f"{committed[name]:>10,.0f} ev/s "
            f"({fresh / committed[name]:.2f}x, floor {ratio:.2f}x) "
            f"-> {verdict}"
        )
        if not ok:
            regressed.append(name)
        if not engine_ok:
            wrong_engine.append(name)
            print(
                f"bench-guard: {name:<24} ran on engine {engine!r}, "
                f"expected {expected!r} -> WRONG ENGINE"
            )

    exact = exact_tier_case()
    summary["cases"]["exact_tier"] = exact
    verdict = "OK" if exact["ok"] else "REGRESSION"
    print(
        f"bench-guard: {'exact_tier':<24} "
        f"{exact['step_requests_per_s']:>10,.0f} rq/s step vs "
        f"{exact['heap_requests_per_s']:>10,.0f} rq/s heap "
        f"({exact['ratio_heap_vs_step']:.2f}x, floor {EXACT_RATIO:.2f}x) "
        f"-> {verdict}"
    )
    if not exact["ok"]:
        regressed.append("exact_tier")
    if not exact["engine_ok"]:
        wrong_engine.append("exact_tier")
        print(
            f"bench-guard: {'exact_tier':<24} ran on engine "
            f"{exact['engine']!r}, expected {EXACT_ENGINE!r} -> WRONG ENGINE"
        )

    if not summary["skipped"]:
        warm = warm_serve_case(ratio, committed_warm)
        summary["cases"]["warm_serve"] = warm
        verdict = "OK" if warm["ok"] else "REGRESSION"
        print(
            f"bench-guard: {'warm_serve':<24} "
            f"{warm['fresh_requests_per_s']:>10,.0f} rq/s vs committed "
            f"{warm['committed_requests_per_s']:>10,.0f} rq/s "
            f"({warm['ratio_vs_committed']:.2f}x, floor {ratio:.2f}x) "
            f"-> {verdict}"
        )
        if not warm["ok"]:
            regressed.append("warm_serve")

    try:
        obs_ratio = float(
            os.environ.get("BENCH_GUARD_OBS_RATIO", OBS_RATIO)
        )
    except ValueError:
        print("bench-guard: BENCH_GUARD_OBS_RATIO must be a number")
        return 2
    if obs_ratio > 0 and not summary["skipped"]:
        obs = obs_overhead_case(obs_ratio)
        summary["cases"]["obs_overhead"] = obs
        verdict = "OK" if obs["ok"] else "REGRESSION"
        print(
            f"bench-guard: {'obs_overhead':<24} "
            f"{obs['metrics_on_events_per_s']:>10,.0f} ev/s on vs "
            f"{obs['metrics_off_events_per_s']:>10,.0f} ev/s off "
            f"({obs['ratio_on_vs_off']:.2f}x, floor {obs_ratio:.2f}x) "
            f"-> {verdict}"
        )
        if not obs["ok"]:
            regressed.append("obs_overhead")
    elif obs_ratio <= 0:
        summary["cases"]["obs_overhead"] = {
            "skipped": True,
            "skip_reason": "BENCH_GUARD_OBS_RATIO<=0",
        }
        print("bench-guard: obs_overhead          skipped (BENCH_GUARD_OBS_RATIO<=0)")

    if summary["skipped"]:
        print(f"bench-guard: SKIPPED — {summary['skip_reason']}")
    elif regressed:
        print(
            f"bench-guard: throughput regressed by more than "
            f"{(1 - ratio) * 100:.0f}% in {', '.join(regressed)} — check "
            "the engine-selection gate in "
            "repro.sim.compile.execute_compiled, the eager tier's "
            "fallback rate in repro.sim.batchstep, (for exact_tier) "
            "repro.sim.batchstep._step_exact, and (for warm_serve) "
            "the pool/cache reuse counters in "
            "repro.service.runtime.WarmRuntime"
        )
    if wrong_engine:
        print(
            f"bench-guard: {', '.join(wrong_engine)} fell off the fast "
            "path — check the engine-selection gate in "
            "repro.sim.compile.execute_compiled and the eager tier's "
            "tie-abort fallback in repro.sim.batchstep"
        )
    summary["wrong_engine"] = wrong_engine
    print("bench-guard-json: " + json.dumps(summary, sort_keys=True))
    return 1 if wrong_engine or (regressed and not summary["skipped"]) else 0


if __name__ == "__main__":
    sys.exit(main())
