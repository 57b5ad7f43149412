"""High-level simulation entry points.

Two canned experiments mirror the paper's evaluation story:

* :func:`simulate_rebuild` — fail a disk, rebuild it (optionally under
  foreground load), and report the per-disk read fractions that
  Condition 3 bounds analytically at ``(k-1)/(v-1)``.
* :func:`simulate_workload` — run a synthetic workload (optionally in
  degraded mode) and report latency and per-disk load, exposing the
  parity-contention effect Condition 2 bounds via the maximum parity
  overhead.

Both follow the compile-then-execute model: the whole request stream /
rebuild scan is planned as NumPy arrays before the event loop starts.
Execution goes through :func:`repro.sim.compile.execute_compiled`:
single-phase workloads skip the event engine entirely (each disk queue
is solved analytically), mixed workloads run on the batch-stepped
executor, and ``batched=False`` recovers the per-event
scalar pipeline — all produce the identical report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import get_incidence
from ..layouts import Layout
from ..layouts.sparing import DistributedSparing
from .compile import (
    StreamWindows,
    compile_workload,
    execute_compiled,
    schedule_compiled_scalar,
)
from .controller import ArrayController
from .disk import DiskParameters
from .reconstruction import RebuildProcess, RebuildReport
from .stats import summarize
from .stream import execute_windows
from .workload import WorkloadConfig, drive_workload

__all__ = [
    "SparePlan",
    "WorkloadReport",
    "simulate_rebuild",
    "simulate_workload",
    "spare_map_for_failure",
    "spare_plan_for_failure",
]


@dataclass(frozen=True)
class SparePlan:
    """Vectorized rebuild-target plan under distributed sparing.

    Row ``i`` says: crossing stripe ``stripe_ids[i]`` (ascending, the
    rebuild scan order) writes its recovered unit to
    ``(disks[i], offsets[i])``.
    """

    stripe_ids: np.ndarray
    disks: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.stripe_ids)

    def as_dict(self) -> dict[int, tuple[int, int]]:
        """The scalar ``{stripe id: (disk, offset)}`` view."""
        return {
            int(s): (int(d), int(o))
            for s, d, o in zip(self.stripe_ids, self.disks, self.offsets)
        }


def spare_plan_for_failure(
    sparing: DistributedSparing, failed_disk: int
) -> SparePlan:
    """Resolve every crossing stripe's rebuild target in one vectorized
    pass over the sparse incidence.

    A stripe whose own spare unit sits on the failed disk borrows the
    spare of a stripe that does *not* cross the failed disk (those
    stripes need no rebuild, so their spares are free); donors are
    drawn from the highest-numbered free stripes first, exactly like
    the scalar pool.

    Raises:
        ValueError: if the free-spare pool runs out (cannot happen for
            declustered layouts, where non-crossing stripes abound).
    """
    layout = sparing.layout
    b = layout.b
    inc = get_incidence(layout)
    spare_d = np.fromiter((d for d, _ in sparing.spare_units), np.int64, count=b)
    spare_o = np.fromiter((o for _, o in sparing.spare_units), np.int64, count=b)
    crossing = np.zeros(b, dtype=bool)
    crossing[inc.stripe_of_unit()[inc.disks == failed_disk]] = True
    pool_sids = np.flatnonzero(~crossing & (spare_d != failed_disk))
    cross_sids = np.flatnonzero(crossing)
    out_d = spare_d[cross_sids].copy()
    out_o = spare_o[cross_sids].copy()
    needy = out_d == failed_disk
    n_needy = int(needy.sum())
    if n_needy > len(pool_sids):
        raise ValueError("no free spare units left to absorb the failed disk")
    donors = pool_sids[::-1][:n_needy]
    out_d[needy] = spare_d[donors]
    out_o[needy] = spare_o[donors]
    return SparePlan(stripe_ids=cross_sids, disks=out_d, offsets=out_o)


def spare_map_for_failure(
    sparing: DistributedSparing, failed_disk: int
) -> dict[int, tuple[int, int]]:
    """Scalar view of :func:`spare_plan_for_failure` — the same
    assignment as a ``{stripe id: (disk, offset)}`` dict."""
    return spare_plan_for_failure(sparing, failed_disk).as_dict()


@dataclass
class WorkloadReport:
    """Outcome of a workload simulation."""

    duration_ms: float
    scheduled: int
    latency: dict[str, dict[str, float]]
    per_disk_ios: list[int]
    utilizations: list[float]

    @property
    def max_min_io_ratio(self) -> float:
        """Load imbalance: busiest over least-busy surviving disk."""
        active = [c for c in self.per_disk_ios if c > 0]
        return max(active) / min(active) if active else 1.0


def simulate_rebuild(
    layout: Layout,
    *,
    failed_disk: int = 0,
    parallelism: int = 4,
    disk_params: DiskParameters | None = None,
    workload: WorkloadConfig | None = None,
    workload_duration_ms: float = 0.0,
    verify_data: bool = False,
    sparing: DistributedSparing | None = None,
    seed: int = 0,
    batched: bool = True,
) -> RebuildReport:
    """Fail ``failed_disk`` and rebuild it to a spare.

    With ``workload`` given, foreground traffic (in degraded mode)
    competes with rebuild IOs for the same disk queues for
    ``workload_duration_ms``.  With ``verify_data=True``, a byte-level
    data plane checks the rebuilt image bit-for-bit.  With ``sparing``
    given, recovered units are written to the layout's distributed spare
    units instead of a dedicated spare disk.  ``batched`` selects the
    vectorized scan/submission planning (the default) or the scalar
    per-stripe walk; both produce the same report.
    """
    ctrl = ArrayController(
        layout, disk_params=disk_params, dataplane=verify_data, seed=seed
    )
    ctrl.fail_disk(failed_disk)
    if workload is not None and workload_duration_ms > 0:
        if batched:
            drive_workload(ctrl, workload, workload_duration_ms)
        else:
            compiled = compile_workload(
                ctrl.mapper, workload, workload_duration_ms
            )
            schedule_compiled_scalar(ctrl, compiled)
    if sparing is None:
        spare_units = None
    elif batched:
        spare_units = spare_plan_for_failure(sparing, failed_disk)
    else:
        spare_units = spare_map_for_failure(sparing, failed_disk)
    rebuild = RebuildProcess(
        ctrl,
        parallelism=parallelism,
        spare_units=spare_units,
        batched=batched,
    )
    rebuild.start()
    ctrl.sim.run()
    if not rebuild.done or rebuild.report is None:
        raise RuntimeError("rebuild did not complete (empty stripe set?)")
    return rebuild.report


def simulate_workload(
    layout: Layout,
    *,
    duration_ms: float = 10_000.0,
    config: WorkloadConfig | None = None,
    disk_params: DiskParameters | None = None,
    failed_disk: int | None = None,
    verify_data: bool = False,
    seed: int = 0,
    batched: bool = True,
    write_policy: str = "rmw",
    window_size: int | None = None,
    recorder=None,
) -> WorkloadReport:
    """Run a synthetic workload against a layout.

    ``failed_disk`` switches the array to degraded mode before traffic
    starts.  The stream is compiled up front; single-phase traces
    (read-only, or any mix under ``write_policy="write_through"``)
    execute through the analytic queue solver (no event loop at all),
    anything else through the batch-stepped executor,
    and ``batched=False`` through the scalar per-event path — all
    produce the same report.  With ``window_size`` set, the stream is
    never materialized: it is generated, translated, and executed one
    window at a time (:func:`repro.sim.stream.execute_windows`) with
    latency reduced to constant-memory digests — peak memory is one
    window at any horizon, and the report is byte-identical to the
    materialized run.  Returns latency summaries keyed by request kind
    plus per-disk load.

    With ``recorder`` (a :class:`repro.obs.MetricsRecorder`), the run
    is instrumented on the simulated clock: the report itself is
    unchanged, and the recorder fills with completion-bucketed latency,
    arrivals, and the engine label (also surfaced as the report's
    ``engine`` attribute either way).
    """
    cfg = config if config is not None else WorkloadConfig()
    ctrl = ArrayController(
        layout,
        disk_params=disk_params,
        dataplane=verify_data,
        seed=seed,
        write_policy=write_policy,
    )
    if recorder is not None:
        ctrl.obs = recorder
        ctrl.obs_shard = 0
    if failed_disk is not None:
        ctrl.fail_disk(failed_disk)
    if window_size is not None:
        if not batched:
            raise ValueError("windowed execution requires batched=True")
        windows = StreamWindows(
            cfg, duration_ms, ctrl.mapper.capacity, window_size=window_size
        )
        # The engines record arrivals as windows are routed.
        scheduled, latency = execute_windows(ctrl, windows)
    else:
        compiled = compile_workload(ctrl.mapper, cfg, duration_ms)
        if batched:
            scheduled = execute_compiled(ctrl, compiled)
        else:
            scheduled = schedule_compiled_scalar(ctrl, compiled)
            ctrl.sim.run()
        if recorder is not None:
            recorder.arrivals(0, compiled.times)
        latency = ctrl.latency
    # Kinds sorted: the order requests first complete in is the
    # engine's business, not the report's.
    report = WorkloadReport(
        duration_ms=ctrl.sim.now,
        scheduled=scheduled,
        latency={kind: summarize(latency[kind]) for kind in sorted(latency)},
        per_disk_ios=ctrl.per_disk_completed(),
        utilizations=ctrl.utilizations(),
    )
    report.engine = ctrl.last_engine
    return report
