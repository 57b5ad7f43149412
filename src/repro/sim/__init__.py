"""Event-driven disk-array simulator: the evaluation substrate.

The paper defers performance evaluation to the Holland–Gibson simulator
(CMU RAIDframe lineage); this subpackage is our from-scratch equivalent:
a discrete-event engine, a parametric disk service model, an array
controller executing any :class:`repro.layouts.Layout`, synthetic
workloads, an on-line rebuild process, and a byte-level XOR data plane
for end-to-end correctness checks.
"""

from .analysis import LoadEstimate, analyze_load, declustering_ratio
from .batchstep import step_compiled
from .compile import (
    ArrayWindows,
    CompiledTrace,
    StreamWindows,
    compile_stream,
    compile_trace,
    compile_workload,
    execute_compiled,
    generate_request_stream,
    schedule_compiled,
    schedule_compiled_scalar,
    solve_compiled,
)
from .controller import ArrayController
from .dataplane import DataPlane
from .disk import Disk, DiskFailedError, DiskIO, DiskParameters
from .events import Simulator
from .reconstruction import RebuildProcess, RebuildReport
from .runner import (
    SparePlan,
    WorkloadReport,
    simulate_rebuild,
    simulate_workload,
    spare_map_for_failure,
    spare_plan_for_failure,
)
from .stats import LatencyDigest, LatencyStats, merge_summaries, quantize_latency, summarize
from .stream import execute_windows
from .trace import (
    TraceRecord,
    load_trace,
    replay_trace,
    save_trace,
    synthesize_trace,
)
from .workload import WorkloadConfig, drive_workload

__all__ = [
    "LoadEstimate",
    "analyze_load",
    "declustering_ratio",
    "ArrayWindows",
    "CompiledTrace",
    "StreamWindows",
    "compile_stream",
    "compile_trace",
    "compile_workload",
    "generate_request_stream",
    "schedule_compiled",
    "schedule_compiled_scalar",
    "solve_compiled",
    "execute_compiled",
    "execute_windows",
    "step_compiled",
    "ArrayController",
    "DataPlane",
    "Disk",
    "DiskFailedError",
    "DiskIO",
    "DiskParameters",
    "Simulator",
    "RebuildProcess",
    "RebuildReport",
    "SparePlan",
    "WorkloadReport",
    "simulate_rebuild",
    "simulate_workload",
    "spare_map_for_failure",
    "spare_plan_for_failure",
    "LatencyDigest",
    "LatencyStats",
    "merge_summaries",
    "quantize_latency",
    "summarize",
    "TraceRecord",
    "load_trace",
    "replay_trace",
    "save_trace",
    "synthesize_trace",
    "WorkloadConfig",
    "drive_workload",
]
