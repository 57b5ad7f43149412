"""Property tests for the batch-stepped executor.

The contract under test: :func:`repro.sim.batchstep.step_compiled`
replays a compiled trace WITHOUT the event heap (``events_processed``
stays 0) and lands the controller in the same state the heap engine
would — same clock, same per-disk counters and float accumulators,
same latency samples.

Two equality tiers, matching the engine's two tiers:

* the **exact** tier (``_step_exact``, called directly here: the
  compiled kernel on healthy read-modify-write plans, the Python
  ``_ExactCore`` otherwise — and that reference core on its own) is
  bit-exact against the heap including sample ORDER (it replays the
  heap's ``(time, seq)`` serialization event for event);
* the **default** path may take the eager FIFO tier on a healthy
  read-modify-write array, whose documented relaxation is sample order
  at *exact* completion-time ties (it follows submission order instead
  of event-seq order) — multisets, counts, percentiles, and max stay
  equal; the mean agrees within float re-association.  A degraded
  array never takes the eager tier, so its default path is bit-exact
  too, sample order and means included.
"""

import numpy as np
import pytest

from repro.core import get_layout
from repro.layouts import raid5_layout, ring_layout
from repro.obs import MetricsRecorder
from repro.sim import (
    ArrayController,
    DiskParameters,
    WorkloadConfig,
    compile_trace,
    compile_workload,
    schedule_compiled,
    step_compiled,
)
from repro.sim import native
from repro.sim.batchstep import _ExactCore, _step_exact
from repro.sim.compile import _CompiledRun, _controller_sink
from repro.sim.trace import TraceRecord

FAMILIES = {
    "ring": lambda: ring_layout(9, 4),
    "holland_gibson": lambda: get_layout(13, 4),
    "raid5": lambda: raid5_layout(6, rotations=4),
}


def _exact_state(ctrl):
    """Everything the heap engine mutates, float-exact."""
    return (
        ctrl.sim.now,
        [
            (
                d.busy_time,
                d.total_queue_delay,
                d.completed_reads,
                d.completed_writes,
                d._last_offset,
            )
            for d in ctrl.disks
        ],
        {k: tuple(s.samples) for k, s in ctrl.latency.items()},
    )


def _run(engine, layout_fn, cfg, *, duration=900.0, failed=None,
         policy="rmw", quantize=None):
    ctrl = ArrayController(layout_fn(), write_policy=policy)
    if failed is not None:
        ctrl.fail_disk(failed)
    trace = compile_workload(ctrl.mapper, cfg, duration)
    if quantize is not None:
        # Snap arrivals onto a grid: duplicate timestamps, and
        # arrivals tied with completions on the same instant.
        times = np.floor(trace.times / quantize) * quantize
        order = np.argsort(times, kind="stable")
        records = [
            TraceRecord(
                time_ms=float(times[i]),
                op="r" if trace.is_read[i] else "w",
                lba=int(trace.lbas[i]),
            )
            for i in order
        ]
        trace = compile_trace(ctrl.mapper, records)
    if engine == "heap":
        schedule_compiled(ctrl, trace)
        ctrl.sim.run()
    else:
        if engine == "exact":
            n = _step_exact(ctrl, _CompiledRun(ctrl, trace))
        elif engine == "python":
            core = _ExactCore(ctrl)
            sink = _controller_sink(ctrl)
            core.feed(trace, sink)
            core.finish(sink)
            n = trace.n
        else:
            n = step_compiled(ctrl, trace)
        assert n == trace.n
        # The whole point: the event heap never runs.
        assert ctrl.sim.events_processed == 0
    return ctrl


def assert_states_equal(a, b, *, sample_order_exact=True):
    sa, sb = _exact_state(a), _exact_state(b)
    assert sb[0] == sa[0]  # clock
    assert sb[1] == sa[1]  # per-disk counters + float accumulators
    assert set(sb[2]) == set(sa[2])
    for kind in sa[2]:
        if sample_order_exact:
            assert sb[2][kind] == sa[2][kind], kind
        else:
            assert sorted(sb[2][kind]) == sorted(sa[2][kind]), kind


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("read_fraction", [1.0, 0.6, 0.0])
@pytest.mark.parametrize("failed", [None, 1])
@pytest.mark.parametrize("policy", ["rmw", "write_through"])
class TestCalendarBitExactness:
    """The exact tier (label ``calendar``) is bit-exact including
    sample order, across families x mixes x failure states x write
    policies."""

    def test_matches_heap_bit_exact(
        self, family, read_fraction, failed, policy
    ):
        cfg = WorkloadConfig(
            interarrival_ms=3.0, read_fraction=read_fraction, seed=11
        )
        heap = _run("heap", FAMILIES[family], cfg, failed=failed,
                    policy=policy)
        exact = _run("exact", FAMILIES[family], cfg, failed=failed,
                     policy=policy)
        assert_states_equal(heap, exact)
        assert exact.last_engine == "calendar"
        assert exact.last_executor == (
            "exact-native"
            if failed is None and policy == "rmw"
            else "exact-core"
        )
        python = _run("python", FAMILIES[family], cfg, failed=failed,
                      policy=policy)
        assert_states_equal(heap, python)


class TestFleetShardShape:
    """One shard of the serve-shaped mixed fleet — (9,3), 8 ms mean
    interarrival, read fraction 0.7, seed 7, ~30k requests — is where
    the eager tier tie-aborts in practice, so the exact tier must match
    the heap bit for bit on exactly this shape, sample order included."""

    def test_exact_tier_bit_exact(self):
        layout = lambda: get_layout(9, 3)  # noqa: E731
        cfg = WorkloadConfig(interarrival_ms=8.0, read_fraction=0.7, seed=7)
        heap = _run("heap", layout, cfg, duration=240_000.0)
        exact = _run("exact", layout, cfg, duration=240_000.0)
        assert_states_equal(heap, exact)
        python = _run("python", layout, cfg, duration=240_000.0)
        assert_states_equal(heap, python)
        # Through the gate: the eager attempt tie-aborts without a
        # trace, and the exact tier replays the whole trace.
        step = _run("step", layout, cfg, duration=240_000.0)
        assert step.last_engine == "calendar"
        assert_states_equal(heap, step)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("read_fraction", [1.0, 0.6, 0.0])
@pytest.mark.parametrize("failed", [None, 1])
class TestDefaultPathReportEquality:
    """The default path must agree with the heap on everything: a
    healthy rmw mix (eager tier eligible) except possibly sample order
    at exact completion-time ties, a degraded one (exact tier only)
    bit for bit, sample order and means included."""

    def test_matches_heap(self, family, read_fraction, failed):
        cfg = WorkloadConfig(
            interarrival_ms=3.0, read_fraction=read_fraction, seed=19
        )
        heap = _run("heap", FAMILIES[family], cfg, failed=failed)
        step = _run("step", FAMILIES[family], cfg, failed=failed)
        assert_states_equal(
            heap, step, sample_order_exact=failed is not None
        )

    def test_summaries_match_heap(self, family, read_fraction, failed):
        from repro.sim.stats import summarize

        cfg = WorkloadConfig(
            interarrival_ms=3.0, read_fraction=read_fraction, seed=23
        )
        heap = _run("heap", FAMILIES[family], cfg, failed=failed)
        step = _run("step", FAMILIES[family], cfg, failed=failed)
        for kind in heap.latency:
            a = summarize(heap.latency[kind])
            b = summarize(step.latency[kind])
            for field in ("count", "p50", "p95", "max"):
                assert a[field] == b[field], (kind, field)
            if failed is None:
                assert a["mean"] == pytest.approx(b["mean"], rel=1e-12)
            else:
                assert a["mean"] == b["mean"], kind


class TestQuantizedTies:
    """Grid-quantized arrivals mass-produce equal timestamps — the
    worst case for both the exact tier (arrival epochs tied with
    completions, settled by ``(time, seq)``) and the eager tier (which
    must detect ambiguous ties and fall back)."""

    @pytest.mark.parametrize("tick", [8.0, 5.0])
    def test_tied_arrivals_bit_exact(self, tick):
        cfg = WorkloadConfig(interarrival_ms=2.0, read_fraction=0.6, seed=7)
        heap = _run("heap", FAMILIES["ring"], cfg, quantize=tick)
        exact = _run("exact", FAMILIES["ring"], cfg, quantize=tick)
        assert_states_equal(heap, exact)
        python = _run("python", FAMILIES["ring"], cfg, quantize=tick)
        assert_states_equal(heap, python)

    def test_default_path_survives_mass_ties(self):
        """The eager tier either resolves the ties or falls back to the
        exact tier — both must end report-equal to the heap, never
        wrong."""
        cfg = WorkloadConfig(interarrival_ms=2.0, read_fraction=0.5, seed=3)
        heap = _run("heap", FAMILIES["ring"], cfg, quantize=5.0)
        step = _run("step", FAMILIES["ring"], cfg, quantize=5.0)
        assert_states_equal(heap, step, sample_order_exact=False)


class TestEngineOwnership:
    def test_busy_simulator_rejected(self):
        ctrl = ArrayController(ring_layout(5, 3))
        ctrl.sim.schedule(1.0, lambda: None)
        cfg = WorkloadConfig(interarrival_ms=5.0, seed=1)
        trace = compile_workload(ctrl.mapper, cfg, 200.0)
        with pytest.raises(RuntimeError, match="idle"):
            step_compiled(ctrl, trace)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_service_model_rejected(self, scale):
        params = DiskParameters(
            average_seek_ms=10.0 * scale,
            rotational_latency_ms=5.0 * scale,
            transfer_ms_per_unit=2.0 * scale,
            sequential_seek_ms=0.5 * scale,
        )
        ctrl = ArrayController(ring_layout(5, 3), disk_params=params)
        cfg = WorkloadConfig(interarrival_ms=5.0, seed=1)
        trace = compile_workload(ctrl.mapper, cfg, 200.0)
        with pytest.raises(ValueError, match="positive service model"):
            step_compiled(ctrl, trace)
        assert ctrl.latency == {} and ctrl.last_engine is None

    def test_empty_trace_is_a_noop(self):
        ctrl = ArrayController(ring_layout(5, 3))
        trace = compile_workload(ctrl.mapper, WorkloadConfig(seed=0), 0.0)
        assert step_compiled(ctrl, trace) == 0
        assert ctrl.sim.now == 0.0
        assert ctrl.sim.events_processed == 0

    def test_engine_label_set(self):
        """step_compiled labels the controller with the tier that
        actually finished the trace: this one has no tie, so eager."""
        ctrl = ArrayController(ring_layout(5, 3))
        cfg = WorkloadConfig(interarrival_ms=5.0, seed=1)
        trace = compile_workload(ctrl.mapper, cfg, 200.0)
        step_compiled(ctrl, trace)
        assert ctrl.last_engine == "eager"


def _fail_load(path):
    raise native.KernelUnavailable("dlopen failed: forced by the test")


class TestOnePlanPerTrace:
    """step_compiled plans a trace once.  A degraded trace goes straight
    to the Python exact tier, with no eager attempt: one
    ``_CompiledRun``.  A healthy trace goes from columns to the
    compiled eager core and, after a tie abort, the compiled exact
    core, both on the same validated columns (one ``_columns`` pass)
    and with no ``_CompiledRun`` at all; on a host without the kernel,
    the Python eager tier and, after a tie abort, the Python exact tier
    both run the same ``_CompiledRun``."""

    @staticmethod
    def _step(monkeypatch, family, failed=1, kernel=True):
        loads = []
        load = _CompiledRun._load
        columns = []
        build = native._columns

        def counting(self, compiled):
            loads.append(compiled.n)
            load(self, compiled)

        def counting_columns(ctrl, compiled, base):
            columns.append(compiled.n)
            return build(ctrl, compiled, base)

        monkeypatch.setattr(_CompiledRun, "_load", counting)
        monkeypatch.setattr(native, "_columns", counting_columns)
        if not kernel:
            native.kernel.cache_clear()
            monkeypatch.setattr(native, "_load", _fail_load)
        ctrl = ArrayController(FAMILIES[family]())
        ctrl.obs = MetricsRecorder(100.0)
        if failed is not None:
            ctrl.fail_disk(failed)
        cfg = WorkloadConfig(interarrival_ms=3.0, read_fraction=0.6, seed=19)
        trace = compile_workload(ctrl.mapper, cfg, 900.0)
        try:
            if kernel:
                assert step_compiled(ctrl, trace) == trace.n
            else:
                with pytest.warns(RuntimeWarning, match="unavailable"):
                    assert step_compiled(ctrl, trace) == trace.n
        finally:
            if not kernel:
                native.kernel.cache_clear()
        replays = ctrl.obs.counters().get("tie_abort_replays", 0)
        return (
            ctrl.last_engine,
            ctrl.last_executor,
            len(loads),
            len(columns),
            replays,
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_degraded_trace_skips_the_eager_tier(self, monkeypatch, family):
        assert self._step(monkeypatch, family) == (
            "calendar", "exact-core", 1, 0, 0
        )

    def test_tie_abort_replays_the_same_plan(self, monkeypatch):
        assert self._step(monkeypatch, "ring", None, kernel=False) == (
            "calendar", "exact-core", 1, 0, 1
        )

    def test_eager_completion_counts_no_replay(self, monkeypatch):
        assert self._step(
            monkeypatch, "holland_gibson", None, kernel=False
        ) == ("eager", "eager", 1, 0, 0)

    def test_healthy_eager_completion_builds_no_plan(self, monkeypatch):
        assert self._step(monkeypatch, "holland_gibson", None) == (
            "eager", "eager-native", 0, 1, 0
        )

    def test_healthy_tie_abort_builds_no_plan(self, monkeypatch):
        assert self._step(monkeypatch, "ring", None) == (
            "calendar", "exact-native", 0, 1, 1
        )
