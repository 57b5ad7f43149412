"""Tests for the XOR data plane (Condition 1 made executable)."""

import numpy as np
import pytest

from repro.layouts import raid5_layout, ring_layout, theorem8_layout, theorem10_layout
from repro.sim import DataPlane


class TestDataPlane:
    def test_initial_parity_consistent(self):
        dp = DataPlane(ring_layout(5, 3), seed=1)
        assert dp.all_parity_consistent()

    def test_small_write_preserves_parity(self):
        lay = ring_layout(5, 3)
        dp = DataPlane(lay, seed=2)
        stripe = lay.stripes[7]
        d, off = stripe.data_units()[0]
        new = np.arange(dp.unit_words, dtype=np.uint64)
        dp.small_write(7, d, off, new)
        assert np.array_equal(dp.read_unit(d, off), new)
        assert dp.parity_consistent(7)

    def test_corruption_detected(self):
        lay = ring_layout(5, 3)
        dp = DataPlane(lay, seed=3)
        d, off = lay.stripes[0].data_units()[0]
        dp.write_unit(d, off, np.zeros(dp.unit_words, dtype=np.uint64))
        assert not dp.parity_consistent(0)
        dp.recompute_all_parity()
        assert dp.all_parity_consistent()

    def test_reconstruct_unit(self):
        lay = ring_layout(7, 3)
        dp = DataPlane(lay, seed=4)
        for sid in range(10):
            stripe = lay.stripes[sid]
            for d, off in stripe.units:
                rebuilt = dp.reconstruct_unit(sid, d)
                assert np.array_equal(rebuilt, dp.read_unit(d, off))

    def test_reconstruct_unit_wrong_disk(self):
        lay = ring_layout(5, 3)
        dp = DataPlane(lay, seed=5)
        absent = next(
            d for d in range(5) if d not in [u[0] for u in lay.stripes[0].units]
        )
        with pytest.raises(ValueError, match="no unit"):
            dp.reconstruct_unit(0, absent)

    @pytest.mark.parametrize(
        "layout",
        [raid5_layout(5), ring_layout(7, 3), theorem8_layout(9, 3), theorem10_layout(5, 3)],
        ids=["raid5", "ring", "thm8", "thm10"],
    )
    def test_reconstruct_whole_disk(self, layout):
        dp = DataPlane(layout, seed=6)
        for victim in (0, layout.v - 1):
            image = dp.reconstruct_disk(victim)
            assert np.array_equal(image, dp.snapshot_disk(victim))

    def test_write_unit_validates_shape(self):
        dp = DataPlane(ring_layout(5, 3))
        with pytest.raises(ValueError, match="unit data"):
            dp.write_unit(0, 0, np.zeros(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="unit data"):
            dp.write_unit(0, 0, np.zeros(dp.unit_words, dtype=np.int64))

    def test_reconstruction_after_small_writes(self):
        # Writes through small_write keep the array reconstructible.
        lay = ring_layout(5, 3)
        dp = DataPlane(lay, seed=7)
        rng = np.random.default_rng(0)
        for sid in rng.integers(0, lay.b, size=25):
            stripe = lay.stripes[sid]
            d, off = stripe.data_units()[int(rng.integers(0, stripe.size - 1))]
            dp.small_write(int(sid), d, off, rng.integers(0, 2**63, size=dp.unit_words, dtype=np.uint64))
        for victim in range(5):
            assert np.array_equal(dp.reconstruct_disk(victim), dp.snapshot_disk(victim))


def _fold_vs_sequential(layout, writes, seed=4):
    """Apply ``writes`` — ``(stripe, disk, offset, payload)`` tuples —
    through ``fold_small_writes`` on one plane and ``small_write`` one
    by one on another; return both planes."""
    folded, sequential = DataPlane(layout, seed=seed), DataPlane(layout, seed=seed)
    for sid, d, off, payload in writes:
        sequential.small_write(sid, d, off, payload)
    cols = list(zip(*writes))
    folded.fold_small_writes(
        np.array(cols[0]), np.array(cols[1]), np.array(cols[2]), np.stack(cols[3])
    )
    return folded, sequential


class TestFoldSmallWrites:
    """One vectorized fold must leave the store byte-identical to the
    same writes applied with sequential small_write calls."""

    def test_repeated_writes_to_one_cell(self):
        lay = ring_layout(9, 4)
        d, off = lay.stripes[3].data_units()[1]
        writes = [
            (3, d, off, np.full(8, value, dtype=np.uint64))
            for value in (11, 12, 11, 99)
        ]
        folded, sequential = _fold_vs_sequential(lay, writes)
        assert np.array_equal(folded.store, sequential.store)

    def test_several_cells_of_one_stripe(self):
        lay = ring_layout(9, 4)
        rng = np.random.default_rng(1)
        units = lay.stripes[5].data_units()
        writes = [
            (5, *units[int(i)], rng.integers(0, 2**63, size=8, dtype=np.uint64))
            for i in rng.integers(0, len(units), size=12)
        ]
        folded, sequential = _fold_vs_sequential(lay, writes)
        assert np.array_equal(folded.store, sequential.store)

    def test_many_stripes(self):
        lay = ring_layout(13, 4)
        rng = np.random.default_rng(2)
        writes = []
        for sid in rng.integers(0, lay.b, size=400).tolist():
            units = lay.stripes[sid].data_units()
            d, off = units[int(rng.integers(0, len(units)))]
            writes.append(
                (sid, d, off, rng.integers(0, 2**63, size=8, dtype=np.uint64))
            )
        folded, sequential = _fold_vs_sequential(lay, writes)
        assert np.array_equal(folded.store, sequential.store)
        assert folded.all_parity_consistent()

    def test_empty_fold_is_a_no_op(self):
        dp = DataPlane(ring_layout(5, 3), seed=6)
        before = dp.store.copy()
        empty = np.zeros(0, dtype=np.int64)
        dp.fold_small_writes(empty, empty, empty, np.zeros((0, 8), np.uint64))
        assert np.array_equal(dp.store, before)


class TestControllerFold:
    """The controller folds a trace's writes only when nothing can
    observe them one at a time: no hooks.  A degraded controller folds
    too, since every write path keeps each stripe's parity equal to the
    XOR of its data units."""

    def _trace(self, ctrl):
        from repro.sim import WorkloadConfig, compile_workload

        cfg = WorkloadConfig(interarrival_ms=1.0, read_fraction=0.3, seed=9)
        return compile_workload(ctrl.mapper, cfg, 200.0)

    def test_fold_matches_per_write_path(self):
        from repro.sim import ArrayController

        folded = ArrayController(ring_layout(9, 4), dataplane=True, seed=2)
        stepped = ArrayController(ring_layout(9, 4), dataplane=True, seed=2)
        trace = self._trace(folded)
        assert folded._fold_write_dataplane(trace)
        b = stepped.layout.b
        for i in np.flatnonzero(~trace.is_read).tolist():
            lba = int(trace.lbas[i])
            stepped._apply_write_dataplane(
                int(trace.stripes[i]) % b,
                int(trace.disks[i]),
                int(trace.offsets[i]),
                stepped._default_payload(lba),
            )
        assert np.array_equal(folded.data.store, stepped.data.store)

    @pytest.mark.parametrize("mode", ["data_failed", "parity_failed", "all"])
    def test_degraded_fold_matches_per_write_path(self, mode):
        """On a degraded controller the fold ends the store where the
        per-write path does — for writes whose data unit sits on the
        failed disk, writes whose parity does, and the whole mix with
        healthy ones."""
        from repro.sim import ArrayController
        from repro.sim.compile import CompiledTrace

        folded, stepped = (
            ArrayController(ring_layout(9, 4), dataplane=True, seed=2)
            for _ in range(2)
        )
        for ctrl in (folded, stepped):
            ctrl.fail_disk(1)
        trace = self._trace(folded)
        b = folded.layout.b
        writes = np.flatnonzero(~trace.is_read)
        modes = [
            folded._write_mode(
                int(trace.disks[i]),
                folded.layout.stripes[int(trace.stripes[i]) % b].parity_unit[0],
            )
            for i in writes.tolist()
        ]
        assert {"data_failed", "parity_failed", "normal"} <= set(modes)
        keep = writes if mode == "all" else writes[np.array(modes) == mode]
        trace = CompiledTrace(
            *(col if col is None else col[keep] for col in vars(trace).values())
        )
        assert folded._fold_write_dataplane(trace)
        for i in range(trace.n):
            stepped._apply_write_dataplane(
                int(trace.stripes[i]) % b,
                int(trace.disks[i]),
                int(trace.offsets[i]),
                stepped._default_payload(int(trace.lbas[i])),
            )
        assert np.array_equal(folded.data.store, stepped.data.store)
        assert folded.data.all_parity_consistent()

    @pytest.mark.parametrize("observer", ["degraded_hook", "content_hook"])
    def test_declines_when_writes_are_observed(self, observer):
        from repro.sim import ArrayController

        ctrl = ArrayController(ring_layout(9, 4), dataplane=True, seed=2)
        if observer == "degraded_hook":
            ctrl.add_degraded_write_hook(lambda off, data: None)
        else:
            ctrl.add_content_write_hook(lambda sid, d, off, data: None)
        before = ctrl.data.store.copy()
        assert not ctrl._fold_write_dataplane(self._trace(ctrl))
        assert np.array_equal(ctrl.data.store, before)
