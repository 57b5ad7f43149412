"""Tests for the batched I/O paths: a burst of requests submitted as
one compiled trace against the scalar per-request path, and the data
plane's vectorized logical reads and full-array parity pass."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.layouts import AddressMapper, ring_layout
from repro.sim import compile_stream, execute_compiled, schedule_compiled
from repro.sim.controller import ArrayController
from repro.sim.dataplane import DataPlane


def _burst(ctrl: ArrayController, lbas, *, read: bool, heap: bool = False):
    """Submit ``lbas`` as one compiled trace that arrives at time 0 and
    run it to completion, on the engine gate or (``heap``) the event
    heap.  Returns the completed-request count per kind."""
    n = len(lbas)
    trace = compile_stream(
        ctrl.mapper, np.zeros(n), np.full(n, read), np.asarray(lbas)
    )
    if heap:
        schedule_compiled(ctrl, trace)
        ctrl.sim.run()
    else:
        execute_compiled(ctrl, trace)
    return {kind: st.count for kind, st in ctrl.latency.items() if st.count}


class TestControllerBatchReads:
    def test_batch_kinds_match_scalar(self):
        lay = ring_layout(7, 3)
        scalar = ArrayController(lay)
        scalar.fail_disk(1)  # mixes read and degraded_read kinds
        lbas = list(range(0, scalar.mapper.capacity, 3))
        kinds_scalar = Counter(scalar.submit_read(lba) for lba in lbas)
        scalar.sim.run()
        for heap in (False, True):
            batch = ArrayController(lay)
            batch.fail_disk(1)
            assert _burst(batch, lbas, read=True, heap=heap) == kinds_scalar
            assert batch.per_disk_completed() == scalar.per_disk_completed()
            assert batch.sim.now == scalar.sim.now

    def test_degraded_batch_reads_fan_out(self):
        ctrl = ArrayController(ring_layout(7, 3))
        ctrl.fail_disk(0)
        kinds = _burst(ctrl, np.arange(ctrl.mapper.capacity), read=True)
        assert set(kinds) == {"degraded_read", "read"}
        assert ctrl.per_disk_completed()[0] == 0  # failed disk serves nothing

    def test_batch_latency_recorded_per_request(self):
        ctrl = ArrayController(ring_layout(5, 3))
        n = 10
        assert _burst(ctrl, list(range(n)), read=True) == {"read": n}


class TestControllerBatchWrites:
    def test_healthy_batch_write_keeps_parity_consistent(self):
        ctrl = ArrayController(ring_layout(7, 3), dataplane=True)
        lbas = np.arange(0, ctrl.mapper.capacity, 2)
        kinds = _burst(ctrl, lbas, read=False)
        assert kinds == {"write": len(lbas)}
        assert ctrl.data is not None and ctrl.data.all_parity_consistent()

    def test_batch_write_contents_match_scalar_path(self):
        lay = ring_layout(7, 3)
        lbas = list(range(0, AddressMapper(lay).capacity, 3))
        for failed, heap in itertools.product((None, 2), (False, True)):
            batch = ArrayController(lay, dataplane=True, seed=5)
            scalar = ArrayController(lay, dataplane=True, seed=5)
            if failed is not None:
                batch.fail_disk(failed)
                scalar.fail_disk(failed)
            kinds_scalar = Counter(scalar.submit_write(lba) for lba in lbas)
            scalar.sim.run()
            assert _burst(batch, lbas, read=False, heap=heap) == kinds_scalar
            assert np.array_equal(batch.data.store, scalar.data.store)
            assert batch.per_disk_completed() == scalar.per_disk_completed()

    def test_degraded_batch_write_folds_into_parity(self):
        ctrl = ArrayController(ring_layout(7, 3), dataplane=True)
        before = ctrl.data.snapshot_disk(2)
        ctrl.fail_disk(2)
        kinds = _burst(ctrl, np.arange(ctrl.mapper.capacity), read=False)
        assert "degraded_write" in kinds
        # Every *data* unit of the failed disk is recoverable by XOR of
        # the survivors (parity units on the failed disk are lost until
        # rebuild — same as the scalar path).
        rebuilt = ctrl.data.reconstruct_disk(2)
        stored = ctrl.data.snapshot_disk(2)
        changed = False
        for off in range(ctrl.layout.size):
            lba, is_parity = ctrl.mapper.physical_to_logical(2, off)
            if is_parity:
                continue
            assert np.array_equal(rebuilt[off], stored[off])
            changed = changed or not np.array_equal(rebuilt[off], before[off])
        assert changed


class TestDataPlaneBatch:
    def test_read_logical_batch_matches_scalar(self):
        lay = ring_layout(7, 3)
        plane = DataPlane(lay, seed=9)
        mapper = AddressMapper(lay)
        lbas = np.arange(0, mapper.capacity, 5)
        batch = plane.read_logical_batch(mapper, lbas)
        for i, lba in enumerate(lbas.tolist()):
            pu = mapper.logical_to_physical(lba)
            assert np.array_equal(batch[i], plane.read_unit(pu.disk, pu.offset))

    def test_multi_iteration_mapper_rejected(self):
        # The store holds one iteration; a tiling mapper must not
        # silently alias onto it.
        lay = ring_layout(5, 3)
        plane = DataPlane(lay)
        tiled = AddressMapper(lay, iterations=2)
        with pytest.raises(ValueError, match="iteration"):
            plane.read_logical_batch(tiled, [0])
        with pytest.raises(ValueError, match="geometry"):
            plane.read_logical_batch(AddressMapper(ring_layout(7, 3)), [0])

    def test_vectorized_full_parity_matches_per_stripe(self):
        lay = ring_layout(7, 3)
        plane = DataPlane(lay, seed=2)
        plane.store[:] += np.uint64(1)  # corrupt everything
        plane.recompute_all_parity()
        for sid in range(lay.b):
            assert plane.parity_consistent(sid)
