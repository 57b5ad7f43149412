"""Byte-level XOR data plane: the correctness oracle of the simulator.

Holds actual (random) contents for every unit of every disk as NumPy
``uint64`` words, performs the parity XOR arithmetic of RAID, and lets
tests verify bit-for-bit that a layout can reconstruct a failed disk —
Condition 1 made executable.

The unit store is one flat ``(v*size, words)`` buffer, so physical
units address it by ``disk * size + offset`` — the same flat-cell
convention as :class:`repro.layouts.AddressMapper`'s reverse tables —
and batches of logical reads and full-array parity rebuilds run as
vectorized gathers/scatters instead of per-unit Python loops.

Timing and data are deliberately decoupled: the controller performs
data-plane operations atomically while the event engine accounts for
the IO time.  Interleaving semantics (e.g. torn RMW under concurrency)
are outside the paper's scope.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..layouts import AddressMapper, Layout

__all__ = ["DataPlane"]


class DataPlane:
    """Unit contents + parity arithmetic for one layout iteration.

    Args:
        layout: the data layout.
        unit_words: 64-bit words per unit (content granularity).
        seed: RNG seed for the initial data fill.
    """

    def __init__(self, layout: Layout, *, unit_words: int = 8, seed: int = 0):
        self.layout = layout
        self.unit_words = unit_words
        rng = np.random.default_rng(seed)
        self.store = rng.integers(
            0,
            np.iinfo(np.uint64).max,
            size=(layout.v, layout.size, unit_words),
            dtype=np.uint64,
        )
        # Flat (v*size, words) view sharing the store's memory: cell
        # ``disk * size + offset``.  Grouping stripes by size lets the
        # full-parity pass run as one XOR-reduce per group.
        self._flat = self.store.reshape(layout.v * layout.size, unit_words)
        self._stripe_groups: list[tuple[np.ndarray, np.ndarray]] = []
        by_size: dict[int, tuple[list[list[int]], list[int]]] = {}
        parity_of: list[int] = []
        for stripe in layout.stripes:
            pd, poff = stripe.parity_unit
            cells = [d * layout.size + off for d, off in stripe.data_units()]
            data_rows, parity_cells = by_size.setdefault(len(cells), ([], []))
            data_rows.append(cells)
            parity_cells.append(pd * layout.size + poff)
            parity_of.append(parity_cells[-1])
        # Stripe id -> its parity cell (the small-write fold's scatter).
        self._parity_cell = np.asarray(parity_of, dtype=np.int64)
        for data_rows, parity_cells in by_size.values():
            self._stripe_groups.append(
                (
                    np.asarray(data_rows, dtype=np.int64),
                    np.asarray(parity_cells, dtype=np.int64),
                )
            )
        self.recompute_all_parity()

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------

    def read_unit(self, disk: int, offset: int) -> np.ndarray:
        """Copy of one unit's contents."""
        return self.store[disk, offset].copy()

    def write_unit(self, disk: int, offset: int, data: np.ndarray) -> None:
        """Overwrite one unit.

        Raises:
            ValueError: if ``data`` has the wrong shape/dtype.
        """
        if data.shape != (self.unit_words,) or data.dtype != np.uint64:
            raise ValueError(
                f"unit data must be uint64[{self.unit_words}], got "
                f"{data.dtype}[{data.shape}]"
            )
        self.store[disk, offset] = data

    # ------------------------------------------------------------------
    # Parity arithmetic
    # ------------------------------------------------------------------

    def stripe_parity(self, stripe_id: int) -> np.ndarray:
        """XOR of the stripe's *data* units (what the parity unit must
        hold)."""
        stripe = self.layout.stripes[stripe_id]
        acc = np.zeros(self.unit_words, dtype=np.uint64)
        for d, off in stripe.data_units():
            acc ^= self.store[d, off]
        return acc

    def recompute_all_parity(self) -> None:
        """Write correct parity into every stripe (initialization /
        after bulk loads) — one vectorized XOR-reduce per stripe-size
        group."""
        for data_rows, parity_cells in self._stripe_groups:
            self._flat[parity_cells] = np.bitwise_xor.reduce(
                self._flat[data_rows], axis=1
            )

    def parity_consistent(self, stripe_id: int) -> bool:
        """Check one stripe's parity invariant."""
        stripe = self.layout.stripes[stripe_id]
        pd, poff = stripe.parity_unit
        return bool(np.array_equal(self.store[pd, poff], self.stripe_parity(stripe_id)))

    def all_parity_consistent(self) -> bool:
        """Check every stripe's parity invariant (vectorized)."""
        for data_rows, parity_cells in self._stripe_groups:
            expect = np.bitwise_xor.reduce(self._flat[data_rows], axis=1)
            if not np.array_equal(self._flat[parity_cells], expect):
                return False
        return True

    # ------------------------------------------------------------------
    # Writes and reconstruction
    # ------------------------------------------------------------------

    def small_write(self, stripe_id: int, disk: int, offset: int, data: np.ndarray) -> None:
        """Read-modify-write: update a data unit and patch the parity
        with ``new ^ old`` (the 4-IO small write the controller times)."""
        stripe = self.layout.stripes[stripe_id]
        pd, poff = stripe.parity_unit
        delta = self.store[disk, offset] ^ data
        self.store[disk, offset] = data
        self.store[pd, poff] ^= delta

    def fold_small_writes(
        self,
        stripe_ids: np.ndarray,
        disks: np.ndarray,
        offsets: np.ndarray,
        payloads: np.ndarray,
    ) -> None:
        """Apply a sequence of small writes in one vectorized pass; the
        store ends byte-identical to calling :meth:`small_write` on each
        write in order.

        The last write to a data cell wins, and each parity cell XORs
        in ``initial ^ final`` of every data cell written in its stripe
        — the per-write ``old ^ new`` deltas telescope.  ``payloads`` is
        ``(n, unit_words)`` or broadcastable to it (``(n, 1)`` fills
        each unit with one word).

        Example:
            >>> from repro.core import get_layout
            >>> a, b = DataPlane(get_layout(9, 3)), DataPlane(get_layout(9, 3))
            >>> s = a.layout.stripes[0]
            >>> (d, o), = s.data_units()[:1]
            >>> words = np.array([[5], [6]], dtype=np.uint64)
            >>> a.fold_small_writes(np.array([0, 0]), np.array([d, d]),
            ...                     np.array([o, o]), words)
            >>> for w in words:
            ...     b.small_write(0, d, o, np.full(8, w[0], dtype=np.uint64))
            >>> bool(np.array_equal(a.store, b.store))
            True
        """
        n = len(disks)
        if not n:
            return
        cells = np.asarray(disks, dtype=np.int64) * self.layout.size + offsets
        # The last write to each cell: first occurrence in reverse.
        uniq, rev_first = np.unique(cells[::-1], return_index=True)
        last = n - 1 - rev_first
        final = np.broadcast_to(payloads, (n, self.unit_words))[last]
        delta = self._flat[uniq] ^ final
        self._flat[uniq] = final
        np.bitwise_xor.at(
            self._flat, self._parity_cell[np.asarray(stripe_ids)[last]], delta
        )

    # ------------------------------------------------------------------
    # Batched logical reads (through the mapping engine)
    # ------------------------------------------------------------------

    def _check_mapper(self, mapper: AddressMapper) -> None:
        """The store models exactly one layout iteration.

        Raises:
            ValueError: if the mapper tiles multiple iterations (its
                offsets would fall outside the store) or belongs to a
                different geometry.
        """
        if mapper.iterations != 1:
            raise ValueError(
                f"data plane holds one layout iteration; mapper has "
                f"{mapper.iterations}"
            )
        if (mapper.layout.v, mapper.layout.size) != (
            self.layout.v,
            self.layout.size,
        ):
            raise ValueError("mapper geometry does not match the data plane")

    def read_logical_batch(
        self, mapper: AddressMapper, lbas: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Contents of a batch of logical data units, one gather.

        Returns a ``(len(lbas), unit_words)`` array in request order.

        Raises:
            ValueError: if the mapper does not match the store (see
                :meth:`_check_mapper`).
        """
        self._check_mapper(mapper)
        disks, offsets = mapper.map_batch(lbas)
        cells = disks * self.layout.size + offsets
        return self._flat[cells].copy()

    def reconstruct_unit(self, stripe_id: int, disk: int) -> np.ndarray:
        """Recover disk ``disk``'s unit of a stripe by XOR of the
        stripe's *other* units (Condition 1 in action).

        Raises:
            ValueError: if the stripe does not cross ``disk``.
        """
        stripe = self.layout.stripes[stripe_id]
        acc = np.zeros(self.unit_words, dtype=np.uint64)
        found = False
        for d, off in stripe.units:
            if d == disk:
                found = True
                continue
            acc ^= self.store[d, off]
        if not found:
            raise ValueError(f"stripe {stripe_id} has no unit on disk {disk}")
        return acc

    def snapshot_disk(self, disk: int) -> np.ndarray:
        """Copy of a full disk's contents (the rebuild oracle)."""
        return self.store[disk].copy()

    def reconstruct_disk(self, disk: int) -> np.ndarray:
        """Rebuild a whole disk's contents from the survivors, returning
        the reconstructed image (does not modify the store)."""
        image = np.zeros((self.layout.size, self.unit_words), dtype=np.uint64)
        for sid, stripe in enumerate(self.layout.stripes):
            for d, off in stripe.units:
                if d == disk:
                    image[off] = self.reconstruct_unit(sid, disk)
        return image
