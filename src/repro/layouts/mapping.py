"""Logical-to-physical address mapping (Condition 4).

Maps a linear logical address space of *data* units onto the array: one
table lookup plus constant arithmetic, exactly the paper's efficiency
model.  Disks larger than one layout iteration tile the layout
vertically ("multiple copies of the layout can be used as needed").

The lookup tables are flat, array-backed (``array``/``bytes``, no
per-call dict hops), built once per mapper:

* forward — indexed by logical address within one iteration, giving
  ``(disk, offset, stripe)``;
* reverse — indexed by ``disk * size + offset``, giving
  ``(stripe, logical-or-minus-one)`` plus a parity flag byte;
* parity — indexed by stripe, giving the parity unit's position.

NumPy views over the same buffers power :meth:`AddressMapper.map_batch`,
which translates whole address vectors in a handful of vectorized
operations — the hot path for bulk I/O submission and the data plane.
The forward table's row count — the layout size — is the paper's
feasibility measure.

Tables and batch outputs are ``int32`` whenever every representable
value (offsets and stripe ids across all iterations, logical
addresses up to the capacity) fits below ``2**31`` — which is every
realistic array — halving memory traffic on the hot mapping path;
mappers automatically widen to ``int64`` beyond that.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import Layout

__all__ = ["AddressMapper", "PhysicalUnit"]


@dataclass(frozen=True)
class PhysicalUnit:
    """A physical unit address plus its stripe context."""

    disk: int
    offset: int
    stripe: int
    is_parity: bool


class AddressMapper:
    """Bidirectional logical/physical mapping for a layout.

    Logical data units are numbered in stripe order (stripe 0's data
    units first).  Parity units have no logical address.  The lookup
    tables (and batch outputs) are ``int32`` whenever every offset,
    stripe id, logical address and cell across all iterations fits,
    ``int64`` otherwise (:attr:`index_dtype`).

    Args:
        layout: the data layout (one iteration).
        iterations: how many times the layout tiles each disk (a disk
            has ``layout.size * iterations`` units).

    Raises:
        ValueError: on a non-positive iteration count.
    """

    def __init__(self, layout: Layout, *, iterations: int = 1):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.layout = layout
        self.iterations = iterations

        # Every value a table (or a batch output built from one) can
        # hold: offsets reach size * iterations, global stripe ids reach
        # b * iterations, reverse lookups reach the capacity — and
        # consumers fold outputs into flat cells (disk * size + offset),
        # so the full cell range must fit too or their arithmetic would
        # overflow in the narrow dtype.
        extreme = max(
            layout.v,
            layout.size * iterations,
            layout.b * iterations,
            (layout.v * layout.size - layout.b) * iterations,
            layout.v * layout.size * iterations,
        )
        dtype = np.dtype(np.int32 if extreme < 2**31 else np.int64)
        self._dtype = dtype
        typecode = "i" if dtype == np.dtype(np.int32) else "q"
        itemsize = dtype.itemsize

        # Forward tables: logical data unit -> disk / offset / stripe.
        fwd_disk = array(typecode)
        fwd_off = array(typecode)
        fwd_stripe = array(typecode)
        # Parity tables: stripe -> parity unit position.
        par_disk = array(typecode)
        par_off = array(typecode)
        # Reverse tables, indexed by disk * size + offset.
        cells = layout.v * layout.size
        rev_stripe = array(typecode, bytes(itemsize * cells))
        rev_lba = array(typecode, [-1]) * cells
        rev_parity = bytearray(cells)

        for si, stripe in enumerate(layout.stripes):
            pd, poff = stripe.parity_unit
            par_disk.append(pd)
            par_off.append(poff)
            rev_stripe[pd * layout.size + poff] = si
            rev_parity[pd * layout.size + poff] = 1
            for d, off in stripe.data_units():
                cell = d * layout.size + off
                rev_stripe[cell] = si
                rev_lba[cell] = len(fwd_disk)
                fwd_disk.append(d)
                fwd_off.append(off)
                fwd_stripe.append(si)

        self._fwd_disk = fwd_disk
        self._fwd_off = fwd_off
        self._fwd_stripe = fwd_stripe
        self._par_disk = par_disk
        self._par_off = par_off
        self._rev_stripe = rev_stripe
        self._rev_lba = rev_lba
        self._rev_parity = bytes(rev_parity)

        # NumPy views sharing the table buffers — the batch path.
        self._np_fwd_disk = np.frombuffer(fwd_disk, dtype=dtype)
        self._np_fwd_off = np.frombuffer(fwd_off, dtype=dtype)
        self._np_fwd_stripe = np.frombuffer(fwd_stripe, dtype=dtype)
        self._np_par_disk = np.frombuffer(par_disk, dtype=dtype)
        self._np_par_off = np.frombuffer(par_off, dtype=dtype)
        self._np_rev_stripe = np.frombuffer(rev_stripe, dtype=dtype)
        self._np_rev_lba = np.frombuffer(rev_lba, dtype=dtype)
        self._np_rev_parity = np.frombuffer(self._rev_parity, dtype=np.uint8)

    @property
    def index_dtype(self) -> np.dtype:
        """Element dtype of the lookup tables and batch outputs."""
        return self._dtype

    def table_nbytes(self) -> int:
        """Resident bytes across all flat lookup tables (the memory
        the ``int32`` narrowing halves on the hot path)."""
        views = (
            self._np_fwd_disk,
            self._np_fwd_off,
            self._np_fwd_stripe,
            self._np_par_disk,
            self._np_par_off,
            self._np_rev_stripe,
            self._np_rev_lba,
            self._np_rev_parity,
        )
        return sum(v.nbytes for v in views)

    @property
    def data_units_per_iteration(self) -> int:
        """Data units in one layout iteration (``v*size - b``)."""
        return len(self._fwd_disk)

    @property
    def capacity(self) -> int:
        """Total logical data units across all iterations."""
        return self.data_units_per_iteration * self.iterations

    def table_rows(self) -> int:
        """Condition 4 metric: rows in the resident lookup table (the
        layout size — units per disk per iteration)."""
        return self.layout.size

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------

    def logical_to_physical(self, lba: int) -> PhysicalUnit:
        """Map a logical data-unit address to its physical unit.

        One table lookup (``lba mod units-per-iteration``) plus constant
        arithmetic for the iteration offset.

        Raises:
            IndexError: if ``lba`` is outside the address space.
        """
        if not 0 <= lba < self.capacity:
            raise IndexError(f"lba {lba} outside capacity {self.capacity}")
        iteration, within = divmod(lba, self.data_units_per_iteration)
        return PhysicalUnit(
            disk=self._fwd_disk[within],
            offset=self._fwd_off[within] + iteration * self.layout.size,
            stripe=self._fwd_stripe[within] + iteration * self.layout.b,
            is_parity=False,
        )

    def physical_to_logical(self, disk: int, offset: int) -> tuple[int, bool]:
        """Map a physical unit back to ``(lba, is_parity)``.

        Parity units return ``(-1, True)``.

        Raises:
            IndexError: if the physical address is out of range.
        """
        iteration, within = divmod(offset, self.layout.size)
        if not (0 <= disk < self.layout.v and 0 <= iteration < self.iterations):
            raise IndexError(f"physical address ({disk},{offset}) out of range")
        cell = disk * self.layout.size + within
        if self._rev_parity[cell]:
            return -1, True
        return (
            self._rev_lba[cell] + iteration * self.data_units_per_iteration,
            False,
        )

    def stripe_of(self, disk: int, offset: int) -> int:
        """Global stripe id of a physical unit (across iterations)."""
        iteration, within = divmod(offset, self.layout.size)
        return (
            self._rev_stripe[disk * self.layout.size + within]
            + iteration * self.layout.b
        )

    def parity_unit_of_stripe(self, global_stripe: int) -> tuple[int, int]:
        """``(disk, offset)`` of a (global) stripe's parity unit."""
        iteration, si = divmod(global_stripe, self.layout.b)
        return self._par_disk[si], self._par_off[si] + iteration * self.layout.size

    def stripe_units(self, global_stripe: int) -> list[PhysicalUnit]:
        """All physical units of a (global) stripe."""
        iteration, si = divmod(global_stripe, self.layout.b)
        stripe = self.layout.stripes[si]
        shift = iteration * self.layout.size
        return [
            PhysicalUnit(
                disk=d,
                offset=off + shift,
                stripe=global_stripe,
                is_parity=ui == stripe.parity_index,
            )
            for ui, (d, off) in enumerate(stripe.units)
        ]

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------

    def _as_lba_array(self, lbas: Sequence[int] | np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(lbas, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError(f"address batch must be 1-D, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= self.capacity):
            raise IndexError(
                f"address batch outside capacity {self.capacity}: "
                f"range [{a.min()}, {a.max()}]"
            )
        return a

    def map_batch(
        self,
        lbas: Sequence[int] | np.ndarray,
        *,
        with_stripes: bool = False,
    ) -> tuple[np.ndarray, ...]:
        """Vectorized :meth:`logical_to_physical` for a whole batch.

        Args:
            lbas: 1-D vector of logical data-unit addresses.
            with_stripes: also return the global stripe ids.

        Returns:
            ``(disks, offsets)`` vectors of :attr:`index_dtype`, or
            ``(disks, offsets, stripes)`` with ``with_stripes=True`` —
            element-wise equal to the scalar mapping.

        Raises:
            IndexError: if any address is outside the address space.
            ValueError: if the batch is not one-dimensional.
        """
        a = self._as_lba_array(lbas)
        iteration, within = np.divmod(a, self.data_units_per_iteration)
        # Iteration indices fit the table dtype by construction; casting
        # keeps the whole output in int32 when the tables are int32
        # (int64 `iteration` would silently promote the arithmetic).
        it = iteration.astype(self._dtype, copy=False)
        disks = self._np_fwd_disk[within]
        offsets = self._np_fwd_off[within] + it * self.layout.size
        if with_stripes:
            stripes = self._np_fwd_stripe[within] + it * self.layout.b
            return disks, offsets, stripes
        return disks, offsets

    def map_batch_parity(
        self, lbas: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Batch-map addresses together with their stripes' parity units.

        Returns ``(disks, offsets, stripes, parity_disks,
        parity_offsets)`` — everything a controller needs to issue
        read-modify-writes without touching the scalar path.
        """
        a = self._as_lba_array(lbas)
        iteration, within = np.divmod(a, self.data_units_per_iteration)
        it = iteration.astype(self._dtype, copy=False)
        disks = self._np_fwd_disk[within]
        offsets = self._np_fwd_off[within] + it * self.layout.size
        si = self._np_fwd_stripe[within]
        stripes = si + it * self.layout.b
        par_disks = self._np_par_disk[si]
        par_offsets = self._np_par_off[si] + it * self.layout.size
        return disks, offsets, stripes, par_disks, par_offsets

    def physical_to_logical_batch(
        self,
        disks: Sequence[int] | np.ndarray,
        offsets: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`physical_to_logical`.

        Returns ``(lbas, is_parity)``; parity units get lba ``-1``.

        Raises:
            IndexError: if any physical address is out of range.
            ValueError: on shape mismatch.
        """
        d = np.ascontiguousarray(disks, dtype=np.int64)
        off = np.ascontiguousarray(offsets, dtype=np.int64)
        if d.shape != off.shape or d.ndim != 1:
            raise ValueError(
                f"disk/offset batches must be equal 1-D, got {d.shape}/{off.shape}"
            )
        iteration, within = np.divmod(off, self.layout.size)
        if d.size and not (
            (d >= 0).all()
            and (d < self.layout.v).all()
            and (iteration >= 0).all()
            and (iteration < self.iterations).all()
        ):
            raise IndexError("physical address batch out of range")
        cell = d * self.layout.size + within
        is_parity = self._np_rev_parity[cell].astype(bool)
        it = iteration.astype(self._dtype, copy=False)
        lbas = self._np_rev_lba[cell] + it * self.data_units_per_iteration
        lbas[is_parity] = -1
        return lbas, is_parity
