"""Live fleet reconfiguration: grow/shrink a serving fleet by
migrating logical volumes between arrays under load.

The declustered layouts of the paper exist so an array keeps serving
through *change*; this module extends that story from one array to the
fleet: ``python -m repro serve --grow 4:8`` reshapes a 4-array fleet to
8 arrays while traffic runs, with **zero lost requests** and every
moved byte **verified bit for bit**.

A reshape is planned from the sharding seam
(:meth:`repro.service.ShardMap.reshaped` names the target placement,
:meth:`~repro.service.ShardMap.moved_volumes` the work list) and then
executed one volume at a time on the fleet's shared event clock by a
:class:`MigrationCoordinator`.  Each volume walks a three-phase state
machine:

1. **copy** — the volume's units are swept from the source array to the
   destination with real, admission-controlled disk IOs: a read on the
   source disk, then a read-modify-write on the destination (data +
   parity, so the destination stays parity-consistent throughout).
   Contents transfer through the data planes at the moment the source
   read completes, and from that moment the unit is *mirrored*: any
   foreground write landing on an already-copied cell — on the source
   (this volume's own traffic, or a co-resident volume aliasing the
   same physical cells) or on the destination (an aliased volume
   already living there) — propagates to every replica of that cell
   across all in-flight copies, so neither side can go stale — the
   classic pre-copy live-migration protocol, extended to the aliased
   address space.
2. **drain** — new requests for the volume are parked; the coordinator
   waits for the volume's in-flight requests on the source to complete
   (it dispatched every one of them itself, so the in-flight count is
   exact, not a heuristic).
3. **cutover** — with source and destination quiesced, the moved cells
   are compared bit for bit through the data planes, the live routing
   table flips the volume to its destination, and the parked requests
   are released there (their latency is measured from the *original*
   arrival, so the freeze shows up as queueing delay, not as loss).

While a migration is active the fleet diverts moving-volume traffic
out of the batched per-shard compile and hands it to the coordinator,
which dispatches each request at its arrival time to the volume's
*current* owner — the seam that lets routing change mid-stream.
Copies to the same destination are serialized (two volumes ingesting
into one array could alias the same physical cells), and every copy
competes for the same fleet-wide
:class:`repro.service.AdmissionController` slots as rebuilds, so
"at most K background recovery/migration streams" holds across both.

Failure events and migrations must target disjoint arrays within one
scenario (a copy sweep cannot read a mid-rebuild source); the scenario
runner enforces this.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..sim.controller import ArrayController, _Request
from ..sim.disk import DiskIO
from .fleet import Fleet
from .orchestrator import AdmissionController
from .sharding import ShardMap

__all__ = [
    "VolumeMove",
    "MigrationPlan",
    "VolumeMigrationOutcome",
    "MigrationCoordinator",
    "plan_migration",
]


@dataclass(frozen=True)
class VolumeMove:
    """One volume's relocation.

    Attributes:
        volume: logical volume id.
        source: shard currently owning the volume.
        dest: shard that owns it under the target map.
        lbas: the volume's shard-local addresses (ascending; empty for
            a tail volume past the capacity edge — routing-only move).
    """

    volume: int
    source: int
    dest: int
    lbas: np.ndarray


@dataclass(frozen=True)
class MigrationPlan:
    """Everything a reshape will do, computed up front (deterministic).

    Attributes:
        current_shards: shard count before the reshape.
        target_shards: shard count after.
        target_map: the placement the fleet converges to.
        moves: per-volume relocations, ascending by volume id.
    """

    current_shards: int
    target_shards: int
    target_map: ShardMap
    moves: tuple[VolumeMove, ...]

    @property
    def data_moves(self) -> tuple[VolumeMove, ...]:
        """Moves that actually copy units (non-empty extent)."""
        return tuple(m for m in self.moves if len(m.lbas))

    @property
    def units_to_copy(self) -> int:
        """Total units the reshape will copy."""
        return sum(len(m.lbas) for m in self.moves)

    def arrays_involved(self) -> set[int]:
        """Every shard a data move reads from or writes to (the set
        that must stay failure-free during the migration)."""
        out: set[int] = set()
        for m in self.data_moves:
            out.add(m.source)
            out.add(m.dest)
        return out


def plan_migration(fleet: Fleet, target_shards: int) -> MigrationPlan:
    """Plan a reshape of ``fleet`` to ``target_shards`` arrays.

    A pure function of the fleet's shard map and geometry: the target
    map is :meth:`ShardMap.reshaped` (same seed/policy/weights), and
    the moved-volume set is exactly
    :meth:`ShardMap.moved_volumes` — deterministic under a fixed seed.

    Raises:
        ValueError: on a non-positive target shard count.
    """
    if target_shards < 1:
        raise ValueError(
            f"cannot reshape a fleet to {target_shards} shards"
        )
    current = fleet.shard_map
    target_map = current.reshaped(target_shards)
    route = fleet.volume_route()
    new_assign = target_map.assignment()
    moves = []
    for vol in current.moved_volumes(target_map).tolist():
        lo = vol * fleet.volume_units
        hi = min(lo + fleet.volume_units, fleet.capacity)
        local = (
            np.arange(lo, hi, dtype=np.int64) % fleet.shard_capacity
            if hi > lo
            else np.empty(0, dtype=np.int64)
        )
        moves.append(
            VolumeMove(
                volume=vol,
                source=int(route[vol]),
                dest=int(new_assign[vol]),
                lbas=local,
            )
        )
    return MigrationPlan(
        current_shards=current.shards,
        target_shards=target_shards,
        target_map=target_map,
        moves=tuple(moves),
    )


@dataclass(frozen=True)
class VolumeMigrationOutcome:
    """One volume's completed migration.

    Attributes:
        volume / source / dest: the relocation.
        units_copied: units swept source → destination.
        requested_at_ms: when the reshape queued the copy.
        started_at_ms: when admission (and destination serialization)
            released it.
        copied_at_ms: when the copy sweep's last IO completed.
        cutover_at_ms: when routing flipped to the destination.
        drained_requests: in-flight requests the drain waited on.
        held_requests: arrivals parked during the drain and released to
            the destination at cutover.
        forwarded_writes: foreground writes mirrored to the destination
            during the copy window.
        data_verified: bit-for-bit verdict over the moved cells at
            cutover (``None`` without data planes).
    """

    volume: int
    source: int
    dest: int
    units_copied: int
    requested_at_ms: float
    started_at_ms: float
    copied_at_ms: float
    cutover_at_ms: float
    drained_requests: int
    held_requests: int
    forwarded_writes: int
    data_verified: bool | None

    @property
    def admission_delay_ms(self) -> float:
        """Time spent queued for a slot / the destination."""
        return self.started_at_ms - self.requested_at_ms

    @property
    def copy_ms(self) -> float:
        """Copy-sweep duration."""
        return self.copied_at_ms - self.started_at_ms

    @property
    def drain_ms(self) -> float:
        """Drain + cutover duration."""
        return self.cutover_at_ms - self.copied_at_ms

    def to_dict(self) -> dict:
        """The move as a report row — the scenario report's
        ``migration.volumes`` and each autoscale event's ``volumes``."""
        return {
            "volume": self.volume,
            "source": self.source,
            "dest": self.dest,
            "units_copied": self.units_copied,
            "requested_at_ms": self.requested_at_ms,
            "started_at_ms": self.started_at_ms,
            "copied_at_ms": self.copied_at_ms,
            "cutover_at_ms": self.cutover_at_ms,
            "admission_delay_ms": self.admission_delay_ms,
            "copy_ms": self.copy_ms,
            "drain_ms": self.drain_ms,
            "held_requests": self.held_requests,
            "forwarded_writes": self.forwarded_writes,
            "data_verified": self.data_verified,
        }


class MigrationCoordinator:
    """Executes a :class:`MigrationPlan` live, on the fleet's clock.

    Construction plans the reshape and attaches to the fleet (diverting
    moving-volume traffic from then on); :meth:`arm` schedules the
    reshape itself at ``at_ms``.  Run the fleet's simulator (serving a
    stream does) and the coordinator copies, drains, and cuts volumes
    over as described in the module docstring; outcomes accumulate in
    :attr:`outcomes` and :attr:`done` flips once the fleet has fully
    converged to the target map.

    Args:
        fleet: the fleet to reshape.
        target_shards: shard count to converge to (> current = grow,
            < current = shrink, == current allowed and trivially done).
        at_ms: simulated time of the reshape.
        admission: max concurrent volume copies when no shared
            controller is given.
        admission_controller: optional shared slot gate (pass the
            :class:`FailureOrchestrator`'s to make copies and rebuilds
            share one fleet-wide budget).
        copy_parallelism: unit copies in flight per volume.
        volumes: optional move filter — execute only the plan's moves
            for these volume ids (the multi-process runner gives each
            worker its connected component of the move graph; see
            :func:`repro.service.parallel.partition_scenario`).  The
            full plan is still computed and exposed as :attr:`plan`;
            ``done`` flips when the *owned* moves finish.

    Raises:
        ValueError: on a bad target or parallelism, or a ``volumes``
            filter naming volumes the plan does not move.
        RuntimeError: if the fleet already has an active migration.
    """

    def __init__(
        self,
        fleet: Fleet,
        target_shards: int,
        *,
        at_ms: float,
        admission: int = 2,
        admission_controller: AdmissionController | None = None,
        copy_parallelism: int = 4,
        volumes=None,
    ):
        if copy_parallelism < 1:
            raise ValueError("copy_parallelism must be >= 1")
        if not (math.isfinite(at_ms) and at_ms >= 0):
            raise ValueError(
                f"reshape time {at_ms} must be finite and non-negative"
            )
        self.fleet = fleet
        self.at_ms = at_ms
        self.admission_controller = (
            admission_controller
            if admission_controller is not None
            else AdmissionController(admission)
        )
        self.copy_parallelism = copy_parallelism
        self.plan = plan_migration(fleet, target_shards)
        if volumes is None:
            owned = self.plan.moves
        else:
            wanted = set(volumes)
            unknown = wanted - {m.volume for m in self.plan.moves}
            if unknown:
                raise ValueError(
                    f"volumes filter names unmoved volumes {sorted(unknown)}"
                )
            owned = tuple(
                m for m in self.plan.moves if m.volume in wanted
            )
        #: The moves this coordinator executes (the whole plan, or the
        #: ``volumes`` filter's slice of it).
        self.owned_moves: tuple[VolumeMove, ...] = owned
        self.outcomes: list[VolumeMigrationOutcome] = []
        self.done = not owned
        self._armed = False
        self._moves = {m.volume: m for m in owned}
        self._moving_ids = np.array(
            sorted(self._moves), dtype=np.int64
        )
        # Per-volume lifecycle: "pending" -> "copying" -> "draining"
        # -> done (removed from _state).
        self._state = {v: "pending" for v in self._moves}
        self._inflight = {v: 0 for v in self._moves}
        self._held: dict[int, list[tuple[float, bool, int]]] = {}
        self._requested_at: dict[int, float] = {}
        self._started_at: dict[int, float] = {}
        self._copied_at: dict[int, float] = {}
        self._drained: dict[int, int] = {}
        self._forwarded: dict[int, int] = {}
        self._copied_units: dict[int, set[int]] = {}
        # Copies serialize per destination (two volumes ingesting into
        # one array could alias the same physical cells, which would
        # make cutover verification racy).
        self._dest_queue: dict[int, deque[int]] = {}
        self._dest_busy: set[int] = set()
        self._remaining = len(owned)
        # Cell-coherence plumbing: in-flight copies (insertion order =
        # deterministic mirror fan-out order) and one refcounted
        # content-write hook per array involved in any of them.
        self._active_copies: dict[int, "_VolumeCopy"] = {}
        self._mirror_hooks: dict[int, tuple[object, int]] = {}
        #: Requests dispatched per shard (grows with the fleet) — the
        #: fleet adds these to its per-shard scheduled counts.
        self.dispatched_per_shard: list[int] = [0] * fleet.shards
        fleet.attach_migration(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule the reshape on the fleet's shared clock.  The event
        names no shard: the reshape re-routes volumes across the fleet
        and may add arrays, so it touches every shard and the engine
        gates keep the whole fleet on the event heap.

        Raises:
            RuntimeError: if armed twice.
        """
        if self._armed:
            raise RuntimeError("migration already armed")
        self._armed = True
        if self.done:
            return
        self.fleet.sim.at(self.at_ms, self._reshape)

    def _reshape(self) -> None:
        """The reshape event: grow the controller set, cut tail
        volumes over instantly, queue every data move."""
        fleet = self.fleet
        fleet.ensure_shards(
            max(self.plan.target_shards, fleet.shards)
        )
        while len(self.dispatched_per_shard) < fleet.shards:
            self.dispatched_per_shard.append(0)
        now = fleet.sim.now
        for move in self.owned_moves:
            self._requested_at[move.volume] = now
            if not len(move.lbas):
                # No addressable units: routing-only cutover.
                self._cutover(move, verified=None)
                continue
            self._dest_queue.setdefault(move.dest, deque()).append(
                move.volume
            )
        for dest in sorted(self._dest_queue):
            self._pump_dest(dest)

    def _pump_dest(self, dest: int) -> None:
        if dest in self._dest_busy:
            return
        queue = self._dest_queue.get(dest)
        if not queue:
            return
        self._dest_busy.add(dest)
        vol = queue.popleft()
        self.admission_controller.submit(
            lambda v=vol: self._start_copy(v)
        )

    def _start_copy(self, vol: int) -> None:
        move = self._moves[vol]
        self._state[vol] = "copying"
        self._started_at[vol] = self.fleet.sim.now
        self._copied_units[vol] = set()
        _VolumeCopy(self, move).start()

    def _copy_complete(self, move: VolumeMove) -> None:
        vol = move.volume
        self._copied_at[vol] = self.fleet.sim.now
        self._state[vol] = "draining"
        self._held[vol] = []
        self._drained[vol] = self._inflight[vol]
        if self._inflight[vol] == 0:
            self._finish_drain(move)

    def _finish_drain(self, move: VolumeMove) -> None:
        self._cutover(move, verified=self._verify(move))

    def _verify(self, move: VolumeMove) -> bool | None:
        """Bit-for-bit comparison of the moved cells, source vs
        destination, with both sides quiesced."""
        src = self.fleet.controllers[move.source]
        dst = self.fleet.controllers[move.dest]
        if src.data is None or dst.data is None:
            return None
        want = src.data.read_logical_batch(src.mapper, move.lbas)
        got = dst.data.read_logical_batch(dst.mapper, move.lbas)
        return bool(np.array_equal(want, got))

    def _cutover(self, move: VolumeMove, verified: bool | None) -> None:
        """Flip routing to the destination, release held requests
        there, record the outcome, and free the copy's slots."""
        fleet = self.fleet
        vol = move.volume
        now = fleet.sim.now
        fleet._volume_route[vol] = move.dest
        had_copy = self._state[vol] != "pending"
        self._state.pop(vol, None)
        held = self._held.pop(vol, [])
        for t, is_read, lba in held:
            self._issue(move.dest, vol, t, is_read, lba, track=False)
        self.outcomes.append(
            VolumeMigrationOutcome(
                volume=vol,
                source=move.source,
                dest=move.dest,
                units_copied=len(move.lbas) if had_copy else 0,
                requested_at_ms=self._requested_at[vol],
                started_at_ms=self._started_at.get(
                    vol, self._requested_at[vol]
                ),
                copied_at_ms=self._copied_at.get(
                    vol, self._requested_at[vol]
                ),
                cutover_at_ms=now,
                drained_requests=self._drained.get(vol, 0),
                held_requests=len(held),
                forwarded_writes=self._forwarded.get(vol, 0),
                data_verified=verified,
            )
        )
        copy = self._active_copies.pop(vol, None)
        if copy is not None:
            self._detach_mirror(copy.src_id)
            self._detach_mirror(copy.dst_id)
        self._copied_units.pop(vol, None)
        self._remaining -= 1
        if had_copy:
            self.admission_controller.release()
            self._dest_busy.discard(move.dest)
            self._pump_dest(move.dest)
        if self._remaining == 0:
            self._finalize()

    def _finalize(self) -> None:
        fleet = self.fleet
        if len(self.owned_moves) == len(self.plan.moves):
            # Full convergence: adopt the target map wholesale.  A
            # filtered coordinator (one move-graph component) leaves
            # the map alone — its volumes already flipped at cutover,
            # and the rest belong to other workers.
            fleet.shard_map = self.plan.target_map
            fleet._volume_route = self.plan.target_map.assignment()
        self.done = True

    # ------------------------------------------------------------------
    # Cell coherence during copy windows
    # ------------------------------------------------------------------
    #
    # Volume extents fold onto the shard-local address space, so cells
    # can be shared by co-resident volumes (see the fleet docs).  While
    # a copy is in flight, a copied cell therefore has live replicas on
    # the source *and* the destination, and foreground writes can land
    # on either side — from the migrating volume itself (source, until
    # the drain) or from aliased volumes resident on either array.  One
    # refcounted hook per involved array funnels every per-request
    # content write into :meth:`_mirror`, which pushes the payload
    # across the replica links of every in-flight copy to a fixpoint.
    # Propagation uses direct data-plane writes (hooks never re-fire),
    # so the walk terminates and the bit-for-bit verify at cutover is
    # deterministic.

    def _attach_mirror(self, shard: int) -> None:
        entry = self._mirror_hooks.get(shard)
        if entry is not None:
            self._mirror_hooks[shard] = (entry[0], entry[1] + 1)
            return

        def hook(
            sid: int, disk: int, offset: int, payload: np.ndarray, s=shard
        ) -> None:
            self._mirror(s, sid, disk, offset, payload)

        self.fleet.controllers[shard].add_content_write_hook(hook)
        self._mirror_hooks[shard] = (hook, 1)

    def _detach_mirror(self, shard: int) -> None:
        hook, count = self._mirror_hooks[shard]
        if count > 1:
            self._mirror_hooks[shard] = (hook, count - 1)
            return
        del self._mirror_hooks[shard]
        self.fleet.controllers[shard].remove_content_write_hook(hook)

    def _mirror(
        self, origin: int, sid: int, disk: int, offset: int, payload: np.ndarray
    ) -> None:
        """Propagate one content write from ``origin`` to every replica
        of the written cell across all in-flight copies (breadth-first
        over the copy links, direct data-plane writes, timed mirror IOs
        on each receiving array)."""
        controllers = self.fleet.controllers
        size = controllers[origin].layout.size
        cell = disk * size + offset
        seen = {origin}
        frontier = [origin]
        while frontier:
            arr = frontier.pop(0)
            for vol, copy in self._active_copies.items():
                if cell not in self._copied_units.get(vol, ()):
                    continue
                for a, b in (
                    (copy.src_id, copy.dst_id),
                    (copy.dst_id, copy.src_id),
                ):
                    if a != arr or b in seen:
                        continue
                    ctrl = controllers[b]
                    ctrl.data.small_write(sid, disk, offset, payload)
                    self._forwarded[vol] = self._forwarded.get(vol, 0) + 1
                    # Timed mirror IOs: the receiving array pays the
                    # data + parity write like any synchronous mirror.
                    pd, po = ctrl.layout.stripes[sid].parity_unit
                    ctrl.disks[disk].submit(DiskIO(offset=offset, is_write=True))
                    ctrl.disks[pd].submit(DiskIO(offset=po, is_write=True))
                    seen.add(b)
                    frontier.append(b)

    # ------------------------------------------------------------------
    # Diverted-traffic dispatch (the routing seam)
    # ------------------------------------------------------------------

    def claims(self, vols: np.ndarray) -> np.ndarray:
        """Boolean mask of requests this migration handles (their
        volume is in the moving set)."""
        return np.isin(vols, self._moving_ids)

    def register_stream(
        self,
        times: np.ndarray,
        is_read: np.ndarray,
        lbas: np.ndarray,
        vols: np.ndarray,
    ) -> None:
        """Take ownership of a diverted sub-stream, in arrival order,
        its times on the shared clock (the fleet's live-routing step
        adds the stream origin: a window is diverted mid-run, when
        ``sim.now`` has moved past it)."""
        _StreamPump(
            self,
            times.tolist(),
            is_read.tolist(),
            lbas.tolist(),
            vols.tolist(),
        ).schedule()

    def _dispatch(
        self, t: float, is_read: bool, lba: int, vol: int
    ) -> None:
        """Route one request at its arrival time against the volume's
        *current* state: source while pending/copying, parked while
        draining, destination after cutover."""
        state = self._state.get(vol)
        if state == "draining":
            self._held[vol].append((t, is_read, lba))
            return
        owner = int(self.fleet._volume_route[vol])
        self._issue(owner, vol, t, is_read, lba, track=state is not None)

    def _issue(
        self,
        shard: int,
        vol: int,
        start: float,
        is_read: bool,
        lba: int,
        *,
        track: bool,
    ) -> None:
        """Submit one request on ``shard`` with an explicit latency
        start (held requests measure from their original arrival) and
        optional in-flight tracking for the drain."""
        ctrl = self.fleet.controllers[shard]
        if ctrl.obs.enabled:
            # Diverted traffic arrives one request at a time; count it
            # at its original arrival (held requests keep theirs).
            ctrl.obs.arrive(shard, start)
        local = lba % self.fleet.shard_capacity
        pu = ctrl.mapper.logical_to_physical(local)
        sid = pu.stripe % ctrl.layout.b
        if not is_read and ctrl.data is not None:
            # Same content convention as the compiled executor; the
            # content-write hook forwards it to the destination when
            # the unit is already copied.
            ctrl._apply_write_dataplane(
                sid, pu.disk, pu.offset, ctrl._default_payload(local)
            )
        kind, phases = ctrl.request_plan(is_read, pu.disk, pu.offset, sid)
        on_done = None
        if track:
            self._inflight[vol] += 1
            on_done = self._make_done(vol)
        req = _Request(kind=kind, start=start, on_done=on_done, phases=phases)
        ctrl._issue_phase(req)
        self.dispatched_per_shard[shard] += 1

    def _make_done(self, vol: int):
        def done(_when: float) -> None:
            self._inflight[vol] -= 1
            if (
                self._inflight[vol] == 0
                and self._state.get(vol) == "draining"
            ):
                self._finish_drain(self._moves[vol])

        return done

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    @property
    def all_verified(self) -> bool:
        """Every move completed and (with data planes) verified bit
        for bit."""
        return self.done and all(
            o.data_verified is not False for o in self.outcomes
        )

    def total_units_copied(self) -> int:
        """Units actually swept between arrays."""
        return sum(o.units_copied for o in self.outcomes)


class _StreamPump:
    """Chained-arrival pump for one diverted sub-stream: one pending
    event drives every dispatch (the compiled executor's trick), so
    diverting traffic adds no heap pressure beyond its own arrivals."""

    __slots__ = ("co", "times", "is_read", "lbas", "vols", "n", "_i")

    def __init__(
        self,
        co: MigrationCoordinator,
        times: list[float],
        is_read: list[bool],
        lbas: list[int],
        vols: list[int],
    ):
        self.co = co
        self.times = times
        self.is_read = is_read
        self.lbas = lbas
        self.vols = vols
        self.n = len(times)
        self._i = 0

    def schedule(self) -> None:
        if self.n:
            self.co.fleet.sim.at(self.times[0], self._fire)

    def _fire(self) -> None:
        sim = self.co.fleet.sim
        now = sim.now
        i = self._i
        while i < self.n and self.times[i] == now:
            self.co._dispatch(
                self.times[i], self.is_read[i], self.lbas[i], self.vols[i]
            )
            i += 1
        self._i = i
        if i < self.n:
            sim.at(self.times[i], self._fire)


class _VolumeCopy:
    """The copy sweep of one volume: bounded-parallelism unit copies,
    each a timed source read followed by a timed destination RMW, with
    the content transferred (and cell mirroring armed) at the moment
    the source read completes."""

    def __init__(self, co: MigrationCoordinator, move: VolumeMove):
        self.co = co
        self.move = move
        self.src_id = move.source
        self.dst_id = move.dest
        fleet = co.fleet
        self.src: ArrayController = fleet.controllers[move.source]
        self.dst: ArrayController = fleet.controllers[move.dest]
        d, o, s, pd, po = self.src.mapper.map_batch_parity(move.lbas)
        b = self.src.layout.b
        self._disks = d.tolist()
        self._offsets = o.tolist()
        self._sids = (s % b).tolist()
        self._par_disks = pd.tolist()
        self._par_offsets = po.tolist()
        self._lbas = move.lbas.tolist()
        self._next = 0
        self._outstanding = 0
        self._n = len(self._lbas)

    def start(self) -> None:
        if self.src.data is not None and self.dst.data is not None:
            # Mirroring stays armed through copy AND drain (aliased
            # co-residents can write the copied cells until cutover);
            # the coordinator detaches at cutover.
            self.co._active_copies[self.move.volume] = self
            self.co._attach_mirror(self.src_id)
            self.co._attach_mirror(self.dst_id)
        for _ in range(min(self.co.copy_parallelism, self._n)):
            self._launch_next()

    def _launch_next(self) -> None:
        if self._next >= self._n:
            return
        i = self._next
        self._next += 1
        self._outstanding += 1
        self.src.disks[self._disks[i]].submit(
            DiskIO(
                offset=self._offsets[i],
                is_write=False,
                on_complete=lambda when, i=i: self._read_done(i),
            )
        )

    def _read_done(self, i: int) -> None:
        """Source read complete: transfer content, arm mirroring for
        this unit, then pay the destination RMW."""
        d, o, sid = self._disks[i], self._offsets[i], self._sids[i]
        if self.src.data is not None and self.dst.data is not None:
            payload = self.src.data.read_unit(d, o)
            self.dst.data.small_write(sid, d, o, payload)
            cell = d * self.src.layout.size + o
            self.co._copied_units[self.move.volume].add(cell)
        self._dest_rmw(
            d, o, self._par_disks[i], self._par_offsets[i], self._unit_done
        )

    def _dest_rmw(self, d, o, pd, po, on_done) -> None:
        """Timed destination read-modify-write: read old data and
        parity in parallel, then write both (the controller's healthy
        small-write plan, without a latency-recording request)."""
        disks = self.dst.disks
        state = {"left": 2, "writing": False}

        def cb(when: float) -> None:
            state["left"] -= 1
            if state["left"]:
                return
            if not state["writing"]:
                state["writing"] = True
                state["left"] = 2
                disks[d].submit(DiskIO(offset=o, is_write=True, on_complete=cb))
                disks[pd].submit(
                    DiskIO(offset=po, is_write=True, on_complete=cb)
                )
            else:
                on_done()

        disks[d].submit(DiskIO(offset=o, is_write=False, on_complete=cb))
        disks[pd].submit(DiskIO(offset=po, is_write=False, on_complete=cb))

    def _unit_done(self) -> None:
        self._outstanding -= 1
        if self._next < self._n:
            self._launch_next()
        elif self._outstanding == 0:
            self.co._copy_complete(self.move)
