"""The autoscaling control loop: metric snapshots -> pure decisions ->
live migrations.

Closes the serving loop over the existing machinery: a fixed-cadence
tick on the fleet's *simulated* clock polls the live
:class:`repro.obs.MetricsRecorder`, reduces what it sees to a plain
:class:`MetricSnapshot`, and feeds it to :func:`decide` — a **pure
function** ``(policy, state, snapshot) -> (decision, state)`` with no
wall clock, no RNG, and no access to the fleet.  When a sustained load
spike or per-shard imbalance crosses the policy's thresholds (with
hysteresis and a cooldown so the loop cannot flap), the controller arms
a :class:`repro.service.MigrationCoordinator` at the tick time — the
same grow/shrink path ``serve --grow`` uses, sharing the one admission
budget with rebuilds.

Determinism contract (the foundation of the test harness): because
``decide`` sees nothing but the snapshot, replaying the recorded
snapshots through :func:`replay_decisions` reproduces the decision log
**byte-identically** (:func:`render_decision_jsonl` of both is string-
equal).  The scenario runner re-checks this on every autoscaled run and
reports it as ``autoscale.replay_identical``.

Why decisions read *arrival* buckets only: a serve records each
shard's arrivals before they arrive (the whole stream at its start, or
each window as the shard's pump pulls it), and a request a migration
takes from its pump moves to the shard it is dispatched to at its
arrival (or, parked through a drain, at its cutover) — the same
schedule at every window size, so per-shard arrival counts for fully
elapsed buckets are independent of the window size.  Completion-side state
(latency digests) is swept at window boundaries and *is*
window-dependent mid-run, so it stays out of the decision function;
SLO percentiles are computed from the final recorder instead
(:func:`repro.sim.stats.percentile_of_parts`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .migration import MigrationCoordinator

__all__ = [
    "AutoscalePolicy",
    "MetricSnapshot",
    "PolicyState",
    "AutoscaleDecision",
    "AutoscaleSummary",
    "decide",
    "replay_decisions",
    "render_decision_jsonl",
    "parse_decision_jsonl",
    "AutoscaleController",
]

@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds and pacing of the control loop (all sim-clock).

    Attributes:
        cadence_ms: tick period — how often the loop polls the
            recorder.
        window_ms: lookback over which per-shard arrival rates are
            measured (default: one cadence).
        high_rate: mean arrivals per simulated ms *per active shard*
            at or above which the fleet is overloaded (grow signal).
        low_rate: rate at or below which the fleet is underloaded
            (shrink signal); 0.0 disables shrinking.  Must sit strictly
            below ``high_rate`` — the hysteresis band between them is
            where the loop holds steady.
        imbalance_ratio: max/mean per-shard arrival ratio at or above
            which the placement is imbalanced (also a grow signal);
            ``None`` disables the signal.
        sustain_ticks: consecutive ticks a signal must persist before
            an action fires (debounce).
        cooldown_ms: minimum simulated time between actions.
        grow_step / shrink_step: shards added / removed per action.
        min_shards / max_shards: bounds on the active shard count.
    """

    cadence_ms: float = 100.0
    window_ms: float | None = None
    high_rate: float = 1.0
    low_rate: float = 0.0
    imbalance_ratio: float | None = None
    sustain_ticks: int = 2
    cooldown_ms: float = 500.0
    grow_step: int = 2
    shrink_step: int = 1
    min_shards: int = 1
    max_shards: int = 16

    def __post_init__(self) -> None:
        if self.cadence_ms <= 0:
            raise ValueError(f"cadence_ms must be > 0, got {self.cadence_ms}")
        if self.window_ms is not None and self.window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {self.window_ms}")
        if self.high_rate <= 0:
            raise ValueError(f"high_rate must be > 0, got {self.high_rate}")
        if self.low_rate < 0:
            raise ValueError(f"low_rate must be >= 0, got {self.low_rate}")
        if self.low_rate >= self.high_rate:
            raise ValueError(
                f"low_rate ({self.low_rate}) must sit strictly below "
                f"high_rate ({self.high_rate}) — the hysteresis band"
            )
        if self.imbalance_ratio is not None and self.imbalance_ratio <= 1.0:
            raise ValueError(
                f"imbalance_ratio must be > 1, got {self.imbalance_ratio}"
            )
        if self.sustain_ticks < 1:
            raise ValueError(
                f"sustain_ticks must be >= 1, got {self.sustain_ticks}"
            )
        if self.cooldown_ms < 0:
            raise ValueError(
                f"cooldown_ms must be >= 0, got {self.cooldown_ms}"
            )
        if self.grow_step < 1 or self.shrink_step < 1:
            raise ValueError("grow_step and shrink_step must be >= 1")
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )

    @property
    def lookback_ms(self) -> float:
        """The resolved measurement window."""
        return self.window_ms if self.window_ms is not None else self.cadence_ms

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "AutoscalePolicy":
        """Build a policy from a JSON object (the ``--autoscale`` file).

        Raises:
            ValueError: on unknown keys or invalid values.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown autoscale policy keys {unknown}; known keys: "
                f"{sorted(known)}"
            )
        return cls(**d)


@dataclass(frozen=True)
class MetricSnapshot:
    """What the control loop saw at one tick — plain data, JSON-ready.

    ``arrivals[i]`` counts arrivals routed to shard ``active[i]`` over
    the last ``lookback_buckets`` fully elapsed recorder buckets
    (window-size independent; see the module docstring).
    """

    seq: int
    t_ms: float
    shards: int
    active: tuple[int, ...]
    arrivals: tuple[int, ...]
    window_ms: float
    complete_buckets: int
    lookback_buckets: int
    admission_active: int
    admission_queued: int
    admission_slots: int
    migration_active: bool
    failed_arrays: int

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t_ms": self.t_ms,
            "shards": self.shards,
            "active": list(self.active),
            "arrivals": list(self.arrivals),
            "window_ms": self.window_ms,
            "complete_buckets": self.complete_buckets,
            "lookback_buckets": self.lookback_buckets,
            "admission_active": self.admission_active,
            "admission_queued": self.admission_queued,
            "admission_slots": self.admission_slots,
            "migration_active": self.migration_active,
            "failed_arrays": self.failed_arrays,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricSnapshot":
        return cls(
            seq=int(d["seq"]),
            t_ms=float(d["t_ms"]),
            shards=int(d["shards"]),
            active=tuple(int(s) for s in d["active"]),
            arrivals=tuple(int(a) for a in d["arrivals"]),
            window_ms=float(d["window_ms"]),
            complete_buckets=int(d["complete_buckets"]),
            lookback_buckets=int(d["lookback_buckets"]),
            admission_active=int(d["admission_active"]),
            admission_queued=int(d["admission_queued"]),
            admission_slots=int(d["admission_slots"]),
            migration_active=bool(d["migration_active"]),
            failed_arrays=int(d["failed_arrays"]),
        )

    @property
    def rate_per_shard(self) -> float:
        """Mean arrivals per ms per active shard over the lookback."""
        if not self.active or self.window_ms <= 0:
            return 0.0
        return sum(self.arrivals) / (self.window_ms * len(self.active))

    @property
    def imbalance(self) -> float:
        """Max over mean per-shard arrivals (1.0 when idle/uniform)."""
        if not self.arrivals:
            return 1.0
        mean = sum(self.arrivals) / len(self.arrivals)
        if mean <= 0:
            return 1.0
        return max(self.arrivals) / mean


@dataclass(frozen=True)
class PolicyState:
    """The loop's memory between ticks (hysteresis + cooldown)."""

    high_streak: int = 0
    low_streak: int = 0
    last_action_ms: float | None = None


@dataclass(frozen=True)
class AutoscaleDecision:
    """One tick's outcome: the action (or refusal) and why.

    ``high_streak`` / ``low_streak`` are the *post-tick* streaks — the
    state the next tick decides from — so the decision log alone tells
    the whole hysteresis story.
    """

    seq: int
    t_ms: float
    action: str  # "grow" | "shrink" | "none"
    reason: str
    from_shards: int
    to_shards: int | None
    high_streak: int
    low_streak: int
    snapshot: MetricSnapshot

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t_ms": self.t_ms,
            "action": self.action,
            "reason": self.reason,
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "high_streak": self.high_streak,
            "low_streak": self.low_streak,
            "snapshot": self.snapshot.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AutoscaleDecision":
        return cls(
            seq=int(d["seq"]),
            t_ms=float(d["t_ms"]),
            action=str(d["action"]),
            reason=str(d["reason"]),
            from_shards=int(d["from_shards"]),
            to_shards=(
                int(d["to_shards"]) if d["to_shards"] is not None else None
            ),
            high_streak=int(d["high_streak"]),
            low_streak=int(d["low_streak"]),
            snapshot=MetricSnapshot.from_dict(d["snapshot"]),
        )


def decide(
    policy: AutoscalePolicy,
    state: PolicyState,
    snapshot: MetricSnapshot,
) -> tuple[AutoscaleDecision, PolicyState]:
    """One tick of the control loop — a pure function of its arguments.

    Gate order (each refusal names itself in the decision's reason):

    1. **warmup** — the lookback window has not fully elapsed yet;
       streaks stay zero.
    2. signal evaluation — the high streak advances while the rate sits
       at/above ``high_rate`` *or* the imbalance at/above
       ``imbalance_ratio``; the low streak advances while the rate sits
       at/below ``low_rate``; either resets when its signal clears.
    3. **migration-active** — one reshape at a time.
    4. **cooldown** — too soon after the last action.
    5. **degraded-arrays** — never reshape while a rebuild is owed.
    6. a sustained high streak grows (bounded by ``max_shards``,
       refused while the admission budget is exhausted); a sustained
       low streak shrinks symmetrically.
    """
    n = len(snapshot.active)

    def none(reason: str, st: PolicyState) -> tuple[AutoscaleDecision, PolicyState]:
        return (
            AutoscaleDecision(
                seq=snapshot.seq,
                t_ms=snapshot.t_ms,
                action="none",
                reason=reason,
                from_shards=n,
                to_shards=None,
                high_streak=st.high_streak,
                low_streak=st.low_streak,
                snapshot=snapshot,
            ),
            st,
        )

    if snapshot.complete_buckets < snapshot.lookback_buckets:
        return none("warmup", replace(state, high_streak=0, low_streak=0))

    rate = snapshot.rate_per_shard
    high_load = rate >= policy.high_rate
    imbalanced = (
        policy.imbalance_ratio is not None
        and snapshot.imbalance >= policy.imbalance_ratio
    )
    low_load = policy.low_rate > 0.0 and rate <= policy.low_rate
    state = replace(
        state,
        high_streak=state.high_streak + 1 if (high_load or imbalanced) else 0,
        low_streak=state.low_streak + 1 if low_load else 0,
    )

    if snapshot.migration_active:
        return none("migration-active", state)
    if (
        state.last_action_ms is not None
        and snapshot.t_ms - state.last_action_ms < policy.cooldown_ms
    ):
        return none("cooldown", state)
    if snapshot.failed_arrays:
        return none("degraded-arrays", state)

    if state.high_streak >= policy.sustain_ticks:
        if n >= policy.max_shards:
            return none("at-max-shards", state)
        if snapshot.admission_active >= snapshot.admission_slots:
            return none("admission-exhausted", state)
        target = min(n + policy.grow_step, policy.max_shards)
        reason = "+".join(
            s
            for s, on in (("load-spike", high_load), ("imbalance", imbalanced))
            if on
        )
        state = PolicyState(
            high_streak=0, low_streak=0, last_action_ms=snapshot.t_ms
        )
        return (
            AutoscaleDecision(
                seq=snapshot.seq,
                t_ms=snapshot.t_ms,
                action="grow",
                reason=reason,
                from_shards=n,
                to_shards=target,
                high_streak=0,
                low_streak=0,
                snapshot=snapshot,
            ),
            state,
        )

    if state.low_streak >= policy.sustain_ticks:
        if n <= policy.min_shards:
            return none("at-min-shards", state)
        if snapshot.admission_active >= snapshot.admission_slots:
            return none("admission-exhausted", state)
        target = max(n - policy.shrink_step, policy.min_shards)
        state = PolicyState(
            high_streak=0, low_streak=0, last_action_ms=snapshot.t_ms
        )
        return (
            AutoscaleDecision(
                seq=snapshot.seq,
                t_ms=snapshot.t_ms,
                action="shrink",
                reason="low-load",
                from_shards=n,
                to_shards=target,
                high_streak=0,
                low_streak=0,
                snapshot=snapshot,
            ),
            state,
        )

    if state.high_streak or state.low_streak:
        return none("sustaining", state)
    return none("steady", state)


def replay_decisions(
    policy: AutoscalePolicy, snapshots: list[MetricSnapshot]
) -> list[AutoscaleDecision]:
    """Re-derive the whole decision log from recorded snapshots.

    Because :func:`decide` is pure and the state fold starts from the
    same initial :class:`PolicyState`, the result is byte-identical to
    the live log (:func:`render_decision_jsonl` string equality) — the
    subsystem's determinism contract.
    """
    state = PolicyState()
    decisions = []
    for snap in snapshots:
        decision, state = decide(policy, state, snap)
        decisions.append(decision)
    return decisions


def render_decision_jsonl(decisions: list[AutoscaleDecision]) -> str:
    """Serialize a decision log as sorted-key JSONL (the byte-identity
    form, and the ``--decisions-out`` file format)."""
    return "".join(
        json.dumps(d.to_dict(), sort_keys=True) + "\n" for d in decisions
    )


def parse_decision_jsonl(text: str) -> list[AutoscaleDecision]:
    """Parse a ``--decisions-out`` file back into decisions.

    Raises:
        ValueError: on a line that is not a decision object.
    """
    decisions = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {i} is not valid decision JSON ({exc.msg})"
            ) from exc
        if not isinstance(row, dict) or "snapshot" not in row:
            raise ValueError(f"line {i} is not a decision object")
        try:
            decisions.append(AutoscaleDecision.from_dict(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"line {i} is not a valid decision ({exc!r})"
            ) from exc
    return decisions


@dataclass(frozen=True)
class AutoscaleSummary:
    """The autoscale section of a scenario report (JSON-ready).

    ``events`` holds one entry per fired action with its migration
    outcomes (the same per-volume schema as the static reshape
    section); ``replay_identical`` is the runner's own re-check of the
    determinism contract.
    """

    policy: AutoscalePolicy
    decisions: tuple[AutoscaleDecision, ...]
    events: tuple[dict, ...]
    replay_identical: bool
    final_shards: int
    zero_lost: bool | None

    @property
    def actions(self) -> int:
        return len(self.events)

    @property
    def ok(self) -> bool:
        """The autoscale gate: the decision log replays byte-identically
        and every fired event converged fully verified (and lost
        nothing, when the scenario is loss-free)."""
        if not self.replay_identical:
            return False
        if self.zero_lost is False:
            return False
        return all(
            e["completed_moves"] == e["planned_moves"] and e["all_verified"]
            for e in self.events
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.to_dict(),
            "decisions": [d.to_dict() for d in self.decisions],
            "actions": self.actions,
            "events": list(self.events),
            "replay_identical": self.replay_identical,
            "final_shards": self.final_shards,
            "zero_lost": self.zero_lost,
            "ok": self.ok,
        }


class AutoscaleController:
    """Runs the control loop on a live fleet's simulated clock.

    Args:
        fleet: the fleet to watch and reshape.
        policy: thresholds and pacing.
        recorder: the live :class:`repro.obs.MetricsRecorder` the fleet
            records into (snapshots read its arrival buckets).
        admission: the shared :class:`AdmissionController` — fired
            migrations submit their copies through it, so autoscale
            events and rebuilds share the one fleet-wide budget.
        horizon_ms: last tick time; ticks fire at ``cadence_ms``
            multiples in ``(0, horizon_ms]`` relative to :meth:`arm`.
        copy_parallelism: concurrent unit copies per migrating volume.

    Raises:
        ValueError: if the recorder grid is too coarse to resolve the
            policy's lookback window.
    """

    def __init__(
        self,
        fleet,
        policy: AutoscalePolicy,
        recorder,
        *,
        admission,
        horizon_ms: float,
        copy_parallelism: int = 4,
    ) -> None:
        if recorder.interval_ms > policy.lookback_ms:
            raise ValueError(
                f"metrics interval {recorder.interval_ms} ms is coarser "
                f"than the policy lookback {policy.lookback_ms} ms — the "
                "snapshot would cover zero complete buckets"
            )
        self.fleet = fleet
        self.policy = policy
        self.recorder = recorder
        self.admission = admission
        self.horizon_ms = float(horizon_ms)
        self.copy_parallelism = copy_parallelism
        self.state = PolicyState()
        self.decisions: list[AutoscaleDecision] = []
        #: Coordinators fired by this loop, in decision order, paired
        #: with the decision that fired them.
        self.fired: list[tuple[AutoscaleDecision, MigrationCoordinator]] = []
        self._t0 = 0.0
        self._armed = False

    def arm(self) -> None:
        """Schedule the first tick on the fleet's clock.  Ticks name no
        shard: a decision can reshape the whole fleet, so every shard
        stays on the event heap.

        Raises:
            RuntimeError: if armed twice.
        """
        if self._armed:
            raise RuntimeError("autoscale controller already armed")
        self._armed = True
        self._t0 = self.fleet.sim.now
        if self.policy.cadence_ms <= self.horizon_ms:
            self.fleet.sim.at(self._t0 + self.policy.cadence_ms, self._tick)

    # -- the tick ---------------------------------------------------------

    def _snapshot(self, now: float, seq: int) -> MetricSnapshot:
        """Reduce the live fleet + recorder to plain data (the only
        place the loop touches mutable state)."""
        rec = self.recorder
        iv = rec.interval_ms
        # Buckets [0, complete) have fully elapsed: bucket b covers
        # [b*iv, (b+1)*iv).  The epsilon absorbs float noise when the
        # cadence is an exact multiple of the grid.
        complete = int(math.floor(now / iv + 1e-9))
        lookback = max(1, int(round(self.policy.lookback_ms / iv)))
        lo = complete - lookback
        active = tuple(
            int(s) for s in np.unique(self.fleet._volume_route)
        )
        arrivals = tuple(
            sum(
                count
                for b, count in rec.arrival_buckets(s).items()
                if lo <= b < complete
            )
            for s in active
        )
        mig = self.fleet._migration
        return MetricSnapshot(
            seq=seq,
            t_ms=now,
            shards=self.fleet.shards,
            active=active,
            arrivals=arrivals,
            window_ms=lookback * iv,
            complete_buckets=complete,
            lookback_buckets=lookback,
            admission_active=self.admission.active,
            admission_queued=self.admission.queued,
            admission_slots=self.admission.slots,
            migration_active=mig is not None and not mig.done,
            failed_arrays=len(self.fleet.failed_arrays()),
        )

    def _tick(self) -> None:
        now = self.fleet.sim.now
        snapshot = self._snapshot(now, len(self.decisions))
        decision, self.state = decide(self.policy, self.state, snapshot)
        self.decisions.append(decision)
        obs = self.fleet._obs
        if obs.enabled:
            obs.count("autoscale_ticks")
            obs.gauge(
                "autoscale_shards", 0, now, float(len(snapshot.active))
            )
        if decision.action != "none":
            coordinator = MigrationCoordinator(
                self.fleet,
                decision.to_shards,
                at_ms=now,
                admission_controller=self.admission,
                copy_parallelism=self.copy_parallelism,
            )
            coordinator.arm()
            self.fired.append((decision, coordinator))
            if obs.enabled:
                obs.count("autoscale_actions")
                obs.gauge(
                    "autoscale_shards", 0, now, float(decision.to_shards)
                )
        next_t = now + self.policy.cadence_ms
        if next_t <= self._t0 + self.horizon_ms:
            self.fleet.sim.at(next_t, self._tick)

    # -- reporting --------------------------------------------------------

    def events(self, verify_data: bool) -> list[dict]:
        """One JSON-ready entry per fired action, with its migration
        outcomes (canonical volume order)."""
        out = []
        for decision, co in self.fired:
            outcomes = sorted(co.outcomes, key=lambda o: o.volume)
            if verify_data:
                verified = co.done and all(
                    o.data_verified is True
                    for o in outcomes
                    if o.units_copied
                )
            else:
                verified = co.done and all(
                    o.data_verified is not False for o in outcomes
                )
            out.append(
                {
                    "seq": decision.seq,
                    "t_ms": decision.t_ms,
                    "action": decision.action,
                    "reason": decision.reason,
                    "from_shards": decision.from_shards,
                    "to_shards": decision.to_shards,
                    "planned_moves": len(co.owned_moves),
                    "completed_moves": len(co.outcomes),
                    "units_copied": sum(o.units_copied for o in outcomes),
                    "held_requests": sum(o.held_requests for o in outcomes),
                    "forwarded_writes": sum(
                        o.forwarded_writes for o in outcomes
                    ),
                    "converged_at_ms": (
                        max(o.cutover_at_ms for o in outcomes)
                        if outcomes
                        else decision.t_ms
                    ),
                    "all_verified": verified,
                    "volumes": [o.to_dict() for o in outcomes],
                }
            )
        return out

    def summary(self, *, verify_data: bool, lost: int | None) -> AutoscaleSummary:
        """The report section: decisions, events, and the runner-side
        replay re-check.  ``lost`` is the fleet's lost-request count
        (``None`` when the scenario schedules failures — losses then
        have a legitimate cause outside the autoscaler)."""
        replayed = replay_decisions(
            self.policy, [d.snapshot for d in self.decisions]
        )
        replay_ok = render_decision_jsonl(replayed) == render_decision_jsonl(
            self.decisions
        )
        active = int(np.unique(self.fleet._volume_route).size)
        return AutoscaleSummary(
            policy=self.policy,
            decisions=tuple(self.decisions),
            events=tuple(self.events(verify_data)),
            replay_identical=replay_ok,
            final_shards=active,
            zero_lost=(lost == 0) if lost is not None else None,
        )
