"""Layout planning: pick the best construction for a target array.

This is the decision procedure the paper's results add up to.  Given
``(v, k)`` and a size budget (Condition 4), enumerate every applicable
construction with its predicted size and balance quality, and build the
best one:

1. **ring** — ring layout, needs ``k <= M(v)``; perfectly balanced,
   size ``k(v-1)``.
2. **flow_single** — one copy of the smallest known BIBD with
   flow-assigned parity (Section 4); parity spread ≤ 1, size ``r``.
3. **flow_lcm** — ``lcm(b, v)/b`` copies, perfectly balanced
   (Corollary 17), size ``r·lcm(b,v)/b``.
4. **removal** — Theorems 8/9: start from a prime power ``v+i``
   (``i(i-1) <= k-i``) and delete ``i`` disks; near-perfect balance,
   size ``k(v+i-1)``.
5. **stairway** — Theorems 10-12: perturb a prime power ``q < v``;
   approximately balanced, size ``k(c-1)(q-1)``.
6. **hg** — Holland–Gibson ``k``-copy baseline; perfectly balanced,
   size ``k·r`` (kept for comparison).

Methods 2, 3 and 6 predict from the design the catalog builds (one of
at most :data:`PLANNED_DESIGN_BLOCKS` blocks), so their predictions are
what the plan builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..algebra import min_prime_power_factor, is_prime_power
from ..designs import best_design, candidate_constructions
from ..layouts import (
    FEASIBLE_SIZE_LIMIT,
    Layout,
    find_smallest_stairway_plan,
    find_stairway_plan,
    holland_gibson_layout,
    layout_from_design,
    remove_disks,
    ring_layout,
    stairway_layout,
)
from ..designs.ring_design import ring_design

__all__ = [
    "LayoutPlan",
    "NoFeasiblePlanError",
    "nearest_feasible",
    "plan_layout",
    "enumerate_plans",
]


class NoFeasiblePlanError(ValueError):
    """No construction for ``(v, k)`` fits the size budget.

    Carries the request and the nearest feasible alternatives so
    callers (and the CLI) can point users at parameters that *do* work.

    Attributes:
        v, k: the requested array and stripe size.
        max_size: the Condition 4 budget that was exceeded.
        require_balanced: whether perfect balance was demanded.
        smallest: the cheapest candidate plan, if any applied at all.
        alternatives: nearby feasible ``(v, k, method, size)`` tuples,
            closest first.
    """

    def __init__(
        self,
        v: int,
        k: int,
        max_size: int,
        require_balanced: bool,
        smallest: "LayoutPlan | None",
        alternatives: list[tuple[int, int, str, int]],
    ):
        self.v = v
        self.k = k
        self.max_size = max_size
        self.require_balanced = require_balanced
        self.smallest = smallest
        self.alternatives = alternatives
        msg = (
            f"no feasible layout for v={v}, k={k} within size {max_size}"
            + (" requiring perfect balance" if require_balanced else "")
            + "; smallest candidate: "
            + (
                f"{smallest.method} at {smallest.predicted_size}"
                if smallest is not None
                else "none"
            )
        )
        if alternatives:
            msg += "; nearest feasible: " + ", ".join(
                f"(v={av}, k={ak}) via {m} at size {s}"
                for av, ak, m, s in alternatives
            )
        super().__init__(msg)


@dataclass(frozen=True)
class LayoutPlan:
    """A chosen construction, with its predictions, before building.

    Attributes:
        v, k: target array and stripe size.
        method: construction tag (see module docstring).
        predicted_size: the layout size (units/disk) the method will
            produce — exact for the geometric methods, and for the
            design-based ones whose design planning builds (up to
            :data:`PLANNED_DESIGN_BLOCKS` blocks); past that an upper
            bound (the catalog candidate before its redundancy
            reduction).
        balanced: whether parity balance is perfect (vs within one unit
            or the stairway band).
        detail: method-specific parameters (e.g. ``q, c, w``).
    """

    v: int
    k: int
    method: str
    predicted_size: int
    balanced: bool
    detail: dict
    _builder: Callable[[], Layout]

    def build(self) -> Layout:
        """Materialize the planned layout.

        Raises:
            AssertionError: if the built layout exceeds the predicted
                size (the feasibility decision would have been wrong).
        """
        layout = self._builder()
        if layout.size > self.predicted_size:
            raise AssertionError(
                f"{self.method}: predicted size {self.predicted_size}, "
                f"built {layout.size}"
            )
        return layout


def _removal_candidates(v: int, k: int) -> list[LayoutPlan]:
    """Theorem 8/9 plans: remove ``i`` disks from a prime power ``v+i``."""
    plans: list[LayoutPlan] = []
    i = 1
    while i * (i - 1) <= k - i and k - i >= 2:
        source = v + i
        if is_prime_power(source) and k <= source:
            ii = i  # bind loop variable
            plans.append(
                LayoutPlan(
                    v=v,
                    k=k,
                    method="removal",
                    predicted_size=k * (source - 1),
                    balanced=(i == 1),
                    detail={"source_v": source, "removed": i},
                    _builder=lambda: remove_disks(
                        ring_design(source, k), list(range(source - ii, source))
                    ),
                )
            )
            break  # smallest i gives the best balance; one plan suffices
        i += 1
    return plans


#: The most blocks a catalog candidate may have for planning to build
#: its design.  Building costs about 7-80 us a block in Python (2-CPU
#: host: (128,16)'s 16,256-block candidate 0.12 s, (333,7)'s 110,556
#: blocks 2 s, (1000,8)'s 999,000 blocks 25 s), so with the cap a plan
#: costs at most about a second and a half instead of up to minutes.
PLANNED_DESIGN_BLOCKS = 20_000


def _design_plans(v: int, k: int, name: str, b: int) -> list[LayoutPlan]:
    """The design-based plans (``flow_single``, ``flow_lcm``, ``hg``)
    over the catalog's cheapest candidate ``name`` of ``b`` blocks.

    A candidate of at most :data:`PLANNED_DESIGN_BLOCKS` blocks is
    built here, once (:func:`best_design`, redundancy reduction
    included), and every plan predicts from that design's ``b`` and
    builds from it, so each prediction is exact.  A larger candidate
    is not built until asked: its plans keep the candidate's ``b``,
    which bounds the size from above.
    """
    design = None
    if b <= PLANNED_DESIGN_BLOCKS:
        design = best_design(v, k)
        b = design.b
    r = k * b // v
    copies = math.lcm(b, v) // b

    def build(method: str) -> Layout:
        d = best_design(v, k) if design is None else design
        if method == "hg":
            return holland_gibson_layout(d)
        n = copies if method == "flow_lcm" else 1
        return layout_from_design(d, copies=n, parity="flow")

    claims = [("flow_single", r, b % v == 0, {})]
    if copies > 1:
        claims.append(("flow_lcm", r * copies, True, {"copies": copies}))
    claims.append(("hg", k * r, True, {}))
    return [
        LayoutPlan(
            v=v,
            k=k,
            method=method,
            predicted_size=size,
            balanced=balanced,
            detail={"design": name, "b": b, **extra},
            _builder=partial(build, method),
        )
        for method, size, balanced, extra in claims
    ]


def enumerate_plans(v: int, k: int) -> list[LayoutPlan]:
    """All applicable constructions for ``(v, k)``, sorted by
    ``(predicted_size, imbalance)``.

    Raises:
        ValueError: if the parameters are out of range.
    """
    if not 2 <= k <= v:
        raise ValueError(f"need 2 <= k <= v, got v={v}, k={k}")
    plans: list[LayoutPlan] = []

    if k <= min_prime_power_factor(v):
        plans.append(
            LayoutPlan(
                v=v,
                k=k,
                method="ring",
                predicted_size=k * (v - 1),
                balanced=True,
                detail={},
                _builder=lambda: ring_layout(v, k),
            )
        )

    candidates = candidate_constructions(v, k)
    if candidates:
        plans.extend(_design_plans(v, k, *candidates[0]))

    plans.extend(_removal_candidates(v, k))

    stairway = find_stairway_plan(v, k)
    compact = find_smallest_stairway_plan(v, k)
    for method, sp in (("stairway", stairway), ("stairway_compact", compact)):
        if sp is None:
            continue
        if method == "stairway_compact" and stairway is not None and sp.q == stairway.q:
            continue  # identical plan; no separate candidate
        plans.append(
            LayoutPlan(
                v=v,
                k=k,
                method=method,
                predicted_size=sp.predicted_size(k),
                balanced=(sp.w == 0),
                detail={"q": sp.q, "c": sp.c, "w": sp.w},
                _builder=lambda sp=sp: stairway_layout(v, sp.q, k),
            )
        )

    plans.sort(key=lambda p: (p.predicted_size, not p.balanced))
    return plans


def _first_feasible(
    v: int, k: int, max_size: int, require_balanced: bool
) -> "LayoutPlan | None":
    """Cheapest plan for ``(v, k)`` within the budget, or ``None``."""
    try:
        plans = enumerate_plans(v, k)
    except ValueError:
        return None
    for plan in plans:
        if plan.predicted_size > max_size:
            continue
        if require_balanced and not plan.balanced:
            continue
        return plan
    return None


def nearest_feasible(
    v: int,
    k: int,
    *,
    max_size: int = FEASIBLE_SIZE_LIMIT,
    require_balanced: bool = False,
    limit: int = 3,
    max_distance: int = 4,
) -> list[tuple[int, int, str, int]]:
    """Feasible ``(v, k)`` neighbors of an infeasible request.

    Scans parameter pairs in increasing Chebyshev distance from
    ``(v, k)`` (the request itself excluded) and returns up to
    ``limit`` tuples ``(v', k', method, predicted_size)`` that fit the
    same budget — the payload of :class:`NoFeasiblePlanError`.
    """
    found: list[tuple[int, int, str, int]] = []
    for dist in range(1, max_distance + 1):
        ring = sorted(
            {
                (v + dv, k + dk)
                for dv in range(-dist, dist + 1)
                for dk in range(-dist, dist + 1)
                if max(abs(dv), abs(dk)) == dist
            },
            key=lambda p: (abs(p[0] - v) + abs(p[1] - k), p),
        )
        for av, ak in ring:
            if not 2 <= ak <= av:
                continue
            plan = _first_feasible(av, ak, max_size, require_balanced)
            if plan is not None:
                found.append((av, ak, plan.method, plan.predicted_size))
                if len(found) >= limit:
                    return found
    return found


def plan_layout(
    v: int,
    k: int,
    *,
    max_size: int = FEASIBLE_SIZE_LIMIT,
    require_balanced: bool = False,
) -> LayoutPlan:
    """Choose the smallest feasible construction for ``(v, k)``.

    Args:
        max_size: Condition 4 budget (units per disk).
        require_balanced: restrict to perfectly parity-balanced methods.

    Raises:
        NoFeasiblePlanError: if no applicable construction fits the
            budget; the error lists the nearest feasible alternatives.
    """
    plans = enumerate_plans(v, k)
    for plan in plans:
        if plan.predicted_size > max_size:
            continue
        if require_balanced and not plan.balanced:
            continue
        return plan
    raise NoFeasiblePlanError(
        v,
        k,
        max_size,
        require_balanced,
        plans[0] if plans else None,
        nearest_feasible(
            v, k, max_size=max_size, require_balanced=require_balanced
        ),
    )
