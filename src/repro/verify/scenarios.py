"""Conformance scenario generation: sweep every construction family.

A scenario names a construction, how to build it, and the tolerances
its theorems entitle it to.  :func:`default_scenarios` covers the
planner's catalog picks over ~20 ``(v, k)`` pairs, every other
design-based plan of those pairs, plus one explicit scenario per
construction family (ring, reduction, complement,
removal, stairway, Holland-Gibson, RAID5, dual-parity, randomized), so
``python -m repro verify --all`` exercises every code path that can
produce a layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.planner import LayoutPlan, enumerate_plans, plan_layout
from ..designs import best_design, ring_design
from ..layouts import (
    FEASIBLE_SIZE_LIMIT,
    Layout,
    holland_gibson_layout,
    layout_from_design,
    raid5_layout,
    random_layout,
    remove_disks,
    ring_layout,
    with_dual_parity,
)
from .conformance import ConditionResult, ConformanceReport, check_layout

__all__ = [
    "ConformanceScenario",
    "catalog_pairs",
    "default_scenarios",
    "plan_tolerances",
    "run_scenario",
    "run_conformance_sweep",
    "scenarios_for_pair",
]

#: The catalog sweep: small enough to verify in seconds, wide enough to
#: hit every planner method (ring, flow_single, flow_lcm, removal,
#: stairway, reductions thm4/5/6, complement-backed designs).
_CATALOG_PAIRS: tuple[tuple[int, int], ...] = (
    (7, 3),
    (8, 3),
    (9, 3),
    (9, 4),
    (10, 4),
    (11, 4),
    (12, 3),
    (13, 3),
    (13, 4),
    (15, 4),
    (16, 4),
    (16, 5),
    (7, 5),
    (9, 7),
    (17, 4),
    (19, 3),
    (21, 5),
    (24, 5),
    (25, 6),
    (33, 5),
)


def catalog_pairs() -> list[tuple[int, int]]:
    """The default ``(v, k)`` sweep over the design catalog."""
    return list(_CATALOG_PAIRS)


@dataclass(frozen=True)
class ConformanceScenario:
    """One construction to verify, with its entitled tolerances.

    Attributes:
        name: report label (family, construction, parameters).
        family: construction family tag.
        build: zero-argument layout builder.
        parity_spread_allowance: Condition 2 band (0 = perfect).
        workload_bound: Condition 3 cap; ``None`` = the declustering
            ideal ``(k_max - 1)/(v - 1)``.
        max_size: Condition 4 budget.
        extra_checks: optional construction-specific checks run on the
            built layout (e.g. dual-parity Q balance).
    """

    name: str
    family: str
    build: Callable[[], Layout]
    parity_spread_allowance: int = 1
    workload_bound: float | None = None
    max_size: int = FEASIBLE_SIZE_LIMIT
    extra_checks: Callable[[Layout], tuple[ConditionResult, ...]] | None = field(
        default=None, compare=False
    )


def plan_tolerances(plan: LayoutPlan) -> dict:
    """The Conditions 2 and 3 tolerances a planner-chosen
    construction's claims entitle it to, as :func:`check_layout`
    keywords: a parity spread of 0 when the plan claims perfect balance
    (1 otherwise), and the declustering ideal ``(k-1)/(v-1)`` as the
    Condition 3 cap (``None``) except for a stairway plan, whose
    rebuild reads Theorems 10-12 bound by its source array — the
    perturbed prime power ``q``, not ``v`` — at ``(k-1)/(q-1)``."""
    bound = None
    if plan.method.startswith("stairway"):
        bound = (plan.k - 1) / (plan.detail["q"] - 1)
    return {
        "parity_spread_allowance": 0 if plan.balanced else 1,
        "workload_bound": bound,
    }


def _plan_scenario(plan: LayoutPlan, *, max_size: int) -> ConformanceScenario:
    """Scenario for a planner-chosen construction, held to its own
    claims (:func:`plan_tolerances`)."""
    return ConformanceScenario(
        name=f"{plan.method}:v{plan.v}k{plan.k}",
        family="catalog",
        build=plan.build,
        max_size=max_size,
        **plan_tolerances(plan),
    )


def _dual_parity_checks(layout: Layout) -> tuple[ConditionResult, ...]:
    """Dual-parity extension: Q units valid and balanced within one."""
    dual = with_dual_parity(layout)
    try:
        dual.validate()
    except ValueError as exc:
        return (
            ConditionResult(
                condition=2,
                name="dual-parity Q validity",
                passed=False,
                measured="invalid",
                bound="valid P+Q layout",
                detail=str(exc),
            ),
        )
    q_counts = dual.q_counts()
    spread = max(q_counts) - min(q_counts)
    return (
        ConditionResult(
            condition=2,
            name="dual-parity Q balance",
            passed=spread <= 1,
            measured=f"Q spread {spread}",
            bound="spread <= 1",
        ),
    )


def _family_scenarios(max_size: int) -> list[ConformanceScenario]:
    """One explicit scenario per construction family, independent of
    what the planner would pick."""
    return [
        ConformanceScenario(
            name="raid5:v5",
            family="raid5",
            build=lambda: raid5_layout(5),
            parity_spread_allowance=0,
            max_size=max_size,
        ),
        ConformanceScenario(
            name="ring:v11k4",
            family="ring",
            build=lambda: ring_layout(11, 4),
            parity_spread_allowance=0,
            max_size=max_size,
        ),
        ConformanceScenario(
            name="hg:v9k3",
            family="holland_gibson",
            build=lambda: holland_gibson_layout(best_design(9, 3)),
            parity_spread_allowance=0,
            max_size=max_size,
        ),
        ConformanceScenario(
            name="reduction:v13k4",
            family="reduction",
            build=lambda: layout_from_design(best_design(13, 4), parity="flow"),
            max_size=max_size,
        ),
        ConformanceScenario(
            name="complement:v9k7",
            family="complement",
            build=lambda: layout_from_design(best_design(9, 7), parity="flow"),
            max_size=max_size,
        ),
        ConformanceScenario(
            name="removal:v8k4-thm8",
            family="removal",
            build=lambda: remove_disks(ring_design(9, 4), [8]),
            parity_spread_allowance=0,
            max_size=max_size,
        ),
        ConformanceScenario(
            name="removal:v11k5-thm9",
            family="removal",
            build=lambda: remove_disks(ring_design(13, 5), [11, 12]),
            max_size=max_size,
        ),
        ConformanceScenario(
            name="dual:v7k3",
            family="dual",
            build=lambda: ring_layout(7, 3),
            parity_spread_allowance=0,
            max_size=max_size,
            extra_checks=_dual_parity_checks,
        ),
        ConformanceScenario(
            name="randomized:v10k4",
            family="randomized",
            build=lambda: random_layout(10, 4, stripes_per_disk=8, seed=1),
            # Random placement balances reconstruction only in
            # expectation; the hard cap is reading no survivor fully.
            workload_bound=1.0,
            max_size=max_size,
        ),
    ]


def default_scenarios(
    *,
    pairs: list[tuple[int, int]] | None = None,
    max_size: int = FEASIBLE_SIZE_LIMIT,
    include_families: bool = True,
) -> list[ConformanceScenario]:
    """The full sweep: over the catalog pairs, the planner's pick and
    every other design-based plan (``flow_single``, ``flow_lcm``,
    ``hg``) within the budget, each held to its own claims, plus the
    per-family scenarios."""
    scenarios = []
    for v, k in pairs if pairs is not None else catalog_pairs():
        pick = plan_layout(v, k, max_size=max_size)
        scenarios.append(_plan_scenario(pick, max_size=max_size))
        scenarios.extend(
            _plan_scenario(plan, max_size=max_size)
            for plan in enumerate_plans(v, k)
            if plan.method in ("flow_single", "flow_lcm", "hg")
            and plan.method != pick.method
            and plan.predicted_size <= max_size
        )
    if include_families:
        scenarios.extend(_family_scenarios(max_size))
    return scenarios


def scenarios_for_pair(
    v: int, k: int, *, max_size: int = FEASIBLE_SIZE_LIMIT
) -> list[ConformanceScenario]:
    """Every applicable construction for one ``(v, k)``, as scenarios.

    Raises:
        ValueError: if the parameters are out of range.
    """
    return [
        _plan_scenario(plan, max_size=max_size)
        for plan in enumerate_plans(v, k)
        if plan.predicted_size <= max_size
    ]


def run_scenario(scenario: ConformanceScenario) -> ConformanceReport:
    """Build a scenario's layout and check it against Conditions 1-4."""
    layout = scenario.build()
    extra: tuple[ConditionResult, ...] = ()
    if scenario.extra_checks is not None:
        extra = scenario.extra_checks(layout)
    return check_layout(
        layout,
        parity_spread_allowance=scenario.parity_spread_allowance,
        workload_bound=scenario.workload_bound,
        max_size=scenario.max_size,
        extra_results=extra,
    )


def run_conformance_sweep(
    scenarios: list[ConformanceScenario] | None = None,
) -> list[tuple[ConformanceScenario, ConformanceReport]]:
    """Run a scenario list (default: the full sweep); returns
    ``(scenario, report)`` pairs in order."""
    todo = scenarios if scenarios is not None else default_scenarios()
    return [(sc, run_scenario(sc)) for sc in todo]
