"""Tests for the layout planner."""

import pytest

from repro.core import enumerate_plans, get_incidence, plan_layout
from repro.layouts import evaluate_layout

#: Pairs (v <= 40, k <= 8) whose cheapest catalog candidate the generic
#: redundancy reduction shrinks at build time: a prediction read off
#: the un-reduced candidate overstates their design-based plans' sizes
#: and can claim a balance the reduced design does not have.
REDUCED_PAIRS = [
    (8, 4), (12, 3), (15, 3), (16, 8), (20, 4), (21, 3), (27, 6), (28, 4),
    (32, 4), (32, 6), (32, 8), (33, 3), (35, 3), (35, 4), (35, 5), (36, 3),
    (39, 3), (40, 4),
]


class TestEnumeratePlans:
    def test_sorted_by_size(self):
        plans = enumerate_plans(9, 3)
        sizes = [p.predicted_size for p in plans]
        assert sizes == sorted(sizes)

    def test_prime_power_v_has_ring(self):
        methods = {p.method for p in enumerate_plans(9, 3)}
        assert "ring" in methods

    def test_composite_v_big_k_uses_perturbations(self):
        # v=33=3*11, k=5 > M(33)=3: only stairway/removal/complete apply.
        methods = {p.method for p in enumerate_plans(33, 5)}
        assert "ring" not in methods
        assert "stairway" in methods

    def test_removal_candidate_when_v_plus_one_prime_power(self):
        plans = {p.method: p for p in enumerate_plans(24, 5)}
        assert plans["removal"].detail == {"source_v": 25, "removed": 1}
        assert plans["removal"].balanced

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            enumerate_plans(5, 1)
        with pytest.raises(ValueError):
            enumerate_plans(5, 6)


class TestDesignPlanPredictions:
    @pytest.mark.parametrize("v,k", REDUCED_PAIRS)
    def test_prediction_is_the_build(self, v, k):
        """Each design-based plan builds exactly its predicted size and
        claims perfect balance exactly when its parity spread is 0."""
        plans = [
            p
            for p in enumerate_plans(v, k)
            if p.method in ("flow_single", "flow_lcm", "hg")
            and p.predicted_size <= 3000
        ]
        assert plans
        for plan in plans:
            layout = plan.build()
            counts = get_incidence(layout).parity_counts()
            spread = int(counts.max() - counts.min())
            assert layout.size == plan.predicted_size, plan.method
            assert plan.balanced == (spread == 0), plan.method

    def test_large_candidate_is_not_built_while_planning(self, monkeypatch):
        """(1000,8)'s ring candidate has 999,000 blocks, past
        ``PLANNED_DESIGN_BLOCKS``: planning keeps its un-reduced size
        instead of spending seconds building it."""
        from repro.core import planner

        built = []
        monkeypatch.setattr(
            planner, "best_design", lambda v, k: built.append((v, k))
        )
        plans = {p.method: p for p in enumerate_plans(1000, 8)}
        assert built == []
        assert plans["flow_single"].predicted_size == 8 * 999


class TestPlanLayout:
    @pytest.mark.parametrize("v,k", [(9, 3), (10, 4), (11, 4), (12, 3), (13, 4), (24, 5), (33, 5)])
    def test_plan_builds_and_validates(self, v, k):
        p = plan_layout(v, k)
        lay = p.build()
        lay.validate()
        assert lay.v == v
        assert lay.size <= p.predicted_size
        m = evaluate_layout(lay)
        assert m.k_max <= k  # stripes never exceed the requested size

    def test_balanced_plan_is_balanced(self):
        p = plan_layout(9, 3, require_balanced=True)
        assert p.balanced
        assert evaluate_layout(p.build()).parity_balanced

    def test_max_size_respected(self):
        p = plan_layout(9, 3, max_size=100)
        assert p.predicted_size <= 100

    def test_unsatisfiable_budget(self):
        with pytest.raises(ValueError, match="no feasible layout"):
            plan_layout(9, 3, max_size=1)

    def test_smaller_budget_changes_method(self):
        generous = plan_layout(33, 5, max_size=100_000)
        # Budget below the stairway size forces a different (or no) method.
        assert generous.predicted_size <= 100_000

    def test_balanced_requirement_can_change_choice(self):
        free = plan_layout(9, 3)
        balanced = plan_layout(9, 3, require_balanced=True)
        assert balanced.balanced
        assert balanced.predicted_size >= free.predicted_size


class TestNoFeasiblePlanError:
    def test_structured_error_payload(self):
        from repro.core import NoFeasiblePlanError

        with pytest.raises(NoFeasiblePlanError) as exc_info:
            plan_layout(33, 5, max_size=50)
        err = exc_info.value
        assert isinstance(err, ValueError)  # callers catching ValueError still work
        assert (err.v, err.k, err.max_size) == (33, 5, 50)
        assert err.smallest is not None
        assert err.smallest.predicted_size > 50

    def test_error_lists_nearest_feasible_alternatives(self):
        from repro.core import NoFeasiblePlanError

        with pytest.raises(NoFeasiblePlanError) as exc_info:
            plan_layout(33, 5, max_size=50)
        err = exc_info.value
        assert err.alternatives, "expected nearby feasible (v, k) suggestions"
        for av, ak, method, size in err.alternatives:
            assert (av, ak) != (33, 5)
            assert abs(av - 33) <= 4 and abs(ak - 5) <= 4
            assert size <= 50
            # Each suggestion really is feasible under the same budget.
            alt = plan_layout(av, ak, max_size=50)
            assert alt.predicted_size <= size
        assert "nearest feasible" in str(err)

    def test_impossible_budget_reports_no_alternatives(self):
        from repro.core import NoFeasiblePlanError

        # Every layout has size >= 1, so a zero budget has no neighbors.
        with pytest.raises(NoFeasiblePlanError) as exc_info:
            plan_layout(9, 3, max_size=0)
        assert exc_info.value.alternatives == []

    def test_nearest_feasible_direct_query(self):
        from repro.core import nearest_feasible

        alts = nearest_feasible(33, 5, max_size=50, limit=2)
        assert 0 < len(alts) <= 2
        # Sorted closest-first by parameter distance.
        dists = [abs(av - 33) + abs(ak - 5) for av, ak, _, _ in alts]
        assert dists == sorted(dists)
