"""Layout conformance checking: the paper's Conditions 1-4 as a
reusable verification subsystem.

Any :class:`repro.layouts.Layout` — from the planner, a construction
module, or a deserialized table — can be checked against:

1. **Condition 1** (reconstructability): at most one unit per disk per
   stripe, one parity unit per stripe, full rectangular coverage;
2. **Condition 2** (parity balance): per-disk parity counts within the
   paper's one-unit band (tightened to exact balance for the perfectly
   balanced constructions);
3. **Condition 3** (reconstruction balance): the maximum pairwise
   reconstruction workload against the construction's analytic bound;
4. **Condition 4** (mapping efficiency): the lookup table fits the size
   budget and the batched mapping engine agrees with the scalar path.

:mod:`repro.verify.scenarios` sweeps every construction family in the
library (catalog/planner picks, reductions, complements, ring, removal,
stairway, Holland-Gibson, dual-parity, randomized); ``python -m repro
verify --all`` runs the sweep from the command line.
"""

from .conformance import (
    ConditionResult,
    ConformanceReport,
    check_layout,
)
from .scenarios import (
    ConformanceScenario,
    catalog_pairs,
    default_scenarios,
    plan_tolerances,
    run_conformance_sweep,
    run_scenario,
    scenarios_for_pair,
)

__all__ = [
    "ConditionResult",
    "ConformanceReport",
    "check_layout",
    "ConformanceScenario",
    "catalog_pairs",
    "default_scenarios",
    "plan_tolerances",
    "run_conformance_sweep",
    "run_scenario",
    "scenarios_for_pair",
]
