"""Fleet-level conformance: Conditions 1-4 for every serving scenario.

The conformance subsystem (:mod:`repro.verify`) checks single layouts;
this module is the thin hook that gives every *serving* scenario the
same guarantee for free.  A fleet serves shards over registry-cached
layouts, so the check set is the distinct layout objects in use —
usually one — each run through :func:`repro.verify.check_layout`
before traffic starts.  Scenario reports embed the verdict, so a
scenario that would serve from a non-conforming layout fails loudly
rather than producing numbers nobody should trust.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..verify import ConformanceReport, check_layout, plan_tolerances
from .fleet import Fleet

__all__ = ["FleetConformance", "check_fleet"]


@dataclass(frozen=True)
class FleetConformance:
    """Conditions 1-4 verdict for every distinct layout a fleet serves.

    Attributes:
        reports: one :class:`ConformanceReport` per distinct layout.
        shards_checked: how many shards those layouts cover.
    """

    reports: tuple[ConformanceReport, ...]
    shards_checked: int

    @property
    def passed(self) -> bool:
        """True when every served layout conforms."""
        return all(r.passed for r in self.reports)

    def summary(self) -> str:
        """Multi-line verdict for CLI output."""
        head = (
            f"fleet conformance: {self.shards_checked} shards, "
            f"{len(self.reports)} distinct layout(s) -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join([head] + [r.summary() for r in self.reports])

    def to_dict(self) -> dict:
        """JSON-ready verdict."""
        return {
            "passed": self.passed,
            "shards_checked": self.shards_checked,
            "layouts": [
                {
                    "name": r.layout_name,
                    "v": r.v,
                    "size": r.size,
                    "b": r.b,
                    "passed": r.passed,
                    "violations": [c.name for c in r.violations()],
                }
                for r in self.reports
            ],
        }


def check_fleet(fleet: Fleet, *, mapper_samples: int = 256) -> FleetConformance:
    """Check every distinct layout the fleet serves against
    Conditions 1-4.

    Distinctness is by identity — shards built through the registry
    share one layout object, so the common case is one check no matter
    the shard count.  The fleet's own layout is held to its plan's
    claims, as ``verify --all`` holds it
    (:func:`repro.verify.plan_tolerances`: perfect parity balance when
    the plan claims it, and a stairway plan's Condition 3 cap of
    ``(k-1)/(q-1)``, not the declustering ideal).
    """
    seen: dict[int, object] = {}
    for ctrl in fleet.controllers:
        seen.setdefault(id(ctrl.layout), ctrl.layout)
    claims = plan_tolerances(fleet.plan)
    reports = tuple(
        check_layout(
            layout,
            mapper_samples=mapper_samples,
            **(claims if layout is fleet.layout else {}),
        )
        for layout in seen.values()
    )
    return FleetConformance(reports=reports, shards_checked=fleet.shards)
