"""Parity assignment via network flow (Section 4, Theorems 13-14,
Corollaries 15-17).

Given any partition of a disk array into stripes — each stripe crossing
every disk at most once, stripe sizes arbitrary — choose one parity unit
per stripe so that disk ``d`` receives either ``⌊L(d)⌋`` or ``⌈L(d)⌉``
parity units, where the *parity load* is ``L(d) = Σ_{s ∋ d} 1/k_s``.

Loads are computed with exact rational arithmetic (integers over a
common denominator, returned as :class:`fractions.Fraction`): the
floor/ceil bounds are the theorem's payload and must not be corrupted
by floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .bounded import BoundedEdge, InfeasibleFlow, max_flow_with_lower_bounds
from .dinic import dinic_max_flow
from .network import FlowNetwork

__all__ = [
    "ParityAssignmentGraph",
    "parity_loads",
    "build_parity_graph",
    "assign_parity",
    "assign_distinguished",
    "copies_for_perfect_balance",
    "perfect_balance_possible",
]


def parity_loads(
    stripes: Sequence[Sequence[int]],
    v: int,
    counts: Sequence[int] | None = None,
) -> list[Fraction]:
    """Exact parity loads ``L(d) = Σ_{s ∋ d} c_s / k_s`` for every disk.

    ``counts[s]`` is the number of distinguished units stripe ``s``
    must contribute (1 for plain parity; >1 for e.g. distributed
    sparing, the paper's Theorem 14 extension).

    Exact and integer: each unit adds ``c_s`` to its disk's tally for
    stripe size ``k_s`` (one ``np.add.at``), and the tallies combine over
    the lcm ``D`` of the sizes in Python integers, ``Σ_k tally_k · D/k``.
    """
    sizes = np.fromiter(map(len, stripes), dtype=np.int64, count=len(stripes))
    disks = np.fromiter(chain.from_iterable(stripes), dtype=np.int64)
    bad = np.flatnonzero((disks < 0) | (disks >= v))
    if bad.size:
        si = int(np.searchsorted(np.cumsum(sizes), bad[0], side="right"))
        raise ValueError(f"stripe {si} references disk {disks[bad[0]]} (v={v})")
    kinds, kind_of = np.unique(sizes, return_inverse=True)
    c = np.ones(len(sizes), np.int64) if counts is None else np.asarray(counts)
    tallies = np.zeros((len(kinds), v), dtype=np.int64)
    np.add.at(tallies, (np.repeat(kind_of, sizes), disks), np.repeat(c, sizes))
    denom = math.lcm(*kinds.tolist())
    scales = [denom // k for k in kinds.tolist()]
    return [
        Fraction(sum(t * f for t, f in zip(col, scales)), denom)
        for col in tallies.T.tolist()
    ]


@dataclass(frozen=True)
class ParityAssignmentGraph:
    """The Fig. 7 graph, materialized for inspection and benchmarks.

    Node numbering: 0 = source; ``1..b`` = stripes; ``b+1..b+v`` =
    disks; ``b+v+1`` = sink.
    """

    b: int
    v: int
    edges: tuple[BoundedEdge, ...]
    #: ids into ``edges`` of the stripe→disk edges, grouped by stripe.
    stripe_edge_ids: tuple[tuple[int, ...], ...]

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.b + self.v + 1

    def node_count(self) -> int:
        return self.b + self.v + 2


def build_parity_graph(
    stripes: Sequence[Sequence[int]],
    v: int,
    counts: Sequence[int] | None = None,
) -> ParityAssignmentGraph:
    """Construct the parity assignment graph for a stripe partition.

    Source→stripe edges carry exactly ``c_s`` units; stripe→disk edges
    carry 0 or 1; disk→sink edges are bounded by ``[⌊L(d)⌋, ⌈L(d)⌉]``.

    Raises:
        ValueError: if a stripe repeats a disk or references one out of
            range (such a partition cannot come from a valid layout).
    """
    b = len(stripes)
    loads = parity_loads(stripes, v, counts)
    edges: list[BoundedEdge] = []
    stripe_edge_ids: list[tuple[int, ...]] = []

    for si, stripe in enumerate(stripes):
        if len(set(stripe)) != len(stripe):
            raise ValueError(f"stripe {si} crosses a disk twice: {stripe}")
        c = 1 if counts is None else counts[si]
        if not 0 < c <= len(stripe):
            raise ValueError(
                f"stripe {si} must contribute between 1 and {len(stripe)} units, got {c}"
            )
        edges.append(BoundedEdge(0, 1 + si, c, c))

    for si, stripe in enumerate(stripes):
        ids = []
        for d in stripe:
            if not 0 <= d < v:
                raise ValueError(f"stripe {si} references disk {d} (v={v})")
            ids.append(len(edges))
            edges.append(BoundedEdge(1 + si, 1 + b + d, 0, 1))
        stripe_edge_ids.append(tuple(ids))

    sink = b + v + 1
    for d in range(v):
        lo = math.floor(loads[d])
        hi = math.ceil(loads[d])
        edges.append(BoundedEdge(1 + b + d, sink, lo, hi))

    return ParityAssignmentGraph(
        b=b, v=v, edges=tuple(edges), stripe_edge_ids=tuple(stripe_edge_ids)
    )


def assign_parity(
    stripes: Sequence[Sequence[int]],
    v: int,
    *,
    max_flow: Callable[[FlowNetwork, int, int], int] = dinic_max_flow,
) -> list[int]:
    """Choose the parity disk of every stripe (Theorem 14).

    Returns ``parity[s]`` = disk holding stripe ``s``'s parity unit.
    Guarantee: disk ``d`` is chosen for either ``⌊L(d)⌋`` or ``⌈L(d)⌉``
    stripes.

    Raises:
        InfeasibleFlow: never for a valid stripe partition (Theorem 13
            proves feasibility); surfaced only on malformed input.
    """
    assignment = assign_distinguished(stripes, v, counts=None, max_flow=max_flow)
    return [disks[0] for disks in assignment]


def assign_distinguished(
    stripes: Sequence[Sequence[int]],
    v: int,
    counts: Sequence[int] | None = None,
    *,
    max_flow: Callable[[FlowNetwork, int, int], int] = dinic_max_flow,
) -> list[list[int]]:
    """Generalized Theorem 14: choose ``counts[s]`` distinguished units
    per stripe, balanced to ``{⌊L(d)⌋, ⌈L(d)⌉}`` per disk.

    Returns, for each stripe, the list of disks chosen.
    """
    graph = build_parity_graph(stripes, v, counts)
    total_required = sum(e.lo for e in graph.edges[: graph.b])

    value, flows = max_flow_with_lower_bounds(
        graph.node_count(), graph.edges, graph.source, graph.sink, max_flow=max_flow
    )
    if value != total_required:
        raise InfeasibleFlow(
            f"parity flow value {value} != required {total_required} "
            "(Theorem 13 guarantees equality for valid stripe partitions)"
        )

    chosen: list[list[int]] = []
    for si, stripe in enumerate(stripes):
        picks = [
            d
            for d, eid in zip(stripe, graph.stripe_edge_ids[si])
            if flows[eid] == 1
        ]
        expected = 1 if counts is None else counts[si]
        if len(picks) != expected:
            raise AssertionError(
                f"stripe {si}: integral flow selected {len(picks)} units, "
                f"expected {expected}"
            )
        chosen.append(picks)
    return chosen


def copies_for_perfect_balance(b: int, v: int) -> int:
    """The Holland–Gibson lcm conjecture, proven by Corollary 17: the
    number of copies of a ``b``-block design needed for perfectly
    balanced parity on ``v`` disks is ``lcm(b, v) / b``."""
    return math.lcm(b, v) // b


def perfect_balance_possible(b: int, v: int) -> bool:
    """Corollary 17: perfect parity balance in a fixed-stripe-size layout
    is possible iff ``v`` divides ``b``."""
    return b % v == 0
