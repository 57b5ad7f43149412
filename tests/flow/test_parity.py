"""Tests for the Section 4 parity assignment (Theorems 13-14, Cor 15-17)."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from repro.designs import best_design, complete_design, fano_plane, ring_design
from repro.flow import (
    assign_distinguished,
    assign_parity,
    build_parity_graph,
    copies_for_perfect_balance,
    parity_loads,
    perfect_balance_possible,
)
from repro.flow.dinic import edmonds_karp_max_flow


def check_theorem14(stripes, v, parity, counts=None):
    """Per-disk parity counts land in {floor(L), ceil(L)}."""
    loads = parity_loads(stripes, v, counts)
    got = Counter(parity)
    for d in range(v):
        lo, hi = math.floor(loads[d]), math.ceil(loads[d])
        assert lo <= got.get(d, 0) <= hi, (d, got.get(d, 0), loads[d])


class TestParityLoads:
    def test_uniform_stripes(self):
        stripes = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
        loads = parity_loads(stripes, 4)
        assert all(load == Fraction(1) for load in loads)

    def test_mixed_sizes_exact(self):
        stripes = [(0, 1), (0, 1, 2)]
        loads = parity_loads(stripes, 3)
        assert loads == [Fraction(5, 6), Fraction(5, 6), Fraction(1, 3)]

    def test_counts_weighting(self):
        stripes = [(0, 1, 2, 3)]
        loads = parity_loads(stripes, 4, counts=[2])
        assert loads[0] == Fraction(1, 2)

    def test_integer_sum_equals_per_unit_fractions(self):
        """Mixed stripe sizes (lcm 420 and beyond) with counts: the
        integer sum over a common denominator equals adding one
        ``Fraction`` per unit."""
        rng = np.random.default_rng(5)
        v = 13
        stripes = [
            tuple(rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False))
            for _ in range(200)
        ]
        counts = [int(rng.integers(1, len(s) + 1)) for s in stripes]
        for c in (None, counts):
            expected = [Fraction(0)] * v
            for si, stripe in enumerate(stripes):
                share = Fraction(1 if c is None else c[si], len(stripe))
                for d in stripe:
                    expected[d] += share
            assert parity_loads(stripes, v, c) == expected
        assert parity_loads([], 3) == [Fraction(0)] * 3

    def test_out_of_range_disk_names_its_stripe(self):
        with pytest.raises(ValueError, match=r"stripe 2 references disk 7 \(v=4\)"):
            parity_loads([(0, 1), (2, 3), (1, 7), (9,)], 4)


class TestBuildParityGraph:
    def test_structure(self):
        stripes = [(0, 1, 2), (1, 2, 3)]
        g = build_parity_graph(stripes, 4)
        assert g.b == 2 and g.v == 4
        assert g.node_count() == 2 + 4 + 2
        # source edges + stripe-disk edges + disk edges
        assert len(g.edges) == 2 + 6 + 4

    def test_disk_edge_bounds_floor_ceil(self):
        stripes = [(0, 1), (0, 1, 2)]
        g = build_parity_graph(stripes, 3)
        loads = parity_loads(stripes, 3)
        for d in range(3):
            e = g.edges[-3 + d]
            assert e.lo == math.floor(loads[d])
            assert e.hi == math.ceil(loads[d])

    def test_rejects_duplicate_disk_in_stripe(self):
        with pytest.raises(ValueError, match="twice"):
            build_parity_graph([(0, 0, 1)], 3)

    def test_rejects_out_of_range_disk(self):
        with pytest.raises(ValueError, match="disk"):
            build_parity_graph([(0, 9)], 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="between"):
            build_parity_graph([(0, 1)], 2, counts=[3])


class TestAssignParity:
    def test_fano_perfect(self):
        f = fano_plane()
        parity = assign_parity(f.blocks, f.v)
        assert sorted(Counter(parity).values()) == [1] * 7

    @pytest.mark.parametrize(
        "design",
        [
            best_design(9, 3),
            complete_design(6, 3),
            ring_design(7, 3).to_block_design(),
            best_design(13, 4),
        ],
        ids=["thm6-9-3", "complete-6-3", "ring-7-3", "pp-13-4"],
    )
    def test_theorem14_bound(self, design):
        parity = assign_parity(design.blocks, design.v)
        check_theorem14(design.blocks, design.v, parity)

    def test_parity_always_member_of_stripe(self):
        d = complete_design(6, 3)
        parity = assign_parity(d.blocks, d.v)
        for blk, p in zip(d.blocks, parity):
            assert p in blk

    def test_mixed_stripe_sizes(self):
        stripes = [(0, 1, 2), (1, 2, 3), (0, 3), (0, 1, 2, 3), (2, 3)]
        parity = assign_parity(stripes, 4)
        check_theorem14(stripes, 4, parity)

    def test_corollary16_fixed_k(self):
        # All stripes size k: counts in {floor(b/v), ceil(b/v)}.
        d = complete_design(7, 3)  # b=35, v=7 -> exactly 5 each
        parity = assign_parity(d.blocks, d.v)
        assert sorted(Counter(parity).values()) == [5] * 7

    def test_corollary16_non_dividing(self):
        d = complete_design(8, 3)  # b=56, v=8 -> 7 each (divides)
        parity = assign_parity(d.blocks, d.v)
        assert sorted(Counter(parity).values()) == [7] * 8

    def test_edmonds_karp_also_works(self):
        f = fano_plane()
        parity = assign_parity(f.blocks, f.v, max_flow=edmonds_karp_max_flow)
        assert sorted(Counter(parity).values()) == [1] * 7


class TestAssignDistinguished:
    def test_two_per_stripe(self):
        # Distributed sparing: choose 2 distinguished units per stripe.
        d = complete_design(6, 4)
        counts = [2] * d.b
        chosen = assign_distinguished(d.blocks, d.v, counts)
        flat = [disk for picks in chosen for disk in picks]
        for picks, blk in zip(chosen, d.blocks):
            assert len(picks) == 2
            assert len(set(picks)) == 2
            assert set(picks) <= set(blk)
        check_theorem14(d.blocks, d.v, flat, counts)

    def test_heterogeneous_counts(self):
        stripes = [(0, 1, 2), (1, 2, 3), (0, 2, 3)]
        counts = [1, 2, 1]
        chosen = assign_distinguished(stripes, 4, counts)
        assert [len(p) for p in chosen] == counts


class TestLcmConjecture:
    def test_copies_formula(self):
        assert copies_for_perfect_balance(7, 7) == 1
        assert copies_for_perfect_balance(12, 9) == 3
        assert copies_for_perfect_balance(20, 6) == 3
        assert copies_for_perfect_balance(56, 8) == 1

    def test_perfect_balance_iff_v_divides_b(self):
        assert perfect_balance_possible(35, 7)
        assert not perfect_balance_possible(12, 9)

    def test_conjecture_consistency(self):
        # lcm(b,v)/b copies always yields v | b*copies.
        for b, v in [(12, 9), (7, 7), (20, 6), (22, 4), (30, 7)]:
            copies = copies_for_perfect_balance(b, v)
            assert (b * copies) % v == 0
            # and it is minimal
            for fewer in range(1, copies):
                assert (b * fewer) % v != 0
