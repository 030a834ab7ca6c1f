import itertools

import pytest

from faultnet.errors import EnumerationTooLarge
from faultnet.graph import (
    FaultGraph,
    VertexCut,
    boundary,
    connected_components,
    failure_sets,
    st_cut_masks,
)
from faultnet.instances import appendix_a_instance
from oracle_utils import boundary_counts, nested_st_masks, random_graph, unsafe_ids


def four_cycle():
    # s=0, a=1, t=2, b=3
    return FaultGraph(
        4,
        [
            (0, 1, 1.0, "safe"),
            (1, 2, 1.0, "safe"),
            (2, 3, 1.0, "unsafe"),
            (3, 0, 1.0, "unsafe"),
        ],
    )


class TestBoundary:
    def test_degree_of_vertex(self):
        g = four_cycle()
        assert boundary(g, g.all_edge_ids(), VertexCut(4, 0b0001)) == {0, 3}

    def test_two_vertex_side(self):
        g = four_cycle()
        # S = {s, a}: edges a-t and b-s cross
        assert boundary(g, g.all_edge_ids(), VertexCut(4, 0b0011)) == {1, 3}

    def test_appendix_a_claim1_cut(self):
        # k=2: F = two unsafe s-v1 edges plus the safe v1-t edge;
        # S = {s, v2, v3} leaves exactly the unsafe s-v1 edges crossing.
        inst = appendix_a_instance(2)
        g = inst.to_graph()
        F = frozenset({0, 1, 2})  # block i=0: two unsafe (s,v1), safe (v1,t)
        mask = (1 << 0) | (1 << 3) | (1 << 4)  # s, v2, v3
        assert boundary(g, F, mask) == {0, 1}

    def test_symmetric_in_complement(self):
        g = random_graph(3, 6, 12)
        for mask in range(1, 1 << (g.n - 1)):
            comp = ((1 << g.n) - 1) ^ mask
            assert boundary(g, g.all_edge_ids(), mask) == boundary(
                g, g.all_edge_ids(), comp
            )


class TestCutFunctionLaws:
    @pytest.mark.parametrize("seed", range(6))
    def test_submodular_and_posimodular(self, seed):
        g = random_graph(seed, 5, 10)
        F = g.all_edge_ids()
        masks = list(range(1, (1 << g.n) - 1))
        for a, b in itertools.combinations(masks[:18], 2):
            da = boundary_counts(g, F, a)[1]
            db = boundary_counts(g, F, b)[1]
            d_union = boundary_counts(g, F, a | b)[1]
            d_inter = boundary_counts(g, F, a & b)[1]
            d_ab = boundary_counts(g, F, a & ~b)[1]
            d_ba = boundary_counts(g, F, b & ~a)[1]
            assert da + db >= d_inter + d_union
            assert da + db >= d_ab + d_ba


class TestComponents:
    def test_empty_edge_set(self):
        g = four_cycle()
        assert connected_components(g, frozenset()) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_spanning_tree_one_component(self):
        g = four_cycle()
        assert len(connected_components(g, {0, 1, 2})) == 1


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FaultGraph(3, [(0, 0, 1.0, "safe")])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            FaultGraph(3, [(0, 1, -1.0, "safe")])

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="not finite"):
            FaultGraph(2, [(0, 1, cost, "safe")])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            FaultGraph(3, [(0, 5, 1.0, "safe")])

    def test_bad_safety_label(self):
        with pytest.raises(ValueError):
            FaultGraph(3, [(0, 1, 1.0, "sorta")])

    def test_safety_partition_total(self):
        g = four_cycle()
        assert g.safe_ids | unsafe_ids(g) == g.all_edge_ids()
        assert not (g.safe_ids & unsafe_ids(g))


class TestCutEnumeration:
    def test_spanning_masks_cover_each_cut_once(self):
        n = 5
        seen = set()
        for mask in range(1, 1 << (n - 1)):
            comp = ((1 << n) - 1) ^ mask
            key = frozenset({mask, comp})
            assert key not in seen
            seen.add(key)
        assert len(seen) == 2 ** (n - 1) - 1

    def test_st_masks_separate(self):
        n, s, t = 5, 1, 3
        masks = list(st_cut_masks(n, s, t))
        assert len(masks) == 2 ** (n - 2)
        for mask in masks:
            assert (mask >> s) & 1 and not (mask >> t) & 1

    def test_st_masks_order(self):
        # LP separation breaks ties on this order.
        for n in range(2, 10):
            for s, t in itertools.permutations(range(n), 2):
                assert list(st_cut_masks(n, s, t)) == list(nested_st_masks(n, s, t))


class TestFailureSets:
    def test_order_is_by_size_then_combinations(self):
        for m in range(6):
            for width in range(-1, m + 2):
                nested = [
                    combo
                    for size in range(width + 1)
                    for combo in itertools.combinations(range(m), size)
                ]
                assert list(failure_sets(m, width)) == nested

    def test_budget_is_exact(self, monkeypatch):
        # 1 + 7 + 21 + 35 subsets of at most 3 of 7 edges.
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "64")
        assert len(list(failure_sets(7, 3))) == 64
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "63")
        with pytest.raises(EnumerationTooLarge, match="^64 failure sets exceed the enumeration budget$"):
            failure_sets(7, 3)

    def test_width_above_m_lists_every_subset_at_once(self):
        # A subset of range(m) has at most m elements; counting C(m, k) up
        # to a width of 10^12 used to hang.
        assert list(failure_sets(3, 10**12)) == list(failure_sets(3, 3))
        assert len(list(failure_sets(3, 10**12))) == 8
