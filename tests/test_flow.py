import itertools
from collections import Counter
from random import Random

import pytest

from faultnet.errors import InfeasibleDemand, SourceEqualsSink
from faultnet.exact import exact_solve
from faultnet.flow import flow_decompose, min_cost_flow
from faultnet.graph import FaultGraph, boundary
from faultnet.instances import generate
from oracle_utils import brute_min_cut, max_flow_min_cut, random_graph


class TestMaxFlow:
    def test_unit_four_cycle_opposite(self):
        g = FaultGraph(
            4,
            [(0, 1, 1, "safe"), (1, 2, 1, "safe"), (2, 3, 1, "unsafe"), (3, 0, 1, "unsafe")],
        )
        value, flow, cut = max_flow_min_cut(g, 1, 0, 2)
        assert value == 2
        assert flow.value == 2

    def test_cap_seed_supports_demand_four(self):
        # Capacities 2 safe / 1 unsafe on a min-cost 4-flow support: the
        # seed satisfies the capacitated requirement, so max flow >= 4.
        inst = generate(
            "random-multigraph",
            n=6,
            m=14,
            seed=11,
            params={"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        caps = [2 if e.safe else 1 for e in g.edges]
        seed = min_cost_flow(g, caps, 0, 5, 4).support()
        seed_caps = [caps[eid] if eid in seed else 0 for eid in range(g.m)]
        value, _flow, _cut = max_flow_min_cut(g, seed_caps, 0, 5)
        assert value >= 4

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_min_cut(self, seed):
        g = random_graph(seed + 40, 8, 16)
        caps = [1 + (eid % 3) for eid in range(g.m)]
        value, flow, cut = max_flow_min_cut(g, caps, 0, 7)
        assert value == brute_min_cut(g, caps, 0, 7)
        # The returned cut is itself minimum.
        cut_cap = sum(caps[eid] for eid in boundary(g, g.all_edge_ids(), cut))
        assert cut_cap == value

    def test_source_equals_sink(self):
        g = random_graph(1, 4, 6)
        with pytest.raises(SourceEqualsSink):
            max_flow_min_cut(g, 1, 2, 2)


class TestMinCostFlow:
    def test_zero_demand(self):
        g = random_graph(2, 5, 8)
        flow = min_cost_flow(g, 1, 0, 4, 0)
        assert flow.value == 0 and flow.support() == frozenset()

    def test_triangle_cheapest_route(self):
        # Enumerated by hand over all s-t path sets: s-a-t costs 2, direct 10.
        g = FaultGraph(3, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "safe"), (0, 2, 10.0, "safe")])
        flow = min_cost_flow(g, 1, 0, 2, 1)
        cost = sum(g.cost_of(eid) * abs(a) for eid, a in enumerate(flow.amounts))
        assert cost == 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_min_cost_against_path_set_enumeration(self, seed):
        # Unit capacities, demand 2: enumerate all pairs of edge-disjoint
        # s-t paths and take the cheapest union.
        g = random_graph(seed + 7, 6, 10)
        try:
            flow = min_cost_flow(g, 1, 0, 5, 2)
        except InfeasibleDemand:
            pytest.skip("graph has no 2 disjoint paths")
        got = sum(g.cost_of(eid) * abs(a) for eid, a in enumerate(flow.amounts))
        best = None
        ids = sorted(g.all_edge_ids())
        for size in range(2, g.m + 1):
            for combo in itertools.combinations(ids, size):
                sub = frozenset(combo)
                caps = [1 if eid in sub else 0 for eid in range(g.m)]
                value, _f, _c = max_flow_min_cut(g, caps, 0, 5)
                if value >= 2:
                    cost = g.total_cost(sub)
                    if best is None or cost < best:
                        best = cost
        assert abs(got - best) < 1e-9

    def test_cap_seed_cost_within_twice_optimum(self):
        # The 4-flow support under caps 2/1 costs at most twice the exact
        # (2, 2) single-pair optimum.
        for seed in (3, 5, 9):
            inst = generate(
                "random-multigraph",
                n=6,
                m=13,
                seed=seed,
                params={"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
            )
            g = inst.to_graph()
            caps = [2 if e.safe else 1 for e in g.edges]
            seed_set = min_cost_flow(g, caps, 0, 5, 4).support()
            _sol, opt = exact_solve(g, inst.problem)
            assert g.total_cost(seed_set) <= 2 * opt + 1e-9

    def test_infeasible_demand(self):
        g = FaultGraph(3, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "safe")])
        with pytest.raises(InfeasibleDemand):
            min_cost_flow(g, 1, 0, 2, 2)


class TestFlowDecompose:
    def test_single_path(self):
        g = FaultGraph(3, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "safe")])
        flow = min_cost_flow(g, 1, 0, 2, 1)
        assert flow_decompose(g, flow) == [(0, 1)]

    def test_value_four_gives_four_unit_paths(self):
        inst = generate(
            "random-multigraph",
            n=6,
            m=14,
            seed=11,
            params={"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
        )
        g = inst.to_graph()
        caps = [2 if e.safe else 1 for e in g.edges]
        flow = min_cost_flow(g, caps, 0, 5, 4)
        paths = flow_decompose(g, flow)
        assert len(paths) == 4
        for path in paths:
            # each path really walks s to t
            assert g.edges[path[0]].u == 0 or g.edges[path[0]].v == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_recombines_to_flow(self, seed):
        g = random_graph(seed + 60, 7, 14)
        caps = [1 + (eid % 2) for eid in range(g.m)]
        value, flow, _cut = max_flow_min_cut(g, caps, 0, 6)
        if value == 0:
            pytest.skip("disconnected pair")
        paths = flow_decompose(g, flow)
        assert len(paths) == value
        used = Counter()
        for path in paths:
            used.update(path)
        for eid, amount in enumerate(flow.amounts):
            assert used.get(eid, 0) == abs(amount)


class TestNonIntegral:
    def test_non_integral_amounts_rejected(self):
        from faultnet.flow import Flow

        g = FaultGraph(3, [(0, 1, 1.0, "safe"), (1, 2, 1.0, "safe")])
        bad = Flow(0, 2, 1, (0.5, 0.5))
        from faultnet.errors import NonIntegralFlow

        with pytest.raises(NonIntegralFlow):
            flow_decompose(g, bad)


def _integer_multigraph(seed: int):
    """Random multigraph with integer costs and capacities, zeros included."""
    rng = Random(seed)
    n = rng.randint(3, 8)
    specs = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, rng.randint(0, 9), rng.choice(("safe", "unsafe"))))
    caps = [rng.randint(0, 3) for _ in specs]
    return FaultGraph(n, specs), caps, rng


class TestAgainstNetworkx:
    """Each undirected edge is two opposite arcs of the same capacity and
    cost; parallel arcs are merged for networkx's simple-digraph max flow."""

    @pytest.mark.parametrize("seed", range(40))
    def test_max_flow_and_min_cost_flow(self, seed):
        nx = pytest.importorskip("networkx")
        g, caps, rng = _integer_multigraph(seed)
        s, t = 0, g.n - 1
        merged = nx.DiGraph()
        merged.add_nodes_from(range(g.n))
        multi = nx.MultiDiGraph()
        multi.add_nodes_from(range(g.n))
        for e in g.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if merged.has_edge(a, b):
                    merged[a][b]["capacity"] += caps[e.id]
                else:
                    merged.add_edge(a, b, capacity=caps[e.id])
                multi.add_edge(a, b, capacity=caps[e.id], weight=int(e.cost))

        value, flow, cut = max_flow_min_cut(g, caps, s, t)
        assert value == flow.value == nx.maximum_flow_value(merged, s, t)
        assert cut.contains(s) and not cut.contains(t)
        assert sum(caps[eid] for eid in boundary(g, g.all_edge_ids(), cut)) == value

        demand = rng.randint(min(1, value), value)
        multi.nodes[s]["demand"] = -demand
        multi.nodes[t]["demand"] = demand
        expected, _flow_dict = nx.network_simplex(multi)
        cheapest = min_cost_flow(g, caps, s, t, demand)
        assert cheapest.value == demand
        assert sum(g.cost_of(eid) * abs(a) for eid, a in enumerate(cheapest.amounts)) == expected
