from dataclasses import replace

import pytest

from faultnet import instances
from faultnet.bench import run_cell
from faultnet.errors import ParseError
from faultnet.graph import FaultGraph, boundary_counts
from faultnet.instances import (
    appendix_a_instance,
    figure_1_instance,
    figure_3_instance,
    figure_4_instance,
    generate,
    parse,
    serialize,
)
from faultnet.oracles import check_problem_feasible, fgc_requirements, is_flex_feasible

A_MASK = 0b0011  # {x1, x2}
B_MASK = 0b0110  # {x2, x3}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "inst",
        [
            appendix_a_instance(2),
            figure_1_instance(),
            generate(
                "random-multigraph",
                n=6,
                m=12,
                seed=7,
                params={"problem": "fgc", "p": 1, "q": 1},
            ),
            generate(
                "random-multigraph",
                n=6,
                m=12,
                seed=7,
                params={"problem": "bulk", "width": 2, "scenarios": 3},
            ),
            generate(
                "random-multigraph",
                n=6,
                m=12,
                seed=7,
                params={"problem": "rsndp", "r": 2, "pairs": 2},
            ),
        ],
    )
    def test_parse_serialize_identity(self, inst):
        assert parse(serialize(inst)) == inst

    def test_generation_deterministic(self):
        a = generate(
            "random-multigraph", n=6, m=12, seed=3, params={"problem": "fgc", "p": 2, "q": 1}
        )
        b = generate(
            "random-multigraph", n=6, m=12, seed=3, params={"problem": "fgc", "p": 2, "q": 1}
        )
        assert serialize(a) == serialize(b)

    def test_parse_builds_the_graph_once(self, monkeypatch):
        built = []

        def counting_graph(n, specs):
            built.append(n)
            return FaultGraph(n, specs)

        params = {"problem": "fgc", "p": 2, "q": 1}
        text = serialize(generate("random-multigraph", n=6, m=12, seed=7, params=params))
        monkeypatch.setattr(instances, "FaultGraph", counting_graph)
        inst = parse(text)  # validates by building the graph
        assert len(built) == 1
        g = inst.to_graph()
        assert inst.to_graph() is g and len(built) == 1
        # One bench cell shares the parsed graph through solve and verify.
        rec = run_cell(text, "fgc-21", "fgc", seed=0, want_exact=True)
        assert not rec.error and rec.feasible and len(built) == 2
        # Equality, hashing and repr ignore the cached graph, and a replaced
        # copy builds its own.
        twin = parse(text)
        assert twin == inst and hash(twin) == hash(inst) and "_graph" not in repr(inst)
        copy = replace(inst, problem=inst.problem)
        assert copy == inst and copy.to_graph() is not g
        assert copy.to_graph().edges == g.edges and len(built) == 4

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("not-an-instance 1\n")
        good = serialize(appendix_a_instance(1))
        with pytest.raises(ParseError):
            parse(good.replace("end", ""))
        with pytest.raises(ParseError):
            parse(good.replace("unsafe", "grey"))


class TestFixedInstances:
    def test_appendix_a_shape(self):
        inst = appendix_a_instance(2)
        assert inst.n == 5 and len(inst.edge_specs) == 9
        g = inst.to_graph()
        assert len(g.unsafe_ids) == 6 and len(g.safe_ids) == 3

    def test_figure_1_caption(self):
        g = figure_1_instance().to_graph()
        F = g.all_edge_ids()
        assert boundary_counts(g, F, A_MASK) == (2, 4)
        assert boundary_counts(g, F, B_MASK) == (2, 4)
        assert boundary_counts(g, F, A_MASK | B_MASK)[0] == 3
        assert boundary_counts(g, F, B_MASK & ~A_MASK)[0] == 3
        ok, _ = is_flex_feasible(g, fgc_requirements(4, 3, 1), F)
        assert ok

    def test_figure_3_caption(self):
        p = 3
        g = figure_3_instance().to_graph()
        F = g.all_edge_ids()
        assert boundary_counts(g, F, A_MASK) == (p - 1, p + 3)
        assert boundary_counts(g, F, B_MASK) == (p - 1, p + 3)
        assert boundary_counts(g, F, A_MASK | B_MASK)[0] == p
        assert boundary_counts(g, F, B_MASK & ~A_MASK)[0] == p
        assert boundary_counts(g, F, A_MASK & B_MASK)[1] == p + 4
        assert boundary_counts(g, F, A_MASK & ~B_MASK)[1] == p + 4
        ok, _ = is_flex_feasible(g, fgc_requirements(4, 3, 3), F)
        assert ok

    def test_figure_4_caption(self):
        g = figure_4_instance().to_graph()
        F = g.all_edge_ids()
        assert boundary_counts(g, F, A_MASK) == (3, 8)
        assert boundary_counts(g, F, B_MASK) == (3, 8)
        assert boundary_counts(g, F, A_MASK | B_MASK)[0] >= 4
        assert boundary_counts(g, F, B_MASK & ~A_MASK)[0] >= 4
        assert boundary_counts(g, F, A_MASK & B_MASK)[1] == 9
        assert boundary_counts(g, F, A_MASK & ~B_MASK)[1] == 9
        ok, _ = is_flex_feasible(g, fgc_requirements(4, 4, 4), F)
        assert ok


class TestGenerators:
    @pytest.mark.parametrize(
        "params",
        [
            {"problem": "fgc", "p": 2, "q": 2},
            {"problem": "fgc", "p": 2, "q": 2, "skeleton": "mixed"},
            {"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
            {"problem": "bulk", "width": 2, "scenarios": 4},
            {"problem": "rsndp", "r": 3, "pairs": 2},
        ],
    )
    def test_certified_feasible(self, params):
        inst = generate("random-multigraph", n=6, m=14, seed=11, params=params)
        g = inst.to_graph()
        ok, _ = check_problem_feasible(g, inst.problem, g.all_edge_ids())
        assert ok

    def test_geometric_kind(self):
        inst = generate(
            "random-geometric",
            n=6,
            m=13,
            seed=5,
            params={"problem": "fgc", "p": 1, "q": 1},
        )
        g = inst.to_graph()
        # geometric costs are euclidean distances in the unit square
        assert all(0 < e.cost < 1.4143 for e in g.edges)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("mystery", n=5, m=8, seed=0)
