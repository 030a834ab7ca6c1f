import json
from dataclasses import replace

import pytest

from faultnet import instances
from faultnet.bench import run_cell
from faultnet.cli import main
from faultnet.errors import CannotSatisfyFeasibility, ParseError
from faultnet.graph import MAX_SWEEP_N, FaultGraph
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
from oracle_utils import boundary_counts, unsafe_ids

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
        # Graph and problem validation used to reach the caller as a plain
        # ValueError; the message is kept.
        assert "e 0 0 2 " in good and "flexpair 0 1 1 1\n" in good
        with pytest.raises(ParseError, match="^edge 0: self-loops are not allowed$"):
            parse(good.replace("e 0 0 2 ", "e 0 2 2 "))
        with pytest.raises(ParseError, match="^flex problem with empty requirements$"):
            parse(good.replace("flexpair 0 1 1 1\n", ""))
        # A requirement after 'end' used to be dropped without a word; blank
        # lines there stay allowed.
        assert parse(good + "\n\n") == parse(good)
        with pytest.raises(ParseError, match="^unexpected line after 'end': 'flexpair 0 2 1 1'$"):
            parse(good + "flexpair 0 2 1 1\n")
        # A scenario pair (v, v) used to parse, then fail only in the LP.
        bulk = (
            "faultnet-instance 1\nvertices 2\nedges 1\ne 0 0 1 1.0 safe\n"
            "problem bulk\nscenario - | 0-0\nend\n"
        )
        parse(bulk.replace("0-0", "0-1"))
        with pytest.raises(ParseError, match="s == t in bulk scenario$"):
            parse(bulk)


class TestFixedInstances:
    def test_appendix_a_shape(self):
        inst = appendix_a_instance(2)
        assert inst.n == 5 and len(inst.edge_specs) == 9
        g = inst.to_graph()
        assert len(unsafe_ids(g)) == 6 and len(g.safe_ids) == 3

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

    @pytest.mark.parametrize(
        "params, name",
        [
            ({"problem": "bulk", "width": -1}, "width"),
            ({"problem": "bulk", "width": 13}, "width"),
            ({"problem": "bulk", "pairs": 0}, "pairs"),
            ({"problem": "rsndp", "pairs": 0}, "pairs"),
            ({"problem": "rsndp", "r": 0}, "r"),
            ({"safe_prob": 7}, "safe_prob"),
            ({"safe_prob": -0.5}, "safe_prob"),
        ],
        ids=[
            "bulk-negative-width",
            "bulk-width-above-m",
            "bulk-no-pairs",
            "rsndp-no-pairs",
            "rsndp-r-zero",
            "safe-prob-above-one",
            "safe-prob-negative",
        ],
    )
    def test_out_of_range_parameter_is_named(self, capsys, params, name):
        # None of these used to name its parameter: the bulk and rsndp-r
        # values failed inside the random module ("empty range for
        # randrange()", "Sample larger than population"), rsndp pairs 0 as a
        # problem with empty requirements, and the safe_prob values passed.
        with pytest.raises(ValueError, match=f"^{name} "):
            generate("random-multigraph", n=5, m=12, seed=0, params=params)
        argv = ["gen", "--kind", "random-multigraph", "--n", "5", "--m", "12"]
        assert main([*argv, "--params", json.dumps(params)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"bad parameters: {name} ")

    @pytest.mark.parametrize("kind", ["random-multigraph", "random-geometric"])
    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_vertex_count_below_two_is_named(self, capsys, kind, n):
        # n = 1 used to hang: its one skeleton cycle is a self-loop, and the
        # extras loop redrew u == v forever.  n <= 0 failed inside the
        # random module ("empty range for randrange()").
        with pytest.raises(ValueError, match="^n "):
            generate(kind, n=n, m=3, seed=0)
        assert main(["gen", "--kind", kind, "--n", str(n), "--m", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("bad parameters: n ")

    def test_appendix_a_k_stays_within_the_sweep_cap(self, capsys):
        # n = k + 3, so k = 21 is the largest instance the other commands
        # accept; k = 30 used to write a 33-vertex file.
        assert appendix_a_instance(21).to_graph().n == MAX_SWEEP_N
        with pytest.raises(ValueError, match="^k "):
            appendix_a_instance(22)
        assert main(["gen", "--kind", "appendix-a", "--params", json.dumps({"k": 30})]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("bad parameters: k ")

    def test_unsatisfiable_requirement_exhausts_the_attempts(self, capsys):
        # Four edges on four vertices never give one pair 5 edge-disjoint paths.
        params = {"problem": "flex-sndp", "pairs": [[0, 1, 5, 0]]}
        with pytest.raises(CannotSatisfyFeasibility, match="after 200 attempts"):
            generate("random-multigraph", n=4, m=4, seed=0, params=params)
        argv = ["gen", "--kind", "random-multigraph", "--n", "4", "--m", "4"]
        assert main([*argv, "--params", json.dumps(params)]) == 2
        assert capsys.readouterr().err.startswith("infeasible: no feasible random-multigraph")
