"""The packed cut kernel against single-cut counts, and its ownership.

The kernel answers cut questions for every algorithm module; union-find
connectivity stays with the independent oracles.
"""

import ast
import re
from pathlib import Path
from random import Random

import pytest

import faultnet
from faultnet.cuts import (
    Boundary,
    Layout,
    all_cuts,
    crossing_table,
    cut_index,
    first_mask,
    masks,
    predicate,
    separating,
    side,
)
from faultnet.graph import MAX_SWEEP_N, FaultGraph
from oracle_utils import boundary_counts, layout_count


def bit(cuts, mask):
    return (cuts >> (mask - 1)) & 1 == 1


def at_least(counts, packed, c):
    """The cut set of cuts whose packed counts read at least c."""
    return counts.layout.compact(counts.layout.at_least(packed, c))


def equal(counts, a, b):
    return counts.layout.compact(counts.layout.equal(a, b))


def test_side_lists_the_cuts_containing_each_vertex():
    for n in range(1, 9):
        ncuts = (1 << (n - 1)) - 1
        assert all_cuts(n) == (1 << ncuts) - 1
        for v in range(n):
            assert [bit(side(n)[v], c) for c in range(1, ncuts + 1)] == [
                bool((c >> v) & 1) for c in range(1, ncuts + 1)
            ]


def test_packed_side_spreads_side_to_the_low_bit_of_each_field():
    for n in range(1, 9):
        ncuts = (1 << (n - 1)) - 1
        for width in range(1, 6):
            lay = Layout(n, width)
            assert lay.ones == sum(1 << (i * width) for i in range(ncuts))
            assert lay.guards == lay.ones << (width - 1)
            assert lay.compact(lay.guards) == all_cuts(n)
            for v in range(n):
                assert lay.side[v] == sum(
                    1 << ((c - 1) * width) for c in range(1, ncuts + 1) if (c >> v) & 1
                )
                assert lay.compact(lay.side[v] << (width - 1)) == side(n)[v]


def test_side_and_packed_layout_at_the_sweep_cap():
    n = MAX_SWEEP_N
    rng = Random(24)
    picks = [rng.randrange(1, 1 << (n - 1)) for _ in range(40)] + [1, (1 << (n - 1)) - 1]
    try:
        sd = side(n)
        assert sd[n - 1] == 0
        assert all(sd[v].bit_length() <= (1 << (n - 1)) - 1 for v in range(n))
        lay = Layout(n, 2)
        for c in picks:
            for v in range(n):
                assert bit(sd[v], c) == bool((c >> v) & 1)
                assert layout_count(lay, lay.side[v], c - 1) == (c >> v) & 1
        assert lay.ones.bit_length() == 2 * ((1 << (n - 1)) - 2) + 1
        assert lay.compact(lay.side[n - 2] << 1) == sd[n - 2]
    finally:
        side.cache_clear()  # about 24 MB at this n


def _random_case(rng):
    n = rng.randint(2, 6)
    specs = []
    for _ in range(rng.randint(1, 16)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, 1.0, rng.choice(("safe", "unsafe"))))
    return n, FaultGraph(n, specs)


def test_packed_counts_match_single_cut_counts_under_adds_and_removes():
    rng = Random(7)
    for _ in range(60):
        n, g = _random_case(rng)
        F = [eid for eid in range(g.m) if rng.random() < 0.8]
        counts = Boundary(g, F)
        dropped = [eid for eid in F if rng.random() < 0.3]
        for eid in dropped:
            counts.remove(eid)
        kept = [eid for eid in F if eid not in dropped]
        for c in range(-1, 7):
            for mask in range(1, 1 << (n - 1)):
                safe, total = boundary_counts(g, kept, mask)
                assert bit(at_least(counts, counts.total, c), mask) == (total >= c)
                assert bit(counts.exactly(counts.total, c), mask) == (total == c)
                assert bit(at_least(counts, counts.safe, c), mask) == (safe >= c)
                assert bit(counts.exactly(counts.safe, c), mask) == (safe == c)
                s, t = rng.sample(range(n), 2)
                sep = bool((mask >> s) & 1) != bool((mask >> t) & 1)
                assert bit(separating(n, s, t), mask) == sep


def test_packed_counts_equal_matches_single_cut_counts_under_adds_and_removes():
    rng = Random(9)
    for _ in range(60):
        n, g = _random_case(rng)
        counts = [Boundary(g), Boundary(g)]
        members = [set(), set()]
        for _ in range(rng.randint(1, 30)):
            which, eid = rng.randrange(2), rng.randrange(g.m)
            if eid in members[which]:
                counts[which].remove(eid)
                members[which].discard(eid)
            else:
                counts[which].add(eid)
                members[which].add(eid)
            total_equal = equal(counts[0], counts[0].total, counts[1].total)
            assert total_equal == equal(counts[0], counts[1].total, counts[0].total)
            safe_equal = equal(counts[0], counts[0].safe, counts[1].safe)
            empty = equal(counts[0], counts[0].total, 0)
            # Failure sets: empty, inside the set, partly outside it, and a
            # superset of it.
            inner = {eid for eid in members[0] if rng.random() < 0.5}
            outer = set(rng.sample(range(g.m), rng.randint(1, g.m)))
            fails = [set(), inner, inner | outer, members[0] | outer]
            cut_off = [counts[0].layout.compact(counts[0].cut_off(F)) for F in fails]
            for mask in range(1, 1 << (n - 1)):
                safe0, total0 = boundary_counts(g, members[0], mask)
                safe1, total1 = boundary_counts(g, members[1], mask)
                assert bit(total_equal, mask) == (total0 == total1)
                assert bit(safe_equal, mask) == (safe0 == safe1)
                assert bit(empty, mask) == (total0 == 0)
                for F, off in zip(fails, cut_off):
                    alive = boundary_counts(g, members[0] - F, mask)[1]
                    assert bit(off, mask) == (alive == 0)


def test_packed_counts_count_matches_single_cut_counts_under_adds_and_removes():
    rng = Random(11)
    for _ in range(60):
        n, g = _random_case(rng)
        counts = Boundary(g)
        members = set()
        for _ in range(rng.randint(1, 30)):
            eid = rng.randrange(g.m)
            if eid in members:
                counts.remove(eid)
                members.discard(eid)
            else:
                counts.add(eid)
                members.add(eid)
            lay = counts.layout
            for mask in range(1, 1 << (n - 1)):
                assert (layout_count(lay, counts.safe, mask - 1), layout_count(lay, counts.total, mask - 1)) == (
                    boundary_counts(g, members, mask)
                )


def test_crossing_table_is_built_once_per_graph_and_read_only():
    g = FaultGraph(4, [(0, 1, 1, "safe"), (1, 2, 1, "unsafe"), (2, 3, 1, "safe")])
    # Same n and m, other edges: the table follows the edges, not the shape.
    h = FaultGraph(4, [(0, 3, 1, "unsafe"), (1, 2, 1, "unsafe"), (0, 2, 1, "safe")])
    cross, safe = crossing_table(g)
    assert crossing_table(g)[0] is cross
    assert Boundary(g).cross is cross and Boundary(g, [0]).cross is cross
    assert crossing_table(h) != (cross, safe)
    lay = Boundary(h).layout
    for graph in (g, h):
        got_cross, got_safe = crossing_table(graph)
        assert got_cross == tuple(lay.side[e.u] ^ lay.side[e.v] for e in graph.edges)
        assert got_safe == tuple(e.safe for e in graph.edges)
    assert safe == (True, False, True)
    with pytest.raises(TypeError):
        cross[0] = 0
    with pytest.raises(TypeError):
        safe[0] = False
    with pytest.raises(TypeError):
        Boundary(g).cross[1] = 0
    assert crossing_table(g) == (cross, safe)


def test_thresholds_at_the_field_width_edges():
    # Every edge leaves vertex 0, so the cut {0} counts all m of them: the
    # largest count a field must hold, at each m where the width changes.
    for m in (0, 1, 2, 3, 4, 7, 8, 15, 16):
        for n in (2, 4):
            specs = [(0, 1 + i % (n - 1), 1.0, ("safe", "unsafe")[i % 3 == 2]) for i in range(m)]
            g = FaultGraph(n, specs)
            counts = Boundary(g, range(m))
            lay = counts.layout
            assert lay.width == m.bit_length() + 1
            assert counts.total & lay.guards == 0
            assert layout_count(lay, counts.total, 0) == m
            top = 1 << (lay.width - 1)
            for step in range(m + 1):
                members = range(step, m)
                for c in (-1, 0, 1, m - 1, m, m + 1, top - 1, top):
                    for mask in range(1, 1 << (n - 1)):
                        safe, total = boundary_counts(g, members, mask)
                        assert bit(at_least(counts, counts.total, c), mask) == (total >= c)
                        assert bit(at_least(counts, counts.safe, c), mask) == (safe >= c)
                        assert bit(counts.exactly(counts.total, c), mask) == (total == c)
                        assert bit(counts.exactly(counts.safe, c), mask) == (safe == c)
                        for q in (0, 1, 2):
                            short = safe < c and total < c + q
                            assert bit(counts.deficient(c, q), mask) == short
                            tight = total == c + q - 1 and safe < c
                            assert bit(counts.tight(c, q), mask) == tight
                if step < m:
                    counts.remove(step)
            assert counts.total == counts.safe == 0


def test_scope_is_the_guard_form_of_the_separating_sets():
    rng = Random(11)
    for n in range(2, 9):
        for width in (1, 2, 5):
            lay = Layout(n, width)
            assert lay.scope(()) == 0
            for _ in range(6):
                pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
                want = 0
                for s, t in pairs:
                    want |= separating(n, s, t)
                got = lay.scope(pairs)
                assert got & ~lay.guards == 0
                assert lay.compact(got) == want
                assert lay.scope(pairs[:1]) == lay.scope([pairs[0][::-1]])


def test_decoding_and_membership_cover_both_sides():
    rng = Random(8)
    for n in range(2, 7):
        full = (1 << n) - 1
        cuts = rng.getrandbits((1 << (n - 1)) - 1)
        named = masks(n, cuts)
        assert named == sorted(named) and all(not (m >> (n - 1)) & 1 for m in named)
        member = predicate(n, cuts)
        assert [m for m in range(1 << n) if member(m)] == sorted(
            named + [full ^ m for m in named]
        )
        for s in range(n):
            s_sides = masks(n, cuts, s)
            assert sorted(full ^ m if (m >> s) & 1 == 0 else m for m in named) == s_sides
            assert [m for m in range(1 << n) if predicate(n, cuts, s)(m)] == s_sides
        assert cut_index(n, 0) == cut_index(n, full) == -1


def test_first_mask_is_the_first_decoded_s_side():
    rng = Random(12)
    for n in range(2, 8):
        ncuts = (1 << (n - 1)) - 1
        for _ in range(40):
            cuts = rng.getrandbits(ncuts) or 1
            for s in range(n):
                assert first_mask(n, cuts, s) == masks(n, cuts, s)[0]
                # Sets whose s-sides are all complemented named sides.
                without_s = cuts & ~side(n)[s]
                if without_s:
                    assert first_mask(n, without_s, s) == masks(n, without_s, s)[0]


# ((x >> a) ^ (x >> b)) & 1 with any operands: "does this edge cross this cut".
CROSSING_IDIOM = re.compile(r">>\s*[\w.]+\s*\)\s*\^\s*\(.*>>\s*[\w.]+\s*\)\s*\)\s*&\s*1")
# cuts.py owns the all-cut sweeps and graph.py answers single-cut queries.
IDIOM_ALLOWED = {"cuts.py", "graph.py"}


def test_crossing_idiom_stays_in_the_kernel_modules():
    package = Path(faultnet.__file__).parent
    found = {
        path.name
        for path in package.glob("*.py")
        if CROSSING_IDIOM.search(path.read_text(encoding="utf-8"))
    }
    assert "graph.py" in found  # the pattern still recognises the idiom
    assert found <= IDIOM_ALLOWED


# Layout.equal of two packed counts, a failure set's crossing sets summed
# into one, or the nonzero offset added to a packed count: "which cuts does
# this failure set cut off", Boundary.cut_off.  exact._Checker.first_bad
# keeps one inline copy of Layout.cut_off, to save a call per scenario.
ZERO_CUT_IDIOM = re.compile(r"\.equal\(|\+=\s*cross\[|\+\s*(?:self\.)?nonzero\b")
ZERO_CUT_COPIES = {("exact.py", "_Checker")}


def test_zero_cut_idiom_stays_in_the_kernel():
    package = Path(faultnet.__file__).parent
    found = set().union(*(_matching_definitions(path, ZERO_CUT_IDIOM) for path in package.glob("*.py")))
    assert ("cuts.py", "Layout") in found  # the pattern still recognises the idiom
    assert {entry for entry in found if entry[0] != "cuts.py"} == ZERO_CUT_COPIES


UNION_FIND = re.compile(r"\b(same_component|connected_components|component_labels)\b")
# graph.py defines union-find connectivity, oracles.py keeps it as the
# reference the cut kernel is tested against, and __init__.py re-exports
# graph's public names.
UNION_FIND_ALLOWED = {"graph.py", "oracles.py", "__init__.py"}


def test_union_find_connectivity_stays_in_the_oracle_modules():
    package = Path(faultnet.__file__).parent
    found = {
        path.name
        for path in package.glob("*.py")
        if UNION_FIND.search(path.read_text(encoding="utf-8"))
    }
    assert {"graph.py", "oracles.py"} <= found  # the pattern still matches
    assert found <= UNION_FIND_ALLOWED


# A read of the enumeration budget.  graph.py defines it, checks every cut
# sweep in guard_sweep, and checks every failure-set listing in
# failure_sets.  A read anywhere else is a second copy of a guard.
BUDGET_READ = re.compile(r"\benumeration_budget\(")
BUDGET_READERS = {
    ("graph.py", "enumeration_budget"),
    ("graph.py", "guard_sweep"),
    ("graph.py", "failure_sets"),
}


# A listing of subsets, spelt with or without its module.  graph.failure_sets
# is the one listing, behind the budget check; the relative and flexible
# expansions and the gap experiment ask it.  The bulk and relative level
# oracles, the bulk precondition and is_rsndp_feasible read violating sets
# off cut boundaries and list none.
COMBINATIONS = re.compile(r"\bcombinations\(")
COMBINATIONS_CALLERS = {("graph.py", "failure_sets")}


def _matching_definitions(path: Path, pattern: re.Pattern) -> set[tuple[str, str]]:
    """(file name, top-level function or class) of each line of the module
    that matches; "" for a line outside them."""
    text = path.read_text(encoding="utf-8")
    spans = [
        (node.lineno, node.end_lineno, node.name)
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return {
        (path.name, next((name for lo, hi, name in spans if lo <= lineno <= hi), ""))
        for lineno, line in enumerate(text.splitlines(), 1)
        if pattern.search(line)
    }


def test_each_budget_is_read_in_one_place():
    package = Path(faultnet.__file__).parent
    found = set().union(*(_matching_definitions(path, BUDGET_READ) for path in package.glob("*.py")))
    assert ("graph.py", "guard_sweep") in found  # the pattern still matches
    assert found <= BUDGET_READERS


def test_subsets_are_listed_only_where_allowed():
    package = Path(faultnet.__file__).parent
    found = set().union(*(_matching_definitions(path, COMBINATIONS) for path in package.glob("*.py")))
    assert ("graph.py", "failure_sets") in found  # the pattern still matches
    assert found <= COMBINATIONS_CALLERS


def test_checker_sees_a_bare_combinations_call(tmp_path):
    module = tmp_path / "lib.py"
    module.write_text(
        "from itertools import combinations\n\n"
        "def pairs(xs):\n    return list(combinations(xs, 2))\n\n"
        "def sized(xs):\n    return len(xs)\n"
    )
    assert _matching_definitions(module, COMBINATIONS) == {("lib.py", "pairs")}
