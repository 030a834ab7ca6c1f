"""The bit-plane cut kernel against single-cut counts, and its ownership.

The kernel answers cut questions for every algorithm module; union-find
connectivity stays with the independent oracles.
"""

import re
from pathlib import Path
from random import Random

import faultnet
from faultnet.cuts import (
    Boundary,
    Planes,
    all_cuts,
    cut_index,
    masks,
    predicate,
    separating,
    side,
)
from faultnet.graph import FaultGraph, boundary_counts


def bit(cuts, mask):
    return (cuts >> (mask - 1)) & 1 == 1


def test_side_lists_the_cuts_containing_each_vertex():
    for n in range(1, 9):
        ncuts = (1 << (n - 1)) - 1
        assert all_cuts(n) == (1 << ncuts) - 1
        for v in range(n):
            assert [bit(side(n)[v], c) for c in range(1, ncuts + 1)] == [
                bool((c >> v) & 1) for c in range(1, ncuts + 1)
            ]


def test_planes_match_single_cut_counts_under_adds_and_removes():
    rng = Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        specs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, 1.0, rng.choice(("safe", "unsafe"))))
        g = FaultGraph(n, specs)
        F = [eid for eid in range(g.m) if rng.random() < 0.8]
        counts = Boundary(g, F)
        dropped = [eid for eid in F if rng.random() < 0.3]
        for eid in dropped:
            counts.remove(eid)
        kept = [eid for eid in F if eid not in dropped]
        for c in range(-1, 7):
            for mask in range(1, 1 << (n - 1)):
                safe, total = boundary_counts(g, kept, mask)
                assert bit(counts.total.at_least(c), mask) == (total >= c)
                assert bit(counts.total.exactly(c), mask) == (total == c)
                assert bit(counts.safe.at_least(c), mask) == (safe >= c)
                assert bit(counts.safe.exactly(c), mask) == (safe == c)
                s, t = rng.sample(range(n), 2)
                sep = bool((mask >> s) & 1) != bool((mask >> t) & 1)
                assert bit(separating(n, s, t), mask) == sep


def test_planes_equal_matches_single_cut_counts_under_adds_and_removes():
    rng = Random(9)
    for _ in range(60):
        n = rng.randint(2, 6)
        specs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, 1.0, rng.choice(("safe", "unsafe"))))
        g = FaultGraph(n, specs)
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
            total_equal = counts[0].total.equal(counts[1].total)
            assert total_equal == counts[1].total.equal(counts[0].total)
            safe_equal = counts[0].safe.equal(counts[1].safe)
            empty = counts[0].total.equal(Planes(all_cuts(n)))
            for mask in range(1, 1 << (n - 1)):
                safe0, total0 = boundary_counts(g, members[0], mask)
                safe1, total1 = boundary_counts(g, members[1], mask)
                assert bit(total_equal, mask) == (total0 == total1)
                assert bit(safe_equal, mask) == (safe0 == safe1)
                assert bit(empty, mask) == (total0 == 0)


def test_planes_count_matches_single_cut_counts_under_adds_and_removes():
    rng = Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        specs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, 1.0, rng.choice(("safe", "unsafe"))))
        g = FaultGraph(n, specs)
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
            for mask in range(1, 1 << (n - 1)):
                assert (counts.safe.count(mask - 1), counts.total.count(mask - 1)) == (
                    boundary_counts(g, members, mask)
                )


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


UNION_FIND = re.compile(r"\b(same_component|connected_components)\b")
# graph.py defines union-find connectivity, oracles.py keeps it as the
# reference the cut kernel is tested against, bulk.py tests fundamental
# cycles with it, and __init__.py re-exports graph's public names.
UNION_FIND_ALLOWED = {"graph.py", "oracles.py", "bulk.py", "__init__.py"}


def test_union_find_connectivity_stays_in_the_oracle_modules():
    package = Path(faultnet.__file__).parent
    found = {
        path.name
        for path in package.glob("*.py")
        if UNION_FIND.search(path.read_text(encoding="utf-8"))
    }
    assert {"graph.py", "oracles.py"} <= found  # the pattern still matches
    assert found <= UNION_FIND_ALLOWED
