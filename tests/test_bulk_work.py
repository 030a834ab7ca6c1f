"""Sampled trees and bulk-driver work pinned across commits.

``bulk.sample_tree`` decides every answer of the bulk, flexible and
relative drivers, and the reference loop in ``oracle_utils`` calls it too,
so a changed tree could pass every comparison of the driver with its
reference.  The first tests pin the trees themselves: a sha256 over
(root, parent vertices, parent edges, depths) of the trees that the
drivers sample on the seed-1 ``bulk-relative`` graphs, and of trees on
zero-cost path graphs and on graphs with parallel edges, where heap ties
decide the tree.  A second sha256 pins the edge order of every tree path
of the workload trees, and a third test checks that each of those paths
depends on the tree's edge set alone, which is what lets the level step
pass over a tree whose edge set an earlier tree of the step had.

The last test reads the bulk driver's work on the seed-1
``bulk-relative`` cell list in ``perfbench/workloads.py``, sized as
``python3 perfbench/run.py --seed 1 --seconds 5`` sizes it, as
``tests/test_search_work.py`` reads the exact search's: the level steps,
sampled trees, trees passed over as repeats and skipped by the path-cost
test, hitting instances, level-oracle evaluations (bulk and relative) and
checks of record ``is_bulk_feasible`` (union-find) and
``is_rsndp_feasible`` (cuts) that the package reports to
:mod:`faultnet.trace`.
A change that lowers them on purpose re-pins them and names each one in
its log.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

run.import_faultnet()

from faultnet import bulk, instances, trace  # noqa: E402
from faultnet.graph import FaultGraph  # noqa: E402
from workloads import WORKLOADS, run_cells  # noqa: E402

SECONDS = 5
WORKLOAD = "bulk-relative"


def tree_digest(trees) -> str:
    """sha256 over (root, parent vertices, parent edges, depths) of each tree."""
    h = hashlib.sha256()
    for tree in trees:
        h.update(repr((tree.root, tree.parent_vertex, tree.parent_edge, tree.depth)).encode())
    return h.hexdigest()


def workload_graphs(count):
    """(graph, algorithm seed) of the first ``count`` seed-1 cells."""
    cells = WORKLOADS[WORKLOAD].make_cells(1, count)
    return [(instances.parse(cell.text).to_graph(), cell.alg_seed) for cell in cells]


def workload_trees():
    """(graph, tree) of every tree the drivers sample at levels 0-2 on the
    first 30 cells (ten of each kind), plus seeds 0-9."""
    out = []
    for g, alg_seed in workload_graphs(30):
        seeds = [bulk._tree_seed(alg_seed, level, t) for level in range(3) for t in range(bulk.TREES)]
        out += [(g, bulk.sample_tree(g, seed=s)) for s in seeds + list(range(10))]
    return out


def test_trees_of_the_workload_graphs_are_pinned():
    trees = [tree for _g, tree in workload_trees()]
    assert len(trees) == 30 * 34
    assert tree_digest(trees) == "4eced53d0cf71cb991f9cb751b2265e2e13f485e0079b3dba2442c8d0e84edd9"


def test_tree_paths_of_the_workload_graphs_are_pinned():
    # The order of a path's edges is the order in which the level step
    # inserts them into H, and so fixes H's iteration order and every cost
    # summed over it.  Every ordered pair of distinct vertices.
    h = hashlib.sha256()
    for g, tree in workload_trees():
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    h.update(repr(tree.path(u, v)).encode())
    assert h.hexdigest() == "3efc250772b7222ed203a64970be3ec150e2fef7ddf4247550b951ce779906e8"


def rerooted(g, tree, root):
    """The tree with ``tree``'s edge set, rooted at ``root``."""
    adjacent = {x: [] for x in range(g.n)}
    for eid in tree.parent_edge:
        if eid >= 0:
            e = g.edges[eid]
            adjacent[e.u].append((e.v, eid))
            adjacent[e.v].append((e.u, eid))
    parent_v, parent_e, depth = [-1] * g.n, [-1] * g.n, [-1] * g.n
    depth[root] = 0
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for y, eid in adjacent[x]:
            if depth[y] < 0:
                parent_v[y], parent_e[y], depth[y] = x, eid, depth[x] + 1
                frontier.append(y)
    return bulk.TreeEmbedding(root, tuple(parent_v), tuple(parent_e), tuple(depth))


def test_tree_paths_depend_on_the_edge_set_alone():
    # The level step reads a tree only through ``path(u, v)``, so two trees
    # with one edge set give it the same H, hitting instance and candidate,
    # and it passes over the second (``bulk.trees_repeated``).  A path is
    # the unique u-v path in walk order from u, whatever the root.
    for g, tree in workload_trees():
        edge_set = frozenset(tree.parent_edge)
        for root in range(g.n):
            other = rerooted(g, tree, root)
            assert frozenset(other.parent_edge) == edge_set
            for u in range(g.n):
                for v in range(g.n):
                    assert other.path(u, v) == tree.path(u, v)


def test_trees_on_zero_cost_paths_are_pinned():
    # Every edge weighs 0, so every distance ties and the heap order alone
    # decides the pops; depths must follow the parents.
    trees = []
    for n in range(2, 8):
        g = FaultGraph(n, [(i, i + 1, 0.0, "safe") for i in range(n - 1)])
        trees += [bulk.sample_tree(g, seed=s) for s in range(20)]
    assert tree_digest(trees) == "c9c12987482179d7f9df4d94a3c5ac48010670a8475013105847b233df0c40ff"


def test_trees_with_parallel_edges_are_pinned():
    # Parallel edges of equal and of zero cost: a triangle, a 4-cycle with
    # a chord, and one pair of vertices.
    graphs = [
        FaultGraph(3, [(0, 1, 1.0, "safe"), (0, 1, 1.0, "unsafe"), (1, 2, 2.0, "safe"),
                       (1, 2, 2.0, "safe"), (0, 2, 3.0, "unsafe")]),
        FaultGraph(4, [(0, 1, 0.0, "safe"), (0, 1, 0.0, "safe"), (1, 2, 1.0, "unsafe"),
                       (2, 3, 0.0, "safe"), (3, 0, 1.0, "safe"), (3, 0, 1.0, "unsafe"),
                       (0, 2, 0.0, "unsafe")]),
        FaultGraph(2, [(0, 1, 0.5, "safe")] * 4 + [(1, 0, 0.0, "unsafe")] * 2),
    ]
    trees = [bulk.sample_tree(g, seed=s) for g in graphs for s in range(40)]
    assert tree_digest(trees) == "68e91f670dec87102f19b7eee11ca716572768d2fe5ffab740b6e3ee80a8d9fc"


# The bulk driver's work, as it reports it to faultnet.trace.
# oracles.bulk_checks: 88 calls by solve_bulk_sndp and 44 by the bench's
# check of each bulk answer.  It read 176 while exact_solve also asked it
# whether G itself is feasible, once per bulk baseline; the search now
# answers that on the cut kernel.  bulk.levels counts relative levels and
# flexible rounds too.  bulk.trees read 2288 while every level drew all
# TREES trees; a level now stops once its kept candidate costs 0.
# bulk.hitting_instances read 602 while a tree whose edge set an earlier
# tree of its level had was evaluated again; such a tree is now passed
# over (bulk.trees_repeated), so only distinct trees build instances.
BULK_CALLS = {
    "bulk.levels": 286,
    "bulk.trees": 1949,
    "bulk.trees_repeated": 374,
    "bulk.trees_skipped": 526,
    "bulk.hitting_instances": 473,
    "oracles.level_evaluations": 505,
    "oracles.bulk_checks": 132,
    "oracles.rsndp_checks": 86,
}


def test_seed_1_bulk_driver_work_is_unchanged():
    workload = WORKLOADS[WORKLOAD]
    cells = workload.make_cells(1, workload.cell_count(SECONDS))
    with trace.recording() as counts:
        outcomes, _wall = run_cells(cells)
    assert [out.error for out in outcomes if out.error] == []
    assert {name: counts[name] for name in BULK_CALLS} == BULK_CALLS
