"""Work counters, recorded per context.

A kernel counts its own work in local ints and reports the totals once per
call with :func:`count`.  Outside :func:`recording` a count is dropped at
the cost of one context-variable read, so the kernels report whether or
not anyone listens.  Inside it, the counts go to the dict that
``recording`` yields, keyed by counter name.

The recorder is a :mod:`contextvars` variable: a recording sees only the
counts made in its own context (a thread, or a ``Context.run``, started
inside it sees none of them), and a recording nested in another adds its
counts to the outer one when it closes.

A recording sees nothing of the worker processes of
``faultnet.bench.bench(jobs > 1)``: their counts stay in their own
processes.

The counters, each reported once per call of the function named, or, for
the exact search, once per search:
- ``exact.nodes``: DFS nodes entered (:func:`faultnet.exact.exact_solve`);
- ``exact.checks``: feasibility tests of the chosen set and of the pool,
  one per node past the cost check that is not an exclusion child (which
  takes its parent's answer) and, in an all-spanning search, has no
  positive degree-table entry (which means it fails), and one per
  exclusion tried, plus one per edge of the greedy seed;
- ``exact.bounds``: packing bounds computed (an exclusion child that takes
  its parent's packing computes none);
- ``exact.prunes``: nodes whose subtree the degree or the packing bound
  cut;
- ``exact.dominated``: exclusions skipped because the chosen set holds a
  dearer parallel edge that the excluded edge dominates;
- ``bulk.levels``: best-of-trees level steps, one per bulk or relative
  level and per flexible round;
- ``bulk.trees``: trees sampled (``sample_tree``);
- ``bulk.trees_repeated``: trees that a level step passes over because
  an earlier tree of the same step had the same edge set, once per step;
- ``bulk.trees_skipped``: trees that a level step skips because their
  paths alone cost more than the kept candidate, once per step;
- ``bulk.hitting_instances``: hitting instances built;
- ``oracles.level_builds``: bulk and relative level oracles built;
- ``oracles.level_evaluations``: calls of those oracles;
- ``oracles.bulk_checks``: ``is_bulk_feasible`` calls, by union-find;
- ``oracles.rsndp_checks``: ``is_rsndp_feasible`` calls, on cuts;
- ``cuts.boundaries``: ``Boundary`` constructions;
- ``cover.covers``: primal-dual covers that return;
- ``cover.steps``: their dual-growth steps, each adding one edge;
- ``cover.drops``: their reverse-delete drops;
- ``flexalg.exact_bases``: ``flex_base`` calls that ran the exact search;
- ``flexalg.ecsndp_bases``: ``flex_base`` calls that ran ``ecsndp_base``;
- ``lp.rounds``: cutting-plane rounds, the last one (which finds no row)
  included, once per run that returns (``faultnet.lp``);
- ``lp.rows``: the rows those runs added;
- ``simplex.pivots``: dual-simplex pivots, once per such cutting-plane run
  and once per ``solve_dense_lp`` call.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_COUNTS: ContextVar[Counter | None] = ContextVar("faultnet_trace_counts", default=None)


def count(name: str, k: int = 1) -> None:
    """Add k to counter ``name`` of the open recording, if there is one."""
    counts = _COUNTS.get()
    if counts is not None:
        counts[name] += k


@contextmanager
def recording() -> Iterator[Counter]:
    """Record the counts made in this context while open.  Yields the
    counter dict; a nested recording's counts are added to it on its exit."""
    outer = _COUNTS.get()
    counts: Counter = Counter()
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)
        if outer is not None:
            outer.update(counts)
