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

Counters so far, each reported once per :func:`faultnet.exact.exact_solve`
search:
- ``exact.nodes``: DFS nodes entered;
- ``exact.checks``: feasibility tests of the chosen set and of the pool,
  one per node past the cost check that is not an exclusion child (which
  takes its parent's answer) and one per exclusion tried, plus one per
  edge of the greedy seed;
- ``exact.bounds``: packing bounds computed (an exclusion child that takes
  its parent's packing computes none);
- ``exact.prunes``: nodes whose subtree the degree or the packing bound
  cut.
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
