"""The clock every benchmark timing is read from, and the host-speed reference.

Timings are CPU time, not wall time.  The benchmark is one client in one
process, and the package does no I/O, sleeps or waits on the paths it
drives, so a cell's CPU time is the time it takes on a core of its own.  On
a shared virtual machine the wall clock also counts the time the hypervisor
gives the core to another guest (steal time).  Work moved out of the measured
process is still charged: the process clock sums all of its threads, and the
CPU time of child processes is added once they have been reaped.

CPU time alone is not enough on such a host.  There the same instructions
ran up to 1.7 times slower in stretches of minutes, most likely on a core
shared with another guest or clocked down.  So the benchmark
also times a fixed reference kernel, ``reference_slice``, just before and
just after each cell.  The kernel belongs to the benchmark, not to the
program, so no change to the program can speed it up.  The cell's CPU time
is divided by the kernel's slowdown against ``REFERENCE_S``.  That gives
what the cell would have taken on the calibrating host in a quiet stretch.
"""

from __future__ import annotations

import resource
import time

# CPU seconds of one reference_slice on the calibrating host (2-core x86_64
# virtual machine, Python 3.11) in a quiet stretch.  Only the scale of the
# reported times depends on it.
REFERENCE_S = 0.0008
_N = 7
_EDGES = [(i, (i * 3 + 1) % _N) for i in range(_N)] + [(i, (i + 2) % _N) for i in range(_N)]


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _reference_kernel() -> int:
    # Component counts of edge subsets by union-find: the kind of small
    # interpreted search the package spends its time in.
    total = 0
    for mask in range(0, 1 << len(_EDGES), 97):
        parent = list(range(_N))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j, (u, v) in enumerate(_EDGES):
            if mask >> j & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        total += len({find(x) for x in range(_N)})
    return total


def reference_slice() -> float:
    """Run the reference kernel once; returns the CPU seconds it took."""
    start = time.process_time()
    _reference_kernel()
    return time.process_time() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than calibrated the host ran between two slices."""
    return (before + after) / (2.0 * REFERENCE_S)
