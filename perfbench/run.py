"""faultnet benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ratio-sweep --seed 1 --seconds 20 --trace 0

One client in one process works through a fixed, seeded list of cells, each
starting when the previous one ends.  Every timing is CPU time of the
process, rescaled by the slowdown of a fixed reference kernel timed next to
it (see cpuclock.py); the raw CPU and wall times go in the report.
``--seconds`` sizes the list so that a run measures about that long on a
2-core x86 host at the seed commit.  With ``--trace 0`` the run sets up three
times and reports the end-to-end metrics; with ``--trace 1`` it sets up once
under the tracer, runs the first quarter of the cells untraced and then all
of them traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
``failed`` counts cells that raised or gave a wrong answer; ``correct`` is
false when any answer was wrong or a determinism check failed.  Exit code 0
means correct, 1 not correct, 2 that the run was refused (budget variables
set, or no ``src/faultnet`` to test), in which case nothing is printed.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# One client in one thread.  Left alone, numpy's BLAS starts a spinning
# worker per core at import, and the CPU clock charges their time to the
# import.  The benchmarked paths make no BLAS calls that would use them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from cpuclock import cpu_clock, reference_slice, slowdown  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Each changes which code path runs (exact base versus fallback, sweep limits).
BUDGET_VARS = ("FAULTNET_EXACT_BUDGET", "FAULTNET_ENUM_BUDGET")
SETUP_REPEATS = 3
OVERHEAD_PREFIX = 4  # a traced run also runs 1/4 of its cells untraced

# name -> unit; the end-to-end metrics of an untraced run.  The p90s and
# failed_frac are printed as well, but they are not in this set: on a shared
# 2-core host the p90s spread by up to a third from seed to seed, more than
# any bound a regression gate can use, and failed_frac is 0 when all is well.
END_TO_END = {
    "cells_per_s": "cells/s",
    "solve_ms.p50": "ms",
    "cell_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_round", ".overhead")):
        return "ratio"
    return "count"


class Refused(Exception):
    """The run cannot measure what it claims to; no result is printed."""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "faultnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _scaled_cpu_s(fn):
    """Run ``fn()``; returns its result and its rescaled CPU seconds."""
    before = reference_slice()
    start = cpu_clock()
    result = fn()
    elapsed = cpu_clock() - start
    return result, elapsed / slowdown(before, reference_slice())


def _import_package():
    import faultnet
    import workloads  # noqa: F401  (imports the faultnet modules it drives)

    return faultnet


def import_faultnet() -> float:
    """Import the package from this tree's ``src``; returns the import's
    rescaled CPU time."""
    for var in BUDGET_VARS:
        if var in os.environ:
            raise Refused(f"{var} is set; it changes which code path runs")
    if not (SRC / "faultnet" / "__init__.py").is_file():
        raise Refused(f"no faultnet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    faultnet, elapsed = _scaled_cpu_s(_import_package)
    if Path(faultnet.__file__).resolve().parent != (SRC / "faultnet").resolve():
        raise Refused(f"imported faultnet from {faultnet.__file__}, not from {SRC}")
    return elapsed


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _set_up(workload, seed: int, seconds: float):
    """Generate the cell list and warm up on its smallest instance."""
    from workloads import run_one

    cells = workload.make_cells(seed, workload.cell_count(seconds))
    run_one(cells[min(range(len(cells)), key=lambda i: (cells[i].m, i))])
    return cells


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """One benchmark run; returns the result plus what the report prints."""
    from tracer import Tracer, bindings_restored, faultnet_bindings
    from workloads import WORKLOADS, digest, run_cells, verify

    if name not in WORKLOADS:
        raise Refused(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    problems: list[str] = []
    if not trace:
        setup_times, texts = [], None
        for _ in range(SETUP_REPEATS):
            cells, elapsed = _scaled_cpu_s(lambda: _set_up(workload, seed, seconds))
            setup_times.append(elapsed)
            if texts is not None and texts != [c.text for c in cells]:
                problems.append("set-up generated different instances on a repeat")
            texts = [c.text for c in cells]
        outcomes, wall = run_cells(cells)
        first: dict = {}
        verify(cells, outcomes, first)
        runs = [outcomes]
        dig = digest(first)
    else:
        tracer = Tracer()
        before = faultnet_bindings()
        with tracer:
            cells = _set_up(workload, seed, seconds)
        # The untraced reference pass covers a prefix only, to keep traced
        # runs short; the overhead compares the two passes on that prefix.
        prefix = cells[: max(1, len(cells) // OVERHEAD_PREFIX)]
        plain, _ = run_cells(prefix)
        with tracer:
            outcomes, wall = run_cells(cells)
        if not bindings_restored(before):
            problems.append("a traced function was not restored")
        first_plain: dict = {}
        first: dict = {}
        verify(prefix, plain, first_plain)
        verify(cells, outcomes, first)
        if any(first[key] != sig for key, sig in first_plain.items()):
            problems.append("the traced pass changed an answer")
        runs = [plain, outcomes]
        dig = digest(first)

    all_outcomes = [o for run in runs for o in run]
    failures = [("wrong answer: " if o.wrong else "") + o.error for o in all_outcomes if o.error]
    ok_cells = [o for o in outcomes if not o.error]
    cell_ms = [o.cell_ms for o in outcomes]
    solve_ms = [o.solve_ms for o in outcomes if o.solve_ms is not None]
    ratios = [o.ratio for o in ok_cells if o.ratio is not None]
    if trace:
        metrics = tracer.metrics()
        traced_ms = sum(o.cell_ms for o in outcomes[: len(prefix)])
        metrics["trace.overhead"] = sum(o.cell_ms for o in plain) / traced_ms
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "cells_per_s": len(ok_cells) / (sum(cell_ms) / 1000.0),
            "solve_ms.p50": statistics.median(solve_ms),
            "cell_ms.p50": statistics.median(cell_ms),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {
        "correct": not problems and not any(o.wrong for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": len(failures),
        "metrics": metrics,
        "units": units,
        "digest": dig,
        "failures": failures,
        "problems": problems,
        "samples": {} if trace else {"solve_ms": solve_ms, "cell_ms": cell_ms},
        "ratios": ratios,
        "scaled_s": sum(cell_ms) / 1000.0,
        "cpu_s": sum(o.cell_ms * o.slowdown for o in outcomes) / 1000.0,
        "wall_s": wall,
    }


def _report(res: dict, env: dict) -> list[str]:
    lines = [f"env {json.dumps(env, sort_keys=True)}", f"digest {res['digest']}"]
    metrics, units = res["metrics"], res["units"]
    for name, value in metrics.items():
        lines.append(f"metric {name:42s} {value:16.6f} {units[name]}")
    for key, vals in res["samples"].items():
        if vals:
            p90 = _p90(vals)
            beyond = sum(v > p90 for v in vals)
            lines.append(f"metric {key + '.p90':42s} {p90:16.6f} ms (n={len(vals)}, {beyond} beyond p90)")
    attempted, failed = res["attempted"], res["failed"]
    lines.append(f"metric {'failed_frac':42s} {failed / attempted:16.6f} ratio ({failed} of {attempted})")
    ratios = res["ratios"]
    if ratios:
        lines.append(f"metric {'ratio.mean':42s} {statistics.fmean(ratios):16.6f} ratio (n={len(ratios)})")
        lines.append(f"metric {'ratio.max':42s} {max(ratios):16.6f} ratio (n={len(ratios)})")
    else:
        lines.append("metric ratio.mean, ratio.max: n/a (no exact baseline on this workload)")
    lines += [f"FAIL {msg}" for msg in res["failures"][:20] + res["problems"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_s = import_faultnet()
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    import numpy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "import_s": import_s,
        "measured_scaled_s": res["scaled_s"],
        "measured_cpu_s": res["cpu_s"],
        "measured_wall_s": res["wall_s"],
        "mean_slowdown": res["cpu_s"] / res["scaled_s"],
    }
    for line in _report(res, env):
        print(line)
    result = {key: res[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}
    print(json.dumps(result))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
