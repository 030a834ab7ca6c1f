"""Benchmark harness: run algorithm x instance x seed cells, emit CSV.

Every cell runs one algorithm on one instance, verifies the output against
the matching oracle, optionally attaches the exact baseline, and records a
RunRecord row.  Cell errors land in the row's error column and the run
continues.  Rows are assembled in suite order regardless of worker
completion order, and floats print with 9 significant digits, so a suite is
reproducible byte for byte (timings can be suppressed for comparisons).

CSV schema (header row included)::

    instance,algorithm,seed,cost,exact_opt,ratio,feasible,guarantee,wall_ms,error

plus one trailing summary row per algorithm (instance column "__summary__")
carrying the maximum observed ratio.  Rows are written by ``csv.writer``
with "\n" line ends, so a field with a comma (an error text, say) is
quoted; a number that is not finite stops the run with FaultnetError.
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import math
import os
import time
from dataclasses import dataclass

from .bulk import solve_bulk_sndp, solve_flex_sndp, solve_rsndp
from .errors import BudgetExceeded, FaultnetError, ParseError
from .exact import exact_solve
from .flexalg import (
    fgc_guarantee,
    flex_st_guarantee,
    solve_fgc,
    solve_flex_st,
    solve_flex_st_22,
)
from .instances import InstanceFile, parse, read_text, serialize
from .oracles import check_problem_feasible, uniform_pq

CSV_HEADER = "instance,algorithm,seed,cost,exact_opt,ratio,feasible,guarantee,wall_ms,error"

ALGORITHMS = (
    "fgc",
    "flex-st",
    "flex-st-22",
    "flex-sndp",
    "bulk",
    "rsndp",
    "exact",
)


@dataclass
class RunRecord:
    instance: str
    algorithm: str
    seed: int
    cost: float | None = None
    exact_opt: float | None = None
    ratio: float | None = None
    feasible: bool | None = None
    guarantee: float | None = None
    wall_ms: float | None = None
    error: str = ""
    edges: tuple[int, ...] = ()

    def csv_row(self, with_timing: bool = True) -> str:
        """The record as one CSV line, without its line end.

        ``csv.writer`` writes it (QUOTE_MINIMAL), so a field that holds a
        comma, a quote or a line end stays one field.  A number field that
        is not finite raises FaultnetError naming the field, as the JSON
        writers of the CLI refuse one."""

        def num(name, x):
            if x is None:
                return ""
            if not math.isfinite(x):
                raise FaultnetError(f"bench field {name} is not finite: {x!r}")
            return format(x, ".9g")

        # Imported here, as only a bench run writes rows: at module level it
        # adds about 0.1 MB to every process that imports this module.
        import csv

        feas = "" if self.feasible is None else str(self.feasible).lower()
        wall = num("wall_ms", self.wall_ms) if with_timing else ""
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(
            [
                self.instance,
                self.algorithm,
                str(self.seed),
                num("cost", self.cost),
                num("exact_opt", self.exact_opt),
                num("ratio", self.ratio),
                feas,
                num("guarantee", self.guarantee),
                wall,
                self.error,
            ]
        )
        return line.getvalue()[:-1]


def _uniform_pq(inst: InstanceFile) -> tuple[int, int]:
    pq = uniform_pq(inst.problem.flex)
    if pq is None:
        raise FaultnetError("algorithm needs a uniform (p, q)")
    return pq


def run_algorithm(inst: InstanceFile, algorithm: str, seed: int) -> frozenset:
    """Dispatch one algorithm, validating applicability."""
    g = inst.to_graph()
    prob = inst.problem
    if algorithm == "fgc":
        if not prob.is_fgc(g.n):
            raise FaultnetError("fgc needs an all-pairs uniform flex problem")
        p, q = _uniform_pq(inst)
        return solve_fgc(g, p, q)
    if algorithm == "flex-st":
        if prob.kind != "flex" or len(prob.flex) != 1:
            raise FaultnetError("flex-st needs a single flex pair")
        r = prob.flex[0]
        return solve_flex_st(g, r.s, r.t, r.p, r.q)
    if algorithm == "flex-st-22":
        if prob.kind != "flex" or len(prob.flex) != 1:
            raise FaultnetError("flex-st-22 needs a single flex pair")
        r = prob.flex[0]
        if (r.p, r.q) != (2, 2):
            raise FaultnetError("flex-st-22 needs requirement (2, 2)")
        return solve_flex_st_22(g, r.s, r.t)
    if algorithm == "flex-sndp":
        if prob.kind != "flex":
            raise FaultnetError("flex-sndp needs a flex problem")
        return solve_flex_sndp(g, prob.flex, seed=seed)
    if algorithm == "bulk":
        if prob.kind != "bulk":
            raise FaultnetError("bulk needs a bulk problem")
        return solve_bulk_sndp(g, prob.scenarios, seed=seed)
    if algorithm == "rsndp":
        if prob.kind != "rsndp":
            raise FaultnetError("rsndp needs a relative problem")
        return solve_rsndp(g, prob.relative, seed=seed)
    if algorithm == "exact":
        sol, _cost = exact_solve(g, prob)
        return sol
    raise FaultnetError(f"unknown algorithm {algorithm!r}")


def guarantee_for(inst: InstanceFile, algorithm: str) -> float | None:
    prob = inst.problem
    if algorithm == "exact":
        return 1.0
    if algorithm == "fgc":
        p, q = _uniform_pq(inst)
        return fgc_guarantee(p, q)
    if algorithm == "flex-st":
        p, q = _uniform_pq(inst)
        return flex_st_guarantee(p, q)
    if algorithm == "flex-st-22":
        return 5.0
    # Poly-log guarantees: no fixed constant is claimed.
    return None


def run_cell(inst_text: str, instance_id: str, algorithm: str, seed: int, want_exact: bool) -> RunRecord:
    rec = RunRecord(instance=instance_id, algorithm=algorithm, seed=seed)
    try:
        inst = parse(inst_text)
        g = inst.to_graph()
        start = time.perf_counter()
        sol = run_algorithm(inst, algorithm, seed)
        rec.wall_ms = (time.perf_counter() - start) * 1000.0
        rec.cost = g.total_cost(sol)
        rec.edges = tuple(sorted(sol))
        ok, _witness = check_problem_feasible(g, inst.problem, sol)
        rec.feasible = ok
        rec.guarantee = guarantee_for(inst, algorithm)
        if want_exact and algorithm != "exact":
            try:
                _opt_sol, opt = exact_solve(g, inst.problem)
                rec.exact_opt = opt
                if opt > 0:
                    rec.ratio = rec.cost / opt
            except BudgetExceeded:
                pass
        elif algorithm == "exact":
            rec.exact_opt = rec.cost
            rec.ratio = 1.0
    except FaultnetError as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _suite_list(suite: dict, key: str, ok, what: str, default=None) -> list:
    """``suite[key]``, which must be a list whose items all pass ``ok``."""
    items = suite.get(key, default)
    if not isinstance(items, list) or not all(map(ok, items)):
        raise ParseError(f"suite {key!r} must be a list of {what}")
    return items


def _instance_entry(entry) -> bool:
    return isinstance(entry, str) or (
        isinstance(entry, dict)
        and isinstance(entry.get("kind"), str)
        and isinstance(entry.get("id", ""), str)
        and all(entry.get(k) is None or type(entry[k]) is int for k in ("n", "m", "seed"))
        and isinstance(entry.get("params", {}), dict)
    )


def _cells_of_suite(suite) -> list[tuple[str, str, str, int, bool]]:
    """Flatten a suite into (instance text, id, algorithm, seed, exact).

    Raises :class:`ParseError` unless the suite has the shape the README
    documents, with every algorithm name known.
    """
    from .instances import generate

    if not isinstance(suite, dict):
        raise ParseError("suite must be a JSON object")
    want_exact = suite.get("exact", False)
    if not isinstance(want_exact, bool):
        raise ParseError('suite "exact" must be true or false')
    entries = _suite_list(suite, "instances", _instance_entry, "paths or generator objects")
    algorithms = _suite_list(
        suite, "algorithms", ALGORITHMS.__contains__, f"names from {', '.join(ALGORITHMS)}"
    )
    seeds = _suite_list(suite, "seeds", lambda x: type(x) is int, "integers", [0])
    insts = []
    for entry in entries:
        if isinstance(entry, str):
            insts.append((entry, read_text(entry)))
        else:
            inst = generate(
                entry["kind"],
                n=entry.get("n"),
                m=entry.get("m"),
                seed=entry.get("seed", 0),
                params=entry.get("params"),
            )
            insts.append((entry.get("id", entry["kind"]), serialize(inst)))
    cells = []
    for inst_id, text in insts:
        for algorithm in algorithms:
            for seed in seeds:
                cells.append((text, inst_id, algorithm, seed, want_exact))
    return cells


def bench(
    suite: dict,
    jobs: int = 1,
    with_timing: bool = True,
    allow_infeasible: bool = False,
) -> tuple[list[RunRecord], str, int]:
    """Run a suite; returns (records, csv text, exit code).

    Exit code 2 flags an infeasible algorithm output under the default
    policy; per-cell errors are recorded in rows without stopping the run.
    A number field that is not finite raises FaultnetError
    (:meth:`RunRecord.csv_row`).
    """
    cells = _cells_of_suite(suite)
    workers = worker_count(jobs, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell_star, cells))
    else:
        records = [_run_cell_star(cell) for cell in cells]
    lines = [CSV_HEADER]
    exit_code = 0
    for rec in records:
        if rec.feasible is False and not allow_infeasible:
            rec.error = rec.error or "infeasible-output"
            exit_code = 2
        lines.append(rec.csv_row(with_timing=with_timing))
    for algorithm in suite["algorithms"]:
        ratios = [
            r.ratio for r in records if r.algorithm == algorithm and r.ratio is not None
        ]
        summary = RunRecord(
            instance="__summary__",
            algorithm=algorithm,
            seed=0,
            ratio=max(ratios) if ratios else None,
        )
        lines.append(summary.csv_row(with_timing=with_timing))
    return records, "\n".join(lines) + "\n", exit_code


def worker_count(jobs: int, cells: int) -> int:
    """Worker processes for ``jobs`` over ``cells`` cells: at most one per
    cell and one per CPU, and 1 runs the cells in this process.  A ``jobs``
    below 1 raises ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, cells, os.cpu_count() or 1))


def _run_cell_star(cell) -> RunRecord:
    return run_cell(*cell)


def solutions_json(records: list[RunRecord]) -> str:
    """Deterministic JSON map of cell -> sorted solution edge ids."""
    payload = {
        f"{r.instance}|{r.algorithm}|{r.seed}": list(r.edges) for r in records
    }
    return json.dumps(payload, indent=0, sort_keys=True)
