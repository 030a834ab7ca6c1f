"""Command-line surface.

Commands: solve, verify, exact, lp, gap, gen, bench.  Machine-readable
output: JSON summaries on stdout, CSV to a file for bench.  Exit codes:
0 success, 1 the algorithm does not apply to the instance or one of its
steps failed, 2 infeasible instance/solution, 3 budget exceeded, 4 parse
error or a named file that cannot be opened.  An output path that cannot
be written is refused before the work, and a failed run leaves it as it
was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench as bench_mod
from .errors import (
    BudgetError,
    CannotSatisfyFeasibility,
    FaultnetError,
    InfeasibleInstance,
    ParseError,
    PathError,
)
from .gap import gap_experiment
from .instances import check_writable, generate, open_path, parse, read_text, serialize
from .lp import require_lp_relaxation, solve_problem_lp
from .oracles import check_problem_feasible

EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4


def _read_instance(path: str):
    return parse(read_text(path))


def _read_solution(path: str, m: int) -> frozenset:
    """Edge ids of a solution file: {"edges": [distinct ids in 0..m-1]}."""
    with open_path(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"solution is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("edges"), list):
        raise ParseError('solution must be an object with an "edges" list')
    edges = payload["edges"]
    for eid in edges:
        # A bool is an int to Python, and a float is never an edge id.
        if type(eid) is not int or not 0 <= eid < m:
            raise ParseError(f"solution edge {eid!r} is not an edge id of 0..{m - 1}")
    if len(set(edges)) < len(edges):
        raise ParseError("solution repeats an edge id")
    return frozenset(edges)


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite float, which JSON cannot hold
        raise FaultnetError(f"output is not JSON: {exc}") from exc
    print(text)


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    if args.out:
        check_writable(args.out)
    g = inst.to_graph()
    sol = bench_mod.run_algorithm(inst, args.alg, args.seed)
    ok, witness = check_problem_feasible(g, inst.problem, sol)
    summary = {
        "algorithm": args.alg,
        "seed": args.seed,
        "cost": g.total_cost(sol),
        "edges": sorted(sol),
        "feasible": ok,
    }
    if args.out:
        with open_path(args.out, "w") as fh:
            json.dump({"edges": sorted(sol)}, fh, allow_nan=False)
    _emit(summary)
    return 0 if ok else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    g = inst.to_graph()
    edges = _read_solution(args.solution, g.m)
    ok, witness = check_problem_feasible(g, inst.problem, edges)
    _emit(
        {
            "feasible": ok,
            "cost": g.total_cost(edges),
            "witness": repr(witness) if witness is not None else None,
        }
    )
    return 0 if ok else EXIT_INFEASIBLE


def cmd_exact(args) -> int:
    from .exact import exact_solve

    inst = _read_instance(args.instance)
    g = inst.to_graph()
    sol, cost = exact_solve(g, inst.problem)
    _emit({"cost": cost, "edges": sorted(sol)})
    return 0


def cmd_lp(args) -> int:
    inst = _read_instance(args.instance)
    if args.dump_model:
        check_writable(args.dump_model)
    g = inst.to_graph()
    # A problem with no relaxation is refused first, from its requirements
    # alone.  Then, as in exact_solve: an instance the whole graph cannot
    # satisfy has no LP optimum, and is reported as infeasible, not as a
    # simplex failure.
    require_lp_relaxation(inst.problem)
    ok, _ = check_problem_feasible(g, inst.problem, g.all_edge_ids())
    if not ok:
        raise InfeasibleInstance("graph itself is infeasible for the problem")
    sol, model = solve_problem_lp(g, inst.problem)
    if args.dump_model:
        with open_path(args.dump_model, "w") as fh:
            fh.write(model.dump())
    _emit(
        {
            "objective": sol.objective,
            "rounds": sol.rounds,
            "separation_clean": sol.separation_clean,
            "x": list(sol.x),
        }
    )
    return 0


def cmd_gap(args) -> int:
    report = gap_experiment(args.k)
    _emit(dataclasses.asdict(report))
    return 0


def cmd_gen(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if args.out:
        check_writable(args.out)
    inst = generate(args.kind, n=args.n, m=args.m, seed=args.seed, params=params)
    text = serialize(inst)
    if args.out:
        with open_path(args.out, "w") as fh:
            fh.write(text)
        _emit({"written": args.out, "vertices": inst.n, "edges": len(inst.edge_specs)})
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    with open_path(args.suite) as fh:
        try:
            suite = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"suite is not JSON: {exc}") from exc
    check_writable(args.out)
    if args.solutions:
        check_writable(args.solutions)
    records, csv_text, code = bench_mod.bench(
        suite,
        jobs=args.jobs,
        with_timing=not args.no_timing,
        allow_infeasible=args.allow_infeasible,
    )
    with open_path(args.out, "w") as fh:
        fh.write(csv_text)
    if args.solutions:
        with open_path(args.solutions, "w") as fh:
            fh.write(bench_mod.solutions_json(records))
    errors = [r for r in records if r.error]
    _emit(
        {
            "cells": len(records),
            "errors": len(errors),
            "csv": args.out,
        }
    )
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faultnet")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("instance")
    p.add_argument("--alg", required=True, choices=bench_mod.ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the solution JSON here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against the oracle")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exact", help="exact minimum-cost baseline")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("lp", help="solve the LP relaxation by cutting planes")
    p.add_argument("instance")
    p.add_argument("--dump-model", help="write the final row system here")
    p.set_defaults(fn=cmd_lp)

    p = sub.add_parser("gap", help="run the (1,k) integrality-gap experiment")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="JSON dict of generator parameters")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("suite")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--allow-infeasible", action="store_true")
    p.add_argument("--solutions", help="also write a JSON map of solutions")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InfeasibleInstance, CannotSatisfyFeasibility) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PathError as exc:
        print(f"{'missing file' if exc.missing else 'cannot open'}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FaultnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
