import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import faultnet
from faultnet.bench import ALGORITHMS, RunRecord, bench, run_cell, solutions_json, worker_count
from faultnet.bulk import solve_bulk_sndp
from faultnet.cli import main
from faultnet.exact import exact_solve
from faultnet.instances import (
    COST_SUM_LIMIT,
    appendix_a_instance,
    figure_1_instance,
    generate,
    parse,
    serialize,
)


def small_suite(tmp_path):
    return {
        "instances": [
            {
                "id": "fgc22",
                "kind": "random-multigraph",
                "n": 6,
                "m": 14,
                "seed": 1,
                "params": {"problem": "fgc", "p": 2, "q": 2, "skeleton": "mixed"},
            },
            {
                "id": "st22",
                "kind": "random-multigraph",
                "n": 6,
                "m": 16,
                "seed": 2,
                "params": {"problem": "flex-st", "p": 2, "q": 2, "skeleton": "mixed"},
            },
        ],
        "algorithms": ["fgc", "flex-st-22", "exact"],
        "seeds": [0],
        "exact": True,
    }


class TestBench:
    def test_records_and_summary(self, tmp_path):
        records, csv_text, code = bench(small_suite(tmp_path), with_timing=False)
        assert code == 0
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("instance,algorithm,seed")
        # 6 cells + 3 summaries
        assert len(lines) == 1 + 6 + 3
        # ratio <= guarantee wherever both are present
        for rec in records:
            if rec.ratio is not None and rec.guarantee is not None:
                assert rec.ratio <= rec.guarantee + 1e-9
        # inapplicable cells carry errors, applicable ones are feasible
        errors = [r for r in records if r.error]
        assert len(errors) == 2
        for rec in records:
            if not rec.error:
                assert rec.feasible

    def test_empty_suite_header_only(self):
        _records, csv_text, code = bench(
            {"instances": [], "algorithms": [], "seeds": []}, with_timing=False
        )
        assert csv_text.strip().splitlines() == ["instance,algorithm,seed,cost,exact_opt,ratio,feasible,guarantee,wall_ms,error"]
        assert code == 0

    def test_deterministic_repeat(self, tmp_path):
        suite = small_suite(tmp_path)
        records1, csv1, _ = bench(suite, with_timing=False)
        records2, csv2, _ = bench(suite, with_timing=False)
        assert csv1 == csv2
        assert solutions_json(records1) == solutions_json(records2)

    def test_cell_error_recorded(self):
        inst = appendix_a_instance(1)
        rec = run_cell(serialize(inst), "appa", "fgc", 0, False)
        assert rec.error and rec.cost is None

    def test_infeasible_output_fails_the_run(self, monkeypatch):
        import faultnet.bench as bench_mod

        monkeypatch.setattr(bench_mod, "run_algorithm", lambda inst, algorithm, seed: frozenset())
        suite = {"instances": [{"id": "fig1", "kind": "figure-1"}], "algorithms": ["exact"]}
        _records, csv_text, code = bench(suite, with_timing=False)
        assert code == 2
        _header, row, _summary = csv_text.splitlines()
        assert row.split(",")[6:] == ["false", "1", "", "infeasible-output"]
        _records, csv_text, code = bench(suite, with_timing=False, allow_infeasible=True)
        assert code == 0
        _header, row, _summary = csv_text.splitlines()
        assert row.split(",")[6:] == ["false", "1", "", ""]


class TestCsvRows:
    """Each record is one CSV row of ten fields, written by ``csv.writer``,
    and no row holds a number that is not finite."""

    def test_an_error_with_a_comma_stays_one_field(self):
        # flex-st on the path 0-1-2 with requirement (2, 2): the refusal
        # names "(2, 2)", whose comma split the row into 11 fields.
        text = "\n".join(
            ["faultnet-instance 1", "vertices 3", "edges 2", "e 0 0 1 1.0 safe",
             "e 1 1 2 1.0 safe", "problem flex", "flexpair 0 2 2 2", "end"]
        ) + "\n"
        rec = run_cell(text, "path3", "flex-st", 0, False)
        assert "," in rec.error
        (row,) = csv.reader([rec.csv_row()])
        assert row == ["path3", "flex-st", "0", "", "", "", "", "", "", rec.error]

    def test_fields_with_quotes_and_line_ends_read_back(self):
        rec = RunRecord('a,"b"', "exact", 3, cost=1.5, error='x\ny, "z"')
        text = rec.csv_row(with_timing=False)
        (row,) = csv.reader(io.StringIO(text + "\n"))
        assert row == ['a,"b"', "exact", "3", "1.5", "", "", "", "", "", 'x\ny, "z"']
        # A row with no such field is the plain join, as before.
        assert RunRecord("i", "fgc", 0, ratio=2.0).csv_row() == "i,fgc,0,,,2,,,,"

    @pytest.mark.parametrize("field", ("cost", "exact_opt", "ratio", "guarantee", "wall_ms"))
    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_a_non_finite_field_stops_the_bench(self, tmp_path, capsys, monkeypatch, field, value):
        import faultnet.bench as bench_mod

        def broken_cell(inst_text, instance_id, algorithm, seed, want_exact):
            rec = RunRecord(instance_id, algorithm, seed, cost=1.0, exact_opt=1.0, ratio=1.0,
                            feasible=True, guarantee=1.0, wall_ms=0.5)
            setattr(rec, field, value)
            return rec

        monkeypatch.setattr(bench_mod, "run_cell", broken_cell)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": [{"id": "fig1", "kind": "figure-1"}], "algorithms": ["exact"]}))
        out = tmp_path / "run.csv"
        assert main(["bench", str(suite), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bench field {field} is not finite" in captured.err
        assert not out.exists()
        # Without timings the wall time is not written, so it cannot stop
        # the run; any other field still does.
        code = main(["bench", str(suite), "--out", str(out), "--no-timing"])
        capsys.readouterr()
        assert code == (0 if field == "wall_ms" else 1)
        assert out.exists() == (field == "wall_ms")


def _instance_lines(
    vertices="vertices 3",
    edge="e 1 1 2 1.0 safe",
    problem=("problem flex", "flexpair 0 2 1 0"),
):
    """A 3-vertex, 3-edge instance file with one line group replaced."""
    head = ["faultnet-instance 1", vertices, "edges 3", "e 0 0 1 1.0 safe"]
    return [*head, edge, "e 2 0 2 1.0 safe", *problem, "end"]


def _parallel_lines(per_side, failed):
    """A 3-vertex file of ``per_side`` parallel safe 0-1 edges and as many
    1-2 edges, with one bulk scenario for pair 0-2 that fails ``failed`` of
    them, half on each side."""
    edges = [f"e {i} {i // per_side} {i // per_side + 1} {1 + i % 3}.0 safe" for i in range(2 * per_side)]
    fail = [*range(failed // 2), *range(per_side, per_side + failed - failed // 2)]
    head = ["faultnet-instance 1", "vertices 3", f"edges {2 * per_side}"]
    return [*head, *edges, "problem bulk", f"scenario {','.join(map(str, fail))} | 0-2", "end"]


def _five_vertex_lines(*problem):
    """A 5-vertex, 8-edge instance file with the given problem lines."""
    ends = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (0, 2), (2, 4)]
    edges = [f"e {i} {u} {v} {1 + i % 3}.0 {'unsafe' if i % 3 == 1 else 'safe'}" for i, (u, v) in enumerate(ends)]
    return ["faultnet-instance 1", "vertices 5", "edges 8", *edges, *problem, "end"]


class TestCli:
    def test_gen_solve_verify_roundtrip(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.fni"
        sol_path = tmp_path / "sol.json"
        rc = main(
            [
                "gen",
                "--kind",
                "random-multigraph",
                "--n",
                "6",
                "--m",
                "14",
                "--seed",
                "4",
                "--params",
                '{"problem": "fgc", "p": 2, "q": 1}',
                "--out",
                str(inst_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            ["solve", str(inst_path), "--alg", "fgc", "--out", str(sol_path)]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible"] is True
        saved = json.loads(sol_path.read_text())
        assert saved["edges"] == summary["edges"]
        rc = main(["verify", str(inst_path), str(sol_path)])
        assert rc == 0

    def test_an_empty_answer_costs_a_float_zero(self, tmp_path, capsys):
        # Vertex 2 is isolated, so G already fails the pair (0, 2) and the
        # relative requirement asks for nothing: the empty set, at 0.0.
        inst_path = tmp_path / "empty.fni"
        inst_path.write_text(
            "faultnet-instance 1\nvertices 3\nedges 1\ne 0 0 1 1.5 safe\n"
            "problem rsndp\nrelpair 0 2 2\nend\n"
        )
        for argv in (["exact", str(inst_path)], ["solve", str(inst_path), "--alg", "rsndp"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert '"cost": 0.0,' in out
            assert json.loads(out)["edges"] == []
        inst = parse(inst_path.read_text())
        g = inst.to_graph()
        assert g.total_cost(()).hex() == (0.0).hex()
        assert exact_solve(g, inst.problem)[1].hex() == (0.0).hex()

    def test_exact_and_lp_and_gap(self, tmp_path, capsys):
        inst_path = tmp_path / "appa.fni"
        main(["gen", "--kind", "appendix-a", "--params", '{"k": 2}', "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["exact", str(inst_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["cost"] - 7.5) < 1e-9
        model_path = tmp_path / "model.txt"
        assert main(["lp", str(inst_path), "--dump-model", str(model_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["separation_clean"]
        dump = model_path.read_text()
        assert dump.startswith("min ") and ">=" in dump
        assert main(["gap", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["integral_opt"] == 7.5

    def test_gap_k9_reports_the_lp_optimum(self, capsys):
        assert main(["gap", "--k", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lp_objective"] is not None
        assert payload["integral_opt"] == 55.0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.fni"
        bad.write_text("garbage\n")
        assert main(["exact", str(bad)]) == 4

    @pytest.mark.parametrize(
        "command, lines",
        [
            # A NaN cost used to reach the output as "cost": NaN, invalid JSON.
            (["exact"], _instance_lines(edge="e 1 1 2 nan safe")),
            # An out-of-range bulk pair used to end in a KeyError traceback.
            (
                ["solve", "--alg", "bulk"],
                _instance_lines(problem=("problem bulk", "scenario - | 0-7")),
            ),
            # An out-of-range scenario edge id used to be silently ignored.
            (
                ["solve", "--alg", "bulk"],
                _instance_lines(problem=("problem bulk", "scenario 99 | 0-2")),
            ),
            # Bare count and problem lines used to end in an IndexError
            # traceback, and a non-integer count in a "bad parameters" error.
            (["exact"], _instance_lines(vertices="vertices")),
            (["exact"], _instance_lines(problem=("problem", "flexpair 0 2 1 0"))),
            (["exact"], _instance_lines(vertices="vertices three")),
            # Not UTF-8: used to exit 4 with "bad parameters:".
            (["exact"], b"faultnet-instance 1\nvertices 3 \xff\n"),
            # Graph and problem validation: used to exit 4 with "bad parameters:".
            (["exact"], _instance_lines(edge="e 1 1 1 1.0 safe")),
            (["exact"], _instance_lines(problem=("problem flex",))),
            (["exact"], ["faultnet-instance 2", *_instance_lines()[1:]]),
            (["exact"], _instance_lines()[:5]),
            (["exact"], _instance_lines()[:-1]),
        ],
        ids=[
            "nan-cost",
            "bulk-pair-out-of-range",
            "scenario-edge-out-of-range",
            "bare-vertices",
            "bare-problem",
            "non-integer-vertices",
            "not-utf8",
            "self-loop",
            "flex-without-pairs",
            "wrong-version",
            "cut-short-in-the-edges",
            "no-end-line",
        ],
    )
    def test_invalid_instance_is_a_parse_error(self, tmp_path, capsys, command, lines):
        path = tmp_path / "bad.fni"
        if isinstance(lines, bytes):
            path.write_bytes(lines)
        else:
            path.write_text("\n".join(lines) + "\n")
        assert main([command[0], str(path), *command[1:]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")

    @pytest.mark.parametrize(
        "payload",
        [
            # Each used to end in a traceback with exit 1: IndexError,
            # KeyError and TypeError.
            {"edges": [0, 1, 99]},
            {},
            [1],
            # Each used to be read as some other edge set: -1 as the last
            # edge, 0.7 as edge 0 and true as edge 1.
            {"edges": [-1]},
            {"edges": [0, 0.7]},
            {"edges": [True]},
        ],
        ids=["out-of-range", "no-edges", "not-an-object", "negative", "float", "bool"],
    )
    def test_invalid_solution_is_a_parse_error(self, tmp_path, capsys, payload):
        path = tmp_path / "inst.fni"
        path.write_text("\n".join(_instance_lines()) + "\n")
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(payload))
        assert main(["verify", str(path), str(sol)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")

    @pytest.mark.parametrize(
        "suite",
        [
            # Each used to end in a traceback with exit 1: KeyError,
            # AttributeError and three TypeErrors.
            {},
            [],
            {"instances": 3, "algorithms": ["exact"]},
            {"instances": [7], "algorithms": ["exact"]},
            {
                "instances": [{"kind": "random-multigraph", "n": 5, "m": 8, "params": 3}],
                "algorithms": ["exact"],
            },
            # Used to become one error row per cell.
            {"instances": [{"kind": "figure-1"}], "algorithms": ["fastest"]},
            # Not JSON: used to exit 4 with "bad parameters:".
            b'{"instances": [',
            {"instances": [], "algorithms": ["exact"], "exact": 1},
        ],
        ids=[
            "empty", "list", "instances-int", "entry-int", "params-int", "unknown-algorithm",
            "not-json", "exact-not-bool",
        ],
    )
    def test_malformed_suite_is_a_parse_error(self, tmp_path, capsys, suite):
        path = tmp_path / "suite.json"
        path.write_bytes(suite if isinstance(suite, bytes) else json.dumps(suite).encode())
        out = tmp_path / "run.csv"
        assert main(["bench", str(path), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "pair", [[0, 9, 1, 1], [2, 2, 1, 1]], ids=["out-of-range", "s-equals-t"]
    )
    def test_gen_rejects_bad_flex_sndp_pair(self, tmp_path, capsys, pair):
        params = json.dumps({"problem": "flex-sndp", "pairs": [pair]})
        out = tmp_path / "inst.fni"
        argv = ["gen", "--kind", "random-multigraph", "--n", "5", "--m", "12"]
        assert main([*argv, "--params", params, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("bad parameters:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            # Each used to end in a TypeError traceback with exit 1.
            ["gen", "--n", "5", "--m", "9", "--params", "[1]"],
            ["gen", "--n", "5", "--m", "9", "--params", '{"p": "a"}'],
            ["gen", "--n", "5", "--m", "9", "--params", '{"problem": "bulk", "pairs": "2"}'],
            ["gen", "--n", "5", "--m", "9", "--params", '{"safe_prob": "x"}'],
            # Used to end in a KeyError traceback.
            ["gen", "--n", "5", "--m", "9", "--params", '{"problem": "flex-sndp"}'],
            # Used never to return: 4 vertices have only 6 distinct pairs.
            ["gen", "--n", "4", "--m", "8", "--params", '{"problem": "rsndp", "pairs": 7}'],
            # Used to retry every attempt and exit 2 as infeasible.
            ["gen", "--n", "5", "--m", "9", "--params", '{"problem": "bulk", "scenarios": -3}'],
            # Used to exit 0: any skeleton but "safe" built a mixed one, and
            # a misspelt key fell back to its default.
            ["gen", "--n", "5", "--m", "9", "--params", '{"skeleton": 5}'],
            ["gen", "--n", "5", "--m", "9", "--params", '{"problem": "bulk", "scenario": 2}'],
            ["bench", "{suite}", "--out", "{out}"],
        ],
        ids=[
            "params-list",
            "p-string",
            "pairs-string",
            "safe-prob-string",
            "flex-sndp-no-pairs",
            "rsndp-too-many-pairs",
            "bulk-negative-scenarios",
            "skeleton-number",
            "unknown-key",
            "bench-p-string",
        ],
    )
    def test_bad_generator_parameters(self, tmp_path, command):
        suite = tmp_path / "suite.json"
        entry = {"kind": "random-multigraph", "n": 5, "m": 9, "params": {"p": "a"}}
        suite.write_text(json.dumps({"instances": [entry], "algorithms": ["exact"]}))
        out = tmp_path / "run.csv"
        argv = [{"{suite}": str(suite), "{out}": str(out)}.get(arg, arg) for arg in command]
        if argv[0] == "gen":
            argv[1:1] = ["--kind", "random-multigraph"]
        env = dict(os.environ, PYTHONPATH=str(Path(faultnet.__file__).parents[1]))
        # A subprocess with a timeout, so a generator that loops fails the
        # test instead of stalling the suite.
        done = subprocess.run(
            [sys.executable, "-m", "faultnet.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 4
        assert done.stdout == ""
        assert done.stderr.startswith("bad parameters:")
        assert len(done.stderr.splitlines()) == 1
        assert not out.exists()

    def test_suite_listing_a_non_utf8_instance_is_a_parse_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.fni"
        inst.write_bytes(b"\xfe\xff")
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": [str(inst)], "algorithms": ["exact"]}))
        out = tmp_path / "run.csv"
        # Used to exit 4 with "bad parameters:" and the decoder's words.
        assert main(["bench", str(suite), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:")
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path):
        from faultnet.instances import InstanceFile
        from faultnet.oracles import FlexRequirement, Problem

        inst = InstanceFile(
            n=3,
            edge_specs=((0, 1, 1.0, "unsafe"), (1, 2, 1.0, "unsafe")),
            problem=Problem("flex", flex=(FlexRequirement(0, 2, 1, 1),)),
        )
        path = tmp_path / "inf.fni"
        path.write_text(serialize(inst))
        assert main(["solve", str(path), "--alg", "flex-st"]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["exact", str(tmp_path / "absent.fni")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("missing file:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{dir}", "--alg", "fgc"],
            ["solve", "{inst}", "--alg", "fgc", "--out", "{dir}"],
            ["verify", "{dir}", "{sol}"],
            ["verify", "{inst}", "{dir}"],
            ["exact", "{dir}"],
            ["lp", "{dir}"],
            ["lp", "{inst}", "--dump-model", "{dir}"],
            ["gen", "--kind", "figure-1", "--out", "{dir}"],
            ["bench", "{dir}", "--out", "{csv}"],
            ["bench", "{suite}", "--out", "{dir}"],
            ["bench", "{suite}", "--out", "{csv}", "--solutions", "{dir}"],
            ["bench", "{dir_suite}", "--out", "{csv}"],
        ],
    )
    def test_a_path_that_cannot_be_opened_exits_4(self, tmp_path, capsys, argv):
        # A directory in place of a named input or output file: one line
        # naming it, exit 4 and nothing on stdout.
        directory = tmp_path / "a-directory"
        directory.mkdir()
        inst = generate(
            "random-multigraph", n=6, m=14, seed=3,
            params={"problem": "fgc", "p": 2, "q": 1, "skeleton": "mixed"},
        )
        paths = {
            "dir": directory,
            "inst": tmp_path / "inst.fni",
            "sol": tmp_path / "sol.json",
            "csv": tmp_path / "run.csv",
            "suite": tmp_path / "suite.json",
            "dir_suite": tmp_path / "dir-suite.json",
        }
        paths["inst"].write_text(serialize(inst))
        paths["sol"].write_text('{"edges": [0]}')
        paths["suite"].write_text(json.dumps({"instances": [str(paths["inst"])], "algorithms": ["fgc"]}))
        paths["dir_suite"].write_text(json.dumps({"instances": [str(directory)], "algorithms": ["fgc"]}))
        assert main([arg.format_map({k: str(v) for k, v in paths.items()}) for arg in argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open: {directory}: Is a directory\n"

    def test_bench_refuses_its_output_before_any_cell(self, tmp_path, capsys, monkeypatch):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(small_suite(tmp_path)))
        directory = tmp_path / "a-directory"
        directory.mkdir()
        cells = []
        monkeypatch.setattr(faultnet.bench, "run_cell", lambda *cell: cells.append(cell))
        for argv in (
            ["--out", str(directory)],
            ["--out", str(tmp_path / "run.csv"), "--solutions", str(directory)],
        ):
            assert main(["bench", str(suite), *argv]) == 4
            assert capsys.readouterr().err == f"cannot open: {directory}: Is a directory\n"
        assert cells == []
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("out", ["a-directory", "absent/sol.json"])
    def test_solve_refuses_its_output_before_the_search(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "a-directory").mkdir()
        inst = tmp_path / "inst.fni"
        inst.write_text(serialize(figure_1_instance()))

        def refused(*_args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(faultnet.bench, "exact_solve", refused)
        assert main(["solve", str(inst), "--alg", "exact", "--out", str(tmp_path / out)]) == 4
        err = capsys.readouterr().err
        if out == "absent/sol.json":
            assert err == f"missing file: {tmp_path / out}: No such file or directory\n"
        else:
            assert err == f"cannot open: {tmp_path / out}: Is a directory\n"
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["solve", "{inst}", "--alg", "fgc", "--out", "{out}"], "run_algorithm"),
            (["lp", "{inst}", "--dump-model", "{out}"], "solve_problem_lp"),
            (["gen", "--kind", "figure-1", "--out", "{out}"], "generate"),
            (["bench", "{suite}", "--out", "{out}"], "bench"),
            (["bench", "{suite}", "--out", "{csv}", "--solutions", "{out}"], "bench"),
        ],
    )
    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_work_leaves_the_output_untouched(self, tmp_path, capsys, monkeypatch, argv, target, existing):
        # A checked output path is only opened once the work has succeeded:
        # an existing file keeps its bytes, and a new one is not created.
        inst = generate(
            "random-multigraph", n=6, m=14, seed=3,
            params={"problem": "fgc", "p": 2, "q": 1, "skeleton": "mixed"},
        )
        paths = {
            "inst": tmp_path / "inst.fni",
            "suite": tmp_path / "suite.json",
            "csv": tmp_path / "run.csv",
            "out": tmp_path / "out.txt",
        }
        paths["inst"].write_text(serialize(inst))
        paths["suite"].write_text(json.dumps({"instances": [str(paths["inst"])], "algorithms": ["fgc"]}))
        before = b"kept \x00 bytes\n"
        if existing:
            paths["out"].write_bytes(before)

        def failing(*_args, **_kwargs):
            raise faultnet.errors.FaultnetError("the work failed")

        module = faultnet.cli if target in ("solve_problem_lp", "generate") else faultnet.bench
        monkeypatch.setattr(module, target, failing)
        assert main([arg.format_map({k: str(v) for k, v in paths.items()}) for arg in argv]) == 1
        assert capsys.readouterr().err == "error: the work failed\n"
        if existing:
            assert paths["out"].read_bytes() == before
        else:
            assert not paths["out"].exists()
        assert not paths["csv"].exists()

    def test_an_os_error_past_the_named_paths_is_not_caught(self, tmp_path, monkeypatch):
        # Only opening a named path is an exit-4 error; an OSError from the
        # work itself, such as a failing worker pool, still raises.
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(small_suite(tmp_path)))

        def broken_pool(*_args, **_kwargs):
            raise IsADirectoryError(21, "Is a directory", "/worker")

        monkeypatch.setattr(faultnet.bench, "bench", broken_pool)
        with pytest.raises(IsADirectoryError):
            main(["bench", str(suite), "--out", str(tmp_path / "run.csv")])

    def test_gen_without_out_writes_the_instance_to_stdout(self, capsys):
        assert main(["gen", "--kind", "figure-1"]) == 0
        assert capsys.readouterr().out == serialize(figure_1_instance())

    @pytest.mark.parametrize("source", ["file", "gen"])
    def test_flex_q_above_the_edge_count_is_refused(self, tmp_path, capsys, source):
        # Any q used to be accepted, and the solvers run one level per unit
        # of q: q = 10**9 never returned.
        path = tmp_path / "inst.fni"

        def run(q):
            if source == "file":
                problem = ("problem flex", f"flexpair 0 2 1 {q}")
                path.write_text("\n".join(_instance_lines(problem=problem)) + "\n")
                return main(["solve", str(path), "--alg", "flex-st"])
            params = json.dumps({"problem": "flex-st", "p": 1, "q": q})
            argv = ["gen", "--kind", "random-multigraph", "--n", "4", "--m", "6"]
            return main([*argv, "--params", params, "--out", str(path)])

        m = 3 if source == "file" else 6
        assert run(m) == 0
        capsys.readouterr()
        assert run(m + 1) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"has q={m + 1} above m={m} edges" in captured.err

    @pytest.mark.parametrize(
        "alg,pq",
        [("fgc", "3 5"), ("flex-st", "1 0")],
        ids=["fgc-outside-the-supported-set", "flex-st-on-all-pairs"],
    )
    def test_inapplicable_algorithm_exits_1(self, tmp_path, capsys, alg, pq):
        # The 3-vertex graph need not be feasible: both refuse first.  Two
        # more edges keep q = 5 within the edge count.
        pairs = [f"flexpair {s} {t} {pq}" for s, t in ((0, 1), (0, 2), (1, 2))]
        lines = _instance_lines(problem=("problem flex", *pairs))
        lines[2] = "edges 5"
        lines[6:6] = ["e 3 0 1 1.0 unsafe", "e 4 1 2 1.0 unsafe"]
        path = tmp_path / "inst.fni"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path), "--alg", alg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"problem": "rsndp", "r": 2, "pairs": 2}, "no LP relaxation wired for this problem kind"),
            (
                {"problem": "flex-sndp", "pairs": [[0, 4, 1, 0], [1, 3, 1, 1]]},
                "the LP relaxation needs a uniform (p, q)",
            ),
        ],
        ids=["rsndp", "flex-without-uniform-pq"],
    )
    def test_lp_without_a_relaxation_exits_1(self, tmp_path, capsys, monkeypatch, params, message):
        # Valid instances used to exit 4 with "bad parameters:".  They are
        # refused from their requirements, before the whole-graph check.
        import faultnet.cli as cli

        def not_called(*args, **kwargs):
            raise AssertionError("the whole-graph check ran before the refusal")

        path = tmp_path / "inst.fni"
        argv = ["gen", "--kind", "random-multigraph", "--n", "5", "--m", "10", "--seed", "1"]
        assert main([*argv, "--params", json.dumps(params), "--out", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "check_problem_feasible", not_called)
        assert main(["lp", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_fgc_solves_p1_above_q3(self, tmp_path, capsys):
        inst = generate(
            "random-multigraph",
            n=6,
            m=22,
            seed=2,
            params={"problem": "fgc", "p": 1, "q": 5, "skeleton": "mixed"},
        )
        path = tmp_path / "inst.fni"
        path.write_text(serialize(inst))
        assert main(["solve", str(path), "--alg", "fgc"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    @pytest.mark.parametrize(
        "problem",
        [("problem flex", "flexpair 0 2 2 1"), ("problem bulk", "scenario 1 | 0-2")],
        ids=["flex", "bulk"],
    )
    def test_lp_infeasible_exit_code(self, tmp_path, capsys, problem):
        # A path whose only 1-2 edge is unsafe: neither (2, 1) flex
        # connectivity nor the loss of that edge leaves 0 and 2 connected,
        # so exact, lp and the problem's solver all exit 2.
        lines = [
            "faultnet-instance 1",
            "vertices 3",
            "edges 2",
            "e 0 0 1 1.0 safe",
            "e 1 1 2 1.0 unsafe",
            *problem,
            "end",
        ]
        path = tmp_path / "inf.fni"
        path.write_text("\n".join(lines) + "\n")
        alg = "bulk" if problem[0] == "problem bulk" else "flex-sndp"
        for command in (["exact"], ["lp"], ["solve", "--alg", alg]):
            assert main([command[0], str(path), *command[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("infeasible:")

    def test_budget_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAULTNET_EXACT_BUDGET", "3")
        inst = generate(
            "random-multigraph",
            n=6,
            m=12,
            seed=1,
            params={"problem": "fgc", "p": 1, "q": 0},
        )
        path = tmp_path / "big.fni"
        path.write_text(serialize(inst))
        assert main(["exact", str(path)]) == 3

    @pytest.mark.parametrize("value", ["abc", "", "1e3", "-1"])
    @pytest.mark.parametrize("var", ["FAULTNET_EXACT_BUDGET", "FAULTNET_ENUM_BUDGET"])
    def test_bad_budget_variable_is_named(self, tmp_path, capsys, monkeypatch, var, value):
        # fgc reads both: the exact budget picks its base, and the final
        # feasibility check sweeps cuts under the enumeration budget.
        inst = generate(
            "random-multigraph",
            n=5,
            m=10,
            seed=1,
            params={"problem": "fgc", "p": 1, "q": 1},
        )
        path = tmp_path / "inst.fni"
        path.write_text(serialize(inst))
        monkeypatch.setenv(var, value)
        assert main(["solve", str(path), "--alg", "fgc"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad parameters: {var} must be a non-negative integer, got {value!r}\n"

    def test_enumeration_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "4")  # below 2^3 cuts
        path = tmp_path / "inst.fni"
        path.write_text("\n".join(_instance_lines()) + "\n")
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"edges": [0, 1, 2]}))
        assert main(["verify", str(path), str(sol)]) == 3
        assert "cuts exceed the enumeration budget" in capsys.readouterr().err

    def test_cut_sweeps_at_n21_are_refused_by_default(self, tmp_path, capsys, monkeypatch):
        # Each used to sweep all 2^21 cuts and exit 0, exact and lp after 10
        # to 20 s on a 2-CPU x86_64 host.  verify checks a bulk instance by
        # union-find and still answers; it checks a relative one on cuts,
        # and refuses it as it refuses a flex one.
        monkeypatch.delenv("FAULTNET_ENUM_BUDGET", raising=False)
        path = tmp_path / "n21.fni"
        params = json.dumps({"problem": "bulk", "width": 1, "scenarios": 2, "pairs": 1})
        argv = ["gen", "--kind", "random-multigraph", "--n", "21", "--m", "26", "--seed", "1"]
        assert main([*argv, "--params", params, "--out", str(path)]) == 0
        for command in (["exact"], ["solve", "--alg", "bulk"], ["lp"]):
            capsys.readouterr()
            assert main([command[0], str(path), *command[1:]]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "budget exceeded: 2^21 cuts exceed the enumeration budget\n"
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"edges": list(range(26))}))
        assert main(["verify", str(path), str(sol)]) == 0
        relative = tmp_path / "n21-relative.fni"
        params = json.dumps({"problem": "rsndp", "pairs": 1, "r": 2})
        assert main([*argv, "--params", params, "--out", str(relative)]) == 0
        capsys.readouterr()
        assert main(["verify", str(relative), str(sol)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: 2^21 cuts exceed the enumeration budget\n"

    def test_width_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # Three parallel 0-1 edges and three 1-2 edges, and one relative
        # pair 0-2 with r = 3: 1 + 6 + 15 = 22 failure sets, above a budget
        # of 8, and 2^3 = 8 cuts.  Neither the driver nor the check of
        # record lists failure sets, so both answer; the file used to exit
        # 3.  Only the cut sweep's budget refuses it.  G survives any two
        # failures, so H needs every edge.
        edges = [f"e {i} {i // 3} {i // 3 + 1} {1 + i % 3}.0 safe" for i in range(6)]
        path = tmp_path / "inst.fni"
        lines = ["faultnet-instance 1", "vertices 3", "edges 6", *edges, "problem rsndp", "relpair 0 2 3", "end"]
        path.write_text("\n".join(lines) + "\n")
        sol = tmp_path / "sol.json"
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "8")
        assert main(["solve", str(path), "--alg", "rsndp", "--out", str(sol)]) == 0
        assert json.loads(sol.read_text())["edges"] == list(range(6))
        assert main(["verify", str(path), str(sol)]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("FAULTNET_ENUM_BUDGET", "7")
        for argv in (["solve", str(path), "--alg", "rsndp"], ["verify", str(path), str(sol)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == "budget exceeded: 2^3 cuts exceed the enumeration budget\n"

    def test_relative_r_far_above_m_finishes(self, tmp_path, capsys):
        # r - 1 failed edges can be no more than m: counting C(m, k) for k
        # up to 10^12 used to hang verify, exact and solve on this file.
        path = tmp_path / "huge-r.fni"
        path.write_text("\n".join(_five_vertex_lines("problem rsndp", "relpair 3 4 1000000000000")) + "\n")
        sol = tmp_path / "sol.json"
        assert main(["solve", str(path), "--alg", "rsndp", "--out", str(sol)]) == 0
        assert main(["verify", str(path), str(sol)]) == 0
        assert main(["exact", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alg", ["flex-st", "fgc"])
    def test_huge_p_flex_files_are_infeasible(self, tmp_path, capsys, alg):
        # No graph of 8 edges is (10^12, q)-flex-connected.  The solvers
        # used to build a tuple of p stages first and print a MemoryError
        # traceback; they now exit 2, as verify, exact and lp do.
        p = 1000000000000
        if alg == "flex-st":
            pairs = [f"flexpair 3 4 {p} 1"]
        else:
            pairs = [f"flexpair {u} {v} {p} 2" for u in range(5) for v in range(u + 1, 5)]
        path = tmp_path / "huge-p.fni"
        path.write_text("\n".join(_five_vertex_lines("problem flex", *pairs)) + "\n")
        assert main(["solve", str(path), "--alg", alg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible: graph is not (1000000000000, ")
        assert captured.err.count("\n") == 1

    def test_bulk_sub_failures_are_not_refused(self, tmp_path, capsys, monkeypatch):
        # One scenario of 24 failed edges has 2^24 sub-failures, above the
        # default budget of 2,000,000.  The level loop lists none of them,
        # so the bulk driver answers; it used to refuse the file with exit 3.
        monkeypatch.delenv("FAULTNET_ENUM_BUDGET", raising=False)
        path = tmp_path / "parallel.fni"
        path.write_text("\n".join(_parallel_lines(15, 24)) + "\n")
        sol = tmp_path / "sol.json"
        assert main(["solve", str(path), "--alg", "bulk", "--out", str(sol)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(sol.read_text())["edges"] == list(range(0, 30, 3))
        assert main(["verify", str(path), str(sol)]) == 0
        suite = {"instances": [str(path)], "algorithms": ["bulk"], "seeds": [0]}
        records, _csv_text, code = bench(suite, with_timing=False)
        assert code == 0
        assert [r.error for r in records] == [""]

    @pytest.mark.parametrize(
        "failed, edges",
        [
            (16, [0, 3, 6, 9, 15, 24]),
            (20, [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]),
            (24, [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]),
        ],
    )
    def test_bulk_levels_list_no_sub_failures(self, monkeypatch, failed, edges):
        # The level oracle reads its violating sets off cut boundaries.  When
        # it listed every sub-failure, the 16- and 20-edge runs peaked at 14.6
        # and 211.7 MiB under tracemalloc; the 24-edge run was refused.
        monkeypatch.delenv("FAULTNET_ENUM_BUDGET", raising=False)
        inst = parse("\n".join(_parallel_lines(15, failed)))
        g = inst.to_graph()
        tracemalloc.start()
        try:
            H = solve_bulk_sndp(g, inst.problem.scenarios)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(H) == edges
        assert peak < 2**20

    def test_bench_command(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(small_suite(tmp_path)))
        out_csv = tmp_path / "run.csv"
        sols = tmp_path / "sols.json"
        rc = main(
            [
                "bench",
                str(suite_path),
                "--out",
                str(out_csv),
                "--no-timing",
                "--solutions",
                str(sols),
            ]
        )
        assert rc == 0
        assert out_csv.read_text().startswith("instance,algorithm")
        assert json.loads(sols.read_text())


class TestParallelBench:
    def test_jobs_two_matches_sequential(self, tmp_path):
        suite = small_suite(tmp_path)
        _r1, csv1, _ = bench(suite, jobs=1, with_timing=False)
        _r2, csv2, _ = bench(suite, jobs=2, with_timing=False)
        assert csv1 == csv2

    def test_worker_count_is_clamped_to_the_cells_and_the_cpus(self, monkeypatch):
        # A pure function: no worker process starts here.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(1, 10) == 1
        assert worker_count(3, 10) == 3
        assert worker_count(10**6, 10) == 4
        assert worker_count(10**6, 2) == 2
        assert worker_count(2, 0) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(8, 10) == 1
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                worker_count(jobs, 10)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_4(self, tmp_path, capsys, jobs):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(small_suite(tmp_path)))
        out_csv = tmp_path / "run.csv"
        assert main(["bench", str(suite_path), "--out", str(out_csv), "--jobs", jobs]) == 4
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not out_csv.exists()


def _strict_json(text: str):
    """The JSON value of ``text``; ValueError on NaN or an infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _fgc_specs():
    """The (2, 1) FGC instance of ``gen --kind random-multigraph --n 6 --m 14
    --seed 3`` with the mixed skeleton, and its edge costs."""
    params = {"problem": "fgc", "p": 2, "q": 1, "skeleton": "mixed"}
    inst = generate("random-multigraph", n=6, m=14, seed=3, params=params)
    return inst, [cost for _u, _v, cost, _label in inst.edge_specs]


def _with_costs(inst, costs) -> str:
    specs = tuple((u, v, cost, label) for (u, v, _c, label), cost in zip(inst.edge_specs, costs))
    return serialize(replace(inst, edge_specs=specs))


def _parse_order_sum(costs) -> float:
    total = 0.0
    for cost in costs:
        total += cost
    return total


class TestCostBound:
    def test_costs_that_overflow_are_refused(self, tmp_path, capsys):
        # Every even edge at 1e308: fgc used to end in an OverflowError
        # traceback, and exact printed "cost": Infinity.
        inst, costs = _fgc_specs()
        path = tmp_path / "huge.fni"
        path.write_text(_with_costs(inst, [1e308 if eid % 2 == 0 else c for eid, c in enumerate(costs)]))
        sol = tmp_path / "sol.json"
        sol.write_text('{"edges": [0]}')
        for argv in (
            ["solve", str(path), "--alg", "fgc"],
            ["solve", str(path), "--alg", "flex-sndp"],
            ["exact", str(path)],
            ["lp", str(path)],
            ["verify", str(path), str(sol)],
        ):
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not below the bound COST_SUM_LIMIT = 1e+300" in captured.err
        # A bench cell records the refusal, and no inf or nan reaches the CSV.
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": [str(path)], "algorithms": ["flex-sndp"], "exact": True}))
        out = tmp_path / "run.csv"
        assert main(["bench", str(suite), "--out", str(out), "--no-timing"]) == 0
        cell, summary = out.read_text().splitlines()[1:]
        assert cell.split(",")[3:9] == ["", "", "", "", "", ""]  # cost .. wall_ms
        assert "COST_SUM_LIMIT" in cell.split(",")[9]
        assert summary.split(",")[3:9] == ["", "", "", "", "", ""]

    def test_an_instance_at_the_bound_runs_every_algorithm_that_applies(self, tmp_path, capsys):
        inst, costs = _fgc_specs()
        # The even edges share what the odd ones leave of the bound, less
        # whatever rounding takes the sum to the bound.
        odd = _parse_order_sum(c for eid, c in enumerate(costs) if eid % 2)
        big = (COST_SUM_LIMIT - odd) / 7
        at_bound = lambda big: [big if eid % 2 == 0 else c for eid, c in enumerate(costs)]  # noqa: E731
        while not _parse_order_sum(at_bound(big)) < COST_SUM_LIMIT:
            big = math.nextafter(big, 0.0)
        assert _parse_order_sum(at_bound(big)) == math.nextafter(COST_SUM_LIMIT, 0.0)
        path = tmp_path / "bound.fni"
        path.write_text(_with_costs(inst, at_bound(big)))
        applies = {"fgc", "flex-sndp", "exact"}
        for alg in ALGORITHMS:
            sol = tmp_path / f"{alg}.json"
            code = main(["solve", str(path), "--alg", alg, "--out", str(sol)])
            out = capsys.readouterr().out
            if alg not in applies:
                assert code == 1 and out == ""
                continue
            assert code == 0
            summary = _strict_json(out)
            assert summary["feasible"] is True
            assert 0 < summary["cost"] < COST_SUM_LIMIT
            assert main(["verify", str(path), str(sol)]) == 0
            assert _strict_json(capsys.readouterr().out)["cost"] == summary["cost"]
        assert main(["exact", str(path)]) == 0
        assert 0 < _strict_json(capsys.readouterr().out)["cost"] < COST_SUM_LIMIT
        assert main(["lp", str(path)]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["separation_clean"]
        assert 0 < payload["objective"] < COST_SUM_LIMIT
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps({"instances": [str(path)], "algorithms": sorted(applies), "exact": True})
        )
        out = tmp_path / "run.csv"
        assert main(["bench", str(suite), "--out", str(out), "--no-timing"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[-1] == "" for row in rows)  # no cell error
        assert "inf" not in out.read_text() and "nan" not in out.read_text()
        # One edge dearer by the sum's last place reaches the bound: refused.
        over = at_bound(big)
        over[0] += math.ulp(COST_SUM_LIMIT)
        assert _parse_order_sum(over) >= COST_SUM_LIMIT
        path.write_text(_with_costs(inst, over))
        assert main(["exact", str(path)]) == 4
        assert "COST_SUM_LIMIT" in capsys.readouterr().err

    def test_a_non_finite_output_is_an_error_not_json(self, tmp_path, capsys, monkeypatch):
        # The cost bound keeps every output finite; should one not be, the
        # command fails instead of printing Infinity, which is not JSON.
        inst, costs = _fgc_specs()
        path = tmp_path / "inst.fni"
        path.write_text(_with_costs(inst, costs))
        monkeypatch.setattr(faultnet.exact, "exact_solve", lambda g, problem: (frozenset(), math.inf))
        assert main(["exact", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output is not JSON" in captured.err
