"""Tests of the benchmark itself, on tiny runs of every workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_faultnet()

from tracer import bindings_restored, faultnet_bindings, metric_names  # noqa: E402
from workloads import WORKLOADS, check_lp_with_scipy, run_one  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 1.0
SEED = 3


def _cli(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_names_match_the_code():
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [name for name in WORKLOADS if name != "fgc-fallback"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_cli_run_prints_every_metric(workload, trace):
    out = _cli("--workload", workload, "--seed", str(SEED),
               "--seconds", str(TINY_SECONDS), "--trace", str(trace))
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    report = "\n".join(lines[:-1])
    for name in [m["name"] for m in spec] + ["failed_frac"]:
        assert f"metric {name} " in report
    assert any(line.startswith("metric failed_frac ") and " 0.000000 " in line for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == SEED and env["nproc"] >= 1 and env["python"] and env["numpy"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_digest_stable_and_wrappers_restored(workload):
    before = faultnet_bindings()
    plain = run.measure(workload, SEED, TINY_SECONDS, trace=False)
    traced_a = run.measure(workload, SEED, TINY_SECONDS, trace=True)
    traced_b = run.measure(workload, SEED, TINY_SECONDS, trace=True)
    assert bindings_restored(before)
    for res in (plain, traced_a, traced_b):
        assert res["correct"] and res["failed"] == 0, res["failures"] + res["problems"]
    assert plain["digest"] == traced_a["digest"] == traced_b["digest"]
    counts = [k for k in metric_names() if not k.endswith("_ms") and k != "trace.overhead"]
    assert {k: traced_a["metrics"][k] for k in counts} == {k: traced_b["metrics"][k] for k in counts}
    assert traced_a["metrics"]["bench.run_cell.calls"] + traced_a["metrics"]["lp.cutting_plane_flex.calls"] \
        + traced_a["metrics"]["lp.cutting_plane_bulk.calls"] > 0


def test_another_seed_gives_other_instances():
    a = run.measure("bulk-relative", SEED, TINY_SECONDS, trace=False)
    b = run.measure("bulk-relative", SEED + 1, TINY_SECONDS, trace=False)
    assert a["digest"] != b["digest"]


def test_checks_catch_wrong_answers():
    cells = WORKLOADS["ratio-sweep"].make_cells(SEED, 4)
    tight = dataclasses.replace(cells[0], guarantee=0.5)
    assert "exceeds guarantee" in run_one(tight).error
    lp_cell = WORKLOADS["lp-cutting-plane"].make_cells(SEED, 2)[1]
    out = run_one(lp_cell)
    assert out.error == "" and check_lp_with_scipy(out) == ""
    out.lp_rows[2] += 1e-3
    assert "scipy" in check_lp_with_scipy(out)


def test_refuses_budget_override():
    for var in run.BUDGET_VARS:
        env = dict(os.environ, **{var: "40"})
        out = _cli("--workload", "bulk-relative", "--seed", "1", "--seconds", "1", env=env)
        assert out.returncode == 2 and out.stdout == ""


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "bulk-relative", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode == 2 and out.stdout == ""
