"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest perfbench
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
FIRST_OPS = {"crosscheck": 18, "stability": 6}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _inputs(workload, seed):
    stream = workloads.WORKLOADS[workload](seed)
    return [(op.kind, op.props) for op, _ in zip(stream, range(FIRST_OPS[workload]))]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_spec_names_and_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_present(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "crosscheck", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    value = {k: v["value"] for k, v in metrics.items()}
    # The cli layer is timed in its own window, the CLI preset pass.
    layer_self = sum(value[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "cli")
    assert layer_self + value["trace.outside_s"] == pytest.approx(value["trace.wall_s"])
    assert value["cli.csv_identical"] == 1
    assert value["specfun.values"] > 0 and value["cli.calls"] > 0


def test_times_scale_to_the_reference_speed():
    slow = [run.REF_MS * 2] * 3 + [run.REF_MS * 9]
    assert run.scale_to_reference([1.0, 3.0], slow) == [0.5, 1.5]


def test_recorder_restores_the_program():
    import mtfrac.solver as solver
    import mtfrac.specfun as specfun
    before = (solver.e_solver_many, specfun.e_solver_many, solver.Problem.build)
    rec = tracing.Recorder()
    rec.install()
    try:
        assert solver.e_solver_many is not before[0]
        assert solver.e_solver_many is specfun.e_solver_many
    finally:
        rec.uninstall()
    assert (solver.e_solver_many, specfun.e_solver_many, solver.Problem.build) == before


def test_fails_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    proc = _bench("--workload", "crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
