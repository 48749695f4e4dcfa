import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "compare_presets.py"


@pytest.fixture(scope="module")
def cmp():
    spec = importlib.util.spec_from_file_location("compare_presets", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, name, text):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)


def test_compare_dirs_reports_identity_rows_and_column_differences(cmp, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    same = "t,u\n0.1,1.5\n0.2,2.5\n"
    _write(a, "same.csv", same)
    _write(b, "same.csv", same)
    _write(a, "num.csv", "t,u,tag,kind\n0.1,1.0,x,all\n0.2,-4.0,y,all\n")
    _write(b, "num.csv", "t,u,tag,kind\n0.1,1.000001,x,all\n0.2,-4.0,z,all\n")
    _write(a, "rows.csv", "t,u\n0.1,1.0\n0.2,nan\n")
    _write(b, "rows.csv", "t,u\n0.1,1.0\n0.2,2.0\n0.3,3.0\n")
    _write(a, "only_a.csv", "t\n1\n")
    (a / "notes.txt").write_text("ignored")

    reports = cmp.compare_dirs(str(a), str(b))
    assert sorted(reports) == ["num.csv", "only_a.csv", "rows.csv", "same.csv"]
    assert reports["same.csv"] == {"identical": True, "rows": (2, 2), "columns": {}}

    num = reports["num.csv"]
    assert not num["identical"] and num["rows"] == (2, 2)
    assert num["columns"]["t"] == ("max_rel", 0.0)
    kind, worst = num["columns"]["u"]
    assert kind == "max_rel" and worst == pytest.approx(1e-6 / 1.000001)
    assert num["columns"]["tag"] == ("text", 1)
    # A text column equal on both sides is still text.
    assert num["columns"]["kind"] == ("text", 0)

    rows = reports["rows.csv"]
    assert rows["rows"] == (2, 3)
    assert rows["columns"]["u"] == ("max_rel", math.inf)
    assert reports["only_a.csv"] == {"missing": [str(b / "only_a.csv")]}

    text = cmp._format(reports)
    assert "same.csv: identical, 2 rows" in text
    assert "rows.csv: differs, 2 vs 3 rows" in text
    assert "only_a.csv: missing from" in text
    assert cmp.main(["compare", str(a), str(b)]) == 1


def test_compare_dirs_byte_identical_exit_code(cmp, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        _write(d, "thm21.csv", "t,u\n1e-8,0.5\n")
    assert cmp.main(["compare", str(a), str(b)]) == 0
    # The same numbers written differently are not byte-identical.
    _write(b, "thm21.csv", "t,u\n1.0e-8,0.5\n")
    assert cmp.compare_dirs(str(a), str(b))["thm21.csv"]["columns"]["t"] == ("max_rel", 0.0)
    assert cmp.main(["compare", str(a), str(b)]) == 1


def test_compare_dirs_reports_manifest_results(cmp, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        _write(d, "thm24.csv", "t,u\n1,0.5\n")
    run = "[run]\ntimestamp = {}\n\n"
    _write(a, "thm24.csv.manifest.ini", run.format("earlier")
           + "[results]\nfit = -0.27\nexponent = 0.9\nflag = False\n")
    _write(b, "thm24.csv.manifest.ini", run.format("later")
           + "[results]\nfit = -0.27\nexponent = 0.6\nspread = 1.14\n")

    rep = cmp.compare_dirs(str(a), str(b))["thm24.csv"]
    assert rep["identical"]
    assert rep["results"] == {"only_a": ["flag"], "only_b": ["spread"],
                              "differ": {"exponent": ("0.9", "0.6")}}
    text = cmp._format({"thm24.csv": rep})
    assert "[results] flag: only in A" in text
    assert "[results] spread: only in B" in text
    assert "[results] exponent: 0.9 vs 0.6" in text
    # Byte-identical CSVs still fail the comparison on a [results] change.
    assert cmp.main(["compare", str(a), str(b)]) == 1

    # [run] is not compared: matching results pass despite the timestamps.
    _write(b, "thm24.csv.manifest.ini", run.format("later")
           + "[results]\nfit = -0.27\nexponent = 0.9\nflag = False\n")
    rep = cmp.compare_dirs(str(a), str(b))["thm24.csv"]
    assert rep["results"] == {"only_a": [], "only_b": [], "differ": {}}
    assert cmp.main(["compare", str(a), str(b)]) == 0

    # A manifest on one side only reports every key as one-sided.
    (b / "thm24.csv.manifest.ini").unlink()
    rep = cmp.compare_dirs(str(a), str(b))["thm24.csv"]
    assert rep["results"]["only_a"] == ["exponent", "fit", "flag"]
    assert cmp.main(["compare", str(a), str(b)]) == 1


def test_run_writes_the_default_mml_eval_csv(cmp, tmp_path):
    # The default mml-eval command is the one CLI output that prints the
    # kernel's error estimates, so ``run`` writes it beside the presets.
    assert "mml-eval" in cmp.PRESETS
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    subprocess.run([sys.executable, "-c", cmp._RUN_ONE, "mml-eval", str(tmp_path)],
                   env=env, capture_output=True, check=True)
    header, rows = cmp._read(str(tmp_path / "mml-eval.csv"))
    assert header == ["t", "value", "method", "abs_error_estimate"]
    assert {row[2] for row in rows} == {"series", "contour"}
