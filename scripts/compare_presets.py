#!/usr/bin/env python3
"""Run the CLI presets of a source tree, or compare two sets of their CSVs.

    python scripts/compare_presets.py run TREE OUT_DIR
    python scripts/compare_presets.py compare DIR_A DIR_B

``run`` puts ``TREE/src`` on PYTHONPATH and writes the five presets' CSVs,
the ``verify`` CSV (as ``verify.csv``) and the CSV of the default
``mml-eval`` command (as ``mml-eval.csv``, the one output that prints the
kernel's error estimates) to OUT_DIR, one process per run, with BLAS threads
pinned to 1 so two trees sum in the same order.

``compare`` reports, for every CSV in either directory, whether the two
files are byte-identical and their row counts; for a file that differs, the
largest relative difference of each numeric column (and the number of
differing cells of each text column).  Where either side has the CSV's
``.manifest.ini``, it also reports the keys of the manifests' ``[results]``
sections found on one side only and those whose values differ; the other
sections hold the run's timestamp, library versions and echoed config, and
are not compared.  It exits with 1 unless every CSV is byte-identical and
every ``[results]`` section matches.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import subprocess
import sys

PRESETS = ("thm21", "thm22", "thm23", "thm24", "rem36", "verify", "mml-eval")

_RUN_ONE = """
import sys
from mtfrac import cli
name, out_dir = sys.argv[1:]
cfg = cli.preset_config(name) if name in cli.PRESETS else cli.RunConfig(command=name)
cfg.out_path = name + ".csv"
sys.exit(cli.run(cfg, out_dir=out_dir))
"""


def run_presets(tree: str, out_dir: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name in PRESETS:
        proc = subprocess.run([sys.executable, "-c", _RUN_ONE, name, out_dir],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
        print(f"wrote {os.path.join(out_dir, name + '.csv')}")


def _read(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _rel_diff(a: str, b: str) -> float:
    """Relative difference of two numeric cells."""
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_file(path_a: str, path_b: str) -> dict:
    """Byte identity, row counts and, per column, the largest relative
    difference (numeric) or the count of differing cells (text, a column
    with any cell that is not a number)."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        identical = fa.read() == fb.read()
    header_a, rows_a = _read(path_a)
    header_b, rows_b = _read(path_b)
    report = {"identical": identical, "rows": (len(rows_a), len(rows_b)),
              "columns": {}}
    if identical:
        return report
    if header_a != header_b:
        report["header"] = (header_a, header_b)
    for j, name in enumerate(header_a[:len(header_b)]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)]
        if all(_is_number(a) and _is_number(b) for a, b in pairs):
            worst = max((_rel_diff(a, b) for a, b in pairs), default=0.0)
            report["columns"][name] = ("max_rel", worst)
        else:
            report["columns"][name] = ("text", sum(a != b for a, b in pairs))
    return report


def _results(csv_path: str) -> dict:
    """The ``[results]`` section of a CSV's manifest; empty if absent."""
    cp = configparser.ConfigParser()
    cp.read(csv_path + ".manifest.ini")
    return dict(cp["results"]) if cp.has_section("results") else {}


def compare_results(path_a: str, path_b: str) -> dict:
    """Keys of the two manifests' ``[results]`` found on one side only, and
    the (a, b) values of the shared keys that differ."""
    ra, rb = _results(path_a), _results(path_b)
    return {"only_a": sorted(ra.keys() - rb.keys()),
            "only_b": sorted(rb.keys() - ra.keys()),
            "differ": {k: (ra[k], rb[k]) for k in sorted(ra.keys() & rb.keys())
                       if ra[k] != rb[k]}}


def _matches(rep: dict) -> bool:
    res = rep.get("results", {})
    return bool(rep.get("identical")) and not any(res.values())


def compare_dirs(dir_a: str, dir_b: str) -> dict:
    names = sorted({f for d in (dir_a, dir_b) for f in os.listdir(d)
                    if f.endswith(".csv")})
    out = {}
    for name in names:
        paths = [os.path.join(d, name) for d in (dir_a, dir_b)]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            out[name] = {"missing": missing}
            continue
        out[name] = compare_file(*paths)
        if any(os.path.exists(p + ".manifest.ini") for p in paths):
            out[name]["results"] = compare_results(*paths)
    return out


def _format(reports: dict) -> str:
    lines = []
    for name, rep in reports.items():
        if "missing" in rep:
            lines.append(f"{name}: missing from {', '.join(rep['missing'])}")
            continue
        rows = "{} rows".format(rep["rows"][0]) if rep["rows"][0] == rep["rows"][1] \
            else "{} vs {} rows".format(*rep["rows"])
        lines.append(f"{name}: {'identical' if rep['identical'] else 'differs'}, {rows}")
        if "header" in rep:
            lines.append(f"  header {rep['header'][0]} vs {rep['header'][1]}")
        for col, (kind, v) in rep["columns"].items():
            lines.append(f"  {col}: " + (f"{v} differing cells" if kind == "text"
                                         else f"max relative difference {v:.3g}"))
        res = rep.get("results", {})
        for side in ("a", "b"):
            for key in res.get("only_" + side, ()):
                lines.append(f"  [results] {key}: only in {side.upper()}")
        for key, (va, vb) in res.get("differ", {}).items():
            lines.append(f"  [results] {key}: {va} vs {vb}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run the presets of a source tree")
    p_run.add_argument("tree")
    p_run.add_argument("out_dir")
    p_cmp = sub.add_parser("compare", help="compare two output directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run_presets(args.tree, args.out_dir)
        return 0
    reports = compare_dirs(args.dir_a, args.dir_b)
    print(_format(reports))
    return 0 if reports and all(_matches(r) for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
