import configparser
import csv
import dataclasses
import os

import numpy as np
import pytest

from mtfrac import cli, specfun


MINIMAL_CONFIG = """\
[orders]
alphas = 0.5
qs = 1.0

[operator]
interval = 0, 3.141592653589793
n_interior = 63

[initial]
kind = mode:1

[numerics]
t_grid = 0.01:1.0:5:log

[output]
path = run.csv
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, MINIMAL_CONFIG))
    assert cfg.alphas == (0.5,)
    assert cfg.n_interior == 63
    assert cfg.initial_kind == "mode:1"
    assert cfg.out_path == "run.csv"


def test_parse_rejects_increasing_alphas(tmp_path):
    text = MINIMAL_CONFIG.replace("alphas = 0.5\nqs = 1.0",
                                  "alphas = 0.3, 0.8\nqs = 1.0, 1.0")
    with pytest.raises(cli.ConfigError, match="strictly decreasing"):
        cli.parse_config(_write(tmp_path, text))


def test_parse_rejects_bad_leading_weight(tmp_path):
    text = MINIMAL_CONFIG.replace("qs = 1.0", "qs = 2.0")
    with pytest.raises(cli.ConfigError, match="q_1 must equal 1"):
        cli.parse_config(_write(tmp_path, text))


def test_parse_rejects_unknown_key(tmp_path):
    # quad_panels was a key once; its only reader is gone
    for key in ("bogus_key", "quad_panels"):
        text = MINIMAL_CONFIG.replace("[numerics]", f"[numerics]\n{key} = 3")
        with pytest.raises(cli.ConfigError, match=f"unknown key '{key}'"):
            cli.parse_config(_write(tmp_path, text))


def test_parse_rejects_unknown_section(tmp_path):
    text = MINIMAL_CONFIG + "\n[extras]\nx = 1\n"
    with pytest.raises(cli.ConfigError, match="unknown section"):
        cli.parse_config(_write(tmp_path, text))


def test_parse_missing_file():
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.parse_config("/nonexistent/path.ini")


def test_grid_spec_parsing(tmp_path):
    g = cli._parse_grid("1:100:3:log")
    np.testing.assert_allclose(g, [1.0, 10.0, 100.0])
    g2 = cli._parse_grid("0:1:3:linear")
    np.testing.assert_allclose(g2, [0.0, 0.5, 1.0])
    with pytest.raises(cli.ConfigError):
        cli._parse_grid("1:2:3")
    with pytest.raises(cli.ConfigError):
        cli._parse_grid("-1:2:3:log")
    for spec in ("a:b:3:log", "1:2:x:linear"):
        with pytest.raises(cli.ConfigError, match="t_grid"):
            cli._parse_grid(spec)
    text = MINIMAL_CONFIG.replace("t_grid = 0.01:1.0:5:log", "t_grid = a:b:3:log")
    with pytest.raises(cli.ConfigError, match="t_grid"):
        cli.parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("section, key", [
    ("orders", "alphas"), ("operator", "n_interior"), ("initial", "kind"),
    ("source", "t_final"), ("numerics", "t_grid"), ("output", "path"),
])
def test_parse_rejects_empty_value(tmp_path, section, key):
    text = "\n".join(line for line in MINIMAL_CONFIG.splitlines()
                     if not line.startswith(f"{key} ="))
    if f"[{section}]" not in text:
        text += f"\n[{section}]\n"
    text = text.replace(f"[{section}]", f"[{section}]\n{key} =")
    with pytest.raises(cli.ConfigError, match=rf"\[{section}\] {key}: empty"):
        cli.parse_config(_write(tmp_path, text))


def test_run_solve_writes_csv_and_manifest(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, MINIMAL_CONFIG))
    cfg.command = "solve"
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    csv_path = tmp_path / "run.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,l2_norm,h1_norm,dl_norm,dist_init_norm"
    assert len(lines) == 6
    manifest = configparser.ConfigParser()
    manifest.read(str(csv_path) + ".manifest.ini")
    assert manifest["run"]["command"] == "solve"
    assert "series_contour_crossover" in manifest["constants"]


def test_run_solve_forced_from_t_zero(tmp_path):
    # With zero initial value the forced solution starts at exactly 0.
    text = MINIMAL_CONFIG.replace("kind = mode:1",
                                  "kind = zero\n\n[source]\nkind = mode-const:2:1.0")
    text = text.replace("t_grid = 0.01:1.0:5:log", "t_grid = 0:2:9:linear")
    cfg = cli.parse_config(_write(tmp_path, text))
    cfg.command = "solve"
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[:2] == ["t,l2_norm,forced_norm", "0,0,0"]
    assert len(lines) == 10
    assert all(float(v) > 0.0 for line in lines[2:] for v in line.split(","))


def test_run_reproducible_bytes(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, MINIMAL_CONFIG))
    cfg.command = "solve"
    cli.run(cfg, out_dir=str(tmp_path / "a"))
    cli.run(cfg, out_dir=str(tmp_path / "b"))
    data_a = (tmp_path / "a" / "run.csv").read_bytes()
    data_b = (tmp_path / "b" / "run.csv").read_bytes()
    assert data_a == data_b


def test_run_eigen(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, MINIMAL_CONFIG))
    cfg.command = "eigen"
    cli.run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "n,lambda"
    assert len(lines) == 64


def test_run_mml_eval(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, MINIMAL_CONFIG))
    cfg.command = "mml-eval"
    cfg.lam = 2.0
    cfg.beta0 = 1.0
    cli.run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "t,value,method,abs_error_estimate"
    assert "series" in lines[1] or "contour" in lines[1]


def test_mml_eval_rows_match_per_time_mml_eval(tmp_path):
    # Each row is mml_eval at its time: the same value, method and
    # estimate, bit for bit, on both sides of the crossover.
    text = MINIMAL_CONFIG.replace("alphas = 0.5\nqs = 1.0",
                                  "alphas = 0.8, 0.5, 0.2\nqs = 1.0, 1.5, 0.5")
    text = text.replace("t_grid = 0.01:1.0:5:log", "t_grid = 0.001:1000:25:log")
    cfg = cli.parse_config(_write(tmp_path, text))
    cfg.command = "mml-eval"
    cfg.lam = 10.0
    cfg.beta0 = 1.3
    cli.run(cfg, out_dir=str(tmp_path))
    with open(tmp_path / "run.csv") as fh:
        rows = list(csv.DictReader(fh))
    orders = cfg.orders()
    params = specfun.solver_params(orders, cfg.beta0)
    assert {row["method"] for row in rows} == {"series", "contour"}
    for row in rows:
        t = float(row["t"])
        ref = specfun.mml_eval(params, specfun.solver_args(orders, cfg.lam, t), tol=cfg.tol)
        assert row["method"] == ref.method.value, t
        assert float(row["value"]) == ref.value.real, t
        assert float(row["abs_error_estimate"]) == ref.abs_error_estimate, t


def test_counterexample_outputs(tmp_path):
    cfg = cli.preset_config("rem36")
    cfg.l1_steps = 1024
    cli.run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "rem36.csv").read_text().splitlines()
    assert lines[0] == "t,abs_u"
    manifest = configparser.ConfigParser()
    manifest.read(str(tmp_path / "rem36.csv.manifest.ini"))
    assert manifest["results"]["verdict"] == "grows"
    assert manifest["results"]["control_verdict"] == "decays"
    assert float(manifest["results"]["r_plus"]) > 0


def test_main_error_paths(tmp_path, capsys):
    assert cli.main(["solve", "--config", "/no/such/file.ini"]) == 1
    assert "error" in capsys.readouterr().err
    assert cli.main(["solve", "--preset", "nope"]) == 1
    bad = _write(tmp_path, MINIMAL_CONFIG.replace("qs = 1.0", "qs = 3.0"))
    assert cli.main(["solve", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "q_1 must equal 1" in err


@pytest.mark.parametrize("attr, spec, message", [
    ("initial_kind", "mode:99", r"\[initial\] kind: mode index .* 1\.\.7, got 'mode:99'"),
    ("source_kind", "mode-const:99:1.0", r"\[source\] kind: mode index .* 1\.\.7"),
    ("initial_kind", "mode:x", r"\[initial\] kind: mode index must be an integer"),
    ("source_kind", "mode-const:", r"\[source\] kind: mode index must be an integer"),
    ("initial_kind", "sine:2", r"\[initial\] kind: unknown kind"),
    ("initial_kind", "modal-decay:x", r"\[initial\] kind: parameters must be numbers"),
    ("source_kind", "mode-const:2:x", r"\[source\] kind: parameters must be numbers"),
])
def test_validate_checks_kind_and_mode_index(attr, spec, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli.RunConfig(n_interior=7, **{attr: spec}).validate()


def test_validate_accepts_last_mode():
    cli.RunConfig(n_interior=7, initial_kind="mode:7",
                  source_kind="mode-const:7:2.0").validate()


def test_main_reports_unwritable_output(tmp_path, capsys):
    # An --out path that is a file, or sits under one, and an [output] path
    # in a missing directory end in one error line, not a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(["eigen", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mtfrac: error: ") and err.count("\n") == 1
    cfg_path = _write(tmp_path, MINIMAL_CONFIG.replace("path = run.csv",
                                                       "path = missing/run.csv"))
    assert cli.main(["eigen", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mtfrac: error: ") and err.count("\n") == 1


def test_main_preset_command_mismatch():
    assert cli.main(["solve", "--preset", "rem36"]) == 1


def test_main_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MTFRAC_OUT", str(tmp_path / "envout"))
    cfg_path = _write(tmp_path, MINIMAL_CONFIG)
    assert cli.main(["eigen", "--config", cfg_path]) == 0
    assert (tmp_path / "envout" / "run.csv").exists()


def test_main_fast_profile(tmp_path):
    cfg_path = _write(tmp_path, MINIMAL_CONFIG)
    assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path),
                     "--tol-profile", "fast"]) == 0


def test_preset_configs_validate():
    for name in cli.PRESETS:
        cfg = cli.preset_config(name)
        assert cfg.command in cli._COMMANDS


def test_manifest_echoes_every_config_key(tmp_path):
    table = {f.name for f in cli._CONFIG_FIELDS}
    assert table == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"command"}
    for name in cli.PRESETS:
        path = str(tmp_path / f"{name}.manifest.ini")
        cli._write_manifest(path, cli.preset_config(name), {})
        manifest = configparser.ConfigParser()
        manifest.read(path)
        assert set(manifest["config"]) == table
        if name == "rem36":
            assert float(manifest["config"]["source_t_final"]) == 5.0


def test_tabulated_coefficients(tmp_path):
    n = 7
    d_vals = ",".join(str(1.0 + 0.1 * i) for i in range(n + 2))
    c_vals = ",".join("0.0" for _ in range(n))
    text = MINIMAL_CONFIG.replace(
        "n_interior = 63",
        f"n_interior = {n}\ndiffusion = table:{d_vals}\npotential = table:{c_vals}")
    cfg = cli.parse_config(_write(tmp_path, text))
    cfg.command = "eigen"
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert len(lines) == n + 1


def test_tabulated_wrong_length_rejected(tmp_path):
    text = MINIMAL_CONFIG.replace("n_interior = 63",
                                  "n_interior = 7\ndiffusion = table:1.0,2.0")
    with pytest.raises(cli.ConfigError, match="shape"):
        cli.parse_config(_write(tmp_path, text))


def test_preset_thm24_end_to_end(tmp_path):
    cfg = cli.preset_config("thm24")
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    manifest = configparser.ConfigParser()
    manifest.read(str(tmp_path / "thm24.csv.manifest.ini"))
    results = manifest["results"]
    assert abs(float(results["fitted_decay_exponent"]) - (-0.3)) < 0.05
    # Orders (0.9, 0.3): the remainder decays like t^{-min(0.9, 2 * 0.3)}.
    assert float(results["residual_exponent"]) == 0.6
    assert "residual_exponent_single_term_substitution" not in results
    with open(tmp_path / "thm24.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "l2_norm", "dl_norm", "leading_norm", "scaled_residual"]
    assert len(rows) == 15
    scaled = [float(r[4]) for r in rows]
    assert max(scaled) / min(scaled) < 1.5


def _count_norm_blocks(monkeypatch):
    """Record each modal_frac_norm call, under both names it is called by."""
    from mtfrac import analysis, spectral
    calls = []
    norm = spectral.modal_frac_norm

    def counting(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr(spectral, "modal_frac_norm", counting)
    monkeypatch.setattr(analysis, "modal_frac_norm", counting)
    return calls


def test_preset_thm21_short_time_verdict(tmp_path, monkeypatch):
    # The rows and the short-time verdict share one amplitude block, and the
    # verdict reads the last column's norms: one norm block per column.
    from mtfrac import specfun
    calls = []

    def counting(*args):
        calls.append(args)
        return solver_family(*args)

    solver_family = specfun._solver_family
    monkeypatch.setattr(specfun, "_solver_family", counting)
    norm_calls = _count_norm_blocks(monkeypatch)
    cfg = cli.preset_config("thm21")
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    assert len(calls) == 1
    assert len(norm_calls) == 4
    manifest = configparser.ConfigParser()
    manifest.read(str(tmp_path / "thm21.csv.manifest.ini"))
    assert manifest["results"]["short_time_vanishing"] == "True"


def test_preset_thm22_forced_verdict(tmp_path, monkeypatch):
    # The rows and the verdict share one block of forced modal values: two
    # kernel calls for the whole grid (K1 at its times, K2 at their lags),
    # and one norm block per column.
    from mtfrac import specfun
    calls = []

    def counting(*args):
        calls.append(args)
        return solver_family(*args)

    solver_family = specfun._solver_family
    monkeypatch.setattr(specfun, "_solver_family", counting)
    norm_calls = _count_norm_blocks(monkeypatch)
    cfg = cli.preset_config("thm22")
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    assert [beta0 for _, _, beta0, _ in calls] == [1.7, 2.7]
    assert len(norm_calls) == 2
    manifest = configparser.ConfigParser()
    manifest.read(str(tmp_path / "thm22.csv.manifest.ini"))
    assert manifest["results"]["short_time_vanishing"] == "True"
    lines = (tmp_path / "thm22.csv").read_text().splitlines()
    assert lines[0] == "t,l2_norm,forced_norm"


def test_preset_thm24_one_block_per_column(tmp_path, monkeypatch):
    # One amplitude block, one norm block per column plus the residual's
    # ||a||, and the leading term once for its column and once for the
    # residual, each over the whole grid.
    from mtfrac import analysis, specfun
    calls, lead_calls = [], []

    def counting(*args):
        calls.append(args)
        return solver_family(*args)

    def counting_lead(*args):
        lead_calls.append(args)
        return leading_term(*args)

    solver_family = specfun._solver_family
    leading_term = analysis.asymptotic_leading_term
    monkeypatch.setattr(specfun, "_solver_family", counting)
    monkeypatch.setattr(analysis, "asymptotic_leading_term", counting_lead)
    norm_calls = _count_norm_blocks(monkeypatch)
    cfg = cli.preset_config("thm24")
    assert cli.run(cfg, out_dir=str(tmp_path)) == 0
    assert len(calls) == 1
    assert len(norm_calls) == 5
    assert len(lead_calls) == 2


def test_preset_thm23_fast_profile(tmp_path):
    assert cli.main(["stability", "--preset", "thm23", "--out", str(tmp_path),
                     "--tol-profile", "fast"]) == 0
    lines = (tmp_path / "thm23.csv").read_text().splitlines()
    assert lines[0] == "channel,level,delta,diff_norm,ratio"
    manifest = configparser.ConfigParser()
    manifest.read(str(tmp_path / "thm23.csv.manifest.ini"))
    for channel in ("alpha", "q", "diffusion", "all"):
        assert float(manifest["results"][f"{channel}_ratio_spread"]) < 5.0


def test_coefficient_invariants_rejected_at_parse(tmp_path):
    text = MINIMAL_CONFIG.replace("n_interior = 63",
                                  "n_interior = 63\ndiffusion = constant:-1.0")
    with pytest.raises(cli.ConfigError, match="positive"):
        cli.parse_config(_write(tmp_path, text))
    text2 = MINIMAL_CONFIG.replace("n_interior = 63",
                                   "n_interior = 63\npotential = constant:0.5")
    with pytest.raises(cli.ConfigError, match="non-positive"):
        cli.parse_config(_write(tmp_path, text2))
    for spec in ("constant:1:2", "constant:abc"):
        text3 = MINIMAL_CONFIG.replace("n_interior = 63",
                                       f"n_interior = 63\ndiffusion = {spec}")
        with pytest.raises(cli.ConfigError, match="diffusion: bad builtin"):
            cli.parse_config(_write(tmp_path, text3))


def test_verify_suite_passes_every_check():
    results = {name: (ok, detail) for name, ok, detail in cli._verify_suite()}
    assert {"l1-vs-amplitude", "counterexample-verdicts"} <= results.keys()
    assert {name: detail for name, (ok, detail) in results.items() if not ok} == {}


def test_verify_kernel_positivity_evaluates_20_samples(monkeypatch):
    # Draws whose orders lie closer than 0.05 are skipped, not counted.
    calls = []
    kernel = specfun.e_solver
    monkeypatch.setattr(specfun, "e_solver", lambda *a: calls.append(a) or kernel(*a))
    for name, ok, detail in cli._verify_suite():
        if name == "kernel-positivity":
            break
        calls.clear()            # count the calls of the next check only
    assert ok, detail
    assert len(calls) == 20
