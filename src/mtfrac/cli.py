"""Command-line driver: config parsing, experiment dispatch, CSV reports.

Configs are INI files with sections [orders], [operator], [initial],
[source], [numerics], [output].  Each key is declared once, as a
``RunConfig`` field whose metadata gives its section, INI name, converter,
sign check and ``--tol-profile fast`` divisor; parsing, validation, the
manifest echo and the fast profile all read that table.  Parsing is
strict: unknown sections and keys and empty values are errors.  Every run
writes a CSV data file plus a manifest echoing every config key, the
package constants, and library versions, so identical configs reproduce
byte-identical data files at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import importlib.metadata
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, analysis, constants, oracle, solver, spectral, specfun

__all__ = ["RunConfig", "parse_config", "run", "main", "PRESETS"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _floats(text):
    return tuple(float(v) for v in text.split(","))


_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)


def _key(default, section, conv, *, ini=None, check=None, fast=None):
    """Declare a config key: its default, INI section, INI name (when it
    differs from the attribute), converter from INI text, optional
    (word, predicate) sign check, and ``--tol-profile fast`` divisor."""
    return field(default=default, metadata={
        "section": section, "ini": ini, "conv": conv, "check": check,
        "fast": fast})


@dataclass
class RunConfig:
    command: str = "solve"
    # problem; orders and operator invariants are checked by FracOrders
    # and Operator1D themselves
    alphas: tuple = _key((0.5,), "orders", _floats)
    qs: tuple = _key((1.0,), "orders", _floats)
    interval: tuple = _key((0.0, math.pi), "operator", _floats)
    n_interior: int = _key(255, "operator", int)
    diffusion: str = _key("constant:1.0", "operator", str)
    potential: str = _key("constant:0.0", "operator", str)
    initial_kind: str = _key("mode:1", "initial", str, ini="kind")
    source_kind: str = _key("none", "source", str, ini="kind")
    source_t_final: float = _key(2.0, "source", float, ini="t_final",
                                 check=_POSITIVE)
    source_n_samples: int = _key(257, "source", int, ini="n_samples",
                                 check=_POSITIVE)
    # numerics
    t_grid: str = _key("0.01:2:9:log", "numerics", str)
    l1_steps: int = _key(4096, "numerics", int, check=_POSITIVE, fast=4)
    l1_grading: float = _key(4.0, "numerics", float, check=_POSITIVE)
    gamma: float = _key(0.75, "numerics", float, check=_NON_NEGATIVE)
    tau: float = _key(0.8, "numerics", float, check=_POSITIVE)
    lam: float = _key(10.0, "numerics", float, check=_POSITIVE)
    beta0: float = _key(1.0, "numerics", float, check=_POSITIVE)
    levels: int = _key(7, "numerics", int, check=_POSITIVE, fast=2)
    perturb_eps: float = _key(0.2, "numerics", float, check=_POSITIVE)
    tol: float = _key(1e-12, "numerics", float, check=_POSITIVE)
    # output
    out_path: str = _key("out.csv", "output", str, ini="path")

    def orders(self) -> solver.FracOrders:
        return solver.FracOrders(alphas=self.alphas, qs=self.qs)

    def validate(self):
        """Check every key, then build the orders, time grid and operator,
        and check the grid and the kinds against each other and the
        command, so their invariants surface here and never mid-run.  The
        command-free checks hold for every command, since an INI config is
        parsed before its command is known."""
        if self.command not in _COMMANDS:
            raise ConfigError(f"command must be one of {_COMMANDS}")
        for f in _CONFIG_FIELDS:
            check = f.metadata["check"]
            if check and not check[1](getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {check[0]}")
        if len(self.interval) != 2:
            raise ConfigError("interval must have two endpoints")
        try:
            self.orders()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        grid = _parse_grid(self.t_grid)
        _build_operator(self)
        initial = _kind(self, "initial")[0]
        forced = _kind(self, "source")[0] != "none"
        if grid.min() < 0:
            raise ConfigError("t_grid times must be non-negative")
        if forced and self.command in ("asymptotics", "stability"):
            raise ConfigError(f"{self.command} runs on homogeneous problems")
        if forced and initial != "zero":
            raise ConfigError("a forced problem requires [initial] kind = zero")
        # The source history ends at t_final, within the solver's 1e-12.
        if forced and grid.max() > self.source_t_final + 1e-12:
            raise ConfigError(f"t_grid reaches t = {float(grid.max())}, past "
                              f"[source] t_final = {self.source_t_final}")
        if self.command == "asymptotics" and (
                grid.size < 5 or grid[0] <= 0 or np.any(np.diff(grid) <= 0)):
            raise ConfigError("asymptotics needs a t_grid of at least 5 positive, "
                              "increasing times")
        return self


_CONFIG_FIELDS = tuple(f for f in fields(RunConfig) if f.metadata)


def parse_config(path) -> RunConfig:
    """Read and validate an INI run configuration (strict key checking)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    table = {(f.metadata["section"], f.metadata["ini"] or f.name): f
             for f in _CONFIG_FIELDS}
    sections = {section for section, _ in table}
    cfg = RunConfig()
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in cp[section].items():
            f = table.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            if not text:
                raise ConfigError(f"[{section}] {key}: empty value")
            try:
                setattr(cfg, f.name, f.metadata["conv"](text))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    if cp.has_option("orders", "alphas") and not cp.has_option("orders", "qs"):
        cfg.qs = (1.0,) * len(cfg.alphas)
    return cfg.validate()


def _parse_grid(spec) -> np.ndarray:
    """Grid spec 'start:stop:count:scale' with scale log or linear."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"t_grid must be start:stop:count:scale, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(
            f"t_grid: start, stop and count must be numbers, got {spec!r}") from exc
    scale = parts[3].strip().lower()
    if count < 2:
        raise ConfigError("t_grid count must be at least 2")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log t_grid needs positive endpoints")
        return np.logspace(math.log10(start), math.log10(stop), count)
    if scale == "linear":
        return np.linspace(start, stop, count)
    raise ConfigError(f"t_grid scale must be log or linear, got {scale!r}")


# ---------------------------------------------------------------------------
# Problem construction from a config

def _coefficient(spec_text, builtins, key):
    """Builtin name with parameters, or 'table:v1,v2,...' raw samples."""
    name, _, rest = spec_text.partition(":")
    if name == "table":
        try:
            return np.array([float(v) for v in rest.split(",")])
        except ValueError as exc:
            raise ValueError(f"{key}: malformed table values") from exc
    if name not in builtins:
        raise ValueError(f"unknown {key} builtin: {spec_text}")
    try:
        args = [float(v) for v in rest.split(":")] if rest else []
        return builtins[name](*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: bad builtin parameters in {spec_text!r}") from exc


def _build_operator(cfg: RunConfig) -> spectral.Operator1D:
    try:
        d = _coefficient(cfg.diffusion, spectral.DIFFUSION_BUILTINS, "diffusion")
        c = _coefficient(cfg.potential, spectral.POTENTIAL_BUILTINS, "potential")
        return spectral.Operator1D.from_callables(cfg.interval, cfg.n_interior,
                                                  diffusion=d, potential=c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Kinds of [initial] kind and [source] kind; ``mode`` and ``mode-const``
# take a 1-based mode index (default 1) as their first parameter.
_KINDS = {"initial": ("zero", "mode", "modal-decay", "bump"),
          "source": ("none", "mode-const")}


def _kind(cfg: RunConfig, section: str):
    """(kind, args) of ``[section] kind``, checked; a mode kind's index is
    replaced by its 0-based eigenvector column and the other parameters are
    converted to floats."""
    spec = getattr(cfg, f"{section}_kind")
    kind, *args = spec.split(":")
    if kind not in _KINDS[section]:
        raise ConfigError(f"[{section}] kind: unknown kind {spec!r}")
    index = []
    if kind in ("mode", "mode-const"):
        k = args.pop(0).strip() if args else "1"
        if not k.isdigit() or not 1 <= int(k) <= cfg.n_interior:
            raise ConfigError(f"[{section}] kind: mode index must be an integer "
                              f"in 1..{cfg.n_interior}, got {spec!r}")
        index = [int(k) - 1]
    try:
        return kind, index + [float(a) for a in args]
    except ValueError as exc:
        raise ConfigError(f"[{section}] kind: parameters must be numbers, "
                          f"got {spec!r}") from exc


def _initial_values(cfg: RunConfig, s: spectral.Spectrum, op) -> np.ndarray:
    kind, args = _kind(cfg, "initial")
    if kind == "zero":
        return np.zeros(op.n_interior)
    if kind == "mode":
        return s.eigvecs[:, args[0]].copy()
    if kind == "modal-decay":
        p = args[0] if args else 4.0
        coeffs = np.arange(1, s.n_modes + 1, dtype=float) ** -p
        return spectral.synthesize(coeffs, s)
    x = op.interior_x                                   # bump
    w = (x - op.x_left) * (op.x_right - x)
    return w / np.max(w)


def _build_source(cfg: RunConfig, s: spectral.Spectrum):
    kind, args = _kind(cfg, "source")
    if kind == "none":
        return None
    amp = args[1] if len(args) > 1 else 1.0               # mode-const
    times = np.linspace(0.0, cfg.source_t_final, cfg.source_n_samples)
    values = np.tile(amp * s.eigvecs[:, args[0]], (times.size, 1))
    return solver.SampledSource(times=times, values=values)


def _build_problem(cfg: RunConfig) -> solver.Problem:
    op = _build_operator(cfg)
    s = spectral.eigendecompose_operator(op)
    init = _initial_values(cfg, s, op)
    src = _build_source(cfg, s)
    return solver.Problem(orders=cfg.orders(), operator=op, spectrum=s,
                          initial=init, source=src)


# ---------------------------------------------------------------------------
# Report writing

def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(path, cfg: RunConfig, results: dict):
    cp = configparser.ConfigParser()
    import scipy
    cp["run"] = {
        "command": cfg.command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "mtfrac_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        # Read from the package metadata: importing mpmath costs about 20 ms.
        "mpmath_version": importlib.metadata.version("mpmath"),
    }
    cp["constants"] = {name.lower(): _fmt(value) for name, value in vars(constants).items()
                       if name.isupper() and not name.startswith("_")}
    cp["config"] = {f.name: _fmt(getattr(cfg, f.name)) for f in _CONFIG_FIELDS}
    if results:
        cp["results"] = {k: _fmt(v) for k, v in results.items()}
    with open(path, "w") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# Commands

def _cmd_mml_eval(cfg: RunConfig):
    orders = cfg.orders()
    params = specfun.solver_params(orders, cfg.beta0)
    rows = []
    for t in _parse_grid(cfg.t_grid).tolist():
        res = specfun.mml_eval(params, specfun.solver_args(orders, cfg.lam, t), tol=cfg.tol)
        rows.append((t, float(res.value.real), res.method.value,
                     float(res.abs_error_estimate)))
    return ["t", "value", "method", "abs_error_estimate"], rows, {}


def _cmd_eigen(cfg: RunConfig):
    op = _build_operator(cfg)
    s = spectral.eigendecompose_operator(op)
    rows = [(n + 1, float(lam)) for n, lam in enumerate(s.lambdas)]
    results = {"orthonormality_residual": spectral.check_orthonormal(s)}
    return ["n", "lambda"], rows, results


def _cmd_solve(cfg: RunConfig):
    p = _build_problem(cfg)
    grid = _parse_grid(cfg.t_grid)
    # Each column is the norm of order g of the modal values minus a shift.
    if p.source is None:
        header = ["t", "l2_norm", "h1_norm", "dl_norm", "dist_init_norm"]
        columns = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (cfg.gamma, p.modal_initial)]
    else:
        header = ["t", "l2_norm", "forced_norm"]
        columns = [(0.0, 0.0), (cfg.gamma + 1.0 - cfg.tau, 0.0)]
    values = solver.ModalSolution(p).modal_values(grid)
    norms = [spectral.modal_frac_norm(values - shift, g, p.spectrum)
             for g, shift in columns]
    rows = list(zip(grid.tolist(), *(n.tolist() for n in norms)))
    results = {}
    if grid[0] > grid[-1]:
        # The last column is the norm that short_time_checks tracks.
        results["short_time_vanishing"] = analysis.short_time_vanishing(norms[-1])
    return header, rows, results


def _cmd_asymptotics(cfg: RunConfig):
    p = _build_problem(cfg)
    grid = _parse_grid(cfg.t_grid)
    sol = solver.ModalSolution(p)
    values = sol.modal_values(grid)
    l2_norms = spectral.modal_frac_norm(values, 0.0, p.spectrum)
    dl_norms = spectral.modal_frac_norm(values, 1.0, p.spectrum)
    leading_norms = spectral.modal_frac_norm(
        analysis.asymptotic_leading_term(p, grid), 1.0, p.spectrum)
    residuals = analysis.asymptotic_residual(sol, grid)
    rows = list(zip(grid.tolist(), l2_norms.tolist(), dl_norms.tolist(),
                    leading_norms.tolist(), residuals.tolist()))
    fit = analysis.decay_fit(grid, dl_norms)
    results = {
        "fitted_decay_exponent": fit.exponent,
        "fit_r_squared": fit.r_squared,
        "expected_decay_exponent": -p.orders.alphas[-1],
        "residual_exponent": analysis.residual_exponent(p.orders),
    }
    return ["t", "l2_norm", "dl_norm", "leading_norm", "scaled_residual"], rows, results


def _cmd_stability(cfg: RunConfig):
    p = _build_problem(cfg)
    rows = []
    results = {}
    base_sol = solver.ModalSolution(p)
    for channel in ("alpha", "q", "diffusion", "all"):
        ratios = []
        for level in range(cfg.levels):
            eps = cfg.perturb_eps * 0.5 ** level
            pert = analysis.perturbed_problem(p, channel, eps)
            rep = analysis.lipschitz_experiment(
                p, pert, gamma=cfg.gamma, tau=cfg.tau, base_solution=base_sol)
            rows.append((channel, level, float(rep.delta),
                         float(rep.diff_norm), float(rep.ratio)))
            ratios.append(rep.ratio)
        results[f"{channel}_ratio_spread"] = max(ratios) / min(ratios)
    return ["channel", "level", "delta", "diff_norm", "ratio"], rows, results


def _cmd_counterexample(cfg: RunConfig):
    l1 = oracle.L1Config(t_final=cfg.source_t_final, n_steps=cfg.l1_steps,
                         grading=cfg.l1_grading)
    res = oracle.counterexample_run(cfg.lam, l1)
    control = oracle.counterexample_run(cfg.lam, l1, flip_sign=True)
    rows = [(float(t), float(abs(u))) for t, u in zip(res.times, res.values)]
    results = {
        "r_plus": res.r_plus,
        "r_minus": res.r_minus,
        "verdict": res.verdict,
        "control_verdict": control.verdict,
    }
    return ["t", "abs_u"], rows, results


def _verify_suite():
    """Quick invariant suite; yields (name, passed, detail)."""
    rng = np.random.default_rng(20240317)

    def check_recurrence():
        for k in range(1, 9):
            for m in (2, 3):
                for comp in specfun._compositions(k, m):
                    total = sum(
                        specfun.multinomial_coefficient(
                            k - 1, tuple(comp[:j]) + (comp[j] - 1,) + tuple(comp[j + 1:]))
                        for j in range(m))
                    if total != specfun.multinomial_coefficient(k, tuple(comp)):
                        return False, f"failed at k={k}, comp={tuple(comp)}"
        return True, "k <= 8, m <= 3 exact"

    def check_identity():
        worst = 0.0
        for _ in range(20):
            m = int(rng.integers(1, 4))
            betas = tuple(rng.uniform(0.4, 0.95, m))
            beta0 = float(rng.uniform(0.3, 1.0))
            z = tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(m))
            r = specfun.lemma31_residual(specfun.MLParams(beta0=beta0, betas=betas),
                                         specfun.MLArgs(z=z))
            worst = max(worst, r)
        return worst < constants.IDENTITY_RESIDUAL_TOL, f"max residual {worst:.2e}"

    def check_cross():
        worst = 0.0
        for alphas, qs, lam in (((0.5,), (1.0,), 2.0),
                                ((0.9, 0.3), (1.0, 1.5), 2.0),
                                ((0.8, 0.5, 0.2), (1.0, 1.0, 1.0), 1.5)):
            orders = solver.FracOrders(alphas=alphas, qs=qs)
            beta0 = 1.0 + alphas[0]
            rs = specfun.mml_series(specfun.solver_params(orders, beta0),
                                    specfun.solver_args(orders, lam, 1.0))
            rc = specfun.e_solver(lam, orders, beta0, 1.0)
            worst = max(worst, abs(rs.value - rc) / abs(rc))
        return worst < constants.SPECFUN_CROSS_TOL, f"max rel diff {worst:.2e}"

    def check_derivative_identity():
        orders = solver.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
        lam, t = 3.0, 1.1
        f = lambda u: u ** 0.8 * specfun.e_solver(lam, orders, 1.8, u)
        rhs = t ** -0.2 * specfun.e_solver(lam, orders, 0.8, t)
        errs = [abs((f(t + h) - f(t - h)) / (2 * h) - rhs) for h in (1e-2, 5e-3)]
        order = math.log2(errs[0] / errs[1])
        return abs(order - 2.0) < 0.3, f"observed order {order:.3f}"

    def check_positivity():
        samples = 0
        while samples < 20:
            m = int(rng.integers(1, 4))
            alphas = np.sort(rng.uniform(0.1, 0.95, m))[::-1]
            if m > 1 and np.min(-np.diff(alphas)) < 0.05:
                continue
            samples += 1
            orders = solver.FracOrders(
                alphas=tuple(alphas),
                qs=(1.0,) + tuple(rng.uniform(0.2, 3.0, m - 1)))
            lam = float(10 ** rng.uniform(-1, 3))
            t = float(10 ** rng.uniform(-2, 1.5))
            v = t ** (alphas[0] - 1.0) * specfun.e_solver(lam, orders, alphas[0], t)
            if v <= 0:
                return False, f"non-positive at lam={lam:.3g}, t={t:.3g}"
        return True, "20 samples positive"

    def check_spectral():
        op = spectral.Operator1D.from_callables((0.0, math.pi), 63)
        s = spectral.eigendecompose_operator(op)
        n = np.arange(1, 64)
        closed = (4.0 / op.h ** 2) * np.sin(n * op.h / 2.0) ** 2
        err = float(np.max(np.abs(s.lambdas - closed) / closed))
        ortho = spectral.check_orthonormal(s)
        tol = constants.ALGEBRAIC_TOL
        return err < tol and ortho < tol, f"spectrum {err:.1e}, gram {ortho:.1e}"

    def check_l1():
        orders = solver.FracOrders.single(0.5)
        cfg = oracle.L1Config(t_final=1.0, n_steps=2048, grading=4.0)
        _, us = oracle.l1_solve_mode(1.0, orders, 1.0, None, cfg)
        target = solver.mode_amplitude(orders, 1.0, 1.0)
        return abs(us[-1] - target) < 1e-3, f"|L1 - amplitude| = {abs(us[-1]-target):.2e}"

    def check_hankel():
        orders = solver.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
        h = oracle.laplace_mode_eval(5.0, orders, 1.0, 10.0)
        amp = solver.mode_amplitude(orders, 5.0, 10.0)
        return abs(h - amp) / abs(amp) < 1e-6, f"rel diff {abs(h-amp)/abs(amp):.2e}"

    def check_caputo():
        q = solver.QuadConfig(n_panels=128, grading=2.0)
        got = solver.caputo_quadrature(lambda s: np.ones_like(s), 1.5, 0.4, q)
        want = 1.5 ** 0.6 / specfun.gamma_real(1.6)
        return abs(got - want) / want < 1e-10, f"rel err {abs(got-want)/want:.2e}"

    def check_counterexample():
        l1 = oracle.L1Config(t_final=5.0, n_steps=2048, grading=4.0)
        res = oracle.counterexample_run(10.0, l1)
        ctl = oracle.counterexample_run(10.0, l1, flip_sign=True)
        ok = res.verdict == "grows" and ctl.verdict == "decays"
        return ok, f"verdicts {res.verdict}/{ctl.verdict}"

    checks = [
        ("multinomial-recurrence", check_recurrence),
        ("parameter-shift-identity", check_identity),
        ("series-contour-agreement", check_cross),
        ("derivative-identity", check_derivative_identity),
        ("kernel-positivity", check_positivity),
        ("spectral-closed-form", check_spectral),
        ("l1-vs-amplitude", check_l1),
        ("hankel-vs-amplitude", check_hankel),
        ("caputo-power-selftest", check_caputo),
        ("counterexample-verdicts", check_counterexample),
    ]
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort the suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, ok, detail


def _cmd_verify(cfg: RunConfig):
    rows = []
    all_ok = True
    for name, ok, detail in _verify_suite():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        rows.append((name, "pass" if ok else "fail", detail))
        all_ok = all_ok and ok
    if not all_ok:
        raise RuntimeError("verification suite failed")
    return ["check", "status", "detail"], rows, {"all_passed": True}


_COMMAND_IMPL = {
    "mml-eval": _cmd_mml_eval,
    "eigen": _cmd_eigen,
    "solve": _cmd_solve,
    "asymptotics": _cmd_asymptotics,
    "stability": _cmd_stability,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}
_COMMANDS = tuple(_COMMAND_IMPL)


def run(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute the configured command; write CSV + manifest; return 0 on
    success.  Errors propagate to the CLI wrapper, which reports them on
    stderr with a nonzero exit status."""
    cfg.validate()
    header, rows, results = _COMMAND_IMPL[cfg.command](cfg)
    out_dir = out_dir or os.environ.get("MTFRAC_OUT") or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, cfg.out_path)
    _write_csv(csv_path, header, rows)
    _write_manifest(csv_path + ".manifest.ini", cfg, results)
    for key, value in results.items():
        print(f"{key} = {value}")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# Presets (one per headline experiment)

PRESETS: dict[str, dict] = {
    "thm21": dict(command="solve", alphas=(0.7, 0.4), qs=(1.0, 1.2),
                  initial_kind="modal-decay:4", gamma=1.0,
                  t_grid="0.1:1e-8:8:log", out_path="thm21.csv"),
    "thm22": dict(command="solve", alphas=(0.7, 0.4), qs=(1.0, 1.2),
                  initial_kind="zero", source_kind="mode-const:2:1.0",
                  gamma=0.0, tau=0.8, t_grid="0.1:1e-8:8:log",
                  out_path="thm22.csv"),
    "thm23": dict(command="stability", alphas=(0.8, 0.5), qs=(1.0, 1.5),
                  initial_kind="modal-decay:2.5", gamma=0.75, tau=0.5,
                  perturb_eps=0.2, levels=7, out_path="thm23.csv"),
    "thm24": dict(command="asymptotics", alphas=(0.9, 0.3), qs=(1.0, 1.5),
                  initial_kind="modal-decay:2", t_grid="1e2:1e4:15:log",
                  out_path="thm24.csv"),
    "rem36": dict(command="counterexample", lam=10.0, source_t_final=5.0,
                  l1_steps=4096, l1_grading=4.0, out_path="rem36.csv"),
}


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    cfg = RunConfig()
    for key, value in PRESETS[name].items():
        setattr(cfg, key, value)
    return cfg.validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtfrac",
        description="Multi-term time-fractional diffusion experiments")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--preset", help=f"built-in preset: {sorted(PRESETS)}")
    parser.add_argument("--out", help="output directory (or $MTFRAC_OUT)")
    parser.add_argument("--tol-profile", choices=("strict", "fast"),
                        default="strict")
    args = parser.parse_args(argv)

    try:
        if args.config and args.preset:
            raise ConfigError("--config and --preset are mutually exclusive")
        if args.preset:
            cfg = preset_config(args.preset)
            if cfg.command != args.command and args.command != "verify":
                raise ConfigError(
                    f"preset {args.preset!r} belongs to command {cfg.command!r}")
        elif args.config:
            cfg = parse_config(args.config)
        else:
            cfg = RunConfig()
        cfg.command = args.command
        if args.tol_profile == "fast":
            for f in _CONFIG_FIELDS:
                if f.metadata["fast"]:
                    setattr(cfg, f.name,
                            max(2, getattr(cfg, f.name) // f.metadata["fast"]))
        return run(cfg, out_dir=args.out)
    except (ConfigError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"mtfrac: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
