#!/usr/bin/env python3
"""Time the solver-family kernel and the oracles in CPU time, one BLAS thread.

    python scripts/bench_kernel.py [--repeats N] [--out PATH]

Prints one JSON object, and with ``--out`` also writes it to PATH.  It
records the library versions and the machine: ``nproc`` (the CPUs this
process may run on), ``blas`` (numpy's BLAS name and version),
``blas_threads`` (the thread count the script pins), ``loadavg`` (the 1, 5
and 15 minute load averages at the start) and ``git_sha`` (HEAD of the
checkout holding the timed mtfrac, or null outside one; uncommitted changes
are not marked), and the median CPU milliseconds over N repeats of:

* ``thm23_block_m2`` / ``thm23_block_m3``: the mode amplitudes of the 255
  modes of the Laplacian on (0, pi) on the thm23 time grid
  t = 2 (k/25)^2, k = 1..25, for orders (0.8, 0.5) and (0.8, 0.5, 0.2),
  with ``worst_rel_est``, the largest error estimate relative to its value
  over the block;
* ``thm21_block``: the same for the thm21 preset's 255-mode amplitude
  block, orders (0.7, 0.4) with q = (1, 1.2), on its decreasing grid of 8
  times from 0.1 down to 1e-8;
* ``propagator``: the 255-mode propagator E^{(n)}_{a_1}(t), orders
  (0.8, 0.5), at each of t = 1e-3, 0.1, 2 and 300, with ``worst_rel_est``,
  the largest error estimate relative to its value over the 255 modes;
* ``scalar_amplitude``: one scalar mode amplitude;
* ``forced_257``: the forced modal values at all 257 sample times of the
  source F = sin(3x)(1 + t) + x(pi - x) cos 2t on [0, 2], orders (0.8, 0.5),
  on the same 255 modes, from a fresh ``ModalSolution`` (its set-up
  included); these times share their lags t - t_i;
* ``forced_offgrid``: the same at 100 times evenly spaced over [0.01, 2],
  off the sample grid, which share almost none;
* ``l1_criterion06``: one L1 oracle run of criterion 06's shape, orders
  (0.8, 0.4) with q = (1, 1), lambda = 2, t = 2, 3000 steps, grading 2.5;
* ``l1_crosscheck_m3``: one L1 oracle run of the costliest shape of the
  crosscheck benchmark, orders (0.8, 0.55, 0.3) with q = (1, 1.2, 0.8),
  lambda = 10, t = 20, 4000 steps, grading 2.5;
* ``hankel_eval``: one Hankel oracle value ``laplace_mode_eval`` of the
  same shape, orders (0.8, 0.4) with q = (1, 1), lambda = 2, t = 2;
* ``series_m3`` / ``lemma31_m3``: one ``mml_series`` value and one
  ``lemma31_residual`` (four series in one pass) at m = 3 near the series
  crossover, exponents (0.8, 0.3, 0.6), b_0 = 1, z = (-1, -0.6, -0.4);
* ``gamma_real``: one scalar Gamma(0.7);
* ``eigendecompose_operator``: assembling and decomposing the Laplacian on
  (0, pi) with 255 interior nodes;
* ``caputo_quadrature``: the Caputo derivative of order 0.4 at t = 1.5 of
  g(s) = cos s by product quadrature on the default 256-panel mesh;
* ``mode_ode_residual``: one per-mode equation residual of criterion 13's
  shape, orders (0.8, 0.4) with q = (1, 1), the fifth Laplacian mode,
  t = 1.5, 384 panels graded 3.5;
* ``synthesize_block`` / ``project_block``: ``synthesize`` and ``project``
  of a 25 x 255 block (the thm23 grid's times by the Laplacian's modes);
* ``lipschitz_diffusion``: one diffusion-channel ``lipschitz_experiment``
  of thm23's shape, orders (0.8, 0.5) with q = (1, 1.5), initial
  coefficients n^-2.5, gamma = 0.75, tau = 0.5, eps = 0.2, with the base
  ModalSolution warm and the perturbed problem (its eigendecomposition
  included) built once, outside the timing;
* ``verify_checks``: each check of ``mtfrac verify``'s table
  (``criteria.verify_checks()``) at its verify size, keyed by check name;
* ``verify_command``: one in-process ``mtfrac verify`` run,
  ``cli.run(RunConfig(command="verify"), out_dir=...)`` into a temporary
  directory, with its stdout discarded so the JSON report stays clean.

Each case runs once untimed first.  The mtfrac imported is the first one on
sys.path, so ``PYTHONPATH=TREE/src`` times another source tree.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mtfrac  # noqa: E402
from mtfrac import cli, criteria, oracle, specfun  # noqa: E402
from mtfrac.analysis import lipschitz_experiment, perturbed_problem  # noqa: E402
from mtfrac.solver import (FracOrders, ModalSolution, Problem,  # noqa: E402
                           QuadConfig, SampledSource, caputo_quadrature,
                           mode_amplitude, mode_amplitudes, mode_ode_residual)
from mtfrac.spectral import (Operator1D, eigendecompose_operator,  # noqa: E402
                             project, synthesize)

PROPAGATOR_TIMES = (1e-3, 0.1, 2.0, 300.0)


def cpu_ms(fn, repeats: int) -> float:
    """Median CPU milliseconds of ``fn()`` over ``repeats`` calls, after one
    untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        samples.append(time.process_time() - start)
    return 1e3 * statistics.median(samples)


def git_sha():
    """HEAD of the git checkout that holds the imported mtfrac, or None."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(mtfrac.__file__).parent,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--out", help="also write the report to this file")
    options = parser.parse_args(argv)
    repeats = options.repeats

    op = Operator1D.from_callables((0.0, np.pi), 255)
    spectrum = eigendecompose_operator(op)
    lams = spectrum.lambdas
    grid = 2.0 * (np.arange(1, 26) / 25) ** 2
    two = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    three = FracOrders(alphas=(0.8, 0.5, 0.2), qs=(1.0, 1.5, 0.5))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg": list(os.getloadavg()),
        "git_sha": git_sha(),
        "repeats": repeats,
    }
    thm21 = FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    for name, orders, ts in (("thm23_block_m2", two, grid),
                             ("thm23_block_m3", three, grid),
                             ("thm21_block", thm21, np.logspace(-1.0, -8.0, 8))):
        values, ests = specfun._solver_family(lams, orders, specfun.AMPLITUDE, ts)
        report[name] = {
            "ms": cpu_ms(lambda: mode_amplitudes(orders, lams, ts), repeats),
            "worst_rel_est": float(np.max(ests / np.abs(values))),
        }
    a1 = two.alphas[0]
    report["propagator"] = {}
    for t in PROPAGATOR_TIMES:
        values, ests = specfun._solver_family(lams, two, a1, t)
        report["propagator"][str(t)] = {
            "ms": cpu_ms(lambda: specfun._solver_family(lams, two, a1, t), repeats),
            "worst_rel_est": float(np.max(ests / np.abs(values))),
        }
    report["scalar_amplitude"] = cpu_ms(
        lambda: mode_amplitude(two, float(lams[10]), 0.5), repeats)
    source = SampledSource.from_callable(
        lambda x, t: np.sin(3.0 * x) * (1.0 + t) + x * (np.pi - x) * np.cos(2.0 * t),
        2.0, 257, op.interior_x)
    forced = Problem(orders=two, operator=op, spectrum=spectrum,
                     initial=np.zeros(op.n_interior), source=source)
    report["forced_257"] = cpu_ms(
        lambda: ModalSolution(forced).modal_values(source.times), repeats)
    off_grid = np.linspace(0.01, 2.0, 100)
    report["forced_offgrid"] = cpu_ms(
        lambda: ModalSolution(forced).modal_values(off_grid), repeats)
    l1_orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    l1_cfg = oracle.L1Config(t_final=2.0, n_steps=3000, grading=2.5)
    report["l1_criterion06"] = cpu_ms(
        lambda: oracle.l1_solve_mode(2.0, l1_orders, 1.0, None, l1_cfg), repeats)
    m3_orders = FracOrders(alphas=(0.8, 0.55, 0.3), qs=(1.0, 1.2, 0.8))
    m3_cfg = oracle.L1Config(t_final=20.0, n_steps=4000, grading=2.5)
    report["l1_crosscheck_m3"] = cpu_ms(
        lambda: oracle.l1_solve_mode(10.0, m3_orders, 1.0, None, m3_cfg), repeats)
    report["hankel_eval"] = cpu_ms(
        lambda: oracle.laplace_mode_eval(2.0, l1_orders, 1.0, 2.0), repeats)
    params = specfun.MLParams(beta0=1.0, betas=(0.8, 0.3, 0.6))
    args = specfun.MLArgs(z=(-1.0, -0.6, -0.4))
    report["series_m3"] = cpu_ms(lambda: specfun.mml_series(params, args), repeats)
    report["lemma31_m3"] = cpu_ms(lambda: specfun.lemma31_residual(params, args), repeats)
    report["gamma_real"] = cpu_ms(lambda: specfun.gamma_real(0.7), repeats)
    report["eigendecompose_operator"] = cpu_ms(
        lambda: eigendecompose_operator(op), repeats)
    report["caputo_quadrature"] = cpu_ms(
        lambda: caputo_quadrature(np.cos, 1.5, 0.4, QuadConfig()), repeats)
    quad = QuadConfig(n_panels=384, grading=3.5)
    report["mode_ode_residual"] = cpu_ms(
        lambda: mode_ode_residual(l1_orders, float(lams[4]), 1.5, quad), repeats)
    block = np.random.default_rng(0).standard_normal((grid.size, spectrum.n_modes))
    report["synthesize_block"] = cpu_ms(lambda: synthesize(block, spectrum), repeats)
    report["project_block"] = cpu_ms(lambda: project(block, spectrum), repeats)
    n = np.arange(1, spectrum.n_modes + 1, dtype=float)
    base = Problem(orders=two, operator=op, spectrum=spectrum,
                   initial=synthesize(n ** -2.5, spectrum))
    base_solution = ModalSolution(base)
    perturbed = perturbed_problem(base, "diffusion", 0.2)
    report["lipschitz_diffusion"] = cpu_ms(
        lambda: lipschitz_experiment(base, perturbed, gamma=0.75, tau=0.5,
                                     base_solution=base_solution), repeats)
    report["verify_checks"] = {
        name: cpu_ms(lambda: fn(*args), repeats)
        for name, _, fn, args in criteria.verify_checks()}
    with tempfile.TemporaryDirectory() as out_dir:
        def verify():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(cli.RunConfig(command="verify"), out_dir=out_dir)

        report["verify_command"] = cpu_ms(verify, repeats)
    if options.out:
        Path(options.out).write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
