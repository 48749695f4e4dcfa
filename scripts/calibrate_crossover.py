#!/usr/bin/env python3
"""Calibrate the series/contour dispatch threshold of ``mml_eval``.

``mml_eval`` compares the threshold against sum_j |z_j|, and it is the only
evaluator that uses it.  For each representative solver-family parameter set
this script scans |z_1| upward, with z_2..z_m held fixed, and records the
first point at which the power series either

* needs more than 400 shells to meet a truncation tolerance of 1e-12, or
* loses alternating-sum accuracy in double precision: the rounding floor
  (the sum of the term magnitudes times machine epsilon) exceeds 1e-9
  relative to the evaluated value.

The dispatch constant is the minimum over the parameter sets, rounded down
to one decimal.  Its frozen value lives in
``mtfrac.constants.SERIES_CONTOUR_CROSSOVER``; rerun this script after any
change to the series evaluator and update the constant if it moved.

At the calibrated value the series is then checked against the window
contour that ``mml_eval`` takes beyond the crossover.  The script exits
with 1 if the calibrated value falls below the frozen constant or if any
relative difference exceeds ``SPECFUN_CROSS_TOL``.
"""

import sys

import numpy as np

from mtfrac.constants import SERIES_CONTOUR_CROSSOVER, SPECFUN_CROSS_TOL
from mtfrac.specfun import (
    MLArgs,
    MLParams,
    SeriesConvergenceError,
    _family_orders,
    _series_batch,
    e_solver,
)

SHELL_LIMIT = 400
TOL = 1e-12
CANCEL_RTOL = 1e-9

# (label, betas for the solver family, fixed z_2..z_m)
PARAMETER_SETS = [
    ("m=1 a=0.3", (0.3,), ()),
    ("m=1 a=0.5", (0.5,), ()),
    ("m=1 a=0.8", (0.8,), ()),
    ("m=2 a=(0.9,0.3) q2=1.5 t=1", (0.9, 0.9 - 0.3), (-1.5,)),
    ("m=3 a=(0.8,0.5,0.2) t=1", (0.8, 0.3, 0.6), (-1.0, -1.0)),
]


def series(beta0, betas, z):
    """(value, sum of term magnitudes, shells) of the series at ``z``."""
    (value, abs_sum, shells, _), = _series_batch((beta0,), betas, z, TOL, 4 * SHELL_LIMIT)
    return value, abs_sum, shells


def first_bad_x(betas, z_rest, beta0=1.0):
    eps = np.finfo(float).eps
    for x in np.arange(0.2, 40.0, 0.1):
        try:
            value, abs_sum, shells = series(beta0, betas, (-x,) + z_rest)
        except SeriesConvergenceError:
            return x
        if shells > SHELL_LIMIT:
            return x
        if abs_sum * eps > CANCEL_RTOL * max(abs(value), 1e-300):
            return x
    return np.inf


def main():
    worst = np.inf
    for label, betas, z_rest in PARAMETER_SETS:
        x_bad = first_bad_x(betas, z_rest)
        worst = min(worst, x_bad)
        print(f"{label:32s} first bad |z_1|: {x_bad:.2f}")
    crossover = np.floor(worst * 10.0 - 1.0) / 10.0
    print(f"\ncalibrated crossover (rounded down): {crossover:.1f}")

    ok = crossover >= SERIES_CONTOUR_CROSSOVER
    if not ok:
        print(f"below SERIES_CONTOUR_CROSSOVER = {SERIES_CONTOUR_CROSSOVER}")

    # Sanity: at the chosen crossover both routes must agree to
    # SPECFUN_CROSS_TOL.
    for label, betas, z_rest in PARAMETER_SETS:
        lam, orders = _family_orders(MLParams(beta0=1.0, betas=betas),
                                     MLArgs(z=(-crossover,) + z_rest))
        series_val = series(1.0, betas, (-crossover,) + z_rest)[0].real
        contour_val = e_solver(lam, orders, 1.0, 1.0)
        rel = abs(series_val - contour_val) / abs(contour_val)
        ok = ok and rel <= SPECFUN_CROSS_TOL
        print(f"{label:32s} series/contour rel diff at crossover: {rel:.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
