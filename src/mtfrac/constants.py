"""Repo-wide numeric tolerances and calibrated constants.

The library's tolerances and calibrated constants, and the tolerances its
headline checks read (the acceptance criteria and ``mtfrac verify``), are
defined here so that the numerical contract is auditable in one place;
every run's manifest echoes each of them.  The tolerances fall into three
tiers:

* algebraic identities that hold to rounding (orthonormality, round trips),
* special-function cross checks between independent evaluation methods,
* quadrature / time-stepping residuals, which are limited by mesh resolution.
"""

# Algebraic identities (orthonormality, Parseval, round trips).
ALGEBRAIC_TOL = 1e-10

# Cross-agreement between independent special-function evaluations
# (series vs contour, series vs extended precision at double output).
SPECFUN_CROSS_TOL = 1e-8

# Identity residuals driven by the truncated series at tight tolerance.
IDENTITY_RESIDUAL_TOL = 1e-10

# Relative residual targets for quadrature-based checks of the per-mode
# fractional ODE.  The single-term case is cleaner than the multi-term one.
ODE_RESIDUAL_TOL_SINGLE = 1e-4
ODE_RESIDUAL_TOL_MULTI = 1e-3

# Default truncation tolerance and shell budget for the power series.
SERIES_TOL = 1e-12
SERIES_MAX_SHELLS = 600

# Budget on the number of compositions a single shell may enumerate before
# the series evaluator gives up (memory/time guard for large m).
COMPOSITION_BUDGET = 2_000_000

# Cumulative composition budget across all shells of one series evaluation;
# slowly converging multi-argument series abort past this point (and
# mml_eval moves to the window contour when the arguments allow it).
SERIES_COMP_BUDGET = 1_500_000

# Dispatch threshold of mml_eval between the series and the window contour
# of the solver family at t = 1, compared against sum_j |z_j|; no other
# evaluator uses it (the solver-family E^{(n)} always goes through the
# contour).  Calibrated by scripts/calibrate_crossover.py, which scans |z_1|
# with z_2..z_m held fixed: the smallest |z_1| over the representative
# solver-family parameter sets at which the series either needs more than
# 400 shells at tol 1e-12 or loses alternating-sum accuracy in double
# precision (rounding floor above 1e-9 relative).  The binding set is m=1,
# a=0.3, where z_1 is the only argument and cancellation bites first;
# rounded down for safety.
SERIES_CONTOUR_CROSSOVER = 2.1

# Windowed hyperbolic Bromwich kernel of the solver family: an entry whose
# error estimate (node-count refinement plus rounding floor) exceeds this
# fraction of its value raises QuadratureError rather than being returned.
SOLVER_FAMILY_RTOL = 1e-10

# Hankel-path evaluator: refinement disagreement threshold, and the factor
# of the split radius HANKEL_EPS0 * lambda between the small-r and large-r
# regimes of its quadrature.
HANKEL_REFINE_RTOL = 1e-6
HANKEL_EPS0 = 0.1
