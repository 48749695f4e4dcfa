"""Multi-term time-fractional diffusion on an interval.

Spectral solutions through multinomial Mittag-Leffler functions, with
independent oracles (extended-precision series, L1 time stepping, Laplace
inversion) and experiment drivers for the regularity, stability, and
long-time decay properties of the equation.
"""

__version__ = "0.1.0"

from .analysis import (
    DecayFit,
    asymptotic_leading_term,
    asymptotic_residual,
    decay_fit,
    lipschitz_experiment,
    short_time_checks,
)
from .oracle import (
    L1Config,
    counterexample_run,
    highprec_series,
    l1_solve_mode,
    laplace_mode_eval,
)
from .solver import (
    FracOrders,
    ModalSolution,
    Problem,
    QuadConfig,
    SampledSource,
    caputo_derivative,
    mode_amplitude,
    solve,
    time_derivative,
)
from .specfun import (
    EvalResult,
    Method,
    MLArgs,
    MLParams,
    e_solver,
    gamma_real,
    lemma31_residual,
    mml_eval,
    mml_series,
    multinomial_coefficient,
)
from .spectral import (
    Operator1D,
    Spectrum,
    assemble,
    eigendecompose,
    frac_norm,
    project,
    synthesize,
)

__all__ = [
    "__version__",
    "DecayFit", "asymptotic_leading_term",
    "asymptotic_residual", "decay_fit", "lipschitz_experiment",
    "short_time_checks",
    "L1Config", "counterexample_run", "highprec_series", "l1_solve_mode",
    "laplace_mode_eval",
    "FracOrders", "ModalSolution", "Problem", "QuadConfig", "SampledSource",
    "caputo_derivative", "mode_amplitude", "solve", "time_derivative",
    "EvalResult", "Method", "MLArgs", "MLParams",
    "e_solver", "gamma_real", "lemma31_residual", "mml_eval",
    "mml_series", "multinomial_coefficient",
    "Operator1D", "Spectrum", "assemble", "eigendecompose",
    "frac_norm", "project", "synthesize",
]
