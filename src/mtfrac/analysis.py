"""Experiment drivers: decay rates, asymptotics, stability.

Batch drivers that turn the regularity and asymptotics statements into
measurable quantities: log-log decay fits, the long-time expansion (its
leading term in modal coefficients, and the remainder scaled by the
exponent of the next nonzero term), short-time limit tables, and the
Lipschitz stability of solutions under coefficient perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import FracOrders, ModalSolution, Problem
from .spectral import Operator1D, modal_frac_norm, project, synthesize
from .specfun import gamma_real

__all__ = [
    "ADMISSIBLE_ALPHAS", "ADMISSIBLE_QS", "ADMISSIBLE_DIFFUSION",
    "LIPSCHITZ_T_FINAL", "LIPSCHITZ_N_TIME", "CHANNELS",
    "DecayFit",
    "ShortTimeReport",
    "LipschitzReport",
    "decay_fit",
    "asymptotic_leading_term",
    "asymptotic_residual",
    "residual_exponent",
    "short_time_vanishing",
    "short_time_checks",
    "check_lipschitz_inputs",
    "lipschitz_experiment",
    "perturbation_delta",
    "c1_norm_difference",
    "perturbed_coefficients",
    "perturbed_problem",
]


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def decay_fit(times, norms) -> DecayFit:
    """Least-squares slope of log(norm) against log(t)."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.size < 5:
        raise ValueError("at least 5 samples are required")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be increasing")
    if np.any(times <= 0) or np.any(norms <= 0):
        raise ValueError("times and norms must be positive")
    lx, ly = np.log(times), np.log(norms)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    sstot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / sstot
    return DecayFit(exponent=float(slope), intercept=float(intercept),
                    r_squared=min(max(r2, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Long-time asymptotics

def _time_powers(ts: np.ndarray, exponent: float) -> np.ndarray:
    """t ** exponent in Python floats, which np.power may round otherwise."""
    return np.reshape([t ** exponent for t in ts.ravel().tolist()], ts.shape)


def asymptotic_leading_term(p: Problem, t) -> np.ndarray:
    """Modal coefficients of the leading long-time term,
    q_m a_n / (lambda_n Gamma(1-a_m) t^{a_m}), with a_n the initial value's.

    A scalar time gives (n_modes,), an array of T times a (T, n_modes)
    block whose rows are the scalar results."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    alpha_m = p.orders.alphas[-1]
    q_m = p.orders.qs[-1]
    return q_m * p.modal_initial / (p.spectrum.lambdas * gamma_real(1.0 - alpha_m)
                                    * _time_powers(ts, alpha_m)[..., None])


def residual_exponent(orders: FracOrders) -> float:
    """Decay exponent of the first nonzero term after the leading one.

    For small s the amplitude's transform is sum_{r>=1} (-1)^{r+1} W^r /
    (s lambda^r) with W = sum_j q_j s^{a_j}, so the terms after t^{-a_m} are
    t^{-a_{m-1}} (for m >= 2) and t^{-2a_m}; at a_m = 1/2 the latter carries
    1/Gamma(0) = 0 and t^{-3a_m} takes its place.
    """
    a_m = orders.alphas[-1]
    next_power = (3.0 if a_m == 0.5 else 2.0) * a_m
    return min((next_power, *orders.alphas[-2:-1]))


def asymptotic_residual(sol: ModalSolution, t):
    """Scaled remainder  t^e * ||u(t) - leading(t)||_{D(-L)} / ||a||_{L2}
    of ``sol``, with e the :func:`residual_exponent` of its problem's orders.

    A scalar time gives a float, an array of times one residual per time
    from one norm block."""
    p = sol.problem
    if p.source is not None:
        raise ValueError("this analysis requires a problem without source")
    ts = np.asarray(t, dtype=float)
    lead = asymptotic_leading_term(p, ts)
    num = modal_frac_norm(sol.modal_values(ts) - lead, 1.0, p.spectrum)
    den = modal_frac_norm(p.modal_initial, 0.0, p.spectrum)
    scaled = _time_powers(ts, residual_exponent(p.orders)) * num / den
    return float(scaled) if ts.ndim == 0 else scaled


# ---------------------------------------------------------------------------
# Short-time limits

@dataclass(frozen=True)
class ShortTimeReport:
    """Norm table on a decreasing time grid plus the vanishing verdict.

    ``vanishing`` requires the norms to be non-increasing along decreasing
    time (5% slack) and the final norm to drop below 1e-3 of the first.
    """

    kind: str
    gamma: float
    tau: float
    times: np.ndarray
    norms: np.ndarray
    vanishing: bool


def short_time_vanishing(norms) -> bool:
    """The :class:`ShortTimeReport` verdict on norms along decreasing time."""
    norms = np.asarray(norms, dtype=float)
    if np.all(norms == 0.0):
        return True
    scale = norms[0] if norms[0] > 0 else 1.0
    monotone = bool(np.all(norms[1:] <= norms[:-1] * 1.05 + 1e-300))
    return monotone and bool(norms[-1] <= 1e-3 * scale)


def short_time_checks(sol: ModalSolution, gamma: float, t_grid,
                      tau: float = 0.8) -> ShortTimeReport:
    """Tabulate the short-time norms of ``sol`` and decide the vanishing verdict.

    Homogeneous problems track ||u(t) - a||_{D((-L)^gamma)}; forced ones
    (zero initial value) track ||u(t)||_{D((-L)^{gamma+1-tau})}.
    """
    p = sol.problem
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) >= 0):
        raise ValueError("t_grid must be strictly decreasing")
    values = sol.modal_values(t_grid)
    if p.source is None:
        kind, g_norm = "homogeneous", gamma
        values = values - p.modal_initial
    else:
        kind, g_norm = "forced", gamma + 1.0 - tau
    norms = modal_frac_norm(values, g_norm, p.spectrum)
    return ShortTimeReport(kind=kind, gamma=gamma, tau=tau, times=t_grid,
                           norms=norms, vanishing=short_time_vanishing(norms))


# ---------------------------------------------------------------------------
# Lipschitz stability in the coefficients

# Admissible sets, inside which the stability constant is uniform: orders,
# weights q_2..q_m, and (min value, C1 cap) of the diffusion.
ADMISSIBLE_ALPHAS = (0.05, 0.95)
ADMISSIBLE_QS = (0.05, 20.0)
ADMISSIBLE_DIFFUSION = (1e-3, 50.0)
# The time integral's graded grid: LIPSCHITZ_N_TIME nodes on (0, LIPSCHITZ_T_FINAL].
LIPSCHITZ_T_FINAL = 2.0
LIPSCHITZ_N_TIME = 25
# The coefficient channels of perturbed_problem.
CHANNELS = ("alpha", "q", "diffusion", "all")


def _orders_admissible(orders: FracOrders) -> bool:
    lo, hi = ADMISSIBLE_ALPHAS
    qlo, qhi = ADMISSIBLE_QS
    return (all(lo <= a <= hi for a in orders.alphas)
            and all(qlo <= q <= qhi for q in orders.qs[1:]))


def _diffusion_admissible(op: Operator1D) -> bool:
    delta, cap = ADMISSIBLE_DIFFUSION
    d1 = np.abs(np.diff(op.diffusion)) / op.h
    return (bool(np.all(op.diffusion >= delta))
            and float(np.max(np.abs(op.diffusion)) + np.max(d1)) <= cap)


def check_lipschitz_inputs(orders: FracOrders, op: Operator1D, gamma: float, tau: float):
    """Raise ValueError unless gamma, tau and a problem's coefficients meet
    :func:`lipschitz_experiment`'s conditions (the ADMISSIBLE_ boxes)."""
    if not 0.0 < gamma <= 1.0 or not 0.0 < tau <= 1.0:
        raise ValueError("gamma and tau must lie in (0, 1]")
    if not _orders_admissible(orders):
        raise ValueError("orders outside the admissible set")
    if not _diffusion_admissible(op):
        raise ValueError("diffusion outside the admissible set")


def c1_norm_difference(op1: Operator1D, op2: Operator1D) -> float:
    """Discrete C1 norm of D - D~: sup of values plus sup of one-sided
    difference quotients on the grid."""
    if op1.n_interior != op2.n_interior or op1.h != op2.h:
        raise ValueError("operators must share the grid")
    d = op1.diffusion - op2.diffusion
    return float(np.max(np.abs(d)) + np.max(np.abs(np.diff(d))) / op1.h)


def perturbation_delta(base: Problem, perturbed: Problem) -> float:
    """sum |a_j - a~_j| + sum_{j>=2} |q_j - q~_j| + ||D - D~||_{C1}."""
    if base.orders.m != perturbed.orders.m:
        raise ValueError("problems must share the number of terms")
    da = sum(abs(a - b) for a, b in zip(base.orders.alphas, perturbed.orders.alphas))
    dq = sum(abs(a - b) for a, b in zip(base.orders.qs[1:], perturbed.orders.qs[1:]))
    dd = c1_norm_difference(base.operator, perturbed.operator)
    return da + dq + dd


@dataclass(frozen=True)
class LipschitzReport:
    delta: float
    diff_norm: float
    ratio: float
    gamma: float
    tau: float
    time_exponent: float
    space_gamma: float
    exact_match: bool


def lipschitz_experiment(base: Problem, perturbed: Problem, gamma: float,
                         tau: float, threads: int = 1,
                         base_solution: ModalSolution | None = None) -> LipschitzReport:
    """Solution-difference norm per unit coefficient perturbation.

    For gamma < 1/2 the difference is measured in
    L^{1/(1-gamma)}(0,T; D((-L)^{1-tau})), otherwise in L^2(0,T; D(-L)).
    Norms use the base problem's spectrum; the time integral is a composite
    trapezoid on t_k = LIPSCHITZ_T_FINAL (k / LIPSCHITZ_N_TIME)^2, each
    problem's amplitudes on it one block; both lie in the ADMISSIBLE_ boxes.
    Where the perturbed problem shares the base spectrum, the difference of
    the modal values is the difference's modal expansion; otherwise both
    solutions are synthesized on the grid and their difference projected on
    the base modes.  Perturbation sweeps sharing one base may
    pass its ModalSolution through ``base_solution`` to reuse the cached
    amplitudes.  ``threads`` is accepted and ignored.
    """
    for prob in (base, perturbed):
        if prob.source is not None:
            raise ValueError("this analysis requires a problem without source")
        check_lipschitz_inputs(prob.orders, prob.operator, gamma, tau)
    if not np.array_equal(base.initial, perturbed.initial):
        raise ValueError("both problems must share the initial value")

    delta = perturbation_delta(base, perturbed)
    if gamma < 0.5:
        p_exp = 1.0 / (1.0 - gamma)
        space_gamma = 1.0 - tau
    else:
        p_exp = 2.0
        space_gamma = 1.0
    grid = LIPSCHITZ_T_FINAL * (np.arange(1, LIPSCHITZ_N_TIME + 1)
                                / LIPSCHITZ_N_TIME) ** 2.0

    if base_solution is None:
        base_solution = ModalSolution(base)
    elif base_solution.problem is not base:
        raise ValueError("base_solution belongs to a different problem")
    modal_b = base_solution.modal_values(grid)
    modal_p = ModalSolution(perturbed).modal_values(grid)
    s, s_p = base.spectrum, perturbed.spectrum
    if s_p is s:
        diff_modal = modal_b - modal_p
    else:
        diff_modal = project(synthesize(modal_b, s) - synthesize(modal_p, s_p), s)
    norms = modal_frac_norm(diff_modal, space_gamma, s)
    diff = float(np.trapezoid(norms ** p_exp, grid) ** (1.0 / p_exp))
    return LipschitzReport(delta=delta, diff_norm=diff,
                           ratio=diff / delta if delta else float("nan"),
                           gamma=gamma, tau=tau, time_exponent=p_exp,
                           space_gamma=space_gamma, exact_match=delta == 0.0)


def perturbed_coefficients(orders: FracOrders, op: Operator1D, channel: str,
                           eps: float) -> tuple[FracOrders, Operator1D]:
    """Orders and operator perturbed along one coefficient channel.

    ``channel`` is one of ``alpha`` (orders nudged down by staggered
    amounts), ``q`` (secondary weights shifted), ``diffusion`` (sinusoidal
    bump added to D), or ``all`` (one third of each).  A channel that leaves
    D alone returns ``op`` itself.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown perturbation channel: {channel}")

    e_a = eps if channel in ("alpha", "all") else 0.0
    e_q = eps if channel in ("q", "all") else 0.0
    e_d = eps if channel in ("diffusion", "all") else 0.0
    if channel == "all":
        e_a = e_q = e_d = eps / 3.0

    m = orders.m
    alphas = tuple(a - e_a * (j + 1) / (2.0 * m) for j, a in enumerate(orders.alphas))
    qs = (1.0,) + tuple(q + e_q / max(m - 1, 1) for q in orders.qs[1:])
    new_orders = FracOrders(alphas=alphas, qs=qs)
    if e_d == 0.0:
        return new_orders, op

    xs = op.full_x
    length = op.x_right - op.x_left
    bump = np.sin(np.pi * (xs - op.x_left) / length)
    new_op = Operator1D(x_left=op.x_left, x_right=op.x_right,
                        n_interior=op.n_interior,
                        diffusion=op.diffusion + e_d * bump,
                        potential=op.potential.copy())
    return new_orders, new_op


def perturbed_problem(base: Problem, channel: str, eps: float) -> Problem:
    """A homogeneous problem with :func:`perturbed_coefficients`."""
    orders, op = perturbed_coefficients(base.orders, base.operator, channel, eps)
    if op is base.operator:
        # Same operator, so the base spectrum serves: no second decomposition.
        return Problem(orders=orders, operator=op, spectrum=base.spectrum,
                       initial=base.initial)
    return Problem.build(orders, op, initial=base.initial)
