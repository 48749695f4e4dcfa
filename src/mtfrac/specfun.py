"""Multinomial Mittag-Leffler function: series, contour integral, dispatch.

The function evaluated here is

    E_{(b_1..b_m), b_0}(z_1..z_m)
        = sum_{k>=0} sum_{k_1+..+k_m=k} (k; k_1..k_m) prod_j z_j^{k_j}
          / Gamma(b_0 + sum_j b_j k_j),

the m-variable generalization of the two-parameter Mittag-Leffler function.
It has two evaluation routes.  The defining power series is summed shell
by shell, with an explicit truncation-tail estimate.  The "solver family"
of parameters b_1 = a_1, b_j = a_1 - a_j with decreasing orders a_j
instead inverts its Laplace transform on a hyperbolic Bromwich contour,
fixed over each time window [10^j, 10^{j+1}): the resolvent
1 / (sum_j q_j s^{a_j} + lam) at a contour node is built once per window
and eigenvalue, and shared by every time in the window.  The
propagator b_0 = a_1 also takes a subtracted form free of cancellation, and
an entry left above its tolerance raises rather than being returned.  The
mode amplitude, the inverse of w(s) / (s (w(s) + lam)), is one row of the
same contour.

The modal solver's kernel, :func:`e_solver_many`, is that contour.  The
adaptive dispatcher :func:`mml_eval` sums the series for small arguments
and maps real, non-positive solver-family arguments beyond them to the
same contour at t = 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import special

from .constants import (
    COMPOSITION_BUDGET,
    SERIES_COMP_BUDGET,
    SERIES_CONTOUR_CROSSOVER,
    SERIES_MAX_SHELLS,
    SERIES_TOL,
    SOLVER_FAMILY_RTOL,
)

__all__ = [
    "MLParams",
    "MLArgs",
    "EvalResult",
    "Method",
    "SeriesConvergenceError",
    "QuadratureError",
    "UncoveredRegionError",
    "gamma_real",
    "multinomial_coefficient",
    "mml_series",
    "mml_eval",
    "e_solver",
    "e_solver_many",
    "AMPLITUDE",
    "lemma31_residual",
    "solver_params",
    "solver_args",
]


_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Errors

class SeriesConvergenceError(ArithmeticError):
    """Series did not meet its truncation target within the shell budget.

    ``partial`` is the complex sum of the shells summed before the error,
    and ``shells`` the shell at which summing stopped.
    """

    def __init__(self, message, partial=None, shells=None):
        super().__init__(message)
        self.partial = partial
        self.shells = shells


class QuadratureError(ArithmeticError):
    """A contour or panel quadrature left an error estimate above its
    tolerance."""


class UncoveredRegionError(ValueError):
    """Arguments fall outside the validity region of every method."""


# ---------------------------------------------------------------------------
# Gamma function (real arguments, scipy.special with explicit pole checks)

def gamma_real(x):
    """Gamma(x) for real x (poles at non-positive integers excluded).

    Vectorized; scalar input yields a scalar.  Overflows to the usual IEEE
    inf for x beyond ~171.6.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr <= 0) & (x_arr == np.round(x_arr))):
        raise ValueError("gamma_real: pole at non-positive integer argument")
    out = special.gamma(x_arr)
    return float(out) if x_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Domain types

class Method(Enum):
    SERIES = "series"
    CONTOUR = "contour"


@dataclass(frozen=True)
class MLParams:
    """Parameter tuple (b_0; b_1..b_m) of the multinomial Mittag-Leffler
    function, with 0 < b_0 < 2 and 0 < b_j < 1."""

    beta0: float
    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "beta0", float(self.beta0))
        if not 0.0 < self.beta0 < 2.0:
            raise ValueError(f"beta0 must lie in (0, 2), got {self.beta0}")
        if len(self.betas) < 1:
            raise ValueError("at least one series exponent is required")
        for b in self.betas:
            if not 0.0 < b < 1.0:
                raise ValueError(f"series exponents must lie in (0, 1), got {b}")

    @property
    def m(self):
        return len(self.betas)


@dataclass(frozen=True)
class MLArgs:
    """Argument tuple (z_1..z_m); length must match MLParams.m."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        if len(self.z) < 1:
            raise ValueError("at least one argument is required")

    @property
    def m(self):
        return len(self.z)


@dataclass(frozen=True)
class EvalResult:
    """Value plus an absolute error estimate and the method that produced it."""

    value: complex
    abs_error_estimate: float
    method: Method

    def __post_init__(self):
        if not math.isfinite(self.abs_error_estimate) or self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be finite and non-negative")


# ---------------------------------------------------------------------------
# Multinomial coefficients and shell compositions

# Sanity cap: shells beyond this are outside any regime the series evaluator
# is meant for, and factorials would be astronomically large.
_MAX_EXACT_K = 100_000


def multinomial_coefficient(k, parts):
    """Exact multinomial coefficient (k; k_1, ..., k_m) = k!/(k_1!...k_m!).

    Any part equal to -1 yields 0, matching the degenerate convention used
    by the recurrence sum_j (k-1; ..., k_j - 1, ...) = (k; k_1..k_m).
    """
    parts = list(parts)
    if any(p == -1 for p in parts):
        return 0
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative (or -1 for the degenerate case)")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > _MAX_EXACT_K:
        raise OverflowError(f"multinomial coefficient requested for k={k} > {_MAX_EXACT_K}")
    if sum(parts) != k:
        raise ValueError(f"parts must sum to k={k}, got sum {sum(parts)}")
    out = 1
    remaining = k
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def _shell_count(k, m):
    return math.comb(k + m - 1, m - 1)


def _compositions(k, m):
    """All m-part compositions of k as an (N, m) int array, in lexicographic
    order (first part ascending)."""
    head = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([k])                 # what is left for the later parts
    for _ in range(m - 1):
        # Expand each row into one row per value 0..rest of the next part.
        reps = rest + 1
        part = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        head = np.column_stack([np.repeat(head, reps, axis=0), part])
        rest = np.repeat(rest, reps) - part
    return np.column_stack([head, rest])


# ---------------------------------------------------------------------------
# Series evaluation
#
# Shells are summed in blocks of consecutive shells, so that small shells
# share one round of array operations.  A block holds at most _BLOCK_COMPS
# compositions unless a single shell holds more.

_BLOCK_COMPS = 2048

# Terms below e^-700 (about 1e-304) are dropped: exp would underflow on
# them, and an underflowing exp is an order of magnitude slower.
_LOG_TINY = -700.0


def _shell_blocks(m, max_k):
    """Consecutive shell ranges [k0, k1) covering shells 0..max_k.  The
    shell that takes the cumulative composition count past
    SERIES_COMP_BUDGET starts a block of its own, and no series sums past it.
    """
    k0, total = 0, 0
    while k0 <= max_k:
        k1, n = k0 + 1, _shell_count(k0, m)
        while k1 <= max_k:
            grown = n + _shell_count(k1, m)
            if grown > _BLOCK_COMPS or total + grown > SERIES_COMP_BUDGET:
                break
            n, k1 = grown, k1 + 1
        yield k0, k1
        k0, total = k1, total + n


@lru_cache(maxsize=None)
def _block_table(k0, k1, m):
    """The compositions of shells k0..k1-1 as one table, shared across calls.

    Returns the (N, m) compositions (int32, half the memory of int64),
    log (k; k_1..k_m) per row, and the first row of each shell.
    """
    comps = np.vstack([_compositions(k, m) for k in range(k0, k1)]).astype(np.int32)
    k_row = comps.sum(axis=1)
    log_fact = special.gammaln(np.arange(1.0, k1 + 1.0))  # log n!, n < k1
    lnmult = log_fact[k_row] - log_fact[comps].sum(axis=1)
    return comps, lnmult, np.flatnonzero(np.diff(k_row, prepend=-1))


def _log_majorant(k, S, beta0, beta_min):
    """log of the crude single-exponent shell majorant S^k / Gamma(b0 + b_min k)."""
    return k * math.log(S) - math.lgamma(beta0 + beta_min * k) if S > 0 else -math.inf


class _Truncation:
    """Stopping rule and tail estimate of one series.

    The sharp stop comes once the absolute-value shell majorant falls below
    tol for three consecutive shells.  Summing then continues (cheap tiny
    shells) until the crude majorant S^k / Gamma(b0 + b_min k) certifies the
    tail too, so the reported error estimate is tight; budget-capped for
    series whose majorant decays much later than the shells themselves.
    """

    def __init__(self, beta0, S, beta_min, log_tol, max_k):
        self.beta0, self.S, self.beta_min = beta0, S, beta_min
        self.log_tol, self.max_k = log_tol, max_k
        self.bounds = []
        self.below = self.below_major = 0
        self.sharp_stop = None

    def done_after(self, k, log_b, comp_total):
        """Record the majorant of shell k; True once the series may stop."""
        self.bounds.append(log_b)
        self.below = self.below + 1 if log_b < self.log_tol else 0
        if self.below >= 3 and self.sharp_stop is None:
            self.sharp_stop = k
        if self.sharp_stop is None:
            return False
        log_major = _log_majorant(k, self.S, self.beta0, self.beta_min)
        self.below_major = self.below_major + 1 if log_major < self.log_tol else 0
        return (self.below_major >= 3 or k >= min(self.max_k, self.sharp_stop + 48)
                or comp_total > SERIES_COMP_BUDGET)

    def tail(self):
        return _geometric_tail(self.bounds, self.S, self.beta_min, self.beta0)


def _series_batch(beta0s, betas, z, tol, max_k):
    """Sum several series that differ only in b_0 in one pass over the
    shared compositions.

    Returns one (value, abs_sum, shells, tail) tuple per entry of beta0s:
    the sum of shells 0..shells, the sum of the magnitudes of its terms
    (the cancellation budget of the alternating sum), the last shell
    summed, and an estimate of the dropped tail.  Each series keeps its own
    stopping rule, so its result is the one it would get alone.
    """
    m = len(z)
    betas = np.asarray(betas, dtype=float)
    z = np.asarray(z, dtype=complex)
    abs_z = np.abs(z)
    dead = abs_z == 0.0              # any positive power of a zero z_j vanishes
    # comps @ coeffs: the Gamma argument less b_0, and log |prod_j z_j^{k_j}|.
    coeffs = np.column_stack([betas, np.log(np.where(dead, 1.0, abs_z))])
    # Phase factors (z_j / |z_j|)^n, grown as the shells advance: a table
    # lookup is cheaper and more accurate than exp(i sum_j k_j arg z_j).
    arg = np.angle(z)
    unit_pows = np.ones((m, 0), dtype=complex)
    S = abs_z.sum()
    log_tol = math.log(tol) if tol > 0 else -math.inf

    n_ser = len(beta0s)
    beta0s = np.asarray(beta0s, dtype=float)
    rules = [_Truncation(b0, S, float(betas.min()), log_tol, max_k) for b0 in beta0s]
    shells = [max_k] * n_ser
    value = np.zeros(n_ser, dtype=complex)
    abs_sum = np.zeros(n_ser)
    active = list(range(n_ser))
    comp_total = 0
    for k0, k1 in _shell_blocks(m, max_k):
        n_first = _shell_count(k0, m)
        unsettled = [s for s in active if rules[s].sharp_stop is None]
        if n_first > COMPOSITION_BUDGET or (
                comp_total + n_first > SERIES_COMP_BUDGET and unsettled):
            s = (unsettled or active)[0]
            raise SeriesConvergenceError(
                f"series cost budget exhausted at shell {k0} with m={m} "
                f"({comp_total + n_first} compositions enumerated)",
                partial=complex(value[s]), shells=k0)
        comps, lnmult, shell_starts = _block_table(k0, k1, m)
        garg, ln_pow = (comps @ coeffs).T
        if dead.any():
            ln_pow = np.where(comps[:, dead].any(axis=1), -math.inf, ln_pow)
        if unit_pows.shape[1] < k1:
            unit_pows = np.exp(1j * np.outer(arg, np.arange(2 * k1)))
        rot = unit_pows[0, comps[:, 0]]
        for j in range(1, m):
            rot = rot * unit_pows[j, comps[:, j]]
        logmag = (lnmult + ln_pow) - special.gammaln(beta0s[active, None] + garg)
        mag = np.exp(logmag, out=np.zeros_like(logmag), where=logmag > _LOG_TINY)
        shell_sum = np.add.reduceat(mag * rot, shell_starts, axis=1)
        shell_abs = np.add.reduceat(mag, shell_starts, axis=1)
        with np.errstate(divide="ignore"):
            log_b = np.log(shell_abs)        # each shell's majorant

        totals = comp_total + np.cumsum([_shell_count(k, m) for k in range(k0, k1)])
        n_keep = np.full(len(active), k1 - k0)     # shells each row keeps
        still = []
        for r, s in enumerate(active):
            for i, k in enumerate(range(k0, k1)):
                if rules[s].done_after(k, float(log_b[r, i]), int(totals[i])):
                    shells[s] = k
                    n_keep[r] = i + 1
                    break
            else:
                still.append(s)
        keep = np.arange(k1 - k0) < n_keep[:, None]
        value[active] += np.where(keep, shell_sum, 0.0).sum(axis=1)
        abs_sum[active] += np.where(keep, shell_abs, 0.0).sum(axis=1)
        comp_total = int(totals[-1])
        active = still
        if not active:
            break
    else:
        raise SeriesConvergenceError(
            f"series did not converge within {max_k} shells "
            f"(sum of |z_j| = {S:.3g})",
            partial=complex(value[active[0]]), shells=max_k)

    return [(complex(value[s]), float(abs_sum[s]), shells[s], rules[s].tail())
            for s in range(n_ser)]


def _geometric_tail(log_bounds, S, beta_min, beta0):
    """Tail estimate past the last summed shell.

    Geometric extrapolation of the observed shell majorants, floored by the
    crude single-exponent majorant S^k / Gamma(beta0 + beta_min k) whenever
    the latter is already decaying.
    """
    if len(log_bounds) < 2:
        return 0.0
    last = log_bounds[-1]
    prev = max(b for b in log_bounds[-4:-1]) if len(log_bounds) >= 4 else log_bounds[-2]
    if not math.isfinite(last):
        return 0.0
    rho = math.exp(min(last - prev, -1e-3)) if math.isfinite(prev) else 0.5
    rho = min(rho, 0.95)
    tail = math.exp(last) * rho / (1.0 - rho)

    k_next = len(log_bounds)
    log_major_next = _log_majorant(k_next, S, beta0, beta_min)
    log_major_after = _log_majorant(k_next + 1, S, beta0, beta_min)
    if log_major_after < log_major_next:  # majorant decaying: usable bound
        rho_m = min(math.exp(log_major_after - log_major_next), 0.95)
        tail = max(tail, math.exp(log_major_next) / (1.0 - rho_m))
    return tail


def mml_series(params: MLParams, args: MLArgs, tol: float = SERIES_TOL,
               max_k: int = SERIES_MAX_SHELLS) -> EvalResult:
    """Evaluate the multinomial Mittag-Leffler function by its power series.

    Truncates when the absolute-value shell majorant stays below ``tol``
    for three consecutive shells; the returned error estimate combines the
    geometric tail of that majorant with the double-precision rounding
    floor of the alternating sum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if params.m != args.m:
        raise ValueError(f"parameter/argument length mismatch: {params.m} != {args.m}")
    (value, abs_sum, _, tail), = _series_batch((params.beta0,), params.betas,
                                               args.z, tol, max_k)
    return EvalResult(value, float(tail + 16.0 * np.finfo(float).eps * abs_sum),
                      Method.SERIES)


# ---------------------------------------------------------------------------
# Dispatch

def _family_alphas(params: MLParams):
    """Recover the decreasing orders (a_1..a_m) from solver-family exponents
    b_1 = a_1, b_j = a_1 - a_j; raises if the pattern does not hold."""
    a1 = params.betas[0]
    alphas = [a1] + [a1 - b for b in params.betas[1:]]
    for i in range(len(alphas) - 1):
        if not alphas[i] > alphas[i + 1]:
            raise ValueError(
                "the window contour requires solver-family parameters "
                "(b_1 = a_1, b_j = a_1 - a_j with decreasing a_j)")
    if alphas[-1] <= 0:
        raise ValueError("recovered orders must be positive")
    return tuple(alphas)


def _family_orders(params: MLParams, args: MLArgs):
    """(lam, orders) of the solver family at t = 1 that give back ``args``:
    lam = -z_1, q_1 = 1 and q_j = -z_j, with the terms of z_j = 0 (j >= 2)
    dropped.  ``orders`` carries the alphas and qs the window kernel reads.
    None unless the parameters are of the solver family and every z_j is
    real and non-positive."""
    try:
        alphas = _family_alphas(params)
    except ValueError:
        return None
    z = np.array(args.z)
    if np.any(np.abs(z.imag) > 1e-13 * (1.0 + np.abs(z.real))) or np.any(z.real > 0):
        return None
    keep = [0] + [j for j in range(1, z.size) if z[j].real != 0.0]
    orders = SimpleNamespace(alphas=tuple(alphas[j] for j in keep),
                             qs=(1.0,) + tuple(-z[j].real for j in keep[1:]))
    return -z[0].real, orders


def _series_feasible(params: MLParams, args: MLArgs, tol, max_k):
    """Cheap shell-count estimate from the single-exponent majorant."""
    S = sum(abs(v) for v in args.z)
    if S == 0:
        return True
    beta_min = min(params.betas)
    below = 0
    for k in range(max_k + 1):
        if _shell_count(k, params.m) > COMPOSITION_BUDGET:
            return False
        if _log_majorant(k, S, params.beta0, beta_min) < math.log(tol):
            below += 1
            if below >= 3:
                return True
        else:
            below = 0
    return False


def mml_eval(params: MLParams, args: MLArgs, tol: float = SERIES_TOL,
             max_k: int = SERIES_MAX_SHELLS) -> EvalResult:
    """Adaptive evaluation: series for small arguments, contour beyond.

    Dispatches on the total argument magnitude sum |z_j| (every argument
    feeds the alternating sum, so each contributes to the double-precision
    cancellation budget).  Up to the crossover, calibrated offline (see
    scripts/calibrate_crossover.py) and stored in
    :data:`mtfrac.constants.SERIES_CONTOUR_CROSSOVER`, the series is
    summed.  Beyond it, or where the series does not converge, real
    non-positive solver-family arguments go to the window contour of
    :func:`e_solver_many` at t = 1, whose QuadratureError propagates.
    Other arguments beyond the crossover, complex z_1 among them, get the
    series where its majorant converges within ``max_k`` shells and its
    error estimate is below |value|, and UncoveredRegionError otherwise: an
    estimate of |value| or more vouches for no digit of the sum.
    """
    if params.m != args.m:
        raise ValueError(f"parameter/argument length mismatch: {params.m} != {args.m}")
    z_total = sum(abs(v) for v in args.z)
    family = _family_orders(params, args)
    if z_total <= SERIES_CONTOUR_CROSSOVER:
        try:
            return mml_series(params, args, tol=tol, max_k=max_k)
        except SeriesConvergenceError:
            if family is None:
                raise
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("mml_eval: series did not converge at "
                           "sum |z_j| = %.6g; using the contour", z_total)
    if family is not None:
        value, est = _solver_family(*family, params.beta0, 1.0)
        return EvalResult(complex(value), float(est), Method.CONTOUR)
    if _series_feasible(params, args, tol, max_k):
        res = mml_series(params, args, tol=tol, max_k=max_k)
        if res.abs_error_estimate < abs(res.value):
            return res
    raise UncoveredRegionError(
        f"sum |z_j| = {z_total:.3g} exceeds the series crossover but the "
        "arguments do not satisfy the contour requirements (solver-family "
        "parameters, real non-positive z_j), and the series gives no value "
        "whose error estimate is below its modulus")


# ---------------------------------------------------------------------------
# Solver-family helpers: E^{(n)}(t)

def solver_params(orders, beta0: float) -> MLParams:
    """Parameter tuple (beta0; a_1, a_1 - a_2, ..., a_1 - a_m)."""
    alphas = orders.alphas
    betas = (alphas[0],) + tuple(alphas[0] - a for a in alphas[1:])
    return MLParams(beta0=beta0, betas=betas)


def solver_args(orders, lam: float, t: float) -> MLArgs:
    """Argument tuple (-lam t^{a_1}, -q_2 t^{a_1-a_2}, ..., -q_m t^{a_1-a_m})."""
    alphas = orders.alphas
    qs = orders.qs
    a1 = alphas[0]
    z = [-lam * t ** a1]
    z += [-qs[j] * t ** (a1 - alphas[j]) for j in range(1, len(alphas))]
    return MLArgs(z=tuple(z))


# Hyperbolic Bromwich contour, fixed over a time window (Weideman &
# Trefethen, Math. Comp. 2007; McLean & Thomee, J. Integral Equations Appl.
# 2010).  With z_1 = -lam t^{a_1} and z_j = -q_j t^{a_1-a_j}, the Laplace
# transform of t^{beta0-1} E^{(n)}_{beta0}(t) is s^{a_1-beta0} / (w(s) + lam),
# where w(s) = sum_j q_j s^{a_j} has no zeros off the negative real axis.
# Every t in the window [t0, L t0), t0 = L^j with L = _WINDOW_RATIO, shares
# the hyperbola s(u) = (mu/t0) (1 + sin(iu - alpha)).  The trapezoid rule at
# u_k = kh, k = 0..N, summed as 2 Re over the conjugate pairs u, -u (half
# weight at k = 0), gives
#
#     E^{(n)}_{beta0}(t) = t^{1-beta0} Re sum_k c_k(t) R_k,
#     c_k(t) = (h/pi) (mu/t0) cos(iu_k - alpha) e^{s_k t} s_k^{a_1-beta0},
#     R_k = 1 / (w(s_k) + lam).
#
# The resolvent R_k depends on the window and lam alone: every time in the
# window and every beta0 shares it, and time enters only through the
# weights c_k(t).  The parameters come from the error balance.  In the
# strip |Im u| <= d = pi/2 - alpha the contour stays off the branch cut;
# at Im u = -d it reaches Re s = (mu/t0) A, A = 1 - sin(alpha - d), so the
# discretization error is about e^{-2 pi d/h + mu L A} at t = L t0.  The
# truncation at u = a = Nh leaves e^{-mu B} at t = t0, B = sin(alpha)
# cosh(a) - 1.  Equal errors give h = a/N and mu = 2 pi d N / (a (B + L A)),
# at the rate exp(-(2 pi d/a) N B/(B + L A)).  At L = 10 that rate is
# largest, e^{-0.83 N}, for alpha at pi/4 (alpha - d must stay positive,
# hence the 1e-3) and a = 4.708.  The rule on the even nodes (step 2h,
# weights doubled) errs like e^{-pi d/h}, so |v_h - v_2h| e^{-pi d/h}
# estimates the value's error (Trefethen & Weideman, SIAM Rev. 2014).
# Nodes are generated for k >= 0 only, so the value is real by construction.
_WINDOW_RATIO = 10.0
_HYPERBOLA_NODES = 40
_HYPERBOLA_ALPHA = math.pi / 4.0 + 1e-3
_HYPERBOLA_A = 4.708


def _hyperbola(n):
    """Nodes s_k, k = 0..n, of the unit window t0 = 1, and their weights
    (h/pi) mu cos(iu_k - alpha), halved at k = 0."""
    alpha, a = _HYPERBOLA_ALPHA, _HYPERBOLA_A
    d = math.pi / 2.0 - alpha
    A = 1.0 - math.sin(alpha - d)
    B = math.sin(alpha) * math.cosh(a) - 1.0
    h = a / n
    mu = 2.0 * math.pi * d * n / (a * (B + _WINDOW_RATIO * A))
    iu = 1j * h * np.arange(n + 1)
    weights = h / math.pi * mu * np.cos(iu - alpha)
    weights[0] /= 2.0
    return mu * (1.0 + np.sin(iu - alpha)), weights


_NODES, _NODE_WEIGHTS = _hyperbola(_HYPERBOLA_NODES)
_LOG_NODES = np.log(_NODES)
_EMBEDDED_FACTOR = math.exp(-math.pi * (math.pi / 2.0 - _HYPERBOLA_ALPHA)
                            * _HYPERBOLA_NODES / _HYPERBOLA_A)
_LAM_PANEL = 16

# The row of the solver family, in place of a beta0, that is the mode
# amplitude u(t): the inverse of w(s) / (s (w(s) + lam)).
AMPLITUDE = "amplitude"


def _is_amplitude(beta0):
    return isinstance(beta0, str) and beta0 == AMPLITUDE


def _window_eval(orders, beta0, lams, ts):
    """Values and error estimates of the hyperbola sums on the grid ``ts``
    x ``lams`` of one row, as one (2, ts.size, lams.size) array; ``beta0``
    is a number, or AMPLITUDE for the amplitude row.

    ``ts`` holds distinct positive times in ascending order, and ``lams``
    is 1-D (:func:`_solver_family` pads it to whole panels of _LAM_PANEL).
    The estimate is |v_h - v_2h| e^{-pi d/h}, with v_2h the step-2h rule on
    the even nodes over the same resolvent, plus the rounding floor 16 eps
    sum_k |t^{1-beta0} c_k R_k|.  In a window's units, with
    P_k = t0^{a_1} w(s_k) and Z = lam t0^{a_1}, the sum is
    (t/t0)^{1-beta0} Re sum_k c'_k / (P_k + Z) with c'_k free of t0, and
    Re(c'_k / (P_k + Z)) = (Z Re c'_k + Re(c'_k conj P_k)) / |P_k + Z|^2:
    one real array of inverse squared moduli per window carries the
    resolvent, and the window's sums are real products of its weights
    with it.  The amplitude row inverts w(s) / (s (w(s) + lam)): its
    weights are g_k (P_k / S_k) e^{S_k t/t0}, with S_k = t0 s_k the unit
    nodes and no power of t/t0, and the same resolvent.

    Where 1/Gamma(beta0 - a_1) vanishes (the propagator), the sum is of
    size 1/Z^2 but its terms of size 1/Z.  By 1/(P + Z) = 1/Z - P/Z^2 +
    P^2/(Z^2 (P + Z)) and Hankel's integral the row also reads
    (sum_k c'_k P_k^2 / (P_k + Z) - M_1) / Z^2, with the closed form
    M_1 = sum_j q_j t0^{a_1-a_j} (t/t0)^{-a_1-a_j} / Gamma(beta0 - a_1 - a_j);
    the floor adds 16 eps sum |M_1 terms|.  Each entry keeps the form with
    the smaller estimate.
    """
    alphas, qs = np.array(orders.alphas), np.array(orders.qs)
    amplitude = _is_amplitude(beta0)
    n = _NODES.size
    # The propagator is also summed in subtracted form, as a second row.
    cancel = not amplitude and special.rgamma(beta0 - alphas[0]) == 0.0
    # Windows t0 = 10^j; the times sit in ascending order, so each window's
    # times are one run [lo, hi).
    j = np.floor(np.log10(ts))
    lo = np.flatnonzero(np.diff(j, prepend=-np.inf))
    hi = np.append(lo[1:], ts.size)
    t0 = _WINDOW_RATIO ** j[lo]
    # t0^{a_1} w(s_k / t0) at every window's nodes, and g_k s_k^{a_1-beta0}.
    scaled_qs = qs * t0[:, None] ** (alphas[0] - alphas)
    symbols = scaled_qs @ np.exp(np.multiply.outer(alphas, _LOG_NODES))
    if not amplitude:
        node_terms = _NODE_WEIGHTS * np.exp((alphas[0] - beta0) * _LOG_NODES)
    if cancel:
        moments = special.rgamma(beta0 - alphas[0] - alphas)
    out = np.empty((2, 1 + cancel, ts.size, lams.size))
    squares = np.empty((n, lams.size))
    for w, symbol in enumerate(symbols):
        z = lams * t0[w] ** alphas[0]
        np.add(symbol.real[:, None], z, out=squares)
        squares *= squares
        squares += (symbol.imag ** 2)[:, None]
        np.reciprocal(squares, out=squares)           # 1 / |P_k + Z|^2 by node
        tau = ts[lo[w]:hi[w]] / t0[w]
        growth = np.exp(np.multiply.outer(tau, _NODES))
        if amplitude:   # g_k (P_k / S_k) e^{S_k tau}
            c = _NODE_WEIGHTS * symbol / _NODES * growth
        else:           # (t/t0)^{1-beta0} c'_k(t) by time
            c = node_terms * growth * np.power(tau, 1.0 - beta0)[:, None]
        if cancel:
            c = np.concatenate([c, c * symbol ** 2])
        weights = np.concatenate([(c * symbol.conj()).real, c.real])
        value, est = out[:, :, lo[w]:hi[w]]
        for sum_, terms in ((value, weights @ squares),
                            (est, 2.0 * (weights[:, ::2] @ squares[::2]))):
            terms = terms.reshape((2,) + sum_.shape)
            np.multiply(terms[1], z, out=sum_)
            sum_ += terms[0]
        est -= value
        np.abs(est, out=est)
        est *= _EMBEDDED_FACTOR
        est += (16.0 * np.finfo(float).eps
                * np.abs(c) @ np.sqrt(squares)).reshape(est.shape)
        if cancel:   # M_1's terms by time
            m1 = moments * scaled_qs[w] * np.power.outer(tau, -alphas[0] - alphas)
            value[1] -= m1.sum(axis=1)[:, None]
            est[1] += 16.0 * np.finfo(float).eps * np.abs(m1).sum(axis=1)[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):  # Z = 0
                out[:, 1, lo[w]:hi[w]] /= z * z
    if cancel:
        plain, subtracted = out[:, 0], out[:, 1]
        return np.where(subtracted[1] < plain[1], subtracted, plain)
    return out[:, 0]


def _solver_family(lams, orders, beta0, ts):
    """E^{(n)}_{beta0}(t) at every pair of a time in ``ts`` and a lam in
    ``lams``, each a scalar or a 1-D array; ``beta0`` is a number, or
    AMPLITUDE for the mode amplitude.

    Returns (values, abs_error_estimates), each of shape ts.shape +
    lams.shape.  The distinct positive times go through the hyperbola of
    their time window, whose values are real by construction, on the grid
    of those times by the lams: its cost is that of the outer product of
    the two.  t = 0 takes the exact limit, and the requested times are
    gathered from the grid.  An estimate above SOLVER_FAMILY_RTOL of its
    value raises QuadratureError, which names the worst entry.
    """
    lams = np.asarray(lams, dtype=float)
    ts = np.asarray(ts, dtype=float)
    for x, name in ((ts, "t"), (lams, "eigenvalues")):
        if x.ndim > 1:
            raise ValueError(f"{name} must be a scalar or a 1-D array")
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
        if (x < 0).any():
            raise ValueError(f"{name} must be non-negative")
    amplitude = _is_amplitude(beta0)
    if not amplitude:
        if np.ndim(beta0) != 0:
            raise ValueError("beta0 must be a number or AMPLITUDE")
        beta0 = float(beta0)
    t_grid = np.unique(ts)
    # Padded to whole panels of lams, with |R_k|^2 stored node by node, the
    # products round each lam's sums alike wherever it sits in the batch
    # (OpenBLAS): an entry's value and estimate do not depend on the other
    # entries of its call.
    padded = np.concatenate((lams.ravel(), np.zeros(-lams.size % _LAM_PANEL)))
    grid = _window_eval(orders, beta0, padded, t_grid[t_grid > 0.0])[..., :lams.size]
    if t_grid.size and t_grid[0] == 0.0:  # t = 0: the exact limit
        limit = np.zeros((2, 1, lams.size))
        limit[0] = 1.0 if amplitude else 1.0 / gamma_real(beta0)
        grid = np.concatenate([limit, grid], axis=1)
    vals, ests = grid
    if (ests > SOLVER_FAMILY_RTOL * np.abs(vals)).any():
        ratio = ests / np.maximum(np.abs(vals), np.finfo(float).tiny)
        i, e = np.unravel_index(np.argmax(ratio), ratio.shape)
        row = "the amplitude" if amplitude else f"beta0 = {beta0:.6g}"
        raise QuadratureError(
            f"solver family: estimate {ratio[i, e]:.3g} of the value above "
            f"SOLVER_FAMILY_RTOL at lam = {lams.flat[e]:.6g}, t = {t_grid[i]:.6g}, {row}")
    rows, shape = np.searchsorted(t_grid, ts.ravel()), ts.shape + lams.shape
    return vals[rows].reshape(shape), ests[rows].reshape(shape)


def e_solver(lam: float, orders, beta0: float, t: float) -> float:
    """Scalar view of :func:`e_solver_many`."""
    return float(e_solver_many(lam, orders, beta0, t))


def e_solver_many(lams, orders, beta0, ts) -> np.ndarray:
    """E^{(n)}_{beta0}(t) with z_1 = -lam t^{a_1}, z_j = -q_j t^{a_1-a_j},
    at every pair of a time in ``ts`` and a lam in ``lams``, each a scalar
    or a 1-D array: the result has shape ts.shape + lams.shape.  ``beta0``
    is a number, or AMPLITUDE for the mode amplitude, the inverse of
    w(s) / (s (w(s) + lam)), w(s) = sum_j q_j s^{a_j}; a sequence of them,
    or a 2-D lams or ts, raises ValueError.

    Positive times go through the hyperbolic Bromwich contour of their
    window [10^j, 10^{j+1}), whose resolvent at each node is built once per
    lam and shared by every time in the window; an entry whose estimate
    exceeds SOLVER_FAMILY_RTOL of its value raises QuadratureError.  t = 0
    entries return the exact limit 1/Gamma(beta0) (the amplitude: 1); a
    negative or non-finite lam or t raises ValueError.  Real-valued by
    construction: the hyperbola sums conjugate node pairs as 2 Re over the
    nodes with u >= 0.  The result is a fresh array, which holds neither
    the estimates nor the kernel's padded grid.
    """
    return _solver_family(lams, orders, beta0, ts)[0]


# ---------------------------------------------------------------------------
# Identity residual

def lemma31_residual(params: MLParams, args: MLArgs,
                     tol: float = 1e-14) -> float:
    """Residual of the parameter-shift identity

        1/Gamma(b_0) + sum_j z_j E_{(b), b_0 + b_j}(z) = E_{(b), b_0}(z),

    evaluated with the series at truncation tolerance ``tol``.  The m + 1
    series share one pass over the compositions; each keeps its own
    stopping rule."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if params.m != args.m:
        raise ValueError(f"parameter/argument length mismatch: {params.m} != {args.m}")
    beta0s = (params.beta0,) + tuple(params.beta0 + b for b in params.betas)
    sums = _series_batch(beta0s, params.betas, args.z, tol, SERIES_MAX_SHELLS)
    rhs, *shifted = (value for value, _, _, _ in sums)
    lhs = 1.0 / gamma_real(params.beta0)
    for zj, value in zip(args.z, shifted):
        lhs += zj * value
    return abs(lhs - rhs)
