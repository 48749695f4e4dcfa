"""Independent numerical ground truth for the modal solutions.

Three routes that share no code with the primary evaluation path:

* :func:`highprec_series` sums the defining series in software arbitrary
  precision (mpmath) with a rigorous majorant tail bound;
* :func:`l1_solve_mode` time-steps the per-mode multi-term fractional ODE
  with the piecewise-linear (L1) discretization of each Caputo term.  The
  history before each block of steps is carried by a recurrence over the
  nodes of one exponential sum for the whole multi-term kernel, so a step
  costs a few hundred exponentials, not one kernel weight per earlier
  step.  What depends on the mesh alone (each block's matrix and its
  exponentials) is built for eight blocks at a time, and the block loop
  keeps only the solve, its checks and the history;
* :func:`laplace_mode_eval` evaluates the mode through its Laplace
  inversion along the cut negative axis, leading decay term plus remainder
  integral, each panel set of the quadrature in one integrand call.

:func:`counterexample_run` reproduces the unstable negative-coefficient
configuration whose Laplace symbol acquires zeros off the cut.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .constants import HANKEL_EPS0, HANKEL_REFINE_RTOL
from .specfun import MLArgs, MLParams, gamma_real

__all__ = [
    "L1Config",
    "HighPrecResult",
    "CounterexampleResult",
    "highprec_series",
    "l1_solve_mode",
    "l1_mesh",
    "laplace_symbol",
    "hankel_integrand",
    "laplace_mode_eval",
    "counterexample_roots",
    "counterexample_run",
]


# ---------------------------------------------------------------------------
# Configs

@dataclass(frozen=True)
class L1Config:
    """Mesh for the L1 stepper: nodes t_k = t_final * (k/n_steps)^grading."""

    t_final: float
    n_steps: int
    grading: float = 1.0

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.grading < 1.0:
            raise ValueError("grading must be >= 1")


# ---------------------------------------------------------------------------
# Extended-precision series

@dataclass(frozen=True)
class HighPrecResult:
    value: complex
    tail_bound: float
    digits: int
    mp_value: object  # mpmath mpc, full precision


def _mp_compositions(k, m):
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _mp_compositions(k - first, m - 1):
            yield (first,) + rest


def highprec_series(params: MLParams, args: MLArgs, digits: int = 30) -> HighPrecResult:
    """Shell-by-shell summation of the series at >= ``digits`` working digits.

    Stops once the single-exponent majorant S^k / Gamma(b0 + b_min k)
    certifies a tail below 10^-(digits+5); raises if that never happens
    within 10 * digits * (1 + S) shells.
    """
    if params.m != args.m:
        raise ValueError("parameter/argument length mismatch")
    if digits < 10:
        raise ValueError("digits must be at least 10")
    m = params.m
    betas = params.betas
    beta0 = params.beta0
    S = sum(abs(z) for z in args.z)
    beta_min = min(betas)
    max_shells = int(10 * digits * (1.0 + S)) + 20

    import mpmath as mp   # here alone, so importing mtfrac does not load it
    with mp.workdps(digits + 10):
        zs = [mp.mpc(z) for z in args.z]
        # The Gamma argument b_0 + sum_j b_j k_j is formed at working
        # precision: rounded to double it moves 1/Gamma by about eps k,
        # which a cancelling series amplifies far past the target.
        b0_mp = mp.mpf(beta0)
        betas_mp = [mp.mpf(b) for b in betas]
        total = mp.mpc(0)
        target = mp.mpf(10) ** (-(digits + 5))
        tail = None
        for k in range(max_shells):
            shell = mp.mpc(0)
            for comp in _mp_compositions(k, m):
                mult = mp.factorial(k)
                for kj in comp:
                    mult /= mp.factorial(kj)
                term = mult
                for zj, kj in zip(zs, comp):
                    if kj:
                        term *= zj ** kj
                g = b0_mp
                for bj, kj in zip(betas_mp, comp):
                    g += bj * kj
                shell += term / mp.gamma(g)
            total += shell
            if S == 0:
                tail = mp.mpf(0)
                break
            major = mp.mpf(S) ** (k + 1) / mp.gamma(beta0 + beta_min * (k + 1))
            major_next = mp.mpf(S) ** (k + 2) / mp.gamma(beta0 + beta_min * (k + 2))
            if major_next < major:
                ratio = major_next / major
                bound = major / (1 - ratio)
                if bound < target:
                    tail = bound
                    break
        if tail is None:
            raise ArithmeticError(
                f"high-precision series: tail bound {target} not reached "
                f"within {max_shells} shells (sum |z_j| = {float(S):.3g})")
        return HighPrecResult(value=complex(total), tail_bound=float(tail),
                              digits=digits, mp_value=total)


# ---------------------------------------------------------------------------
# L1 stepper for the per-mode multi-term Caputo ODE

def l1_mesh(cfg: L1Config) -> np.ndarray:
    k = np.arange(cfg.n_steps + 1, dtype=float)
    return cfg.t_final * (k / cfg.n_steps) ** cfg.grading


def _source_values(f, ts):
    if f is None:
        return np.zeros(ts.shape)
    if callable(f):
        return np.asarray([float(f(t)) for t in ts])
    t_samp, v_samp = f
    return np.interp(ts, np.asarray(t_samp, dtype=float), np.asarray(v_samp, dtype=float))


_L1_BLOCK = 32       # steps per block of the L1 recurrence
_L1_CHUNK = 8        # blocks whose mesh-only arrays are built together

# With p = e^y / x_max and y = u - e^{-u} (McLean, "Exponential sum
# approximations for t^{-beta}", 2018), x^{-a} Gamma(a) = int p^{a-1} e^{-px} dp
# = int (1 + e^{-u}) p^a e^{-px} du, whose trapezoid rule at step h has nodes
# p_l shared by every a.  Each error, relative on [x_min, x_max], is about
# e^{-T}: the cut below u = -log(T/a) drops int_{T/a}^inf e^{-av} dv
# (v = e^{-u}), the cut above u = log(T x_max/x_min) drops nodes with
# p x_min > T, and the rule's error is about 60 e^{-pi^2/h} (McLean's
# exponent, a measured factor), so h = pi^2/T.  At T = 40 the measured error is
# at most 1.4e-15 for a in [0.02, 0.99], x_min/x_max in [3e-11, 1e-3].
_EXPSUM_LOG_TOL = 40.0


def _exp_sum(alphas, coefs, x_min, x_max):
    """Nodes p and weights w with sum_j coefs_j x^{-alphas_j} ~
    sum_l w_l e^{-p_l x} on [x_min, x_max], for orders in (0, 1)."""
    h = math.pi ** 2 / _EXPSUM_LOG_TOL
    u_lo = -math.log(_EXPSUM_LOG_TOL / alphas.min())
    u_hi = math.log(_EXPSUM_LOG_TOL * x_max / x_min)
    u = u_lo + h * np.arange(math.ceil((u_hi - u_lo) / h) + 1)
    y = u - np.exp(-u) - math.log(x_max)            # log p
    per_term = np.exp(np.outer(y, alphas)) @ (coefs / gamma_real(alphas))
    return np.exp(y), h * (1.0 + np.exp(-u)) * per_term


@functools.lru_cache(maxsize=None)
def _tril_indices(nb):
    """Rows and columns of the entries on and below the diagonal of an
    nb x (nb + 1) array, read-only since every caller shares them."""
    rows, cols = np.tril_indices(nb, 0, nb + 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _l1_near_weights(rows, cols, expo, coef):
    """Differenced L1 weights inside blocks of steps.

    Row b of ``rows`` (g, B) holds the times t_n of a block's steps
    n0 <= n < n0 + B, and row b of ``cols`` (g, B + 1) the times t_k,
    n0 - 1 <= k < n0 + B.  Entry (b, n - n0, k - n0 + 1) of the result is
    W[n, k] - W[n, k+1], with the combined weight
    W[n, k] = sum_j coef_j (t_n - t_k)_+^{expo_j}; above the diagonal it is
    0, and only the powers on and below it are taken.  Each term's powers
    are differenced before they are scaled and summed.  They cancel by the
    ratio (t_n - t_k) / dt_k: a few tens inside a block, but 1e6 in the
    first block at grading 4 (about 2e-12 of max|u|).
    """
    g, nb = rows.shape
    i, j = _tril_indices(nb)
    back = rows[:, i] - cols[:, j]
    pw = np.zeros((g, nb, nb + 1))
    diffs = np.zeros((g, nb, nb))
    for e, c in zip(expo, coef):
        pw[:, i, j] = back ** e
        diffs += c * (pw[..., :-1] - pw[..., 1:])
    return diffs


def l1_solve_mode(lam: float, orders, a_n: float, f_n, cfg: L1Config,
                  stop_abs: float = None):
    """L1 time stepping of  sum_j q_j D^{a_j} u + lam u = f,  u(0) = a_n.

    Each Caputo term is discretized with the piecewise-linear kernel
    weights on the shared (possibly graded) mesh.  Returns (times, values).
    ``f_n`` is the mode's source: None (zero), a callable of t, or samples
    (times, values) interpolated linearly.  ``stop_abs`` stops early once
    |u| exceeds it (used by growth experiments).

    With slopes s_k = (u_{k+1} - u_k) / dt_k and the multi-term kernel
    K(x) = sum_j q_j x^{-a_j} / Gamma(1 - a_j), step n solves

        I_{n-1}(n) s_{n-1} + lam u_n = f_n - sum_{k < n-1} I_k(n) s_k,

    I_k(n) = int_{t_k}^{t_{k+1}} K(t_n - tau) dtau.  Steps advance in blocks
    of B = _L1_BLOCK.  Inside one, I_k(n) are differenced powers and, since
    u_n = u_c + sum_{c <= k < n} dt_k s_k, the block's steps are one
    lower-triangular system for its slopes; each step's checks then run on
    the block's values in step order.  With one exponential sum
    K(x) ~ sum_l w_l e^{-p_l x} on [t_{B+1} - t_B, t_final] (steps never
    shrink), the history before block start c is H_l = sum_{k<c} s_k
    e^{-p_l (t_c - t_{k+1})} (1 - e^{-p_l dt_k}) / p_l, which adds
    sum_l w_l e^{-p_l (t_n - t_c)} H_l to step n.  Each
    interval's term is formed with ``expm1``, so nothing cancels next to the
    tiny first steps of a steep mesh.

    Only the far-history sum, the triangular solve, the checks and the
    carry of H_l depend on the solution.  The rest (the block matrices, the
    factors e^{-p_l (t_n - t_c)} and the carry factors of H_l) depends on
    the mesh alone and is built for _L1_CHUNK blocks at a time, on the mesh
    padded to whole blocks with its last time.

    ``orders`` only needs ``alphas``/``qs`` attributes, with orders in
    (0, 1); sign constraints are the caller's business, which lets
    deliberately ill-posed weight patterns be simulated.
    """
    alphas = np.asarray(orders.alphas, dtype=float)
    qs = np.asarray(orders.qs, dtype=float)
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ValueError(f"L1 orders must lie in (0, 1), got {orders.alphas}")
    ts = l1_mesh(cfg)
    fs = _source_values(f_n, ts)
    n_steps = cfg.n_steps
    lam = float(lam)
    expo = 1.0 - alphas
    coef = qs / gamma_real(2.0 - alphas)          # q_j / Gamma(2 - a_j)
    B = _L1_BLOCK
    n_blocks = -(-n_steps // B)
    tp = np.concatenate((ts, np.full(n_blocks * B - n_steps, ts[-1])))
    dtp = np.diff(tp)                             # 0 on the padding
    nodes = weights = np.empty(0)
    if n_steps > B:
        nodes, weights = _exp_sum(alphas, qs / gamma_real(1.0 - alphas), dtp[B], ts[-1])
    hist = np.zeros(nodes.size)
    # Nodes with p dt_c > T add below e^{-T} of K from block start c on.
    lives = np.searchsorted(nodes, _EXPSUM_LOG_TOL / dtp[:n_steps:B])

    u = np.empty(n_steps + 1)
    u[0] = a_n
    for b0 in range(0, n_blocks, _L1_CHUNK):
        b1 = min(b0 + _L1_CHUNK, n_blocks)
        rows = tp[b0 * B + 1:b1 * B + 1].reshape(-1, B)        # t_n
        t_c = tp[b0 * B:b1 * B:B]
        dts = dtp[b0 * B:b1 * B].reshape(-1, B)                # dt_k, k >= c
        mats = _l1_near_weights(rows, np.column_stack((t_c, rows)), expo, coef)
        mats += lam * dts[:, None, :]
        p = -nodes[:lives[b0:b1].max()]
        ints = (rows[:, -1:] - rows)[:, None, :] * p[:, None]  # (g, L, B)
        np.exp(ints, out=ints)
        fac = dts[:, None, :] * p[:, None]
        np.expm1(fac, out=fac)
        fac /= p[:, None]
        ints *= fac
        del fac                 # before decs, to hold two (g, L, B) arrays at most
        decs = (rows - t_c[:, None])[..., None] * p            # (g, B, L)
        np.exp(decs, out=decs)
        for b in range(b1 - b0):
            c = (b0 + b) * B
            n0, n1 = c + 1, min(c + 1 + B, n_steps + 1)
            live = lives[b0 + b]
            decay = decs[b, :n1 - n0, :live]
            far = decay @ (weights[:live] * hist[:live])
            # The block's slopes solve one lower-triangular system (dtrtrs
            # reads only the lower triangle); an exact zero pivot ends the
            # block there.
            mat = mats[b, :n1 - n0, :n1 - n0]
            rhs = fs[n0:n1] - far - lam * u[c]
            slopes, info = dtrtrs(mat, rhs, lower=1)
            if info > 0:    # zero pivot at step n0 + info - 1: solve the steps before it
                k = info - 1
                slopes = dtrtrs(mat[:k, :k], rhs[:k], lower=1)[0] if k else rhs[:0]
            vals = u[n0:n0 + slopes.size] = u[c] + np.cumsum(dts[b, :slopes.size] * slopes)
            bad = ~np.isfinite(vals)    # each step's checks, in step order
            if stop_abs is not None:
                bad |= np.abs(vals) >= stop_abs
            if bad.any():
                n = n0 + int(bad.argmax())
                if not math.isfinite(u[n]):
                    raise ArithmeticError(f"L1 step produced a non-finite value at t={ts[n]:.4g}")
                return ts[: n + 1], u[: n + 1]
            if info > 0:
                raise ArithmeticError("singular L1 update (a_coef + lam = 0)")
            if n1 <= n_steps:   # carry the history to the next block's start
                hist = hist[:live]
                hist *= decay[-1]
                hist += ints[b, :live] @ slopes
        del mats, ints, decs, mat, decay    # free the chunk before the next is built
    return ts, u


# ---------------------------------------------------------------------------
# Laplace inversion along the cut axis

def laplace_symbol(orders, lam: float, s):
    """w(s) = sum_j q_j s^{a_j} + lam."""
    s = np.asarray(s, dtype=complex)
    out = np.full(s.shape, complex(lam))
    for a, q in zip(orders.alphas, orders.qs):
        out = out + q * s ** a
    return out


def hankel_integrand(orders, lam: float, r):
    """H(r, lam) = -(1/pi) Im{ (1/w) sum_j q_j s^{a_j-1}
                               - (q_m/lam) s^{a_m-1} } at s = r e^{i pi}.

    On the cut, q_j s^{a_j} = q_j r^{a_j} e^{i pi a_j} and s^{a-1} = -s^a / r,
    so with P = w - lam one real power per term gives
    H = (lam Im P / |w|^2 - (q_m/lam) r^{a_m} sin(pi a_m)) / (pi r).
    """
    r = np.asarray(r, dtype=float)
    re, im = lam, 0.0
    for a, q in zip(orders.alphas, orders.qs):
        term = q * r ** a
        re = re + term * math.cos(math.pi * a)
        im = im + term * math.sin(math.pi * a)
    lead = term * math.sin(math.pi * a) / lam     # the last term, q_m r^{a_m}
    return (lam * im / (re * re + im * im) - lead) / (math.pi * r)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# Panels of the coarse rule on each side of the split; the check doubles
# them.  The integral stops at r_max = _HANKEL_RT_MAX / t, where e^{-rt} is
# e^{-40}, about 4e-18.
_HANKEL_PANELS = 48
_HANKEL_RT_MAX = 40.0


def _hankel_quad(orders, lam, t, n_panels):
    """Panel Gauss-Legendre of int_0^r_max H(r) e^{-rt} dr with a split at
    HANKEL_EPS0*lam and geometric grading toward r = 0; every panel's 16
    nodes are one row of a single integrand call."""
    r_max = _HANKEL_RT_MAX / t
    r_split = min(HANKEL_EPS0 * lam, r_max)
    edges = []
    # geometric panels from tiny radii up to the split
    r_lo = r_split * 1e-60
    geo = r_lo * (r_split / r_lo) ** (np.arange(n_panels + 1) / n_panels)
    edges.append(geo)
    if r_max > r_split:
        lin = r_split * (r_max / r_split) ** (np.arange(1, n_panels + 1) / n_panels)
        edges.append(lin)
    grid = np.concatenate(edges)
    half = 0.5 * np.diff(grid)[:, None]               # (panels, 1)
    r = half * _GL_X + 0.5 * (grid[1:] + grid[:-1])[:, None]
    panels = (_GL_W * hankel_integrand(orders, lam, r) * np.exp(-r * t)).sum(axis=1)
    total = float(half[:, 0] @ panels)
    # analytic bound on the dropped [0, r_lo] piece
    below = abs(hankel_integrand(orders, lam, np.array([r_lo]))[0]) * r_lo * 2.0
    return total, below, grid


def laplace_mode_eval(lam: float, orders, a_n: float, t: float) -> float:
    """Mode value a_n [ q_m / (lam Gamma(1-a_m) t^{a_m}) + int_0^inf H e^{-rt} dr ].

    The integral is evaluated by panel quadrature on [0, 40/t], split at
    HANKEL_EPS0*lam; a doubled-panel refinement must agree within
    HANKEL_REFINE_RTOL or an error is raised.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    alpha_m = orders.alphas[-1]
    q_m = orders.qs[-1]
    leading = q_m / (lam * gamma_real(1.0 - alpha_m) * t ** alpha_m)

    coarse = _hankel_quad(orders, lam, t, _HANKEL_PANELS)[0]
    fine, below_f, _ = _hankel_quad(orders, lam, t, 2 * _HANKEL_PANELS)
    err = abs(fine - coarse) + below_f
    scale = max(abs(leading + fine), abs(leading), 1e-300)
    if err > HANKEL_REFINE_RTOL * scale:
        raise ArithmeticError(
            f"Hankel quadrature refinement disagreement {err:.3g} at t={t}")
    return a_n * (leading + fine)


# ---------------------------------------------------------------------------
# Negative-coefficient counterexample

@dataclass(frozen=True)
class CounterexampleResult:
    times: np.ndarray
    values: np.ndarray
    r_plus: float
    r_minus: float
    verdict: str


def counterexample_roots(lam: float):
    """Positive roots (3 lam +- sqrt(9 lam^2 - 4 lam)) / 2 of the symbol
    s^{1/2} - 3 lam s^{1/4} + lam viewed as a quadratic in y = s^{1/4},
    computed from the companion matrix rather than the closed form."""
    if 9.0 * lam * lam - 4.0 * lam <= 0:
        raise ValueError("needs 9 lam^2 - 4 lam > 0")
    roots = np.sort(np.roots([1.0, -3.0 * lam, lam]).real)
    return float(roots[0]), float(roots[1])


def counterexample_run(lam: float, cfg: L1Config,
                       flip_sign: bool = False) -> CounterexampleResult:
    """Simulate  D^{1/2} u -+ 3 lam D^{1/4} u + lam u = 0,  u(0) = 1.

    With the negative middle weight the Laplace symbol has zeros with
    positive real part and the mode grows; ``flip_sign=True`` runs the
    all-positive control, which decays.  The verdict is ``grows`` once |u|
    reaches 10x its initial value inside the window.
    """
    r_minus, r_plus = counterexample_roots(lam)
    q2 = 3.0 * lam if flip_sign else -3.0 * lam
    # FracOrders would reject the negative weight.
    orders = SimpleNamespace(alphas=(0.5, 0.25), qs=(1.0, q2))
    u0 = 1.0
    ts, us = l1_solve_mode(lam, orders, u0, None, cfg, stop_abs=1e6 * abs(u0))
    peak = np.max(np.abs(us))
    if peak >= 10.0 * abs(u0):
        verdict = "grows"
    elif abs(us[-1]) <= abs(u0) and peak <= 1.05 * abs(u0):
        verdict = "decays"
    else:
        verdict = "indeterminate"
    return CounterexampleResult(times=ts, values=us, r_plus=r_plus,
                                r_minus=r_minus, verdict=verdict)
