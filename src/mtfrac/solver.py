"""Modal solutions of the multi-term time-fractional diffusion problem.

Homogeneous solutions use the closed per-mode amplitude

    u_n(t) = (1 - lambda_n t^{a_1} E^{(n)}_{1+a_1}(t)) (a, phi_n),

evaluated by one inversion of its Laplace transform
w(s) / (s (w(s) + lambda_n)), w(s) = sum_j q_j s^{a_j}, on the solver
kernel's contour (the difference cancels once lambda_n t^{a_1} is large, so
it is never formed).  Caputo derivatives of solutions and forced solutions
are closed forms from the same transform argument:
t^{beta0-1} E^{(n)}_{beta0}(t) inverts s^{a_1-beta0} / (w(s) + lambda_n).
Product quadrature of weakly singular integrals is kept as an independent
check of the per-mode equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln

from . import spectral
from .spectral import Operator1D, Spectrum
from .specfun import AMPLITUDE, e_solver_many, gamma_real

__all__ = [
    "FracOrders",
    "Problem",
    "ModalSolution",
    "SampledSource",
    "QuadConfig",
    "mode_amplitude",
    "mode_amplitudes",
    "solve",
    "time_derivative",
    "caputo_derivative",
    "caputo_quadrature",
    "mode_ode_residual",
]


@dataclass(frozen=True)
class FracOrders:
    """Strictly decreasing Caputo orders in (0,1) with positive weights,
    normalized so the leading weight is 1."""

    alphas: tuple
    qs: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "qs", tuple(float(q) for q in self.qs))
        if len(self.alphas) != len(self.qs):
            raise ValueError("alphas and qs must have equal length")
        if len(self.alphas) < 1:
            raise ValueError("at least one order is required")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"orders must lie in (0, 1), got {a}")
        if any(a1 <= a2 for a1, a2 in zip(self.alphas, self.alphas[1:])):
            raise ValueError("orders must be strictly decreasing")
        if self.qs[0] != 1.0:
            raise ValueError("leading weight q_1 must equal 1")
        if any(q <= 0 for q in self.qs):
            raise ValueError("weights must be positive")

    @property
    def m(self):
        return len(self.alphas)

    @classmethod
    def single(cls, alpha):
        return cls(alphas=(alpha,), qs=(1.0,))


@dataclass(eq=False)
class SampledSource:
    """Time-sampled source, linearly interpolated between samples.

    ``values`` rows are grid samples F(., t_i), t_0 = 0, at any spacing;
    off a uniform grid the lags t - t_i stop coinciding, and a solution
    costs what ``forced_offgrid`` in scripts/bench_kernel.py costs.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("source needs at least two time samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("source times must be increasing")
        if self.times[0] != 0.0:
            raise ValueError("source sampling must start at t = 0")

    @classmethod
    def from_callable(cls, f, t_final, n_samples, xs):
        """Sample a callable f(x_array, t) -> grid values."""
        times = np.linspace(0.0, t_final, n_samples)
        values = np.array([np.asarray(f(xs, t), dtype=float) for t in times])
        return cls(times=times, values=values)


@dataclass(eq=False)
class Problem:
    """Full initial-boundary value description on the discrete grid.

    ``modal_initial`` holds the initial value's modal coefficients."""

    orders: FracOrders
    operator: Operator1D
    spectrum: Spectrum
    initial: np.ndarray
    source: SampledSource | None = None

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.spectrum.n_modes != self.operator.n_interior:
            raise ValueError("spectrum inconsistent with operator (mode count)")
        if abs(self.spectrum.h - self.operator.h) > 1e-14 * self.operator.h:
            raise ValueError("spectrum inconsistent with operator (grid spacing)")
        if self.initial.shape != (self.operator.n_interior,):
            raise ValueError("initial value must be a grid function")
        if self.source is not None:
            got = self.source.values.shape
            want = (self.source.times.size, self.operator.n_interior)
            if got != want:
                raise ValueError(f"source values have shape {got}; one grid "
                                 f"function per time sample is {want}")
        self.modal_initial = spectral.project(self.initial, self.spectrum)

    @classmethod
    def build(cls, orders, operator, initial=None, source=None):
        s = spectral.eigendecompose_operator(operator)
        if initial is None:
            init = np.zeros(operator.n_interior)
        elif callable(initial):
            init = np.asarray([float(initial(x)) for x in operator.interior_x])
        else:
            init = np.asarray(initial, dtype=float)
        return cls(orders=orders, operator=operator, spectrum=s,
                   initial=init, source=source)


# ---------------------------------------------------------------------------
# Homogeneous solution

def mode_amplitude(orders: FracOrders, lam: float, t: float) -> float:
    """Scalar view of :func:`mode_amplitudes`."""
    return float(mode_amplitudes(orders, lam, t))


def mode_amplitudes(orders: FracOrders, lams, ts) -> np.ndarray:
    """Per-mode amplitude u(t) = 1 - lam t^{a_1} E^{(n)}_{1+a_1}(t) for
    ``lams`` broadcast against ``ts``; exactly 1 at t = 0.

    One :func:`e_solver_many` row, the AMPLITUDE row, inverts the
    amplitude's Laplace transform w(s) / (s (w(s) + lam)),
    w(s) = sum_j q_j s^{a_j}, directly, and its estimate bounds the
    amplitude itself.  The difference, which cancels for large
    lam t^{a_1}, is never formed.  Returns a fresh array."""
    return e_solver_many(lams, orders, AMPLITUDE, ts)


class ModalSolution:
    """Modal coefficients of a problem's solution, cached per time.

    ``modal_values`` maps a scalar time to (n_modes,) and an array of T
    times to a (T, n_modes) block.  The times not yet cached are evaluated
    together: a homogeneous problem's in one kernel call over the
    (time, mode) grid, a forced problem's (zero initial value) in two per
    run of times, split where their distinct lags pass _MAX_LAGS.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self._cache: dict[float, np.ndarray] = {}
        src = problem.source
        if src is None:
            return
        if np.any(problem.initial != 0.0):
            raise ValueError("a forced problem requires zero initial value")
        hist = spectral.project(src.values, problem.spectrum)  # (n_times, n_modes)
        norms = np.max(np.abs(hist), axis=0)
        # Modes whose history is projection noise contribute nothing.
        self._active = np.nonzero(norms > 1e-14 * max(norms.max(), 1e-300))[0]
        self._hist = hist[:, self._active]
        slopes = np.diff(self._hist, axis=0) / np.diff(src.times)[:, None]
        # F'(0), then the slope change at each interior sample.
        self._weights = np.vstack([slopes[:1], np.diff(slopes, axis=0)])

    def modal_values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        keys = [float(t) for t in ts.ravel()]
        missing = [k for k in dict.fromkeys(keys) if k not in self._cache]
        if missing:
            self._cache.update(zip(missing, self._evaluate(np.array(missing))))
        rows = [self._cache[k] for k in keys]
        return rows[0] if ts.ndim == 0 else np.reshape(rows, ts.shape + (-1,))

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        p = self.problem
        if p.source is None:
            return (mode_amplitudes(p.orders, p.spectrum.lambdas, ts[:, None])
                    * p.modal_initial)
        return self._forced(ts)

    def _forced(self, ts: np.ndarray) -> np.ndarray:
        """Forced coefficients at the times ts >= 0, exact for the linear
        interpolant F(s) = F(0) + F'(0) s + sum_i dF'_i (s - t_i)_+ of the
        source samples (dF'_i the slope change at the interior sample t_i);
        each piece's response inverts its transform over w(s) + lambda_n:

            T_n(t) = F(0) K1(t) + F'(0) K2(t) + sum_{0 < t_i < t} dF'_i K2(t - t_i),

        K1(t) = t^{a_1} E^{(n)}_{1+a_1}(t), K2(t) = t^{1+a_1} E^{(n)}_{2+a_1}(t),
        for every active mode.  Per run of times from :func:`_lag_runs`, one
        :func:`e_solver_many` call gives K2 at the distinct lags t and
        t - t_i of the run, and one gives K1 at its times t alone.  Every
        time is checked before the first call."""
        p = self.problem
        times = p.source.times
        if not np.all(ts >= 0.0):
            raise ValueError("t must be a non-negative number")
        if np.any(ts > times[-1] + 1e-12):
            raise ValueError(f"source history ends at {times[-1]}, "
                             f"requested t={ts.max()}")
        coeffs = np.zeros((ts.size, p.spectrum.n_modes))
        rows = np.nonzero(ts > 0.0)[0]
        interior = times[1:-1]
        taus = [np.concatenate([[t], t - interior[interior < t]]) for t in ts[rows]]
        a1 = p.orders.alphas[0]
        lams = p.spectrum.lambdas[self._active]
        for run in _lag_runs(taus):
            lags, index = np.unique(np.concatenate(taus[run]), return_inverse=True)
            k1 = e_solver_many(lams, p.orders, 1.0 + a1, ts[rows[run]][:, None])
            k2 = e_solver_many(lams, p.orders, 2.0 + a1, lags[:, None])
            ends = np.cumsum([tau.size for tau in taus[run]])
            for row, tau, k, i in zip(rows[run], taus[run], k1, np.split(index, ends[:-1])):
                coeffs[row, self._active] = (
                    tau[0] ** a1 * self._hist[0] * k
                    + tau ** (1.0 + a1) @ (self._weights[:tau.size] * k2[i]))
        return coeffs


_MAX_LAGS = 2048


def _lag_runs(taus: list[np.ndarray]):
    """Slices of consecutive ``taus`` over at most _MAX_LAGS distinct lags
    each (a longer tau is a run of its own), one K1 and one K2 call each.
    Times at the source samples share their lags (256 for 257 samples),
    times off them share almost none; a K2 call's arrays take about 10 kB
    per lag over 255 modes, so the cap bounds them at about 20 MB.  A lag
    repeated within one tau counts twice, which only shortens a run."""
    if not taus:
        return
    lags, ids = np.unique(np.concatenate(taus), return_inverse=True)
    last = np.full(lags.size, -1)       # the start of the run that last used a lag
    start = count = 0
    for j, tau_ids in enumerate(np.split(ids, np.cumsum([t.size for t in taus])[:-1])):
        fresh = np.count_nonzero(last[tau_ids] != start)
        if j > start and count + fresh > _MAX_LAGS:
            yield slice(start, j)
            start, count, fresh = j, 0, tau_ids.size
        last[tau_ids] = start
        count += fresh
    yield slice(start, len(taus))


def solve(p: Problem, t) -> np.ndarray:
    """Grid values of the solution at time t, or a (T, n_interior) block
    for an array of T times; see :class:`ModalSolution` for its modal
    coefficients."""
    return spectral.synthesize(ModalSolution(p).modal_values(t), p.spectrum)


def time_derivative(p: Problem, t: float) -> np.ndarray:
    """d/dt of the homogeneous solution, the beta = 1 case of
    :func:`caputo_derivative`: -t^{a_1-1} sum_n lambda_n E^{(n)}_{a_1}(t)
    a_n phi_n.  Unbounded at t=0."""
    return caputo_derivative(p, 1.0, t)


def caputo_derivative(p: Problem, beta: float, t: float) -> np.ndarray:
    """Grid values of the Caputo derivative of order beta in (0, 1] of the
    homogeneous solution.

    The transform of D^beta u_n is s^beta u_n^ - s^{beta-1} a_n =
    -lambda_n s^{beta-1} a_n / (w(s) + lambda_n), so
    D^beta u_n(t) = -lambda_n t^{a_1-beta} E^{(n)}_{1+a_1-beta}(t) a_n."""
    if p.source is not None:
        raise ValueError("caputo_derivative and time_derivative require a "
                         "homogeneous problem")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if t <= 0:
        raise ValueError("t must be positive")
    a1 = p.orders.alphas[0]
    lams = p.spectrum.lambdas
    e = e_solver_many(lams, p.orders, a1 + (1.0 - beta), t)
    return spectral.synthesize(-t ** (a1 - beta) * lams * e * p.modal_initial,
                               p.spectrum)


# ---------------------------------------------------------------------------
# Product quadrature for weakly singular integrals

@dataclass(frozen=True)
class QuadConfig:
    """Mesh for the singular convolution quadratures: ``n_panels`` panels
    graded toward the origin, s_k = t (k/n_panels)^grading.

    ``grading`` defaults to 2/a_1 (resolves the s^{a_1 gamma - 1} behavior
    of solution derivatives near the origin).
    """

    n_panels: int = 256
    grading: float | None = None

    def mesh(self, t: float, alpha1: float) -> np.ndarray:
        g = self.grading if self.grading is not None else 2.0 / alpha1
        k = np.arange(self.n_panels + 1, dtype=float)
        return t * (k / self.n_panels) ** g


def _beta_moments(mesh, t, a, b):
    """Panel moments int_{s_i}^{s_i+1} s^{a-1} (t-s)^{b-1} ds for all panels.

    Exact through the regularized incomplete beta function."""
    x = np.clip(mesh / t, 0.0, 1.0)
    reg = betainc(a, b, x)
    lnB = betaln(a, b)
    return np.exp((a + b - 1.0) * np.log(t) + lnB) * np.diff(reg)


def _product_panels(mesh, gvals, t, singular_power, beta):
    """sum over panels of int s^{singular_power} lin[g](s) (t-s)^{-beta} ds."""
    a = singular_power + 1.0
    b = 1.0 - beta
    s0, s1 = mesh[:-1], mesh[1:]
    g0, g1 = gvals[:-1], gvals[1:]
    slope = (g1 - g0) / (s1 - s0)
    c0 = g0 - slope * s0
    m0 = _beta_moments(mesh, t, a, b)
    m1 = _beta_moments(mesh, t, a + 1.0, b)
    return float(np.sum(c0 * m0 + slope * m1))


def caputo_quadrature(smooth, t: float, beta: float, quad: QuadConfig) -> float:
    """(1/Gamma(1-beta)) int_0^t g(s) (t-s)^{-beta} ds with g = ``smooth``
    (callable on a vector of s), by product quadrature on ``quad``'s mesh;
    a grading left unset is 2.

    With smooth = 1 this is the Caputo derivative of f(t) = t, equal to
    t^{1-beta}/Gamma(2-beta)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    mesh = quad.mesh(t, 1.0)
    gvals = np.asarray(smooth(mesh), dtype=float)
    if gvals.shape != mesh.shape:
        gvals = np.broadcast_to(gvals, mesh.shape).astype(float)
    return _product_panels(mesh, gvals, t, 0.0, beta) / gamma_real(1.0 - beta)


def mode_ode_residual(orders: FracOrders, lam: float, t: float,
                      quad: QuadConfig = QuadConfig()) -> float:
    """Relative residual of the per-mode equation
    sum_j q_j D^{a_j} u + lam u = 0 for the unit-initial-value amplitude,
    with each Caputo term computed by independent product quadrature.

    The mesh does not resolve the propagator's initial layer at s of order
    lam^{-1/a_1}, so this checks low modes only: for the 255-mode Laplacian,
    orders (0.8, 0.5), t = 2 and 256 panels the residual is 1.6e-5, 2.7e-3,
    4.2e-2 and 0.26 at lambdas[0], [14], [60] and [200]."""
    a1 = orders.alphas[0]
    mesh = quad.mesh(t, a1)
    evals = e_solver_many(lam, orders, a1, mesh)
    u_t = mode_amplitude(orders, lam, t)
    total = lam * u_t
    for a_j, q_j in zip(orders.alphas, orders.qs):
        frac = _product_panels(mesh, evals, t, a1 - 1.0, a_j) / gamma_real(1.0 - a_j)
        total += q_j * (-lam) * frac
    return abs(total) / (lam * max(abs(u_t), 1e-30))
