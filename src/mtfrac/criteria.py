"""The checks that ``mtfrac verify`` runs (:func:`verify_checks`), one function
each.  The gate (``tests/test_acceptance.py``) calls the acceptance criteria
at full size, ``verify`` at small sizes, each from its fixed seed, against
the same bounds; four more check one ingredient at fixed cases.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import oracle, solver, spectral, specfun
from .constants import (ALGEBRAIC_TOL, COUNTEREXAMPLE_GROWTH,
                        COUNTEREXAMPLE_ROOT_TOL, DERIVATIVE_ORDER_TOL,
                        IDENTITY_RESIDUAL_TOL, L1_ORDER_TOL,
                        ODE_RESIDUAL_TOL_MULTI, ODE_RESIDUAL_TOL_SINGLE,
                        SPECFUN_CROSS_TOL, TRIPLE_AGREEMENT_TOL)

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


def _fmt(v):
    return format(v, ".3g") if isinstance(v, float) else str(v)


class Measure(NamedTuple):
    """One measured figure and the bound it must meet: it passes when
    ``value relation bound`` holds (a NaN value fails every relation)."""

    label: str
    value: object
    relation: str
    bound: object

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation](self.value, self.bound)

    def __str__(self):
        return (f"{self.label} measured {_fmt(self.value)}, "
                f"bound {self.relation} {_fmt(self.bound)}")


class Outcome(NamedTuple):
    """A check's measures and, for a criterion, the gate's summary of the run."""

    measures: tuple[Measure, ...]
    summary: str = ""


def random_orders(rng, m=None, alpha_lo=0.15, alpha_hi=0.92, sep=0.12,
                  q_lo=0.3, q_hi=2.5):
    """Well-separated random order/weight tuples for randomized checks."""
    m = m if m is not None else int(rng.integers(1, 4))
    while True:
        alphas = np.sort(rng.uniform(alpha_lo, alpha_hi, m))[::-1]
        if m == 1 or float(np.min(-np.diff(alphas))) >= sep:
            break
    qs = (1.0,) + tuple(float(q) for q in rng.uniform(q_lo, q_hi, m - 1))
    return solver.FracOrders(alphas=tuple(float(a) for a in alphas), qs=qs)


def multinomial_recurrence(k_max: int, m_max: int) -> Outcome:
    """Criterion 01: C(k; c) = sum_j C(k - 1; c - e_j) holds exactly for
    every composition c of every k <= k_max into m <= m_max parts."""
    checked = failed = 0
    for m in range(1, m_max + 1):
        for k in range(1, k_max + 1):
            for comp in specfun._compositions(k, m):
                comp = tuple(int(v) for v in comp)
                total = sum(
                    specfun.multinomial_coefficient(
                        k - 1, comp[:j] + (comp[j] - 1,) + comp[j + 1:])
                    for j in range(m))
                failed += total != specfun.multinomial_coefficient(k, comp)
                checked += 1
    return Outcome((Measure("failed identities", failed, "==", 0),),
                   f"{checked} exact identities")


def shift_identity(n: int) -> Outcome:
    """Criterion 02: the parameter-shift identity holds to ``IDENTITY_RESIDUAL_TOL``
    at z_j in a disk shrinking with m, for exponents whose alternating sum
    rounds below that (tiny ones push it past, though the identity holds)."""
    rng = np.random.default_rng(42)
    radius_by_m = {1: 2.0, 2: 2.0, 3: 1.2, 4: 0.8}
    residuals = []
    for i in range(n):
        m = int(rng.integers(1, 5)) if i % 4 == 0 else int(rng.integers(1, 4))
        lo = 0.4 if m == 1 else 0.55
        betas = tuple(rng.uniform(lo, 0.95, m))
        beta0 = float(rng.uniform(0.3, 1.0))
        r = radius_by_m[m]
        z = []
        for _ in range(m):
            rad = r * math.sqrt(rng.uniform(0.0, 1.0))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z.append(rad * complex(math.cos(ang), math.sin(ang)))
        residuals.append(specfun.lemma31_residual(
            specfun.MLParams(beta0=beta0, betas=betas), specfun.MLArgs(z=tuple(z)),
            tol=1e-14))
    worst = float(np.max(residuals))
    return Outcome((Measure("max residual", worst, "<", IDENTITY_RESIDUAL_TOL),),
                   f"{n} tuples, max residual {worst:.2e}")


def derivative_identity(n: int) -> Outcome:
    """Criterion 04: central differences of t^{a_1} E^{(n)}_{1+a_1}(t) converge
    at order 2, within ``DERIVATIVE_ORDER_TOL``, to t^{a_1-1} E^{(n)}_{a_1}(t)."""
    rng = np.random.default_rng(7)
    orders_list = [random_orders(rng, alpha_lo=0.25, alpha_hi=0.9) for _ in range(n)]
    deviations = []
    for orders in orders_list:
        lam = float(10 ** rng.uniform(-0.5, 1.5))
        t = float(rng.uniform(0.4, 2.5))
        a1 = orders.alphas[0]

        def f(u):
            return u ** a1 * specfun.e_solver(lam, orders, 1.0 + a1, u)

        rhs = t ** (a1 - 1.0) * specfun.e_solver(lam, orders, a1, t)
        h = 0.015 * t
        errs = [abs((f(t + hh) - f(t - hh)) / (2 * hh) - rhs) for hh in (h, h / 2)]
        deviations.append(abs(math.log2(errs[0] / errs[1]) - 2.0))
    worst = float(np.max(deviations))
    return Outcome((Measure("worst |order-2|", worst, "<", DERIVATIVE_ORDER_TOL),),
                   f"{n} samples, worst |order-2| = {worst:.3f}")


def kernel_positivity(n: int) -> Outcome:
    """Criterion 05: t^{a_1-1} E^{(n)}_{a_1}(t) > 0 at n random
    (orders, lambda, t)."""
    rng = np.random.default_rng(11)
    values = []
    for _ in range(n):
        orders = random_orders(rng)
        lam = float(10 ** rng.uniform(-1, 3))
        t = float(10 ** rng.uniform(-2, 1.5))
        a1 = orders.alphas[0]
        values.append(t ** (a1 - 1.0) * specfun.e_solver(lam, orders, a1, t))
    smallest = float(np.min(values))
    return Outcome((Measure("min value", smallest, ">", 0.0),),
                   f"{n} tuples, min value {smallest:.3e}")


def triple_agreement(n: int) -> Outcome:
    """Criterion 06: the closed mode amplitude, the L1 oracle and the Hankel
    oracle agree within ``TRIPLE_AGREEMENT_TOL`` of it at t in {0.5, 2, 20}."""
    rng = np.random.default_rng(2024)
    rels = []
    for _ in range(n):
        orders = random_orders(rng, alpha_lo=0.2, alpha_hi=0.88)
        lam = float(10 ** rng.uniform(-0.3, 1.3))
        grading = min(3.0, 2.0 / orders.alphas[0])
        for t in (0.5, 2.0, 20.0):
            amp = solver.mode_amplitude(orders, lam, t)
            cfg = oracle.L1Config(t_final=t, n_steps=3000, grading=grading)
            _, us = oracle.l1_solve_mode(lam, orders, 1.0, None, cfg)
            hank = oracle.laplace_mode_eval(lam, orders, 1.0, t)
            scale = abs(amp)
            rels += [abs(us[-1] - amp) / scale, abs(hank - amp) / scale,
                     abs(us[-1] - hank) / scale]
    worst = float(np.max(rels))
    return Outcome((Measure("worst pairwise rel", worst, "<", TRIPLE_AGREEMENT_TOL),),
                   f"{n} x 3 cases, worst pairwise rel {worst:.2e}")


def counterexample(n_steps: int) -> Outcome:
    """Criterion 12: the roots match their closed form to ``COUNTEREXAMPLE_ROOT_TOL``;
    the negative-weight mode grows ``COUNTEREXAMPLE_GROWTH``-fold, the control decays."""
    lam = 10.0
    r_minus, r_plus = oracle.counterexample_roots(lam)
    disc = math.sqrt(9.0 * lam * lam - 4.0 * lam)
    root_err = max(abs(r_plus - (3.0 * lam + disc) / 2.0) / r_plus,
                   abs(r_minus - (3.0 * lam - disc) / 2.0) / max(r_minus, 1.0))
    cfg = oracle.L1Config(t_final=5.0, n_steps=n_steps, grading=4.0)
    res = oracle.counterexample_run(lam, cfg)
    control = oracle.counterexample_run(lam, cfg, flip_sign=True)
    verdicts = f"{res.verdict}/{control.verdict}"
    # counterexample_run starts from u(0) = 1, so peak |u| is the growth.
    return Outcome(
        (Measure("root rel error", root_err, "<=", COUNTEREXAMPLE_ROOT_TOL),
         Measure("peak |u|", float(np.max(np.abs(res.values))), ">=",
                 COUNTEREXAMPLE_GROWTH),
         Measure("verdicts", verdicts, "==", "grows/decays")),
        f"r+ = {r_plus:.6f}, verdicts {verdicts}")


def l1_order(base_steps: int) -> Outcome:
    """Criterion 07: L1 order 2 - a, within ``L1_ORDER_TOL``, over 1, 2 and 4
    times ``base_steps`` steps, for a in {0.3, 0.5, 0.8}."""
    observed, deviations = [], []
    for alpha in (0.3, 0.5, 0.8):
        orders = solver.FracOrders.single(alpha)
        # Singularity-resolving grading, capped at 3: steeper meshes keep the
        # order but raise the error constant.
        grading = min(3.0, max(1.5, (2.0 - alpha) / alpha))
        ends = [oracle.l1_solve_mode(1.0, orders, 1.0, None, oracle.L1Config(
            t_final=1.0, n_steps=n, grading=grading))[1][-1]
            for n in (base_steps, 2 * base_steps, 4 * base_steps)]
        order = math.log2(abs(ends[0] - ends[1]) / abs(ends[1] - ends[2]))
        observed.append(order)
        deviations.append(abs(order - (2.0 - alpha)))
    worst = float(np.max(deviations))
    return Outcome((Measure("worst |order-(2-a)|", worst, "<", L1_ORDER_TOL),),
                   "orders " + ", ".join(f"{o:.3f}" for o in observed))


def equation_residual(n_panels: int) -> Outcome:
    """Criterion 13: per-mode equation residuals, by Caputo quadrature on
    ``n_panels`` panels graded 3.5, of low modes of the 255-node Laplacian."""
    lambdas = spectral.eigendecompose_operator(
        spectral.Operator1D.from_callables((0.0, math.pi), 255)).lambdas
    orders = solver.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    quad = solver.QuadConfig(n_panels=n_panels, grading=3.5)
    worst = float(np.max([solver.mode_ode_residual(orders, float(lambdas[mode]), t, quad)
                          for mode in (0, 4, 14) for t in (0.5, 1.5)]))
    single = solver.mode_ode_residual(solver.FracOrders.single(0.5),
                                      float(lambdas[0]), 1.0, quad)
    return Outcome(
        (Measure("worst multi-term residual", worst, "<", ODE_RESIDUAL_TOL_MULTI),
         Measure("single-term residual", single, "<", ODE_RESIDUAL_TOL_SINGLE)),
        f"worst multi-term {worst:.2e}, single-term {single:.2e}")


def series_contour_agreement() -> Outcome:
    """Series and window contour agree on E^{(n)}_{1+a_1}(1) below the crossover."""
    rels = []
    for alphas, qs, lam in (((0.5,), (1.0,), 2.0),
                            ((0.9, 0.3), (1.0, 1.5), 2.0),
                            ((0.8, 0.5, 0.2), (1.0, 1.0, 1.0), 1.5)):
        orders = solver.FracOrders(alphas=alphas, qs=qs)
        beta0 = 1.0 + alphas[0]
        rs = specfun.mml_series(specfun.solver_params(orders, beta0),
                                specfun.solver_args(orders, lam, 1.0))
        rc = specfun.e_solver(lam, orders, beta0, 1.0)
        rels.append(abs(rs.value - rc) / abs(rc))
    return Outcome((Measure("max rel diff", float(np.max(rels)), "<", SPECFUN_CROSS_TOL),))


def spectral_closed_form() -> Outcome:
    """The 63-node Laplacian's eigenvalues (4/h^2) sin^2(n h/2), orthonormal modes."""
    op = spectral.Operator1D.from_callables((0.0, math.pi), 63)
    s = spectral.eigendecompose_operator(op)
    closed = (4.0 / op.h ** 2) * np.sin(np.arange(1, 64) * op.h / 2.0) ** 2
    err = float(np.max(np.abs(s.lambdas - closed) / closed))
    return Outcome((Measure("spectrum rel err", err, "<", ALGEBRAIC_TOL),
                    Measure("gram residual", spectral.check_orthonormal(s), "<",
                            ALGEBRAIC_TOL)))


def hankel_agreement() -> Outcome:
    """Hankel oracle against the closed mode amplitude at one multi-term case."""
    orders = solver.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    h = oracle.laplace_mode_eval(5.0, orders, 1.0, 10.0)
    amp = solver.mode_amplitude(orders, 5.0, 10.0)
    return Outcome((Measure("rel diff", abs(h - amp) / abs(amp), "<", 1e-6),))


def caputo_power() -> Outcome:
    """Caputo quadrature of f(t) = t against t^{1-b}/Gamma(2-b) at t = 2."""
    quad = solver.QuadConfig(n_panels=128, grading=2.0)
    rels = []
    for beta in (0.25, 0.5, 0.75):
        got = solver.caputo_quadrature(lambda s: np.ones_like(s), 2.0, beta, quad)
        want = 2.0 ** (1.0 - beta) / specfun.gamma_real(2.0 - beta)
        rels.append(abs(got - want) / want)
    return Outcome((Measure("worst rel err", float(np.max(rels)), "<", 1e-12),))


def verify_checks():
    """``mtfrac verify``'s table: (name, criterion or None, function, verify
    size) per check, built at each call from the module's current functions."""
    return (
        ("multinomial-recurrence", "01", multinomial_recurrence, (8, 3)),
        ("parameter-shift-identity", "02", shift_identity, (20,)),
        ("series-contour-agreement", None, series_contour_agreement, ()),
        ("derivative-identity", "04", derivative_identity, (5,)),
        ("kernel-positivity", "05", kernel_positivity, (20,)),
        ("spectral-closed-form", None, spectral_closed_form, ()),
        ("l1-vs-amplitude", "06", triple_agreement, (2,)),
        ("hankel-vs-amplitude", None, hankel_agreement, ()),
        ("caputo-power-selftest", None, caputo_power, ()),
        ("counterexample-verdicts", "12", counterexample, (2048,)),
        ("l1-convergence-order", "07", l1_order, (256,)),
        ("equation-residual", "13", equation_residual, (384,)),
    )
