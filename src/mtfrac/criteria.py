"""The acceptance criteria that ``mtfrac verify`` also runs, one function each:
the gate (``tests/test_acceptance.py``) calls them at full size, ``verify`` at
small sizes, each from its own fixed seed, against the same bounds.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import oracle, solver, specfun
from .constants import (COUNTEREXAMPLE_GROWTH, COUNTEREXAMPLE_ROOT_TOL,
                        DERIVATIVE_ORDER_TOL, IDENTITY_RESIDUAL_TOL,
                        TRIPLE_AGREEMENT_TOL)

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
    """A criterion's measures and the gate's summary of the run."""

    measures: tuple[Measure, ...]
    summary: str


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
