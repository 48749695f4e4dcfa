"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_orders
from mtfrac import analysis as an
from mtfrac import oracle as orc
from mtfrac import solver as sv
from mtfrac import spectral as sp
from mtfrac import specfun as sf
from mtfrac.constants import (IDENTITY_RESIDUAL_TOL, ODE_RESIDUAL_TOL_MULTI,
                              ODE_RESIDUAL_TOL_SINGLE)


def _report(name, elapsed, budget, detail):
    status = "PASS" if elapsed < budget else "SLOW"
    print(f"ACCEPTANCE {name}: {status} in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


@pytest.fixture(scope="module")
def op255():
    return sp.Operator1D.from_callables((0.0, math.pi), 255)


@pytest.fixture(scope="module")
def spec255(op255):
    return sp.eigendecompose_operator(op255)


# 1. Multinomial-coefficient recurrence: exact for all k <= 12, m <= 4.
def test_criterion_01_multinomial_recurrence():
    start = time.time()
    checked = 0
    for m in range(1, 5):
        for k in range(1, 13):
            for comp in sf._compositions(k, m):
                comp = tuple(int(v) for v in comp)
                total = sum(
                    sf.multinomial_coefficient(
                        k - 1, comp[:j] + (comp[j] - 1,) + comp[j + 1:])
                    for j in range(m))
                assert total == sf.multinomial_coefficient(k, comp)
                checked += 1
    _report("01 multinomial recurrence", time.time() - start, 1.0,
            f"{checked} exact identities")


# 2. Parameter-shift identity: residual < IDENTITY_RESIDUAL_TOL (1e-10) on
#    200 randomized tuples with |z_j| <= 2.  The exponent distribution
#    keeps the alternating-sum conditioning within double precision (the
#    identity holds for all parameters; tiny exponents push the arithmetic
#    floor past the tolerance long before the identity itself is in doubt).
def test_criterion_02_shift_identity():
    start = time.time()
    rng = np.random.default_rng(42)
    radius_by_m = {1: 2.0, 2: 2.0, 3: 1.2, 4: 0.8}
    worst = 0.0
    for i in range(200):
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
        res = sf.lemma31_residual(sf.MLParams(beta0=beta0, betas=betas),
                                  sf.MLArgs(z=tuple(z)), tol=1e-14)
        worst = max(worst, res)
        assert res < IDENTITY_RESIDUAL_TOL
    _report("02 shift identity", time.time() - start, 10.0,
            f"200 tuples, max residual {worst:.2e}")


# 3. Decay bound: (1 + |z_1|) |E| bounded over z_1 in -[1, 1e8] for five
#    solver-family parameter sets; refined grid below 1.01x the maximum.
def test_criterion_03_decay_bound():
    start = time.time()
    sets = [
        ((0.3,), (1.0,)),
        ((0.5,), (1.0,)),
        ((0.8,), (1.0,)),
        ((0.9, 0.3), (1.0, 1.5)),
        ((0.8, 0.5, 0.2), (1.0, 1.0, 1.0)),
    ]
    details = []
    for alphas, qs in sets:
        orders = sv.FracOrders(alphas=alphas, qs=qs)
        params = sf.solver_params(orders, 1.0 + alphas[0])
        z_rest = sf.solver_args(orders, 1.0, 1.0).z[1:]

        def product(x):
            res = sf.mml_eval(params, sf.MLArgs(z=(-x,) + z_rest))
            return (1.0 + x) * abs(res.value)

        coarse = np.array([product(x) for x in np.logspace(0, 8, 30)])
        fine = np.array([product(x) for x in np.logspace(0, 8, 60)])
        assert np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))
        assert fine.max() <= 1.01 * coarse.max()
        details.append(f"sup={coarse.max():.3f}")
    _report("03 decay bound", time.time() - start, 30.0, "; ".join(details))


# 4. Derivative identity: central differences show order 2 +- 0.2 at 20
#    sampled (lambda, orders, t).
def test_criterion_04_derivative_identity():
    start = time.time()
    rng = np.random.default_rng(7)
    orders_list = [random_orders(rng, alpha_lo=0.25, alpha_hi=0.9) for _ in range(20)]
    worst_dev = 0.0
    for orders in orders_list:
        lam = float(10 ** rng.uniform(-0.5, 1.5))
        t = float(rng.uniform(0.4, 2.5))
        a1 = orders.alphas[0]

        def f(u):
            return u ** a1 * sf.e_solver(lam, orders, 1.0 + a1, u)

        rhs = t ** (a1 - 1.0) * sf.e_solver(lam, orders, a1, t)
        h = 0.015 * t
        errs = [abs((f(t + hh) - f(t - hh)) / (2 * hh) - rhs) for hh in (h, h / 2)]
        order = math.log2(errs[0] / errs[1])
        worst_dev = max(worst_dev, abs(order - 2.0))
        assert abs(order - 2.0) < 0.2
    _report("04 derivative identity", time.time() - start, 30.0,
            f"20 samples, worst |order-2| = {worst_dev:.3f}")


# 5. Kernel positivity: t^{a_1 - 1} E^{(n)}_{a_1}(t) > 0 at 100 tuples.
def test_criterion_05_positivity():
    start = time.time()
    rng = np.random.default_rng(11)
    smallest = math.inf
    for _ in range(100):
        orders = random_orders(rng)
        lam = float(10 ** rng.uniform(-1, 3))
        t = float(10 ** rng.uniform(-2, 1.5))
        a1 = orders.alphas[0]
        v = t ** (a1 - 1.0) * sf.e_solver(lam, orders, a1, t)
        smallest = min(smallest, v)
        assert v > 0.0
    _report("05 positivity", time.time() - start, 10.0,
            f"100 tuples, min value {smallest:.3e}")


# 6. Triple-method agreement: closed amplitude, L1, and Laplace inversion
#    agree pairwise within 1e-3 relative at t in {0.5, 2, 20}.
def test_criterion_06_triple_agreement():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        orders = random_orders(rng, alpha_lo=0.2, alpha_hi=0.88)
        lam = float(10 ** rng.uniform(-0.3, 1.3))
        grading = min(3.0, 2.0 / orders.alphas[0])
        for t in (0.5, 2.0, 20.0):
            amp = sv.mode_amplitude(orders, lam, t)
            cfg = orc.L1Config(t_final=t, n_steps=3000, grading=grading)
            _, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
            hank = orc.laplace_mode_eval(lam, orders, 1.0, t)
            scale = abs(amp)
            rels = (abs(us[-1] - amp) / scale, abs(hank - amp) / scale,
                    abs(us[-1] - hank) / scale)
            worst = max(worst, *rels)
            assert max(rels) < 1e-3
    _report("06 triple agreement", time.time() - start, 300.0,
            f"20 x 3 cases, worst pairwise rel {worst:.2e}")


# 7. L1 convergence order within 2 - a +- 0.2 for a in {0.3, 0.5, 0.8}.
def test_criterion_07_l1_order():
    start = time.time()
    observed = []
    for alpha in (0.3, 0.5, 0.8):
        orders = sv.FracOrders.single(alpha)
        grading = min(3.0, max(1.5, (2.0 - alpha) / alpha))
        ends = []
        for n in (512, 1024, 2048):
            cfg = orc.L1Config(t_final=1.0, n_steps=n, grading=grading)
            _, us = orc.l1_solve_mode(1.0, orders, 1.0, None, cfg)
            ends.append(us[-1])
        order = math.log2(abs(ends[0] - ends[1]) / abs(ends[1] - ends[2]))
        observed.append(order)
        assert abs(order - (2.0 - alpha)) < 0.2
    _report("07 L1 order", time.time() - start, 120.0,
            "orders " + ", ".join(f"{o:.3f}" for o in observed))


# 8. Long-time decay: fitted exponent -0.3 +- 0.05 for a = (0.9, 0.3) and
#    bounded scaled remainder over t in [1e2, 1e4].
def test_criterion_08_decay_rate(op255, spec255):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5))
    n = np.arange(1, spec255.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.0, spec255)
    p = sv.Problem(orders=orders, operator=op255, spectrum=spec255, initial=a)
    sol = sv.ModalSolution(p)
    ts = np.logspace(2, 4, 15)
    norms = sp.modal_frac_norm(sol.modal_values(ts), 1.0, spec255)
    fit = an.decay_fit(ts, norms)
    assert abs(fit.exponent - (-0.3)) < 0.05
    residuals = [an.asymptotic_residual(sol, float(t)) for t in ts]
    spread = max(residuals) / min(residuals)
    assert spread < 10.0
    _report("08 decay rate", time.time() - start, 120.0,
            f"exponent {fit.exponent:.4f}, residual spread {spread:.2f}")


# 9. Two-sided bound: ||u(t)||_{D(-L)} t^{a_m} confined to a fixed positive
#    band over two decades.
def test_criterion_09_two_sided_band(op255, spec255):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5))
    n = np.arange(1, spec255.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.0, spec255)
    p = sv.Problem(orders=orders, operator=op255, spectrum=spec255, initial=a)
    sol = sv.ModalSolution(p)

    def banded(ts):
        return sp.modal_frac_norm(sol.modal_values(ts), 1.0, spec255) * ts ** 0.3

    coarse = banded(np.logspace(2, 4, 15))
    lo, hi = coarse.min(), coarse.max()
    assert lo > 0.0
    fine = banded(np.logspace(2, 4, 30))
    assert np.all(fine >= lo / 1.01) and np.all(fine <= hi * 1.01)
    _report("09 two-sided band", time.time() - start, 60.0,
            f"band [{lo:.4f}, {hi:.4f}]")


# 10. Short-time limits: monotone vanishing down to t = 1e-8 for both the
#     homogeneous distance-to-data and the forced solution norm.
def test_criterion_10_short_time(op255, spec255):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    n = np.arange(1, spec255.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -4.0, spec255)
    hom = sv.Problem(orders=orders, operator=op255, spectrum=spec255, initial=a)
    rep_h = an.short_time_checks(sv.ModalSolution(hom), 1.0, np.logspace(-1, -8, 8))
    assert rep_h.vanishing

    times = np.linspace(0.0, 0.2, 257)
    values = np.tile(spec255.eigvecs[:, 1], (257, 1))
    src = sv.SampledSource(times=times, values=values)
    forced = sv.Problem(orders=orders, operator=op255, spectrum=spec255,
                        initial=np.zeros(op255.n_interior), source=src)
    rep_f = an.short_time_checks(sv.ModalSolution(forced), 0.0,
                                 np.logspace(-1, -8, 8), tau=0.8)
    assert rep_f.vanishing
    _report("10 short-time limits", time.time() - start, 120.0,
            f"homogeneous drop {rep_h.norms[-1] / rep_h.norms[0]:.1e}, "
            f"forced drop {rep_f.norms[-1] / rep_f.norms[0]:.1e}")


# 11. Lipschitz stability: ratio spread < 5 across a 7-level perturbation
#     halving sequence, per channel and combined.
def test_criterion_11_lipschitz(op255, spec255):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    n = np.arange(1, spec255.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.5, spec255)
    base = sv.Problem(orders=orders, operator=op255, spectrum=spec255, initial=a)
    base_sol = sv.ModalSolution(base)
    spreads = {}
    for channel in ("alpha", "q", "diffusion", "all"):
        ratios = []
        for level in range(7):
            eps = 0.2 * 0.5 ** level
            pert = an.perturbed_problem(base, channel, eps)
            rep = an.lipschitz_experiment(base, pert, gamma=0.75, tau=0.5,
                                          base_solution=base_sol)
            ratios.append(rep.ratio)
        spreads[channel] = max(ratios) / min(ratios)
        assert spreads[channel] < 5.0
    _report("11 Lipschitz stability", time.time() - start, 600.0,
            ", ".join(f"{c}: {s:.2f}" for c, s in spreads.items()))


# 12. Counterexample: roots match the closed form to 1e-12; the
#     negative-weight mode reaches 10x its initial size while the
#     all-positive control decays.
def test_criterion_12_counterexample():
    start = time.time()
    lam = 10.0
    r_minus, r_plus = orc.counterexample_roots(lam)
    disc = math.sqrt(9.0 * lam * lam - 4.0 * lam)
    assert abs(r_plus - (3.0 * lam + disc) / 2.0) <= 1e-12 * r_plus
    assert abs(r_minus - (3.0 * lam - disc) / 2.0) <= 1e-12 * max(r_minus, 1.0)
    cfg = orc.L1Config(t_final=5.0, n_steps=4096, grading=4.0)
    res = orc.counterexample_run(lam, cfg)
    assert res.verdict == "grows"
    assert np.max(np.abs(res.values)) >= 10.0
    control = orc.counterexample_run(lam, cfg, flip_sign=True)
    assert control.verdict == "decays"
    _report("12 counterexample", time.time() - start, 60.0,
            f"r+ = {r_plus:.6f}, verdicts {res.verdict}/{control.verdict}")


# 13. Equation residual: the homogeneous solution satisfies the per-mode
#     multi-term equation under independent Caputo quadrature to
#     < ODE_RESIDUAL_TOL_MULTI (1e-3) relative at mid-range times, and the
#     single-term one to < ODE_RESIDUAL_TOL_SINGLE (1e-4).
def test_criterion_13_equation_residual(spec255):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    quad = sv.QuadConfig(n_panels=384, grading=3.5)
    worst = 0.0
    for mode in (0, 4, 14):
        lam = float(spec255.lambdas[mode])
        for t in (0.5, 1.5):
            r = sv.mode_ode_residual(orders, lam, t, quad)
            worst = max(worst, r)
            assert r < ODE_RESIDUAL_TOL_MULTI
    single = sv.FracOrders.single(0.5)
    r1 = sv.mode_ode_residual(single, float(spec255.lambdas[0]), 1.0, quad)
    assert r1 < ODE_RESIDUAL_TOL_SINGLE
    _report("13 equation residual", time.time() - start, 120.0,
            f"worst multi-term {worst:.2e}, single-term {r1:.2e}")
