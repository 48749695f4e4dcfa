"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed, not configurable.  Criteria 01, 02,
04, 05, 06, 07, 12 and 13 run the ``mtfrac.criteria`` that ``mtfrac verify``
runs.
"""

import time

import numpy as np

from mtfrac import analysis as an
from mtfrac import criteria
from mtfrac import solver as sv
from mtfrac import spectral as sp
from mtfrac import specfun as sf


def _report(name, elapsed, budget, detail):
    status = "PASS" if elapsed < budget else "SLOW"
    print(f"ACCEPTANCE {name}: {status} in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def _gate(name, budget, criterion, *size):
    """Run a criterion at the gate's size: each measure meets its bound."""
    start = time.time()
    measures, summary = criterion(*size)
    assert all(m.passed for m in measures), "; ".join(map(str, measures))
    _report(name, time.time() - start, budget, summary)


# 1. Multinomial-coefficient recurrence: exact for all k <= 12, m <= 4.
def test_criterion_01_multinomial_recurrence():
    _gate("01 multinomial recurrence", 1.0, criteria.multinomial_recurrence, 12, 4)


# 2. Parameter-shift identity: residual < 1e-10 on 200 tuples, |z_j| <= 2.
def test_criterion_02_shift_identity():
    _gate("02 shift identity", 10.0, criteria.shift_identity, 200)


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


# 4. Derivative identity: central differences show order 2 +- 0.2 at 20 samples.
def test_criterion_04_derivative_identity():
    _gate("04 derivative identity", 30.0, criteria.derivative_identity, 20)


# 5. Kernel positivity: t^{a_1 - 1} E^{(n)}_{a_1}(t) > 0 at 100 tuples.
def test_criterion_05_positivity():
    _gate("05 positivity", 10.0, criteria.kernel_positivity, 100)


# 6. Closed amplitude, L1 and Laplace inversion agree pairwise within 1e-3.
def test_criterion_06_triple_agreement():
    _gate("06 triple agreement", 300.0, criteria.triple_agreement, 20)


# 7. L1 convergence order within 2 - a +- 0.2 for a in {0.3, 0.5, 0.8}.
def test_criterion_07_l1_order():
    _gate("07 L1 order", 120.0, criteria.l1_order, 512)


# 8. Long-time decay: fitted exponent -0.3 +- 0.05 for a = (0.9, 0.3) and
#    bounded scaled remainder over t in [1e2, 1e4].
def test_criterion_08_decay_rate(decay_problem, laplace_spectrum):
    start = time.time()
    sol = sv.ModalSolution(decay_problem)
    ts = np.logspace(2, 4, 15)
    norms = sp.modal_frac_norm(sol.modal_values(ts), 1.0, laplace_spectrum)
    fit = an.decay_fit(ts, norms)
    assert abs(fit.exponent - (-0.3)) < 0.05
    residuals = [an.asymptotic_residual(sol, float(t)) for t in ts]
    spread = max(residuals) / min(residuals)
    assert spread < 10.0
    _report("08 decay rate", time.time() - start, 120.0,
            f"exponent {fit.exponent:.4f}, residual spread {spread:.2f}")


# 9. Two-sided bound: ||u(t)||_{D(-L)} t^{a_m} confined to a fixed positive
#    band over two decades.
def test_criterion_09_two_sided_band(decay_problem, laplace_spectrum):
    start = time.time()
    sol = sv.ModalSolution(decay_problem)

    def banded(ts):
        return sp.modal_frac_norm(sol.modal_values(ts), 1.0, laplace_spectrum) * ts ** 0.3

    coarse = banded(np.logspace(2, 4, 15))
    lo, hi = coarse.min(), coarse.max()
    assert lo > 0.0
    fine = banded(np.logspace(2, 4, 30))
    assert np.all(fine >= lo / 1.01) and np.all(fine <= hi * 1.01)
    _report("09 two-sided band", time.time() - start, 60.0,
            f"band [{lo:.4f}, {hi:.4f}]")


# 10. Short-time limits: monotone vanishing down to t = 1e-8 for both the
#     homogeneous distance-to-data and the forced solution norm.
def test_criterion_10_short_time(laplace_op, laplace_spectrum):
    start = time.time()
    orders = sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -4.0, laplace_spectrum)
    hom = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum, initial=a)
    rep_h = an.short_time_checks(sv.ModalSolution(hom), 1.0, np.logspace(-1, -8, 8))
    assert rep_h.vanishing

    times = np.linspace(0.0, 0.2, 257)
    values = np.tile(laplace_spectrum.eigvecs[:, 1], (257, 1))
    src = sv.SampledSource(times=times, values=values)
    forced = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                        initial=np.zeros(laplace_op.n_interior), source=src)
    rep_f = an.short_time_checks(sv.ModalSolution(forced), 0.0,
                                 np.logspace(-1, -8, 8), tau=0.8)
    assert rep_f.vanishing
    _report("10 short-time limits", time.time() - start, 120.0,
            f"homogeneous drop {rep_h.norms[-1] / rep_h.norms[0]:.1e}, "
            f"forced drop {rep_f.norms[-1] / rep_f.norms[0]:.1e}")


# 11. Lipschitz stability: ratio spread < 5 across a 7-level perturbation
#     halving sequence, per channel and combined.
def test_criterion_11_lipschitz(stability_base):
    start = time.time()
    base = stability_base
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


# 12. Counterexample: roots to 1e-12; the mode grows 10x, the control decays.
def test_criterion_12_counterexample():
    _gate("12 counterexample", 60.0, criteria.counterexample, 4096)


# 13. Equation residual: the homogeneous solution satisfies the per-mode
#     multi-term equation under independent Caputo quadrature to
#     < ODE_RESIDUAL_TOL_MULTI (1e-3) relative at mid-range times, and the
#     single-term one to < ODE_RESIDUAL_TOL_SINGLE (1e-4).
def test_criterion_13_equation_residual():
    _gate("13 equation residual", 120.0, criteria.equation_residual, 384)
