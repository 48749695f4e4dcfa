import math

import numpy as np
import pytest
from scipy.special import rgamma

from conftest import random_orders
from mtfrac import analysis as an, solver as sv, spectral as sp
from mtfrac.specfun import (_compositions, e_solver_many, gamma_real,
                            multinomial_coefficient)


@pytest.fixture(scope="module")
def decay_problem(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.0, laplace_spectrum)
    return sv.Problem(orders=orders, operator=laplace_op,
                      spectrum=laplace_spectrum, initial=a)


@pytest.fixture(scope="module")
def stability_base(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.5, laplace_spectrum)
    return sv.Problem(orders=orders, operator=laplace_op,
                      spectrum=laplace_spectrum, initial=a)


def test_decay_fit_exact_power_law():
    ts = np.logspace(0.0, 2.0, 12)
    fit = an.decay_fit(ts, 3.0 * ts ** -0.3)
    assert abs(fit.exponent + 0.3) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        an.decay_fit([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])  # too few
    with pytest.raises(ValueError):
        an.decay_fit([1, 2, 3, 4, 5], [1, 1, -1, 1, 1])
    with pytest.raises(ValueError):
        an.decay_fit([1, 2, 2, 4, 5], [1, 1, 1, 1, 1])


def test_multi_term_decay_exponent(decay_problem):
    s = decay_problem.spectrum
    ts = np.logspace(2, 4, 9)
    norms = sp.modal_frac_norm(sv.ModalSolution(decay_problem).modal_values(ts),
                               1.0, s)
    # One block, the same bits as one fresh solution per time.
    per_time = [sp.modal_frac_norm(sv.ModalSolution(decay_problem)
                                   .modal_values(float(t)), 1.0, s) for t in ts]
    np.testing.assert_array_equal(norms, per_time)
    fit = an.decay_fit(ts, norms)
    assert abs(fit.exponent + 0.3) < 0.05


def test_single_term_decay_exponent(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    a = laplace_spectrum.eigvecs[:, 0]
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=a)
    ts = np.logspace(2, 4, 9)
    norms = sp.modal_frac_norm(sv.ModalSolution(p).modal_values(ts), 1.0,
                               laplace_spectrum)
    per_time = [sp.modal_frac_norm(sv.ModalSolution(p).modal_values(float(t)),
                                   1.0, laplace_spectrum) for t in ts]
    np.testing.assert_array_equal(norms, per_time)
    fit = an.decay_fit(ts, norms)
    assert abs(fit.exponent + 0.5) < 0.05


def test_leading_term_single_mode(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 2.0))
    phi1 = laplace_spectrum.eigvecs[:, 0]
    lam1 = laplace_spectrum.lambdas[0]
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=phi1)
    t = 50.0
    lead = an.asymptotic_leading_term(p, t)
    assert lead.shape == (laplace_spectrum.n_modes,)
    want = 2.0 / (lam1 * gamma_real(0.5) * t ** 0.5)
    assert lead[0] == pytest.approx(want, rel=1e-10)
    assert np.max(np.abs(lead[1:])) < 1e-12 * want
    # Gamma(1 - a_m) at a_m = 1/2 is sqrt(pi)
    assert gamma_real(0.5) == math.sqrt(math.pi)
    # power scaling: leading(2t) = 2^{-a_m} leading(t)
    np.testing.assert_allclose(an.asymptotic_leading_term(p, 2 * t),
                               lead * 2.0 ** -0.5, rtol=1e-12)


def test_asymptotic_residual_bounded(decay_problem):
    sol = sv.ModalSolution(decay_problem)
    vals = [an.asymptotic_residual(sol, float(t)) for t in np.logspace(1, 4, 10)]
    assert max(vals) / min(vals) < 20.0
    assert all(math.isfinite(v) for v in vals)


def test_asymptotic_blocks_match_per_time_calls(decay_problem):
    # An array of times gives the per-time results bit for bit: a block of
    # leading terms, and one residual per time.
    ts = np.random.default_rng(31).uniform(10.0, 1e4, 12)
    lead = an.asymptotic_leading_term(decay_problem, ts)
    assert lead.shape == (ts.size, decay_problem.spectrum.n_modes)
    np.testing.assert_array_equal(
        lead, [an.asymptotic_leading_term(decay_problem, t) for t in ts.tolist()])
    residuals = an.asymptotic_residual(sv.ModalSolution(decay_problem), ts)
    sol = sv.ModalSolution(decay_problem)
    per_time = [an.asymptotic_residual(sol, t) for t in ts.tolist()]
    assert all(type(r) is float for r in per_time)
    np.testing.assert_array_equal(residuals, per_time)
    with pytest.raises(ValueError, match="positive"):
        an.asymptotic_leading_term(decay_problem, np.array([1.0, 0.0]))


def _reference_residual_exponent(orders):
    """Second-smallest exponent sum_j k_j a_j among the nonzero terms
    (-1)^{r+1} (r; k) prod_j q_j^{k_j} t^{-e} / (lambda^r Gamma(1 - e)) of
    the long-time expansion, enumerated over r = |k| <= 3."""
    exponents = set()
    for r in range(1, 4):
        for k in _compositions(r, orders.m):
            e = float(np.dot(k, orders.alphas))
            coeff = (multinomial_coefficient(r, k)
                     * np.prod(np.power(orders.qs, k)) * rgamma(1.0 - e))
            if coeff != 0.0:
                exponents.add(round(e, 12))
    return sorted(exponents)[1]


def test_residual_exponent_matches_enumerated_expansion():
    # At (0.8, 0.4) two terms share the exponent; at a_m = 1/2 the t^{-2a_m}
    # term carries 1/Gamma(0) = 0 and drops out.
    for alphas, want in [((0.9, 0.3), 0.6), ((0.8, 0.4), 0.8),
                         ((0.7, 0.5), 0.7), ((0.5,), 1.5), ((0.3,), 0.6)]:
        orders = sv.FracOrders(alphas=alphas, qs=(1.0,) * len(alphas))
        assert an.residual_exponent(orders) == pytest.approx(want, abs=1e-15)
        assert _reference_residual_exponent(orders) == pytest.approx(
            want, abs=1e-12)
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        for _ in range(10):
            orders = random_orders(rng, m=m, alpha_lo=0.05, alpha_hi=0.95,
                                   sep=0.02)
            assert an.residual_exponent(orders) == pytest.approx(
                _reference_residual_exponent(orders), abs=1e-12), orders


@pytest.mark.parametrize("orders, ts", [
    (sv.FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5)), np.logspace(2, 5, 13)),
    (sv.FracOrders.single(0.5), np.logspace(2, 4, 9))])
def test_scaled_remainder_flat(laplace_op, laplace_spectrum, orders, ts):
    # Scaled by the exponent of the next nonzero term, the remainder past
    # the leading term levels off instead of growing like a power of t.
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=laplace_spectrum.eigvecs[:, 0])
    sol = sv.ModalSolution(p)
    vals = [an.asymptotic_residual(sol, float(t)) for t in ts]
    bound = 1.5 if orders.m == 2 else 1.05
    assert max(vals) / min(vals) < bound


def test_per_mode_residual_scaling(laplace_op, laplace_spectrum):
    # Under t-doubling the scaled single-mode remainder stays flat.
    orders = sv.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    phi1 = laplace_spectrum.eigvecs[:, 0]
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=phi1)
    sol = sv.ModalSolution(p)
    r1 = an.asymptotic_residual(sol, 400.0)
    r2 = an.asymptotic_residual(sol, 800.0)
    assert 0.5 < r2 / r1 < 2.0


def test_short_time_homogeneous(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -4.0, laplace_spectrum)
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=a)
    rep = an.short_time_checks(sv.ModalSolution(p), 1.0, np.logspace(-1, -8, 8))
    assert rep.kind == "homogeneous"
    assert rep.vanishing
    assert rep.norms[-1] < 1e-3 * rep.norms[0]


def test_short_time_zero_data(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior))
    rep = an.short_time_checks(sv.ModalSolution(p), 0.5, np.logspace(-1, -6, 6))
    assert rep.vanishing
    assert np.all(rep.norms == 0.0)


def test_short_time_forced_takes_caller_solutions(laplace_op, laplace_spectrum,
                                                  monkeypatch):
    # A forced problem's ModalSolution that already holds the grid gives the
    # same report as a fresh one, from its cached coefficients alone.
    times = np.linspace(0.0, 0.2, 33)
    src = sv.SampledSource(times=times,
                           values=np.tile(laplace_spectrum.eigvecs[:, 1], (33, 1)))
    p = sv.Problem(orders=sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2)),
                   operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    grid = np.logspace(-1, -6, 6)
    own = an.short_time_checks(sv.ModalSolution(p), 0.0, grid)
    sol = sv.ModalSolution(p)
    sol.modal_values(grid)
    calls = []

    def counting(*args):
        calls.append(args)
        return e_solver_many(*args)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    given = an.short_time_checks(sol, 0.0, grid)
    assert own.kind == given.kind == "forced"
    np.testing.assert_array_equal(given.norms, own.norms)
    assert given.vanishing == own.vanishing
    assert calls == []
    # The long-time and Lipschitz analyses refuse a forced problem.
    with pytest.raises(ValueError, match="without source"):
        an.asymptotic_residual(sol, 0.1)
    hom = sv.Problem(orders=p.orders, operator=laplace_op,
                     spectrum=laplace_spectrum, initial=p.initial)
    for base, perturbed in ((p, hom), (hom, p)):
        with pytest.raises(ValueError, match="without source"):
            an.lipschitz_experiment(base, perturbed, gamma=0.75, tau=0.5)


def test_modal_solution_must_belong_to_the_problem(decay_problem, stability_base):
    # A base ModalSolution of another problem would give that problem's norms.
    other = sv.ModalSolution(stability_base)
    with pytest.raises(ValueError, match="base_solution belongs to a different"):
        an.lipschitz_experiment(decay_problem, decay_problem, gamma=0.75,
                                tau=0.5, base_solution=other)


def test_short_time_grid_validation(decay_problem):
    with pytest.raises(ValueError):
        an.short_time_checks(sv.ModalSolution(decay_problem), 0.5,
                             np.array([1e-8, 1e-1]))


def test_lipschitz_identical_problems(stability_base):
    rep = an.lipschitz_experiment(stability_base, stability_base,
                                  gamma=0.75, tau=0.5)
    assert rep.exact_match
    assert rep.diff_norm < 1e-12


def test_lipschitz_ratio_stable_under_halving(stability_base):
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        pert = an.perturbed_problem(stability_base, "q", eps)
        rep = an.lipschitz_experiment(stability_base, pert,
                                      gamma=0.75, tau=0.5)
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 5.0


def test_lipschitz_diffusion_channel(stability_base):
    ratios = []
    for eps in (0.1, 0.05):
        pert = an.perturbed_problem(stability_base, "diffusion", eps)
        rep = an.lipschitz_experiment(stability_base, pert,
                                      gamma=0.75, tau=0.5)
        assert rep.space_gamma == 1.0  # gamma >= 1/2 branch
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 5.0


def test_perturbed_problem_reuses_spectrum_when_operator_unchanged(stability_base):
    for channel, shared in (("alpha", True), ("q", True),
                            ("diffusion", False), ("all", False)):
        pert = an.perturbed_problem(stability_base, channel, 0.1)
        assert (pert.spectrum is stability_base.spectrum) == shared
        assert (pert.operator is stability_base.operator) == shared


def test_lipschitz_low_gamma_branch(stability_base):
    pert = an.perturbed_problem(stability_base, "alpha", 0.05)
    rep = an.lipschitz_experiment(stability_base, pert, gamma=0.3, tau=0.5)
    assert rep.space_gamma == 0.5
    assert abs(rep.time_exponent - 1.0 / 0.7) < 1e-12
    assert math.isfinite(rep.ratio)


def test_lipschitz_threads_deterministic(stability_base):
    pert = an.perturbed_problem(stability_base, "q", 0.1)
    r1 = an.lipschitz_experiment(stability_base, pert, gamma=0.75, tau=0.5,
                                 threads=1)
    r2 = an.lipschitz_experiment(stability_base, pert, gamma=0.75, tau=0.5,
                                 threads=4)
    assert r1.diff_norm == r2.diff_norm


def _reference_diff_norm(base, pert, gamma, tau):
    """lipschitz_experiment's norm, one time at a time: synthesize both
    solutions on the grid, project their difference on the base modes."""
    p_exp, space_gamma = (1.0 / (1.0 - gamma), 1.0 - tau) if gamma < 0.5 else (2.0, 1.0)
    n_time = an.LIPSCHITZ_N_TIME
    grid = an.LIPSCHITZ_T_FINAL * (np.arange(1, n_time + 1) / n_time) ** 2.0
    norms = []
    for t in grid:
        u = [sp.synthesize(sv.mode_amplitudes(p.orders, p.spectrum.lambdas, t)
                           * p.modal_initial, p.spectrum) for p in (base, pert)]
        norms.append(sp.frac_norm(u[0] - u[1], space_gamma, base.spectrum))
    return float(np.trapezoid(np.array(norms) ** p_exp, grid) ** (1.0 / p_exp))


@pytest.mark.parametrize("channel", ["alpha", "q", "diffusion", "all"])
def test_lipschitz_matches_per_time_reference(stability_base, channel):
    for gamma, eps in ((0.75, 0.1), (0.3, 0.0125)):
        pert = an.perturbed_problem(stability_base, channel, eps)
        rep = an.lipschitz_experiment(stability_base, pert, gamma=gamma, tau=0.5)
        ref = _reference_diff_norm(stability_base, pert, gamma, 0.5)
        assert abs(rep.diff_norm - ref) <= 1e-12 * ref, (channel, gamma)


def test_lipschitz_one_kernel_call_with_warm_base(stability_base, monkeypatch):
    base_sol = sv.ModalSolution(stability_base)
    an.lipschitz_experiment(stability_base, an.perturbed_problem(stability_base, "q", 0.1),
                            gamma=0.75, tau=0.5, base_solution=base_sol)
    calls = []

    def counting(*args):
        calls.append(args)
        return e_solver_many(*args)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    for channel in ("alpha", "diffusion"):
        calls.clear()
        an.lipschitz_experiment(stability_base,
                                an.perturbed_problem(stability_base, channel, 0.05),
                                gamma=0.75, tau=0.5, base_solution=base_sol)
        assert len(calls) == 1, channel


def test_admissible_sets(stability_base):
    assert an._orders_admissible(stability_base.orders)
    assert an._diffusion_admissible(stability_base.operator)
    # alpha_1 = 0.97 lies above the order window's 0.95.
    assert not an._orders_admissible(sv.FracOrders(alphas=(0.97, 0.5), qs=(1.0, 1.5)))
    # sup D + sup |D'| = 60 exceeds the C1 cap of 50.
    steep = sp.Operator1D.from_callables((0.0, np.pi), 255, diffusion=60.0)
    assert not an._diffusion_admissible(steep)


def test_lipschitz_rejects_inadmissible(stability_base):
    far = sv.Problem(orders=sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 25.0)),
                     operator=stability_base.operator,
                     spectrum=stability_base.spectrum,
                     initial=stability_base.initial)   # q_2 = 25 > 20
    with pytest.raises(ValueError, match="orders outside the admissible set"):
        an.lipschitz_experiment(stability_base, far, gamma=0.75, tau=0.5)


def test_c1_norm_difference(laplace_op):
    xs = laplace_op.full_x
    op2 = sp.Operator1D(x_left=laplace_op.x_left, x_right=laplace_op.x_right,
                        n_interior=laplace_op.n_interior,
                        diffusion=laplace_op.diffusion + 0.1 * np.sin(xs),
                        potential=laplace_op.potential.copy())
    d = an.c1_norm_difference(laplace_op, op2)
    # sup |0.1 sin| + sup |0.1 cos| = 0.2 up to grid resolution
    assert abs(d - 0.2) < 0.01


def test_perturbed_problem_channels(stability_base):
    for channel in ("alpha", "q", "diffusion", "all"):
        pert = an.perturbed_problem(stability_base, channel, 0.05)
        assert an.perturbation_delta(stability_base, pert) > 0.0
    with pytest.raises(ValueError):
        an.perturbed_problem(stability_base, "bogus", 0.1)
