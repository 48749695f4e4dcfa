import math

import mpmath as mp
import numpy as np
import pytest

from mtfrac import solver as sv, spectral as sp
from mtfrac.specfun import _solver_family, e_solver, e_solver_many, gamma_real


@pytest.fixture(scope="module")
def homog_problem(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -2.0, laplace_spectrum)
    return sv.Problem(orders=orders, operator=laplace_op,
                      spectrum=laplace_spectrum, initial=a)


def test_frac_orders_validation():
    with pytest.raises(ValueError):
        sv.FracOrders(alphas=(0.3, 0.8), qs=(1.0, 1.0))
    with pytest.raises(ValueError):
        sv.FracOrders(alphas=(0.8, 0.3), qs=(2.0, 1.0))
    with pytest.raises(ValueError):
        sv.FracOrders(alphas=(1.2,), qs=(1.0,))
    with pytest.raises(ValueError):
        sv.FracOrders(alphas=(0.8, 0.3), qs=(1.0, -1.0))
    o = sv.FracOrders.single(0.5)
    assert o.m == 1 and o.qs == (1.0,)


def test_mode_amplitude_at_zero_is_one():
    orders = sv.FracOrders(alphas=(0.9, 0.2), qs=(1.0, 3.0))
    assert sv.mode_amplitude(orders, 123.4, 0.0) == 1.0


def test_mode_amplitude_single_term_is_classical_ml():
    orders = sv.FracOrders.single(0.5)
    # E_{1/2,1}(-sqrt(t)) = e^t erfc(sqrt(t)) at lam = 1
    for t in (0.25, 1.0, 4.0):
        target = math.exp(t) * math.erfc(math.sqrt(t))
        assert abs(sv.mode_amplitude(orders, 1.0, t) - target) < 1e-10


def test_mode_amplitude_long_time_leading_term():
    # amplitude * lam * Gamma(1-a_m) * t^{a_m} -> q_m
    orders = sv.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.7))
    lam = 3.0
    vals = []
    for t in (1e3, 1e4, 1e5):
        amp = sv.mode_amplitude(orders, lam, t)
        vals.append(amp * lam * gamma_real(0.6) * t ** 0.4)
    assert abs(vals[-1] - 1.7) < 0.02
    assert abs(vals[-1] - 1.7) < abs(vals[0] - 1.7)


def test_amplitude_properties_on_thm23_grid(laplace_spectrum):
    # 0 < u_n(t) <= 1 for every mode of the thm23 run; where
    # lam t^{a_1} <= 1 the difference 1 - lam t^{a_1} E_{1+a_1} does not
    # cancel, and the directly inverted amplitude must match it.
    orders = sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    a1 = orders.alphas[0]
    lams = laplace_spectrum.lambdas
    ts = 2.0 * (np.arange(1, 26) / 25) ** 2
    amps = sv.mode_amplitudes(orders, lams, ts)
    assert np.all(amps > 0.0) and np.all(amps <= 1.0)
    x = lams * ts[:, None] ** a1
    diff_form = 1.0 - x * e_solver_many(lams, orders, 1.0 + a1, ts)
    small = x <= 1.0
    assert small.any()
    assert np.max(np.abs(amps - diff_form)[small]) <= 1e-12


def test_mode_amplitudes_own_their_memory(laplace_spectrum):
    # ModalSolution caches rows of the returned block, so the block must not
    # be a view into the kernel's (2, ...) value/estimate buffer or its
    # lam grid padded to whole panels.  Grids with and without t = 0 and
    # repeated times, and a scalar.
    lams = laplace_spectrum.lambdas[:100]
    grids = (2.0 * (np.arange(1, 26) / 25) ** 2, np.array([0.5, 0.0, 0.5, 3.0]))
    for orders in (sv.FracOrders.single(0.6),
                   sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5)),
                   sv.FracOrders(alphas=(0.8, 0.5, 0.2), qs=(1.0, 1.5, 0.5))):
        for lam, ts in [(lams, g) for g in grids] + [(7.0, 0.5)]:
            amps = sv.mode_amplitudes(orders, lam, ts)
            owner = amps
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == amps.nbytes, (orders.m, np.shape(ts))


def test_solve_homogeneous_initial_value(homog_problem):
    u0 = sv.solve(homog_problem, 0.0)
    assert np.max(np.abs(u0 - homog_problem.initial)) < 1e-10


def test_solve_block_is_synthesized_modal_block(homog_problem):
    # An array of times gives one grid function per row: the synthesis of
    # the modal block, bit for bit, and each row the per-time solve's up
    # to rounding.
    ts = np.array([0.0, 1e-3, 0.5, 2.0, 40.0])
    u = sv.solve(homog_problem, ts)
    assert u.shape == (ts.size, homog_problem.operator.n_interior)
    modal = sv.ModalSolution(homog_problem).modal_values(ts)
    np.testing.assert_array_equal(u, sp.synthesize(modal, homog_problem.spectrum))
    per_time = np.array([sv.solve(homog_problem, float(t)) for t in ts])
    np.testing.assert_allclose(u, per_time, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(per_time)))


def test_solve_homogeneous_single_mode(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    phi1 = laplace_spectrum.eigvecs[:, 0]
    lam1 = laplace_spectrum.lambdas[0]
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=phi1)
    t = 0.7
    u = sv.solve(p, t)
    target = sv.mode_amplitude(orders, lam1, t) * phi1
    np.testing.assert_allclose(u, target, atol=1e-10)


def test_solve_homogeneous_l2_stability(homog_problem):
    a_norm = sp.frac_norm(homog_problem.initial, 0.0, homog_problem.spectrum)
    sol = sv.ModalSolution(homog_problem)
    for t in (1e-3, 0.1, 1.0, 10.0):
        n = sp.modal_frac_norm(sol.modal_values(t), 0.0, homog_problem.spectrum)
        assert n <= 2.0 * a_norm


def test_uniform_amplitude_bound(homog_problem):
    # grid-observed sup |amplitude| < 2 for the tested order sets
    lams = homog_problem.spectrum.lambdas
    for t in (1e-3, 0.1, 1.0, 100.0):
        amps = sv.mode_amplitudes(homog_problem.orders, lams, t)
        assert np.max(np.abs(amps)) < 2.0


def test_smoothing_slope_from_half_regularity(laplace_op, laplace_spectrum):
    # || u(t) ||_{D(-L)} ~ t^{a_1 (gamma - 1)} with gamma = 1/2:
    # the log-log slope as t -> 0 must not fall below a_1(gamma-1) - 0.05.
    orders = sv.FracOrders(alphas=(0.9, 0.5), qs=(1.0, 1.0))
    n = np.arange(1, laplace_spectrum.n_modes + 1, dtype=float)
    a = sp.synthesize(n ** -1.55, laplace_spectrum)
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=a)
    sol = sv.ModalSolution(p)
    ts = np.logspace(-4, -1, 8)
    norms = [sp.modal_frac_norm(sol.modal_values(t), 1.0, p.spectrum) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert slope >= 0.9 * (0.5 - 1.0) - 0.05


def test_initial_value_attainment(homog_problem):
    # || u(t) - a ||_{D((-L)^gamma)} decreases monotonically to < 1% of ||a||.
    gamma = 0.5
    sol = sv.ModalSolution(homog_problem)
    a_modal = homog_problem.modal_initial
    norms = []
    for k in range(1, 9):
        mv = sol.modal_values(10.0 ** -k)
        norms.append(sp.modal_frac_norm(mv - a_modal, gamma, homog_problem.spectrum))
    assert all(b <= a * 1.05 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.01 * sp.modal_frac_norm(a_modal, gamma, homog_problem.spectrum)


def test_modal_solution_cache(homog_problem):
    sol = sv.ModalSolution(homog_problem)
    a1 = sol.modal_values(0.5)
    a2 = sol.modal_values(0.5)
    assert a1 is a2
    np.testing.assert_array_equal(sol.modal_values(0.0), homog_problem.modal_initial)


def test_modal_solution_block_matches_per_time(homog_problem, monkeypatch):
    ts = np.concatenate([[0.0], np.logspace(-6, 3, 30), [0.5]])  # 0.5 twice
    per_time = np.array([sv.ModalSolution(homog_problem).modal_values(float(t))
                         for t in ts])
    # Each row is the amplitudes times the initial value's coefficients.
    amps = sv.mode_amplitudes(homog_problem.orders, homog_problem.spectrum.lambdas, ts)
    calls = []

    def counting(*args):
        calls.append(args)
        return e_solver_many(*args)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    sol = sv.ModalSolution(homog_problem)
    block = sol.modal_values(ts)
    assert block.shape == (ts.size, homog_problem.spectrum.n_modes)
    np.testing.assert_allclose(block, per_time, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(block, amps * homog_problem.modal_initial)
    assert len(calls) == 1
    # Cached rows serve both a second block and scalar times; a grid with
    # one new time evaluates that time alone.
    np.testing.assert_array_equal(sol.modal_values(ts[::-1]), block[::-1])
    assert sol.modal_values(0.5) is sol.modal_values(np.float64(0.5))
    assert len(calls) == 1
    sol.modal_values(np.append(ts, 7.0))
    assert len(calls) == 2 and np.shape(calls[1][3]) == (1,)
    np.testing.assert_array_equal(sol.modal_values(ts.reshape(2, -1)),
                                  block.reshape(2, -1, block.shape[1]))


def test_time_derivative_matches_finite_differences(homog_problem):
    t = 0.9
    du = sv.time_derivative(homog_problem, t)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (sv.solve(homog_problem, t + h)
              - sv.solve(homog_problem, t - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - du)))
    assert abs(math.log2(errs[0] / errs[1]) - 2.0) < 0.2


def test_time_derivative_single_term_formula(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.6)
    phi1 = laplace_spectrum.eigvecs[:, 0]
    lam1 = laplace_spectrum.lambdas[0]
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum, initial=phi1)
    t = 0.8
    du = sv.time_derivative(p, t)
    target = -lam1 * t ** (0.6 - 1.0) * e_solver(lam1, orders, 0.6, t) * phi1
    np.testing.assert_allclose(du, target, rtol=1e-9, atol=1e-12)
    # negative for small t when the initial amplitude is positive
    du_small = sv.time_derivative(p, 1e-3)
    assert sp.project(du_small, laplace_spectrum)[0] < 0
    with pytest.raises(ValueError):
        sv.time_derivative(p, 0.0)


def test_caputo_of_linear_function_closed_form():
    q = sv.QuadConfig(n_panels=128, grading=2.0)
    for beta in (0.25, 0.5, 0.75):
        got = sv.caputo_quadrature(lambda s: np.ones_like(s), 2.0, beta, q)
        want = 2.0 ** (1.0 - beta) / gamma_real(2.0 - beta)
        assert abs(got - want) < 1e-12 * want


def test_caputo_equation_residual_single_term():
    # beta = alpha, m = 1: the derivative reproduces -lam u.
    orders = sv.FracOrders.single(0.5)
    r = sv.mode_ode_residual(orders, 3.0, 1.0, sv.QuadConfig(n_panels=256))
    assert r < 1e-4


def test_caputo_equation_residual_multi_term():
    orders = sv.FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    for lam, t in ((5.0, 1.5), (1.0, 0.5)):
        r = sv.mode_ode_residual(orders, lam, t, sv.QuadConfig(n_panels=256))
        assert r < 1e-3


def test_caputo_derivative_field_bound(homog_problem):
    # Sanity: the Caputo derivative of the solution exists and
    # shrinks from t-singular early values to small long-time values.
    d1 = sv.caputo_derivative(homog_problem, 0.4, 0.1)
    d2 = sv.caputo_derivative(homog_problem, 0.4, 5.0)
    n1 = sp.frac_norm(d1, 0.0, homog_problem.spectrum)
    n2 = sp.frac_norm(d2, 0.0, homog_problem.spectrum)
    assert n1 > n2 > 0


# Modes (1-based) across the whole n_interior = 255 spectrum, lambda from
# about 4 to 2.66e4, and times checked against Talbot inversion.
TALBOT_MODES = (2, 60, 200, 255)
TALBOT_TIMES = (1e-3, 0.37, 2.0)
TALBOT_ORDERS = sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))


def _talbot(orders, lam, power, t, dps=20):
    """mpmath Talbot inversion of s^{-power} / (w(s) + lam) at t, with
    w(s) = sum_j q_j s^{a_j}; no code shared with specfun."""
    with mp.workdps(dps):
        alphas = [mp.mpf(a) for a in orders.alphas]
        qs = [mp.mpf(q) for q in orders.qs]
        lam_mp, power_mp = mp.mpf(lam), mp.mpf(power)

        def transform(s):
            return s ** -power_mp / (sum(q * s ** a for a, q in zip(alphas, qs))
                                     + lam_mp)

        return float(mp.invertlaplace(transform, mp.mpf(t), method="talbot"))


def test_caputo_derivative_matches_talbot(laplace_op, laplace_spectrum):
    # D^beta u_n has transform -lam s^{beta-1} a_n / (w(s) + lam).  Each
    # tested mode is the initial value alone (a_n = 1); it passes when its
    # relative error is within max(1e-12, its estimate).
    orders, beta = TALBOT_ORDERS, 0.3
    a1 = orders.alphas[0]

    def derivative(mode, t):
        p = sv.Problem(orders=orders, operator=laplace_op,
                       spectrum=laplace_spectrum,
                       initial=laplace_spectrum.eigvecs[:, mode - 1])
        d = sv.caputo_derivative(p, beta, t)
        return sp.project(d, laplace_spectrum)[mode - 1]

    for mode in TALBOT_MODES:
        lam = laplace_spectrum.lambdas[mode - 1]
        for t in TALBOT_TIMES:
            got = derivative(mode, t)
            ref = -lam * _talbot(orders, lam, 1.0 - beta, t)
            _, est = _solver_family(lam, orders, a1 + 1.0 - beta, t)
            tol = max(1e-12 * abs(ref), lam * t ** (a1 - beta) * float(est))
            assert abs(got - ref) <= tol, (mode, t, got, ref)
    # mode 200 at t = 2, pinned to its Talbot value at 40 digits
    assert abs(derivative(200, 2.0) - -0.62573947042950745) <= 1e-12 * 0.6257


def test_time_derivative_matches_talbot(laplace_op, laplace_spectrum):
    # d/dt u_n has transform -lam a_n / (w(s) + lam): the propagator
    # E^{(n)}_{a_1}, whose plain contour sum cancels at large lam t^{a_1}.
    # Each tested mode (0-based: the first, the middle and the last of the
    # 255) is the initial value alone, and passes within 1e-12 relative.
    orders = TALBOT_ORDERS
    for mode in (0, 127, 254):
        lam = laplace_spectrum.lambdas[mode]
        p = sv.Problem(orders=orders, operator=laplace_op,
                       spectrum=laplace_spectrum,
                       initial=laplace_spectrum.eigvecs[:, mode])
        for t in (1e-3, 0.1, 2.0, 300.0):
            got = sp.project(sv.time_derivative(p, t), laplace_spectrum)[mode]
            ref = -lam * _talbot(orders, lam, 0.0, t, dps=30)
            assert abs(got - ref) <= 1e-12 * abs(ref), (mode, t, got, ref)


def test_solve_source_matches_talbot(laplace_op, laplace_spectrum):
    # The linear interpolant of the samples is F(0) + F'(0) s +
    # sum_i dF'_i (s - t_i)_+, with response F(0) K_1(t) + F'(0) K_2(t) +
    # sum_{0 < t_i < t} dF'_i K_2(t - t_i), K_k the inverse of
    # s^{-k} / (w(s) + lam).  Two modal sources: a constant, and the modal
    # history of cos(3t + x) + x sin(7t) / 2, each passed as grid values.
    # Each tested mode is solved alone; a final solve with all tested modes
    # active at once must reproduce the lone solves.
    orders = TALBOT_ORDERS
    a1 = orders.alphas[0]
    idx = np.array(TALBOT_MODES) - 1
    lams = laplace_spectrum.lambdas[idx]
    field = sv.SampledSource.from_callable(
        lambda x, t: np.cos(3.0 * t + x) + 0.5 * x * np.sin(7.0 * t), 2.0, 17,
        laplace_op.interior_x)
    times = field.times
    kernels = {}

    def kernel(j, k, tau):
        """(K_k(tau), its estimate) for mode idx[j]."""
        key = (j, k, tau)
        if key not in kernels:
            _, est = _solver_family(lams[j], orders, k + a1, tau)
            kernels[key] = (_talbot(orders, lams[j], k, tau),
                            tau ** (k - 1 + a1) * float(est))
        return kernels[key]

    def solve(hist, modes, t):
        values = np.zeros((times.size, laplace_spectrum.n_modes))
        values[:, idx[modes]] = hist[:, modes]
        src = sv.SampledSource(times=times,
                               values=sp.synthesize(values, laplace_spectrum))
        p = sv.Problem(orders=orders, operator=laplace_op,
                       spectrum=laplace_spectrum,
                       initial=np.zeros(laplace_op.n_interior), source=src)
        return sv.ModalSolution(p).modal_values(t)[idx[modes]]

    for hist in (np.ones((times.size, idx.size)),
                 sp.project(field.values, laplace_spectrum)[:, idx]):
        for t in TALBOT_TIMES:
            alone = np.array([solve(hist, [j], t)[0] for j in range(idx.size)])
            for j, mode in enumerate(TALBOT_MODES):
                f = hist[:, j]
                slopes = np.diff(f) / np.diff(times)
                terms = [(f[0], kernel(j, 1, t)), (slopes[0], kernel(j, 2, t))]
                terms += [(slopes[i] - slopes[i - 1], kernel(j, 2, t - times[i]))
                          for i in range(1, times.size - 1) if times[i] < t]
                ref = sum(w * k for w, (k, _) in terms)
                est = sum(abs(w) * e for w, (_, e) in terms)
                assert abs(alone[j] - ref) <= max(1e-12 * abs(ref), est), \
                    (mode, t, alone[j], ref)
            together = solve(hist, list(range(idx.size)), t)
            np.testing.assert_allclose(together, alone, rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(alone)))


def _mode_source(spectrum, mode, t_final=2.0, n=257, amp=1.0):
    times = np.linspace(0.0, t_final, n)
    values = np.tile(amp * spectrum.eigvecs[:, mode], (n, 1))
    return sv.SampledSource(times=times, values=values)


def test_solve_source_zero_source(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    times = np.linspace(0.0, 2.0, 65)
    src = sv.SampledSource(times=times,
                           values=np.zeros((65, laplace_op.n_interior)))
    p = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    u = sv.solve(p, 1.0)
    assert np.max(np.abs(u)) == 0.0


def test_solve_source_single_term_closed_form(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    src = _mode_source(laplace_spectrum, 0)
    p = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    lam1 = laplace_spectrum.lambdas[0]
    for t in (0.5, 1.5):
        got = sv.ModalSolution(p).modal_values(t)[0]
        want = t ** 0.5 * e_solver(lam1, orders, 1.5, t)
        assert abs(got - want) < 1e-12 * abs(want)


def test_solve_source_steady_state_trend(laplace_op, laplace_spectrum):
    orders = sv.FracOrders(alphas=(0.7, 0.3), qs=(1.0, 1.0))
    src = _mode_source(laplace_spectrum, 0, t_final=64.0, n=513)
    p = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    lam1 = laplace_spectrum.lambdas[0]
    steady = 1.0 / lam1
    errs = []
    for t in (16.0, 60.0):
        got = sv.ModalSolution(p).modal_values(t)[0]
        want = t ** 0.7 * e_solver(lam1, p.orders, 1.7, t)
        assert abs(got - want) < 1e-12 * abs(want)
        errs.append(abs(got - steady))
    # approach to the steady state is t^{-a_m}: slow but monotone
    assert errs[1] < errs[0]
    assert errs[1] < 0.25 * steady


def test_solve_source_requires_zero_initial(laplace_op, laplace_spectrum):
    orders = sv.FracOrders.single(0.5)
    src = _mode_source(laplace_spectrum, 0)
    p = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                   initial=laplace_spectrum.eigvecs[:, 0], source=src)
    with pytest.raises(ValueError):
        sv.solve(p, 1.0)
    with pytest.raises(ValueError, match="zero initial value"):
        sv.ModalSolution(p)


def test_solve_source_times(laplace_op, laplace_spectrum):
    # Zero at t = 0, like the initial value; negative times and times past
    # the source history raise.
    src = _mode_source(laplace_spectrum, 0)
    p = sv.Problem(orders=sv.FracOrders.single(0.5), operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    u0 = sv.solve(p, 0.0)
    assert u0.shape == (laplace_op.n_interior,) and np.all(u0 == 0.0)
    for t in (-1e-3, 2.5):
        with pytest.raises(ValueError):
            sv.solve(p, t)


def test_sampled_source_validation(laplace_spectrum):
    with pytest.raises(ValueError):
        sv.SampledSource(times=np.array([0.0]), values=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        sv.SampledSource(times=np.array([0.5, 1.0]), values=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="increasing"):
        sv.SampledSource(times=np.array([0.0, 1.0, 1.0]), values=np.zeros((3, 3)))
    # The spacing is free.
    sv.SampledSource(times=np.array([0.0, 1.0, 1.5]), values=np.zeros((3, 3)))


def test_source_smoothing_bound(laplace_op, laplace_spectrum):
    # || u ||_{L2(0,T; D(-L))} <= C || F ||_{L2(0,T; L2)} with a modest ratio.
    orders = sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    src = _mode_source(laplace_spectrum, 4)
    p = sv.Problem(orders=orders, operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    ts = np.linspace(0.1, 2.0, 9)
    sol = sv.ModalSolution(p)
    u_norms = np.array([sp.modal_frac_norm(mv, 1.0, laplace_spectrum)
                        for mv in sol.modal_values(ts)])
    f_norm_sq = 2.0  # ||phi_5||_{L2}^2 integrated over [0, 2]
    u_l2t = math.sqrt(float(np.trapezoid(u_norms ** 2, ts)))
    assert u_l2t <= 10.0 * math.sqrt(f_norm_sq)


def test_problem_consistency_checks(laplace_op, small_spectrum):
    orders = sv.FracOrders.single(0.5)
    with pytest.raises(ValueError):
        sv.Problem(orders=orders, operator=laplace_op, spectrum=small_spectrum,
                   initial=np.zeros(laplace_op.n_interior))


def test_problem_rejects_source_not_on_the_grid(laplace_op, laplace_spectrum):
    # One grid function per time sample: a source one node short, one row
    # short, and a 1-D source are refused by Problem, with both shapes named.
    times = np.linspace(0.0, 2.0, 5)
    for values, shape in ((np.ones((5, 254)), r"\(5, 254\)"),
                          (np.ones((4, 255)), r"\(4, 255\)"),
                          (np.ones(5), r"\(5,\)")):
        src = sv.SampledSource(times=times, values=values)
        with pytest.raises(ValueError, match=shape + r".*\(5, 255\)"):
            sv.Problem(orders=sv.FracOrders.single(0.5), operator=laplace_op,
                       spectrum=laplace_spectrum,
                       initial=np.zeros(laplace_op.n_interior), source=src)


def test_sampled_source_from_callable(laplace_op, laplace_spectrum):
    src = sv.SampledSource.from_callable(
        lambda xs, t: np.sin(xs) * (1.0 + t), 2.0, 33, laplace_op.interior_x)
    assert src.times.size == 33
    hist = sp.project(src.values, laplace_spectrum)
    assert hist.shape == (33, laplace_spectrum.n_modes)
    # mode-1 content dominates for sin(x) data
    assert abs(hist[0, 0]) > 10 * np.max(np.abs(hist[0, 1:]))


def test_solve_source_time_varying_vs_l1_oracle(laplace_spectrum, laplace_op):
    # Dual route for the forced solution: an oscillating modal source
    # solved in closed form must match the L1 stepper.
    from mtfrac import oracle as orc
    orders = sv.FracOrders(alphas=(0.7, 0.3), qs=(1.0, 1.0))
    lam1 = laplace_spectrum.lambdas[0]
    times = np.linspace(0.0, 2.0, 513)
    values = np.sin(3.0 * times)[:, None] * laplace_spectrum.eigvecs[:, 0][None, :]
    src = sv.SampledSource(times=times, values=values)
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    for t in (0.8, 1.7):
        got = sv.ModalSolution(p).modal_values(t)[0]
        cfg = orc.L1Config(t_final=t, n_steps=6000, grading=2.0)
        _, us = orc.l1_solve_mode(lam1, orders, 0.0,
                                  lambda tt: np.sin(3.0 * tt), cfg)
        assert abs(got - us[-1]) < 1e-4 * max(abs(us[-1]), 1e-3)


def test_solve_source_graded_samples_vs_l1_oracle(laplace_spectrum, laplace_op):
    # Samples graded toward t = 0 share no lags; the forced solution of
    # their linear interpolant must still match the L1 stepper driven by
    # the same interpolant.
    from mtfrac import oracle as orc
    orders = sv.FracOrders(alphas=(0.7, 0.3), qs=(1.0, 1.0))
    lam1 = laplace_spectrum.lambdas[0]
    times = 2.0 * (np.arange(65) / 64) ** 2.5
    samples = np.sin(3.0 * times)
    src = sv.SampledSource(times=times,
                           values=samples[:, None] * laplace_spectrum.eigvecs[:, 0])
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    sol = sv.ModalSolution(p)
    for t in (0.8, 1.7):
        got = sol.modal_values(t)[0]
        cfg = orc.L1Config(t_final=t, n_steps=6000, grading=2.0)
        _, us = orc.l1_solve_mode(lam1, orders, 0.0,
                                  lambda tt: np.interp(tt, times, samples), cfg)
        assert abs(got - us[-1]) < 1e-4 * max(abs(us[-1]), 1e-3)


def test_modal_values_synthesize_to_solve_source(laplace_spectrum, laplace_op,
                                                 monkeypatch):
    # solve is the synthesis of the forced modal values, bit for bit; a
    # block evaluates all its new times in two kernel calls (K1 at the
    # times, K2 at their lags) and caches them.
    orders = sv.FracOrders(alphas=(0.7, 0.3), qs=(1.0, 1.0))
    times = np.linspace(0.0, 2.0, 513)
    values = (np.sin(3.0 * times)[:, None] * laplace_spectrum.eigvecs[:, 0]
              + np.cos(times)[:, None] * laplace_spectrum.eigvecs[:, 4])
    src = sv.SampledSource(times=times, values=values)
    p = sv.Problem(orders=orders, operator=laplace_op,
                   spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    ts = np.array([0.0, 0.8, 1.7, 2.0, 0.8])
    per_time = [sv.solve(p, float(t)) for t in ts]
    calls = []

    def counting(*args):
        calls.append(args)
        return e_solver_many(*args)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    sol = sv.ModalSolution(p)
    block = sol.modal_values(ts)
    assert len(calls) == 2
    for mv, u in zip(block, per_time):
        np.testing.assert_array_equal(sp.synthesize(mv, laplace_spectrum), u)
    np.testing.assert_array_equal(sol.modal_values(ts[::-1]), block[::-1])
    assert len(calls) == 2
    assert np.all(block[0] == 0.0)
    # A new time is two more calls: K1 at the time, K2 over its own lags.
    sol.modal_values(np.append(ts, 1.2))
    assert len(calls) == 4
    assert np.shape(calls[2][3]) == (1,)
    assert np.shape(calls[3][3]) == (1 + np.count_nonzero(times[1:-1] < 1.2),)


def test_forced_block_is_one_call_per_kernel(laplace_spectrum, laplace_op,
                                            monkeypatch):
    # A block of new times makes one K1 call over its times and one K2 call
    # over the distinct lags of all of them (K1 is read at the time alone),
    # and gives the per-time coefficients bit for bit: every
    # sample time, off-grid and repeated times, and t = 0 (zero).  A block
    # holding a bad time raises before any call and caches nothing.
    src = sv.SampledSource.from_callable(
        lambda x, t: np.sin(3.0 * x) * (1.0 + t) + x * (np.pi - x) * np.cos(2.0 * t),
        2.0, 257, laplace_op.interior_x)
    p = sv.Problem(orders=sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.0)),
                   operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    ts = np.concatenate([src.times, [0.0123, 1.5 + 1e-3, 1.0, 2e-5, 0.0, 0.0123]])
    per_time = np.array([sv.ModalSolution(p).modal_values(float(t)) for t in ts])
    calls = []

    def counting(*args):
        calls.append(args)
        return e_solver_many(*args)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    sol = sv.ModalSolution(p)
    block = sol.modal_values(ts)
    a1 = p.orders.alphas[0]
    assert [beta0 for _, _, beta0, _ in calls] == [1.0 + a1, 2.0 + a1]
    assert np.shape(calls[0][3]) == (np.count_nonzero(np.unique(ts) > 0.0),)
    np.testing.assert_array_equal(block, per_time)
    assert np.all(block[ts == 0.0] == 0.0)
    for bad in (-1e-3, 2.0 + 1e-6, np.nan):
        with pytest.raises(ValueError):
            sol.modal_values(np.array([0.3, bad]))
        assert len(calls) == 2
    sol.modal_values(0.3)
    assert len(calls) == 4


def test_forced_off_grid_block_is_split_by_lags(laplace_spectrum, laplace_op,
                                               monkeypatch):
    # Off-grid times share almost no lags: a block of them is split into
    # runs of at most _MAX_LAGS distinct lags, one K2 call each, and still
    # gives the per-time coefficients bit for bit.
    src = sv.SampledSource.from_callable(
        lambda x, t: np.sin(3.0 * x) * (1.0 + t) + x * (np.pi - x) * np.cos(2.0 * t),
        2.0, 257, laplace_op.interior_x)
    p = sv.Problem(orders=sv.FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.0)),
                   operator=laplace_op, spectrum=laplace_spectrum,
                   initial=np.zeros(laplace_op.n_interior), source=src)
    ts = np.linspace(1.9, 2.0, 20) - 1e-3
    per_time = np.array([sv.ModalSolution(p).modal_values(float(t)) for t in ts])
    lags = []

    def counting(lams, orders, beta0, ts):
        if beta0 == 2.0 + orders.alphas[0]:
            lags.append(ts.size)
        return e_solver_many(lams, orders, beta0, ts)

    monkeypatch.setattr(sv, "e_solver_many", counting)
    block = sv.ModalSolution(p).modal_values(ts)
    assert len(lags) > 1 and max(lags) <= sv._MAX_LAGS
    assert sum(lags) > sv._MAX_LAGS
    np.testing.assert_array_equal(block, per_time)


def test_forced_norm_tau_scaling(laplace_spectrum):
    # || u ||_{L2(0,T; D((-L)^{1-tau}))} <= (C/tau) || F ||: the observed
    # product tau * norm stays bounded as tau shrinks (broadband constant
    # source, closed-form modal response).
    orders = sv.FracOrders(alphas=(0.7, 0.4), qs=(1.0, 1.2))
    lams = laplace_spectrum.lambdas
    F = np.arange(1, lams.size + 1, dtype=float) ** -1.0
    tgrid = 2.0 * (np.arange(1, 26) / 25.0) ** 2
    products = []
    norms_by_tau = []
    for tau in (0.8, 0.4, 0.2, 0.1):
        norms = []
        for t in tgrid:
            amps = sv.mode_amplitudes(orders, lams, float(t))
            Tn = F * (1.0 - amps) / lams
            norms.append(math.sqrt(float(np.sum((lams ** (1.0 - tau) * Tn) ** 2))))
        l2t = math.sqrt(float(np.trapezoid(np.asarray(norms) ** 2, tgrid)))
        norms_by_tau.append(l2t)
        products.append(tau * l2t)
    assert max(products) < 1.0  # grid-observed constant, modest
    # smaller tau means a stronger norm: monotone growth
    assert all(a <= b for a, b in zip(norms_by_tau, norms_by_tau[1:]))
