import itertools
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtfrac import specfun as sf
from mtfrac.constants import SERIES_CONTOUR_CROSSOVER as XC, SOLVER_FAMILY_RTOL
from mtfrac.solver import FracOrders

# Classical two-parameter value E_{1/2,1}(-1) = e * erfc(1).
E_HALF_AT_MINUS_1 = math.e * math.erfc(1.0)  # 0.42758357615580705

# Frozen from the extended-precision oracle (oracle.highprec_series, 40
# digits): E_{(0.8,0.3),1}(-0.7, -0.4).
E_M2_FROZEN = 0.3962122366410500275


# ---------------------------------------------------------------------------
# Gamma

def test_gamma_exact_points():
    assert sf.gamma_real(1.0) == 1.0
    assert sf.gamma_real(0.5) == math.sqrt(math.pi)
    assert sf.gamma_real(2.0) == 1.0
    assert sf.gamma_real(1.5) == math.sqrt(math.pi) / 2.0


def test_gamma_accuracy_strip():
    xs = np.concatenate([np.linspace(0.01, 0.49, 49),
                         np.linspace(0.51, 30.0, 400)])
    ours = sf.gamma_real(xs)
    ref = np.array([math.gamma(float(x)) for x in xs])
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-13


def test_gamma_pole_rejected():
    with pytest.raises(ValueError):
        sf.gamma_real(0.0)


# ---------------------------------------------------------------------------
# Multinomial coefficients

def test_multinomial_basic():
    assert sf.multinomial_coefficient(3, [1, 1, 1]) == 6
    assert sf.multinomial_coefficient(5, [5, 0]) == 1
    assert (sf.multinomial_coefficient(3, [1, 2])
            + sf.multinomial_coefficient(3, [2, 1])
            == sf.multinomial_coefficient(4, [2, 2]) == 6)


def test_multinomial_degenerate_and_errors():
    assert sf.multinomial_coefficient(3, [-1, 4]) == 0
    with pytest.raises(ValueError):
        sf.multinomial_coefficient(3, [1, 1])
    with pytest.raises(ValueError):
        sf.multinomial_coefficient(3, [-2, 5])
    with pytest.raises(OverflowError):
        sf.multinomial_coefficient(200_000, [100_000, 100_000])


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_multinomial_recurrence_property(k, m, data):
    parts = []
    remaining = k
    for j in range(m - 1):
        parts.append(data.draw(st.integers(min_value=0, max_value=remaining)))
        remaining -= parts[-1]
    parts.append(remaining)
    total = sum(
        sf.multinomial_coefficient(k - 1, parts[:j] + [parts[j] - 1] + parts[j + 1:])
        for j in range(m))
    assert total == sf.multinomial_coefficient(k, parts)


# ---------------------------------------------------------------------------
# Series evaluation

def test_series_zero_args_is_inverse_gamma():
    params = sf.MLParams(beta0=1.0, betas=(0.4, 0.7))
    res = sf.mml_series(params, sf.MLArgs(z=(0.0, 0.0)))
    assert res.value == 1.0
    assert res.method is sf.Method.SERIES


def test_series_classical_value():
    res = sf.mml_series(sf.MLParams(beta0=1.0, betas=(0.5,)),
                        sf.MLArgs(z=(-1.0,)))
    assert abs(res.value.real - E_HALF_AT_MINUS_1) < 1e-12
    assert abs(res.value.imag) < 1e-15


def test_series_m2_matches_extended_precision():
    from mtfrac.oracle import highprec_series
    params = sf.MLParams(beta0=1.0, betas=(0.8, 0.3))
    args = sf.MLArgs(z=(-0.7, -0.4))
    res = sf.mml_series(params, args)
    assert abs(res.value.real - E_M2_FROZEN) < 1e-12
    live = highprec_series(params, args, digits=30)
    assert abs(res.value - live.value) < 1e-12


def test_series_nonconvergence_carries_partial():
    params = sf.MLParams(beta0=1.0, betas=(0.5,))
    with pytest.raises(sf.SeriesConvergenceError) as exc:
        sf.mml_series(params, sf.MLArgs(z=(-40.0,)), max_k=30)
    assert exc.value.shells == 30
    # The partial sum is that of shells 0..30, to the rounding of a sum of
    # terms up to 1e36 in size.
    with mp.workdps(60):
        terms = [mp.mpf(-40) ** k / mp.gamma(1 + mp.mpf(k) / 2) for k in range(31)]
        exact, magnitude = complex(mp.fsum(terms)), float(mp.fsum(map(abs, terms)))
    assert abs(exc.value.partial - exact) <= 1e-13 * magnitude


def test_series_error_within_estimate():
    # Seeded tuples, real and complex, with sum |z_j| up to the crossover:
    # the error against the extended-precision oracle stays within the
    # estimate.  For m = 3 the exponents stay above 0.75, where the oracle's
    # majorant certifies its tail within about 40 shells.
    from mtfrac.oracle import highprec_series
    rng = np.random.default_rng(2207)
    for m, beta_lo, n_cases in ((1, 0.3, 6), (2, 0.3, 6), (3, 0.75, 2)):
        for i in range(n_cases):
            params = sf.MLParams(beta0=float(rng.uniform(0.3, 1.9)),
                                 betas=tuple(rng.uniform(beta_lo, 0.95, m)))
            size = rng.dirichlet(np.ones(m)) * rng.uniform(0.5, 1.0) * XC
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi, m)) if i % 2 else -1.0
            args = sf.MLArgs(z=tuple(size * phase))
            res = sf.mml_series(params, args)
            ref = complex(highprec_series(params, args, digits=10).value)
            assert abs(res.value - ref) <= res.abs_error_estimate, (params, args)


def test_series_input_validation():
    params = sf.MLParams(beta0=1.0, betas=(0.5,))
    with pytest.raises(ValueError):
        sf.mml_series(params, sf.MLArgs(z=(-1.0, -2.0)))
    with pytest.raises(ValueError):
        sf.mml_series(params, sf.MLArgs(z=(-1.0,)), tol=-1.0)
    with pytest.raises(ValueError):
        sf.MLParams(beta0=2.5, betas=(0.5,))
    with pytest.raises(ValueError):
        sf.MLParams(beta0=1.0, betas=(1.5,))
    with pytest.raises(ValueError):
        sf.EvalResult(value=1.0, abs_error_estimate=-1.0, method=sf.Method.SERIES)


def test_series_zero_argument_drops_its_exponent():
    # With z_2 = 0 only the compositions with k_2 = 0 contribute, which
    # leaves the two-parameter function E_{b_1, b_0}(z_1).
    two = sf.mml_series(sf.MLParams(beta0=0.8, betas=(0.6, 0.35)),
                        sf.MLArgs(z=(-1.3 + 0.4j, 0.0)))
    one = sf.mml_series(sf.MLParams(beta0=0.8, betas=(0.6,)),
                        sf.MLArgs(z=(-1.3 + 0.4j,)))
    assert abs(two.value - one.value) < 1e-14


def test_series_batch_matches_series_alone():
    # The series of a one-pass batch share compositions but keep their own
    # stopping rules, so each returns exactly what it returns alone.
    betas = (0.7, 0.55, 0.9)
    z = (-0.9 + 0.3j, 0.5 - 0.6j, -0.4j)
    beta0s = (0.6, 1.3, 1.15, 1.5)
    batch = sf._series_batch(beta0s, betas, z, 1e-14, 600)
    alone = [sf._series_batch((b0,), betas, z, 1e-14, 600)[0] for b0 in beta0s]
    assert len({shells for _, _, shells, _ in alone}) > 1
    assert batch == alone


# ---------------------------------------------------------------------------
# Contour evaluation: beyond the series crossover, mml_eval takes the window
# contour of the solver family at t = 1

def _family(alphas, qs, beta0, lam, t):
    orders = FracOrders(alphas=alphas, qs=qs)
    return (sf.solver_params(orders, beta0), sf.solver_args(orders, lam, t))


def test_contour_agrees_with_series_overlap():
    for alphas, qs, lam, t in (
        ((0.5,), (1.0,), 2.0, 1.0),
        ((0.9, 0.3), (1.0, 1.5), 2.0, 1.0),
        ((0.8, 0.5, 0.2), (1.0, 1.0, 1.0), 1.5, 1.0),
    ):
        params, args = _family(alphas, qs, 1.0 + alphas[0], lam, t)
        rs = sf.mml_series(params, args)
        rc = sf.e_solver(lam, FracOrders(alphas=alphas, qs=qs), 1.0 + alphas[0], t)
        assert abs(rs.value - rc) / abs(rc) < 1e-8


def test_contour_large_argument_bound():
    # |E| <= C / |z_1| along the negative axis; the scaled product must stay
    # bounded as |z_1| sweeps three decades.
    params = sf.MLParams(beta0=0.5, betas=(0.5,))
    products = []
    for x in (1e3, 1e4, 1e5, 1e6):
        res = sf.mml_eval(params, sf.MLArgs(z=(-x,)))
        assert res.method is sf.Method.CONTOUR
        products.append((1.0 + x) * abs(res.value))
    assert max(products) < 10.0 * max(products[0], 1e-12)


def test_contour_rejects_non_family_params():
    # b_2 > b_1 is not of the solver family, and the series cannot reach
    # sum |z_j| = 6 within its shell budget.
    params = sf.MLParams(beta0=1.0, betas=(0.3, 0.8))
    with pytest.raises(sf.UncoveredRegionError):
        sf.mml_eval(params, sf.MLArgs(z=(-5.0, -1.0)))


def test_mml_eval_matches_talbot_beyond_crossover():
    # Real solver-family arguments beyond the crossover, within 1e-12 of
    # mpmath Talbot: the propagator at z_1 = -1e8, z_1 = 0 with m = 2, and
    # z_2 = 0, which drops its term (then the reference is single(a_1)).
    cases = [  # betas, beta0, z, reference orders, reference lam
        ((0.3,), 0.3, (-1e8,), FracOrders.single(0.3), 1e8),
        ((0.5,), 1.0, (-30.0,), FracOrders.single(0.5), 30.0),
        ((0.8, 0.3), 1.8, (0.0, -5.0), FracOrders((0.8, 0.5), (1.0, 5.0)), 0.0),
        ((0.9, 0.6), 1.5, (-10.0, 0.0), FracOrders.single(0.9), 10.0),
        ((0.8, 0.3, 0.6), 0.8, (-1e3, -2.0, -0.5),
         FracOrders((0.8, 0.5, 0.2), (1.0, 2.0, 0.5)), 1e3),
    ]
    for betas, beta0, z, orders, lam in cases:
        res = sf.mml_eval(sf.MLParams(beta0, betas), sf.MLArgs(z=z))
        assert res.method is sf.Method.CONTOUR and res.value.imag == 0.0
        ref = _talbot(orders, lam, 1.0, beta0)
        assert abs(res.value.real - ref) <= 1e-12 * abs(ref), (betas, beta0, z)


def test_mml_eval_complex_z1_beyond_crossover():
    # A complex z_1 beyond the crossover has the series alone: within its
    # estimate of the extended-precision series at |z_1| = 5, and no route
    # at |z_1| = 50, where the series needs too many shells.
    from mtfrac.oracle import highprec_series
    params = sf.solver_params(FracOrders.single(0.5), 1.0)
    z1 = 5.0 * complex(math.cos(0.9 * math.pi), math.sin(0.9 * math.pi))
    res = sf.mml_eval(params, sf.MLArgs(z=(z1,)))
    assert res.method is sf.Method.SERIES
    ref = highprec_series(params, sf.MLArgs(z=(z1,)), digits=40).value
    assert abs(res.value - ref) <= res.abs_error_estimate
    with pytest.raises(sf.UncoveredRegionError):
        sf.mml_eval(params, sf.MLArgs(z=(10.0 * z1,)))


# ---------------------------------------------------------------------------
# Dispatch

def test_dispatch_small_uses_series():
    res = sf.mml_eval(sf.MLParams(beta0=1.0, betas=(0.5,)), sf.MLArgs(z=(-1.0,)))
    assert res.method is sf.Method.SERIES


def test_dispatch_large_uses_contour():
    res = sf.mml_eval(sf.MLParams(beta0=1.0, betas=(0.5,)), sf.MLArgs(z=(-1e8,)))
    assert res.method is sf.Method.CONTOUR
    assert abs(res.value) < 1e-6


def test_dispatch_crossover_agreement():
    params = sf.MLParams(beta0=1.0, betas=(0.6,))
    for x in (XC * 0.98, XC * 1.02):
        rs = sf.mml_series(params, sf.MLArgs(z=(-x,)))
        rc = sf.e_solver(x, FracOrders.single(0.6), 1.0, 1.0)
        assert abs(rs.value - rc) / abs(rc) < 1e-8
    res = sf.mml_eval(params, sf.MLArgs(z=(-XC * 1.02,)))
    assert res.method is sf.Method.CONTOUR and res.value == rc


def test_dispatch_uncovered_region():
    # Large argument away from the cut: no contour, and the series cannot
    # converge.
    params = sf.MLParams(beta0=1.0, betas=(0.5,))
    with pytest.raises(sf.UncoveredRegionError):
        sf.mml_eval(params, sf.MLArgs(z=(1e8,)))


# ---------------------------------------------------------------------------
# Solver-family helper

def test_e_solver_short_time_limit():
    # E -> 1 as t -> 0 at rate t^{a_1 - a_2} (the slowest argument).
    orders = FracOrders(alphas=(0.6, 0.2), qs=(1.0, 1.0))
    assert sf.e_solver(5.0, orders, 1.0, 0.0) == 1.0
    assert abs(sf.e_solver(5.0, orders, 1.0, 1e-9) - 1.0) < 1e-3
    assert abs(sf.e_solver(5.0, orders, 1.0, 1e-14) - 1.0) < 1e-5


def test_e_solver_classical_value():
    orders = FracOrders.single(0.5)
    val = sf.e_solver(1.0, orders, 1.0, 1.0)
    assert abs(val - E_HALF_AT_MINUS_1) < 1e-10


def test_e_solver_decay_bound():
    # |E^{(n)}_{1+a_1}(t)| <= C / (1 + lam t^{a_1}) observed on a sweep.
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.2))
    prods = []
    for lam in (1e1, 1e3, 1e5, 1e7):
        val = sf.e_solver(lam, orders, 1.8, 2.0)
        prods.append(abs(val) * (1.0 + lam * 2.0 ** 0.8))
    assert max(prods) < 5.0


def test_e_solver_many_broadcasts_like_scalar():
    # 1-D times by 1-D lams give the (times, lams) grid: for each beta0,
    # entry by entry what one scalar call gives.
    orders = FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5))
    lams = np.array([0.0, 0.5, 1.0, 5.0, 50.0, 5000.0])
    ts = np.array([0.0, 1e-8, 0.01, 0.5, 1.3, 20.0])
    for beta0 in (0.9, 1.0, 1.9):
        grid = sf.e_solver_many(lams, orders, beta0, ts)
        assert grid.shape == (ts.size, lams.size)
        scalar = np.array([[sf.e_solver(float(l), orders, beta0, float(t)) for l in lams]
                           for t in ts])
        np.testing.assert_allclose(grid, scalar, rtol=1e-12, atol=1e-15)
        assert np.all(grid[0] == 1.0 / sf.gamma_real(beta0))

    with pytest.raises(ValueError):
        sf.e_solver_many(lams, orders, 1.9, np.where(lams == 5.0, -1e-3, 1.0))
    with pytest.raises(ValueError):
        sf.e_solver(1.0, orders, 1.9, -1.0)
    with pytest.raises(ValueError):
        sf.e_solver(-1.0, orders, 1.9, 1.0)


def test_e_solver_many_rejects_non_finite():
    # A NaN time once took the t = 0 limit (NaN > 0 is False) and returned
    # 1/Gamma(beta0); a NaN or infinite lam or t is an input error.
    from mtfrac.solver import mode_amplitudes
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams = np.array([1.0, 10.0, 100.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            sf.e_solver_many(1.0, orders, 1.0, bad)
        with pytest.raises(ValueError, match="t must be finite"):
            mode_amplitudes(orders, lams, np.array([0.5, bad]))
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            sf.e_solver_many(bad, orders, 1.0, 1.0)
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            mode_amplitudes(orders, np.append(lams, bad), 0.5)


def test_e_solver_many_takes_one_row_and_1d_grids():
    # One beta0 (or AMPLITUDE) per call, and lams and ts each a scalar or a
    # 1-D array: a sequence of beta0, a 2-D lams and a 2-D ts each raise.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams, ts = np.array([1.0, 10.0, 100.0]), np.array([0.1, 0.5])
    for beta0 in ((1.0, 1.8), [1.0], np.array([1.0, 1.8])):
        with pytest.raises(ValueError, match="beta0 must be a number or AMPLITUDE"):
            sf.e_solver_many(lams, orders, beta0, ts)
    with pytest.raises(ValueError, match="eigenvalues must be a scalar or a 1-D array"):
        sf.e_solver_many(lams[None, :], orders, 1.8, ts)
    with pytest.raises(ValueError, match="t must be a scalar or a 1-D array"):
        sf.e_solver_many(lams, orders, sf.AMPLITUDE, ts[:, None])
    assert sf.e_solver_many(lams, orders, np.float64(1.8), ts).shape == (2, 3)


def _window_full_sum(orders, beta0s, lams, t, n, stride=1):
    """The n-node trapezoid sum of t's window, built here over the full
    symmetric node set k = -n..n, with the magnitude sum of its terms: each
    of shape (len(beta0s), lams.size).  ``stride`` = 2 keeps every other
    node with doubled weights, the step-2h rule on the same contour; a
    ``beta0s`` entry AMPLITUDE gives the mode amplitude's row."""
    alpha, a = sf._HYPERBOLA_ALPHA, sf._HYPERBOLA_A
    d = math.pi / 2.0 - alpha
    A, B = 1.0 - math.sin(alpha - d), math.sin(alpha) * math.cosh(a) - 1.0
    h = a / n
    mu = 2.0 * math.pi * d * n / (a * (B + sf._WINDOW_RATIO * A))
    t0 = sf._WINDOW_RATIO ** math.floor(math.log10(t))
    iu = 1j * h * np.arange(-n, n + 1, stride)
    s = mu / t0 * (1.0 + np.sin(iu - alpha))
    w = sum(q * s ** al for al, q in zip(orders.alphas, orders.qs))
    rows = np.array([w / s if sf._is_amplitude(b)
                     else s ** (orders.alphas[0] - b) * t ** (1.0 - b) for b in beta0s])
    terms = (stride * h / (2.0 * math.pi) * mu / t0 * np.cos(iu - alpha) * np.exp(s * t)
             * rows[:, None, :] / (w + lams[:, None]))
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def test_window_value_is_the_real_part_of_the_full_node_sum(laplace_spectrum):
    # The kernel sums the nodes with u >= 0 only, and in real arithmetic.
    # The value sum and the step-2h sum on its every other node, built here
    # over every node of the symmetric set, are real up to rounding: their
    # terms pair up as complex conjugates.  The kernel's value must equal
    # the real part of the full value sum, and its estimate must equal
    # |value - v_2h| e^{-pi d/h} plus 16 eps sum |terms|, each to within 8
    # eps times the sum of the term magnitudes.  On the propagator row
    # beta0 = a_1 (1/Gamma(0) = 0) the kernel may return the subtracted form
    # instead, whose estimate can lie far below the plain sum's rounding:
    # there the value must be within that floor plus its estimate of the
    # full value sum, and the estimate no larger than the plain one.  Times
    # at and inside window edges, three order sets.
    lams = laplace_spectrum.lambdas
    ts = np.array([1e-6, 0.5, 2.0, 1e2])
    eps = np.finfo(float).eps
    n = sf._HYPERBOLA_NODES
    factor = math.exp(-math.pi * (math.pi / 2.0 - sf._HYPERBOLA_ALPHA) * n / sf._HYPERBOLA_A)
    for alphas, qs in [((0.8, 0.5), (1.0, 1.5)), ((0.986, 0.5, 0.2), (1.0, 0.3, 0.2)),
                       ((0.25,), (1.0,))]:
        orders = FracOrders(alphas=alphas, qs=qs)
        a1 = alphas[0]
        beta0s = (1.0,) + tuple(1.0 + a1 - a for a in alphas[1:]) + (a1, 2.0 + a1)
        plain = np.array(beta0s) != a1
        values, ests = np.stack([sf._window_eval(orders, b, lams, ts) for b in beta0s],
                                axis=1)
        for i, t in enumerate(ts):
            full = []
            for stride in (1, 2):
                total, size = _window_full_sum(orders, beta0s, lams, t, n, stride)
                assert np.all(np.abs(total.imag) <= 8.0 * eps * size), (alphas, t, stride)
                full.append((total.real, size))
            (value, value_size), (coarse, coarse_size) = full
            floor = 8.0 * eps * (value_size + coarse_size)
            want = np.abs(values[:, i] - coarse) * factor + 16.0 * eps * value_size
            err = np.abs(values[:, i] - value)
            assert np.all(err[plain] <= floor[plain]), (alphas, t)
            assert np.all(np.abs(ests[plain, i] - want[plain]) <= floor[plain]), (alphas, t)
            plain_est = np.abs(value - coarse) * factor + 16.0 * eps * value_size
            assert np.all(err[~plain] <= floor[~plain] + ests[~plain, i]), (alphas, t)
            assert np.all(ests[~plain, i] <= plain_est[~plain] + floor[~plain]), (alphas, t)


def test_embedded_estimate_covers_the_truncation(laplace_spectrum):
    # The estimate |v_h - v_2h| e^{-pi d/h} compares two rules that both
    # stop at u = a, so it cannot see the truncation e^{-mu B}, largest at
    # a window's first time.  Against the N = 80 sum on the same hyperbola
    # (its own mu), built here over the full symmetric node set, every
    # error is within its estimate: the whole 255-mode spectrum, times
    # spread over [1e-8, 1e4] with every window start and the time just
    # below it, the amplitude row and two beta0 rows.  The propagator row
    # is left out: its plain N = 80 sum cancels, and Talbot judges it in
    # test_solver_family_accuracy_map.
    lams = laplace_spectrum.lambdas
    edges = 10.0 ** np.arange(-8, 5)
    ts = np.unique(np.concatenate([np.logspace(-8, 4, 61), edges,
                                   np.nextafter(edges, 0.0)]))
    worst = 0.0
    for alphas, qs in [((0.8, 0.5), (1.0, 1.5)), ((0.986, 0.5, 0.2), (1.0, 0.3, 0.2)),
                       ((0.3,), (1.0,)), ((0.75, 0.55, 0.35), (1.0, 1.2, 0.8))]:
        orders = FracOrders(alphas=alphas, qs=qs)
        beta0s = (alphas[0] + 0.5, 1.0 + alphas[0])
        values, ests = np.stack([sf._window_eval(orders, b, lams, ts)
                                 for b in (sf.AMPLITUDE,) + beta0s], axis=1)
        for i, t in enumerate(ts):
            ref, _ = _window_full_sum(orders, (sf.AMPLITUDE,) + beta0s, lams, t, 80)
            ratio = np.abs(values[:, i] - ref.real) / ests[:, i]
            assert np.all(ratio <= 1.0), (alphas, t, ratio.max())
            worst = max(worst, float(ratio.max()))
    print(f"worst error / estimate {worst:.3g}")


def test_solver_family_raises_above_its_tolerance(monkeypatch):
    # No entry is returned with an estimate above SOLVER_FAMILY_RTOL of its
    # value.  With a zero tolerance every positive-time entry fails, and
    # the error names the worst one; t = 0 entries are exact and pass.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams = np.array([1.0, 40.0])
    rows = {beta0: sf._solver_family(lams, orders, beta0, 0.5) for beta0 in (1.0, 0.8)}
    monkeypatch.setattr(sf, "SOLVER_FAMILY_RTOL", 0.0)
    for beta0, (values, ests) in rows.items():
        j = np.argmax(ests / np.abs(values))
        assert np.all(sf._solver_family(lams, orders, beta0, 0.0)[1] == 0.0)
        with pytest.raises(sf.QuadratureError, match="SOLVER_FAMILY_RTOL") as info:
            sf._solver_family(lams, orders, beta0, np.array([0.0, 0.5]))
        message = str(info.value)
        assert f"{ests[j] / abs(values[j]):.3g} of the value" in message
        assert f"lam = {lams[j]:.6g}, t = 0.5, beta0 = {beta0:.6g}" in message


def test_solver_family_grid_call_matches_general_path(laplace_spectrum, monkeypatch):
    # Every request order takes one route: the distinct times are evaluated
    # once, ascending, and the requested rows gathered.  Times shuffled and
    # repeated, and the decreasing grids of thm21 and thm22, give each row's
    # values and estimates bit-equal to the ascending call's, for 1-D and
    # scalar lams; with a zero tolerance every order's error names the same
    # entry.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams = laplace_spectrum.lambdas[::8]
    ts = np.array([0.0, 1e-3, 0.1, np.nextafter(1.0, 0.0), 1.0, 2.0, 300.0])
    orders_of_times = (np.array([3, 0, 6, 3, 1, 5, 2, 4, 6]), np.arange(ts.size)[::-1])
    for beta0 in (sf.AMPLITUDE, 1.0, 0.8):
        for lam in (lams, lams[5]):
            ascending = sf._solver_family(lam, orders, beta0, ts)
            for order in orders_of_times:
                requested = sf._solver_family(lam, orders, beta0, ts[order])
                for a, r in zip(ascending, requested):
                    assert np.array_equal(a[order], r), beta0
    monkeypatch.setattr(sf, "SOLVER_FAMILY_RTOL", 0.0)
    for beta0 in (sf.AMPLITUDE, 1.0, 0.8):
        messages = set()
        for times in (ts,) + tuple(ts[order] for order in orders_of_times):
            with pytest.raises(sf.QuadratureError, match="SOLVER_FAMILY_RTOL") as info:
                sf._solver_family(lams, orders, beta0, times)
            messages.add(str(info.value))
        assert len(messages) == 1, messages


def test_fallbacks_are_logged_at_debug(caplog):
    # A series-to-contour move of mml_eval is logged to the mtfrac logger at
    # DEBUG, and nothing is logged above it.  The solver family, which has
    # no fallback, logs nothing, also where its plain sum cancels.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    params = sf.solver_params(orders, 1.0)
    args = sf.solver_args(orders, 1.0, 0.5)  # sum |z_j| = 1.79, series side
    with caplog.at_level(logging.DEBUG, logger="mtfrac"):
        sf._solver_family(np.array([1.0, 2.5e4]), orders, 0.8, 300.0)
        assert sf.mml_eval(params, args, max_k=2).method is sf.Method.CONTOUR
    (record,) = caplog.records
    assert record.name.startswith("mtfrac") and record.levelno == logging.DEBUG
    assert "series did not converge at sum |z_j| = 1.79" in record.getMessage()

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mtfrac"):
        sf.mml_eval(params, args, max_k=2)
    assert not caplog.records


def test_solver_family_bookkeeping_matches_entrywise():
    # Empty batches, all-zero and mixed-zero times, scalar lams and scalar
    # times give the shape ts.shape + lams.shape and, entry by entry, what
    # one scalar call gives, for each beta0.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))

    def entrywise(lam, beta0, ts):
        lam, ts = np.asarray(lam, float), np.asarray(ts, float)
        out = [np.empty(ts.shape + lam.shape) for _ in range(2)]
        for i in np.ndindex(ts.shape):
            for j in np.ndindex(lam.shape):
                for o, r in zip(out, sf._solver_family(lam[j], orders, beta0, ts[i])):
                    o[i + j] = r
        return out

    lams = np.array([0.5, 3.0, 40.0, 700.0, 2.5e4])
    cases = [
        (np.empty(0), np.array([0.0, 0.5, 2.0])),
        (np.empty(0), 0.5),
        (lams, np.empty(0)),
        (lams, np.zeros(lams.size)),
        (lams, np.array([0.0, 1e-6, 0.0, 0.5, 2.0, 0.0, 1e2])),
        (7.0, np.array([0.0, 1e-3, 0.5, 2.0, 300.0])),
        (lams, np.array([1e-3, 0.5, 2.0])),
        (lams, 0.5),
        (7.0, 0.0),
    ]
    for (lam, ts), beta0 in itertools.product(cases, (1.0, 1.3, 0.8)):
        got = sf._solver_family(lam, orders, beta0, ts)
        want = entrywise(lam, beta0, ts)
        shape = np.shape(ts) + np.shape(lam)
        for g, w in zip(got, want):
            assert g.shape == w.shape == shape, (lam, beta0, ts)
        # One entry per call sums in another order: values agree within
        # the two estimates, and the estimates' rounding parts differ a bit.
        assert np.all(np.abs(got[0] - want[0]) <= got[1] + want[1])
        assert np.all(np.abs(got[1] - want[1]) <= 0.25 * np.maximum(got[1], want[1]))
        zero = np.broadcast_to((np.asarray(ts) == 0.0)[(...,) + (None,) * np.ndim(lam)],
                               shape)
        assert np.array_equal(got[0][zero], want[0][zero])
        assert np.all(got[1][zero] == 0.0)


def test_e_solver_many_matches_extended_precision_below_crossover():
    # The solver evaluates small arguments, sum |z_j| <= the series/contour
    # crossover of mml_eval, by the contour as well.
    from mtfrac.oracle import highprec_series
    cases = [  # alphas, qs, lam, t, beta0 - a_1
        ((0.5,), (1.0,), 2.1, 1.0, 0.0),
        ((0.3,), (1.0,), 2.1, 1.0, 0.0),
        ((0.8,), (1.0,), 2.0, 1.0, 1.0),
        ((0.8,), (1.0,), 1e3, 1e-8, 0.0),
        ((0.8, 0.5), (1.0, 1.0), 1.0, 1.0, 0.0),
        ((0.9, 0.3), (1.0, 0.5), 3.0, 0.3, 1.0),
        ((0.85, 0.45), (1.0, 1.0), 100.0, 1e-4, 0.0),
        ((0.9, 0.5, 0.2), (1.0, 0.3, 0.2), 1.0, 0.3, 1.0),
        ((0.9, 0.6, 0.3), (1.0, 1.0, 1.0), 10.0, 1e-8, 0.0),
    ]
    for alphas, qs, lam, t, shift in cases:
        orders = FracOrders(alphas=alphas, qs=qs)
        beta0 = alphas[0] + shift
        args = sf.solver_args(orders, lam, t)
        assert sum(abs(z) for z in args.z) <= XC
        ref = highprec_series(sf.solver_params(orders, beta0), args, digits=20).value.real
        val = float(sf.e_solver_many(lam, orders, beta0, t))
        assert abs(val - ref) <= 1e-12 * abs(ref), (alphas, lam, t, beta0)


def _talbot(orders, lam, t, beta0, dps=30):
    """mpmath Talbot inversion of s^{a_1-beta0} / (w(s) + lam), scaled by
    t^{1-beta0}: E^{(n)}_{beta0}(t) with no code shared with specfun."""
    with mp.workdps(dps):
        alphas = [mp.mpf(a) for a in orders.alphas]
        qs = [mp.mpf(q) for q in orders.qs]
        b0 = mp.mpf(beta0)

        def transform(s):
            w = sum(q * s ** a for a, q in zip(alphas, qs))
            return s ** (alphas[0] - b0) / (w + lam)

        f = mp.invertlaplace(transform, mp.mpf(t), method="talbot")
        return float(f * mp.mpf(t) ** (1 - b0))


def _amplitudes(orders, lams, ts):
    """Mode amplitudes, as solver.mode_amplitudes evaluates them, with
    their error estimates: the kernel's amplitude row."""
    from mtfrac.solver import mode_amplitudes
    _, est = sf._solver_family(lams, orders, sf.AMPLITUDE, ts)
    return mode_amplitudes(orders, lams, ts), est


def _amplitude_term_sum(orders, lams, ts):
    """The amplitude as the sum of positive terms
    E_1 + sum_{j>=2} q_j t^{a_1-a_j} E_{1+a_1-a_j}, each the kernel's own
    row, with the estimates of its terms added up likewise; ``ts`` is 1-D."""
    a1 = orders.alphas[0]
    value, est = sf._solver_family(lams, orders, 1.0, ts)
    for q, a in zip(orders.qs[1:], orders.alphas[1:]):
        d = a1 - a
        v_j, e_j = sf._solver_family(lams, orders, 1.0 + d, ts)
        value = value + q * ts[:, None] ** d * v_j
        est = est + q * ts[:, None] ** d * e_j
    return value, est


def _talbot_amplitude(orders, lam, t, dps=30):
    """mpmath Talbot inversion of w(s) / (s (w(s) + lam)), the mode
    amplitude, with no code shared with specfun."""
    with mp.workdps(dps):
        alphas = [mp.mpf(a) for a in orders.alphas]
        qs = [mp.mpf(q) for q in orders.qs]

        def transform(s):
            w = sum(q * s ** a for a, q in zip(alphas, qs))
            return w / (s * (w + lam))

        return float(mp.invertlaplace(transform, mp.mpf(t), method="talbot"))


AMPLITUDE_ORDERS = [((0.8, 0.5), (1.0, 1.5)), ((0.986, 0.5, 0.2), (1.0, 0.3, 0.2)),
                    ((0.25,), (1.0,)), ((0.9, 0.3), (1.0, 0.5)),
                    ((0.75, 0.55, 0.35), (1.0, 1.2, 0.8))]


def test_amplitude_row_matches_term_sum(laplace_spectrum):
    # The amplitude row inverts w(s) / (s (w(s) + lam)) in one sum; the m
    # rows E_1 and E_{1+a_1-a_j} invert its terms.  Over the whole
    # 255-mode spectrum and 73 times in [1e-8, 1e4], on window edges
    # (every fifth log-spaced time) and just below them, the two agree
    # within the sum of their estimates, and the row's own estimate stays
    # below SOLVER_FAMILY_RTOL of its value.
    lams = laplace_spectrum.lambdas
    below_edges = np.nextafter(10.0 ** np.arange(-7, 5), 0.0)
    ts = np.sort(np.concatenate([np.logspace(-8, 4, 61), below_edges]))
    for alphas, qs in AMPLITUDE_ORDERS:
        orders = FracOrders(alphas=alphas, qs=qs)
        value, est = sf._solver_family(lams, orders, sf.AMPLITUDE, ts)
        term_sum, term_est = _amplitude_term_sum(orders, lams, ts)
        assert value.shape == est.shape == (ts.size, lams.size)
        assert np.all(np.abs(value - term_sum) <= est + term_est), alphas
        assert np.all(est <= SOLVER_FAMILY_RTOL * value), alphas


def test_amplitude_matches_talbot_at_window_edges():
    # The times of test_window_edges_match_talbot, for a low, a middle and
    # the top mode of the 255-mode Laplacian: the amplitude row is within
    # max(1e-12, estimate) of mpmath Talbot.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams = np.array([1.0, 4096.0, 2.66e4])
    for t in (1e-3, 0.0999, 1.0, 9.99):
        values, ests = sf._solver_family(lams, orders, sf.AMPLITUDE, t)
        for j, lam in enumerate(lams):
            ref = _talbot_amplitude(orders, float(lam), t)
            assert abs(values[j] - ref) <= max(1e-12 * abs(ref), ests[j]), \
                (t, lam, values[j], ref)


def test_amplitude_row_bookkeeping(monkeypatch):
    # AMPLITUDE is one row: it gives the (times, lams) grid, exactly 1 at
    # t = 0, and names itself in the tolerance error.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    lams, ts = np.array([1.0, 40.0]), np.array([0.0, 0.5])
    values, ests = sf._solver_family(lams, orders, sf.AMPLITUDE, ts)
    assert values.shape == ests.shape == (2, 2)
    assert np.all(values[0] == 1.0) and np.all(ests[0] == 0.0)
    assert sf.e_solver(40.0, orders, sf.AMPLITUDE, 0.5) == values[1, 1]
    monkeypatch.setattr(sf, "SOLVER_FAMILY_RTOL", 0.0)
    with pytest.raises(sf.QuadratureError, match=r"t = 0.5, the amplitude"):
        sf._solver_family(lams, orders, sf.AMPLITUDE, ts)


def test_solver_family_accuracy_map(laplace_spectrum):
    # The (lam, t) range the solver visits: the whole n_interior = 255
    # spectrum (lam from about 1 to 2.66e4) and t over [1e-8, 1e4].  An
    # entry passes when its relative error is within max(1e-12, its own
    # reported estimate).
    from mtfrac.oracle import highprec_series, laplace_mode_eval
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    a1 = orders.alphas[0]
    lams = laplace_spectrum.lambdas
    ts = np.logspace(-8, 4, 13)

    def check(value, est, ref, where):
        assert abs(value - ref) <= max(1e-12, est / abs(ref)) * abs(ref), where

    # Amplitudes, whole spectrum x time grid, against every 16th mode and
    # the last.  Hankel inversion is the reference where it does not cancel
    # (lam t^{a_1} >= 1e-4); below that, 1 + z_1 E_{1+a_1} from the
    # extended-precision series.
    amps, ests = _amplitudes(orders, lams, ts)
    for i, t in enumerate(ts):
        for n in list(range(0, lams.size, 16)) + [lams.size - 1]:
            lam = float(lams[n])
            if lam * t ** a1 >= 1e-4:
                ref = laplace_mode_eval(lam, orders, 1.0, float(t))
            else:
                args = sf.solver_args(orders, lam, float(t))
                e = highprec_series(sf.solver_params(orders, 1.0 + a1), args,
                                    digits=20).mp_value
                ref = float((1 + args.z[0] * e).real)
            check(amps[i, n], ests[i, n], ref, ("amplitude", lam, t))

    # E^{(n)} against the extended-precision series below the series /
    # contour crossover: per mode, the latest grid time below it.
    for n in (0, 63, 127, 191, 254):
        lam = float(lams[n])
        t = max(t for t in ts
                if sum(abs(z) for z in sf.solver_args(orders, lam, t).z) <= XC)
        for beta0 in (a1, 1.0 + a1):
            value, est = sf._solver_family(lam, orders, beta0, t)
            ref = highprec_series(sf.solver_params(orders, beta0),
                                  sf.solver_args(orders, lam, t),
                                  digits=20).value.real
            check(float(value), float(est), ref, ("series", lam, t, beta0))

    # ... and against Talbot inversion above it.
    lam_max = float(lams[-1])
    for lam, t, beta0 in [(lam_max, 1e4, 1.0 + a1), (float(lams[127]), 1.0, a1),
                          (float(lams[63]), 1e-2, 1.0 + a1)]:
        value, est = sf._solver_family(lam, orders, beta0, t)
        check(float(value), float(est), _talbot(orders, lam, t, beta0),
              ("talbot", lam, t, beta0))
    # The propagator, whose plain sum cancels at large lam t^{a_1}, to
    # 1e-12 of Talbot whatever its estimate.
    for lam in (1.0, float(lams[127]), lam_max):
        for t in (1e-3, 3e2, 1e4):
            value, _ = sf._solver_family(lam, orders, a1, t)
            ref = _talbot(orders, lam, t, a1)
            assert abs(float(value) - ref) <= 1e-12 * abs(ref), ("propagator", lam, t)

    # The thm23 time grid stays within SOLVER_FAMILY_RTOL for every mode
    # (else the call raises).
    grid = 2.0 * (np.arange(1, 26) / 25) ** 2
    _amplitudes(orders, lams, grid)

    # The propagator's two forms overlap: where the plain sum, built here
    # over the full symmetric node set, is accurate (its own estimate at
    # most 1e-12 of its value), the returned value agrees with it within
    # the sum of the two estimates.  The subtracted form is taken on some
    # of those entries: its estimate is below the plain sum's.
    eps = np.finfo(float).eps
    lams = lams[::16]
    subtracted = 0
    for t in (1e-6, 1e-2, 0.5, 2.0, 1e2):
        value, est = sf._solver_family(lams, orders, a1, t)
        (plain, size), (check_sum, _) = (
            _window_full_sum(orders, (a1,), lams, t, n) for n in (40, 48))
        plain_est = np.abs(plain[0] - check_sum[0]) + 16.0 * eps * size[0]
        plain = plain[0].real
        accurate = plain_est <= 1e-12 * np.abs(plain)
        assert np.all(np.abs(value - plain)[accurate] <= (est + plain_est)[accurate]), t
        subtracted += np.count_nonzero(accurate & (est < plain_est))
    assert subtracted > 0


def test_window_batches_match_scalar_calls(laplace_spectrum):
    # The window is set by t alone, so an entry does not depend on the
    # other times of its batch.  Times on and next to window edges, mixed
    # with t = 0, in one (T, 255) block and in one call per entry, for each
    # beta0: values equal to rounding, and the exact t = 0 limit.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    a1, a2 = orders.alphas
    lams = laplace_spectrum.lambdas
    ts = np.array([1e-3, 0.0, 0.1, np.nextafter(0.1, 0.0), 1.0, 9.99])
    for beta0 in (1.0, 1.0 + a1 - a2, a1, 2.0 + a1):
        values, ests = sf._solver_family(lams, orders, beta0, ts)
        assert np.all(values[1] == 1.0 / sf.gamma_real(beta0)) and np.all(ests[1] == 0.0)
        single = [np.empty(values.shape), np.empty(ests.shape)]
        for i, t in enumerate(ts):
            for j, lam in enumerate(lams):
                for out, got in zip(single, sf._solver_family(lam, orders, beta0, t)):
                    out[i, j] = got
        np.testing.assert_allclose(values, single[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(ests, single[1], rtol=0.25, atol=0.0)


def test_window_edges_match_talbot():
    # Every beta0 the solver uses, at times that start and end windows
    # (t/t0 = 1 and just below 10), for a low, a middle and the top mode of
    # the 255-mode Laplacian: within max(1e-12, estimate) of mpmath Talbot.
    orders = FracOrders(alphas=(0.8, 0.5), qs=(1.0, 1.5))
    a1, a2 = orders.alphas
    beta0s = (1.0, 1.0 + a1 - a2, a1, 1.0 + a1 - 0.3, 1.0 + a1, 2.0 + a1)
    lams = np.array([1.0, 4096.0, 2.66e4])
    for t, beta0 in itertools.product((1e-3, 0.0999, 1.0, 9.99), beta0s):
        values, ests = sf._solver_family(lams, orders, beta0, t)
        for j, lam in enumerate(lams):
            ref = _talbot(orders, float(lam), t, beta0)
            assert abs(values[j] - ref) <= max(1e-12 * abs(ref), ests[j]), \
                (t, beta0, lam, values[j], ref)


# ---------------------------------------------------------------------------
# Identities

def test_lemma31_zero_args_exact():
    params = sf.MLParams(beta0=0.7, betas=(0.5, 0.3))
    assert sf.lemma31_residual(params, sf.MLArgs(z=(0.0, 0.0))) < 1e-15


def test_lemma31_random_small_args():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        betas = tuple(rng.uniform(0.4, 0.95, m))
        beta0 = float(rng.uniform(0.3, 1.0))
        radius = {1: 2.0, 2: 2.0, 3: 1.2}[m]
        z = tuple(radius * complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(m))
        params = sf.MLParams(beta0=beta0, betas=betas)
        assert sf.lemma31_residual(params, sf.MLArgs(z=z)) < 1e-10


def test_lemma31_classical_reduction():
    # m = 1, beta0 = 1: 1 + z E_{a,1+a}(z) = E_{a,1}(z).
    params = sf.MLParams(beta0=1.0, betas=(0.5,))
    assert sf.lemma31_residual(params, sf.MLArgs(z=(-1.0,))) < 1e-10


def test_derivative_identity_second_order():
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    lam, t = 3.0, 1.1
    a1 = orders.alphas[0]

    def f(u):
        return u ** a1 * sf.e_solver(lam, orders, 1.0 + a1, u)

    rhs = t ** (a1 - 1.0) * sf.e_solver(lam, orders, a1, t)
    errs = [abs((f(t + h) - f(t - h)) / (2 * h) - rhs) for h in (1e-2, 5e-3)]
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 2.0) < 0.2


def test_kernel_positivity_samples():
    from conftest import random_orders
    rng = np.random.default_rng(11)
    for _ in range(25):
        orders = random_orders(rng)
        lam = float(10 ** rng.uniform(-1, 3))
        t = float(10 ** rng.uniform(-2, 1.5))
        a1 = orders.alphas[0]
        assert t ** (a1 - 1.0) * sf.e_solver(lam, orders, a1, t) > 0.0
