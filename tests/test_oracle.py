import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from conftest import random_orders
from mtfrac import oracle as orc
from mtfrac import specfun as sf
from mtfrac.constants import HANKEL_EPS0
from mtfrac.solver import FracOrders, mode_amplitude


# ---------------------------------------------------------------------------
# Extended-precision series

def test_highprec_zero_args():
    params = sf.MLParams(beta0=0.5, betas=(0.4,))
    res = orc.highprec_series(params, sf.MLArgs(z=(0.0,)), digits=30)
    assert abs(res.value.real - 1.0 / math.sqrt(math.pi)) < 1e-15
    assert res.tail_bound == 0.0


def test_highprec_matches_double_series():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(1, 3))
        betas = tuple(rng.uniform(0.4, 0.9, m))
        beta0 = float(rng.uniform(0.5, 1.2))
        z = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(m))
        params = sf.MLParams(beta0=beta0, betas=betas)
        args = sf.MLArgs(z=z)
        ours = sf.mml_series(params, args, tol=1e-15)
        ref = orc.highprec_series(params, args, digits=30)
        assert abs(ours.value - ref.value) < 1e-14 * max(1.0, abs(ref.value))


def test_highprec_precision_self_consistency():
    params = sf.MLParams(beta0=1.0, betas=(0.5,))
    args = sf.MLArgs(z=(-1.0,))
    r30 = orc.highprec_series(params, args, digits=30)
    r60 = orc.highprec_series(params, args, digits=60)
    with mp.workdps(70):
        diff = abs(r30.mp_value - r60.mp_value)
        assert diff < mp.mpf(10) ** -29 * abs(r60.mp_value)


def test_highprec_gamma_argument_at_working_precision():
    # E_{0.3,0.3}(-2.1): the series cancels from terms near 1e5 down to
    # 0.03, so a Gamma argument 0.3 + 0.3 k rounded to double would cost
    # about nine digits (it returned 0.02986561852734586).
    params = sf.MLParams(beta0=0.3, betas=(0.3,))
    res = orc.highprec_series(params, sf.MLArgs(z=(-2.1,)), digits=30)
    ref = 0.02986561859323392420
    assert abs(res.value.real - ref) <= 1e-15 * ref


def test_highprec_rejects_hopeless_args():
    params = sf.MLParams(beta0=1.0, betas=(0.1,))
    with pytest.raises(ArithmeticError):
        orc.highprec_series(params, sf.MLArgs(z=(-50.0,)), digits=15)


# ---------------------------------------------------------------------------
# L1 stepper

def test_l1_zero_eigenvalue_constant_solution():
    orders = FracOrders.single(0.5)
    cfg = orc.L1Config(t_final=1.0, n_steps=64)
    _, us = orc.l1_solve_mode(0.0, orders, 3.5, None, cfg)
    np.testing.assert_allclose(us, 3.5, atol=1e-12)


def test_l1_single_term_classical_value():
    orders = FracOrders.single(0.5)
    cfg = orc.L1Config(t_final=1.0, n_steps=2048, grading=4.0)
    _, us = orc.l1_solve_mode(1.0, orders, 1.0, None, cfg)
    target = math.e * math.erfc(1.0)
    assert abs(us[-1] - target) < 1e-4


def test_l1_convergence_order():
    # Singularity-resolving grading, capped at 3: steeper meshes keep the
    # order but raise the error constant.
    for alpha in (0.3, 0.5, 0.8):
        orders = FracOrders.single(alpha)
        grading = min(3.0, max(1.5, (2.0 - alpha) / alpha))
        ends = []
        for n in (256, 512, 1024):
            cfg = orc.L1Config(t_final=1.0, n_steps=n, grading=grading)
            _, us = orc.l1_solve_mode(1.0, orders, 1.0, None, cfg)
            ends.append(us[-1])
        order = math.log2(abs(ends[0] - ends[1]) / abs(ends[1] - ends[2]))
        assert abs(order - (2.0 - alpha)) < 0.2


def test_l1_multi_term_agrees_with_amplitude():
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    lam = 2.0
    for t in (0.1, 1.0, 10.0):
        cfg = orc.L1Config(t_final=t, n_steps=3000, grading=2.0 / 0.8)
        _, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
        assert abs(us[-1] - mode_amplitude(orders, lam, t)) < 1e-3


def test_l1_source_term():
    # With a constant source the forced mode tends to f/lam.
    orders = FracOrders.single(0.6)
    cfg = orc.L1Config(t_final=50.0, n_steps=3000, grading=3.0)
    _, us = orc.l1_solve_mode(2.0, orders, 0.0, lambda t: 1.0, cfg)
    assert abs(us[-1] - 0.5) < 0.1


def test_l1_positivity_transfer():
    rng = np.random.default_rng(23)
    for _ in range(5):
        orders = random_orders(rng)
        lam = float(10 ** rng.uniform(-0.5, 1.5))
        cfg = orc.L1Config(t_final=2.0, n_steps=512, grading=2.0)
        _, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
        assert np.all(us > 0.0)
        assert np.all(us <= 1.0 + 1e-12)


def _l1_per_step(lam, orders, a_n, f_n, cfg, stop_abs=None, dtype=float):
    """The L1 recurrence one step at a time in ``dtype``, each step
    recomputing every term's weights from the mesh.  A weight
    x^e - (x - dt)^e, x = t_n - t_k, is formed as -x^e expm1(e log1p(-dt / x)),
    which does not cancel when dt is far below x (the tiny first steps of a
    steep mesh seen from late steps); differencing the two powers there
    loses up to 1e-7 of max|u|."""
    alphas = np.asarray(orders.alphas, dtype=float)
    qs = np.asarray(orders.qs, dtype=float)
    ts = orc.l1_mesh(cfg)
    fs = orc._source_values(f_n, ts).astype(dtype)
    u = np.empty(cfg.n_steps + 1, dtype=dtype)
    u[0] = a_n
    ginv = (1.0 / sf.gamma_real(2.0 - alphas)).astype(dtype)
    alphas, qs, ts = alphas.astype(dtype), qs.astype(dtype), ts.astype(dtype)
    for n in range(1, cfg.n_steps + 1):
        dt = np.diff(ts[: n + 1])
        back = ts[n] - ts[:n]
        with np.errstate(divide="ignore"):      # log1p(-1) at k = n - 1
            log_ratio = np.log1p(-dt / back)
        du = np.diff(u[:n])
        a_coef = 0.0
        hist = 0.0
        for j in range(alphas.size):
            e = 1.0 - alphas[j]
            d = -back ** e * np.expm1(e * log_ratio) * ginv[j] / dt
            a_coef += qs[j] * d[-1]
            if n > 1:
                hist += qs[j] * (d[:-1] @ du)
        denom = a_coef + lam
        if denom == 0.0:
            raise ArithmeticError("singular L1 update")
        u[n] = (a_coef * u[n - 1] - hist + fs[n]) / denom
        if not np.isfinite(u[n]):
            raise ArithmeticError("non-finite L1 step")
        if stop_abs is not None and abs(u[n]) >= stop_abs:
            return ts[: n + 1], u[: n + 1]
    return ts, u


def test_l1_blocked_matches_per_step_reference(monkeypatch):
    # Block edges, several blocks of exponential-sum history (3000 steps)
    # and both kinds of source.  The steep grading makes the first steps
    # tiny: the two agree to rounding amplified by the recurrence only if
    # neither differences large kernel powers over them, and that agreement
    # is far below the method's own error.
    b = orc._L1_BLOCK
    t_samp = np.linspace(0.0, 1.5, 7)
    sources = (lambda t: math.cos(3.0 * t), (t_samp, t_samp ** 2 - 1.0))
    for orders in (FracOrders.single(0.3),
                   FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.3)),
                   FracOrders(alphas=(0.85, 0.5, 0.25), qs=(1.0, 0.7, 2.0))):
        for i, n_steps in enumerate((2, b - 1, b, b + 1, 3 * b + 5, 3000)):
            cfg = orc.L1Config(t_final=1.5, n_steps=n_steps, grading=4.0)
            f_n = sources[(i + orders.m) % 2]
            ts, us = orc.l1_solve_mode(2.5, orders, 0.7, f_n, cfg)
            ts_ref, us_ref = _l1_per_step(2.5, orders, 0.7, f_n, cfg)
            np.testing.assert_array_equal(ts, ts_ref)
            assert np.max(np.abs(us - us_ref)) <= 1e-8 * np.max(np.abs(us_ref))

    # The first bad step of a block is the one named.
    with pytest.raises(ArithmeticError, match=r"non-finite value at t=0\.51$"):
        orc.l1_solve_mode(1.0, FracOrders.single(0.5), 1.0,
                          lambda t: math.inf if t > 0.5 else 0.0,
                          orc.L1Config(t_final=1.0, n_steps=100))

    # stop_abs inside a block: u rises monotonically to f / lam = 0.4, and the
    # threshold is crossed first at step 2B + 17.
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.3))
    cfg = orc.L1Config(t_final=1.5, n_steps=4 * b, grading=4.0)
    n_stop = 2 * b + 17
    _, us_full = _l1_per_step(2.5, orders, 0.0, lambda t: 1.0, cfg)
    assert np.all(np.diff(us_full) > 0.0)
    stop = 0.5 * (us_full[n_stop - 1] + us_full[n_stop])
    ts, us = orc.l1_solve_mode(2.5, orders, 0.0, lambda t: 1.0, cfg, stop_abs=stop)
    ts_ref, us_ref = _l1_per_step(2.5, orders, 0.0, lambda t: 1.0, cfg, stop_abs=stop)
    assert us.size == us_ref.size == n_stop + 1
    np.testing.assert_array_equal(ts, ts_ref)
    assert np.max(np.abs(us - us_ref)) <= 1e-8 * np.max(np.abs(us_ref))

    # stop_abs ends the growing run at the same step as the reference.
    cfg = orc.L1Config(t_final=5.0, n_steps=4096, grading=4.0)
    ours = [orc.counterexample_run(10.0, cfg, flip_sign=f) for f in (False, True)]
    monkeypatch.setattr(orc, "l1_solve_mode", _l1_per_step)
    refs = [orc.counterexample_run(10.0, cfg, flip_sign=f) for f in (False, True)]
    assert [r.verdict for r in ours] == [r.verdict for r in refs] == ["grows", "decays"]
    assert [r.values.size for r in ours] == [r.values.size for r in refs]
    assert ours[0].values.size < cfg.n_steps + 1


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
def test_l1_block_solve_rounding_does_not_accumulate():
    # Slowly decaying modes over 600 steps, against the step-by-step
    # recurrence in long double.  The step-by-step double recurrence drifts
    # to 0.6-0.9e-14 of max|u| here; the block solve stays at a few eps.
    for orders, lam, grading in ((FracOrders.single(0.9), 0.1, 1.0),
                                 (FracOrders(alphas=(0.9, 0.5), qs=(1.0, 0.5)), 0.1, 1.0),
                                 (FracOrders(alphas=(0.85, 0.6, 0.3), qs=(1.0, 0.7, 0.4)), 0.2, 1.5)):
        cfg = orc.L1Config(t_final=2.0, n_steps=600, grading=grading)
        _, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
        _, us_ref = _l1_per_step(lam, orders, 1.0, None, cfg, dtype=np.longdouble)
        assert np.max(np.abs(us - us_ref)) <= 1e-15 * np.max(np.abs(us_ref)), orders.m


def test_l1_singular_update_raises():
    # a_coef + lam is exactly 0 on the first step.
    with pytest.raises(ArithmeticError, match="singular L1 update"):
        orc.l1_solve_mode(-2.0 / math.gamma(1.5), FracOrders.single(0.5), 1.0,
                          None, orc.L1Config(t_final=1.0, n_steps=4))
    # ... and on the sixth, after the steps before it ran their checks.
    orders = FracOrders.single(0.5)
    cfg = orc.L1Config(t_final=1.0, n_steps=8, grading=2.0)
    ts = orc.l1_mesh(cfg)
    near = orc._l1_near_weights(ts[None, 1:9], ts[None, 0:9], np.array([0.5]),
                                1.0 / sf.gamma_real(np.array([1.5])))[0]
    lam = -near[5, 5] / (ts[6] - ts[5])
    assert near[5, 5] + lam * (ts[6] - ts[5]) == 0.0
    with pytest.raises(ArithmeticError, match="singular L1 update"):
        orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
    ts, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg, stop_abs=2.0)
    ts_ref, us_ref = _l1_per_step(lam, orders, 1.0, None, cfg, stop_abs=2.0)
    assert us.size == us_ref.size < 6
    np.testing.assert_allclose(us, us_ref, rtol=1e-13)


def _l1_by_chunk(monkeypatch, *args, **kw):
    """l1_solve_mode with the default chunk of blocks and with one block per
    chunk; an ArithmeticError is returned as its message."""
    out = []
    for chunk in (orc._L1_CHUNK, 1):
        with monkeypatch.context() as mp:
            mp.setattr(orc, "_L1_CHUNK", chunk)
            try:
                out.append(orc.l1_solve_mode(*args, **kw))
            except ArithmeticError as exc:
                out.append(str(exc))
    return out


def test_l1_chunk_size_does_not_change_the_solution(monkeypatch):
    # The stepper builds its mesh-only arrays for _L1_CHUNK blocks at once.
    # Building them one block at a time gives the same bits: at the edges of
    # a chunk, over many chunks, and where a run stops or meets a zero pivot
    # in a block that is not the first of its chunk.
    b, g = orc._L1_BLOCK, orc._L1_CHUNK
    assert g > 2
    t_samp = np.linspace(0.0, 1.5, 7)
    sources = (lambda t: math.cos(3.0 * t), (t_samp, t_samp ** 2 - 1.0))
    for orders in (FracOrders.single(0.3),
                   FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.3)),
                   FracOrders(alphas=(0.85, 0.5, 0.25), qs=(1.0, 0.7, 2.0))):
        for n_steps in (g * b - 1, g * b, g * b + 1, 3000):
            cfg = orc.L1Config(t_final=1.5, n_steps=n_steps, grading=4.0)
            for f_n in sources:
                (ts, us), (ts_1, us_1) = _l1_by_chunk(monkeypatch, 2.5, orders, 0.7, f_n, cfg)
                assert us.size == n_steps + 1
                assert np.array_equal(ts, ts_1) and np.array_equal(us, us_1)

    # stop_abs at step 2B + 17, in the third block of the first chunk.
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.3))
    cfg = orc.L1Config(t_final=1.5, n_steps=4 * b, grading=4.0)
    n_stop = 2 * b + 17
    _, us_full = orc.l1_solve_mode(2.5, orders, 0.0, lambda t: 1.0, cfg)
    assert np.all(np.diff(us_full) > 0.0)
    stop = 0.5 * (us_full[n_stop - 1] + us_full[n_stop])
    (ts, us), (ts_1, us_1) = _l1_by_chunk(monkeypatch, 2.5, orders, 0.0, lambda t: 1.0,
                                          cfg, stop_abs=stop)
    assert us.size == n_stop + 1
    assert np.array_equal(ts, ts_1) and np.array_equal(us, us_1)

    # An exact zero pivot at step B + 18, in the second block: both raise, and
    # a stop two steps before it returns the same prefix from the block's
    # re-solve.
    orders = FracOrders.single(0.5)
    cfg = orc.L1Config(t_final=1.0, n_steps=4 * b, grading=2.0)
    ts = orc.l1_mesh(cfg)
    near = orc._l1_near_weights(ts[None, b + 1:2 * b + 1], ts[None, b:2 * b + 1],
                                np.array([0.5]), 1.0 / sf.gamma_real(np.array([1.5])))[0]
    n_piv = b + 18
    dt = ts[n_piv] - ts[n_piv - 1]
    lam = -near[17, 17] / dt
    assert near[17, 17] + lam * dt == 0.0
    assert _l1_by_chunk(monkeypatch, lam, orders, 1.0, None, cfg) == [
        "singular L1 update (a_coef + lam = 0)"] * 2
    _, us_near = orc.l1_solve_mode(lam * (1.0 + 1e-9), orders, 1.0, None, cfg)
    assert np.all(np.diff(np.abs(us_near[:n_piv])) > 0.0)
    stop = math.sqrt(abs(us_near[n_piv - 3] * us_near[n_piv - 2]))
    (ts, us), (ts_1, us_1) = _l1_by_chunk(monkeypatch, lam, orders, 1.0, None, cfg,
                                          stop_abs=stop)
    assert us.size == n_piv - 1
    assert np.array_equal(ts, ts_1) and np.array_equal(us, us_1)


@pytest.mark.parametrize("a", (0.02, 0.1, 0.3, 0.5, 0.8, 0.99))
def test_exp_sum_matches_power(a):
    # The history kernel's exponential sum, one term at a time, relative
    # to x^{-a} over its whole range.
    for ratio in (1e-3, 1e-9, 3e-11):
        for x_max in (0.5, 20.0):
            nodes, weights = orc._exp_sum(np.array([a]), np.array([1.0]),
                                          ratio * x_max, x_max)
            x = np.geomspace(ratio * x_max, x_max, 3000)
            approx = x ** a * (np.exp(-np.outer(x, nodes)) @ weights)
            assert np.max(np.abs(approx - 1.0)) <= 1e-13, (ratio, x_max)


def test_l1_rejects_orders_outside_unit_interval():
    cfg = orc.L1Config(t_final=1.0, n_steps=64)
    for alphas in ((1.0,), (0.5, 0.0), (1.2, 0.5)):
        orders = SimpleNamespace(alphas=alphas, qs=(1.0,) * len(alphas))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            orc.l1_solve_mode(1.0, orders, 1.0, None, cfg)


def test_l1_config_validation():
    with pytest.raises(ValueError):
        orc.L1Config(t_final=-1.0, n_steps=16)
    with pytest.raises(ValueError):
        orc.L1Config(t_final=1.0, n_steps=1)
    with pytest.raises(ValueError):
        orc.L1Config(t_final=1.0, n_steps=16, grading=0.5)


# ---------------------------------------------------------------------------
# Laplace inversion along the cut

def test_hankel_agrees_with_amplitude():
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    val = orc.laplace_mode_eval(5.0, orders, 1.0, 10.0)
    amp = mode_amplitude(orders, 5.0, 10.0)
    assert abs(val - amp) / abs(amp) < 1e-6


def test_hankel_remainder_scaling():
    # |u_n(t) - leading| * lam * t^{a_{m-1}} / |a_n| stays bounded.
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    lam = 5.0
    scaled = []
    for t in (1e2, 1e3, 1e4):
        val = orc.laplace_mode_eval(lam, orders, 1.0, t)
        lead = 1.0 / (lam * sf.gamma_real(0.6) * t ** 0.4)
        scaled.append(abs(val - lead) * lam * t ** 0.8)
    assert max(scaled) < 10.0 * max(min(scaled), 1e-12)


def test_symbol_has_no_zero_on_cut():
    orders = FracOrders(alphas=(0.9, 0.3), qs=(1.0, 1.5))
    r = np.logspace(-8, 6, 200)
    w = orc.laplace_symbol(orders, 4.0, r * np.exp(1j * math.pi))
    assert float(np.min(np.abs(w))) > 0.0


def test_hankel_integrand_two_regime_bounds():
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    lam = 20.0
    eps0 = 0.1
    # small radii: |H| <= (C/lam) (sum r^{a_j - 1} + sum r^{a_j + a_m - 1})
    r_small = np.logspace(-8, math.log10(eps0 * lam), 120)
    shape = (r_small ** (0.8 - 1.0)
             + r_small ** (0.8 + 0.4 - 1.0) + r_small ** (0.4 + 0.4 - 1.0))
    ratio_small = np.abs(orc.hankel_integrand(orders, lam, r_small)) / (shape / lam)
    # large radii: |H| <= C
    r_large = np.logspace(math.log10(eps0 * lam), 5, 120)
    h_large = np.abs(orc.hankel_integrand(orders, lam, r_large))
    c_small = float(np.max(ratio_small))
    c_large = float(np.max(h_large))
    assert math.isfinite(c_small) and math.isfinite(c_large)
    # calibrated constants are stable under grid refinement
    r_small2 = np.logspace(-8, math.log10(eps0 * lam), 240)
    shape2 = (r_small2 ** -0.2 + r_small2 ** 0.2 + r_small2 ** -0.2)
    ratio2 = np.abs(orc.hankel_integrand(orders, lam, r_small2)) / (shape2 / lam)
    assert float(np.max(ratio2)) <= 1.1 * c_small


def test_hankel_integrand_matches_complex_form():
    # The real-axis integrand against the complex powers of s = r e^{i pi}.
    r = np.geomspace(1e-12, 1e4, 400)
    s = r * np.exp(1j * math.pi)
    for orders in (FracOrders.single(0.45),
                   FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.3)),
                   FracOrders(alphas=(0.85, 0.5, 0.25), qs=(1.0, 0.7, 2.0))):
        for lam in (0.3, 5.0, 2.0e4):
            ratio = sum(q * s ** (a - 1.0) for a, q in zip(orders.alphas, orders.qs))
            ratio = ratio / orc.laplace_symbol(orders, lam, s)
            lead = (orders.qs[-1] / lam) * s ** (orders.alphas[-1] - 1.0)
            ref = -(ratio - lead).imag / math.pi
            size = (np.abs(ratio) + np.abs(lead)) / math.pi
            err = np.abs(orc.hankel_integrand(orders, lam, r) - ref)
            assert np.all(err <= 1e-13 * size), (orders.m, lam)


def _hankel_quad_per_panel(orders, lam, t, n):
    """Panel quadrature of the cut integral, one integrand call per panel."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    r_max = orc._HANKEL_RT_MAX / t
    r_split = min(HANKEL_EPS0 * lam, r_max)
    r_lo = r_split * 1e-60
    edges = [r_lo * (r_split / r_lo) ** (np.arange(n + 1) / n)]
    if r_max > r_split:
        edges.append(r_split * (r_max / r_split) ** (np.arange(1, n + 1) / n))
    grid = np.concatenate(edges)
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        r = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(
            (gl_w * orc.hankel_integrand(orders, lam, r) * np.exp(-r * t)).sum())
    below = abs(orc.hankel_integrand(orders, lam, np.array([r_lo]))[0]) * r_lo * 2.0
    return total, below, grid


def test_hankel_panels_match_per_panel_reference(monkeypatch):
    orders = FracOrders(alphas=(0.8, 0.4), qs=(1.0, 1.0))
    split_kinds = set()
    for t in (0.5, 20.0):
        for lam in (5.0, 2000.0):
            split_kinds.add(HANKEL_EPS0 * lam < orc._HANKEL_RT_MAX / t)
            for n_panels in (orc._HANKEL_PANELS, 2 * orc._HANKEL_PANELS):
                total, below, grid = orc._hankel_quad(orders, lam, t, n_panels)
                ref_total, ref_below, ref_grid = _hankel_quad_per_panel(
                    orders, lam, t, n_panels)
                np.testing.assert_array_equal(grid, ref_grid)
                assert below == ref_below
                assert abs(total - ref_total) <= 1e-14 * abs(ref_total)
    assert split_kinds == {True, False}
    # Too few panels: the doubled-panel check still refuses the value.
    monkeypatch.setattr(orc, "_HANKEL_PANELS", 8)
    for lam in (5.0, 2000.0):
        with pytest.raises(ArithmeticError, match="refinement disagreement"):
            orc.laplace_mode_eval(lam, orders, 1.0, 20.0)


def test_hankel_config_validation():
    with pytest.raises(ValueError):
        orc.laplace_mode_eval(1.0, FracOrders.single(0.5), 1.0, 0.0)


# ---------------------------------------------------------------------------
# Counterexample

def test_counterexample_roots_closed_form():
    for lam in (1.0, 10.0, 123.0):
        r_minus, r_plus = orc.counterexample_roots(lam)
        disc = math.sqrt(9.0 * lam * lam - 4.0 * lam)
        assert abs(r_plus - (3.0 * lam + disc) / 2.0) < 1e-12 * r_plus
        assert abs(r_minus - (3.0 * lam - disc) / 2.0) < 1e-12 * max(r_minus, 1.0)
    r_minus, r_plus = orc.counterexample_roots(1.0)
    assert abs(r_plus - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
    assert abs(r_minus - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
    with pytest.raises(ValueError):
        orc.counterexample_roots(0.1)  # 9 lam^2 - 4 lam < 0


def test_counterexample_quartic_root_of_symbol():
    # r_+ solves the symbol as a quadratic in s^{1/4}: w(r^4) = 0.
    lam = 10.0
    _, r_plus = orc.counterexample_roots(lam)
    s = r_plus ** 4
    w = s ** 0.5 - 3.0 * lam * s ** 0.25 + lam
    assert abs(w) < 1e-9 * lam


def test_counterexample_growth_and_control():
    cfg = orc.L1Config(t_final=5.0, n_steps=4096, grading=4.0)
    res = orc.counterexample_run(10.0, cfg)
    assert res.verdict == "grows"
    assert np.max(np.abs(res.values)) >= 10.0
    control = orc.counterexample_run(10.0, cfg, flip_sign=True)
    assert control.verdict == "decays"
    assert abs(control.values[-1]) < 1.0


def test_l1_error_within_own_estimate():
    # Richardson gap |u_N - u_{N/2}| dominates the true error for any
    # convergence order >= 1, so it serves as the method's error estimate.
    rng = np.random.default_rng(31)
    for _ in range(3):
        orders = random_orders(rng, alpha_lo=0.25, alpha_hi=0.85)
        lam = float(10 ** rng.uniform(-0.3, 1.0))
        grading = min(3.0, 2.0 / orders.alphas[0])
        t = 2.0
        ends = {}
        for n in (1500, 3000):
            cfg = orc.L1Config(t_final=t, n_steps=n, grading=grading)
            _, us = orc.l1_solve_mode(lam, orders, 1.0, None, cfg)
            ends[n] = us[-1]
        est = abs(ends[3000] - ends[1500])
        true_err = abs(ends[3000] - mode_amplitude(orders, lam, t))
        assert true_err <= 2.0 * est + 1e-12


def test_l1_accepts_sampled_source_tuple():
    orders = FracOrders.single(0.6)
    cfg = orc.L1Config(t_final=1.0, n_steps=256)
    t_samp = np.linspace(0.0, 1.0, 33)
    by_tuple = orc.l1_solve_mode(1.0, orders, 0.0, (t_samp, np.ones(33)), cfg)
    by_callable = orc.l1_solve_mode(1.0, orders, 0.0, lambda t: 1.0, cfg)
    np.testing.assert_allclose(by_tuple[1], by_callable[1], atol=1e-12)
