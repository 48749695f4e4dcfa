import math

import numpy as np
import pytest

from mtfrac import spectral as sp


def test_assemble_constant_coefficients_is_laplacian_stencil(small_op):
    tri = sp.assemble(small_op)
    h = small_op.h
    np.testing.assert_allclose(tri.diag, 2.0 / h ** 2, rtol=1e-14)
    np.testing.assert_allclose(tri.off, -1.0 / h ** 2, rtol=1e-14)
    dense = np.diag(tri.diag) + np.diag(tri.off, 1) + np.diag(tri.off, -1)
    np.testing.assert_array_equal(dense, dense.T)


def test_assemble_positive_definite(small_spectrum):
    assert small_spectrum.lambdas[0] > 0


def test_operator_invariants_rejected():
    n = 15
    xs = np.linspace(0, 1, n + 2)
    with pytest.raises(ValueError):
        sp.Operator1D(x_left=0.0, x_right=1.0, n_interior=n,
                      diffusion=np.zeros(n + 2), potential=np.zeros(n))
    with pytest.raises(ValueError):
        sp.Operator1D(x_left=0.0, x_right=1.0, n_interior=n,
                      diffusion=np.ones(n + 2), potential=np.ones(n))
    with pytest.raises(ValueError):
        sp.Operator1D(x_left=1.0, x_right=0.0, n_interior=n,
                      diffusion=np.ones(n + 2), potential=np.zeros(n))


def test_discrete_spectrum_closed_form(small_op, small_spectrum):
    h = small_op.h
    n = np.arange(1, small_op.n_interior + 1)
    closed = (4.0 / h ** 2) * np.sin(n * h / 2.0) ** 2
    np.testing.assert_allclose(small_spectrum.lambdas, closed, rtol=1e-10)


def test_lambda1_second_order_continuum_convergence():
    errs = []
    for n in (63, 127, 255):
        op = sp.Operator1D.from_callables((0.0, math.pi), n)
        s = sp.eigendecompose_operator(op)
        errs.append(abs(s.lambdas[0] - 1.0))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:
        assert abs(r - 4.0) < 0.4  # within 10% of second order


def test_orthonormality(small_spectrum):
    assert sp.check_orthonormal(small_spectrum) < 1e-10


def test_project_eigenmode(small_spectrum):
    f = small_spectrum.eigvecs[:, 2]
    a = sp.project(f, small_spectrum)
    assert abs(a[2] - 1.0) < 1e-10
    mask = np.ones(a.size, dtype=bool)
    mask[2] = False
    assert np.max(np.abs(a[mask])) < 1e-10


def test_project_zero_and_mismatch(small_spectrum):
    assert np.all(sp.project(np.zeros(63), small_spectrum) == 0)
    with pytest.raises(ValueError):
        sp.project(np.zeros(10), small_spectrum)
    with pytest.raises(ValueError, match=r"\(63,\) or \(T, 63\)"):
        sp.project(np.zeros((2, 3, 63)), small_spectrum)


@pytest.mark.parametrize("n_modes", [1, 40, 63])
def test_project_synthesize_vectors_and_blocks(small_spectrum, n_modes):
    # A vector is the explicit matrix-vector product, bit for bit; each row
    # of a (T, .) block is that vector's result up to rounding.
    s = small_spectrum
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((25, n_modes))
    grid = rng.standard_normal((25, s.eigvecs.shape[0]))
    np.testing.assert_array_equal(sp.synthesize(coeffs[0], s),
                                  s.eigvecs[:, :n_modes] @ coeffs[0])
    np.testing.assert_array_equal(sp.project(grid[0], s), s.h * (s.eigvecs.T @ grid[0]))
    for block, fn in ((coeffs, sp.synthesize), (grid, sp.project)):
        rows = np.array([fn(row, s) for row in block])
        got = fn(block, s)
        assert got.shape == rows.shape
        np.testing.assert_allclose(got, rows, rtol=0.0, atol=1e-14 * np.max(np.abs(rows)))
    norms = sp.frac_norm(grid, 0.5, s)
    np.testing.assert_allclose(norms, [sp.frac_norm(row, 0.5, s) for row in grid],
                               rtol=1e-14)


def test_parseval(small_op, small_spectrum):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(small_op.n_interior)
    a = sp.project(f, small_spectrum)
    l2sq = small_op.h * float(np.sum(f ** 2))
    assert abs(np.sum(a ** 2) - l2sq) < 1e-10 * l2sq


def test_synthesize_roundtrip_and_linearity(small_op, small_spectrum):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(small_op.n_interior)
    a = sp.project(f, small_spectrum)
    np.testing.assert_allclose(sp.synthesize(a, small_spectrum), f, atol=1e-10)
    e1 = np.zeros(small_spectrum.n_modes)
    e1[0] = 1.0
    np.testing.assert_allclose(sp.synthesize(e1, small_spectrum),
                               small_spectrum.eigvecs[:, 0], atol=1e-14)
    b = rng.standard_normal(small_op.n_interior)
    lhs = sp.synthesize(a + b, small_spectrum)
    rhs = sp.synthesize(a, small_spectrum) + sp.synthesize(b, small_spectrum)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    with pytest.raises(ValueError):
        sp.synthesize(np.zeros(small_spectrum.n_modes + 1), small_spectrum)
    with pytest.raises(ValueError, match="64 coefficients"):
        sp.synthesize(np.zeros((2, 64)), small_spectrum)
    with pytest.raises(ValueError, match=r"\(n,\) or \(T, n\)"):
        sp.synthesize(np.zeros((2, 3, 63)), small_spectrum)


def test_frac_norm_special_cases(small_op, small_spectrum):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(small_op.n_interior)
    l2 = math.sqrt(small_op.h * float(np.sum(f ** 2)))
    assert abs(sp.frac_norm(f, 0.0, small_spectrum) - l2) < 1e-10 * l2
    phi1 = small_spectrum.eigvecs[:, 0]
    lam1 = small_spectrum.lambdas[0]
    assert abs(sp.frac_norm(phi1, 1.0, small_spectrum) - lam1) < 1e-9
    assert abs(sp.frac_norm(phi1, -1.0, small_spectrum) - 1.0 / lam1) < 1e-9


def test_frac_norm_monotone_in_gamma(small_spectrum):
    # For mass on eigenvalues >= 1 the norm grows with gamma.
    coeffs = np.zeros(small_spectrum.n_modes)
    coeffs[4:10] = 1.0  # lambda_n >= 1 there
    f = sp.synthesize(coeffs, small_spectrum)
    norms = [sp.frac_norm(f, g, small_spectrum) for g in (0.0, 0.25, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("n_modes", [7, 63])
def test_modal_frac_norm_block_matches_rows(small_spectrum, n_modes):
    # A (T, n) block gives each row's own norm, bit for bit.
    rng = np.random.default_rng(11)
    block = rng.standard_normal((25, n_modes))
    for gamma in (0.0, 0.3, 0.5, 1.0):
        norms = sp.modal_frac_norm(block, gamma, small_spectrum)
        assert norms.shape == (25,)
        rows = [sp.modal_frac_norm(row, gamma, small_spectrum) for row in block]
        assert all(isinstance(r, float) for r in rows)
        np.testing.assert_array_equal(norms, rows)


def test_dirichlet_energy_identity():
    op = sp.Operator1D.from_callables(
        (0.0, math.pi), 127,
        diffusion=lambda x: 1.0 + 0.3 * math.sin(x),
        potential=lambda x: -0.5)
    s = sp.eigendecompose_operator(op)
    x = op.interior_x
    f = np.sin(x) * np.exp(x / 3.0)
    e_spec = sp.frac_norm(f, 0.5, s) ** 2
    fb = np.concatenate([[0.0], f, [0.0]])
    d_half = 0.5 * (op.diffusion[:-1] + op.diffusion[1:])
    e_dir = (np.sum(d_half * np.diff(fb) ** 2) / op.h
             - op.h * np.sum(op.potential * f ** 2))
    assert abs(e_spec - e_dir) < 1e-8 * e_dir


def test_modal_division_inverts_assembled_operator(small_op, small_spectrum):
    def inverse(f):
        return sp.synthesize(sp.project(f, small_spectrum)
                             / small_spectrum.lambdas, small_spectrum)

    phi1 = small_spectrum.eigvecs[:, 0]
    lam1 = small_spectrum.lambdas[0]
    np.testing.assert_allclose(inverse(phi1), phi1 / lam1, atol=1e-12)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(small_op.n_interior)
    u = inverse(f)
    tri = sp.assemble(small_op)
    product = tri.diag * u
    product[:-1] += tri.off * u[1:]
    product[1:] += tri.off * u[:-1]
    assert np.max(np.abs(product - f)) < 1e-8
    g = rng.standard_normal(small_op.n_interior)
    np.testing.assert_allclose(inverse(f + g), inverse(f) + inverse(g),
                               atol=1e-10)


def test_variable_coefficients_keep_orthonormality():
    op = sp.Operator1D.from_callables(
        (0.0, 2.0), 99,
        diffusion=lambda x: 2.0 + np.cos(3 * x),
        potential=lambda x: -x)
    s = sp.eigendecompose_operator(op)
    assert sp.check_orthonormal(s) < 1e-10
    assert s.lambdas[0] > 0


def test_eigenvector_signs_match_first_entry_reference():
    # Each column's sign makes its first entry above 1e-14 positive.  The
    # columns whose row-0 entry is at or below it take the fallback: the
    # top modes of a linear diffusion (evanescent near x = 0) and a
    # decoupled matrix whose first row is an eigenvector of its own.  The
    # result equals, bit for bit, the reference that scales every column
    # first and then searches each one.
    from scipy.linalg import eigh_tridiagonal
    linear = sp.assemble(sp.Operator1D.from_callables((0.0, np.pi), 255,
                                                      diffusion=lambda x: 1.0 + 0.5 * x))
    decoupled = sp.Tridiag(diag=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                           off=np.array([0.0, 0.0, 1.0, 0.0, 1.0]), h=0.3)
    for matrix in (linear, decoupled):
        vecs = eigh_tridiagonal(matrix.diag, matrix.off)[1] / np.sqrt(matrix.h)
        assert np.any(np.abs(vecs[0]) <= 1e-14)
        first = np.argmax(np.abs(vecs) > 1e-14, axis=0)
        flip = vecs[first, np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]
        got = sp.eigendecompose(matrix).eigvecs
        assert got.tobytes() == vecs.tobytes()
        assert np.all(got[first, np.arange(got.shape[1])] > 0.0)
