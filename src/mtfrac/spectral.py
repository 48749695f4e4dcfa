"""1D symmetric elliptic operator: discretization, eigensystem, norms.

The operator is -(d/dx)(D(x) d/dx) - c(x) acting on an interval with
homogeneous Dirichlet conditions, D >= delta > 0 and c <= 0, discretized
with the conservative second-order stencil on a uniform grid.  Grid
functions carry interior node values only; the discrete L2 inner product is
(u, v)_h = h sum u_i v_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "Operator1D",
    "Spectrum",
    "Tridiag",
    "assemble",
    "eigendecompose",
    "eigendecompose_operator",
    "project",
    "synthesize",
    "frac_norm",
    "modal_frac_norm",
    "check_orthonormal",
    "DIFFUSION_BUILTINS",
    "POTENTIAL_BUILTINS",
]


@dataclass(eq=False)
class Operator1D:
    """Sampled coefficients of the operator on the grid.

    ``diffusion`` holds D at the n_interior + 2 full grid nodes (boundary
    nodes included, needed for the half-node averages); ``potential`` holds
    c at the interior nodes.
    """

    x_left: float
    x_right: float
    n_interior: int
    diffusion: np.ndarray
    potential: np.ndarray

    def __post_init__(self):
        if self.x_right <= self.x_left:
            raise ValueError("interval must satisfy x_left < x_right")
        if self.n_interior < 1:
            raise ValueError("n_interior must be positive")
        self.diffusion = np.asarray(self.diffusion, dtype=float)
        self.potential = np.asarray(self.potential, dtype=float)
        if self.diffusion.shape != (self.n_interior + 2,):
            raise ValueError("diffusion must be sampled at the n_interior + 2 grid nodes")
        if self.potential.shape != (self.n_interior,):
            raise ValueError("potential must be sampled at the interior nodes")
        if np.any(self.diffusion <= 0):
            raise ValueError("diffusion must be strictly positive on the grid")
        if np.any(self.potential > 0):
            raise ValueError("potential must be non-positive on the grid")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / (self.n_interior + 1)

    @property
    def interior_x(self) -> np.ndarray:
        return self.x_left + self.h * np.arange(1, self.n_interior + 1)

    @property
    def full_x(self) -> np.ndarray:
        return self.x_left + self.h * np.arange(self.n_interior + 2)

    @classmethod
    def from_callables(cls, interval, n_interior, diffusion=None, potential=None):
        """Sample callables (or constants) on the grid."""
        x_left, x_right = interval
        h = (x_right - x_left) / (n_interior + 1)
        xs_full = x_left + h * np.arange(n_interior + 2)
        xs_int = xs_full[1:-1]
        d = _sample(diffusion, xs_full, default=1.0)
        c = _sample(potential, xs_int, default=0.0)
        return cls(x_left=x_left, x_right=x_right, n_interior=n_interior,
                   diffusion=d, potential=c)


def _sample(f, xs, default):
    if f is None:
        return np.full(xs.shape, default)
    if callable(f):
        return np.asarray([float(f(x)) for x in xs])
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(xs.shape, float(arr))
    if arr.shape != xs.shape:
        raise ValueError(f"tabulated coefficient has shape {arr.shape}, expected {xs.shape}")
    return arr


@dataclass(eq=False)
class Spectrum:
    """Eigenpairs of the discretized operator.

    Columns of ``eigvecs`` are orthonormal under (u, v)_h; the sign of each
    is fixed so its first nonzero component is positive.
    """

    lambdas: np.ndarray
    eigvecs: np.ndarray
    h: float

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.eigvecs = np.asarray(self.eigvecs, dtype=float)
        if self.lambdas[0] <= 0:
            raise ValueError("smallest eigenvalue must be positive")
        if np.any(np.diff(self.lambdas) < 0):
            raise ValueError("eigenvalues must be nondecreasing")

    @property
    def n_modes(self) -> int:
        return self.lambdas.size


@dataclass(eq=False)
class Tridiag:
    """Symmetric tridiagonal matrix with the grid spacing it lives on."""

    diag: np.ndarray
    off: np.ndarray
    h: float


def assemble(op: Operator1D) -> Tridiag:
    """Conservative second-order discretization of -(D u')' - c u.

    Stencil: diag_i = (D_{i-1/2} + D_{i+1/2}) / h^2 - c_i and
    off_i = -D_{i+1/2} / h^2 with half-node values D_{i+1/2} = (D_i + D_{i+1})/2.
    Symmetric positive definite since D > 0 and c <= 0.
    """
    h = op.h
    d_half = 0.5 * (op.diffusion[:-1] + op.diffusion[1:])  # D_{i+1/2}, i = 0..n
    diag = (d_half[:-1] + d_half[1:]) / h ** 2 - op.potential
    off = -d_half[1:-1] / h ** 2
    return Tridiag(diag=diag, off=off, h=h)


def eigendecompose(matrix: Tridiag) -> Spectrum:
    """Full eigendecomposition, eigenvalues ascending, eigenvectors
    normalized in (.,.)_h with first nonzero component positive."""
    lams, vecs = eigh_tridiagonal(matrix.diag, matrix.off)
    root_h = np.sqrt(matrix.h)
    # Each column's sign comes from its first entry above 1e-14 after the
    # scaling: row 0, unless that entry is at or below it.
    lead = vecs[0] / root_h
    weak = np.flatnonzero(np.abs(lead) <= 1e-14)
    if weak.size:
        scaled = vecs[:, weak] / root_h
        first = np.argmax(np.abs(scaled) > 1e-14, axis=0)
        lead[weak] = scaled[first, np.arange(weak.size)]
    # x / -r is exactly -(x / r): one in-place pass scales and flips.
    vecs /= np.where(lead < 0, -root_h, root_h)
    return Spectrum(lambdas=lams, eigvecs=vecs, h=matrix.h)


def eigendecompose_operator(op: Operator1D) -> Spectrum:
    """Convenience: assemble then decompose."""
    return eigendecompose(assemble(op))


def project(f, s: Spectrum) -> np.ndarray:
    """Modal coefficients a_n = (f, phi_n)_h of a grid function, or of
    each row of a (T, n_interior) block of them."""
    f = np.asarray(f, dtype=float)
    n = s.eigvecs.shape[0]
    if f.ndim not in (1, 2) or f.shape[-1] != n:
        raise ValueError(f"grid function has shape {f.shape}, expected ({n},) or (T, {n})")
    return s.h * (f @ s.eigvecs)


def synthesize(coeffs, s: Spectrum) -> np.ndarray:
    """Grid function sum_n a_n phi_n over the leading modes, or one per
    row of a (T, n) block of coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2):
        raise ValueError(f"coefficients have shape {coeffs.shape}, expected (n,) or (T, n)")
    n = coeffs.shape[-1]
    if n > s.n_modes:
        raise ValueError(f"{n} coefficients but only {s.n_modes} modes")
    return coeffs @ s.eigvecs[:, :n].T


def frac_norm(f, gamma: float, s: Spectrum):
    """Fractional-power norm (sum |lambda_n^gamma (f, phi_n)_h|^2)^(1/2).

    gamma = 0 is the discrete L2 norm; gamma = 1 the graph norm of the
    operator (the H2-equivalent norm used by the regularity estimates).
    A (T, n_interior) block gives the T norms of its rows.
    """
    return modal_frac_norm(project(f, s), gamma, s)


def modal_frac_norm(coeffs, gamma: float, s: Spectrum):
    """Same as :func:`frac_norm` but from modal coefficients directly.

    A 1-D ``coeffs`` gives a float; a (T, n_modes) block gives the T norms
    of its rows, each the same bits as that row's own norm.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    norms = np.sqrt(np.sum((s.lambdas[: coeffs.shape[-1]] ** gamma * coeffs) ** 2,
                           axis=-1))
    return float(norms) if coeffs.ndim == 1 else norms


def check_orthonormal(s: Spectrum) -> float:
    """Max deviation of h * Phi^T Phi from the identity."""
    g = s.h * (s.eigvecs.T @ s.eigvecs)
    return float(np.max(np.abs(g - np.eye(s.n_modes))))


# Named coefficient builders for the CLI.
DIFFUSION_BUILTINS = {
    "constant": lambda value=1.0: (lambda x: float(value)),
    "linear": lambda a=1.0, b=0.5: (lambda x: float(a) + float(b) * x),
    "sine": lambda base=1.0, amp=0.2, freq=1.0:
        (lambda x: float(base) + float(amp) * np.sin(float(freq) * x)),
}

POTENTIAL_BUILTINS = {
    "constant": lambda value=0.0: (lambda x: float(value)),
    "well": lambda depth=1.0: (lambda x: -abs(float(depth))),
}
