import numpy as np
import pytest

from mtfrac.solver import FracOrders, Problem
from mtfrac.spectral import Operator1D, eigendecompose_operator, synthesize


def _homogeneous(op, spectrum, alphas, qs, power):
    """The homogeneous problem whose initial modal coefficients are n^-power."""
    n = np.arange(1, spectrum.n_modes + 1, dtype=float)
    return Problem(orders=FracOrders(alphas=alphas, qs=qs), operator=op,
                   spectrum=spectrum, initial=synthesize(n ** -power, spectrum))


@pytest.fixture(scope="session")
def laplace_op():
    return Operator1D.from_callables((0.0, np.pi), 255)


@pytest.fixture(scope="session")
def laplace_spectrum(laplace_op):
    return eigendecompose_operator(laplace_op)


@pytest.fixture(scope="module")
def homog_problem(laplace_op, laplace_spectrum):
    return _homogeneous(laplace_op, laplace_spectrum, (0.8, 0.4), (1.0, 1.0), 2.0)


@pytest.fixture(scope="module")
def decay_problem(laplace_op, laplace_spectrum):
    return _homogeneous(laplace_op, laplace_spectrum, (0.9, 0.3), (1.0, 1.5), 2.0)


@pytest.fixture(scope="module")
def stability_base(laplace_op, laplace_spectrum):
    return _homogeneous(laplace_op, laplace_spectrum, (0.8, 0.5), (1.0, 1.5), 2.5)


@pytest.fixture(scope="session")
def small_op():
    return Operator1D.from_callables((0.0, np.pi), 63)


@pytest.fixture(scope="session")
def small_spectrum(small_op):
    return eigendecompose_operator(small_op)
