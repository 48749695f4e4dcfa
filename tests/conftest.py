import numpy as np
import pytest

from mtfrac.spectral import Operator1D, eigendecompose_operator


@pytest.fixture(scope="session")
def laplace_op():
    return Operator1D.from_callables((0.0, np.pi), 255)


@pytest.fixture(scope="session")
def laplace_spectrum(laplace_op):
    return eigendecompose_operator(laplace_op)


@pytest.fixture(scope="session")
def small_op():
    return Operator1D.from_callables((0.0, np.pi), 63)


@pytest.fixture(scope="session")
def small_spectrum(small_op):
    return eigendecompose_operator(small_op)
