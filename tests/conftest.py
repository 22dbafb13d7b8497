import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _warm_lapack():
    # First LAPACK call pays a one-time setup cost; keep it out of timings.
    np.linalg.eigvals(np.eye(2))
    np.linalg.det(np.eye(2))


@pytest.fixture(autouse=True)
def _default_enumeration_caps(monkeypatch):
    # Every sweep reads EFFSPEC_MAX_N; a value exported in the shell must not
    # change what the tests see. Tests that need one set it themselves.
    monkeypatch.delenv("EFFSPEC_MAX_N", raising=False)


@pytest.fixture
def zero_diag_pair():
    """Two matrices with equal effective radii everywhere but a differing
    size-2 minor; both diagonals are entirely zero."""
    return np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def unit_diag_pair():
    """Two matrices agreeing on the boolean grid but not on the whole
    nonnegative orthant; diagonals are ones, determinants differ."""
    beta = np.sqrt(2.0) - 1.0
    return (np.array([[1.0, beta], [beta, 1.0]]),
            np.array([[1.0, -1.0], [1.0, 1.0]]))
