"""Symmetric-matrix kernels: the symmetric check, PSD sqrt, fidelity."""

import numpy as np
import pytest

from qest.bounds import WeightSpec
from qest.fisher import effective_fisher
from qest.linalg import NotPSDError, fidelity, psd_sqrt, symmetric
from qest.model import ThetaParams
from qest.region import in_region_D


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        m = a @ a.T
        r = psd_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-10)
        assert np.allclose(r, r.T, atol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_clamps_tiny_negative():
    m = np.diag([1.0, -1e-14])
    r = psd_sqrt(m)
    assert r[1, 1] == 0.0


def test_fidelity_identity_pair():
    # F(diag(1, 0.5), diag(0.5, 1)) = sqrt(0.5) + sqrt(0.5) ... computed
    # directly: Tr sqrt(sqrt(a) b sqrt(a)) with commuting arguments.
    a = np.diag([1.0, 0.5])
    b = np.diag([0.5, 1.0])
    assert fidelity(a, b) == pytest.approx(2.0 * np.sqrt(0.5), abs=1e-12)


def test_fidelity_known_value():
    a = np.eye(2)
    b = np.diag([1.0, 0.5])
    assert fidelity(a, b) == pytest.approx(1.0 + np.sqrt(0.5), abs=1e-12)


def test_fidelity_symmetric_in_arguments():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3))
        a, b = x @ x.T, y @ y.T
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)


def test_psd_sqrt_symmetry_tolerance_is_1e_12():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    psd_sqrt(m + [[0.0, 5e-13], [0.0, 0.0]])
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        psd_sqrt(m + [[0.0, 2e-12], [0.0, 0.0]])


def test_symmetric_returns_the_symmetric_part_or_names_the_fault():
    m = [[1.0, 1.0], [0.0, 1.0]]
    assert np.array_equal(symmetric(m, 2, tol=1.0), [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match=r"^w must be symmetric$"):
        symmetric(m, 2, name="w")
    with pytest.raises(ValueError, match=r"^w must be square, got shape \(2, 3\)$"):
        symmetric(np.ones((2, 3)), name="w")
    with pytest.raises(ValueError, match=r"^w must be 3x3, got shape \(2, 2\)$"):
        symmetric(np.eye(2), 3, name="w")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^w entries must be finite$"):
            symmetric([[1.0, bad], [bad, 1.0]], name="w")


@pytest.mark.parametrize(
    "check, message",
    [
        (WeightSpec, r"^weight matrix must not be empty, got shape \(0, 0\)$"),
        (lambda m: in_region_D(m, ThetaParams(0.5, 0.3, 0.7)),
         r"^candidate MSE matrix must be 2x2, got shape \(0, 0\)$"),
        (effective_fisher, r"^matrix must be 3x3, got shape \(0, 0\)$"),
    ],
    ids=["WeightSpec", "in_region_D", "effective_fisher"],
)
def test_empty_matrix_message_names_the_matrix_and_its_shape(check, message):
    with pytest.raises(ValueError, match=message):
        check(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^w must not be empty, got shape \(0, 0\)$"):
        symmetric(np.zeros((0, 0)), name="w")
