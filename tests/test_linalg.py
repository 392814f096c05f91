"""Symmetric-matrix kernels: eigendecomposition, sqrt, fidelity, Schur."""

import numpy as np
import pytest

from qest.linalg import (
    NotPSDError,
    fidelity,
    psd_sqrt,
    schur_complement,
    sym_eig,
)


def test_sym_eig_descending_and_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        m = a + a.T
        lam, u = sym_eig(m)
        assert np.all(np.diff(lam) <= 0)
        assert np.allclose(u @ np.diag(lam) @ u.T, m, atol=1e-12)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)


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


def test_schur_complement_block_formula():
    j = np.array([[2.0, 0.0, 1.0], [0.0, 2.5, 0.5], [1.0, 0.5, 2.0]])
    expected = j[:2, :2] - np.outer(j[:2, 2], j[2, :2]) / j[2, 2]
    assert np.allclose(schur_complement(j), expected, atol=1e-14)


def test_schur_complement_example():
    j = np.diag([1.5, 2.0, 3.0])
    assert np.allclose(schur_complement(j), np.diag([1.5, 2.0]), atol=1e-14)


def test_schur_complement_equals_inverse_block():
    # The Schur complement is the inverse of the top-left block of J^{-1}.
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.normal(size=(3, 3))
        j = a @ a.T + 0.1 * np.eye(3)
        s = schur_complement(j)
        assert np.allclose(np.linalg.inv(s), np.linalg.inv(j)[:2, :2], atol=1e-9)
