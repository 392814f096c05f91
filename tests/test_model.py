"""Model point parametrization, Bloch vectors, states, and derivatives."""

import numpy as np
import pytest

from qest.model import (
    SIGMA,
    SIGMA0,
    ThetaParams,
    bloch_derivatives,
    bloch_from_theta,
    state_derivatives,
    state_from_bloch,
    state_from_theta,
)


def test_parse_roundtrip():
    t = ThetaParams.parse("0.5, 0.5, 1.0")
    assert (t.theta1, t.theta2, t.theta3) == (0.5, 0.5, 1.0)


def test_parse_rejects_wrong_arity():
    with pytest.raises(ValueError):
        ThetaParams.parse("0.5,0.5")


def test_phase_normalized_mod_2pi():
    t = ThetaParams(0.5, 0.0, 7.0)
    assert t.theta3 == pytest.approx(7.0 - 2.0 * np.pi, abs=1e-12)
    assert 0.0 <= t.theta3 < 2.0 * np.pi


def test_rejects_outside_unit_disk():
    with pytest.raises(ValueError):
        ThetaParams(0.8, 0.7, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_rejects_non_finite_component(index, value):
    components = [0.5, 0.2, 0.3]
    components[index] = value
    with pytest.raises(ValueError, match="^theta components must be finite$"):
        ThetaParams(*components)


def test_numpy_and_int_components_keep_their_values():
    t = ThetaParams(np.float64(0.5), 0, np.int64(7))
    assert (t.theta1, t.theta2, t.theta3) == (0.5, 0.0, 7 % (2.0 * np.pi))
    assert all(type(v) is float for v in (t.theta1, t.theta2, t.theta3))
    t = ThetaParams(np.float32(0.1), np.float64(-0.3), np.float64(-0.1))
    assert (t.theta1, t.theta2, t.theta3) == (float(np.float32(0.1)), -0.3, -0.1 % (2.0 * np.pi))


def test_rejects_zero_theta1():
    with pytest.raises(ValueError, match="theta1 must be nonzero"):
        ThetaParams(0.0, 0.5, 0.0)


def test_bloch_vector_components():
    t = ThetaParams(0.6, 0.2, 0.3)
    s = bloch_from_theta(t)
    assert np.allclose(
        s, [0.6 * np.cos(0.3), 0.6 * np.sin(0.3), 0.2], atol=1e-14
    )
    assert np.linalg.norm(s) < 1.0


def test_state_is_valid_density_matrix():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = 0.95 * np.sqrt(rng.uniform(0.01, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        t = ThetaParams(r * np.cos(phi) + 1e-6, r * np.sin(phi) * 0.99, rng.uniform(0, 7))
        rho = state_from_theta(t)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(rho)) > 0.0


def test_state_matches_explicit_matrix():
    t = ThetaParams(0.6, 0.2, 0.3)
    expected = 0.5 * np.array(
        [
            [1.0 + 0.2, 0.6 * np.exp(-0.3j)],
            [0.6 * np.exp(0.3j), 1.0 - 0.2],
        ]
    )
    assert np.allclose(state_from_theta(t), expected, atol=1e-14)


def test_state_from_bloch_consistent():
    t = ThetaParams(0.3, -0.4, 1.7)
    assert np.allclose(
        state_from_bloch(bloch_from_theta(t)), state_from_theta(t), atol=1e-14
    )


def test_bloch_derivatives_finite_difference():
    t = ThetaParams(0.5, 0.3, 0.9)
    ds = bloch_derivatives(t, 3)
    eps = 1e-7
    base = np.array([t.theta1, t.theta2, t.theta3])
    for i in range(3):
        plus, minus = base.copy(), base.copy()
        plus[i] += eps
        minus[i] -= eps
        numeric = (
            bloch_from_theta(ThetaParams(*plus)) - bloch_from_theta(ThetaParams(*minus))
        ) / (2.0 * eps)
        assert np.allclose(ds[i], numeric, atol=1e-8)


def test_state_derivatives_finite_difference():
    t = ThetaParams(0.5, 0.3, 0.9)
    drhos = state_derivatives(t, 3)
    eps = 1e-7
    base = np.array([t.theta1, t.theta2, t.theta3])
    for i in range(3):
        plus, minus = base.copy(), base.copy()
        plus[i] += eps
        minus[i] -= eps
        numeric = (
            state_from_theta(ThetaParams(*plus)) - state_from_theta(ThetaParams(*minus))
        ) / (2.0 * eps)
        assert np.allclose(drhos[i], numeric, atol=1e-7)


def test_pauli_algebra():
    for i in range(3):
        assert np.allclose(SIGMA[i] @ SIGMA[i], SIGMA0, atol=1e-15)
        assert np.trace(SIGMA[i]) == pytest.approx(0.0, abs=1e-15)


def test_as_array_truncation():
    t = ThetaParams(0.5, 0.2, 1.0)
    assert np.allclose(t.as_array(2), [0.5, 0.2])
    assert np.allclose(t.as_array(3), [0.5, 0.2, 1.0])
