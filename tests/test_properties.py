"""Property tests over random model points, weights and phases."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qest.fisher import outcome_gradients
from qest.model import ThetaParams, state_derivatives, state_from_theta
from qest.povm import Povm, build_optimal_povm

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def cases(draw):
    """(t, W, phi): theta1 of either sign, W positive definite."""
    t1 = draw(st.floats(0.01, 0.95)) * draw(st.sampled_from((-1.0, 1.0)))
    t2 = draw(st.floats(-0.95, 0.95))
    assume(t1 * t1 + t2 * t2 < 0.96)
    t = ThetaParams(t1, t2, draw(st.floats(0.0, 2.0 * np.pi)))
    a = np.array([[draw(unit) for _ in range(2)] for _ in range(2)])
    return t, a @ a.T + 0.05 * np.eye(2), draw(st.floats(0.0, 2.0 * np.pi))


def trace_gradients(t, povm, k):
    """Reference: p = Tr(rho Pi_x) and dp = Tr(d_i rho Pi_x) on the matrices."""
    rho = state_from_theta(t)
    drhos = state_derivatives(t, k)
    p = np.array([np.trace(rho @ m).real for _, m in povm])
    dp = np.array([[np.trace(d @ m).real for d in drhos] for _, m in povm])
    return p, dp


@SETTINGS
@given(cases())
def test_bloch_gradients_match_traces(case):
    t, w, phi = case
    povm = build_optimal_povm(t, w)[0].rotated(phi)
    for k in (2, 3):
        p, dp = outcome_gradients(t, povm, k)
        p_ref, dp_ref = trace_gradients(t, povm, k)
        assert np.max(np.abs(p - p_ref)) < 1e-12
        assert np.max(np.abs(dp - dp_ref)) < 1e-12


@SETTINGS
@given(cases())
def test_matrix_round_trip(case):
    t, w, phi = case
    povm = build_optimal_povm(t, w)[0].rotated(phi)
    clone = Povm(list(povm))
    assert clone.labels == povm.labels
    for (_, a), (_, b) in zip(povm, clone):
        assert np.max(np.abs(a - b)) < 1e-15


def test_from_bloch_runs_the_same_checks():
    # Bloch-form twins of the bad inputs of test_povm_validation; the
    # Hermitian check has no twin, a Bloch form is Hermitian by definition.
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm.from_bloch(["a", "b"], [1.0, 0.5], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="element 'a' is not PSD"):
        Povm.from_bloch(["a", "b"], [1.0, 1.0], [[0.0, 0.0, 1.5], [0.0, 0.0, -1.5]])


@SETTINGS
@given(cases(), st.floats(1e-9, 1.0))
def test_validation_rejects_non_psd_element(case, depth):
    # Move depth times the kernel projector of element "1+" onto "1-": the
    # sum stays the identity and "1+" gets the eigenvalue -depth.
    t, w, phi = case
    elements = dict(build_optimal_povm(t, w)[0].rotated(phi))
    kernel = elements["1-"] / np.trace(elements["1-"]).real
    elements["1+"] = elements["1+"] - depth * kernel
    elements["1-"] = elements["1-"] + depth * kernel
    with pytest.raises(ValueError, match="element '1\\+' is not PSD"):
        Povm(elements.items())
