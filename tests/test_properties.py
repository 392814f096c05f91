"""Property tests over random model points, weights and phases."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qest.bounds import (
    WeightSpec,
    bound_report,
    hgm_bound,
    holevo_bound_k2,
    holevo_bound_k3,
    holevo_bound_k3_block,
    nagaoka_bound,
    rld_cr_bound,
    sld_cr_bound,
)
from qest.fisher import (
    classical_fisher,
    outcome_gradients,
    rld_fisher_inverse,
    sld_fisher_inverse,
)
from qest.linalg import psd_sqrt
from qest.model import ThetaParams, bloch_derivatives, state_derivatives, state_from_theta
from qest.povm import (
    Povm,
    build_optimal_estimator,
    build_optimal_povm,
    optimal_povm_plan,
    verify_locally_unbiased,
)

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


@st.composite
def full_weights(draw):
    """A random positive-definite 3x3 weight, not in block form."""
    a = np.array([[draw(unit) for _ in range(3)] for _ in range(3)])
    return a @ a.T + 0.05 * np.eye(3)


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


def _ordered(lower, upper):
    return lower <= upper + 1e-10 * (1.0 + abs(upper))


@SETTINGS
@given(cases())
def test_holevo_k2_equals_sld_cr(case):
    t, w, _ = case
    value, xs = holevo_bound_k2(t, w)
    assert value == pytest.approx(sld_cr_bound(t, 2, w), rel=1e-10)
    # the minimizing operators satisfy <x^i, d_j s> = delta_ij
    derivs = np.array(bloch_derivatives(t, 2))
    assert np.max(np.abs(np.array(xs) @ derivs.T - np.eye(2))) < 1e-12


@SETTINGS
@given(cases(), st.floats(0.05, 5.0))
def test_k3_block_ordering(case, w3):
    t, w, _ = case
    spec = WeightSpec.block(w, w3)
    holevo = holevo_bound_k3(t, spec)
    assert holevo == pytest.approx(rld_cr_bound(t, 3, spec), rel=1e-12)
    assert holevo == pytest.approx(holevo_bound_k3_block(t, spec), rel=1e-10)
    assert _ordered(sld_cr_bound(t, 3, spec), holevo)
    assert _ordered(holevo, hgm_bound(t, 3, spec)[0])


@SETTINGS
@given(cases())
def test_k2_sld_below_nagaoka(case):
    t, w, _ = case
    assert _ordered(sld_cr_bound(t, 2, w), nagaoka_bound(t, w))


@SETTINGS
@given(cases(), st.floats(0.05, 5.0))
def test_bounds_are_chart_invariant(case, w3):
    # (theta1, theta2, theta3) and (-theta1, theta2, theta3 + pi) are the same
    # state; an error e in one chart is S e in the other, S = diag(-1, 1).
    t, w, _ = case
    mirror = ThetaParams(-t.theta1, t.theta2, t.theta3 + np.pi)
    flip = np.diag([-1.0, 1.0])
    for k, given_w, mirror_w in (
        (2, WeightSpec(w), WeightSpec(flip @ w @ flip)),
        (3, WeightSpec.block(w, w3), WeightSpec.block(flip @ w @ flip, w3)),
    ):
        a, b = bound_report(t, k, given_w), bound_report(mirror, k, mirror_w)
        for name in ("sld_cr", "rld_cr", "nagaoka_hgm", "holevo"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12)


@SETTINGS
@given(cases(), full_weights())
def test_rld_k3_trabs_equals_eigenvalue_moduli(case, w):
    t, _, _ = case
    ginv = rld_fisher_inverse(t, 3)
    expected = np.trace(w @ ginv.real) + np.sum(np.abs(np.linalg.eigvals(w @ ginv.imag)))
    assert rld_cr_bound(t, 3, w) == pytest.approx(expected, rel=1e-10)


@SETTINGS
@given(cases(), st.floats(0.05, 5.0))
def test_hgm_matches_generic_square_roots(case, w3):
    t, w, _ = case
    for k, spec in ((2, WeightSpec(w)), (3, WeightSpec.block(w, w3))):
        # F = sqrt(G^-1) W sqrt(G^-1) and (Tr sqrt F)^2 through the generic psd_sqrt
        root = psd_sqrt(sld_fisher_inverse(t, k))
        f = root @ spec.full() @ root
        value, lam, _ = hgm_bound(t, k, spec)
        assert value == pytest.approx(np.trace(psd_sqrt(f)) ** 2, rel=1e-10)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(f)[::-1])) < 1e-10 * lam[0]


@SETTINGS
@given(cases())
def test_plan_is_rotation_covariant(case):
    t, w, phi = case
    plan = optimal_povm_plan(t, w)
    turned = optimal_povm_plan(ThetaParams(t.theta1, t.theta2, t.theta3 + phi), w)
    c, s = np.cos(phi), np.sin(phi)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    for n, m in zip(plan.directions @ rotation.T, turned.directions):
        assert min(np.max(np.abs(n - m)), np.max(np.abs(n + m))) < 1e-12
    assert np.max(np.abs(plan.probabilities - turned.probabilities)) < 1e-12
    assert np.max(np.abs(plan.lambdas - turned.lambdas)) < 1e-12 * (1.0 + plan.lambdas[0])


@SETTINGS
@given(cases())
def test_optimal_measurement_attains_nagaoka(case):
    t, w, _ = case
    povm, _ = build_optimal_povm(t, w)
    assert verify_locally_unbiased(build_optimal_estimator(t, w, povm))["passed"]
    attained = np.trace(w @ np.linalg.inv(classical_fisher(t, povm, 2)))
    assert attained == pytest.approx(nagaoka_bound(t, w), rel=1e-10)
