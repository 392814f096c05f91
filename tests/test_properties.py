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
    _outcome_rows,
    bloch_outcome_gradients,
    classical_fisher,
    rld_fisher_inverse,
    sld_fisher,
    sld_fisher_inverse,
    sld_inverse_entries,
)
from qest.linalg import eigh2, min_eig_det, psd_sqrt
from qest.model import (
    ThetaParams,
    bloch_derivatives,
    bloch_from_theta,
    state_derivatives,
    state_from_theta,
)
from qest.povm import (
    Povm,
    build_optimal_estimator,
    build_optimal_povm,
    optimal_povm_plan,
    verify_locally_unbiased,
)
from qest.region import BOUNDARY_TOL, in_region_D, in_region_D3, in_region_H
from qest.simulate import TrialStreams

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


@st.composite
def candidates(draw):
    """(t, V2, V3): a symmetric V2 around a multiple of G^{-1}, inside or outside
    each region, and a 3x3 V3 with interest block V2 and v33 on either side of g33."""
    t, _, _ = draw(cases())
    a = np.array([[draw(unit) for _ in range(2)] for _ in range(2)])
    spread = draw(st.sampled_from((1e-6, 0.05, 0.5)))
    v2 = draw(st.floats(0.3, 3.0)) * sld_fisher_inverse(t, 2) + spread * (a + a.T)
    v3 = np.zeros((3, 3))
    v3[:2, :2] = v2
    v3[2, 2] = draw(st.floats(0.5, 4.0)) / (t.theta1 * t.theta1)
    v3[0, 2] = v3[2, 0] = draw(unit)
    return t, v2, v3


def _turned(t, phi):
    """t with its phase advanced by phi."""
    return ThetaParams(t.theta1, t.theta2, t.theta3 + phi)


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
    povm = build_optimal_povm(_turned(t, phi), w)[0]
    for k in (2, 3):
        p, dp = map(np.array, _outcome_rows(t, povm, k))
        p_ref, dp_ref = trace_gradients(t, povm, k)
        assert np.max(np.abs(p - p_ref)) < 1e-12
        assert np.max(np.abs(dp - dp_ref)) < 1e-12


@SETTINGS
@given(cases(), st.floats(1e-9, 1.0))
def test_validation_rejects_non_psd_element(case, depth):
    # Move depth times the kernel projector (I - n . sigma)/2 of element "1+",
    # p (I + n . sigma)/2, onto "1-", p (I - n . sigma)/2: the sum stays the
    # identity, "1+" becomes ((p - depth) I + (p + depth) n . sigma)/2, with
    # the eigenvalue -depth, and "1-" gets the weight p + depth.
    t, w, phi = case
    povm = build_optimal_povm(_turned(t, phi), w)[0]
    p = povm.weights[0]
    assume(p != depth)
    weights, axes = povm.weights.copy(), povm.axes.copy()
    weights[:2] = p - depth, p + depth
    axes[0] *= (p + depth) / (p - depth)
    with pytest.raises(ValueError, match="element '1\\+' is not PSD"):
        Povm(povm.labels, weights, axes)


@SETTINGS
@given(cases())
def test_sld_inverse_entries_invert_g(case):
    # the one closed form of G^{-1} against the definition route; b vanishes
    # with theta2, so it alone needs the absolute floor
    t = case[0]
    a, b, c, det, g33 = sld_inverse_entries(t)
    ref = np.linalg.inv(sld_fisher(t, 3))
    want = (ref[0, 0], ref[0, 1], ref[1, 1], np.linalg.det(ref[:2, :2]), ref[2, 2])
    assert np.allclose((a, b, c, det, g33), want, rtol=1e-10, atol=1e-14)


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
    turned = optimal_povm_plan(_turned(t, phi), w)
    c, s = np.cos(phi), np.sin(phi)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(plan.directions @ rotation.T - turned.directions)) < 1e-12
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


@SETTINGS
@given(st.integers(0, 2**128 - 1), st.integers(0, 2**32 - 1))
def test_trial_rng_state_is_default_rngs(seed, trial):
    # The keyed hash must give default_rng's PCG64 state for every seed, one
    # to four 32-bit words long, and every trial below 2^32.
    streams = TrialStreams(seed, range(trial, trial + 1))
    want = np.random.default_rng((seed, trial)).bit_generator.state
    assert streams.load(trial).bit_generator.state == want


@SETTINGS
@given(st.lists(unit, min_size=3, max_size=3), st.integers(-6, 6), st.booleans())
def test_min_eig_det_matches_numpy(entries, power, rank_one):
    scale = 10.0**power
    a, b, c = (scale * x for x in entries)
    if rank_one:  # +-[[x^2, xy], [xy, y^2]]: b^2 = ac
        x, y, sign = entries[0], entries[1], 1.0 if entries[2] >= 0.0 else -1.0
        a, b, c = (sign * scale * v for v in (x * x, x * y, y * y))
    m = np.array([[a, b], [b, c]])
    low, det = min_eig_det(a, b, c)
    # numpy's LU determinant divides by zero on a rank-one m whose x^2 underflows
    with np.errstate(divide="ignore", invalid="ignore"):
        want_low, want_det = np.linalg.eigvalsh(m)[0], np.linalg.det(m)
    assert abs(low - want_low) <= 1e-12 * scale
    assert abs(det - want_det) <= 1e-12 * scale * scale


# 0, or of magnitude in [1e-3, 1]: far inside the range where LAPACK does not rescale
entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@SETTINGS
@given(entry, entry, entry, st.sampled_from(("any", "zero", "under", "over", "equal")),
       st.integers(-6, 6))
def test_eigh2_matches_numpy(a, b, c, kind, power):
    # dsteqr leaves [[a, b], [b, c]] unrotated when b^2 <= eps^2 |a| |c| + tiny,
    # eps = 2^-53: "under" and "over" put b just either side of that line.
    scale = 10.0**power
    a, b, c = scale * a, scale * b, scale * (a if kind == "equal" else c)
    line = 2.0**-53 * np.sqrt(abs(a) * abs(c))
    b = {"zero": 0.0, "under": 0.999 * line, "over": 1.001 * line}.get(kind, b)
    m = np.array([[a, b], [b, c]])
    lam, vectors = eigh2(a, b, c)
    want_lam, want = np.linalg.eigh(m)
    got, want = np.array(vectors).T, want[:, ::-1]
    assert np.all(np.sum(got * want, axis=0) > 0.0)  # each eigenvector's sign
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(np.array(lam) - want_lam[::-1])) <= 1e-15 * np.abs(m).max()


def _plan_reference(t, w):
    """(directions, probabilities, lambdas) of the plan, through numpy."""
    c = np.sqrt(1.0 - t.theta1**2 - t.theta2**2)
    root = (sld_fisher_inverse(t, 2) + c * np.eye(2)) / (1.0 + c)
    f = root @ w @ root
    lam, u = np.linalg.eigh(0.5 * (f + f.T))
    lam, u = lam[::-1], u[:, ::-1]
    g = sld_fisher(t, 2)
    e = np.array([[np.cos(t.theta3), 0.0], [np.sin(t.theta3), 0.0], [0.0, 1.0]])
    v = e @ (g + np.sqrt(np.linalg.det(g)) * np.eye(2)) @ u
    roots = np.sqrt(np.clip(lam, 0.0, None))
    return (v / np.linalg.norm(v, axis=0)).T, roots / roots.sum(), lam


@SETTINGS
@given(cases())
def test_plan_and_estimator_match_numpy(case):
    t, w, phi = case
    t = _turned(t, phi)
    povm, plan = build_optimal_povm(t, w)
    directions, probabilities, lam = _plan_reference(t, w)
    assert np.all(np.sum(plan.directions * directions, axis=1) > 0.0)  # signs
    assert np.max(np.abs(plan.directions - directions)) < 1e-12
    assert np.max(np.abs(plan.probabilities - probabilities)) < 1e-12
    assert np.max(np.abs(plan.lambdas - lam)) < 1e-12 * lam[0]
    # theta + J^-1 grad p / p, J = sum_x grad p grad p^T / p
    derivs = np.array(bloch_derivatives(t, 2))
    p, dp = bloch_outcome_gradients(povm.weights, povm.axes, bloch_from_theta(t), derivs)
    table = t.as_array(2) + (dp / p[:, None]) @ np.linalg.inv((dp.T / p) @ dp).T
    got = build_optimal_estimator(t, w, povm).table
    assert np.max(np.abs(got - table)) < 1e-12 * np.abs(table).max()


def _nagaoka_reference(v2, ginv):
    """eigen_slack and det_slack of the Nagaoka conditions, through numpy."""
    diff = v2 - ginv
    return np.linalg.eigvalsh(diff)[0], np.linalg.det(diff) - np.linalg.det(ginv)


@SETTINGS
@given(candidates())
def test_region_D_and_D3_margins_match_numpy(candidate):
    t, v2, v3 = candidate
    ginv = sld_fisher_inverse(t, 2)
    got = in_region_D(v2, t).margins
    eig, det = _nagaoka_reference(v2, ginv)
    scale = np.abs(v2).max() + np.abs(ginv).max()
    assert abs(got["eigen_slack"] - eig) <= 1e-12 * scale
    assert abs(got["det_slack"] - det) <= 1e-12 * scale * scale
    got = in_region_D3(v3, t).margins
    g33 = 1.0 / (t.theta1 * t.theta1)
    assert got["v33_slack"] == v3[2, 2] - g33
    if v3[2, 2] - g33 > BOUNDARY_TOL:
        gamma = v3[2, 2] / (v3[2, 2] - g33)
        eig, det = _nagaoka_reference(v2, gamma * ginv)
        scale = np.abs(v2).max() + gamma * np.abs(ginv).max()
        assert abs(got["eigen_slack"] - eig) <= 1e-12 * scale
        assert abs(got["det_slack"] - det) <= 1e-12 * scale * scale


@SETTINGS
@given(candidates())
def test_region_H_margins_match_numpy(candidate):
    t, v2, v3 = candidate
    ginv = sld_fisher_inverse(t, 2)
    scale = np.abs(v2).max() + np.abs(ginv).max()
    eig = np.linalg.eigvalsh(v2 - ginv)[0]
    assert abs(in_region_H(v2, t).margins["eigen_slack"] - eig) <= 1e-12 * scale
    got = in_region_H(v3, t).margins
    g33 = 1.0 / (t.theta1 * t.theta1)
    assert got["v33_slack"] == v3[2, 2] - g33
    if v3[2, 2] - g33 > BOUNDARY_TOL:
        gamma = v3[2, 2] / (v3[2, 2] - g33)
        threshold = gamma * ginv - (gamma - 1.0) * rld_fisher_inverse(t, 2).real
        scale = np.abs(v2).max() + gamma * np.abs(ginv).max()
        assert abs(got["interest_slack"] - eig) <= 1e-12 * scale
        holevo = np.linalg.eigvalsh(v2 - threshold)[0]
        assert abs(got["holevo_slack"] - holevo) <= 1e-12 * scale


@SETTINGS
@given(cases(), full_weights())
def test_rld_k3_trabs_is_det_w_times_a_w_inverse_a(case, w):
    t, _, _ = case
    a = np.array([-1.0, -t.theta2 / t.theta1, 0.0])
    trabs = 2.0 * np.sqrt(np.linalg.det(w) * (a @ np.linalg.solve(w, a)))
    expected = np.trace(w @ sld_fisher_inverse(t, 3)) + trabs
    assert rld_cr_bound(t, 3, w) == pytest.approx(expected, rel=1e-12)


@SETTINGS
@given(st.sampled_from((2, 3)), st.data())
def test_weight_spec_accepts_exactly_the_positive_definite(k, data):
    a = np.array([[data.draw(unit) for _ in range(k)] for _ in range(k)])
    m = a + a.T + data.draw(st.floats(-2.0, 2.0)) * np.eye(k)
    low = np.linalg.eigvalsh(m)[0]
    assume(abs(low) > 1e-6)  # away from the boundary, where round-off decides
    try:
        WeightSpec(m)
    except ValueError as err:
        assert str(err) == "weight matrix must be positive definite"
        assert low < 0.0
    else:
        assert low > 0.0
