"""POVM model, optimal measurement construction, locally unbiased estimator."""

import numpy as np
import pytest

from qest.bounds import nagaoka_bound
from qest.fisher import classical_fisher, sld_fisher
from qest.linalg import psd_sqrt
from qest.model import SIGMA, SIGMA0, ThetaParams, bloch_from_theta
from qest.povm import (
    Povm,
    build_optimal_estimator,
    build_optimal_povm,
    build_phase_perturbed_povm,
    verify_locally_unbiased,
)


def random_cases(count, seed):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        t1 = rng.uniform(-0.95, 0.95)
        t2 = rng.uniform(-0.95, 0.95)
        if abs(t1) < 0.01 or t1 * t1 + t2 * t2 >= 0.96:
            continue
        t = ThetaParams(t1, t2, rng.uniform(0.0, 2.0 * np.pi))
        a = rng.normal(size=(2, 2))
        cases.append((t, a @ a.T + 0.05 * np.eye(2)))
    return cases


def test_povm_validation():
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm([("a", SIGMA0 / 2), ("b", SIGMA0 / 4)])
    with pytest.raises(ValueError, match="not PSD"):
        Povm([("a", np.diag([1.5, 0.5])), ("b", np.diag([-0.5, 0.5]))])
    with pytest.raises(ValueError, match="not Hermitian"):
        Povm([("a", np.array([[0.5, 0.5], [0.0, 0.5]])), ("b", np.array([[0.5, -0.5], [0.0, 0.5]]))])


def test_povm_probabilities_sum_to_one():
    t = ThetaParams(0.6, 0.0, 0.3)
    povm, _ = build_optimal_povm(t, np.eye(2))
    p = povm.probabilities(t)
    assert np.all(p >= 0.0)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_povm_json_roundtrip():
    t = ThetaParams(0.5, 0.3, 1.2)
    povm, _ = build_optimal_povm(t, np.diag([1.0, 2.0]))
    clone = Povm.from_json(povm.to_json())
    assert clone.labels == povm.labels
    for (_, a), (_, b) in zip(povm, clone):
        assert np.allclose(a, b, atol=0.0)


def test_optimal_povm_identity_weight_directions():
    # Identity weight: measurement axes are along s and s-perp, with
    # mixture weights sqrt(lambda)/sum (larger lambda on the s-perp axis).
    t = ThetaParams(0.5, 0.5, 0.0)
    povm, plan = build_optimal_povm(t, np.eye(2))
    s = bloch_from_theta(t)
    s_unit = s / np.linalg.norm(s)
    sperp_unit = np.array([0.5, 0.0, -0.5]) / np.linalg.norm(s)
    dirs = {tuple(np.round(d * np.sign(d[np.argmax(np.abs(d))]), 9)) for d in plan.directions}
    expected = {
        tuple(np.round(s_unit * np.sign(s_unit[np.argmax(np.abs(s_unit))]), 9)),
        tuple(np.round(sperp_unit * np.sign(sperp_unit[np.argmax(np.abs(sperp_unit))]), 9)),
    }
    assert dirs == expected
    p = np.sort(plan.probabilities)
    root = np.sqrt(0.5)
    assert p[0] == pytest.approx(root / (1.0 + root), abs=1e-10)
    assert p[1] == pytest.approx(1.0 / (1.0 + root), abs=1e-10)


def test_optimal_povm_element_structure():
    # Four elements p_i (sigma0 +/- n_i . sigma)/2 along the plan directions.
    t = ThetaParams(0.6, 0.2, 0.7)
    povm, plan = build_optimal_povm(t, np.diag([2.0, 1.0]))
    elements = dict(iter(povm))
    for i, (nhat, p) in enumerate(zip(plan.directions, plan.probabilities)):
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            expected = p * 0.5 * (SIGMA0 + sign * np.einsum("i,ijk->jk", nhat, SIGMA))
            assert np.allclose(elements[f"{i + 1}{tag}"], expected, atol=1e-12)


def test_optimality_condition():
    # J[Pi_opt] = sqrt(G) sqrt(F) sqrt(G) / Tr sqrt(F).
    for t, w in random_cases(40, 30):
        povm, _ = build_optimal_povm(t, w)
        j = classical_fisher(t, povm, 2)
        g = sld_fisher(t, 2)
        groot = psd_sqrt(g)
        ginv_root = np.linalg.inv(groot)
        f = ginv_root @ w @ ginv_root
        froot = psd_sqrt(f)
        target = groot @ froot @ groot / np.trace(froot)
        assert np.max(np.abs(j - target)) < 1e-9


def test_optimal_povm_attains_nagaoka():
    for t, w in random_cases(40, 31):
        povm, _ = build_optimal_povm(t, w)
        j = classical_fisher(t, povm, 2)
        assert np.trace(w @ np.linalg.inv(j)) == pytest.approx(
            nagaoka_bound(t, w), abs=1e-9
        )


def test_optimal_mse_closed_form():
    # V_opt = G^{-1} + sqrt(det(W G^{-1})) W^{-1}.
    for t, w in random_cases(20, 32):
        povm, _ = build_optimal_povm(t, w)
        j = classical_fisher(t, povm, 2)
        ginv = np.linalg.inv(sld_fisher(t, 2))
        expected = ginv + np.sqrt(np.linalg.det(w @ ginv)) * np.linalg.inv(w)
        assert np.allclose(np.linalg.inv(j), expected, atol=1e-9)


def test_degenerate_weight_gives_half_half():
    # W proportional to G makes F proportional to identity; both mixture
    # probabilities are 1/2 and any orthogonal direction pair is optimal.
    t = ThetaParams(0.6, 0.0, 0.0)
    g = sld_fisher(t, 2)
    povm, plan = build_optimal_povm(t, g)
    assert np.allclose(plan.probabilities, [0.5, 0.5], atol=1e-10)
    j = classical_fisher(t, povm, 2)
    assert np.trace(g @ np.linalg.inv(j)) == pytest.approx(
        nagaoka_bound(t, g), abs=1e-9
    )


def test_rotation_covariance():
    # The optimal measurement at phase phi is the one at phase 0 rotated by
    # phi about z, up to the sign of each axis; a flipped axis swaps the
    # labels "i+" and "i-" of the estimator table and of the outcome
    # probabilities, which are otherwise unchanged.
    rng = np.random.default_rng(34)
    for t, w in random_cases(40, 34):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        at_phi = ThetaParams(t.theta1, t.theta2, phi)
        at_zero = ThetaParams(t.theta1, t.theta2, 0.0)
        povm_phi, plan_phi = build_optimal_povm(at_phi, w)
        povm_zero, plan_zero = build_optimal_povm(at_zero, w)
        rotated = plan_zero.measurement().rotated(phi)
        signs = np.sign(np.sum(plan_phi.directions * rotated.axes[0::2], axis=1))
        assert np.max(np.abs(plan_phi.directions - signs[:, None] * rotated.axes[0::2])) < 1e-12
        assert np.max(np.abs(plan_phi.probabilities - plan_zero.probabilities)) < 1e-12
        # label of the rotated measurement that matches each rebuilt label
        swap = {"+": "-", "-": "+"}
        match = {
            f"{i + 1}{sign}": f"{i + 1}{sign if flip > 0 else swap[sign]}"
            for i, flip in enumerate(signs)
            for sign in "+-"
        }
        table_phi = build_optimal_estimator(at_phi, w, povm_phi).estimates
        table_zero = build_optimal_estimator(at_zero, w, povm_zero).estimates
        for label, estimate in table_phi.items():
            assert np.max(np.abs(estimate - table_zero[match[label]])) < 1e-12
        # two-step: the rotated measurement on the true state
        p_rebuilt = dict(zip(povm_phi.labels, povm_phi.probabilities(t)))
        p_rotated = dict(zip(rotated.labels, rotated.probabilities(t)))
        for label, p in p_rebuilt.items():
            assert abs(p - p_rotated[match[label]]) < 1e-12


def test_estimator_locally_unbiased():
    for t, w in random_cases(25, 33):
        povm, _ = build_optimal_povm(t, w)
        est = build_optimal_estimator(t, w, povm)
        report = verify_locally_unbiased(est)
        assert report["passed"]
        assert report["bias_residual"] < 1e-10
        assert report["derivative_residual"] < 1e-10


def test_estimator_at_wrong_anchor_reports_residuals():
    t = ThetaParams(0.6, 0.0, 0.3)
    t_other = ThetaParams(0.4, 0.2, 0.3)
    povm, _ = build_optimal_povm(t_other, np.eye(2))
    est = build_optimal_estimator(t, np.eye(2), povm)
    # Still locally unbiased at its own anchor by construction.
    report = verify_locally_unbiased(est)
    assert report["derivative_residual"] < 1e-9


def test_estimator_csv(tmp_path):
    t = ThetaParams(0.6, 0.0, 0.3)
    povm, _ = build_optimal_povm(t, np.eye(2))
    est = build_optimal_estimator(t, np.eye(2), povm)
    path = tmp_path / "est.csv"
    est.estimates_to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "label,theta1_hat,theta2_hat"
    assert len(rows) == 1 + len(povm)


def test_phase_perturbed_povm_zero_delta():
    t = ThetaParams(0.6, 0.0, 0.3)
    base, _ = build_optimal_povm(t, np.eye(2))
    same = build_phase_perturbed_povm(t, t.theta3, np.eye(2))
    for (_, a), (_, b) in zip(base, same):
        assert np.allclose(a, b, atol=1e-14)


def test_phase_perturbed_fisher_second_order():
    # The perturbed Fisher matches the phase-damped prediction
    # diag(cos d, 1) J diag(cos d, 1) to second order in d: the residual
    # shrinks like d^2 (slope >= 2 on a log-log fit).
    t = ThetaParams(0.6, 0.0, 0.3)
    w = np.eye(2)
    base, _ = build_optimal_povm(t, w)
    j0 = classical_fisher(t, base, 2)
    deltas = np.array([0.1, 0.05, 0.025])
    residuals = []
    for d in deltas:
        povm = build_phase_perturbed_povm(t, t.theta3 + d, w)
        j = classical_fisher(t, povm, 2)
        damp = np.diag([np.cos(d), 1.0])
        residuals.append(np.max(np.abs(j - damp @ j0 @ damp)))
    slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
    assert slope >= 2.0 - 0.1
