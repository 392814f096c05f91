"""POVM model, optimal measurement construction, locally unbiased estimator."""

import json

import numpy as np
import pytest

from qest.bounds import nagaoka_bound
from qest.fisher import classical_fisher, sld_fisher
from qest.linalg import psd_sqrt
from qest.model import SIGMA, SIGMA0, ThetaParams, bloch_from_theta
from qest.povm import (
    Povm,
    RankDeficientMeasurementError,
    build_optimal_estimator,
    build_optimal_povm,
    build_phase_perturbed_povm,
    optimal_povm_plan,
    verify_locally_unbiased,
)
from qest.simulate import TOMOGRAPHIC


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
    # weights summing to 1.5, and axes longer than 1; a Bloch form is
    # Hermitian by construction
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm(["a", "b"], [1.0, 0.5], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm(["a", "b"], [1.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="element 'a' is not PSD"):
        Povm(["a", "b"], [1.0, 1.0], [[0.0, 0.0, 1.5], [0.0, 0.0, -1.5]])


@pytest.mark.parametrize(
    "labels, weights, axes",
    [
        (["a"], [1.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        (["a", "b"], [1.0, 1.0], [[0.0, 0.0, 0.0]]),
        (["a", "b"], [[1.0, 1.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        (["a", "b"], [1.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0, -1.0]),
    ],
    ids=["label-short", "axis-broadcast", "weights-2d", "axes-flat"],
)
def test_from_bloch_needs_one_label_and_axis_per_weight(labels, weights, axes):
    with pytest.raises(ValueError, match="one label and one axis per weight"):
        Povm(labels, weights, axes)


def test_from_bloch_builds_the_package_measurements():
    assert (len(TOMOGRAPHIC), TOMOGRAPHIC.axes.shape) == (6, (6, 3))
    measurement = optimal_povm_plan(ThetaParams(0.5, 0.3, 0.7), np.eye(2)).measurement()
    assert measurement.labels == ("1+", "1-", "2+", "2-")
    assert measurement.axes.shape == (4, 3)


def test_povm_probabilities_sum_to_one():
    t = ThetaParams(0.6, 0.0, 0.3)
    povm, _ = build_optimal_povm(t, np.eye(2))
    p = povm.probabilities(t)
    assert np.all(p >= 0.0)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_povm_axes_are_stored_in_c_order():
    # axes @ s gives different last bits for C- and F-ordered axes, so the
    # constructor stores C order, whatever order its input is in.
    povm, _ = build_optimal_povm(ThetaParams(0.5, 0.3, 1.2), np.diag([1.0, 2.0]))
    assert povm.axes.flags.c_contiguous
    rng = np.random.default_rng(35)
    labels, weights = [str(x) for x in range(6)], np.full(6, 1.0 / 3.0)
    for t, _ in random_cases(40, 35):
        units = rng.normal(size=(3, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
        axes = np.stack((units, -units), axis=1).reshape(6, 3)
        in_f = Povm(labels, weights, np.asfortranarray(axes))
        in_c = Povm(labels, weights, np.ascontiguousarray(axes))
        assert in_f.axes.flags.c_contiguous
        assert np.array_equal(in_f.probabilities(t), in_c.probabilities(t))


def test_povm_json_roundtrip():
    # the JSON holds each element's matrix w (I + a . sigma)/2, row-major,
    # written out here entry by entry
    t = ThetaParams(0.5, 0.3, 1.2)
    povm, _ = build_optimal_povm(t, np.diag([1.0, 2.0]))
    payload = json.loads(povm.to_json())
    assert tuple(item["label"] for item in payload) == povm.labels
    for item, w, a in zip(payload, povm.weights, povm.axes):
        m = np.array([complex(re, im) for re, im in item["matrix"]]).reshape(2, 2)
        want = 0.5 * w * np.array([[1 + a[2], a[0] - 1j * a[1]], [a[0] + 1j * a[1], 1 - a[2]]])
        assert np.allclose(m, want, rtol=0.0, atol=1e-15)


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
    # phi about z, sign of each axis included: in label order, its outcome
    # probabilities at t are those of the phase-0 measurement at t rotated
    # by -phi, and the two estimator tables are equal.
    rng = np.random.default_rng(34)
    for t, w in random_cases(40, 34):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        at_phi = ThetaParams(t.theta1, t.theta2, phi)
        at_zero = ThetaParams(t.theta1, t.theta2, 0.0)
        povm_phi, plan_phi = build_optimal_povm(at_phi, w)
        povm_zero, plan_zero = build_optimal_povm(at_zero, w)
        c, s = np.cos(phi), np.sin(phi)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert povm_phi.labels == povm_zero.labels
        assert np.max(np.abs(povm_phi.axes - povm_zero.axes @ rotation.T)) < 1e-12
        assert np.max(np.abs(plan_phi.probabilities - plan_zero.probabilities)) < 1e-12
        table_phi = build_optimal_estimator(at_phi, w, povm_phi).table
        table_zero = build_optimal_estimator(at_zero, w, povm_zero).table
        assert np.max(np.abs(table_phi - table_zero)) < 1e-12
        # two-step: the phase-0 measurement on the truth rotated by -phi
        turned = ThetaParams(t.theta1, t.theta2, t.theta3 - phi)
        p_aimed, p_turned = povm_phi.probabilities(t), povm_zero.probabilities(turned)
        assert np.max(np.abs(p_aimed - p_turned)) < 1e-12


def test_zero_information_measurement_is_rank_deficient():
    # {I/2, I/2} ignores the state: its classical Fisher matrix is 0.
    povm = Povm(["a", "b"], [1.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(RankDeficientMeasurementError, match="singular"):
        build_optimal_estimator(ThetaParams(0.6, 0.0, 0.3), np.eye(2), povm)


def test_outcome_without_information_reads_the_anchor():
    # an element of weight 0 has p = 0 and no gradient: it adds nothing to J,
    # and the estimator maps it to the anchor
    for t, w in random_cases(10, 36):
        povm, _ = build_optimal_povm(t, w)
        padded = Povm(
            povm.labels + ("0",), np.append(povm.weights, 0.0), np.vstack((povm.axes, np.zeros(3)))
        )
        for k in (2, 3):
            assert np.array_equal(classical_fisher(t, padded, k), classical_fisher(t, povm, k))
        est = build_optimal_estimator(t, w, padded)
        assert np.array_equal(est.table[-1], t.as_array(2))
        assert np.array_equal(est.table[:-1], build_optimal_estimator(t, w, povm).table)
        assert verify_locally_unbiased(est)["passed"]


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
    # each cell is the shortest round-trip text of its estimate
    for row, label, estimate in zip(rows[1:], povm.labels, est.table):
        assert row.split(",") == [label] + [repr(float(v)) for v in estimate]


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



@pytest.mark.parametrize(
    "t, w",
    [
        # W = G + ~1e-9: the eigenvalues of F differ by 1.3e-9
        (
            ThetaParams(0.5, 0.3, 0.7),
            [[1.378787879787879, 0.22727272757272726], [0.22727272757272726, 1.1363636358636362]],
        ),
        # W = cG with G not diagonal: F = cI, any orthonormal eigenbasis
        (ThetaParams(0.5, 0.3, 0.7), 0.5 * sld_fisher(ThetaParams(0.5, 0.3, 0.7), 2)),
        (ThetaParams(-0.4, -0.6, 2.0), 3.0 * sld_fisher(ThetaParams(-0.4, -0.6, 2.0), 2)),
    ],
)
def test_weight_near_multiple_of_g_attains_nagaoka(t, w):
    w = np.asarray(w)
    povm, _ = build_optimal_povm(t, w)
    j = classical_fisher(t, povm, 2)
    assert np.trace(w @ np.linalg.inv(j)) == pytest.approx(nagaoka_bound(t, w), abs=1e-9)
