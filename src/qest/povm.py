"""Qubit POVMs in Bloch form, the HGM-attaining measurement, and estimators.

Every qubit POVM element is w (I + a . sigma)/2, so a POVM is its labels,
weights w (the element traces, summing to 2) and axes a.  Probabilities
and their gradients follow from these without 2x2 matrices; the matrix
view exists only for iteration and JSON.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import hgm_bound
from .fisher import _fisher_rows, _outcome_rows, sld_inverse_entries
from .linalg import min_eig_det
from .model import SIGMA, SIGMA0, ThetaParams, bloch_from_theta

__all__ = [
    "Povm",
    "OptimalPovmPlan",
    "QuantumEstimator",
    "RankDeficientMeasurementError",
    "optimal_povm_plan",
    "build_optimal_povm",
    "build_optimal_estimator",
    "verify_locally_unbiased",
    "build_phase_perturbed_povm",
]

COMPLETENESS_TOL = 1e-12
PSD_TOL = 1e-12


class RankDeficientMeasurementError(ValueError):
    """The measurement's classical Fisher matrix is singular."""


def _validate(labels, weights, coeffs):
    """Raise unless the elements (w I + b . sigma)/2 form a POVM.

    coeffs holds the rows b = w a.  The eigenvalues of an element are
    (w +/- |b|)/2, and the elements sum to the identity iff the weights sum
    to 2 and the b sum to 0.
    """
    bad = 0.5 * (weights - np.sqrt((coeffs * coeffs).sum(axis=1))) < -PSD_TOL
    if bad.any():
        raise ValueError(f"element {labels[bad.argmax()]!r} is not PSD")
    if (
        abs(weights.sum() - 2.0) > COMPLETENESS_TOL
        or abs(coeffs.sum(axis=0)).max() > COMPLETENESS_TOL
    ):
        raise ValueError("POVM elements do not sum to the identity")


class Povm:
    """A finite labeled POVM on C^2 in Bloch form.

    Element x is weights[x] (I + axes[x] . sigma)/2: axes[x] is a unit
    vector for a projective element and 0 for a zero element.  The axes are
    stored in C order whatever the input's: the layout sets the last bits
    of axes @ s.  Iterating yields the (label, 2x2 matrix) pairs.
    """

    def __init__(self, labels, weights, axes):
        labels = [str(label) for label in labels]
        weights = np.array(weights, dtype=float)
        axes = np.array(axes, dtype=float, order="C")
        if weights.ndim != 1 or axes.shape != (len(weights), 3) or len(labels) != len(weights):
            raise ValueError(
                f"need one label and one axis per weight, got {len(labels)} labels, "
                f"weights of shape {weights.shape} and axes of shape {axes.shape}"
            )
        _validate(labels, weights, weights[:, None] * axes)
        self.labels, self.weights, self.axes = tuple(labels), weights, axes

    def __iter__(self):
        coeffs = np.tensordot(self.weights[:, None] * self.axes, SIGMA, axes=1)
        return zip(self.labels, 0.5 * (self.weights[:, None, None] * SIGMA0 + coeffs))

    def __len__(self):
        return len(self.labels)

    def probabilities(self, t):
        """Born-rule outcome probabilities w_x (1 + a_x . s)/2 at the model point t.

        Raises if one is below -1e-12 (not round-off); clips the rest at 0.
        """
        p = 0.5 * self.weights * (1.0 + self.axes @ bloch_from_theta(t))
        if p.min() < -1e-12:
            raise ValueError(f"negative outcome probability {p.min():.3e}")
        return p.clip(0.0, None)

    def to_json(self):
        """JSON text: list of {label, matrix: [[re, im] x 4]} (row-major)."""
        payload = [
            {
                "label": label,
                "matrix": [[float(v.real), float(v.imag)] for v in m.ravel()],
            }
            for label, m in self
        ]
        return json.dumps(payload)


@dataclass(frozen=True)
class OptimalPovmPlan:
    """Measurement directions, mixture probabilities, and F eigenvalues."""

    directions: np.ndarray  # (k, 3) unit Bloch vectors
    probabilities: np.ndarray  # (k,), sqrt(lambda_i) / sum sqrt(lambda_j)
    lambdas: np.ndarray  # descending eigenvalues of F

    def measurement(self):
        """The 2k-element POVM p_i (I +/- n_i . sigma)/2, labels "i+", "i-"."""
        labels, weights, axes = [], [], []
        for i, (n, p) in enumerate(zip(self.directions.tolist(), self.probabilities.tolist())):
            labels += (f"{i + 1}+", f"{i + 1}-")
            weights += (p, p)
            axes += (n, [-x for x in n])
        return Povm(labels, weights, axes)


def optimal_povm_plan(t, w):
    """The plan of the 4-element POVM attaining the Nagaoka/HGM bound (k=2).

    The phase theta3 is taken from t (the known-phase construction).
    Two binary PVMs along directions n_i are mixed with probabilities
    p_i = sqrt(lambda_i) / sum_j sqrt(lambda_j), with (lambda_i, u_i) the
    eigenpairs of F = G^(-1/2) W G^(-1/2).  Since
    W - lambda_j G = (lambda_i - lambda_j) G^(1/2) u_i u_i^T G^(1/2), the
    directions are n_i = E G^(1/2) u_i / |G^(1/2) u_i|, where E maps
    (theta1, theta2) directions to Bloch vectors; any orthonormal u_i
    serve when F is a multiple of the identity.  For 2x2 G, G^(1/2) is
    proportional to G + sqrt(det G) I; with G = adj(M)/c^2, M = G^(-1) and
    det M = c^2, that is adj(M) + c I.  The sign of each u_i, and so the
    order of the outcomes, is that of `np.linalg.eigh`.
    """
    _, lam, u = hgm_bound(t, 2, w)
    (u00, u01), (u10, u11) = u.tolist()
    a, b, c_entry, det, _ = sld_inverse_entries(t)
    c = math.sqrt(det)
    m00, m01, m11 = c_entry + c, -b, a + c
    c3, s3 = math.cos(t.theta3), math.sin(t.theta3)
    directions = []
    for x, y in ((u00, u10), (u01, u11)):
        x, y = m00 * x + m01 * y, m01 * x + m11 * y
        norm = math.hypot(x, y)
        directions.append((c3 * x / norm, s3 * x / norm, y / norm))
    roots = [math.sqrt(max(x, 0.0)) for x in lam.tolist()]
    total = roots[0] + roots[1]
    return OptimalPovmPlan(np.array(directions), np.array([x / total for x in roots]), lam)


def build_optimal_povm(t, w):
    """Optimal 4-element POVM attaining the Nagaoka/HGM bound (k=2).

    Returns (povm, plan): `plan.measurement()`, with elements "i+", "i-"
    equal to p_i (I +/- n_i . sigma)/2, and the plan.
    """
    plan = optimal_povm_plan(t, w)
    return plan.measurement(), plan


@dataclass(frozen=True)
class QuantumEstimator:
    """A POVM plus an outcome -> estimate map, locally unbiased at anchor."""

    povm: Povm
    table: np.ndarray  # (outcomes, k): row x is the estimate for outcome x
    anchor: ThetaParams

    def estimates_to_csv(self, path):
        k = self.table.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"] + [f"theta{i + 1}_hat" for i in range(k)])
            for label, row in zip(self.povm.labels, self.table.tolist()):
                writer.writerow([label] + [repr(v) for v in row])


def build_optimal_estimator(t, w, povm):
    """Locally unbiased estimator theta_i + sum_j (J^{-1})_ij d_j log p(x) (k=2).

    J is inverted through its adjugate.  Raises unless
    lambda_max / lambda_min <= 1e12, the test np.linalg.cond(J) > 1e12 on a
    symmetric PSD J.  The weight w does not enter the estimator.
    """
    scores, ((a, b), (_, c)) = _fisher_rows(t, povm, 2)
    low, det = min_eig_det(a, b, c)
    if not low > 0.0 or a + c - low > 1e12 * low:
        raise RankDeficientMeasurementError("classical Fisher matrix is singular")
    jinv = [[c / det, -b / det], [-b / det, a / det]]
    theta = t.as_array(2).tolist()
    rows = [[x + sum(u * v for u, v in zip(row, score)) for x, row in zip(theta, jinv)]
            for score in scores]
    return QuantumEstimator(povm, np.array(rows), t)


def verify_locally_unbiased(estimator):
    """Residuals of both local-unbiasedness conditions at the anchor.

    Returns {"bias_residual", "derivative_residual", "passed"}; passing
    means both residuals are below 1e-9.  Diagnostic only, never raises.
    """
    t, table = estimator.anchor, estimator.table.tolist()
    k = len(table[0])
    p, dp = _outcome_rows(t, estimator.povm, k)
    theta = t.as_array(k).tolist()
    bias_residual = max(
        abs(sum(px * row[i] for px, row in zip(p, table)) - theta[i]) for i in range(k)
    )
    derivative_residual = max(
        abs(sum(row[i] * grad[j] for row, grad in zip(table, dp)) - float(i == j))
        for i in range(k)
        for j in range(k)
    )
    return {
        "bias_residual": bias_residual,
        "derivative_residual": derivative_residual,
        "passed": bias_residual < 1e-9 and derivative_residual < 1e-9,
    }


def build_phase_perturbed_povm(t_true, theta3_estimate, w):
    """Optimal POVM built with an estimated phase in place of the true one.

    The measurement is exactly build_optimal_povm at
    (theta1, theta2, theta3_estimate); its classical Fisher at the true
    point degrades like diag(cos dtheta3, 1) conjugation to leading order.
    """
    t_built = ThetaParams(t_true.theta1, t_true.theta2, theta3_estimate)
    povm, _ = build_optimal_povm(t_built, w)
    return povm
