"""Qubit POVMs in Bloch form, the HGM-attaining measurement, and estimators.

Every qubit POVM element is w (I + a . sigma)/2, so a POVM is its labels,
weights w (the element traces, summing to 2) and axes a.  Probabilities
and their gradients follow from these without 2x2 matrices; the matrix
view exists only for iteration and JSON.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .bounds import hgm_bound
from .fisher import classical_fisher, outcome_gradients, sld_fisher
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
    low = 0.5 * (weights - np.linalg.norm(coeffs, axis=1))
    bad = np.flatnonzero(low < -PSD_TOL)
    if bad.size:
        raise ValueError(f"element {labels[bad[0]]!r} is not PSD")
    if (
        abs(np.sum(weights) - 2.0) > COMPLETENESS_TOL
        or np.max(np.abs(np.sum(coeffs, axis=0))) > COMPLETENESS_TOL
    ):
        raise ValueError("POVM elements do not sum to the identity")


class Povm:
    """A finite labeled POVM on C^2 in Bloch form.

    Element x is weights[x] (I + axes[x] . sigma)/2: axes[x] is a unit
    vector for a projective element and 0 for a zero element.  Built from
    (label, 2x2 Hermitian PSD matrix) pairs summing to the identity, or
    with `from_bloch`; both run the same checks.  Iterating yields the
    (label, matrix) pairs.
    """

    def __init__(self, elements):
        labels, mats = [], []
        for label, m in elements:
            m = np.asarray(m, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"element {label!r} is not 2x2")
            if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError(f"element {label!r} is not Hermitian")
            labels.append(str(label))
            mats.append(m)
        mats = np.array(mats).reshape(-1, 2, 2)
        # M = (w I + b . sigma)/2 with w = tr M and b_k = tr(M sigma_k)
        weights = np.trace(mats, axis1=1, axis2=2).real
        coeffs = np.einsum("xij,kji->xk", mats, SIGMA).real
        _validate(labels, weights, coeffs)
        self.labels, self.weights = tuple(labels), weights
        self.axes = coeffs / np.where(weights > 0.0, weights, np.inf)[:, None]

    @classmethod
    def from_bloch(cls, labels, weights, axes):
        """The POVM with elements weights[x] (I + axes[x] . sigma)/2."""
        labels = [str(label) for label in labels]
        weights = np.array(weights, dtype=float)
        axes = np.array(axes, dtype=float).reshape(-1, 3)
        _validate(labels, weights, weights[:, None] * axes)
        return cls._unchecked(labels, weights, axes)

    @classmethod
    def _unchecked(cls, labels, weights, axes):
        povm = cls.__new__(cls)
        povm.labels, povm.weights, povm.axes = tuple(labels), weights, axes
        return povm

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
        if np.min(p) < -1e-12:
            raise ValueError(f"negative outcome probability {np.min(p):.3e}")
        return np.clip(p, 0.0, None)

    def rotated(self, phi):
        """The same POVM rotated about the z axis by the angle phi.

        A rotation keeps the weights and the axis norms, so the result is
        not checked again.
        """
        c, s = np.cos(phi), np.sin(phi)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Povm._unchecked(self.labels, self.weights, self.axes @ rotation.T)

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

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        elements = []
        for item in payload:
            flat = np.array([complex(re, im) for re, im in item["matrix"]])
            elements.append((item["label"], flat.reshape(2, 2)))
        return cls(elements)


@dataclass(frozen=True)
class OptimalPovmPlan:
    """Measurement directions, mixture probabilities, and F eigenvalues."""

    directions: np.ndarray  # (k, 3) unit Bloch vectors
    probabilities: np.ndarray  # (k,), sqrt(lambda_i) / sum sqrt(lambda_j)
    lambdas: np.ndarray  # descending eigenvalues of F

    def measurement(self):
        """The 2k-element POVM p_i (I +/- n_i . sigma)/2, labels "i+", "i-"."""
        k = len(self.directions)
        labels = [f"{i}{sign}" for i in range(1, k + 1) for sign in "+-"]
        axes = np.stack((self.directions, -self.directions), axis=1).reshape(-1, 3)
        return Povm.from_bloch(labels, np.repeat(self.probabilities, 2), axes)


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
    proportional to G + sqrt(det G) I.
    """
    _, lam, u = hgm_bound(t, 2, w)
    sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
    g = sld_fisher(t, 2)
    c3, s3 = np.cos(t.theta3), np.sin(t.theta3)
    e = np.array([[c3, 0.0], [s3, 0.0], [0.0, 1.0]])
    v = e @ (g + np.sqrt(np.linalg.det(g)) * np.eye(2)) @ u
    directions = (v / np.linalg.norm(v, axis=0)).T
    return OptimalPovmPlan(directions, sqrt_lam / np.sum(sqrt_lam), lam)


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
    estimates: dict  # label -> k-vector
    anchor: ThetaParams

    @property
    def k(self):
        return len(next(iter(self.estimates.values())))

    def estimate_matrix(self):
        """Estimates as an array aligned with the POVM's label order."""
        return np.array([self.estimates[label] for label in self.povm.labels])

    def estimates_to_csv(self, path):
        k = self.k
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"] + [f"theta{i + 1}_hat" for i in range(k)])
            for label in self.povm.labels:
                writer.writerow([label] + [f"{v!r}" for v in self.estimates[label]])


def build_optimal_estimator(t, w, povm, k=2):
    """Locally unbiased estimator theta_i + sum_j (J^{-1})_ij d_j log p(x)."""
    j = classical_fisher(t, povm, k)
    try:
        jinv = np.linalg.inv(j)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientMeasurementError(str(exc)) from exc
    if np.linalg.cond(j) > 1e12:
        raise RankDeficientMeasurementError("classical Fisher matrix is singular")
    p, dp = outcome_gradients(t, povm, k)
    theta = t.as_array(k)
    estimates = {
        label: theta.copy() if px < 1e-14 else theta + jinv @ (grad / px)
        for label, px, grad in zip(povm.labels, p, dp)
    }
    return QuantumEstimator(povm, estimates, t)


def verify_locally_unbiased(estimator, k=None):
    """Residuals of both local-unbiasedness conditions at the anchor.

    Returns {"bias_residual", "derivative_residual", "passed"}; passing
    means both residuals are below 1e-9.  Diagnostic only, never raises.
    """
    t = estimator.anchor
    if k is None:
        k = estimator.k
    p, dp = outcome_gradients(t, estimator.povm, k)
    est = np.array([estimator.estimates[label][:k] for label in estimator.povm.labels])
    bias_residual = float(np.max(np.abs(p @ est - t.as_array(k))))
    derivative_residual = float(np.max(np.abs(est.T @ dp - np.eye(k))))
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
