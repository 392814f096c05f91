"""POVMs, the HGM-attaining measurement, and locally unbiased estimators."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .bounds import WeightSpec, hgm_bound
from .fisher import classical_fisher, outcome_gradients, sld_fisher
from .model import (
    SIGMA,
    SIGMA0,
    ThetaParams,
    bloch_from_theta,
    state_from_theta,
)

__all__ = [
    "Povm",
    "BlochPovm",
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


def _clip_probabilities(p):
    """p clipped at 0; raises if an entry is below -1e-12 (not round-off)."""
    if np.min(p) < -1e-12:
        raise ValueError(f"negative outcome probability {np.min(p):.3e}")
    return np.clip(p, 0.0, None)


class Povm:
    """A finite labeled POVM on C^2.

    Elements are (label, 2x2 Hermitian PSD matrix) pairs summing to the
    identity.  Immutable after construction.
    """

    def __init__(self, elements):
        checked = []
        total = np.zeros((2, 2), dtype=complex)
        for label, m in elements:
            m = np.asarray(m, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"element {label!r} is not 2x2")
            if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError(f"element {label!r} is not Hermitian")
            if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
                raise ValueError(f"element {label!r} is not PSD")
            checked.append((str(label), m))
            total += m
        if not np.allclose(total, SIGMA0, atol=COMPLETENESS_TOL, rtol=0.0):
            raise ValueError("POVM elements do not sum to the identity")
        self._elements = tuple(checked)

    def __iter__(self):
        return iter(self._elements)

    def __len__(self):
        return len(self._elements)

    @property
    def labels(self):
        return [label for label, _ in self._elements]

    def probabilities(self, t):
        """Born-rule outcome probabilities at the model point t."""
        rho = state_from_theta(t)
        return _clip_probabilities(
            np.array([np.trace(rho @ m).real for _, m in self._elements])
        )

    def to_json(self):
        """JSON text: list of {label, matrix: [[re, im] x 4]} (row-major)."""
        payload = [
            {
                "label": label,
                "matrix": [[float(v.real), float(v.imag)] for v in m.ravel()],
            }
            for label, m in self._elements
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
class BlochPovm:
    """A qubit POVM in Bloch form: elements w_x (I + a_x . sigma)/2.

    The outcome probabilities at Bloch vector s are w_x (1 + a_x . s)/2.
    The model is covariant under rotation about z, so the measurement that
    is optimal at phase phi is the one at phase 0 rotated by phi.
    """

    labels: tuple
    weights: np.ndarray  # (m,), the traces of the elements
    axes: np.ndarray  # (m, 3) Bloch vectors, unit for projective elements

    def probabilities(self, t):
        """Born-rule outcome probabilities at the model point t."""
        s = bloch_from_theta(t)
        return _clip_probabilities(0.5 * self.weights * (1.0 + self.axes @ s))

    def rotated(self, phi):
        """The same POVM rotated about the z axis by the angle phi."""
        c, s = np.cos(phi), np.sin(phi)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return BlochPovm(self.labels, self.weights, self.axes @ rotation.T)

    def povm(self):
        """The matrix view as a validated Povm."""
        return Povm(
            (label, 0.5 * w * (SIGMA0 + np.tensordot(a, SIGMA, axes=1)))
            for label, w, a in zip(self.labels, self.weights, self.axes)
        )


@dataclass(frozen=True)
class OptimalPovmPlan:
    """Measurement directions, mixture probabilities, and F eigenvalues."""

    directions: np.ndarray  # (k, 3) unit Bloch vectors
    probabilities: np.ndarray  # (k,), sqrt(lambda_i) / sum sqrt(lambda_j)
    lambdas: np.ndarray  # descending eigenvalues of F

    def measurement(self):
        """The 2k-element POVM p_i (I +/- n_i . sigma)/2, labels "i+", "i-"."""
        k = len(self.directions)
        labels = tuple(f"{i}{sign}" for i in range(1, k + 1) for sign in "+-")
        axes = np.stack((self.directions, -self.directions), axis=1).reshape(-1, 3)
        return BlochPovm(labels, np.repeat(self.probabilities, 2), axes)


def _projector_direction(e, w, g, lam_other):
    """Unit Bloch vector of the rank-1 projector E (W - lam_other G) E^T / norm.

    The normalizer tr W - lam_other tr G is at least |lambda_1 - lambda_2|
    in modulus, because W - lam_other G = G^(1/2) (F - lam_other) G^(1/2) has
    rank 1 and the eigenvalues of G are at least 1; so it vanishes only in
    the degenerate case, which the caller handles apart.
    """
    m = e @ ((w - lam_other * g) / (np.trace(w) - lam_other * np.trace(g))) @ e.T
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    if abs(vals[-2]) > 1e-9:
        raise AssertionError(
            f"projector is not rank-1 (second eigenvalue {vals[-2]:.3e})"
        )
    return vecs[:, -1]


def optimal_povm_plan(t, w):
    """The plan of the 4-element POVM attaining the Nagaoka/HGM bound (k=2).

    The phase theta3 is taken from t (the known-phase construction).
    Two binary PVMs along directions n_i are mixed with probabilities
    p_i = sqrt(lambda_i) / sum_j sqrt(lambda_j).
    """
    if isinstance(w, WeightSpec):
        w = w.matrix
    w = np.asarray(w, dtype=float)
    _, lam, u = hgm_bound(t, 2, w)
    sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
    c3, s3 = np.cos(t.theta3), np.sin(t.theta3)
    e = np.array([[c3, 0.0], [s3, 0.0], [0.0, 1.0]])
    if lam[0] - lam[1] < 1e-10:
        # degenerate spectrum: any orthogonal pair in the E plane is optimal
        directions = (e @ u).T
    else:
        g = sld_fisher(t, 2)
        directions = np.array(
            [_projector_direction(e, w, g, lam[other]) for other in (1, 0)]
        )
    return OptimalPovmPlan(directions, sqrt_lam / np.sum(sqrt_lam), lam)


def build_optimal_povm(t, w):
    """Optimal 4-element POVM attaining the Nagaoka/HGM bound (k=2).

    Returns (povm, plan): the matrix view of `plan.measurement()`, with
    elements "i+", "i-" equal to p_i (I +/- n_i . sigma)/2, and the plan.
    """
    plan = optimal_povm_plan(t, w)
    return plan.measurement().povm(), plan


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
