"""Classical, SLD, and RLD Fisher information for the qubit model.

The SLD quantities come in two independent routes: closed forms over the
Bloch vector, and a direct solve of the defining operator equation
d_i rho = (rho L_i + L_i rho)/2 in the Pauli basis.  The second route exists
purely as an oracle for the first.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .linalg import symmetric
from .model import (
    SIGMA,
    SIGMA0,
    bloch_derivatives,
    bloch_from_theta,
    bloch_rows,
    state_derivatives,
    state_from_theta,
)

__all__ = [
    "SingularModelError",
    "SldOperators",
    "sld_operators",
    "sld_operators_oracle",
    "sld_fisher",
    "sld_inverse_entries",
    "sld_fisher_inverse",
    "rld_fisher_inverse",
    "bloch_outcome_gradients",
    "classical_fisher",
    "effective_fisher",
]


class SingularModelError(ValueError):
    """A POVM outcome has vanishing probability but nonvanishing gradient."""


@dataclass(frozen=True)
class SldOperators:
    """The k SLD operators, each a 2x2 Hermitian matrix."""

    operators: tuple


def sld_operators(t, k=3):
    """SLD operators from the Bloch closed form.

    L_i = -(<d_i s, s>/(1-s^2)) sigma0 + (d_i s + (<d_i s, s>/(1-s^2)) s) . sigma
    """
    s = bloch_from_theta(t)
    s2 = float(s @ s)
    ops = []
    for d in bloch_derivatives(t, k):
        a = float(d @ s) / (1.0 - s2)
        ops.append(-a * SIGMA0 + np.tensordot(d + a * s, SIGMA, axes=1))
    return SldOperators(tuple(ops))


def sld_operators_oracle(t, k=3):
    """SLD operators by solving d_i rho = (rho L + L rho)/2 in the Pauli basis.

    Expanding L = c0 sigma0 + c . sigma turns the operator equation into a
    4x4 real linear system; this route is independent of the closed form.
    """
    rho = state_from_theta(t)
    drhos = state_derivatives(t, k)
    basis = [SIGMA0, SIGMA[0], SIGMA[1], SIGMA[2]]
    # column a of the system: (rho B_a + B_a rho)/2 expanded back in the basis
    cols = []
    for b in basis:
        sym = 0.5 * (rho @ b + b @ rho)
        cols.append([0.5 * np.trace(e @ sym).real for e in basis])
    system = np.array(cols).T
    ops = []
    for drho in drhos:
        rhs = np.array([0.5 * np.trace(e @ drho).real for e in basis])
        coeffs = np.linalg.solve(system, rhs)
        ops.append(coeffs[0] * SIGMA0 + np.tensordot(coeffs[1:], SIGMA, axes=1))
    return SldOperators(tuple(ops))


def sld_fisher(t, k=3):
    """SLD Fisher information matrix (k x k, real symmetric, PD)."""
    s = bloch_from_theta(t)
    s2 = float(s @ s)
    derivs = bloch_derivatives(t, k)
    g = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g[i, j] = derivs[i] @ derivs[j] + (derivs[i] @ s) * (derivs[j] @ s) / (
                1.0 - s2
            )
            g[j, i] = g[i, j]
    return g


def sld_inverse_entries(t):
    """G^{-1} as Python floats (a, b, c, det, g33); every bound reads it here.

    The interest block is [[a, b], [b, c]] = [[1-t1^2, -t1 t2], [-t1 t2, 1-t2^2]]
    with det = 1 - t1^2 - t2^2 (as written: a c - b^2 rounds differently),
    and the phase entry g33 = 1/t1^2 is decoupled from it.
    """
    t1, t2 = t.theta1, t.theta2
    return 1.0 - t1 * t1, -t1 * t2, 1.0 - t2 * t2, 1.0 - t1 * t1 - t2 * t2, 1.0 / (t1 * t1)


def sld_fisher_inverse(t, k=3):
    """Inverse of the k x k SLD Fisher matrix, from `sld_inverse_entries`."""
    a, b, c, _, g33 = sld_inverse_entries(t)
    if k == 2:
        return np.array([[a, b], [b, c]])
    return np.array([[a, b, 0.0], [b, c, 0.0], [0.0, 0.0, g33]])


def rld_fisher_inverse(t, k=3):
    """Closed-form inverse of the RLD Fisher matrix.

    k=2: (1 - s^2) * identity (real).  k=3: real part equals the SLD
    closed-form inverse; the imaginary part couples the phase to the
    interest block with entries (1,3) = -t2/t1 and (2,3) = +1.
    """
    if k == 2:
        return sld_inverse_entries(t)[3] * np.eye(2, dtype=complex)
    t1, t2 = t.theta1, t.theta2
    out = sld_fisher_inverse(t, 3).astype(complex)
    out[0, 2] += -1j * t2 / t1
    out[2, 0] += 1j * t2 / t1
    out[1, 2] += 1j
    out[2, 1] += -1j
    return out


def bloch_outcome_gradients(weights, axes, s, derivs):
    """Probabilities and gradients of the elements w_x (I + a_x . sigma)/2.

    With A the (m, 3) rows a_x and D the (k, 3) rows d_i s, returns
    p = w (1 + A s)/2 of shape (m,) and dp = (w/2) A D^T of shape (m, k).
    """
    half = 0.5 * weights
    return half * (1.0 + axes @ s), half[:, None] * (axes @ derivs.T)


def _outcome_rows(t, povm, k):
    """Outcome probabilities Tr(rho Pi_x) and gradients Tr(d_i rho Pi_x) as
    Python floats: p, a list of m values, and dp, a list of m rows of k, in
    the POVM's element order; `bloch_outcome_gradients` for one POVM."""
    s, derivs = bloch_rows(t, k)
    p, dp = [], []
    for w, (a0, a1, a2) in zip(povm.weights.tolist(), povm.axes.tolist()):
        half = 0.5 * w
        p.append(half * (1.0 + (a0 * s[0] + a1 * s[1] + a2 * s[2])))
        dp.append([half * (a0 * d[0] + a1 * d[1] + a2 * d[2]) for d in derivs])
    return p, dp


def _fisher_rows(t, povm, k):
    """(scores, J) as Python floats: each outcome's score d log p(x) = dp/p,
    a zero row for an outcome skipped as carrying no information, and the
    rows of `classical_fisher`."""
    p, dp = _outcome_rows(t, povm, k)
    upper = list(combinations_with_replacement(range(k), 2))  # a <= b, row by row
    scores, j = [], [[0.0] * k for _ in range(k)]
    for label, px, grad in zip(povm.labels, p, dp):
        if px < 1e-14:
            steepness = max(abs(g) for g in grad)
            if steepness > 1e-12:
                raise SingularModelError(
                    f"outcome {label!r} has zero probability but gradient {steepness:.3e}"
                )
            scores.append([0.0] * k)
            continue
        score = [g / px for g in grad]
        scores.append(score)
        for a, b in upper:
            j[a][b] += score[a] * grad[b]
    for a, b in upper:
        j[b][a] = j[a][b]
    return scores, j


def classical_fisher(t, povm, k=3):
    """Classical Fisher information of a POVM measured on the model at t.

    J_ij = sum_x d_i p(x) d_j p(x) / p(x) with analytic derivatives
    d_i p(x) = Tr(d_i rho Pi_x).  Outcomes with p below 1e-14 contribute
    nothing when their gradient also vanishes, and raise otherwise.
    """
    return np.array(_fisher_rows(t, povm, k)[1])


def effective_fisher(j):
    """Effective 2x2 Fisher matrix for the interest block of a 3x3 matrix.

    The Schur complement J_II - J_IN J_NN^{-1} J_NI of the nuisance entry,
    for I = {1,2}, N = {3}; its inverse is the interest block of j^{-1} and
    dominates (J_II)^{-1}.
    """
    j = symmetric(j, 3)
    jnn = j[2, 2]
    if abs(jnn) < 1e-14:
        raise np.linalg.LinAlgError("nuisance block J_NN is singular")
    jin = j[:2, 2]
    return j[:2, :2] - np.outer(jin, jin) / jnn
