"""Classical, SLD, and RLD Fisher information for the qubit model.

The SLD quantities come in two independent routes: closed forms over the
Bloch vector, and a direct solve of the defining operator equation
d_i rho = (rho L_i + L_i rho)/2 in the Pauli basis.  The second route exists
purely as an oracle for the first.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import schur_complement
from .model import (
    SIGMA,
    SIGMA0,
    bloch_derivatives,
    bloch_from_theta,
    state_derivatives,
    state_from_theta,
)

__all__ = [
    "SingularModelError",
    "SldOperators",
    "sld_operators",
    "sld_operators_oracle",
    "sld_fisher",
    "sld_fisher_inverse",
    "rld_fisher",
    "rld_fisher_inverse",
    "outcome_gradients",
    "classical_fisher",
    "effective_fisher",
]


class SingularModelError(ValueError):
    """A POVM outcome has vanishing probability but nonvanishing gradient."""


@dataclass(frozen=True)
class SldOperators:
    """The k SLD operators, with their expansion in {sigma0, sigma}.

    operators[i] == scalar[i] * sigma0 + vectors[i] . sigma
    """

    operators: tuple
    scalars: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return len(self.operators)


def sld_operators(t, k=3):
    """SLD operators from the Bloch closed form.

    L_i = -(<d_i s, s>/(1-s^2)) sigma0 + (d_i s + (<d_i s, s>/(1-s^2)) s) . sigma
    """
    s = bloch_from_theta(t)
    s2 = float(s @ s)
    derivs = bloch_derivatives(t, k)
    scalars = np.empty(k)
    vectors = np.empty((k, 3))
    ops = []
    for i, d in enumerate(derivs):
        a = float(d @ s) / (1.0 - s2)
        scalars[i] = -a
        vectors[i] = d + a * s
        ops.append(-a * SIGMA0 + np.tensordot(vectors[i], SIGMA, axes=1))
    return SldOperators(tuple(ops), scalars, vectors)


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
    scalars = np.empty(k)
    vectors = np.empty((k, 3))
    ops = []
    for i, drho in enumerate(drhos):
        rhs = np.array([0.5 * np.trace(e @ drho).real for e in basis])
        coeffs = np.linalg.solve(system, rhs)
        scalars[i] = coeffs[0]
        vectors[i] = coeffs[1:]
        ops.append(coeffs[0] * SIGMA0 + np.tensordot(coeffs[1:], SIGMA, axes=1))
    return SldOperators(tuple(ops), scalars, vectors)


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


def sld_fisher_inverse(t, k=3):
    """Closed-form inverse of the SLD Fisher matrix.

    k=2: [[1-t1^2, -t1 t2], [-t1 t2, 1-t2^2]].
    k=3: the same 2x2 block, plus a decoupled 1/t1^2 phase block
    (the parameters of interest are SLD-orthogonal to the phase).
    """
    t1, t2 = t.theta1, t.theta2
    g2 = np.array([[1.0 - t1 * t1, -t1 * t2], [-t1 * t2, 1.0 - t2 * t2]])
    if k == 2:
        return g2
    out = np.zeros((3, 3))
    out[:2, :2] = g2
    out[2, 2] = 1.0 / (t1 * t1)
    return out


def rld_fisher(t, k=3):
    """RLD Fisher information matrix (k x k, complex Hermitian)."""
    s = bloch_from_theta(t)
    s2 = float(s @ s)
    derivs = bloch_derivatives(t, k)
    g = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            g[i, j] = (
                derivs[i] @ derivs[j] + 1j * (np.cross(derivs[i], derivs[j]) @ s)
            ) / (1.0 - s2)
    return g


def rld_fisher_inverse(t, k=3):
    """Closed-form inverse of the RLD Fisher matrix.

    k=2: (1 - s^2) * identity (real).  k=3: real part equals the SLD
    closed-form inverse; the imaginary part couples the phase to the
    interest block with entries (1,3) = -t2/t1 and (2,3) = +1.
    """
    t1, t2 = t.theta1, t.theta2
    s2 = t1 * t1 + t2 * t2
    if k == 2:
        return (1.0 - s2) * np.eye(2, dtype=complex)
    out = sld_fisher_inverse(t, 3).astype(complex)
    out[0, 2] += -1j * t2 / t1
    out[2, 0] += 1j * t2 / t1
    out[1, 2] += 1j
    out[2, 1] += -1j
    return out


def outcome_gradients(t, povm, k=3):
    """Outcome probabilities Tr(rho Pi_x) and gradients Tr(d_i rho Pi_x).

    Returns (p, dp) of shapes (m,) and (m, k), in the POVM's element order.
    """
    rho = state_from_theta(t)
    drhos = state_derivatives(t, k)
    p = np.array([np.trace(rho @ m).real for _, m in povm])
    dp = np.array([[np.trace(d @ m).real for d in drhos] for _, m in povm])
    return p, dp


def classical_fisher(t, povm, k=3):
    """Classical Fisher information of a POVM measured on the model at t.

    J_ij = sum_x d_i p(x) d_j p(x) / p(x) with analytic derivatives
    d_i p(x) = Tr(d_i rho Pi_x).  Outcomes with p below 1e-14 contribute
    nothing when their gradient also vanishes, and raise otherwise.
    """
    p, dp = outcome_gradients(t, povm, k)
    j = np.zeros((k, k))
    for (label, _), px, grad in zip(povm, p, dp):
        if px < 1e-14:
            if np.max(np.abs(grad)) > 1e-12:
                raise SingularModelError(
                    f"outcome {label!r} has zero probability but gradient "
                    f"{np.max(np.abs(grad)):.3e}"
                )
            continue
        j += np.outer(grad, grad) / px
    return j


def effective_fisher(j):
    """Effective 2x2 Fisher matrix for the interest block of a 3x3 matrix.

    Schur complement of the nuisance entry; its inverse is the interest
    block of j^{-1} and dominates (J_II)^{-1}.
    """
    return schur_complement(j)
