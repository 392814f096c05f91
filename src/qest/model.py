"""The qubit family under study: parameters, states, Bloch representation.

The state is
    rho = 1/2 [[1 + t2,         t1 exp(-i t3)],
               [t1 exp(i t3),   1 - t2      ]]
with t1^2 + t2^2 < 1 and t1 != 0 (full rank, nonvanishing off-diagonal).
The phase t3 is the nuisance parameter.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA",
    "SIGMA0",
    "ThetaParams",
    "state_from_theta",
    "bloch_from_theta",
    "bloch_derivatives",
    "bloch_rows",
    "state_from_bloch",
]

SIGMA0 = np.eye(2, dtype=complex)
SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

MIN_THETA1 = 1e-9


@dataclass(frozen=True)
class ThetaParams:
    """Model point (theta1, theta2, theta3).

    theta1 is the visibility amplitude, theta2 the population imbalance and
    theta3 the phase (radians, normalized into [0, 2pi) at construction).
    """

    theta1: float
    theta2: float
    theta3: float = 0.0

    def __post_init__(self):
        t1, t2, t3 = float(self.theta1), float(self.theta2), float(self.theta3)
        if not (math.isfinite(t1) and math.isfinite(t2) and math.isfinite(t3)):
            raise ValueError("theta components must be finite")
        if t1 * t1 + t2 * t2 >= 1.0:
            raise ValueError(
                f"theta1^2 + theta2^2 = {t1 * t1 + t2 * t2:.6g} must be < 1"
            )
        if abs(t1) <= MIN_THETA1:
            raise ValueError("theta1 must be nonzero (the model excludes theta1 = 0)")
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)
        object.__setattr__(self, "theta3", t3 % (2.0 * math.pi))

    @classmethod
    def parse(cls, text):
        """Parse "t1,t2,t3" (comma-separated decimals, radians)."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected 't1,t2,t3', got {text!r}")
        return cls(*(float(p) for p in parts))

    def as_array(self, k=3):
        if k == 2:
            return np.array([self.theta1, self.theta2])
        return np.array([self.theta1, self.theta2, self.theta3])


def bloch_from_theta(t):
    """Bloch vector s = (t1 cos t3, t1 sin t3, t2)."""
    return np.array(bloch_rows(t, 2)[0])


def state_from_bloch(s):
    """Density matrix (sigma0 + s . sigma) / 2 for a Bloch vector s."""
    s = np.asarray(s, dtype=float)
    return 0.5 * (SIGMA0 + np.tensordot(s, SIGMA, axes=1))


def state_from_theta(t):
    """Density matrix of the model at t (2x2 complex Hermitian, unit trace)."""
    return state_from_bloch(bloch_from_theta(t))


def bloch_derivatives(t, k=3):
    """Partial derivatives of the Bloch vector with respect to theta.

    Returns a list of k 3-vectors.  k=2 treats the phase as known and
    drops the theta3 derivative.
    """
    return [np.array(d) for d in bloch_rows(t, k)[1]]


def bloch_rows(t, k=3):
    """The Bloch vector and its k derivatives, as tuples of Python floats."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    t1, c, s = t.theta1, math.cos(t.theta3), math.sin(t.theta3)
    derivs = ((c, s, 0.0), (0.0, 0.0, 1.0), (-t1 * s, t1 * c, 0.0))
    return (t1 * c, t1 * s, t.theta2), derivs[:k]


def state_derivatives(t, k=3):
    """Partial derivatives of the density matrix: d_i rho = (d_i s . sigma)/2."""
    return [0.5 * np.tensordot(d, SIGMA, axes=1) for d in bloch_derivatives(t, k)]
