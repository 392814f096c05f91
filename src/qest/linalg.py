"""Small-dimension symmetric-matrix kernels.

`symmetric` is the one check that a matrix is square, finite and symmetric
within a tolerance; weights, region candidates and the effective Fisher
matrix go through it.  The bounds, the weight check and the region margins
use the closed form `min_eig_det` on 2x2 blocks.  The numpy PSD square root
and fidelity serve the tests (`test_linalg.py`, and criterion 2 in
`test_acceptance.py`) as independent references.
"""

import math

import numpy as np

__all__ = [
    "NotPSDError",
    "symmetric",
    "min_eig_det",
    "psd_sqrt",
    "fidelity",
]

# psd_sqrt and fidelity clip eigenvalues in [-PSD_REJECT_TOL, 0) to zero, the
# round-off of otherwise exact closed forms, and reject anything below.
PSD_REJECT_TOL = 1e-9


class NotPSDError(ValueError):
    """Input matrix has a genuinely negative eigenvalue."""


def symmetric(m, dim=None, tol=1e-12, name="matrix"):
    """m as a float array, checked and symmetrized to (m + m^T)/2.

    Raises ValueError unless m is square (dim x dim when dim is given), its
    entries are finite, and max |m - m^T| <= tol.  name opens the messages.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]):
        size = "square" if dim is None else f"{dim}x{dim}"
        raise ValueError(f"{name} must be {size}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    if abs(m - m.T).max() > tol:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def min_eig_det(a, b, c):
    """Smallest eigenvalue and determinant of the symmetric [[a, b], [b, c]]."""
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b), a * c - b * b


def psd_sqrt(m):
    """Symmetric PSD square root: the unique PSD S with S @ S = m."""
    w, u = np.linalg.eigh(symmetric(m))
    w, u = w[::-1], u[:, ::-1]  # descending: fixes the summation order below
    if np.min(w) < -PSD_REJECT_TOL:
        raise NotPSDError(f"matrix has negative eigenvalue {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def fidelity(a, b):
    """Fidelity Tr sqrt(sqrt(a) b sqrt(a)) between PSD matrices a, b."""
    ra = psd_sqrt(a)
    mid = ra @ symmetric(b) @ ra
    mid = 0.5 * (mid + mid.T)
    w = np.linalg.eigvalsh(mid)
    if np.min(w) < -PSD_REJECT_TOL:
        raise NotPSDError(f"inner matrix has negative eigenvalue {np.min(w):.3e}")
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
