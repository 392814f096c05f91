"""Small-dimension symmetric-matrix kernels.

The library's bounds use closed forms; the generic eigendecomposition, PSD
square root and fidelity here serve the tests as independent references.
The Schur complement gives the effective Fisher matrix of the parameters of
interest.  Everything works on plain 2x2 or 3x3 numpy arrays.
"""

import numpy as np

__all__ = [
    "NotPSDError",
    "sym_eig",
    "psd_sqrt",
    "fidelity",
    "schur_complement",
]

# psd_sqrt and fidelity clip eigenvalues in [-PSD_REJECT_TOL, 0) to zero, the
# round-off of otherwise exact closed forms, and reject anything below.
PSD_REJECT_TOL = 1e-9


class NotPSDError(ValueError):
    """Input matrix has a genuinely negative eigenvalue."""


def _as_sym(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def sym_eig(m):
    """Eigendecomposition of a real symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns, so that
    m = U diag(w) U^T.
    """
    m = _as_sym(m)
    w, u = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order], u[:, order]


def psd_sqrt(m):
    """Symmetric PSD square root: the unique PSD S with S @ S = m."""
    w, u = sym_eig(m)
    if np.min(w) < -PSD_REJECT_TOL:
        raise NotPSDError(f"matrix has negative eigenvalue {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def fidelity(a, b):
    """Fidelity Tr sqrt(sqrt(a) b sqrt(a)) between PSD matrices a, b."""
    ra = psd_sqrt(a)
    mid = ra @ _as_sym(b) @ ra
    mid = 0.5 * (mid + mid.T)
    w = np.linalg.eigvalsh(mid)
    if np.min(w) < -PSD_REJECT_TOL:
        raise NotPSDError(f"inner matrix has negative eigenvalue {np.min(w):.3e}")
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def schur_complement(j):
    """Schur complement of the (3,3) entry of a positive-definite 3x3 matrix.

    Returns the 2x2 matrix J_II - J_IN J_NN^{-1} J_NI for the partition
    I = {1,2}, N = {3}.  Its inverse equals the I-block of J^{-1}.
    """
    j = _as_sym(j)
    if j.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {j.shape}")
    jnn = j[2, 2]
    if abs(jnn) < 1e-14:
        raise np.linalg.LinAlgError("nuisance block J_NN is singular")
    jin = j[:2, 2]
    return j[:2, :2] - np.outer(jin, jin) / jnn
