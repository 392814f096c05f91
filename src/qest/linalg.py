"""Small-dimension symmetric-matrix kernels.

`symmetric` is the one check that a matrix is square, nonempty, finite and
symmetric within a tolerance; weights, region candidates and the effective
Fisher matrix go through it.  The bounds, the weight check and the region
margins use the closed form `min_eig_det` on 2x2 blocks, and the HGM bound
and the optimal measurement take their eigenpairs from `eigh2`.  The numpy
PSD square root and fidelity serve the tests (`test_linalg.py`, and
criterion 2 in `test_acceptance.py`) as independent references.
"""

import math
import sys

import numpy as np

__all__ = [
    "NotPSDError",
    "symmetric",
    "min_eig_det",
    "eigh2",
    "psd_sqrt",
    "fidelity",
]

# psd_sqrt and fidelity clip eigenvalues in [-PSD_REJECT_TOL, 0) to zero, the
# round-off of otherwise exact closed forms, and reject anything below.
PSD_REJECT_TOL = 1e-9

# LAPACK's dlamch("E") and dlamch("S"): the unit roundoff and the smallest
# normal double
_EPS = 2.0**-53
_SAFMIN = sys.float_info.min


class NotPSDError(ValueError):
    """Input matrix has a genuinely negative eigenvalue."""


def symmetric(m, dim=None, tol=1e-12, name="matrix"):
    """m as a float array, checked and symmetrized to (m + m^T)/2.

    Raises ValueError unless m is square (dim x dim when dim is given) and
    not empty, its entries are finite, and max |m - m^T| <= tol.  name opens
    the messages.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]):
        size = "square" if dim is None else f"{dim}x{dim}"
        raise ValueError(f"{name} must be {size}, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{name} must not be empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    if abs(m - m.T).max() > tol:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def min_eig_det(a, b, c):
    """Smallest eigenvalue and determinant of the symmetric [[a, b], [b, c]]."""
    return 0.5 * (a + c) - math.hypot(0.5 * (a - c), b), a * c - b * b


def eigh2(a, b, c):
    """Eigenpairs of the symmetric [[a, b], [b, c]] as `np.linalg.eigh` gives them.

    Returns ((l1, l2), (u1, u2)): the eigenvalues in descending order and
    the unit eigenvectors u_i = (x, y), each with the sign numpy gives it;
    that is eigh's output with its columns reversed.  eigh runs LAPACK
    dsyevd, whose Householder step is the identity at n = 2, so dsteqr's
    2x2 step decides: no rotation when b is negligible against a and c,
    else the rotation Z = [[cs, -sn], [sn, cs]] from dlaev2, the columns
    then sorted ascending.  This follows both routines line by line, for
    entries whose largest magnitude lies in about [1e-122, 1e146], where
    dsyevd and dsteqr do not rescale.
    """
    # dsteqr's two negligibility tests, each product in dsteqr's order
    first, second = (a, c) if abs(c) >= abs(a) else (c, a)
    if (abs(b) <= math.sqrt(abs(a)) * math.sqrt(abs(c)) * _EPS
            or b * b <= _EPS * _EPS * abs(first) * abs(second) + _SAFMIN):
        values, vectors = [a, c], [(1.0, 0.0), (0.0, 1.0)]
    else:
        # dlaev2: rt1 is the eigenvalue of larger magnitude, (cs, sn) its vector
        sm, df, tb = a + c, a - c, b + b
        adf, ab = abs(df), abs(tb)
        acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
        if adf > ab:
            rt = adf * math.sqrt(1.0 + (ab / adf) ** 2)
        elif adf < ab:
            rt = ab * math.sqrt(1.0 + (adf / ab) ** 2)
        else:
            rt = ab * math.sqrt(2.0)
        if sm != 0.0:
            rt1 = 0.5 * (sm - rt) if sm < 0.0 else 0.5 * (sm + rt)
            rt2 = (acmx / rt1) * acmn - (b / rt1) * b
        else:
            rt1, rt2 = 0.5 * rt, -0.5 * rt
        cs = df + rt if df >= 0.0 else df - rt
        if abs(cs) > ab:
            ct = -tb / cs
            sn = 1.0 / math.sqrt(1.0 + ct * ct)
            cs = ct * sn
        else:  # ab > 0 here: ab = 0 means b = 0, which is negligible
            tn = -cs / tb
            cs = 1.0 / math.sqrt(1.0 + tn * tn)
            sn = tn * cs
        if (sm < 0.0) == (df < 0.0):  # sgn1 == sgn2
            cs, sn = -sn, cs
        values, vectors = [rt1, rt2], [(cs, sn), (-sn, cs)]
    if values[1] < values[0]:  # dsteqr's selection sort, ascending
        values.reverse()
        vectors.reverse()
    return (values[1], values[0]), (vectors[1], vectors[0])


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
