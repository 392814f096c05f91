"""Precision bounds: SLD-CR, RLD-CR, Nagaoka, HGM, and Holevo.

Every bound is a function of the model point, the parameter count k,
and a weight matrix.  For k=3 a block weight diag(W2, w3) unlocks the
closed-form expressions; a general 3x3 weight enters the RLD bound through
its TrAbs term, which is closed-form too.  All are scalar arithmetic on
matrix entries; only the k=3 `hgm_bound` eigenpairs and the reference
forms keep numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import bloch_rows
from .fisher import sld_inverse_entries
from .linalg import eigh2, min_eig_det, symmetric

__all__ = [
    "WeightSpec",
    "BoundReport",
    "InfeasibleMseError",
    "sld_cr_bound",
    "rld_cr_bound",
    "nagaoka_bound",
    "hgm_bound",
    "gamma_factor",
    "holevo_bound_k3",
    "holevo_bound_k2",
    "bound_report",
]


class InfeasibleMseError(ValueError):
    """Requested phase MSE below the attainable floor g33."""


@dataclass(frozen=True)
class WeightSpec:
    """A positive-definite weight matrix, possibly in block form.

    Block form is the pair (W2, w3) standing for diag(W2, w3); the block
    structure is declared explicitly, never inferred from numeric zeros,
    because the k=3 closed forms are exact only for the declared class.
    """

    matrix: np.ndarray
    w3: float | None = None

    def __post_init__(self):
        m = symmetric(self.matrix, name="weight matrix")
        if m.shape not in ((2, 2), (3, 3)):
            raise ValueError(f"weight matrix must be 2x2 or 3x3, got shape {m.shape}")
        r = m.tolist()  # positive definite iff its leading principal minors are > 0
        det3 = sum(x * y for x, y in zip(r[0], _cofactors(r))) if len(r) == 3 else 1.0  # row 0
        if min(r[0][0], min_eig_det(r[0][0], r[0][1], r[1][1])[1], det3) <= 0:
            raise ValueError("weight matrix must be positive definite")
        object.__setattr__(self, "matrix", m)
        if self.w3 is not None:
            if m.shape != (2, 2):
                raise ValueError("block form requires a 2x2 interest weight")
            if not 0.0 < self.w3 < np.inf:
                raise ValueError("w3 must be positive and finite")

    @classmethod
    def identity(cls, k):
        return cls(np.eye(k))

    @classmethod
    def block(cls, w2, w3):
        return cls(np.asarray(w2, dtype=float), float(w3))

    @property
    def is_block(self):
        return self.w3 is not None

    @property
    def k(self):
        return 3 if self.is_block else self.matrix.shape[0]

    def full(self):
        """The weight as a dense k x k matrix."""
        if not self.is_block:
            return self.matrix.copy()
        out = np.zeros((3, 3))
        out[:2, :2] = self.matrix
        out[2, 2] = self.w3
        return out


def _weight(w, k):
    w = w if isinstance(w, WeightSpec) else WeightSpec(w)
    if w.k != k:
        raise ValueError(f"weight is {w.k}x{w.k} but k={k}")
    return w


def _rows(w):
    r = w.matrix.tolist()
    return [r[0] + [0.0], r[1] + [0.0], [0.0, 0.0, float(w.w3)]] if w.is_block else r


def _cofactors(r):
    """Entries 00, 01, 02 and 11 of the adjugate of the symmetric 3x3 rows r."""
    (a, b, c), (_, d, e), (_, _, f) = r
    return d * f - e * e, c * e - b * f, b * e - c * d, a * f - c * c


def _sld_trace(t, r):
    """Tr(W G^{-1}) for the weight rows r."""
    a, b, c, _, g33 = sld_inverse_entries(t)
    value = r[0][0] * a + 2.0 * r[0][1] * b + r[1][1] * c
    return value + r[2][2] * g33 if len(r) == 3 else value


def sld_cr_bound(t, k, w):
    """SLD Cramer-Rao bound Tr(W G^{-1})."""
    return _sld_trace(t, _rows(_weight(w, k)))


def rld_cr_bound(t, k, w):
    """RLD Cramer-Rao bound Tr(W Re Gt^{-1}) + TrAbs(W Im Gt^{-1}).

    For k=2 the RLD inverse is (1 - s^2) I and the TrAbs term vanishes.  For
    k=3, Re Gt^{-1} = G^{-1} and Im Gt^{-1} is [a]x, a = (-1, -t2/t1, 0).
    W [a]x is similar to W^(1/2) [a]x W^(1/2) = det(W^(1/2)) [W^(-1/2) a]x,
    with eigenvalues 0 and +/- i z, z^2 = det W a^T W^{-1} a = a^T adj(W) a.
    """
    r = _rows(_weight(w, k))
    if k == 2:
        return sld_inverse_entries(t)[3] * (r[0][0] + r[1][1])
    a00, a01, _, a11 = _cofactors(r)
    ratio = t.theta2 / t.theta1
    return _sld_trace(t, r) + 2.0 * math.sqrt(a00 + 2.0 * ratio * a01 + ratio * ratio * a11)


def nagaoka_bound(t, w):
    """Nagaoka bound Tr(W G^{-1}) + 2 sqrt(det W det G^{-1}) for k=2."""
    r = _rows(_weight(w, 2))
    det = min_eig_det(r[0][0], r[0][1], r[1][1])[1]
    return _sld_trace(t, r) + 2.0 * math.sqrt(det * sld_inverse_entries(t)[3])


def hgm_bound(t, k, w):
    """Hayashi-Gill-Massar bound (F(G^{-1}, W))^2.

    Returns (value, lambdas, u) where lambdas are the descending
    eigenvalues of F = sqrt(G^{-1}) W sqrt(G^{-1}) and u the orthogonal
    matrix diagonalizing it, each column with the sign `np.linalg.eigh`
    gives it; the optimal-POVM construction reuses both.  The 2x2 block M
    of G^{-1} has det M = 1 - t1^2 - t2^2 = c^2 and tr M = 1 + c^2, so
    sqrt(M) = (M + c I)/(1 + c); the phase entry of sqrt(G^{-1}) is 1/|t1|.
    F is built from its entries; k=2 takes its eigenpairs from `eigh2`,
    k=3 from one `np.linalg.eigh`.
    """
    r = _rows(_weight(w, k))
    p, q, s, det, _ = sld_inverse_entries(t)
    c = math.sqrt(det)
    p, q, s = (p + c) / (1.0 + c), q / (1.0 + c), (s + c) / (1.0 + c)
    # rows of sqrt(M) W2, then F2 = sqrt(M) W2 sqrt(M)
    a0, a1 = p * r[0][0] + q * r[0][1], p * r[0][1] + q * r[1][1]
    b0, b1 = q * r[0][0] + s * r[0][1], q * r[0][1] + s * r[1][1]
    f00, f01, f11 = a0 * p + a1 * q, a0 * q + a1 * s, b0 * q + b1 * s
    if k == 2:
        lam, ((x1, y1), (x2, y2)) = eigh2(f00, f01, f11)
        lam, u = np.array(lam), np.array([[x1, x2], [y1, y2]])
    else:
        z = 1.0 / abs(t.theta1)
        f02, f12 = z * (p * r[0][2] + q * r[1][2]), z * (q * r[0][2] + s * r[1][2])
        f = [[f00, f01, f02], [f01, f11, f12], [f02, f12, z * z * r[2][2]]]
        lam, u = np.linalg.eigh(f)
        lam, u = lam[::-1].copy(), u[:, ::-1].copy()
    value = sum(math.sqrt(max(x, 0.0)) for x in lam.tolist()) ** 2
    return value, lam, u


def gamma_factor(v33, g33):
    """Inflation factor v33 / (v33 - g33) caused by finite phase knowledge."""
    if not g33 > 0:
        raise ValueError("g33 must be positive")
    if not v33 > g33:
        raise InfeasibleMseError(
            f"v33 = {v33:.6g} must exceed the phase floor g33 = {g33:.6g}"
        )
    if np.isinf(v33):
        return 1.0
    return v33 / (v33 - g33)


def holevo_bound_k3(t, w):
    """Holevo bound for the three-parameter model (D-invariant closed form).

    Equals the RLD CR bound: Tr(W G(3)^{-1}) + TrAbs(W Im Gt(3)^{-1}).
    For block weights this is checked in tests against the fully explicit
    form Tr(W2 G^{-1}) + w3 g33 + 2 sqrt(w3 g33 Tr(W2 (G^{-1} - Gt^{-1}))).
    """
    return rld_cr_bound(t, 3, w)


def holevo_bound_k3_block(t, w):
    """Explicit block-weight form of the k=3 Holevo bound."""
    w = _weight(w, 3)
    if not w.is_block:
        raise ValueError("explicit form requires a block weight")
    (w00, w01), (_, w11) = w.matrix.tolist()
    a, b, c, det, g33 = sld_inverse_entries(t)
    # Re Gt^{-1} = det I on the interest block
    cross = w00 * (a - det) + 2.0 * w01 * b + w11 * (c - det)
    return (w00 * a + 2.0 * w01 * b + w11 * c + w.w3 * g33
            + 2.0 * math.sqrt(w.w3 * g33) * math.sqrt(max(cross, 0.0)))


def holevo_bound_k2(t, w):
    """Holevo bound for the known-phase model, minimized exactly.

    Each operator is a Bloch vector x^i with <x^i, d_j s> = delta_ij, so
    x^i = p^i + a_i n: p^i the minimum-norm solution, n the unit normal to
    d_1 s and d_2 s.  The objective

        h = sum w_ij (<x^i,x^j> - <x^i,s><s,x^j>) + 2 sqrt(det W) |<x^1 x x^2, s>|

    is q(a) + kappa |l(a)|.  Since s = t1 d_1 s + t2 d_2 s is normal to n,
    q(a) = q(0) + a^T W a; l(a) = l(0) + m^T a is affine because n x n = 0.
    So the minimizer is the stationary point of q + kappa l or of
    q - kappa l, or, where l vanishes, the minimizer of q on the line l = 0.
    h is evaluated at these three closed-form points (the third skipped
    when l is constant) and the smallest value is returned.  Analytically
    it equals Tr(W G^{-1}), which the tests assert; G is not used here.

    Returns (value, (x1, x2)).
    """
    (w00, w01), (_, w11) = _rows(_weight(w, 2))
    det = min_eig_det(w00, w01, w11)[1]
    kappa = 2.0 * math.sqrt(det)
    s, (d1, d2) = bloch_rows(t, 2)
    g11, g12, g22 = _dot(d1, d1), _dot(d1, d2), _dot(d2, d2)  # Gram matrix D D^T
    gdet = min_eig_det(g11, g12, g22)[1]
    p1 = [(g22 * x - g12 * y) / gdet for x, y in zip(d1, d2)]
    p2 = [(g11 * y - g12 * x) / gdet for x, y in zip(d1, d2)]
    n = _cross(d1, d2)
    normal = [x / math.hypot(*n) for x in n]

    def shifted(p, a):  # p + a n
        return [x + a * y for x, y in zip(p, normal)]

    def triple(u, v):  # <u x v, s>
        return _dot(_cross(u, v), s)

    def objective(a):
        x1, x2 = shifted(p1, a[0]), shifted(p2, a[1])
        s1, s2 = _dot(x1, s), _dot(x2, s)
        q = (w00 * (_dot(x1, x1) - s1 * s1) + 2.0 * w01 * (_dot(x1, x2) - s1 * s2)
             + w11 * (_dot(x2, x2) - s2 * s2))
        return q + kappa * abs(triple(x1, x2))

    # grad q = 2 W a and grad l = m: every candidate is a multiple of W^{-1} m
    m = (triple(normal, p2), triple(p1, normal))
    direction = ((w11 * m[0] - w01 * m[1]) / det, (w00 * m[1] - w01 * m[0]) / det)
    curvature = m[0] * direction[0] + m[1] * direction[1]
    scales = [-0.5 * kappa, 0.5 * kappa]
    if curvature > 0.0:
        scales.append(-triple(p1, p2) / curvature)
    values = [objective((c * direction[0], c * direction[1])) for c in scales]
    best = scales[values.index(min(values))]
    return min(values), tuple(np.array(shifted(p, best * e)) for p, e in zip((p1, p2), direction))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


@dataclass(frozen=True)
class BoundReport:
    """Named bound values at one model point for one weight."""

    sld_cr: float
    rld_cr: float
    nagaoka_hgm: float
    holevo: float
    k: int
    theta: tuple
    weight: WeightSpec

    def as_dict(self):
        return {
            "sld_cr": self.sld_cr,
            "rld_cr": self.rld_cr,
            "nagaoka_hgm": self.nagaoka_hgm,
            "holevo": self.holevo,
            "k": self.k,
            "theta": list(self.theta),
            "weight": self.weight.full().tolist(),
        }


def bound_report(t, k, w):
    """All bounds at a model point.

    For k=2 the Holevo bound equals the SLD CR bound (reported from the
    closed form, not the numeric minimizer); the separable-measurement
    bound is the Nagaoka bound.  For k=3 the separable bound is the HGM
    value and the Holevo bound is the D-invariant closed form.
    """
    w = _weight(w, k)
    sld = sld_cr_bound(t, k, w)
    rld = rld_cr_bound(t, k, w)
    sep = nagaoka_bound(t, w) if k == 2 else hgm_bound(t, 3, w)[0]
    holevo = sld if k == 2 else rld  # rld is holevo_bound_k3 at k=3
    return BoundReport(sld, rld, sep, holevo, k, (t.theta1, t.theta2, t.theta3), w)
