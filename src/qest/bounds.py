"""Precision bounds: SLD-CR, RLD-CR, Nagaoka, HGM, and Holevo.

Every bound is a function of the model point, the parameter count k,
and a weight matrix.  For k=3 a block weight diag(W2, w3) unlocks the
closed-form expressions; a general 3x3 weight enters the RLD bound through
its TrAbs term, which is closed-form too.
"""

from dataclasses import dataclass

import numpy as np

from .model import bloch_derivatives, bloch_from_theta
from .fisher import rld_fisher_inverse, sld_fisher_inverse

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


def _check_pd(w, name="weight"):
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} matrix entries must be finite")
    if np.max(np.abs(w - w.T)) > 1e-12:
        raise ValueError(f"{name} matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(w)) <= 0:
        raise ValueError(f"{name} matrix must be positive definite")
    return 0.5 * (w + w.T)


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
        m = _check_pd(self.matrix)
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
    if isinstance(w, WeightSpec):
        if w.k != k:
            raise ValueError(f"weight is {w.k}x{w.k} but k={k}")
        return w
    w = np.asarray(w, dtype=float)
    if w.shape != (k, k):
        raise ValueError(f"weight shape {w.shape} does not match k={k}")
    return WeightSpec(w)


def sld_cr_bound(t, k, w):
    """SLD Cramer-Rao bound Tr(W G^{-1})."""
    w = _weight(w, k)
    return float(np.trace(w.full() @ sld_fisher_inverse(t, k)))


def rld_cr_bound(t, k, w):
    """RLD Cramer-Rao bound Tr(W Re Gt^{-1}) + TrAbs(W Im Gt^{-1}).

    For k=2 the RLD inverse is real and the TrAbs term vanishes.  For k=3,
    Im Gt^{-1} is the cross-product matrix [a]x, a = (-1, -t2/t1, 0).  W [a]x
    is similar to W^(1/2) [a]x W^(1/2) = det(W^(1/2)) [W^(-1/2) a]x, whose
    eigenvalues are 0 and +/- i sqrt(det W a^T W^{-1} a).
    """
    w = _weight(w, k)
    ginv = rld_fisher_inverse(t, k)
    wf = w.full()
    value = float(np.trace(wf @ ginv.real))
    if k == 3:
        a = np.array([ginv[2, 1].imag, ginv[0, 2].imag, ginv[1, 0].imag])
        value += 2.0 * np.sqrt(np.linalg.det(wf) * (a @ np.linalg.solve(wf, a)))
    return value


def nagaoka_bound(t, w):
    """Nagaoka bound Tr(W G^{-1}) + 2 sqrt(det(W G^{-1})) for k=2."""
    w = _weight(w, 2)
    ginv = sld_fisher_inverse(t, 2)
    wg = w.matrix @ ginv
    return float(np.trace(wg) + 2.0 * np.sqrt(np.linalg.det(wg)))


def hgm_bound(t, k, w):
    """Hayashi-Gill-Massar bound (F(G^{-1}, W))^2.

    Returns (value, lambdas, u) where lambdas are the descending
    eigenvalues of F = sqrt(G^{-1}) W sqrt(G^{-1}) and u the orthogonal
    matrix diagonalizing it; the optimal-POVM construction reuses both.
    The 2x2 block M of G^{-1} has det M = 1 - t1^2 - t2^2 = c^2 and
    tr M = 1 + c^2, so sqrt(M) = (M + c I)/(1 + c); the phase entry of
    sqrt(G^{-1}) is 1/|t1|.
    """
    w = _weight(w, k)
    root = sld_fisher_inverse(t, k)
    c = np.sqrt(1.0 - t.theta1 * t.theta1 - t.theta2 * t.theta2)
    root[:2, :2] = (root[:2, :2] + c * np.eye(2)) / (1.0 + c)
    if k == 3:
        root[2, 2] = 1.0 / abs(t.theta1)
    f = root @ w.full() @ root
    lam, u = np.linalg.eigh(0.5 * (f + f.T))
    order = np.argsort(lam)[::-1]
    lam, u = lam[order], u[:, order]
    value = float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2)
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
    ginv = sld_fisher_inverse(t, 2)
    gtinv = rld_fisher_inverse(t, 2).real
    g33 = 1.0 / (t.theta1 * t.theta1)
    cross = float(np.trace(w.matrix @ (ginv - gtinv)))
    return float(
        np.trace(w.matrix @ ginv)
        + w.w3 * g33
        + 2.0 * np.sqrt(w.w3 * g33) * np.sqrt(max(cross, 0.0))
    )


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
    wm = _weight(w, 2).matrix
    kappa = 2.0 * np.sqrt(np.linalg.det(wm))
    s = bloch_from_theta(t)
    d = np.array(bloch_derivatives(t, 2))
    base = d.T @ np.linalg.inv(d @ d.T)  # columns: p^1, p^2
    normal = _skew(d[0]) @ d[1]
    normal = normal / np.linalg.norm(normal)
    cross_s = _skew(s)  # <a x b, s> = b @ cross_s @ a

    def objective(a):
        x = base + np.outer(normal, a)
        xs = x.T @ s
        gram = x.T @ x - np.outer(xs, xs)
        return float(np.sum(wm * gram) + kappa * abs(x[:, 1] @ cross_s @ x[:, 0]))

    # grad q = 2 W a and grad l = m: every candidate is a multiple of W^{-1} m
    m = np.array([base[:, 1] @ cross_s @ normal, normal @ cross_s @ base[:, 0]])
    direction = np.linalg.solve(wm, m)
    scales = [-0.5 * kappa, 0.5 * kappa]
    if m @ direction > 0.0:
        scales.append(-(base[:, 1] @ cross_s @ base[:, 0]) / (m @ direction))
    values = [objective(c * direction) for c in scales]
    best = scales[int(np.argmin(values))] * direction
    return min(values), tuple(base[:, i] + best[i] * normal for i in range(2))


def _skew(v):
    """The matrix of u -> v x u."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


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
    if k == 2:
        sep = nagaoka_bound(t, w)
        holevo = sld
    else:
        sep = hgm_bound(t, 3, w)[0]
        holevo = holevo_bound_k3(t, w)
    return BoundReport(sld, rld, sep, holevo, k, tuple(t.as_array(3)), w)
