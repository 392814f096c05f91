"""Membership predicates for the MSE regions and their set equivalences.

Every predicate returns a RegionVerdict carrying the raw slack margins, so
callers (and tests) can see how close a candidate sits to each boundary.
Strict inequalities cannot be witnessed in floating point; candidates
within +-BOUNDARY_TOL of a strict boundary are classified as members and
flagged as boundary cases.
"""

from dataclasses import dataclass, field

import numpy as np

from .fisher import rld_fisher_inverse, sld_fisher_inverse

__all__ = [
    "RegionVerdict",
    "in_region_D",
    "in_region_D_GM",
    "in_region_D3",
    "in_region_SLD3",
    "in_region_H",
    "lemma1_equivalence_check",
]

BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class RegionVerdict:
    member: bool
    margins: dict
    boundary: bool = False

    def as_dict(self):
        return {
            "member": self.member,
            "margins": {k: float(v) for k, v in self.margins.items()},
            "boundary": self.boundary,
        }


def _as_sym(v, dim):
    v = np.asarray(v, dtype=float)
    if v.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {v.shape}")
    if not np.allclose(v, v.T, atol=1e-10, rtol=0.0):
        raise ValueError("candidate MSE matrix must be symmetric")
    return 0.5 * (v + v.T)


def _verdict(margins):
    member = all(m >= -BOUNDARY_TOL for m in margins.values())
    boundary = member and any(abs(m) <= BOUNDARY_TOL for m in margins.values())
    return RegionVerdict(member, margins, boundary)


def in_region_D(v, t):
    """Nagaoka MSE region: det(V - G^{-1}) >= det G^{-1} with V > G^{-1}."""
    v = _as_sym(v, 2)
    ginv = sld_fisher_inverse(t, 2)
    diff = v - ginv
    margins = {
        "eigen_slack": float(np.min(np.linalg.eigvalsh(diff))),
        "det_slack": float(np.linalg.det(diff) - np.linalg.det(ginv)),
    }
    return _verdict(margins)


def in_region_D_GM(v, t):
    """Gill-Massar form of the same region: Tr(G^{-1} V^{-1}) <= 1, V > G^{-1}."""
    v = _as_sym(v, 2)
    if np.min(np.linalg.eigvalsh(v)) <= 0:
        raise ValueError("candidate must be positive definite for the GM form")
    ginv = sld_fisher_inverse(t, 2)
    margins = {
        "eigen_slack": float(np.min(np.linalg.eigvalsh(v - ginv))),
        "trace_slack": float(1.0 - np.trace(ginv @ np.linalg.inv(v))),
    }
    return _verdict(margins)


def in_region_D3(v, t):
    """HGM block-weight region for the three-parameter model.

    Membership requires v33 > g33 and, with gamma = v33/(v33 - g33),
    the 2x2 interest block to satisfy the Nagaoka region conditions
    scaled by gamma.
    """
    v = _as_sym(v, 3)
    g33 = 1.0 / (t.theta1 * t.theta1)
    v33_slack = float(v[2, 2] - g33)
    if v33_slack <= BOUNDARY_TOL:
        return RegionVerdict(False, {"v33_slack": v33_slack})
    gamma = v[2, 2] / (v[2, 2] - g33)
    ginv = gamma * sld_fisher_inverse(t, 2)
    diff = v[:2, :2] - ginv
    margins = {
        "v33_slack": v33_slack,
        "eigen_slack": float(np.min(np.linalg.eigvalsh(diff))),
        "det_slack": float(np.linalg.det(diff) - np.linalg.det(ginv)),
    }
    return _verdict(margins)


def in_region_SLD3(v, t):
    """Region allowed by the (unattainable) SLD CR bound for k=3."""
    v = _as_sym(v, 3)
    ginv = sld_fisher_inverse(t, 2)
    g33 = 1.0 / (t.theta1 * t.theta1)
    margins = {
        "eigen_slack": float(np.min(np.linalg.eigvalsh(v[:2, :2] - ginv))),
        "v33_slack": float(v[2, 2] - g33),
    }
    return _verdict(margins)


def in_region_H(v, t):
    """Region allowed by the Holevo bound (k inferred from the input shape).

    k=2: V >= G^{-1}.  k=3: v33 > g33, V2 > G^{-1}, and
    V2 >= gamma G^{-1} - (gamma - 1) Gt^{-1}.
    """
    v = np.asarray(v, dtype=float)
    if v.shape == (2, 2):
        v = _as_sym(v, 2)
        ginv = sld_fisher_inverse(t, 2)
        margins = {"eigen_slack": float(np.min(np.linalg.eigvalsh(v - ginv)))}
        return _verdict(margins)
    v = _as_sym(v, 3)
    g33 = 1.0 / (t.theta1 * t.theta1)
    v33_slack = float(v[2, 2] - g33)
    if v33_slack <= BOUNDARY_TOL:
        return RegionVerdict(False, {"v33_slack": v33_slack})
    gamma = v[2, 2] / (v[2, 2] - g33)
    ginv = sld_fisher_inverse(t, 2)
    gtinv = rld_fisher_inverse(t, 2).real
    threshold = gamma * ginv - (gamma - 1.0) * gtinv
    margins = {
        "v33_slack": v33_slack,
        "interest_slack": float(np.min(np.linalg.eigvalsh(v[:2, :2] - ginv))),
        "holevo_slack": float(np.min(np.linalg.eigvalsh(v[:2, :2] - threshold))),
    }
    return _verdict(margins)


def lemma1_equivalence_check(c, v, trials=1000, seed=0):
    """Cross-check the two characterizations of the det-trade-off set.

    Exact side: det V >= c^2 with V positive definite.  Sampled side:
    Tr(XV) >= 2c sqrt(det X) for `trials` random PD matrices X, with the
    analytic worst case X = V^{-1} always included as sample 0
    (so a non-member is witnessed deterministically, not by luck).

    Returns {"exact_member", "sampled_member", "violations",
    "worst_margin"}.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    v = _as_sym(v, 2)
    eigs = np.linalg.eigvalsh(v)
    exact_member = bool(np.min(eigs) > 0 and np.linalg.det(v) >= c * c - 1e-12)

    rng = np.random.default_rng(seed)
    samples = []
    if np.min(eigs) > 0:
        samples.append(np.linalg.inv(v))
    for _ in range(trials):
        b = rng.uniform(-1.0, 1.0, (2, 2))
        samples.append(b.T @ b + 1e-6 * np.eye(2))
    violations = 0
    worst = np.inf
    for x in samples:
        margin = float(np.trace(x @ v) - 2.0 * c * np.sqrt(np.linalg.det(x)))
        worst = min(worst, margin)
        if margin < -1e-10:
            violations += 1
    return {
        "exact_member": exact_member,
        "sampled_member": violations == 0,
        "violations": violations,
        "worst_margin": worst,
    }
