"""Membership predicates for the MSE regions and their set equivalences.

Every predicate returns a RegionVerdict carrying the raw slack margins, so
callers (and tests) can see how close a candidate sits to each boundary.
Strict inequalities cannot be witnessed in floating point; candidates
within +-BOUNDARY_TOL of a strict boundary are classified as members and
flagged as boundary cases.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import gamma_factor
from .fisher import sld_inverse_entries
from .linalg import min_eig_det, symmetric

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


def _candidate(v, dim):
    """Rows of the checked candidate, and the entries of its interest block."""
    # read from CSV written with 9 significant digits: asymmetry up to 1e-10
    r = symmetric(v, dim, 1e-10, "candidate MSE matrix").tolist()
    return r, (r[0][0], r[0][1], r[1][1])


def _diff(v, g):
    """Smallest eigenvalue and determinant of V - G, both given by their entries."""
    return min_eig_det(v[0] - g[0], v[1] - g[1], v[2] - g[2])


def _verdict(margins):
    member = all(m >= -BOUNDARY_TOL for m in margins.values())
    boundary = member and any(abs(m) <= BOUNDARY_TOL for m in margins.values())
    return RegionVerdict(member, margins, boundary)


def _nagaoka_margins(v2, g):
    """Slacks of V2 > G and det(V2 - G) >= det G, both given by their entries."""
    eig, det = _diff(v2, g)
    return {"eigen_slack": eig, "det_slack": det - min_eig_det(*g)[1]}


def in_region_D(v, t):
    """Nagaoka MSE region: det(V - G^{-1}) >= det G^{-1} with V > G^{-1}."""
    return _verdict(_nagaoka_margins(_candidate(v, 2)[1], sld_inverse_entries(t)[:3]))


def in_region_D_GM(v, t):
    """Gill-Massar form of the same region: Tr(G^{-1} V^{-1}) <= 1, V > G^{-1}."""
    _, v = _candidate(v, 2)
    eig, det = min_eig_det(*v)
    if eig <= 0:
        raise ValueError("candidate must be positive definite for the GM form")
    g = sld_inverse_entries(t)
    margins = {  # V^{-1} = [[c, -b], [-b, a]] / det V
        "eigen_slack": _diff(v, g)[0],
        "trace_slack": 1.0 - (g[0] * v[2] - 2.0 * g[1] * v[1] + g[2] * v[0]) / det,
    }
    return _verdict(margins)


def in_region_D3(v, t):
    """HGM block-weight region for the three-parameter model.

    Membership requires v33 > g33 and, with gamma = v33/(v33 - g33),
    the 2x2 interest block to satisfy the Nagaoka region conditions
    scaled by gamma.
    """
    r, v2 = _candidate(v, 3)
    a, b, c, _, g33 = sld_inverse_entries(t)
    v33_slack = r[2][2] - g33
    if v33_slack <= BOUNDARY_TOL:
        return RegionVerdict(False, {"v33_slack": v33_slack})
    gamma = gamma_factor(r[2][2], g33)
    g = (gamma * a, gamma * b, gamma * c)
    return _verdict({"v33_slack": v33_slack, **_nagaoka_margins(v2, g)})


def in_region_SLD3(v, t):
    """Region allowed by the (unattainable) SLD CR bound for k=3."""
    r, v2 = _candidate(v, 3)
    g = sld_inverse_entries(t)
    return _verdict({"eigen_slack": _diff(v2, g)[0], "v33_slack": r[2][2] - g[4]})


def in_region_H(v, t):
    """Region allowed by the Holevo bound (k inferred from the input shape).

    k=2: V >= G^{-1}.  k=3: v33 > g33, V2 > G^{-1}, and
    V2 >= gamma G^{-1} - (gamma - 1) Gt^{-1}, where Re Gt^{-1} = (1 - s^2) I.
    """
    g = sld_inverse_entries(t)
    if np.shape(v) == (2, 2):
        return _verdict({"eigen_slack": _diff(_candidate(v, 2)[1], g)[0]})
    r, v2 = _candidate(v, 3)
    a, b, c, det, g33 = g
    v33_slack = r[2][2] - g33
    if v33_slack <= BOUNDARY_TOL:
        return RegionVerdict(False, {"v33_slack": v33_slack})
    gamma = gamma_factor(r[2][2], g33)
    shift = (gamma - 1.0) * det
    margins = {
        "v33_slack": v33_slack,
        "interest_slack": _diff(v2, g)[0],
        "holevo_slack": _diff(v2, (gamma * a - shift, gamma * b, gamma * c - shift))[0],
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
    v = np.array(_candidate(v, 2)[0])
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
