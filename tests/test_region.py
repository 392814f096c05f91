"""MSE-region predicates and their set equivalences."""

import numpy as np
import pytest

from qest.bounds import WeightSpec, hgm_bound, nagaoka_bound
from qest.fisher import rld_fisher_inverse, sld_fisher_inverse
from qest.model import ThetaParams
from qest.region import (
    in_region_D,
    in_region_D3,
    in_region_D_GM,
    in_region_H,
    in_region_SLD3,
    lemma1_equivalence_check,
)

T = ThetaParams(0.6, 0.0, 0.3)


def random_candidates(count, seed, dim=2, spread=3.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.normal(size=(dim, dim))
        out.append(spread * (a @ a.T) + rng.uniform(0.0, 2.0) * np.eye(dim))
    return out


def test_D_accepts_generous_candidate():
    v = 10.0 * np.eye(2)
    assert in_region_D(v, T).member


def test_D_rejects_below_cr():
    ginv = sld_fisher_inverse(T, 2)
    assert not in_region_D(0.5 * ginv, T).member


def test_D_and_GM_agree():
    ginv = sld_fisher_inverse(T, 2)
    candidates = random_candidates(300, 40)
    # Include near-boundary candidates built from the CR inverse.
    for scale in (1.01, 1.5, 2.0, 3.0):
        candidates.append(scale * ginv)
    agree = 0
    for v in candidates:
        if np.min(np.linalg.eigvalsh(v)) <= 0:
            continue
        a = in_region_D(v, T).member
        b = in_region_D_GM(v, T).member
        assert a == b
        agree += 1
    assert agree >= 300


def test_D_boundary_candidate():
    # V = G^{-1} + c G^{-1}/sqrt(det ...) sits exactly on the det boundary
    # when det(V - G^{-1}) = det G^{-1}; use V = 2 G^{-1}.
    ginv = sld_fisher_inverse(T, 2)
    verdict = in_region_D(2.0 * ginv, T)
    assert verdict.member
    assert verdict.boundary


def test_optimal_mse_sits_on_D_boundary():
    # The attainable optimum Tr(WV) = Nagaoka bound lies on the region's
    # boundary surface.
    w = np.eye(2)
    ginv = sld_fisher_inverse(T, 2)
    v_opt = ginv + np.sqrt(np.linalg.det(w @ ginv)) * np.linalg.inv(w)
    verdict = in_region_D(v_opt, T)
    assert verdict.member
    assert np.trace(w @ v_opt) == pytest.approx(
        nagaoka_bound(T, w), abs=1e-10
    )
    assert abs(verdict.margins["det_slack"]) < 1e-9


def test_D3_requires_phase_variance_above_threshold():
    g33 = 1.0 / (T.theta1 * T.theta1)
    v = np.diag([10.0, 10.0, 0.5 * g33])
    assert not in_region_D3(v, T).member
    v = np.diag([50.0, 50.0, 2.0 * g33])
    assert in_region_D3(v, T).member


def test_D3_subset_of_SLD3():
    for v in random_candidates(400, 41, dim=3, spread=5.0):
        if in_region_D3(v, T).member:
            assert in_region_SLD3(v, T).member


def test_SLD3_strictly_larger_witness():
    # The SLD CR matrix bound itself is not attainable jointly: V = G(3)^{-1}
    # satisfies the SLD region but fails the trade-off region.
    ginv3 = np.zeros((3, 3))
    ginv3[:2, :2] = sld_fisher_inverse(T, 2)
    ginv3[2, 2] = 1.0 / (T.theta1 * T.theta1)
    assert in_region_SLD3(ginv3, T).member
    assert not in_region_D3(ginv3, T).member


def test_H_k2_is_matrix_cr():
    ginv = sld_fisher_inverse(T, 2)
    assert in_region_H(1.0001 * ginv, T).member
    assert not in_region_H(0.9 * ginv, T).member


def test_H_k3_subset_relationships():
    # Holevo region contains the separable-measurement region D(3).
    inside_both = 0
    for v in random_candidates(400, 42, dim=3, spread=5.0):
        if in_region_D3(v, T).member:
            assert in_region_H(v, T).member
            inside_both += 1
    assert inside_both > 10


def test_H_k3_admits_points_outside_D3():
    # gamma-interpolated boundary: for large v33, H tends to the RLD-type
    # limit which is weaker than the scaled-Nagaoka D3 test on some inputs.
    g33 = 1.0 / (T.theta1 * T.theta1)
    ginv = sld_fisher_inverse(T, 2)
    gtinv = rld_fisher_inverse(T, 2).real
    found = False
    for f in np.linspace(1.05, 4.0, 40):
        v = np.zeros((3, 3))
        v[:2, :2] = f * ginv
        v[2, 2] = 50.0 * g33
        if in_region_H(v, T).member and not in_region_D3(v, T).member:
            found = True
            break
    assert found, (gtinv,)


def test_region_candidates_from_bounds_scalars():
    # Any V in D3 obeys the scalar HGM bound for the block weight.
    w = WeightSpec.block(np.eye(2), 1.0)
    c_hgm = hgm_bound(T, 3, w)[0]
    best = np.inf
    for v in random_candidates(500, 43, dim=3, spread=5.0):
        if in_region_D3(v, T).member:
            best = min(best, np.trace(w.full() @ v))
    assert best >= c_hgm - 1e-9


def test_lemma1_member_and_nonmember():
    c = 1.0
    member = lemma1_equivalence_check(c, np.diag([2.0, 2.0]), trials=500, seed=1)
    assert member["exact_member"] and member["sampled_member"]
    assert member["violations"] == 0

    nonmember = lemma1_equivalence_check(c, np.diag([2.0, 0.25]), trials=500, seed=1)
    assert not nonmember["exact_member"]
    assert not nonmember["sampled_member"]
    assert nonmember["worst_margin"] < -1e-10


def test_lemma1_analytic_witness_is_tight():
    # At X = V^{-1} the margin is 2 - 2c/sqrt(det V), zero iff det V = c^2.
    c = 2.0
    result = lemma1_equivalence_check(c, np.diag([2.0, 2.0]), trials=10, seed=2)
    assert result["exact_member"]
    assert result["worst_margin"] == pytest.approx(0.0, abs=1e-12)


def test_rejects_asymmetric_candidate():
    with pytest.raises(ValueError):
        in_region_D(np.array([[1.0, 0.5], [0.0, 1.0]]), T)


PREDICATES_2 = (in_region_D, in_region_D_GM, in_region_H)
PREDICATES_3 = (in_region_D3, in_region_SLD3, in_region_H)


def test_candidate_symmetry_tolerance_is_1e_10():
    # CSV candidates carry 9 significant digits; weights are held to 1e-12.
    for predicates, v in ((PREDICATES_2, 2.0 * np.eye(2)), (PREDICATES_3, 50.0 * np.eye(3))):
        skew = np.zeros_like(v)
        skew[0, 1] = 1.0
        for predicate in predicates:
            predicate(v + 5e-11 * skew, T)
            with pytest.raises(ValueError, match="candidate MSE matrix must be symmetric"):
                predicate(v + 2e-10 * skew, T)
    lemma1_equivalence_check(1.0, [[2.0, 5e-11], [0.0, 2.0]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_candidate_entries_must_be_finite(bad):
    for predicates, dim in ((PREDICATES_2, 2), (PREDICATES_3, 3)):
        diagonal, off_diagonal = 2.0 * np.eye(dim), 2.0 * np.eye(dim)
        diagonal[0, 0] = bad
        off_diagonal[0, 1] = off_diagonal[1, 0] = bad
        for predicate in predicates:
            for v in (diagonal, off_diagonal):
                with pytest.raises(
                    ValueError, match="^candidate MSE matrix entries must be finite$"
                ):
                    predicate(v, T)
    with pytest.raises(ValueError, match="finite"):
        lemma1_equivalence_check(1.0, np.diag([bad, 1.0]))
