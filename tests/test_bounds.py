"""Precision bounds: SLD/RLD Cramer-Rao, Nagaoka, HGM, Holevo, reports."""

import numpy as np
import pytest

from qest.bounds import (
    WeightSpec,
    bound_report,
    gamma_factor,
    hgm_bound,
    holevo_bound_k2,
    holevo_bound_k3,
    holevo_bound_k3_block,
    nagaoka_bound,
    rld_cr_bound,
    sld_cr_bound,
)
from qest.fisher import sld_fisher_inverse
from qest.linalg import fidelity
from qest.model import ThetaParams

T_REF = ThetaParams(0.5, 0.5, 1.0)


def random_cases(count, seed):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        t1 = rng.uniform(-0.95, 0.95)
        t2 = rng.uniform(-0.95, 0.95)
        if abs(t1) < 0.01 or t1 * t1 + t2 * t2 >= 0.96:
            continue
        t = ThetaParams(t1, t2, rng.uniform(0.0, 2.0 * np.pi))
        a = rng.normal(size=(2, 2))
        w = a @ a.T + 0.05 * np.eye(2)
        cases.append((t, w))
    return cases


def test_weight_spec_identity_and_block():
    w2 = WeightSpec.identity(2)
    assert w2.k == 2 and not w2.is_block
    w3 = WeightSpec.block(np.eye(2), 2.0)
    assert w3.k == 3 and w3.is_block
    full = w3.full()
    assert full[2, 2] == 2.0
    assert np.allclose(full[:2, :2], np.eye(2))
    assert np.allclose(full[2, :2], 0.0)


def test_weight_spec_rejects_indefinite():
    with pytest.raises(ValueError):
        WeightSpec(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        WeightSpec.block(np.eye(2), -1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_weight_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightSpec(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        WeightSpec.block(np.array([[1.0, bad], [bad, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="w3"):
        WeightSpec.block(np.eye(2), bad)


def test_reference_values_k2():
    w = WeightSpec.identity(2)
    assert sld_cr_bound(T_REF, 2, w) == pytest.approx(1.5, abs=1e-12)
    assert rld_cr_bound(T_REF, 2, w) == pytest.approx(1.0, abs=1e-12)
    assert nagaoka_bound(T_REF, w) == pytest.approx(2.914213562373095, abs=1e-12)
    value, lam, _ = hgm_bound(T_REF, 2, w)
    assert value == pytest.approx(2.914213562373095, abs=1e-10)
    assert np.allclose(lam, [1.0, 0.5], atol=1e-12)


def test_reference_values_k3_block():
    w = WeightSpec.block(np.eye(2), 1.0)
    assert sld_cr_bound(T_REF, 3, w) == pytest.approx(5.5, abs=1e-12)
    assert rld_cr_bound(T_REF, 3, w) == pytest.approx(8.32842712474619, abs=1e-10)
    assert hgm_bound(T_REF, 3, w)[0] == pytest.approx(13.742640687119284, abs=1e-10)
    assert holevo_bound_k3(T_REF, w) == pytest.approx(8.32842712474619, abs=1e-10)
    assert holevo_bound_k3_block(T_REF, w) == pytest.approx(
        8.32842712474619, abs=1e-10
    )


def test_nagaoka_equals_hgm_k2():
    for t, w in random_cases(50, 20):
        assert nagaoka_bound(t, w) == pytest.approx(
            hgm_bound(t, 2, w)[0], abs=1e-10
        )


def test_nagaoka_closed_form():
    for t, w in random_cases(50, 21):
        ginv = sld_fisher_inverse(t, 2)
        expected = np.trace(w @ ginv) + 2.0 * np.sqrt(np.linalg.det(w @ ginv))
        assert nagaoka_bound(t, w) == pytest.approx(expected, abs=1e-10)


def test_hgm_via_fidelity_route():
    for t, w in random_cases(30, 22):
        ginv = sld_fisher_inverse(t, 2)
        assert hgm_bound(t, 2, w)[0] == pytest.approx(
            fidelity(ginv, w) ** 2, abs=1e-9
        )


def test_hgm_exceeds_sld_cr_by_det_term():
    for t, w in random_cases(50, 23):
        gap = hgm_bound(t, 2, w)[0] - sld_cr_bound(t, 2, w)
        ginv = sld_fisher_inverse(t, 2)
        assert gap == pytest.approx(
            2.0 * np.sqrt(np.linalg.det(w @ ginv)), abs=1e-10
        )
        assert gap > 0.0


def test_bound_ordering_k2():
    for t, w in random_cases(50, 24):
        sld = sld_cr_bound(t, 2, w)
        rld = rld_cr_bound(t, 2, w)
        nag = nagaoka_bound(t, w)
        assert nag >= sld - 1e-12
        assert nag >= rld - 1e-9


def test_holevo_k2_equals_sld_cr():
    for t, w in random_cases(10, 25):
        value, _ = holevo_bound_k2(t, w)
        assert value == pytest.approx(sld_cr_bound(t, 2, w), abs=1e-6)


def test_holevo_k3_between_sld_and_hgm():
    for t, w2 in random_cases(50, 26):
        w = WeightSpec.block(w2, 1.0)
        sld = sld_cr_bound(t, 3, w)
        hol = holevo_bound_k3(t, w)
        hgm = hgm_bound(t, 3, w)[0]
        assert sld - 1e-10 <= hol <= hgm + 1e-9


def test_holevo_k3_block_routes_agree():
    for t, w2 in random_cases(30, 27):
        w = WeightSpec.block(w2, np.random.default_rng(0).uniform(0.2, 3.0))
        assert holevo_bound_k3(t, w) == pytest.approx(
            holevo_bound_k3_block(t, w), abs=1e-9
        )


def test_gamma_factor():
    assert gamma_factor(2.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert gamma_factor(np.inf, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bound_report_k2():
    report = bound_report(T_REF, 2, WeightSpec.identity(2))
    d = report.as_dict()
    assert d["sld_cr"] == pytest.approx(1.5)
    assert d["holevo"] == pytest.approx(1.5)
    assert d["nagaoka_hgm"] == pytest.approx(2.914213562373095)
    assert d["k"] == 2


def test_bound_report_k3():
    report = bound_report(T_REF, 3, WeightSpec.block(np.eye(2), 1.0))
    assert report.holevo == pytest.approx(8.32842712474619, abs=1e-9)
    assert report.nagaoka_hgm == pytest.approx(13.742640687119284, abs=1e-9)


def test_nagaoka_visibility_example():
    t = ThetaParams(0.6, 0.0, 0.0)
    assert nagaoka_bound(t, WeightSpec.identity(2)) == pytest.approx(
        3.24, abs=1e-12
    )


def test_nagaoka_limit_near_pure_state():
    # As s -> 1 the det term 2 sqrt(det W G^{-1}) = 2 sqrt(1 - s^2) vanishes
    # and Nagaoka approaches Tr G^{-1}.
    w = WeightSpec.identity(2)
    gaps = []
    for t1 in (0.9, 0.99, 0.9999):
        t = ThetaParams(t1, 0.0, 0.0)
        ginv = sld_fisher_inverse(t, 2)
        gap = nagaoka_bound(t, w) - np.trace(ginv)
        assert gap == pytest.approx(2.0 * np.sqrt(1.0 - t1 * t1), abs=1e-12)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.03
