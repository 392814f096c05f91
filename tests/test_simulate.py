"""Monte-Carlo simulator: sampling, MSE aggregation, estimation strategies."""

import numpy as np
import pytest

from qest.bounds import WeightSpec, nagaoka_bound
from qest.fisher import classical_fisher
from qest.model import SIGMA0, ThetaParams, bloch_derivatives, bloch_from_theta
from qest.povm import Povm, build_optimal_povm, optimal_povm_plan
from qest import simulate
from qest.simulate import (
    TOMOGRAPHIC,
    SimConfig,
    _initial_guess,
    _mle_update,
    _project_theta,
    mse_from_trials,
    run,
    run_single_copy_optimal,
    run_two_step,
    sample_outcomes,
)

T = ThetaParams(0.6, 0.0, 0.3)
W = WeightSpec.identity(2)


def test_sample_outcomes_fair_coin():
    povm = Povm([("a", SIGMA0 / 2), ("b", SIGMA0 / 2)])
    counts = sample_outcomes(T, povm, 10**6, np.random.default_rng(0))
    assert counts.sum() == 10**6
    # 5 sigma band around the mean, sigma = sqrt(n p (1-p)) = 500.
    assert abs(counts[0] - 5 * 10**5) < 2500


def test_sample_outcomes_deterministic_povm():
    povm = Povm([("only", SIGMA0)])
    counts = sample_outcomes(T, povm, 1000, np.random.default_rng(1))
    assert counts.tolist() == [1000]


def test_mse_zero_when_exact():
    est = np.tile([0.6, 0.0], (10, 1))
    res = mse_from_trials(est, [0.6, 0.0], W)
    assert np.allclose(res.empirical_mse, 0.0)
    assert res.weighted_mse == 0.0


def test_mse_alternating_unit_error():
    est = np.array([[1.6, 0.0], [-0.4, 0.0]] * 5)
    res = mse_from_trials(est, [0.6, 0.0], W)
    assert np.allclose(res.empirical_mse, np.diag([1.0, 0.0]), atol=1e-12)
    assert res.weighted_mse == pytest.approx(1.0, abs=1e-12)


def test_mse_requires_two_trials():
    with pytest.raises(ValueError):
        mse_from_trials(np.array([[0.6, 0.0]]), [0.6, 0.0], W)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T, W, "bogus", n=100, trials=10)
    with pytest.raises(ValueError):
        SimConfig(T, W, "two-step", n=100, trials=10, phase_fraction_exponent=1.5)
    with pytest.raises(ValueError):
        SimConfig(T, W, "single-copy-optimal", n=2, trials=10)
    # mse_from_trials needs two trials: fail before any trial runs
    with pytest.raises(ValueError, match="trials must be at least 2"):
        SimConfig(T, W, "adaptive", n=100, trials=1)


def test_determinism_bit_identical():
    cfg = SimConfig(T, W, "single-copy-optimal", n=50, trials=200, seed=9)
    a = run(cfg)
    b = run(cfg)
    assert a.weighted_mse == b.weighted_mse
    assert np.array_equal(a.empirical_mse, b.empirical_mse)
    assert a.stderr == b.stderr


def test_trials_order_independent_streams():
    # Per-trial RNG streams depend only on (seed, trial index), so adding a
    # trial never changes the earlier ones: (k+1) V_{k+1} - k V_k is the new
    # trial's e e^T, a rank-1 PSD matrix.
    for strategy, n in (("single-copy-optimal", 50), ("two-step", 1000), ("adaptive", 300)):
        sums = [
            trials * run(
                SimConfig(T, W, strategy, n=n, trials=trials, seed=9,
                          phase_fraction_exponent=2.0 / 3.0, batch_size=100)
            ).empirical_mse
            for trials in range(2, 7)
        ]
        for before, after in zip(sums, sums[1:]):
            increment = after - before
            scale = np.trace(increment)
            assert scale > 0.0, strategy
            assert abs(np.linalg.det(increment)) < 1e-9 * scale * scale, strategy


def test_single_copy_converges_to_inverse_fisher():
    cfg = SimConfig(T, W, "single-copy-optimal", n=200, trials=3000, seed=3)
    res = run_single_copy_optimal(cfg)
    povm, _ = build_optimal_povm(T, np.eye(2))
    jinv = np.linalg.inv(classical_fisher(T, povm, 2))
    assert np.allclose(cfg.n * res.empirical_mse, jinv, atol=0.12)
    target = nagaoka_bound(T, W.matrix)
    assert abs(res.n_times_weighted_mse - target) < 3.0 * res.stderr + 0.01 * target


def test_single_copy_mse_satisfies_region_tradeoff():
    from qest.region import in_region_D

    cfg = SimConfig(T, W, "single-copy-optimal", n=100, trials=4000, seed=5)
    res = run_single_copy_optimal(cfg)
    scaled = cfg.n * res.empirical_mse
    verdict = in_region_D(scaled, T)
    # Allow statistical undershoot of the boundary at 3 stderr in the
    # weighted trace; eigenvalue slack can be slightly negative.
    assert verdict.margins["det_slack"] > -3.0 * res.stderr


def test_two_step_gamma_decreases():
    results = []
    for n in (1000, 10000):
        cfg = SimConfig(
            T, W, "two-step", n=n, trials=400, seed=7,
            phase_fraction_exponent=2.0 / 3.0,
        )
        results.append(run_two_step(cfg))
    gammas = [r.diagnostics["gamma"] for r in results]
    assert gammas[0] > gammas[1] > 1.0


def test_two_step_phase_estimate_consistent():
    cfg = SimConfig(
        T, W, "two-step", n=10000, trials=300, seed=13,
        phase_fraction_exponent=2.0 / 3.0,
    )
    res = run_two_step(cfg)
    # Phase stage uses m = n^(2/3) ~ 464 copies; the empirical phase
    # variance times m should be O(1/theta1^2) = O(2.8).
    assert res.diagnostics["v33_times_m"] < 30.0
    assert res.diagnostics["v33_times_m"] > 0.1


def test_two_step_counts_low_visibility_apart_from_redraws():
    # At n = 1e5 the rough phase stage measures 430 and 431 copies: the odd
    # half never averages to 0, so no draw is ever redrawn, while at
    # theta1 = 0.005 the rough visibility estimate often falls below 0.05.
    low = ThetaParams(0.005, 0.0, 0.3)
    res = run_two_step(
        SimConfig(low, W, "two-step", n=100000, trials=40, seed=3,
                  phase_fraction_exponent=2.0 / 3.0)
    )
    assert res.diagnostics["low_visibility_trials"] > 0
    assert res.diagnostics["resampled_trials"] == 0
    # n = 64: a 4 + 4 copy rough stage, where both means are 0 about one
    # draw in seven and are redrawn; a redrawn visibility is at least 0.5.
    res = run_two_step(SimConfig(low, W, "two-step", n=64, trials=40, seed=3))
    assert res.diagnostics["resampled_trials"] > 0
    assert res.diagnostics["low_visibility_trials"] == 0


def test_two_step_approaches_known_phase_bound():
    cfg = SimConfig(
        T, W, "two-step", n=100000, trials=400, seed=7,
        phase_fraction_exponent=2.0 / 3.0,
    )
    res = run_two_step(cfg)
    target = nagaoka_bound(T, W.matrix)
    assert res.n_times_weighted_mse < 1.10 * target
    assert res.n_times_weighted_mse > 0.90 * target


def _mle_update_per_batch(batches, start, steps=20):
    """Reference: the Fisher-scoring MLE as a loop over (measurement, counts)."""
    theta = start
    for _ in range(steps):
        s = bloch_from_theta(theta)
        derivs = np.array(bloch_derivatives(theta, 3))
        grad = np.zeros(3)
        hess = np.zeros((3, 3))
        for measurement, counts in batches:
            p = 0.5 * measurement.weights * (1.0 + measurement.axes @ s)
            dp = 0.5 * measurement.weights[:, None] * (measurement.axes @ derivs.T)
            for x in range(len(p)):
                if p[x] > 1e-12:
                    grad += counts[x] / p[x] * dp[x]
                    hess += np.sum(counts) * np.outer(dp[x], dp[x]) / p[x]
        new = _project_theta(theta.as_array(3) + np.linalg.solve(hess + 1e-9 * np.eye(3), grad))
        shift = np.max(np.abs(new.as_array(3) - theta.as_array(3)))
        theta = new
        if shift < 1e-9:
            return theta, True
    return theta, False


def test_stacked_mle_matches_per_batch_loop():
    rng = np.random.default_rng(21)
    measurements = [TOMOGRAPHIC] + [
        optimal_povm_plan(ThetaParams(0.5, 0.1, phase), np.diag([1.0, 3.0])).measurement()
        for phase in (0.1, 0.5, 0.3)
    ]
    batches = [(m, rng.multinomial(100, m.probabilities(T))) for m in measurements]
    stack = np.vstack(
        [np.column_stack((m.axes, m.weights, c, np.full(len(c), 100))) for m, c in batches]
    )
    start = _initial_guess(batches[0][1])
    got, converged = _mle_update(stack, start)
    want, want_converged = _mle_update_per_batch(batches, start)
    assert converged and want_converged
    # summation order differs, so agreement is to round-off, not bit for bit
    assert np.max(np.abs(got.as_array(3) - want.as_array(3))) < 1e-12


def test_adaptive_runs_and_is_sane():
    cfg = SimConfig(T, W, "adaptive", n=2000, trials=60, seed=3, batch_size=100)
    res = run(cfg)
    target = nagaoka_bound(T, W.matrix)
    # Loose sanity band: adaptive pays a finite-n price but must be in the
    # right ballpark and above the quantum limit within noise.
    assert res.n_times_weighted_mse > target - 3.0 * res.stderr
    assert res.n_times_weighted_mse < target + 10.0 * res.stderr + 5.0


def test_adaptive_not_much_worse_than_two_step():
    n = 10000
    ad = run(SimConfig(T, W, "adaptive", n=n, trials=60, seed=3, batch_size=500))
    ts = run(
        SimConfig(
            T, W, "two-step", n=n, trials=400, seed=3,
            phase_fraction_exponent=2.0 / 3.0,
        )
    )
    assert ad.n_times_weighted_mse <= ts.n_times_weighted_mse + 2.0 * (
        ad.stderr + ts.stderr
    )


def test_run_dispatch():
    cfg = SimConfig(T, W, "single-copy-optimal", n=20, trials=50, seed=1)
    res = run(cfg)
    assert res.diagnostics["strategy"] == "single-copy-optimal"


def test_project_theta_flips_negative_theta1_to_the_same_state():
    for vec in ((-0.3, 0.2, 1.0), (-1e-9, 0.5, 4.0), (-0.9, 0.5, 0.2)):
        t = _project_theta(vec)
        assert t.theta1 > 0.0
        r = min(np.hypot(vec[0], vec[1]), 0.99)
        raw = np.array([vec[0] * np.cos(vec[2]), vec[0] * np.sin(vec[2]), vec[1]])
        raw *= r / np.hypot(vec[0], vec[1])
        if abs(vec[0]) >= 1e-6:
            assert np.allclose(bloch_from_theta(t), raw, atol=1e-15)
    # the 1e-6 floor on theta1 is one-sided
    assert _project_theta((1e-9, 0.0, 0.0)).theta1 == 1e-6
    assert _project_theta((-1e-9, 0.0, 0.0)).theta1 == 1e-6


def test_adaptive_mle_ends_on_the_true_branch():
    # At low visibility the MLE path can cross theta1 = 0; an estimate left
    # on the mirrored branch (-theta1, theta3 + pi) costs a squared error of
    # 4 theta1^2 and inflated n MSE to about 6 times the bound.
    t = ThetaParams(0.15, 0.3, 1.0)
    res = run(SimConfig(t, W, "adaptive", n=1000, trials=100, seed=7))
    assert res.n_times_weighted_mse <= 2.0 * nagaoka_bound(t, W.matrix)


def test_adaptive_keeps_the_last_fit_when_it_does_not_converge(monkeypatch):
    # A fit that has not converged is still a fit to every batch so far; the
    # estimate must be the last one, not one from fewer batches.
    fits = iter(ThetaParams(0.5 + 0.01 * i, 0.1, 0.3) for i in range(1, 7))
    monkeypatch.setattr(simulate, "_mle_update", lambda stack, start: (next(fits), False))
    res = run(SimConfig(T, W, "adaptive", n=300, trials=2, seed=0, batch_size=100))
    errors = np.array([[0.53 - 0.6, 0.1], [0.56 - 0.6, 0.1]])
    assert np.allclose(res.empirical_mse, errors.T @ errors / 2, atol=1e-15)
    assert res.diagnostics["nonconverged_batches"] == 6


@pytest.mark.parametrize(
    "strategy, n, trials",
    [("single-copy-optimal", 2000, 100), ("two-step", 2000, 100), ("adaptive", 1000, 10)],
)
def test_negative_theta1_truth_runs_as_its_mirror(strategy, n, trials):
    # (-theta1, theta2, theta3) is the state at (theta1, theta2, theta3 + pi),
    # and an error e there is S e here, S = diag(-1, 1): the run at the
    # mirror point with weight S W S must give the same n MSE.  A phase
    # stage aimed at the given chart used to converge to theta3 + pi
    # (two-step n MSE 2905 against 4.24 here).
    w = np.array([[1.0, 0.4], [0.4, 2.0]])
    flip = np.diag([-1.0, 1.0])
    mirror = ThetaParams(0.6, 0.2, 0.3 + np.pi)
    given, mirrored = (
        run(SimConfig(t, WeightSpec(m), strategy, n, trials, seed=3,
                      phase_fraction_exponent=2 / 3))
        for t, m in ((ThetaParams(-0.6, 0.2, 0.3), w), (mirror, flip @ w @ flip))
    )
    assert given.n_times_weighted_mse == pytest.approx(
        mirrored.n_times_weighted_mse, rel=1e-12
    )
    assert mirrored.n_times_weighted_mse < 2.0 * nagaoka_bound(mirror, flip @ w @ flip)


def test_negative_theta1_truth_mirrors_every_weight_form():
    t = ThetaParams(-0.6, 0.2, 0.3)
    w2 = np.array([[1.0, 0.4], [0.4, 2.0]])
    flip3 = np.diag([-1.0, 1.0, 1.0])
    full = np.array([[1.0, 0.4, 0.3], [0.4, 2.0, -0.2], [0.3, -0.2, 1.5]])
    for weight, expected in (
        (WeightSpec(w2), flip3[:2, :2] @ w2 @ flip3[:2, :2]),
        (WeightSpec.block(w2, 1.5), flip3 @ WeightSpec.block(w2, 1.5).full() @ flip3),
        (WeightSpec(full), flip3 @ full @ flip3),
    ):
        cfg = SimConfig(t, weight, "two-step", n=100, trials=2)
        assert cfg.theta_true == ThetaParams(0.6, 0.2, 0.3 + np.pi)
        assert cfg.weight.is_block == weight.is_block
        assert np.array_equal(cfg.weight.full(), expected)
