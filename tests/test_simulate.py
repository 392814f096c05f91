"""Monte-Carlo simulator: sampling, MSE aggregation, estimation strategies."""

import numpy as np
import pytest

from qest.bounds import WeightSpec, nagaoka_bound
from qest.fisher import classical_fisher
from qest.model import ThetaParams, bloch_derivatives, bloch_from_theta
from qest.povm import Povm, build_optimal_povm, optimal_povm_plan
from qest import simulate
from qest.simulate import (
    TOMOGRAPHIC,
    SimConfig,
    TrialStreams,
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
    povm = Povm(["a", "b"], [1.0, 1.0], np.zeros((2, 3)))
    counts = sample_outcomes(T, povm, 10**6, np.random.default_rng(0))
    assert counts.sum() == 10**6
    # 5 sigma band around the mean, sigma = sqrt(n p (1-p)) = 500.
    assert abs(counts[0] - 5 * 10**5) < 2500


def test_sample_outcomes_deterministic_povm():
    povm = Povm(["only"], [2.0], np.zeros((1, 3)))
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


def test_mse_stderr_is_on_the_per_copy_scale():
    est = np.random.default_rng(4).normal([0.6, 0.0], 0.1, size=(50, 2))
    once, scaled = (mse_from_trials(est, [0.6, 0.0], W, n=n) for n in (1, 7))
    assert scaled.n_times_weighted_mse == 7 * once.weighted_mse
    assert scaled.stderr == 7 * once.stderr > 0.0


@pytest.mark.parametrize("weight", [np.eye(3), WeightSpec.block(np.eye(2), 2.0)],
                         ids=["matrix", "block"])
def test_mse_weight_must_match_the_estimates(weight):
    # a 3x3 weight was once cut to its top-left block for 2-column estimates
    with pytest.raises(ValueError):
        mse_from_trials(np.tile([0.6, 0.0], (10, 1)), [0.6, 0.0], weight)


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
    # a float n would draw floor(n) copies and scale the MSE by n
    for n in (1000.5, 1e4, np.float64(100.0), True, "100", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            SimConfig(T, W, "single-copy-optimal", n=n, trials=10)
    for trials in (10.0, 2.5, np.float64(3.0), True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            SimConfig(T, W, "two-step", n=100, trials=trials)
    for batch_size in (0, -5, np.int64(0)):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            SimConfig(T, W, "adaptive", n=100, trials=10, batch_size=batch_size)
    for batch_size in (2.5, 100.0, True):
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            SimConfig(T, W, "adaptive", n=100, trials=10, batch_size=batch_size)
    # numpy's samplers take n as a C long
    for n in (2**63, 10**30):
        with pytest.raises(ValueError, match="n must be at most 2\\^63 - 1"):
            SimConfig(T, W, "two-step", n=n, trials=10)
    assert SimConfig(T, W, "two-step", n=2**63 - 1, trials=10).n == 2**63 - 1
    cfg = SimConfig(T, W, "adaptive", n=np.int64(100), trials=np.int32(10), batch_size=np.uint8(50))
    assert (cfg.n, cfg.trials, cfg.batch_size) == (100, 10, 50)


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 2.0, np.float64(3.0), "3", None, True,
                                  (1, 2), np.array(4)])
def test_seed_must_be_a_non_negative_integer(seed):
    # default_rng rejects these only once the run starts, or (1.5) with a
    # TypeError; the keyed hash must never accept a seed default_rng rejects.
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        SimConfig(T, W, "single-copy-optimal", n=20, trials=2, seed=seed)


def test_numpy_integer_seeds_are_their_values():
    results = [
        run(SimConfig(T, W, "single-copy-optimal", n=20, trials=5, seed=seed)).empirical_mse
        for seed in (2**63, np.uint64(2**63))
    ]
    assert np.array_equal(*results)


def test_plain_array_weight_is_wrapped_in_a_weight_spec():
    w = np.array([[1.0, 0.4], [0.4, 2.0]])
    given, wrapped = (
        run(SimConfig(T, weight, "two-step", n=200, trials=5, seed=2))
        for weight in (w, WeightSpec(w))
    )
    assert np.array_equal(given.empirical_mse, wrapped.empirical_mse)
    assert given.weighted_mse == wrapped.weighted_mse
    with pytest.raises(ValueError, match="positive definite"):
        SimConfig(T, -w, "two-step", n=200, trials=5)


@pytest.mark.parametrize("size", [1, 4])
def test_weight_must_be_2x2_or_3x3(size):
    # a 4x4 weight was once accepted and its top-left 2x2 block used silently
    weight = np.diag([1.0, 2.0, 3.0, 4.0][:size])
    message = rf"weight matrix must be 2x2 or 3x3, got shape \({size}, {size}\)"
    for given in (weight, weight.tolist()):
        with pytest.raises(ValueError, match=message):
            SimConfig(ThetaParams(0.6, 0.1, 0.3), given, "single-copy-optimal", n=1000, trials=5,
                      seed=1)


def test_plain_array_weight_is_wrapped_with_negative_theta1():
    w = np.array([[1.0, 0.4], [0.4, 2.0]])
    flip = np.diag([-1.0, 1.0])
    cfg = SimConfig(ThetaParams(-0.6, 0.2, 0.3), w.tolist(), "two-step", n=100, trials=2)
    assert isinstance(cfg.weight, WeightSpec)
    assert np.array_equal(cfg.weight.matrix, flip @ w @ flip)
    with pytest.raises(ValueError, match="positive definite"):
        SimConfig(ThetaParams(-0.6, 0.2, 0.3), -w, "two-step", n=100, trials=2)


class _RecordingRng:
    """A trial's generator that logs every draw a strategy makes."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def multinomial(self, n, p):
        counts = self._rng.multinomial(n, p)
        self._draws.append(counts.copy())
        return counts

    def binomial(self, n, p):
        count = self._rng.binomial(n, p)
        self._draws.append(count)
        return count


@pytest.mark.parametrize(
    "strategy, n, trials",
    [("single-copy-optimal", 200, 40), ("two-step", 64, 40), ("two-step", 2000, 40),
     ("adaptive", 300, 3)],
)
@pytest.mark.parametrize("seed", [0, 2**40 + 7])
def test_keyed_streams_draw_what_default_rng_draws(monkeypatch, strategy, n, trials, seed):
    # Every draw of a run, and its result, must be those of a run whose
    # trials draw from default_rng((seed, trial)) itself.
    keyed = SimConfig.trial_rng
    cfg = SimConfig(ThetaParams(-0.6, 0.2, 0.3), W, strategy, n, trials, seed=seed,
                    phase_fraction_exponent=2 / 3)
    runs = []
    for trial_rng in (
        keyed,
        lambda self, trial, streams=None: np.random.default_rng((self.seed, trial)),
    ):
        draws = []
        monkeypatch.setattr(
            SimConfig, "trial_rng",
            lambda self, trial, *args, rng=trial_rng, draws=draws: _RecordingRng(
                rng(self, trial, *args), draws
            ),
        )
        runs.append((run(cfg), draws))
    (got, got_draws), (want, want_draws) = runs
    assert len(got_draws) == len(want_draws) >= trials
    for a, b in zip(got_draws, want_draws):
        assert np.array_equal(a, b)
    np.testing.assert_allclose(got.empirical_mse, want.empirical_mse, rtol=1e-12, atol=0.0)
    for field in ("weighted_mse", "n_times_weighted_mse", "stderr"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)
    assert got.diagnostics.keys() == want.diagnostics.keys()


def test_trial_rng_contract_for_repeated_calls():
    cfg = SimConfig(T, W, "two-step", n=100, trials=8, seed=11)
    want = [np.random.default_rng((11, trial)).random(3) for trial in range(8)]
    # Without streams, each call returns a new generator at the stream's start.
    a, b = cfg.trial_rng(5), cfg.trial_rng(5)
    assert a is not b
    assert np.array_equal(a.random(3), want[5])
    assert np.array_equal(b.random(3), want[5])
    # A run's streams keep one generator; each call restarts it on the
    # trial's stream, whatever was drawn before and in any trial order.
    streams = TrialStreams(cfg.seed, range(cfg.trials))
    shared = cfg.trial_rng(3, streams)
    shared.random(2)
    for trial in (3, 7, 0, 3):
        rng = cfg.trial_rng(trial, streams)
        assert rng is shared
        assert np.array_equal(rng.random(3), want[trial])
    with pytest.raises(ValueError):
        cfg.trial_rng(8, streams)


def test_trial_streams_across_the_32_bit_word_boundary():
    # A run's trials are below 2^32, one entropy word each: the streams
    # refuse two-word trials, and a lone trial's generator still serves them.
    seed = 2**40 + 7
    with pytest.raises(ValueError, match="below 2\\^32"):
        TrialStreams(seed, range(2**32 - 2, 2**32 + 2))
    with pytest.raises(ValueError, match="below 2\\^32"):
        TrialStreams(seed, range(2**32, 2**32 + 1))
    streams = TrialStreams(seed, range(2**32 - 2, 2**32))
    cfg = SimConfig(T, W, "two-step", n=100, trials=2, seed=seed)
    for trial in range(2**32 - 2, 2**32 + 2):
        want = np.random.default_rng((seed, trial)).bit_generator.state
        if trial < 2**32:
            assert streams.load(trial).bit_generator.state == want
        assert cfg.trial_rng(trial).bit_generator.state == want


@pytest.mark.parametrize("seed", [2**128, 2**200 + 12345, 2**2000 + 3],
                         ids=["2^128", "2^200+12345", "2^2000+3"])
def test_trial_streams_for_seeds_longer_than_128_bits(seed):
    # Seeds of 5 to 63 entropy words, with the first and the last one-word trials.
    for streams_trials in (range(3), range(2**32 - 3, 2**32)):
        streams = TrialStreams(seed, streams_trials)
        for trial in streams_trials:
            want = np.random.default_rng((seed, trial)).bit_generator.state
            assert streams.load(trial).bit_generator.state == want


CORRELATED = WeightSpec(np.array([[1.0, 0.4], [0.4, 2.0]]))
BLOCK = WeightSpec.block([[1.0, 0.3], [0.3, 1.5]], 0.7)


@pytest.mark.parametrize(
    "theta, weight, strategy, n, trials, seed, exponent, batch_size, n_mse, stderr",
    [
        pytest.param((0.6, 0.0, 0.3), W, "single-copy-optimal", 100, 200, 3, 0.5, 100,
                     3.3171525000000006, 0.2404695560354118, id="single-copy"),
        pytest.param((-0.4, 0.3, 2.0), BLOCK, "single-copy-optimal", 1000, 100,
                     2**200 + 12345, 0.5, 100, 4.708123570100489, 0.46397969022083935,
                     id="single-copy-mirrored-block"),
        pytest.param((-0.6, 0.2, 0.3), CORRELATED, "two-step", 1000, 100, 2**64 + 3, 2 / 3,
                     100, 6.881532831638923, 0.6717060900729614,
                     id="two-step-mirrored-correlated"),
        pytest.param((0.5, -0.3, 4.0), BLOCK, "two-step", 10**5, 100, 0, 0.5, 100,
                     37.41050674787082, 27.802233349816397, id="two-step-1e5-block"),
        pytest.param((0.7, 0.1, 1.0), W, "adaptive", 300, 3, 5, 0.5, 100,
                     2.974370536956947, 1.0640700001733916, id="adaptive"),
        pytest.param((-0.5, -0.2, 5.0), CORRELATED, "adaptive", 250, 2, 2**40 + 7, 0.5, 64,
                     3.2255216116318, 0.8258937794550818, id="adaptive-mirrored-correlated"),
    ],
)
def test_pinned_seeded_results(theta, weight, strategy, n, trials, seed, exponent, batch_size,
                               n_mse, stderr):
    # Recorded values: any change in the draws or their order moves them by
    # far more than 1e-12; platform rounding does not.  A change meant to
    # alter the draws records them again.
    cfg = SimConfig(ThetaParams(*theta), weight, strategy, n, trials, seed=seed,
                    phase_fraction_exponent=exponent, batch_size=batch_size)
    result = run(cfg)
    assert result.n_times_weighted_mse == pytest.approx(n_mse, rel=1e-12, abs=0.0)
    assert result.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("n, batch_size", [(200, 500), (250, 100), (1000, 100)])
def test_adaptive_measures_n_copies_per_trial(monkeypatch, n, batch_size):
    # The last batch takes the remainder, so a trial measures n copies also
    # where batch_size does not divide n or exceeds it.
    copies = []

    def recording(t, povm, count, rng):
        copies.append(count)
        return sample_outcomes(t, povm, count, rng)

    monkeypatch.setattr(simulate, "sample_outcomes", recording)
    run(SimConfig(T, W, "adaptive", n=n, trials=2, seed=4, batch_size=batch_size))
    assert sum(copies) == 2 * n
    assert max(copies) == min(n, batch_size)


def test_two_step_measures_the_truth_rotated_by_minus_the_phase_estimate(monkeypatch):
    # Sampling the phase-0 measurement on the truth rotated by -theta3_hat
    # is sampling the measurement aimed at theta3_hat on the truth.
    cfg = SimConfig(ThetaParams(-0.6, 0.2, 0.3), WeightSpec(np.diag([1.0, 3.0])), "two-step",
                    n=400, trials=6, seed=5)
    t = cfg.theta_true
    estimates, states = [], []
    phase_stage = simulate._phase_stage

    def recording_phase_stage(s, m, rng):
        out = phase_stage(s, m, rng)
        estimates.append(out[0])
        return out

    def recording_sample(state, povm, count, rng):
        states.append((state, povm))
        return sample_outcomes(state, povm, count, rng)

    monkeypatch.setattr(simulate, "_phase_stage", recording_phase_stage)
    monkeypatch.setattr(simulate, "sample_outcomes", recording_sample)
    run(cfg)
    assert len(states) == len(estimates) == cfg.trials
    w2 = cfg.weight.matrix
    for theta3_hat, (state, povm) in zip(estimates, states):
        assert (state.theta1, state.theta2) == (t.theta1, t.theta2)
        assert abs(np.exp(1j * state.theta3) - np.exp(1j * (t.theta3 - theta3_hat))) < 1e-12
        aimed, _ = build_optimal_povm(ThetaParams(t.theta1, t.theta2, theta3_hat), w2)
        assert np.max(np.abs(povm.probabilities(state) - aimed.probabilities(t))) < 1e-12


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
