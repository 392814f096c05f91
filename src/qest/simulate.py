"""Monte-Carlo engine for the estimation strategies.

Three strategies are supported:

* ``single-copy-optimal`` -- the phase is known; each trial measures n
  copies with the optimal POVM and averages the locally unbiased estimates.
* ``two-step`` -- the phase is hidden; floor(n^e) copies are spent on a
  simple equatorial phase estimate, the rest on the optimal measurement
  aimed at the estimated phase.
* ``adaptive`` -- the full parameter vector is unknown; copies are consumed
  in batches, with a maximum-likelihood re-estimate (and a re-targeted
  optimal POVM) after every batch.

Every measurement is a ``qest.povm.Povm`` in Bloch form.  The model is
covariant under rotation about z: the optimal measurement at
phase phi is the one at phase 0 rotated by phi, and its estimator table
does not depend on phi.  So ``two-step`` builds the measurement and the
table once per run, at (theta1, theta2, 0), and each trial only rotates the
measurement's Bloch axes by its estimated phase.  ``adaptive`` stacks the
Bloch form (weights, axes) and the counts of every batch in one array, so
a Fisher-scoring step is one vectorized pass over it.

The state depends on (theta1, theta3) only through theta1 exp(i theta3),
so ``SimConfig`` moves a theta1 < 0 truth to the theta1 > 0 branch and the
MLE keeps its estimates there.

Trials draw from independent counter-based streams derived from
(seed, trial index), so results are deterministic and order-independent.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import WeightSpec
from .fisher import bloch_outcome_gradients, classical_fisher
from .model import ThetaParams, bloch_derivatives, bloch_from_theta
from .povm import Povm, build_optimal_estimator, build_optimal_povm, optimal_povm_plan

__all__ = [
    "SimConfig",
    "SimResult",
    "sample_outcomes",
    "run_single_copy_optimal",
    "run_two_step",
    "run_adaptive",
    "mse_from_trials",
    "run",
]

STRATEGIES = ("single-copy-optimal", "two-step", "adaptive")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    A truth with theta1 < 0 is stored in the chart theta1 > 0: as
    (-theta1, theta2, theta3 + pi), the same state, with the weight S W S,
    S = diag(-1, 1) or diag(-1, 1, 1) (a block weight keeps its w3).  An
    error e in the given chart is S e in the stored one, so every weighted
    MSE is unchanged; `SimResult.empirical_mse` is in the stored chart.
    """

    theta_true: ThetaParams
    weight: WeightSpec
    strategy: str
    n: int
    trials: int
    seed: int = 0
    phase_fraction_exponent: float = 0.5
    batch_size: int = 100

    def __post_init__(self):
        t = self.theta_true
        if t.theta1 < 0.0:
            flip = np.ones(len(self.weight.matrix))
            flip[0] = -1.0
            weight = replace(self.weight, matrix=self.weight.matrix * np.outer(flip, flip))
            mirrored = ThetaParams(-t.theta1, t.theta2, t.theta3 + math.pi)
            object.__setattr__(self, "theta_true", mirrored)
            object.__setattr__(self, "weight", weight)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if not 0.0 < self.phase_fraction_exponent < 1.0:
            raise ValueError("phase_fraction_exponent must be in (0, 1)")
        if self.strategy == "two-step":
            m = int(self.n ** self.phase_fraction_exponent)
            if m < 1:
                raise ValueError("phase stage receives no copies")
            if self.n - m < 2:
                raise ValueError("main stage receives fewer than 2 copies")

    def trial_rng(self, trial):
        return np.random.default_rng((self.seed, trial))


@dataclass(frozen=True)
class SimResult:
    empirical_mse: np.ndarray
    weighted_mse: float
    n_times_weighted_mse: float
    stderr: float
    diagnostics: dict = field(default_factory=dict)


def sample_outcomes(t, povm, n, rng):
    """Multinomial outcome counts from n copies measured with the Povm at t."""
    p = povm.probabilities(t)
    return rng.multinomial(n, p / np.sum(p))


def mse_from_trials(estimates, truth, weight, n=1):
    """Empirical MSE matrix and jackknife stderr of its weighted trace.

    estimates: (trials, k) array of per-trial estimates; truth: k-vector.
    The jackknife is over trials; for a plain mean it reduces to the usual
    standard error of the per-trial weighted squared errors.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise ValueError("need at least 2 trials")
    errors = estimates - np.asarray(truth, dtype=float)
    v = errors.T @ errors / errors.shape[0]
    wfull = weight.full() if isinstance(weight, WeightSpec) else np.asarray(weight)
    wfull = wfull[: errors.shape[1], : errors.shape[1]]
    per_trial = np.einsum("ti,ij,tj->t", errors, wfull, errors)
    weighted = float(np.mean(per_trial))
    ntr = len(per_trial)
    stderr = float(np.std(per_trial, ddof=1) / np.sqrt(ntr))
    return SimResult(v, weighted, n * weighted, stderr)


def _interest_weight(weight):
    """The 2x2 interest block of the weight, as the WeightSpec of the k=2 bounds."""
    return weight if weight.k == 2 else WeightSpec(weight.full()[:2, :2])


def _result(cfg, trial_means, w2, diagnostics):
    """SimResult of the per-trial interest estimates, stderr per copy."""
    result = mse_from_trials(trial_means, cfg.theta_true.as_array(2), w2, n=cfg.n)
    return replace(result, stderr=cfg.n * result.stderr, diagnostics=diagnostics)


def run_single_copy_optimal(cfg):
    """Known-phase baseline: optimal POVM and estimator at the truth.

    Each trial measures n copies, averages the n single-copy estimates,
    and the per-copy weighted MSE (n times the trial MSE) is compared
    against the Nagaoka bound.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    povm, _ = build_optimal_povm(t, w2)
    est_matrix = build_optimal_estimator(t, w2, povm).estimate_matrix()
    p = povm.probabilities(t)
    p = p / np.sum(p)
    trial_means = np.empty((cfg.trials, 2))
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        counts = rng.multinomial(cfg.n, p)
        trial_means[trial] = counts @ est_matrix / cfg.n
    exact = np.linalg.inv(classical_fisher(t, povm, 2))
    diag = {"analytic_single_copy_mse": exact, "strategy": cfg.strategy}
    return _result(cfg, trial_means, w2, diag)


def _phase_stage_rough(s, m, rng):
    """Phase estimate from m copies split between sigma1 and sigma2 PVMs.

    s is the Bloch vector of the measured state.  Returns (theta3_hat,
    v33_hat, r_hat, resampled): the estimate, its delta-method variance,
    the implied visibility estimate, and a flag for a degenerate draw (both
    empirical means zero) that forced a redraw.
    """
    m1 = m // 2
    m2 = m - m1
    p1 = 0.5 * (1.0 + s[0])
    p2 = 0.5 * (1.0 + s[1])
    resampled = False
    for _ in range(100):
        mean1 = 2.0 * rng.binomial(m1, p1) / m1 - 1.0 if m1 else 0.0
        mean2 = 2.0 * rng.binomial(m2, p2) / m2 - 1.0 if m2 else 0.0
        if mean1 != 0.0 or mean2 != 0.0:
            break
        resampled = True
    theta3_hat = math.atan2(mean2, mean1)
    r2 = max(mean1 * mean1 + mean2 * mean2, 1e-12)
    var1 = (1.0 - mean1 * mean1) / m1 if m1 else 0.0
    var2 = (1.0 - mean2 * mean2) / m2 if m2 else 0.0
    v33_hat = (mean1 * mean1 * var2 + mean2 * mean2 * var1) / (r2 * r2)
    return theta3_hat, max(v33_hat, 1e-12), math.sqrt(r2), resampled


def _phase_stage(s, m, rng):
    """Two-stage phase estimate from m copies of the state with Bloch vector s.

    A rough sigma1/sigma2 estimate on 40% of the copies is refined with a
    tangential equatorial PVM (maximal phase sensitivity) on the rest; the
    two are fused by inverse-variance weighting.  Near-efficient:
    m * var(theta3_hat) approaches g33 = 1/theta1^2.

    Returns (theta3_hat, v33_hat, resampled, low_visibility): resampled
    flags a rough draw that was redrawn; low_visibility flags a rough
    visibility estimate below 0.05, for which the rough phase is returned
    without refinement.
    """
    m_rough = max(m * 2 // 5, min(m, 8))
    m_fine = m - m_rough
    rough, v_rough, r_hat, resampled = _phase_stage_rough(s, m_rough, rng)
    low_visibility = r_hat < 0.05
    if m_fine == 0 or low_visibility:
        return rough, v_rough, resampled, low_visibility
    # tangential axis (-sin, cos, 0) at the rough phase: probability
    # (1 + t1 sin d)/2 with d the remaining phase error
    p = 0.5 * (1.0 + math.cos(rough) * s[1] - math.sin(rough) * s[0])
    mean_t = 2.0 * rng.binomial(m_fine, min(max(p, 0.0), 1.0)) / m_fine - 1.0
    ratio = min(max(mean_t / r_hat, -1.0), 1.0)
    delta_hat = math.asin(ratio)
    v_fine = max((1.0 - mean_t * mean_t), 1e-12) / (
        r_hat * r_hat * max(1.0 - ratio * ratio, 0.25) * m_fine
    )
    w_rough = 1.0 / v_rough
    w_fine = 1.0 / v_fine
    theta3_hat = rough + delta_hat * w_fine / (w_fine + w_rough)
    v33_hat = 1.0 / (w_fine + w_rough)
    return theta3_hat, v33_hat, resampled, False


def run_two_step(cfg):
    """Two-step strategy: spend floor(n^e) copies on the phase, then measure.

    The optimal measurement and its estimator table are built once, at
    (theta1, theta2, 0).  Each trial rotates the measurement's Bloch axes
    by its estimated phase, which gives the optimal measurement at
    (theta1, theta2, theta3_hat) up to the sign of each axis, and reads
    the same table: the table does not depend on the phase.  Because the
    mis-aimed optimal measurement reads off theta1 cos(dtheta3) instead of
    theta1, the raw estimate carries an O(dtheta3^2) bias; the first
    component is debiased by the factor 1 + v33_hat/2 using the phase
    stage's own variance estimate, which removes the bias to first order
    in v33.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    m = int(cfg.n ** cfg.phase_fraction_exponent)
    n2 = cfg.n - m
    g33 = 1.0 / (t.theta1 * t.theta1)
    s = bloch_from_theta(t)
    anchor = ThetaParams(t.theta1, t.theta2, 0.0)
    measurement, _ = build_optimal_povm(anchor, w2)
    est_matrix = build_optimal_estimator(anchor, w2, measurement).estimate_matrix()
    trial_means = np.empty((cfg.trials, 2))
    theta3_errors = np.empty(cfg.trials)
    resampled = low_visibility = 0
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        theta3_hat, v33_hat, redrawn, low = _phase_stage(s, m, rng)
        resampled += redrawn
        low_visibility += low
        theta3_errors[trial] = _wrap_angle(theta3_hat - t.theta3)
        counts = sample_outcomes(t, measurement.rotated(theta3_hat), n2, rng)
        mean = counts @ est_matrix / n2
        mean[0] *= 1.0 + 0.5 * v33_hat
        trial_means[trial] = mean
    v33_emp = float(np.mean(theta3_errors**2))
    gamma = v33_emp / (v33_emp - g33 / cfg.n) if v33_emp > g33 / cfg.n else math.inf
    diag = {
        "strategy": cfg.strategy,
        "phase_copies": m,
        "v33_empirical": v33_emp,
        "v33_times_m": v33_emp * m,
        "gamma": gamma,
        "resampled_trials": resampled,
        "low_visibility_trials": low_visibility,
    }
    return _result(cfg, trial_means, w2, diag)


def _wrap_angle(delta):
    """Minimal signed angular distance, in (-pi, pi]."""
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


# sigma1, sigma2 and sigma3 PVMs, each measured on a third of the copies:
# axes +e1, -e1, +e2, -e2, +e3, -e3
TOMOGRAPHIC = Povm.from_bloch(
    ("s1+", "s1-", "s2+", "s2-", "s3+", "s3-"),
    np.full(6, 1.0 / 3.0),
    np.kron(np.eye(3), [[1.0], [-1.0]]),
)


def _project_theta(vec):
    """vec as a model point with theta1 > 0 and |r| <= 0.99.

    A negative theta1 flips to (-theta1, theta2, theta3 + pi), the same state.
    """
    t1, t2, t3 = vec
    if t1 < 0.0:
        t1, t3 = -t1, t3 + math.pi
    r = math.hypot(t1, t2)
    if r >= 0.99:
        t1, t2 = t1 * 0.99 / r, t2 * 0.99 / r
    return ThetaParams(max(t1, 1e-6), t2, t3)


def _mle_update(stack, start, steps=20):
    """Fisher-scoring MLE over the stacked outcomes of all batches so far.

    Each row of stack is (a_x, w_x, count_x, batch total) for one outcome
    of a batch measured with elements w_x (I + a_x . sigma)/2.  Returns
    (ThetaParams, converged): the last iterate, also when it has not
    converged.  Where the expected information falls short of the observed
    one (near the edge of the Bloch ball), the steps overshoot and the
    iterates can oscillate towards the maximum too slowly to converge in
    `steps`; the last of them is still a fit to every batch.
    """
    axes, weights, counts, totals = stack[:, :3], stack[:, 3], stack[:, 4], stack[:, 5]
    theta = start
    converged = False
    for _ in range(steps):
        derivs = np.array(bloch_derivatives(theta, 3))
        p, dp = bloch_outcome_gradients(weights, axes, bloch_from_theta(theta), derivs)
        keep = p > 1e-12
        p, dp = p[keep], dp[keep]
        grad = (counts[keep] / p) @ dp
        # expected information of each batch: its total times sum dp dp^T / p
        hess = (dp.T * (totals[keep] / p)) @ dp
        try:
            step = np.linalg.solve(hess + 1e-9 * np.eye(3), grad)
        except np.linalg.LinAlgError:
            return theta, False
        new = _project_theta(theta.as_array(3) + step)
        shift = np.max(np.abs(new.as_array(3) - theta.as_array(3)))
        theta = new
        if shift < 1e-9:
            converged = True
            break
    return theta, converged


def run_adaptive(cfg):
    """Batched adaptive strategy with maximum-likelihood re-estimation.

    The first batch is tomographic (sigma1, sigma2, sigma3 thirds); every
    later batch uses the optimal POVM at the current estimate.  The final
    interest-parameter estimate comes from the last MLE.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    batch = cfg.batch_size
    n_batches = max(cfg.n // batch, 1)
    trial_means = np.empty((cfg.trials, 2))
    nonconverged = 0
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial)
        rows = []
        theta_hat = None
        for _ in range(n_batches):
            if theta_hat is None:
                measurement = TOMOGRAPHIC
            else:
                measurement = optimal_povm_plan(theta_hat, w2).measurement()
            counts = sample_outcomes(t, measurement, batch, rng)
            rows.append(np.column_stack((
                measurement.axes, measurement.weights, counts, np.full(len(counts), batch)
            )))
            start = theta_hat if theta_hat is not None else _initial_guess(counts)
            theta_hat, ok = _mle_update(np.vstack(rows), start)
            nonconverged += not ok
        trial_means[trial] = theta_hat.as_array(2)
    diag = {"strategy": cfg.strategy, "nonconverged_batches": nonconverged}
    return _result(cfg, trial_means, w2, diag)


def _initial_guess(counts):
    """Moment estimate of the Bloch vector from tomographic counts."""
    s = np.zeros(3)
    for axis in range(3):
        plus, minus = counts[2 * axis], counts[2 * axis + 1]
        pair = plus + minus
        if pair:
            s[axis] = (plus - minus) / pair
    t1 = math.hypot(s[0], s[1])
    theta3 = math.atan2(s[1], s[0]) if t1 > 0 else 0.0
    return _project_theta((max(t1, 2e-6), s[2], theta3))


def run(cfg):
    """Dispatch on cfg.strategy."""
    if cfg.strategy == "single-copy-optimal":
        return run_single_copy_optimal(cfg)
    if cfg.strategy == "two-step":
        return run_two_step(cfg)
    return run_adaptive(cfg)
