"""Monte-Carlo engine for the estimation strategies.

Three strategies are supported:

* ``single-copy-optimal`` -- the phase is known; each trial measures n
  copies with the optimal POVM and averages the locally unbiased estimates.
* ``two-step`` -- the phase is hidden; floor(n^e) copies are spent on a
  simple equatorial phase estimate, the rest on the optimal measurement
  aimed at the estimated phase.
* ``adaptive`` -- the full parameter vector is unknown; copies are consumed
  in batches, with a maximum-likelihood re-estimate (and a re-targeted
  optimal POVM) after every batch.  Part of each batch measures the
  tangential axis at the phase estimate, so that the phase copies keep up
  with two-step's budget floor(N^e) as N copies are measured.

Every measurement is a ``qest.povm.Povm`` in Bloch form.  The model is
covariant under rotation about z: the optimal measurement at phase phi is
the one at phase 0 rotated by phi, sign of each axis included, and its
estimator table does not depend on phi.  So ``two-step`` builds the
measurement and the table once per run, at (theta1, theta2, 0), and each
trial samples it on the truth rotated by minus the estimated phase, which
gives the outcome probabilities of the measurement aimed at the estimate.
``adaptive`` stacks the Bloch form (weights, axes) and the counts of every
batch in one array, so a Fisher-scoring step is one vectorized pass over it.

The state depends on (theta1, theta3) only through theta1 exp(i theta3),
so ``SimConfig`` moves a theta1 < 0 truth to the theta1 > 0 branch and the
MLE keeps its estimates there.

Trial t of a run draws from the PCG64 stream of
``numpy.random.default_rng((seed, t))``, so results are deterministic and do
not depend on the order in which trials run.  Building that generator costs
more than most trials, so a run hashes the PCG64 states of all its trials in
one vectorized pass (a port of numpy's ``SeedSequence``) and loads each into
one reused generator; the draws are the same, bit for bit.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import WeightSpec, gamma_factor
from .fisher import bloch_outcome_gradients, classical_fisher, sld_inverse_entries
from .model import ThetaParams, bloch_derivatives, bloch_from_theta
from .povm import Povm, build_optimal_estimator, build_optimal_povm, optimal_povm_plan

__all__ = [
    "SimConfig",
    "TrialStreams",
    "SimResult",
    "sample_outcomes",
    "run_single_copy_optimal",
    "run_two_step",
    "run_adaptive",
    "mse_from_trials",
    "run",
]

STRATEGIES = ("single-copy-optimal", "two-step", "adaptive")


def _is_integer(value):
    """True for a Python or numpy integer; bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    A truth with theta1 < 0 is stored in the chart theta1 > 0: as
    (-theta1, theta2, theta3 + pi), the same state, with the weight S W S,
    S = diag(-1, 1) or diag(-1, 1, 1) (a block weight keeps its w3).  An
    error e in the given chart is S e in the stored one, so every weighted
    MSE is unchanged; `SimResult.empirical_mse` is in the stored chart.
    A weight given as a matrix is checked and stored as a `WeightSpec`.
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
        if not isinstance(self.weight, WeightSpec):
            object.__setattr__(self, "weight", WeightSpec(np.asarray(self.weight, dtype=float)))
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("n", "trials", "batch_size"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        # numpy's multinomial and binomial take n as a C long
        if self.n > np.iinfo(np.int64).max:
            raise ValueError(f"n must be at most 2^63 - 1, got {self.n}")
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.phase_fraction_exponent < 1.0:
            raise ValueError("phase_fraction_exponent must be in (0, 1)")
        # n >= 4 gives the phase stage floor(n^e) >= 1 copies
        phase_copies = int(self.n ** self.phase_fraction_exponent)
        if self.strategy == "two-step" and self.n - phase_copies < 2:
            raise ValueError("main stage receives fewer than 2 copies")

    def trial_rng(self, trial, streams=None):
        """The generator of trial's stream, at its start.

        Its state is that of ``numpy.random.default_rng((seed, trial))``.
        streams: the `TrialStreams` of a run, which holds the hashed states
        of its trials and one generator that each call restarts on trial's
        stream, so draw from it before the next call.  Without streams,
        that is a new generator, ``default_rng((seed, trial))`` itself.
        """
        if streams is None:
            return np.random.default_rng((self.seed, trial))
        return streams.load(trial)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), fixed by numpy's
# compatibility policy, and PCG64's multiplier (numpy/random/src/pcg64)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init, mult, count):
    """init, then each times mult mod 2^32: count + 1 hash constants, as a uint64 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint64)[:, None]


def _seed_sequence_words(entropy):
    """``SeedSequence(column).generate_state(4, np.uint64)`` for each column of entropy.

    entropy: a (words, columns) uint64 array of 32-bit entropy words, least
    significant word of each integer first.  Returns a (4, columns) uint64
    array, the four output words of each column.  The hash works mod 2^32 in
    uint64 arrays: every product fits in 64 bits before it is reduced.

    The k-th hashmix call xors its value with hash constant k and multiplies
    it by constant k + 1.  The constants do not depend on the data, and the
    calls of one stage that feed different pool words are independent, so
    each stage is one pass over a (rows, columns) array, with its constants
    as a column broadcast against the data.
    """
    # 4 hashmix calls fill the pool, 3 mix each pool word into the others,
    # and 4 mix in each further entropy word
    const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(len(entropy), _POOL_SIZE))

    def hashmix(value, k, rows):
        value = value ^ const[k:k + rows]
        value = value * const[k + 1:k + rows + 1] & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint64)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, len(entropy)):
        pool = mix(pool, hashmix(entropy[src], k, _POOL_SIZE))
        k += _POOL_SIZE
    # the output hashes pool words 0-3 twice over, with constants 0-8 of
    # the second sequence; output word i joins halves 2i and 2i + 1
    const = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    value = pool ^ const[:-1].reshape(2, _POOL_SIZE, 1)
    value = value * const[1:].reshape(2, _POOL_SIZE, 1) & _MASK32
    halves = (value ^ value >> 16).reshape(_POOL_SIZE, 2, -1)
    return halves[:, 0] | halves[:, 1] << 32


def _int_words(n):
    """The 32-bit words SeedSequence reads from a non-negative int, least significant first."""
    n = int(n)
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mul64(a, b):
    """Low and high 64-bit words of a * b, for a uint64 array a and an int 0 <= b < 2^64.

    The 128-bit product is built from 32-bit halves, whose products and
    partial sums fit in 64 bits.
    """
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return (p00 & _MASK32) | mid << 32, p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_states(seed, trials):
    """(state, inc) of ``default_rng((seed, trial)).bit_generator`` for each trial.

    trials: non-negative ints below 2^32.  The entropy is the 32-bit words of
    seed, then trial; PCG64 seeds from the words (s_hi, s_lo, i_hi, i_lo)
    with inc = 2 i + 1 and state = (inc + s) MULT + inc, mod 2^128.
    Each 128-bit value is a pair of uint64 arrays, high and low word, which
    wrap mod 2^64; a sum carries into the high word when its low word is
    below an addend's.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    seed_words = np.array(_int_words(seed), dtype=np.uint64)[:, None]
    entropy = np.vstack((np.repeat(seed_words, len(trials), axis=1), trials))
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_words(entropy)
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo)
    mult_hi, mult_lo = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
    product_lo, carry = _mul64(lo, mult_lo)
    hi = carry + hi * mult_lo + lo * mult_hi
    lo = product_lo + inc_lo
    hi = hi + inc_hi + (lo < inc_lo)
    return [(h << 64 | l, inc_h << 64 | inc_l) for h, l, inc_h, inc_l
            in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())]


@functools.cache
def _zero_seed():
    """A seed sequence of zero words, which skips SeedSequence's hash.

    Built on first use: subclassing numpy's ISeedSequence imports
    numpy.random, which ``import qest`` does not otherwise need.
    """

    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


class TrialStreams:
    """The PCG64 states of ``default_rng((seed, trial))`` for a range of trials.

    They are hashed at construction, all in one vectorized pass; `load`
    sets one of them in the one generator this object keeps.  trials: a
    range of non-negative ints below 2^32, one entropy word each; a run's
    trial count cannot reach 2^32.
    """

    def __init__(self, seed, trials):
        if trials and max(trials[0], trials[-1]) > _MASK32:
            raise ValueError(f"trials must be below 2^32, got {trials}")
        self._trials = trials
        self._states = _pcg64_states(seed, trials)
        # every use of the generator follows a load, so its first state is free
        self._generator = np.random.Generator(np.random.PCG64(_zero_seed()))
        # the argument of every state load; PCG64 copies it, so it is reused
        self._pcg = {"state": 0, "inc": 0}
        self._state = {"bit_generator": "PCG64", "state": self._pcg, "has_uint32": 0,
                       "uinteger": 0}

    def load(self, trial):
        """The generator, restarted at the start of trial's stream."""
        self._pcg["state"], self._pcg["inc"] = self._states[self._trials.index(trial)]
        self._generator.bit_generator.state = self._state
        return self._generator


@dataclass(frozen=True)
class SimResult:
    """The empirical MSE of a run, its weighted trace and stderr, and diagnostics.

    stderr is that of n_times_weighted_mse.  diagnostics holds the
    strategy's own entries; its int values are the run's counters (copies
    spent on the phase, redraws, fallbacks, fits that did not converge).
    """

    empirical_mse: np.ndarray
    weighted_mse: float
    n_times_weighted_mse: float
    stderr: float
    diagnostics: dict = field(default_factory=dict)


def sample_outcomes(t, povm, n, rng):
    """Multinomial outcome counts from n copies measured with the Povm at t."""
    p = povm.probabilities(t)
    return rng.multinomial(n, p / p.sum())


def mse_from_trials(estimates, truth, weight, n=1):
    """Empirical MSE matrix, its weighted trace, and n times that trace with its stderr.

    estimates: (trials, k) array of per-trial estimates; truth: k-vector;
    weight: k x k.  The stderr is n times the jackknife over trials, which
    for a plain mean is the usual standard error of the per-trial weighted
    squared errors.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise ValueError("need at least 2 trials")
    errors = estimates - np.asarray(truth, dtype=float)
    v = errors.T @ errors / errors.shape[0]
    wfull = weight.full() if isinstance(weight, WeightSpec) else np.asarray(weight)
    per_trial = np.einsum("ti,ij,tj->t", errors, wfull, errors)
    weighted = float(np.mean(per_trial))
    ntr = len(per_trial)
    stderr = float(np.std(per_trial, ddof=1) / np.sqrt(ntr))
    return SimResult(v, weighted, n * weighted, n * stderr)


def _interest_weight(weight):
    """The 2x2 interest block of the weight, as the WeightSpec of the k=2 bounds."""
    return weight if weight.k == 2 else WeightSpec(weight.full()[:2, :2])


def _result(cfg, trial_means, w2, diagnostics):
    """SimResult of the per-trial interest estimates, per copy, with diagnostics.

    A k=3 weight adds "ignored_phase_weight": the third row of the stored
    weight, which the interest-parameter MSE does not read.
    """
    if cfg.weight.k == 3:
        diagnostics["ignored_phase_weight"] = cfg.weight.full()[2].tolist()
    result = mse_from_trials(trial_means, cfg.theta_true.as_array(2), w2, n=cfg.n)
    return replace(result, diagnostics=diagnostics)


def run_single_copy_optimal(cfg):
    """Known-phase baseline: optimal POVM and estimator at the truth.

    Each trial measures n copies, averages the n single-copy estimates,
    and the per-copy weighted MSE (n times the trial MSE) is compared
    against the Nagaoka bound.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    povm, _ = build_optimal_povm(t, w2)
    est_matrix = build_optimal_estimator(t, w2, povm).table
    p = povm.probabilities(t)
    p = p / np.sum(p)
    streams = TrialStreams(cfg.seed, range(cfg.trials))
    counts = np.empty((cfg.trials, len(p)), dtype=np.int64)
    for trial in range(cfg.trials):
        counts[trial] = cfg.trial_rng(trial, streams).multinomial(cfg.n, p)
    trial_means = counts @ est_matrix / cfg.n
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
    # m >= 1, so m2 >= 1; m1 is 0 when m = 1
    m1 = m // 2
    m2 = m - m1
    p1 = 0.5 * (1.0 + s[0])
    p2 = 0.5 * (1.0 + s[1])
    resampled = False
    for _ in range(100):
        mean1 = 2.0 * rng.binomial(m1, p1) / m1 - 1.0 if m1 else 0.0
        mean2 = 2.0 * rng.binomial(m2, p2) / m2 - 1.0
        if mean1 != 0.0 or mean2 != 0.0:
            break
        resampled = True
    theta3_hat = math.atan2(mean2, mean1)
    r2 = max(mean1 * mean1 + mean2 * mean2, 1e-12)
    var1 = (1.0 - mean1 * mean1) / m1 if m1 else 0.0
    var2 = (1.0 - mean2 * mean2) / m2
    v33_hat = (mean1 * mean1 * var2 + mean2 * mean2 * var1) / (r2 * r2)
    return theta3_hat, max(v33_hat, 1e-12), math.sqrt(r2), resampled


def _phase_stage(s, m, rng):
    """Two-stage phase estimate from m copies of the state with Bloch vector s.

    A rough sigma1/sigma2 estimate on 40% of the copies is refined with a
    tangential equatorial PVM (maximal phase sensitivity) on the rest; the
    two are fused by inverse-variance weighting.  Near-efficient:
    m * var(theta3_hat) approaches g33 = 1/theta1^2.

    Returns (theta3_hat, resampled, low_visibility): resampled flags a
    rough draw that was redrawn; low_visibility flags a rough visibility
    estimate below 0.05, for which the rough phase is returned without
    refinement.
    """
    m_rough = max(m * 2 // 5, min(m, 8))
    m_fine = m - m_rough
    rough, v_rough, r_hat, resampled = _phase_stage_rough(s, m_rough, rng)
    low_visibility = r_hat < 0.05
    if m_fine == 0 or low_visibility:
        return rough, resampled, low_visibility
    # tangential axis (-sin, cos, 0) at the rough phase: probability
    # (1 + t1 sin d)/2 with d the remaining phase error, inside (0, 1)
    p = 0.5 * (1.0 + math.cos(rough) * s[1] - math.sin(rough) * s[0])
    mean_t = 2.0 * rng.binomial(m_fine, p) / m_fine - 1.0
    ratio = min(max(mean_t / r_hat, -1.0), 1.0)
    delta_hat = math.asin(ratio)
    v_fine = max((1.0 - mean_t * mean_t), 1e-12) / (
        r_hat * r_hat * max(1.0 - ratio * ratio, 0.25) * m_fine
    )
    w_rough = 1.0 / v_rough
    w_fine = 1.0 / v_fine
    theta3_hat = rough + delta_hat * w_fine / (w_fine + w_rough)
    return theta3_hat, resampled, False


def run_two_step(cfg):
    """Two-step strategy: spend floor(n^e) copies on the phase, then measure.

    The optimal measurement and its estimator table are built once, at
    (theta1, theta2, 0).  The optimal measurement at (theta1, theta2,
    theta3_hat) is that one rotated by theta3_hat about z, so its outcome
    probabilities on the truth are those of the phase-0 measurement on the
    truth rotated by -theta3_hat, (theta1, theta2, theta3 - theta3_hat).
    Each trial samples those and reads the same table: the table does not
    depend on the phase.  The mis-aimed measurement reads off
    theta1 cos(dtheta3) instead of theta1, an O(dtheta3^2) bias that is
    left uncorrected: scaling by 1 + v33_hat/2, with the phase stage's own
    variance estimate, gains at most about 1% and scales the main stage's
    noise wherever the rough visibility estimate is small.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    m = int(cfg.n ** cfg.phase_fraction_exponent)
    n2 = cfg.n - m
    g33 = sld_inverse_entries(t)[4]
    # as Python floats: the phase stage does scalar arithmetic on them
    s = bloch_from_theta(t).tolist()
    anchor = ThetaParams(t.theta1, t.theta2, 0.0)
    measurement, _ = build_optimal_povm(anchor, w2)
    est_matrix = build_optimal_estimator(anchor, w2, measurement).table
    streams = TrialStreams(cfg.seed, range(cfg.trials))
    counts = np.empty((cfg.trials, len(est_matrix)), dtype=np.int64)
    theta3_errors = np.empty(cfg.trials)
    resampled = low_visibility = 0
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial, streams)
        theta3_hat, redrawn, low = _phase_stage(s, m, rng)
        resampled += redrawn
        low_visibility += low
        theta3_errors[trial] = _wrap_angle(theta3_hat - t.theta3)
        turned = ThetaParams(t.theta1, t.theta2, t.theta3 - theta3_hat)
        counts[trial] = sample_outcomes(turned, measurement, n2, rng)
    trial_means = counts @ est_matrix / n2
    v33_emp = float(np.mean(theta3_errors**2))
    gamma = gamma_factor(v33_emp, g33 / cfg.n) if v33_emp > g33 / cfg.n else math.inf
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
TOMOGRAPHIC = Povm(
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


def _mle_update(stack, start):
    """Fisher-scoring MLE over the stacked outcomes of all batches so far.

    Each row of stack is (a_x, w_x, count_x, batch total) for one outcome
    of a batch measured with elements w_x (I + a_x . sigma)/2.  Returns
    (ThetaParams, converged): the last iterate, also when it has not
    converged.  Where the expected information falls short of the observed
    one (near the edge of the Bloch ball), the steps overshoot and the
    iterates can oscillate towards the maximum too slowly to converge in
    20 steps; the last of them is still a fit to every batch.
    """
    axes, weights, counts, totals = stack[:, :3], stack[:, 3], stack[:, 4], stack[:, 5]
    theta = start
    converged = False
    for _ in range(20):
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
    later batch measures the optimal POVM at the current estimate, mixed
    with the tangential PVM at its phase at a share f.  With N the copies
    measured once the batch is done and two-step's exponent e, f brings
    the phase copies up to floor(N^e), at most half the batch; the first
    batch counts its sigma1 and sigma2 thirds.  Batches hold batch_size
    copies, the last one the remainder, so that a trial measures n copies.
    The final interest-parameter estimate comes from the last MLE, over
    the outcomes of every batch.
    """
    t = cfg.theta_true
    w2 = _interest_weight(cfg.weight)
    sizes = [cfg.batch_size] * (cfg.n // cfg.batch_size)
    if cfg.n % cfg.batch_size:
        sizes.append(cfg.n % cfg.batch_size)
    trial_means = np.empty((cfg.trials, 2))
    nonconverged = 0
    streams = TrialStreams(cfg.seed, range(cfg.trials))
    for trial in range(cfg.trials):
        rng = cfg.trial_rng(trial, streams)
        rows = []
        theta_hat = None
        measured = spent = 0
        for batch in sizes:
            measured += batch
            if theta_hat is None:
                measurement = TOMOGRAPHIC
                # its sigma1 and sigma2 thirds see the phase
                spent = 2.0 * batch / 3.0
            else:
                budget = int(measured ** cfg.phase_fraction_exponent)
                share = min(0.5, max(budget - spent, 0.0) / batch)
                optimal = optimal_povm_plan(theta_hat, w2).measurement()
                measurement = _with_tangential(optimal, theta_hat, share)
                spent += share * batch
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


def _with_tangential(optimal, theta_hat, share):
    """The Povm optimal, weighted 1 - share, and the tangential PVM at theta_hat, weighted share.

    The tangential axis (-sin, cos, 0) at the estimated phase is the one of
    two-step's fine stage; its outcomes "t+", "t-" follow the optimal ones.
    At share 0 this is optimal itself.
    """
    if share == 0.0:
        return optimal
    axis = [-math.sin(theta_hat.theta3), math.cos(theta_hat.theta3), 0.0]
    return Povm(
        optimal.labels + ("t+", "t-"),
        np.concatenate(((1.0 - share) * optimal.weights, [share, share])),
        np.vstack((optimal.axes, axis, [-x for x in axis])),
    )


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
