"""Workload inputs, the op each workload runs, and the check on every op.

An op is one call a user of qest would make: one simulation `run`, or one
point of the analysis API.  Inputs come only from the workload seed.  The
library is always called through its module attributes (`simulate.run`,
`bounds.bound_report`, ...) so that the traced run's wrappers see the call.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from qest import bounds, fisher, povm, region, simulate
from qest.bounds import WeightSpec
from qest.model import MIN_THETA1, ThetaParams

TWO_STEP_EXPONENT = 2.0 / 3.0
BATCH_SIZE = 100
# Adaptive ops are drawn at |theta1| >= this (see `probe_ops`).
ADAPTIVE_MIN_THETA1 = 0.5


@dataclass(frozen=True)
class Workload:
    """What one workload runs.

    kind: a `SimConfig.strategy`, or "bounds" for the analysis API.
    sizes: (n, trials) pairs.  Each block of ops holds every pair once drawn
    with theta1 > 0 and once with theta1 < 0, in seeded order, so every block
    has the same mix of sizes and signs and runs of different lengths and
    seeds stay comparable.
    block_seconds: nominal time of one block on a 2-core x86 machine; it
    sizes the traced run's fixed op list, so its counts repeat exactly.
    in_chart: run every op in the chart theta1 > 0 (see `to_chart`).
    min_theta1: draw only points with |theta1| >= min_theta1.
    The last two keep the phase-estimating strategies away from the points
    where they fail (see `probe_ops`).
    """

    name: str
    kind: str
    sizes: tuple
    block_seconds: float
    in_chart: bool = False
    min_theta1: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("two-step", "two-step", ((1000, 50), (10000, 50), (100000, 50)), 0.45,
                 in_chart=True),
        Workload(
            "adaptive",
            "adaptive",
            # Five sizes, so that the median and p90 op fall inside a size
            # class rather than between two.
            ((1000, 2), (1000, 3), (1000, 4), (2000, 2), (2000, 3)),
            1.2,
            in_chart=True,
            min_theta1=ADAPTIVE_MIN_THETA1,
        ),
        Workload("single-copy", "single-copy-optimal", ((10, 2000), (10000, 2000)), 0.2),
        Workload("bounds-scan", "bounds", ((0, 1),), 0.035),  # n unused; one point per op
    )
}


@dataclass(frozen=True)
class Op:
    kind: str
    theta: ThetaParams
    w2: np.ndarray  # 2x2 interest weight
    w3: float  # phase weight of the k=3 block weight (bounds-scan only)
    n: int
    trials: int
    seed: int

    @property
    def items(self):
        """Work items: trials for a simulation, one point for bounds-scan."""
        return self.trials


def _draw_point(rng, sign, accept=lambda t1: True):
    """Uniform over the part of the disk theta1^2 + theta2^2 < 1 where
    theta1 has the given sign (random if 0) and accept(theta1) holds."""
    while True:
        r = math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        t1 = r * math.cos(phi) if sign == 0 else sign * abs(r * math.cos(phi))
        if abs(t1) > MIN_THETA1 and accept(t1):
            return ThetaParams(t1, r * math.sin(phi), rng.uniform(0.0, 2.0 * math.pi))


def _draw_weight(rng):
    """Rotated diag(l1, l2) with log-uniform eigenvalues in [0.2, 5]."""
    a = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    lam = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=2))
    w = rot @ np.diag(lam) @ rot.T
    return 0.5 * (w + w.T)


def _draw_op(rng, kind, n, trials, sign, accept=lambda t1: True):
    return Op(
        kind,
        _draw_point(rng, sign, accept),
        _draw_weight(rng),
        float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))),
        n,
        trials,
        int(rng.integers(2**31)),
    )


def to_chart(op):
    """The same estimation problem in the chart theta1 > 0.

    The state depends on (theta1, theta3) only through theta1 e^{i theta3},
    so (theta1, theta2, theta3) and (-theta1, theta2, theta3 + pi) are one
    state, and an error in theta1 changes sign between them: the weight W
    becomes S W S with S = diag(-1, 1).
    """
    t = op.theta
    if t.theta1 > 0.0:
        return op
    flip = np.diag([-1.0, 1.0])
    return replace(op, theta=ThetaParams(-t.theta1, t.theta2, t.theta3 + math.pi),
                   w2=flip @ op.w2 @ flip)


def probe_ops(workload, seed, count):
    """`count` seeded ops where theta1 < 0 or theta1 < workload.min_theta1,
    uniform over that part of the domain, run as drawn.

    The model identifies (theta1, theta3) only up to (-theta1, theta3 + pi),
    and neither phase-estimating strategy allows for it: the two-step phase
    stage and the adaptive MLE can settle on the mirrored branch, which
    scores as a large error.  Two-step does so at theta1 < 0; adaptive also
    at theta1 > 0 when visibility is low or a trial's fit crosses
    theta1 = 0, and then a 2-4 trial op fails its check now and then.  The
    workloads must be ones on which no op fails, so these points are kept
    out of them and run here instead, and the share that pass is reported.
    """
    rng = np.random.default_rng((seed, len(WORKLOADS) + 1 + list(WORKLOADS).index(workload.name)))
    sizes = itertools.islice(itertools.cycle(workload.sizes), count)
    return [_draw_op(rng, workload.kind, n, trials, 0.0, lambda t1: t1 < workload.min_theta1)
            for n, trials in sizes]


def blocks(workload, seed):
    """Endless seeded sequence of op blocks (lists of Op)."""
    rng = np.random.default_rng((seed, list(WORKLOADS).index(workload.name)))
    while True:
        block = [
            _draw_op(rng, workload.kind, n, trials, sign,
                     lambda t1: abs(t1) >= workload.min_theta1)
            for n, trials in workload.sizes
            for sign in (1.0, -1.0)
        ]
        if workload.in_chart:
            block = [to_chart(op) for op in block]
        yield [block[i] for i in rng.permutation(len(block))]


def warmup_op(workload, seed):
    """The smallest op of the workload at a seeded point, run before timing."""
    rng = np.random.default_rng((seed, len(WORKLOADS)))
    n, trials = min(workload.sizes)
    return _draw_op(rng, workload.kind, n, trials, 1.0,
                    lambda t1: abs(t1) >= workload.min_theta1)


def run_op(op):
    """Run one op; returns the library's outputs for `check`."""
    if op.kind == "bounds":
        return _analyse_point(op)
    cfg = simulate.SimConfig(
        op.theta,
        WeightSpec(op.w2),
        op.kind,
        n=op.n,
        trials=op.trials,
        seed=op.seed,
        phase_fraction_exponent=TWO_STEP_EXPONENT,
        batch_size=BATCH_SIZE,
    )
    return simulate.run(cfg)


def _analyse_point(op):
    """One point of the analysis API, as the acceptance tests use it."""
    t, w2 = op.theta, op.w2
    report2 = bounds.bound_report(t, 2, w2)
    report3 = bounds.bound_report(t, 3, WeightSpec.block(w2, op.w3))
    oracle, _ = bounds.holevo_bound_k2(t, w2)
    measurement, _ = povm.build_optimal_povm(t, w2)
    estimator = povm.build_optimal_estimator(t, w2, measurement)
    unbiased = povm.verify_locally_unbiased(estimator)
    attained = np.linalg.inv(fisher.classical_fisher(t, measurement, 2))
    # Candidates inside every region: the attained MSE matrix inflated by
    # 1.5, and its k=3 extension at phase MSE 2 g33 (gamma = 2).
    g33 = 1.0 / (t.theta1 * t.theta1)
    v2 = 1.5 * attained
    v3 = np.zeros((3, 3))
    v3[:2, :2] = 2.0 * v2
    v3[2, 2] = 2.0 * g33
    verdicts = {
        "D": region.in_region_D(v2, t).member,
        "H2": region.in_region_H(v2, t).member,
        "D3": region.in_region_D3(v3, t).member,
        "H3": region.in_region_H(v3, t).member,
    }
    return {
        "report2": report2,
        "report3": report3,
        "oracle": oracle,
        "unbiased": unbiased,
        "attained": attained,
        "verdicts": verdicts,
    }


def _ordered(lower, upper):
    return lower <= upper + 1e-9 * (1.0 + abs(upper))


def check(op, out):
    """None if the op's outputs are right, else the reason they are not.

    The bands are no tighter than the repository's own tests use.
    """
    if op.kind == "bounds":
        return _check_point(op, out)
    n_mse, stderr = out.n_times_weighted_mse, out.stderr
    if not (math.isfinite(n_mse) and math.isfinite(stderr) and n_mse >= 0.0):
        return f"non-finite or negative n*MSE {n_mse!r} (stderr {stderr!r})"
    # The single-copy-optimal measurement attains Nagaoka = tr(W J^-1)
    # (criterion 3), and the other strategies converge to it.
    target = bounds.nagaoka_bound(op.theta, op.w2)
    if op.kind == "single-copy-optimal":
        # The estimator is locally unbiased at the truth, so n*MSE has mean
        # tr(W J^-1) at every n.  5 stderr, not the tests' 3, because a run
        # checks hundreds of ops: at 3 stderr about 1 in 370 would fail by
        # chance alone.
        if abs(n_mse - target) > 5.0 * stderr:
            return f"n*MSE {n_mse:.6g} vs target {target:.6g} +- 5*{stderr:.3g}"
        return None
    # The band of test_adaptive_runs_and_is_sane, whose 60 trials give a
    # usable sample stderr.  With 2-4 trials the sample stderr can be near
    # zero by chance, which would make the band far tighter than the test's,
    # so it is floored at target/sqrt(trials), the stderr of trials whose
    # squared errors spread as widely as their mean.  5 stderr, not the
    # test's 3, on the low side, as for single-copy: where one direction of
    # W dominates, the squared errors spread sqrt(2) times wider than that
    # floor and a 50-trial op would fall below 3 floors about 1 in 150 times.
    band_stderr = max(stderr, target / math.sqrt(op.trials))
    if not target - 5.0 * band_stderr <= n_mse <= target + 10.0 * band_stderr + 5.0:
        return f"n*MSE {n_mse:.6g} outside band around target {target:.6g} (stderr {stderr:.3g})"
    return None


def _check_point(op, out):
    t = op.theta
    for name in ("report2", "report3"):
        r = out[name]
        if not (_ordered(r.sld_cr, r.holevo) and _ordered(r.holevo, r.nagaoka_hgm)
                and _ordered(r.rld_cr, r.holevo)):
            return f"{name}: bounds out of order {r.as_dict()}"
    sld = out["report2"].sld_cr
    if not abs(out["oracle"] - sld) < 1e-6:  # criterion 5
        return f"Holevo oracle {out['oracle']!r} != SLD-CR {sld!r}"
    if not out["unbiased"]["passed"]:
        return f"estimator not locally unbiased: {out['unbiased']}"
    attained = float(np.trace(op.w2 @ out["attained"]))
    nagaoka = out["report2"].nagaoka_hgm
    if not abs(attained - nagaoka) < 1e-9 * max(1.0, nagaoka):  # criterion 3
        return f"tr(W J^-1) = {attained!r} does not attain Nagaoka {nagaoka!r}"
    missed = [name for name, member in out["verdicts"].items() if not member]
    if missed:
        return f"candidate inside every region rejected by {missed}"
    below = 0.5 * fisher.sld_fisher_inverse(t, 2)
    if region.in_region_H(below, t).member or region.in_region_D(below, t).member:
        return "candidate below the SLD bound accepted by region H or D"
    return None


def diagnostics(op, out):
    """Counter values one op reports: (resampled trials, MLE updates, nonconverged)."""
    if op.kind == "bounds":
        return 0, 0, 0
    diag = out.diagnostics
    updates = op.trials * max(op.n // BATCH_SIZE, 1) if op.kind == "adaptive" else 0
    return diag.get("resampled_trials", 0), updates, diag.get("nonconverged_batches", 0)
