"""Benchmark of qest: one workload per run, closed loop, one process, one thread.

    python3 perfbench/run.py --workload two-step --seed 1 --seconds 20 --trace 0

Workloads: two-step, adaptive, single-copy, bounds-scan (perfbench/METRICS.md
says why each is there).  Each op is checked; an op fails if it raises or its
output is wrong.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs a fixed op list alternately without and with spans around
qest's public functions and prints the per-layer metrics; the spans are
written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The metric names and units are those of
BENCHMARK.json at the root of the checkout.
"""

import time

# Set-up probes time a fresh process from here, before numpy and qest load.
T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100  # so that at least 10 ops lie beyond p90
MAX_MEASURE_S = 120.0  # hard stop, so a run ends within its 180 s limit
SUBPROCESS_TIMEOUT_S = 60.0
CLI_BOUNDS_ARGS = ("bounds", "--theta", "0.5,0.5,1.0")
# A round value within the 1.4-2.6 ms that `reference_work` took on the
# 2-core x86-64 machine (Python 3.11, numpy 2.4) this benchmark was defined
# on.  It only sets the unit of the scaled times; see `Gauge`.
REFERENCE_S = 2.0e-3


def reference_work():
    """Fixed work unrelated to qest, of the kinds qest's ops are made of:
    2x2 numpy linear algebra, RNG seeding and draws, interpreter loops."""
    import numpy as np

    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    total = 0.0
    for i in range(40):
        vals, vecs = np.linalg.eigh(a + (i * 1e-3) * np.eye(2))
        total += float(np.trace(vecs @ np.diag(vals) @ vecs.T))
        total += float(np.random.default_rng((7, i)).multinomial(1000, [0.25] * 4)[0])
        total += sum(math.sin(0.1 * j) for j in range(20))
    return total


class Gauge:
    """Speed of the machine while a run measures, from `reference_work`.

    On a shared machine the speed of one core drifts by up to 2x within a
    run and between runs, and every kind of work slows alike: the ratio of
    an op's time to the time of `reference_work` stays within a few percent
    while both drift.  The speed changes within a second, so
    `reference_work` runs right before every timed interval and after the
    last.  Times are reported scaled by `factor`, REFERENCE_S / (mean time
    of the two `reference_work` runs that bracket the interval): seconds on
    a machine where `reference_work` takes REFERENCE_S.  The unscaled times
    are printed in the run record.
    """

    def __init__(self):
        reference_work()  # the first call pays for lazy set-up
        self.times, self.seconds = [], []

    def sample(self):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)

    def factor(self, at=None):
        """Scale for an interval that started at perf_counter() `at`, from the
        samples just before and just after it; for the whole run if None."""
        window = self.seconds
        if at is not None:
            i = bisect.bisect(self.times, at)
            window = window[max(0, i - 1):i + 1]
        return REFERENCE_S / statistics.median(window)


def import_library():
    """Import qest from this checkout's src/ and nowhere else."""
    if not (SRC / "qest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qest sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qest

    if Path(qest.__file__).resolve().parent != SRC / "qest":
        sys.exit(f"perfbench: imported qest from {qest.__file__}, not {SRC}")
    import workloads

    return workloads


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def fresh_process(argv):
    """Run one fresh process to its end; returns (start, wall seconds, result)."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return start, time.perf_counter() - start, done


def setup_probe(workload_name, seed):
    """Body of a set-up probe: import, make the first inputs, one warm-up op."""
    workloads = import_library()
    workload = workloads.WORKLOADS[workload_name]
    next(workloads.blocks(workload, seed))
    warm_up(workloads, workload, seed)
    print(time.perf_counter() - T0)


def run_ops(workloads, ops, gauge, tracer=None):
    """Run and check ops in order, sampling the gauge before each one.

    Returns ((start, seconds) per op, items done, failure reasons,
    (op, output) pairs).  Only the library call is timed.
    """
    latencies, items, failures, outputs = [], 0, [], []
    for op in ops:
        gauge.sample()
        start = time.perf_counter()
        try:
            out = workloads.run_op(op) if tracer is None else tracer.run_op(workloads.run_op, op)
            reason = None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out, reason = None, f"raised {exc!r}"
        latencies.append((start, time.perf_counter() - start))
        if out is not None:
            items += op.items
            outputs.append((op, out))
            reason = workloads.check(op, out)
        if reason:
            failures.append(f"theta={op.theta.as_array(3).tolist()} n={op.n} "
                            f"trials={op.trials}: {reason}")
    gauge.sample()
    return latencies, items, failures, outputs


def warm_up(workloads, workload, seed):
    op = workloads.warmup_op(workload, seed)
    reason = workloads.check(op, workloads.run_op(op))
    if reason:
        raise RuntimeError(f"warm-up op failed: {reason}")


def measure(workloads, workload, seed, seconds, min_ops, setup_repeats):
    """End-to-end metrics, tracing off.

    Returns (metrics, attempted, failure reasons, unscaled values).
    """
    gauge = Gauge()
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)]
    setup = []
    for _ in range(setup_repeats):
        gauge.sample()
        start, _, done = fresh_process(probe)
        if done.returncode:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        setup.append((start, float(done.stdout)))
    gauge.sample()

    warm_up(workloads, workload, seed)
    latencies, items, failures = [], 0, []
    start = time.perf_counter()
    for block in workloads.blocks(workload, seed):
        lat, done, failed, _ = run_ops(workloads, block, gauge)
        latencies += lat
        items += done
        failures += failed
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= min_ops) or elapsed >= MAX_MEASURE_S:
            break

    def summary(seconds_of):
        op_seconds = [seconds_of(start, s) for start, s in latencies]
        return {
            "throughput_per_s": items / sum(op_seconds),
            "op_p50_ms": 1e3 * statistics.median(op_seconds),
            "op_p90_ms": 1e3 * statistics.quantiles(op_seconds, n=10)[8],
            "setup_s": statistics.median(seconds_of(start, s) for start, s in setup),
        }

    metrics = summary(lambda start, s: s * gauge.factor(start))
    metrics["pass_ratio"] = 1.0 - len(failures) / len(latencies)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = dict(summary(lambda start, s: s), gauge_factor=gauge.factor())
    return metrics, len(latencies), failures, raw


def check_cli_bounds(done):
    """None if `qest bounds` exited 0 and printed what `bound_report` gives."""
    from qest import bounds, model

    if done.returncode:
        return f"qest {' '.join(CLI_BOUNDS_ARGS)} exited {done.returncode}: {done.stderr}"
    report = bounds.bound_report(model.ThetaParams.parse(CLI_BOUNDS_ARGS[2]), 2, [[1, 0], [0, 1]])
    printed = json.loads(done.stdout)
    for key in ("sld_cr", "rld_cr", "nagaoka_hgm", "holevo"):
        if not math.isclose(printed[key], getattr(report, key), rel_tol=1e-8):
            return f"qest bounds printed {key}={printed[key]}, bound_report gives {getattr(report, key)}"
    return None


def cli_probes(repeats, gauge):
    """Cold starts of `import qest` and of `qest bounds` in fresh processes.

    Returns ((start, seconds) of each import, the same of each `qest
    bounds`, failure reasons).
    """
    py = sys.executable
    imports, colds, failures = [], [], []
    for _ in range(repeats):
        gauge.sample()
        start, seconds, done = fresh_process([py, "-c", "import qest"])
        if done.returncode:
            raise RuntimeError(f"import qest failed: {done.stderr}")
        imports.append((start, seconds))
    for _ in range(repeats):
        gauge.sample()
        start, seconds, done = fresh_process([py, "-m", "qest.cli", *CLI_BOUNDS_ARGS])
        colds.append((start, seconds))
        reason = check_cli_bounds(done)
        if reason:
            failures.append(reason)
    gauge.sample()
    return imports, colds, failures


def measure_layers(workloads, workload, seed, seconds, setup_repeats):
    """Per-layer metrics from alternating untraced and traced passes.

    Every pass runs the same fixed op list, sized from --seconds alone, so
    counts repeat exactly for a given seed.  Returns (metrics, attempted,
    failure reasons, unscaled values).
    """
    from spans import Tracer

    n_blocks = max(1, round(seconds / 4.0 / workload.block_seconds))
    ops = list(itertools.chain.from_iterable(
        itertools.islice(workloads.blocks(workload, seed), n_blocks)))
    warm_up(workloads, workload, seed)
    gauge = Gauge()
    rates = {False: [], True: []}
    attempted, failures, first = 0, [], None
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            tracer = Tracer() if traced else None
            if traced:
                tracer.install()
            try:
                lat, items, failed, outputs = run_ops(workloads, ops, gauge, tracer)
            finally:
                if traced:
                    tracer.uninstall()
            rates[traced].append(items / sum(sec * gauge.factor(at) for at, sec in lat))
            attempted += len(lat)
            failures += failed
            if traced and first is None:
                first = (tracer, items, outputs)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break

    tracer, items, outputs = first
    tracer.write(ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{seed}.json")
    stats = tracer.layer_stats(gauge.factor)
    op_seconds = stats["op"][1]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def us_per_call(name):
        count, inclusive, _ = stats.get(name, [0, 0.0, 0.0])
        return 1e6 * inclusive / count if count else 0.0

    def self_share(name):
        return stats.get(name, [0, 0.0, 0.0])[2] / op_seconds

    resampled, updates, nonconverged = (sum(col) for col in zip(
        *(workloads.diagnostics(op, out) for op, out in outputs)))
    # Points kept out of the workload because the library fails there
    # (`workloads.probe_ops`): their failures make up this metric and are
    # printed, but are not counted as failed ops.
    probes = workloads.probe_ops(workload, seed, max(1, len(ops) // 2))
    _, _, probe_failures, _ = run_ops(workloads, probes, gauge)
    imports, colds, cli_failures = cli_probes(setup_repeats, gauge)
    attempted += setup_repeats
    failures += cli_failures

    def unscaled(probes):
        return statistics.median(s for _, s in probes)

    def scaled(probes):
        return statistics.median(s * gauge.factor(at) for at, s in probes)

    raw = {"cli.import_s": unscaled(imports), "cli.bounds_cold_s": unscaled(colds),
           "gauge_factor": gauge.factor(),
           "probe": {"ops": len(probes), "failed": len(probe_failures)},
           "probe_failures": probe_failures}
    metrics = {
        "model.state_from_theta.calls_per_item": calls("model.state_from_theta") / items,
        "fisher.classical_fisher.calls_per_item": calls("fisher.classical_fisher") / items,
        "fisher.classical_fisher.us_per_call": us_per_call("fisher.classical_fisher"),
        "fisher.sld_fisher.calls_per_item": calls("fisher.sld_fisher") / items,
        "fisher.sld_fisher.us_per_call": us_per_call("fisher.sld_fisher"),
        "bounds.hgm_bound.calls_per_item": calls("bounds.hgm_bound") / items,
        "bounds.hgm_bound.us_per_call": us_per_call("bounds.hgm_bound"),
        "bounds.bound_report.us_per_call": us_per_call("bounds.bound_report"),
        "bounds.holevo_bound_k2.us_per_call": us_per_call("bounds.holevo_bound_k2"),
        "povm.build_optimal_povm.calls_per_item": calls("povm.build_optimal_povm") / items,
        "povm.build_optimal_povm.us_per_call": us_per_call("povm.build_optimal_povm"),
        "povm.build_optimal_povm.self_share": self_share("povm.build_optimal_povm"),
        "povm.build_optimal_estimator.calls_per_item":
            calls("povm.build_optimal_estimator") / items,
        "povm.build_optimal_estimator.us_per_call": us_per_call("povm.build_optimal_estimator"),
        "povm.verify_locally_unbiased.us_per_call": us_per_call("povm.verify_locally_unbiased"),
        "region.us_per_item": 1e6 * sum(
            v[1] for k, v in stats.items() if k.startswith("region.")) / items,
        "simulate.run.us_per_trial": 1e6 * stats.get("simulate.run", [0, 0.0])[1] / items,
        "simulate.run.self_share": self_share("simulate.run"),
        "simulate.trial_rng.us_per_call": us_per_call("simulate.trial_rng"),
        "simulate.sample_outcomes.calls_per_item": calls("simulate.sample_outcomes") / items,
        "simulate.resampled_per_trial": resampled / items,
        "simulate.mle_useful_ratio": 1.0 - nonconverged / updates if updates else 0.0,
        "cli.import_s": scaled(imports),
        "cli.bounds_cold_s": scaled(colds),
        "trace.overhead_ratio": statistics.median(rates[True]) / statistics.median(rates[False]),
        "check.probe_pass_ratio": 1.0 - len(probe_failures) / len(probes),
    }
    return metrics, attempted, failures, raw


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def run_record(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="measure at least this many ops (default %(default)s)")
    parser.add_argument("--setup-repeats", type=int, default=5,
                        help="fresh processes per set-up or cold-start median")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failures, raw = measure_layers(
            workloads, workload, args.seed, args.seconds, args.setup_repeats)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failures, raw = measure(
            workloads, workload, args.seed, args.seconds, args.min_ops, args.setup_repeats)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        sys.exit(f"perfbench: computed metrics {sorted(metrics)} differ from BENCHMARK.json")

    probe_failures = raw.pop("probe_failures", [])
    print(json.dumps({"run_record": dict(run_record(args), unscaled=raw)}))
    print(f"fail_ratio = {len(failures) / attempted!r} ratio "
          f"({len(failures)} of {attempted} ops failed their check)")
    for reason in list(dict.fromkeys(failures))[:10]:
        print(f"failed op: {reason}")
    for reason in probe_failures[:10]:
        print(f"probe op failed (known defect, not counted): {reason}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
