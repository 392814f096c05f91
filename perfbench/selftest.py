"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints every metric
   of BENCHMARK.json with its unit and ends with the result line.
2. The output checks flag deliberately wrong results, and the probe ops lie
   where the workloads draw no points.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import run

TINY = ("--seed", "1", "--seconds", "1", "--min-ops", "1", "--setup-repeats", "1")
OUT = run.ROOT / "perfbench" / "out"


def bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_tiny_runs_print_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(run.ROOT, "--workload", workload["name"], "--trace", str(trace), *TINY)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            assert result["correct"] == (result["failed"] == 0)
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
            for name, unit in wanted.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (name, value)
                assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines), (workload["name"], name)
            record = json.loads(lines[0])["run_record"]
            for key in ("python", "numpy", "scipy", "git_revision", "nproc",
                        "blas_threads", "seed"):
                assert key in record, key
            print(f"ok  {workload['name']} --trace {trace}: "
                  f"{result['attempted']} ops, {result['failed']} failed")


def test_checks_flag_wrong_results():
    workloads = run.import_library()
    for name in ("single-copy", "two-step"):
        workload = workloads.WORKLOADS[name]
        largest_n = max(n for n, _ in workload.sizes)
        op = dataclasses.replace(workloads.warmup_op(workload, 5), n=largest_n, trials=100)
        out = workloads.run_op(op)
        assert workloads.check(op, out) is None, workloads.check(op, out)
        # Estimates scored against a truth shifted by delta gain the squared
        # bias n * delta' W delta in n*MSE.
        delta = np.array([0.05, -0.05])
        shift = op.n * float(delta @ op.w2 @ delta)
        wrong = dataclasses.replace(out, n_times_weighted_mse=out.n_times_weighted_mse + shift)
        assert workloads.check(op, wrong) is not None, name
        print(f"ok  {name}: check flags an estimate scored against a shifted truth")

    op = workloads.warmup_op(workloads.WORKLOADS["bounds-scan"], 5)
    out = workloads.run_op(op)
    assert workloads.check(op, out) is None, workloads.check(op, out)
    wrong_results = {
        "Holevo oracle off by 1e-4": dict(out, oracle=out["oracle"] + 1e-4),
        "estimator not unbiased": dict(out, unbiased=dict(out["unbiased"], passed=False)),
        "attained MSE inflated": dict(out, attained=1.01 * out["attained"]),
        "region member rejected": dict(out, verdicts=dict(out["verdicts"], D3=False)),
        "bounds out of order": dict(out, report2=dataclasses.replace(
            out["report2"], holevo=1.01 * out["report2"].nagaoka_hgm)),
    }
    for what, wrong in wrong_results.items():
        assert workloads.check(op, wrong) is not None, what
    print(f"ok  bounds-scan: check flags {len(wrong_results)} wrong results")


def test_probes_cover_what_the_workloads_leave_out():
    workloads = run.import_library()
    from qest.model import bloch_from_theta

    for workload in workloads.WORKLOADS.values():
        ops = next(workloads.blocks(workload, 3))
        assert all(abs(op.theta.theta1) >= workload.min_theta1 for op in ops)
        if workload.in_chart:
            assert all(op.theta.theta1 > 0.0 for op in ops)
        probes = workloads.probe_ops(workload, 3, 20)
        assert len(probes) == 20
        assert all(op.theta.theta1 < workload.min_theta1 for op in probes)
        assert any(op.theta.theta1 < 0.0 for op in probes)
        # Moving a probe to the chart keeps its state.
        for op in probes:
            moved = workloads.to_chart(op).theta
            assert moved.theta1 > 0.0
            assert np.allclose(bloch_from_theta(moved), bloch_from_theta(op.theta))
    print("ok  probes lie where the workloads draw no points")


def test_fails_without_sources():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(bare, "--workload", "two-step", "--trace", "0", *TINY)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout, done.stdout
    print("ok  without src/ the benchmark exits", done.returncode, "and prints no result")


if __name__ == "__main__":
    test_checks_flag_wrong_results()
    test_probes_cover_what_the_workloads_leave_out()
    test_fails_without_sources()
    test_tiny_runs_print_every_metric()
    print("selftest passed")
