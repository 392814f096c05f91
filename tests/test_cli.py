"""Command-line interface: parsing, output formats, error handling."""

import csv
import importlib.metadata
import io
import json
import os
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qest
from qest.bounds import WeightSpec, bound_report, nagaoka_bound
from qest.cli import main
from qest.model import ThetaParams, bloch_derivatives, bloch_from_theta
from qest.simulate import SimConfig, run


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bounds_known_phase():
    code, out, err = run_cli(
        ["bounds", "--theta", "0.5,0.5,1.0", "--weight", "identity"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["sld_cr"] == pytest.approx(1.5)
    assert data["rld_cr"] == pytest.approx(1.0)
    assert data["nagaoka_hgm"] == pytest.approx(2.9142136, abs=1e-6)
    assert data["holevo"] == pytest.approx(1.5)
    assert data["k"] == 2


def test_bounds_unknown_phase():
    code, out, _ = run_cli(
        ["bounds", "--theta", "0.5,0.5,1.0", "--w3", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["sld_cr"] == pytest.approx(5.5)
    assert data["holevo"] == pytest.approx(8.3284271, abs=1e-6)
    assert data["nagaoka_hgm"] == pytest.approx(13.7426407, abs=1e-6)


def test_w3_makes_the_phase_unknown():
    t = ThetaParams(0.5, 0.3, 0.7)
    report = bound_report(t, 3, WeightSpec.block(np.eye(2), 2.5))
    _, bounds_out, _ = run_cli(["bounds", "--theta", "0.5,0.3,0.7", "--w3", "2.5"])
    _, sweep_out, _ = run_cli(
        ["sweep", "--theta", "0.5,0.3,0.7", "--axis", "theta1", "--min", "0.5", "--max", "0.5",
         "--steps", "1", "--w3", "2.5"]
    )
    data = json.loads(bounds_out)
    row = list(csv.reader(io.StringIO(sweep_out)))[1]
    assert data["k"] == 3
    for i, column in enumerate(("sld_cr", "rld_cr", "nagaoka_hgm", "holevo"), start=1):
        assert data[column] == pytest.approx(getattr(report, column), rel=1e-8)
        assert float(row[i]) == pytest.approx(getattr(report, column), rel=1e-8)


def test_bounds_rejects_zero_theta1():
    code, out, err = run_cli(["bounds", "--theta", "0,0.5,0"])
    assert code == 1
    assert out == ""
    assert "theta1 must be nonzero" in err


def test_bounds_csv_output():
    code, out, _ = run_cli(
        ["bounds", "--theta", "0.6,0,0.3", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sld_cr", "rld_cr", "nagaoka_hgm", "holevo", "k"]
    assert float(rows[1][2]) == pytest.approx(3.24, abs=1e-8)


def test_bounds_inline_and_file_weight(tmp_path):
    inline_code, inline_out, _ = run_cli(
        ["bounds", "--theta", "0.6,0,0.3", "--weight", "2,0,0,1"]
    )
    path = tmp_path / "w.csv"
    path.write_text("2,0\n0,1\n")
    file_code, file_out, _ = run_cli(
        ["bounds", "--theta", "0.6,0,0.3", "--weight", str(path)]
    )
    assert inline_code == file_code == 0
    assert json.loads(inline_out) == json.loads(file_out)


def test_povm_json_and_estimates(tmp_path):
    est_path = tmp_path / "est.csv"
    code, out, _ = run_cli(
        ["povm", "--theta", "0.5,0.5,0", "--estimates-csv", str(est_path)]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["povm"]) == 4
    assert sorted(data["plan"]["probabilities"]) == pytest.approx(
        [np.sqrt(0.5) / (1 + np.sqrt(0.5)), 1 / (1 + np.sqrt(0.5))], abs=1e-7
    )
    total = np.zeros((2, 2), dtype=complex)
    for element in data["povm"]:
        flat = np.array([complex(re, im) for re, im in element["matrix"]])
        total += flat.reshape(2, 2)
    assert np.allclose(total, np.eye(2), atol=1e-7)
    lines = est_path.read_text().strip().splitlines()
    assert lines[0] == "label,theta1_hat,theta2_hat"
    assert len(lines) == 5



def test_povm_near_degenerate_weight():
    # W within ~1e-9 of G at this point: F has a near-double eigenvalue.
    weight = "1.378787879787879,0.22727272757272726,0.22727272757272726,1.1363636358636362"
    code, out, err = run_cli(["povm", "--theta", "0.5,0.3,0.7", "--weight", weight])
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 1
    plan = json.loads(out)["plan"]
    t = ThetaParams(0.5, 0.3, 0.7)
    w = np.array([float(v) for v in weight.split(",")]).reshape(2, 2)
    # classical Fisher of the printed plan: binary PVMs along n_i
    s = bloch_from_theta(t)
    d = np.array(bloch_derivatives(t, 2))
    j = sum(
        p * np.outer(d @ n, d @ n) / (1.0 - (n @ s) ** 2)
        for p, n in zip(plan["probabilities"], np.array(plan["directions"]))
    )
    # the plan is printed to 9 significant digits
    assert np.trace(w @ np.linalg.inv(j)) == pytest.approx(nagaoka_bound(t, w), rel=1e-9)


def test_negative_theta_needs_equals_form():
    code, out, _ = run_cli(["bounds", "--theta=-0.6,0,0.3"])
    assert code == 0
    assert json.loads(out)["theta"][0] == pytest.approx(-0.6)

def test_region_verdict(tmp_path):
    path = tmp_path / "cand.csv"
    path.write_text("2,0\n0,2\n")
    code, out, _ = run_cli(
        ["region", "--theta", "0.6,0,0.3", "--candidate", str(path), "--region", "D"]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["member"] is True
    assert "margins" in verdict and "boundary" in verdict

    path.write_text("0.1,0\n0,0.1\n")
    code, out, _ = run_cli(
        ["region", "--theta", "0.6,0,0.3", "--candidate", str(path), "--region", "D"]
    )
    assert json.loads(out)["member"] is False


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("region", ["D", "D_GM", "D3", "D_SLD3", "H"])
def test_non_finite_candidate_is_one_error_line(tmp_path, bad, region):
    path = tmp_path / "cand.csv"
    rows = ["{},0,0", "0,1,0", "0,0,50"] if region in ("D3", "D_SLD3") else ["{},0", "0,1"]
    path.write_text("\n".join(rows).format(bad) + "\n")
    code, out, err = run_cli(
        ["region", "--theta", "0.5,0.3,0.7", "--candidate", str(path), "--region", region]
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: candidate MSE matrix entries must be finite"]


@pytest.mark.parametrize("size, region", [(4, "D"), (4, "D3"), (4, "H"), (3, "D")])
def test_candidate_of_wrong_shape_is_one_error_line(tmp_path, size, region):
    # each predicate checks the shape it reads; the CLI adds no check of its own
    path = tmp_path / "cand.csv"
    path.write_text("\n".join(",".join(["1"] * size) for _ in range(size)) + "\n")
    code, out, err = run_cli(
        ["region", "--theta", "0.5,0.3,0.7", "--candidate", str(path), "--region", region]
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert f"got shape ({size}, {size})" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["povm", "--estimates-csv"],
        ["simulate", "--n", "1000", "--trials", "2", "--csv"],
    ],
)
def test_unwritable_output_file_is_one_error_line(tmp_path, argv):
    missing = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(argv + [str(missing), "--theta", "0.5,0.3,0.7"])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: [Errno 2]")


@pytest.mark.parametrize("existing", [b"n,stderr\r\n10,0.5\r\n", None], ids=["existing", "new"])
def test_failed_simulate_leaves_the_csv_as_it_was(tmp_path, monkeypatch, existing):
    def fail(cfg):
        raise ValueError("the run failed")

    monkeypatch.setattr("qest.cli.run", fail)
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    code, out, err = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--n", "100", "--trials", "2", "--csv", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the run failed"]
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--theta", "0.6,0,0.3", "--trials", "1e3"],
        ["simulate", "--theta", "0.6,0,0.3", "--seed", "1.5"],
        ["simulate", "--theta", "0.6,0,0.3", "--trials", "abc"],
        ["sweep", "--theta", "0.6,0,0.3", "--axis", "theta1", "--min", "0.1", "--max", "0.5",
         "--steps", "2.5"],
    ],
    ids=["trials-1e3", "seed-1.5", "trials-abc", "steps-2.5"],
)
def test_malformed_flag_value_is_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith(f"error: argument {argv[-2]}: invalid int value")


def test_help_prints_the_usage():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(["simulate", "--help"])
    assert exit_.value.code == 0
    assert out.getvalue().startswith("usage: qest simulate")


def test_simulate_json_and_csv(tmp_path):
    csv_path = tmp_path / "sim.csv"
    code, out, _ = run_cli(
        [
            "simulate", "--theta", "0.6,0,0.3", "--strategy", "single-copy-optimal",
            "--n", "10", "--trials", "500", "--seed", "5", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5
    assert len(data["results"]) == 1
    row = data["results"][0]
    assert row["n"] == 10
    assert row["strategy"] == "single-copy-optimal"
    assert row["n_weighted_mse"] > 0
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["n", "n_weighted_mse", "stderr", "gamma", "strategy"]
    assert float(rows[1][1]) == pytest.approx(row["n_weighted_mse"], rel=1e-6)


@pytest.mark.parametrize(
    "strategy, counters",
    [("two-step", ["phase_copies", "resampled_trials", "low_visibility_trials"]),
     ("adaptive", ["nonconverged_batches"])],
)
def test_simulate_prints_the_run_counters(strategy, counters):
    code, out, _ = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--strategy", strategy,
         "--n", "100,200", "--trials", "4", "--seed", "1", "--batch-size", "20"]
    )
    assert code == 0
    for row in json.loads(out)["results"]:
        cfg = SimConfig(ThetaParams(0.6, 0.0, 0.3), WeightSpec.identity(2), strategy, row["n"],
                        4, seed=1, batch_size=20)
        diagnostics = run(cfg).diagnostics
        assert row["diagnostics"] == {name: diagnostics[name] for name in counters}
        assert all(type(v) is int for v in row["diagnostics"].values())
        assert any(row["diagnostics"].values())


def test_simulate_seed_comes_from_the_flag_only(monkeypatch):
    argv = ["simulate", "--theta", "0.6,0,0.3", "--n", "10", "--trials", "200", "--seed", "99"]
    _, base, _ = run_cli(argv)
    monkeypatch.setenv("QEST_SEED", "5")
    _, with_env, _ = run_cli(argv)
    assert with_env == base
    assert json.loads(with_env)["seed"] == 99


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--w3", "1"],
        ["simulate", "--nuisance", "unknown"],
        ["bounds", "--nuisance", "unknown"],
    ],
)
def test_removed_phase_flags_are_one_error_line(argv):
    # simulate has no k=3 measurement, and --w3 alone makes the phase unknown
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv + ["--theta", "0.6,0,0.3"])
    assert exit_.value.code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: unrecognized arguments")


@pytest.mark.parametrize("message", ["", "Unable to allocate 74.5 PiB"], ids=["bare", "message"])
def test_memory_error_is_one_error_line(tmp_path, monkeypatch, message):
    def fail(cfg):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr("qest.cli.run", fail)
    path = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--n", "100", "--trials", "2", "--csv", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message or 'MemoryError'}"]
    assert not path.exists()


def test_simulate_deterministic():
    argv = ["simulate", "--theta", "0.6,0,0.3", "--n", "20", "--trials", "300", "--seed", "8"]
    _, a, _ = run_cli(argv)
    _, b, _ = run_cli(argv)
    assert a == b


def test_negative_seed_is_one_error_line():
    code, out, err = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--n", "10,20", "--trials", "20", "--seed", "-1"]
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "inf"], "error: n must be a whole number, got 'inf'"),
        (["--n", "nan"], "error: n must be a whole number, got 'nan'"),
        (["--n", "1000.7"], "error: n must be a whole number, got '1000.7'"),
        (["--n", "100,1e300000"], "error: n must be a whole number, got '1e300000'"),
        (["--n", "ten"], "error: could not convert string to float: 'ten'"),
        (["--batch-size", "0"], "error: batch_size must be at least 1"),
        (["--batch-size", "-5"], "error: batch_size must be at least 1"),
        (["--n", "1e30"], f"error: n must be at most 2^63 - 1, got {int(1e30)}"),
    ],
)
def test_bad_count_is_one_error_line(flags, message):
    code, out, err = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--strategy", "adaptive", "--trials", "2"] + flags
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [message]


def test_decimal_n_is_its_whole_number():
    argv = ["simulate", "--theta", "0.6,0,0.3", "--trials", "20", "--seed", "3"]
    results = [json.loads(run_cli(argv + ["--n", n])[1]) for n in ("1e2", "100")]
    assert results[0] == results[1]
    assert results[0]["results"][0]["n"] == 100


def test_sweep_monotone_and_gap():
    code, out, err = run_cli(
        [
            "sweep", "--theta", "0.5,0,0", "--axis", "theta1",
            "--min", "0.1", "--max", "0.9", "--steps", "81",
            "--w3", "1",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header == ["theta1", "sld_cr", "rld_cr", "nagaoka_hgm", "holevo"]
    assert len(body) == 81
    sld = np.array([float(r[1]) for r in body])
    holevo = np.array([float(r[4]) for r in body])
    assert np.all(np.diff(sld) < 0)  # bounds fall as visibility rises
    assert np.all(holevo - sld > 0)  # phase ignorance costs extra precision


def test_sweep_skips_singularity():
    code, out, err = run_cli(
        [
            "sweep", "--theta", "0.5,0,0", "--axis", "theta1",
            "--min", "-0.0005", "--max", "0.0005", "--steps", "3",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1  # header only: every grid point was skipped
    assert "skipped 3" in err


def test_sweep_skips_points_outside_bloch_ball():
    code, out, err = run_cli(
        [
            "sweep", "--theta", "0.5,0,0", "--axis", "theta2",
            "--min", "0", "--max", "0.95", "--steps", "5",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.2375, 0.475, 0.7125])
    assert "skipped 1 grid points outside the Bloch ball" in err


@pytest.mark.parametrize(
    "theta, weight, message",
    [("0.5,0,0", "1,2,3", "weight"), ("0.5,0,nan", "identity", "finite")],
)
def test_sweep_error_prints_no_rows(theta, weight, message):
    code, out, err = run_cli(
        [
            "sweep", "--theta", theta, "--axis", "theta1",
            "--min", "0.1", "--max", "0.9", "--steps", "3", "--weight", weight,
        ]
    )
    assert code == 1
    assert out == ""
    assert message in err


def test_sweep_single_point_matches_bounds():
    _, sweep_out, _ = run_cli(
        [
            "sweep", "--theta", "0.6,0,0.3", "--axis", "theta1",
            "--min", "0.6", "--max", "0.6", "--steps", "1",
        ]
    )
    _, bounds_out, _ = run_cli(["bounds", "--theta", "0.6,0,0.3"])
    rows = list(csv.reader(io.StringIO(sweep_out)))
    data = json.loads(bounds_out)
    assert float(rows[1][1]) == pytest.approx(data["sld_cr"], rel=1e-9)
    assert float(rows[1][3]) == pytest.approx(data["nagaoka_hgm"], rel=1e-9)


def test_bad_weight_is_reported():
    code, _, err = run_cli(["bounds", "--theta", "0.6,0,0.3", "--weight", "1,2,3"])
    assert code == 1
    assert "weight" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--weight", "inf,0,0,1"],
        ["bounds", "--weight", "1,nan,nan,1"],
        ["bounds", "--w3", "inf"],
        ["bounds", "--w3", "nan"],
        ["povm", "--weight", "inf,0,0,1"],
    ],
)
def test_non_finite_weight_is_one_error_line(argv):
    code, out, err = run_cli(argv + ["--theta", "0.5,0.3,0.7"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "finite" in err


def test_runs_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qest\n"
        "from qest.cli import main\n"
        "qest.holevo_bound_k2(qest.ThetaParams(0.5, 0.3, 0.7), [[1.0, 0.2], [0.2, 2.0]])\n"
        "sys.exit(main(['bounds', '--theta', '0.5,0.3,0.7']))\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["holevo"] > 0.0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert "scipy" not in pyproject.read_text().lower()


def test_requires_python_is_that_of_the_pinned_numpy():
    # An install must be able to resolve numpy: with the pinned minimum
    # installed, its Requires-Python is the floor of this package's.
    project = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    )["project"]
    pin = next(d for d in project["dependencies"] if d.startswith("numpy>="))
    numpy_meta = importlib.metadata.metadata("numpy")
    if numpy_meta["Version"] != pin.removeprefix("numpy>="):
        pytest.skip(f"numpy {numpy_meta['Version']} is not the pinned minimum ({pin})")
    assert project["requires-python"] == numpy_meta["Requires-Python"]


def test_bounds_cold_start_does_not_import_numpy_random():
    # numpy.random costs about 15 ms to import; only the simulators draw.
    code = (
        "import sys\n"
        "from qest.cli import main\n"
        "main(['bounds', '--theta', '0.5,0.3,0.7'])\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def _run_python(code):
    """Run code in a fresh interpreter that imports this qest."""
    src = str(Path(qest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
