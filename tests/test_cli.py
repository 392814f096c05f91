"""Command-line interface: parsing, output formats, error handling."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qest
from qest.bounds import nagaoka_bound
from qest.cli import main
from qest.model import ThetaParams, bloch_derivatives, bloch_from_theta


def run_cli(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bounds_known_phase():
    code, out, err = run_cli(
        ["bounds", "--theta", "0.5,0.5,1.0", "--weight", "identity", "--nuisance", "known"]
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
        ["bounds", "--theta", "0.5,0.5,1.0", "--nuisance", "unknown", "--w3", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["sld_cr"] == pytest.approx(5.5)
    assert data["holevo"] == pytest.approx(8.3284271, abs=1e-6)
    assert data["nagaoka_hgm"] == pytest.approx(13.7426407, abs=1e-6)


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


def test_simulate_seed_env_override(monkeypatch):
    _, base, _ = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--n", "10", "--trials", "200", "--seed", "5"]
    )
    monkeypatch.setenv("QEST_SEED", "5")
    _, overridden, _ = run_cli(
        ["simulate", "--theta", "0.6,0,0.3", "--n", "10", "--trials", "200", "--seed", "99"]
    )
    assert json.loads(base) == json.loads(overridden)


def test_simulate_deterministic():
    argv = ["simulate", "--theta", "0.6,0,0.3", "--n", "20", "--trials", "300", "--seed", "8"]
    _, a, _ = run_cli(argv)
    _, b, _ = run_cli(argv)
    assert a == b


def test_sweep_monotone_and_gap():
    code, out, err = run_cli(
        [
            "sweep", "--theta", "0.5,0,0", "--axis", "theta1",
            "--min", "0.1", "--max", "0.9", "--steps", "81",
            "--nuisance", "unknown",
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
        ["bounds", "--nuisance", "unknown", "--w3", "inf"],
        ["bounds", "--nuisance", "unknown", "--w3", "nan"],
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
    src = str(Path(qest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["holevo"] > 0.0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert "scipy" not in pyproject.read_text().lower()
