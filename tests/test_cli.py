"""Command-line interface: parsing, output formats, error handling."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from qest.cli import main


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
