"""Command-line interface: bounds, povm, region, simulate, sweep.

All numeric output is printed with 9 significant digits.  Results go to
standard output; diagnostics and errors go to standard error.  The exit
code is 0 iff the command completed without error.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .bounds import WeightSpec, bound_report
from .model import ThetaParams
from .povm import build_optimal_estimator, build_optimal_povm
from .region import (
    in_region_D,
    in_region_D3,
    in_region_D_GM,
    in_region_H,
    in_region_SLD3,
)
from .simulate import STRATEGIES, SimConfig, run

BOUND_COLUMNS = ("sld_cr", "rld_cr", "nagaoka_hgm", "holevo")

REGION_PREDICATES = {
    "D": in_region_D,
    "D_GM": in_region_D_GM,
    "D3": in_region_D3,
    "D_SLD3": in_region_SLD3,
    "H": in_region_H,
}


def _round9(value):
    """Recursively round floats to 9 significant digits for output."""
    if isinstance(value, float):
        if not np.isfinite(value):
            return None
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


def _fmt(value):
    return f"{float(value):.9g}"


def _parse_count(text):
    """A finite whole number, written as an integer or a decimal ("1e4")."""
    value = float(text)
    if not np.isfinite(value) or value != int(value):
        raise ValueError(f"n must be a whole number, got {text.strip()!r}")
    return int(value)


def _parse_weight(text, k):
    """Weight matrix from 'identity', an inline row-major CSV string, or a file.

    A file source is given as @path or as the path of an existing file; the
    file holds plain CSV, k rows of k entries.
    """
    text = text.strip()
    if text.lower() == "identity":
        return np.eye(k)
    if text.startswith("@") or os.path.isfile(text):
        path = text[1:] if text.startswith("@") else text
        rows = _read_csv_matrix(path)
        if rows.shape != (k, k):
            raise ValueError(f"weight file {path!r} is {rows.shape}, expected {(k, k)}")
        return rows
    values = [float(p) for p in text.split(",")]
    if len(values) != k * k:
        raise ValueError(f"inline weight needs {k * k} entries (row-major), got {len(values)}")
    return np.array(values).reshape(k, k)


def _read_csv_matrix(path):
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    return np.array(rows)


def _weight_spec(args):
    """The block weight diag(W, w3) (k=3) when --w3 is given, else W (k=2)."""
    w2 = _parse_weight(args.weight, 2)
    return WeightSpec(w2) if args.w3 is None else WeightSpec.block(w2, args.w3)


def _add_theta(parser):
    parser.add_argument(
        "--theta", required=True, metavar="T1,T2,T3",
        help="model point, comma-separated decimals, phase in radians; "
             "write a negative theta1 as --theta=-0.6,0,0.3",
    )


def _add_weight(parser):
    parser.add_argument(
        "--weight", default="identity",
        help="2x2 weight for the parameters of interest: 'identity', inline "
             "row-major CSV (e.g. '1,0,0,2'), or a CSV file path (@path works too)",
    )


def _add_w3(parser):
    parser.add_argument(
        "--w3", type=float, default=None,
        help="weight on the phase error; giving it makes the phase unknown, k=3",
    )


def cmd_bounds(args):
    t = ThetaParams.parse(args.theta)
    w = _weight_spec(args)
    report = bound_report(t, w.k, w)
    if args.output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(BOUND_COLUMNS + ("k",))
        writer.writerow([_fmt(getattr(report, c)) for c in BOUND_COLUMNS] + [w.k])
    else:
        print(json.dumps(_round9(report.as_dict())))
    return 0


def cmd_povm(args):
    t = ThetaParams.parse(args.theta)
    w = _parse_weight(args.weight, 2)
    povm, plan = build_optimal_povm(t, w)
    if args.estimates_csv:
        build_optimal_estimator(t, w, povm).estimates_to_csv(args.estimates_csv)
    payload = {
        "povm": json.loads(povm.to_json()),
        "plan": {
            "directions": plan.directions.tolist(),
            "probabilities": plan.probabilities.tolist(),
            "lambdas": plan.lambdas.tolist(),
        },
    }
    print(json.dumps(_round9(payload)))
    if args.estimates_csv:
        print(f"estimator table written to {args.estimates_csv}", file=sys.stderr)
    return 0


def cmd_region(args):
    t = ThetaParams.parse(args.theta)
    v = _read_csv_matrix(args.candidate)
    verdict = REGION_PREDICATES[args.region](v, t)
    print(json.dumps(_round9(verdict.as_dict())))
    return 0


def _simulate_row(cfg, args):
    """Run cfg; its JSON row, the integer counters of its diagnostics included."""
    res = run(cfg)
    print(f"n={cfg.n} done ({args.trials} trials)", file=sys.stderr)
    return {
        "n": cfg.n,
        "n_weighted_mse": res.n_times_weighted_mse,
        "stderr": res.stderr,
        "gamma": res.diagnostics.get("gamma", float("nan")),
        "strategy": args.strategy,
        "empirical_mse": res.empirical_mse.tolist(),
        "diagnostics": {k: v for k, v in res.diagnostics.items() if isinstance(v, int)},
    }


def cmd_simulate(args):
    t = ThetaParams.parse(args.theta)
    w = WeightSpec(_parse_weight(args.weight, 2))
    grid = sorted({_parse_count(v) for v in args.n.split(",")})
    configs = [
        SimConfig(
            t, w, args.strategy, n, args.trials, seed=args.seed,
            phase_fraction_exponent=args.exponent, batch_size=args.batch_size,
        )
        for n in grid
    ]
    # opened before the first run, so that an unwritable path fails first;
    # emptied only once every run succeeded, and removed if it is new
    existed = bool(args.csv) and os.path.exists(args.csv)
    with open(args.csv, "a", newline="") if args.csv else nullcontext() as fh:
        try:
            results = [_simulate_row(cfg, args) for cfg in configs]
        except BaseException:
            if fh is not None and not existed:
                fh.close()
                os.remove(args.csv)
            raise
        if fh is not None:
            fh.truncate(0)
            writer = csv.writer(fh)
            writer.writerow(["n", "n_weighted_mse", "stderr", "gamma", "strategy"])
            for row in results:
                writer.writerow(
                    [row["n"], _fmt(row["n_weighted_mse"]), _fmt(row["stderr"]),
                     _fmt(row["gamma"]), row["strategy"]]
                )
    print(json.dumps(_round9({"seed": args.seed, "results": results})))
    if args.csv:
        print(f"per-n table written to {args.csv}", file=sys.stderr)
    return 0


def cmd_sweep(args):
    base = [float(p) for p in args.theta.split(",")]
    if len(base) != 3:
        raise ValueError(f"expected 't1,t2,t3', got {args.theta!r}")
    axis = {"theta1": 0, "theta2": 1, "theta3": 2}[args.axis]
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    values = np.linspace(args.min, args.max, args.steps)  # [min] when steps == 1
    w = _weight_spec(args)
    rows = []  # printed only once every point succeeded: no partial CSV
    singular = outside = 0
    for value in values:
        point = list(base)
        point[axis] = float(value)
        if abs(point[0]) < 1e-3:
            singular += 1
        elif point[0] ** 2 + point[1] ** 2 >= 1.0:
            outside += 1
        else:
            report = bound_report(ThetaParams(*point), w.k, w)
            rows.append([_fmt(value)] + [_fmt(getattr(report, c)) for c in BOUND_COLUMNS])
    writer = csv.writer(sys.stdout)
    writer.writerow([args.axis] + list(BOUND_COLUMNS))
    writer.writerows(rows)
    for count, where in (
        (singular, "with |theta1| < 1e-3 (phase information diverges as theta1 -> 0)"),
        (outside, "outside the Bloch ball (theta1^2 + theta2^2 >= 1)"),
    ):
        if count:
            print(f"skipped {count} grid points {where}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as one line.

    Subparsers are built with the parser's class, so they report alike.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="qest",
        description="Qubit estimation bounds, optimal measurements, and simulations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="precision bound values at a model point")
    _add_theta(p)
    _add_weight(p)
    _add_w3(p)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("povm", help="optimal measurement and estimator construction")
    _add_theta(p)
    _add_weight(p)
    p.add_argument(
        "--estimates-csv", default=None, metavar="PATH",
        help="also write the locally unbiased estimator table as CSV",
    )
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("region", help="MSE-region membership for a candidate matrix")
    _add_theta(p)
    p.add_argument(
        "--candidate", required=True, metavar="PATH",
        help="candidate MSE matrix as plain CSV, row-major, 2 or 3 rows",
    )
    p.add_argument(
        "--region", choices=sorted(REGION_PREDICATES), default="H",
        help="which region predicate to evaluate (H dispatches on matrix size)",
    )
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="Monte-Carlo estimation runs")
    _add_theta(p)
    _add_weight(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="single-copy-optimal")
    p.add_argument(
        "--n", default="1000",
        help="number of copies per trial; a comma-separated list runs a grid",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--exponent", type=float, default=0.5,
                   help="two-step phase stage uses floor(n^exponent) copies")
    p.add_argument("--batch-size", type=int, default=100,
                   help="adaptive strategy batch size")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write per-n results as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="bound values along a parameter grid, CSV output")
    _add_theta(p)
    _add_weight(p)
    _add_w3(p)
    p.add_argument("--axis", choices=("theta1", "theta2", "theta3"), required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError() has an empty message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
