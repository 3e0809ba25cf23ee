#!/usr/bin/env python3
"""Sweep detector efficiency and compare detection rates against the η² model.

Writes one line per efficiency point: measured post-selected success rate, the
η_d² prediction, the binomial 3σ band, and the conditional fidelity, which
stays at 1 for every point with any detections at all.  The target is the
one ``hyper-rsp sample --params random --seed`` draws.
"""

import argparse
import contextlib
import math
import sys

import numpy as np

from hyper_rsp import cli
from hyper_rsp.states import ProtocolKind


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", choices=["pf", "tb"], default="pf")
    parser.add_argument("--trials", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=11)
    parser.add_argument("--csv", default=None, help="write results to a CSV file")
    args = parser.parse_args()
    cli.check_seed(parser, args.seed)
    for name, value in (("trials", args.trials), ("points", args.points)):
        if value <= 0:
            parser.error(f"--{name} must be positive, got {value}")

    kind = ProtocolKind.parse(args.protocol)
    params = cli.random_params(args.seed)
    with open_csv(parser, args.csv) as csv_file:
        rows = sweep(kind, params, args.trials, args.seed, args.points)
        header = list(rows[0])
        print("  ".join(f"{name:>20}" for name in header))
        for row in rows:
            print("  ".join(f"{row[name]:>20}" for name in header))
        if csv_file:
            csv_file.write(cli.csv_text(rows))
    if args.csv:
        print(f"wrote {args.csv}", file=sys.stderr)


def open_csv(parser, path):
    """The --csv file, opened before the sweep so that a path that cannot be
    written is a usage error up front; a null context without --csv."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write --csv {path}: {exc.strerror}")


def sweep(kind, params, trials, seed, points):
    rows = []
    for eta in np.linspace(0.0, 1.0, points):
        stats = cli.sample_report(kind, params, float(eta), trials, seed)["stats"]
        predicted = eta * eta
        sigma = math.sqrt(predicted * (1 - predicted) / trials) if 0 < predicted < 1 else 0.0
        fid = stats["mean_fidelity_on_detected"]
        rows.append(
            {
                "eta_d": f"{eta:.3f}",
                "success_rate": f"{stats['success_rate']:.6f}",
                "predicted": f"{predicted:.6f}",
                "three_sigma": f"{3 * sigma:.6f}",
                "conditional_fidelity": "n/a" if fid is None else f"{fid:.12f}",
            }
        )
    return rows


if __name__ == "__main__":
    main()
