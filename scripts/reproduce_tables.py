#!/usr/bin/env python3
"""Print both correction tables as reproduced by the simulator.

For each protocol this is the ``hyper-rsp verify`` table: every detector
branch with its collapsed and corrected receiver states, the tabulated
correction, whether the exhaustive search agrees with it, and the fidelity.
Random params follow the CLI's contract, so ``--seed`` names the same target
as ``hyper-rsp verify --params random --seed``.  With --trials the script also
cross-checks outcome frequencies against the uniform branch law (1/4 and
1/8): the outcome counts of a ``hyper-rsp sample`` run with perfect detectors
(η_d = 1) under ``--seed``.
"""

import argparse
import math
import sys

from hyper_rsp import cli
from hyper_rsp.protocols import outcome_registry
from hyper_rsp.runtime import sample_with_loss
from hyper_rsp.states import ProtocolKind, TargetParams


def show_frequencies(kind, params, trials, seed):
    counts = sample_with_loss(kind, params, eta_d=1.0, trials=trials, seed=seed).outcome_counts
    p = 1 / len(counts)
    sigma = math.sqrt(p * (1 - p) / trials)
    print(f"sampled {trials} outcomes (expect {p:.4f} each, 3σ = {3 * sigma:.4f}):")
    for outcome, count in zip(outcome_registry(kind), counts):
        print(f"{str(outcome):>7}  {count / trials:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--params", nargs=4, type=float, default=None,
                        metavar=("A0", "B0", "AX", "BX"),
                        help="pol pair plus the second-register pair")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random params and for sampling")
    parser.add_argument("--trials", type=int, default=0,
                        help="also sample outcome frequencies")
    parser._negative_number_matcher = cli._NEGATIVE_NUMBER
    args = parser.parse_args()
    cli.check_seed(parser, args.seed)
    if args.trials < 0:
        parser.error(f"--trials must not be negative, got {args.trials}")

    if args.params is None:
        params = cli.random_params(args.seed)
    else:
        a0, b0, ax, bx = args.params
        try:
            params = TargetParams(a0, b0, ax, bx, ax, bx)
        except ValueError as exc:
            parser.error(f"{exc}; AX BX is the second-register pair, used as the freq pair (pf) "
                         "and as the time pair (tb)")

    all_pass = True
    for kind in ProtocolKind:
        report = cli.verify_report(kind, params)
        all_pass &= report["all_pass"]
        print(cli.render("verify", report, "table"))
        if args.trials:
            show_frequencies(kind, params, args.trials, args.seed)
            print()
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
