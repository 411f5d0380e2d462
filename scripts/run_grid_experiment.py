#!/usr/bin/env python3
"""Run the E-grid coverage-event sweep in all three modes and report margins.

Each sweep option left out takes AppendixConfig's default: the paper's
scale, n_cal = n_test = 50000.  monte_carlo rows estimate the finite-test
target (`monte_carlo_SE_probability`), not exact_prob_SE, so their largest
deviation is reported in binomial standard errors of that target.
"""

import argparse
import math
import sys

from berncert.experiments import AppendixConfig, emit_csv, run_appendix
from berncert.indicator import monte_carlo_SE_probability


def target_z(config: AppendixConfig, row) -> float:
    """|h_hat - target| / sigma for a monte_carlo row, with sigma the
    standard error of n_cal replicates; a target of 0 or 1 must be met
    exactly, and gives 0 or inf."""
    target = monte_carlo_SE_probability(row.b, config.n_calibration_size, config.epsilon, row.E, row.n_test)
    if target in (0.0, 1.0):
        return 0.0 if row.h_hat == target else math.inf
    return abs(row.h_hat - target) / math.sqrt(target * (1.0 - target) / row.n_cal)


def main() -> int:
    # no defaults for the sweep options: those given override AppendixConfig's
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    parser.add_argument("--n-cal", type=int)
    parser.add_argument("--n-test", type=int)
    parser.add_argument("--out-prefix", default="grid")
    args = parser.parse_args()

    fields = {k: v for k, v in vars(args).items() if k in AppendixConfig._fields}
    for mode in ("fully_exact", "exact_inner", "monte_carlo"):
        config = AppendixConfig(mode=mode, **fields)
        rows = run_appendix(config)
        path = f"{args.out_prefix}_{mode}.csv"
        emit_csv(rows, path)
        min_margin = min(r.exact_prob_SE - r.bound_Esq for r in rows)
        if mode == "monte_carlo":
            deviation = f"max |h_hat - target|/sigma = {max(target_z(config, r) for r in rows):.6g}"
        else:
            deviation = f"max |h_hat - exact| = {max(abs(r.h_hat - r.exact_prob_SE) for r in rows):.6g}"
        print(f"{mode}: {len(rows)} rows -> {path}; min margin = {min_margin:.6g}; {deviation}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
