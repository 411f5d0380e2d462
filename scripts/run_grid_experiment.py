#!/usr/bin/env python3
"""Run the E-grid coverage-event sweep in all three modes and report margins.

Each sweep option left out takes AppendixConfig's default: the paper's
scale, n_cal = n_test = 50000.
"""

import argparse
import sys

from berncert.experiments import AppendixConfig, emit_csv, run_appendix


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
        max_dev = max(abs(r.h_hat - r.exact_prob_SE) for r in rows)
        print(
            f"{mode}: {len(rows)} rows -> {path}; "
            f"min margin = {min_margin:.6g}; max |h_hat - exact| = {max_dev:.6g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
