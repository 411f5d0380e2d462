"""Command-line front end: interval estimators (`bpci`), coverage-event
bounds (`cp-bound`), the counterexample oracle (`counterexample`), the
appendix sweep (`simulate-appendix`) and the safety-certification demo
(`safety-demo`).

Probabilities may be given as decimals or exact fractions ("2/3").  The
significance level epsilon is kept exact, which matters at its knife edges;
every other probability is taken as the double nearest its value, parsed
without `fractions`.

The other commands import what they compute with inside their handlers, so
`bpci` loads only `binom` and `intervals`.  Only `safety-demo` loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .binom import SeededStream, _fmt, check_epsilon, check_prob
from .intervals import clopper_pearson

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    from fractions import Fraction

# a ratio of integers as Fraction() reads it (argparse has loaded `re` already)
_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)/(\d+(?:_\d+)*)\s*")


def prob_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return check_epsilon(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a probability in [0, 1]: {text!r}") from exc


def _float_prob_arg(text: str) -> float:
    """The double nearest the probability `text`, as float(Fraction(text))
    gives it on the inputs `prob_arg` takes: "a/b" as int(a) / int(b), which
    Python rounds correctly, and a decimal as float() reads it.  Adding 0.0
    turns "-0" into 0.0, as Fraction has no signed zero."""
    ratio = _RATIO.fullmatch(text)
    try:
        return check_prob(int(ratio[1]) / int(ratio[2]) if ratio else float(text)) + 0.0
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a probability in [0, 1]: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berncert",
        description="Binomial proportion confidence intervals vs. training-conditional conformal prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bpci", help="binomial proportion confidence interval")
    p.add_argument("--n", type=int, required=True, help="trial count")
    p.add_argument("--successes", type=int, required=True, help="observed success count")
    p.add_argument("--alpha", type=_float_prob_arg, default="1/20", help="nominal miscoverage")
    p.add_argument("--json", action="store_true", help="emit a single-line JSON record")

    p = sub.add_parser("cp-bound", help="training-conditional coverage-event bound")
    p.add_argument("--n", type=int, required=True, help="calibration size")
    p.add_argument("--epsilon", type=prob_arg, required=True, help="significance level")
    p.add_argument("--coverage", type=_float_prob_arg, required=True, help="coverage parameter E")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("counterexample", help="exact coverage-event probability and naive-interval verdict")
    p.add_argument("--b", type=_float_prob_arg, required=True, help="true Bernoulli parameter")
    p.add_argument("--coverage", type=_float_prob_arg, required=True, help="coverage parameter E")
    p.add_argument("--epsilon", type=prob_arg, required=True, help="significance level")
    p.add_argument("--n", type=int, required=True, help="calibration size")
    p.add_argument("--show-cases", action="store_true", help="print the n=2 case table")

    # no defaults here: the options given override AppendixConfig's, field by field
    p = sub.add_parser(
        "simulate-appendix",
        argument_default=argparse.SUPPRESS,
        help="E-grid sweep, one CSV row per (q, regime)",
        description="E-grid sweep, one CSV row per (q, regime).  Each option left "
        "out takes AppendixConfig's default: the paper's scale, n_cal = n_test = 50000, "
        "in exact-inner mode.",
    )
    p.add_argument("--q-min", type=int)
    p.add_argument("--q-max", type=int)
    p.add_argument("--alpha-frac", type=_float_prob_arg)
    p.add_argument("--epsilon", type=prob_arg)
    p.add_argument("--n-cal", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--cal-size", type=int, dest="n_calibration_size", metavar="CAL_SIZE")
    p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    p.add_argument("--mode", choices=["monte-carlo", "exact-inner", "fully-exact"])
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser(
        "safety-demo",
        help="toy safety certification: interval estimate vs. conformal prediction set",
        description="States of the contracting map x <- 0.9 x, drawn uniformly from [-2, 2], "
        "are unsafe iff |x| > 1, so the unsafe probability is exactly 1/2.  The interval "
        "estimate certifies it; the conformal side, at epsilon = 2/3, does not.",
    )
    p.add_argument("--n-cal", type=int, default=100, help="sampled trajectories")
    p.add_argument("--alpha", type=_float_prob_arg, default="0.05", help="nominal miscoverage")
    p.add_argument("--coverage", type=_float_prob_arg, default="0.4", help="coverage parameter E")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_bpci(args) -> int:
    est = clopper_pearson(args.n, args.successes, args.alpha)
    if args.json:
        print(
            json.dumps(
                {
                    "method": "clopper-pearson",
                    "n": est.n,
                    "successes": est.y,
                    "alpha": est.alpha,
                    "lower": est.lower,
                    "upper": est.upper,
                },
                sort_keys=True,
            )
        )
    else:
        print("method = clopper-pearson")
        print(f"n = {est.n}, successes = {est.y}, alpha = {_fmt(est.alpha)}")
        # endpoints are accurate to about 1e-15: one digit more than elsewhere
        print(f"lower = {est.lower:.13g}")
        print(f"upper = {est.upper:.13g}")
    return 0


def _cmd_cp_bound(args) -> int:
    from .conformal import PacParams, theorem1_bound

    params = PacParams(epsilon=args.epsilon, coverage_E=args.coverage, n=args.n)
    bound = theorem1_bound(params)
    if args.json:
        print(
            json.dumps(
                {
                    "n": params.n,
                    "epsilon": str(params.epsilon),
                    "coverage_E": params.coverage_E,
                    "J": params.J,
                    "delta": bound.delta,
                    "confidence": bound.confidence,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"n = {params.n}, epsilon = {params.epsilon}, E = {_fmt(params.coverage_E)}")
        print(f"J = {params.J}")
        print(f"delta = {_fmt(bound.delta)}")
        print(f"confidence (1 - delta) = {_fmt(bound.confidence)}")
    return 0


def _cmd_counterexample(args) -> int:
    from .indicator import (
        ClaimNeverIssuedError, enumerate_example1, exact_SE_probability, naive_interval_coverage,
    )

    if args.show_cases and args.n != 2:
        raise ValueError(f"--show-cases needs n = 2, got n = {args.n}")
    b, E = args.b, args.coverage
    result = exact_SE_probability(b, args.n, args.epsilon, E)
    print(f"b = {_fmt(b)}, E = {_fmt(E)}, epsilon = {args.epsilon}, n = {args.n}")
    print(f"prob_SE = {_fmt(result.prob_SE)}")
    print(f"  full-space prediction: {_fmt(result.prob_fullspace)}")
    print(f"  complement prediction, covering: {_fmt(result.prob_qbar_covering)}")
    print(f"bound (1 - delta) = {_fmt(result.bound.confidence)}")
    if args.show_cases:
        table = enumerate_example1(b, args.epsilon, E)
        for case in table.cases:
            print(
                f"  case [{case.label}] prob={_fmt(case.probability)} "
                f"prediction={case.prediction.value} coverage={_fmt(case.inner_coverage)} "
                f"in_SE={case.in_SE}"
            )
    try:
        naive = naive_interval_coverage(b, E, args.n, args.epsilon)
    except ClaimNeverIssuedError:
        print("naive interval rule: claim never issued (undefined conditional coverage)")
        return 0
    print(f"naive interval [0, E]: conditional coverage = {_fmt(naive.conditional_coverage)}, claim rate = {_fmt(naive.claim_rate)}")
    verdict = "VALID" if naive.conditional_coverage == 1.0 else "INVALID"
    print(f"verdict: {verdict} as a confidence procedure for b")
    return 0


def _cmd_simulate_appendix(args) -> int:
    from .experiments import AppendixConfig, emit_csv, run_appendix

    fields = {k: v for k, v in vars(args).items() if k in AppendixConfig._fields}
    if "mode" in fields:
        fields["mode"] = fields["mode"].replace("-", "_")
    config = AppendixConfig(**fields)
    rows = run_appendix(config)
    emit_csv(rows, args.out)
    min_margin = min(r.exact_prob_SE - r.bound_Esq for r in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"max |h_hat - target|/sigma = {_fmt(max(_target_z(r) for r in rows))}")
    print(f"min margin exact_prob_SE - bound = {_fmt(min_margin)}")
    return 0


def _target_z(row) -> float:
    """|h_hat - target| / sigma for a row, with the row's own `target`,
    what its h_hat estimates (`ExperimentRow`); sigma is the standard error
    of n_cal replicates.  A target of 0 or 1 must be met exactly, and gives
    0 or inf."""
    target = row.target
    if target in (0.0, 1.0):
        return 0.0 if row.h_hat == target else math.inf
    return abs(row.h_hat - target) / math.sqrt(target * (1.0 - target) / row.n_cal)


def _cmd_safety_demo(args) -> int:
    from fractions import Fraction

    from .experiments import linear_contraction_system, run_safety_demo

    report = run_safety_demo(
        linear_contraction_system(),
        n_cal=args.n_cal,
        alpha=args.alpha,
        epsilon=Fraction(2, 3),
        coverage_E=args.coverage,
        stream=SeededStream(args.seed),
    )
    print(f"unsafe trajectories: {report.n_unsafe}/{report.n_cal}")
    print(
        f"interval estimate for unsafe probability "
        f"(alpha={args.alpha}): [{report.interval.lower:.6f}, {report.interval.upper:.6f}]"
    )
    print(f"conformal prediction set: {report.prediction.value}")
    print(f"coverage-event bound: confidence {report.pac_bound.confidence:.6f} at E = {args.coverage}")
    print(f"note: {report.note}")
    return 0


_COMMANDS = {
    "bpci": _cmd_bpci,
    "cp-bound": _cmd_cp_bound,
    "counterexample": _cmd_counterexample,
    "simulate-appendix": _cmd_simulate_appendix,
    "safety-demo": _cmd_safety_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3  # 2 is argparse's usage error


if __name__ == "__main__":
    sys.exit(main())
