"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/workload.py --workload bpci --seed 1 --seconds 30 --trace 0 [--setup-only]

Set-up (interpreter start, ``import berncert`` and generation of the input
pool) ends when the process prints ``READY``.  The workload then runs whole
rounds of the same operations until ``--seconds`` have passed, checks every
output against the references in oracles.py, and prints one JSON line with
its counts and metrics.  Rounds take their inputs from a pool made from
``--seed``; round r uses entry r of the pool, cycling if the pool runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from statistics import NormalDist

_import_start = time.perf_counter()
import berncert  # noqa: E402,F401  (timed: what a user pays, numpy and mpmath included)

IMPORT_S = time.perf_counter() - _import_start

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
POOL = 64

ALPHAS = (0.05, 0.01)

# bpci: three strata of n, each sampled in a Latin hypercube so that every
# round costs about the same whatever the seed.  The kinds of y rotate over a
# stratum's slots from round to round.  y = 0 and y = n need one tail
# inversion instead of two, so the large stratum, whose middle call sets
# cp_p90_ms, uses only kinds that need two.
# (low, high, slots, log scale, kinds of y)
BPCI_EDGE_KINDS = ("zero", "one", "n-1", "n", "draw", "draw", "draw", "draw")
BPCI_STRATA = (
    (10, 30, 8, False, BPCI_EDGE_KINDS),
    (31, 400, 8, True, BPCI_EDGE_KINDS),
    (400, 3000, 4, True, ("one", "draw", "n-1", "draw")),
)
BPCI_DRAW_B = (0.02, 0.1, 0.3, 0.5, 0.8, 0.95)

# validity: CP at the last n of the exact-rational path in binom and the first
# n past it.  Fixed n keep each round's Clopper-Pearson calls the same
# population, so their percentiles do not move with the seed.
VALIDITY_N = (30, 31)
VALIDITY_B_SAMPLES = 6
PAC_TRIALS = 100_000

# coverage_event: the paper's counterexample at paper scale
SWEEP_N_CAL = SWEEP_N_TEST = 50_000
SWEEP_EPSILON = Fraction(2, 3)
SWEEP_ROWS = 2 * 99
CLI_SWEEP_Q = 5
SE_EXACT_REPLICATES = 4000
SE_MC_REPLICATES = 1000
SE_N_TEST = 400
SE_CONT_N = 10
SE_CONT_EPSILON = Fraction(1, 5)


class Run:
    """Counts operations, the time spent inside berncert, and failed checks."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.busy_s = 0.0
        self.cp_ms: list[float] = []
        self.cli_s: list[float] = []
        self.cp_max_err = 0.0
        self.bad_checks = 0
        self.counters: dict[str, float] = {}

    def call(self, fn, *args, **kwargs):
        """One timed operation: (ok, result, seconds)."""
        self.ops += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.busy_s += time.perf_counter() - start
            self.failed += 1
            traceback.print_exc()
            return False, None, 0.0
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        return True, result, elapsed

    def cli(self, *argv: str):
        """One `berncert` command in a fresh interpreter: (ok, stdout)."""
        self.ops += 1
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "berncert.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.cli_s.append(elapsed)
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(proc.stderr)
            return False, proc.stdout
        return True, proc.stdout

    def check(self, ok, what: str) -> None:
        if not ok:
            self.bad_checks += 1
            if self.bad_checks <= 20:
                print(f"check failed: {what}", file=sys.stderr)

    def check_cp(self, n: int, y: int, alpha: float, iv) -> None:
        import oracles

        err, ok = oracles.cp_error(n, y, alpha, iv.lower, iv.upper)
        self.cp_max_err = max(self.cp_max_err, err)
        self.check(ok, f"CP({n}, {y}, {alpha}) = [{iv.lower!r}, {iv.upper!r}] is {err:.3g} from betaincinv")
        self.check(iv.lower <= y / n <= iv.upper, f"CP({n}, {y}, {alpha}) excludes y/n")
        self.check((iv.n, iv.y, iv.alpha) == (n, y, alpha), f"CP({n}, {y}, {alpha}) echoes {iv}")

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _latin(rng, low: float, high: float, k: int, log: bool) -> np.ndarray:
    u = (np.arange(k) + rng.random(k)) / k
    return low * (high / low) ** u if log else low + (high - low) * u


# ---------------------------------------------------------------- bpci


def bpci_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    pool = []
    for r in range(POOL):
        requests = []
        for low, high, slots, log, kinds in BPCI_STRATA:
            for i, n in enumerate(np.rint(_latin(rng, low, high, slots, log)).astype(int)):
                n = int(n)
                kind = kinds[(i + r) % len(kinds)]
                if kind == "draw":
                    y = int(rng.binomial(n, BPCI_DRAW_B[(i + 2 * r) % len(BPCI_DRAW_B)]))
                else:
                    y = {"zero": 0, "one": 1, "n-1": n - 1, "n": n}[kind]
                requests.append((n, y, ALPHAS[rng.integers(2)]))
        cli_request = requests[BPCI_STRATA[0][2]]  # first medium-stratum slot
        pool.append(([requests[i] for i in rng.permutation(len(requests))], cli_request))
    return pool


def bpci_round(run: Run, inputs, seed: int) -> None:
    from berncert import intervals

    requests, cli_request = inputs
    results = {}
    for n, y, alpha in requests:
        ok, iv, elapsed = run.call(intervals.clopper_pearson, n, y, alpha)
        if not ok:
            continue
        run.cp_ms.append(1e3 * elapsed)
        run.check_cp(n, y, alpha, iv)
        results[(n, y, alpha)] = iv
    n, y, alpha = cli_request
    ok, out = run.cli("bpci", "--n", str(n), "--successes", str(y), "--alpha", repr(alpha), "--json")
    if ok and cli_request in results:
        record = json.loads(out)
        iv = results[cli_request]
        run.check((record["lower"], record["upper"]) == (iv.lower, iv.upper),
                  f"berncert bpci --json {cli_request} gives {record}, in process [{iv.lower}, {iv.upper}]")


# ---------------------------------------------------------------- validity


class Wald:
    """Normal-approximation interval p +- z sqrt(p(1-p)/n), clipped to [0, 1].

    At y = 0 and y = n it collapses to a point, so its coverage dips far
    below 1 - alpha near b = 0 and b = 1: a verdict of valid would be wrong.
    """

    def __init__(self, n: int, alpha: float):
        from berncert import IntervalEstimate

        self.n, self.alpha = n, alpha
        z = NormalDist().inv_cdf(1 - alpha / 2)
        self.table = []
        for y in range(n + 1):
            p = y / n
            half = z * (p * (1 - p) / n) ** 0.5
            self.table.append(IntervalEstimate(lower=max(0.0, p - half), upper=min(1.0, p + half),
                                               alpha=alpha, n=n, y=y))

    def interval(self, y: int):
        return self.table[y]


def validity_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    pool = []
    for _ in range(POOL):
        cases = [{
            "n": n,
            "alpha": ALPHAS[rng.integers(2)],
            "wald_alpha": ALPHAS[rng.integers(2)],
            "b": [float(b) for b in rng.uniform(0.005, 0.995, VALIDITY_B_SAMPLES)],
        } for n in VALIDITY_N]
        pool.append({
            "cases": cases,
            "pac_b": float(rng.uniform(0.05, 0.95)),
            "pac_seed": int(rng.integers(2**62)),
            "cli_y": int(rng.integers(VALIDITY_N[1] + 1)),
        })
    return pool


def validity_round(run: Run, inputs, seed: int) -> None:
    import oracles
    from berncert import SeededStream, intervals

    estimators = []
    for case in inputs["cases"]:
        n, alpha = case["n"], case["alpha"]
        est = intervals.ClopperPearson(n, alpha)
        table = []
        for y in range(n + 1):
            ok, iv, elapsed = run.call(est.interval, y)
            if not ok:
                break
            run.cp_ms.append(1e3 * elapsed)
            run.check_cp(n, y, alpha, iv)
            table.append((iv.lower, iv.upper))
        if len(table) != n + 1:
            continue
        estimators.append((est, table))

        ok, report, _ = run.call(intervals.verify_conservative_validity, est, n, alpha)
        if ok:
            run.check(report.valid and report.worst_coverage >= 1 - alpha,
                      f"CP n={n} alpha={alpha} judged invalid: {report}")
            exact = oracles.exact_coverage(n, oracles.covering_set(table, report.worst_b), report.worst_b)
            run.check(abs(report.worst_coverage - exact) <= 1e-12,
                      f"CP n={n}: worst coverage {report.worst_coverage!r}, exact {exact!r}")

        wald = Wald(n, case["wald_alpha"])
        ok, report, _ = run.call(intervals.verify_conservative_validity, wald, n, wald.alpha)
        if ok:
            run.check(not report.valid and report.worst_coverage < 1 - wald.alpha,
                      f"Wald n={n} alpha={wald.alpha} judged valid: {report}")
            wald_table = [(iv.lower, iv.upper) for iv in wald.table]
            exact = oracles.exact_coverage(n, oracles.covering_set(wald_table, report.worst_b), report.worst_b)
            run.check(abs(report.worst_coverage - exact) <= 1e-12,
                      f"Wald n={n}: worst coverage {report.worst_coverage!r}, exact {exact!r}")

        for b in case["b"]:
            ok, report, _ = run.call(intervals.coverage_probability, est, b, n)
            if not ok:
                continue
            covering = oracles.covering_set(table, b)
            exact = oracles.exact_coverage(n, covering, b)
            run.check(report.covering_set == covering and abs(report.coverage - exact) <= 1e-12,
                      f"coverage of CP n={n} at b={b!r}: {report.coverage!r}, exact {exact!r}")

    if len(estimators) == 2:
        (est, table), b = estimators[0], inputs["pac_b"]
        ok, frac, _ = run.call(intervals.pac_form_check, est, b, est.n, PAC_TRIALS,
                                     SeededStream(inputs["pac_seed"]))
        if ok:
            run.add("pac_trials", PAC_TRIALS)
            exact = oracles.exact_coverage(est.n, oracles.covering_set(table, b), b)
            run.check(oracles.consistent(round(frac * PAC_TRIALS), PAC_TRIALS, exact),
                      f"pac_form_check n={est.n} b={b!r}: {frac!r}, exact coverage {exact!r}")
        (est, table), y = estimators[1], inputs["cli_y"]
        ok, out = run.cli("bpci", "--n", str(est.n), "--successes", str(y), "--alpha", repr(est.alpha), "--json")
        if ok:
            record = json.loads(out)
            run.check((record["lower"], record["upper"]) == table[y],
                      f"berncert bpci --json n={est.n} y={y} gives {record}, estimator {table[y]}")


# ---------------------------------------------------------------- coverage_event


def _abs_score():
    """Continuous nonconformity score |x|, vectorised over a sample."""
    from berncert.conformal import NonconformityMeasure

    class AbsScore(NonconformityMeasure):
        def score(self, point) -> float:
            return abs(float(point))

        def score_many(self, points) -> np.ndarray:
            return np.abs(np.asarray(points, dtype=float))

    return AbsScore()


def _bernoulli_sampler(b: float):
    return lambda rng, count: (rng.random(count) < b).astype(int)


def _normal_sampler(rng, count):
    return rng.standard_normal(count)


def coverage_event_inputs(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    pool = []
    for r in range(POOL):
        E = float(rng.uniform(0.2, 0.8))
        gap = float(rng.uniform(0.05, 0.15))
        pool.append({
            "master_seed": int(rng.integers(2**62)),
            "cli_q": int(rng.integers(99 - CLI_SWEEP_Q + 1)),
            "cli_mode": ("fully-exact", "exact-inner", "monte-carlo")[r % 3],
            "cert_u": rng.random((SWEEP_ROWS, 2)),
            "se_E": E,
            "se_b": E + gap if rng.random() < 0.5 else E - gap,
            "se_cont_E": float(rng.uniform(0.1, 0.3)),
            "se_seeds": [int(s) for s in rng.integers(2**62, size=3)],
        })
    return pool


def _csv_lines(rows) -> list[str]:
    def g(x):
        return f"{x:.12g}"

    return [",".join([str(r.q), g(r.E), g(r.b), r.regime, r.mode, g(r.h_hat), g(r.exact_prob_SE),
                      g(r.bound_Esq), g(r.frac_fullspace), g(r.frac_qbar_covering),
                      str(r.n_cal), str(r.n_test), str(r.seed)]) for r in rows]


def _check_sweep(run: Run, rows, mode: str) -> None:
    import oracles

    run.check(len(rows) == SWEEP_ROWS, f"{mode} sweep has {len(rows)} rows")
    for i, row in enumerate(rows):
        q, regime = divmod(i, 2)
        E = 0.01 + 0.01 * q
        b = E * (1 - 0.005) if regime == 0 else min(E * (1 + 0.005), 1.0)
        where = f"{mode} row q={q} {row.regime}"
        run.check((row.q, row.E, row.b, row.mode) == (q, E, b, mode), f"{where}: inputs {row}")
        full = oracles.prob_fullspace(2, b, oracles.conformal_J(SWEEP_EPSILON, 2))
        exact = 1.0 if b <= E else full
        run.check(abs(row.bound_Esq - E * E) <= 1e-15, f"{where}: bound {row.bound_Esq!r} != E^2")
        run.check(abs(row.exact_prob_SE - exact) <= 1e-15, f"{where}: exact {row.exact_prob_SE!r} != {exact!r}")
        run.check(row.exact_prob_SE >= row.bound_Esq, f"{where}: exact below the bound")
        if mode == "fully_exact":
            run.check(row.h_hat == row.exact_prob_SE, f"{where}: h_hat {row.h_hat!r} != exact")
            run.check(abs(row.frac_fullspace - full) <= 1e-15, f"{where}: full-space {row.frac_fullspace!r}")
            continue
        if mode == "exact_inner":
            expected = exact
        else:
            inner = oracles.inner_cover_prob(SWEEP_N_TEST, b, lambda x: 1.0 - x / SWEEP_N_TEST >= 1.0 - E)
            expected = full + (1.0 - full) * inner
        covered = round(row.h_hat * SWEEP_N_CAL)
        run.check(oracles.consistent(covered, SWEEP_N_CAL, expected),
                  f"{where}: h_hat {row.h_hat!r} against expectation {expected!r}")
        run.check(oracles.consistent(round(row.frac_fullspace * SWEEP_N_CAL), SWEEP_N_CAL, full),
                  f"{where}: full-space share {row.frac_fullspace!r} against {full!r}")


def coverage_event_round(run: Run, inputs, seed: int) -> None:
    import oracles
    from berncert import SeededStream, conformal, experiments, intervals
    from berncert.conformal import IndicatorINM, PacParams

    threads = os.environ["BERN_CERT_THREADS"]
    sweeps = {}
    for mode in experiments.MODES:
        config = experiments.AppendixConfig(mode=mode, n_cal=SWEEP_N_CAL, n_test=SWEEP_N_TEST,
                                            epsilon=SWEEP_EPSILON, master_seed=inputs["master_seed"])
        ok, rows, elapsed = run.call(experiments.run_appendix, config)
        if not ok:
            continue
        sweeps[mode] = rows
        _check_sweep(run, rows, mode)
        if mode == "fully_exact":
            continue
        run.add("sweep_s_many", elapsed)
        os.environ["BERN_CERT_THREADS"] = "1"
        try:
            ok, rows_1, elapsed = run.call(experiments.run_appendix, config)
        finally:
            os.environ["BERN_CERT_THREADS"] = threads
        if ok:
            run.add("sweep_s_one", elapsed)
            run.check(rows_1 == rows, f"{mode} rows differ between 1 and {threads} threads")

    for mode, rows in sweeps.items():
        path = os.path.join(OUT, f"coverage_event-seed{seed}-{mode}.csv")
        ok, _, _ = run.call(experiments.emit_csv, rows, path)
        if ok:
            with open(path) as fh:
                text = fh.read()
            run.add("csv_bytes", len(text.encode()))
            run.check(text == "\n".join([experiments.CSV_HEADER, *_csv_lines(rows)]) + "\n",
                      f"{path} differs from its rows")

    cli_mode = inputs["cli_mode"]
    q0 = inputs["cli_q"]
    path = os.path.join(OUT, f"coverage_event-seed{seed}-cli.csv")
    ok, _ = run.cli("simulate-appendix", "--mode", cli_mode, "--q-min", str(q0),
                    "--q-max", str(q0 + CLI_SWEEP_Q - 1), "--n-cal", str(SWEEP_N_CAL),
                    "--n-test", str(SWEEP_N_TEST), "--seed", str(inputs["master_seed"]), "--out", path)
    rows = sweeps.get(cli_mode.replace("-", "_"))
    if ok and rows is not None:
        with open(path) as fh:
            lines = fh.read().splitlines()
        run.check(lines[1:] == _csv_lines(rows[2 * q0: 2 * (q0 + CLI_SWEEP_Q)]),
                  f"simulate-appendix {cli_mode} q={q0}.. differs from run_appendix")

    # the certificate the paper recommends instead: CP from the N = 2 draws
    if "exact_inner" in sweeps:
        for row, u in zip(sweeps["exact_inner"], inputs["cert_u"]):
            y = int((u < row.b).sum())
            ok, iv, elapsed = run.call(intervals.clopper_pearson, 2, y, 0.05)
            if ok:
                run.cp_ms.append(1e3 * elapsed)
                run.check_cp(2, y, 0.05, iv)

    E, b = inputs["se_E"], inputs["se_b"]
    params = PacParams(epsilon=SWEEP_EPSILON, coverage_E=E, n=2)
    full = oracles.prob_fullspace(2, b, oracles.conformal_J(SWEEP_EPSILON, 2))
    in_target = (lambda x: x == 1)
    seeds = inputs["se_seeds"]
    cases = (
        ("indicator, exact inner", IndicatorINM(in_target, target_prob=b), _bernoulli_sampler(b),
         params, SE_EXACT_REPLICATES, 1.0 if b <= E else full),
        ("indicator, Monte Carlo inner", IndicatorINM(in_target), _bernoulli_sampler(b), params,
         SE_MC_REPLICATES,
         full + (1 - full) * oracles.inner_cover_prob(SE_N_TEST, b, lambda x: (SE_N_TEST - x) / SE_N_TEST >= 1.0 - E)),
        ("continuous", _abs_score(), _normal_sampler,
         PacParams(epsilon=SE_CONT_EPSILON, coverage_E=inputs["se_cont_E"], n=SE_CONT_N), SE_MC_REPLICATES,
         oracles.continuous_SE_prob(SE_CONT_N, SE_CONT_EPSILON, inputs["se_cont_E"], SE_N_TEST)),
    )
    for (label, inm, sampler, p, replicates, expected), s in zip(cases, seeds):
        ok, report, _ = run.call(conformal.estimate_SE_probability, inm, sampler, p,
                                       replicates, SE_N_TEST, SeededStream(s))
        if not ok:
            continue
        covered = round(report.h_hat * replicates)
        run.check(oracles.consistent(covered, replicates, expected),
                  f"estimate_SE {label} E={p.coverage_E!r}: h_hat {report.h_hat!r}, expected {expected!r}")
        bound = oracles.continuous_SE_prob(p.n, p.epsilon, p.coverage_E, None)
        run.check(abs(report.bound.confidence - bound) <= 1e-12,
                  f"estimate_SE {label}: bound {report.bound.confidence!r}, exact {bound!r}")


# ---------------------------------------------------------------- main

WORKLOADS = {
    "bpci": (bpci_inputs, bpci_round),
    "validity": (validity_inputs, validity_round),
    "coverage_event": (coverage_event_inputs, coverage_event_round),
}


def layer_metrics(tr, run: Run, import_s: float, ops_per_s: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    cp_calls = tr.calls("intervals.cp_cache")
    cp_misses = tr.edges.get(("intervals.cp_cache", "intervals.clopper_pearson"), 0)
    values = {
        "binom.cdf.calls": (tr.calls("binom.cdf"), "count"),
        "binom.cdf.self_s": (tr.self_s("binom.cdf"), "s"),
        "binom.pmf.calls": (tr.calls("binom.pmf"), "count"),
        "binom.pmf.self_s": (tr.self_s("binom.pmf"), "s"),
        "binom.pmf_vector.calls": (tr.calls("binom.pmf_vector"), "count"),
        "binom.pmf_vector.self_s": (tr.self_s("binom.pmf_vector"), "s"),
        "binom.pmf_vector.elements": (int(tr.counters.get("binom.pmf_vector.elements", 0)), "count"),
        "binom.tail_invert.calls": (tr.calls("binom.tail_invert"), "count"),
        "binom.tail_invert.self_s": (tr.self_s("binom.tail_invert"), "s"),
        "binom.tail_invert.cdf_per_call": (
            ratio(tr.edges.get(("binom.tail_invert", "binom.cdf"), 0), tr.calls("binom.tail_invert")), "count"),
        "intervals.clopper_pearson.self_s": (tr.self_s("intervals.clopper_pearson"), "s"),
        "intervals.cp.max_abs_err": (run.cp_max_err, "prob"),
        "intervals.cp_cache.hit_ratio": (ratio(cp_calls - cp_misses, cp_calls), "ratio"),
        "intervals.coverage.calls": (tr.calls("intervals.coverage"), "count"),
        "intervals.coverage.self_s": (tr.self_s("intervals.coverage"), "s"),
        "intervals.validity.b_points": (int(tr.counters.get("intervals.validity.b_points", 0)), "count"),
        "intervals.grid.self_s": (tr.self_s("intervals.grid"), "s"),
        "intervals.pac_form_check.trials_per_s": (
            ratio(run.counters.get("pac_trials", 0), tr.total_s("intervals.pac_form_check")), "1/s"),
        "conformal.estimate_SE.self_s": (tr.self_s("conformal.estimate_SE"), "s"),
        "conformal.estimate_SE.replicates_per_s": (
            ratio(tr.counters.get("conformal.estimate_SE.replicates", 0), tr.total_s("conformal.estimate_SE")), "1/s"),
        "conformal.inp_contains.calls": (tr.calls("conformal.inp_contains"), "count"),
        "conformal.theorem1_bound.calls": (tr.calls("conformal.theorem1_bound"), "count"),
        "indicator.exact_SE.calls": (tr.calls("indicator.exact_SE"), "count"),
        "indicator.exact_SE.self_s": (tr.self_s("indicator.exact_SE"), "s"),
        "experiments.run_appendix.self_s": (tr.self_s("experiments.run_appendix"), "s"),
        "experiments.rows_per_s": (
            ratio(tr.counters.get("experiments.rows", 0), tr.total_s("experiments.run_appendix")), "1/s"),
        "experiments.thread_speedup": (
            ratio(run.counters.get("sweep_s_one", 0), run.counters.get("sweep_s_many", 0)), "ratio"),
        "experiments.emit_csv.self_s": (tr.self_s("experiments.emit_csv"), "s"),
        "experiments.csv_bytes": (int(run.counters.get("csv_bytes", 0)), "B"),
        "cli.import_s": (import_s, "s"),
        "cli.subprocess_s": (float(np.median(run.cli_s)) if run.cli_s else 0.0, "s"),
        "trace.ops_per_s": (ops_per_s, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    make_inputs, run_round = WORKLOADS[args.workload]
    pool = make_inputs(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import oracles  # noqa: F401  (scipy: the benchmark's own cost, kept out of set-up)
    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    run = Run()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        run_round(run, pool[r % POOL], args.seed)
        r += 1
    ops_per_s = run.ops / run.busy_s
    if tr is not None:
        tr.restore()
        tr.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tr, run, IMPORT_S, ops_per_s)
    else:
        p50, p90 = np.percentile(run.cp_ms, [50, 90])
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "cp_p50_ms": {"value": float(p50), "unit": "ms"},
            "cp_p90_ms": {"value": float(p90), "unit": "ms"},
        }
    print(json.dumps({
        "correct": run.bad_checks == 0,
        "attempted": run.ops,
        "failed": run.failed,
        "rounds": r,
        "cp_calls": len(run.cp_ms),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
