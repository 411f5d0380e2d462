"""Experiment harness: coverage-event sweep over an E-grid plus a toy
discrete-time safety-certification demo.  Emits analysis-ready CSV rows."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .binom import N_MAX, SeededStream, _fmt, check_epsilon, check_int, check_level, check_prob
from .conformal import PacParams, _coverage_counts, theorem1_bound
# exact_SE_probability is not called: perfbench's tracer wraps it here (tests/test_tracer.py)
from .indicator import exact_SE_probability, inp_closed_form
from .intervals import clopper_pearson

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    import numpy as np

MODES = ("monte_carlo", "exact_inner", "fully_exact")


# q_min, q_max: ints; alpha_frac: float; epsilon: Fraction; n_cal, n_test,
# n_calibration_size, master_seed: ints; mode: one of MODES
class AppendixConfig(
    namedtuple(
        "AppendixConfig",
        "q_min q_max alpha_frac epsilon n_cal n_test n_calibration_size master_seed mode",
        defaults=(0, 98, 0.005, Fraction(2, 3), 50_000, 50_000, 2, 0, "exact_inner"),
    )
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raw = super().__new__(cls, *args, **kwargs)  # binds the arguments, defaults included
        if raw.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {raw.mode!r}")
        q_min = check_int(raw.q_min, "q_min", 0)
        q_max = check_int(raw.q_max, "q_max", q_min)
        n_cal = check_int(raw.n_cal, "n_cal", 1, N_MAX)
        n_test = check_int(raw.n_test, "n_test", 1, N_MAX)
        n_calibration_size = check_int(raw.n_calibration_size, "n_calibration_size", 1, N_MAX)
        master_seed = check_int(raw.master_seed, "master_seed")
        alpha_frac = check_prob(raw.alpha_frac, "alpha_frac")
        for q in (q_min, q_max):
            check_level(cls.E_of(q), f"E at q = {q}")
        epsilon = check_epsilon(raw.epsilon)
        if epsilon == 1:  # J >= N: every row would predict the empty set
            raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
        return super().__new__(
            cls, q_min, q_max, alpha_frac, epsilon, n_cal, n_test, n_calibration_size, master_seed, raw.mode
        )

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @staticmethod
    def E_of(q: int) -> float:
        return 0.01 + 0.01 * q

    def regimes_of(self, q: int) -> list[tuple[str, float, float]]:
        """(regime label, E, b) pairs: b below and above E by alpha_frac."""
        E = self.E_of(q)
        b_le = E * (1.0 - self.alpha_frac)
        b_gt = min(E * (1.0 + self.alpha_frac), 1.0)
        return [("b_le_E", E, b_le), ("b_gt_E", E, b_gt)]


# q: int; E, b: floats; regime, mode: strs; h_hat, exact_prob_SE, bound_Esq,
# frac_fullspace, frac_qbar_covering: floats; n_cal, n_test, seed: ints;
# target: float, what h_hat estimates, and not a CSV column
ExperimentRow = namedtuple(
    "ExperimentRow",
    "q E b regime mode h_hat exact_prob_SE bound_Esq frac_fullspace frac_qbar_covering n_cal n_test seed target",
)
CSV_FIELDS = ExperimentRow._fields[:-1]
CSV_HEADER = ",".join(CSV_FIELDS)


def _run_row(config: AppendixConfig, q: int, regime_idx: int) -> ExperimentRow:
    """One row from one set of the coverage event's shares at b
    (`PacParams.indicator_shares`), so each tail is summed once.  Its target
    is the event's probability: exact_prob_SE in the exact modes, and in
    monte_carlo mode the finite-test `monte_carlo_SE_probability`."""
    regime, E, b = config.regimes_of(q)[regime_idx]
    params = PacParams(config.epsilon, E, config.n_calibration_size)
    n_test = config.n_test if config.mode == "monte_carlo" else None
    full, complement, covers = params.indicator_shares(b, n_test)
    target = full + complement * covers
    exact_prob_SE = target if n_test is None else full + complement * float(params.complement_covers(b))
    if config.mode == "fully_exact":
        h_hat, frac_full, frac_qbar = target, full, complement * covers
    else:
        rng = SeededStream(config.master_seed).substream(2 * q + regime_idx).random()
        full_count, covered = _coverage_counts(rng, config.n_cal, full, covers)
        h_hat, frac_full, frac_qbar = (k / config.n_cal for k in (covered, full_count, covered - full_count))
    return ExperimentRow(
        q=q, E=E, b=b, regime=regime, mode=config.mode, h_hat=h_hat, exact_prob_SE=exact_prob_SE,
        bound_Esq=theorem1_bound(params).confidence, frac_fullspace=frac_full, frac_qbar_covering=frac_qbar,
        n_cal=config.n_cal, n_test=config.n_test, seed=config.master_seed, target=target,
    )


def run_appendix(config: AppendixConfig) -> list[ExperimentRow]:
    """One row per (q, regime), in order; deterministic per master seed,
    since every row draws from its own derived substream.  A row is a few
    kernel sums and at most two binomial draws from the standard library's
    generator (`SeededStream.random()`), all pure Python, so the rows run one
    after another on the calling thread, load no numpy, and are the same on
    every Python release."""
    return [_run_row(config, q, r) for q in range(config.q_min, config.q_max + 1) for r in range(2)]


def emit_csv(rows: list[ExperimentRow], path) -> None:
    """Byte-stable CSV: fixed 12-significant-digit formatting, LF endings."""
    if not rows:
        raise ValueError("rows must be nonempty")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in r[: len(CSV_FIELDS)]))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


# step, unsafe: array -> array; horizon: int; sample_initial: (Generator, count) -> array
class ToySafetySystem(namedtuple("ToySafetySystem", "step horizon unsafe sample_initial")):
    """Deterministic discrete-time system with a boolean unsafe predicate.

    `step` and `unsafe` operate on state arrays; a trajectory is unsafe if it
    touches the unsafe set at any step 0..horizon."""

    __slots__ = ()

    def __new__(cls, step, horizon: int, unsafe, sample_initial):
        return super().__new__(cls, step, check_int(horizon, "horizon", 0), unsafe, sample_initial)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def linear_contraction_system(
    rate: float = 0.9,
    threshold: float = 1.0,
    init_low: float = -2.0,
    init_high: float = 2.0,
    horizon: int = 50,
) -> ToySafetySystem:
    """Scalar map x <- rate*x with unsafe set {|x| > threshold} and uniform
    initial states.  With the defaults the contraction never enters the
    unsafe set after step 0, so the unsafe probability is exactly 1/2."""
    import numpy as np

    return ToySafetySystem(
        step=lambda x: rate * x,
        horizon=horizon,
        unsafe=lambda x: np.abs(x) > threshold,
        sample_initial=lambda rng, count: rng.uniform(init_low, init_high, size=count),
    )


def rollout_unsafe(system: ToySafetySystem, x0: np.ndarray) -> np.ndarray:
    """Boolean mask: trajectory from each initial state enters the unsafe set."""
    import numpy as np

    x = np.asarray(x0, dtype=float)
    hit = system.unsafe(x)
    for _ in range(system.horizon):
        x = system.step(x)
        hit = hit | system.unsafe(x)
    return hit


# n_cal, n_unsafe: ints; interval: IntervalEstimate; prediction: PredictionSetKind;
# pac_bound: PacBound; note: str
SafetyDemoReport = namedtuple("SafetyDemoReport", "n_cal n_unsafe interval prediction pac_bound note")


def run_safety_demo(
    system: ToySafetySystem,
    n_cal: int,
    alpha: float,
    epsilon,
    coverage_E: float,
    stream: SeededStream,
) -> SafetyDemoReport:
    """Indicator scores from sampled trajectories, certified two ways.

    The interval estimate is the correct certificate for the unsafe
    probability; the conformal side reports the realized prediction and its
    coverage-event bound, which says nothing about the parameter itself."""
    n_cal = check_int(n_cal, "n_cal", 1)
    rng = stream.rng()
    x0 = system.sample_initial(rng, n_cal)
    scores = rollout_unsafe(system, x0).astype(int)
    y = int(scores.sum())
    interval = clopper_pearson(n_cal, y, alpha)
    prediction = inp_closed_form(n_cal, y, epsilon)
    bound = theorem1_bound(PacParams(epsilon=epsilon, coverage_E=coverage_E, n=n_cal))
    return SafetyDemoReport(
        n_cal=n_cal,
        n_unsafe=y,
        interval=interval,
        prediction=prediction,
        pac_bound=bound,
        note=(
            "the interval is a confidence interval for the unsafe probability; "
            "the conformal prediction-set bound is not, and must not be read as one"
        ),
    )
