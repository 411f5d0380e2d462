"""Experiment harness: coverage-event sweep over an E-grid plus a toy
discrete-time safety-certification demo.  Emits analysis-ready CSV rows."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

from .binom import SeededStream, _fmt, check_epsilon, check_int, check_level, check_prob
from .conformal import PacBound, PacParams, indicator_coverage_event, theorem1_bound
from .indicator import PredictionSetKind, exact_SE_probability, inp_closed_form
from .intervals import IntervalEstimate, clopper_pearson

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

MODES = ("monte_carlo", "exact_inner", "fully_exact")


@dataclass(frozen=True)
class AppendixConfig:
    q_min: int = 0
    q_max: int = 98
    alpha_frac: float = 0.005
    epsilon: Fraction = Fraction(2, 3)
    n_cal: int = 50_000
    n_test: int = 50_000
    n_calibration_size: int = 2
    master_seed: int = 0
    mode: str = "exact_inner"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "q_min", check_int(self.q_min, "q_min", 0))
        object.__setattr__(self, "q_max", check_int(self.q_max, "q_max", self.q_min))
        for name in ("n_cal", "n_test", "n_calibration_size"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "alpha_frac", check_prob(self.alpha_frac, "alpha_frac"))
        for q in (self.q_min, self.q_max):
            check_level(self.E_of(q), f"E at q = {q}")
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))

    @staticmethod
    def E_of(q: int) -> float:
        return 0.01 + 0.01 * q

    def regimes_of(self, q: int) -> list[tuple[str, float, float]]:
        """(regime label, E, b) pairs: b below and above E by alpha_frac."""
        E = self.E_of(q)
        b_le = E * (1.0 - self.alpha_frac)
        b_gt = min(E * (1.0 + self.alpha_frac), 1.0)
        return [("b_le_E", E, b_le), ("b_gt_E", E, b_gt)]


@dataclass(frozen=True)
class ExperimentRow:
    q: int
    E: float
    b: float
    regime: str
    mode: str
    h_hat: float
    exact_prob_SE: float
    bound_Esq: float
    frac_fullspace: float
    frac_qbar_covering: float
    n_cal: int
    n_test: int
    seed: int


CSV_FIELDS = tuple(field.name for field in fields(ExperimentRow))
CSV_HEADER = ",".join(CSV_FIELDS)


def _run_row(config: AppendixConfig, q: int, regime_idx: int) -> ExperimentRow:
    regime, E, b = config.regimes_of(q)[regime_idx]
    exact = exact_SE_probability(b, config.n_calibration_size, config.epsilon, E)
    if config.mode == "fully_exact":
        h_hat = exact.prob_SE
        frac_full = exact.prob_fullspace
        frac_qbar = exact.prob_qbar_covering
    else:
        rng = SeededStream(config.master_seed).substream(2 * q + regime_idx).rng()
        n_test = config.n_test if config.mode == "monte_carlo" else None
        h_hat, parts = indicator_coverage_event(exact.bound.params, b, config.n_cal, rng, n_test)
        frac_full = parts.get("full_space", 0.0)
        frac_qbar = parts.get("q_complement_covering", 0.0)

    return ExperimentRow(
        q=q,
        E=E,
        b=b,
        regime=regime,
        mode=config.mode,
        h_hat=h_hat,
        exact_prob_SE=exact.prob_SE,
        bound_Esq=exact.bound.confidence,
        frac_fullspace=frac_full,
        frac_qbar_covering=frac_qbar,
        n_cal=config.n_cal,
        n_test=config.n_test,
        seed=config.master_seed,
    )


def _worker_count() -> int:
    env = os.environ.get("BERN_CERT_THREADS")
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_appendix(config: AppendixConfig) -> list[ExperimentRow]:
    """One row per (q, regime); deterministic per master seed, independent of
    worker count since every row owns a derived substream."""
    tasks = [(q, r) for q in range(config.q_min, config.q_max + 1) for r in range(2)]
    workers = min(_worker_count(), len(tasks))
    if workers > 1 and config.mode != "fully_exact":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda t: _run_row(config, *t), tasks))
    else:
        rows = [_run_row(config, q, r) for q, r in tasks]
    return rows


def emit_csv(rows: list[ExperimentRow], path) -> None:
    """Byte-stable CSV: fixed 12-significant-digit formatting, LF endings."""
    if not rows:
        raise ValueError("rows must be nonempty")
    lines = [CSV_HEADER]
    for r in rows:
        cells = (getattr(r, name) for name in CSV_FIELDS)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


@dataclass(frozen=True)
class ToySafetySystem:
    """Deterministic discrete-time system with a boolean unsafe predicate.

    `step` and `unsafe` operate on state arrays; a trajectory is unsafe if it
    touches the unsafe set at any step 0..horizon."""

    step: Callable[[np.ndarray], np.ndarray]
    horizon: int
    unsafe: Callable[[np.ndarray], np.ndarray]
    sample_initial: Callable[[np.random.Generator, int], np.ndarray]


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


@dataclass
class SafetyDemoReport:
    n_cal: int
    n_unsafe: int
    interval: IntervalEstimate
    prediction: PredictionSetKind
    pac_bound: PacBound
    note: str


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
