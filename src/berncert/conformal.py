"""Training-conditional conformal prediction for real-valued nonconformity scores.

p-values and significance comparisons use exact rational arithmetic: the
interesting boundary cases (p = 1/3 against epsilon = 1/3) are knife edges
that floating point would silently flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .binom import SeededStream, binom_cdf, check_prob


def as_fraction(x) -> Fraction:
    """Exact rational view of a probability-like input (Fraction, int, float, str)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)  # float -> exact binary rational


class NonconformityMeasure:
    """Score function with the training set fixed at construction."""

    def score(self, point) -> float:
        raise NotImplementedError

    def score_many(self, points) -> np.ndarray:
        return np.asarray([self.score(p) for p in points], dtype=float)


class IndicatorINM(NonconformityMeasure):
    """Indicator nonconformity: 1 on the target set, 0 elsewhere.

    Reduces conformal scores to Bernoulli trials; `target_prob`, when known,
    enables exact inner-coverage computation instead of test sampling.
    """

    def __init__(self, in_target: Callable[[object], bool], target_prob: float | None = None):
        self._in_target = in_target
        self.target_prob = None if target_prob is None else check_prob(target_prob, "target_prob")

    def score(self, point) -> float:
        return 1.0 if self._in_target(point) else 0.0


@dataclass(frozen=True)
class CalibrationScores:
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.scores) == 0:
            raise ValueError("calibration set must be nonempty")

    @property
    def n(self) -> int:
        return len(self.scores)


def p_value(cal: CalibrationScores, candidate_score: float) -> Fraction:
    """(|{i : R_i >= R^z}| + 1) / (N + 1), exact."""
    count = sum(1 for r in cal.scores if r >= candidate_score)
    return Fraction(count + 1, cal.n + 1)


def inp_contains(cal: CalibrationScores, candidate_score: float, epsilon) -> bool:
    """Membership in the predicted set: p-value strictly greater than epsilon."""
    eps = as_fraction(epsilon)
    if not (0 <= eps <= 1):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return p_value(cal, candidate_score) > eps


def score_rank_threshold(epsilon, n: int) -> int:
    """Largest J with (J + 1)/(n + 1) <= epsilon, i.e. floor(epsilon*(n+1) - 1)."""
    return math.floor(as_fraction(epsilon) * (n + 1) - 1)


@dataclass(frozen=True)
class PacParams:
    epsilon: Fraction
    coverage_E: float
    n: int

    def __post_init__(self):
        eps = as_fraction(self.epsilon)
        if not (0 <= eps <= 1):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        check_prob(self.coverage_E, "coverage_E")
        if int(self.n) < 1:
            raise ValueError(f"calibration size must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def J(self) -> int:
        return score_rank_threshold(self.epsilon, self.n)


@dataclass(frozen=True)
class PacBound:
    delta: float
    confidence: float
    params: PacParams


def theorem1_bound(params: PacParams) -> PacBound:
    """delta = Bin_{N,E}(J); confidence = 1 - delta.

    J = -1 (tiny epsilon) gives delta = 0: the predictor never excludes
    anything at that threshold, so the guarantee is vacuous.
    """
    j = params.J
    delta = 0.0 if j < 0 else binom_cdf(params.n, params.coverage_E, j)
    return PacBound(delta=delta, confidence=1.0 - delta, params=params)


@dataclass
class GuaranteeReport:
    h_hat: float
    bound: PacBound
    decomposition: dict[str, float]
    n_cal: int
    n_test: int


def estimate_SE_probability(
    inm: NonconformityMeasure,
    sampler: Callable[[np.random.Generator, int], Sequence],
    params: PacParams,
    n_cal: int,
    n_test: int,
    stream: SeededStream,
) -> GuaranteeReport:
    """Monte Carlo estimate of the probability that the predictor attains
    inner coverage >= 1 - E.

    Each calibration replicate i draws a fresh calibration set; the inner
    coverage g_i is estimated from n_test fresh draws, or computed exactly
    when `inm` is an indicator with known target probability.  Replicates use
    derived substreams, so results are independent of evaluation order.
    """
    n_cal, n_test = int(n_cal), int(n_test)
    if n_cal < 1 or n_test < 1:
        raise ValueError("n_cal and n_test must be >= 1")
    bound = theorem1_bound(params)
    eps = params.epsilon
    one_minus_E = 1.0 - params.coverage_E
    exact_inner = isinstance(inm, IndicatorINM) and inm.target_prob is not None
    # a score-0 candidate has p-value 1, so the set includes it iff 1 > epsilon
    zero_in = eps < 1

    covered = 0
    decomposition: dict[str, float] = {}
    for i in range(n_cal):
        rng = stream.substream(i).rng()
        cal_points = sampler(rng, params.n)
        cal = CalibrationScores(tuple(inm.score_many(cal_points)))
        binary = set(cal.scores) <= {0.0, 1.0}
        if binary:
            full_space = inp_contains(cal, 1.0, eps)  # score 1 is in, hence score 0 too
        if exact_inner and binary:
            if not zero_in:
                g_i = 0.0  # epsilon = 1: the set is empty
            else:
                g_i = 1.0 if full_space else 1.0 - inm.target_prob
        else:
            test_scores = inm.score_many(sampler(rng, n_test))
            sorted_cal = np.sort(cal.scores)
            # count of calibration scores >= candidate, via sorted position
            counts = cal.n - np.searchsorted(sorted_cal, test_scores, side="left")
            include = np.array(
                [Fraction(c + 1, cal.n + 1) > eps for c in range(cal.n + 1)]
            )
            g_i = float(include[counts].mean())
        is_covered = g_i >= one_minus_E
        covered += is_covered
        if binary:
            if not zero_in:
                key = "empty"
            elif full_space:
                key = "full_space"
            else:
                key = "q_complement_covering" if is_covered else "q_complement_missing"
        else:
            key = "covering" if is_covered else "not_covering"
        decomposition[key] = decomposition.get(key, 0) + 1
    decomposition = {k: v / n_cal for k, v in decomposition.items()}
    return GuaranteeReport(
        h_hat=covered / n_cal,
        bound=bound,
        decomposition=decomposition,
        n_cal=n_cal,
        n_test=n_test,
    )
