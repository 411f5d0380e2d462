"""Closed-form analysis of the indicator special case.

With indicator scores the predicted set is one of three symbolic kinds; only
the measure b of the target set matters, so everything here is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

# binom_cdf is not called: perfbench's tracer wraps it here (tests/test_tracer.py)
from .binom import binom_cdf, check_int, check_prob
from .conformal import PacParams, score_rank_threshold, theorem1_bound


class PredictionSetKind(Enum):
    Q_COMPLEMENT = "Q_complement"
    FULL_SPACE = "full_space"
    EMPTY = "empty"


class ClaimNeverIssuedError(ValueError):
    """The conditional coverage of the naive interval rule is undefined:
    the claim is impossible, as b = 1 or J < 0."""


def inp_closed_form(n: int, ones_count: int, epsilon) -> PredictionSetKind:
    """Predicted set as a function of the number of score-1 calibration points.

    Score-0 candidates have p = 1 and are included whenever epsilon < 1;
    score-1 candidates have p = (ones_count + 1)/(n + 1).
    """
    n = check_int(n, "n", 1)
    ones_count = check_int(ones_count, "ones_count", 0, n)
    J = score_rank_threshold(epsilon, n)
    if J >= n:
        return PredictionSetKind.EMPTY
    if ones_count > J:
        return PredictionSetKind.FULL_SPACE
    return PredictionSetKind.Q_COMPLEMENT


# prob_SE, prob_fullspace, prob_qbar_covering: floats; bound: PacBound
ExactSEResult = namedtuple("ExactSEResult", "prob_SE prob_fullspace prob_qbar_covering bound")


def _closed_form_params(epsilon, coverage_E: float, n: int) -> PacParams:
    """PacParams for the closed forms, which need a predicted set that is
    never empty: J < N, i.e. epsilon < 1."""
    params = PacParams(epsilon=epsilon, coverage_E=coverage_E, n=n)
    if params.J >= params.n:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    return params


def exact_SE_probability(b: float, n: int, epsilon, coverage_E: float) -> ExactSEResult:
    """Exact probability that the realized predictor, calibrated on n points
    whose target set Q has probability b, attains coverage >= 1 - E.

    Inner coverage is 1 for the full space and 1 - b for the complement
    prediction, so the event holds always when b <= E and exactly when the
    full space is predicted when b > E: full + complement * covers over
    `PacParams.indicator_shares(b)`, where covers is 1.0 or 0.0.
    """
    params = _closed_form_params(epsilon, coverage_E, n)
    full, complement, covers = params.indicator_shares(b)
    return ExactSEResult(
        prob_SE=full + complement * covers,
        prob_fullspace=full,
        prob_qbar_covering=complement * covers,
        bound=theorem1_bound(params),
    )


def monte_carlo_SE_probability(b: float, n: int, epsilon, coverage_E: float, n_test: int) -> float:
    """The probability that a `monte_carlo` replicate of the sweep lands in
    the coverage event, which its h_hat estimates:
    Pr(Y > J) + Pr(Y <= J) * Pr(Bin(n_test, b) <= h*), Y ~ Bin(n, b), over
    `PacParams.indicator_shares(b, n_test)`.

    The complement's inner coverage is estimated from n_test test points,
    and it covers iff at most h* of them fall in the target set
    (`PacParams.complement_miss_limit`), so this is not `exact_SE_probability`.
    """
    full, complement, covers = _closed_form_params(epsilon, coverage_E, n).indicator_shares(b, n_test)
    return full + complement * covers


# label: str; probability: float; prediction: PredictionSetKind; inner_coverage: float; in_SE: bool
Example1Case = namedtuple("Example1Case", "label probability prediction inner_coverage in_SE")

# cases: tuple of Example1Case; prob_SE: float
Example1Table = namedtuple("Example1Table", "cases prob_SE")


def enumerate_example1(b: float, epsilon, coverage_E: float) -> Example1Table:
    """Full case table for calibration size 2: outcome classes with
    probabilities (1-b)^2, 2b(1-b), b^2, the realized prediction under
    epsilon, each class's inner coverage, and membership in the coverage
    event.  Aggregates to the same value as the closed form."""
    b = check_prob(b, "b")
    params = _closed_form_params(epsilon, coverage_E, 2)
    classes = [
        ("no calibration point in Q", (1.0 - b) ** 2, 0),
        ("one calibration point in Q", 2.0 * b * (1.0 - b), 1),
        ("both calibration points in Q", b**2, 2),
    ]
    cases = []
    for label, prob, ones in classes:
        pred = inp_closed_form(2, ones, params.epsilon)
        full = pred is PredictionSetKind.FULL_SPACE
        cases.append(
            Example1Case(
                label=label,
                probability=prob,
                prediction=pred,
                inner_coverage=1.0 if full else 1.0 - b,
                in_SE=full or params.complement_covers(b),
            )
        )
    prob_SE = math.fsum(c.probability for c in cases if c.in_SE)
    return Example1Table(cases=tuple(cases), prob_SE=min(prob_SE, 1.0))


# conditional_coverage, claim_rate: floats
NaiveIntervalReport = namedtuple("NaiveIntervalReport", "conditional_coverage claim_rate")


def naive_interval_coverage(b: float, coverage_E: float, n: int, epsilon) -> NaiveIntervalReport:
    """Conditional coverage of the fallacious rule "whenever the predictor
    returns the complement of Q, claim b <= E", and its claim rate.

    `conditional_coverage` is the coverage given that the claim is issued.
    It is 1 (b <= E) or 0 (b > E), so by its conditional coverage the rule
    is not a confidence procedure for b at any nominal level.  Its
    unconditional coverage, which also counts the outcomes with no claim, is
    another quantity and is not computed here: read as the one-sided
    estimator [0, u(y)], u(y) = E for y <= J and 1 otherwise, it is
    `exact_SE_probability`'s prob_SE at b, and its infimum over b is
    Theorem 1's 1 - delta, approached just above E.

    `claim_rate`, Pr(Y <= J), can underflow to 0.0 while positive; the claim
    is then still issued, and its conditional coverage is returned.
    """
    b = check_prob(b, "b")
    params = _closed_form_params(epsilon, coverage_E, n)
    _, claim_rate, covers = params.indicator_shares(b)
    if b == 1.0 or params.J < 0:
        raise ClaimNeverIssuedError(
            f"the complement prediction is never issued for b={b}, n={params.n}, epsilon={epsilon}"
        )
    return NaiveIntervalReport(conditional_coverage=covers, claim_rate=claim_rate)

