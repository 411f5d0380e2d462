"""Training-conditional conformal prediction for real-valued nonconformity scores.

p-values and significance comparisons use exact rational arithmetic: the
interesting boundary cases (p = 1/3 against epsilon = 1/3) are knife edges
that floating point would silently flip.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .binom import SeededStream, binom_cdf, check_epsilon, check_int, check_prob

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

    import numpy as np


class NonconformityMeasure:
    """Scores whole arrays of points; the training set is fixed at construction."""

    def score_many(self, points) -> np.ndarray:
        raise NotImplementedError


class IndicatorINM(NonconformityMeasure):
    """Indicator nonconformity: 1 on the target set, 0 elsewhere.

    Reduces conformal scores to Bernoulli trials.  `in_target` gets a whole
    array of points at once, so it must act elementwise (``z == 1`` does).
    A known `target_prob` makes `estimate_SE_probability` draw calibration
    ones-counts and use the exact inner coverage, with no points sampled.
    """

    def __init__(self, in_target: Callable[[np.ndarray], np.ndarray], target_prob: float | None = None):
        self._in_target = in_target
        self.target_prob = None if target_prob is None else check_prob(target_prob, "target_prob")

    def score_many(self, points) -> np.ndarray:
        import numpy as np

        return np.asarray(self._in_target(np.asarray(points)), dtype=float)


# scores: tuple of floats, at least one
class CalibrationScores(namedtuple("CalibrationScores", "scores")):
    __slots__ = ()

    def __new__(cls, scores):
        check_int(len(scores), "calibration size", 1)
        return super().__new__(cls, scores)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the size too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.scores)


def p_value(cal: CalibrationScores, candidate_score: float) -> Fraction:
    """(|{i : R_i >= R^z}| + 1) / (N + 1), exact."""
    count = sum(1 for r in cal.scores if r >= candidate_score)
    return Fraction(count + 1, cal.n + 1)


def inp_contains(cal: CalibrationScores, candidate_score: float, epsilon) -> bool:
    """Membership in the predicted set: p-value strictly greater than epsilon."""
    return p_value(cal, candidate_score) > check_epsilon(epsilon)


def score_rank_threshold(epsilon, n: int) -> int:
    """Largest J with (J + 1)/(n + 1) <= epsilon, i.e. floor(epsilon*(n+1) - 1)."""
    return math.floor(check_epsilon(epsilon) * (check_int(n, "n", 1) + 1) - 1)


# epsilon: Fraction; coverage_E: float; n: int; J: int, derived from epsilon and n
class PacParams(namedtuple("PacParams", "epsilon coverage_E n J")):
    __slots__ = ()

    def __new__(cls, epsilon, coverage_E: float, n: int):
        epsilon = check_epsilon(epsilon)
        coverage_E = check_prob(coverage_E, "coverage_E")
        n = check_int(n, "calibration size", 1)
        return super().__new__(cls, epsilon, coverage_E, n, score_rank_threshold(epsilon, n))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks, and recomputes J
        epsilon, coverage_E, n, *_ = iterable
        return cls(epsilon, coverage_E, n)

    def __getnewargs__(self):  # copy and pickle call __new__, which derives J
        return self[:3]

    def complement_covers(self, b: float) -> bool:
        """Does the complement of a target set of measure b, whose inner
        coverage is 1 - b, attain coverage >= 1 - E?

        Tested as b <= E, which compares the doubles exactly.  The float
        form `1.0 - b >= 1.0 - E` rounds 1.0 - b and so holds for some b > E:
        b = nextafter(0.3, 1) with E = 0.3, or any b and E below 5e-17,
        where both sides are 1.0."""
        return b <= self.coverage_E


# delta, confidence: floats; params: PacParams
PacBound = namedtuple("PacBound", "delta confidence params")


def theorem1_bound(params: PacParams) -> PacBound:
    """delta = Bin_{N,E}(J); confidence = 1 - delta.

    J = -1 (tiny epsilon) gives delta = 0: the predictor never excludes
    anything at that threshold, so the guarantee is vacuous.
    """
    delta = binom_cdf(params.n, params.coverage_E, params.J)
    return PacBound(delta=delta, confidence=1.0 - delta, params=params)


# h_hat: float; bound: PacBound; decomposition: dict of str to float; n_cal, n_test: ints
GuaranteeReport = namedtuple("GuaranteeReport", "h_hat bound decomposition n_cal n_test")


# elements of one chunk's score matrix in `estimate_SE_probability`; a
# constant, so that seeded results depend on the inputs alone
_CHUNK_ELEMENTS = 1 << 16


def _shares(counts: dict[str, int], total: int) -> dict[str, float]:
    return {key: count / total for key, count in counts.items() if count}


def _indicator_shares(n_cal: int, full: int, covered: int) -> dict[str, float]:
    """Decomposition by predicted set for indicator scores; the full space
    always covers, so the `full` replicates are among the `covered`."""
    counts = {
        "full_space": full,
        "q_complement_covering": covered - full,
        "q_complement_missing": n_cal - covered,
    }
    return _shares(counts, n_cal)


def indicator_coverage_event(
    params: PacParams,
    b: float,
    n_cal: int,
    rng: np.random.Generator,
    n_test: int | None = None,
) -> tuple[float, dict[str, float]]:
    """Monte Carlo coverage event for indicator scores with known
    P(score = 1) = b, from n_cal calibration ones-counts ~ Bin(N, b).

    The predicted set is the full space when the count exceeds J, the
    complement of the target set otherwise, and empty when J >= N
    (epsilon = 1).  The complement's inner coverage is 1 - b, or
    1 - Bin(n_test, b)/n_test when `n_test` is given.  Returns h_hat and its
    decomposition by predicted set.
    """
    import numpy as np

    b, n_cal = check_prob(b, "b"), check_int(n_cal, "n_cal", 1)
    n_test = None if n_test is None else check_int(n_test, "n_test", 1)
    J = params.J
    if J >= params.n:
        return (1.0 if params.coverage_E >= 1.0 else 0.0), {"empty": 1.0}
    full = int(np.count_nonzero(rng.binomial(params.n, b, size=n_cal) > J))
    if n_test is None:
        covered = n_cal if params.complement_covers(b) else full
    else:
        hits = rng.binomial(n_test, b, size=n_cal - full)
        covered = full + int(np.count_nonzero(1.0 - hits / n_test >= 1.0 - params.coverage_E))
    return covered / n_cal, _indicator_shares(n_cal, full, covered)


def score_threshold(scores: np.ndarray, J: int) -> np.ndarray:
    """For each row of calibration scores, the largest score in the predicted
    set: the (J + 1)-th largest calibration score, +inf when J < 0 and -inf
    when J >= N.  A candidate is in the set iff its score is <= this, which
    is the exact test of `inp_contains`."""
    import numpy as np

    n = scores.shape[1]
    if J < 0:
        return np.full(len(scores), np.inf)
    if J >= n:
        return np.full(len(scores), -np.inf)
    return np.partition(scores, n - 1 - J, axis=1)[:, n - 1 - J]


def estimate_SE_probability(
    inm: NonconformityMeasure,
    sampler: Callable[[np.random.Generator, int], Sequence],
    params: PacParams,
    n_cal: int,
    n_test: int,
    stream: SeededStream,
) -> GuaranteeReport:
    """Monte Carlo estimate of the probability that the predictor attains
    inner coverage >= 1 - E, over n_cal calibration replicates.

    An indicator with known target probability takes calibration ones-counts
    and exact inner coverage (`indicator_coverage_event`) and never calls
    `sampler`.  Any other measure scores sampled points, in chunks of
    replicates: one (m x N) calibration matrix and one (m x n_test) test
    matrix per chunk, with inner coverage the share of test scores at or
    below `score_threshold`.  Chunk k draws from `stream.substream(k)`.
    """
    import numpy as np

    n_cal, n_test = check_int(n_cal, "n_cal", 1), check_int(n_test, "n_test", 1)
    bound = theorem1_bound(params)
    if isinstance(inm, IndicatorINM) and inm.target_prob is not None:
        h_hat, decomposition = indicator_coverage_event(params, inm.target_prob, n_cal, stream.rng())
        return GuaranteeReport(h_hat, bound, decomposition, n_cal, n_test)
    n, J = params.n, params.J
    one_minus_E = 1.0 - params.coverage_E
    rows = max(1, _CHUNK_ELEMENTS // max(n, n_test))
    covered = full = 0
    for k, start in enumerate(range(0, n_cal, rows)):
        m = min(rows, n_cal - start)
        rng = stream.substream(k).rng()
        tau = score_threshold(inm.score_many(sampler(rng, m * n)).reshape(m, n), J)
        test = inm.score_many(sampler(rng, m * n_test)).reshape(m, n_test)
        covered += int(np.count_nonzero(np.mean(test <= tau[:, None], axis=1) >= one_minus_E))
        full += int(np.count_nonzero(tau >= 1.0))
    if not isinstance(inm, IndicatorINM):
        decomposition = _shares({"covering": covered, "not_covering": n_cal - covered}, n_cal)
    elif J >= n:
        decomposition = {"empty": 1.0}
    else:
        decomposition = _indicator_shares(n_cal, full, covered)
    return GuaranteeReport(covered / n_cal, bound, decomposition, n_cal, n_test)
