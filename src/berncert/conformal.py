"""Training-conditional conformal prediction for real-valued nonconformity scores.

Membership in the predicted set is decided in integers: a candidate is in
the set iff more than J calibration scores are at least its own, with J
from `score_rank_threshold` in exact rationals.  The interesting boundary
cases (p = 1/3 against epsilon = 1/3) are knife edges that floating point
would silently flip.  `PacParams` owns the coverage event: exact inner
coverage is decided by `complement_covers`, and every finite test by
`complement_miss_limit` (at most h* test points missed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

# binom_cdf is not called: perfbench's tracer wraps it here (tests/test_tracer.py)
from .binom import N_MAX, SeededStream, _cdf_sf, binom_cdf, check_epsilon, check_int, check_prob

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
    A known `target_prob` makes `estimate_SE_probability` use the exact
    inner coverage and draw only the count of replicates that predict the
    full space (`indicator_coverage_event`), with no points sampled.
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


def _rank(cal: CalibrationScores, candidate_score: float) -> int:
    """The count of calibration scores at least the candidate's, |{i : R_i >= R^z}|."""
    return sum(1 for r in cal.scores if r >= candidate_score)


def p_value(cal: CalibrationScores, candidate_score: float) -> Fraction:
    """(|{i : R_i >= R^z}| + 1) / (N + 1), exact."""
    return Fraction(_rank(cal, candidate_score) + 1, cal.n + 1)


def inp_contains(cal: CalibrationScores, candidate_score: float, epsilon) -> bool:
    """Membership in the predicted set: p-value strictly greater than
    epsilon.  For the integer count c = |{i : R_i >= R^z}|, (c + 1)/(N + 1) >
    epsilon iff c > epsilon*(N + 1) - 1 iff c > J, so no p-value is formed."""
    return _rank(cal, candidate_score) > score_rank_threshold(epsilon, cal.n)


def score_rank_threshold(epsilon, n: int) -> int:
    """Largest J with (J + 1)/(n + 1) <= epsilon, i.e. floor(epsilon*(n+1) - 1)."""
    return math.floor(check_epsilon(epsilon) * (check_int(n, "n", 1) + 1) - 1)


# epsilon: Fraction; coverage_E: float; n: int; J: int, derived from epsilon and n
class PacParams(namedtuple("PacParams", "epsilon coverage_E n J")):
    __slots__ = ()

    def __new__(cls, epsilon, coverage_E: float, n: int):
        epsilon = check_epsilon(epsilon)
        coverage_E = check_prob(coverage_E, "coverage_E")
        n = check_int(n, "calibration size", 1, N_MAX)
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

    def complement_miss_limit(self, n_test: int) -> int:
        """h*: the largest count h of n_test test points outside a predicted
        set (for the complement, those in the target set) with which it still
        covers.  Every finite test asks this; it is the sweep's
        `1.0 - h / n_test >= 1.0 - E` in floating point.

        The test is monotone in h (1.0 - h / n_test cannot grow with h), so
        its passing counts are 0..h*: h = 0 always passes, and h = n_test + 1
        never does.  The walk starts at int(E * n_test), which lies within a
        rounding or two of h*, so it takes a few steps for any n_test far
        below 2**53."""
        n_test = check_int(n_test, "n_test", 1)
        one_minus_E = 1.0 - self.coverage_E
        h = int(self.coverage_E * n_test)
        while not 1.0 - h / n_test >= one_minus_E:
            h -= 1
        while 1.0 - (h + 1) / n_test >= one_minus_E:
            h += 1
        return h


# delta, confidence: floats; params: PacParams
PacBound = namedtuple("PacBound", "delta confidence params")


def theorem1_bound(params: PacParams) -> PacBound:
    """delta = Bin_{N,E}(J); confidence = 1 - delta = Pr(Y > J).

    Both come from one tail sum: the confidence is the kernel's own
    complement of delta, not 1.0 - delta, so it keeps its relative accuracy
    where delta is near 1 (at N = 151, epsilon = 2/3, E = 0.0609... it is
    about 2.6e-84, where 1.0 - delta reads 0.0).

    J = -1 (tiny epsilon) gives delta = 0: the predictor never excludes
    anything at that threshold, so the guarantee is vacuous.
    """
    delta, confidence, _, _ = _cdf_sf(params.n, params.coverage_E, params.J)
    return PacBound(delta=delta, confidence=confidence, params=params)


# h_hat: float; bound: PacBound; decomposition: dict of str to float; n_cal, n_test: ints
GuaranteeReport = namedtuple("GuaranteeReport", "h_hat bound decomposition n_cal n_test")


# elements of one chunk's score matrix in `estimate_SE_probability`; a
# constant, so that seeded results depend on the inputs alone
_CHUNK_ELEMENTS = 1 << 16


def _decomposition(
    inm: NonconformityMeasure, params: PacParams, n_cal: int, full: int, covered: int
) -> dict[str, float]:
    """Shares of the n_cal replicates by predicted set for indicator scores,
    whose full space always covers, so that the `full` are among the
    `covered`; by coverage alone for any other measure."""
    if not isinstance(inm, IndicatorINM):
        counts = {"covering": covered, "not_covering": n_cal - covered}
    elif params.J >= params.n:
        counts = {"empty": n_cal}
    else:
        counts = {
            "full_space": full,
            "q_complement_covering": covered - full,
            "q_complement_missing": n_cal - covered,
        }
    return {key: count / n_cal for key, count in counts.items() if count}


def indicator_coverage_event(
    params: PacParams,
    b: float,
    n_cal: int,
    rng: np.random.Generator,
    n_test: int | None = None,
) -> tuple[int, int]:
    """Monte Carlo coverage event for indicator scores with known
    P(score = 1) = b, over n_cal replicates, each with a calibration
    ones-count ~ Bin(N, b).

    The predicted set is the full space when the count exceeds J, the
    complement of the target set otherwise, and empty when J >= N
    (epsilon = 1), the complement of a target set of measure 1.  The
    complement's inner coverage is 1 - b, tested as b <= E
    (`complement_covers`).  When `n_test` is given it is estimated from
    Bin(n_test, b) misses among n_test test points, and the complement
    covers iff the misses are at most h* (`complement_miss_limit`).  Returns
    the counts of replicates that predict the full space and that cover,
    (full, covered); the full space always covers.

    The replicates fall independently into three classes, full space,
    covering complement and missing complement, so their counts are
    multinomial, and each count is one binomial draw from the kernel's
    exact probabilities: full ~ Bin(n_cal, Pr(Bin(N, b) > J)), and with
    n_test given, covered - full ~ Bin(n_cal - full, Pr(Bin(n_test, b) <= h*)).
    """
    b = check_prob(b, "b")
    n_cal = check_int(n_cal, "n_cal", 1, N_MAX)
    n_test = None if n_test is None else check_int(n_test, "n_test", 1, N_MAX)
    J = params.J
    if J >= params.n:
        return 0, (n_cal if params.complement_covers(1.0) else 0)
    full = int(rng.binomial(n_cal, _cdf_sf(params.n, b, J)[1]))
    if n_test is None:
        covered = n_cal if params.complement_covers(b) else full
    else:
        h_star = params.complement_miss_limit(n_test)
        covered = full + int(rng.binomial(n_cal - full, _cdf_sf(n_test, b, h_star)[0]))
    return full, covered


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

    An indicator with known target probability takes the exact inner
    coverage and one binomial draw of the replicates that predict the full
    space (`indicator_coverage_event`), and never calls `sampler`.  Any
    other measure scores sampled points, in chunks of replicates: one
    (m x N) calibration matrix and one (m x n_test) test matrix per chunk.
    A test point is a hit when its score is at or below `score_threshold`
    (a NaN score never is), and a replicate covers iff its misses are at
    most h* (`PacParams.complement_miss_limit`), the one finite-test rule,
    which the sweep's `monte_carlo` mode uses too.  Chunk k draws from
    `stream.substream(k)`.
    """
    import numpy as np

    n_cal, n_test = check_int(n_cal, "n_cal", 1), check_int(n_test, "n_test", 1)
    bound = theorem1_bound(params)
    if isinstance(inm, IndicatorINM) and inm.target_prob is not None:
        full, covered = indicator_coverage_event(params, inm.target_prob, n_cal, stream.rng())
    else:
        n, J = params.n, params.J
        min_hits = n_test - params.complement_miss_limit(n_test)
        rows = max(1, _CHUNK_ELEMENTS // max(n, n_test))
        covered = full = 0
        for k, start in enumerate(range(0, n_cal, rows)):
            m = min(rows, n_cal - start)
            rng = stream.substream(k).rng()
            tau = score_threshold(inm.score_many(sampler(rng, m * n)).reshape(m, n), J)
            test = inm.score_many(sampler(rng, m * n_test)).reshape(m, n_test)
            hits = np.count_nonzero(test <= tau[:, None], axis=1)
            covered += int(np.count_nonzero(hits >= min_hits))
            full += int(np.count_nonzero(tau >= 1.0))
    decomposition = _decomposition(inm, params, n_cal, full, covered)
    return GuaranteeReport(covered / n_cal, bound, decomposition, n_cal, n_test)
