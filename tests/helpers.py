"""Estimators, samplers and references that only the tests use."""

import math
from bisect import bisect_left, bisect_right

from berncert.binom import check_int
from berncert.intervals import IntervalEstimate, _range_probability


class FullInterval:
    """Trivial estimator returning [0, 1] for every outcome."""

    def __init__(self, n: int, alpha: float = 0.0):
        self.n = check_int(n, "n", 1)
        self.alpha = alpha

    def interval(self, y: int) -> IntervalEstimate:
        y = check_int(y, "y", 0, self.n)
        return IntervalEstimate(lower=0.0, upper=1.0, alpha=self.alpha, n=self.n, y=y)


def indicator_sampler(b: float):
    """Point sampler over {0, 1} matching an indicator measure with P(Q) = b."""

    def sample(rng, count):
        return (rng.random(count) < b).astype(int)

    return sample


def piecewise_coverage_infimum(estimator, n: int) -> tuple[float, float]:
    """(worst_b, worst_coverage) as the verdict once computed them: both
    one-sided limits at the ends of every piece between consecutive distinct
    endpoints, the first least one kept.  A float reference, made of the
    same `_range_probability` calls, for the bits of the verdict."""
    ivs = [estimator.interval(y) for y in range(n + 1)]
    lowers = [iv.lower for iv in ivs]
    uppers = [iv.upper for iv in ivs]
    breaks = sorted({0.0, 1.0, *lowers, *uppers})
    worst_b, worst_cov = 0.0, 2.0
    for c, d in zip(breaks, breaks[1:]):
        lo = bisect_left(uppers, d)  # first y with upper_y >= d
        hi = bisect_right(lowers, c) - 1  # last y with lower_y <= c
        for end, inside in ((c, d), (d, c)):
            cov = _range_probability(n, end, lo, hi)
            if cov < worst_cov:
                worst_b, worst_cov = math.nextafter(end, inside), cov
    return worst_b, worst_cov
