"""Estimators and samplers that only the tests use."""

from berncert.binom import check_int
from berncert.intervals import IntervalEstimate


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
