"""Reference computations made without berncert.

Clopper-Pearson endpoints are beta quantiles from scipy; coverage sums are
exact `Fraction`/`math.comb` arithmetic; coverage-event probabilities are
closed forms and scipy binomial or beta-binomial tails.  Monte Carlo
estimates are judged by the exact binomial tail of the observed count.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special, stats

# Two-sided level of the statistical checks.  5 sigma (5.7e-7 per check) would
# be crossed by chance about once in every 10^6 checks, and the benchmark's
# runs make a few 10^5 of them, so the gate is the exact binomial tail at
# 1e-12 (about 7.1 sigma).  A bias of a few percent still fails at once.
STAT_LEVEL = 1e-12

# binom_tail_invert bisects to an absolute width of 1e-12 around the root
CP_TOL = 1e-12


def cp_endpoints(n: int, y: int, alpha: float) -> tuple[float, float]:
    """Clopper-Pearson as beta quantiles: B(alpha/2; y, n-y+1), B(1-alpha/2; y+1, n-y)."""
    lower = 0.0 if y == 0 else float(special.betaincinv(y, n - y + 1, alpha / 2))
    upper = 1.0 if y == n else float(special.betaincinv(y + 1, n - y, 1 - alpha / 2))
    return lower, upper


def cp_error(n: int, y: int, alpha: float, lower: float, upper: float) -> tuple[float, bool]:
    """Largest absolute endpoint error, and whether both endpoints lie within
    CP_TOL plus a few ulps of float rounding of the oracle's."""
    ref_lo, ref_up = cp_endpoints(n, y, alpha)
    err_lo, err_up = abs(lower - ref_lo), abs(upper - ref_up)
    ok = err_lo <= CP_TOL + 4 * math.ulp(ref_lo) and err_up <= CP_TOL + 4 * math.ulp(ref_up)
    return max(err_lo, err_up), ok


def covering_set(endpoints: list[tuple[float, float]], b: float) -> frozenset[int]:
    return frozenset(y for y, (lo, up) in enumerate(endpoints) if lo <= b <= up)


def exact_coverage(n: int, covering: frozenset[int], b: float) -> float:
    """Pr(Y in covering) for Y ~ Bin(n, b), in exact rational arithmetic."""
    bf = Fraction(b)
    total = sum(math.comb(n, y) * bf**y * (1 - bf) ** (n - y) for y in covering)
    return float(total)


def conformal_J(epsilon: Fraction, n: int) -> int:
    """Largest J with (J + 1)/(n + 1) <= epsilon."""
    return math.floor(epsilon * (n + 1) - 1)


def prob_fullspace(n: int, b: float, j: int) -> float:
    """Pr(at least J + 1 of n indicator scores are 1): the full-space prediction."""
    return float(sum(math.comb(n, k) * Fraction(b) ** k * (1 - Fraction(b)) ** (n - k)
                     for k in range(max(j + 1, 0), n + 1)))


def inner_cover_prob(n_test: int, b: float, covered) -> float:
    """Pr(covered(X)) for X ~ Bin(n_test, b), where covered(x) reproduces the
    program's floating-point coverage test on x score-1 test points."""
    x = np.arange(n_test + 1)
    ok = covered(x)
    return float(stats.binom.pmf(x[ok], n_test, b).sum())


def continuous_SE_prob(n: int, epsilon: Fraction, coverage_E: float, n_test: int | None) -> float:
    """Coverage-event probability for continuous scores.

    Inner coverage is g ~ Beta(N - J, J + 1).  With exact inner coverage the
    event has probability 1 - Bin_{N,E}(J); with n_test test points the
    included count is Beta-binomial(n_test, N - J, J + 1).
    """
    j = conformal_J(epsilon, n)
    if n_test is None:
        return 1.0 - float(stats.binom.cdf(j, n, coverage_E))
    k = np.arange(n_test + 1)
    ok = k / n_test >= 1.0 - coverage_E
    return float(stats.betabinom.pmf(k[ok], n_test, n - j, j + 1).sum())


def consistent(count: int, trials: int, p: float) -> bool:
    """Is `count` successes in `trials` plausible under Bin(trials, p)?"""
    if p <= 0.0:
        return count == 0
    if p >= 1.0:
        return count == trials
    return (stats.binom.cdf(count, trials, p) >= STAT_LEVEL / 2
            and stats.binom.sf(count - 1, trials, p) >= STAT_LEVEL / 2)
