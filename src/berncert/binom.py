"""Binomial pmf, cdf, survival function and tail inversion in floating point,
plus seeded sampling.

One kernel serves every call.  The pmf is Loader's saddle-point form,
exp(lc) / sqrt(2 pi x (n - x) / n), with lc built from the Stirling-series
error `stirlerr` and the deviance term `bd0` (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000; the algorithm behind R's
`dbinom`), or q^n = exp(n log q) and p^n = exp(n log p) at x = 0 and x = n.
`bd0` and the logs are evaluated in double-double arithmetic, so the
exponent is exact to far below one unit in the last place even where it is
in the hundreds; the pmf keeps a relative error of a few 1e-16 for values
down to 1e-300.

One routine, `_cdf_sf`, gives cdf and survival function.  It sums the tail
from the requested index away from the mode: terms come one at a time from
the ratio recurrence, re-anchored at a saddle-point value every 256 terms,
and the sum stops at the first term below 1e-17 of the partial sum.  The
other value is its complement, taken only across the mode, of a tail of at
most about 1/2, so it loses no relative accuracy.  `binom_pmf_vector` takes
its values from the same recurrence.  Tail inversion is Newton's method on
the log tail, safeguarded by a shrinking bracket.  Its slope needs pmf_n(y),
which is the first term of the tail sum the same step has just taken, or one
ratio step from it, so each step pays for one saddle-point anchor, not two.

The scalar functions compute on Python floats and load no numpy; numpy is
imported only inside the functions that make an array or a random stream.

Three checkers here validate every argument of the package: `check_int`
for counts (integral floats pass), `check_prob` for probabilities in
[0, 1] and `check_level` for levels in (0, 1).  Anything else raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 1..15, rounded
# from 50-digit values; larger k use the five-term series in _stirlerr
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188

# double-double constants: value = _HI + _LO
_LN2_HI, _LN2_LO = 0.6931471805599453, 2.3190468138462996e-17
_THIRD_HI, _THIRD_LO = 0.3333333333333333, 1.850371707708594e-17
_SQRT_HALF = 0.7071067811865476
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
_TWO_PI = 2.0 * math.pi
# below this the ratio x / M in bd0 could overflow
_TINY_MEAN = 1e-290

# the recurrence restarts from a saddle-point value every _CHUNK terms, so
# its rounding compounds over at most this many steps
_CHUNK = 256
# a tail sum stops at the first term below this fraction of the partial sum
_TAIL_STOP = 1e-17
# Newton stops after a step below this fraction of the iterate; convergence
# is quadratic, so the error left is of the order of its square
_NEWTON_RTOL = 1e-11
_NEWTON_MAX_STEPS = 200


def check_int(k, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """Validate that ``k`` is an integer in [lo, hi] and return it as an int.
    Integral floats such as 3.0 pass; 2.5, NaN, inf and strings do not."""
    try:
        i = int(k)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != k or not lo <= i <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {k!r}")
    return i


def check_prob(p: float, name: str = "probability") -> float:
    """Validate that ``p`` lies in [0, 1] and return it as a float."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def check_level(a: float, name: str) -> float:
    """Validate that ``a`` lies strictly inside (0, 1) and return it as a float."""
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {a!r}")
    return a


def _fmt(x: float) -> str:
    """12 significant digits: how the CLI prints and the CSV stores a float."""
    return f"{x:.12g}"


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a * b as an unevaluated sum hi + lo, exact (Dekker)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as hi + lo, exact (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """(ah + al) / (bh + bl) in double-double."""
    q = ah / bh
    ph, pl = _two_prod(q, bh)
    r = (((ah - ph) - pl) + al - q * bl) / bh
    s = q + r
    return s, r - (s - q)


def _log_dd(rh: float, rl: float) -> tuple[float, float]:
    """log(rh + rl) in double-double, for rh > 0.

    r = 2^k m with m in [1/sqrt 2, sqrt 2]; log m = 2 atanh(u) with
    u = (m - 1)/(m + 1), |u| <= 0.172.  The terms 2u and 2u^3/3 are kept in
    double-double; the rest of the series is below 1e-4 of log m.
    """
    m, k = math.frexp(rh)
    if m < _SQRT_HALF:
        m *= 2.0
        k -= 1
    ml = math.ldexp(rl, -k)
    dh, dl = _two_sum(m, 1.0)
    uh, ul = _dd_div(m - 1.0, ml, dh, dl + ml)  # m - 1 is exact
    u2h, u2l = _two_prod(uh, uh)
    u2l += 2.0 * uh * ul
    rest, t, j = 0.0, u2h * u2h, 5.0
    while t > 1e-17 * rest:
        rest += t / j
        t *= u2h
        j += 2.0
    # s = 1 + u^2/3 + rest
    ch, cl = _two_prod(u2h, _THIRD_HI)
    cl += u2h * _THIRD_LO + u2l * _THIRD_HI
    sh = 1.0 + ch
    sl = (ch - (sh - 1.0)) + cl + rest
    # log m = 2u s, plus k log 2
    ph, pl = _two_prod(uh, sh)
    pl += uh * sl + ul * sh
    kh, kl = _two_prod(float(k), _LN2_HI)
    hi, lo = _two_sum(kh, 2.0 * ph)
    return hi, lo + kl + float(k) * _LN2_LO + 2.0 * pl


def _bd0(x: float, mh: float, ml: float) -> tuple[float, float]:
    """Deviance term x log(x/M) + M - x for x >= 1, M = mh + ml > 0, in
    double-double.  It is the exponent's main part, up to about 745 where
    the pmf is still representable, so it must be exact far below one ulp."""
    if mh < _TINY_MEAN:  # x / M would overflow: log x - log M instead
        ah, al = _log_dd(x, 0.0)
        bh, bl = _log_dd(mh, ml)
        lh, ll = _two_sum(ah, -bh)
        ll += al - bl
    else:
        lh, ll = _log_dd(*_dd_div(x, 0.0, mh, ml))
    ph, pl = _two_prod(x, lh)
    s, e = _two_sum(ph, mh)
    hi, e2 = _two_sum(s, -x)
    return hi, e2 + e + pl + x * ll + ml


def _stirlerr(k: float) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for integer k >= 1."""
    if k <= 15.0:
        return _STIRLERR[int(k) - 1]
    kk = k * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _exp_dd(hi: float, lo: float) -> float:
    """exp(hi + lo); lo need not be below one ulp of hi."""
    hi, lo = _two_sum(hi, lo)
    return math.exp(hi) * (1.0 + lo)


def _complement(b: float) -> tuple[float, float]:
    """1 - b as hi + lo, exact."""
    qh = 1.0 - b
    return qh, (1.0 - qh) - b


def _pmf(n: int, x: int, p: float, qh: float, ql: float) -> float:
    """Pr(Y = x) for Y ~ Bin(n, p), 0 < p < 1, q = qh + ql = 1 - p exactly."""
    nf = float(n)
    if x == 0 or x == n:  # q^n or p^n, as exp(n log q) or exp(n log p)
        lh, ll = _log_dd(qh, ql) if x == 0 else _log_dd(p, 0.0)
        eh, el = _two_prod(nf, lh)
        return _exp_dd(eh, el + nf * ll)
    xf = float(x)
    yf = nf - xf
    mh, ml = _two_prod(nf, p)
    ah, al = _bd0(xf, mh, ml)
    mh, ml = _two_prod(nf, qh)
    bh, bl = _bd0(yf, mh, ml + nf * ql)
    lh, ll = _two_sum(-ah, -bh)
    ll += (_stirlerr(nf) - _stirlerr(xf) - _stirlerr(yf)) - al - bl
    return _exp_dd(lh, ll) / math.sqrt(_TWO_PI * xf * yf / nf)


def _mode(n: int, b: float) -> int:
    return min(int((n + 1) * b), n)


def _terms(n: int, p: float, qh: float, ql: float, k: int, step: int, end: int) -> Iterator[float]:
    """Yield pmf(k), pmf(k + step), ..., pmf(end), moving away from the mode
    (step = +1 above it, -1 below it), by the ratio recurrence re-anchored
    at a saddle-point value every `_CHUNK` terms.  Stops early at an anchor
    that underflows: the values past it are smaller still."""
    if step > 0:
        factor = _dd_div(p, 0.0, qh, ql)[0]
    else:
        factor = _dd_div(qh, ql, p, 0.0)[0]
    for k0 in range(k, end + step, step * _CHUNK):
        t = _pmf(n, k0, p, qh, ql)
        if t == 0.0:
            return
        yield t
        # pmf(i + 1) / pmf(i) = (n - i) p / ((i + 1) q) for i = k0, k0 + 1, ...;
        # pmf(i - 1) / pmf(i) = i q / ((n - i + 1) p) for i = k0, k0 - 1, ...
        num, den = (float(n - k0), float(k0 + 1)) if step > 0 else (float(k0), float(n - k0 + 1))
        for _ in range(min(_CHUNK - 1, abs(end - k0))):
            t *= num / den * factor
            num -= 1.0
            den += 1.0
            yield t


def _cdf_sf(n: int, b: float, j: int) -> tuple[float, float, int, float]:
    """(Pr(Y <= j), Pr(Y > j), k, Pr(Y = k)) for Y ~ Bin(n, b); total on
    integers j.  Sums only the tail on the far side of the mode from j
    (module docstring); k is the index of its first term, j below the mode
    and j + 1 above it, and Pr(Y = k) that term, 0.0 where no tail is summed
    or its first term underflows."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    j = check_int(j, "j")
    if j < 0 or j >= n:
        return (0.0, 1.0, j, 0.0) if j < 0 else (1.0, 0.0, j, 0.0)
    if b in (0.0, 1.0):
        return (1.0, 0.0, j, 0.0) if b == 0.0 else (0.0, 1.0, j, 0.0)
    qh, ql = _complement(b)
    lower = j < _mode(n, b)
    k, step, end = (j, -1, 0) if lower else (j + 1, 1, n)
    terms = _terms(n, b, qh, ql, k, step, end)
    # the first term is positive, so it never meets the stopping rule
    first = total = next(terms, 0.0)
    for t in terms:
        total += t
        if t <= _TAIL_STOP * total:
            break
    return (total, 1.0 - total, k, first) if lower else (1.0 - total, total, k, first)


def binom_pmf(n: int, b: float, y: int) -> float:
    """Pr(Y = y) for Y ~ Bin(n, b), by the saddle-point formula."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    y = check_int(y, "y", 0, n)
    if b == 0.0:
        return 1.0 if y == 0 else 0.0
    if b == 1.0:
        return 1.0 if y == n else 0.0
    return _pmf(n, y, b, *_complement(b))


def binom_pmf_vector(n: int, b: float) -> np.ndarray:
    """All pmf values Pr(Y = y) for y = 0..n as a float array, by the ratio
    recurrence outward from the mode."""
    import numpy as np

    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    out = np.zeros(n + 1)
    if b in (0.0, 1.0):
        out[0 if b == 0.0 else n] = 1.0
        return out
    qh, ql = _complement(b)
    mode = _mode(n, b)
    down = list(_terms(n, b, qh, ql, mode, -1, 0))
    up = list(_terms(n, b, qh, ql, mode, 1, n))
    out[mode - len(down) + 1 : mode + 1] = down[::-1]
    out[mode + 1 : mode + len(up)] = up[1:]
    return out


def binom_cdf(n: int, b: float, j: int) -> float:
    """Pr(Y <= j) for Y ~ Bin(n, b); total on integers (j < 0 -> 0, j >= n -> 1)."""
    return _cdf_sf(n, b, j)[0]


def binom_sf(n: int, b: float, j: int) -> float:
    """Pr(Y > j) for Y ~ Bin(n, b); total on integers (j < 0 -> 1, j >= n -> 0)."""
    return _cdf_sf(n, b, j)[1]


def _normal_quantile(t: float) -> float:
    """z with Pr(Z > z) = t for 0 < t <= 1/2, to about 5e-4 (Abramowitz and
    Stegun 26.2.23); only a starting point for Newton's method."""
    s = math.sqrt(-2.0 * math.log(t))
    return s - (2.515517 + 0.802853 * s + 0.010328 * s * s) / (
        1.0 + 1.432788 * s + 0.189269 * s * s + 0.001308 * s * s * s
    )


def _wilson_lower(n: int, y: int, z: float) -> float:
    """Lower Wilson score bound y^2 / (n (y + z^2/2 + z s)), free of cancellation."""
    s = math.sqrt(y * (n - y) / n + z * z / 4.0)
    return y * y / (n * (y + z * z / 2.0 + z * s))


def binom_tail_invert(n: int, y: int, target: float, side: str) -> float:
    """Solve a binomial tail equation for the success probability b.

    side="upper" returns the b with Pr(Y <= y) = target; side="lower" the b
    with Pr(Y >= y) = target.  These are the beta quantiles
    B(1 - target; y + 1, n - y) and B(target; y, n - y + 1).  Degenerate
    cases with no root in (0, 1) return the boundary value 0 or 1.

    Newton's method runs on the log tail as a function of log b (lower) or
    log(1 - b) (upper).  Both are concave, as the beta densities involved
    are log-concave, so after at most one overshoot the iterates approach
    the root from one side.  The derivative of the tail in b is
    -n pmf_{n-1}(y) (upper) or n pmf_{n-1}(y - 1) (lower), and
    n pmf_{n-1}(y) (1 - b) = (n - y) pmf_n(y), n pmf_{n-1}(y - 1) b =
    y pmf_n(y); so the slopes of the log tail are (n - y) pmf_n(y) / tail
    and y pmf_n(y) / tail.  pmf_n(y) is the first term of the tail sum
    `_cdf_sf` has just taken, or is one ratio step from it when that sum
    starts at y - 1 or y + 1.  A step that leaves the bracket, which shrinks
    at every step, is replaced by bisection.

    Iteration stops after a step below 1e-11 of b and returns that Newton
    iterate, which may lie an ulp or so on either side of the root: below
    the few-ulp rounding of the tail itself, which cannot place it more
    closely.  It also stops once no double is left strictly inside the
    bracket; the root then lies between two adjacent doubles and only this
    exit returns the end that widens the interval: the upper end for
    side="upper", the lower end for side="lower".
    """
    n = check_int(n, "n", 1)
    y = check_int(y, "y", 0, n)
    target = check_level(target, "target")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    upper = side == "upper"
    if upper and y == n:  # Pr(Y <= n) == 1 for every b: no root
        return 1.0
    if not upper and y == 0:  # Pr(Y >= 0) == 1 for every b: no root
        return 0.0

    z = _normal_quantile(target) if target < 0.5 else 0.0
    b = 1.0 - _wilson_lower(n, n - y, z) if upper else _wilson_lower(n, y, z)
    b = min(max(b, 1e-300), 1.0 - 2.0**-53)
    log_target = math.log(target)
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        cdf, sf, k, pk = _cdf_sf(n, b, y if upper else y - 1)
        tail = cdf if upper else sf
        # pmf_n(y) from the tail sum's first term pk = pmf_n(k), k in {y - 1, y, y + 1};
        # left to right, so that a subnormal b cannot make the ratio overflow
        if k > y:
            pk = pk * (y + 1) * (1.0 - b) / ((n - y) * b)
        elif k < y:
            pk = pk * (n - y + 1) * b / (y * (1.0 - b))
        # d log tail / d log(1 - b) (upper) or d log b (lower)
        slope = pk * (n - y if upper else y) / tail if tail > 0.0 else 0.0
        h = math.log(tail) - log_target if tail > 0.0 else -math.inf
        if h == 0.0:
            return b
        if (h > 0.0) == upper:
            lo = b
        else:
            hi = b
        if hi <= math.nextafter(lo, 1.0):  # no double left inside the bracket
            return hi if upper else lo
        if slope > 0.0:
            newton = -math.expm1(math.log1p(-b) - h / slope) if upper else b * math.exp(-h / slope)
            if abs(newton - b) <= _NEWTON_RTOL * b and lo <= newton <= hi:
                return newton
            b = newton if lo < newton < hi else 0.5 * (lo + hi)
        else:
            b = 0.5 * (lo + hi)
    raise ArithmeticError(f"binom_tail_invert({n}, {y}, {target}, {side!r}) did not converge")


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit words."""
    x = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class SeededStream:
    """Value-semantics random stream: (master_seed, stream_id) fully determines it.

    Substreams are derived by mixing the stream id, so parallel consumers get
    independent streams regardless of evaluation order.
    """

    master_seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed & _MASK64, self.stream_id & _MASK64])
        )

    def substream(self, child_id: int) -> "SeededStream":
        return SeededStream(self.master_seed, _mix64(self.stream_id, child_id))


def draw_bernoulli(stream: SeededStream, b: float, count: int) -> np.ndarray:
    """i.i.d. 0/1 draws with success probability b."""
    b = check_prob(b, "b")
    count = check_int(count, "count", 0)
    return (stream.rng().random(count) < b).astype("int64")
