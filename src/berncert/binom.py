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
down to 1e-300.  The anchor is straight-line code: each Dekker product,
Knuth sum and double-double quotient is written out in place, with the
splits of the constants made once at import, and it gives the same bits as
the form with one call per step that the tests keep as a reference.

Every sum of pmf values is one loop, `_tail`: pmf(k) + ... + pmf(last),
from k away from the mode, by the ratio recurrence re-anchored at a
saddle-point value every 256 terms, stopped at the first term below 1e-17
of the partial sum.  `_cdf_sf` sums the tail on the far side of the mode
from j and takes the other value as its complement, of a tail of at most
about 1/2, so it loses no relative accuracy.  `_range_probability` sums a
run on one side of the mode once, and takes a run across it as 1 minus
the two tails outside it.  The public functions check the arguments;
`_cdf_sf`, `_range_probability` and `_tail` trust them.

`binom_tail_invert` solves a tail equation for b.  Where the tail has a
closed-form root (y = 0, 1, n - 1 or n) or two terms (`_two_term_end`),
it returns that root with no tail sum.  Elsewhere it is three parts, each
documented where it is defined: `_start`, the first iterate; `_iterate`,
Halley's method on the log tail, whose tails after the first sum are moved
where a stated bound admits it; and `_finish`, a walk on anchored tails to a
collapsed bracket.

The scalar functions compute on Python floats and load no numpy; numpy is
imported only inside the functions that make an array or a numpy random
stream.

Four checkers here validate every argument of the package: `check_int`
for counts (integral floats pass), `check_prob` for probabilities in
[0, 1], `check_level` for levels in (0, 1) and `check_epsilon` for exact
significance levels in [0, 1].  Anything else raises ValueError.  A trial
count n of the kernel is at most `N_MAX` = 2^53, past which n - 1 rounds
to n as a float.
"""

from __future__ import annotations

import math
from collections import namedtuple

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    import random
    from fractions import Fraction

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
# Veltkamp halves of _THIRD_HI and _LN2_HI, for Dekker's products with them
_THIRD_HI_H = _SPLIT * _THIRD_HI - (_SPLIT * _THIRD_HI - _THIRD_HI)
_THIRD_HI_L = _THIRD_HI - _THIRD_HI_H
_LN2_HI_H = _SPLIT * _LN2_HI - (_SPLIT * _LN2_HI - _LN2_HI)
_LN2_HI_L = _LN2_HI - _LN2_HI_H
_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)
# 1/5, 1/7, ..., 1/25: the atanh series of _log_dd past its double-double terms
_A5, _A7, _A9, _A11, _A13, _A15, _A17, _A19, _A21, _A23, _A25 = (1.0 / j for j in range(5, 27, 2))
# below this the ratio x / M in bd0 could overflow
_TINY_MEAN = 1e-290

# the recurrence restarts from a saddle-point value every _CHUNK terms, so
# its rounding compounds over at most this many steps
_CHUNK = 256
# a tail sum stops at the first term below this fraction of the partial sum
_TAIL_STOP = 1e-17
# the inversion stops after a step whose predicted remainder, the error it
# leaves, is below this fraction of the iterate (at most an eighth of an ulp)
_HALLEY_STOP = 2.0**-56
_NEWTON_MAX_STEPS = 200
# below this target Paulson's start is poor or has no root, and a Wilson score
# bound takes its place
_PAULSON_MIN_TARGET = 1e-6
# every iterate lies between the doubles next to 0 and 1, so a root past either
# lies in a bracket with no double inside, which the inversion exits at once
_B_MIN = math.ulp(0.0)
_B_MAX = 1.0 - 2.0**-53
# the two-term solve stops after a step below this fraction of c and of 1 - c;
# Newton's steps converge quadratically, so the error left is of the order of its square
_TWO_TERM_RTOL = 1e-8
_TWO_TERM_MAX_STEPS = 20
# `_log_dd`'s error is at most this fraction of log m, m its argument's mantissa
# in [1/sqrt 2, sqrt 2], plus 2^-100 of the log (`_two_term_end` states why)
_LOG_DD_RTOL = 2.0**-61
_LOG_SQRT2 = 0.5 * math.log(2.0)  # the largest |log m|
# below this c, log(1 - c) is its series -c - c^2/2 - c^3/3 (`_two_term_end`)
_SERIES_MAX = 2.0**-26
# |log(tail / target)| at most _FLOOR_H is the rounding floor: a few ulps could
# flip the sign of h there, so only a tail that took its own anchor, as the
# public tail functions do, may set a bracket end at the floor, and a moved
# tail may not; an iterate that lands there after the first ends the inversion
# only through the floor walk to a collapsed bracket, the one finish also of a
# converged step rounded past the bracket or taken at a subnormal target
_FLOOR_H = 1e-13
# the floor walk bisects after this many steps of one double, or from a stalled tail (`_finish`)
_WALK_STEPS = 8
# `_moved_tail` admits a move where the relative moves of b and 1 - b sum to
# at most _MOVE_UV, max |a| |L| and |a1 - a0| |L| are at most _MOVE_AL and
# _MOVE_DAL, a the log derivative of pmf_n(y) and L the move in the log
# variable, and the tail's change to first order is at most _MOVE_TAIL of the
# tail; the inversion's loop checks the bounds of _MOVE_AL and _MOVE_TAIL first
_MOVE_UV = 2.0**-7
_MOVE_AL = 2.0**-6
_MOVE_DAL = 2.0**-15
_MOVE_TAIL = 2.0**-6
# the inner nodes of the 4-point Gauss-Lobatto rule on [0, 1], (1 -+ 1/sqrt 5) / 2
_LOBATTO_1 = 0.5 - 0.5 / math.sqrt(5.0)
_LOBATTO_2 = 0.5 + 0.5 / math.sqrt(5.0)
# below this |x|, (x - log1p(x)) / x^2 is its series (`_q2_root`)
_Q2_SERIES_MAX = 2.0**-10
# `_q2_root` stops after a Newton step in log c below this
_Q2_RTOL = 1e-12
_NORMAL_MIN = 2.0**-1022  # the smallest normal double
# the largest trial count: past 2^53, n - 1 rounds to n as a float, and the
# kernel's float counts (the pmf's n - x, the two-term root's n - 1) go wrong
N_MAX = 2**53


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


def _real(x) -> float:
    """x as a float, or NaN where x is not a real number: strings and bytes
    are text, not numbers, although float() parses them."""
    if isinstance(x, (str, bytes)):
        return math.nan
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_prob(p: float, name: str = "probability") -> float:
    """Validate that ``p`` lies in [0, 1] and return it as a float."""
    x = p if type(p) is float else _real(p)  # the kernel passes floats: no call
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return x


def check_level(a: float, name: str) -> float:
    """Validate that ``a`` lies strictly inside (0, 1) and return it as a float."""
    x = a if type(a) is float else _real(a)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {a!r}")
    return x


def check_epsilon(epsilon) -> Fraction:
    """Validate a significance level in [0, 1] and return it as an exact
    Fraction.  Text is refused here too, although Fraction() parses it.
    `fractions` (and its `decimal`) is imported here, not with the module:
    `bpci` needs neither."""
    from fractions import Fraction

    try:
        eps = epsilon if type(epsilon) is Fraction else Fraction(epsilon)  # callers keep Fractions
    except (TypeError, ValueError, OverflowError):
        eps = None
    if eps is None or isinstance(epsilon, (str, bytes)) or not 0 <= eps <= 1:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return eps


def _fmt(x: float) -> str:
    """12 significant digits: how the CLI prints and the CSV stores a float."""
    return f"{x:.12g}"


# The double-double routines write each exact step out in place, as a call
# costs more than the few flops it would wrap.  Dekker's product a * b = p + e
# splits a = ah + al by ah = t - (t - a) with t = _SPLIT * a, and b alike, then
# e = ((ah * bh - p) + ah * bl + al * bh) + al * bl; Knuth's sum a + b = s + e
# has bb = s - a, e = (a - (s - bb)) + (b - bb); a double-double quotient is
# q = ah / bh plus (((ah - p) - e) + al - q * bl) / bh, with p + e = q * bh.


def _log_dd(rh: float, rl: float) -> tuple[float, float]:
    """log(rh + rl) in double-double, for rh > 0.

    r = 2^k m with m in [1/sqrt 2, sqrt 2]; log m = 2 atanh(u) with
    u = (m - 1)/(m + 1), |u| <= 0.172.  The terms 2u and 2u^3/3 are kept in
    double-double; the rest of the series, below 1e-4 of log m, is one
    fixed Horner polynomial in u^2 from u^5/5 to u^25/25 (times 2), since at
    |u| <= 0.172 the first term left out, u^27/27, is below 3e-18 of u^5/5.

    The pair is not normalized: the series past 2u^3/3 goes into the low
    part, which reached 1.8e-4 of the high part over 2e5 draws, near
    m = 1/sqrt 2.  A caller that needs the high part as a double, the log
    rounded, renormalizes the pair first, by one Fast2Sum.
    """
    m, k = math.frexp(rh)
    if m < _SQRT_HALF:
        m *= 2.0
        k -= 1
    ml = math.ldexp(rl, -k)
    # m + 1 = dh + dl (Knuth), then u = (m - 1 + ml) / (dh + dl + ml); m - 1 is exact
    dh = m + 1.0
    bb = dh - m
    dl = (m - (dh - bb)) + (1.0 - bb)
    m -= 1.0
    q = m / dh
    p = q * dh
    qh = (t := _SPLIT * q) - (t - q)
    ql = q - qh
    bh = (t := _SPLIT * dh) - (t - dh)
    bl = dh - bh
    e = ((qh * bh - p) + qh * bl + ql * bh) + ql * bl
    r = (((m - p) - e) + ml - q * (dl + ml)) / dh
    uh = q + r
    ul = r - (uh - q)
    # u^2 (Dekker)
    u2h = uh * uh
    ah = (t := _SPLIT * uh) - (t - uh)
    al = uh - ah
    u2l = (((ah * ah - u2h) + ah * al + al * ah) + al * al) + 2.0 * uh * ul
    # rest = u^4/5 + u^6/7 + ... + u^24/25 by Horner's rule in u^2
    rest = u2h * u2h * (_A5 + u2h * (_A7 + u2h * (_A9 + u2h * (_A11 + u2h * (_A13 + u2h * (
        _A15 + u2h * (_A17 + u2h * (_A19 + u2h * (_A21 + u2h * (_A23 + u2h * _A25))))))))))
    # s = 1 + u^2/3 + rest, with u^2 * _THIRD_HI by Dekker
    ch = u2h * _THIRD_HI
    vh = (t := _SPLIT * u2h) - (t - u2h)
    vl = u2h - vh
    cl = ((vh * _THIRD_HI_H - ch) + vh * _THIRD_HI_L + vl * _THIRD_HI_H) + vl * _THIRD_HI_L
    cl += u2h * _THIRD_LO + u2l * _THIRD_HI
    sh = 1.0 + ch
    sl = (ch - (sh - 1.0)) + cl + rest
    # log m = 2u s (Dekker's u * sh), plus k log 2 (Dekker's k * _LN2_HI and Knuth's sum)
    ph = uh * sh
    bh = (t := _SPLIT * sh) - (t - sh)
    bl = sh - bh
    pl = (((ah * bh - ph) + ah * bl + al * bh) + al * bl) + (uh * sl + ul * sh)
    kf = float(k)
    kh = kf * _LN2_HI
    bh = (t := _SPLIT * kf) - (t - kf)
    bl = kf - bh
    kl = ((bh * _LN2_HI_H - kh) + bh * _LN2_HI_L + bl * _LN2_HI_H) + bl * _LN2_HI_L
    ph *= 2.0
    hi = kh + ph
    bb = hi - kh
    lo = (kh - (hi - bb)) + (ph - bb)
    return hi, lo + kl + kf * _LN2_LO + 2.0 * pl


def _bd0(x: float, mh: float, ml: float) -> tuple[float, float]:
    """Deviance term x log(x/M) + M - x for x >= 1, M = mh + ml > 0, in
    double-double.  It is the exponent's main part, up to about 745 where
    the pmf is still representable, so it must be exact far below one ulp."""
    if mh < _TINY_MEAN:  # x / M would overflow: log x - log M instead
        ah, al = _log_dd(x, 0.0)
        bh, bl = _log_dd(mh, ml)
        lh = ah - bh
        bb = lh - ah
        ll = ((ah - (lh - bb)) + (-bh - bb)) + (al - bl)
    else:  # x / M in double-double; its low dividend part is 0
        q = x / mh
        p = q * mh
        qh = (t := _SPLIT * q) - (t - q)
        ql = q - qh
        bh = (t := _SPLIT * mh) - (t - mh)
        bl = mh - bh
        r = (((x - p) - (((qh * bh - p) + qh * bl + ql * bh) + ql * bl)) - q * ml) / mh
        lh = q + r
        lh, ll = _log_dd(lh, r - (lh - q))
    # x log(x/M) (Dekker), then + M (Knuth) and - x (Knuth)
    ph = x * lh
    ah = (t := _SPLIT * x) - (t - x)
    al = x - ah
    bh = (t := _SPLIT * lh) - (t - lh)
    bl = lh - bh
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    s = ph + mh
    bb = s - ph
    e = (ph - (s - bb)) + (mh - bb)
    hi = s - x
    bb = hi - s
    return hi, (s - (hi - bb)) + (-x - bb) + e + pl + x * ll + ml


def _stirlerr(k: float) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for integer k >= 1."""
    if k <= 15.0:
        return _STIRLERR[int(k) - 1]
    kk = k * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _complement(b: float) -> tuple[float, float]:
    """1 - b as hi + lo, exact."""
    qh = 1.0 - b
    return qh, (1.0 - qh) - b


def _pmf(n: int, x: int, p: float, qh: float, ql: float) -> float:
    """Pr(Y = x) for Y ~ Bin(n, p), 0 < p < 1, q = qh + ql = 1 - p exactly."""
    nf = float(n)
    nh = (t := _SPLIT * nf) - (t - nf)  # n's Veltkamp halves, for each Dekker product with n
    nl = nf - nh
    if x == 0 or x == n:  # q^n or p^n, as exp(n log q) or exp(n log p)
        lh, ll = _log_dd(qh, ql) if x == 0 else _log_dd(p, 0.0)
        eh = nf * lh
        bh = (t := _SPLIT * lh) - (t - lh)
        bl = lh - bh
        el = (((nh * bh - eh) + nh * bl + nl * bh) + nl * bl) + nf * ll
        # exp(eh + el), el made the low part of a Knuth sum first
        s = eh + el
        bb = s - eh
        return math.exp(s) * (1.0 + ((eh - (s - bb)) + (el - bb)))
    xf = float(x)
    yf = nf - xf
    # bd0 at the means M = n p and n q, each made exact by Dekker
    mh = nf * p
    bh = (t := _SPLIT * p) - (t - p)
    bl = p - bh
    ah, al = _bd0(xf, mh, ((nh * bh - mh) + nh * bl + nl * bh) + nl * bl)
    mh = nf * qh
    bh = (t := _SPLIT * qh) - (t - qh)
    bl = qh - bh
    bh, bl = _bd0(yf, mh, (((nh * bh - mh) + nh * bl + nl * bh) + nl * bl) + nf * ql)
    # exp(-bd0(x) - bd0(y) + stirlerr terms), the sum kept by Knuth
    lh = -ah - bh
    bb = lh + ah
    ll = (-ah - (lh - bb)) + (-bh - bb)
    ll += (_stirlerr(nf) - _stirlerr(xf) - _stirlerr(yf)) - al - bl
    s = lh + ll
    bb = s - lh
    return math.exp(s) * (1.0 + ((lh - (s - bb)) + (ll - bb))) / math.sqrt(_TWO_PI * xf * yf / nf)


def _mode(n: int, b: float) -> int:
    return min(int((n + 1) * b), n)


def _tail(n: int, p: float, qh: float, ql: float, k: int, last: int) -> tuple[float, float]:
    """(sum, pmf(k)) of pmf(k) + ... + pmf(last), from k toward `last`, away
    from the mode, by the ratio recurrence re-anchored at a saddle-point value
    every `_CHUNK` terms.  The sum stops after the first term at most
    `_TAIL_STOP` times the partial sum, at `last`, or at an anchor that
    underflows (pmf(k) is then 0.0): the values past it are smaller still."""
    step = 1 if last >= k else -1
    # the ratio p / q above the mode, q / p below it: the high part of a double-double quotient
    ah, al, dh, dl = (p, 0.0, qh, ql) if step > 0 else (qh, ql, p, 0.0)
    f = ah / dh
    g = f * dh
    fh = (t := _SPLIT * f) - (t - f)
    fl = f - fh
    bh = (t := _SPLIT * dh) - (t - dh)
    bl = dh - bh
    e = ((fh * bh - g) + fh * bl + fl * bh) + fl * bl
    factor = f + ((((ah - g) - e) + al - f * dl) / dh)
    stop = _TAIL_STOP  # a local: the inner loop reads it every term
    total = first = 0.0
    for k0 in range(k, last + step, step * _CHUNK):
        t = _pmf(n, k0, p, qh, ql)
        if t == 0.0:
            break
        if k0 == k:
            first = t
        # pmf(i + 1) / pmf(i) = (n - i) p / ((i + 1) q) for i = k0, k0 + 1, ...;
        # pmf(i - 1) / pmf(i) = i q / ((n - i + 1) p) for i = k0, k0 - 1, ...
        num, den = (float(n - k0), float(k0 + 1)) if step > 0 else (float(k0), float(n - k0 + 1))
        for _ in range(min(_CHUNK, abs(last - k0) + 1)):
            total += t
            if t <= stop * total:
                return total, first
            t *= num / den * factor
            num -= 1.0
            den += 1.0
    return total, first


def _cdf_sf(n: int, b: float, j: int) -> tuple[float, float, int, float]:
    """(Pr(Y <= j), Pr(Y > j), k, Pr(Y = k)) for Y ~ Bin(n, b), on checked
    arguments; total on integers j.  Sums only the tail on the far side of
    the mode from j (module docstring); k is the index of its first term, j
    below the mode and j + 1 above it, and Pr(Y = k) that term, 0.0 where no
    tail is summed or its first term underflows."""
    if j < 0 or j >= n:
        return (0.0, 1.0, j, 0.0) if j < 0 else (1.0, 0.0, j, 0.0)
    if b in (0.0, 1.0):
        return (1.0, 0.0, j, 0.0) if b == 0.0 else (0.0, 1.0, j, 0.0)
    qh, ql = _complement(b)
    if j < _mode(n, b):
        total, first = _tail(n, b, qh, ql, j, 0)
        return total, 1.0 - total, j, first
    total, first = _tail(n, b, qh, ql, j + 1, n)
    return 1.0 - total, total, j + 1, first


def _range_probability(n: int, b: float, lo: int, hi: int) -> float:
    """Pr(lo <= Y <= hi) for Y ~ Bin(n, b), on checked arguments, 0.0 where
    lo > hi.  A run wholly on one side of the mode is one tail sum, from its
    end next to the mode to its far end, which keeps its relative accuracy
    deep in a tail and next to the mode alike; a run across the mode is 1
    minus the two tails outside it, each at most about 1/2."""
    if lo > hi:
        return 0.0
    mode = _mode(n, b)
    if lo <= mode <= hi:
        return max(0.0, 1.0 - _cdf_sf(n, b, lo - 1)[0] - _cdf_sf(n, b, hi)[1])
    if b in (0.0, 1.0):  # all mass at the mode, 0 or n
        return 0.0
    qh, ql = _complement(b)
    return _tail(n, b, qh, ql, hi, lo)[0] if hi < mode else _tail(n, b, qh, ql, lo, hi)[0]


def binom_pmf(n: int, b: float, y: int) -> float:
    """Pr(Y = y) for Y ~ Bin(n, b), by the saddle-point formula."""
    n = check_int(n, "n", 1, N_MAX)
    b = check_prob(b, "b")
    y = check_int(y, "y", 0, n)
    if b == 0.0:
        return 1.0 if y == 0 else 0.0
    if b == 1.0:
        return 1.0 if y == n else 0.0
    return _pmf(n, y, b, *_complement(b))


def binom_pmf_vector(n: int, b: float) -> np.ndarray:
    """All pmf values Pr(Y = y) for y = 0..n as a float array, each the bits
    `binom_pmf` gives.  It takes one saddle-point value per y, about 1 s at
    n = 1e5 on one core of an Intel Xeon, where a ratio recurrence outward
    from the mode took milliseconds.  Nothing in the package calls it; it
    stays only because perfbench's tracer looks the name up."""
    import numpy as np

    n = check_int(n, "n", 1, N_MAX)
    b = check_prob(b, "b")
    if b in (0.0, 1.0):
        out = np.zeros(n + 1)
        out[0 if b == 0.0 else n] = 1.0
        return out
    qh, ql = _complement(b)
    return np.array([_pmf(n, y, b, qh, ql) for y in range(n + 1)])


def binom_cdf(n: int, b: float, j: int) -> float:
    """Pr(Y <= j) for Y ~ Bin(n, b); total on integers (j < 0 -> 0, j >= n -> 1)."""
    return _cdf_sf(check_int(n, "n", 1, N_MAX), check_prob(b, "b"), check_int(j, "j"))[0]


def binom_sf(n: int, b: float, j: int) -> float:
    """Pr(Y > j) for Y ~ Bin(n, b); total on integers (j < 0 -> 1, j >= n -> 0)."""
    return _cdf_sf(check_int(n, "n", 1, N_MAX), check_prob(b, "b"), check_int(j, "j"))[1]


def _normal_quantile(t: float) -> float:
    """z with Pr(Z > z) = t for 0 < t <= 1/2, to about 5e-4 (Abramowitz and
    Stegun 26.2.23); only a starting point for the inversion."""
    s = math.sqrt(-2.0 * math.log(t))
    return s - (2.515517 + 0.802853 * s + 0.010328 * s * s) / (
        1.0 + 1.432788 * s + 0.189269 * s * s + 0.001308 * s * s * s
    )


def _paulson_start(n: int, y: int, target: float, upper: bool) -> float:
    """The start of an inversion with beta parameters p, q >= 3 at a target
    of at least `_PAULSON_MIN_TARGET`: its root by Paulson's normal
    approximation to the F quantile.  There the quadratic below has a root:
    its leading coefficient (1 - c2)^2 - z^2 c2 is positive for z^2 < 25 at
    q = 3, and z < 4.8 at targets down to 1e-6.  At q = 2 it has none below
    a target of about 3e-5, and is 7-26% off at Clopper-Pearson levels, so
    `_q2_root` serves q = 2.

    With W ~ Beta(p, q), F = q W / (p (1 - W)) follows F(2p, 2q), and F^(1/3)
    is close to normal (Wilson and Hilferty): Pr(W > w) = t where
    ((1 - c2) F^(1/3) - (1 - c1)) / sqrt(c1 + c2 F^(2/3)) = z, Pr(Z > z) = t,
    c1 = 1 / (9p) and c2 = 1 / (9q); a quadratic in F^(1/3) (E. Paulson, "An
    approximate normalization of the analysis of variance distribution",
    Annals of Math. Stat. 13, 1942).  W is the b of side="upper" with
    (p, q) = (y + 1, n - y), and 1 - b of side="lower" with (n - y + 1, y).
    z is `_normal_quantile` refined by one Newton step on erfc.
    """
    p, q = (y + 1, n - y) if upper else (n - y + 1, y)
    z = _normal_quantile(target)
    z += (0.5 * math.erfc(z * _SQRT_HALF) - target) * _SQRT_TWO_PI * math.exp(0.5 * z * z)
    c1, c2 = 1.0 / (9 * p), 1.0 / (9 * q)
    a1, a2 = 1.0 - c1, 1.0 - c2
    den = a2 * a2 - z * z * c2
    u = (a1 * a2 + z * math.sqrt(a1 * a1 * c2 + a2 * a2 * c1 - z * z * c1 * c2)) / den
    m = q / (p * u * u * u + q)  # 1 - W, free of cancellation where W is near 1
    return 1.0 - m if upper else m


def _wilson_lower(n: int, y: int, z: float) -> float:
    """Lower Wilson score bound y^2 / (n (y + z^2/2 + z s)), free of cancellation."""
    s = math.sqrt(y * (n - y) / n + z * z / 4.0)
    return y * y / (n * (y + z * z / 2.0 + z * s))


def _two_term_root(n: int, log_t: float) -> float:
    """log c for the root c in (0, 1) of (1 - c)^(n - 1) (1 + (n - 1) c) = t,
    for n >= 3 and log t = log_t <= -log 2: the two-term tail Pr(Y <= 1) at
    b = c, and Pr(Y >= n - 1) at b = 1 - c.

    Newton's method in u = log c on g(u) = (n - 1) log(1 - c) + log(1 + (n - 1) c)
    - log t, which decreases and is concave in u.  The start is
    1 - (t / n)^(1 / (n - 1)), the root with 1 + (n - 1) c raised to n; as
    1 + (n - 1) c <= n, g is at most 0 there, so the start lies at or right
    of the root.  A concave g lies below each of its tangents, so Newton's
    step from there, the zero of the tangent, lands where g <= 0, at or
    right of the root again: the iterates fall monotonically to it, and c
    never reaches 1.  Both c = e^u and 1 - c = -expm1(u) keep full relative
    accuracy, so this serves b near 0 and near 1 alike.
    """
    nm = float(n - 1)
    u = math.log1p(-math.exp((log_t - math.log(n)) / nm))
    for _ in range(_TWO_TERM_MAX_STEPS):
        c, q = math.exp(u), -math.expm1(u)
        # log(1 - c) from c where c is small, from 1 - c where it is not
        g = nm * (math.log1p(-c) if c < 0.5 else math.log(q)) + math.log1p(nm * c) - log_t
        # -g / g'(u), with g'(u) = -n (n - 1) c^2 / ((1 - c) (1 + (n - 1) c))
        du = g * q * (1.0 + nm * c) / ((n * c) * (nm * c))
        u += du
        if abs(du) * max(1.0, c / q) <= _TWO_TERM_RTOL:
            return u
    raise ArithmeticError(f"the two-term root at n = {n}, log t = {log_t} did not converge")


def _two_term_end(n: int, target: float, upper: bool, wide_hi: bool) -> float:
    """The end of a two-term inversion: the b of `_two_term_root`'s root c
    (b = c for upper, 1 - c for lower), rounded to the double on its wide
    side, up where `wide_hi` and down where not.  No tail is summed.

    One Newton step refines the double root in v = c, or in v = q = 1 - c
    where c > 1/2, so that v <= 1/2 keeps full relative accuracy.  The
    residual G = (n - 1) log(1 - c) + log(1 + (n - 1) c) - log t is taken at
    v in double-double: its three logs by `_log_dd`, (n - 1) v by Dekker's
    product and the sum by Knuth's.  Below c = 2^-26, log(1 - c) is its
    series -c - c^2/2 - c^3/3 instead: there the low part of 1 - c is up to
    0.3 of c, and `_log_dd` rounds it in doubles, which left errors up to
    0.46 x 2^-53 of c at n from 2^45 to 2^53, against 2e-4 x 2^-53 with the
    series.  v + dv, with dv = -G(v) / G'(v), is the root in double-double.

    Its error E follows from G's.  `_log_dd` is within 2^-61 of log m, m
    its argument's mantissa in [1/sqrt 2, sqrt 2], plus 2^-100 of the log:
    its series past 2u^3/3, below 1.8e-4 of log m, is evaluated in doubles
    (1.26e-3 x 2^-53 of log m at worst over 2e5 draws), and the k log 2
    part and the double-double sums add about 2^-104 of the log.  So G is
    within 2^-61 ((n - 1) L_A + L_B + L_C) + 2^-100 (|A| + |B| + |C|), with
    A, B and C its three terms and each L the smaller of |log| and log
    sqrt 2 for the log in it; the series' truncation and rounding are below
    2^-78 of (n - 1) c.  That over |G'(v)| = n (n - 1) c / ((1 - c) (1 +
    (n - 1) c)) bounds the root's move.  The step leaves about dv^2 / v
    more, as |G'' / (2 G')| <= 1 / v in either variable, and its own
    rounding a few ulps of dv: 2 dv^2 / v + 2^-50 |dv| are counted, and so
    is the rounding of 1 - (v + dv) where b = 1 - v.  E stays far below an
    ulp of b (0.009 ulp at most over 2e4 draws).

    The double returned is the first on the wide side of the double-double
    root moved outward by E: where that root lies within E of the double
    past it, one more double outward (0.35% of the ends).  Against 60-digit
    roots every end lies on the wide side and within 1.005 ulps, over 2.2e4
    draws with n log-uniform on [3, 2^53] and t log-uniform down to 5e-324.
    A root past the double next to 1 rounds to 1.0, or to 1 - 2^-53 on the
    low side, the ends of a collapsed bracket there; b is never below
    1e-162, as t >= 5e-324.
    """
    u = _two_term_root(n, math.log(target))
    c = math.exp(u)
    in_q = c > 0.5
    v = -math.expm1(u) if in_q else c
    nf = float(n)
    nm = nf - 1.0
    # (n - 1) v = ph + pl (Dekker), with n - 1's halves kept for A's product
    ph = nm * v
    xh = (t := _SPLIT * nm) - (t - nm)
    xl = nm - xh
    vh = (t := _SPLIT * v) - (t - v)
    vl = v - vh
    pl = ((xh * vh - ph) + xh * vl + xl * vh) + xl * vl
    if in_q:  # log q, and n - (n - 1) q = sh + sl (Fast2Sum, as n > ph)
        lh, ll = _log_dd(v, 0.0)
        sh = nf - ph
        sl = ((nf - sh) - ph) - pl
    else:  # log(1 - c), and 1 + (n - 1) c = sh + sl (Knuth)
        lh, ll = (-v, -v * v * (0.5 + v / 3.0)) if v < _SERIES_MAX else _log_dd(*_complement(v))
        sh = 1.0 + ph
        bb = sh - 1.0
        sl = ((1.0 - (sh - bb)) + (ph - bb)) + pl
    # G = A + B - C: A = (n - 1) (lh + ll) (Dekker), B = log(sh + sl), C = log t,
    # the highs summed by Knuth's sums and the lows in doubles
    ah = nm * lh
    vh = (t := _SPLIT * lh) - (t - lh)
    vl = lh - vh
    al = (((xh * vh - ah) + xh * vl + xl * vh) + xl * vl) + nm * ll
    bh, bl = _log_dd(sh, sl)
    ch, cl = _log_dd(target, 0.0)
    s = ah + bh
    bb = s - ah
    e = (ah - (s - bb)) + (bh - bb)
    g = s - ch
    bb = g - s
    g += ((s - (g - bb)) + (-ch - bb)) + e + al + bl - cl
    # |G'(v)|, with c and q = 1 - c in doubles; G falls in c and rises in q
    q = v if in_q else 1.0 - v
    slope = nf * nm * c / (q * (1.0 + nm * c))
    dv = -g / slope if in_q else g / slope
    err = (_LOG_DD_RTOL * (nm * min(-lh, _LOG_SQRT2) + min(bh, _LOG_SQRT2) + min(-ch, _LOG_SQRT2))
           + 2.0**-100 * (bh - ah - ch)) / slope + abs(dv) * (2.0 * abs(dv) / v + 2.0**-50)
    # the root in b, v + dv or 1 - (v + dv), as rh + rl with |rl| at most half an ulp of rh
    rh = v + dv
    rl = dv - (rh - v)
    if upper == in_q:
        qh, ql = _complement(rh)
        e = ql - rl
        err += 2.0**-53 * abs(e)
        rh = qh + e
        rl = e - (rh - qh)
    if wide_hi:
        return math.nextafter(rh, 1.0) if rl + err > 0.0 else rh
    return math.nextafter(rh, 0.0) if rl - err < 0.0 else rh


def _log1p_rest(x: float) -> float:
    """(x - log1p(x)) / x^2 for x > -1, x != 0: its series 1/2 - x/3 + x^2/4
    - x^3/5 + x^4/6 below |x| = 2^-10, whose first term left out is below
    2^-50 of it, and the quotient above, where the difference loses about
    2^-52 / |x| relative to cancellation, at most 2^-42."""
    if -_Q2_SERIES_MAX < x < _Q2_SERIES_MAX:
        return 0.5 - x * (1.0 / 3.0 - x * (0.25 - x * (0.2 - x / 6.0)))
    return (x - math.log1p(x)) / (x * x)


def _q2_root(n: int, target: float) -> float:
    """The root c in (0, 1) of 1 - (1 - c)^(n - 1) (1 + (n - 1) c) = t, for
    n >= 3 and 0 < t = target <= 1/2: Pr(Y >= 2) = t at b = c, and
    Pr(Y <= n - 2) = t at b = 1 - c, the tails with beta parameter q = 2.

    With m = n - 1, the log of the two-term product is G = log1p(m c) - m c
    + m (log1p(-c) + c) = -c^2 (m^2 r(m c) + m r(-c)), r = `_log1p_rest`:
    two terms of one sign, so G keeps its relative accuracy at any c, where
    the form m log1p(-c) + log1p(m c) cancels to nothing below m c of about
    1e-16.  Newton's method in u = log c runs on phi(u) = 2u + log(m^2 r(m c)
    + m r(-c)) - log(-log1p(-t)), with phi'(u) = m n / ((1 - c) (1 + m c)
    (m^2 r(m c) + m r(-c))).  It starts at the small-c limit
    c = sqrt(2t / (n (n - 1))), where phi is nearly linear, and stops after
    a step below 1e-12: 4 steps at most over the 2000 seeded cases of the
    tests, and within 7e-14 of 60-digit roots, most of it the rounding of u.
    """
    m = float(n - 1)
    nf = float(n)
    log_t = math.log(-math.log1p(-target))
    u = 0.5 * (math.log(2.0 * target) - math.log(nf) - math.log(m))
    for _ in range(_TWO_TERM_MAX_STEPS):
        c = math.exp(u)
        r = m * m * _log1p_rest(m * c) + m * _log1p_rest(-c)
        du = (log_t - 2.0 * u - math.log(r)) * -math.expm1(u) * (1.0 + m * c) * r / (m * nf)
        u += du
        if abs(du) <= _Q2_RTOL:
            return math.exp(u)
    raise ArithmeticError(f"the q = 2 root at n = {n}, t = {target} did not converge")


def _log_ratio(tail: float, target: float, log_target: float) -> float:
    """log(tail / target), from the ratio wherever it is a finite normal
    double, so that its rounding is relative to it and not to |log target|;
    elsewhere log(tail) - log_target, and -inf at tail = 0."""
    ratio = tail / target
    if _NORMAL_MIN <= ratio < math.inf:
        return math.log(ratio)
    return math.log(tail) - log_target if tail > 0.0 else -math.inf


def _moved_tail(n: int, y: int, upper: bool, b0: float, tail0: float, p0: float,
                b: float) -> tuple[float, float] | None:
    """(tail, pmf_n(y)) at b from tail0 and p0 = pmf_n(y), both at b0, or
    None where the move is refused; the tail is Pr(Y <= y) for `upper` and
    Pr(Y >= y) otherwise.  The inversion moves tails at 2 <= y <= n - 2,
    the range the tests draw.

    In x = log z, with z = 1 - b (upper) or b (lower) and w = 1 - z, pmf_n(y)
    is C z^m w^k, m = n - y and k = y (upper) or m = y and k = n - y (lower),
    and the tail's derivative in x is m pmf_n(y); so the tail at b is tail0
    plus the integral of m pmf_n(y) over x from x0 to x0 + L, L = log(z /
    z0).  The 4-point Gauss-Lobatto rule takes it: nodes at theta = 0,
    1/2 -+ 1/(2 sqrt 5) and 1 of the way, weights 1/12, 5/12, 5/12 and 1/12
    of L.  The pmf at a node is p0 exp(m theta L + k log1p(-(z0 / w0)
    expm1(theta L))), the exact pmf ratio in x; the node's b is never
    rounded to a double, which would move it by up to half an ulp of b, a
    large part of a short move.

    The move is admitted where (1) the relative moves u of b and v of 1 - b
    have |u| + |v| <= 2^-7, checked before any log, which keeps log1p off -1;
    (2) both products of the exponent at b, m log1p(dz) and k log1p(dw),
    are at most 1 in magnitude: b - b0 is exact (Sterbenz), the relative
    moves dz and dw are off by an ulp or two and each product by a few units
    of 2^-53 absolute, so the exponent is good to a few ulps of 1 and each
    pmf to a few ulps; (3) max |a| |L| <= 2^-6 and |a1 - a0| |L| <= 2^-15,
    where a = m - k z / w is the log derivative of pmf_n(y) in x, a0 and a1
    its values at b0 and b (a is monotone in x, the pmf being log-concave);
    and (4) tail0 is a normal double and m p0 |L|, the change to first
    order, at most 2^-6 of it; the change itself is then within 2% of that.

    Why that bounds the error: in s = 2 theta - 1 the rule integrates
    polynomials of degree 5 exactly, odd powers exactly, and errs on an even
    power by at most 1/6 of the integral of 1.  So its relative error is at
    most about 1/6 of the pmf ratio's Taylor coefficients in s from s^6 on.
    The ratio is exp(phi1 s + phi2 s^2 + ...), with |phi1| = |a L| / 2 <=
    2^-7 at the midpoint by (3); |phi2| = |g''| L^2 / 8, g = log pmf_n(y),
    within 3% of |a1 - a0| |L| / 8 <= 2^-18 by (3); and for j >= 3 |phi_j|
    <= 2 |phi2| beta^(j-2) / j, beta = |L| / (2 w) within 2% of (|u| +
    |v|) / 2 <= 2^-8 by (1), as the j-th derivative of k log(1 - e^x) is at
    most (j - 1)! |g''| / w^(j-2).  With every coefficient at its bound the
    sixth of the ratio is 4.6e-15, and the rule errs by below 2^-50 of the
    change, below 2^-56 of the tail by (4): an eighth of an ulp at most.
    The nodes' few ulps, times the 2^-6 of (4), and the rounding of tail0
    plus the change, half an ulp, are the rest: against 40-digit tails the
    move added at most 0.51 ulp to tail0's error, over 6115 admitted moves
    of a seeded draw at n <= 3000.
    """
    if tail0 < _NORMAL_MIN or p0 == 0.0:
        return None
    d = b - b0
    u = d / b0
    v = -d / (1.0 - b0)
    if not abs(u) + abs(v) <= _MOVE_UV:
        return None
    # dz and dw the relative moves of z and w, r0 = z0 / w0
    if upper:
        m, k, dz, dw, r0 = n - y, y, v, u, (1.0 - b0) / b0
    else:
        m, k, dz, dw, r0 = y, n - y, u, v, b0 / (1.0 - b0)
    x = math.log1p(dz)
    a0 = m - k * r0
    a1 = m - k * r0 * (1.0 + dz) / (1.0 + dw)
    e = m * x
    # written so that a NaN, from an infinite r0 at a subnormal b0, refuses the move
    if not (max(abs(a0), abs(a1)) * abs(x) <= _MOVE_AL and abs(a1 - a0) * abs(x) <= _MOVE_DAL
            and abs(e * p0) <= _MOVE_TAIL * tail0 and -1.0 <= e <= 1.0):
        return None
    f = k * math.log1p(dw)
    if not -1.0 <= f <= 1.0:
        return None
    s1, s2 = _LOBATTO_1 * x, _LOBATTO_2 * x
    ratio = math.exp(e + f)
    nodes = (1.0 + ratio + 5.0 * (math.exp(m * s1 + k * math.log1p(-r0 * math.expm1(s1)))
                                  + math.exp(m * s2 + k * math.log1p(-r0 * math.expm1(s2)))))
    return tail0 + e * p0 * nodes / 12.0, p0 * ratio


def _start(n: int, y: int, target: float, upper: bool) -> float:
    """The first iterate of an interior inversion, on `_iterate`'s tail
    equation, clamped to [`_B_MIN`, `_B_MAX`]: every iterate lies between
    the doubles next to 0 and 1, so where the root lies past the last double
    one tail sum there shows it.

    Where the beta parameter q is 2 (y = 2 lower, y = n - 2 upper), the tail
    is 1 minus a two-term one, and the start is the root c of 1 - (1 -
    c)^(n - 1) (1 + (n - 1) c) = t, b = c (lower) or 1 - c (upper), by
    Newton's method in log c from its small-c limit sqrt(2t / (n (n - 1)))
    (`_q2_root`): within 7e-14 of the 60-digit root, so that the first
    Halley step meets the stop rule, where Paulson's start was 7-26% off at
    Clopper-Pearson levels and took up to 7 tail sums.  Elsewhere the start
    is Paulson's cube-root normal approximation to the beta quantile
    (`_paulson_start`; E. Paulson, Annals of Math. Stat. 13, 1942), off by a
    median 5e-4 relative at n = 30 and 6e-7 at n = 3000 over the interior
    Clopper-Pearson ends at alpha = 0.05 and 0.01, where a Wilson score bound
    is off by a median 3% at n = 30.  Below a target of 1e-6 the start is
    the Wilson score bound.
    """
    if y == (n - 2 if upper else 2):
        c = _q2_root(n, target)
        b = 1.0 - c if upper else c
    elif target >= _PAULSON_MIN_TARGET:
        b = _paulson_start(n, y, target, upper)
    else:  # too deep a target for Wilson-Hilferty
        z = _normal_quantile(target)
        b = 1.0 - _wilson_lower(n, n - y, z) if upper else _wilson_lower(n, y, z)
    return min(max(b, _B_MIN), _B_MAX)


def _iterate(n: int, y: int, target: float, upper: bool, wide_hi: bool, b: float) -> float:
    """Halley's method from the start b on the tail equation Pr(Y <= y) =
    target (`upper`) or Pr(Y >= y) = target, with 2 <= y <= n - 2 and
    target <= 1/2.  It returns an anchored tail's b equal to the target, a
    converged step's end inside the bracket at a normal target, or the end
    of a collapsed bracket that widens the interval, the upper end where
    `wide_hi`; a step it cannot return goes to `_finish`.

    Halley's method runs on the log tail h as a function of log b (lower)
    or log(1 - b) (upper).  Both are concave, as the beta densities involved
    are log-concave.  The derivative of the tail in b is -n pmf_{n-1}(y)
    (upper) or n pmf_{n-1}(y - 1) (lower), and n pmf_{n-1}(y) (1 - b) =
    (n - y) pmf_n(y), n pmf_{n-1}(y - 1) b = y pmf_n(y); so the slopes s of
    the log tail are (n - y) pmf_n(y) / tail and y pmf_n(y) / tail.
    pmf_n(y) is the first term of the tail sum `_cdf_sf` has just taken, or
    is one ratio step from it when that sum starts at y - 1 or y + 1, so a
    step pays for at most one saddle-point anchor.  Then h'' = s (a - s),
    where a is the derivative of log pmf_n(y) in the same variable: (n - y)
    - y (1 - b) / b (upper) or y - (n - y) b / (1 - b) (lower).  Halley's
    step is Newton's -h / s divided by 1 - h h'' / (2 s^2); where that
    divisor lies outside (1/2, 2), far from the root, the step is Newton's.
    A step that leaves the bracket, which shrinks at every step, is clamped
    to the doubles next to 0 and 1, or replaced by bisection.

    h is log(tail / target) wherever that ratio is a finite normal double,
    so that a tiny target costs h no accuracy; log(tail) - log(target)
    would lose about 1e-16 |log target| to rounding.  The first tail sum
    takes its saddle-point anchor.  After it, the tail at each iterate is
    moved from the last iterate's tail and pmf_n(y) (`_moved_tail`): its
    change is m times the integral of pmf_n(y) over the move in x = log(1 -
    b) (upper, m = n - y) or log b (lower, m = y), taken by a 4-point
    Gauss-Lobatto rule whose nodes are pmf_n(y) moved by the exact pmf
    ratio.  A move is admitted where |u| + |v| <= 2^-7, u and v the relative
    moves of b and 1 - b, max |a| |L| <= 2^-6 and |a1 - a0| |L| <= 2^-15, L
    the move in x, and m pmf_n(y) |L| is at most 2^-6 of the tail; there
    the rule errs by below 2^-56 of the tail (`_moved_tail` gives the
    argument).  A move is tried straight after a Halley step inside the
    bracket whose |a step| and slope |step| meet the bounds on max |a| |L|
    and on m pmf_n(y) |L|, as L is about -step, so that a move sure to be
    refused costs no call.  Elsewhere a full sum is taken, with its own
    anchor.  The tail after the first step, from Paulson's start, is moved
    in 70% of the interior Clopper-Pearson inversions that take that step
    at n = 30 and 31, 87% at n = 100 and 98% or more at n >= 1000.  So
    most interior ends take one tail sum: 1.25 per inversion on the
    Clopper-Pearson tables at n = 30 and 31, where a sum at every iterate
    took 1.91.

    One rule decides every stop: iteration stops where the error a step
    leaves is predicted below 2^-56 of b, and returns the step's end without
    a tail sum to confirm it.  From an error e, Halley's step leaves
    (A^2 - B) e^3 + O(e^4), with A = h'' / (2 s) = (a - s) / 2 from the h''
    in hand and B = h''' / (6 s), which is not in hand.  The step is about
    e, so the prediction in b is K step^2 |new - b|, with K = max(1, A^2),
    the 1 standing in for B: a stated rule, not yet a proven bound.  After
    Newton's step |A step| >= 1/2, so the rule holds only for a move below
    2^-54 of b, under half an ulp.  The end returned may lie an ulp or so on
    either side of the root, below the tail's own few-ulp rounding.  At a
    subnormal target the tail is a multiple of 2^-1074, too coarse to trust
    the step, and a step that meets the rule goes to `_finish` instead:
    returning its end put 790 of 4000 seeded interior ends at targets below
    2^-1022 on the inner side by `binom_cdf` and `binom_sf`.

    A tail at the rounding floor, |h| <= 1e-13, after the first sum is
    mostly rounding.  A moved tail, the one kind that took no anchor of its
    own, sets no bracket end there, as a few ulps could flip its sign.  The
    step from such a tail, and a step that meets the rule but is rounded
    past the bracket or taken at a subnormal target, go to `_finish`: from
    the step's end if it lies inside the bracket, else from b if b set no
    bracket end (not seen in 18 609 inversions), else from the double next
    to b toward the root.
    """
    log_target = math.log(target)
    lo, hi = 0.0, 1.0
    j = y if upper else y - 1
    m = n - y if upper else y  # d tail / d log(1 - b) (upper) or d log b (lower) is m pmf_n(y)
    moved = None  # (tail, pmf_n(y)) at b, moved from the last iterate's
    for i in range(_NEWTON_MAX_STEPS):
        anchored = moved is None  # every tail but a moved one is a sum with its own anchor
        if anchored:
            cdf, sf, k, py = _cdf_sf(n, b, j)
            tail = cdf if upper else sf
            # pmf_n(y) from the tail sum's first term pmf_n(k), k in {y - 1, y, y + 1};
            # left to right, so that a subnormal b cannot make the ratio overflow
            if k > y:
                py = py * (y + 1) * (1.0 - b) / ((n - y) * b)
            elif k < y:
                py = py * (n - y + 1) * b / (y * (1.0 - b))
        else:
            (tail, py), moved = moved, None
        h = _log_ratio(tail, target, log_target)
        slope = py * m / tail if tail > 0.0 else 0.0  # d log tail in the same variable
        floor = i > 0 and abs(h) <= _FLOOR_H
        if anchored or not floor:  # h's sign is the tail's, as `binom_cdf` would give it
            if h == 0.0:
                return b
            if (h > 0.0) == upper:
                lo = b
            else:
                hi = b
            if hi <= math.nextafter(lo, 1.0):  # no double left inside the bracket
                return hi if wide_hi else lo
        if slope > 0.0:
            # Halley's step is Newton's over d = 1 - h h'' / (2 slope^2), with
            # h'' = slope (a - slope) and a = d log pmf_n(y) in the same variable
            a = (n - y) - y * (1.0 - b) / b if upper else y - (n - y) * b / (1.0 - b)
            d = 1.0 - 0.5 * h * (a - slope) / slope
            # Newton's step where d is no modest correction (a subnormal b makes it inf)
            step = h / slope / (d if 0.5 < d < 2.0 else 1.0)
            new = -math.expm1(math.log1p(-b) - step) if upper else b * math.exp(-step)
            # the error left after Halley's step is about (h'' / (2 slope))^2 step^3
            if floor or max(1.0, 0.25 * (a - slope) ** 2) * step * step * abs(new - b) <= _HALLEY_STOP * b:
                if not floor and lo <= new <= hi and target >= _NORMAL_MIN:
                    return new
                if not lo < new < hi:
                    new = b if lo < b < hi else math.nextafter(b, hi if b == lo else lo)
                return _finish(n, j, target, upper, wide_hi, lo, hi, new)
            if lo < new < hi:
                # |a L| and the tail's change over it, slope |L|, as `_moved_tail` bounds them
                if abs(a * step) <= _MOVE_AL and slope * abs(step) <= _MOVE_TAIL:
                    moved = _moved_tail(n, y, upper, b, tail, py, new)
                b = new
            else:  # past the bracket: the double next to 0 or 1 if still inside it, else bisection
                new = min(max(new, _B_MIN), _B_MAX)
                b = new if lo < new < hi else 0.5 * (lo + hi)
        else:
            b = 0.5 * (lo + hi)
    raise ArithmeticError(f"the inversion at n = {n}, y = {y}, t = {target} did not converge")


def _finish(n: int, j: int, target: float, upper: bool, wide_hi: bool, lo: float, hi: float,
            b: float) -> float:
    """The floor walk: from b strictly inside the bracket (lo, hi), whose
    ends are set by anchored tails or are 0 and 1, the end of the collapsed
    bracket that widens the interval, the upper end where `wide_hi`, or a b
    whose tail equals the target.  The tail is Pr(Y <= j) for `upper`, which
    falls in b, and Pr(Y > j) otherwise, which rises.

    The walk takes the tail at b, sets the bracket end that its sign gives,
    and moves to the double next to b toward the other end, until no double
    is left strictly inside.  Every sum takes its anchor, as `binom_cdf` and
    `binom_sf` do, so the bracket that collapses is judged by their tails:
    the root lies between two adjacent doubles, or past the last double
    before 0 or 1, and the end returned widens the interval.  `_iterate`
    starts the walk a few doubles from the root: it took at most 4 sums
    over 16 369 inversions of the bpci benchmark's pools, the
    Clopper-Pearson tables at n = 30 to 1000, a seeded sweep and interior
    draws.

    A subnormal tail equal to the walk's last one did not move over one
    double, as a multiple of 2^-1074 may not for millions of doubles, where
    a walk one double at a time ran out of steps.  From such a tail on, and
    from the walk's sum after `_WALK_STEPS` steps of one double, the walk
    bisects the bracket instead, at its midpoint in the order of the
    doubles.  A normal tail equal to the last one is rounding, and the walk
    goes on: bisecting from a bracket end still at 0 took 65 sums at (380,
    42, 0.4873610767136191, "upper"), where the walk takes 4.  A bracket in
    [0, 1] holds fewer than 2^62 doubles, and each bisection leaves at most
    half of those inside it, rounded up, so the walk ends within 8 + 1 + 62
    = 71 sums from any b.  At subnormal targets, where `_iterate` hands it
    every converged step, the walk took 8.7 sums in the mean and 65 at worst
    over 4000 seeded interior draws.
    """
    last, bisect = -1.0, False  # the walk's last tail, and whether it bisects from here on
    for i in range(_NEWTON_MAX_STEPS):
        tail = _cdf_sf(n, b, j)[0 if upper else 1]
        if tail == target:
            return b
        if (tail > target) == upper:
            lo = b
        else:
            hi = b
        if hi <= math.nextafter(lo, 1.0):
            return hi if wide_hi else lo
        bisect, last = bisect or (tail == last and tail < _NORMAL_MIN) or i >= _WALK_STEPS, tail
        if bisect:  # the midpoint in the doubles' order: their bit patterns read as integers
            from struct import pack, unpack
            b = unpack("<d", pack("<q", sum(unpack("<2q", pack("<2d", lo, hi))) // 2))[0]
        else:
            b = math.nextafter(b, hi if b == lo else lo)
    raise ArithmeticError(f"the floor walk at n = {n}, j = {j}, t = {target} did not converge")


def binom_tail_invert(n: int, y: int, target: float, side: str) -> float:
    """Solve a binomial tail equation for the success probability b.

    side="upper" returns the b with Pr(Y <= y) = target; side="lower" the b
    with Pr(Y >= y) = target.  These are the beta quantiles
    B(1 - target; y + 1, n - y) and B(target; y, n - y + 1).  Degenerate
    cases with no root in (0, 1) return the boundary value 0 or 1.  A target
    t above 1/2, where the log tail is flat and its rounding would move b
    far, is solved as the other side's tail at 1 - t, exact by Sterbenz's
    lemma: Pr(Y <= y) = t exactly where Pr(Y >= y + 1) = 1 - t.

    Where the tail has a closed form, (1 - b)^n at y = 0 and 1 - b^n at
    y = n - 1 (upper), b^n at y = n and 1 - (1 - b)^n at y = 1 (lower), its
    root is returned with no tail sum: c = e^v, v = L / n, with L the log
    of the target or of 1 - target, and b = 1 - c or c.  L is `_log_dd`'s,
    renormalized, and v a double-double quotient, vh + vl; then c =
    exp(vh) (1 + vl) and 1 - c = -(expm1(vh) + exp(vh) vl).  Against
    60-digit roots the end is within 1.12 ulps over 6000 seeded cases at
    n <= 1e6 and targets down to 1e-300, where the form in plain doubles
    loses about 1e-16 |log t| relative to the rounding of log t.  A root
    past the double next to 0 or 1 returns the end of that last gap that
    widens the interval, as a collapsed bracket does.  A subnormal root lies
    within an ulp of the double computed, so the double past that one on the
    wide side is returned: at most one subnormal ulp wider than the nearest
    end on the wide side, and never on the inner side.

    Where the tail has two terms, (1 - c)^(n - 1) (1 + (n - 1) c) with
    c = b at y = 1 (upper) and c = 1 - b at y = n - 1 (lower), their root
    is solved by Newton's method in doubles (`_two_term_root`), refined by
    one Newton step on the residual in double-double, and returned as the
    double on its wide side, one further out where the root lies within the
    residual's stated error of a double (`_two_term_end`), with no tail sum.
    Against 60-digit roots every such end lies on the wide side and within
    1.005 ulps, subnormal targets included.

    Elsewhere the inversion is `_iterate` from `_start`, which may end in
    `_finish`.  So every end is an anchored tail equal to the target, a
    converged Halley step's end inside the bracket at a normal target, or
    the end of a collapsed bracket: the root then lies between two adjacent doubles, or
    past the last double before 0 or 1, and the end returned widens the
    interval, the upper end for side="upper" and the lower end for
    side="lower", whichever tail a target above 1/2 made it solve.
    """
    n = check_int(n, "n", 1, N_MAX)
    y = check_int(y, "y", 0, n)
    target = check_level(target, "target")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    upper = side == "upper"
    if y == (n if upper else 0):  # Pr(Y <= n) = Pr(Y >= 0) = 1 for every b: no root
        return 1.0 if upper else 0.0
    wide_end_hi = upper  # the end of a collapsed bracket that widens the interval
    if target > 0.5:  # Pr(Y <= y) = t iff Pr(Y >= y + 1) = 1 - t, exact by Sterbenz
        target = 1.0 - target
        y += 1 if upper else -1
        upper = not upper

    at_end = y in (0, n)
    if at_end or y == (n - 1 if upper else 1):
        # the closed form, in double-double: c = e^(L / n), with L the log of the
        # target (y = 0 or n) or of 1 - target (y = n - 1 or 1), and b = 1 - c or c
        sh, sl = _log_dd(target, 0.0) if at_end else _log_dd(*_complement(target))
        lh = sh + sl  # one Fast2Sum: _log_dd's pair is not normalized
        ll = sl - (lh - sh)
        nf = float(n)
        vh = lh / nf
        p = vh * nf
        ah = (t := _SPLIT * vh) - (t - vh)
        al = vh - ah
        bh = (t := _SPLIT * nf) - (t - nf)
        bl = nf - bh
        vl = (((lh - p) - (((ah * bh - p) + ah * bl + al * bh) + al * bl)) + ll) / nf
        e = math.exp(vh)
        b = -(math.expm1(vh) + e * vl) if upper == at_end else e + e * vl
        if b < _NORMAL_MIN:  # a subnormal root lies within an ulp of b: the double past b on the wide side
            b = math.nextafter(b, 1.0 if wide_end_hi else 0.0)
        if _B_MIN <= b <= _B_MAX:
            return b
        lo, hi = (0.0, _B_MIN) if b < _B_MIN else (_B_MAX, 1.0)  # the root lies between the two
        return hi if wide_end_hi else lo
    if y == (1 if upper else n - 1):  # two terms, in c = b or 1 - b
        return _two_term_end(n, target, upper, wide_end_hi)
    return _iterate(n, y, target, upper, wide_end_hi, _start(n, y, target, upper))


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit words."""
    x = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class SeededStream(namedtuple("SeededStream", "master_seed stream_id", defaults=(0,))):
    """Value-semantics random stream: (master_seed, stream_id) fully determines it.

    Substreams are derived by mixing the stream id, so parallel consumers get
    independent streams regardless of evaluation order.  `random()` gives
    the stream as a standard-library `random.Random`, for scalar draws with
    no numpy; its uniforms, seeded from one integer, are the same on every
    Python release.  `rng()` gives it as a numpy Generator, for arrays.
    """

    __slots__ = ()

    def random(self) -> random.Random:
        import random

        return random.Random((self.master_seed & _MASK64) << 64 | (self.stream_id & _MASK64))

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed & _MASK64, self.stream_id & _MASK64])
        )

    def substream(self, child_id: int) -> "SeededStream":
        return SeededStream(self.master_seed, _mix64(self.stream_id, child_id))
