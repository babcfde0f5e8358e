"""Independent oracles for the test suite.

Every expected value asserted by the tests is computed here by a method
independent of the code path under test: Pascal's triangle for binomials,
Akiyama-Tanigawa for Bernoulli numbers, the BBP series for pi, direct
summation with integral tail bounds for zeta values, the literal truncated
double sum for double zeta values, the direct sums of one pair in their own
loop with their own powers, a table entry composed of separately rounded
terms as dzv built it before its one rounding, at odd weight the reduction
of a double zeta value to products of single zeta values, eq26's sides as
five separate dot products, every table check's sides composed of
separately rounded terms as dzv built them before its one form evaluator,
Horner's rule in counted integer fixed point for T_l at complex points,
Lemma 1's five equations written out one by one with it, and the cube roots
of unity in exact Q(sqrt -3) arithmetic.

The weight hypotheses of the suites are plain predicates, written apart
from the checks that raise OutsideHypothesis.  The ball predicates below
(ends, containment, equality of enclosures, the zero test, the
relative-radius target) and the decimal printing of a ball are read from its
exact midpoint_fraction() and radius_fraction(), so they check the integer
decisions of dzv against plain Fraction arithmetic.  Beside them sits a frozen
copy of the report printer in integers, the reference its tuned version must
equal string for string.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from math import factorial, isqrt, prod
from operator import mul
from typing import List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from dzv.dzeta import _dot, _tail, gen_poly_eval, get_table
from dzv.identities import (
    _AT_ONE,
    _LEMMA1,
    _STATEMENTS,
    _T_M11,
    _eq26_plan,
    _lemma1_classes,
    _lemma1_eq5_count,
    restricted_sum,
)
from dzv.numerics import (
    GUARD_BITS,
    CheckReport,
    ComplexBall,
    PrecisionCtx,
    RealBall,
    _rounded,
    ball_sum,
    check_from_sides,
    complex_sum,
    cube_root_of_unity,
    require_exact,
)
from dzv.zeta import hurwitz_zeta, zeta_numeric


# ---------------------------------------------------------------------------
# ball predicates in exact rationals, and the exact scaling by 2^e
# ---------------------------------------------------------------------------

def mul_2exp(b: RealBall, e: int) -> RealBall:
    """b * 2^e, exact: both exponents of the ball move by e."""
    mm, me, rm, re = b.dyadic()
    return RealBall(mm, me + e, rm, re + e)


def lower_fraction(b: RealBall) -> Fraction:
    return b.midpoint_fraction() - b.radius_fraction()


def upper_fraction(b: RealBall) -> Fraction:
    return b.midpoint_fraction() + b.radius_fraction()


def is_exact(b: RealBall) -> bool:
    return b.radius_fraction() == 0


def is_positive(b: RealBall) -> bool:
    """True when every point of the ball is > 0."""
    return lower_fraction(b) > 0


def contains_fraction(b: RealBall, q) -> bool:
    require_exact(q, "contains_fraction's q")
    return abs(b.midpoint_fraction() - q) <= b.radius_fraction()


def contains_within(b: RealBall, q, shrink: Fraction) -> bool:
    """q lies in b with its radius less ``shrink``."""
    return abs(b.midpoint_fraction() - q) <= b.radius_fraction() - shrink


def contains_zero(b) -> bool:
    """A real ball holds 0, or both parts of a complex ball do."""
    if isinstance(b, ComplexBall):
        return contains_zero(b.real) and contains_zero(b.imag)
    return contains_fraction(b, 0)


def contains_ball(outer: RealBall, inner: RealBall) -> bool:
    """True when inner's enclosure is a subset of outer's."""
    d = abs(outer.midpoint_fraction() - inner.midpoint_fraction())
    return d + inner.radius_fraction() <= outer.radius_fraction()


def same_enclosure(a, b) -> bool:
    """Equal midpoints and radii, part by part for complex balls."""
    if isinstance(a, ComplexBall):
        return same_enclosure(a.real, b.real) and same_enclosure(a.imag, b.imag)
    return (a.midpoint_fraction() == b.midpoint_fraction()
            and a.radius_fraction() == b.radius_fraction())


def intersects(a, b) -> bool:
    """The enclosures meet, part by part for complex balls."""
    if isinstance(a, ComplexBall):
        return intersects(a.real, b.real) and intersects(a.imag, b.imag)
    return abs(a.midpoint_fraction() - b.midpoint_fraction()) \
        <= a.radius_fraction() + b.radius_fraction()


def meets_interval(b: RealBall, lo: Fraction, hi: Fraction) -> bool:
    """The ball and the interval [lo, hi] share a point."""
    return lower_fraction(b) <= hi and lo <= upper_fraction(b)


def zero_within(b: RealBall, tol: Fraction) -> bool:
    return abs(b.midpoint_fraction()) + b.radius_fraction() <= tol


def meets_relative_radius(b: RealBall, k: int) -> bool:
    """The radius target of double_zeta and hurwitz_zeta: the lower end is
    positive and the radius is at most 2^-k of it."""
    lo = lower_fraction(b)
    return lo > 0 and b.radius_fraction() <= lo / 2 ** k


# balls of any sign and scale, exact ones included, and tolerances n / 10^k
DYADIC_BALLS = st.builds(RealBall, st.integers(-2 ** 80, 2 ** 80), st.integers(-300, 300),
                         st.just(0) | st.integers(0, 2 ** 40), st.integers(-300, 300))
DECIMAL_TOLERANCES = st.builds(lambda n, k: Fraction(n, 10 ** k),
                               st.integers(1, 10 ** 6), st.integers(0, 120))


# ---------------------------------------------------------------------------
# each suite's hypothesis on the weight, as a predicate apart from its check
# ---------------------------------------------------------------------------

def _weight_3(l: int) -> Optional[str]:
    return None if l >= 3 else "needs weight >= 3"


def _weight_4(l: int) -> Optional[str]:
    return None if l >= 4 else "needs weight >= 4 (both exponents >= 2)"


def _even_weight_4(l: int) -> Optional[str]:
    return None if l % 2 == 0 and l >= 4 else "needs even weight >= 4"


def _gap6_weight(l: int) -> Optional[str]:
    return None if l % 6 == 2 and l >= 8 else "needs l = 2 (mod 6), l >= 8"


# suite -> the reason a weight is skipped, or None when the suite states a
# formula there
SUITE_HYPOTHESES = {
    "sum-formula": _weight_3,
    "weighted-sum": _weight_3,
    "harmonic": _weight_4,
    "gkz-parity": _even_weight_4,
    "theorem1": _weight_3,
    "corollary1": _even_weight_4,
    "prop1": _weight_3,
    "lemma1": _weight_3,
    "eq26": _weight_3,
    "euler-bernoulli": _even_weight_4,
    "ramanujan": _gap6_weight,
    "corollary2-chain": _gap6_weight,
}


# ---------------------------------------------------------------------------
# decimal printing in exact rationals
# ---------------------------------------------------------------------------

def decimal_truncate(q: Fraction, digits: int) -> str:
    """Decimal expansion of q truncated toward zero at `digits` places; signed
    only when a printed digit is nonzero."""
    scaled = (abs(q.numerator) * 10 ** digits) // q.denominator
    sign = "-" if q < 0 and scaled else ""
    s = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def certified_decimal(ball: RealBall, max_digits: int) -> str:
    """The printing rule of dzv.cli.certified_decimal, on the exact ends:
    the digits both truncated ends share, round(|mid|) when their integer
    parts differ, and "0" exactly when the ball holds 0."""
    lo, hi = lower_fraction(ball), upper_fraction(ball)
    if lo <= 0 <= hi:
        return "0"
    (ia, _, fa), (ib, _, fb) = (decimal_truncate(abs(q), max_digits).partition(".")
                                for q in (lo, hi))
    if ia != ib:
        s = str(round(abs(ball.midpoint_fraction())))
    else:
        k = len(os.path.commonprefix([fa, fb]))
        s = f"{ia}.{fa[:k]}" if k or ia == "0" else ia
    return "-" + s if hi < 0 and s.strip("0.") else s


def shared_leading_digits(a: int, b: int) -> Tuple[int, int]:
    """(h, j) for integers 0 <= a <= b, from the common prefix of their
    decimal strings padded to one length: j digits follow the shared ones, and
    h is the shared digits' value."""
    sa, sb = str(a), str(b)
    sa = sa.rjust(len(sb), "0")
    k = len(os.path.commonprefix([sa, sb]))
    return int(sb[:k] or "0"), len(sb) - k


@cache
def _pascal_row(n: int) -> Tuple[int, ...]:
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return tuple(row)


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) by building Pascal's triangle additively; each row is built once."""
    if k < 0 or k > n:
        return 0
    return _pascal_row(n)[k]


def akiyama_tanigawa_bernoulli(n: int) -> List[Fraction]:
    """B_0..B_n via the Akiyama-Tanigawa triangle (first kind, B_1 = -1/2).

    The textbook algorithm produces B_1 = +1/2; the sign is flipped to match
    the X/(e^X - 1) generating function convention.
    """
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


_B_TO_60 = akiyama_tanigawa_bernoulli(60)


def em_coefficient(s: int, k: int) -> Fraction:
    """The Euler-Maclaurin coefficient c_k = B_2k (s)_{2k-1} / (2k)!, k <= 30,
    from the Akiyama-Tanigawa Bernoulli numbers."""
    return _B_TO_60[2 * k] * prod(range(s, s + 2 * k - 1)) / factorial(2 * k)


def bbp_pi_interval(terms: int) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of pi from the BBP series.

    pi = sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)); each bracket
    lies in (0, 4), so the tail after K terms is within (0, 4*16^-K * 16/15).
    """
    s = Fraction(0)
    for k in range(terms):
        s += Fraction(1, 16**k) * (Fraction(4, 8 * k + 1) - Fraction(2, 8 * k + 4)
                                   - Fraction(1, 8 * k + 5) - Fraction(1, 8 * k + 6))
    tail_hi = Fraction(4 * 16, 15) * Fraction(1, 16**terms)
    return s, s + tail_hi


def zeta_direct_interval(s: int, n_terms: int) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of zeta(s) by direct summation: the tail
    sum_{n>N} n^-s lies between the integrals from N+1 and from N."""
    partial = sum(Fraction(1, n**s) for n in range(1, n_terms + 1))
    lo = partial + Fraction(1, (n_terms + 1) ** (s - 1) * (s - 1))
    hi = partial + Fraction(1, n_terms ** (s - 1) * (s - 1))
    return lo, hi


def hurwitz_direct_interval(s: int, a: Fraction, n_terms: int) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of zeta(s, a) = sum_{n>=0} (n+a)^-s."""
    a = Fraction(a)
    partial = sum(1 / (n + a) ** s for n in range(n_terms))
    lo = partial + 1 / ((n_terms + a) ** (s - 1) * (s - 1))
    hi = partial + 1 / ((n_terms - 1 + a) ** (s - 1) * (s - 1))
    return lo, hi


def alternating_zeta_interval(s: int, bits: int) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of zeta(s), s >= 2, of width at most 2^-bits,
    as eta(s) / (1 - 2^(1-s)) with eta(s) = sum_k (-1)^k (k+1)^-s.

    eta(s) is Algorithm 1 of Cohen, Rodriguez Villegas and Zagier
    (*Experimental Math.* 9, 2000): with the integers d = T_n(3) and
    c_k = (-1)^k (d + sum_{j<=k} (-1)^j b_j), b_j the coefficients of the
    shifted Chebyshev polynomial T_n(1 - 2x), eta(s) = sum_{k<n} c_k (k+1)^-s / d + e.
    (k+1)^-s is the k-th moment of a positive measure on [0, 1], on which
    |T_n(1 - 2x)| <= 1, so |e| <= eta(s) / d <= 1/d.  Each c_k (k+1)^-s is
    one integer floor at unit 2^-W, the n floors low by less than n units.
    Nothing here comes from dzv's zeta, double-zeta or Bernoulli modules."""
    d_prev, d, n = 1, 3, 1
    while d.bit_length() < bits + 5:  # 6/d <= 2^-(bits+1)
        d_prev, d, n = d, 6 * d - d_prev, n + 1
    width = n.bit_length()
    one = 1 << width
    b, c, total = -1, -d, 0
    for k in range(n):
        c = b - c
        total += c * one // (k + 1) ** s
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    # eta(s) lies in [total - one, total + n + one] / (d one); 1/(1 - 2^(1-s)) <= 2
    scale = Fraction(2 ** (s - 1), (2 ** (s - 1) - 1) * d * one)
    return (total - one) * scale, (total + n + one) * scale


def alternating_hurwitz_interval(s: int, a: int, bits: int) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of zeta(s, a) = zeta(s) - sum_{n<a} n^-s, a an
    integer >= 1, of width at most 2^-bits relative to zeta(s, a).  The
    subtraction cancels about s log2 a bits, since zeta(s, a) >= a^(1-s)/(s-1):
    zeta(s) is taken to that many more bits, and the partial sum as a - 1
    integer floors at unit 2^-W, low by less than a - 1 units."""
    bits += (s - 1) * a.bit_length() + (s - 1).bit_length() + 1
    lo, hi = alternating_zeta_interval(s, bits)
    width = bits + a.bit_length()
    partial = sum((1 << width) // n**s for n in range(1, a))
    return lo - Fraction(partial + a - 1, 1 << width), hi - Fraction(partial, 1 << width)


def brute_double_zeta(l1: int, l2: int, cutoff: int, prec: int) -> RealBall:
    """The literal truncated double sum sum_{cutoff >= m1 > m2 > 0} plus
    integral tail bounds, as a ball.

    Truncation error = sum_{m2<=X} m2^-l2 sum_{m1>X} m1^-l1
                       + sum_{m2>X} m2^-l2 sum_{m1>m2} m1^-l1;
    the inner tails are below the integrals X^(1-l1)/(l1-1) and
    m2^(1-l1)/(l1-1), and sum_{m2<=X} m2^-1 <= 1 + log X is bounded using
    log X <= 0.7 * bitlength(X).
    """
    inner = RealBall.zero()
    suffix = []
    for m2 in range(cutoff - 1, 0, -1):
        inner = inner.add(RealBall.from_fraction(Fraction(1, (m2 + 1) ** l1), prec), prec)
        suffix.append((m2, inner))
    total = RealBall.zero()
    for m2, inn in suffix:
        total = total.add(
            RealBall.from_fraction(Fraction(1, m2 ** l2), prec).mul(inn, prec), prec)
    if l2 == 1:
        h_bound = 1 + Fraction(7 * cutoff.bit_length(), 10)
    else:
        h_bound = Fraction(l2, l2 - 1)
    part1 = h_bound * Fraction(1, cutoff ** (l1 - 1) * (l1 - 1))
    c = l1 + l2 - 1
    part2 = (Fraction(1, cutoff ** c) + Fraction(1, cutoff ** (c - 1) * (c - 1))) \
        * Fraction(1, l1 - 1)
    return total.add_error(part1 + part2)


def direct_sums(l1: int, l2: int, m_cut: int, wp: int) -> Tuple[RealBall, RealBall]:
    """S_M = sum_{M>=m1>m2>=1} m1^-l1 m2^-l2 and H_M = sum_{m<=M} m^-l2 for one
    pair, M = m_cut, as dzv summed them before a weight's pairs shared rows:
    one loop over m with floor(2^W / m^k) divided afresh, W the pair's own
    width wp + l1 + 2 bitlen(M+1) + 2, each ball centred on its counted
    one-sided interval of M^2 resp. M units."""
    width = wp + l1 + 2 * (m_cut + 1).bit_length() + 2
    one = 1 << width
    h = s = 0
    for m in range(1, m_cut + 1):
        s += one // m ** l1 * h
        h += one // m ** l2
    return (RealBall.from_floors(s, m_cut * m_cut << width, 0, 2 * width),
            RealBall.from_floors(h, m_cut, 0, width))


def composed_double_zeta(l1: int, l2: int, ctx: PrecisionCtx) -> RealBall:
    """zeta(l1, l2) as dzv composed it before each table entry was one exact
    sum: the pair's own direct sums S_M and H_M, the product H_M zeta(l1, A)
    rounded at wp, then S_M, that product and the tail rounded again by
    ``ball_sum``, at the same M = max(32, wp/2) and A = M + 1."""
    wp = ctx.working_precision + GUARD_BITS
    m_cut = max(32, wp // 2)
    hz_ctx = PrecisionCtx(wp)

    def hz(s: int) -> RealBall:
        return hurwitz_zeta(s, m_cut + 1, hz_ctx)

    s_m, h_m = direct_sums(l1, l2, m_cut, wp)
    return ball_sum([s_m, h_m.mul(hz(l1), wp), _tail(l1, l1 + l2, wp, hz)], wp)


def odd_weight_double_zeta(a: int, b: int, ctx: PrecisionCtx) -> RealBall:
    """zeta(a, b) at odd weight w = a + b from single zeta values (Euler's
    reduction, explicit in Borwein-Borwein-Girgensohn 1995), zeta(0) = -1/2:

        zeta(a, b) = (-1)^b sum_{i=0}^{(w-3)/2} [C(w-2i-1, a-1) + C(w-2i-1, b-1)]
                                                 zeta(2i) zeta(w-2i)
                     + [a even, b >= 3] zeta(a) zeta(b) - zeta(w)/2.

    The single zeta values carry 2w guard bits against the cancellation
    between the binomially weighted products.
    """
    w = a + b
    if w % 2 == 0 or a < 2 or b < 1:
        raise ValueError("the reduction needs odd weight, a >= 2 and b >= 1")
    zctx = PrecisionCtx(ctx.working_precision + 2 * w)
    wp = zctx.working_precision + 16

    def z(s: int) -> RealBall:
        return RealBall.from_fraction(Fraction(-1, 2), wp) if s == 0 else zeta_numeric(s, zctx)

    total = RealBall.zero()
    for i in range((w - 1) // 2):
        n = w - 2 * i - 1
        coef = pascal_binomial(n, a - 1) + pascal_binomial(n, b - 1)
        total = total.add(z(2 * i).mul(z(w - 2 * i), wp).mul_int(coef), wp)
    if b % 2:
        total = total.neg()
    if a % 2 == 0 and b >= 3:
        total = total.add(z(a).mul(z(b), wp), wp)
    return total.sub(mul_2exp(z(w), -1), wp)


def residual_strings(res: RealBall) -> Tuple[str, str]:
    """The residual midpoint and radius of a dzv.cli report row, from the
    residual's exact midpoint and radius."""
    rad = res.radius_fraction()
    if rad:
        m, e = _reference_radius_digits(rad.numerator, rad.denominator)
        digits = max(1 - e, 0)
        rad_s = _reference_sci(m + 1, e) if m < 99 else _reference_sci(10, e + 1)
    else:
        digits, rad_s = 60, "0"
    return decimal_truncate(res.midpoint_fraction(), digits), rad_s


# ---------------------------------------------------------------------------
# a reference copy of dzv.cli's integer printer, as it stood before its
# kernels were tuned for speed: the tuned printer must match it string for string
# ---------------------------------------------------------------------------

def _reference_dy_add(m1: int, e1: int, m2: int, e2: int) -> Tuple[int, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 <= e2:
        return m1 + (m2 << (e2 - e1)), e1
    return m2 + (m1 << (e1 - e2)), e2


def _reference_truncated(m: int, e: int, digits: int) -> int:
    scaled = abs(m) * 10 ** digits
    return scaled << e if e >= 0 else scaled >> -e


def _reference_decimal_truncate(m: int, e: int, digits: int) -> str:
    scaled = _reference_truncated(m, e, digits)
    sign = "-" if m < 0 and scaled else ""
    s = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _reference_shared_digits(a: int, b: int) -> Tuple[int, int]:
    diff = b - a
    if not diff:
        return b, 0
    j = len(str(diff))
    h, r = divmod(b, 10 ** j)
    if r >= diff:
        return h, j
    t = str(h)
    n = len(t) - len(t.rstrip("0")) + 1
    return h // 10 ** n, j + n


def reference_certified_decimal(ball: RealBall, max_digits: int) -> str:
    mm, me, rm, re = ball.dyadic()
    lo, hi = _reference_dy_add(mm, me, -rm, re), _reference_dy_add(mm, me, rm, re)
    if lo[0] <= 0 <= hi[0]:
        return "0"
    head, j = _reference_shared_digits(*sorted(_reference_truncated(m, e, max_digits)
                                               for m, e in (lo, hi)))
    if j > max_digits:
        den = 1 << max(-me, 0)
        n, r = divmod(abs(mm) << max(me, 0), den)
        s = str(n + (2 * r + (n & 1) > den))
    else:
        k = max_digits - j
        t = str(head).rjust(k + 1, "0")
        ia, fa = t[:len(t) - k], t[len(t) - k:]
        s = f"{ia}.{fa}" if k or ia == "0" else ia
    return "-" + s if hi[0] < 0 and s.strip("0.") else s


def _reference_radius_digits(num: int, den: int) -> Tuple[int, int]:
    e = len(str(num)) - len(str(den))
    if num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):
        e -= 1
    m = -(-num * 10 ** max(1 - e, 0) // (den * 10 ** max(e - 1, 0)))
    if m >= 100:
        m //= 10
        e += 1
    return m, e


def _reference_sci(m: int, e: int) -> str:
    return f"{m / 10:.1f}e{e:+03d}"


def reference_residual_strings(res: RealBall) -> Tuple[str, str]:
    """A report row's residual midpoint and radius, from the residual's integers."""
    mm, me, rm, re = res.dyadic()
    if rm:
        m, e = _reference_radius_digits(*((rm << re, 1) if re >= 0 else (rm, 1 << -re)))
        digits = max(1 - e, 0)
        rad_s = _reference_sci(m + 1, e) if m < 99 else _reference_sci(10, e + 1)
    else:
        digits, rad_s = 60, "0"
    return _reference_decimal_truncate(mm, me, digits), rad_s


# ---------------------------------------------------------------------------
# the complex Horner kernel: T_l and the divided difference at any point
# ---------------------------------------------------------------------------

def _ceil_modulus(re: int, im: int) -> int:
    """ceil(sqrt(re^2 + im^2)), exact when im = 0."""
    n = re * re + im * im
    s = isqrt(n)
    return s + (s * s != n)


def _homogeneous(coeffs: Sequence[Optional[RealBall]], x: ComplexBall, y: ComplexBall,
                 wp: int) -> ComplexBall:
    """Enclosure of P(x, y) = sum_{i=0..d} c_i x^i y^(d-i), d = len(coeffs) - 1,
    for real balls c_i (None for an absent term) and complex balls x, y,
    rounded to wp bits.

    Rescale.  P(x, y) = 2^(kd) P(2^-k x, 2^-k y), with 2^k <= the larger
    midpoint modulus < 2^(k+1), so a small point loses no bits to an absolute
    unit.  After the rescale every midpoint and radius is an integer at the
    unit u = 2^-W, exactly: W is at or above every input exponent.

    Midpoint.  With x~, y~, c~_i the midpoints, the floored chain
    p_j = floor(p_(j-1) y~) and homogeneous Horner
    h <- floor(h x~) + floor(c~_i p_(d-i)), i = d..0, give h near
    P(x~, y~).  A complex floor floors each component, low by less than one
    unit when it leaves a remainder and exact otherwise, so its modulus error
    is at most the count of inexact components.  An error e in p_(j-1) is at
    most e |y~| in p_(j-1) y~, an error E in h at most E |x~| in h x~, and
    one in p_(d-i) at most |c~_i| e in c~_i p_(d-i); with ceilings of |x~|
    and |y~| (isqrt, exact for a real midpoint) the counted bound
    E >= |h - P(x~, y~)| is carried in integers.

    Radius.  For x, y, c_i anywhere in their balls, |x - x~| <= rx
    = rad(re x) + rad(im x), likewise ry, and |c_i - c~_i| <= r_i.  Each term
    is a product of d + 1 factors, and

        |prod a_k - prod b_k| <= sum_k |a_k - b_k| prod_(m!=k) (|b_m| + r_m)

    (telescope through a_1..a_k b_(k+1)..b_n and use |a_m| <= |b_m| + r_m),
    so with X = ceil|x~| + rx, Y = ceil|y~| + ry and C_i = |c~_i| + r_i

        |P(c, x, y) - P(c~, x~, y~)| <= sum_i r_i X^i Y^(d-i)
            + C_i (i rx X^(i-1) Y^(d-i) + (d-i) ry X^i Y^(d-i-1)),

    summed with ceilings.  Both parts get the radius E + that sum; real
    inputs (exact-zero imaginary parts) give an exact-zero imaginary part.

    The bound holds for any W, which only sizes the radius.  Each step adds
    at most two floors and one unit per ceiling, and after the rescale
    M = max(X, Y) >= 1, so E <= 8 (d+1)^2 max(1, C_i) M^d units; the lower
    bound wp + 2 bitlen(d+1) + 16 on W keeps E u below 2^-(wp+12) of that
    scale of the terms.
    """
    d = len(coeffs) - 1
    parts = [b.dyadic() for b in (x.real, x.imag, y.real, y.imag)]
    present = [(i, c.dyadic()) for i, c in enumerate(coeffs) if c is not None]
    # 2^k <= the larger midpoint modulus < 2^(k+1), from the squares at unit 2^-v
    v = -min(me for _, me, _, _ in parts)
    sq = [(mm << (me + v)) ** 2 for mm, me, _, _ in parts]
    sq = max(sq[0] + sq[1], sq[2] + sq[3])
    k = (sq.bit_length() - 1) // 2 - v if sq else 0
    width = max(wp + 2 * (d + 1).bit_length() + 16,
                k - min(min(me, re) for _, me, _, re in parts),
                -min((min(me, re) for _, (_, me, _, re) in present), default=0))
    one, mask = 1 << width, (1 << width) - 1
    xr, xi, yr, yi = (mm << (me - k + width) for mm, me, _, _ in parts)
    rx, ry = ((parts[j][2] << (parts[j][3] - k + width))
              + (parts[j + 1][2] << (parts[j + 1][3] - k + width)) for j in (0, 2))
    # ceilings of |x~| and |y~|; c~_i, r_i and C_i = |c~_i| + r_i
    ax, ay = _ceil_modulus(xr, xi), _ceil_modulus(yr, yi)
    cs = [None] * (d + 1)
    for i, (mm, me, rm, re) in present:
        c, r = mm << (me + width), rm << (re + width)
        cs[i] = c, r, abs(c) + r

    # p_j ~ y~^j with its counted error, j = 0..d
    ypow = [(one, 0, 0)]
    for _ in range(d):
        pr, pi, e = ypow[-1]
        a, b = pr * yr - pi * yi, pr * yi + pi * yr
        ypow.append((a >> width, b >> width,
                     -(-e * ay >> width) + (a & mask != 0) + (b & mask != 0)))
    hr = hi = err = 0
    for i in range(d, -1, -1):
        a, b = hr * xr - hi * xi, hr * xi + hi * xr
        hr, hi = a >> width, b >> width
        err = -(-err * ax >> width) + (a & mask != 0) + (b & mask != 0)
        if cs[i] is not None:
            c, _, big_c = cs[i]
            pr, pi, e = ypow[d - i]
            a, b = c * pr, c * pi
            hr += a >> width
            hi += b >> width
            err += -(-big_c * e >> width) + (a & mask != 0) + (b & mask != 0)

    # the majorant at unit u^4, with X^i and Y^j ceilings at unit u
    xs, ys = [one], [one]
    for _ in range(d):
        xs.append(-(-xs[-1] * (ax + rx) >> width))
        ys.append(-(-ys[-1] * (ay + ry) >> width))
    acc = 0
    for i, _ in present:
        _, r, big_c = cs[i]
        acc += r * xs[i] * ys[d - i] << width
        if rx and i:
            acc += big_c * i * rx * xs[i - 1] * ys[d - i]
        if ry and i < d:
            acc += big_c * (d - i) * ry * xs[i] * ys[d - i - 1]
    rad = -(-acc >> 3 * width) + err
    exp = k * d - width
    real = _rounded(hr, exp, rad, exp, wp)
    if x.imag.is_zero() and y.imag.is_zero():
        return ComplexBall(real, RealBall.zero())
    return ComplexBall(real, _rounded(hi, exp, rad, exp, wp))


# ---------------------------------------------------------------------------
# eq26, one dot product per term
# ---------------------------------------------------------------------------

def divided_difference(x, y, l: int, wp: int) -> RealBall:
    """(x^(l-1) - y^(l-1)) / (x - y) = sum_{i+j=l-2} x^i y^j as its own dot
    product over the all-ones coefficient vector."""
    return _dot(((1,) * (l - 1), (0,) * (l - 1), 0), x, y, wp)


def eq26_sides_by_dots(l: int, x, y, ctx: PrecisionCtx) -> Tuple[RealBall, RealBall]:
    """eq26's sides T_l(x+y, y) + T_l(x+y, x) and T_l(x, y) + T_l(y, x) plus
    the divided difference times zeta(l), each T_l and the divided
    difference one ``gen_poly_eval``-style dot product that builds its own
    powers of its own two points."""
    t = get_table(l, ctx)
    wp = ctx.working_precision + GUARD_BITS
    rhs = gen_poly_eval(t, x, y).add(gen_poly_eval(t, y, x), wp)
    xy = Fraction(x) + y
    lhs = gen_poly_eval(t, xy, y).add(gen_poly_eval(t, xy, x), wp)
    dd = divided_difference(x, y, l, wp)
    return lhs, rhs.add(dd.mul(zeta_numeric(l, ctx), wp), wp)


# ---------------------------------------------------------------------------
# every table check's sides composed term by term
# ---------------------------------------------------------------------------

def _rounded_dot(t, weights: Sequence[int], wp: int) -> RealBall:
    """sum weights[i] c_i over the table's vector, the sums of the midpoint
    and radius mantissas rounded once and whole, with no content taken out."""
    mids, rads, e = t.vector
    return _rounded(sum(map(mul, mids, weights)), e,
                    sum(map(mul, rads, map(abs, weights))), e, wp)


def _class_dot(t, coeffs: Sequence[int], wp: int) -> RealBall:
    return _rounded_dot(t, [coeffs[(i + 1) % 6] for i in range(t.weight - 1)], wp)


def _scaled(ball: RealBall, c, wp: int) -> RealBall:
    """c * ball, exact when c is dyadic, else one ball product."""
    den = c.denominator
    if den & (den - 1) == 0:
        return mul_2exp(ball.mul_int(c.numerator), -(den.bit_length() - 1))
    return ball.mul(RealBall.from_fraction(c, wp), wp)


def composed_checks(suite: str, l: int, ctx: PrecisionCtx) -> List[CheckReport]:
    """A table suite's checks at weight l (none outside its hypothesis),
    judged by dzv's pass rule on sides composed of separately rounded terms,
    as dzv built them before every side became one form rounded once: a
    ``_STATEMENTS`` row as a class sum against ball_sum(z zeta(l), c * class
    sum); weighted-sum as T_l(2, 1) against zeta(l) times (l+1)/2; harmonic's
    right side as two entries plus zeta(l), added in turn; lemma1's right
    sides as 3 times a class sum plus the shared tail (l+1)/2 zeta(l) -
    T_l(-1, 1); eq26 as ``eq26_sides_by_dots``."""
    wp = ctx.working_precision + GUARD_BITS
    if suite == "eq26":
        pts, extra = _eq26_plan(l)
        ectx = PrecisionCtx(ctx.working_precision + extra, ctx.target_tolerance)
        return [check_from_sides(f"eq26[l={l},x={x},y={y}]", l,
                                 *eq26_sides_by_dots(l, x, y, ectx), ectx) for x, y in pts]
    t = get_table(l, ctx)
    zl = zeta_numeric(l, ctx)
    half_lp1 = RealBall.from_fraction(Fraction(l + 1, 2), wp)
    sides = []
    if suite in _STATEMENTS:
        modulus, by_residue, _ = _STATEMENTS[suite]
        for tag, lhs, z, c, rhs in by_residue.get(l % modulus, []):
            terms = [_scaled(zl, Fraction(z), wp)] if z else []
            if c:
                terms.append(_scaled(_class_dot(t, rhs, wp), Fraction(c), wp))
            sides.append((f"{suite}.{tag}[l={l}]" if tag else f"{suite}[l={l}]",
                          _class_dot(t, lhs, wp), ball_sum(terms, wp)))
    elif suite == "weighted-sum":
        sides.append((f"weighted-sum[l={l}]", gen_poly_eval(t, 2, 1), zl.mul(half_lp1, wp)))
    elif suite == "harmonic":
        sides += [(f"harmonic[{a},{l - a}]",
                   zeta_numeric(a, ctx).mul(zeta_numeric(l - a, ctx), wp),
                   t.entry(a, l - a).add(t.entry(l - a, a), wp).add(zl, wp))
                  for a in range(2, l // 2 + 1)]
    else:
        assert suite == "lemma1", suite
        shared_tail = zl.mul(half_lp1, wp).sub(_class_dot(t, _T_M11, wp), wp)
        for tag, (a, b), residue, sign, tail in _LEMMA1:
            classes = _lemma1_classes(a, b, l)
            x, y = _AT_ONE[a], _AT_ONE[b]
            lhs = _rounded_dot(t, [x ** i * y ** (l - 2 - i) + classes[(i + 1) % 6]
                                   for i in range(l - 1)], wp)
            rhs = _class_dot(t, [sign[c] if c % 3 == residue(l) % 3 else 0 for c in range(6)],
                             wp).mul_int(3)
            sides.append((f"lemma1.{tag}[l={l}]", lhs, rhs.add(shared_tail, wp) if tail else rhs))
        sides.append((f"lemma1.eq5[l={l}]", zl.mul_int(_lemma1_eq5_count(l)),
                      zl.mul_int(3 * ((l + 1) // 3))))
    return [check_from_sides(label, l, lhs, rhs, ctx) for label, lhs, rhs in sides]


# ---------------------------------------------------------------------------
# Lemma 1, one equation at a time
# ---------------------------------------------------------------------------

# each row's arguments of T_l as written in the paper, at the root x
LEMMA1_ARGUMENTS = {"eq1": ("x+1", "1"), "eq2": ("x+1", "x"), "eq3": ("x", "1"),
                    "eq4": ("1", "x")}


def _alternating_mod3_sum(t, res3: int) -> RealBall:
    """sum over l1 = res3 (mod 3) of (-1)^(l1-1) zeta(l1, l2)."""
    return restricted_sum(t, [(1 if r % 2 else -1) if r % 3 == res3 % 3 else 0 for r in range(6)])


def _plain_mod3_sum(t, res3: int) -> RealBall:
    """sum over l1 = res3 (mod 3) of zeta(l1, l2)."""
    return restricted_sum(t, [int(r % 3 == res3 % 3) for r in range(6)])


def lemma1_explicit(l: int, ctx: PrecisionCtx) -> list:
    """Lemma 1's five equations, each written out by hand, with every T_l and
    divided difference evaluated by the complex Horner kernel at x = 1, omega
    and omega^2 and summed as complex balls: the independent reference whose
    sides ``dzv.identities.lemma1_check``'s must intersect."""
    t = get_table(l, ctx)
    wp = ctx.working_precision + GUARD_BITS
    # omega's radius enters the kernel's majorant times sum_i i C_i X^(i-1) Y^(d-i),
    # X, Y about 1: at most about l zeta(l) for T_l (the sum formula) and l^2/2
    # for the divided difference, so 2 bitlen(l) bits above wp keep it below
    # 2^-wp of each side
    omega = cube_root_of_unity(PrecisionCtx(wp + 2 * l.bit_length()))
    one = ComplexBall.from_real(RealBall.from_int(1))
    xs = [one, omega, ComplexBall(omega.real, omega.imag.neg())]
    coeffs = [None] + [t.entry(l1, l - l1) for l1 in range(2, l)]
    zl = zeta_numeric(l, ctx)
    zl_c = ComplexBall.from_real(zl)
    t_m11 = ComplexBall.from_real(restricted_sum(t, _T_M11))
    half_lp1 = RealBall.from_fraction(Fraction(l + 1, 2), wp)
    shared_tail = ComplexBall.from_real(zl.mul(half_lp1, wp)).sub(t_m11, wp)

    def T(xb: ComplexBall, yb: ComplexBall) -> ComplexBall:
        return _homogeneous(coeffs, xb, yb, wp)

    def judge(label: str, weight: int, lhs: ComplexBall, rhs: ComplexBall,
              ctx: PrecisionCtx) -> CheckReport:
        """dzv's pass rule, judged on both parts of complex sides in exact
        rationals: each part of the residual within the tolerance, and the
        sides intersecting."""
        res = lhs.sub(rhs, wp)
        passed = (zero_within(res.real, ctx.target_tolerance)
                  and zero_within(res.imag, ctx.target_tolerance) and intersects(lhs, rhs))
        return CheckReport(label, weight, lhs, rhs, res, passed, ctx.target_tolerance)

    reports = []

    lhs1 = complex_sum((T(x.add(one, wp), one) for x in xs), wp)
    rhs1 = ComplexBall.from_real(_alternating_mod3_sum(t, 1).mul_int(3)).add(shared_tail, wp)
    reports.append(judge(f"lemma1.eq1[l={l}]", l, lhs1, rhs1, ctx))

    lhs2 = complex_sum((T(x.add(one, wp), x) for x in xs), wp)
    rhs2 = ComplexBall.from_real(
        _alternating_mod3_sum(t, (2 * l) % 3).mul_int(3)).add(shared_tail, wp)
    reports.append(judge(f"lemma1.eq2[l={l}]", l, lhs2, rhs2, ctx))

    lhs3 = complex_sum((T(x, one) for x in xs), wp)
    rhs3 = ComplexBall.from_real(_plain_mod3_sum(t, 1).mul_int(3))
    reports.append(judge(f"lemma1.eq3[l={l}]", l, lhs3, rhs3, ctx))

    lhs4 = complex_sum((T(one, x) for x in xs), wp)
    rhs4 = ComplexBall.from_real(_plain_mod3_sum(t, (l - 1) % 3).mul_int(3))
    reports.append(judge(f"lemma1.eq4[l={l}]", l, lhs4, rhs4, ctx))

    ones = [RealBall.from_int(1)] * (l - 1)
    dd_sum = complex_sum((_homogeneous(ones, x, one, wp) for x in xs), wp)
    lhs5 = dd_sum.mul(zl_c, wp)
    rhs5 = ComplexBall.from_real(zl.mul_int(3 * ((l + 1) // 3)))
    reports.append(judge(f"lemma1.eq5[l={l}]", l, lhs5, rhs5, ctx))

    return reports


# ---------------------------------------------------------------------------
# the cube roots of unity in exact arithmetic: Q(sqrt -3)
# ---------------------------------------------------------------------------

# p + q sqrt(-3) as the pair (p, q) of rationals; omega = (-1 + sqrt(-3))/2
_Q3_ROOT = {"1": (Fraction(1), Fraction(0)), "x": (Fraction(-1, 2), Fraction(1, 2)),
            "x+1": (Fraction(1, 2), Fraction(1, 2))}


def _q3_mul(u: tuple, v: tuple) -> tuple:
    return u[0] * v[0] - 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _q3_powers(u: tuple, n: int) -> list:
    """u^0, u^1, ..., u^n."""
    out = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        out.append(_q3_mul(out[-1], u))
    return out


def lemma1_pair_coefficients(tag: str, l: int) -> dict:
    """{l1: X^(l1-1) Y^(l2-1) + its conjugate} over the weight-l pairs, for
    (X, Y) the arguments of Lemma 1's row ``tag`` at x = omega, multiplied out
    in Q(sqrt -3); the x = omega^2 term is the conjugate.  Each value is the
    integer 2 Re."""
    xs, ys = (_q3_powers(_Q3_ROOT[name], l - 2) for name in LEMMA1_ARGUMENTS[tag])
    out = {}
    for l1 in range(2, l):
        p, _ = _q3_mul(xs[l1 - 1], ys[l - l1 - 1])
        assert (2 * p).denominator == 1
        out[l1] = int(2 * p)
    return out


def roots_of_unity_count(l: int) -> tuple:
    """sum over x in {1, omega, omega^2} of sum_{i<=l-2} x^i, in Q(sqrt -3)."""
    omega = _Q3_ROOT["x"]
    terms = [u for x in (_Q3_ROOT["1"], omega, (omega[0], -omega[1]))
             for u in _q3_powers(x, l - 2)]
    return sum(p for p, _ in terms), sum(q for _, q in terms)
