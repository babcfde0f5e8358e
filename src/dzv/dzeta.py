"""Double zeta values zeta(l1, l2) = sum_{m1 > m2 > 0} m1^-l1 m2^-l2 with
certified radii, per-weight tables, the weight-l generating polynomial
T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2), and the two sides of its
two-variable functional equation.

Evaluation strategy: the inner sum over m1 > m2 is zeta(l1, m2+1), and every
Hurwitz value needed sits at the one point A = M+1.  The first M values of m2
give the direct part

    sum_{m2<=M} m2^-l2 zeta(l1, m2+1) = S_M + H_M zeta(l1, A),
    S_M = sum_{M>=m1>m2>=1} m1^-l1 m2^-l2,   H_M = sum_{m<=M} m^-l2,

and S_M and H_M are summed in integer fixed point with unit 2^-W.  Every
floor(2^W / m^k) is low by less than one unit, so H_M is low by less than M
units and S_M by less than M^2 units; W leaves these counted errors below
2^-(wp+l1).  For the tail m2 >= A, Euler-Maclaurin expands each
zeta(l1, m2+1) in powers of m2; summing against m2^-l2 turns every power into
a Hurwitz value, so

    tail = zeta(w-1, A)/(l1-1) - zeta(w, A)/2 + sum_{k<K} c_k zeta(w-1+2k, A),
    c_k = B_2k (l1)_{2k-1} / (2k)!,   w = l1 + l2.

Each tail term, a rational times one Hurwitz ball, is one integer floor of
its midpoint and one integer ceiling of its radius at unit 2^-W, and the tail
is one ball centred on the counted interval of those floors.  The remainder
is bounded by 4 |c_K| zeta(w-1+2K, A), the 4x-first-omitted rule of the
Hurwitz evaluator (one ``zeta._em_truncate`` for both) applied to each m2 and
summed, and added to the radius.  One weight-w table reads the same vector
zeta(w-1+j, A).

T_l and the divided difference (x^(l-1) - y^(l-1)) / (x - y) are homogeneous
polynomials in (x, y).  At exact real dyadic points x = a 2^s, y = b 2^s, the
points of eq26 and lemma1's x = 1 terms, each is one exact dot product of the
integers a^i b^(d-i) with a coefficient vector of integer mantissas at one
exponent (T_l's is built with its table, the divided difference's is all
ones), rounded once.  At inexact or complex points ``_homogeneous`` evaluates
both: it rescales x and y by one power of two, runs Horner's rule in integer
fixed point with counted floors, and bounds the spread over the input balls by
a first-order majorant with its exact remainder; no ball product per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .numerics import (
    GUARD_BITS,
    ComplexBall,
    DomainError,
    OutsideHypothesis,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    _rounded,
    ball_sum,
    require_exact,
)
from .zeta import _em_coefficients, _em_truncate, hurwitz_zeta, zeta_numeric

__all__ = [
    "IndexPair",
    "DzvTable",
    "double_zeta",
    "build_table",
    "get_table",
    "gen_poly_eval",
    "functional_eq26_sides",
    "functional_eq26_check",
]

@dataclass(frozen=True, order=True)
class IndexPair:
    """Argument pair of a double zeta value; convergent iff l1 >= 2, l2 >= 1."""

    l1: int
    l2: int

    def __post_init__(self):
        require_exact(self.l1, "l1", (int,))
        require_exact(self.l2, "l2", (int,))
        if self.l1 < 2 or self.l2 < 1:
            raise DomainError(f"zeta({self.l1},{self.l2}) diverges; need l1 >= 2, l2 >= 1")

    @property
    def weight(self) -> int:
        return self.l1 + self.l2


def _direct_sums(l1: int, l2: int, m_cut: int, wp: int) -> tuple[RealBall, RealBall]:
    """Balls for S_M = sum_{M>=m1>m2>=1} m1^-l1 m2^-l2 and H_M = sum_{m<=M} m^-l2,
    M = m_cut, whose radii add up to at most 2^-(wp+l1+3).

    With unit u = 2^-W, h holds the floored H_(m-1) (low by less than m-1
    units) when it meets f = floor(2^W / m^l1) (low by less than one unit), so
    the product f h, in units u^2, is low by less than H_(m-1) 2^W
    + (m-1) 2^W m^-l1 <= 1.25 (m-1) 2^W.  Summed over m <= M that is below
    M^2 u for S_M, and H_M is low by less than M u; each ball is centered on
    its one-sided interval.  W makes (M^2 + M) u <= 2^-(wp+l1+2).
    """
    width = wp + l1 + 2 * (m_cut + 1).bit_length() + 2
    one = 1 << width
    h = s = 0
    for m in range(1, m_cut + 1):
        s += one // m ** l1 * h
        h += one // m ** l2
    sq = m_cut * m_cut
    return (RealBall.from_floors(s, sq << width, 0, 2 * width),
            RealBall.from_floors(h, m_cut, 0, width))


def _tail(l1: int, w: int, wp: int, hz) -> RealBall:
    """Ball for the Euler-Maclaurin tail sum_{m2>=A} m2^-l2 zeta(l1, m2+1),
    w = l1 + l2, with hz(s) the ball for zeta(s, A):

        zeta(w-1, A)/(l1-1) - zeta(w, A)/2 + sum_{k<K} c_k zeta(w-1+2k, A) + R.

    Each term (num/den) zeta(s, A) is two integers at unit u = 2^-W from
    ``RealBall.scaled_floors``: the floor f of num mid / den and the ceiling
    r of |num| rad / den, so the term lies in [f - r, f + 1 + r] and
    |f| + 1 + r bounds it for the truncation.  The F floors are low by less
    than F units, and the ball is centred on that one-sided interval.
    While l1 + 2k <= 2A, |c_k| zeta(w-1+2k, A) shrinks by a factor of about
    (l1+2k)^2 / (2 pi A)^2 <= 1/pi^2 per k, from below 1 at k = 1 down to
    the stopping bound 2^-(wp+l1+2), so F = K + 2 <= wp + l1, and
    W = wp + l1 + bitlen(wp+l1) + 2 keeps F u below 2^-(wp+l1+2).  (W only
    sizes the radius: F is counted, so the ball encloses for any K.)
    """
    width = wp + l1 + (wp + l1).bit_length() + 2
    terms = [hz(w - 1).scaled_floors(1, l1 - 1, width), hz(w).scaled_floors(-1, 2, width)]
    # hz(w-1+2k) is evaluated only when the truncation draws term k
    corrections = (hz(w - 1 + 2 * k).scaled_floors(num, den, width)
                   for k, (num, den) in enumerate(_em_coefficients(l1), 1))
    # zeta(l1, l2) >= 2^-l1, so a remainder below 2^-(wp+l1) is below 2^-wp of the
    # value; |R_m| <= 4 |c_K| m^(1-l1-2K) for each m, so the tail's remainder is
    # at most 4 |c_K| zeta(w-1+2K, A)
    kept, rem = _em_truncate((((f, r), abs(f) + 1 + r) for f, r in corrections),
                             1 << (width - wp - l1))
    terms += kept
    floors = len(terms)
    total = sum(f for f, _ in terms)
    rad = sum(r for _, r in terms) + rem
    return RealBall.from_floors(total, floors, rad, width)


def _double_zeta_once(l1: int, l2: int, wp: int, m_cut: int) -> RealBall:
    a_cut = m_cut + 1
    hz_ctx = PrecisionCtx(wp)

    def hz(s: int) -> RealBall:
        return hurwitz_zeta(s, a_cut, hz_ctx)

    # direct part: sum_{m2<=M} m2^-l2 zeta(l1, m2+1) = S_M + H_M zeta(l1, A);
    # tail: zeta(l1, m+1) = m^(1-l1)/(l1-1) - m^-l1/2 + sum_k c_k m^(1-l1-2k) + R_m
    # for every m >= A, summed against m^-l2
    s_m, h_m = _direct_sums(l1, l2, m_cut, wp)
    return ball_sum([s_m, h_m.mul(hz(l1), wp), _tail(l1, l1 + l2, wp, hz)], wp)


def double_zeta(p: IndexPair, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(l1, l2), radius at most 2^(1-w) relative to the
    value at working precision w, from one evaluation at the direct-sum cutoff
    M = max(32, wp/2): the direct sums and the Euler-Maclaurin tail are each
    summed in integer fixed point, and the tail depth follows the target.
    Raises PrecisionUnreachableError if the radius misses that target."""
    l1, l2 = p.l1, p.l2
    target = ctx.working_precision
    wp = target + GUARD_BITS
    result = _double_zeta_once(l1, l2, wp, max(32, wp // 2))
    if result.meets_relative_radius(target - 1):
        return result
    raise PrecisionUnreachableError(
        f"double_zeta({l1},{l2}) did not reach 2^-{target} relative radius"
    )


@dataclass(frozen=True)
class DzvTable:
    """All double zeta values of one weight at one working precision: entries
    over l1 >= 2, l2 >= 1, l1 + l2 = weight (exactly weight - 2 of them), and
    T_l's coefficient vector from ``_coefficient_vector``."""

    weight: int
    precision: int
    entries: Mapping[IndexPair, RealBall]
    vector: tuple

    def entry(self, l1: int, l2: int) -> RealBall:
        return self.entries[IndexPair(l1, l2)]

    def pairs(self) -> list[IndexPair]:
        return sorted(self.entries.keys())


def _table_weight(l: int) -> int:
    if require_exact(l, "a table weight", (int,)) < 3:
        raise OutsideHypothesis("needs weight >= 3")  # no convergent pair below
    return l


def build_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Compute the complete weight-l table at the context's working precision."""
    pairs = [IndexPair(l1, l - l1) for l1 in range(2, _table_weight(l))]
    values = [double_zeta(q, ctx) for q in pairs]
    return DzvTable(l, ctx.working_precision, MappingProxyType(dict(zip(pairs, values))),
                    _coefficient_vector([None] + values))


@cache
def _table(l: int, precision: int) -> DzvTable:
    return build_table(l, PrecisionCtx(precision))


def get_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Memoized tables; the key is (weight, working precision), and a table
    holds nothing else of the context.  The weight is checked before the memo,
    where 12.0 would hit the entry for 12 and weight 2 would count a miss."""
    return _table(_table_weight(l), ctx.working_precision)


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


def _coefficient_vector(coeffs: Sequence[Optional[RealBall]]) -> tuple:
    """(mids, rads, e): c_i has midpoint mids[i] 2^e and radius rads[i] 2^e,
    e the least exponent of any part; None is an absent term."""
    parts = [(0, 0, 0, 0) if c is None else c.dyadic() for c in coeffs]
    e = min(min(me, re) for _, me, _, re in parts)
    return (tuple(mm << (me - e) for mm, me, _, _ in parts),
            tuple(rm << (re - e) for _, _, rm, re in parts), e)


def _dot(vector: tuple, x: ComplexBall, y: ComplexBall, wp: int) -> Optional[ComplexBall]:
    """P(x, y) = sum_i c_i x^i y^(d-i) for the coefficient vector (mids, rads, e)
    when x = a 2^s and y = b 2^s are exact real dyadics (zero radii and
    exact-zero imaginary parts), else None.  With t_i = a^i b^(d-i), the
    midpoint sum mids[i] t_i and the radius sum rads[i] |t_i| are exact
    integers at the unit 2^(e + sd), rounded once to wp bits."""
    (xm, xe, xr, _), (ym, ye, yr, _) = x.real.dyadic(), y.real.dyadic()
    if xr or yr or not (x.imag.is_zero() and y.imag.is_zero()):
        return None
    mids, rads, e = vector
    d, s = len(mids) - 1, min(xe, ye)
    ys = list(accumulate(repeat(ym << (ye - s), d), mul, initial=1))
    terms = list(map(mul, accumulate(repeat(xm << (xe - s), d), mul, initial=1), reversed(ys)))
    mid, rad = sum(map(mul, mids, terms)), sum(map(mul, rads, map(abs, terms)))
    return ComplexBall(_rounded(mid, e + s * d, rad, e + s * d, wp), RealBall.zero())


def gen_poly_eval(t: DzvTable, x: ComplexBall, y: ComplexBall) -> ComplexBall:
    """Enclosure of T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2): the
    homogeneous polynomial of degree l - 2 whose x^(l1-1) coefficient is
    zeta(l1, l - l1) (there is none at l1 = 1); one ``_dot`` over the table's
    vector at an exact real dyadic point, else one ``_homogeneous`` pass."""
    wp = t.precision + GUARD_BITS
    z = _dot(t.vector, x, y, wp)
    if z is None:
        coeffs = [None] * (t.weight - 1)
        for pair, value in t.entries.items():
            coeffs[pair.l1 - 1] = value
        z = _homogeneous(coeffs, x, y, wp)
    return z


def gen_poly_real(t: DzvTable, x: Fraction, y: Fraction) -> RealBall:
    """T_l at exact rational real arguments."""
    wp = t.precision + GUARD_BITS
    xb = ComplexBall.from_fractions(x, 0, wp)
    yb = ComplexBall.from_fractions(y, 0, wp)
    return gen_poly_eval(t, xb, yb).real


def _divided_difference(x: ComplexBall, y: ComplexBall, l: int, wp: int) -> ComplexBall:
    """(x^(l-1) - y^(l-1)) / (x - y) as the homogeneous sum
    sum_{i+j=l-2} x^i y^j, finite at x = y: the all-ones vector."""
    z = _dot(((1,) * (l - 1), (0,) * (l - 1), 0), x, y, wp)
    return _homogeneous([RealBall.from_int(1)] * (l - 1), x, y, wp) if z is None else z


def functional_eq26_sides(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> tuple[ComplexBall, ComplexBall]:
    """Both sides of the two-variable functional equation

        T_l(x+y, y) + T_l(x+y, x) = T_l(x, y) + T_l(y, x)
                                    + [(x^(l-1) - y^(l-1)) / (x - y)] zeta(l);

    the divided difference is evaluated in homogeneous form, so x = y is fine.
    """
    t = get_table(l, ctx)
    wp = ctx.working_precision + GUARD_BITS
    xy = x.add(y, wp)
    lhs = gen_poly_eval(t, xy, y).add(gen_poly_eval(t, xy, x), wp)
    rhs = gen_poly_eval(t, x, y).add(gen_poly_eval(t, y, x), wp)
    dd = _divided_difference(x, y, l, wp)
    zl = ComplexBall.from_real(zeta_numeric(l, ctx))
    return lhs, rhs.add(dd.mul(zl, wp), wp)


def functional_eq26_check(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> ComplexBall:
    """Residual lhs - rhs of the functional equation; must contain zero."""
    lhs, rhs = functional_eq26_sides(l, x, y, ctx)
    return lhs.sub(rhs, ctx.working_precision + GUARD_BITS)
