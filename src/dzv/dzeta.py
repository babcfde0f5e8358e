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
polynomials in (x, y), evaluated at exact real dyadic points x = a 2^s,
y = b 2^s only (eq26's points): each is one exact dot product of the
integers a^i b^(d-i) with a coefficient vector of integer mantissas at one
exponent (T_l's is built with its table, the divided difference's is all
ones), rounded once; any other point raises DomainError.  There is no
complex evaluation: with other integer weights the same vector gives every
restricted sum and Lemma 1's sums over the cube roots of unity
(``dzv.identities``), so lemma1 checks the roots-of-unity filter, the
weighted sum formula and an integer count, not a complex kernel.  Horner's
rule at complex points is kept in the tests, as the oracle for lemma1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
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


def _coefficient_vector(coeffs: Sequence[Optional[RealBall]]) -> tuple:
    """(mids, rads, e): c_i has midpoint mids[i] 2^e and radius rads[i] 2^e,
    e the least exponent of any part; None is an absent term."""
    parts = [(0, 0, 0, 0) if c is None else c.dyadic() for c in coeffs]
    e = min(min(me, re) for _, me, _, re in parts)
    return (tuple(mm << (me - e) for mm, me, _, _ in parts),
            tuple(rm << (re - e) for _, _, rm, re in parts), e)


def _vector_dot(vector: tuple, weights: Sequence[int], shift: int, wp: int) -> RealBall:
    """sum_i weights[i] c_i 2^shift for the coefficient vector (mids, rads, e)
    and integer weights: the midpoint sum mids[i] weights[i] and the radius
    sum rads[i] |weights[i]| are exact integers at the unit 2^(e + shift),
    rounded once to wp bits, like ``ball_sum``."""
    mids, rads, e = vector
    return _rounded(sum(map(mul, mids, weights)), e + shift,
                    sum(map(mul, rads, map(abs, weights))), e + shift, wp)


def _dot(vector: tuple, x: ComplexBall, y: ComplexBall, wp: int) -> ComplexBall:
    """P(x, y) = sum_i c_i x^i y^(d-i) for the coefficient vector (mids, rads, e)
    at x = a 2^s and y = b 2^s, exact real dyadics (zero radii and exact-zero
    imaginary parts): one ``_vector_dot`` with the integers a^i b^(d-i) at the
    shift sd.  Any other point raises DomainError."""
    (xm, xe, xr, _), (ym, ye, yr, _) = x.real.dyadic(), y.real.dyadic()
    if xr or yr or not (x.imag.is_zero() and y.imag.is_zero()):
        raise DomainError(f"homogeneous polynomials are evaluated at exact real dyadic "
                          f"points only, got ({x!r}, {y!r})")
    d, s = len(vector[0]) - 1, min(xe, ye)
    ys = list(accumulate(repeat(ym << (ye - s), d), mul, initial=1))
    terms = list(map(mul, accumulate(repeat(xm << (xe - s), d), mul, initial=1), reversed(ys)))
    return ComplexBall(_vector_dot(vector, terms, s * d, wp), RealBall.zero())


def gen_poly_eval(t: DzvTable, x: ComplexBall, y: ComplexBall) -> ComplexBall:
    """Enclosure of T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2): the
    homogeneous polynomial of degree l - 2 whose x^(l1-1) coefficient is
    zeta(l1, l - l1) (there is none at l1 = 1), as one ``_dot`` over the
    table's vector.  x and y must be exact real dyadics, else DomainError."""
    return _dot(t.vector, x, y, t.precision + GUARD_BITS)


def gen_poly_real(t: DzvTable, x: Fraction, y: Fraction) -> RealBall:
    """T_l at exact dyadic rational real arguments; any other rational raises
    DomainError."""
    wp = t.precision + GUARD_BITS
    xb = ComplexBall.from_fractions(x, 0, wp)
    yb = ComplexBall.from_fractions(y, 0, wp)
    return gen_poly_eval(t, xb, yb).real


def _divided_difference(x: ComplexBall, y: ComplexBall, l: int, wp: int) -> ComplexBall:
    """(x^(l-1) - y^(l-1)) / (x - y) as the homogeneous sum
    sum_{i+j=l-2} x^i y^j, finite at x = y: ``_dot`` over the all-ones
    vector, so x and y must be exact real dyadics, else DomainError."""
    return _dot(((1,) * (l - 1), (0,) * (l - 1), 0), x, y, wp)


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
    dd = _divided_difference(x, y, l, wp).real  # a real point: exact-zero imaginary part
    return lhs, rhs.add(ComplexBall.from_real(dd.mul(zeta_numeric(l, ctx), wp)), wp)


def functional_eq26_check(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> ComplexBall:
    """Residual lhs - rhs of the functional equation; must contain zero."""
    lhs, rhs = functional_eq26_sides(l, x, y, ctx)
    return lhs.sub(rhs, ctx.working_precision + GUARD_BITS)
