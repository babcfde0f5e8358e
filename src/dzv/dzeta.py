"""Double zeta values zeta(l1, l2) = sum_{m1 > m2 > 0} m1^-l1 m2^-l2 with
certified radii, per-weight tables, the weight-l generating polynomial
T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2), and the two sides of its
two-variable functional equation.

Evaluation strategy: the inner sum over m1 > m2 is zeta(l1, m2+1), and every
Hurwitz value needed sits at the one point A = M+1.  The first M values of m2
give the direct part

    sum_{m2<=M} m2^-l2 zeta(l1, m2+1) = S_M + H_M zeta(l1, A),
    S_M = sum_{M>=m1>m2>=1} m1^-l1 m2^-l2,   H_M = sum_{m<=M} m^-l2,

and S_M and H_M are summed in integer fixed point with unit 2^-W.  A
weight's pairs share one set of rows floor(2^T / m^k), k < w, m <= M, T the
W of the pair l1 = w - 1, each row one floordiv of the row before (Brent
and Zimmermann, *Modern Computer Arithmetic*, ch. 3-4).  Pair (l1, l2) has
W = T - (l2 - 1) and shifts rows l1 and l2 right by l2 - 1, which is
floor(2^W / m^k) exactly, so H_M is one running sum and S_M one dot
product against its prefix.
Every floor is low by less than one unit, so H_M is low by less than M
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
Hurwitz evaluator (one ``zeta._em_sum`` for both) applied to each m2 and
summed, and added to the radius.  An entry is one ``ball_sum`` of S_M, the
exact product H_M zeta(l1, A) (``_product``) and the tail, its only rounding.
``_double_zetas`` writes each entry straight into T_l's coefficient vector,
and one weight-w table reads the same vector zeta(w-1+j, A) from the one
``zeta._hurwitz`` memo.  A lone value is the entry of its own one-pair vector.

T_l is evaluated at dyadic rationals x = a 2^s, y = b 2^s only (ints or
Fractions, else DomainError), as one exact dot product of the integers
a^i b^(d-i) with the table's vector, rounded once.  Every table check is a
relation between two forms, scale * (sum_l1 w[l1] zeta(l1, l - l1)
+ z zeta(l)) with integer weights w over that vector and rational z and
scale (``_Form``), each evaluated by ``_form_ball``: one exact integer sum,
zeta(l)'s dyadic folded in, rounded once; a form with one weight per class
of l1 mod 6 (``_Classes``) is six products with the table's class totals,
summed at first read.  eq26's sides (each point one ``_point`` in one memo
per weight), every restricted sum and Lemma 1's sums over the cube roots of
unity (``dzv.identities``) are such forms, so no complex number is evaluated;
Horner's rule at complex points is the tests' oracle for lemma1, and
``functional_eq26_check`` takes complex balls only for the benchmark worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, compress, repeat
from math import gcd
from operator import add, floordiv, mul, rshift
from typing import NamedTuple, Sequence

from .numerics import (
    GUARD_BITS,
    ComplexBall,
    DomainError,
    OutsideHypothesis,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    _dy_add,
    _product,
    _rounded,
    _strip_zeros,
    ball_sum,
    require_exact,
)
from .zeta import _em_coefficients, _em_sum, _hurwitz
from .zeta import hurwitz_zeta  # noqa: F401  perfbench's RestoreTest reads dzv.dzeta.hurwitz_zeta

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

@dataclass(frozen=True)
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


def _direct_sums(l: int, l1s: Sequence[int], wp: int,
                 m_cut: int) -> dict[int, tuple[RealBall, RealBall]]:
    """{l1: (S_M, H_M)} for the pairs (l1, l2 = l - l1), l1 in l1s, with
    S_M = sum_{M>=m1>m2>=1} m1^-l1 m2^-l2 and H_M = sum_{m<=M} m^-l2,
    M = m_cut, whose radii add up to at most 2^-(wp+l1+3).

    The rows floor(2^T / m^k), m <= M, come for k = 1, 2, ... in turn, each
    one floordiv of the row before by 1..M, since floor(floor(x) / m)
    = floor(x / m) for positive integers x and m; T is the width of the
    widest pair, l1 = l - 1.  A pair is summed when the later of its rows
    l1 and l2 appears, and an earlier row is kept only until its partner
    row l - k does: besides the current row at most (l-1)/2 are kept, and
    for a lone pair at most one.

    The pair's width is W = T - (l2-1) = wp + l1 + 2 bitlen(M+1) + 2, and
    rows l1 and l2 shifted right by l2 - 1 are floor(2^W / m^l1) and
    floor(2^W / m^l2).  With unit u = 2^-W, h holds the floored H_(m-1) (low
    by less than m-1 units) when it meets f = floor(2^W / m^l1) (low by less
    than one unit), so the product f h, in units u^2, is low by less than
    H_(m-1) 2^W + (m-1) 2^W m^-l1 <= 1.25 (m-1) 2^W.  Summed over m <= M that
    is below M^2 u for S_M, and H_M is low by less than M u; each ball is
    centered on its one-sided interval.  W makes (M^2 + M) u <= 2^-(wp+l1+2).
    """
    top = wp + l - 1 + 2 * (m_cut + 1).bit_length() + 2
    ms, wanted = range(1, m_cut + 1), set(l1s)
    row, kept, sums = [1 << top] * m_cut, {}, {}
    for k in range(1, l):
        row = list(map(floordiv, row, ms))
        pair = wanted & {k, l - k}
        if not pair:
            continue
        if 2 * k < l:
            kept[k] = row  # until row l - k
            continue
        rows = {k: row, l - k: kept.pop(l - k, row)}  # one row when l - k == k
        for l1 in pair:
            shift = l - l1 - 1
            width = top - shift
            # hs[m] is the floored H_m, and f_m meets hs[m-1]
            hs = list(accumulate(map(rshift, rows[l - l1], repeat(shift)), initial=0))
            s = sum(map(mul, map(rshift, rows[l1], repeat(shift)), hs))
            sums[l1] = (RealBall.from_floors(s, m_cut * m_cut << width, 0, 2 * width),
                        RealBall.from_floors(hs[-1], m_cut, 0, width))
    return sums


def _tail(l1: int, w: int, wp: int, hz) -> RealBall:
    """Ball for the Euler-Maclaurin tail sum_{m2>=A} m2^-l2 zeta(l1, m2+1),
    w = l1 + l2, with hz(s) the ball for zeta(s, A), by ``zeta._em_sum``:

        zeta(w-1, A)/(l1-1) - zeta(w, A)/2 + sum_{k<K} c_k zeta(w-1+2k, A) + R.

    Each term (num/den) zeta(s, A) is two integers at unit u = 2^-W from
    ``RealBall.scaled_floors``: the floor f of num mid / den and the ceiling
    r of |num| rad / den, so the term lies in [f - r, f + 1 + r].
    While l1 + 2k <= 2A, |c_k| zeta(w-1+2k, A) shrinks by a factor of about
    (l1+2k)^2 / (2 pi A)^2 <= 1/pi^2 per k, from below 1 at k = 1 down to
    the stopping bound 2^-(wp+l1+2), so F = K + 2 <= wp + l1, and
    W = wp + l1 + bitlen(wp+l1) + 2 keeps F u below 2^-(wp+l1+2).
    """
    width = wp + l1 + (wp + l1).bit_length() + 2
    f1, r1 = hz(w - 1).scaled_floors(1, l1 - 1, width)
    f2, r2 = hz(w).scaled_floors(-1, 2, width)
    # hz(w-1+2k) is evaluated only when the truncation draws term k
    corrections = (hz(w - 1 + 2 * k).scaled_floors(num, den, width)
                   for k, (num, den) in enumerate(_em_coefficients(l1), 1))
    # zeta(l1, l2) >= 2^-l1, so a remainder below 2^-(wp+l1) is below 2^-wp of the
    # value; |R_m| <= 4 |c_K| m^(1-l1-2K) for each m, so the tail's remainder is
    # at most 4 |c_K| zeta(w-1+2K, A)
    return _em_sum(f1 + f2, 2, r1 + r2, corrections, 1 << (width - wp - l1), width)


def _double_zetas(l: int, l1s: Sequence[int], ctx: PrecisionCtx) -> tuple:
    """T_l's coefficient vector (mids, rads, e) with slot l1 - 1 holding
    zeta(l1, l - l1) for l1 in l1s and every other slot 0: each value is
    mids[l1-1] 2^e +- rads[l1-1] 2^e, e the least exponent of any part, and
    its radius is at most 2^(1-w) relative to the value at working precision
    w, from one evaluation at the direct-sum cutoff M = max(32, wp/2).  The
    pairs share the weight's inverse-power rows, dropped on return, and read
    each zeta(s, A) from the one ``zeta._hurwitz`` memo.  Raises
    PrecisionUnreachableError at the first radius that misses that target."""
    target = ctx.working_precision
    wp = target + GUARD_BITS
    m_cut = max(32, wp // 2)

    def hz(s: int) -> RealBall:
        return _hurwitz(s, m_cut + 1, wp)

    sums = _direct_sums(l, l1s, wp, m_cut)
    parts = [(0, 0, 0, 0)] * (l - 1)
    for l1 in l1s:
        s_m, h_m = sums[l1]
        value = ball_sum((s_m, _product(h_m, hz(l1)), _tail(l1, l, wp, hz)), wp)
        if not value.meets_relative_radius(target - 1):
            raise PrecisionUnreachableError(
                f"double_zeta({l1},{l - l1}) did not reach 2^-{target} relative radius")
        parts[l1 - 1] = value.dyadic()
    e = min(min(me, re) for _, me, _, re in parts)
    return (tuple(mm << (me - e) for mm, me, _, _ in parts),
            tuple(rm << (re - e) for _, _, rm, re in parts), e)


def double_zeta(p: IndexPair, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(l1, l2), radius at most 2^(1-w) relative to the
    value at working precision w: the entry of its own one-pair vector, read
    as a table entry is.  Raises PrecisionUnreachableError if the radius
    misses that target."""
    vector = _double_zetas(p.weight, [p.l1], ctx)
    return DzvTable(p.weight, ctx.working_precision, vector).entry(p.l1, p.l2)


@dataclass(frozen=True)
class DzvTable:
    """All double zeta values of one weight at one working precision, held only
    as T_l's coefficient vector (mids, rads, e) from ``_double_zetas``, read
    from the one ``zeta._hurwitz`` memo: zeta(l1, weight - l1), l1 = 2..weight-1,
    is mids[l1-1] 2^e +- rads[l1-1] 2^e."""

    weight: int
    precision: int
    vector: tuple

    @cached_property
    def classes(self) -> tuple:
        """Per class r of l1 mod 6: sums of mids, of rads, and r in 2..weight-1."""
        mids, rads, _ = self.vector
        firsts = [(r - 2) % 6 + 1 for r in range(6)]  # the slot of class r's least l1 >= 2
        return (tuple(sum(mids[i::6]) for i in firsts), tuple(sum(rads[i::6]) for i in firsts),
                tuple(i < self.weight - 1 for i in firsts))

    def entry(self, l1: int, l2: int) -> RealBall:
        """KeyError for a pair of another weight, DomainError for a bad pair."""
        if (p := IndexPair(l1, l2)).weight != self.weight:
            raise KeyError(p)
        mids, rads, e = self.vector
        return RealBall(mids[l1 - 1], e, rads[l1 - 1], e)

    def pairs(self) -> list[IndexPair]:
        return [IndexPair(l1, self.weight - l1) for l1 in range(2, self.weight)]


def _table_weight(l: int) -> int:
    if require_exact(l, "a table weight", (int,)) < 3:
        raise OutsideHypothesis("needs weight >= 3")  # no convergent pair below
    return l


def build_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Compute the complete weight-l table at the context's working precision."""
    return DzvTable(l, ctx.working_precision, _double_zetas(l, range(2, _table_weight(l)), ctx))


@cache
def _table(l: int, precision: int) -> DzvTable:
    return build_table(l, PrecisionCtx(precision))


def get_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Memoized tables; the key is (weight, working precision), and a table
    holds nothing else of the context.  The weight is checked before the memo,
    where 12.0 would hit the entry for 12 and weight 2 would count a miss."""
    return _table(_table_weight(l), ctx.working_precision)


class _Classes(tuple):
    """Six form weights, one per class of l1 mod 6, read from the class totals."""
    __slots__ = ()


class _Form(NamedTuple):
    """scale * (sum_i weights[i] c_i + z zeta(l)) over a table's vector c; the
    weights a list (missing ones are 0), a {slot: weight} dict or ``_Classes``."""

    weights: Sequence[int] | dict[int, int] = ()
    z: int | Fraction = 0
    scale: int | Fraction = 1


def _form_ball(t: DzvTable, form: _Form) -> RealBall:
    """The ball of a form over table t.  The sums of mids[i] weights[i] and
    rads[i] |weights[i]| are exact integers; a nonzero z = p/q adds p
    zeta(l)'s dyadic to q times them, while with z = 0 the weights' integer
    content g is taken out.  That sum over q and the scale's denominator is
    rounded once, then multiplied exactly by g and the scale's numerator, so
    3 S rounds like S.  An integer times zeta(l) is exact, as ``mul_int``.
    Class weights give the same integers from the class totals."""
    weights, z, scale = form
    wp = t.precision + GUARD_BITS
    mids, rads, e = t.vector
    if isinstance(weights, _Classes):
        mids, rads, present = t.classes
        w = list(compress(weights, present))
    elif isinstance(weights, dict):  # read only the slots it names
        mids, rads = [mids[i] for i in weights], [rads[i] for i in weights]
        w, weights = [v for i, v in weights.items() if i], list(weights.values())
    else:
        w = weights[1:]
    if not any(w) and (n := z * scale).denominator == 1:
        return _hurwitz(t.weight, 1, t.precision).mul_int(int(n)) if n else RealBall.zero()
    mm, rm, g = sum(map(mul, mids, weights)), sum(map(mul, rads, map(abs, weights))), 1
    if z:
        zm, ze, zr, zre = _hurwitz(t.weight, 1, t.precision).dyadic()
        (mm, me), (rm, re) = (_dy_add(z.denominator * mm, e, z.numerator * zm, ze),
                              _dy_add(z.denominator * rm, e, abs(z.numerator) * zr, zre))
    else:
        g = gcd(*w)
        mm, me, rm, re = mm // g, e, rm // g, e
    den, n = scale.denominator * z.denominator, g * scale.numerator
    if den & (den - 1) == 0:  # a power of two: the division is exact
        k = den.bit_length() - 1
        ball = _rounded(mm, me - k, rm, re - k, wp)
    else:  # a floor quotient GUARD_BITS below the last bit, low by less than a unit
        width = wp + GUARD_BITS - me - abs(mm).bit_length() + den.bit_length()
        f, r = RealBall(mm, me, rm, re).scaled_floors(1, den, width)
        ball = _rounded(*RealBall.from_floors(f, 1, r, width).dyadic(), wp)
    return ball if n == 1 else ball.mul_int(n)


def _dyadic_point(q) -> tuple[int, int]:
    """(a, s) with q = a 2^s, a odd or zero, for an int or a Fraction whose
    denominator is a power of two; any other q raises DomainError."""
    den = require_exact(q, "a polynomial point").denominator
    if den & (den - 1):
        raise DomainError(f"homogeneous polynomials are evaluated at dyadic rationals "
                          f"only, got {q}")
    return _strip_zeros(q.numerator, 1 - den.bit_length()) if q else (0, 0)


def _powers(v: int, d: int) -> list[int]:
    """[1, v, v^2, ..., v^d]."""
    return list(accumulate(repeat(v, d), mul, initial=1))


def _point(x, y, d: int) -> tuple[int, int, int]:
    """(a, b, k) with x = a 2^s, y = b 2^s and k = sd for dyadic rationals x
    and y (ints or Fractions), else DomainError: each degree-d term
    x^i y^(d-i) is the integer a^i b^(d-i) times 2^k."""
    (xm, xe), (ym, ye) = _dyadic_point(x), _dyadic_point(y)
    s = min(xe, ye)
    return xm << (xe - s), ym << (ye - s), s * d


def _monomials(pu: list[int], pv: list[int]) -> list[int]:
    """The integers u^i v^(d-i), i = 0..d, from the powers of u and of v."""
    return list(map(mul, pu, reversed(pv)))


def gen_poly_eval(t: DzvTable, x, y) -> RealBall:
    """Enclosure of T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2): the
    homogeneous polynomial of degree d = l - 2 whose x^(l1-1) coefficient is
    zeta(l1, l - l1) (there is none at l1 = 1).  x and y are ints or dyadic
    Fractions, else DomainError; at ``_point``'s (a, b, k), with
    w_i = a^i b^(d-i), the sums of mids[i] w_i and rads[i] |w_i| over the
    table's vector are exact integers at the unit 2^(e+k), rounded once."""
    d = t.weight - 2
    a, b, k = _point(x, y, d)
    mids, rads, e = t.vector
    w, e = _monomials(_powers(a, d), _powers(b, d)), e + k
    return _rounded(sum(map(mul, mids, w)), e, sum(map(mul, rads, map(abs, w))), e,
                    t.precision + GUARD_BITS)


# an alias kept only because perfbench/tracer.py wraps dzv.dzeta.gen_poly_real
# by name; it goes with that span
gen_poly_real = gen_poly_eval


def _eq26_sides(d: int, a: int, b: int, k: int) -> tuple[_Form, _Form]:
    """The sides of the two-variable functional equation

        T_l(x+y, y) + T_l(x+y, x) = T_l(x, y) + T_l(y, x)
                                    + [(x^(l-1) - y^(l-1)) / (x - y)] zeta(l)

    at ``_point``'s (a, b, k), d = l - 2, as forms at scale 2^k: the weights
    add each side's two T_l's integers u^i v^(d-i), and the divided
    difference sum_{i+j=d} a^i b^j is z."""
    scale = 1 << k if k >= 0 else Fraction(1, 1 << -k)
    pa, pb = _powers(a, d), _powers(b, d)
    xy = _monomials(pa, pb)
    left = map(mul, _powers(a + b, d), map(add, reversed(pa), reversed(pb)))
    return (_Form(list(left), 0, scale),
            _Form(list(map(add, xy, reversed(xy))), sum(xy), scale))


def functional_eq26_sides(l: int, x, y, ctx: PrecisionCtx) -> tuple[RealBall, RealBall]:
    """The two ``_eq26_sides`` at x and y over the weight-l table."""
    t = get_table(l, ctx)
    return tuple(_form_ball(t, form) for form in _eq26_sides(l - 2, *_point(x, y, l - 2)))


def functional_eq26_check(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> ComplexBall:
    """Residual lhs - rhs of the functional equation at balls x and y that
    are exact real dyadics (zero radius, exact-zero imaginary part), else
    DomainError; it must contain zero.  The residual is real, returned as a
    complex ball with an exact-zero imaginary part.  This adapter only keeps
    the benchmark worker's calling convention: ROADMAP item 1 moves that
    caller to ``functional_eq26_sides`` and deletes it."""
    def point(z: ComplexBall) -> Fraction:
        if z.real.dyadic()[2] or not z.imag.is_zero():
            raise DomainError(f"eq26 is evaluated at exact real dyadic points only, got {z!r}")
        return z.real.midpoint_fraction()

    lhs, rhs = functional_eq26_sides(l, point(x), point(y), ctx)
    return ComplexBall.from_real(lhs.sub(rhs, ctx.working_precision + GUARD_BITS))
