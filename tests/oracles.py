"""Independent oracles for the test suite.

Every expected value asserted by the tests is computed here by a method
independent of the code path under test: Pascal's triangle for binomials,
Akiyama-Tanigawa for Bernoulli numbers, the BBP series for pi, direct
summation with integral tail bounds for zeta values, the literal truncated
double sum for double zeta values, at odd weight the reduction of a double
zeta value to products of single zeta values, and Lemma 1's five equations
written out one by one.

The weight hypotheses of the suites are plain predicates, written apart
from the checks that raise OutsideHypothesis.  The ball predicates below
(ends, containment, equality of enclosures, the zero test, the
relative-radius target) and the decimal printing of a ball are read from its
exact midpoint_fraction() and radius_fraction(), so they check the integer
decisions of dzv against plain Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import List, Optional, Tuple

from hypothesis import strategies as st

from dzv.dzeta import _divided_difference, gen_poly_eval, get_table
from dzv.identities import _T_M11, restricted_sum
from dzv.numerics import (
    GUARD_BITS,
    ComplexBall,
    PrecisionCtx,
    RealBall,
    _radius_digits,
    _sci,
    check_from_sides,
    complex_sum,
    cube_root_of_unity,
    require_exact,
)
from dzv.zeta import zeta_numeric


# ---------------------------------------------------------------------------
# ball predicates in exact rationals
# ---------------------------------------------------------------------------

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


def intersects(a: RealBall, b: RealBall) -> bool:
    return abs(a.midpoint_fraction() - b.midpoint_fraction()) \
        <= a.radius_fraction() + b.radius_fraction()


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
        k = 0
        while k < min(len(fa), len(fb)) and fa[k] == fb[k]:
            k += 1
        s = f"{ia}.{fa[:k]}" if k or ia == "0" else ia
    return "-" + s if hi < 0 and s.strip("0.") else s


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
    return total.sub(z(w).mul_2exp(-1), wp)


def residual_strings(parts) -> Tuple[str, str]:
    """The residual midpoint and radius of a dzv.cli report row, from the
    exact midpoints and the larger exact radius of the residual's parts."""
    rad = max(b.radius_fraction() for b in parts)
    if rad:
        m, e = _radius_digits(rad.numerator, rad.denominator)
        digits, rad_s = max(1 - e, 0), _sci(m + 1, e) if m < 99 else _sci(10, e + 1)
    else:
        digits, rad_s = 60, "0"
    mid = " + ".join(decimal_truncate(b.midpoint_fraction(), digits) for b in parts)
    return mid + ("i" if len(parts) == 2 else ""), rad_s


# ---------------------------------------------------------------------------
# Lemma 1, one equation at a time
# ---------------------------------------------------------------------------

def _alternating_mod3_sum(t, res3: int) -> RealBall:
    """sum over l1 = res3 (mod 3) of (-1)^(l1-1) zeta(l1, l2)."""
    return restricted_sum(t, [(1 if r % 2 else -1) if r % 3 == res3 % 3 else 0 for r in range(6)])


def _plain_mod3_sum(t, res3: int) -> RealBall:
    """sum over l1 = res3 (mod 3) of zeta(l1, l2)."""
    return restricted_sum(t, [int(r % 3 == res3 % 3) for r in range(6)])


def lemma1_explicit(l: int, ctx: PrecisionCtx) -> list:
    """Lemma 1's five equations, each written out by hand: the reference that
    the row table of ``dzv.identities.lemma1_check`` must reproduce record for
    record, with the same operations in the same order."""
    t = get_table(l, ctx)
    wp = ctx.working_precision + GUARD_BITS
    omega = cube_root_of_unity(PrecisionCtx(wp + 2 * l.bit_length()))
    xs = [ComplexBall.one(), omega, omega.conj()]
    one = ComplexBall.one()
    zl = zeta_numeric(l, ctx)
    zl_c = ComplexBall.from_real(zl)
    t_m11 = ComplexBall.from_real(restricted_sum(t, _T_M11))
    half_lp1 = RealBall.from_fraction(Fraction(l + 1, 2), wp)
    shared_tail = ComplexBall.from_real(zl.mul(half_lp1, wp)).sub(t_m11, wp)

    def T(xb: ComplexBall, yb: ComplexBall) -> ComplexBall:
        return gen_poly_eval(t, xb, yb)

    reports = []

    lhs1 = complex_sum((T(x.add(one, wp), one) for x in xs), wp)
    rhs1 = ComplexBall.from_real(_alternating_mod3_sum(t, 1).mul_int(3)).add(shared_tail, wp)
    reports.append(check_from_sides(f"lemma1.eq1[l={l}]", l, lhs1, rhs1, ctx))

    lhs2 = complex_sum((T(x.add(one, wp), x) for x in xs), wp)
    rhs2 = ComplexBall.from_real(
        _alternating_mod3_sum(t, (2 * l) % 3).mul_int(3)).add(shared_tail, wp)
    reports.append(check_from_sides(f"lemma1.eq2[l={l}]", l, lhs2, rhs2, ctx))

    lhs3 = complex_sum((T(x, one) for x in xs), wp)
    rhs3 = ComplexBall.from_real(_plain_mod3_sum(t, 1).mul_int(3))
    reports.append(check_from_sides(f"lemma1.eq3[l={l}]", l, lhs3, rhs3, ctx))

    lhs4 = complex_sum((T(one, x) for x in xs), wp)
    rhs4 = ComplexBall.from_real(_plain_mod3_sum(t, (l - 1) % 3).mul_int(3))
    reports.append(check_from_sides(f"lemma1.eq4[l={l}]", l, lhs4, rhs4, ctx))

    dd_sum = complex_sum((_divided_difference(x, one, l, wp) for x in xs), wp)
    lhs5 = dd_sum.mul(zl_c, wp)
    rhs5 = zl_c.mul_int(3 * ((l + 1) // 3))
    reports.append(check_from_sides(f"lemma1.eq5[l={l}]", l, lhs5, rhs5, ctx))

    return reports
