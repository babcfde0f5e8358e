"""Independent oracles for the test suite.

Every expected value asserted by the tests is computed here by a method
independent of the code path under test: Pascal's triangle for binomials,
Akiyama-Tanigawa for Bernoulli numbers, the BBP series for pi, direct
summation with integral tail bounds for zeta values, the literal truncated
double sum for double zeta values, and at odd weight the reduction of a double
zeta value to products of single zeta values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import List, Tuple

from dzv.numerics import PrecisionCtx, RealBall
from dzv.zeta import zeta_numeric


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
