"""Riemann zeta at integer arguments and Hurwitz zeta via Euler-Maclaurin.

Even zeta values live exactly in rational * pi^m form; odd values and Hurwitz
values are certified balls, a Hurwitz value one Euler-Maclaurin sum in integer
fixed point, evaluated once.  The remainder is always bounded rigorously (4x
the first omitted correction term, derived from the periodized Bernoulli
kernel bound |B_2m({x}) - B_2m| <= 2|B_2m|) and added to the radius.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, count, repeat
from math import factorial
from operator import mul

from .bernoulli import bernoulli
from .numerics import (
    DomainError,
    PiPolynomial,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    pipoly_eval,
    require_exact,
)

__all__ = ["zeta_even_exact", "zeta_numeric", "hurwitz_zeta"]

_GUARD = 32


@cache
def zeta_even_exact(m: int) -> PiPolynomial:
    """zeta(m) for even m >= 2 as the single term ((-1)^(m/2+1) 2^(m-1) B_m / m!) pi^m."""
    if require_exact(m, "zeta_even_exact's m", (int,)) % 2 != 0 or m < 2:
        raise DomainError("exact pi-power form exists only for even m >= 2")
    coeff = Fraction((-1) ** (m // 2 + 1) * 2 ** (m - 1), factorial(m)) * bernoulli(m)
    return PiPolynomial.single(m, coeff)


@cache
def _em_term(s: int, k: int) -> tuple[int, int, int, int]:
    """(numerator, denominator, (s)_{2k-1}, (2k)!) of the Euler-Maclaurin
    coefficient c_k = B_2k (s)_{2k-1} / (2k)!, memoized per (s, k); term k
    extends term k - 1, which a caller drawing k = 1, 2, ... has cached."""
    if k == 1:
        rfv, fact = s, 2
    else:
        _, _, rfv, fact = _em_term(s, k - 1)
        rfv *= (s + 2 * k - 3) * (s + 2 * k - 2)
        fact *= (2 * k - 1) * (2 * k)
    b = bernoulli(2 * k)
    return b.numerator * rfv, b.denominator * fact, rfv, fact


def _em_coefficients(s: int):
    """The Euler-Maclaurin coefficients c_k = B_2k (s)_{2k-1} / (2k)! for
    k = 1, 2, ..., as integer pairs (numerator, denominator); the k-th
    correction term of zeta(s, x) is c_k x^(1-s-2k)."""
    for k in count(1):
        yield _em_term(s, k)[:2]


def _em_truncate(terms, negligible):
    """The Euler-Maclaurin truncation rule over lazy (term, bound) pairs, bound
    an upper bound on |term|: keep terms up to the first whose remainder bound
    4 * bound is at most ``negligible``, or up to the asymptotic minimum (the
    first bound that stops shrinking).  Returns (kept terms, remainder bound),
    the remainder bound being 4x the first omitted bound.  Pairs past the
    stopping one are never drawn."""
    kept = []
    prev = None
    for term, bound in terms:
        if 4 * bound <= negligible or (prev is not None and bound >= prev):
            return kept, 4 * bound
        kept.append(term)
        prev = bound


def _hurwitz_em_once(s: int, a, wp: int, n_lead: int) -> RealBall:
    """One Euler-Maclaurin evaluation of zeta(s, a) = sum_{n>=0} (n+a)^-s,
    a = p/q an int or a Fraction:

        sum_{n<N} (n+a)^-s + x^(1-s)/(s-1) + x^-s/2
          + sum_k B_2k/(2k)! (s)_{2k-1} x^(1-s-2k) + R,    x = a + N.

    Each term is one integer floor at unit u = 2^-W, low by less than one
    unit, so the sum of the F floors is low by less than F units and the ball
    is centred on that one-sided interval; a correction's floor f stands for
    a term in [f, f+1), so |f| + 1 bounds it for the truncation.  With
    W = wp + s (bitlen p - bitlen q + 1) + bitlen 4N and a^-s above
    2^-s(bitlen p - bitlen q + 1), F u stays below 2^-(wp+1) of zeta(s, a)
    while F <= 2N.
    """
    p, q = a.numerator, a.denominator
    width = wp + s * (p.bit_length() - q.bit_length() + 1) + (4 * n_lead).bit_length()
    q1 = q ** (s - 1) << width
    xq = p + n_lead * q
    xpow = xq ** (s - 1)
    leading = [q1 * q // (n * q + p) ** s for n in range(n_lead)]
    head = q1 // ((s - 1) * xpow)
    # term k is num q1 q^2k // (den xpow xq^2k), with running products of q^2 and xq^2
    qq, xx = q * q, xq * xq
    corrections = (num * qk // (den * xk) for (num, den), qk, xk in
                   zip(_em_coefficients(s), accumulate(repeat(qq), mul, initial=q1 * qq),
                       accumulate(repeat(xx), mul, initial=xpow * xx)))
    # a^-s + x^(1-s)/(s-1) <= zeta(s, a), so the remainder is below 2^-wp of the value
    kept, rem = _em_truncate(((f, abs(f) + 1) for f in corrections), (leading[0] + head) >> wp)
    total = sum(leading) + head + q1 * q // (2 * xpow * xq) + sum(kept)
    floors = n_lead + 2 + len(kept)
    return RealBall.from_floors(total, floors, rem, width)


@cache
def _hurwitz_rational(s: int, a, precision: int) -> RealBall:
    wp = precision + _GUARD
    result = _hurwitz_em_once(s, a, wp, max(16, wp // 4))
    if result.meets_relative_radius(precision):
        return result
    raise PrecisionUnreachableError(
        f"hurwitz_zeta({s}, {a}) did not reach 2^-{precision} relative radius"
    )


def hurwitz_zeta(s: int, a: int | Fraction, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s, a) = sum_{n>=0} (n+a)^-s, integer s >= 2 and
    rational a >= 1 given as an int or a Fraction (a float is not the rational
    it was written as), memoized by (s, a, working precision)."""
    if require_exact(s, "hurwitz_zeta's s", (int,)) < 2:
        raise DomainError(f"hurwitz_zeta requires s >= 2, got {s!r}")
    # 2 and Fraction(2) are equal and hash alike, so they share one memo key
    if require_exact(a, "hurwitz_zeta's a") < 1:
        raise DomainError("hurwitz_zeta requires a >= 1")
    return _hurwitz_rational(s, a, ctx.working_precision)


@cache
def _zeta_numeric(s: int, precision: int) -> RealBall:
    ctx = PrecisionCtx(precision)
    if s % 2 == 0:
        return pipoly_eval(zeta_even_exact(s), ctx)
    return hurwitz_zeta(s, 1, ctx)


def zeta_numeric(s: int, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s), s >= 2: exact pi-power route for even s,
    Euler-Maclaurin at a = 1 for odd s; memoized by (s, working precision)."""
    if require_exact(s, "zeta_numeric's s", (int,)) < 2:
        raise DomainError(f"zeta_numeric requires s >= 2, got {s!r}")
    return _zeta_numeric(s, ctx.working_precision)
