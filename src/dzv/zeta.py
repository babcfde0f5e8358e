"""Riemann zeta at integer arguments and Hurwitz zeta via Euler-Maclaurin.

Every numeric value, zeta(s) = zeta(s, 1) at any s >= 2 and zeta(s, a) at
integer points, is one certified ball from one Euler-Maclaurin sum in integer
fixed point (Johansson, Numer. Algorithms 69, 2015), returned as that sum
builds it, with no second rounding.  The remainder is always bounded
rigorously (4x the first omitted correction term, derived from the
periodized Bernoulli kernel bound |B_2m({x}) - B_2m| <= 2|B_2m|) and added to
the radius.  The exact rational c of zeta(m) = c pi^m at even m is a
separate, exact value for the Bernoulli-side checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, count, repeat
from math import factorial
from operator import mul

from .bernoulli import _grow, bernoulli
from .numerics import (
    DomainError,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    require_exact,
)

__all__ = ["zeta_even_exact", "zeta_numeric", "hurwitz_zeta"]

_GUARD = 32


def zeta_even_exact(m: int) -> Fraction:
    """The rational c = (-1)^(m/2+1) 2^(m-1) B_m / m! of zeta(m) = c pi^m, even m >= 2."""
    if require_exact(m, "zeta_even_exact's m", (int,)) % 2 != 0 or m < 2:
        raise DomainError("exact pi-power form exists only for even m >= 2")
    return Fraction((-1) ** (m // 2 + 1) * 2 ** (m - 1), factorial(m)) * bernoulli(m)


def _em_coefficients(s: int):
    """The Euler-Maclaurin coefficients c_k = B_2k (s)_{2k-1} / (2k)! for
    k = 1, 2, ..., as integer pairs (numerator, denominator), with running
    products for (s)_{2k-1} and (2k)!; the k-th correction term of zeta(s, x)
    is c_k x^(1-s-2k).  B_2k comes straight from the Bernoulli store."""
    rfv, fact = s, 2
    for k in count(1):
        b = _grow(2 * k)[2 * k]
        yield b.numerator * rfv, b.denominator * fact
        rfv *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)


def _em_sum(total: int, floors: int, rad: int, corrections, negligible: int,
            width: int) -> RealBall:
    """The Euler-Maclaurin rule at unit u = 2^-width: the ball of a fixed part,
    ``floors`` integer floors adding up to ``total`` and widened by ``rad``
    units, plus lazy corrections (f, r), each term in [f - r, f + 1 + r]
    units, so that b = |f| + 1 + r bounds it.  Corrections are kept up to the
    first whose remainder bound 4b is at most ``negligible``, or up to the
    asymptotic minimum (the first b that stops shrinking); none past that one
    is drawn.  Every floor is low by less than one unit, so the F floors of
    the fixed part and the kept corrections are low by less than F units: the
    ball is centred on that one-sided interval, and its radius adds the kept
    r and 4b, the first omitted correction's remainder bound.  F is counted,
    so the ball encloses for any number of corrections; a caller's width only
    sizes the radius."""
    prev = None
    for f, r in corrections:
        bound = abs(f) + 1 + r
        if 4 * bound <= negligible or (prev is not None and bound >= prev):
            return RealBall.from_floors(total, floors, rad + 4 * bound, width)
        total, floors, rad, prev = total + f, floors + 1, rad + r, bound


def _hurwitz_em_once(s: int, a: int, wp: int, n_lead: int) -> RealBall:
    """One Euler-Maclaurin evaluation of zeta(s, a) = sum_{n>=0} (n+a)^-s,
    a an integer >= 1, by ``_em_sum``:

        sum_{n<N} (n+a)^-s + x^(1-s)/(s-1) + x^-s/2
          + sum_k B_2k/(2k)! (s)_{2k-1} x^(1-s-2k) + R,    x = a + N.

    Each term is one integer floor at unit u = 2^-W, a correction's floor f
    standing for a term in [f, f+1).  With W = wp + s bitlen a + bitlen 4N
    and a^-s above 2^-s bitlen a, F u stays below 2^-(wp+1) of zeta(s, a)
    while the floor count F is at most 2N.
    """
    width = wp + s * a.bit_length() + (4 * n_lead).bit_length()
    one = 1 << width
    x = a + n_lead
    xpow = x ** (s - 1)
    leading = [one // (n + a) ** s for n in range(n_lead)]
    head = one // ((s - 1) * xpow)
    # term k is num one // (den x^(s-1+2k)), with a running product of x^2
    xx = x * x
    corrections = ((num * one // (den * xk), 0) for (num, den), xk in
                   zip(_em_coefficients(s), accumulate(repeat(xx), mul, initial=xpow * xx)))
    # a^-s + x^(1-s)/(s-1) <= zeta(s, a), so the remainder is below 2^-wp of the value
    total = sum(leading) + head + one // (2 * xpow * x)
    return _em_sum(total, n_lead + 2, 0, corrections, (leading[0] + head) >> wp, width)


@cache
def _hurwitz(s: int, a: int, precision: int) -> RealBall:
    wp = precision + _GUARD
    result = _hurwitz_em_once(s, a, wp, max(16, wp // 4))
    if result.meets_relative_radius(precision):
        return result
    raise PrecisionUnreachableError(
        f"hurwitz_zeta({s}, {a}) did not reach 2^-{precision} relative radius"
    )


def hurwitz_zeta(s: int, a: int, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s, a) = sum_{n>=0} (n+a)^-s at integers s >= 2
    and a >= 1, memoized by (s, a, working precision); a Fraction or a float
    a is refused before the memo."""
    if require_exact(s, "hurwitz_zeta's s", (int,)) < 2:
        raise DomainError(f"hurwitz_zeta requires s >= 2, got {s!r}")
    if require_exact(a, "hurwitz_zeta's a", (int,)) < 1:
        raise DomainError("hurwitz_zeta requires a >= 1")
    return _hurwitz(s, a, ctx.working_precision)


def zeta_numeric(s: int, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s) = zeta(s, 1), s >= 2: ``hurwitz_zeta``'s
    one Euler-Maclaurin kernel and memo, at odd and even s alike."""
    return hurwitz_zeta(s, 1, ctx)
