"""Riemann zeta at integer arguments and Hurwitz zeta via Euler-Maclaurin.

An even zeta value is the exact rational c of zeta(m) = c pi^m, made a ball by
``pipoly_eval`` (its ``PiPolynomial`` argument is a name the benchmark keeps);
odd values and Hurwitz values at integer points are certified balls, a
Hurwitz value one Euler-Maclaurin sum in integer fixed point, evaluated once.
The remainder is always bounded rigorously (4x the first omitted correction
term, derived from the periodized Bernoulli kernel bound
|B_2m({x}) - B_2m| <= 2|B_2m|) and added to the radius.
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
def zeta_even_exact(m: int) -> Fraction:
    """The rational c = (-1)^(m/2+1) 2^(m-1) B_m / m! of zeta(m) = c pi^m, even m >= 2."""
    if require_exact(m, "zeta_even_exact's m", (int,)) % 2 != 0 or m < 2:
        raise DomainError("exact pi-power form exists only for even m >= 2")
    return Fraction((-1) ** (m // 2 + 1) * 2 ** (m - 1), factorial(m)) * bernoulli(m)


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


def _hurwitz_em_once(s: int, a: int, wp: int, n_lead: int) -> RealBall:
    """One Euler-Maclaurin evaluation of zeta(s, a) = sum_{n>=0} (n+a)^-s,
    a an integer >= 1:

        sum_{n<N} (n+a)^-s + x^(1-s)/(s-1) + x^-s/2
          + sum_k B_2k/(2k)! (s)_{2k-1} x^(1-s-2k) + R,    x = a + N.

    Each term is one integer floor at unit u = 2^-W, low by less than one
    unit, so the sum of the F floors is low by less than F units and the ball
    is centred on that one-sided interval; a correction's floor f stands for
    a term in [f, f+1), so |f| + 1 bounds it for the truncation.  With
    W = wp + s bitlen a + bitlen 4N and a^-s above 2^-s bitlen a, F u stays
    below 2^-(wp+1) of zeta(s, a) while F <= 2N.
    """
    width = wp + s * a.bit_length() + (4 * n_lead).bit_length()
    one = 1 << width
    x = a + n_lead
    xpow = x ** (s - 1)
    leading = [one // (n + a) ** s for n in range(n_lead)]
    head = one // ((s - 1) * xpow)
    # term k is num one // (den x^(s-1+2k)), with a running product of x^2
    xx = x * x
    corrections = (num * one // (den * xk) for (num, den), xk in
                   zip(_em_coefficients(s), accumulate(repeat(xx), mul, initial=xpow * xx)))
    # a^-s + x^(1-s)/(s-1) <= zeta(s, a), so the remainder is below 2^-wp of the value
    kept, rem = _em_truncate(((f, abs(f) + 1) for f in corrections), (leading[0] + head) >> wp)
    total = sum(leading) + head + one // (2 * xpow * x) + sum(kept)
    floors = n_lead + 2 + len(kept)
    return RealBall.from_floors(total, floors, rem, width)


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


@cache
def _zeta_numeric(s: int, precision: int) -> RealBall:
    ctx = PrecisionCtx(precision)
    if s % 2 == 0:
        return pipoly_eval(PiPolynomial.single(s, zeta_even_exact(s)), ctx)
    return hurwitz_zeta(s, 1, ctx)


def zeta_numeric(s: int, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s), s >= 2: the exact c pi^s for even s,
    Euler-Maclaurin at a = 1 for odd s; memoized by (s, working precision)."""
    if require_exact(s, "zeta_numeric's s", (int,)) < 2:
        raise DomainError(f"zeta_numeric requires s >= 2, got {s!r}")
    return _zeta_numeric(s, ctx.working_precision)
