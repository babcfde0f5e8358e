"""Riemann zeta at integer arguments and Hurwitz zeta via Euler-Maclaurin.

Even zeta values live exactly in rational * pi^m form; odd values and Hurwitz
values are certified balls.  The Euler-Maclaurin remainder is always bounded
rigorously (4x the first omitted correction term, derived from the periodized
Bernoulli kernel bound |B_2m({x}) - B_2m| <= 2|B_2m|) and added to the radius.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Union

from .bernoulli import bernoulli
from .numerics import (
    DomainError,
    PiPolynomial,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    ball_sum,
    pipoly_eval,
)

__all__ = ["ZetaValue", "zeta_even_exact", "zeta_numeric", "hurwitz_zeta", "zeta_value"]

_GUARD = 32
_MAX_ESCALATIONS = 10


@dataclass(frozen=True)
class ZetaValue:
    """A zeta value at an integer argument >= 2.

    ``exact`` is present exactly for even arguments; ``numeric`` always
    encloses the true value (and, when exact is present, the evaluation of the
    exact form).
    """

    argument: int
    exact: Optional[PiPolynomial]
    numeric: RealBall


def zeta_even_exact(m: int) -> PiPolynomial:
    """zeta(m) for even m >= 2 as the single term ((-1)^(m/2+1) 2^(m-1) B_m / m!) pi^m."""
    if m % 2 != 0 or m < 2:
        raise DomainError("exact pi-power form exists only for even m >= 2")
    coeff = Fraction((-1) ** (m // 2 + 1) * 2 ** (m - 1), factorial(m)) * bernoulli(m)
    return PiPolynomial.single(m, coeff)


def _em_coefficients(s: int):
    """The Euler-Maclaurin coefficients c_k = B_2k (s)_{2k-1} / (2k)! for
    k = 1, 2, ...; the k-th correction term of zeta(s, x) is c_k x^(1-s-2k)."""
    rfv = s
    fact = 2
    k = 1
    while True:
        yield bernoulli(2 * k) * rfv / fact
        rfv *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        k += 1


def _em_correction_terms(s: int, x: Fraction, wp: int, kmax: int):
    """Correction terms c_k x^(1-s-2k) for k = 1.. and the remainder bound.

    Keeps terms as exact rationals; stops at kmax or at the asymptotic
    minimum (the first term that stops shrinking).  Returns (terms,
    remainder_bound) with remainder_bound = 4 |first omitted term|.
    """
    terms = []
    x2inv = 1 / (x * x)
    pw = 1 / x ** (s - 1)
    prev_abs = None
    for k, c in enumerate(_em_coefficients(s), 1):
        pw *= x2inv
        c *= pw
        ca = abs(c)
        if k > kmax or (prev_abs is not None and ca >= prev_abs):
            return terms, 4 * ca
        terms.append(c)
        prev_abs = ca


def _hurwitz_em_once(s: int, a: Fraction, wp: int, n_lead: int, kmax: int) -> RealBall:
    """One Euler-Maclaurin evaluation of zeta(s, a) = sum_{n>=0} (n+a)^-s:

        sum_{n<N} (n+a)^-s + x^(1-s)/(s-1) + x^-s/2
          + sum_k B_2k/(2k)! (s)_{2k-1} x^(1-s-2k) + R,    x = a + N.
    """
    pieces = []
    for n in range(n_lead):
        pieces.append(RealBall.from_fraction(1 / (n + a) ** s, wp))
    x = a + n_lead
    xpow = 1 / x ** (s - 1)
    pieces.append(RealBall.from_fraction(xpow / (s - 1), wp))
    pieces.append(RealBall.from_fraction(xpow / (2 * x), wp))
    corrections, rem = _em_correction_terms(s, x, wp, kmax)
    for c in corrections:
        pieces.append(RealBall.from_fraction(c, wp))
    return ball_sum(pieces, wp).add_error(rem)


_hz_cache: dict = {}
_hz_lock = threading.Lock()


def _hurwitz_rational(s: int, a: Fraction, ctx: PrecisionCtx) -> RealBall:
    target = ctx.working_precision
    key = (s, a.numerator, a.denominator, target)
    hit = _hz_cache.get(key)
    if hit is not None:
        return hit
    wp = target + _GUARD
    n_lead = max(16, wp // 4)
    kmax = max(8, wp // 8)
    result = None
    for attempt in range(_MAX_ESCALATIONS):
        result = _hurwitz_em_once(s, a, wp, n_lead, kmax)
        lo = result.lower_fraction()
        if lo > 0 and result.radius_fraction() <= lo * Fraction(1, 2**target):
            with _hz_lock:
                _hz_cache.setdefault(key, result)
            return _hz_cache[key]
        n_lead *= 2
        if attempt % 2 == 1:
            kmax *= 2
    raise PrecisionUnreachableError(
        f"hurwitz_zeta({s}, {a}) did not reach 2^-{target} relative radius"
    )


def hurwitz_zeta(s: int, a: Union[int, Fraction, RealBall], ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s, a) = sum_{n>=0} (n+a)^-s, s >= 2, a >= 1.

    For an inexact ball argument the value is enclosed via the midpoint plus a
    mean-value inflation using d/da zeta(s,a) = -s zeta(s+1,a), whose magnitude
    on the ball is at most s * zeta(s+1, lower(a)).
    """
    if s < 2:
        raise DomainError("hurwitz_zeta requires integer s >= 2")
    if isinstance(a, RealBall):
        if a.is_exact():
            a = a.midpoint_fraction()
        else:
            mid = a.midpoint_fraction()
            rad = a.radius_fraction()
            if mid - rad < 1:
                raise DomainError("hurwitz_zeta requires a >= 1 over the whole ball")
            base = _hurwitz_rational(s, mid, ctx)
            deriv_hi = s * _hurwitz_rational(s + 1, mid - rad, ctx).upper_fraction()
            return base.add_error(rad * deriv_hi)
    a = Fraction(a)
    if a < 1:
        raise DomainError("hurwitz_zeta requires a >= 1")
    return _hurwitz_rational(s, a, ctx)


_zn_cache: dict = {}
_zn_lock = threading.Lock()


def zeta_numeric(s: int, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(s), s >= 2: exact pi-power route for even s,
    Euler-Maclaurin at a = 1 for odd s."""
    if s < 2:
        raise DomainError("zeta diverges for s < 2 (integer arguments)")
    key = (s, ctx.working_precision)
    hit = _zn_cache.get(key)
    if hit is not None:
        return hit
    if s % 2 == 0:
        value = pipoly_eval(zeta_even_exact(s), ctx)
    else:
        value = hurwitz_zeta(s, 1, ctx)
    with _zn_lock:
        _zn_cache.setdefault(key, value)
    return _zn_cache[key]


def zeta_value(s: int, ctx: PrecisionCtx) -> ZetaValue:
    exact = zeta_even_exact(s) if s % 2 == 0 else None
    return ZetaValue(s, exact, zeta_numeric(s, ctx))
