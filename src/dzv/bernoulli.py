"""Exact Bernoulli numbers and the classical convolution identities.

Convention: B_1 = -1/2, as forced by the generating function X/(e^X - 1).
All results are exact rationals; identity checks compare exact values, never
approximations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, prod
from typing import Optional, Sequence

from .numerics import (CheckReport, DomainError, OutsideHypothesis, PrecisionCtx, exact_check,
                       require_exact)

__all__ = [
    "bernoulli",
    "euler_identity_check",
    "ramanujan_sum",
    "ramanujan_check",
]


@cache
def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    """The tuple B_0..B_2n, from the tangent numbers T_1..T_n.

    Brent and Harvey's in-place integer algorithm (*Fast computation of
    Bernoulli, Tangent and Secant numbers*, arXiv:1108.0286) builds the T_k of
    tan x = sum_k T_k x^(2k-1)/(2k-1)! in O(n^2) integer operations; then
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(0)] * (2 * n + 1)
    out[0], out[1] = Fraction(1), Fraction(-1, 2)
    for k in range(1, n + 1):
        b = Fraction(2 * k * t[k], 4**k * (4**k - 1))
        out[2 * k] = b if k % 2 else -b
    return tuple(out)


def _block(m: int) -> int:
    """The least power of two n >= 64 with 2n >= m: B_m is read from the
    table B_0..B_2n, so a sweep of weights builds a few tables."""
    n = 64
    while 2 * n < m:
        n *= 2
    return n


def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_0 = 1, B_1 = -1/2, B_2 = 1/6, B_3 = 0, ...)."""
    if require_exact(m, "a Bernoulli index", (int,)) < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    return _bernoulli_upto(_block(m))[m]


@cache
def _vsc_denominator(n: int) -> int:
    """P_n, the product of the primes p <= 2n+1.

    By von Staudt-Clausen the denominator of B_j is the product of the primes
    p with (p-1) | j, so P_n B_j is an integer for every j <= 2n.
    """
    return prod(p for p in range(2, 2 * n + 2)
                if all(p % q for q in range(2, isqrt(p) + 1)))


def _exact_int(scale: int, x: Fraction) -> int:
    """The integer scale * x; raises ArithmeticError when it is not one."""
    q, r = divmod(scale, x.denominator)
    if r:
        raise ArithmeticError(f"{scale} * {x} is not an integer")
    return q * x.numerator


@cache
def _scaled_bernoulli(n: int) -> tuple[int, ...]:
    """The integers v_j = P_n B_j for j = 0..2n."""
    p = _vsc_denominator(n)
    return tuple(_exact_int(p, b) for b in _bernoulli_upto(n))


def _class_sums(w: Sequence[int], l: int) -> list[int]:
    """[S_0, S_2, S_4] for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) w_j w_{l-j}.

    One pass over even j <= l/2: term j equals term l-j, so it is added to
    class j mod 6 and to class (l-j) mod 6, and only once when j = l/2.
    """
    s = [0, 0, 0]
    c = 1  # C(l, j)
    for j in range(0, l // 2 + 1, 2):
        term = c * w[j] * w[l - j]
        s[j % 6 // 2] += term
        if 2 * j != l:
            s[(l - j) % 6 // 2] += term
        c = c * (l - j) * (l - j - 1) // ((j + 1) * (j + 2))
    return s


@cache
def _even_classes(l: int) -> tuple[Fraction, ...]:
    """(S_0, S_2, S_4) for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) B_j B_{l-j}.

    Summed in integers over v_j = P_n B_j (n = _block(l)) and divided once by
    P_n^2, so no Fraction is added on the way.
    """
    n = _block(l)
    den = _vsc_denominator(n) ** 2
    return tuple(Fraction(s, den) for s in _class_sums(_scaled_bernoulli(n), l))


def euler_identity_check(l: int, ctx: Optional[PrecisionCtx] = None) -> CheckReport:
    """Check sum_{j even, 0<=j<=l} C(l,j) B_j B_{l-j} = -(l-1) B_l exactly.

    Requires even l >= 4.  The check is exact, so ``ctx`` is ignored; it is
    accepted to share the ``(l, ctx)`` signature of every suite.
    """
    if require_exact(l, "a weight", (int,)) % 2 != 0 or l < 4:
        raise OutsideHypothesis("needs even weight >= 4")
    lhs = sum(_even_classes(l))
    rhs = -(l - 1) * bernoulli(l)
    return exact_check(f"euler-bernoulli[l={l}]", l, lhs, rhs)


def _require_gap6_weight(l: int) -> None:
    """The hypothesis of the gap-6 identities and of the chain that ends in them."""
    if require_exact(l, "a weight", (int,)) % 6 != 2 or l < 8:
        raise OutsideHypothesis("needs l = 2 (mod 6), l >= 8")


def ramanujan_sum(l: int, m: int) -> Fraction:
    """Exact sum_{j = m (mod 6), 0 <= j <= l} C(l,j) B_j B_{l-j}."""
    _require_gap6_weight(l)
    if require_exact(m, "a residue", (int,)) not in (0, 2, 4):
        raise DomainError("residue m must be one of 0, 2, 4")
    return _even_classes(l)[m // 2]


def ramanujan_check(l: int, ctx: Optional[PrecisionCtx] = None) -> tuple[CheckReport, ...]:
    """Check the three gap-6 convolution identities of weight l.

    Each residue class m in {0, 2, 4} must satisfy
    sum_{j = m (6)} C(l,j) B_j B_{l-j} = -((l-1)/3) B_l.  Exact, so ``ctx``
    is ignored, as for ``euler_identity_check``.
    """
    _require_gap6_weight(l)
    rhs = Fraction(-(l - 1), 3) * bernoulli(l)
    sums = _even_classes(l)
    return tuple(
        exact_check(f"ramanujan[l={l},m={m}]", l, sums[m // 2], rhs)
        for m in (0, 2, 4)
    )
