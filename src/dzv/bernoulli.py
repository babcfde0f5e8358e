"""Exact Bernoulli numbers and the classical convolution identities.

Convention: B_1 = -1/2, as forced by the generating function X/(e^X - 1).
All results are exact rationals; identity checks compare exact values, never
approximations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from typing import Optional

from .numerics import CheckReport, DomainError, PrecisionCtx, exact_check

__all__ = [
    "bernoulli",
    "euler_identity_check",
    "ramanujan_sum",
    "ramanujan_check",
]


@cache
def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_0 = 1, B_1 = -1/2, B_2 = 1/6, ...), memoized.

    Solves sum_{j=0}^{m} C(m+1, j) B_j = 0 for B_m; odd-index terms beyond B_1
    vanish and are skipped.  The sum reads lower indices in increasing order,
    so a cold call recurses at most one level.
    """
    if m < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if m < 2:
        return Fraction(1) if m == 0 else Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    s = Fraction(comb(m + 1, 1), -2)  # j = 1 term, B_1 = -1/2
    for j in range(0, m, 2):
        s += comb(m + 1, j) * bernoulli(j)
    return -s / (m + 1)


def _convolution(l: int, start: int, step: int) -> Fraction:
    """Exact sum_{j = start, start + step, ... <= l} C(l,j) B_j B_{l-j}."""
    return sum((comb(l, j) * bernoulli(j) * bernoulli(l - j) for j in range(start, l + 1, step)),
               start=Fraction(0))


def euler_identity_check(l: int, ctx: Optional[PrecisionCtx] = None) -> CheckReport:
    """Check sum_{j even, 0<=j<=l} C(l,j) B_j B_{l-j} = -(l-1) B_l exactly.

    Requires even l >= 4.  The check is exact, so ``ctx`` is ignored; it is
    accepted to share the ``(l, ctx)`` signature of every suite.
    """
    if l % 2 != 0 or l < 4:
        raise DomainError("the Bernoulli convolution identity needs even l >= 4")
    lhs = _convolution(l, 0, 2)
    rhs = -(l - 1) * bernoulli(l)
    return exact_check(f"euler-bernoulli[l={l}]", l, lhs, rhs)


def _require_gap6_weight(l: int) -> None:
    if l % 6 != 2 or l < 8:
        raise DomainError("gap-6 identities need l = 2 (mod 6) and l >= 8")


def ramanujan_sum(l: int, m: int) -> Fraction:
    """Exact sum_{j = m (mod 6), 0 <= j <= l} C(l,j) B_j B_{l-j}."""
    _require_gap6_weight(l)
    if m not in (0, 2, 4):
        raise DomainError("residue m must be one of 0, 2, 4")
    return _convolution(l, m, 6)


def ramanujan_check(l: int, ctx: Optional[PrecisionCtx] = None) -> tuple[CheckReport, ...]:
    """Check the three gap-6 convolution identities of weight l.

    Each residue class m in {0, 2, 4} must satisfy
    sum_{j = m (6)} C(l,j) B_j B_{l-j} = -((l-1)/3) B_l.  Exact, so ``ctx``
    is ignored, as for ``euler_identity_check``.
    """
    _require_gap6_weight(l)
    rhs = Fraction(-(l - 1), 3) * bernoulli(l)
    return tuple(
        exact_check(f"ramanujan[l={l},m={m}]", l, ramanujan_sum(l, m), rhs)
        for m in (0, 2, 4)
    )
