"""Exact Bernoulli numbers and the classical convolution identities.

Convention: B_1 = -1/2, as forced by the generating function X/(e^X - 1).
All results are exact rationals; identity checks compare exact values, never
approximations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
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


def _class_sums(v: Sequence[Fraction], l: int) -> tuple[Fraction, ...]:
    """(S_0, S_2, S_4) for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) v_j v_{l-j}.

    One pass over even j <= l/2: term j equals term l-j, so it is added to
    class j mod 6 and to class (l-j) mod 6, once when j = l/2.  With v_j =
    n_j/d_j and g = d_j d_{l-j}, the term is split exactly as q + r/g, 0 <= r < g:
    the quotients add as integers, the remainders as r (den/g) over den = lcm(g),
    so every product and sum has the size of its terms."""
    whole = [0, 0, 0]
    rests = ([], [], [])  # per class, the pairs (r, g) with r > 0
    c = 1  # C(l, j)
    for j in range(0, l // 2 + 1, 2):
        a, b = v[j], v[l - j]
        na, nb = a.numerator, b.numerator
        if na and nb:
            g = a.denominator * b.denominator
            q, r = divmod(c * na * nb, g)
            for k in [j % 6 // 2] if 2 * j == l else [j % 6 // 2, (l - j) % 6 // 2]:
                whole[k] += q
                if r:
                    rests[k].append((r, g))
        c = c * (l - j) * (l - j - 1) // ((j + 1) * (j + 2))
    den = lcm(*{g for rest in rests for _, g in rest})
    return tuple(s + Fraction(sum(r * (den // g) for r, g in rest), den)
                 for s, rest in zip(whole, rests))


@cache
def _even_classes(l: int) -> tuple[Fraction, ...]:
    """(S_0, S_2, S_4) for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) B_j B_{l-j},
    from the table B_0..B_2n, n = _block(l)."""
    return _class_sums(_bernoulli_upto(_block(l)), l)


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
