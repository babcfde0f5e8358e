"""Exact Bernoulli numbers and the classical convolution identities.

Convention: B_1 = -1/2, as forced by the generating function X/(e^X - 1).
All results are exact rationals; identity checks compare exact values, never
approximations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Optional, Sequence

from .numerics import (CheckReport, DomainError, OutsideHypothesis, PrecisionCtx, exact_check,
                       require_exact)

__all__ = [
    "bernoulli",
    "euler_identity_check",
    "ramanujan_sum",
    "ramanujan_check",
]


_B: list[Fraction] = [Fraction(1), Fraction(-1, 2), Fraction(1, 6)]
_COLUMN: list[int] = [1]


def _grow(m: int) -> list[Fraction]:
    """The store, extended until it holds B_m.  It is _B = [B_0..B_2n] and
    column n of Brent and Harvey's tangent triangle (arXiv:1108.0286),
    _COLUMN = [A_1[n], ..., A_n[n]].

    Column j needs only column j - 1, A_k[j] = (j-k) A_k[j-1] + (j-k+2) A_(k-1)[j]
    with A_0[j] = 0, and its last entry is the tangent number T_j of
    tan x = sum_j T_j x^(2j-1)/(2j-1)!, so B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j-1)).
    A memo keyed by its whole argument, such as ``functools.cache``, cannot
    share a prefix between B_m and B_(m+2); a mutable store can, and needs no
    lock because dzv runs on one thread.  A new column is built apart before
    either list changes, so an interrupt during the build leaves the store whole.
    """
    while len(_B) <= m:
        j, a, col = len(_COLUMN) + 1, 0, []
        for k, c in enumerate(_COLUMN, 1):
            a = (j - k) * c + (j - k + 2) * a
            col.append(a)
        col.append(2 * a)
        b = Fraction(2 * j * col[-1], 4**j * (4**j - 1))
        new = (Fraction(0), b if j % 2 else -b)
        _COLUMN[:] = col
        _B.extend(new)
    return _B


def bernoulli(m: int) -> Fraction:
    """Exact B_m (B_0 = 1, B_1 = -1/2, B_2 = 1/6, B_3 = 0, ...)."""
    if require_exact(m, "a Bernoulli index", (int,)) < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    return _grow(m)[m]


def _class_sums(v: Sequence[Fraction], l: int) -> tuple[Fraction, ...]:
    """(S_0, S_2, S_4) for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) v_j v_{l-j}.

    One pass over even j <= l/2 takes term j, which equals term l-j, into the
    class of j only (half of it when j = l/2); S_m is class m plus class (l-m) mod 6.
    With v_j = n_j/d_j and g_j = d_j d_{l-j}, C(l,j) is first cancelled against g_j
    by k_j = gcd(C(l,j), g_j), leaving the denominator h_j = g_j/k_j (2 g_j/k_j for
    the middle term).  Class r holds every third term of the pass, j = 2r (mod 6),
    and is one integer sum over one common denominator D_r = lcm(h_j):
    N_r = sum (C(l,j)/k_j)(D_r/h_j) n_j n_{l-j}, the small cofactor formed before
    the two numerators multiply.  Bernoulli denominators are products of distinct
    primes (von Staudt-Clausen) and C(l,j) holds each prime at which j and l-j
    carry (Kummer), so D_r has at most 104 bits at weights 4..800, where the lcm
    of the unreduced g_j would reach 830."""
    terms = []
    c = 1  # C(l, j)
    for j in range(0, l // 2 + 1, 2):
        a, b = v[j], v[l - j]
        g = a.denominator * b.denominator
        k = gcd(c, g)
        terms.append((c // k, g // k << (2 * j == l), a.numerator, b.numerator))
        c = c * (l - j) * (l - j - 1) // ((j + 1) * (j + 2))
    classes = []
    for t in (terms[r::3] for r in range(3)):
        d = lcm(*(h for _, h, _, _ in t))
        classes.append(Fraction(sum(ck * (d // h) * na * nb for ck, h, na, nb in t), d))
    return tuple(classes[m] + classes[(l // 2 - m) % 3] for m in range(3))


@cache
def _even_classes(l: int) -> tuple[Fraction, ...]:
    """(S_0, S_2, S_4) for even l, S_m = sum_{j even, j = m (mod 6)} C(l,j) B_j B_{l-j},
    from the store grown to B_l."""
    return _class_sums(_grow(l), l)


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
