"""Executable identity checks over double zeta tables: the sum formulas and
the harmonic relation, the parity formulas, the mod-6 restricted sum formulas
and their even-weight restatements, the signed restricted sum identity and the
five cube-root-of-unity equations behind them, the two-variable functional
equation, and the exact chain linking the l = 2 (mod 6) restricted sum formula
to the gap-6 Bernoulli identities.

Every table check is a list of relations (label, left, right) at weight l,
judged by ``_judge`` with ``check_from_sides``.  A side is one form
(``dzeta._Form``), scale * (sum_l1 w[l1] zeta(l1, l - l1) + z zeta(l)),
evaluated by ``dzeta._form_ball`` as one exact integer sum rounded once, so
left - right is an exact vector over l1 and zeta(l); only harmonic's left
side, the product zeta(a) zeta(b), is a ball.  In weight l every congruence
mod 2, 3 or 6 on l1 or on l2 = l - l1 is a set of l1 classes mod 6, so a
restricted sum has one coefficient per class: the odd-l1 sum is
(0, 1, 0, 1, 0, 1) and T_l(-1, 1) is (-1, 1, -1, 1, -1, 1), six products with
the table's class totals.  The sum, parity, theorem1, corollary1 and prop1
formulas are the rows of ``_STATEMENTS``.

Lemma 1's cube-root-of-unity sums are integer class vectors too: with
z = exp(i pi/3), the x = omega and x = omega^2 terms of T_l add up to
sum 2 cos(pi n/3) zeta(l1, l2) with n mod 6 fixed by l1 mod 6, and the x = 1
term is T_l(2, 1) or T_l(1, 1).  So equations 3 and 4 are the roots-of-unity
filter, an identity of class vectors; equations 1 and 2 add the weighted sum
formula T_l(2, 1) = (l+1)/2 zeta(l); equation 5 is an integer count times
zeta(l).  No complex number is evaluated.  Rows 1-4 are built once per
l mod 3 (a row's b is 0 or 2), and eq26's points once per weight, in one memo.

Every suite is a function ``check(l, ctx)`` that raises OutsideHypothesis at a
weight its statement does not cover, else fetches its own table and judges with
the caller's context; exact checks compare rationals, with no tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import cycle, islice
from math import ceil, factorial
from operator import add
from typing import Optional, Sequence, Tuple

from .bernoulli import _class_sums, _require_gap6_weight, bernoulli, ramanujan_sum
from .dzeta import (DzvTable, _Classes, _eq26_sides, _Form, _form_ball,
                    _point, _powers, _table_weight, get_table)
from .numerics import (
    GUARD_BITS,
    CheckReport,
    DomainError,
    OutsideHypothesis,
    PrecisionCtx,
    RealBall,
    check_from_sides,
    exact_check,
    require_exact,
)
from .zeta import zeta_even_exact, zeta_numeric

__all__ = [
    "restricted_sum",
    "sum_formula_check",
    "weighted_sum_check",
    "harmonic_check",
    "gkz_parity_check",
    "theorem1_check",
    "corollary1_check",
    "prop1_check",
    "lemma1_check",
    "eq26_check",
    "corollary2_exact_chain",
]

# class vectors: every l1, even l1 and odd l1 (in even weight l2 has the
# parity of l1), and T_l(-1, 1) = sum (-1)^(l1-1) zeta(l1, l2)
_ALL = (1, 1, 1, 1, 1, 1)
_EVEN_L1 = (1, 0, 1, 0, 1, 0)
_ODD_L1 = (0, 1, 0, 1, 0, 1)
_T_M11 = (-1, 1, -1, 1, -1, 1)


def restricted_sum(t: DzvTable, coeffs: Sequence[int]) -> RealBall:
    """sum over the table of coeffs[l1 % 6] zeta(l1, l2), integer coefficients.

    Since l2 = l - l1, a congruence mod 2, 3 or 6 on either index is a set of
    l1 classes mod 6, so six coefficients state any signed restricted sum, a
    form rounded once; all-zero coefficients give the exact zero ball."""
    coeffs = tuple(require_exact(c, "a restricted_sum coefficient", (int,)) for c in coeffs)
    if len(coeffs) != 6:
        raise DomainError(f"restricted_sum needs 6 coefficients, one per l1 mod 6, got {len(coeffs)}")
    return _form_ball(t, _Form(_Classes(coeffs)))


def _judge(l: int, relations: list, ctx: PrecisionCtx) -> list[CheckReport]:
    """Each relation (label, left, right) over the weight-l table, judged by
    ``check_from_sides``; a side is a form, or for harmonic's left a ball."""
    t = get_table(l, ctx)
    return [check_from_sides(label, l, a if isinstance(a, RealBall) else _form_ball(t, a),
                             _form_ball(t, b), ctx) for label, a, b in relations]


# ---------------------------------------------------------------------------
# the statement table of the restricted sum formulas; the harmonic relation
# ---------------------------------------------------------------------------

# suite -> (modulus, {l mod modulus: rows}, hypothesis); a row (tag, lhs, z, c, rhs)
# states sum lhs[l1%6] zeta(l1,l2) = z zeta(l) + c sum rhs[l1%6] zeta(l1,l2), rhs
# None when c = 0.  A weight below 3 or whose residue has no rows is outside it.
_WEIGHT_3, _EVEN_WEIGHT_4 = "needs weight >= 3", "needs even weight >= 4"
_STATEMENTS = {
    "sum-formula": (1, {0: [("", _ALL, 1, 0, None)]}, _WEIGHT_3),  # adds up to zeta(l)
    # even weight: both-even sum = (3/4) zeta(l), both-odd sum = (1/4) zeta(l)
    "gkz-parity": (2, {0: [("even", _EVEN_L1, Fraction(3, 4), 0, None),
                           ("odd", _ODD_L1, Fraction(1, 4), 0, None)]}, _EVEN_WEIGHT_4),
    # the weight-mod-3 restricted sum formula over first-index classes mod 6
    "theorem1": (3, {0: [("i", (0, 0, 0, 1, -1, -1), 0, Fraction(1, 3), _ODD_L1)],
                     1: [("ii", (0, 0, 0, 1, 1, -1), 0, Fraction(1, 3), _EVEN_L1)],
                     2: [("iii", (0, 0, 0, 0, 1, 0), Fraction(1, 6), Fraction(-1, 3), _ODD_L1)]},
                 _WEIGHT_3),
    # even-weight restatement over both-index classes mod 6, (l1, l2) = (3,3) -
    # (4,2) - (5,1), (3,1) + (4,0) - (5,5), (4,4) for l = 0, 4, 2 (mod 6); the
    # l1 class fixes the l2 class, so the left sides are theorem1's
    "corollary1": (6, {0: [("i", (0, 0, 0, 1, -1, -1), Fraction(1, 12), 0, None)],
                       4: [("ii", (0, 0, 0, 1, 1, -1), Fraction(1, 4), 0, None)],
                       2: [("iii", (0, 0, 0, 0, 1, 0), Fraction(1, 12), 0, None)]},
                   _EVEN_WEIGHT_4),
    # the signed restricted sum identity, r = 2l mod 3 split by parity of l1:
    #   S(l1=r(3), odd) - S(l1=r(3), even) - S(l1=l-1(3)) - 2 S(l1=4(6))
    #     = -frac((l+1)/3) zeta(l) + (2/3) T_l(-1, 1);
    # at l = 2 (mod 3) the classes 1 and 4 each carry cancelling signs
    "prop1": (3, {0: [("", (-1, 0, -1, 1, -2, -1), Fraction(-1, 3), Fraction(2, 3), _T_M11)],
                  1: [("", (-1, 0, -1, -1, -2, 1), Fraction(-2, 3), Fraction(2, 3), _T_M11)],
                  2: [("", (0, 0, 0, 0, -4, 0), 0, Fraction(2, 3), _T_M11)]}, _WEIGHT_3),
}


def _statement_relations(suite: str, l: int) -> list[tuple]:
    """The suite's rows at weight l as relations; a right side is the form
    c (rhs + (z/c) zeta(l)), or z zeta(l) when c = 0."""
    modulus, by_residue, hypothesis = _STATEMENTS[suite]
    rows = by_residue.get(require_exact(l, "a weight", (int,)) % modulus)
    if rows is None or l < 3:
        raise OutsideHypothesis(hypothesis)
    return [(f"{suite}.{tag}[l={l}]" if tag else f"{suite}[l={l}]", _Form(_Classes(lhs)),
             _Form(_Classes(rhs), Fraction(z) / c, c) if c else _Form((), z))
            for tag, lhs, z, c, rhs in rows]


def _statement_checks(suite: str, l: int, ctx: PrecisionCtx) -> list[CheckReport]:
    return _judge(l, _statement_relations(suite, l), ctx)


def sum_formula_check(l: int, ctx: PrecisionCtx) -> CheckReport:
    """The weight-l table adds up to zeta(l)."""
    return _statement_checks("sum-formula", l, ctx)[0]


def weighted_sum_check(l: int, ctx: PrecisionCtx) -> CheckReport:
    """T_l(2, 1) = sum 2^(l1-1) zeta(l1, l2) = (l+1) zeta(l) / 2 over the
    weight-l table; the left side is the dot product lemma1 reads too."""
    t_2_1 = _Form(_powers(2, _table_weight(l) - 2))
    return _judge(l, [(f"weighted-sum[l={l}]", t_2_1, _Form((), Fraction(l + 1, 2)))], ctx)[0]


def harmonic_check(l: int, ctx: PrecisionCtx) -> list[CheckReport]:
    """zeta(a) zeta(b) = zeta(a,b) + zeta(b,a) + zeta(l) for every split
    a + b = l with 2 <= a <= b; the left side is the product of two balls."""
    if require_exact(l, "a weight", (int,)) < 4:
        raise OutsideHypothesis("needs weight >= 4 (both exponents >= 2)")
    wp = ctx.working_precision + GUARD_BITS
    return _judge(l, [(f"harmonic[{a},{l - a}]",
                       zeta_numeric(a, ctx).mul(zeta_numeric(l - a, ctx), wp),
                       _Form({a - 1: 2} if 2 * a == l else {a - 1: 1, l - a - 1: 1}, 1))
                      for a in range(2, l // 2 + 1)], ctx)


def gkz_parity_check(l: int, ctx: PrecisionCtx) -> Tuple[CheckReport, CheckReport]:
    """The parity formulas of even weight l >= 4; at weight 4 both equalities
    are additionally verified exactly in rational pi^4 coefficients, and the
    reports are marked exact."""
    even, odd = _statement_checks("gkz-parity", l, ctx)
    if l == 4:
        z2, z4 = zeta_even_exact(2), zeta_even_exact(4)
        dz22 = (z2 * z2 - z4) * Fraction(1, 2)   # harmonic relation at (2,2)
        dz31 = z4 - dz22                          # weight-4 sum formula
        even = even._replace(passed=even.passed and dz22 == z4 * Fraction(3, 4), exact=True)
        odd = odd._replace(passed=odd.passed and dz31 == z4 * Fraction(1, 4), exact=True)
    return even, odd


def theorem1_check(l: int, ctx: PrecisionCtx) -> CheckReport:
    """The weight-mod-3 restricted sum formula, case i, ii or iii by l mod 3."""
    return _statement_checks("theorem1", l, ctx)[0]


def corollary1_check(l: int, ctx: PrecisionCtx) -> CheckReport:
    """theorem1's even-weight restatement, case i, iii or ii by l mod 6."""
    return _statement_checks("corollary1", l, ctx)[0]


def prop1_check(l: int, ctx: PrecisionCtx) -> CheckReport:
    """The signed restricted sum identity with T_l(-1, 1) on the right."""
    return _statement_checks("prop1", l, ctx)[0]


# ---------------------------------------------------------------------------
# cube-root-of-unity equations
# ---------------------------------------------------------------------------

# Lemma 1's equations 1-4: sum T_l(X, Y) over x in {1, omega, omega^2} = 3 sum over
# l1 = r(l) (mod 3) of sign[l1%6] zeta(l1, l2), + (l+1)/2 zeta(l) - T_l(-1, 1) if tail.
# X and Y are each x, 1 or x+1; with z = exp(i pi/3), omega = z^2 and omega + 1 = z,
# so at x = omega they are z^a and z^b (exponent 2, 0 or 1), at x = omega^2 z^-a and z^-b
_LEMMA1 = [  # (tag, (a, b), r, sign, tail)
    ("eq1", (1, 0), lambda l: 1, _T_M11, True),     # (x+1, 1)
    ("eq2", (1, 2), lambda l: 2 * l, _T_M11, True),  # (x+1, x)
    ("eq3", (2, 0), lambda l: 1, _ALL, False),       # (x, 1)
    ("eq4", (0, 2), lambda l: l - 1, _ALL, False),   # (1, x)
]
_AT_ONE = (1, 2, 1)  # the argument z^a at x = 1 instead: 1 (a = 0), x+1 = 2, x = 1
_TWO_COS = (2, 1, -1, -2, -1, 1)  # z^n + z^-n = 2 cos(pi n/3), n mod 6


def _lemma1_classes(a: int, b: int, l: int) -> tuple[int, ...]:
    """The class vector of T_l(z^a, z^b) + T_l(z^-a, z^-b), a row's x = omega
    and x = omega^2 terms: the coefficient of zeta(l1, l2) is z^n + z^-n,
    n = a (l1-1) + b (l2-1), which with l2 = l - l1 depends on l1 mod 6 only."""
    return tuple(_TWO_COS[(a * (r - 1) + b * (l - r - 1)) % 6] for r in range(6))


def _lemma1_eq5_count(l: int) -> int:
    """sum over x in {1, omega, omega^2} of sum_{i<=l-2} x^i, counted: with
    omega^i = z^2i, the three roots add 1 + _TWO_COS[2i mod 6] for each i."""
    return sum(1 + _TWO_COS[2 * i % 6] for i in range(l - 1))


def _lemma1_rows(m: int) -> list[tuple]:
    """Lemma 1's rows 1-4 at the weights l = m (mod 3), (tag, left, right, tail):
    right is 3 times the signed l1 class mod 3, minus T_l(-1, 1) with the tail;
    left is the class vector, plus 1 where the x = 1 term is T_l(1, 1), else a
    tuple that T_l(2, 1)'s weights 2^(l1-1) are added to at each weight."""
    rows = []
    for tag, (a, b), residue, sign, tail in _LEMMA1:
        left, r = _lemma1_classes(a, b, m), residue(m) % 3
        if _AT_ONE[a] == _AT_ONE[b] == 1:
            left = _Classes(1 + c for c in left)
        rows.append((tag, left, _Classes(3 * sign[c] * (c % 3 == r) - tail * _T_M11[c]
                                         for c in range(6)), tail))
    return rows


_LEMMA1_ROWS = [_lemma1_rows(m) for m in range(3)]


def _lemma1_relations(l: int) -> list[tuple]:
    """Lemma 1's five identities at weight l: rows 1-4 by l mod 3, with one
    list of T_l(2, 1)'s weights (slot l1 - 1 is of class l1 % 6); then
    equation 5, the divided difference (x^(l-1) - 1) / (x - 1), whose sum
    is 3 floor((l+1)/3)."""
    t21, half = _powers(2, l - 2), Fraction(l + 1, 2)
    relations = [(f"lemma1.{tag}[l={l}]",
                  _Form(left if isinstance(left, _Classes)
                        else list(map(add, t21, islice(cycle(left), 1, l)))),
                  _Form(right, half if tail else 0))
                 for tag, left, right, tail in _LEMMA1_ROWS[l % 3]]
    return relations + [(f"lemma1.eq5[l={l}]", _Form((), _lemma1_eq5_count(l)),
                         _Form((), 3 * ((l + 1) // 3)))]


def lemma1_check(l: int, ctx: PrecisionCtx) -> list[CheckReport]:
    """Lemma 1's five cube-root-of-unity identities; no complex number is
    evaluated."""
    return _judge(l, _lemma1_relations(_table_weight(l)), ctx)


# ---------------------------------------------------------------------------
# two-variable functional equation
# ---------------------------------------------------------------------------

@cache
def _eq26_plan(l: int) -> tuple[tuple, int]:
    """eq26's points at weight l, (1, 1) and seeded rationals with |x|, |y| <= 2,
    each as (x, y, label, a, b, k) with ``_point``'s a, b and k at d = l - 2,
    and the bits its precision rule adds, drawn once per weight: a side is at
    most (l+1) zeta(l) M^(l-2) <= S = 2 l M^(l-2), M = max(1, |x|, |y|, |x+y|),
    with radius about S 2^-p, so S above 2^GUARD_BITS raises p by the excess."""
    rng = random.Random(0x26000 + l)
    pts = [(Fraction(1), Fraction(1))] + [
        (Fraction(rng.randint(-16, 16), 8), Fraction(rng.randint(-16, 16), 8)) for _ in range(4)]
    m = max(max(1, abs(x), abs(y), abs(x + y)) for x, y in pts)
    extra = max(0, (ceil(2 * l * m ** (l - 2)) - 1).bit_length() - GUARD_BITS)
    return tuple((x, y, f"eq26[l={l},x={x},y={y}]", *_point(x, y, l - 2)) for x, y in pts), extra


def eq26_check(l: int, ctx: PrecisionCtx) -> list[CheckReport]:
    """The functional equation of T_l at (1, 1) and four seeded rational
    points (x, y), at a precision that follows the size of the sides."""
    points, extra = _eq26_plan(_table_weight(l))
    if extra:
        ctx = PrecisionCtx(ctx.working_precision + extra, ctx.target_tolerance)
    return _judge(l, [(label, *_eq26_sides(l - 2, *point)) for _, _, label, *point in points], ctx)


# ---------------------------------------------------------------------------
# exact chain: restricted sum formula -> gap-6 Bernoulli identities
# ---------------------------------------------------------------------------

@cache
def _zeta_coefficient(j: int) -> Fraction:
    """j! c_j, where zeta(j) = c_j pi^j is read from ``zeta_even_exact``."""
    return factorial(j) * zeta_even_exact(j)


def corollary2_exact_chain(l: int, ctx: Optional[PrecisionCtx] = None) -> CheckReport:
    """Exact verification, in rationals, that for l = 2 (mod 6), l >= 8:

      (a) the table has exactly (l-2)/6 pairs with l1 = l2 = 4 (mod 6);
      (b) sum_{j=4(6), 0<j<l} zeta(j) zeta(l-j) = ((l-1)/6) zeta(l), both
          sides rationals times pi^l with zeta(j) = c_j pi^j read from
          ``zeta_even_exact``: the left side's is sum C(l,j) u_j u_(l-j) / l!
          over u_j = j! c_j, by the exact class sum kernel of the Bernoulli
          identities, the right side's c_l (l-1)/6;
      (c) converting (b) through zeta(m) = (-1)^(m/2+1) 2^(m-1) B_m/m! pi^m
          reproduces the m = 4 gap-6 Bernoulli identity exactly as checked by
          the bernoulli module.

    The report's sides are the pi^l coefficients of (b); it passes only when
    (a), (b) and (c) all hold.  Exact, so ``ctx`` is ignored.
    """
    _require_gap6_weight(l)

    count_ok = sum(l1 % 6 == 4 == (l - l1) % 6 for l1 in range(2, l)) == (l - 2) // 6

    # u vanishes off j = 4 (mod 6), a class that l - j keeps when l = 2 (mod 6)
    s4 = _class_sums([_zeta_coefficient(j) if j % 6 == 4 else 0 for j in range(l + 1)], l)[2]
    lhs = s4 / factorial(l)
    rhs = zeta_even_exact(l) * Fraction(l - 1, 6)

    # bridge to the Bernoulli convolution: multiply the pi^l coefficient
    # identity by (-1)^(l/2) l! / 2^(l-2)
    scale = Fraction((-1) ** (l // 2) * factorial(l), 2 ** (l - 2))
    # the m = 4 gap-6 identity: its sum and its right side -((l-1)/3) B_l
    gap6_rhs = Fraction(-(l - 1), 3) * bernoulli(l)
    bridge_ok = lhs * scale == ramanujan_sum(l, 4) == gap6_rhs == rhs * scale

    report = exact_check(f"corollary2-chain[l={l}]", l, lhs, rhs)
    return report._replace(passed=report.passed and count_ok and bridge_ok)
