"""Double zeta values zeta(l1, l2) = sum_{m1 > m2 > 0} m1^-l1 m2^-l2 with
certified radii, per-weight tables, the weight-l generating polynomial
T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2), and the two sides of its
two-variable functional equation.

Evaluation strategy: the inner sum over m1 > m2 is zeta(l1, m2+1); the first M
values of m2 are summed directly and the tail sum_{m2 > M} g(m2) with
g(x) = x^-l2 zeta(l1, x+1) is accelerated by Euler-Maclaurin.  Derivatives of
g close under d/da zeta(s, a) = -s zeta(s+1, a), so every correction term is a
finite combination of Hurwitz zeta balls; both remainders (the tail integral's
series and the correction series) are bounded by 4x the first omitted term and
added to the radius.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Mapping

from .numerics import (
    GUARD_BITS,
    ComplexBall,
    DomainError,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    ball_sum,
    complex_sum,
)
from .zeta import hurwitz_zeta, zeta_numeric
from .bernoulli import bernoulli

__all__ = [
    "IndexPair",
    "DzvTable",
    "double_zeta",
    "build_table",
    "get_table",
    "gen_poly_eval",
    "functional_eq26_sides",
    "functional_eq26_check",
]

_MAX_ESCALATIONS = 8


@dataclass(frozen=True, order=True)
class IndexPair:
    """Argument pair of a double zeta value; convergent iff l1 >= 2, l2 >= 1."""

    l1: int
    l2: int

    def __post_init__(self):
        if self.l1 < 2 or self.l2 < 1:
            raise DomainError(f"zeta({self.l1},{self.l2}) diverges; need l1 >= 2, l2 >= 1")

    @property
    def weight(self) -> int:
        return self.l1 + self.l2


def _rising(a: int, n: int) -> int:
    r = 1
    for i in range(n):
        r *= a + i
    return r


def _factorial(n: int) -> int:
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def _g_derivative(l1: int, l2: int, a_cut: int, j: int,
                  hz_ctx: PrecisionCtx, wp: int) -> RealBall:
    """Ball of g^(j)(A) for g(x) = x^-l2 zeta(l1, x+1), via Leibniz:

        g^(j)(A) = (-1)^j sum_i C(j,i) (l2)_i (l1)_{j-i} A^(-l2-i) zeta(l1+j-i, A+1).
    """
    items = []
    for i in range(j + 1):
        coef = Fraction(comb(j, i) * _rising(l2, i) * _rising(l1, j - i),
                        a_cut ** (l2 + i))
        hz = hurwitz_zeta(l1 + j - i, a_cut + 1, hz_ctx)
        items.append(RealBall.from_fraction(coef, wp).mul(hz, wp))
    total = ball_sum(items, wp)
    return total.neg() if j % 2 else total


def _abs_upper(b: RealBall) -> Fraction:
    return abs(b.midpoint_fraction()) + b.radius_fraction()


def _double_zeta_once(l1: int, l2: int, ctx: PrecisionCtx, wp: int,
                      m_cut: int, k_outer_max: int) -> RealBall:
    w = l1 + l2
    hz_ctx = PrecisionCtx(wp, ctx.target_tolerance)
    pieces = []
    for m2 in range(1, m_cut + 1):
        hz = hurwitz_zeta(l1, m2 + 1, hz_ctx)
        pieces.append(RealBall.from_fraction(Fraction(1, m2 ** l2), wp).mul(hz, wp))
    a_cut = m_cut + 1

    # integral of g over [A, inf): expand zeta(l1, x+1) = zeta(l1, x) - x^-l1
    # in inverse powers of x and integrate term by term
    pieces.append(RealBall.from_fraction(
        Fraction(1, a_cut ** (w - 2) * (l1 - 1) * (w - 2)), wp))
    pieces.append(RealBall.from_fraction(
        Fraction(-1, a_cut ** (w - 1) * 2 * (w - 1)), wp))
    int_rem = None
    prev_abs = None
    fact = 1
    rfv = 1
    k = 1
    while True:
        rfv = rfv * (l1 + 2 * k - 3) * (l1 + 2 * k - 2) if k > 1 else l1
        fact *= (2 * k - 1) * (2 * k)
        term = (bernoulli(2 * k) * rfv / fact) * Fraction(1, a_cut ** (w + 2 * k - 2) * (w + 2 * k - 2))
        ta = abs(term)
        if k > k_outer_max or (prev_abs is not None and ta >= prev_abs):
            int_rem = 4 * ta
            break
        pieces.append(RealBall.from_fraction(term, wp))
        prev_abs = ta
        k += 1

    # g(A)/2
    hz_a = hurwitz_zeta(l1, a_cut + 1, hz_ctx)
    pieces.append(RealBall.from_fraction(Fraction(1, 2 * a_cut ** l2), wp).mul(hz_a, wp))

    # corrections -B_2k/(2k)! g^(2k-1)(A), trimmed at the asymptotic minimum
    out_rem = None
    prev_abs = None
    fact = 2
    k = 1
    while True:
        gball = _g_derivative(l1, l2, a_cut, 2 * k - 1, hz_ctx, wp)
        term = RealBall.from_fraction(-bernoulli(2 * k) / fact, wp).mul(gball, wp)
        ta = _abs_upper(term)
        if k > k_outer_max or (prev_abs is not None and ta >= prev_abs):
            out_rem = 4 * ta
            break
        pieces.append(term)
        prev_abs = ta
        k += 1
        fact *= (2 * k - 1) * (2 * k)

    return ball_sum(pieces, wp).add_error(int_rem + out_rem)


def double_zeta(p: IndexPair, ctx: PrecisionCtx) -> RealBall:
    """Certified ball for zeta(l1, l2), radius at most 2^(1-w) relative to the
    value at working precision w; escalates the direct-sum cutoff on demand."""
    l1, l2 = p.l1, p.l2
    target = ctx.working_precision
    wp = target + GUARD_BITS
    m_cut = max(32, wp // 2)
    k_outer = max(6, wp // 8)
    for attempt in range(_MAX_ESCALATIONS):
        result = _double_zeta_once(l1, l2, ctx, wp, m_cut, k_outer)
        lo = result.lower_fraction()
        if lo > 0 and result.radius_fraction() <= lo * Fraction(2, 2**target):
            return result
        m_cut *= 2
        if attempt % 2 == 1:
            k_outer *= 2
    raise PrecisionUnreachableError(
        f"double_zeta({l1},{l2}) did not reach 2^-{target} relative radius"
    )


@dataclass(frozen=True)
class DzvTable:
    """All double zeta values of one weight at one working precision: entries
    over l1 >= 2, l2 >= 1, l1 + l2 = weight (exactly weight - 2 of them)."""

    weight: int
    precision: int
    entries: Mapping[IndexPair, RealBall]

    def entry(self, l1: int, l2: int) -> RealBall:
        return self.entries[IndexPair(l1, l2)]

    def pairs(self) -> list[IndexPair]:
        return sorted(self.entries.keys())


def build_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Compute the complete weight-l table at the context's working precision."""
    if l < 3:
        raise DomainError("tables need weight >= 3 (no convergent pairs below)")
    pairs = [IndexPair(l1, l - l1) for l1 in range(2, l)]
    values = [double_zeta(q, ctx) for q in pairs]
    return DzvTable(l, ctx.working_precision, MappingProxyType(dict(zip(pairs, values))))


_table_cache: dict = {}
_table_lock = threading.Lock()


def get_table(l: int, ctx: PrecisionCtx) -> DzvTable:
    """Cached tables; the cache key is (weight, working precision), and a
    table holds nothing else of the context."""
    key = (l, ctx.working_precision)
    hit = _table_cache.get(key)
    if hit is not None:
        return hit
    table = build_table(l, ctx)
    with _table_lock:
        _table_cache.setdefault(key, table)
    return _table_cache[key]


def gen_poly_eval(t: DzvTable, x: ComplexBall, y: ComplexBall) -> ComplexBall:
    """Enclosure of T_l(x, y) = sum x^(l1-1) y^(l2-1) zeta(l1, l2)."""
    wp = t.precision + GUARD_BITS
    w = t.weight
    # power tables: x^e for e = 1..w-2, y^e for e = 0..w-3
    xp = [ComplexBall.one(), x]
    for _ in range(2, w - 1):
        xp.append(xp[-1].mul(x, wp))
    yp = [ComplexBall.one()]
    if w >= 4:
        yp.append(y)
    for _ in range(2, w - 2):
        yp.append(yp[-1].mul(y, wp))
    terms = []
    for pair, val in t.entries.items():
        terms.append(xp[pair.l1 - 1].mul(yp[pair.l2 - 1], wp).mul_real(val, wp))
    return complex_sum(terms, wp)


def gen_poly_real(t: DzvTable, x: Fraction, y: Fraction) -> RealBall:
    """T_l at exact rational real arguments."""
    wp = t.precision + GUARD_BITS
    xb = ComplexBall.from_fractions(x, 0, wp)
    yb = ComplexBall.from_fractions(y, 0, wp)
    return gen_poly_eval(t, xb, yb).real


def _divided_difference(x: ComplexBall, y: ComplexBall, l: int, wp: int) -> ComplexBall:
    """(x^(l-1) - y^(l-1)) / (x - y) as the homogeneous sum
    sum_{i+j=l-2} x^i y^j, finite at x = y."""
    xp = [ComplexBall.one()]
    yp = [ComplexBall.one()]
    for _ in range(l - 2):
        xp.append(xp[-1].mul(x, wp))
        yp.append(yp[-1].mul(y, wp))
    return complex_sum((xp[i].mul(yp[l - 2 - i], wp) for i in range(l - 1)), wp)


def functional_eq26_sides(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> tuple[ComplexBall, ComplexBall]:
    """Both sides of the two-variable functional equation

        T_l(x+y, y) + T_l(x+y, x) = T_l(x, y) + T_l(y, x)
                                    + [(x^(l-1) - y^(l-1)) / (x - y)] zeta(l);

    the divided difference is evaluated in homogeneous form, so x = y is fine.
    """
    if l < 3:
        raise DomainError("the functional equation needs weight >= 3")
    t = get_table(l, ctx)
    wp = ctx.working_precision + GUARD_BITS
    xy = x.add(y, wp)
    lhs = gen_poly_eval(t, xy, y).add(gen_poly_eval(t, xy, x), wp)
    rhs = gen_poly_eval(t, x, y).add(gen_poly_eval(t, y, x), wp)
    dd = _divided_difference(x, y, l, wp)
    zl = ComplexBall.from_real(zeta_numeric(l, ctx))
    return lhs, rhs.add(dd.mul(zl, wp), wp)


def functional_eq26_check(l: int, x: ComplexBall, y: ComplexBall,
                          ctx: PrecisionCtx) -> ComplexBall:
    """Residual lhs - rhs of the functional equation; must contain zero."""
    lhs, rhs = functional_eq26_sides(l, x, y, ctx)
    return lhs.sub(rhs, ctx.working_precision + GUARD_BITS)
