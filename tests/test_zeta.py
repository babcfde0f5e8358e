"""Tests for exact even zeta values and the Euler-Maclaurin Hurwitz engine."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dzv import zeta as zeta_mod
from dzv.numerics import (
    DomainError,
    PiPolynomial,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
)
from dzv.zeta import _hurwitz_rational, hurwitz_zeta, zeta_even_exact, zeta_numeric

from oracles import (
    akiyama_tanigawa_bernoulli,
    contains_fraction,
    contains_zero,
    em_coefficient,
    hurwitz_direct_interval,
    lower_fraction,
    upper_fraction,
    zeta_direct_interval,
)

_AT = akiyama_tanigawa_bernoulli(60)


def _zeta_even_coeff_oracle(m: int) -> Fraction:
    """Coefficient of pi^m in zeta(m), from the oracle Bernoulli numbers."""
    return Fraction((-1) ** (m // 2 + 1) * 2 ** (m - 1), factorial(m)) * _AT[m]


# ---------------------------------------------------------------------------
# exact even values
# ---------------------------------------------------------------------------

def test_zeta_even_exact_small_cases():
    assert zeta_even_exact(2) == PiPolynomial.single(2, Fraction(1, 6))
    assert zeta_even_exact(4) == PiPolynomial.single(4, Fraction(1, 90))
    assert zeta_even_exact(8) == PiPolynomial.single(8, Fraction(1, 9450))
    assert zeta_even_exact(14) == PiPolynomial.single(14, Fraction(2, 18243225))


def test_zeta_even_exact_matches_oracle_formula():
    for m in range(2, 42, 2):
        assert zeta_even_exact(m) == PiPolynomial.single(m, _zeta_even_coeff_oracle(m))


def test_zeta_even_exact_rejects_odd():
    with pytest.raises(DomainError):
        zeta_even_exact(3)
    with pytest.raises(DomainError):
        zeta_even_exact(0)


def test_zeta_even_exact_rejects_non_int_index():
    zeta_even_exact(4)  # a warm memo must not answer for 4.0
    for bad in (4.0, True):
        with pytest.raises(DomainError):
            zeta_even_exact(bad)


# ---------------------------------------------------------------------------
# numeric values against the direct-summation oracle
# ---------------------------------------------------------------------------

def test_zeta_numeric_examples(ctx128):
    lo, hi = zeta_direct_interval(2, 4096)
    z2 = zeta_numeric(2, ctx128)
    assert lo <= lower_fraction(z2) and upper_fraction(z2) <= hi

    lo, hi = zeta_direct_interval(3, 2048)
    z3 = zeta_numeric(3, ctx128)
    assert lo <= lower_fraction(z3) and upper_fraction(z3) <= hi


def test_zeta_numeric_consistency_even_arguments(ctx64):
    # every even s <= 40: ball intersects the direct-sum enclosure
    for s in range(2, 42, 2):
        lo, hi = zeta_direct_interval(s, 64)
        z = zeta_numeric(s, ctx64)
        assert max(lo, lower_fraction(z)) <= min(hi, upper_fraction(z)), s


def test_zeta_numeric_rejects_divergent():
    with pytest.raises(DomainError):
        zeta_numeric(1, PrecisionCtx(64))
    with pytest.raises(DomainError):
        zeta_numeric(0, PrecisionCtx(64))


def test_non_integer_s_is_rejected_before_the_memo():
    # 3.0 == 3 share a memo key: a float s that reached the Euler-Maclaurin sum
    # would run it in floating point and cache a full-precision radius for s = 3
    ctx = PrecisionCtx(136)
    for s in (3.0, 2.5):
        with pytest.raises(DomainError):
            zeta_numeric(s, ctx)
        with pytest.raises(DomainError):
            hurwitz_zeta(s, 1, ctx)
    assert zeta_numeric(3, ctx).intersects(zeta_numeric(3, PrecisionCtx(272)))


def test_zeta_numeric_monotone_precision():
    for s in (2, 3, 7, 20):
        r1 = zeta_numeric(s, PrecisionCtx(96)).radius_fraction()
        r2 = zeta_numeric(s, PrecisionCtx(192)).radius_fraction()
        assert r2 <= r1


def test_zeta_numeric_radius_meets_relative_target():
    for prec in (64, 128, 256):
        ctx = PrecisionCtx(prec)
        for s in (2, 3, 11):
            z = zeta_numeric(s, ctx)
            assert z.radius_fraction() <= lower_fraction(z) * Fraction(4, 2**prec)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def test_hurwitz_at_one_is_riemann(ctx128):
    h = hurwitz_zeta(2, 1, ctx128)
    z = zeta_numeric(2, ctx128)
    assert h.intersects(z)


def test_hurwitz_against_direct_sum_oracle(ctx128):
    for s, a in ((2, Fraction(1)), (3, Fraction(3, 2)), (5, Fraction(7, 3)), (4, Fraction(12))):
        lo, hi = hurwitz_direct_interval(s, a, 3000)
        h = hurwitz_zeta(s, a, ctx128)
        assert max(lo, lower_fraction(h)) <= min(hi, upper_fraction(h)), (s, a)


def test_hurwitz_shift_example(ctx128):
    # zeta(4,3) = zeta(4) - 1 - 2^-4
    h = hurwitz_zeta(4, 3, ctx128)
    expected = zeta_numeric(4, ctx128).sub(
        RealBall.from_fraction(Fraction(17, 16), 176), 176)
    assert h.intersects(expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.fractions(min_value=1, max_value=20, max_denominator=16))
def test_hurwitz_defining_recurrence(s, a):
    """zeta(s,a) - zeta(s,a+1) - a^-s must enclose zero tightly."""
    ctx = PrecisionCtx(128)
    wp = 200
    res = hurwitz_zeta(s, a, ctx).sub(hurwitz_zeta(s, a + 1, ctx), wp)
    res = res.sub(RealBall.from_fraction(1 / Fraction(a) ** s, wp), wp)
    assert contains_zero(res)
    # radius stays at roundoff scale: a few ulps of the leading value
    assert res.radius_fraction() <= Fraction(1, 2**120)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=9),
       st.fractions(min_value=1, max_value=10, max_denominator=8))
def test_hurwitz_derivative_vs_finite_difference(s, a):
    """(zeta(s,a+h) - zeta(s,a))/h = -s zeta(s+1,a) + O(h), with the O(h)
    Taylor remainder bounded by s(s+1) zeta(s+2,a) h / 2."""
    ctx = PrecisionCtx(128)
    wp = 200
    h = Fraction(1, 2**40)
    fd = hurwitz_zeta(s, a + h, ctx).sub(hurwitz_zeta(s, a, ctx), wp)
    fd = fd.mul(RealBall.from_fraction(1 / h, wp), wp)
    deriv = hurwitz_zeta(s + 1, a, ctx).mul_int(-s)
    taylor_bound = (Fraction(s * (s + 1), 2)
                    * upper_fraction(hurwitz_zeta(s + 2, a, ctx)) * h)
    residual = fd.sub(deriv, wp).add_error(taylor_bound)
    assert contains_zero(residual)


def test_hurwitz_high_precision_escalation():
    # the relative target holds at high precision from the one evaluation at
    # N = max(16, wp/4) leading terms, for every key here
    ctx = PrecisionCtx(512)
    z = hurwitz_zeta(3, 1, ctx)
    assert z.radius_fraction() <= lower_fraction(z) * Fraction(1, 2**512)
    lo, hi = zeta_direct_interval(3, 1024)
    assert max(lo, lower_fraction(z)) <= min(hi, upper_fraction(z))
    ctx = PrecisionCtx(1024)
    for s in (2, 41, 101):
        for a in (1, 121):
            z = hurwitz_zeta(s, a, ctx)
            assert z.radius_fraction() <= lower_fraction(z) * Fraction(1, 2**1024)


def test_hurwitz_preconditions(ctx128):
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 1, ctx128)
    with pytest.raises(DomainError):
        hurwitz_zeta(3, Fraction(1, 2), ctx128)


@pytest.mark.parametrize("a", [1.1, 2.0, True, "2"],
                         ids=["float", "integral-float", "bool", "str"])
def test_hurwitz_rejects_a_that_is_not_int_or_fraction(ctx128, a):
    # Fraction(1.1) is the double nearest 1.1, whose ball misses that of 11/10;
    # the check comes before the memo, so nothing is cached for such an a
    before = _hurwitz_rational.cache_info().currsize
    with pytest.raises(DomainError):
        hurwitz_zeta(3, a, ctx128)
    assert _hurwitz_rational.cache_info().currsize == before


def test_hurwitz_int_and_fraction_share_one_memo_key(ctx128):
    # either type may reach the cold memo first; the value is the same
    values = []
    for first, second in ((2, Fraction(2)), (Fraction(2), 2)):
        _hurwitz_rational.cache_clear()
        values += [hurwitz_zeta(5, first, ctx128), hurwitz_zeta(5, second, ctx128)]
        assert _hurwitz_rational.cache_info().currsize == 1
    bounds = {(lower_fraction(v), upper_fraction(v)) for v in values}
    assert len(bounds) == 1


@pytest.mark.parametrize("a", [121, Fraction(7, 3), Fraction(1000, 999)],
                         ids=["121", "7/3", "1000/999"])
def test_hurwitz_recurrence_at_1024_bits(a):
    """zeta(s,a) - zeta(s,a+1) = a^-s to 2^-1020 of a^-s, for s up to 200,
    where the fixed-point width W grows by s bits per bit of a."""
    ctx = PrecisionCtx(1024)
    wp = 1100
    for s in (2, 3, 17, 64, 129, 200):
        power = 1 / Fraction(a) ** s
        res = hurwitz_zeta(s, a, ctx).sub(hurwitz_zeta(s, a + 1, ctx), wp)
        res = res.sub(RealBall.from_fraction(power, wp), wp)
        assert contains_zero(res), s
        assert res.radius_fraction() <= power / 2**1020, s


def test_hurwitz_kernel_floors_enclose_the_truncated_sum(monkeypatch):
    """With the truncation's remainder replaced by 0, the kernel's ball must
    still hold the exact Euler-Maclaurin sum of the terms it kept: the floors'
    counted error is in the radius and the centre sits mid-way in their
    one-sided interval.  Every bound the truncation draws covers all of
    [f, f+1), the terms a correction's floor f stands for."""
    truncate = zeta_mod._em_truncate
    drawn = []

    def without_remainder(terms, negligible):
        def recorded():
            for f, bound in terms:
                drawn.append((f, bound))
                yield f, bound
        kept, _ = truncate(recorded(), negligible)
        return kept, 0

    monkeypatch.setattr(zeta_mod, "_em_truncate", without_remainder)
    n_lead = 16
    for s in (2, 3, 5, 9, 20, 41):
        for a in (1, Fraction(3, 2), Fraction(7, 3), 12, 121, Fraction(1000, 999)):
            drawn.clear()
            ball = zeta_mod._hurwitz_em_once(s, a, 96, n_lead)
            x = a + n_lead
            exact = (sum(1 / Fraction(n + a) ** s for n in range(n_lead))
                     + 1 / ((s - 1) * Fraction(x) ** (s - 1)) + 1 / (2 * Fraction(x) ** s))
            for k in range(1, len(drawn)):  # the last pair drawn is the omitted one
                exact += em_coefficient(s, k) / Fraction(x) ** (s - 1 + 2 * k)
            assert contains_fraction(ball, exact), (s, a)
            assert all(bound >= max(abs(f), abs(f + 1)) for f, bound in drawn), (s, a)


def test_hurwitz_radius_miss_raises_and_caches_nothing(monkeypatch):
    monkeypatch.setattr(zeta_mod, "_hurwitz_em_once",
                        lambda s, a, wp, n_lead: RealBall(1, 0, 1, -1))
    before = _hurwitz_rational.cache_info().currsize
    with pytest.raises(PrecisionUnreachableError):
        hurwitz_zeta(7, Fraction(5, 3), PrecisionCtx(100))
    assert _hurwitz_rational.cache_info().currsize == before
