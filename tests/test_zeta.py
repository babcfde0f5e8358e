"""Tests for exact even zeta values and the Euler-Maclaurin Hurwitz engine
at integer points."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dzv import zeta as zeta_mod
from dzv.numerics import (
    GUARD_BITS,
    DomainError,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
)
from dzv.zeta import _hurwitz, hurwitz_zeta, zeta_even_exact, zeta_numeric

from oracles import (
    akiyama_tanigawa_bernoulli,
    alternating_hurwitz_interval,
    alternating_zeta_interval,
    bbp_pi_interval,
    contains_fraction,
    contains_within,
    contains_zero,
    em_coefficient,
    hurwitz_direct_interval,
    lower_fraction,
    meets_interval,
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
    # the rational c of zeta(m) = c pi^m
    assert zeta_even_exact(2) == Fraction(1, 6)
    assert zeta_even_exact(4) == Fraction(1, 90)
    assert zeta_even_exact(8) == Fraction(1, 9450)
    assert zeta_even_exact(14) == Fraction(2, 18243225)
    assert all(type(zeta_even_exact(m)) is Fraction for m in (2, 4, 8, 14))


def test_zeta_even_exact_matches_oracle_formula():
    for m in range(2, 42, 2):
        assert zeta_even_exact(m) == _zeta_even_coeff_oracle(m)


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
    for s, a in ((2, 1), (3, 2), (5, 7), (4, 12), (3, 121), (2, 1000)):
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
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=1000))
def test_hurwitz_defining_recurrence(s, a):
    """zeta(s,a) - zeta(s,a+1) - a^-s must enclose zero tightly."""
    ctx = PrecisionCtx(128)
    wp = 200
    res = hurwitz_zeta(s, a, ctx).sub(hurwitz_zeta(s, a + 1, ctx), wp)
    res = res.sub(RealBall.from_fraction(1 / Fraction(a) ** s, wp), wp)
    assert contains_zero(res)
    # radius stays at roundoff scale: a few ulps of the leading value
    assert res.radius_fraction() <= Fraction(1, 2**120)


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
        hurwitz_zeta(3, 0, ctx128)


@pytest.mark.parametrize("a", [1.1, 2.0, True, "2", Fraction(2), Fraction(7, 3)],
                         ids=["float", "integral-float", "bool", "str", "integral-fraction",
                              "fraction"])
def test_hurwitz_rejects_a_that_is_not_int_or_fraction(ctx128, a):
    # the point is an int: a float is not the rational it was written as, and
    # Fraction(2), equal to 2 and hashed alike, would answer from 2's memo key;
    # the check comes before the memo, so nothing is cached for such an a
    before = _hurwitz.cache_info().currsize
    with pytest.raises(DomainError):
        hurwitz_zeta(3, a, ctx128)
    assert _hurwitz.cache_info().currsize == before


@pytest.mark.parametrize("a", [121, 7, 1000])
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


def test_hurwitz_kernel_floors_enclose_the_truncated_sum(em_sums):
    """With the truncation's remainder taken off its radius, the kernel's ball
    must still hold the exact Euler-Maclaurin sum of the terms it kept: the
    floors' counted error is in the radius and the centre sits mid-way in
    their one-sided interval.  Every correction drawn, the omitted one too,
    is the floor f of its exact term, so |f| + 1 covers it."""
    n_lead = 16
    for s in (2, 3, 5, 9, 20, 41):
        for a in (1, 2, 7, 12, 121, 1000):
            ball = zeta_mod._hurwitz_em_once(s, a, 96, n_lead)
            call = em_sums[-1]
            x = a + n_lead
            exact = (sum(1 / Fraction(n + a) ** s for n in range(n_lead))
                     + 1 / ((s - 1) * Fraction(x) ** (s - 1)) + 1 / (2 * Fraction(x) ** s))
            for k, (f, r) in enumerate(call.drawn, 1):
                term = em_coefficient(s, k) / Fraction(x) ** (s - 1 + 2 * k)
                assert r == 0 and f <= term * 2**call.width < f + 1, (s, a, k)
                if k < len(call.drawn):  # the last correction drawn is the omitted one
                    exact += term
            assert contains_within(ball, exact, call.remainder), (s, a)


@pytest.mark.parametrize("s, a, wp, n_lead", [(40, 1, 96, 1), (30, 2, 128, 2), (64, 1, 192, 4)])
def test_em_sum_stops_at_the_asymptotic_minimum(em_sums, s, a, wp, n_lead):
    """With too few leading terms the corrections stop shrinking before any
    is negligible: the rule stops at the first bound that is no smaller than
    the one before, draws nothing past it, and keeps 4x that bound in the
    radius, which still encloses zeta(s, a)."""
    ball = zeta_mod._hurwitz_em_once(s, a, wp, n_lead)
    (call,) = em_sums
    bounds = [abs(f) + 1 + r for f, r in call.drawn]
    assert len(bounds) >= 2 and bounds[-1] >= bounds[-2] and 4 * bounds[-1] > call.negligible
    # every earlier correction shrank and was not negligible, so the rule drew on past it
    assert all(4 * b > call.negligible for b in bounds[:-1])
    assert all(b < prev for prev, b in zip(bounds, bounds[1:-1]))
    lo, hi = hurwitz_direct_interval(s, a, 200)
    assert contains_fraction(ball, lo) and contains_fraction(ball, hi)
    assert ball.radius_fraction() >= call.remainder


def test_hurwitz_radius_miss_raises_and_caches_nothing(monkeypatch):
    monkeypatch.setattr(zeta_mod, "_hurwitz_em_once",
                        lambda s, a, wp, n_lead: RealBall(1, 0, 1, -1))
    before = _hurwitz.cache_info().currsize
    with pytest.raises(PrecisionUnreachableError):
        hurwitz_zeta(7, 5, PrecisionCtx(100))
    assert _hurwitz.cache_info().currsize == before


# ---------------------------------------------------------------------------
# the alternating-series oracle, apart from the Euler-Maclaurin evaluator
# ---------------------------------------------------------------------------

def _narrow(lo: Fraction, hi: Fraction, bits: int) -> bool:
    return 0 < lo <= hi and hi - lo <= lo / 2**bits


def test_alternating_oracle_meets_c_pi_power_at_even_s():
    """zeta(s) and zeta(s, 2) = zeta(s) - 1 at even s against c pi^s, c from
    the Akiyama-Tanigawa Bernoulli numbers and pi from the BBP series."""
    bits = 320
    pi_lo, pi_hi = bbp_pi_interval(bits // 4 + 8)
    for s in (2, 4, 10, 30, 60):
        c = _zeta_even_coeff_oracle(s)
        lo, hi = alternating_zeta_interval(s, bits)
        assert _narrow(lo, hi, bits) and lo <= c * pi_hi**s and c * pi_lo**s <= hi, s
        lo, hi = alternating_hurwitz_interval(s, 2, bits)
        assert _narrow(lo, hi, bits) and lo <= c * pi_hi**s - 1 and c * pi_lo**s - 1 <= hi, s


def test_alternating_oracle_meets_direct_sums_at_large_s():
    for s in (41, 63, 101):
        lo, hi = alternating_zeta_interval(s, 256)
        d_lo, d_hi = zeta_direct_interval(s, 100)
        assert _narrow(lo, hi, 256) and _narrow(d_lo, d_hi, 256) and lo <= d_hi and d_lo <= hi, s
    for s, a in ((60, 2), (80, 3)):
        lo, hi = alternating_hurwitz_interval(s, a, 256)
        d_lo, d_hi = hurwitz_direct_interval(s, a, 40)
        assert _narrow(lo, hi, 256) and _narrow(d_lo, d_hi, 256) and lo <= d_hi and d_lo <= hi, s


@pytest.mark.parametrize("precision, a, ss", [
    (1024 + GUARD_BITS, 537, (2, 3, 16, 17, 64, 129, 197)),
    (2048 + GUARD_BITS, 1049, (16, 29, 30, 31, 101, 200, 361)),
], ids=["1024", "2048"])
def test_hurwitz_keys_of_wide_tables_meet_the_alternating_oracle(precision, a, ss):
    """A sample of the keys zeta(s, A) that the 1024- and 2048-bit tables ask
    for, at the point A and working precision they ask for them."""
    for s in ss:
        lo, hi = alternating_hurwitz_interval(s, a, precision + 64)
        assert meets_interval(hurwitz_zeta(s, a, PrecisionCtx(precision)), lo, hi), s


@pytest.mark.parametrize("precision", [192, 1024])
def test_odd_zeta_values_meet_the_alternating_oracle(precision):
    for s in range(3, 102, 2):
        lo, hi = alternating_zeta_interval(s, precision + 64)
        assert meets_interval(zeta_numeric(s, PrecisionCtx(precision)), lo, hi), s
