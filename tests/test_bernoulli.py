"""Tests for exact Bernoulli numbers and the convolution identities."""

import importlib
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from dzv.bernoulli import (
    _class_sums,
    _even_classes,
    bernoulli,
    euler_identity_check,
    ramanujan_check,
    ramanujan_sum,
)
from dzv.identities import _zeta_coefficient, corollary2_exact_chain
from dzv.numerics import DomainError

from oracles import (akiyama_tanigawa_bernoulli, bernoulli_from_zeta, pascal_binomial,
                     single_integer)

# the module, which the package's function dzv.bernoulli shadows as an attribute
bernoulli_module = importlib.import_module("dzv.bernoulli")

_AT = akiyama_tanigawa_bernoulli(200)


def test_bernoulli_against_akiyama_tanigawa():
    for m in range(201):
        assert bernoulli(m) == _AT[m], m


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for m in range(3, 41, 2):
        assert bernoulli(m) == 0


def test_bernoulli_even_signs_alternate():
    # B_2 > 0, B_4 < 0, B_6 > 0, ...
    for m in range(2, 40, 2):
        expected_positive = (m // 2) % 2 == 1
        assert (bernoulli(m) > 0) == expected_positive, m


def _primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _von_staudt_clausen_holds(m, b, primes):
    """B_m + sum_{(p-1) | m} 1/p is an integer, so the denominator of B_m is the
    product of those primes; and B_m has the sign (-1)^(m/2+1)."""
    ps = [p for p in primes if m % (p - 1) == 0]
    den = 1
    for p in ps:
        den *= p
    return (b.denominator == den and (b + sum(Fraction(1, p) for p in ps)).denominator == 1
            and (b > 0) == ((m // 2) % 2 == 1))


def test_bernoulli_von_staudt_clausen_and_sign_to_800():
    primes = _primes_upto(801)
    for m in range(2, 801, 2):
        assert _von_staudt_clausen_holds(m, bernoulli(m), primes), m


def _differ_from_zeta(values: dict) -> list:
    """The indices n whose value is not B_n from ``oracles.bernoulli_from_zeta``."""
    return [n for n, b in values.items() if b != bernoulli_from_zeta(n)]


def test_bernoulli_from_202_to_800_equals_the_zeta_oracle():
    """Every even B_n above the Akiyama-Tanigawa check, n = 202..800, by value:
    D_n |B_n| is the one integer in an enclosure of 2 n! zeta(n) / (2 pi)^n
    that shares no code with the store."""
    assert _differ_from_zeta({n: bernoulli(n) for n in range(202, 801, 2)}) == []


@pytest.mark.parametrize("n", [202, 498, 800])
def test_zeta_oracle_catches_a_wrong_numerator_or_denominator(n):
    b = bernoulli(n)
    wrong = [Fraction(b.numerator + 1, b.denominator), Fraction(b.numerator - 1, b.denominator),
             Fraction(b.numerator, b.denominator // 3), Fraction(b.numerator, 7 * b.denominator)]
    assert _differ_from_zeta({n: b}) == []
    for v in wrong:
        assert _differ_from_zeta({n: v}) == [n], v


def test_zeta_oracle_fails_loudly_on_no_integer_or_two():
    """An enclosure is never rounded to an integer: one that holds none, or
    is 1 or more wide, raises, and so does a width too coarse to decide."""
    assert single_integer(Fraction(3, 4), Fraction(5, 4)) == 1
    for lo, hi in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 4), Fraction(9, 4)),
                   (Fraction(1, 2), Fraction(3, 2)), (Fraction(0), Fraction(1))):
        with pytest.raises(ArithmeticError):
            single_integer(lo, hi)
    with pytest.raises(ArithmeticError):
        bernoulli_from_zeta(400, guard_bits=-8)


def test_bernoulli_rejects_negative_index():
    with pytest.raises(DomainError):
        bernoulli(-1)


@pytest.fixture
def cold_store(monkeypatch):
    """Returns a function that gives the Bernoulli store fresh module lists
    (B_0..B_2 and the tangent column [T_1]), clears the memos that read it,
    and returns the new list of B's; the fixture calls it once itself."""
    def fresh():
        monkeypatch.setattr(bernoulli_module, "_B", [Fraction(1), Fraction(-1, 2), Fraction(1, 6)])
        monkeypatch.setattr(bernoulli_module, "_COLUMN", [1])
        _even_classes.cache_clear()
        _zeta_coefficient.cache_clear()
        return bernoulli_module._B
    fresh()
    return fresh


@pytest.mark.parametrize("call, n", [
    (bernoulli, 4),
    (euler_identity_check, 12),
    (lambda l: ramanujan_sum(l, 4), 14),
    (ramanujan_check, 14),
    (corollary2_exact_chain, 14),
], ids=["bernoulli", "euler", "ramanujan-sum", "ramanujan-check", "corollary2-chain"])
def test_non_int_index_is_rejected_cold_and_warm(cold_store, call, n):
    """n.0 and True fail with DomainError before any memo, so the verdict
    cannot depend on whether the int n warmed the memo first (12.0 would hit
    the class sums memoized for 12)."""
    for bad in (float(n), True):
        with pytest.raises(DomainError):
            call(bad)
    call(n)
    for bad in (float(n), True):
        with pytest.raises(DomainError):
            call(bad)


def test_cache_determinism(cold_store):
    for m in range(60, -1, -1):  # access order must not matter
        assert bernoulli(m) == _AT[m], m


def test_store_grows_only_to_the_index_asked_for(cold_store):
    assert _von_staudt_clausen_holds(1030, bernoulli(1030), _primes_upto(1031))
    assert len(bernoulli_module._B) - 1 <= 1032
    assert bernoulli(1031) == 0
    assert len(bernoulli_module._B) - 1 <= 1032


def test_reads_below_a_grown_store_agree(cold_store):
    # a cold B_800 grows the store to 800 at once, and the indices 200..0 read
    # its prefix; a second cold store grown one index at a time must end with
    # the same B_0..B_800
    at_once = bernoulli_module._B
    big = bernoulli(800)
    for m in range(200, -1, -1):
        assert bernoulli(m) == _AT[m], m
    stepped = cold_store()
    for m in range(801):
        bernoulli(m)
    assert stepped[:801] == at_once[:801]
    assert bernoulli(800) == big


def test_class_sums_do_not_depend_on_growth_order(cold_store):
    # weight 800 first grows the store past 130; weight 130 first grows it in two steps
    high_first = (_even_classes(800), _even_classes(130))
    cold_store()
    low_first = (_even_classes(130), _even_classes(800))
    assert high_first == low_first[::-1]


def _direct_class_sums(v, l):
    """(S_0, S_2, S_4) summed term by term over every even j, in Fractions."""
    direct = [Fraction(0)] * 3
    for j in range(0, l + 1, 2):
        direct[j % 6 // 2] += pascal_binomial(l, j) * v[j] * v[l - j]
    return tuple(direct)


_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=50),
    # large coprime denominators, so a pair's g = d_j d_(l-j) is far from every other
    st.builds(Fraction, st.integers(-2**200, 2**200),
              st.sampled_from([2**127 - 1, 2**89 - 1, 3**80, 10**30 + 57])),
    # products of distinct small primes, as von Staudt-Clausen denominators are,
    # so gcd(C(l, j), g) ranges from 1 (no cancellation) to g (no division left)
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from([6, 30, 42, 66, 138, 510, 2730, 14322])),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30).map(lambda k: 2 * k), st.data())
def test_class_sums_against_term_by_term_oracle(l, data):
    v = data.draw(st.lists(_rationals, min_size=l + 1, max_size=l + 1))
    assert _class_sums(v, l) == _direct_class_sums(v, l)


# below 16 a residue class can hold no term of the folded pass (its common
# denominator is lcm() = 1); l = 0 and 2 (mod 4), with and without a middle term
@pytest.mark.parametrize("l", [4, 6, 8, 10, 12, 14,
                               126, 128, 130, 254, 256, 258, 510, 512, 514, 800, 1030, 1032])
def test_even_classes_against_term_by_term_oracle(l):
    assert _even_classes(l) == _direct_class_sums([bernoulli(j) for j in range(l + 1)], l)


@pytest.mark.parametrize("l", [8, 14, 50, 200, 506, 512, 518, 800, 1028])
def test_chain_coefficients_against_bernoulli(l):
    # by zeta(j) = (-1)^(j/2+1) 2^(j-1) B_j / j! pi^j, j! c_j = (-1)^(j/2+1) 2^(j-1) B_j
    oracle = [(-1) ** (j // 2 + 1) * 2 ** (j - 1) * bernoulli(j) if j % 6 == 4 else 0
              for j in range(l + 1)]
    assert [_zeta_coefficient(j) for j in range(4, l + 1, 6)] == oracle[4::6]
    lhs = _direct_class_sums(oracle, l)[2] / factorial(l)
    assert corollary2_exact_chain(l).lhs == lhs


# ---------------------------------------------------------------------------
# Euler's convolution identity
# ---------------------------------------------------------------------------

def test_euler_identity_weight4_hand_expansion():
    # B_0 B_4 + 6 B_2^2 + B_4 B_0 = -1/30 + 6/36 - 1/30 = 1/10 = -3 B_4
    v = euler_identity_check(4)
    assert v.lhs == Fraction(1, 10)
    assert v.rhs == Fraction(1, 10)
    assert v.passed


def test_euler_identity_weight6():
    v = euler_identity_check(6)
    assert v.rhs == -5 * bernoulli(6) == Fraction(-5, 42)
    assert v.lhs == v.rhs
    assert v.passed


def test_euler_identity_direct_convolution_oracle():
    # recompute the convolution from the oracle values only
    for l in range(4, 61, 2):
        lhs = sum(comb(l, j) * _AT[j] * _AT[l - j] for j in range(0, l + 1, 2))
        v = euler_identity_check(l)
        assert v.lhs == lhs
        assert v.passed


def test_euler_identity_rejects_bad_weight():
    with pytest.raises(DomainError):
        euler_identity_check(3)
    with pytest.raises(DomainError):
        euler_identity_check(2)


# ---------------------------------------------------------------------------
# gap-6 restricted convolutions
# ---------------------------------------------------------------------------

def test_ramanujan_sum_weight8_single_and_two_term():
    # m=4: only j=4 contributes: C(8,4) B_4^2 = 70/900 = 7/90
    assert ramanujan_sum(8, 4) == Fraction(70, 900) == Fraction(7, 90)
    # m=0: j=0 and j=6: B_8 + C(8,6) B_6 B_2 = -1/30 + 1/9 = 7/90
    assert ramanujan_sum(8, 0) == Fraction(-1, 30) + Fraction(28, 252) == Fraction(7, 90)
    # m=2 is the j -> l-j reflection of m=0
    assert ramanujan_sum(8, 2) == Fraction(7, 90)


def test_ramanujan_sum_direct_oracle():
    # every residue class summed term by term, from the oracle values only
    for l in range(8, 63, 6):
        for m in (0, 2, 4):
            direct = sum((pascal_binomial(l, j) * _AT[j] * _AT[l - j]
                          for j in range(m, l + 1, 6)), Fraction(0))
            assert ramanujan_sum(l, m) == direct, (l, m)


def test_ramanujan_sum_preconditions():
    with pytest.raises(DomainError):
        ramanujan_sum(10, 0)  # 10 = 4 (mod 6)
    with pytest.raises(DomainError):
        ramanujan_sum(2, 0)
    with pytest.raises(DomainError):
        ramanujan_sum(8, 3)


@pytest.mark.parametrize("m", [False, True, Fraction(2), 2.0, 4.0, "2", None],
                         ids=["False", "True", "Fraction", "float", "float-4", "str", "None"])
def test_ramanujan_sum_residue_is_an_int(m):
    """The residue is gated like the weight: False is not S_0, Fraction(2) and
    2.0 are not S_2, and none of them reaches a tuple index."""
    with pytest.raises(DomainError):
        ramanujan_sum(8, m)


def test_ramanujan_check_weight8_and_14():
    for l in (8, 14):
        verdicts = ramanujan_check(l)
        assert len(verdicts) == 3
        assert all(v.passed for v in verdicts)
        assert all(v.rhs == Fraction(-(l - 1), 3) * bernoulli(l) for v in verdicts)


def test_ramanujan_check_rejects_wrong_residue():
    with pytest.raises(DomainError):
        ramanujan_check(10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=30).map(lambda k: 2 * k),
       st.integers(min_value=0, max_value=5))
def test_reflection_symmetry_any_even_weight(l, r):
    """Index change j -> l-j swaps residue classes r and l-r mod 6, for any
    even weight (no gap-6 hypothesis needed)."""
    def restricted(res):
        return sum((Fraction(comb(l, j)) * bernoulli(j) * bernoulli(l - j)
                    for j in range(0, l + 1) if j % 6 == res), Fraction(0))
    assert restricted(r) == restricted((l - r) % 6)


def test_residue_decomposition_adds_to_full_convolution():
    """For l = 2 (mod 6) the classes 0, 2, 4 cover every even j, so the three
    restricted sums add to the full even-index convolution."""
    for l in (8, 14, 20, 26, 32):
        total = sum(ramanujan_sum(l, m) for m in (0, 2, 4))
        assert total == -(l - 1) * bernoulli(l)
        assert total == euler_identity_check(l).lhs
