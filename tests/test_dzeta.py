"""Tests for double zeta evaluation, tables, the generating polynomial, and
its structural relations."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dzv import dzeta as dzeta_mod
from dzv.dzeta import (
    DzvTable,
    IndexPair,
    _Classes,
    _direct_sums,
    _double_zetas,
    _Form,
    _form_ball,
    _table,
    build_table,
    double_zeta,
    functional_eq26_check,
    functional_eq26_sides,
    gen_poly_eval,
    get_table,
)
from dzv.identities import (
    _eq26_plan,
    harmonic_check,
    sum_formula_check,
    weighted_sum_check,
)
from dzv.numerics import (
    GUARD_BITS,
    ComplexBall,
    DomainError,
    PiPolynomial,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    cube_root_of_unity,
    pipoly_eval,
)
from dzv.zeta import _hurwitz, hurwitz_zeta, zeta_even_exact, zeta_numeric

import oracles
from oracles import (
    _homogeneous,
    alternating_hurwitz_interval,
    brute_double_zeta,
    coefficient_vector,
    composed_double_zeta,
    contains_fraction,
    contains_within,
    contains_zero,
    direct_sums,
    divided_difference,
    em_coefficient,
    eq26_sides_by_dots,
    intersects,
    is_exact,
    is_positive,
    lower_fraction,
    meets_interval,
    odd_weight_double_zeta,
    same_enclosure,
    upper_fraction,
)

# exact weight-4 double zeta values as rational pi^4 coefficients, derived once
# from the harmonic relation and the sum formula (both proved relations,
# independent of the evaluator)
_DZ22_EXACT = (zeta_even_exact(2) * zeta_even_exact(2) - zeta_even_exact(4)) * Fraction(1, 2)
_DZ31_EXACT = zeta_even_exact(4) - _DZ22_EXACT


def test_weight4_exact_derivations_have_expected_coefficients():
    assert _DZ22_EXACT == Fraction(1, 120)
    assert _DZ31_EXACT == Fraction(1, 360)


def test_index_pair_validation():
    assert IndexPair(2, 1).weight == 3
    with pytest.raises(DomainError):
        IndexPair(1, 2)
    with pytest.raises(DomainError):
        IndexPair(2, 0)
    with pytest.raises(DomainError):
        IndexPair(2.0, 1)


# ---------------------------------------------------------------------------
# double_zeta values
# ---------------------------------------------------------------------------

def test_double_zeta_21_is_zeta3(ctx128):
    dz = double_zeta(IndexPair(2, 1), ctx128)
    assert dz.intersects(zeta_numeric(3, ctx128))


def test_double_zeta_22_is_pi4_over_120(ctx128):
    dz = double_zeta(IndexPair(2, 2), ctx128)
    assert dz.intersects(pipoly_eval(PiPolynomial.single(4, _DZ22_EXACT), ctx128))


def test_double_zeta_31_is_pi4_over_360(ctx128):
    dz = double_zeta(IndexPair(3, 1), ctx128)
    assert dz.intersects(pipoly_eval(PiPolynomial.single(4, _DZ31_EXACT), ctx128))


def test_double_zeta_radius_meets_relative_target(ctx128):
    for pair in (IndexPair(2, 1), IndexPair(2, 6), IndexPair(9, 1)):
        dz = double_zeta(pair, ctx128)
        assert dz.radius_fraction() <= lower_fraction(dz) * Fraction(2, 2**128)


def test_oracle_equivalence_small_weights(ctx64):
    # full sweep up to weight 8 runs in the acceptance suite
    for w in range(3, 7):
        for l1 in range(2, w):
            pair = IndexPair(l1, w - l1)
            brute = brute_double_zeta(l1, w - l1, 1200, 96)
            fast = double_zeta(pair, ctx64)
            assert brute.intersects(fast), pair


def test_odd_weight_reduction_matches_brute_force_and_double_zeta(ctx64, ctx192):
    """Euler's odd-weight reduction agrees with the literal double sum at
    weights 3, 5, 7, then cross-checks double_zeta far above the brute-force
    range: every pair of odd weight 9..31 at 192 bits and of weights 41 and
    61 at 512 bits.  The reduction's own radius stays below 2^-p relative,
    so each intersection is a p-bit agreement."""
    for w in (3, 5, 7):
        for l1 in range(2, w):
            reduced = odd_weight_double_zeta(l1, w - l1, ctx64)
            assert reduced.intersects(brute_double_zeta(l1, w - l1, 1200, 96)), (l1, w - l1)
    ctx512 = PrecisionCtx(512, Fraction(1, 10**120))
    sweeps = [(ctx192, w) for w in range(9, 32, 2)] + [(ctx512, 41), (ctx512, 61)]
    for ctx, w in sweeps:
        p = ctx.working_precision
        t = get_table(w, ctx)
        for pair in t.pairs():
            val = t.entry(pair.l1, pair.l2)
            reduced = odd_weight_double_zeta(pair.l1, pair.l2, ctx)
            assert reduced.radius_fraction() <= lower_fraction(reduced) / 2**p, (pair, p)
            assert reduced.intersects(val), (pair, p)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_build_table_enumeration(ctx128):
    """pairs() lists l1 = 2..l-1 in order.  entry() of a pair of another
    weight is a KeyError, and of a divergent or non-int pair a DomainError."""
    t3 = build_table(3, ctx128)
    assert t3.pairs() == [IndexPair(2, 1)]
    t8 = build_table(8, ctx128)
    assert len(t8.pairs()) == 6
    for t in (t3, t8):
        l = t.weight
        assert t.pairs() == [IndexPair(l1, l - l1) for l1 in range(2, l)]
        for l1, l2 in ((2, l), (l, 1), (l + 5, 2)):
            with pytest.raises(KeyError):
                t.entry(l1, l2)
        for l1, l2 in ((1, l - 1), (2.0, l - 2), (True, l - 1)):
            with pytest.raises(DomainError):
                t.entry(l1, l2)


def test_build_table_rejects_weight_below_3(ctx128):
    with pytest.raises(DomainError):
        build_table(2, ctx128)


def test_get_table_caches(ctx128):
    assert get_table(7, ctx128) is get_table(7, ctx128)


def test_tables_share_one_hurwitz_vector_per_weight(monkeypatch):
    """Every value of a weight-w table reads zeta(w-1+j, A) at one A, and the
    tail stops once its remainder is negligible: cold tables 3..30 at 192
    bits evaluate the 47 Hurwitz values zeta(s, 121), s = 2..48 (80 for
    3..20 with the old fixed tail depth, and one Hurwitz value per
    direct-sum index would need hundreds).  A build reads each zeta(s, A)
    straight from the one ``_hurwitz`` memo, once per pair and term: 5,760
    lookups, 47 of them misses."""
    asked = []

    def recording(s, a, precision):
        asked.append((s, a, precision))
        return _hurwitz(s, a, precision)

    monkeypatch.setattr(dzeta_mod, "_hurwitz", recording)
    _hurwitz.cache_clear()
    for l in range(3, 31):
        build_table(l, PrecisionCtx(192))
    assert _hurwitz.cache_info().misses == len(set(asked)) == 47
    assert len(asked) == 5760 and {a for _, a, _ in asked} == {121}


@pytest.mark.parametrize("l1, l2, m_cut, wp", [
    (2, 1, 120, 240),    # harmonic H_M, the largest; the 192-bit cutoff
    (2, 28, 120, 240),
    (16, 14, 240, 240),  # twice the 192-bit cutoff
    (7, 3, 32, 112),
    (40, 1, 56, 112),    # floor(2^W / m^40) is 0 from m = 18 on
])
def test_direct_sums_enclose_the_exact_sums(l1, l2, m_cut, wp):
    s_m, h_m = _direct_sums(l1 + l2, [l1], wp, m_cut)[l1]
    h = s = Fraction(0)
    for m in range(1, m_cut + 1):
        s += Fraction(1, m ** l1) * h
        h += Fraction(1, m ** l2)
    assert contains_fraction(s_m, s)
    assert contains_fraction(h_m, h)
    # H_M multiplies zeta(l1, A) < 1, so this bounds the radius the direct part adds
    assert s_m.radius_fraction() + h_m.radius_fraction() <= Fraction(1, 2 ** (wp + l1))


@pytest.mark.parametrize("precision, weights", [
    (64, range(3, 61)), (192, range(3, 61)), (512, range(3, 61)), (192, range(200, 203)),
], ids=["64", "192", "512", "192-high"])
def test_shared_rows_give_each_pairs_own_direct_sums(precision, weights):
    """A weight's pairs read one set of rows floor(2^T / m^k), shifted to each
    pair's width: every pair's S_M and H_M are the same dyadics as its own
    loop over m (``oracles.direct_sums``), at a table build's M and wp."""
    wp = precision + GUARD_BITS
    m_cut = max(32, wp // 2)
    for l in weights:
        sums = _direct_sums(l, range(2, l), wp, m_cut)
        assert sorted(sums) == list(range(2, l))
        for l1, shared in sums.items():
            own = direct_sums(l1, l - l1, m_cut, wp)
            assert [b.dyadic() for b in shared] == [b.dyadic() for b in own], (l, l1)


def test_lone_double_zeta_is_its_table_entry(ctx192):
    """``double_zeta`` builds the rows of its own weight through the same
    path as a table, keeping only its own pair's rows, into a one-pair
    vector that is 0 in every slot but l1 - 1, and is that vector's
    ``DzvTable.entry`` bit for bit.  Shifted to the table's common exponent,
    a lone value is its table slot bit for bit, whichever of l1 and l2 is
    larger, and the table's entry() is that ball.  Every pair of weights
    3..30 (among them (5, 7), (6, 6), (16, 14) and (29, 1)), and (150, 3)."""
    pairs = [IndexPair(l1, l - l1) for l in range(3, 31) for l1 in range(2, l)]
    pairs.append(IndexPair(150, 3))
    for p in pairs:
        mids, rads, e = lone = _double_zetas(p.weight, [p.l1], ctx192)
        assert len(mids) == len(rads) == p.weight - 1, p
        assert not any(mids[:p.l1 - 1] + mids[p.l1:] + rads[:p.l1 - 1] + rads[p.l1:]), p
        value = double_zeta(p, ctx192)
        lone_entry = DzvTable(p.weight, ctx192.working_precision, lone).entry(p.l1, p.l2)
        assert value.dyadic() == lone_entry.dyadic(), p
        t = get_table(p.weight, ctx192)
        mids, rads, e = t.vector
        mm, me, rm, re = value.dyadic()
        m, r = mm << (me - e), rm << (re - e)
        assert (mids[p.l1 - 1], rads[p.l1 - 1]) == (m, r), p
        assert same_enclosure(t.entry(p.l1, p.l2), RealBall(m, e, r, e)), p


@pytest.mark.parametrize("precision, weights", [(192, range(3, 61)), (1024, range(3, 21))],
                         ids=["192", "1024"])
def test_entries_rounded_once_meet_the_composed_entries_and_are_no_wider(precision, weights):
    """Each table entry, S_M + H_M zeta(l1, A) + tail summed exactly and
    rounded once, meets the entry composed with a rounded product and a
    rounded sum, and its radius is no larger."""
    ctx = PrecisionCtx(precision)
    for l in weights:
        t = get_table(l, ctx)
        for p in t.pairs():
            new, old = t.entry(p.l1, p.l2), composed_double_zeta(p.l1, p.l2, ctx)
            assert new.intersects(old) and new.radius_fraction() <= old.radius_fraction(), p


@pytest.mark.parametrize("widen", [None, 20], ids=["exact-z", "wide-z"])
def test_tail_floors_enclose_the_truncated_sum(em_sums, widen):
    """With the truncation's remainder taken off its radius, the tail ball
    must hold the exact sum of the terms it kept at every point of the
    Hurwitz balls: fed zeta(s, A) midpoints as exact balls, the sum of the
    kept terms' midpoints (the floors' counted error is in the radius and the
    centre sits mid-way in their one-sided interval); fed balls of relative
    radius 2^-20, both extreme sums (the scaled radii are in the radius too).
    Every bound drawn covers its term over the whole ball."""
    for wp, a_cut in ((112, 57), (240, 121)):
        ctx = PrecisionCtx(wp)

        def hz(s):
            mid = hurwitz_zeta(s, a_cut, ctx).midpoint_fraction()
            z = RealBall.from_fraction(mid, 8 * wp)
            assert is_exact(z)
            return z if widen is None else z.add_error(mid / 2 ** widen)

        for l1, l2 in ((2, 1), (2, 28), (5, 5), (16, 14), (29, 1)):
            w = l1 + l2
            ball = dzeta_mod._tail(l1, w, wp, hz)
            call = em_sums[-1]
            for k, (f, r) in enumerate(call.drawn, 1):
                z = hz(w - 1 + 2 * k)
                term = abs(em_coefficient(l1, k)) * max(-lower_fraction(z), upper_fraction(z))
                assert Fraction(abs(f) + 1 + r, 2**call.width) >= term, (wp, l1, l2, k)
            coeffs = {w - 1: Fraction(1, l1 - 1), w: Fraction(-1, 2)}
            for k in range(1, len(call.drawn)):  # the last correction drawn is the omitted one
                coeffs[w - 1 + 2 * k] = em_coefficient(l1, k)
            ends = {s: (c * lower_fraction(hz(s)), c * upper_fraction(hz(s)))
                    for s, c in coeffs.items()}
            for q in (sum(min(e) for e in ends.values()), sum(max(e) for e in ends.values())):
                assert contains_within(ball, q, call.remainder), (wp, l1, l2)


def test_table_hurwitz_keys_meet_the_alternating_oracle(monkeypatch):
    """Every zeta(s, A) that the 192-bit tables of weights 3..30 read from the
    ``_hurwitz`` memo meets the alternating-series oracle taken 64 bits
    further."""
    keys = {}

    def recorded(s, a, precision):
        keys[s, a, precision] = ball = _hurwitz(s, a, precision)
        return ball

    monkeypatch.setattr(dzeta_mod, "_hurwitz", recorded)
    for l in range(3, 31):
        build_table(l, PrecisionCtx(192))
    assert keys
    for (s, a, precision), ball in keys.items():
        lo, hi = alternating_hurwitz_interval(s, a, precision + 64)
        assert meets_interval(ball, lo, hi), (s, a, precision)


# SHA-256 over the repr of every table vector of weights 3..30 at 192 bits and
# 3..16 at 1024 bits, then of zeta_numeric(s).dyadic() for s = 2..101 at 192
# bits.  A change that moves any of these bits on purpose updates the digest.
_VALUES_DIGEST = "54697af3968abd8313fce4b39d0f50c42ee5fb774d3dbb8cd6ecfe91069eafab"


def test_table_vectors_and_zeta_values_are_pinned_bit_for_bit():
    """The goldens print about 57 digits of each side; this pins every
    entry's last bits and radius, and each zeta value's."""
    digest = hashlib.sha256()
    for precision, top in ((192, 30), (1024, 16)):
        for l in range(3, top + 1):
            digest.update(repr(get_table(l, PrecisionCtx(precision)).vector).encode())
    for s in range(2, 102):
        digest.update(repr(zeta_numeric(s, PrecisionCtx(192)).dyadic()).encode())
    assert digest.hexdigest() == _VALUES_DIGEST


def test_double_zeta_radius_miss_raises_and_caches_nothing(monkeypatch):
    # a tail of radius 1/2 leaves every value's radius above its target
    monkeypatch.setattr(dzeta_mod, "_tail", lambda l1, w, wp, hz: RealBall(1, 0, 1, -1))
    ctx = PrecisionCtx(72)
    with pytest.raises(PrecisionUnreachableError):
        double_zeta(IndexPair(5, 3), ctx)
    before = _table.cache_info().currsize
    with pytest.raises(PrecisionUnreachableError):
        get_table(9, ctx)
    assert _table.cache_info().currsize == before


@pytest.mark.parametrize("make", [build_table, get_table], ids=["build", "get"])
def test_non_int_table_weight_is_rejected_cold_and_warm(make):
    """A table weight of 12.0 or True fails with DomainError before the memo,
    where 12.0 would hit the entry for 12."""
    ctx = PrecisionCtx(96)
    _table.cache_clear()
    for bad in (12.0, True):
        with pytest.raises(DomainError):
            make(bad, ctx)
    get_table(12, ctx)
    for bad in (12.0, True):
        with pytest.raises(DomainError):
            make(bad, ctx)


def test_values_do_not_depend_on_call_order():
    def values():
        ctx = PrecisionCtx(192)
        t = build_table(12, ctx)
        return [double_zeta(IndexPair(16, 14), ctx), *(t.entry(p.l1, p.l2) for p in t.pairs())]

    _hurwitz.cache_clear()
    _table.cache_clear()
    cold = values()
    for p in (192, 256):
        for l in range(3, 31):
            get_table(l, PrecisionCtx(p))
    warm = values()
    assert len(cold) == len(warm) == 11
    assert all(same_enclosure(a, b) for a, b in zip(cold, warm))


def test_table_entries_positive_and_below_product_bound(ctx128):
    for w in (3, 5, 8):
        t = get_table(w, ctx128)
        for pair in t.pairs():
            val = t.entry(pair.l1, pair.l2)
            assert is_positive(val)
            if pair.l2 >= 2:
                prod = zeta_numeric(pair.l1, ctx128).mul(
                    zeta_numeric(pair.l2, ctx128), 176)
                assert upper_fraction(val) < lower_fraction(prod)


_pairs_3_to_24 = st.integers(min_value=3, max_value=24).flatmap(
    lambda w: st.builds(lambda l1: IndexPair(l1, w - l1), st.integers(min_value=2, max_value=w - 1)))


@settings(max_examples=20, deadline=None)
@given(_pairs_3_to_24, st.integers(min_value=64, max_value=256))
@example(IndexPair(2, 3), 96)
@example(IndexPair(3, 2), 96)
@example(IndexPair(4, 1), 96)
def test_table_precision_escalation(pair, p):
    """Doubling the precision gives a ball that intersects the p-bit ball and
    is strictly tighter."""
    a = double_zeta(pair, PrecisionCtx(p))
    b = double_zeta(pair, PrecisionCtx(2 * p))
    assert b.radius_fraction() < a.radius_fraction()
    assert a.intersects(b)


def test_192_bit_tables_intersect_the_512_bit_tables():
    for l in range(3, 13):
        low, high = get_table(l, PrecisionCtx(192)), get_table(l, PrecisionCtx(512))
        for pair in low.pairs():
            l1, l2 = pair.l1, pair.l2
            assert low.entry(l1, l2).intersects(high.entry(l1, l2)), pair


# ---------------------------------------------------------------------------
# generating polynomial
# ---------------------------------------------------------------------------

def test_gen_poly_at_11_is_zeta(ctx128):
    t = get_table(6, ctx128)
    assert gen_poly_eval(t, 1, 1).intersects(zeta_numeric(6, ctx128))


def test_gen_poly_at_minus1_1_weight4(ctx128):
    # T_4(-1,1) = -zeta(4)/2 = -pi^4/180
    t = get_table(4, ctx128)
    val = gen_poly_eval(t, Fraction(-1), Fraction(1))
    expected = pipoly_eval(PiPolynomial.single(4, zeta_even_exact(4) * Fraction(-1, 2)), ctx128)
    assert val.intersects(expected)


def test_gen_poly_x_zero_vanishes(ctx128):
    # every term carries x^(l1-1) with l1-1 >= 1
    t = get_table(4, ctx128)
    assert gen_poly_eval(t, 0, 1).is_zero()


def test_gen_poly_y_zero_picks_l2_equal_1_column(ctx128):
    t = get_table(5, ctx128)
    assert same_enclosure(gen_poly_eval(t, 1, 0), t.entry(4, 1))


def _corner(b: RealBall, side: int) -> Fraction:
    """The midpoint (side 0) or an end (side +-1) of a ball."""
    return b.midpoint_fraction() + side * b.radius_fraction()


def _exact_homogeneous(coeffs, x, y):
    """sum c_i x^i y^(d-i) in exact rationals, complex numbers as pairs."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    h, p = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    terms = []
    for c in reversed(coeffs):  # c_d y^0, c_(d-1) y^1, ...
        terms.append((c, p))
        p = mul(p, y)
    for c, yp in terms:  # Horner in x from i = d down to 0
        h = mul(h, x)
        if c is not None:
            h = (h[0] + c * yp[0], h[1] + c * yp[1])
    return h


def _ball(mid_man, mid_exp, rad_man, rad_exp, exact):
    return RealBall(mid_man, mid_exp, 0 if exact else rad_man, rad_exp)


# point parts: zero, or up to 4 or tiny (|.| <= 2^-10); coefficients near 1
_kernel_parts = st.just(None) | st.tuples(st.integers(-2 ** 30, 2 ** 30), st.integers(-40, -28),
                                          st.integers(0, 2 ** 20), st.integers(-80, -40))
_kernel_coeffs = st.lists(
    st.just(None) | st.tuples(st.integers(-2 ** 40, 2 ** 40), st.integers(-44, -38),
                              st.integers(0, 2 ** 24), st.integers(-100, -60)),
    min_size=1, max_size=41)


_sides = st.lists(st.sampled_from((-1, 0, 1)), min_size=45, max_size=45)
# exact inputs whose only errors are one kind of floor, so each count must
# hold: the Horner floors of c x^20, the power-chain floors of c y^20, the
# coefficient floors of sum c_i (1/2)^(20-i) with 120-bit c_i, and the
# Horner floors of c (it)^5, every other one imaginary
_X20 = [None] * 20 + [(0x3ab5c2d91e7, -41, 0, 0)]
_Y20 = [(0x3ab5c2d91e7, -41, 0, 0)] + [None] * 20
_EXACT_POINT = [(0x2c3f5a7b, -29, 0, 0), None, (-0x1d2e4f6b, -29, 0, 0), None]
_C20 = [(2 ** 120 + 2 * i + 1, -120, 0, 0) for i in range(21)]
_ONE_HALF = [(1, 0, 0, 0), None, (1, -1, 0, 0), None]
_X5 = [None] * 5 + [(189139603673, -41, 0, 0)]
_IMAGINARY_POINT = [None, (224504467, -29, 0, 0), (1, 0, 0, 0), None]


@settings(max_examples=80, deadline=None)
@given(_kernel_coeffs, st.lists(_kernel_parts, min_size=4, max_size=4),
       st.lists(st.booleans(), min_size=3, max_size=3), st.integers(64, 160), _sides, _sides)
@example(_X20, _EXACT_POINT, [True] * 3, 64, [0] * 45, [0] * 45)
@example(_Y20, _EXACT_POINT, [True] * 3, 64, [0] * 45, [0] * 45)
@example(_C20, _ONE_HALF, [True] * 3, 64, [0] * 45, [0] * 45)
@example(_X5, _IMAGINARY_POINT, [True] * 3, 64, [0] * 45, [0] * 45)
def test_homogeneous_kernel_encloses_midpoints_and_corners(coeff_parts, point_parts, exact,
                                                          wp, sides1, sides2):
    """The kernel ball holds the exact polynomial at the midpoints and at
    corners of the input balls (each coefficient and each part of x and y at
    its midpoint or either end); so does its fixed-point ball before the final
    rounding to wp bits, where the counted floor errors are not hidden.  Each
    of the coefficients, x and y may be exact, so every part of the radius
    (the counted floors, r_i, the rx and ry terms) is alone in some draws."""
    coeffs = [None if c is None else _ball(*c, exact[0]) for c in coeff_parts]
    re_x, im_x, re_y, im_y = (RealBall.zero() if q is None else _ball(*q, exact[1 + j // 2])
                              for j, q in enumerate(point_parts))
    x, y = ComplexBall(re_x, im_x), ComplexBall(re_y, im_y)
    z = _homogeneous(coeffs, x, y, wp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_rounded", lambda mm, me, rm, re, prec: RealBall(mm, me, rm, re))
        fixed = _homogeneous(coeffs, x, y, wp)
    for sides in ([0] * 45, sides1, sides2):
        cs = [None if c is None else _corner(c, e) for c, e in zip(coeffs, sides)]
        xe = (_corner(x.real, sides[-4]), _corner(x.imag, sides[-3]))
        ye = (_corner(y.real, sides[-2]), _corner(y.imag, sides[-1]))
        re, im = _exact_homogeneous(cs, xe, ye)
        for ball in (z, fixed):
            assert contains_fraction(ball.real, re) and contains_fraction(ball.imag, im)
    if x.imag.is_zero() and y.imag.is_zero():
        assert z.imag.is_zero()


# exact real dyadic points m 2^e, |.| up to 2^34, zero included
_dyadic_points = st.tuples(st.integers(-2 ** 30, 2 ** 30), st.integers(-40, 4))


@settings(max_examples=80, deadline=None)
@given(_kernel_coeffs, _dyadic_points, _dyadic_points, st.booleans(), st.integers(64, 160),
       _sides, _sides)
@example(_C20, (0, 0), (3, -3), True, 64, [0] * 45, [0] * 45)
@example(_X20, (-5, -2), (0, 0), False, 64, [1] * 45, [-1] * 45)
def test_dot_encloses_the_polynomial_at_exact_real_points(coeff_parts, xp, yp, exact, wp,
                                                          sides1, sides2):
    """At an exact real dyadic point ``gen_poly_eval`` over a table holding
    the coefficient vector holds the exact polynomial at the coefficients'
    midpoints and at corners of their balls.  Before the final rounding its midpoint is the
    polynomial at the midpoints and its radius the spread
    sum r_i |x^i y^(d-i)|, both exactly; after it the radius is at most that
    spread plus one rounding to wp bits (rounded up to a short mantissa)."""
    coeffs = [None if c is None else _ball(*c, exact) for c in coeff_parts]
    x, y = (m * Fraction(2) ** e for m, e in (xp, yp))
    t = DzvTable(len(coeffs) + 1, wp - GUARD_BITS, coefficient_vector(coeffs))
    z = gen_poly_eval(t, x, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dzeta_mod, "_rounded", lambda mm, me, rm, re, prec: RealBall(mm, me, rm, re))
        fixed = gen_poly_eval(t, x, y)
    xe, ye = (x, 0), (y, 0)
    d = len(coeffs) - 1
    spread = sum(c.radius_fraction() * abs(xe[0] ** i * ye[0] ** (d - i))
                 for i, c in enumerate(coeffs) if c is not None)
    mid, _ = _exact_homogeneous([None if c is None else _corner(c, 0) for c in coeffs], xe, ye)
    assert fixed.midpoint_fraction() == mid and fixed.radius_fraction() == spread
    for sides in (sides1, sides2):
        cs = [None if c is None else _corner(c, e) for c, e in zip(coeffs, sides)]
        value, _ = _exact_homogeneous(cs, xe, ye)
        assert contains_fraction(z, value)
    assert z.radius_fraction() <= (spread + abs(mid) / 2 ** wp) * (1 + Fraction(1, 2 ** 23))


def test_dot_meets_the_horner_kernel_at_eq26_points(ctx192):
    """Tables 3..30 at 192 bits and every eq26 sample point: eq26's four T_l
    argument pairs by ``gen_poly_eval`` and the divided difference by
    ``oracles.divided_difference``, and each by ``_homogeneous`` on the same
    inputs.  The balls intersect and the first is no wider."""
    wp = ctx192.working_precision + GUARD_BITS
    for l in range(3, 31):
        t = get_table(l, ctx192)
        coeffs = [None] + [t.entry(l1, l - l1) for l1 in range(2, l)]
        ones = [RealBall.from_int(1)] * (l - 1)
        for x, y, *_ in _eq26_plan(l)[0]:
            ball = {q: ComplexBall.from_fractions(q, 0, wp) for q in (x, y, x + y)}
            pairs = [(gen_poly_eval(t, a, b), _homogeneous(coeffs, ball[a], ball[b], wp))
                     for a, b in ((x + y, y), (x + y, x), (x, y), (y, x))]
            pairs.append((divided_difference(x, y, l, wp),
                          _homogeneous(ones, ball[x], ball[y], wp)))
            for dot, horner in pairs:
                assert dot.intersects(horner.real) and horner.imag.is_zero(), (l, x, y)
                assert dot.radius_fraction() <= horner.real.radius_fraction(), (l, x, y)


_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24))


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 12), st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=11),
       st.booleans(), st.just(0) | st.integers(-9, 9) | _RATIONALS,
       _RATIONALS.filter(bool) | st.integers(-5, 5).filter(bool))
@example(3, [7, 0], False, 0, 1)   # the absent entry only: the exact zero ball
@example(9, [], False, 12, 1)      # an integer times zeta(l), exact
@example(9, [0, 3, 6, 0, 9, 3, 3, 0], False, 0, Fraction(1, 3))  # content 3, quotient by 3
def test_form_ball_encloses_the_form(ctx128, l, weights, sparse, z, scale):
    """Every form's ball holds the exact interval of the form at the table's
    and zeta(l)'s balls, scale (sum w_i [m_i +/- r_i] + z [m +/- r]), both as
    returned and before its one rounding, and it is wider by at most a few
    roundings of its midpoint to wp bits."""
    t = get_table(l, ctx128)
    if sparse:
        weights = [w if i % 3 == 1 else 0 for i, w in enumerate(weights)]
    ball = _form_ball(t, _Form(weights, z, scale))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dzeta_mod, "_rounded", lambda mm, me, rm, re, prec: RealBall(mm, me, rm, re))
        unrounded = _form_ball(t, _Form(weights, z, scale))
    mids, rads, e = t.vector
    zl = zeta_numeric(l, ctx128)
    mid = Fraction(scale) * (sum(w * m for w, m in zip(weights, mids)) * Fraction(2) ** e
                             + z * zl.midpoint_fraction())
    rad = abs(Fraction(scale)) * (sum(abs(w) * r for w, r in zip(weights, rads)) * Fraction(2) ** e
                                  + abs(z) * zl.radius_fraction())
    for b in (ball, unrounded):
        assert abs(b.midpoint_fraction() - mid) + rad <= b.radius_fraction()
    wp = ctx128.working_precision + GUARD_BITS
    assert ball.radius_fraction() <= (rad + 4 * (abs(mid) + rad) / 2 ** wp) * (1 + Fraction(1, 2 ** 22))
    if not any(weights[1:]) and z == 0:
        assert ball.is_zero()


@pytest.mark.parametrize("den", [3, 5, 7, 24])
def test_form_ball_quotient_next_to_a_power_of_two_holds_the_form(den):
    """An exact entry m 2^-k, m = +/-(den 2^k +/- 1), at scale 1/den is the
    form +/-(1 +/- 2^-k / den), whose quotient's floor at its width can be
    a power of two with no bit left to round: only the floor's unit keeps
    the form in the ball."""
    k = 400
    for m in ((den << k) + 1, (den << k) - 1, -(den << k) - 1, -(den << k) + 1):
        t = DzvTable(3, 128, ((0, m), (0, 0), -k))
        ball = _form_ball(t, _Form([0, 1], 0, Fraction(1, den)))
        assert contains_fraction(ball, Fraction(m, den << k)), (den, m)


@pytest.mark.parametrize("precision, weights", [(192, range(4, 61)), (512, range(4, 31))])
def test_sparse_harmonic_forms_equal_their_dense_twins(precision, weights):
    """harmonic's right side zeta(a, l-a) + zeta(l-a, a) + zeta(l), as the
    {slot: weight} form that reads two slots (one, weight 2, at 2a = l),
    gives the dyadic() of the same form with a dense weight list, for every
    split a, over tables whose vectors are seeded random integers; so does
    the form without its zeta(l) term, whose weights' content is taken out."""
    rng = random.Random(precision)
    for l in weights:
        mids = [0] + [rng.randrange(-1 << precision, 1 << precision) for _ in range(l - 2)]
        rads = [0] + [rng.randrange(1 << 16) for _ in range(l - 2)]
        t = DzvTable(l, precision, (mids, rads, -precision - l))
        for a in range(2, l // 2 + 1):
            sparse = dict(Counter((a - 1, l - a - 1)))
            dense = [sparse.get(i, 0) for i in range(l - 1)]
            for z in (1, 0):
                assert (_form_ball(t, _Form(sparse, z)).dyadic()
                        == _form_ball(t, _Form(dense, z)).dyadic()), (l, a, z)


def _seeded_table(rng: random.Random, l: int, precision: int) -> DzvTable:
    """A weight-l table whose vector is seeded random integers, slot 0 (no
    l1 = 1 exists) included."""
    mids = [rng.randrange(-1 << precision, 1 << precision) for _ in range(l - 1)]
    rads = [rng.randrange(1 << 16) for _ in range(l - 1)]
    return DzvTable(l, precision, (mids, rads, -precision - l))


@pytest.mark.parametrize("precision, weights", [(192, range(3, 61)), (512, range(3, 31))])
def test_class_forms_equal_their_dense_twins(precision, weights):
    """A form over the classes of l1 mod 6, read from the table's six class
    totals, gives the dyadic() of the same form with the dense weights
    c[l1 % 6] at slots l1 - 1 = 1..l-2, over the real table and over a
    seeded one: at weights 3..7, where some classes hold no l1 (so (1, 1, 3,
    3, 3, 3) has content 3 there and 1 above), with all-zero coefficients and
    coefficients with a common factor, with and without a zeta(l) term, and
    at integer and Fraction scales."""
    rng = random.Random(precision + 6)
    ctx = PrecisionCtx(precision)
    for l in weights:
        coefficient_sets = [(0,) * 6, (1,) * 6, (0, 0, 0, 0, 1, 0), (-1, 1, -1, 1, -1, 1),
                            (5, 0, 0, 0, 0, 0), (1, 1, 3, 3, 3, 3),
                            tuple(rng.randint(-6, 6) for _ in range(6)),
                            tuple(3 * rng.randint(-4, 4) for _ in range(6))]
        for t in (get_table(l, ctx), _seeded_table(rng, l, precision)):
            for coeffs in coefficient_sets:
                dense = [0] + [coeffs[l1 % 6] for l1 in range(2, l)]
                for z, scale in ((0, 1), (1, 1), (Fraction(-2, 3), 1), (0, Fraction(1, 3)),
                                 (Fraction(5, 4), Fraction(-2, 3)), (0, 3), (2, Fraction(1, 8))):
                    assert (_form_ball(t, _Form(_Classes(coeffs), z, scale)).dyadic()
                            == _form_ball(t, _Form(dense, z, scale)).dyadic()), \
                        (l, coeffs, z, scale)


def test_class_totals_are_the_sums_of_each_class(ctx192):
    """A table's class totals are, per class r of l1 mod 6, the sums of the
    mids and rads at slots l1 - 1 with l1 = r (mod 6), 2 <= l1 <= l - 1, and
    whether such an l1 exists, for tables from get_table and tables made
    with DzvTable(l, p, vector), which compare equal to their twins."""
    rng = random.Random(6)
    for l in range(3, 41):
        t = get_table(l, ctx192)
        for table in (t, DzvTable(l, t.precision, t.vector), _seeded_table(rng, l, 192)):
            mids, rads, _ = table.vector
            members = [[l1 for l1 in range(2, l) if l1 % 6 == r] for r in range(6)]
            assert table.classes == (tuple(sum(mids[l1 - 1] for l1 in c) for c in members),
                                     tuple(sum(rads[l1 - 1] for l1 in c) for c in members),
                                     tuple(bool(c) for c in members)), l
        assert DzvTable(l, t.precision, t.vector) == t


def test_eq26_sides_equal_five_separate_dot_products(ctx192):
    """At every eq26 sample point of weights 3..30, and at points whose sum
    has a larger exponent than either point or is zero, each side, one form
    rounded once, intersects the side of five separate dot products, two adds
    and a product (``oracles.eq26_sides_by_dots``) and is at most 1 bit
    wider; a side that is exactly zero there is exactly zero here."""
    extra = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(-3, 4), Fraction(7, 4)),
             (Fraction(5, 8), Fraction(-5, 8)), (0, 0), (0, 5), (3, 3), (-7, Fraction(1, 16))]
    for l in range(3, 31):
        for x, y in [p[:2] for p in _eq26_plan(l)[0]] + extra:
            sides = functional_eq26_sides(l, x, y, ctx192)
            for side, dots in zip(sides, eq26_sides_by_dots(l, x, y, ctx192), strict=True):
                assert intersects(side, dots), (l, x, y)
                assert side.radius_fraction() <= 2 * dots.radius_fraction(), (l, x, y)


def test_table_vector_shifts_back_to_the_entries(ctx192):
    """Each x^(l1-1) entry of a table's vector is entry(l1, l2)'s dyadic()
    shifted to the common exponent, so shifting back loses no bit; x^0 is
    absent."""
    for l in range(3, 31):
        t = get_table(l, ctx192)
        mids, rads, e = t.vector
        assert len(mids) == len(rads) == l - 1 and mids[0] == rads[0] == 0
        for pair in t.pairs():
            mm, me, rm, re = t.entry(pair.l1, pair.l2).dyadic()
            m, r = mids[pair.l1 - 1], rads[pair.l1 - 1]
            assert (m, r) == (mm << (me - e), rm << (re - e))


def test_gen_poly_radius_at_2_1_follows_the_table_radii(ctx192):
    """At the exact point (2, 1) the terms zeta(l1, l2) 2^(l1-1) of T_100 are
    all about 2^-l2, so after the rescale to (1, 1/2) most of them lie far
    below any fixed unit.  The radius stays within twice the spread
    sum rad(zeta(l1, l2)) 2^(l1-1) of the exact polynomial, plus the final
    rounding to wp bits."""
    t = get_table(100, ctx192)
    z = gen_poly_eval(t, 2, 1)
    spread = sum(t.entry(p.l1, p.l2).radius_fraction() * 2 ** (p.l1 - 1)
                 for p in t.pairs())
    rounding = abs(z.midpoint_fraction()) / 2 ** (ctx192.working_precision + GUARD_BITS - 1)
    assert z.radius_fraction() <= 2 * spread + rounding


def test_homogeneous_kernel_at_omega_meets_the_512_bit_value():
    """The Horner oracle at lemma1's complex arguments at 192 bits: each T_l
    ball and each divided difference intersects its 512-bit counterpart,
    weights 3..30."""
    for l in range(3, 31):
        balls = []
        for p in (192, 512):
            wp = p + GUARD_BITS
            t = get_table(l, PrecisionCtx(p))
            coeffs = [None] + [t.entry(l1, l - l1) for l1 in range(2, l)]
            omega = cube_root_of_unity(PrecisionCtx(wp + 2 * l.bit_length()))
            one = ComplexBall.from_real(RealBall.from_int(1))
            pts = [(omega.add(one, wp), one), (omega.add(one, wp), omega), (omega, one),
                   (one, ComplexBall(omega.real, omega.imag.neg()))]
            balls.append([_homogeneous(coeffs, x, y, wp) for x, y in pts]
                         + [_homogeneous([RealBall.from_int(1)] * (l - 1), omega, one, wp)])
        for low, high in zip(*balls):
            assert intersects(low, high), l
            assert high.real.radius_fraction() < low.real.radius_fraction(), l


def test_polynomials_reject_points_that_are_not_exact_real_dyadics(ctx192):
    """T_l, the divided difference and eq26's sides are evaluated at ints and
    dyadic Fractions only: a float, a bool, a non-dyadic rational and balls
    (real or complex) raise DomainError instead of being enclosed, and an
    int point is the same ball as the equal Fraction."""
    t = get_table(9, ctx192)
    wp = ctx192.working_precision + GUARD_BITS
    bad = [1.5, 2.0, True, Fraction(1, 3), Fraction(5, 6), RealBall.from_int(1),
           cube_root_of_unity(PrecisionCtx(wp)), ComplexBall.from_fractions(1, 0, wp)]
    for b in bad:
        for x, y in ((b, 1), (1, b)):
            with pytest.raises(DomainError):
                gen_poly_eval(t, x, y)
            with pytest.raises(DomainError):
                functional_eq26_sides(9, x, y, ctx192)
    for x, y in ((2, 1), (-3, 5), (0, 7), (Fraction(-3, 8), 2)):
        assert same_enclosure(gen_poly_eval(t, x, y), gen_poly_eval(t, Fraction(x), Fraction(y)))


# ---------------------------------------------------------------------------
# structural relations
# ---------------------------------------------------------------------------

def test_harmonic_22_numeric_and_exact(ctx128):
    (r,) = harmonic_check(4, ctx128)
    assert r.label == "harmonic[2,2]" and contains_zero(r.residual)
    # exact counterpart: zeta(2)^2 = 2 zeta(2,2) + zeta(4)
    assert zeta_even_exact(2) * zeta_even_exact(2) == \
        _DZ22_EXACT * 2 + zeta_even_exact(4)


def test_harmonic_4_10_exact_counterpart(ctx128):
    r = {r.label: r for r in harmonic_check(14, ctx128)}["harmonic[4,10]"]
    assert contains_zero(r.residual)
    # zeta(4) zeta(10) - zeta(14) = zeta(14)/12 in rational pi^14 coefficients
    lhs = zeta_even_exact(4) * zeta_even_exact(10) - zeta_even_exact(14)
    assert lhs == zeta_even_exact(14) * Fraction(1, 12)


def test_harmonic_23(ctx128):
    (r,) = harmonic_check(5, ctx128)
    assert r.label == "harmonic[2,3]" and contains_zero(r.residual)


def test_harmonic_rejects_exponent_one(ctx128):
    with pytest.raises(DomainError):
        harmonic_check(3, ctx128)  # 3 = 2 + 1 only


def test_sum_formula_weights_3_4_5(ctx128):
    for w in (3, 4, 5):
        assert contains_zero(sum_formula_check(w, ctx128).residual)
    # exact mirror at weight 4: 1/120 + 1/360 = 1/90
    assert _DZ22_EXACT + _DZ31_EXACT == zeta_even_exact(4)


def test_weighted_sum_weights_3_4_6(ctx128):
    for w in (3, 4, 6):
        assert contains_zero(weighted_sum_check(w, ctx128).residual)
    # exact mirror at weight 4: 2/120 + 4/360 = (5/2)/90
    assert _DZ22_EXACT * 2 + _DZ31_EXACT * 4 == zeta_even_exact(4) * Fraction(5, 2)


def test_table_level_residuals_through_weight_30(ctx192):
    """Sum formula and weighted sum formula residuals enclose zero for every
    weight up to 30, and every entry meets the table's radius target."""
    for w in range(3, 31):
        t = get_table(w, ctx192)
        assert len(t.pairs()) == w - 2
        for p in t.pairs():
            val = t.entry(p.l1, p.l2)
            assert val.radius_fraction() <= lower_fraction(val) * Fraction(2, 2**192)
        assert contains_zero(sum_formula_check(w, ctx192).residual), w
        assert contains_zero(weighted_sum_check(w, ctx192).residual), w


# ---------------------------------------------------------------------------
# functional equation
# ---------------------------------------------------------------------------

def _eq26_residual(l, x, y, ctx):
    lhs, rhs = functional_eq26_sides(l, x, y, ctx)
    return lhs.sub(rhs, ctx.working_precision + GUARD_BITS)


def test_eq26_at_11_reduces_to_weighted_sum(ctx128):
    l = 4
    assert contains_zero(_eq26_residual(l, 1, 1, ctx128))
    # the same specialization says T_l(2,1) = (l+1) zeta(l) / 2
    t = get_table(l, ctx128)
    t21 = gen_poly_eval(t, 2, 1)
    rhs = zeta_numeric(l, ctx128).mul(RealBall.from_fraction(Fraction(l + 1, 2), 200), 200)
    assert t21.intersects(rhs)


def test_eq26_at_1_0_is_sum_formula(ctx128):
    assert contains_zero(_eq26_residual(5, 1, 0, ctx128))


def test_eq26_at_1_minus1_even_weight(ctx128):
    assert contains_zero(_eq26_residual(6, 1, -1, ctx128))


def test_eq26_rejects_small_weight(ctx128):
    with pytest.raises(DomainError):
        functional_eq26_sides(2, 1, 1, ctx128)


def test_eq26_check_adapts_complex_points_to_the_real_sides(ctx128):
    """functional_eq26_check keeps the complex-ball calling convention of the
    benchmark worker: at exact real dyadic balls its residual's real part is
    the same ball as lhs - rhs of functional_eq26_sides at the same Fractions,
    and its imaginary part is the exact zero.  A ball with a radius or an
    imaginary part raises DomainError."""
    wp = ctx128.working_precision + GUARD_BITS
    for l in (3, 4, 9, 17, 30):
        for x, y, *_ in _eq26_plan(l)[0]:
            res = functional_eq26_check(l, ComplexBall.from_fractions(x, 0, wp),
                                        ComplexBall.from_fractions(y, 0, wp), ctx128)
            assert res.real.dyadic() == _eq26_residual(l, x, y, ctx128).dyadic(), (l, x, y)
            assert res.imag.dyadic() == (0, 0, 0, 0)
    one = ComplexBall.from_fractions(1, 0, wp)
    for bad in (ComplexBall.from_real(RealBall(3, -1, 1, -100)),
                ComplexBall.from_fractions(1, Fraction(1, 8), wp),
                ComplexBall.from_fractions(Fraction(1, 3), 0, wp)):
        for x, y in ((bad, one), (one, bad)):
            with pytest.raises(DomainError):
                functional_eq26_check(5, x, y, ctx128)
