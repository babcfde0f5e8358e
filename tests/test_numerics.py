"""Unit and property tests for the ball-arithmetic substrate."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from dzv.numerics import (
    GUARD_BITS,
    ComplexBall,
    DomainError,
    PiPolynomial,
    PrecisionCtx,
    RealBall,
    _RAD_BITS,
    _rad_up,
    ball_is_zero_within,
    ball_sum,
    check_from_sides,
    cube_root_of_unity,
    pi_const,
    pipoly_eval,
)

from oracles import (
    DECIMAL_TOLERANCES,
    DYADIC_BALLS,
    bbp_pi_interval,
    contains_fraction,
    contains_zero,
    intersects,
    is_exact,
    lower_fraction,
    meets_relative_radius,
    reference_add_error,
    same_enclosure,
    upper_fraction,
    zero_within,
    zeta_direct_interval,
)


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def test_pi_const_matches_bbp_oracle():
    lo, hi = bbp_pi_interval(60)  # pins ~70 decimal digits
    for prec in (64, 128, 256):
        ball = pi_const(PrecisionCtx(prec))
        # both enclose pi, so they must overlap
        assert max(lo, lower_fraction(ball)) <= min(hi, upper_fraction(ball))
    # at 256 bits the ball is tighter than the oracle and must sit inside it
    ball = pi_const(PrecisionCtx(256))
    assert lo <= lower_fraction(ball) and upper_fraction(ball) <= hi


def test_pi_radius_meets_contract():
    # radius <= 2^(1-p) * |pi|
    for prec in (64, 128, 256):
        ball = pi_const(PrecisionCtx(prec))
        assert 0 < ball.radius_fraction() <= Fraction(4, 2**prec)


def test_pi_radius_shrinks_superlinearly_with_precision():
    for prec in (64, 128, 192):
        r1 = pi_const(PrecisionCtx(prec)).radius_fraction()
        r2 = pi_const(PrecisionCtx(2 * prec)).radius_fraction()
        assert r2 <= r1 / 2 ** (prec // 2)


# ---------------------------------------------------------------------------
# cube root of unity
# ---------------------------------------------------------------------------

def test_cube_root_midpoints(ctx128):
    w = cube_root_of_unity(ctx128)
    assert abs(w.real.midpoint_fraction() + Fraction(1, 2)) < Fraction(1, 2**100)
    assert abs(w.imag.midpoint_fraction() - Fraction(8660254037844386, 10**16)) \
        < Fraction(1, 10**15)
    # the imaginary part encloses sqrt(3)/2 exactly: lower^2 <= 3/4 <= upper^2
    for prec in (64, 192, 1024):
        im = cube_root_of_unity(PrecisionCtx(prec)).imag
        assert 0 < lower_fraction(im)
        assert lower_fraction(im) ** 2 <= Fraction(3, 4) <= upper_fraction(im) ** 2


@pytest.mark.parametrize("prec", [64, 192, 1024])
def test_cube_root_is_the_hand_built_ball(prec):
    """Real part -1/2 exactly; imaginary part the ball of [s, s + 1] units of
    2^-(k+1), k = prec + 8 and s = isqrt(3 4^k): (2s+1, -k-2, 1, -k-2)."""
    k = prec + 8
    s = isqrt(3 << (2 * k))
    w = cube_root_of_unity(PrecisionCtx(prec))
    assert w.real.dyadic() == (-1, -1, 0, 0)
    assert w.imag.dyadic() == (2 * s + 1, -k - 2, 1, -k - 2)


def test_cube_root_cubes_to_one(ctx128):
    w = cube_root_of_unity(ctx128)
    w3 = w.mul(w, 160).mul(w, 160)
    assert contains_fraction(w3.real, 1)
    assert contains_zero(w3.imag)


def test_cube_root_geometric_sum_vanishes(ctx128):
    w = cube_root_of_unity(ctx128)
    s = ComplexBall.from_real(RealBall.from_int(1)).add(w, 160).add(w.mul(w, 160), 160)
    assert contains_zero(s)


# ---------------------------------------------------------------------------
# ball arithmetic: inclusion monotonicity
# ---------------------------------------------------------------------------

_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
_small_pos = st.fractions(min_value=0, max_value=2, max_denominator=64)
_units = st.fractions(min_value=0, max_value=1, max_denominator=97)


def _ball_around(center: Fraction, radius: Fraction, prec: int) -> RealBall:
    return RealBall.from_fraction(center, prec).add_error(radius)


def _point_inside(center: Fraction, radius: Fraction, t: Fraction) -> Fraction:
    return center + (2 * t - 1) * radius


@settings(max_examples=60, deadline=None)
@given(_rationals, _small_pos, _units, _rationals, _small_pos, _units)
def test_inclusion_add_sub_mul(c1, r1, t1, c2, r2, t2):
    for prec in (64, 192):
        b1 = _ball_around(c1, r1, prec)
        b2 = _ball_around(c2, r2, prec)
        x1 = _point_inside(c1, r1, t1)
        x2 = _point_inside(c2, r2, t2)
        assert contains_fraction(b1.add(b2, prec), x1 + x2)
        assert contains_fraction(b1.sub(b2, prec), x1 - x2)
        assert contains_fraction(b1.mul(b2, prec), x1 * x2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=7), _rationals, _small_pos, _units)
def test_inclusion_pow(n, c, r, t):
    x = _point_inside(c, r, t)
    for prec in (64, 192):
        b = _ball_around(c, r, prec)
        assert contains_fraction(b.pow_int(n, prec), x**n)
        with pytest.raises(DomainError):
            b.pow_int(-1, prec)


_OPS = st.sampled_from(["add", "sub", "mul", "neg"])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_OPS, _rationals, _small_pos, _units),
                min_size=1, max_size=12))
def test_inclusion_through_random_expression_chains(steps):
    """Thread a random op chain, tracking one exact witness point per ball;
    the witness must stay inside the running enclosure at both precisions."""
    for prec in (64, 192):
        acc_ball = RealBall.from_int(1)
        acc_point = Fraction(1)
        for op, c, r, t in steps:
            other = _ball_around(c, r, prec)
            point = _point_inside(c, r, t)
            if op == "add":
                acc_ball = acc_ball.add(other, prec)
                acc_point = acc_point + point
            elif op == "sub":
                acc_ball = acc_ball.sub(other, prec)
                acc_point = acc_point - point
            elif op == "mul":
                acc_ball = acc_ball.mul(other, prec)
                acc_point = acc_point * point
            elif op == "neg":
                acc_ball = acc_ball.neg()
                acc_point = -acc_point
            assert contains_fraction(acc_ball, acc_point), (op, prec)


@settings(max_examples=40, deadline=None)
@given(_rationals, _rationals, _small_pos, _units, _units,
       _rationals, _rationals, _small_pos, _units, _units)
def test_inclusion_complex_mul(re1, im1, r1, s1, t1, re2, im2, r2, s2, t2):
    prec = 96
    z1 = ComplexBall(_ball_around(re1, r1, prec), _ball_around(im1, r1, prec))
    z2 = ComplexBall(_ball_around(re2, r2, prec), _ball_around(im2, r2, prec))
    x1, y1 = _point_inside(re1, r1, s1), _point_inside(im1, r1, t1)
    x2, y2 = _point_inside(re2, r2, s2), _point_inside(im2, r2, t2)
    prod = z1.mul(z2, prec)
    assert contains_fraction(prod.real, x1 * x2 - y1 * y2)
    assert contains_fraction(prod.imag, x1 * y2 + y1 * x2)


def test_ball_sum_is_permutation_invariant():
    balls = [RealBall.from_fraction(Fraction(i, 7), 96).add_error(Fraction(1, 10**i))
             for i in range(1, 9)]
    a = ball_sum(balls, 96)
    b = ball_sum(list(reversed(balls)), 96)
    assert same_enclosure(a, b)


@pytest.mark.parametrize("q, prec", [
    (Fraction(1, 3), 64), (Fraction(-22, 7), 100), (Fraction(10 ** 40 + 1, 3 ** 50), 200),
    (Fraction(-1, 10), 23), (Fraction(2 ** 90 + 1), 64), (Fraction(-(3 ** 70), 2 ** 20), 96),
])
def test_inexact_from_fraction_is_the_hand_built_ball(q, prec):
    """An inexact q at prec bits: e = bitlen |num| - bitlen den - prec - 1 and
    m = floor(q / 2^e), the ball of [m, m + 1] units of 2^e, (2m+1, e-1, 1, e-1)."""
    num, den = q.numerator, q.denominator
    e = abs(num).bit_length() - den.bit_length() - prec - 1
    m = (num << -e) // den if e <= 0 else num // (den << e)
    assert RealBall.from_fraction(q, prec).dyadic() == (2 * m + 1, e - 1, 1, e - 1)


def test_add_error_rounds_its_bound_as_the_old_rule():
    """add_error's radius is the same dyadic number as with the former
    _dy_up_from_fraction (tests/oracles.py) on seeded bounds of 1 to 60
    digits, dyadic ones that are exact at _RAD_BITS bits and rationals that
    are not, added to radii with fewer and more than _RAD_BITS bits."""
    rng = random.Random(0xADD)
    for digits in range(1, 61):
        big = 10 ** digits
        exact = Fraction(rng.randrange(1, 1 << _RAD_BITS)) * Fraction(2) ** rng.randint(
            digits * 3 - 200, digits * 3)
        for q in (exact, rng.randrange(big // 10, big),
                  Fraction(rng.randrange(1, big), rng.randrange(big // 10, big))):
            for rbits in (0, _RAD_BITS - 4, _RAD_BITS, _RAD_BITS + 16):
                b = RealBall(rng.getrandbits(64) - (1 << 63), rng.randint(-300, 300),
                             rng.getrandbits(rbits), rng.randint(-300, 300))
                new, old = b.add_error(q), reference_add_error(b, q)
                assert new.dyadic()[:2] == old.dyadic()[:2]
                assert new.radius_fraction() == old.radius_fraction()


def test_exact_scalar_operations():
    b = RealBall.from_fraction(Fraction(3, 8), 64)
    assert is_exact(b)
    assert b.mul_int(-5).midpoint_fraction() == Fraction(-15, 8)


def test_exact_dyadic_ball_does_not_depend_on_precision():
    # trailing zero bits are stripped, so -1/2 is the same ball at 200 and at
    # 2 bits, and its products with a 200-bit ball of 1/3 are identical
    third = RealBall.from_fraction(Fraction(1, 3), 200)
    wide = RealBall.from_fraction(Fraction(-1, 2), 200)
    short = RealBall.from_fraction(Fraction(-1, 2), 2)
    assert is_exact(wide) and wide.midpoint_fraction() == Fraction(-1, 2)
    p, q = wide.mul(third, 200), short.mul(third, 200)
    assert p.midpoint_fraction() == q.midpoint_fraction()
    assert p.radius_fraction() == q.radius_fraction()
    assert contains_fraction(p, Fraction(-1, 6))


@pytest.mark.parametrize("ball, width", [
    (RealBall(3, 5, 1, 2), 10),                                # both exponents shift left
    (RealBall(-3, 5, 1, -20), 10),                             # midpoint left, radius divided
    (RealBall.from_fraction(Fraction(1, 3), 200), 64),         # both divided
    (RealBall.from_fraction(Fraction(-22, 7), 100).add_error(Fraction(1, 10**20)), 80),
    (RealBall.from_fraction(Fraction(5, 8), 64), 16),          # zero radius
], ids=["left", "mixed", "right", "negative", "exact"])
@pytest.mark.parametrize("num, den", [(1, 3), (-1, 2), (691, 2730), (-5, 66)])
def test_scaled_floors_cover_both_ends(ball, width, num, den):
    """(num/den) * ball lies in [f - r, f + 1 + r] units of 2^-width, with f
    the floor of the scaled midpoint and r the ceiling of the scaled radius."""
    f, r = ball.scaled_floors(num, den, width)
    u, c = Fraction(1, 2 ** width), Fraction(num, den)
    for end in (lower_fraction(ball), upper_fraction(ball)):
        assert (f - r) * u <= c * end <= (f + 1 + r) * u
    assert f * u <= c * ball.midpoint_fraction() < (f + 1) * u
    assert (r - 1) * u < abs(c) * ball.radius_fraction() <= r * u
    assert (r == 0) == is_exact(ball)


# ---------------------------------------------------------------------------
# PiPolynomial
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=30)
_polys = st.dictionaries(st.integers(min_value=0, max_value=6), _coeffs,
                         max_size=4).map(PiPolynomial)


@settings(max_examples=80, deadline=None)
@given(_polys, _polys, _polys)
def test_pipoly_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)


def test_pipoly_strips_zero_coefficients():
    p = PiPolynomial({2: Fraction(1, 6), 3: Fraction(0)})
    assert p.terms() == {2: Fraction(1, 6)}


def test_pipoly_eval_zeta2(ctx128):
    # {2 -> 1/6} must evaluate inside the direct-summation enclosure of zeta(2)
    lo, hi = zeta_direct_interval(2, 4096)
    ball = pipoly_eval(PiPolynomial.single(2, Fraction(1, 6)), ctx128)
    assert lo <= lower_fraction(ball) and upper_fraction(ball) <= hi


def test_pipoly_eval_trivial_cases(ctx128):
    assert pipoly_eval(PiPolynomial(), ctx128).is_zero()
    c = pipoly_eval(PiPolynomial.constant(Fraction(3, 4)), ctx128)
    assert is_exact(c) and c.midpoint_fraction() == Fraction(3, 4)


@settings(max_examples=30, deadline=None)
@given(_polys, _polys)
def test_pipoly_eval_additive_consistency(p, q):
    ctx = PrecisionCtx(128)
    left = pipoly_eval(p + q, ctx)
    right = pipoly_eval(p, ctx).add(pipoly_eval(q, ctx), 176)
    assert left.intersects(right)


def test_pipoly_rejects_negative_exponent():
    with pytest.raises(DomainError):
        PiPolynomial({-1: Fraction(1)})


@pytest.mark.parametrize("make", [
    lambda: PiPolynomial.single(2.5, 1),
    lambda: PiPolynomial.single(2.0, 1),
    lambda: PiPolynomial.single(True, 1),
    lambda: PiPolynomial({"2": Fraction(1, 6)}),
    lambda: PiPolynomial.single(2, 0.1),
    lambda: PiPolynomial.single(2, 0.0),
    lambda: PiPolynomial.single(2, "1/6"),
    lambda: PiPolynomial.single(2, True),
    lambda: PiPolynomial.constant(0.5),
    lambda: PiPolynomial({2: Fraction(1, 6), 4: 0.25}),
    lambda: PiPolynomial.single(2, 1) * 0.1,
    lambda: 0.1 * PiPolynomial.single(2, 1),
    lambda: PiPolynomial.single(2, 1) * "3",
    lambda: PiPolynomial() * 0.5,
], ids=["exp-2.5", "exp-2.0", "exp-bool", "exp-str", "coeff-0.1", "coeff-0.0", "coeff-str",
        "coeff-bool", "constant-0.5", "dict-0.25", "mul-0.1", "rmul-0.1", "mul-str",
        "zero-mul-0.5"])
def test_pipoly_takes_only_exact_arguments(make):
    """Exponents are ints and coefficients and scalars ints or Fractions:
    2.5 is not truncated to pi^2 and 0.1 is not stored as a binary double."""
    with pytest.raises(DomainError):
        make()


def test_pipoly_exact_arguments_are_kept():
    p = PiPolynomial.single(2, 1) * 3 * Fraction(1, 18)
    assert p.terms() == {2: Fraction(1, 6)} and 6 * p == PiPolynomial.single(2, 1)
    assert PiPolynomial.constant(Fraction(1, 10)).terms() == {0: Fraction(1, 10)}
    assert PiPolynomial({0: 0, 3: Fraction(0)}).is_zero()


# ---------------------------------------------------------------------------
# residual acceptance
# ---------------------------------------------------------------------------

def test_ball_is_zero_within_cases():
    tiny = RealBall.from_fraction(Fraction(1, 10**60), 200).add_error(Fraction(1, 10**62))
    ok, cert = ball_is_zero_within(tiny, Fraction(1, 10**40))
    assert ok and cert.within
    assert abs(cert.ball.midpoint_fraction()) + cert.ball.radius_fraction() <= cert.tolerance

    mid = RealBall.from_fraction(Fraction(1, 10**10), 200)
    ok, cert = ball_is_zero_within(mid, Fraction(1, 10**40))
    assert not ok and not cert.within

    ok, _ = ball_is_zero_within(RealBall.zero(), Fraction(1, 10**300))
    assert ok


def test_check_from_sides_needs_small_residual_and_intersecting_sides():
    ctx = PrecisionCtx(128, Fraction(1, 10**40))
    third = RealBall.from_fraction(Fraction(1, 3), 200)
    assert check_from_sides("real", 3, third, third, ctx).passed
    # disjoint sides whose residual is far below the tolerance
    near = RealBall.from_fraction(Fraction(1, 10**50), 400)
    r = check_from_sides("near", 3, near, RealBall.zero(), ctx)
    assert zero_within(r.residual, ctx.target_tolerance)
    assert not near.intersects(RealBall.zero()) and not r.passed
    assert r.tolerance == ctx.target_tolerance and not r.exact
    # sides that intersect but differ by more than the tolerance
    wide = third.add_error(Fraction(1, 10**20))
    assert not check_from_sides("wide", 3, wide, third, ctx).passed


def _short_up(n: int) -> int:
    """The least integer >= n with at most 24 significant bits, a radius
    that the kernel's radius rounding keeps as it is."""
    shift = max(n.bit_length() - 24, 0)
    return -(-n >> shift) << shift


def _verdict_edges() -> list:
    """(lhs, rhs, tol, passed) at the unit u = 2^-200, sides centred near
    M u: residual midpoint m u and radius r u with m + r at a tolerance T u
    and one unit off, sides that touch or miss by one unit, zero radii; each
    with its sides swapped too, for a negative residual."""
    mid, cases = 3 << 150, []
    # T u is the largest multiple of u at most tol
    for tol, big_t in ((Fraction(1, 10 ** 40), (1 << 200) // 10 ** 40),
                       (Fraction(1, 2 ** 130), 1 << 70)):
        r = _short_up(big_t // 2 + 1)  # r >= m, so the sides intersect
        for off in (-1, 0, 1):
            # m + r = T + off: within tol iff T + off <= tol / u
            within = big_t + off <= tol * 2 ** 200
            cases.append((RealBall(mid + big_t - r + off, -200, r, -200),
                          RealBall(mid, -200, 0, 0), tol, within))
        small = 1 << 20
        for off, meets in ((0, True), (1, False)):  # |mid difference| = rad sum + off
            cases.append((RealBall(mid + 2 * small + off, -200, small, -200),
                          RealBall(mid, -200, small, -200), tol, meets))
        cases += [(RealBall(mid, -200, 0, 0), RealBall(mid, -200, 0, 0), tol, True),
                  (RealBall(mid + 1, -200, 0, 0), RealBall(mid, -200, 0, 0), tol, False)]
    return cases + [(b, a, tol, passed) for a, b, tol, passed in cases]


@pytest.mark.parametrize("lhs, rhs, tol, passed", _verdict_edges())
def test_check_from_sides_verdict_at_its_edges(lhs, rhs, tol, passed):
    """check_from_sides decides from one unrounded difference; its verdict
    is ball_is_zero_within of the residual and intersects of the sides, at
    |mid| + rad = tol and one unit either side (tol 10^-40 and 2^-130), at
    sides that touch or miss by one unit, at zero radii and negative residuals."""
    ctx = PrecisionCtx(128, tol)
    r = check_from_sides("edge", 3, lhs, rhs, ctx)
    res = lhs.sub(rhs, ctx.working_precision + GUARD_BITS)
    assert r.residual.dyadic() == res.dyadic() and r.tolerance == tol
    assert r.passed == (ball_is_zero_within(res, tol)[0] and lhs.intersects(rhs)) == passed


@settings(max_examples=300, deadline=None)
@given(DYADIC_BALLS, DYADIC_BALLS, DECIMAL_TOLERANCES, st.integers(0, 200))
# |mid| + rad == tol (3/8 + 1/2), and touching balls: |-3/8 - 3/8| == 1/2 + 1/4
@example(RealBall(-3, -3, 1, -1), RealBall(3, -3, 1, -2), Fraction(875, 1000), 0)
# rad == lower * 2^-k: mid 9, rad 1, lower 8 = 2^3, at both ends of the exponent range
@example(RealBall(9, 250, 1, 250), RealBall(-9, 250, 1, 250), Fraction(1), 3)
@example(RealBall(9, -300, 1, -300), RealBall(9, -300, 0, 0), Fraction(1, 10 ** 120), 3)
# rad 2^-k of the midpoint but not of the lower end: mid 17, rad 2, lower 15
@example(RealBall(17, 0, 2, 0), RealBall(17, 0, 2, 0), Fraction(1), 3)
# equal exact points touch; a zero ball is within any tolerance
@example(RealBall(5, -1, 0, 0), RealBall(5, -1, 0, 0), Fraction(1, 10 ** 120), 0)
@example(RealBall.zero(), RealBall(1, 0, 0, 0), Fraction(1, 10 ** 120), 0)
def test_integer_decisions_agree_with_the_fraction_oracle(a, b, tol, k):
    """intersects, the zero test and the relative-radius target decide on the
    balls' integers; each verdict equals the exact rational one."""
    assert a.intersects(b) == intersects(a, b)
    assert check_from_sides("t", 3, a, b, PrecisionCtx(64, tol)).passed == \
        (zero_within(a.sub(b, 64 + GUARD_BITS), tol) and intersects(a, b))
    ok, cert = ball_is_zero_within(a, tol)
    assert ok == cert.within == zero_within(a, tol)
    assert cert.ball is a and cert.tolerance == tol
    assert a.meets_relative_radius(k) == meets_relative_radius(a, k)
    # radii next to the target mid / (2^k + 1)
    mm, me, _, _ = a.dyadic()
    for d in (-1, 0, 1):
        near = RealBall(mm, me, max(abs(mm) // ((1 << k) + 1) + d, 0), me)
        assert near.meets_relative_radius(k) == meets_relative_radius(near, k)


def test_integer_decisions_at_their_boundaries():
    touching = RealBall(-3, -3, 1, -1), RealBall(3, -3, 1, -2)
    assert touching[0].intersects(touching[1])
    assert not touching[0].intersects(RealBall(3, -3, 1, -3))
    assert ball_is_zero_within(touching[0], Fraction(875, 1000))[0]
    assert not ball_is_zero_within(touching[0], Fraction(874, 1000))[0]
    assert RealBall(9, 0, 1, 0).meets_relative_radius(3)
    assert not RealBall(9, 0, 1, 0).meets_relative_radius(4)
    assert not RealBall(17, 0, 2, 0).meets_relative_radius(3)
    assert not RealBall(-9, 0, 1, 0).meets_relative_radius(0)


def test_ball_is_zero_within_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        ball_is_zero_within(RealBall.zero(), 0)


def test_precision_ctx_validation():
    with pytest.raises(DomainError):
        PrecisionCtx(32)
    assert PrecisionCtx(1 << 20).working_precision == 1 << 20
    with pytest.raises(DomainError):
        PrecisionCtx((1 << 20) + 1)
    with pytest.raises(DomainError):
        PrecisionCtx(128, Fraction(0))


@pytest.mark.parametrize("precision, tolerance", [
    (192.0, Fraction(1, 10**40)),
    (True, Fraction(1, 10**40)),
    ("192", Fraction(1, 10**40)),
    (192, 1e-40),
    (192, "1e-40"),
    (192, True),
], ids=["float-precision", "bool-precision", "str-precision",
        "float-tolerance", "str-tolerance", "bool-tolerance"])
def test_precision_ctx_rejects_non_exact_input(precision, tolerance):
    with pytest.raises(DomainError):
        PrecisionCtx(precision, tolerance)


@pytest.mark.parametrize("bad", [0.1, 1.0, True, "1/10", None],
                         ids=["float", "float-integral", "bool", "str", "none"])
def test_rational_arguments_are_int_or_fraction(bad):
    """A float is the binary double, not the number written (0.1 is not 1/10),
    so every rational argument of the ball layer is an int or a Fraction."""
    third = RealBall.from_fraction(Fraction(1, 3), 128)
    calls = [
        lambda: RealBall.from_fraction(bad, 128),
        lambda: ComplexBall.from_fractions(bad, 0, 128),
        lambda: ComplexBall.from_fractions(0, bad, 128),
        lambda: third.add_error(bad),
        lambda: contains_fraction(third, bad),
        lambda: ball_is_zero_within(third, bad),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_rational_arguments_accept_int_and_fraction():
    assert same_enclosure(RealBall.from_fraction(3, 64), RealBall.from_int(3))
    tenth = RealBall.from_fraction(Fraction(1, 10), 128)
    assert contains_fraction(tenth, Fraction(1, 10)) and not is_exact(tenth)
    assert contains_fraction(tenth.add_error(1), 1)
    assert ball_is_zero_within(RealBall.zero(), 1)[0]


def test_precision_ctx_stores_int_tolerance_as_fraction():
    ctx = PrecisionCtx(128, 1)
    assert type(ctx.target_tolerance) is Fraction and ctx.target_tolerance == 1
    assert ctx == PrecisionCtx(128, Fraction(1))


@given(st.integers(1, 2 ** 60), st.integers(-100, 100), st.integers(0, 40))
def test_rad_up_depends_only_on_the_value(m, e, k):
    """(m << k, e - k) and (m, e) are one value and round to one value: a
    bound, less than 2^-22 relative above it, that rounds only when a dropped
    bit is nonzero."""
    wide, short = _rad_up(m << k, e - k), _rad_up(m, e)
    value = Fraction(m) * Fraction(2) ** e
    assert Fraction(wide[0]) * Fraction(2) ** wide[1] == Fraction(short[0]) * Fraction(2) ** short[1]
    assert value <= Fraction(short[0]) * Fraction(2) ** short[1] < value * (1 + Fraction(1, 2 ** 22))


def test_rad_up_keeps_an_exact_power_of_two():
    man, exp = _rad_up(2 ** 30, 0)
    assert man << exp == 2 ** 30
