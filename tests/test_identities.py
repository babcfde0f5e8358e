"""Tests for the restricted sum identity checks."""

from fractions import Fraction
from math import lcm

import pytest

from dzv.dzeta import _table, gen_poly_eval, get_table
from dzv.identities import (
    _LEMMA1,
    _STATEMENTS,
    _T_M11,
    _eq26_plan,
    _lemma1_classes,
    _lemma1_eq5_count,
    _lemma1_relations,
    _statement_checks,
    _statement_relations,
    corollary1_check,
    corollary2_exact_chain,
    eq26_check,
    gkz_parity_check,
    harmonic_check,
    lemma1_check,
    prop1_check,
    restricted_sum,
    sum_formula_check,
    theorem1_check,
    weighted_sum_check,
)
from dzv.bernoulli import ramanujan_sum
from dzv.numerics import (
    GUARD_BITS,
    CheckReport,
    ComplexBall,
    DomainError,
    OutsideHypothesis,
    PiPolynomial,
    PrecisionCtx,
    RealBall,
    ball_sum,
    complex_sum,
    cube_root_of_unity,
    pipoly_eval,
)
from dzv.zeta import zeta_even_exact, zeta_numeric

from oracles import (
    LEMMA1_ARGUMENTS,
    _homogeneous,
    composed_checks,
    contains_zero,
    intersects,
    lemma1_explicit,
    lemma1_pair_coefficients,
    mul_2exp,
    roots_of_unity_count,
    same_enclosure,
)


def _unit(r):
    """The coefficient vector of the single l1 class r mod 6."""
    return tuple(int(i == r) for i in range(6))


# ---------------------------------------------------------------------------
# restricted sums
# ---------------------------------------------------------------------------

def test_restricted_sum_single_match(ctx128):
    t = get_table(8, ctx128)
    s = restricted_sum(t, _unit(4))  # l1 = 4 (mod 6) in weight 8 is (4, 4) alone
    assert same_enclosure(s, t.entry(4, 4))


def test_restricted_sum_empty_match_is_exact_zero(ctx128):
    t = get_table(3, ctx128)
    s = restricted_sum(t, _unit(4))
    assert s.is_zero()


def test_restricted_sum_parity_partition_is_sum_formula(ctx128):
    t = get_table(6, ctx128)
    s = restricted_sum(t, (1, 1, 1, 1, 1, 1))  # even l1 plus odd l1
    assert s.intersects(zeta_numeric(6, ctx128))


def test_mod6_filters_partition_each_table(ctx128):
    for w in (3, 4, 7, 12):
        t = get_table(w, ctx128)
        wp = t.precision + GUARD_BITS
        assert same_enclosure(restricted_sum(t, (1,) * 6), ball_sum(t.entries.values(), wp))
        total = ball_sum((restricted_sum(t, _unit(r)) for r in range(6)), 300)
        assert total.intersects(ball_sum(t.entries.values(), 300))


@pytest.mark.parametrize("coeffs", [
    (1, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 0, 1),
    (),
    (1.0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0.5),
    (True, 0, 0, 0, 0, 0),
    ("1", 0, 0, 0, 0, 0),
    "101010",
    (0, 0, Fraction(1, 3), 0, Fraction(-1, 4), 0),
    (0, 0, Fraction(2), 0, 0, 0),
], ids=["five", "seven", "empty", "float", "float-half", "bool", "str-entry", "str", "fraction",
        "integral-fraction"])
def test_restricted_sum_rejects_bad_coefficients(ctx128, coeffs):
    """Six int coefficients, no more or fewer; a Fraction is refused even when
    it is an integer, as a float or a bool is."""
    t = get_table(6, ctx128)
    with pytest.raises(DomainError):
        restricted_sum(t, coeffs)


# ---------------------------------------------------------------------------
# the coefficient vectors against the statements as written
# ---------------------------------------------------------------------------

def _signed_sum(t, terms):
    """ball_sum of c zeta(l1, l2) over the table, c the sum of the signs of the
    (sign, condition on (l1, l2)) terms that hold, with the checks' rounding."""
    out = []
    for p in t.pairs():
        c = sum(sign for sign, cond in terms if cond(p.l1, p.l2))
        if c:
            out.append(t.entries[p].mul_int(c))
    return ball_sum(out, t.precision + GUARD_BITS)


def _both(r1, r2):
    return lambda l1, l2: l1 % 6 == r1 and l2 % 6 == r2


def _first(r):
    return lambda l1, l2: l1 % 6 == r


def test_left_sides_transcribe_the_statements(ctx192):
    """Every restricted-sum left side is the signed sum the statement names,
    with each congruence written on the index the statement puts it on."""
    for l in range(3, 31):
        t = get_table(l, ctx192)
        theorem1 = {
            0: [(1, _first(3)), (-1, _first(4)), (-1, _first(5))],
            1: [(1, _first(3)), (1, _first(4)), (-1, _first(5))],
            2: [(1, _first(4))],
        }[l % 3]
        assert same_enclosure(theorem1_check(l, ctx192).lhs, _signed_sum(t, theorem1)), l

        # S(l1 = 2l (3), odd) - S(l1 = 2l (3), even) - S(l1 = l-1 (3)) - 2 S(l1 = 4 (6))
        prop1 = [
            (1, lambda l1, l2: l1 % 3 == 2 * l % 3 and l1 % 2 == 1),
            (-1, lambda l1, l2: l1 % 3 == 2 * l % 3 and l1 % 2 == 0),
            (-1, lambda l1, l2: l1 % 3 == (l - 1) % 3),
            (-2, lambda l1, l2: l1 % 6 == 4),
        ]
        assert same_enclosure(prop1_check(l, ctx192).lhs, _signed_sum(t, prop1)), l

        if l % 2 == 1:
            continue
        even, odd = gkz_parity_check(l, ctx192)
        both_even = [(1, lambda l1, l2: l1 % 2 == 0 and l2 % 2 == 0)]
        both_odd = [(1, lambda l1, l2: l1 % 2 == 1 and l2 % 2 == 1)]
        assert same_enclosure(even.lhs, _signed_sum(t, both_even)), l
        assert same_enclosure(odd.lhs, _signed_sum(t, both_odd)), l

        corollary1 = {
            0: [(1, _both(3, 3)), (-1, _both(4, 2)), (-1, _both(5, 1))],
            4: [(1, _both(3, 1)), (1, _both(4, 0)), (-1, _both(5, 5))],
            2: [(1, _both(4, 4))],
        }[l % 6]
        assert same_enclosure(corollary1_check(l, ctx192).lhs, _signed_sum(t, corollary1)), l


# ---------------------------------------------------------------------------
# the statement table
# ---------------------------------------------------------------------------

def _bump(v, k):
    return tuple(x + (i == k) for i, x in enumerate(v))


def _table_mutations():
    """(suite, residue, weight, row index, mutated row): every row of the
    statement table with one entry of its lhs, rhs, z or c raised by 1, at the
    smallest weight >= 9 the row applies to, where every l1 class mod 6 holds
    a pair.  A row without a second class sum has c = 0 and rhs None, so only
    its lhs and z are raised."""
    for suite, (modulus, by_residue, _) in _STATEMENTS.items():
        for residue, rows in by_residue.items():
            l = next(w for w in range(9, 9 + modulus) if w % modulus == residue)
            for i, (tag, lhs, z, c, rhs) in enumerate(rows):
                variants = [(tag, _bump(lhs, k), z, c, rhs) for k in range(6)]
                variants.append((tag, lhs, z + 1, c, rhs))
                if rhs is not None:
                    variants += [(tag, lhs, z, c, _bump(rhs, k)) for k in range(6)]
                    variants.append((tag, lhs, z, c + 1, rhs))
                for row in variants:
                    yield suite, residue, l, i, row


def test_every_mutated_statement_row_fails(ctx128, monkeypatch):
    """Every row holds at its mutation weight, and raising any coefficient of
    any row by 1 breaks its check: each entry of the table is read, and read
    where the statement puts it."""
    accepted = []
    mutations = list(_table_mutations())
    for suite, residue, l, i, row in mutations:
        assert _statement_checks(suite, l, ctx128)[i].passed, (suite, l, i)
        modulus, by_residue, hypothesis = _STATEMENTS[suite]
        rows = list(by_residue[residue])
        rows[i] = row
        monkeypatch.setitem(_STATEMENTS, suite,
                            (modulus, {**by_residue, residue: rows}, hypothesis))
        if _statement_checks(suite, l, ctx128)[i].passed:
            accepted.append((suite, l, row))
        monkeypatch.undo()
    assert len(mutations) == 126
    assert not accepted


def test_t_m11_class_vector_is_the_generating_polynomial(ctx128):
    """T_l(-1, 1) as the class vector _T_M11 encloses the same value as
    evaluating T_l at (-1, 1)."""
    assert _T_M11 == tuple(1 if r % 2 else -1 for r in range(6))  # (-1)^(l1-1)
    for l in range(3, 15):
        t = get_table(l, ctx128)
        s = restricted_sum(t, _T_M11)
        assert same_enclosure(s, gen_poly_eval(t, -1, 1)), l


@pytest.mark.parametrize("check", [sum_formula_check, gkz_parity_check, theorem1_check,
                                   corollary1_check, prop1_check, lemma1_check],
                         ids=lambda f: f.__name__)
def test_non_int_weight_is_rejected_cold_and_warm(check):
    """12.0 and True fail with DomainError before the table memo, where 12.0
    would hit the table of 12; the verdict is the same cold or warm."""
    ctx = PrecisionCtx(96, Fraction(1, 10**20))
    _table.cache_clear()
    for bad in (12.0, True):
        with pytest.raises(DomainError):
            check(bad, ctx)
    check(12, ctx)
    for bad in (12.0, True):
        with pytest.raises(DomainError):
            check(bad, ctx)


# ---------------------------------------------------------------------------
# parity formulas
# ---------------------------------------------------------------------------

def test_gkz_parity_weight4_exact(ctx128):
    even_r, odd_r = gkz_parity_check(4, ctx128)
    assert even_r.passed and even_r.exact
    assert odd_r.passed and odd_r.exact
    # the exact statement: pi^4/120 = (3/4) pi^4/90 and pi^4/360 = (1/4) pi^4/90
    z4 = zeta_even_exact(4)
    dz22 = (zeta_even_exact(2) * zeta_even_exact(2) - z4) * Fraction(1, 2)
    assert dz22 == z4 * Fraction(3, 4)
    assert z4 - dz22 == z4 * Fraction(1, 4)


def test_gkz_parity_numeric_weights(ctx128):
    for w in (6, 8, 10):
        even_r, odd_r = gkz_parity_check(w, ctx128)
        assert even_r.passed and odd_r.passed
        assert not even_r.exact


def test_gkz_parity_rejects_odd_weight(ctx128):
    with pytest.raises(DomainError):
        gkz_parity_check(5, ctx128)


# ---------------------------------------------------------------------------
# the three weight-mod-3 cases
# ---------------------------------------------------------------------------

def test_theorem1_weight3_all_empty(ctx128):
    r = theorem1_check(3, ctx128)
    assert r.passed
    assert r.lhs.is_zero() and r.rhs.is_zero()


def test_theorem1_weight4_exact_mirror(ctx128):
    # case ii at weight 4 reduces to zeta(3,1) = (1/3) zeta(2,2):
    # pi^4/360 = (1/3) pi^4/120
    r = theorem1_check(4, ctx128)
    assert r.passed and r.label.startswith("theorem1.ii")
    z4 = zeta_even_exact(4)
    dz22 = (zeta_even_exact(2) * zeta_even_exact(2) - z4) * Fraction(1, 2)
    dz31 = z4 - dz22
    assert dz31 == dz22 * Fraction(1, 3)


def test_theorem1_weight5_with_closed_form_oracles(ctx128):
    t = get_table(5, ctx128)
    r = theorem1_check(5, ctx128)
    assert r.passed and r.label.startswith("theorem1.iii")
    # independent closed forms: zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3)
    # and zeta(3,2) = -(11/2) zeta(5) + 3 zeta(2) zeta(3)
    wp = 200
    z5 = zeta_numeric(5, ctx128)
    z2z3 = zeta_numeric(2, ctx128).mul(zeta_numeric(3, ctx128), wp)
    dz41_closed = z5.mul_int(2).sub(z2z3, wp)
    assert t.entry(4, 1).intersects(dz41_closed)
    dz32_closed = z2z3.mul_int(3).sub(
        z5.mul(RealBall.from_fraction(Fraction(11, 2), wp), wp), wp)
    assert t.entry(3, 2).intersects(dz32_closed)
    # case iii statement assembled from the oracle values:
    # zeta(4,1) = zeta(5)/6 - zeta(3,2)/3
    rhs = z5.mul(RealBall.from_fraction(Fraction(1, 6), wp), wp).sub(
        dz32_closed.mul(RealBall.from_fraction(Fraction(1, 3), wp), wp), wp)
    assert dz41_closed.intersects(rhs)


def test_theorem1_weight8_case_iii_assembly(ctx128):
    t = get_table(8, ctx128)
    assert theorem1_check(8, ctx128).passed
    # zeta(4,4) = zeta(8)/6 - (1/3)(zeta(3,5) + zeta(5,3) + zeta(7,1))
    wp = 200
    odd = ball_sum((t.entry(3, 5), t.entry(5, 3), t.entry(7, 1)), wp)
    rhs = zeta_numeric(8, ctx128).mul(RealBall.from_fraction(Fraction(1, 6), wp), wp)
    rhs = rhs.sub(odd.mul(RealBall.from_fraction(Fraction(1, 3), wp), wp), wp)
    assert t.entry(4, 4).intersects(rhs)


def test_theorem1_sweep_small(ctx128):
    for w in range(3, 15):
        assert theorem1_check(w, ctx128).passed, w


def test_verdict_uses_the_callers_tolerance():
    """Both contexts share the cached 128-bit table; each verdict is judged
    with its own caller's tolerance, whichever context built the table."""
    strict = PrecisionCtx(128, Fraction(1, 10**300))
    loose = PrecisionCtx(128, Fraction(1, 10**10))
    assert not theorem1_check(9, strict).passed
    r = theorem1_check(9, loose)
    assert r.passed and r.tolerance == Fraction(1, 10**10)


# ---------------------------------------------------------------------------
# even-weight restatement
# ---------------------------------------------------------------------------

def test_corollary1_weight8_exact_counterpart(ctx128):
    r = corollary1_check(8, ctx128)
    assert r.passed and r.label.startswith("corollary1.iii")
    # (zeta(4)^2 - zeta(8))/2 = zeta(8)/12, i.e. pi^8/113400
    z4, z8 = zeta_even_exact(4), zeta_even_exact(8)
    dz44 = (z4 * z4 - z8) * Fraction(1, 2)
    assert dz44 == z8 * Fraction(1, 12)
    assert dz44 == Fraction(1, 113400)


def test_corollary1_weight6_with_harmonic_oracle(ctx128):
    t = get_table(6, ctx128)
    r = corollary1_check(6, ctx128)
    assert r.passed and r.label.startswith("corollary1.i")
    # zeta(3,3) = (zeta(3)^2 - zeta(6))/2, then the case (i) combination
    wp = 200
    z3 = zeta_numeric(3, ctx128)
    dz33_closed = mul_2exp(z3.mul(z3, wp).sub(zeta_numeric(6, ctx128), wp), -1)
    assert t.entry(3, 3).intersects(dz33_closed)
    lhs = dz33_closed.sub(t.entry(4, 2), wp).sub(t.entry(5, 1), wp)
    rhs = zeta_numeric(6, ctx128).mul(RealBall.from_fraction(Fraction(1, 12), wp), wp)
    assert lhs.intersects(rhs)


def test_corollary1_weight10_case_ii_pairs(ctx128):
    t = get_table(10, ctx128)
    r = corollary1_check(10, ctx128)
    assert r.passed and r.label.startswith("corollary1.ii")
    # matched pairs: (3,7) and (9,1) in the first class, (4,6) in the second,
    # (5,5) negated
    wp = 200
    lhs = t.entry(3, 7).add(t.entry(9, 1), wp).add(t.entry(4, 6), wp) \
        .sub(t.entry(5, 5), wp)
    rhs = zeta_numeric(10, ctx128).mul(RealBall.from_fraction(Fraction(1, 4), wp), wp)
    assert lhs.intersects(rhs)


def test_corollary1_rejects_odd_weight(ctx128):
    with pytest.raises(DomainError):
        corollary1_check(7, ctx128)


def test_corollary1_iii_rederivable_from_theorem1_and_parity(ctx128):
    """For even l = 2 (mod 6) the two left sides match the same pairs, and the
    right sides differ by (1/12 - 1/3 * 1/4) zeta(l) = 0 given the odd-odd
    parity formula."""
    for l in (8, 14):
        t = get_table(l, ctx128)
        matched_thm = [p for p in t.pairs() if p.l1 % 6 == 4]
        matched_cor = [p for p in t.pairs() if p.l1 % 6 == 4 and p.l2 % 6 == 4]
        assert matched_thm == matched_cor
        wp = 240
        odd = restricted_sum(t, (0, 1, 0, 1, 0, 1))
        zl = zeta_numeric(l, ctx128)
        diff = zl.mul(RealBall.from_fraction(Fraction(1, 6), wp), wp)
        diff = diff.sub(odd.mul(RealBall.from_fraction(Fraction(1, 3), wp), wp), wp)
        diff = diff.sub(zl.mul(RealBall.from_fraction(Fraction(1, 12), wp), wp), wp)
        assert contains_zero(diff)
        assert abs(diff.midpoint_fraction()) + diff.radius_fraction() \
            <= ctx128.target_tolerance


# ---------------------------------------------------------------------------
# signed restricted sum identity
# ---------------------------------------------------------------------------

def test_prop1_weight3_hand_case(ctx128):
    r = prop1_check(3, ctx128)
    assert r.passed
    # the single pair gives lhs = -zeta(2,1) = -zeta(3)
    assert r.lhs.intersects(zeta_numeric(3, ctx128).neg())


def test_prop1_weight4_and_fractional_parts(ctx128):
    assert prop1_check(4, ctx128).passed
    assert Fraction((4 + 1) % 3, 3) == Fraction(2, 3)
    assert Fraction((5 + 1) % 3, 3) == 0
    assert prop1_check(5, ctx128).passed


def test_prop1_sweep_small(ctx128):
    for w in range(3, 13):
        assert prop1_check(w, ctx128).passed, w


def test_prop1_two_evaluation_modes_agree(ctx128):
    """Evaluating the four signed terms separately (terms outer) and per-pair
    coefficient accumulation give identical midpoints with unrounded
    accumulation; the term-wise radius dominates when a pair carries
    cancelling signs."""
    hugeprec = 1 << 20
    for l in (3, 4, 5, 8, 11):
        t = get_table(l, ctx128)
        r2l = (2 * l) % 3
        # (coefficient, l1 condition) per term of the prop1 left side
        terms = [
            (1, lambda l1: l1 % 3 == r2l and l1 % 2 == 1),
            (-1, lambda l1: l1 % 3 == r2l and l1 % 2 == 0),
            (-1, lambda l1: l1 % 3 == (l - 1) % 3),
            (-2, lambda l1: l1 % 6 == 4),
        ]
        coeffs = [sum(c for c, cond in terms if cond(r)) for r in range(6)]
        # per-pair accumulation, no rounding
        by_pair = ball_sum(
            (t.entries[p].mul_int(coeffs[p.l1 % 6])
             for p in t.pairs() if coeffs[p.l1 % 6]), hugeprec)
        # terms outer, no rounding
        by_term = ball_sum(
            (ball_sum((t.entries[p] for p in t.pairs() if cond(p.l1)),
                      hugeprec).mul_int(c)
             for c, cond in terms), hugeprec)
        assert by_pair.midpoint_fraction() == by_term.midpoint_fraction()
        assert by_pair.radius_fraction() <= by_term.radius_fraction()
        if l % 3 != 2:  # no cancelling overlap: radii agree too
            assert same_enclosure(by_pair, by_term)
        assert prop1_check(l, ctx128).lhs.intersects(by_pair)


# ---------------------------------------------------------------------------
# cube-root-of-unity equations
# ---------------------------------------------------------------------------

def test_lemma1_weight4_equation3_both_sides_vanish(ctx128):
    reports = lemma1_check(4, ctx128)
    eq3 = reports[2]
    assert eq3.passed
    assert eq3.rhs.is_zero()
    assert contains_zero(eq3.lhs)


def test_lemma1_weight4_equation1_rhs_value(ctx128):
    # no l1 in {2,3} is 1 mod 3, so rhs = (5/2) zeta(4) - T_4(-1,1)
    # = pi^4/36 + pi^4/180 = pi^4/30
    eq1 = lemma1_check(4, ctx128)[0]
    assert eq1.passed
    expected = pipoly_eval(PiPolynomial.single(4, Fraction(1, 30)), ctx128)
    assert eq1.rhs.intersects(expected)


def test_lemma1_weight6_equation5_integer_part(ctx128):
    # sum over {1, w, w^2} of (x^5-1)/(x-1) equals 6 = 3 floor(7/3)
    eq5 = lemma1_check(6, ctx128)[4]
    assert eq5.passed
    expected = zeta_numeric(6, ctx128).mul_int(6)
    assert eq5.lhs.intersects(expected)


def test_lemma1_sweep_small(ctx128):
    for l in range(3, 11):
        assert all(r.passed for r in lemma1_check(l, ctx128)), l


def test_lemma1_passes_where_the_power_chains_lose_l_over_2_bits():
    # a low precision at a high weight, where evaluating T_l at omega by
    # Horner's rule widened omega's radius by about l^2/2; the class vectors
    # evaluate no complex point, and the sides are exact dot products
    ctx = PrecisionCtx(64, Fraction(1, 10**15))
    assert all(r.passed for r in lemma1_check(48, ctx))


def test_lemma1_conjugate_symmetry(ctx128):
    """Summing the Horner kernel over {1, w, w^2} with w replaced by its
    conjugate permutes the same multiset of arguments, so each side's
    enclosure is unchanged: the oracle treats the two roots alike, as the
    class vectors, which add the omega term and its conjugate, assume."""
    l = 7
    t = get_table(l, ctx128)
    wp = ctx128.working_precision + 48
    coeffs = [None] + [t.entry(l1, l - l1) for l1 in range(2, l)]
    omega = cube_root_of_unity(ctx128)
    omega_bar = ComplexBall(omega.real, omega.imag.neg())
    one = ComplexBall.from_real(RealBall.from_int(1))
    xs_a = [one, omega, omega_bar]
    xs_b = [one, omega_bar, omega]

    def lhs1(xs):
        return complex_sum((_homogeneous(coeffs, x.add(one, wp), one, wp) for x in xs), wp)

    def lhs2(xs):
        return complex_sum((_homogeneous(coeffs, x.add(one, wp), x, wp) for x in xs), wp)

    assert same_enclosure(lhs1(xs_a), lhs1(xs_b))
    assert same_enclosure(lhs2(xs_a), lhs2(xs_b))


def test_weighted_sum_left_side_is_t_l_at_2_1(ctx192):
    """weighted-sum's left side is T_l(2, 1), the dot product that lemma1's
    rows 1 and 2 read at x = 1, and the same ball as the sum of the entries
    times 2^(l1-1) with one final rounding, weights 3..40."""
    for l in range(3, 41):
        t = get_table(l, ctx192)
        lhs = weighted_sum_check(l, ctx192).lhs
        per_entry = ball_sum((v.mul_int(2 ** (p.l1 - 1)) for p, v in t.entries.items()),
                             t.precision + GUARD_BITS)
        assert same_enclosure(lhs, gen_poly_eval(t, 2, 1)), l
        assert same_enclosure(lhs, per_entry), l


def test_lemma1_rejects_small_weight(ctx128):
    with pytest.raises(DomainError):
        lemma1_check(2, ctx128)


def test_lemma1_class_vectors_are_twice_the_real_parts():
    """Each row's class vector, read at every pair of every weight below 60,
    is the integer X^(l1-1) Y^(l2-1) + its conjugate for the row's arguments
    at x = omega, multiplied out exactly in Q(sqrt -3)."""
    for tag, (a, b), *_ in _LEMMA1:
        for l in range(3, 60):
            classes = _lemma1_classes(a, b, l)
            assert {l1: classes[l1 % 6] for l1 in range(2, l)} == \
                lemma1_pair_coefficients(tag, l), (tag, l)


def test_lemma1_eq5_count_is_the_roots_of_unity_sum():
    """Equation 5's integer is the sum over {1, omega, omega^2} of
    sum_{i<=l-2} x^i in Q(sqrt -3), and that is 3 floor((l+1)/3)."""
    for l in range(3, 200):
        assert roots_of_unity_count(l) == (_lemma1_eq5_count(l), 0) == (3 * ((l + 1) // 3), 0), l


def _agree_with_the_horner_sides(l: int, ctx: PrecisionCtx) -> None:
    """Same labels and verdicts as the five equations by the Horner kernel,
    and each real side intersects the kernel's complex side (whose imaginary
    part holds 0) and is at most 1 bit wider than its real part."""
    for new, old in zip(lemma1_check(l, ctx), lemma1_explicit(l, ctx), strict=True):
        assert (new.label, new.passed) == (old.label, old.passed)
        for a, b in ((new.lhs, old.lhs), (new.rhs, old.rhs)):
            assert intersects(a, b.real) and contains_zero(b.imag), new.label
            assert a.radius_fraction() <= 2 * b.real.radius_fraction(), new.label


@pytest.mark.parametrize("l", [*range(3, 61), 150, 151, 152])
def test_lemma1_rows_match_the_explicit_equations(l, ctx192):
    """The class-vector rows give, record for record, the five equations
    written out by hand and evaluated at the cube roots of unity by the
    Horner kernel, at 192 bits."""
    _agree_with_the_horner_sides(l, ctx192)


def test_lemma1_rows_match_the_explicit_equations_at_512_bits():
    ctx = PrecisionCtx(512, Fraction(1, 10**120))
    for l in range(3, 31):
        _agree_with_the_horner_sides(l, ctx)


# ---------------------------------------------------------------------------
# two-variable functional equation
# ---------------------------------------------------------------------------

def test_eq26_passes_above_weight_100_at_192_bits(ctx192):
    """At weight 104 the terms of a side reach about 2^100 at x = 2, y = -2,
    too large for a 2^-192 relative table radius to meet 1e-40; the tables are
    asked for the bits those terms take, so every point passes."""
    reports = eq26_check(104, ctx192)
    assert [r.label for r in reports if not r.passed] == []


def test_eq26_points_of_weights_3_and_20_are_pinned(ctx192):
    """The seeded points are drawn once per weight; a new seed or draw order
    would change every eq26 label and the golden report with them."""
    F = Fraction
    points = {
        3: ((1, 1), (F(-11, 8), F(-3, 4)), (F(13, 8), F(11, 8)), (F(7, 8), F(-9, 8)),
            (F(-3, 4), F(1, 4))),
        20: ((1, 1), (F(1, 4), 0), (F(-1, 2), F(-1, 8)), (F(-13, 8), F(-3, 4)),
             (F(11, 8), F(-9, 8))),
    }
    for l, pts in points.items():
        # both weights' sides stay below 2^GUARD_BITS: no extra bits
        assert _eq26_plan(l) == (pts, 0)
        assert [r.label for r in eq26_check(l, ctx192)] == \
            [f"eq26[l={l},x={x},y={y}]" for x, y in pts]
    assert _eq26_plan(104)[1] > 0


def test_eq26_builds_tables_only_at_the_run_precision(ctx192):
    """Up to weight 20 the sides stay below 2^GUARD_BITS, so eq26 reads the
    tables every other suite of the run reads: one miss per weight, then hits."""
    _table.cache_clear()
    for l in range(3, 21):
        assert all(r.passed for r in eq26_check(l, ctx192)), l
    assert _table.cache_info().misses == 18
    hits = _table.cache_info().hits
    for l in range(3, 21):
        get_table(l, ctx192)
    assert _table.cache_info()[:2] == (hits + 18, 18)


# ---------------------------------------------------------------------------
# one relation form: exact vectors against the paper, sides against their
# term-by-term compositions
# ---------------------------------------------------------------------------

def _exact_difference(l, left, right):
    """left - right of two forms at weight l, times the least common multiple
    d of their scales' denominators: (d, the integer coefficients of
    zeta(l1, l - l1) for l1 = 2..l-1, the rational coefficient of zeta(l))."""
    d = lcm(Fraction(left.scale).denominator, Fraction(right.scale).denominator)

    def part(form):
        k = d * Fraction(form.scale)
        return [k * c for c in (list(form.weights[1:]) + [0] * l)[:l - 2]], k * form.z

    (lw, lz), (rw, rz) = part(left), part(right)
    vector = [a - b for a, b in zip(lw, rw)]
    assert all(c.denominator == 1 for c in vector), (l, vector)
    return d, [int(c) for c in vector], lz - rz


def _in(*classes):
    """1 where l1 mod 6 is one of the classes."""
    return lambda l1, l2: int(l1 % 6 in classes)


def _pair(r1, r2):
    return lambda l1, l2: int(l1 % 6 == r1 and l2 % 6 == r2)


def _odd(l1, l2):
    return l1 % 2


def _sgn(l1, l2):
    """T_l(-1, 1)'s coefficient of zeta(l1, l2)."""
    return (-1) ** (l1 - 1)


def _paper_relations(suite, l):
    """Each statement of the suite at weight l as the paper writes it, as
    left - right: (tag, the coefficient of zeta(l1, l2) as a function of
    (l1, l2), the coefficient of zeta(l)); None outside the hypothesis."""
    if suite == "sum-formula":
        return [("", lambda l1, l2: 1, -1)]
    if suite == "gkz-parity":
        return None if l % 2 else [
            ("even", lambda l1, l2: int(l1 % 2 == 0 and l2 % 2 == 0), Fraction(-3, 4)),
            ("odd", lambda l1, l2: int(l1 % 2 == 1 and l2 % 2 == 1), Fraction(-1, 4))]
    if suite == "theorem1":
        return [{0: ("i", lambda l1, l2: _in(3)(l1, l2) - _in(4, 5)(l1, l2)
                     - Fraction(_odd(l1, l2), 3), 0),
                 1: ("ii", lambda l1, l2: _in(3, 4)(l1, l2) - _in(5)(l1, l2)
                     - Fraction(1 - _odd(l1, l2), 3), 0),
                 2: ("iii", lambda l1, l2: _in(4)(l1, l2) + Fraction(_odd(l1, l2), 3),
                     Fraction(-1, 6))}[l % 3]]
    if suite == "corollary1":
        return None if l % 2 else [
            {0: ("i", lambda l1, l2: _pair(3, 3)(l1, l2) - _pair(4, 2)(l1, l2)
                 - _pair(5, 1)(l1, l2), Fraction(-1, 12)),
             4: ("ii", lambda l1, l2: _pair(3, 1)(l1, l2) + _pair(4, 0)(l1, l2)
                 - _pair(5, 5)(l1, l2), Fraction(-1, 4)),
             2: ("iii", _pair(4, 4), Fraction(-1, 12))}[l % 6]]
    if suite == "prop1":
        r = 2 * l % 3
        return [("", lambda l1, l2: (int(l1 % 3 == r) * (1 if l1 % 2 else -1)
                                     - int(l1 % 3 == (l - 1) % 3) - 2 * _in(4)(l1, l2)
                                     - Fraction(2, 3) * _sgn(l1, l2)),
                 Fraction((l + 1) % 3, 3))]
    assert suite == "lemma1", suite
    # sum over x in {1, omega, omega^2} of T_l(X, Y): the x = 1 term at the
    # arguments' values there, and the other two multiplied out in Q(sqrt -3)
    at_one = {"x+1": 2, "x": 1, "1": 1}
    out = []
    for tag, (residue, signed, tail) in {"eq1": (1, True, True), "eq2": (2 * l, True, True),
                                         "eq3": (1, False, False),
                                         "eq4": (l - 1, False, False)}.items():
        roots = lemma1_pair_coefficients(tag, l)
        xa, ya = (at_one[a] for a in LEMMA1_ARGUMENTS[tag])

        def coefficient(l1, l2, roots=roots, xa=xa, ya=ya, residue=residue, signed=signed,
                        tail=tail):
            right = 3 * int(l1 % 3 == residue % 3) * (_sgn(l1, l2) if signed else 1)
            return xa ** (l1 - 1) * ya ** (l2 - 1) + roots[l1] - right + tail * _sgn(l1, l2)

        out.append((tag, coefficient, -Fraction(l + 1, 2) if tail else 0))
    return out + [("eq5", lambda l1, l2: 0, roots_of_unity_count(l)[0] - 3 * ((l + 1) // 3))]


@pytest.mark.parametrize("suite", [*_STATEMENTS, "lemma1"])
def test_relations_are_the_papers_class_vectors(suite):
    """At every weight 3..60, each _STATEMENTS row's and each lemma1 row's
    exact left - right is the paper's statement: integers over l1 (after the
    sides' common scale) and a rational zeta(l) coefficient, and the rows
    cover the paper's weights."""
    for l in range(3, 61):
        paper = _paper_relations(suite, l)
        if paper is None:
            with pytest.raises(OutsideHypothesis):
                _statement_relations(suite, l)
            continue
        ours = _lemma1_relations(l) if suite == "lemma1" else _statement_relations(suite, l)
        assert len(ours) == len(paper), (suite, l)
        for (label, left, right), (tag, coefficient, z) in zip(ours, paper):
            assert label == (f"{suite}.{tag}[l={l}]" if tag else f"{suite}[l={l}]")
            d, vector, zeta_l = _exact_difference(l, left, right)
            assert vector == [d * coefficient(l1, l - l1) for l1 in range(2, l)], label
            assert zeta_l == d * z, label


_TABLE_CHECKS = {"sum-formula": sum_formula_check, "weighted-sum": weighted_sum_check,
                 "harmonic": harmonic_check, "gkz-parity": gkz_parity_check,
                 "theorem1": theorem1_check, "corollary1": corollary1_check,
                 "prop1": prop1_check, "lemma1": lemma1_check, "eq26": eq26_check}


@pytest.mark.parametrize("bits, tol, weights", [(192, 40, range(3, 31)), (512, 120, range(3, 13))],
                         ids=["192", "512"])
def test_every_side_meets_its_composed_side(bits, tol, weights):
    """Every side of the nine table suites, one form rounded once, intersects
    the side composed of separately rounded terms (``oracles.composed_checks``)
    and is at most 1 bit wider, and each verdict is the same; an exact side,
    such as an empty class, stays exact."""
    ctx = PrecisionCtx(bits, Fraction(1, 10 ** tol))
    for l in weights:
        for suite, check in _TABLE_CHECKS.items():
            try:
                reports = check(l, ctx)
            except OutsideHypothesis:
                assert composed_checks(suite, l, ctx) == [], (suite, l)
                continue
            reports = [reports] if isinstance(reports, CheckReport) else reports
            for new, old in zip(reports, composed_checks(suite, l, ctx), strict=True):
                assert (new.label, new.passed) == (old.label, old.passed)
                for a, b in ((new.lhs, old.lhs), (new.rhs, old.rhs)):
                    assert intersects(a, b), new.label
                    assert a.radius_fraction() <= 2 * b.radius_fraction(), new.label


# ---------------------------------------------------------------------------
# exact chain to the gap-6 Bernoulli identities
# ---------------------------------------------------------------------------

def test_corollary2_chain_weight8(ctx128):
    r = corollary2_exact_chain(8, ctx128)
    assert r.passed and r.exact
    # pair count: only (4,4); product identity zeta(4)^2 = (7/6) zeta(8)
    assert zeta_even_exact(4) * zeta_even_exact(4) == \
        zeta_even_exact(8) * Fraction(7, 6)
    # the bridge lands on the m=4 convolution: 630 * (1/8100) = 7/90
    assert ramanujan_sum(8, 4) == Fraction(7, 90)


def test_corollary2_chain_weight14(ctx128):
    r = corollary2_exact_chain(14, ctx128)
    assert r.passed
    lhs = (zeta_even_exact(4) * zeta_even_exact(10)) * 2
    assert lhs == zeta_even_exact(14) * Fraction(13, 6)


def test_corollary2_chain_rejects_wrong_class(ctx128):
    with pytest.raises(DomainError):
        corollary2_exact_chain(10, ctx128)
    with pytest.raises(DomainError):
        corollary2_exact_chain(2, ctx128)


@pytest.mark.parametrize("l", [*range(8, 201, 6), 512, 800])
def test_corollary2_chain_lhs_is_the_pi_polynomial_sum(l):
    # the chain sums the pi^l coefficient through the class-sum kernel; the
    # direct term-by-term sum of the products c_j c_(l-j) must equal it
    direct = sum(zeta_even_exact(j) * zeta_even_exact(l - j) for j in range(4, l, 6))
    r = corollary2_exact_chain(l)
    assert direct == r.lhs
    assert r.passed and r.rhs == zeta_even_exact(l) * Fraction(l - 1, 6)
