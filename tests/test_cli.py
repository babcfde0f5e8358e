"""End-to-end tests of the command-line interface: output formats, exit
codes, determinism, and configuration precedence."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dzv import cli as cli_mod, dzeta as dzeta_mod, numerics
from dzv.cli import (
    _SUITES,
    CheckRecord,
    RunConfig,
    SUITE_NAMES,
    SuiteReport,
    _ball_str,
    _decimal_str,
    _decimal_truncate,
    _radius_decimal,
    _record,
    _shared_digits,
    certified_decimal,
    cmd_verify,
    main,
    render_csv,
    render_json,
    render_text,
)
from dzv.numerics import (
    CheckReport,
    ComplexBall,
    DomainError,
    OutsideHypothesis,
    PrecisionCtx,
    RealBall,
    exact_check,
)
from dzv.dzeta import _table, functional_eq26_check
from dzv.identities import eq26_check, sum_formula_check, weighted_sum_check
from dzv.zeta import zeta_numeric

import oracles
from oracles import (
    DYADIC_BALLS,
    SUITE_HYPOTHESES,
    contains_ball,
    contains_fraction,
    decimal_truncate,
    lower_fraction,
    reference_decimal_str,
    residual_strings,
    upper_fraction,
    zeta_direct_interval,
)
from report_diff import diff


def _run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "dzv.cli", *argv],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return proc


# ---------------------------------------------------------------------------
# bernoulli subcommand
# ---------------------------------------------------------------------------

def test_cli_bernoulli_values():
    assert _run("bernoulli", "12").stdout.strip() == "-691/2730"
    assert _run("bernoulli", "0").stdout.strip() == "1"


def test_cli_bernoulli_negative_is_usage_error():
    proc = _run("bernoulli", "--", "-1")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# dzeta subcommand
# ---------------------------------------------------------------------------

def test_cli_dzeta_zeta3_digits():
    proc = _run("dzeta", "2", "1", "-p", "128")
    assert proc.returncode == 0
    out = proc.stdout.strip()
    assert out.startswith("1.2020569")
    assert "±" in out


def test_readme_dzeta_example_prints_what_it_quotes():
    """The README's `dzv dzeta` example is the command's whole output line."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    [line] = [ln for ln in readme.splitlines() if ln.startswith("dzv dzeta ")]
    command, quoted = (part.strip() for part in line.split("#", 1))
    proc = _run(*command.split()[1:])
    assert proc.returncode == 0
    assert proc.stdout == quoted + "\n"


def test_cli_dzeta_44_matches_exact_value():
    proc = _run("dzeta", "4", "4", "-p", "128")
    assert proc.returncode == 0
    printed = proc.stdout.split("±")[0].strip()
    # oracle: zeta(4,4) = pi^8/113400; enclose pi^8 via the zeta(2) relation
    # instead of reciting digits: compare against the direct-sum enclosure of
    # zeta(8)/12 = zeta(4,4)
    lo, hi = zeta_direct_interval(8, 400)
    val = Fraction(printed)
    assert lo / 12 - Fraction(1, 10**10) <= val <= hi / 12 + Fraction(1, 10**10)


def test_cli_dzeta_divergent_is_usage_error():
    assert _run("dzeta", "1", "2").returncode == 2


@pytest.mark.parametrize("argv", [["bernoulli", "1_2"], ["bernoulli", "\u0661\u0662"],
                                  ["dzeta", "2_0", "1"], ["dzeta", "2", "\u0661"],
                                  ["dzeta", "2", "1", "-p", "1_92"]])
def test_integer_arguments_take_ascii_digits_only(capsys, argv):
    # int() would read "1_2" as 12 and Arabic-Indic digits as their values
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    # the message is the parser's own, not argparse's "invalid _int value"
    assert "_int" not in err and "expected an integer, got" in err


# ---------------------------------------------------------------------------
# certified digit printing
# ---------------------------------------------------------------------------

def test_certified_decimal_truncates_at_uncertain_digit():
    # [1.23446, 1.23466]: truncations agree through 3 decimals, differ at 4
    b = RealBall.from_fraction(Fraction(123456, 100000), 200).add_error(Fraction(1, 10**4))
    assert certified_decimal(b, 30) == "1.234"
    wide = RealBall.from_fraction(Fraction(1, 5), 200).add_error(Fraction(1))
    assert certified_decimal(wide, 30) == "0"


def test_certified_decimal_negative_values():
    b = RealBall.from_fraction(Fraction(-355, 113), 200).add_error(Fraction(1, 10**6))
    s = certified_decimal(b, 30)
    assert s.startswith("-3.1415")


def _ball(mid: Fraction, rad: Fraction) -> RealBall:
    return RealBall.from_fraction(mid, 300).add_error(rad)


_FRACTIONS = st.builds(lambda n, d: Fraction(n, d), st.integers(-10**12, 10**12),
                       st.integers(1, 10**6))
_RADII = st.builds(lambda n, k: Fraction(n) / 10 ** k, st.integers(0, 10**6), st.integers(0, 70))
# midpoints near an integer, near 0, and anywhere
_MIDS = st.one_of(st.builds(lambda n, q: n + q / 10**9, st.integers(-300, 300), _FRACTIONS),
                  _FRACTIONS.map(lambda q: q / 10**60), _FRACTIONS)


@settings(max_examples=300, deadline=None)
@given(_MIDS, _RADII, st.integers(0, 40))
@example(Fraction(1), Fraction(1, 10**50), 57)
@example(Fraction(-3), Fraction(1, 10**50), 57)
@example(Fraction(-1, 10**70), Fraction(1, 10**71), 30)
@example(Fraction(9999, 10**4), Fraction(2, 10**4), 6)
@example(Fraction(-1, 5), Fraction(1, 10), 30)
def test_certified_decimal_prints_shared_digits_or_an_inner_integer(mid, rad, digits):
    b = _ball(mid, rad)
    lo, hi = lower_fraction(b), upper_fraction(b)
    s = certified_decimal(b, digits)
    if lo <= 0 <= hi:
        assert s == "0"
        return
    assert s != "0"
    if int(lo) != int(hi):  # the integer parts differ: an integer of the ball
        assert s.lstrip("-").isdigit() and lo <= int(s) <= hi
        return
    # the longest truncation both ends share, at most `digits` places, always
    # with a point: "130." when the shared digits stop at the units
    k = len(s.partition(".")[2])
    assert "." in s
    assert k <= digits and s.rstrip(".") == decimal_truncate(lo, k) == decimal_truncate(hi, k)
    assert k == digits or decimal_truncate(lo, k + 1) != decimal_truncate(hi, k + 1)


def test_sides_near_an_integer_print_that_integer():
    # a side whose ball holds an integer prints it: the sum formula's table sum
    # at 259 and 260 is 1 + 2^-l + ..., rounded once at 240 bits, so its ball
    # holds 1 (and not 0)
    reports, code = cmd_verify(RunConfig(weight_min=259, weight_max=260,
                                         suites=("sum-formula",)))
    assert code == 0 and [rec.lhs for rec in reports[0].checks] == ["1", "1"]
    for l in (259, 260):
        assert contains_fraction(sum_formula_check(l, PrecisionCtx(192)).lhs, 1), l
    # zeta(l) = zeta(l, 1) is the Euler-Maclaurin ball as built, radius far
    # below 2^-l, so at odd and even l alike it holds no integer and prints
    # 57 places of 1.000...
    for l in (259, 260):
        assert _ball_str(zeta_numeric(l, PrecisionCtx(192)), 192) == "1." + "0" * 57, l
    assert [rec.rhs for rec in reports[0].checks] == ["1." + "0" * 57] * 2
    # weighted-sum's sides at 260 are near 130.5 and share the digits 130 but
    # no decimal, so they print "130." (a bare 130 would read as a ball holding
    # 130); at 259 the lhs holds 130 and prints that integer
    reports, code = cmd_verify(RunConfig(weight_min=259, weight_max=260,
                                         suites=("weighted-sum",)))
    (at259, at260), = (r.checks for r in reports)
    assert code == 0 and (at260.lhs, at260.rhs) == ("130.", "130.")
    assert at259.lhs == "130"
    assert contains_fraction(weighted_sum_check(259, PrecisionCtx(192)).lhs, 130)
    assert not contains_fraction(weighted_sum_check(260, PrecisionCtx(192)).lhs, 130)


@settings(max_examples=200, deadline=None)
@given(_MIDS, _RADII.filter(bool) | st.integers(1, 4000).map(lambda k: Fraction(1, 2 ** k)))
@example(Fraction(1), Fraction(124, 10**52))
def test_repr_radius_is_an_upper_bound(mid, rad):
    b = _ball(mid, rad)
    printed = repr(b).rstrip(")").split(" +/- ")[1]
    assert Fraction(printed) >= b.radius_fraction()


def _residual_record(res):
    return _record(CheckReport("t[l=3]", 3, res, RealBall.zero(), res, True,
                               Fraction(1, 10**40)), RunConfig())


def test_residual_midpoint_sign_only_with_a_printed_digit():
    def printed(mid):
        # a radius in [1e-59, 1e-58) prints the midpoint to 60 decimals
        res = RealBall.from_fraction(mid, 400).add_error(Fraction(5, 10**59))
        return _residual_record(res).residual_midpoint

    tiny = Fraction(1, 10**70)
    assert printed(tiny) == printed(-tiny) == "0." + "0" * 60
    small = printed(Fraction(-1, 10**59))
    assert small.startswith("-0.") and small.strip("-0.")


def test_residual_midpoint_stops_at_the_radius_second_digit():
    mid = Fraction(1, 7) * Fraction(1, 10**40)
    rec = _residual_record(RealBall.from_fraction(mid, 400).add_error(Fraction(3, 10**45)))
    # radius 3.1e-45 (rounded up): digits down to 1e-46, radius widened by one unit there
    assert rec.residual_midpoint == "0." + "0" * 40 + "142857"
    assert rec.residual_radius == "3.2e-45"
    wide = _residual_record(RealBall.from_fraction(Fraction(-123456, 10), 400).add_error(98))
    # radius 9.9e+01: integer digits, and one more unit rolls over to 1.0e+02
    assert (wide.residual_midpoint, wide.residual_radius) == ("-12345", "1.0e+02")
    exact = _residual_record(RealBall.from_fraction(Fraction(3, 8), 400))
    assert (exact.residual_midpoint, exact.residual_radius) == ("0." + "375".ljust(60, "0"), "0")


_RESIDUAL_FRACTIONS = st.builds(lambda n, d, k: Fraction(n, d) * Fraction(10) ** k,
                                st.integers(-10**30, 10**30), st.integers(1, 10**30),
                                st.integers(-80, 10))


@settings(max_examples=200, deadline=None)
@given(_RESIDUAL_FRACTIONS, _RESIDUAL_FRACTIONS.map(abs).filter(bool))
def test_printed_residual_encloses_the_residual(mid, r):
    # a positive radius; a radius of 0 keeps 60 decimals (test above)
    res = RealBall.from_fraction(mid, 300).add_error(r)
    rec = _residual_record(res)
    printed = RealBall.from_fraction(Fraction(rec.residual_midpoint), 400)
    assert contains_ball(printed.add_error(Fraction(rec.residual_radius)), res)


@settings(max_examples=300, deadline=None)
@given(DYADIC_BALLS, DYADIC_BALLS, st.integers(0, 60))
# midpoints 5/2 and -7/2, halfway between integers, in balls whose ends
# differ in the integer part: round half to even gives 2 and -4
@example(RealBall(5, -1, 1, 0), RealBall(-7, -1, 1, 0), 10)
# ends that share every digit up to the last place; a zero radius
@example(RealBall(123456789, -20, 1, -60), RealBall(-1, -300, 0, 0), 60)
def test_printing_from_integers_agrees_with_the_fraction_oracle(a, b, digits):
    """Truncated midpoints, certified digits and report residuals, printed
    from the balls' integers, equal those printed from exact rationals."""
    for ball in (a, b):
        mm, me, _, _ = ball.dyadic()
        exact = ball.midpoint_fraction()
        assert _decimal_truncate(mm, me, digits) == decimal_truncate(exact, digits)
        assert certified_decimal(ball, digits) == oracles.certified_decimal(ball, digits)
    for res in (a, b):
        rec = _residual_record(res)
        assert (rec.residual_midpoint, rec.residual_radius) == residual_strings(res)


# 0 <= a <= b with b a little above or below a multiple of a power of ten, so
# that a's digits end in 9s where b's end in 0s
_CARRIES = st.builds(lambda m, p, u, d: [max(m * 10 ** p + u - d, 0), max(m * 10 ** p + u, 0)],
                     st.integers(0, 10 ** 20), st.integers(0, 60),
                     st.integers(-3, 3), st.integers(0, 10 ** 6))


@settings(max_examples=400, deadline=None)
@given(_CARRIES | st.lists(st.integers(0, 10 ** 70), min_size=2, max_size=2).map(sorted))
@example([199, 200])
@example([1999, 2000])
@example([0, 10 ** 57])
@example([10 ** 57 - 1, 10 ** 57])
@example([5, 5])
def test_shared_digits_match_the_commonprefix_reference(ends):
    assert _shared_digits(*ends) == oracles.shared_leading_digits(*ends)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 8, 10 ** 8), st.integers(0, 40), st.integers(1, 10 ** 4),
       st.integers(0, 70), st.integers(0, 50))
@example(2, 1, 1, 60, 57)      # ends 0.1999... and 0.2000...1 at 57 places
@example(-1, 0, 1, 40, 30)
def test_certified_decimal_across_a_carry_matches_the_commonprefix_reference(n, k, r, rk,
                                                                            digits):
    """Balls centred on n / 10^k, whose truncated ends are likely to differ by a
    carry, print as the commonprefix rule on the exact ends prints them."""
    b = _ball(Fraction(n, 10 ** k), Fraction(r, 10 ** rk))
    assert certified_decimal(b, digits) == oracles.certified_decimal(b, digits)


def _seeded_ball(rng: random.Random, kind: int) -> RealBall:
    """One ball of seven kinds: 0 holds 0, half of them with an end at 0;
    1 ends that differ in the integer part (|mid| >= 2^61, rad >= 1); 2 exact
    (rm = 0); 3 a negative midpoint with a narrow radius; 4 exponents >= 0;
    5 any of both signs; 6 a radius at a two-digit boundary, c 10^k with c
    in 1, 99, 100, 995, ... or 2^-k."""
    sign = rng.choice((-1, 1))
    if kind == 0:
        mm, me, rm = sign * rng.getrandbits(200), rng.randint(-400, 100), rng.randint(1, 2 ** 30)
        if rng.random() < 0.5:
            return RealBall(mm, me, abs(mm), me)
        return RealBall(mm, me, rm, me + abs(mm).bit_length() - rm.bit_length() + 1
                        + rng.randint(0, 5))
    if kind == 6:
        mm, me = sign * rng.getrandbits(rng.randint(1, 250)), rng.randint(-300, 100)
        if rng.random() < 0.5:
            return RealBall(mm, me, 1, -rng.randint(0, 200))
        return RealBall(mm, me, rng.choice((1, 9, 10, 95, 99, 100, 101, 995, 999, 1001))
                        * 10 ** rng.randint(0, 40), 0)
    if kind == 1:
        return RealBall(sign * (rng.getrandbits(89) | 1 << 89), rng.randint(-28, 40),
                        rng.randint(1, 2 ** 20), rng.randint(0, 20))
    if kind == 2:
        return RealBall(sign * rng.getrandbits(300), rng.randint(-600, 300), 0, 0)
    if kind == 3:
        me = rng.randint(-500, 50)
        return RealBall(-(rng.getrandbits(250) | 1), me, rng.getrandbits(24), me - rng.randint(0, 80))
    if kind == 4:
        return RealBall(sign * rng.getrandbits(100), rng.randint(0, 200),
                        rng.getrandbits(24), rng.randint(0, 200))
    return RealBall(sign * rng.getrandbits(rng.randint(1, 300)), rng.randint(-700, 300),
                    rng.getrandbits(rng.randint(0, 40)), rng.randint(-700, 300))


def test_printer_matches_its_reference_copy_on_seeded_balls():
    """certified_decimal at 8..300 places, and a report row's sides and
    residual strings, equal the reference copy of the integer printer in
    oracles on 14,000 seeded balls of seven kinds; the kinds that hold 0 and
    whose ends differ in the integer part are checked to be what they say."""
    rng = random.Random(0x5EED)
    for i in range(14000):
        kind, digits = i % 7, rng.randint(8, 300)
        ball = _seeded_ball(rng, kind)
        if kind < 2 and i < 700:
            lo, hi = lower_fraction(ball), upper_fraction(ball)
            assert (lo <= 0 <= hi) if kind == 0 else (0 < lo or hi < 0) and int(lo) != int(hi)
        assert certified_decimal(ball, digits) == \
            oracles.reference_certified_decimal(ball, digits), (ball.dyadic(), digits)
        rec = _residual_record(ball)
        assert (rec.lhs, rec.residual_midpoint, rec.residual_radius) == \
            (oracles.reference_certified_decimal(ball, 57), *oracles.reference_residual_strings(ball))


def test_certified_decimal_rounds_a_halfway_midpoint_to_even():
    assert [certified_decimal(RealBall(m, -1, 1, 0), 10) for m in (5, 7, -5, -7)] \
        == ["2", "4", "-2", "-4"]


@settings(max_examples=200, deadline=None)
@given(st.builds(lambda n, d, k: Fraction(n, d) * Fraction(10) ** k,
                 st.integers(1, 10**30), st.integers(1, 10**30), st.integers(-80, 80)))
@example(Fraction(1))
@example(Fraction(995, 1000))
def test_radius_decimal_is_a_tight_upper_bound(r):
    s = _radius_decimal(r.numerator, r.denominator)
    e = int(s.split("e")[1])
    v = Fraction(s)
    assert v >= r and v - Fraction(10) ** (e - 1) < r


def test_radius_decimal_rounds_up_into_the_next_decade():
    assert _radius_decimal(1, 1) == "1.0e+00"
    assert _radius_decimal(995, 1000) == "1.0e+00"


# Python refuses str() of an int above 4300 digits (its default limit); every
# printed number goes through _decimal_str instead

def _from_decimal(s: str) -> int:
    """The integer a decimal string spells, read 100 digits at a time."""
    sign, digits = (-1, s[1:]) if s.startswith("-") else (1, s)
    n = 0
    for i in range(0, len(digits), 100):
        chunk = digits[i:i + 100]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


@settings(max_examples=60, deadline=None)
@given(st.integers(-(2 ** 30000), 2 ** 30000))
@example(10 ** 5000)
@example(10 ** 5000 - 1)
@example(-(2 ** 1601))
def test_decimal_str_spells_any_integer(n):
    s = _decimal_str(n)
    assert _from_decimal(s) == n
    assert s.lstrip("-") == "0" or not s.lstrip("-").startswith("0")


@pytest.mark.parametrize("n", [10 ** 4300, -(10 ** 4300), 10 ** 12345, 10 ** 5000 - 1,
                               7 ** 9000, -(3 ** 12000) + 1],
                         ids=["1e4300", "-1e4300", "1e12345", "nines", "7^9000", "-3^12000"])
def test_decimal_str_is_the_old_split(n):
    """Past 4300 digits, str(Decimal(n)) spells what the former split at a
    power of ten (tests/oracles.py) did."""
    assert _decimal_str(n) == reference_decimal_str(n)


def test_ball_above_the_str_digit_limit_prints():
    # 4515 decimals at 15,000 bits, past the 4300-digit limit
    printed = _ball_str(RealBall.from_fraction(Fraction(1, 3), 15000), 15000)
    assert printed.startswith("0.") and len(printed) > 4500
    assert set(printed[2:]) == {"3"}


def test_radius_of_ten_to_minus_5000_prints():
    assert _radius_decimal(1, 10 ** 5000) == "1.0e-5000"
    assert _radius_decimal(10 ** 5000 + 1, 10 ** 10000) == "1.1e-5000"


def test_exact_record_with_a_5000_digit_numerator_prints():
    sevens = 7 * (10 ** 5000 - 1) // 9
    rec = _record(exact_check("big", 3, Fraction(sevens), Fraction(sevens, 3)), RunConfig())
    assert rec.lhs == "7" * 5000
    assert rec.rhs == "7" * 5000 + "/3"
    assert rec.residual_midpoint == _decimal_str(2 * sevens) + "/3"


_TABLE_SUITES = ("sum-formula", "weighted-sum", "harmonic", "gkz-parity", "theorem1",
                 "corollary1", "prop1", "lemma1", "eq26")


def test_verdicts_and_digits_read_no_ball_as_a_fraction(monkeypatch, capsys):
    """Every verdict and printed digit comes from the balls' integers: with
    the exact-rational readers of a ball made to raise, the table suites, the
    three report formats and `dzv dzeta` still run.  No other test builds
    tables at 200 bits, so every table and Hurwitz value is built here."""
    def refuse(*args):
        raise AssertionError("a ball was read as a Fraction")

    monkeypatch.setattr(RealBall, "midpoint_fraction", refuse)
    monkeypatch.setattr(RealBall, "radius_fraction", refuse)
    monkeypatch.setattr(numerics, "_dy_fraction", refuse)
    reports, code = cmd_verify(RunConfig(precision_bits=200, weight_min=3, weight_max=8,
                                         suites=_TABLE_SUITES))
    assert code == 0 and sum(r.passed_count for r in reports) > 9 * 6
    for render in (render_json, render_csv, render_text):
        assert render(reports)
    # no side at these weights has ends with different integer parts
    assert certified_decimal(RealBall(5, -1, 1, 0), 10) == "2"
    assert main(["dzeta", "16", "14", "-p", "200"]) == 0
    assert capsys.readouterr().out.startswith("0.0000152822608")


def _counted(calls, fn):
    return lambda *args: calls.append(args) or fn(*args)


def test_warm_table_suites_evaluate_no_complex_point(monkeypatch):
    """Call counts, which hold on any host: with tables 3..20 cached at 192
    bits, one pass of the table suites builds no cube root of unity and does
    no complex ball arithmetic (lemma1 reads integer class vectors, eq26
    evaluates real balls at rational points), and eq26 at other points with
    denominator 8, also through the complex-ball adapter, evaluates without
    raising."""
    config = RunConfig(weight_min=3, weight_max=20, suites=_TABLE_SUITES)
    cmd_verify(config)  # builds the tables
    calls = []
    for name in ("cube_root_of_unity", "complex_sum"):
        fn = getattr(numerics, name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "dzv"]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, _counted(calls, fn))
    for name in ("add", "sub", "mul", "mul_real"):
        monkeypatch.setattr(ComplexBall, name, _counted(calls, getattr(ComplexBall, name)))
    assert cmd_verify(config)[1] == 0
    ctx = config.ctx()
    wp = ctx.working_precision + numerics.GUARD_BITS
    for l in range(3, 21):
        assert all(r.passed for r in eq26_check(l, ctx))
        x, y = Fraction(l - 11, 8), Fraction(13 - 3 * l, 8)
        functional_eq26_check(l, ComplexBall.from_fractions(x, 0, wp),
                              ComplexBall.from_fractions(y, 0, wp), ctx)
    assert calls == []


@pytest.mark.parametrize("bits, tol", [(192, 40), (512, 120)])
def test_lemma1_and_eq26_records_print_real_sides(bits, tol):
    """Every side of lemma1 and eq26 is a real ball, so no record of weights
    3..30 prints an imaginary part in its sides or its residual."""
    reports, code = cmd_verify(RunConfig(precision_bits=bits, tolerance_exponent=tol,
                                         weight_min=3, weight_max=30, suites=("lemma1", "eq26")))
    records = [c for r in reports for c in r.checks]
    assert code == 0 and len(records) == 28 * 10
    for c in records:
        assert not any("i" in s for s in (c.lhs, c.rhs, c.residual_midpoint)), c.label


_GOLDEN = Path(__file__).parent / "data" / "verify-3-12.json"


def test_verify_report_matches_the_golden_file(capsys):
    """`dzv verify --weights 3..12 --precision 192 --format json`, all suites,
    with each suite's wall_time removed, byte for byte as committed.  A change
    to any printed digit regenerates tests/data/verify-3-12.json on purpose:
    the same command, wall_time dropped, json.dumps(..., indent=2) + newline."""
    assert main(["verify", "--weights", "3..12", "--precision", "192", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        del r["wall_time"]
    assert json.dumps(reports, indent=2) + "\n" == _GOLDEN.read_text(encoding="utf-8")


def _assert_sweep_repeats_the_golden_file(name: str, suites: tuple,
                                          weights: tuple = (3, 30)) -> None:
    """`dzv verify --suites SUITES --weights A..B --format json` at 192 bits,
    weights 3..30 unless given, with wall_time and output_path dropped,
    against tests/data/NAME: no record differs, then the text is equal byte
    for byte."""
    lo, hi = weights
    config = RunConfig(weight_min=lo, weight_max=hi, output_format="json", suites=suites)
    reports, code = cmd_verify(config)
    assert code == 0
    reports = json.loads(render_json(reports))
    for r in reports:
        del r["wall_time"], r["config"]["output_path"]
    text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert diff(json.loads(text), reports) == []
    assert json.dumps(reports, indent=2) + "\n" == text


def test_exact_bernoulli_report_matches_the_golden_file():
    """`dzv verify --suites euler-bernoulli,ramanujan,corollary2-chain --weights
    1020..1032 --format json`, with wall_time and output_path dropped.  Every
    side is an exact rational, so the report repeats byte for byte; a kernel
    change that moves a digit shows as a diff line."""
    _assert_sweep_repeats_the_golden_file(
        "verify-bernoulli-1020-1032.json", ("euler-bernoulli", "ramanujan", "corollary2-chain"),
        (1020, 1032))


def test_six_suite_sweep_report_matches_the_golden_file():
    """CI's `dzv verify --suites sum-formula,gkz-parity,theorem1,corollary1,
    prop1,lemma1 --weights 3..30 --format json` repeats the committed report:
    every Hurwitz value, table entry and residual of those weights at 192 bits
    is pinned.  The 1024-bit golden, tests/data/verify-1024-3-16.json, is
    compared by CI's smoke step."""
    _assert_sweep_repeats_the_golden_file(
        "verify-3-30.json", ("sum-formula", "gkz-parity", "theorem1", "corollary1", "prop1",
                             "lemma1"))


def test_sum_weighted_harmonic_sweep_report_matches_the_golden_file():
    """`--suites sum-formula,weighted-sum,harmonic --weights 3..30`, 253
    records: the two warm-benchmark suites with no other golden above weight
    12 at 192 bits, and the sum formula beside them."""
    _assert_sweep_repeats_the_golden_file(
        "verify-sum-weighted-harmonic-3-30.json", ("sum-formula", "weighted-sum", "harmonic"))


# Each sweep's records at 192 bits, SHA-256 over the repr of each record's
# tuple of the named fields; a change that moves any of them on purpose
# updates the digest.
_PINNED_SWEEPS = {
    # the exact suites over 4..800, the benchmark's exact-bernoulli line; the
    # golden file pins 13 weights byte for byte
    "exact-bernoulli-4-800": (
        ("euler-bernoulli", "ramanujan", "corollary2-chain"), (4, 800),
        ("label", "lhs", "rhs", "residual_midpoint", "passed", "skipped_reason"), 2657,
        "27e931c181be518e086f5f4a208cdb9a811535bc8e029ad1dca447f0b984b180"),
    # harmonic over 3..120, where each right side is a form that reads two
    # table slots; its golden file stops at weight 30
    "harmonic-3-120": (
        ("harmonic",), (3, 120),
        ("label", "lhs", "rhs", "residual_midpoint", "residual_radius", "passed"), 3482,
        "da494dbd773d7c20518451c85419800107e718f1bccfaf16a9231c926d736e90"),
    # eq26 and lemma1 over 3..23, the weights where eq26 asks for no bits above
    # the run's precision: eq26's sides at its prepared points and lemma1's rows
    # by l mod 3; the eq26-lemma1 golden file, which reaches 80, is read only by
    # the console-script smoke test
    "eq26-lemma1-3-23": (
        ("eq26", "lemma1"), (3, 23),
        ("label", "lhs", "rhs", "residual_midpoint", "residual_radius", "passed"), 210,
        "c1f15889869e80eff92210d1fe7a1b61d8239c3402b27c2d5944478306bc0683"),
}


@pytest.mark.parametrize("sweep", _PINNED_SWEEPS)
def test_sweep_records_are_pinned(sweep):
    """Every pinned field of every record of the sweep, in order, passing."""
    suites, (lo, hi), fields, count, pinned = _PINNED_SWEEPS[sweep]
    reports, code = cmd_verify(RunConfig(weight_min=lo, weight_max=hi, suites=suites))
    assert code == 0
    checks = [c for r in reports for c in r.checks]
    assert len(checks) == count
    digest = hashlib.sha256()
    for c in checks:
        digest.update(repr(tuple(getattr(c, f) for f in fields)).encode())
    assert digest.hexdigest() == pinned


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def test_cli_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    proc = _run("verify", "--suites", "ramanujan,euler-bernoulli",
                "--weights", "4..14", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert [r["suite"] for r in data] == ["ramanujan", "euler-bernoulli"]
    ram = data[0]
    assert ram["passed_count"] + 0 == len(ram["checks"])
    assert ram["failed_count"] == 0
    # exact checks carry no tolerance field
    exact_checks = [c for c in ram["checks"] if c.get("exact")]
    assert exact_checks and all("tolerance" not in c for c in exact_checks)
    # hypothesis skips recorded as skipped, not failed
    skipped = [c for c in ram["checks"] if "skipped_reason" in c]
    assert {c["weight"] for c in skipped} == {4, 5, 6, 7, 9, 10, 11, 12, 13}


def test_cli_verify_unknown_suite_usage_error():
    assert _run("verify", "--suites", "nosuch").returncode == 2


def test_cli_verify_exit_zero_and_csv(tmp_path):
    out = tmp_path / "report.csv"
    proc = _run("verify", "--suites", "sum-formula,weighted-sum",
                "--weights", "3..6", "--precision", "96", "--tol", "1e-20",
                "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,label,weight,passed,exact,residual_midpoint,residual_radius"
    assert len(lines) == 1 + 2 * 4


def test_harmonic_suite_runs_all_pairs():
    config = RunConfig(precision_bits=128, tolerance_exponent=30,
                       weight_min=4, weight_max=8, suites=("harmonic",),
                       output_format="json")
    reports, code = cmd_verify(config)
    assert code == 0
    checks = reports[0].checks
    # weights 4..8 give 1+1+2+2+3 = 9 pair checks, no skips
    assert len([c for c in checks if c.skipped_reason is None]) == 9
    assert all(c.passed for c in checks)


def test_json_report_roundtrip():
    config = RunConfig(precision_bits=96, tolerance_exponent=20,
                       weight_min=8, weight_max=8, suites=("corollary2-chain",),
                       output_format="json")
    reports, code = cmd_verify(config)
    assert code == 0
    for r in reports:
        d = r.to_dict()
        assert SuiteReport.from_dict(d).to_dict() == d
        assert SuiteReport.from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_verify_determinism_except_wall_time():
    base = dict(precision_bits=96, weight_min=3, weight_max=6,
                suites=("theorem1", "eq26"), output_format="json")
    # an unreachable tolerance first: the tables it caches must not carry it
    strict, code = cmd_verify(RunConfig(tolerance_exponent=300, **base))
    assert code == 1
    assert all(not c.passed and c.tolerance == "1e-300"
               for c in strict[0].checks if c.weight >= 4)
    config = RunConfig(tolerance_exponent=20, **base)
    r1, code = cmd_verify(config)
    r2, _ = cmd_verify(config)
    assert code == 0
    assert all(c.tolerance == "1e-20" for r in r1 for c in r.checks)
    # eq26 records carry both real sides, not a bare residual
    assert all(c.lhs and c.rhs and "i" not in c.lhs + c.rhs for c in r1[1].checks)

    def strip(reports):
        out = [r.to_dict() for r in reports]
        for d in out:
            d.pop("wall_time")
        return out

    assert strip(r1) == strip(r2)


def test_jobs_other_than_one_is_usage_error(tmp_path, capsys):
    # runs are single-threaded; --jobs/"jobs" accept only 1
    assert main(["verify", "--suites", "euler-bernoulli", "--weights", "4..4",
                 "--jobs", "1"]) == 0
    assert main(["verify", "--jobs", "2", "--weights", "3..3"]) == 2
    assert capsys.readouterr().err.startswith("error: parallelism")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2, "weights": "3..3"}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: parallelism")
    with pytest.raises(DomainError):
        RunConfig(parallelism=2)


def test_run_config_validation():
    with pytest.raises(DomainError):
        RunConfig(weight_min=10, weight_max=3)
    with pytest.raises(DomainError):
        RunConfig(suites=("nosuch",))
    with pytest.raises(DomainError, match="^suite 'eq26' is named twice$"):
        RunConfig(suites=("eq26", "lemma1", "eq26"))
    with pytest.raises(DomainError):
        RunConfig(output_format="xml")
    with pytest.raises(DomainError):
        RunConfig(parallelism=0)
    with pytest.raises(DomainError):
        RunConfig(tolerance_exponent=-3)
    with pytest.raises(DomainError):
        RunConfig(precision_bits=63)
    for suites in ((), []):
        with pytest.raises(DomainError, match="a run must check something$"):
            RunConfig(suites=suites)


def test_default_run_config_runs_every_suite():
    # a library run checks what ``dzv verify`` checks, never nothing
    reports, code = cmd_verify(RunConfig(weight_min=3, weight_max=3))
    assert [r.suite for r in reports] == list(SUITE_NAMES) and len(reports) == 12
    assert code == 0 and all(r.checks for r in reports)


def test_tolerance_stops_at_the_precision_cap_in_decimal_digits():
    """1e-315653, the 2^20-bit precision cap in decimal digits, still runs
    (and fails at 192 bits); one digit more is bad input, refused before
    10^N is built."""
    for n in (315654, 10**7, 10**100):
        with pytest.raises(DomainError, match=f"^tolerance must be 1e-N with 0 <= N <= 315653, "
                                              f"got N = {n}$"):
            RunConfig(tolerance_exponent=n)
    reports, code = cmd_verify(RunConfig(tolerance_exponent=315653, weight_min=4, weight_max=4,
                                         suites=("theorem1",)))
    assert code == 1 and [c.tolerance for c in reports[0].checks] == ["1e-315653"]


@pytest.mark.parametrize("field", ["weight_min", "weight_max", "tolerance_exponent",
                                   "parallelism"])
@pytest.mark.parametrize("value", [3.0, 2.5, True, "3"], ids=["float", "float-frac", "bool", "str"])
def test_run_config_int_fields_take_only_ints(field, value):
    # a report read back with from_dict builds its RunConfig from outside data
    fields = dict(weight_min=1, weight_max=1, suites=("theorem1",))
    fields[field] = value
    with pytest.raises(DomainError, match=f"^{field} must be an int,"):
        RunConfig(**fields)


@pytest.mark.parametrize("field, value, match", [
    ("output_format", ["json"], "^unknown output format"),
    ("output_format", None, "^unknown output format"),
    ("output_path", 3, "^output_path must be a str or None"),
    ("output_path", b"r.json", "^output_path must be a str or None"),
    ("suites", "theorem1", "^suites must be a list of suite names"),
    ("suites", None, "^suites must be a list of suite names"),
], ids=["format-list", "format-none", "path-int", "path-bytes", "suites-str", "suites-none"])
def test_run_config_other_fields_reject_wrong_types(field, value, match):
    # a format list is unhashable, fd 3 is not a path, and "theorem1" is not
    # the suites t, h, e, ...
    fields = dict(weight_min=1, weight_max=1, suites=("theorem1",))
    fields[field] = value
    with pytest.raises(DomainError, match=match):
        RunConfig(**fields)


def test_all_suite_names_registered():
    assert set(SUITE_NAMES) == {
        "sum-formula", "weighted-sum", "harmonic", "gkz-parity", "theorem1",
        "corollary1", "prop1", "lemma1", "eq26", "euler-bernoulli",
        "ramanujan", "corollary2-chain",
    }


def test_env_var_precision_override(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ, DZV_PRECISION="96")
    proc = subprocess.run(
        [sys.executable, "-m", "dzv.cli", "verify", "--suites", "sum-formula",
         "--weights", "3..3", "--tol", "1e-20", "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data[0]["config"]["precision_bits"] == 96


@pytest.mark.parametrize("argv", [["verify", "--suites", "sum-formula", "--weights", "3..3"],
                                  ["dzeta", "2", "1"]])
@pytest.mark.parametrize("value", ["abc", "63", "1_92", "\u0661\u0669\u0662"])
def test_env_var_precision_invalid_is_usage_error(monkeypatch, capsys, argv, value):
    monkeypatch.setenv("DZV_PRECISION", value)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: DZV_PRECISION")


_ABSURD = "100000000000000000000"


@pytest.mark.parametrize("argv, env, prefix", [
    (["verify", "--weights", "3..3", "--suites", "theorem1", "--precision", _ABSURD], None,
     "error: precision: "),
    (["dzeta", "2", "1", "-p", _ABSURD], None, "error: precision: "),
    (["dzeta", "2", "1"], _ABSURD, "error: DZV_PRECISION: "),
], ids=["verify-precision", "dzeta-p", "env"])
def test_absurd_precision_is_a_usage_error_before_any_table_work(monkeypatch, capsys, argv, env,
                                                                 prefix):
    """A precision above 2^20 bits is refused with one error line, which
    names the option or variable, and exit 2, before any table is built (an
    OverflowError and a traceback from the table rows otherwise)."""
    def no_table_work(*args):
        raise AssertionError("a table build started")
    monkeypatch.setattr(dzeta_mod, "_double_zetas", no_table_work)
    if env is None:
        monkeypatch.delenv("DZV_PRECISION", raising=False)
    else:
        monkeypatch.setenv("DZV_PRECISION", env)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "2^20" in err


@pytest.mark.parametrize("argv, config, env, line", [
    (["verify", "--weights", "3..3", "--precision", "32"], None, None,
     "error: precision: expected 64 to 2^20 = 1048576 bits, got 32\n"),
    (["verify", "--weights", "3..3"], {"precision": int(_ABSURD)}, None,
     f"error: precision: expected 64 to 2^20 = 1048576 bits, got {_ABSURD}\n"),
    (["dzeta", "2", "1", "-p", "32"], None, None,
     "error: precision: expected 64 to 2^20 = 1048576 bits, got 32\n"),
    (["verify", "--weights", "3..3"], None, "32",
     "error: DZV_PRECISION: expected 64 to 2^20 = 1048576 bits, got 32\n"),
], ids=["verify-flag-low", "config-key-absurd", "dzeta-p-low", "env-low"])
def test_out_of_range_precision_names_the_option(tmp_path, monkeypatch, capsys, argv, config,
                                                 env, line):
    """An out-of-range precision reads as a malformed one does: one line that
    names the option or variable once and states the range and the value,
    and exit 2."""
    if env is None:
        monkeypatch.delenv("DZV_PRECISION", raising=False)
    else:
        monkeypatch.setenv("DZV_PRECISION", env)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line)


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suites": "sum-formula", "weights": "3..4",
        "precision": 96, "tol": "1e-20", "format": "json",
    }))
    out = tmp_path / "r.json"
    # --precision on the command line must beat the config file
    proc = _run("verify", "--config", str(cfg), "--precision", "128",
                "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data[0]["config"]["precision_bits"] == 128
    assert data[0]["config"]["tolerance_exponent"] == 20
    assert data[0]["config"]["weight_min"] == 3
    assert data[0]["config"]["weight_max"] == 4


@pytest.mark.parametrize("config, flags, code", [
    ({"precison": 512}, [], 2),
    ("3..30", [], 2),
    ([1, 2], [], 2),
    ({"suites": 5}, [], 2),
    ({"precision": 64.7}, [], 2),
    ({"format": 5}, [], 2),
    (None, ["--tol", "1e--3"], 2),
    (None, ["--tol", "0.001"], 2),
    (None, ["--suites", ","], 2),
    ({"suites": []}, [], 2),
    ({"suites": " , "}, [], 2),
    (None, ["--out", ""], 2),
    ({"out": ""}, [], 2),
    # a repeated suite would run, and print, twice
    (None, ["--suites", "theorem1,theorem1"], 2),
    ({"suites": ["eq26", "eq26"]}, [], 2),
    # int() would read these as 192, 3 and 10: only ASCII digits are integers
    (None, ["--precision", "1_92"], 2),
    ({"precision": "1_92"}, [], 2),
    (None, ["--weights", "\u0663..\u0663"], 2),
    (None, ["--tol", "1e-1_0"], 2),
    # past 2^20 bits in decimal digits, and past the digits int() reads
    (None, ["--suites", "theorem1", "--tol", "1e-315654"], 2),
    (None, ["--suites", "theorem1", "--tol", "1e-" + "9" * 5000], 2),
    # 10^5000 has more digits than int-to-str conversion allows by default
    (None, ["--suites", "theorem1", "--tol", "1e-5000", "--format", "json"], 0),
], ids=["misspelled-key", "string-file", "list-file", "suites-int", "precision-float",
        "format-int", "tol-negative-exponent", "tol-not-1e-form", "suites-flag-empty",
        "suites-list-empty", "suites-string-empty",
        "out-flag-empty", "out-key-empty", "suites-flag-twice", "suites-file-twice",
        "precision-flag-underscore", "precision-key-underscore", "weights-flag-arabic-indic",
        "tol-underscore", "tol-past-the-precision-cap", "tol-5000-digit-exponent",
        "tol-5000-digits"])
def test_verify_input_contract(tmp_path, capsys, config, flags, code):
    # bad input is exit 2 with one error line, never a default or a traceback
    argv = ["verify", "--weights", "3..3", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
    else:
        assert json.loads(out)[0]["checks"][0]["tolerance"] == "1e-5000"


@pytest.mark.parametrize("text", [None, "{"], ids=["missing-file", "not-json"])
def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["verify", "--weights", "3..3", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: config file: ") and err.count("\n") == 1 and out == ""


def test_config_values_read_as_the_flags_do(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["theorem1"], "weights": 3, "precision": "96",
                               "tol": "1e-20", "format": "json", "out": None}))
    assert main(["verify", "--config", str(cfg)]) == 0
    echo = json.loads(capsys.readouterr().out)[0]["config"]
    assert echo["suites"] == ["theorem1"]
    assert (echo["weight_min"], echo["weight_max"], echo["precision_bits"]) == (3, 3, 96)


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--suites", "theorem1", "--weights", "3..3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


class _FullDiskWriter(io.StringIO):
    """A report file whose `fails` step raises ENOSPC, as on a full disk, from
    its `nth` call on; like a real file it counts as closed after a failed close."""

    def __init__(self, fails, nth=1):
        super().__init__()
        self.fails, self.nth, self.calls = fails, nth, 0

    def _step(self, name):
        if name == self.fails:
            self.calls += 1
            if self.calls >= self.nth:
                raise OSError(28, "No space left on device")

    def write(self, text):
        self._step("write")
        return super().write(text)

    def flush(self):
        self._step("flush")

    def close(self):
        if not self.closed:
            super().close()
            self._step("close")


@pytest.mark.parametrize("fails", ["write", "flush", "close"])
def test_unwritable_report_is_a_usage_error(monkeypatch, capsys, fails):
    from dzv import cli as cli_mod

    writer = _FullDiskWriter(fails)
    monkeypatch.setattr(cli_mod, "open", lambda *args, **kwargs: writer, raising=False)
    assert main(["verify", "--suites", "theorem1", "--weights", "3..3", "--out", "r.json"]) == 2
    assert capsys.readouterr().err == "error: cannot write the report: [Errno 28] No space left on device\n"
    assert writer.closed


def test_unwritable_stdout_is_a_usage_error_and_stays_open(monkeypatch, capsys):
    writer = _FullDiskWriter("flush")
    monkeypatch.setattr(sys, "stdout", writer)
    assert main(["verify", "--suites", "theorem1", "--weights", "3..3"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the report: ")
    assert not writer.closed


# theorem1 3..3 as JSON is three pieces: the frame head, one chunk of records,
# and the suite's closing lines through the final newline
_ONE_RECORD_JSON = ["verify", "--suites", "theorem1", "--weights", "3..3", "--format", "json"]


@pytest.mark.parametrize("nth", [2, 3])
def test_report_failing_after_its_first_piece_is_a_usage_error(monkeypatch, capsys, nth):
    from dzv import cli as cli_mod

    writer = _FullDiskWriter("write", nth)
    monkeypatch.setattr(cli_mod, "open", lambda *args, **kwargs: writer, raising=False)
    assert main([*_ONE_RECORD_JSON, "--out", "r.json"]) == 2
    assert capsys.readouterr().err == "error: cannot write the report: [Errno 28] No space left on device\n"
    assert writer.calls == nth and writer.closed


@pytest.mark.parametrize("nth", [2, 3])
def test_stdout_failing_after_the_first_piece_is_a_usage_error_and_stays_open(
        monkeypatch, capsys, nth):
    writer = _FullDiskWriter("write", nth)
    monkeypatch.setattr(sys, "stdout", writer)
    assert main(_ONE_RECORD_JSON) == 2
    assert capsys.readouterr().err == "error: cannot write the report: [Errno 28] No space left on device\n"
    assert writer.calls == nth and not writer.closed


class _RecordingWriter(io.StringIO):
    """A report file that keeps each text written to it, past its close."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("suites,weights,chunk", [
    ("euler-bernoulli,ramanujan,corollary2-chain", "4..200", None),
    ("theorem1,euler-bernoulli,ramanujan,corollary2-chain", "3..12", 4),
], ids=["bernoulli-4-200", "theorem1-bernoulli-3-12-chunk-4"])
def test_json_report_is_written_a_chunk_of_records_at_a_time(monkeypatch, suites, weights, chunk):
    """The report file receives render_json's text of the same run, in more
    than one write, and no write holds more than one chunk of records.  The
    real chunk splits 197, 263 and 197 records; a chunk of 4 splits every
    suite of the second line, ramanujan's 12 records exactly."""
    from dzv import cli as cli_mod

    chunk = chunk or cli_mod._CHUNK
    monkeypatch.setattr(cli_mod, "_CHUNK", chunk)
    writer, runs = _RecordingWriter(), []
    monkeypatch.setattr(cli_mod, "open", lambda *args, **kwargs: writer, raising=False)
    run = cli_mod.cmd_verify
    monkeypatch.setattr(cli_mod, "cmd_verify", lambda config: runs.append(run(config)) or runs[-1])
    argv = ["verify", "--suites", suites, "--weights", weights, "--format", "json", "--out", "r.json"]
    assert main(argv) == 0
    text = "".join(writer.writes)
    assert text == render_json(runs[0][0])
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    assert len(writer.writes) > 1
    assert max(w.count('"label": ') for w in writer.writes) == chunk
    assert writer.closed


_AWKWARD = 'a "quote", a \\ backslash,\na newline, a \ttab, \x01, \u00e9 and \u00b1'


def test_json_writer_escapes_strings_as_json_dumps_does():
    """Records written a field at a time, with strings that need escaping in
    a label, a skip reason and an error, and a suite with no record, lay out
    as json.dumps(indent=2) of the to_dict()s.
    The output path holds the checks key's line as its text, which the frame
    must not split on; a float weight, as a hand-edited report read back by
    from_dict may hold, is written as json.dumps writes it."""
    config = RunConfig(weight_min=4, weight_max=6, suites=("harmonic",),
                       output_path='r\n    "checks": [] ' + _AWKWARD)
    checks = [
        CheckRecord("euler-bernoulli[l=4]", 4, "-1/30", "-1/30", "0", "0", True, True),
        CheckRecord("harmonic[2,2]", 4, "1.0823", "1.0823", "-0.0000", "1.1e-57", False, True,
                    "1e-40"),
        CheckRecord("harmonic[l=5]", 5, "", "", "", "", False, True, skipped_reason=_AWKWARD),
        CheckRecord("harmonic[l=6]", 6, "", "", "", "", False, False, error=_AWKWARD),
        CheckRecord("harmonic[3,3] " + _AWKWARD, 6.0, "1.0", "1.0", "0.0", "1.0e-50", False, True,
                    "1e-40"),
    ]
    reports = [SuiteReport("harmonic", config, checks, 4, 1, 0.25),
               SuiteReport(_AWKWARD, config, [], 0, 0, 1e-05)]
    assert render_json(reports) == json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("argv", [["bernoulli", "30"], ["dzeta", "3", "2"]],
                         ids=["bernoulli", "dzeta"])
def test_unwritable_stdout_for_a_value_is_a_usage_error(monkeypatch, capsys, argv, fails):
    """``dzv bernoulli`` and ``dzv dzeta`` on a full disk exit 2 with one
    error line, like ``verify``; exit 1 would mean a failed check."""
    writer = _FullDiskWriter(fails)
    monkeypatch.setattr(sys, "stdout", writer)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write the value: [Errno 28] No space left on device\n"
    assert not writer.closed


_UNWRITABLE_STDOUT = [(["bernoulli", "30"], "the value"), (["dzeta", "3", "2"], "the value"),
                      (["verify", "--suites", "theorem1", "--weights", "3..3"], "the report")]


def _run_into(stdout, argv):
    """Run the CLI in its own process with buffered stdout (PYTHONUNBUFFERED
    unset), so the bytes of a failed flush are still buffered at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "dzv.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,what", _UNWRITABLE_STDOUT, ids=["bernoulli", "dzeta", "verify"])
def test_full_disk_stdout_exits_two_at_interpreter_exit(argv, what):
    """The interpreter's own flush at exit must not fail a second time: that
    prints 'Exception ignored' and turns exit 2 into 120."""
    with open("/dev/full", "w") as full:
        proc = _run_into(full, argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {what}: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv,what", _UNWRITABLE_STDOUT, ids=["bernoulli", "dzeta", "verify"])
def test_closed_pipe_stdout_exits_two_at_interpreter_exit(argv, what):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_into(write_end, argv)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {what}: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, patched", [
    (["verify", "--suites", "eq26", "--weights", "30..30", "--precision", "1048576"],
     "cmd_verify"),
    (["dzeta", "16", "14", "-p", "1048576"], "double_zeta"),
], ids=["verify", "dzeta"])
def test_out_of_memory_is_one_error_line_and_exit_two(monkeypatch, capsys, tmp_path, argv,
                                                      patched):
    """A run that fills the memory, as 2^20 bits does on a small machine,
    exits 2 with one line that names the precision, not 1 (a failed check)
    with a traceback; the error is raised here, so nothing is allocated."""
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(cli_mod, patched, out_of_memory)
    monkeypatch.delenv("DZV_PRECISION", raising=False)
    if argv[0] == "verify":
        argv = argv + ["--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == "error: out of memory at a precision of 1048576 bits\n"


@pytest.mark.parametrize("error", [MemoryError, DomainError("bad input")],
                         ids=["out-of-memory", "domain-error"])
@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-path"])
def test_a_failed_run_leaves_the_report_file_as_it_was(monkeypatch, capsys, tmp_path, error,
                                                        existing):
    """The --out file is opened only once the run is over: a run that ends in
    exit 2 leaves an existing file's bytes as they were and creates no new one."""
    def fail(config):
        raise error
    monkeypatch.setattr(cli_mod, "cmd_verify", fail)
    out = tmp_path / "report.json"
    if existing:
        out.write_bytes(b"old")
    assert main(["verify", "--suites", "theorem1", "--weights", "3..3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (out.read_bytes() == b"old") if existing else not out.exists()


def test_main_return_paths():
    assert main(["bernoulli", "30"]) == 0
    assert main(["verify", "--suites", "nosuch", "--weights", "3..3"]) == 2


def test_failing_check_exits_one(tmp_path):
    # 96-bit radii (~1e-30) cannot certify a 1e-40 tolerance: honest failure
    out = tmp_path / "r.json"
    proc = _run("verify", "--suites", "sum-formula", "--weights", "3..3",
                "--precision", "96", "--tol", "1e-40", "--format", "json",
                "--out", str(out))
    assert proc.returncode == 1
    data = json.loads(out.read_text())
    assert data[0]["failed_count"] == 1
    assert data[0]["checks"][0]["passed"] is False


def test_precision_unreachable_recorded_as_error(monkeypatch):
    from dzv import cli as cli_mod
    from dzv.numerics import PrecisionUnreachableError

    def exploding(l, ctx):
        raise PrecisionUnreachableError("synthetic escalation cap")

    monkeypatch.setitem(cli_mod._SUITES, "sum-formula", exploding)
    config = RunConfig(precision_bits=96, tolerance_exponent=20,
                       weight_min=3, weight_max=3, suites=("sum-formula",),
                       output_format="json")
    reports, code = cmd_verify(config)
    assert code == 1
    rec = reports[0].checks[0]
    assert rec.error == "synthetic escalation cap"
    assert rec.passed is False


def test_precision_unreachable_prints_an_err_line(monkeypatch, capsys):
    from dzv.numerics import PrecisionUnreachableError

    def exploding(l, ctx):
        raise PrecisionUnreachableError("synthetic escalation cap")

    monkeypatch.setitem(cli_mod._SUITES, "theorem1", exploding)
    assert main(["verify", "--suites", "theorem1", "--weights", "3..3", "--format", "text"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["  [ERR ] theorem1[l=3]: synthetic escalation cap"]
    assert err == ""


# ---------------------------------------------------------------------------
# weight hypotheses: each check decides its own, the report records it
# ---------------------------------------------------------------------------

def test_skips_agree_with_the_hypothesis_oracle():
    """For every suite and weight -2..60, a weight is recorded as one skip
    exactly when the oracle predicate says the suite states nothing there,
    with the oracle's reason; every other weight gets its check's rows."""
    reports, _ = cmd_verify(RunConfig(precision_bits=64, tolerance_exponent=3, weight_min=-2,
                                      weight_max=60, suites=SUITE_NAMES))
    assert [r.suite for r in reports] == list(SUITE_NAMES) == list(SUITE_HYPOTHESES)
    for r in reports:
        for l in range(-2, 61):
            rows = [c for c in r.checks if c.weight == l]
            reason = SUITE_HYPOTHESES[r.suite](l)
            if reason is None:
                assert rows and all(c.skipped_reason is None for c in rows), (r.suite, l)
            else:
                assert [(c.skipped_reason, c.passed) for c in rows] == [(reason, True)], (r.suite, l)


# one weight outside each suite's hypothesis, at or above 3 where one exists
_OUTSIDE = {"sum-formula": 2, "weighted-sum": 2, "harmonic": 3, "gkz-parity": 5,
            "theorem1": 1, "corollary1": 7, "prop1": 0, "lemma1": 2, "eq26": -1,
            "euler-bernoulli": 9, "ramanujan": 10, "corollary2-chain": 11}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_check_raises_its_hypothesis_before_any_table(suite):
    """The check itself raises OutsideHypothesis with the skip reason, before
    it asks for a table: no table memo miss is counted."""
    l = _OUTSIDE[suite]
    reason = SUITE_HYPOTHESES[suite](l)
    assert reason is not None
    misses = _table.cache_info().misses
    with pytest.raises(OutsideHypothesis) as exc:
        _SUITES[suite](l, PrecisionCtx(64))
    assert str(exc.value) == reason
    assert _table.cache_info().misses == misses


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("bad", [4.0, True, 8.0], ids=["4.0", "True", "8.0"])
def test_non_int_weight_is_bad_input_not_a_skip(suite, bad):
    """A weight that is not an int is refused as bad input, never recorded as
    a weight outside the hypothesis."""
    with pytest.raises(DomainError) as exc:
        _SUITES[suite](bad, PrecisionCtx(64))
    assert not isinstance(exc.value, OutsideHypothesis)
