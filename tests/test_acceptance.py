"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines live.

Weight sweeps share the process-level table and Hurwitz caches, so criteria
5 through 9 reuse the tables built by the first sweep.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from dzv.bernoulli import bernoulli, euler_identity_check, ramanujan_check
from dzv.cli import RunConfig, SuiteReport, cmd_verify
from dzv.dzeta import IndexPair, double_zeta, functional_eq26_sides, gen_poly_eval, get_table
from dzv.identities import (
    corollary1_check,
    corollary2_exact_chain,
    gkz_parity_check,
    lemma1_check,
    prop1_check,
    restricted_sum,
    theorem1_check,
)
from dzv.numerics import (
    GUARD_BITS,
    PiPolynomial,
    PrecisionCtx,
    RealBall,
    ball_sum,
    pipoly_eval,
)
from dzv.zeta import hurwitz_zeta, zeta_even_exact, zeta_numeric

from oracles import (
    brute_double_zeta,
    contains_ball,
    contains_fraction,
    contains_zero,
    same_enclosure,
)

_CTX = PrecisionCtx(192, Fraction(1, 10**40))


def _report(n: int, ok: bool, text: str, elapsed: float = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {n:2d}: {status} - {text}{timing}", flush=True)
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_01_euler_identity_to_400():
    start = time.monotonic()
    ok = all(euler_identity_check(l).passed for l in range(4, 401, 2))
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 10,
            "exact Euler convolution identity, even 4 <= l <= 400", elapsed)


def test_criterion_02_ramanujan_identities_to_398():
    start = time.monotonic()
    ok = True
    for l in range(8, 399, 6):
        ok = ok and all(v.passed for v in ramanujan_check(l))
    elapsed = time.monotonic() - start
    _report(2, ok and elapsed < 10,
            "exact gap-6 identities, m in {0,2,4}, l = 2 (mod 6), 8 <= l <= 398",
            elapsed)


def test_criterion_03_corollary2_chain_to_200():
    start = time.monotonic()
    ok = True
    for l in range(8, 201, 6):
        r = corollary2_exact_chain(l, _CTX)
        ok = ok and r.passed and r.exact
    elapsed = time.monotonic() - start
    _report(3, ok and elapsed < 30,
            "exact chain incl. pair count and pi-power identity, 8 <= l <= 200",
            elapsed)


def test_criterion_04_spot_value_weight8():
    start = time.monotonic()
    dz44 = get_table(8, _CTX).entry(4, 4)
    # pi^8/113400 evaluated far tighter than the double-zeta ball, so point
    # membership follows from enclosure containment
    point = pipoly_eval(PiPolynomial.single(8, zeta_even_exact(8) / 12), PrecisionCtx(320))
    contains = contains_ball(dz44, point)
    r = corollary1_check(8, _CTX)
    radius_ok = r.residual.radius_fraction() <= Fraction(1, 10**40)
    elapsed = time.monotonic() - start
    _report(4, contains and r.passed and radius_ok and elapsed < 5,
            "zeta(4,4) contains pi^8/113400; corollary1(l=8) residual radius <= 1e-40",
            elapsed)


def test_criterion_05_theorem1_sweep_3_to_30():
    start = time.monotonic()
    ok = all(theorem1_check(l, _CTX).passed for l in range(3, 31))
    elapsed = time.monotonic() - start
    _report(5, ok and elapsed < 600,
            "theorem1 sweep, 3 <= l <= 30 at 192 bits, tolerance 1e-40", elapsed)


def test_criterion_06_corollary1_sweep_even_4_to_30():
    start = time.monotonic()
    ok = all(corollary1_check(l, _CTX).passed for l in range(4, 31, 2))
    elapsed = time.monotonic() - start
    _report(6, ok, "corollary1 sweep, even 4 <= l <= 30", elapsed)


def test_criterion_07_gkz_parity_even_4_to_30():
    start = time.monotonic()
    ok = True
    for l in range(4, 31, 2):
        even_r, odd_r = gkz_parity_check(l, _CTX)
        ok = ok and even_r.passed and odd_r.passed
        if l == 4:
            ok = ok and even_r.exact and odd_r.exact
    # the weight-4 exact statement in rational pi^4 coefficients
    z4 = zeta_even_exact(4)
    dz22 = (zeta_even_exact(2) * zeta_even_exact(2) - z4) * Fraction(1, 2)
    ok = ok and dz22 == z4 * Fraction(3, 4) and (z4 - dz22) == z4 * Fraction(1, 4)
    elapsed = time.monotonic() - start
    _report(7, ok, "parity formulas, even 4 <= l <= 30, exact at l = 4", elapsed)


def test_criterion_08_prop1_and_lemma1_3_to_20():
    start = time.monotonic()
    ok = True
    for l in range(3, 21):
        ok = ok and prop1_check(l, _CTX).passed
        reports = lemma1_check(l, _CTX)
        ok = ok and len(reports) == 5 and all(r.passed for r in reports)
        # equation 5 against the exact integer part
        eq5 = reports[4]
        expected = zeta_numeric(l, _CTX).mul_int(3 * ((l + 1) // 3))
        ok = ok and same_enclosure(eq5.rhs, expected) and eq5.lhs.intersects(eq5.rhs)
    elapsed = time.monotonic() - start
    _report(8, ok, "prop1 and all five lemma1 equations, 3 <= l <= 20", elapsed)


def test_criterion_09_functional_equation_sweep():
    import random
    start = time.monotonic()
    wp = 240
    ok = True
    for l in range(3, 17):
        rng = random.Random(2600 + l)
        pts = []
        while len(pts) < 20:
            x = Fraction(rng.randint(-16, 16), 8)
            y = Fraction(rng.randint(-16, 16), 8)
            pts.append((x, y))
        for x, y in pts:
            lhs, rhs = functional_eq26_sides(l, x, y, _CTX)
            res = lhs.sub(rhs, _CTX.working_precision + GUARD_BITS)
            ok = ok and (abs(res.midpoint_fraction()) + res.radius_fraction()
                         <= _CTX.target_tolerance)
        # the (1,1) specialization is the weighted sum formula
        t21 = gen_poly_eval(get_table(l, _CTX), 2, 1)
        rhs = zeta_numeric(l, _CTX).mul(
            RealBall.from_fraction(Fraction(l + 1, 2), wp), wp)
        diff = t21.sub(rhs, wp)
        ok = ok and abs(diff.midpoint_fraction()) + diff.radius_fraction() \
            <= _CTX.target_tolerance
    elapsed = time.monotonic() - start
    _report(9, ok, "functional equation at 20 rational points per weight, 3 <= l <= 16",
            elapsed)


def test_criterion_10_oracle_equivalence_weight_le_8():
    start = time.monotonic()
    ctx64 = PrecisionCtx(64, Fraction(1, 10**10))
    ok = True
    for w in range(3, 9):
        for l1 in range(2, w):
            fast = double_zeta(IndexPair(l1, w - l1), ctx64)
            brute = brute_double_zeta(l1, w - l1, 4000, 96)
            ok = ok and fast.intersects(brute)
    elapsed = time.monotonic() - start
    _report(10, ok and elapsed < 60,
            "accelerated evaluator vs literal truncated double sum, weight <= 8",
            elapsed)


def test_criterion_11_property_suites():
    start = time.monotonic()
    ok = True

    # ball inclusion monotonicity (spot form; the full property tests live in
    # test_numerics.py and run in the same session)
    a = RealBall.from_fraction(Fraction(3, 7), 96).add_error(Fraction(1, 50))
    b = RealBall.from_fraction(Fraction(-5, 3), 96).add_error(Fraction(1, 40))
    pt_a, pt_b = Fraction(3, 7) + Fraction(1, 100), Fraction(-5, 3) - Fraction(1, 80)
    ok = ok and contains_fraction(a.mul(b, 96), pt_a * pt_b)
    ok = ok and contains_fraction(a.add(b, 96), pt_a + pt_b)

    # Hurwitz recurrence exactness
    rec = hurwitz_zeta(3, 2, _CTX).sub(hurwitz_zeta(3, 3, _CTX), 240)
    rec = rec.sub(RealBall.from_fraction(Fraction(1, 8), 240), 240)
    ok = ok and contains_zero(rec) and rec.radius_fraction() < Fraction(1, 2**180)

    # class partition completeness at weight 12: every pair is counted once,
    # and the six unit-class sums add up to the table sum
    t = get_table(12, _CTX)
    wp = t.precision + GUARD_BITS
    entries = [t.entry(p.l1, p.l2) for p in t.pairs()]
    ok = ok and same_enclosure(restricted_sum(t, (1,) * 6), ball_sum(entries, wp))
    units = [tuple(int(i == r) for i in range(6)) for r in range(6)]
    total = ball_sum((restricted_sum(t, u) for u in units), 300)
    ok = ok and total.intersects(ball_sum(entries, 300))

    # reflection symmetry of the Bernoulli convolutions
    from math import comb
    l, r = 16, 3

    def restricted(res):
        return sum((Fraction(comb(l, j)) * bernoulli(j) * bernoulli(l - j)
                    for j in range(l + 1) if j % 6 == res), Fraction(0))
    ok = ok and restricted(r) == restricted((l - r) % 6)

    # report round-trip
    config = RunConfig(precision_bits=96, tolerance_exponent=20, weight_min=8,
                       weight_max=8, suites=("ramanujan",), output_format="json")
    reports, code = cmd_verify(config)
    ok = ok and code == 0
    for rep in reports:
        d = rep.to_dict()
        ok = ok and SuiteReport.from_dict(json.loads(json.dumps(d))).to_dict() == d

    # exit-code contract end to end
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "dzv.cli", *argv],
                              capture_output=True, text=True).returncode
    ok = ok and run("bernoulli", "8") == 0
    ok = ok and run("verify", "--suites", "nosuch") == 2
    ok = ok and run("verify", "--suites", "ramanujan", "--weights", "8..8",
                    "--precision", "96", "--tol", "1e-20") == 0

    elapsed = time.monotonic() - start
    _report(11, ok, "property suites: inclusion, recurrence, partition, "
                    "reflection, round-trip, exit codes", elapsed)
