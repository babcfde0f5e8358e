"""Workload definitions and the output checks shared by the harness and its
worker processes.

Every workload pins its precision explicitly: dzv falls back to 192 bits
without a warning when ``DZV_PRECISION`` holds a bad value, so workers get an
explicit ``--precision`` and an environment without ``DZV_PRECISION``.
``warm-checks`` uses one ``RunConfig`` (so one precision and one tolerance)
for its set-up and every pass, because a cached table keeps the tolerance of
the caller that built it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Suites whose checks read the per-weight tables.
TABLE_SUITES = ("sum-formula", "weighted-sum", "harmonic", "gkz-parity", "theorem1",
                "corollary1", "prop1", "lemma1", "eq26")


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    weights: tuple  # inclusive (min, max)
    precision: int
    tol_exponent: int
    records: int  # check records one verify run must produce, skips included
    skipped: int
    warm: bool = False  # set up once in a process, then time repeated passes
    tables: bool = True  # the run builds weight tables the spot values can read

    def cli_args(self) -> list:
        lo, hi = self.weights
        return ["verify", "--suites", ",".join(self.suites), "--weights", f"{lo}..{hi}",
                "--precision", str(self.precision), "--tol", f"1e-{self.tol_exponent}",
                "--format", "json", "--jobs", "1"]

    def run_config(self):
        from dzv.cli import RunConfig
        return RunConfig(precision_bits=self.precision, tolerance_exponent=self.tol_exponent,
                         weight_min=self.weights[0], weight_max=self.weights[1],
                         suites=self.suites, output_format="json", parallelism=1)


WORKLOADS = {w.name: w for w in (
    Workload("tables-192", ("theorem1", "corollary1", "gkz-parity"), (3, 30), 192, 40,
             records=98, skipped=28),
    # by hand only: its median moved more than the bound between two sets of runs
    Workload("tables-512", ("sum-formula", "weighted-sum", "harmonic"), (3, 6), 512, 120,
             records=13, skipped=1),
    Workload("exact-bernoulli", ("euler-bernoulli", "ramanujan", "corollary2-chain"), (4, 800),
             192, 40, records=2657, skipped=1726, tables=False),
    Workload("warm-checks", TABLE_SUITES, (3, 20), 192, 40,
             records=379, skipped=19, warm=True),
)}

# Rational points of the functional equation (eq. 26) drawn per warm pass:
# one point per weight of the warm range, x and y in [-2, 2] with denominator 8.
EQ26_DENOMINATOR = 8


def eq26_points(seed: int, weights: tuple) -> list:
    import random
    rng = random.Random(seed)
    return [(l, Fraction(rng.randint(-16, 16), EQ26_DENOMINATOR),
             Fraction(rng.randint(-16, 16), EQ26_DENOMINATOR))
            for l in range(weights[0], weights[1] + 1)]


# ---------------------------------------------------------------------------
# reading a JSON report
# ---------------------------------------------------------------------------

def _abs_decimal(s: str) -> Fraction:
    """|x| of a CLI decimal string; a complex "a + bi" gives max(|a|, |b|)."""
    s = s.strip()
    if s.endswith("i") and " + " in s:
        re, im = s[:-1].split(" + ")
        return max(abs(Fraction(re)), abs(Fraction(im)))
    return abs(Fraction(s))


def margin_digits(record: dict) -> Optional[float]:
    """log10(tol / (|residual mid| + residual radius)) of a numeric record, from
    its decimal strings; None for exact, skipped or errored records and for a
    residual that is exactly zero."""
    if record.get("exact") or "tolerance" not in record or record.get("skipped_reason") \
            or record.get("error"):
        return None
    bound = _abs_decimal(record["residual_midpoint"]) + Fraction(record["residual_radius"])
    if bound == 0:
        return None
    tol = Fraction(record["tolerance"])
    return (math.log10(tol.numerator) - math.log10(tol.denominator)
            - math.log10(bound.numerator) + math.log10(bound.denominator))


@dataclass
class ReportSummary:
    records: int
    attempted: int
    skipped: int
    failed: int
    min_margin_digits: Optional[float]


def summarize_report(reports: list) -> ReportSummary:
    checks = [c for r in reports for c in r["checks"]]
    skipped = sum(1 for c in checks if c.get("skipped_reason") is not None)
    failed = sum(1 for c in checks if not c["passed"] or c.get("error") is not None)
    margins = [m for m in map(margin_digits, checks) if m is not None]
    return ReportSummary(len(checks), len(checks) - skipped, skipped, failed,
                         min(margins) if margins else None)


def output_problems(w: Workload, exit_code: int, s: ReportSummary) -> list:
    """Reasons the run's output is not accepted; empty when it is."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if (s.records, s.skipped) != (w.records, w.skipped):
        problems.append(f"{s.records} records ({s.skipped} skipped), expected "
                        f"{w.records} ({w.skipped} skipped)")
    if s.failed:
        problems.append(f"{s.failed} checks failed or errored")
    return problems


# ---------------------------------------------------------------------------
# independent spot values
# ---------------------------------------------------------------------------

def table_spot_problems(precision: int) -> list:
    """Euler's zeta(2,1) = zeta(3), zeta(3,1) = pi^4/360 and zeta(2,2) = pi^4/120,
    read from the tables already cached in this process at ``precision``."""
    from dzv import PiPolynomial, PrecisionCtx, get_table, pipoly_eval, zeta_numeric
    ctx = PrecisionCtx(precision)
    t3, t4 = get_table(3, ctx), get_table(4, ctx)
    spots = [
        ("zeta(2,1) = zeta(3)", t3.entry(2, 1), zeta_numeric(3, ctx)),
        ("zeta(3,1) = pi^4/360", t4.entry(3, 1),
         pipoly_eval(PiPolynomial.single(4, Fraction(1, 360)), ctx)),
        ("zeta(2,2) = pi^4/120", t4.entry(2, 2),
         pipoly_eval(PiPolynomial.single(4, Fraction(1, 120)), ctx)),
    ]
    return [f"spot value {name} does not intersect" for name, a, b in spots
            if not a.intersects(b)]


def _primes_upto(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n + 1) if sieve[p]]


def bernoulli_spot_problems(reports: list) -> list:
    """Checks B_l read back from the euler-bernoulli records (rhs = -(l-1) B_l)
    against B_12 = -691/2730 and, at the top weight, against the von
    Staudt-Clausen denominator and the sign (-1)^(l/2+1)."""
    rhs = {c["weight"]: Fraction(c["rhs"]) for r in reports if r["suite"] == "euler-bernoulli"
           for c in r["checks"] if c.get("skipped_reason") is None}
    if 12 not in rhs:
        return ["euler-bernoulli records missing"]
    problems = []
    if -rhs[12] / 11 != Fraction(-691, 2730):
        problems.append("B_12 read from the report is not -691/2730")
    top = max(rhs)
    b_top = -rhs[top] / (top - 1)
    den = math.prod(p for p in _primes_upto(top + 1) if top % (p - 1) == 0)
    if b_top.denominator != den:
        problems.append(f"B_{top} denominator is not the von Staudt-Clausen {den}")
    if (b_top > 0) != (top // 2 % 2 == 1):
        problems.append(f"B_{top} has the wrong sign")
    return problems
