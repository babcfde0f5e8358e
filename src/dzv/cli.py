"""Command-line front end: compute values, run verification suites over
weight ranges, and emit machine-readable reports.

Each `verify` option is one entry of `_OPTIONS`: the flag and the config-file
key share its name and its parser, and a config file must be a JSON object
whose keys are all in that table.

Exit codes: 0 all checks passed (skips allowed), 1 only when a check failed
or errored, 2 bad input (a flag, a config file or key, DZV_PRECISION, the
output path) or a report or value that cannot be written, reported as one
`error:` line.  A printed ball shows the digits that both of its ends share when
truncated, or, when their integer parts already differ, an integer inside
the ball; "0" only when it holds 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence, Tuple

from .bernoulli import bernoulli, euler_identity_check, ramanujan_check
from .dzeta import IndexPair, double_zeta
from .dzeta import get_table  # noqa: F401  perfbench's tracer patches dzv.cli.get_table
from .identities import (
    corollary1_check,
    corollary2_exact_chain,
    eq26_check,
    gkz_parity_check,
    harmonic_check,
    lemma1_check,
    prop1_check,
    sum_formula_check,
    theorem1_check,
    weighted_sum_check,
)
from .numerics import (
    CheckReport,
    DomainError,
    OutsideHypothesis,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    require_exact,
    require_precision,
    _decimal_str,
    _dy_ratio,
    _pow10,
    _radius_decimal,
    _radius_digits,
    _sci,
)

__all__ = ["RunConfig", "SuiteReport", "CheckRecord", "cmd_verify", "main", "SUITE_NAMES"]

_ENV_PRECISION = "DZV_PRECISION"
_DEFAULT_PRECISION = 192
_DEFAULT_TOL_EXP = 40


# ---------------------------------------------------------------------------
# configuration and serializable reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = _DEFAULT_PRECISION
    tolerance_exponent: int = _DEFAULT_TOL_EXP
    weight_min: int = 3
    weight_max: int = 12
    suites: tuple = ()
    output_format: str = "text"
    output_path: Optional[str] = None
    parallelism: int = 1

    def __post_init__(self):
        # a list of names, as a JSON report reads back, makes an equal config;
        # a string would be read as its letters
        if not isinstance(self.suites, (list, tuple)):
            raise DomainError(f"suites must be a list of suite names, got {self.suites!r}")
        object.__setattr__(self, "suites", tuple(self.suites))
        for name in ("weight_min", "weight_max", "tolerance_exponent", "parallelism"):
            require_exact(getattr(self, name), name, (int,))
        if self.weight_min > self.weight_max:
            raise DomainError("weight_min must not exceed weight_max")
        if self.tolerance_exponent < 0:
            raise DomainError(f"tolerance must be 1e-N with N >= 0, got N = {self.tolerance_exponent}")
        self.ctx()  # PrecisionCtx checks the precision
        if not isinstance(self.output_format, str) or self.output_format not in _RENDERERS:
            raise DomainError(f"unknown output format {self.output_format!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise DomainError(f"output_path must be a str or None, got {self.output_path!r}")
        if self.parallelism != 1:
            raise DomainError("parallelism must be 1 (runs are single-threaded)")
        for i, s in enumerate(self.suites):
            if s not in SUITE_NAMES:
                raise DomainError(f"unknown suite {s!r}")
            if s in self.suites[:i]:
                raise DomainError(f"suite {s!r} is named twice")

    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(self.precision_bits,
                            Fraction(1, 10 ** self.tolerance_exponent))


class CheckRecord(NamedTuple):
    """One row of a report: a serialized CheckReport, or a skipped or errored
    weight.  Ball sides are certified decimal strings, exact sides rationals;
    a NamedTuple, like CheckReport."""

    label: str
    weight: int
    lhs: str
    rhs: str
    residual_midpoint: str
    residual_radius: str
    exact: bool
    passed: bool
    tolerance: Optional[str] = None
    skipped_reason: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        """The fields; the optional ones only when set."""
        return {k: v for k, v in zip(self._fields, self) if v is not None}


@dataclass
class SuiteReport:
    suite: str
    config: RunConfig
    checks: list
    passed_count: int
    failed_count: int
    wall_time: float

    def to_dict(self) -> dict:
        return dict(vars(self), config=dict(vars(self.config)),
                    checks=[c.to_dict() for c in self.checks])

    @staticmethod
    def from_dict(d: dict) -> "SuiteReport":
        return SuiteReport(**dict(d, config=RunConfig(**d["config"]),
                                  checks=[CheckRecord(**c) for c in d["checks"]]))


# ---------------------------------------------------------------------------
# decimal formatting of balls
# ---------------------------------------------------------------------------

def _decimal_truncate(m: int, e: int, digits: int) -> str:
    """Decimal expansion of m 2^e truncated toward zero at `digits` places;
    signed only when a printed digit is nonzero, never as -0.000..."""
    scaled = abs(m) * _pow10(digits)
    scaled = scaled << e if e >= 0 else scaled >> -e  # floor(|m 2^e| 10^digits)
    sign = "-" if m < 0 and scaled else ""
    s = _decimal_str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _shared_digits(a: int, b: int) -> Tuple[int, int]:
    """(h, j) for integers 0 <= a <= b: the least j with a // 10^j = b // 10^j,
    and h that quotient, the leading decimal digits a and b share."""
    diff = b - a
    if not diff:
        return b, 0
    j = len(_decimal_str(diff))  # 10^(j-1) <= diff < 10^j: no smaller j shares
    h, r = divmod(b, _pow10(j))
    if r >= diff:  # a = b - diff >= h 10^j
        return h, j
    # a // 10^j = h - 1, and h // 10^n = (h-1) // 10^n once 10^n does not divide h
    t = _decimal_str(h)
    n = len(t) - len(t.rstrip("0")) + 1
    return h // _pow10(n), j + n


def certified_decimal(ball: RealBall, max_digits: int) -> str:
    """The digits that the truncations of both ends of the ball at max_digits
    places share, cut at a digit and always written with a point, so shared
    digits that stop at the units print as "130." and a ball inside (-1, 1)
    whose ends differ in the first place as "0."; when the integer parts
    already differ, the integer nearest the midpoint (half to even, like
    round()), which lies in the ball since some integer does.  "0" exactly
    when the ball contains 0."""
    mm, me, rm, re = ball.dyadic()
    e = min(me, re)
    n, r = abs(mm) << (me - e), rm << (re - e)  # |mid| and rad at the unit 2^e
    if n <= r:
        return "0"
    # the ends' absolute values n - r <= n + r, truncated at max_digits places
    p = _pow10(max_digits)
    if e >= 0:
        p, e = p << e, 0
    lo, hi = (n - r) * p >> -e, (n + r) * p >> -e
    head, j = (hi, 0) if lo == hi else _shared_digits(lo, hi)
    if j > max_digits:  # the integer parts differ
        den = 1 << max(-me, 0)
        n, r = divmod(abs(mm) << max(me, 0), den)
        s = _decimal_str(n + (2 * r + (n & 1) > den))
    else:
        k = max_digits - j
        t = _decimal_str(head).rjust(k + 1, "0")
        ia, fa = t[:len(t) - k], t[len(t) - k:]
        s = f"{ia}.{fa}"
    return "-" + s if mm < 0 and s.strip("0.") else s


def _ball_str(b: RealBall, prec: int) -> str:
    return certified_decimal(b, max(8, int(prec * 0.301)))


def _fraction_str(q: Fraction) -> str:
    """str(q) for a rational of any size: "p" or "p/q"."""
    s = _decimal_str(q.numerator)
    return s if q.denominator == 1 else f"{s}/{_decimal_str(q.denominator)}"


def _record(r: CheckReport, config: RunConfig) -> CheckRecord:
    if r.tolerance is None:  # exact rational sides
        return CheckRecord(r.label, r.weight, _fraction_str(r.lhs), _fraction_str(r.rhs),
                           _fraction_str(r.residual), "0", r.exact, r.passed)
    mm, me, rm, re = r.residual.dyadic()
    if rm:
        # print the midpoint down to the radius's second significant digit,
        # 10^(e-1); truncating there moves it by less than 10^(e-1), which
        # one more unit in the radius's last digit covers
        m, e = _radius_digits(*_dy_ratio(rm, re))
        digits = max(1 - e, 0)
        rad_s = _sci(m + 1, e) if m < 99 else _sci(10, e + 1)
    else:
        digits, rad_s = 60, "0"
    prec = config.precision_bits
    return CheckRecord(r.label, r.weight, _ball_str(r.lhs, prec), _ball_str(r.rhs, prec),
                       _decimal_truncate(mm, me, digits), rad_s, r.exact, r.passed,
                       f"1e-{config.tolerance_exponent}")


def _blank_record(suite: str, weight: int, **outcome) -> CheckRecord:
    """A row without sides: a weight outside the suite's hypothesis, or one
    with a value whose radius missed its target."""
    return CheckRecord(label=f"{suite}[l={weight}]", weight=weight, lhs="", rhs="",
                       residual_midpoint="", residual_radius="", exact=False, **outcome)


# ---------------------------------------------------------------------------
# suite registry: name -> check (l, ctx); its OutsideHypothesis is a skip
# ---------------------------------------------------------------------------

_SUITES: dict = {
    "sum-formula": sum_formula_check,
    "weighted-sum": weighted_sum_check,
    "harmonic": harmonic_check,
    "gkz-parity": gkz_parity_check,
    "theorem1": theorem1_check,
    "corollary1": corollary1_check,
    "prop1": prop1_check,
    "lemma1": lemma1_check,
    "eq26": eq26_check,
    "euler-bernoulli": euler_identity_check,
    "ramanujan": ramanujan_check,
    "corollary2-chain": corollary2_exact_chain,
}

SUITE_NAMES = tuple(_SUITES)


def _run_suite_weight(suite: str, l: int, config: RunConfig, ctx: PrecisionCtx) -> list:
    try:
        reports = _SUITES[suite](l, ctx)
    except OutsideHypothesis as exc:
        return [_blank_record(suite, l, passed=True, skipped_reason=str(exc))]
    except PrecisionUnreachableError as exc:
        return [_blank_record(suite, l, passed=False, error=str(exc))]
    if isinstance(reports, CheckReport):
        reports = [reports]
    return [_record(r, config) for r in reports]


def cmd_verify(config: RunConfig) -> tuple:
    """Run the configured suites over the weight range.

    Returns (reports, exit_code): exit 0 iff every non-skipped check passed.
    """
    ctx = config.ctx()
    weights = range(config.weight_min, config.weight_max + 1)
    reports = []
    for suite in config.suites:
        start = time.monotonic()
        checks = [rec for l in weights for rec in _run_suite_weight(suite, l, config, ctx)]
        passed = sum(1 for c in checks if c.passed)
        reports.append(SuiteReport(suite=suite, config=config, checks=checks, passed_count=passed,
                                   failed_count=len(checks) - passed,
                                   wall_time=time.monotonic() - start))
    failed = sum(r.failed_count for r in reports)
    return reports, (1 if failed else 0)


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

_CHECKS = '\n    "checks": '
_CHUNK = 128  # records per piece: few writes, and no report-sized string
_KEYS = [f'\n        "{k}": ' for k in CheckRecord._fields]
# a record as json.dumps(indent=2) lays out its to_dict() in a checks list: the
# eight fields every record holds, then each optional one that is set
_RECORD = "{" + ",".join(k + "%s" for k in _KEYS[:8]) + "%s%s%s\n      }"
_OPTIONAL = [lambda v, k="," + k: "" if v is None else k + encode_basestring_ascii(v)
             for k in _KEYS[8:]]


def _records_json(checks: Sequence[CheckRecord]) -> str:
    """The records as the items of a checks list, a field at a time, each value
    as its field's type (a weight read back from an edited report: also a float)."""
    q, b = encode_basestring_ascii, {True: "true", False: "false"}.__getitem__
    label, weight, lhs, rhs, mid, rad, exact, passed, *optional = zip(*checks)
    return ",\n      ".join(map(_RECORD.__mod__, zip(
        map(q, label), weight, map(q, lhs), map(q, rhs), map(q, mid), map(q, rad),
        map(b, exact), map(b, passed), *map(map, _OPTIONAL, optional))))


def _json_pieces(reports: Sequence[SuiteReport]):
    """json.dumps(indent=2) of the reports, in pieces: the frame dumped with
    empty checks lists, and into it each suite's records, _CHUNK at a time.
    A raw newline occurs in no JSON string, so the checks key's line occurs
    nowhere else in the frame."""
    frames = [dict(vars(r), config=dict(vars(r.config)), checks=[]) for r in reports]
    head, *rests = (json.dumps(frames, indent=2) + "\n").split(_CHECKS + "[]")
    yield head
    for r, rest in zip(reports, rests):
        sep = _CHECKS + "[\n      "
        for i in range(0, len(r.checks), _CHUNK):
            yield sep + _records_json(r.checks[i:i + _CHUNK])
            sep = ",\n      "
        yield ("\n    ]" if r.checks else _CHECKS + "[]") + rest


def render_json(reports: Sequence[SuiteReport]) -> str:
    return "".join(_json_pieces(reports))


def render_csv(reports: Sequence[SuiteReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "label", "weight", "passed", "exact",
                     "residual_midpoint", "residual_radius"])
    for r in reports:
        for c in r.checks:
            writer.writerow([r.suite, c.label, c.weight, c.passed, c.exact,
                             c.residual_midpoint, c.residual_radius])
    return buf.getvalue()


def render_text(reports: Sequence[SuiteReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"suite {r.suite}: {r.passed_count} passed, "
                     f"{r.failed_count} failed ({r.wall_time:.2f}s)")
        for c in r.checks:
            if c.skipped_reason is not None:
                lines.append(f"  [SKIP] {c.label}: {c.skipped_reason}")
            elif c.error is not None:
                lines.append(f"  [ERR ] {c.label}: {c.error}")
            else:
                mark = "PASS" if c.passed else "FAIL"
                kind = "exact" if c.exact else f"residual {c.residual_radius}"
                lines.append(f"  [{mark}] {c.label} ({kind})")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _json_pieces, "csv": lambda reports: [render_csv(reports)],
              "text": lambda reports: [render_text(reports)]}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _str(value) -> str:
    if not isinstance(value, str):
        raise DomainError(f"expected a string, got {value!r}")
    return value


def _int(value) -> int:
    """An integer given as a JSON integer or a string of ASCII digits with an
    optional sign, after stripping whitespace.  int() alone would also read
    "1_92" as 192 and Arabic-Indic or other non-ASCII digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    s = value.strip() if isinstance(value, str) else ""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"expected an integer, got {value!r}")
    return int(s)


def _precision(value) -> int:
    """A precision in bits: an _int from 64 to 2^20, as PrecisionCtx takes."""
    return require_precision(_int(value))


def _named(name: str, parse, value):
    """parse(value), its DomainError prefixed with the option or variable it read."""
    try:
        return parse(value)
    except DomainError as exc:
        raise DomainError(f"{name}: {exc}") from None


def _int_arg(value: str) -> int:
    """_int as an argparse ``type``, whose error prints _int's message."""
    try:
        return _int(value)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _suites(value) -> dict:
    names = value.split(",") if isinstance(value, str) else value
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DomainError(f"expected comma-separated suite names or a list of them, got {value!r}")
    suites = tuple(n.strip() for n in names if n.strip())
    if not suites:
        raise DomainError(f"no suite named in {value!r}; a run must check something")
    return {"suites": suites}


def _weights(value) -> dict:
    spec = value if isinstance(value, str) else str(_int(value))
    lo, sep, hi = spec.partition("..")
    return {"weight_min": _int(lo), "weight_max": _int(hi if sep else lo)}


def _tol(value) -> dict:
    s = _str(value).strip().lower()
    if not s.startswith("1e-"):
        raise DomainError(f"tolerance must look like 1e-40, got {value!r}")
    return {"tolerance_exponent": _int(s[3:])}


# `verify` option -> (parser of a flag string or a config-file value into
# RunConfig fields, flag help); the flag and the config key share the name
_OPTIONS = {
    "suites": (_suites, "comma-separated suite names (default: all)"),
    "weights": (_weights, "A..B inclusive (default 3..12)"),
    "precision": (lambda v: {"precision_bits": _precision(v)},
                  f"working precision in bits (default {_ENV_PRECISION} or {_DEFAULT_PRECISION})"),
    "tol": (_tol, f"residual tolerance 1e-N (default 1e-{_DEFAULT_TOL_EXP})"),
    "format": (lambda v: {"output_format": _str(v)}, "json, csv or text (default text)"),
    "out": (lambda v: {"output_path": _str(v)}, "report file (default: stdout)"),
    "jobs": (lambda v: {"parallelism": _int(v)}, "must be 1 (runs are single-threaded)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dzv",
        description="Compute double zeta values and Bernoulli numbers with "
                    "certified precision, and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_b = sub.add_parser("bernoulli", help="print an exact Bernoulli number")
    p_b.add_argument("m", type=_int_arg)

    p_d = sub.add_parser("dzeta", help="print a double zeta value to certified digits")
    p_d.add_argument("l1", type=_int_arg)
    p_d.add_argument("l2", type=_int_arg)
    p_d.add_argument("-p", "--precision", type=_int_arg, default=None)

    p_v = sub.add_parser("verify", help="run verification suites over a weight range")
    for key, (_, help_text) in _OPTIONS.items():
        p_v.add_argument(f"--{key}", help=help_text)
    p_v.add_argument("--config", help="JSON object with the same keys as the flags; flags win")
    return parser


def _default_precision() -> int:
    """DZV_PRECISION when set, else 192 bits; a bad value is a usage error."""
    env = os.environ.get(_ENV_PRECISION)
    return _named(_ENV_PRECISION, _precision, env) if env else _DEFAULT_PRECISION


def _config_from_args(args) -> RunConfig:
    given = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"config file: {exc}") from None
        if not isinstance(given, dict):
            raise DomainError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(given) - set(_OPTIONS))
        if unknown:
            raise DomainError(f"unknown config keys {unknown}; known: {', '.join(_OPTIONS)}")
    given.update((key, getattr(args, key)) for key in _OPTIONS if getattr(args, key) is not None)
    fields = {"suites": SUITE_NAMES, "precision_bits": _default_precision()}
    for key, value in given.items():
        if value is not None:  # JSON null: not given
            fields.update(_named(key, _OPTIONS[key][0], value))
    return RunConfig(**fields)


def _report_file(path: Optional[str]):
    """The report's destination, opened before the run so a bad path fails first."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write the report: {exc}") from None


def _write(fh, pieces, what: str) -> None:
    """Write the text's pieces to fh and close it (stdout: flush it) here, so
    a full disk or a closed pipe is exit 2 with one error line, not a traceback."""
    try:
        with contextlib.nullcontext() if fh is sys.stdout else fh:
            fh.writelines(pieces)
            fh.flush()
    except OSError as exc:
        if fh is sys.stdout:
            _stdout_to_devnull()
        raise DomainError(f"cannot write {what}: {exc}") from None


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull.  A failed flush leaves
    its bytes buffered, and the interpreter flushes them again at exit; on
    the same full disk or closed pipe that fails too and turns the exit code
    into 120.  A stdout with no descriptor (a test's capture) is left as is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2

    try:
        if args.command == "bernoulli":
            _write(sys.stdout, [_fraction_str(bernoulli(args.m)) + "\n"], "the value")
        elif args.command == "dzeta":
            default_prec = _default_precision()  # checked even when -p overrides it
            prec = (default_prec if args.precision is None
                    else _named("precision", _precision, args.precision))
            value = double_zeta(IndexPair(args.l1, args.l2), PrecisionCtx(prec))
            _, _, rm, re = value.dyadic()
            radius = _radius_decimal(*_dy_ratio(rm, re))
            _write(sys.stdout, [f"{_ball_str(value, prec)} ± {radius}\n"], "the value")
        else:
            config = _config_from_args(args)
            with _report_file(config.output_path) as fh:
                reports, code = cmd_verify(config)
                _write(fh, _RENDERERS[config.output_format](reports), "the report")
            return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
