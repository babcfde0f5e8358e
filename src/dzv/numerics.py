"""Arbitrary-precision substrate: exact rationals, midpoint-radius balls,
and formal polynomials in pi.  Every check side is a real ball.  No dzv
computation calls the following; ``perfbench/`` imports or wraps them by
name (tests use some), so they go with its rework: the complex balls
(``ComplexBall``, ``complex_sum``, ``cube_root_of_unity``), the pi section
(``pi_const``), ``PiPolynomial``, ``pipoly_eval``, ``ball_sum``, and of
``RealBall`` ``from_fraction``, ``pow_int`` (with ``from_int``) and
``add_error``; in ``dzv.dzeta``, ``gen_poly_real``, ``functional_eq26_check``
and the ``hurwitz_zeta`` import.

Balls store the midpoint and radius as dyadic numbers (mantissa * 2**exp with
Python integers), so every operation can account for its rounding error
exactly: results are enclosures, never estimates.  Midpoints are rounded to a
caller-supplied precision; radii are rounded upward to a short mantissa.
Verdicts (zero within a tolerance, intersection, a relative-radius target)
are decided on those integers, a rational tolerance by cross-multiplying;
midpoint_fraction() and radius_fraction() are for readers outside that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

__all__ = [
    "DomainError",
    "OutsideHypothesis",
    "PrecisionUnreachableError",
    "PrecisionCtx",
    "RealBall",
    "ComplexBall",
    "PiPolynomial",
    "ZeroCertificate",
    "CheckReport",
    "GUARD_BITS",
    "pi_const",
    "cube_root_of_unity",
    "pipoly_eval",
    "ball_is_zero_within",
    "check_from_sides",
    "exact_check",
    "ball_sum",
    "complex_sum",
]

# Radii carry few mantissa bits; they only need an order of magnitude.
_RAD_BITS = 24

# Bits above the working precision that checks and table consumers compute at.
GUARD_BITS = 48


class DomainError(ValueError):
    """An argument violates an operation's mathematical precondition."""


class OutsideHypothesis(DomainError):
    """The weight is outside the statement's hypothesis; the message says which."""


class PrecisionUnreachableError(RuntimeError):
    """An evaluation's radius missed its relative target at the fixed cutoffs."""


def require_exact(x, what: str, kinds: tuple = (int, Fraction)):
    """x itself when it is an instance of one of kinds and not a bool, else
    DomainError: a float is not the rational it was written as, and a memo
    keyed by 12 would answer for 12.0."""
    if isinstance(x, bool) or not isinstance(x, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"{what} must be an {names}, got {x!r}")
    return x


def require_precision(bits: int) -> int:
    """bits if it is 64 to 2^20 (a table row at 2^20 bits is about 2^19 integers
    of 2^20 bits each), else DomainError stating the range and the value."""
    if not 64 <= bits <= 1 << 20:
        raise DomainError(f"expected 64 to 2^20 = 1048576 bits, got {bits}")
    return bits


# ---------------------------------------------------------------------------
# dyadic helpers: a dyadic number is (man, exp) meaning man * 2**exp
# ---------------------------------------------------------------------------

def _dy_add(m1: int, e1: int, m2: int, e2: int) -> Tuple[int, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 <= e2:
        return m1 + (m2 << (e2 - e1)), e1
    return m2 + (m1 << (e1 - e2)), e2


def _dy_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Sign of m1*2**e1 - m2*2**e2."""
    m, _ = _dy_add(m1, e1, -m2, e2)
    return (m > 0) - (m < 0)


def _dy_ratio(m: int, e: int) -> Tuple[int, int]:
    """(num, den), den a power of two: the integers whose quotient is m*2**e."""
    return (m << e, 1) if e >= 0 else (m, 1 << -e)


def _dy_fraction(m: int, e: int) -> Fraction:
    return Fraction(*_dy_ratio(m, e))


def _strip_zeros(man: int, exp: int) -> Tuple[int, int]:
    """The same nonzero dyadic man*2**exp with the trailing zero bits of man
    moved into exp."""
    tz = (man & -man).bit_length() - 1
    return man >> tz, exp + tz


def _rad_up(man: int, exp: int) -> Tuple[int, int]:
    """Round a nonnegative dyadic upward to a short mantissa; the result
    depends only on the value, not on how it is written."""
    if man == 0:
        return 0, 0
    bits = man.bit_length()
    if bits <= _RAD_BITS:
        return man, exp
    sh = bits - _RAD_BITS
    top = man >> sh
    return top + (top << sh != man), exp + sh


def _rounded(mm: int, me: int, rm: int, re: int, prec: int) -> "RealBall":
    """The kernel's one rounding rule: round the midpoint mm*2**me to prec
    bits (to nearest; trailing zero bits stripped first, so dyadically exact
    values stay exact), add the error to the radius rm*2**re, round it up."""
    if mm:
        sh = mm.bit_length() - prec
        if sh > (mm & -mm).bit_length() - 1:  # more than prec bits once stripped
            mm, me = (mm + (1 << (sh - 1))) >> sh, me + sh
            rm, re = _dy_add(rm, re, 1, me - 1)
        else:
            mm, me = _strip_zeros(mm, me)
    if rm >> _RAD_BITS:
        rm, re = _rad_up(rm, re)
    return RealBall(mm, me, rm, re)


# ---------------------------------------------------------------------------
# precision context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision (binary digits) plus the residual tolerance checks use.
    The precision is an int from 64 to 2^20; the tolerance is an int or a
    Fraction and is stored as a Fraction (a float is not the rational it was
    written as)."""

    working_precision: int = 192
    target_tolerance: Fraction = Fraction(1, 10**40)

    def __post_init__(self):
        require_exact(self.working_precision, "working_precision", (int,))
        try:
            require_precision(self.working_precision)
        except DomainError as exc:
            raise DomainError(f"working_precision: {exc}") from None
        tol = require_exact(self.target_tolerance, "target_tolerance")
        object.__setattr__(self, "target_tolerance", Fraction(tol))
        if self.target_tolerance <= 0:
            raise DomainError("target_tolerance must be positive")


# ---------------------------------------------------------------------------
# real balls
# ---------------------------------------------------------------------------

class RealBall:
    """Enclosure [mid - rad, mid + rad] with dyadic midpoint and radius.

    Arithmetic is inclusion monotone: the result ball contains f(x) for every
    point x of the input balls.  Operations that round the midpoint take an
    explicit precision in bits.
    """

    __slots__ = ("_mm", "_me", "_rm", "_re")

    def __init__(self, mm: int, me: int, rm: int, re: int):
        if rm < 0:
            raise ValueError("radius mantissa must be nonnegative")
        if mm == 0:
            me = 0
        if rm == 0:
            re = 0
        self._mm, self._me, self._rm, self._re = mm, me, rm, re

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "RealBall":
        return RealBall(0, 0, 0, 0)

    @staticmethod
    def from_int(n: int) -> "RealBall":
        return RealBall(n, 0, 0, 0)

    @staticmethod
    def from_floors(total: int, floors: int, rad: int, width: int) -> "RealBall":
        """The ball of a sum of integer floors at unit 2^-width that add up to
        `total` and are low by less than `floors` units in all (one per
        floor): centred on [total, total + floors] units, widened by `rad`."""
        return RealBall(2 * total + floors, -width - 1, floors + 2 * rad, -width - 1)

    @staticmethod
    def from_fraction(q, prec: int) -> "RealBall":
        """Ball containing the rational q (an int or a Fraction), exact when q
        is dyadic."""
        require_exact(q, "from_fraction's q")
        num, den = q.numerator, q.denominator
        if num == 0:
            return RealBall(0, 0, 0, 0)
        e = (abs(num).bit_length() - den.bit_length()) - prec - 1
        if e <= 0:
            man, rem = divmod(num << (-e), den)
        else:
            man, rem = divmod(num, den << e)
        if rem == 0:
            man, e = _strip_zeros(man, e)
            return RealBall(man, e, 0, 0)
        # q lies in [man, man + 1] units of 2^e
        return RealBall.from_floors(man, 1, 0, -e)

    # -- accessors -----------------------------------------------------------

    def midpoint_fraction(self) -> Fraction:
        return _dy_fraction(self._mm, self._me)

    def radius_fraction(self) -> Fraction:
        return _dy_fraction(self._rm, self._re)

    def dyadic(self) -> Tuple[int, int, int, int]:
        """(mm, me, rm, re): the midpoint is mm 2^me and the radius rm 2^re."""
        return self._mm, self._me, self._rm, self._re

    def is_zero(self) -> bool:
        return self._mm == 0 and self._rm == 0

    def intersects(self, other: "RealBall") -> bool:
        """True when |mid - other's mid| <= rad + other's rad."""
        dm, de = _dy_add(self._mm, self._me, -other._mm, other._me)
        rm, re = _dy_add(self._rm, self._re, other._rm, other._re)
        return _dy_cmp(abs(dm), de, rm, re) <= 0

    def meets_relative_radius(self, k: int) -> bool:
        """True when the lower end is positive and rad <= lower * 2^-k, that
        is mid > 0 and rad (2^k + 1) <= mid."""
        return self._mm > 0 and _dy_cmp(self._rm * ((1 << k) + 1), self._re,
                                        self._mm, self._me) <= 0

    # -- arithmetic ----------------------------------------------------------

    def neg(self) -> "RealBall":
        return RealBall(-self._mm, self._me, self._rm, self._re)

    __neg__ = neg

    def add(self, other: "RealBall", prec: int) -> "RealBall":
        mm, me = _dy_add(self._mm, self._me, other._mm, other._me)
        rm, re = _dy_add(self._rm, self._re, other._rm, other._re)
        return _rounded(mm, me, rm, re, prec)

    def sub(self, other: "RealBall", prec: int) -> "RealBall":
        return self.add(other.neg(), prec)

    def mul(self, other: "RealBall", prec: int) -> "RealBall":
        mm = self._mm * other._mm
        me = self._me + other._me
        rm, re = _dy_add(abs(self._mm) * other._rm, self._me + other._re,
                         abs(other._mm) * self._rm, other._me + self._re)
        rm, re = _dy_add(rm, re, self._rm * other._rm, self._re + other._re)
        return _rounded(mm, me, rm, re, prec)

    def mul_int(self, n: int) -> "RealBall":
        """Exact scalar multiple by an integer."""
        return RealBall(self._mm * n, self._me, self._rm * abs(n), self._re)

    def pow_int(self, n: int, prec: int) -> "RealBall":
        if n < 0:
            raise DomainError("negative powers are not supported")
        result = RealBall.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base, prec)
            n >>= 1
            if n:
                base = base.mul(base, prec)
        return result

    def scaled_floors(self, num: int, den: int, width: int) -> Tuple[int, int]:
        """(f, r) at unit 2^-width for the ball (num/den) * self, den > 0:
        f = floor(num mid / den) and r = ceil(|num| rad / den), so every point
        of the scaled ball lies in [f - r, f + 1 + r] units."""
        e = self._me + width
        f = (num * self._mm << e) // den if e >= 0 else num * self._mm // (den << -e)
        e = self._re + width
        n = abs(num) * self._rm
        r = -(-(n << e) // den) if e >= 0 else -(-n // (den << -e))
        return f, r

    def add_error(self, q) -> "RealBall":
        """Inflate the radius by a nonnegative rational bound (rounded up)."""
        if require_exact(q, "add_error's bound") < 0:
            raise ValueError("error bound must be nonnegative")
        if q == 0:
            return self
        # the upper end of q's ball at _RAD_BITS - 1 bits: q rounded up at _RAD_BITS bits
        b = RealBall.from_fraction(q, _RAD_BITS - 1)
        rm, re = _dy_add(self._rm, self._re, *_dy_add(b._mm, b._me, b._rm, b._re))
        return RealBall(self._mm, self._me, *_rad_up(rm, re))

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        try:
            mid_s = repr(float(_dy_fraction(self._mm, self._me)))
        except OverflowError:
            mid_s = f"{self._mm}*2^{self._me}"
        return f"RealBall({mid_s} +/- {_radius_decimal(*_dy_ratio(self._rm, self._re))})"


def _decimal_str(n: int) -> str:
    """str(n) for an integer of any size.  Python refuses str() of an int
    above its int_max_str_digits limit (4300 digits by default); a Decimal
    has no such limit, so no process-wide setting is changed."""
    try:
        return str(n)
    except ValueError:  # above the limit
        return str(Decimal(n))


@cache
def _pow10(n: int) -> int:
    """10^n, kept: the printers ask for the same few powers again and again."""
    return 10 ** n


def _radius_digits(num: int, den: int) -> Tuple[int, int]:
    """(m, e) with 10 <= m <= 99 and m * 10^(e-1) the least two-significant-digit
    upper bound of the positive rational r = num/den."""
    # the digit counts give 10^(e-1) < r < 10^(e+1), so a/b = r 10^-e is in (0.1, 10)
    e = len(_decimal_str(num)) - len(_decimal_str(den))
    a, b = (num, den * _pow10(e)) if e >= 0 else (num * _pow10(-e), den)
    if a < b:  # r < 10^e: drop e
        e, a = e - 1, a * 100
    else:
        a *= 10
    # r in [10^e, 10^(e+1)); round the mantissa UP to 2 digits: ceil(r 10^(1-e)) = ceil(a/b)
    m = -(-a // b)
    if m >= 100:
        m //= 10
        e += 1
    return m, e


def _sci(m: int, e: int) -> str:
    return f"{m // 10}.{m % 10}e{e:+03d}"


def _radius_decimal(num: int, den: int) -> str:
    """Two-significant-digit upper bound of num/den >= 0, sci notation."""
    return _sci(*_radius_digits(num, den)) if num else "0"


def ball_sum(items: Iterable[RealBall], prec: int) -> RealBall:
    """Sum with exact accumulation and a single final rounding.

    Permutation invariant: the same multiset of balls always yields the same
    enclosure.
    """
    mm, me, rm, re = 0, 0, 0, 0
    for b in items:
        mm, me = _dy_add(mm, me, b._mm, b._me)
        rm, re = _dy_add(rm, re, b._rm, b._re)
    return _rounded(mm, me, rm, re, prec)


# ---------------------------------------------------------------------------
# complex balls
# ---------------------------------------------------------------------------

class ComplexBall:
    """Rectangular complex enclosure: independent real and imaginary balls.
    No check evaluates one; these are the operations the benchmark tracer
    wraps by name."""

    __slots__ = ("real", "imag")

    def __init__(self, real: RealBall, imag: RealBall):
        self.real = real
        self.imag = imag

    @staticmethod
    def from_real(b: RealBall) -> "ComplexBall":
        return ComplexBall(b, RealBall.zero())

    @staticmethod
    def from_fractions(re, im, prec: int) -> "ComplexBall":
        """The ball of re + i im, each an int or a Fraction."""
        return ComplexBall(RealBall.from_fraction(re, prec),
                           RealBall.from_fraction(im, prec))

    def add(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return ComplexBall(self.real.add(other.real, prec),
                           self.imag.add(other.imag, prec))

    def sub(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        return ComplexBall(self.real.sub(other.real, prec),
                           self.imag.sub(other.imag, prec))

    def mul(self, other: "ComplexBall", prec: int) -> "ComplexBall":
        re = self.real.mul(other.real, prec).sub(self.imag.mul(other.imag, prec), prec)
        im = self.real.mul(other.imag, prec).add(self.imag.mul(other.real, prec), prec)
        return ComplexBall(re, im)

    def mul_real(self, other: RealBall, prec: int) -> "ComplexBall":
        return ComplexBall(self.real.mul(other, prec), self.imag.mul(other, prec))

    def __repr__(self) -> str:
        return f"ComplexBall({self.real!r}, {self.imag!r})"


def complex_sum(items: Iterable[ComplexBall], prec: int) -> ComplexBall:
    items = list(items)
    return ComplexBall(ball_sum((z.real for z in items), prec),
                       ball_sum((z.imag for z in items), prec))


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def _arctan_recip_scaled(q: int, w: int) -> Tuple[int, int]:
    """(S, errs): S approximates 2**w * arctan(1/q), error < errs ulps.

    Alternating series sum_k (-1)^k / ((2k+1) q^(2k+1)); each floor division
    loses < 1 ulp and the tail after the loop is below the first omitted term,
    itself < 1 ulp once the power alone exceeds 2**w.
    """
    total = 0
    k = 0
    qpow = q          # q^(2k+1)
    q2 = q * q
    one = 1 << w
    while True:
        term = one // (qpow * (2 * k + 1))
        if term == 0:
            break
        total += -term if k & 1 else term
        k += 1
        qpow *= q2
    return total, k + 1


def _pi_scaled(w: int) -> Tuple[int, int]:
    """(P, E): |2**w * pi - P| <= E, via pi = 16 atan(1/5) - 4 atan(1/239)."""
    s5, e5 = _arctan_recip_scaled(5, w)
    s239, e239 = _arctan_recip_scaled(239, w)
    return 16 * s5 - 4 * s239, 16 * e5 + 4 * e239


@cache
def _pi(prec: int) -> RealBall:
    w = prec + 32
    p, e = _pi_scaled(w)
    return _rounded(p, -w, e, -w, prec + 16)


def pi_const(ctx: PrecisionCtx) -> RealBall:
    """Certified enclosure of pi at the context's working precision, memoized
    by that precision."""
    return _pi(ctx.working_precision)


def cube_root_of_unity(ctx: PrecisionCtx) -> ComplexBall:
    """Enclosure of exp(2 pi i / 3) = (-1/2, sqrt(3)/2)."""
    k = ctx.working_precision + 8
    # s <= 2^k sqrt(3) < s + 1, so sqrt(3)/2 lies in [s, s + 1] / 2^(k+1)
    s = isqrt(3 << (2 * k))
    return ComplexBall(RealBall(-1, -1, 0, 0), RealBall.from_floors(s, 1, 0, k + 1))


# ---------------------------------------------------------------------------
# polynomials in the formal symbol pi
# ---------------------------------------------------------------------------

class PiPolynomial:
    """Finite sum of terms coeff * pi**k with exact rational coefficients.

    The argument of ``pipoly_eval``; supports sums, products and exact
    equality.  Exponents are ints >= 0; coefficients and
    scalars are ints or Fractions, so 0.1 is not read as a binary double.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[int, Fraction]] = None):
        clean = {}
        for k, c in (terms or {}).items():
            if require_exact(k, "a pi exponent", (int,)) < 0:
                raise DomainError("pi exponents must be nonnegative")
            if require_exact(c, "a pi-polynomial coefficient"):
                clean[k] = Fraction(c)
        self._terms = clean

    @staticmethod
    def constant(c) -> "PiPolynomial":
        return PiPolynomial({0: c})

    @staticmethod
    def single(k: int, c) -> "PiPolynomial":
        return PiPolynomial({k: c})

    def terms(self) -> Mapping[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "PiPolynomial") -> "PiPolynomial":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return PiPolynomial(out)

    def __mul__(self, other) -> "PiPolynomial":
        if isinstance(other, PiPolynomial):
            out: dict = {}
            for k1, c1 in self._terms.items():
                for k2, c2 in other._terms.items():
                    k = k1 + k2
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
            return PiPolynomial(out)
        return self * PiPolynomial.constant(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return "PiPolynomial(0)"
        parts = [f"({c})*pi^{k}" if k else f"({c})"
                 for k, c in sorted(self._terms.items())]
        return "PiPolynomial(" + " + ".join(parts) + ")"


def pipoly_eval(p: PiPolynomial, ctx: PrecisionCtx) -> RealBall:
    """Certified enclosure of sum coeff * pi**k."""
    if p.is_zero():
        return RealBall.zero()
    prec = ctx.working_precision + 32
    pi = pi_const(PrecisionCtx(ctx.working_precision + 48, ctx.target_tolerance))
    terms = []
    for k, c in sorted(p.terms().items()):
        t = RealBall.from_fraction(c, prec)
        if k:
            t = t.mul(pi.pow_int(k, prec), prec)
        terms.append(t)
    return ball_sum(terms, prec)


# ---------------------------------------------------------------------------
# residual acceptance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCertificate:
    """Record of a |midpoint| + radius <= tolerance comparison: the ball
    compared, the tolerance and the verdict."""

    ball: RealBall
    tolerance: Union[int, Fraction]
    within: bool


def _zero_within(x: RealBall, tol) -> bool:
    """|mid| + rad <= tol for a positive int or Fraction tol, on integers: the
    dyadic |mid| + rad times tol's denominator against its numerator."""
    sm, se = _dy_add(abs(x._mm), x._me, x._rm, x._re)
    if se >= 0:
        return sm * tol.denominator << se <= tol.numerator
    return sm * tol.denominator <= tol.numerator << -se


def ball_is_zero_within(x: RealBall, tol) -> Tuple[bool, ZeroCertificate]:
    """True iff |midpoint| + radius <= tol (an int or a Fraction), decided on
    the ball's integers, with the certificate of that comparison."""
    if require_exact(tol, "tolerance").numerator <= 0:
        raise DomainError("tolerance must be positive")
    ok = _zero_within(x, tol)
    return ok, ZeroCertificate(x, tol, ok)


Side = Union[RealBall, Fraction]


class CheckReport(NamedTuple):
    """Outcome of one identity check: both sides, their residual and the
    verdict.  Numeric checks carry ball sides and the tolerance they were
    judged with; exact checks carry rational sides and no tolerance.  A
    NamedTuple, so ``_replace`` makes a changed copy."""

    label: str
    weight: int
    lhs: Side
    rhs: Side
    residual: Side
    passed: bool
    tolerance: Optional[Fraction]
    exact: bool = False


def check_from_sides(label: str, weight: int, lhs: RealBall, rhs: RealBall,
                     ctx: PrecisionCtx) -> CheckReport:
    """The pass rule of every numeric check: the residual lhs - rhs is
    certified zero within the context tolerance (|mid| + rad <= tol, which
    ``PrecisionCtx`` has checked) and the sides intersect.  The residual is
    rounded once from the exact pair (lhs mid - rhs mid, lhs rad + rhs rad),
    and the sides intersect iff that pair has |difference| <= sum."""
    tol = ctx.target_tolerance
    dm, de = _dy_add(lhs._mm, lhs._me, -rhs._mm, rhs._me)
    sm, se = _dy_add(lhs._rm, lhs._re, rhs._rm, rhs._re)
    residual = _rounded(dm, de, sm, se, ctx.working_precision + GUARD_BITS)
    passed = _zero_within(residual, tol) and _dy_cmp(abs(dm), de, sm, se) <= 0
    return CheckReport(label, weight, lhs, rhs, residual, passed, tol)


def exact_check(label: str, weight: int, lhs: Fraction, rhs: Fraction) -> CheckReport:
    """An identity between exact rationals: passes iff the sides are equal."""
    return CheckReport(label, weight, lhs, rhs, lhs - rhs, lhs == rhs, None, exact=True)
