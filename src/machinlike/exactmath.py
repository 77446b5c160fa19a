"""Integer, rational and decimal plumbing used by every numeric module.

Precision discipline: public functions take a ``precision`` argument that
counts significant decimal digits of the result.  Internally they carry
``guard_digits()`` extra digits, so the digits handed back are actually
correct.  Anything exactly representable stays an ``int`` or ``Fraction``
for as long as possible; ``Decimal`` enters only where a value is
irrational or a quotient is finally needed.

Integers to and from text: int_to_text and text_to_int convert in
subquadratic time and under any int<->str digit limit, which the package
never changes; ``parsed_lines`` holds the line rule of every input file.
Rationals have three shapes here: a Fraction in lowest terms,
coprime_fraction building one from parts known to be coprime with no gcd,
and RationalParts, the parts as written, read with no gcd at all.
"""

from __future__ import annotations

import numbers
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import (
    Context, Decimal, Inexact, MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, localcontext)
from fractions import Fraction

from .errors import DomainError, FormulaParseError

DEFAULT_GUARD_DIGITS = 10

_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131042746112852790792954564")


def guard_digits() -> int:
    """Extra working digits carried beyond every requested precision.

    The MACHINLIKE_GUARD_DIGITS environment variable overrides the
    default budget of 10.
    """
    raw = os.environ.get("MACHINLIKE_GUARD_DIGITS")
    if raw is None:
        return DEFAULT_GUARD_DIGITS
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(
            f"MACHINLIKE_GUARD_DIGITS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise DomainError("MACHINLIKE_GUARD_DIGITS must be >= 0")
    return value


@contextmanager
def working_context(precision: int):
    """Decimal context with ``precision`` digits and exponent limits wide
    enough for series whose terms span thousands of orders of magnitude."""
    if precision < 1:
        raise DomainError(f"context precision must be >= 1, got {precision}")
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.Emax = MAX_EMAX
        ctx.Emin = MIN_EMIN
        yield ctx


def round_sig(value: Decimal, precision: int) -> Decimal:
    """Round to ``precision`` significant digits, half even."""
    if precision < 1:
        raise DomainError(f"precision must be >= 1, got {precision}")
    if not value.is_finite():
        raise DomainError(f"cannot round non-finite value {value}")
    if value == 0:
        return Decimal(0)
    with working_context(precision):
        return +value


def fraction_to_decimal(value: Fraction | int, precision: int) -> Decimal:
    """``value`` as a Decimal correct to ``precision`` significant digits.

    The quotient is formed by one scaled integer division, so the cost
    stays close to linear in the operand size even when numerator and
    denominator run to millions of digits (a direct Decimal conversion
    of the parts would pay a quadratic base-conversion toll).
    """
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac == 0:
        return Decimal(0)
    num, den = abs(frac.numerator), frac.denominator
    work = precision + guard_digits()
    # ~floor(log10(num/den)); an error of +-2 here only shifts the digit
    # budget, never the value
    mag = int((num.bit_length() - den.bit_length()) * 0.30102999566398)
    shift = work - mag + 3
    if shift >= 0:
        scaled = (num * 10**shift) // den
    else:
        scaled = num // (den * 10**-shift)
    with working_context(work):
        dec = Decimal(scaled).scaleb(-shift)
    if frac < 0:
        # copy_negate flips the sign without touching the active context;
        # a bare unary minus would round to its 28-digit default
        dec = dec.copy_negate()
    return round_sig(dec, precision)


def int_log10(n: int, precision: int = 40) -> Decimal:
    """log10 of |n| for integers too large to convert to Decimal whole.

    Only the top bits carry information beyond the power-of-two offset,
    so the cost is a shift plus a small logarithm: O(len(n)) instead of
    the quadratic base conversion Decimal(n).log10() would trigger.
    """
    if n == 0:
        raise DomainError("log10 of zero")
    n = abs(n)
    bits = n.bit_length()
    window = int((precision + 4) * 3.33) + 8
    with working_context(precision + guard_digits()):
        if bits <= window:
            return +Decimal(n).log10()
        top = n >> (bits - window)
        return +(Decimal(top).log10() + (bits - window) * _LOG10_2)


def rational_log10_abs(value: Fraction | int | RationalParts, precision: int = 40) -> Decimal:
    """log10 |value| for a nonzero rational with possibly huge parts, read
    from its numerator and denominator."""
    if value.numerator == 0:
        raise DomainError("log10 of zero")
    with working_context(precision + guard_digits()):
        return +(int_log10(value.numerator, precision + 5)
                 - int_log10(value.denominator, precision + 5))


def int_digit_count(n: int) -> int:
    """Number of decimal digits of |n|, without materializing the string."""
    if n == 0:
        return 1
    n = abs(n)
    if n.bit_length() <= 128:
        return len(str(n))
    log = int_log10(n, 30)
    floor_log = int(log)
    frac = log - floor_log
    # only near a power of ten can the log estimate be off by one
    if frac < Decimal("1e-10") or frac > 1 - Decimal("1e-10"):
        if n >= 10 ** (floor_log + 1):
            floor_log += 1
        elif n < 10**floor_log:
            floor_log -= 1
    return floor_log + 1


def coinciding_digits(a: Decimal, b: Decimal) -> int:
    """Count of decimal places on which two values agree.

    Defined through the exact difference, d = -ceil(log10 |a - b|):
    3.14159 vs 3.14168 gives 4, values with different integer parts give
    0 or less.  Equal values return the resolution of the finer operand,
    since agreement beyond the stored digits is unknowable.
    """
    if not (a.is_finite() and b.is_finite()):
        raise DomainError("coinciding_digits needs finite values")
    ta, tb = a.as_tuple(), b.as_tuple()
    if a == b:
        return max(-ta.exponent, -tb.exponent, 0)
    span = max(a.adjusted(), b.adjusted()) - min(ta.exponent, tb.exponent) + 10
    with working_context(span):
        diff = abs(a - b)  # exact at this width
    adjusted = diff.adjusted()
    if diff == Decimal(1).scaleb(adjusted):
        return -adjusted
    return -(adjusted + 1)


def digits_prefix(value: Decimal, count: int) -> str:
    """First ``count`` significant digits of |value|, truncated, as a
    plain digit string.  The value is treated as exact, so short inputs
    pad with zeros."""
    if count < 1:
        raise DomainError(f"digit count must be >= 1, got {count}")
    if not value.is_finite():
        raise DomainError(f"cannot take digits of {value}")
    if value == 0:
        return "0" * count
    ctx = Context(prec=count, rounding=ROUND_DOWN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    trimmed = ctx.plus(value.copy_abs())
    digits = "".join(map(str, trimmed.as_tuple().digits))
    return digits.ljust(count, "0")


# Conversion leaves: Decimal(int) pays a quadratic pass on 2048 bits at most,
# and int(str) sees at most 640 digits, the lowest digit limit an
# interpreter accepts; neither Decimal(int) nor str(Decimal) is limited.
_LEAF_BITS = 2048
_LEAF_DIGITS = 640
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def int_to_text(n: int) -> str:
    """str(n), in subquadratic time and under any int<->str digit limit.

    n is split at powers 2^w down to 2048-bit pieces and rebuilt as one
    exact Decimal, so libmpdec's number-theoretic multiply does the base
    conversion; str(Decimal) then prints it in one linear pass.
    """
    powers = {}    # 2^w as a Decimal, kept for this call only

    def power(w):
        if w not in powers:
            half = w >> 1
            powers[w] = Decimal(1 << w) if w <= _LEAF_BITS else power(half) * power(w - half)
        return powers[w]

    def build(m, w):    # 0 <= m < 2^w
        if w <= _LEAF_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        return build(hi, w - half) * power(half) + build(m - (hi << half), half)

    with localcontext(_EXACT):
        text = str(build(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def text_to_int(text: str) -> int:
    """int(text) for ``[+-]digits``, in subquadratic time and under any
    int<->str digit limit.

    The digits are split in halves down to 640-digit pieces, and each split
    is rebuilt as hi * 10^w + lo = (hi * 5^w << w) + lo: one multiply and
    one shift.
    """
    powers = {}    # 5^w, kept for this call only

    def build(digits):
        if len(digits) <= _LEAF_DIGITS:
            return int(digits)
        w = len(digits) >> 1
        if w not in powers:
            powers[w] = 5**w
        return (build(digits[:-w]) * powers[w] << w) + build(digits[-w:])

    signed = text[:1] in ("+", "-")
    value = build(text[1:] if signed else text)
    return -value if text[:1] == "-" else value


class _CoprimeParts:
    """Parts in lowest terms with a positive denominator.  Registered as a
    numbers.Rational, whose parts are in lowest terms by contract, so that
    Fraction(r) copies them as they are, with no gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_CoprimeParts)


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction, built with no gcd: the caller vouches that
    gcd(num, den) == 1.  The sign may sit on either part."""
    if den == 0:
        raise DomainError("zero denominator")
    if den < 0:
        num, den = -num, -den
    return Fraction(_CoprimeParts(num, den))


@dataclass(frozen=True, slots=True)
class RationalParts:
    """An exact rational kept as the integer parts it was written with, not
    reduced, so that reading it takes no gcd.  Like an int or a Fraction it
    is read through ``numerator`` and ``denominator``; the sign sits on the
    numerator."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise DomainError(f"denominator must be positive, got {self.denominator}")


def reciprocal(value: Fraction | int | RationalParts) -> RationalParts:
    """1/value from its parts, with no gcd: the parts swap places and the
    sign stays on the numerator."""
    num, den = value.numerator, value.denominator
    if num == 0:
        raise DomainError("reciprocal of zero")
    return RationalParts(den if num > 0 else -den, abs(num))


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def format_rational(value: Fraction | RationalParts) -> str:
    """Render as num/den with the sign on the numerator, den always shown."""
    return f"{int_to_text(value.numerator)}/{int_to_text(value.denominator)}"


def parse_rational_parts(text: str) -> tuple[int, int]:
    """(num, den) of ``[+-]num[/den]`` as written, unreduced.  The sign
    belongs to the numerator only; a signed or zero denominator is rejected."""
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise FormulaParseError(f"not a rational literal: {text.strip()!r}")
    num, den = text_to_int(match.group(1)), text_to_int(match.group(2) or "1")
    if den == 0:
        raise FormulaParseError(f"zero denominator: {text.strip()!r}")
    return num, den


def parsed_lines(path, parse):
    """``parse(line)`` for each stripped line of an ASCII input file that
    is neither blank nor a '#' comment, in order.  A non-ASCII byte, or a
    FormulaParseError from ``parse``, is raised with the line's number."""
    # latin-1 decodes every byte, so a bad one is found on its own line
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                byte = next(c for c in raw if not c.isascii())
                raise FormulaParseError(f"non-ASCII byte 0x{ord(byte):02x}; input files "
                                        f"are ASCII", line=lineno)
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    yield parse(line)
                except FormulaParseError as exc:
                    raise FormulaParseError(str(exc), line=lineno) from None


def complex_mul(a, b):
    """(re, im) product; works for any field-like component type."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def complex_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def complex_add(a, b):
    return (a[0] + b[0], a[1] + b[1])
